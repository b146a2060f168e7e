import ctypes
import glob
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from so3sparse import experiments, sampling
from so3sparse.experiments import (
    COMPLEX_GAUSSIAN,
    REAL_GAUSSIAN,
    TrialConfig,
    bound_scan,
    contour_half_success,
    gen_sparse,
    phase_transition,
    run_trial,
)
from so3sparse.solver import CONVERGED, MAX_ITER, SolverResult
from so3sparse.wigner import _SLICE, _wigner_d_lanes, basis_count, wigner_d


def test_gen_sparse_dense_when_s_equals_N():
    g = gen_sparse(10, 10, REAL_GAUSSIAN, np.random.default_rng(0))
    assert np.all(g != 0)


def test_gen_sparse_rejects_oversparse():
    with pytest.raises(ValueError):
        gen_sparse(10, 11, REAL_GAUSSIAN, np.random.default_rng(0))


def test_gen_sparse_determinism():
    a = gen_sparse(20, 3, COMPLEX_GAUSSIAN, np.random.default_rng(5))
    b = gen_sparse(20, 3, COMPLEX_GAUSSIAN, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_gen_sparse_uniform_support():
    N, draws = 10, 5000
    rng = np.random.default_rng(1)
    counts = np.zeros(N)
    for _ in range(draws):
        counts[np.nonzero(gen_sparse(N, 1, REAL_GAUSSIAN, rng))[0][0]] += 1
    p = 1 / N
    band = 3 * math.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < band + 1e-9)


def test_run_trial_square_system_succeeds():
    N = basis_count(2)
    cfg = TrialConfig(B=2, m=N, s=3, base_seed=3)
    ok, err = run_trial(cfg, 0)
    assert ok and err < 1e-3


@pytest.mark.parametrize("status, success", [(CONVERGED, True), (MAX_ITER, False)])
def test_run_trial_success_needs_convergence(monkeypatch, status, success):
    # a solver stand-in that returns the planted vector itself with the given
    # status: only the status decides the verdict
    planted = []

    def planting(*args):
        planted.append(gen_sparse(*args))
        return planted[-1]

    def solved(A, y, radius, cfg):
        return SolverResult(x=planted[-1].copy(), iterations=cfg.max_iterations,
                            primal_residual=1.0, dual_residual=1.0, status=status,
                            penalty=1.0, rebalances=0)

    monkeypatch.setattr(experiments, "gen_sparse", planting)
    monkeypatch.setattr(experiments, "bpdn_ball", solved)
    ok, err = run_trial(TrialConfig(B=2, m=20, s=2, base_seed=17), 0)
    assert ok is success and err == 0.0


def test_run_trial_deterministic():
    cfg = TrialConfig(B=2, m=20, s=2, base_seed=17)
    assert run_trial(cfg, 4) == run_trial(cfg, 4)


def test_phase_transition_reproducible_and_square_column():
    cfg = TrialConfig(B=2, s=1, trials=5, base_seed=99)
    N = basis_count(2)
    g1 = phase_transition(cfg, [4, N], [1, 2], threads=1)
    g2 = phase_transition(cfg, [4, N], [1, 2], threads=2)
    np.testing.assert_array_equal(g1.success_rate, g2.success_rate)
    np.testing.assert_array_equal(g1.success_rate[-1], 1.0)


def test_contour_interpolation():
    grid = phase_transition(
        TrialConfig(B=2, s=1, trials=4, base_seed=1), [2, 10], [1], threads=1
    )
    grid.success_rate = np.array([[0.0], [1.0]])
    assert contour_half_success(grid) == [6.0]
    grid.success_rate = np.array([[0.0], [0.25]])
    assert math.isnan(contour_half_success(grid)[0])
    grid.success_rate = np.array([[0.75], [1.0]])
    assert contour_half_success(grid) == [2.0]


def test_bound_scan_B1():
    rows, _ = bound_scan([1])
    B, N, sup = rows[0]
    assert (B, N) == (1, 1)
    assert sup == pytest.approx(1 / math.sqrt(8 * math.pi**2), rel=1e-6)


def test_bound_scan_monotone_in_B():
    rows, slope = bound_scan([2, 4, 8])
    sups = [r[2] for r in rows]
    assert sups[0] <= sups[1] <= sups[2]
    assert 0.0 < slope < 0.2


def test_bound_scan_frozen_values():
    # frozen closed-form sups; the grid maxima frozen before them (from the
    # per-class Jacobi scan on 1024 points) sit below the true sup
    rows, slope = bound_scan([2, 4, 8])
    assert [r[:2] for r in rows] == [(2, 10), (4, 84), (8, 680)]
    expected = [0.14023821938324038, 0.17109484385923238, 0.20598795950152912]
    grid_maxima = [0.1402382193832275, 0.17109484385870619, 0.2059879595014548]
    for (_, _, sup), want, below in zip(rows, expected, grid_maxima):
        assert sup == pytest.approx(want, rel=1e-13)
        assert below <= sup <= below * (1 + 1e-10)
    assert slope == pytest.approx(0.09112534630122131, rel=1e-13)


def test_weighted_sup_profile_frozen_values():
    prof = experiments._degree_sups(6) * (2 * np.arange(7) + 1) ** 0.25
    expected = [1.0, 0.9468494720562495, 0.938216670083498, 0.9346677930679393,
                0.9327328405436421, 0.931514719676778, 0.9306773151363485]
    np.testing.assert_allclose(prof, expected, rtol=1e-13, atol=0)
    grid_maxima = np.array([1.0, 0.9468494720561625, 0.9382166700834901, 0.934667793065065,
                            0.9327328405434231, 0.9315147196747422, 0.9306773151315975])
    assert np.all((grid_maxima <= prof) & (prof <= grid_maxima * (1 + 1e-10)))


def test_degree_sups_cover_every_order_pair():
    # brute force over all (2l+1)^2 order pairs on a grid: the lanes
    # 0 <= n <= k carry every sup
    theta = np.linspace(0.0, math.pi, 1024)
    weight = np.sqrt(np.sin(theta))
    sups = experiments._degree_sups(8)
    for l in range(9):
        brute = max((weight * np.abs(wigner_d(l, k, n, theta))).max()
                    for k, n in itertools.product(range(-l, l + 1), repeat=2))
        assert 0 <= sups[l] - brute <= 1e-5 * brute, l


def _grid_sups_every_lane(l_max, points):
    # per degree, the largest grid peak of every lane 0 <= n <= k, with no
    # pruning and no closed form
    k, n = np.tril_indices(l_max + 1)
    grid = np.linspace(0.0, math.pi, points)
    weight = np.sqrt(np.sin(grid))
    sups = np.zeros(l_max + 1)
    for s in range(0, points, _SLICE):
        for l, d in _wigner_d_lanes(k, n, grid[s:s + _SLICE], l_max):
            sups[l] = max(sups[l], (np.abs(d) * weight[s:s + _SLICE]).max())
    return sups


@pytest.mark.parametrize("l_max, coarse", [(31, 4096), (10, 17), (8, 256), (6, 5), (5, 3),
                                           (31, 253), (31, 254), (50, 2048),
                                           (31, 127), (31, 128), (63, 4096)])
def test_degree_sups_pruning_is_exact(l_max, coarse):
    # a scan of every lane on `coarse` points is at most the closed form, up
    # to rounding, and at least the Bernstein factor f_c(l) of it; (6, 5) and
    # (5, 3) hold degrees where f_c <= 0, and at l_max = 31 the certificate's
    # levels have 127 and 253 points
    sups = experiments._degree_sups(l_max)
    scan = _grid_sups_every_lane(l_max, coarse)
    f_c = 1 - (2 * np.arange(l_max + 1) + 1) ** 2 * (math.pi / (coarse - 1)) ** 2 / 8
    assert np.all(scan <= sups * (1 + 1e-14))
    assert np.all(f_c * sups ** 2 <= scan ** 2)


def test_degree_sups_scans_few_lanes_on_the_coarse_grid(monkeypatch):
    # rows advanced or seeded x points over every degree of every
    # _wigner_d_lanes call of the certificate, against one pass of every lane
    # at every degree on its 253-point level
    work = []

    def counted(k, n, theta, l_max):
        for l, d in _wigner_d_lanes(k, n, theta, l_max):
            work.append(len(d) * np.shape(theta)[-1])
            yield l, d

    monkeypatch.setattr(experiments, "_wigner_d_lanes", counted)
    experiments._degree_sups(31)
    rows = sum((l + 1) * (l + 2) // 2 for l in range(32))   # 5,984
    assert sum(work) < rows * 253


def test_lane_peaks_keep_the_max_across_slice_blocks():
    # the certificate's levels pass _SLICE points first at l_max = 64; a grid
    # of three blocks must give each lane's peak on the whole grid bit for bit
    l_max = 20
    k, n = np.tril_indices(l_max + 1)
    grid = np.linspace(0.0, math.pi, 2 * _SLICE + 50)
    whole = np.zeros((len(k), l_max + 1))
    for l, d in _wigner_d_lanes(k, n, grid, l_max):
        whole[:len(d), l] = (np.abs(d) * np.sqrt(np.sin(grid))).max(axis=1)
    np.testing.assert_array_equal(experiments._lane_peaks(k, n, grid, l_max), whole)


def test_degree_sups_certificate_holds():
    for l_max in range(41):
        experiments._degree_sups(l_max)


def test_degree_sups_certificate_fails_loudly(monkeypatch):
    # a closed form half too small leaves rows above their first degree live
    true_peaks = experiments._first_degree_peaks
    monkeypatch.setattr(experiments, "_first_degree_peaks", lambda k, n: 0.5 * true_peaks(k, n))
    with pytest.raises(RuntimeError, match=r"l_max=12: \d+ rows"):
        experiments._degree_sups(12)


@given(l=st.integers(0, 40), data=st.data())
def test_first_degree_peak_matches_a_fine_grid(l, data):
    # the closed-form peak of lane (l, n) at degree l against its grid peak on
    # 4096 points: at most the closed form, at least the Bernstein factor of it
    n = data.draw(st.integers(0, l), label="n")
    theta = np.linspace(0.0, math.pi, 4096)
    *_, (_, d) = _wigner_d_lanes([l], [n], theta, l)
    scan = (np.sqrt(np.sin(theta)) * np.abs(d[0])).max()
    peak = experiments._first_degree_peaks(np.array([l]), np.array([n]))[0]
    f_c = 1 - (2 * l + 1) ** 2 * (math.pi / 4095) ** 2 / 8
    assert f_c * peak ** 2 <= scan ** 2 and scan <= peak * (1 + 1e-14)


@given(l=st.integers(0, 40), coarse=st.integers(3, 4096), data=st.data())
def test_coarse_peak_meets_bernstein_bound(l, coarse, data):
    # F = sin theta * d^2 peaks on the coarse grid at no less than
    # (1 - (2l+1)^2 h^2 / 8) of its max on a 16x finer grid
    k = data.draw(st.integers(-l, l), label="k")
    n = data.draw(st.integers(-l, l), label="n")
    peaks = []
    for points in (coarse, 16 * (coarse - 1) + 1):
        theta = np.linspace(0.0, math.pi, points)
        *_, (_, d) = _wigner_d_lanes([k], [n], theta, l)
        peaks.append((np.sin(theta) * d[0] ** 2).max())
    h = math.pi / (coarse - 1)
    assert peaks[0] >= (1 - (2 * l + 1) ** 2 * h * h / 8) * peaks[1]


@pytest.mark.parametrize("B_list", [[], [0, 4], [4, 4]])
def test_bound_scan_rejects_bad_inputs(B_list):
    with pytest.raises(ValueError):
        bound_scan(B_list)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(B=2, s=0)
    with pytest.raises(ValueError):
        TrialConfig(B=2, s=basis_count(2) + 1)
    with pytest.raises(ValueError):
        TrialConfig(B=2, m=0)
    with pytest.raises(ValueError, match="success_threshold"):
        TrialConfig(B=2, success_threshold=math.nan)


def test_tan13_trial_runs():
    cfg = TrialConfig(B=2, m=basis_count(2), s=2, base_seed=5,
                      measure=sampling.TAN13)
    ok, err = run_trial(cfg, 0)
    assert ok


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS in this process; None without one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:   # present but not loaded: not the BLAS numpy runs
            continue
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            get = lib.scipy_openblas_get_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def test_pool_workers_run_one_blas_thread():
    if _blas_threads() is None:
        pytest.skip("numpy has no bundled OpenBLAS to pin")
    # the same pool phase_transition starts
    with ProcessPoolExecutor(max_workers=2, initializer=experiments._one_blas_thread) as pool:
        futures = [pool.submit(_blas_threads) for _ in range(2)]
        assert [f.result(timeout=60) for f in futures] == [1, 1]
