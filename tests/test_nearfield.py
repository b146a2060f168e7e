import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3sparse import sampling, solver
from so3sparse.experiments import COMPLEX_GAUSSIAN, gen_sparse
from so3sparse.nearfield import (
    CHI_SET,
    build_dictionary,
    coefficient_count,
    coefficient_index,
    default_probe_weights,
    make_schedule,
    pattern_cut,
    recover_transmission,
    weight_condition,
)
from so3sparse.sensing import add_noise, build_matrix, precondition
from so3sparse.solver import SolverConfig
from so3sparse.wigner import _SLICE
from wigner_reference import column, wigner_D

TIGHT = SolverConfig(tolerance=1e-9)
WEIGHTS = default_probe_weights()


def _dictionary(B, sched, weights=WEIGHTS):
    return build_dictionary(B, weights, sched)


def test_coefficient_count_and_index_bijection():
    for B in (1, 2, 5):
        assert coefficient_count(B) == 2 * B * (B + 2)
        seen = [
            coefficient_index(h, l, k, B)
            for h in (1, 2)
            for l in range(1, B + 1)
            for k in range(-l, l + 1)
        ]
        assert sorted(seen) == list(range(coefficient_count(B)))


def test_schedule_draws_points_then_chi():
    # the positions are sample_points' draws bit for bit; chi comes after
    # them from the same generator and only takes the probe's angles
    for measure in sampling.MEASURES:
        sched = make_schedule(np.random.default_rng(12), 64, measure)
        pts = sampling.sample_points(measure, np.random.default_rng(12), 64)
        assert sched.measure == measure
        np.testing.assert_array_equal(sched.theta, pts.theta)
        np.testing.assert_array_equal(sched.phi, pts.phi)
        assert np.isin(sched.chi, CHI_SET).all()


def test_forward_zero():
    sched = make_schedule(np.random.default_rng(0), 6)
    y = _dictionary(3, sched) @ np.zeros(coefficient_count(3))
    np.testing.assert_array_equal(y, 0)


def test_forward_single_atom():
    # T_{1,1,0} = 1 with unit probe weights gives D_1^{0,-1} + D_1^{0,1}
    sched = make_schedule(np.random.default_rng(1), 5)
    weights = {(1, -1): 1.0 + 0j, (1, 1): 1.0 + 0j, (2, -1): -1j, (2, 1): 1j}
    values = np.zeros(coefficient_count(2), dtype=complex)
    values[coefficient_index(1, 1, 0, 2)] = 1.0
    y = _dictionary(2, sched, weights) @ values
    th, ph, ch = sched.theta, sched.phi, sched.chi
    expected = wigner_D(1, 0, -1, th, ph, ch) + wigner_D(1, 0, 1, th, ph, ch)
    np.testing.assert_allclose(y, expected, atol=1e-13)


def test_forward_matches_quadruple_loop():
    rng = np.random.default_rng(2)
    B = 3
    sched = make_schedule(rng, 5)
    values = gen_sparse(coefficient_count(B), 4, COMPLEX_GAUSSIAN, rng)
    y = _dictionary(B, sched) @ values
    expected = np.zeros(5, dtype=complex)
    for i, (theta, phi, chi) in enumerate(zip(sched.theta, sched.phi, sched.chi)):
        for n in (-1, 1):
            for h in (1, 2):
                for l in range(1, B + 1):
                    for k in range(-l, l + 1):
                        if abs(n) > l:
                            continue
                        c = WEIGHTS[(h, n)]
                        t = values[coefficient_index(h, l, k, B)]
                        expected[i] += c * t * wigner_D(l, k, n, theta, phi, chi)
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_dictionary_matches_weighted_sensing_matrices():
    # the (h,l,k) dictionary equals the c_{h,n}-weighted sum of full Wigner
    # matrices restricted to the n = +-1 columns
    rng = np.random.default_rng(3)
    B = 2
    sched = make_schedule(rng, 4)
    A = _dictionary(B, sched)
    full = build_matrix(sched, B + 1)
    for h in (1, 2):
        for l in range(1, B + 1):
            for k in range(-l, l + 1):
                col = np.zeros(4, dtype=complex)
                for n in (-1, 1):
                    col += WEIGHTS[(h, n)] * full[:, column(l, k, n)]
                np.testing.assert_allclose(
                    A[:, coefficient_index(h, l, k, B)], col, atol=1e-12
                )


def test_dictionary_uses_every_weight_key():
    # orders |n| = 2 exist only from l = 2 on and n = 3 only at l = 3, so
    # lower degrees skip them; every key is a term, whatever its order
    rng = np.random.default_rng(9)
    B = 3
    weights = {(1, -2): 0.3 - 1j, (1, -1): 1.0, (1, 1): -0.7j, (1, 2): 2.0,
               (2, -2): 1j, (2, -1): 0.4, (2, 1): -1.5 + 0.2j, (2, 2): -0.6,
               (1, 3): 5.0}
    sched = make_schedule(rng, 6)
    A = _dictionary(B, sched, weights)
    for h in (1, 2):
        for l in range(1, B + 1):
            for k in range(-l, l + 1):
                col = np.zeros(6, dtype=complex)
                for n in (-3, -2, -1, 1, 2, 3):
                    if abs(n) <= l:
                        col += weights.get((h, n), 0.0) * wigner_D(
                            l, k, n, sched.theta, sched.phi, sched.chi)
                np.testing.assert_allclose(
                    A[:, coefficient_index(h, l, k, B)], col, rtol=0, atol=1e-13
                )


@pytest.mark.parametrize("key", [(2, 0), (3, 1), (0, -1), (1,), (1, 1, 1), (1, 1.5)])
def test_probe_weight_keys_are_validated(key):
    weights = {**WEIGHTS, key: 7.0}
    with pytest.raises(ValueError, match="probe weight key"):
        weight_condition(weights)
    with pytest.raises(ValueError, match="probe weight key"):
        _dictionary(2, make_schedule(np.random.default_rng(0), 3), weights)


def test_dictionary_row_blocks_match_one_pass():
    # the dictionary runs _SLICE points at a time, so 2 _SLICE + 50 probes
    # take three slices, the last one short
    rng = np.random.default_rng(11)
    B, m = 12, 2 * _SLICE + 50
    sched = make_schedule(rng, m)
    full = build_matrix(sched, B + 1)
    ref = np.zeros((m, coefficient_count(B)), dtype=complex)
    for h in (1, 2):
        for l in range(1, B + 1):
            for k in range(-l, l + 1):
                for n in (-1, 1):
                    ref[:, coefficient_index(h, l, k, B)] += (
                        WEIGHTS[(h, n)] * full[:, column(l, k, n)])
    np.testing.assert_allclose(_dictionary(B, sched), ref, rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 4), data=st.data())
def test_dictionary_matches_pointwise_wigner_sum(B, data):
    # random probe-weight keys with |n| up to B + 1, so some orders have no
    # degree at all; every column is the c_{h,n}-weighted sum of wigner_D
    orders = [n for n in range(-B - 1, B + 2) if n != 0]
    keys = data.draw(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from(orders)),
                              min_size=1, max_size=8, unique=True), label="keys")
    parts = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * len(keys),
                               max_size=2 * len(keys)), label="weights")
    weights = {key: complex(parts[2 * i], parts[2 * i + 1]) for i, key in enumerate(keys)}
    sched = make_schedule(np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")), 5)
    A = _dictionary(B, sched, weights)
    for h in (1, 2):
        for l in range(1, B + 1):
            for k in range(-l, l + 1):
                col = np.zeros(5, dtype=complex)
                for (hk, n), c in sorted(weights.items()):
                    if hk == h and abs(n) <= l:
                        col += c * wigner_D(l, k, n, sched.theta, sched.phi, sched.chi)
                np.testing.assert_allclose(
                    A[:, coefficient_index(h, l, k, B)], col, rtol=0, atol=1e-13)


def test_dictionary_ignores_weight_insertion_order():
    sched = make_schedule(np.random.default_rng(14), 30)
    weights = {(2, 2): -0.6, (1, -1): 1.0, (2, -1): 0.4 + 1j, (1, 2): 2.0, (1, -3): 0.5j,
               (2, 1): -1.5 + 0.2j, (1, 1): -0.7j}
    reversed_weights = dict(reversed(list(weights.items())))
    np.testing.assert_array_equal(_dictionary(4, sched, weights),
                                  _dictionary(4, sched, reversed_weights))


def test_probe_weight_condition_finite():
    assert weight_condition(WEIGHTS) < 10.0


def test_recover_square_system_exact():
    rng = np.random.default_rng(4)
    B = 3
    n = coefficient_count(B)
    sched = make_schedule(rng, n)
    values = gen_sparse(n, 5, COMPLEX_GAUSSIAN, rng)
    A = _dictionary(B, sched)
    rec, res = recover_transmission(A, sched, A @ values, cfg=TIGHT)
    assert np.linalg.norm(rec - values) / np.linalg.norm(values) < 1e-6


def test_l1_beats_least_squares_underdetermined():
    # m below the 70-column count at B=5: l1 recovers, truncated LS cannot
    errs_l1, errs_ls = [], []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        B, s, m = 5, 8, 48
        sched = make_schedule(rng, m)
        values = gen_sparse(coefficient_count(B), s, COMPLEX_GAUSSIAN, rng)
        A = _dictionary(B, sched)
        y = A @ values
        rec, res = recover_transmission(A, sched, y, cfg=TIGHT)
        ls = res.least_squares()
        nrm = np.linalg.norm(values)
        errs_l1.append(np.linalg.norm(rec - values) / nrm)
        errs_ls.append(np.linalg.norm(ls - values) / nrm)
    assert np.median(errs_l1) < 1e-3
    assert np.median(errs_ls) > 1e-2
    assert np.median(errs_ls) > 10 * np.median(errs_l1)


def test_least_squares_overdetermined_exact():
    rng = np.random.default_rng(5)
    B = 2
    n = coefficient_count(B)
    sched = make_schedule(rng, 3 * n)
    values = gen_sparse(n, 3, COMPLEX_GAUSSIAN, rng)
    A = _dictionary(B, sched)
    ls = recover_transmission(A, sched, A @ values)[1].least_squares()
    assert np.linalg.norm(ls - values) / np.linalg.norm(values) < 1e-10


def test_least_squares_zero_data():
    sched = make_schedule(np.random.default_rng(6), 8)
    _, res = recover_transmission(_dictionary(2, sched), sched, np.zeros(8, dtype=complex))
    np.testing.assert_allclose(res.least_squares(), 0, atol=1e-14)


def _draw(seed, measure, eps, B=12, s=16, m=200):
    """A near-field draw as `nearfield-sim` makes it: dictionary, schedule,
    the planted vector and the noisy samples."""
    rng = np.random.default_rng(seed)
    sched = make_schedule(rng, m, measure)
    values = gen_sparse(coefficient_count(B), s, COMPLEX_GAUSSIAN, rng)
    A = _dictionary(B, sched)
    y = A @ values
    if eps > 0:
        y = add_noise(y, eps, rng)
    return A, sched, values, y


@pytest.mark.parametrize("measure", sampling.MEASURES)
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_least_squares_matches_lstsq(measure, eps):
    # the solve's set-up gives the minimum-norm least-squares point of the
    # preconditioned system: the QR basis at eps = 0, refinement steps on
    # the eigenbasis at eps > 0, where W* (V* y / lam) alone is off by 1e-5
    for seed in (0, 1):
        A, sched, _, y = _draw(seed, measure, eps)
        _, res = recover_transmission(A, sched, y, epsilon=eps)
        system = precondition(sched, A, y, eps)
        ls = np.linalg.lstsq(system.A, system.y, rcond=None)[0]
        assert np.linalg.norm(res.least_squares() - ls) <= 1e-10 * np.linalg.norm(ls)


def test_ball_polish_certifies_once_the_support_is_final(monkeypatch):
    # a product draw at B=12, m=200 whose ball solve stalls: the expanding
    # phase step sigma <- sign(x_S) fails 31 polishes on the final support
    # before one certifies, and Newton on the phases certifies the first
    attempts, polish = [], solver._polish

    def spy(A, y, z, *args):
        out = polish(A, y, z, *args)
        attempts.append((tuple(np.flatnonzero(z)), out is not None))
        return out

    monkeypatch.setattr(solver, "_polish", spy)
    A, sched, _, y = _draw(3964924996, sampling.PRODUCT, 1e-3)
    rec, res = recover_transmission(A, sched, y, epsilon=1e-3)
    assert res.status == "Converged" and res.dual_residual == 0.0    # a polish
    final = [ok for S, ok in attempts if S == tuple(np.flatnonzero(rec))]
    assert final == [True]


def test_recover_with_noise_stays_feasible():
    rng = np.random.default_rng(7)
    B, m, eps = 2, 40, 1e-3
    sched = make_schedule(rng, m)
    values = gen_sparse(coefficient_count(B), 3, COMPLEX_GAUSSIAN, rng)
    A = _dictionary(B, sched)
    y = A @ values
    y = y + eps * 0.5 * np.exp(1j * rng.uniform(0, 2 * math.pi, m))
    rec, res = recover_transmission(A, sched, y, epsilon=eps, cfg=TIGHT)
    assert res.status == "Converged"
    system = precondition(sched, A, y, eps)
    assert np.linalg.norm(system.A @ rec - system.y) <= system.radius * (1 + 1e-12)


def test_pattern_cut_scale_invariance_and_atom():
    rng = np.random.default_rng(8)
    B = 2
    values = gen_sparse(coefficient_count(B), 3, COMPLEX_GAUSSIAN, rng)
    theta_grid = np.linspace(0.01, math.pi - 0.01, 91)
    (db1, ok1), (db2, ok2) = pattern_cut(B, WEIGHTS, [values, (2.5 - 1j) * values],
                                         0.3, theta_grid)
    assert ok1 and ok2
    np.testing.assert_allclose(db1, db2, atol=1e-10)
    # single atom: pattern matches direct |D| synthesis on the cut
    v = np.zeros(coefficient_count(B), dtype=complex)
    v[coefficient_index(1, 1, 0, B)] = 1.0
    [(db, ok)] = pattern_cut(B, WEIGHTS, [v], 0.0, theta_grid, chi=0.0)
    direct = np.abs(
        wigner_D(1, 0, -1, theta_grid, 0.0, 0.0) + wigner_D(1, 0, 1, theta_grid, 0.0, 0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        np.testing.assert_allclose(db, 20 * np.log10(direct / direct.max()), atol=1e-10)


def test_pattern_cut_vectors_match_single_cuts():
    # one cut dictionary serves every vector, bit for bit as if each were cut alone
    rng = np.random.default_rng(10)
    B = 3
    xs = [gen_sparse(coefficient_count(B), s, COMPLEX_GAUSSIAN, rng) for s in (1, 4, 30)]
    xs.append(np.zeros(coefficient_count(B)))
    theta_grid = np.linspace(0.0, math.pi, 37)
    together = pattern_cut(B, WEIGHTS, xs, 0.7, theta_grid, chi=math.pi / 2)
    assert len(together) == len(xs)
    for x, (db, ok) in zip(xs, together):
        [(db1, ok1)] = pattern_cut(B, WEIGHTS, [x], 0.7, theta_grid, chi=math.pi / 2)
        assert ok == ok1
        np.testing.assert_array_equal(db, db1)


def test_pattern_cut_zero_flag():
    [(db, ok)] = pattern_cut(2, WEIGHTS, [np.zeros(coefficient_count(2))], 0.0,
                             np.linspace(0, math.pi, 11))
    assert not ok
    assert np.all(np.isnan(db))


def test_pattern_cut_rejects_empty_grid():
    with pytest.raises(ValueError):
        pattern_cut(2, WEIGHTS, [np.zeros(coefficient_count(2))], 0.0, np.array([]))


def test_default_probe_weights_shape():
    assert set(default_probe_weights()) == {(1, -1), (1, 1), (2, -1), (2, 1)}
