"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL summary line so the suite output doubles
as an acceptance report. Statistical targets were calibrated once and then
frozen; seeds are fixed throughout.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.special import lpmv, sph_harm_y

from so3sparse import cli, experiments, nearfield, sampling, sensing, solver, wigner
from solver_reference import check_optimality
from test_sensing import gram_matrix
from wigner_reference import spherical_harmonic

GRID_M = [20, 40, 80, 165]
GRID_S = [2, 4, 8]
THREADS = os.cpu_count() or 1


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_01_gram_matrices_are_identity():
    t0 = time.time()
    devs = {}
    for measure in (None, sampling.PRODUCT, sampling.TAN13):
        G = gram_matrix(5, measure)
        devs[measure or "raw"] = float(np.abs(G - np.eye(G.shape[0])).max())
    elapsed = time.time() - t0
    worst = max(devs.values())
    ok = worst < 1e-8 and elapsed < 30.0
    assert _report("orthonormality B=5", ok,
                   f"max identity deviation {worst:.3e} over {devs}, "
                   f"{elapsed:.1f}s")


def test_02_reduction_to_legendre_and_spherical_harmonics():
    # interior points only: the lpmv reference itself loses digits at the
    # poles through the sqrt(1 - cos^2) cancellation
    theta = np.linspace(0.0, math.pi, 103)[1:-1]
    x = np.cos(theta)
    worst_d = 0.0
    for l in range(11):
        for k in range(0, l + 1):
            fact = math.exp(0.5 * (math.lgamma(l - k + 1) - math.lgamma(l + k + 1)))
            ref = fact * lpmv(k, l, x)
            got = wigner.wigner_d(l, k, 0, theta)
            worst_d = max(worst_d, float(np.abs(np.abs(got) - np.abs(ref)).max()))
    worst_Y = 0.0
    phi = np.linspace(0.0, 2 * math.pi, 17)
    for l in range(6):
        for k in range(-l, l + 1):
            for p in phi:
                ref = complex(sph_harm_y(l, k, 0.7, p))
                got = spherical_harmonic(l, k, 0.7, p)
                worst_Y = max(worst_Y, abs(got - ref))
    ok = worst_d < 1e-10 and worst_Y < 1e-10
    assert _report("reduction identities", ok,
                   f"legendre dev {worst_d:.3e}, spherical-harmonic dev {worst_Y:.3e}")


def test_03_weighted_d_sup_stays_bounded_in_degree():
    prof = experiments._degree_sups(50) * (2 * np.arange(51) + 1) ** 0.25
    low = prof[:3].max()
    ratio = float(prof.max() / low)
    ok = ratio <= 1.2
    assert _report("bounded weighted-d sup to l=50", ok,
                   f"max/low-degree ratio {ratio:.4f} (limit 1.2)")


def test_04_preconditioned_sup_growth_exponent():
    t0 = time.time()
    rows, slope = experiments.bound_scan([4, 8, 16, 32])
    elapsed = time.time() - t0
    ok = slope <= 1.0 / 12.0 + 0.03 and elapsed < 300.0
    assert _report("sup growth exponent", ok,
                   f"loglog slope {slope:.4f} (limit {1/12 + 0.03:.4f}), "
                   f"{elapsed:.0f}s")


def test_05_planted_gaussian_recovery_with_certificates():
    N, m, s, trials = 100, 40, 5, 50
    tight = solver.SolverConfig(tolerance=1e-10)
    successes, worst_kkt = 0, 0.0
    for i in range(trials):
        rng = np.random.default_rng(5000 + i)
        A = (rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N)))
        A /= math.sqrt(2 * m)
        x = experiments.gen_sparse(N, s, experiments.COMPLEX_GAUSSIAN, rng)
        res = solver.bpdn_ball(A, A @ x, 0.0, tight)
        if np.linalg.norm(res.x - x) / np.linalg.norm(x) <= 1e-5:
            successes += 1
            rep = check_optimality(A, A @ x, res.x)
            worst_kkt = max(worst_kkt, rep.dual_violation)
    ok = successes >= 48 and worst_kkt < 1e-5
    assert _report("planted recovery + certificates", ok,
                   f"{successes}/{trials} exact, worst dual violation "
                   f"{worst_kkt:.3e}")


def _binomial_band(n: int) -> float:
    # widest 99% normal-approximation band for a success proportion
    return 2.576 * math.sqrt(0.25 / n)


@functools.cache
def _grids():
    out = {}
    for measure in (sampling.PRODUCT, sampling.TAN13):
        cfg = experiments.TrialConfig(B=5, measure=measure, trials=50, base_seed=0)
        out[measure] = experiments.phase_transition(cfg, GRID_M, GRID_S,
                                                    threads=THREADS)
    return out


def test_06_phase_transition_sanity():
    t0 = time.time()
    grids = _grids()
    elapsed = time.time() - t0
    band = _binomial_band(50)
    full_col_ok, monotone_ok = True, True
    for grid in grids.values():
        i_full = grid.m_values.index(165)
        full_col_ok &= bool(np.all(grid.success_rate[i_full, :] == 1.0))
        for j in range(len(grid.s_values)):
            col = grid.success_rate[:, j]
            monotone_ok &= bool(np.all(np.diff(col) >= -band))
    c_prod = experiments.contour_half_success(grids[sampling.PRODUCT])
    c_tan = experiments.contour_half_success(grids[sampling.TAN13])
    contour_ok = True
    for mp, mt in zip(c_prod, c_tan):
        idx = max(i for i, m in enumerate(GRID_M) if m <= mp + 1e-9)
        step = GRID_M[min(idx + 1, len(GRID_M) - 1)] - GRID_M[idx]
        contour_ok &= mt <= mp + step + 1e-9
    ok = full_col_ok and monotone_ok and contour_ok and elapsed < 7200.0
    assert _report(
        "phase transitions", ok,
        f"m=N column all-1 {full_col_ok}, monotone {monotone_ok}, "
        f"tan13 contour {c_tan} vs product {c_prod} ({contour_ok}), "
        f"{elapsed:.0f}s",
    )


# test_06's success rates, rows m = 20, 40, 80, 165 and columns s = 2, 4, 8:
# one trial's flipped decision moves its cell by 0.02
FROZEN_RATES = {
    sampling.PRODUCT: [[1.0, 0.9, 0.0]] + [[1.0] * 3] * 3,
    sampling.TAN13: [[1.0, 0.94, 0.02]] + [[1.0] * 3] * 3,
}


def test_06b_phase_transition_rates_are_frozen():
    grids = _grids()
    moved = {measure: int((grids[measure].success_rate != np.array(rates)).sum())
             for measure, rates in FROZEN_RATES.items()}
    ok = not any(moved.values())
    assert _report("frozen phase-transition rates", ok,
                   f"cells off their frozen rate per measure: {moved}")


def test_07_noise_scaling_is_linear_in_epsilon():
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = experiments.TrialConfig(
            B=5, m=120, s=5, trials=5, base_seed=700, noise_epsilon=eps,
            nonzero_model=experiments.COMPLEX_GAUSSIAN,
            solver=solver.SolverConfig(tolerance=1e-9),
        )
        errs.append(np.mean([experiments.run_trial(cfg, t)[1]
                             for t in range(cfg.trials)]))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = r1 >= 5.0 and r2 >= 5.0
    assert _report("noise scaling", ok,
                   f"errors {[f'{e:.2e}' for e in errs]}, "
                   f"decade ratios {r1:.2f}, {r2:.2f} (need >= 5)")


def test_08_nearfield_l1_vs_least_squares_separation():
    B, s, m = 5, 8, 120
    errs_l1, errs_ls = [], []
    tight = solver.SolverConfig(tolerance=1e-9)
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        sched = nearfield.make_schedule(rng, m)
        values = experiments.gen_sparse(nearfield.coefficient_count(B), s,
                                        experiments.COMPLEX_GAUSSIAN, rng)
        A = nearfield.build_dictionary(B, nearfield.default_probe_weights(), sched)
        y = A @ values
        system = sensing.precondition(sched, A, y)
        res = solver.bpdn_ball(system.A, system.y, system.radius, tight)
        ls = res.least_squares()
        nrm = np.linalg.norm(values)
        errs_l1.append(np.linalg.norm(res.x - values) / nrm)
        errs_ls.append(np.linalg.norm(ls - values) / nrm)
    med_l1 = float(np.median(errs_l1))
    med_ls = float(np.median(errs_ls))
    ok = med_l1 <= 1e-3 and med_ls >= 1e-2
    assert _report("near-field separation", ok,
                   f"median l1 {med_l1:.3e} (need <= 1e-3), "
                   f"median least-squares {med_ls:.3e} (need >= 1e-2); "
                   f"the 70-column dictionary is overdetermined at m=120, "
                   f"so least squares is exact there")


def test_09_manifest_rerun_is_byte_identical(tmp_path):
    cfg = {"B": 2, "m_values": [4, 10], "s_values": [1, 2], "trials": 5,
           "base_seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rng = np.random.default_rng(9)
    points = sampling.sample_points(sampling.PRODUCT, rng, 6)
    A = sensing.build_matrix(points, 2)
    x = experiments.gen_sparse(wigner.basis_count(2), 2, experiments.COMPLEX_GAUSSIAN, rng)
    problem_dir = tmp_path / "problem"
    sensing.save_problem(str(problem_dir), sensing.SensingProblem(A, A @ x, 0.0, points, 2))
    runs = {
        "phase-transition": (
            ["phase-transition", "--config", str(cfg_path), "--threads", "1"],
            ["grid.csv", "contour.csv"],
        ),
        "nearfield-sim": (
            ["nearfield-sim", "--B", "2", "--s", "3", "--m", "40", "--seed", "2"],
            ["T_true.csv", "T_l1.csv", "T_ls.csv", "pattern_cut.csv"],
        ),
        "bound-scan": (
            ["bound-scan", "--B-list", "1,2", "--grid", "512"],
            ["bounds.csv"],
        ),
        "recover": (
            ["recover", "--problem-dir", str(problem_dir)],
            ["x.csv", "solve_report.json"],
        ),
    }
    all_ok = True
    for name, (argv, files) in runs.items():
        d1 = tmp_path / f"{name}-a"
        assert cli.run(argv + ["--output-dir", str(d1)]) == 0
        d2 = tmp_path / f"{name}-b"
        rerun = ["rerun", str(d1 / "manifest.json"), "--output-dir", str(d2)]
        if name == "phase-transition":
            rerun += ["--threads", "2"]
        assert cli.run(rerun) == 0
        for f in files:
            all_ok &= (d1 / f).read_bytes() == (d2 / f).read_bytes()
    assert _report("manifest rerun determinism", all_ok,
                   f"{sum(len(f) for _, f in runs.values())} output files "
                   f"compared byte for byte across reruns "
                   f"(multi-threaded for the grid)")
