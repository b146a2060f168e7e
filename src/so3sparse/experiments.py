"""Recovery trials, phase-transition grids, and sup-norm bound scans.

A trial draws sample points, preconditions the Wigner-D system, plants a
sparse coefficient vector, and declares success when the l1 minimizer
matches it to a relative l2 threshold. Grids run the trial over
(measurement count, sparsity) cells; every cell derives its seeds from
the base seed and its linear index, so results are reproducible and
independent of worker scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import sampling
from .sensing import CoefficientVector, add_noise, make_problem, precondition
from .solver import SolverConfig, bpdn_ball
from .wigner import _norm_factor, basis_count, wigner_d

REAL_GAUSSIAN = "RealGaussian"
COMPLEX_GAUSSIAN = "ComplexGaussian"

__all__ = [
    "TrialConfig",
    "PhaseTransitionGrid",
    "gen_sparse",
    "sigma_s",
    "run_trial",
    "phase_transition",
    "contour_half_success",
    "bound_scan",
    "weighted_sup_profile",
]


@dataclass
class TrialConfig:
    B: int = 5
    m: int = 80
    s: int = 3
    measure: str = sampling.PRODUCT
    trials: int = 50
    base_seed: int = 0
    success_threshold: float = 1e-3
    noise_epsilon: float = 0.0
    nonzero_model: str = REAL_GAUSSIAN
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(
            max_iterations=20_000, primal_tolerance=5e-7, dual_tolerance=5e-7
        )
    )

    def __post_init__(self):
        N = basis_count(self.B)
        if not 1 <= self.s <= N:
            raise ValueError(f"sparsity {self.s} outside [1, {N}]")
        if self.m < 1 or self.trials < 1:
            raise ValueError("m and trials must be >= 1")
        if self.success_threshold <= 0:
            raise ValueError("success_threshold must be positive")


@dataclass
class PhaseTransitionGrid:
    m_values: list[int]
    s_values: list[int]
    success_rate: np.ndarray      # shape (len(m_values), len(s_values))
    config: TrialConfig


def gen_sparse(
    N: int, s: int, model: str, rng: np.random.Generator
) -> np.ndarray:
    """s-sparse complex vector: uniform support, Gaussian nonzeros."""
    if not 1 <= s <= N:
        raise ValueError(f"sparsity {s} outside [1, {N}]")
    support = rng.choice(N, size=s, replace=False)
    g = np.zeros(N, dtype=complex)
    if model == REAL_GAUSSIAN:
        g[support] = rng.standard_normal(s)
    elif model == COMPLEX_GAUSSIAN:
        g[support] = (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / math.sqrt(2)
    else:
        raise ValueError(f"unknown nonzero model {model!r}")
    return g


def sigma_s(g: np.ndarray, s: int, p: int) -> float:
    """lp norm of g minus its s largest-modulus entries; ties keep the
    lower column index."""
    g = np.asarray(g)
    if not 1 <= s <= len(g):
        raise ValueError(f"sparsity {s} outside [1, {len(g)}]")
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    order = np.lexsort((np.arange(len(g)), -np.abs(g)))
    tail = g[order[s:]]
    return float(np.linalg.norm(tail, ord=p))


def _sample(measure: str, rng: np.random.Generator, m: int):
    if measure == sampling.PRODUCT:
        return sampling.sample_product(rng, m)
    if measure == sampling.TAN13:
        return sampling.sample_tan_measure(rng, m)
    raise ValueError(f"unknown measure {measure!r}")


def run_trial(cfg: TrialConfig, trial_index: int) -> tuple[bool, float]:
    """One planted-recovery trial; the trial seed is base_seed + trial_index."""
    rng = np.random.default_rng(cfg.base_seed + trial_index)
    points = _sample(cfg.measure, rng, cfg.m)
    g = gen_sparse(basis_count(cfg.B), cfg.s, cfg.nonzero_model, rng)
    coeff = CoefficientVector(cfg.B, g)
    problem = make_problem(points, cfg.B, np.zeros(cfg.m), cfg.noise_epsilon)
    y = problem.A @ coeff.values
    if cfg.noise_epsilon > 0:
        y = add_noise(y, cfg.noise_epsilon, rng)
    problem.y = y
    system = precondition(problem)
    result = bpdn_ball(system.A, system.y, system.radius, cfg.solver)
    if result.status == "Infeasible":
        return False, float("inf")
    rel_err = float(np.linalg.norm(result.x - g) / np.linalg.norm(g))
    return rel_err <= cfg.success_threshold, rel_err


def _run_cell(payload) -> tuple[int, float]:
    cfg, cell_index = payload
    cell_cfg = replace(cfg, base_seed=cfg.base_seed + cell_index * cfg.trials)
    successes = 0
    for t in range(cfg.trials):
        ok, _ = run_trial(cell_cfg, t)
        successes += ok
    return cell_index, successes / cfg.trials


def phase_transition(
    template: TrialConfig,
    m_values: list[int],
    s_values: list[int],
    threads: int = 1,
) -> PhaseTransitionGrid:
    """Success-rate grid over (m, s) cells; deterministic given the base seed."""
    if not m_values or not s_values:
        raise ValueError("m_values and s_values must be non-empty")
    jobs = []
    for i, m in enumerate(m_values):
        for j, s in enumerate(s_values):
            idx = i * len(s_values) + j
            jobs.append((replace(template, m=m, s=s), idx))
    rates = np.zeros(len(jobs))
    if threads <= 1:
        results = map(_run_cell, jobs)
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_cell, jobs))
    for idx, rate in results:
        rates[idx] = rate
    grid = rates.reshape(len(m_values), len(s_values))
    return PhaseTransitionGrid(list(m_values), list(s_values), grid, template)


def contour_half_success(grid: PhaseTransitionGrid) -> list[float]:
    """Per sparsity, the smallest m reaching 50% success (linear
    interpolation between adjacent m cells; NaN when never reached)."""
    out = []
    m = np.asarray(grid.m_values, dtype=float)
    for j in range(len(grid.s_values)):
        col = grid.success_rate[:, j]
        hit = np.nonzero(col >= 0.5)[0]
        if hit.size == 0:
            out.append(float("nan"))
            continue
        i = hit[0]
        if i == 0:
            out.append(float(m[0]))
        else:
            frac = (0.5 - col[i - 1]) / (col[i] - col[i - 1])
            out.append(float(m[i - 1] + frac * (m[i] - m[i - 1])))
    return out


def _mu_lam_pairs(l: int):
    """Distinct (mu, lam) of valid (k, n) at degree l: both non-negative,
    equal parity, mu + lam <= 2l."""
    for mu in range(0, 2 * l + 1):
        for lam in range(mu % 2, 2 * l + 1 - mu, 2):
            yield mu, lam


def _refined_sup(f, lo: float, hi: float, coarse: int) -> float:
    """Maximize f on [lo, hi]: coarse grid then two local refinements."""
    grid = np.linspace(lo, hi, coarse)
    vals = f(grid)
    best = int(np.argmax(vals))
    sup = float(vals[best])
    for _ in range(2):
        a = grid[max(best - 1, 0)]
        b = grid[min(best + 1, len(grid) - 1)]
        grid = np.linspace(a, b, 65)
        vals = f(grid)
        best = int(np.argmax(vals))
        sup = max(sup, float(vals[best]))
    return sup


def _precond_d_sup(l: int, mu: int, lam: int, coarse: int = 4096) -> float:
    """sup over theta of (sin theta)^{1/2} |d_l^{k,n}| for the (mu, lam) class."""
    k = (mu + lam) // 2
    n = (lam - mu) // 2
    f = lambda th: np.sqrt(np.sin(th)) * np.abs(wigner_d(l, k, n, th))
    return _refined_sup(f, 0.0, math.pi, coarse)


def bound_scan(B_list: list[int], coarse: int = 4096):
    """For each bandwidth, the sup of the preconditioned |Wigner-D| over the
    whole basis, plus the log-log slope of sup versus basis size."""
    per_l_sup: dict[int, float] = {}
    rows = []
    for B in sorted(B_list):
        for l in range(B):
            if l not in per_l_sup:
                per_l_sup[l] = max(
                    _precond_d_sup(l, mu, lam, coarse) for mu, lam in _mu_lam_pairs(l)
                ) * _norm_factor(l)
        sup = max(per_l_sup[l] for l in range(B))
        rows.append((B, basis_count(B), sup))
    logN = np.log([r[1] for r in rows])
    logS = np.log([r[2] for r in rows])
    slope = float(np.polyfit(logN, logS, 1)[0]) if len(rows) > 1 else float("nan")
    return rows, slope


def weighted_sup_profile(l_max: int, coarse: int = 2048) -> np.ndarray:
    """Per degree l <= l_max, sup over (k, n) and theta of
    (sin theta)^{1/2} |d_l^{k,n}| * (2l+1)^{1/4}."""
    out = np.empty(l_max + 1)
    for l in range(l_max + 1):
        sup = max(_precond_d_sup(l, mu, lam, coarse) for mu, lam in _mu_lam_pairs(l))
        out[l] = sup * (2 * l + 1) ** 0.25
    return out
