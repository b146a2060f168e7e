"""Recovery trials, phase-transition grids, and sup-norm bound scans.

A trial draws sample points, preconditions the Wigner-D system, plants a
sparse coefficient vector, and declares success when the l1 minimizer
matches it to a relative l2 threshold. Grids run the trial over
(measurement count, sparsity) cells; every cell derives its seeds from
the base seed and its linear index, so results are reproducible and
independent of worker scheduling.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import sampling
from .sensing import add_noise, build_matrix, precondition
from .solver import CONVERGED, INFEASIBLE, SolverConfig, bpdn_ball
from .wigner import _SLICE, _log_factorials, _norm_factor, _wigner_d_lanes, basis_count

REAL_GAUSSIAN = "RealGaussian"
COMPLEX_GAUSSIAN = "ComplexGaussian"

__all__ = [
    "TrialConfig",
    "PhaseTransitionGrid",
    "gen_sparse",
    "run_trial",
    "phase_transition",
    "contour_half_success",
    "bound_scan",
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
        default_factory=lambda: SolverConfig(max_iterations=20_000, tolerance=5e-7)
    )

    def __post_init__(self):
        N = basis_count(self.B)
        if not 1 <= self.s <= N:
            raise ValueError(f"sparsity {self.s} outside [1, {N}]")
        if self.m < 1 or self.trials < 1:
            raise ValueError("m and trials must be >= 1")
        _check_bound("success_threshold", self.success_threshold, positive=True)
        _check_bound("noise_epsilon", self.noise_epsilon)


def _check_bound(name: str, value, positive: bool = False, below: float = math.inf) -> None:
    """Raise a ValueError naming `name` unless value is a finite real >= 0,
    or > 0 if positive, and < below; a bool is not a number here."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and (value > 0 if positive else value >= 0)
            and value < below):
        upper = f" and < {below:g}" if below < math.inf else ""
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0"
                         f"{upper}, got {value!r}")


@dataclass
class PhaseTransitionGrid:
    m_values: list[int]
    s_values: list[int]
    success_rate: np.ndarray      # shape (len(m_values), len(s_values))


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


def run_trial(cfg: TrialConfig, trial_index: int) -> tuple[bool, float]:
    """One planted-recovery trial; the trial seed is base_seed + trial_index.
    Only a converged solve can count as a success.

    A noise-free solve gets the objective limit ||g||_1 - sqrt(N) tau ||g||_2,
    tau the success threshold, below which the trial has failed (see the
    solver module), and ends there as `Cutoff`, a failure. Noisy trials keep
    their solves whole, because callers read their errors."""
    rng = np.random.default_rng(cfg.base_seed + trial_index)
    samples = sampling.sample_points(cfg.measure, rng, cfg.m)
    g = gen_sparse(basis_count(cfg.B), cfg.s, cfg.nonzero_model, rng)
    A = build_matrix(samples, cfg.B)
    y = A @ g
    limit = -math.inf
    if cfg.noise_epsilon > 0:
        y = add_noise(y, cfg.noise_epsilon, rng)
    else:
        limit = (np.sum(np.abs(g))
                 - math.sqrt(g.size) * cfg.success_threshold * np.linalg.norm(g))
    system = precondition(samples, A, y, cfg.noise_epsilon)
    result = bpdn_ball(system.A, system.y, system.radius, cfg.solver, objective_limit=limit)
    if result.status == INFEASIBLE:
        return False, float("inf")
    rel_err = float(np.linalg.norm(result.x - g) / np.linalg.norm(g))
    return result.status == CONVERGED and rel_err <= cfg.success_threshold, rel_err


def _run_cell(cfg: TrialConfig, cell_index: int) -> float:
    """Success rate of one grid cell; its trials take the seeds after the earlier cells'."""
    cell_cfg = replace(cfg, base_seed=cfg.base_seed + cell_index * cfg.trials)
    return sum(run_trial(cell_cfg, t)[0] for t in range(cfg.trials)) / cfg.trials


@functools.cache
def _blas_thread_setter():
    """The thread-count setter of numpy's bundled OpenBLAS, or None for a
    numpy without one. OpenBLAS reads its thread variables only when it
    loads, so the loaded library is set through its own symbol."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def _one_blas_thread() -> None:
    """Pool-worker initializer: the workers already fill the cores, so each
    runs numpy's OpenBLAS on one thread (unpinned, two forked workers on two
    cores ran a grid 2-3x slower than one process)."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


def phase_transition(
    template: TrialConfig,
    m_values: list[int],
    s_values: list[int],
    threads: int = 1,
) -> PhaseTransitionGrid:
    """Success-rate grid over (m, s) cells, m strictly increasing;
    deterministic given the base seed. `threads` > 1 runs the cells on
    min(threads, cells) worker processes."""
    if not m_values or not s_values:
        raise ValueError("m_values and s_values must be non-empty")
    if any(a >= b for a, b in zip(m_values, m_values[1:])):
        raise ValueError(f"m_values must strictly increase, got {m_values}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    jobs = [replace(template, m=m, s=s) for m in m_values for s in s_values]
    if threads == 1:
        rates = list(map(_run_cell, jobs, range(len(jobs))))
    else:
        # load here, once, what each forked worker would load for itself:
        # numpy.random, which numpy imports on first use, and the BLAS setter
        import numpy.random  # noqa: F401
        _blas_thread_setter()
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs)),
                                 initializer=_one_blas_thread) as pool:
            rates = list(pool.map(_run_cell, jobs, range(len(jobs))))
    grid = np.array(rates).reshape(len(m_values), len(s_values))
    return PhaseTransitionGrid(list(m_values), list(s_values), grid)


def contour_half_success(grid: PhaseTransitionGrid) -> list[float]:
    """Per sparsity, the smallest m reaching 50% success (linear interpolation
    between adjacent cells of the increasing m; NaN when never reached)."""
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


def _lane_peaks(k, n, grid, l_max: int) -> np.ndarray:
    """peak[i, l], lane i's peak of (sin theta)^{1/2} |d_l^{k,n}| on grid for
    the lanes of `_wigner_d_lanes`; 0 below each lane's first degree."""
    weight = np.sqrt(np.sin(grid))
    peak = np.zeros((len(k), l_max + 1))
    for s in range(0, len(grid), _SLICE):
        for l, d in _wigner_d_lanes(k, n, grid[s:s + _SLICE], l_max):
            f = np.abs(d) * weight[s:s + _SLICE]
            np.maximum(peak[:len(d), l], f.max(axis=1), out=peak[:len(d), l])
    return peak


def _first_degree_peaks(k, n):
    """sup over theta of (sin theta)^{1/2} |d_k^{k,n}| for lanes k >= n >= 0
    at their first degree l = k. With t = sin^2(theta/2), a = l + n and
    b = l - n, the seed of `_wigner_d_lanes` gives sin theta * d^2 =
    2 C(2l, a) t^{b+1/2} (1 - t)^{a+1/2}, which peaks at
    t = (2b + 1) / (2 (2l + 1))."""
    a, b = k + n, k - n
    t = (2 * b + 1) / (2 * (2 * k + 1))
    log_fact = _log_factorials(2 * int(np.max(k)))
    return np.exp(0.5 * (math.log(2) + log_fact[2 * k] - log_fact[a] - log_fact[b]
                         + (b + 0.5) * np.log(t) + (a + 0.5) * np.log1p(-t)))


def _degree_sups(l_max: int) -> np.ndarray:
    """Per degree l <= l_max, S_l = sup over (k, n) and theta of
    (sin theta)^{1/2} |d_l^{k,n}|, in closed form and certified.

    |d_l^{k,n}| depends on (k, n) only through the class (|k - n|, |k + n|),
    which the lanes k >= |n| cover. The mirror (k, -n) swaps |k - n| and
    |k + n| and sends theta to pi - theta, where (sin theta)^{1/2} is the
    same, so the lanes 0 <= n <= k carry every sup. S_l is the largest
    closed-form peak of the lanes whose first degree is l
    (`_first_degree_peaks`); the rest proves that no row (l, j) above its
    lane's first degree exceeds it.

    As d_l^{k,n} is a trig polynomial of degree l, F = sin theta * d^2 has
    degree 2l + 1 and |F| on (pi, 2 pi) mirrors F on [0, pi]; Bernstein's
    inequality twice gives |F''| <= (2l+1)^2 max F, and F peaks within h/2 of
    a point of a grid of spacing h, so a row's grid peak p^2 is at least
    f_P(l) = 1 - (2l+1)^2 h^2 / 8 of its sup^2. Two levels of
    P = 2(2 l_max + 1) + 1 and 4(2 l_max + 1) + 1 points, where
    f_P(l) >= 1 - pi^2/32 > 0, each run the lanes with a live row through
    every degree. A live row stays live only if p^2 / f_P(l) >= S_l^2; a row
    no longer live has sup < S_l. Any row still live after both levels is a
    RuntimeError: the sups are never returned uncertified."""
    degrees = np.arange(l_max + 1)
    k, n = np.tril_indices(l_max + 1)   # n = 0..k per k, sorted by l0 = k
    sups = np.maximum.reduceat(_first_degree_peaks(k, n), degrees * (degrees + 1) // 2)
    live = k[:, None] < degrees         # rows above each lane's first degree
    for P in (2 * (2 * l_max + 1) + 1, 4 * (2 * l_max + 1) + 1):
        lanes = np.flatnonzero(live.any(axis=1))
        peaks = _lane_peaks(k[lanes], n[lanes], np.linspace(0.0, math.pi, P), l_max)
        f_P = 1 - ((2 * degrees + 1) * math.pi / (P - 1)) ** 2 / 8
        live[lanes] &= peaks ** 2 / f_P >= sups ** 2
    if live.any():
        raise RuntimeError(f"sup certificate failed at l_max={l_max}: {live.sum()} rows "
                           "above their lane's first degree may exceed the closed form")
    return sups


def bound_scan(B_list: list[int]):
    """For each bandwidth, the sup of the preconditioned |Wigner-D| over the
    whole basis, plus the log-log slope of sup versus basis size. The sup is
    N_l S_l at some l < B, and N_l S_l grows as (2l+1)^{1/4}, so with
    N ~ 4B^3/3 it grows as N^{1/12} and its square as N^{1/6}."""
    if not B_list or min(B_list) < 1:
        raise ValueError(f"bandwidths must be >= 1, got {B_list}")
    if len(set(B_list)) != len(B_list):
        raise ValueError(f"bandwidths repeat a value: {B_list}")
    B_list = sorted(B_list)
    sups = _degree_sups(B_list[-1] - 1)
    per_l_sup = [float(sups[l]) * _norm_factor(l) for l in range(B_list[-1])]
    rows = [(B, basis_count(B), max(per_l_sup[:B])) for B in B_list]
    logN = np.log([r[1] for r in rows])
    logS = np.log([r[2] for r in rows])
    slope = float(np.polyfit(logN, logS, 1)[0]) if len(rows) > 1 else float("nan")
    return rows, slope

