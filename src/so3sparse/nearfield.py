"""Spherical near-field measurement simulation.

The forward model follows the transmission formula: each measurement is
v * sum over probe order n, polarization h, degree l and order k of
c_{h,n} T_{hlk} D_l^{k,n} at the probe position. Coefficients are indexed
(h, l, k) with h in {1, 2} (TE/TM), 1 <= l <= B, |k| <= l. The probe
weights c_{h,n} are configuration: the raw formula would give both
polarizations identical dictionary columns, so the defaults weight them
differently (c_{1,+-1} = 1, c_{2,n} = n j) and their 2x2 matrix over n is
reported alongside every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import sampling
from .sampling import Samples
from .sensing import precondition
from .solver import SolverConfig, SolverResult, bpdn_ball
from .wigner import _WIGNER_ENTRIES_PER_PASS, basis_count, evaluate_basis

__all__ = [
    "TransmissionCoefficients",
    "ProbeSchedule",
    "coefficient_count",
    "coefficient_index",
    "default_probe_weights",
    "make_schedule",
    "build_dictionary",
    "transmission_forward",
    "recover_transmission",
    "baseline_least_squares",
    "pattern_cut",
]

DEFAULT_CHI_SET = (0.0, math.pi / 2)


def coefficient_count(B: int) -> int:
    """Number of (h, l, k) coefficients: 2 * B(B+2)."""
    if B < 1:
        raise ValueError("B must be >= 1")
    return 2 * B * (B + 2)


def coefficient_index(h: int, l: int, k: int, B: int) -> int:
    if h not in (1, 2) or not 1 <= l <= B or abs(k) > l:
        raise ValueError(f"invalid coefficient index (h={h}, l={l}, k={k})")
    return (h - 1) * B * (B + 2) + (l * l - 1) + (k + l)


def default_probe_weights(v_max: int = 1) -> dict[tuple[int, int], complex]:
    """c_{h,n} for n in {-v_max..v_max} \\ {0}; breaks the TE/TM degeneracy."""
    weights = {}
    for n in range(-v_max, v_max + 1):
        if n == 0:
            continue
        weights[(1, n)] = 1.0 + 0.0j
        weights[(2, n)] = 1j * n
    return weights


@dataclass
class TransmissionCoefficients:
    B: int
    values: np.ndarray
    v: complex = 1.0 + 0.0j
    v_max: int = 1
    probe_weights: dict[tuple[int, int], complex] = field(
        default_factory=default_probe_weights
    )

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (coefficient_count(self.B),):
            raise ValueError(
                f"expected {coefficient_count(self.B)} coefficients, "
                f"got shape {self.values.shape}"
            )

    def weight_condition(self) -> float:
        """Condition number of the (h x n) probe-weight matrix; must be
        finite for the two polarization blocks to be separable."""
        ns = sorted({n for (_, n) in self.probe_weights})
        W = np.array([[self.probe_weights.get((h, n), 0.0) for n in ns] for h in (1, 2)])
        return float(np.linalg.cond(W))


@dataclass
class ProbeSchedule:
    samples: Samples
    chi_set: tuple[float, ...] = DEFAULT_CHI_SET

    def __post_init__(self):
        chi = self.samples.chi
        bad = chi[~np.isin(chi, self.chi_set)]
        if bad.size:
            raise ValueError(f"chi={bad[0]} not in the declared set {self.chi_set}")


def make_schedule(
    rng: np.random.Generator,
    m: int,
    measure: str = sampling.PRODUCT,
    chi_set: tuple[float, ...] = DEFAULT_CHI_SET,
) -> ProbeSchedule:
    """m probe positions drawn from the measure, chi drawn from chi_set."""
    samples = sampling.sample_points(measure, rng, m)
    samples = replace(samples, chi=rng.choice(chi_set, size=m))
    return ProbeSchedule(samples=samples, chi_set=tuple(chi_set))


def build_dictionary(T: TransmissionCoefficients, schedule: ProbeSchedule) -> np.ndarray:
    """m x 2B(B+2) matrix whose (h, l, k) column is
    v * sum_n c_{h,n} D_l^{k,n} at the probe points (orders |n| > l skipped),
    combined from the columns of the bandwidth-(B+1) Wigner-D matrix. Only
    its |n| <= v_max columns are used, so it is evaluated a few rows at a
    time."""
    pts = schedule.samples
    # degree and order of each coefficient position l*l - 1 + k + l of a block
    l = np.repeat(np.arange(1, T.B + 1), 2 * np.arange(1, T.B + 1) + 1)
    k = np.arange(len(l)) + 1 - l * l - l
    col_n0 = l * (2 * l - 1) * (2 * l + 1) // 3 + (k + l) * (2 * l + 1) + l
    terms = []   # (dictionary columns, Wigner-D columns, c_{h,n})
    for h in (1, 2):
        for n in range(-T.v_max, T.v_max + 1):
            c = T.probe_weights.get((h, n), 0.0)
            if n != 0 and c != 0.0:
                first = n * n - 1   # position of (l, k) = (|n|, -|n|)
                terms.append((slice((h - 1) * len(l) + first, h * len(l)), col_n0[first:] + n, c))
    A = np.zeros((len(pts), coefficient_count(T.B)), dtype=complex)
    step = max(1, _WIGNER_ENTRIES_PER_PASS // basis_count(T.B + 1))
    for start in range(0, len(pts), step):
        rows = slice(start, start + step)
        D = evaluate_basis(T.B + 1, pts.theta[rows], pts.phi[rows], pts.chi[rows])
        for cols, src, c in terms:
            A[rows, cols] += c * D[:, src]
    return T.v * A


def transmission_forward(
    T: TransmissionCoefficients, schedule: ProbeSchedule
) -> np.ndarray:
    """Near-field samples at the scheduled probe positions."""
    return build_dictionary(T, schedule) @ T.values


def recover_transmission(
    y: np.ndarray,
    schedule: ProbeSchedule,
    B: int,
    cfg: SolverConfig | None = None,
    epsilon: float = 0.0,
    v: complex = 1.0 + 0.0j,
    v_max: int = 1,
    probe_weights: dict | None = None,
) -> tuple[TransmissionCoefficients, SolverResult]:
    """l1 recovery of the transmission coefficients from near-field samples."""
    template = TransmissionCoefficients(
        B, np.zeros(coefficient_count(B)), v=v, v_max=v_max,
        probe_weights=probe_weights or default_probe_weights(v_max),
    )
    A = build_dictionary(template, schedule)
    system = precondition(schedule.samples, A, y, epsilon)
    result = bpdn_ball(system.A, system.y, system.radius, cfg)
    recovered = TransmissionCoefficients(
        B, result.x, v=v, v_max=v_max, probe_weights=template.probe_weights
    )
    return recovered, result


def baseline_least_squares(
    y: np.ndarray,
    schedule: ProbeSchedule,
    B: int,
    v: complex = 1.0 + 0.0j,
    v_max: int = 1,
    probe_weights: dict | None = None,
    rcond: float = 1e-10,
) -> TransmissionCoefficients:
    """Minimum-norm truncated-SVD solution of the same preconditioned system,
    standing in for the classical pipeline at equal measurement count."""
    template = TransmissionCoefficients(
        B, np.zeros(coefficient_count(B)), v=v, v_max=v_max,
        probe_weights=probe_weights or default_probe_weights(v_max),
    )
    A = build_dictionary(template, schedule)
    system = precondition(schedule.samples, A, y)
    x = np.linalg.pinv(system.A, rcond=rcond) @ system.y
    return TransmissionCoefficients(
        B, x, v=v, v_max=v_max, probe_weights=template.probe_weights
    )


def pattern_cut(
    T: TransmissionCoefficients,
    phi_cut: float,
    theta_grid: np.ndarray,
    chi: float = 0.0,
) -> tuple[np.ndarray, bool]:
    """Synthesis magnitude along a phi-cut, in dB normalized to 0 dB peak.

    Returns (dB array, defined flag); an all-zero pattern yields NaNs and
    defined=False.
    """
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if theta_grid.size == 0:
        raise ValueError("empty theta grid")
    samples = Samples(theta_grid, np.full_like(theta_grid, phi_cut),
                      np.full_like(theta_grid, chi), sampling.PRODUCT)
    schedule = ProbeSchedule(samples=samples, chi_set=(float(chi),))
    y = transmission_forward(T, schedule)
    mag = np.abs(y)
    peak = mag.max()
    if peak == 0.0:
        return np.full_like(mag, np.nan), False
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return db, True
