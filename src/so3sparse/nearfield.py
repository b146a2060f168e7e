"""Spherical near-field measurement simulation.

The forward model follows the transmission formula: each measurement is the
sum over probe order n, polarization h, degree l and order k of
c_{h,n} T_{hlk} D_l^{k,n} at the probe position. Coefficients are indexed
(h, l, k) with h in {1, 2} (TE/TM), 1 <= l <= B, |k| <= l. The probe
weights c_{h,n} are configuration, and their keys (h, n) are the orders
the dictionary uses: the raw formula would give both polarizations
identical dictionary columns, so the defaults weight them differently
(c_{1,+-1} = 1, c_{2,n} = n j) and their 2x2 matrix over n is reported
alongside every result. The m x 2B(B+2) dictionary of one sample set is
built once from the probe-order lanes (k, n) of the degree recurrence
alone; it maps coefficients x to the samples A @ x. The caller
preconditions it and solves by `solver.bpdn_ball`, whose set-up also gives
the least-squares baseline (`SolverResult.least_squares`).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import sampling
from .sampling import Samples
from .wigner import _basis_blocks

__all__ = [
    "coefficient_count",
    "coefficient_index",
    "default_probe_weights",
    "weight_condition",
    "make_schedule",
    "build_dictionary",
    "pattern_cut",
]

CHI_SET = (0.0, math.pi / 2)   # probe polarization angles of a schedule


def coefficient_count(B: int) -> int:
    """Number of (h, l, k) coefficients: 2 * B(B+2)."""
    if B < 1:
        raise ValueError("B must be >= 1")
    return 2 * B * (B + 2)


def coefficient_index(h: int, l: int, k: int, B: int) -> int:
    if h not in (1, 2) or not 1 <= l <= B or abs(k) > l:
        raise ValueError(f"invalid coefficient index (h={h}, l={l}, k={k})")
    return (h - 1) * B * (B + 2) + (l * l - 1) + (k + l)


def default_probe_weights() -> dict[tuple[int, int], complex]:
    """c_{h,n} of a first-order probe (n = +-1); breaks the TE/TM degeneracy."""
    return {(1, -1): 1.0 + 0.0j, (2, -1): -1j, (1, 1): 1.0 + 0.0j, (2, 1): 1j}


def _check_probe_weights(weights: dict) -> None:
    for key in weights:
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in (1, 2)
                and isinstance(key[1], int) and key[1] != 0):
            raise ValueError(f"probe weight key {key} is not (h, n) with h in (1, 2) "
                             f"and n a nonzero integer")


def weight_condition(probe_weights: dict) -> float:
    """Condition number of the (h x n) probe-weight matrix; must be finite
    for the two polarization blocks to be separable."""
    _check_probe_weights(probe_weights)
    ns = sorted({n for (_, n) in probe_weights})
    W = np.array([[probe_weights.get((h, n), 0.0) for n in ns] for h in (1, 2)])
    return float(np.linalg.cond(W))


def make_schedule(rng: np.random.Generator, m: int, measure: str = sampling.PRODUCT) -> Samples:
    """m probe positions drawn from the measure, chi drawn from CHI_SET."""
    samples = sampling.sample_points(measure, rng, m)
    return replace(samples, chi=rng.choice(CHI_SET, size=m))


def build_dictionary(B: int, probe_weights: dict, samples: Samples) -> np.ndarray:
    """m x 2B(B+2) matrix whose (h, l, k) column is
    sum_n c_{h,n} D_l^{k,n} at the sample points over the keys (h, n) of
    probe_weights in sorted key order (orders |n| > l skipped). The blocks
    of `_basis_blocks` cover only the probe-order lanes (k, n), |k| <= B:
    50 of 625 lanes at B = 12 for a first-order probe."""
    _check_probe_weights(probe_weights)
    probe_orders = sorted({n for (_, n) in probe_weights})
    A = np.zeros((len(samples), coefficient_count(B)), dtype=complex)
    for rows, l, block in _basis_blocks(np.arange(-B, B + 1), probe_orders, samples.theta,
                                        samples.phi, samples.chi, B):
        present = [n for n in probe_orders if abs(n) <= l]   # the block's n, in order
        for (h, order), c in sorted(probe_weights.items()):
            if order in present:
                first = coefficient_index(h, l, -l, B)
                A[rows, first:first + 2 * l + 1] += c * block[:, :, present.index(order)]
    return A


def pattern_cut(
    B: int,
    probe_weights: dict,
    coefficients,
    theta_grid: np.ndarray,
) -> list[tuple[np.ndarray, bool]]:
    """Synthesis magnitude of each coefficient vector along the cut
    phi = chi = 0, in dB normalized to its 0 dB peak, from one cut dictionary.

    Returns one (dB array, defined flag) per vector; an all-zero pattern
    yields NaNs and defined=False.
    """
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if theta_grid.size == 0:
        raise ValueError("empty theta grid")
    zeros = np.zeros_like(theta_grid)
    cut = Samples(theta_grid, zeros, zeros, sampling.PRODUCT)
    A = build_dictionary(B, probe_weights, cut)
    out = []
    for x in coefficients:
        mag = np.abs(A @ x)
        peak = mag.max()
        if peak == 0.0:
            out.append((np.full_like(mag, np.nan), False))
            continue
        with np.errstate(divide="ignore"):
            out.append((20.0 * np.log10(mag / peak), True))
    return out
