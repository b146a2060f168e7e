"""Measurement-matrix assembly, noise, preconditioning.

The sensed system is y = A g + eta where row i of A holds the Wigner-D
functions at sample point i. Preconditioning multiplies row i by the
measure's weight P_i, and rescales by sqrt(mass) / sqrt(m) so that the
columns of the scaled system are near-unit-norm; the rescaling is pure
conditioning (recorded in `PreconditionedSystem.scale`) and leaves the l1
program equivalent to the ell2-ball program with radius sqrt(m) * epsilon.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import sampling
from .sampling import Samples, measure_mass, preconditioner_weight
from .wigner import _SLICE, evaluate_basis

__all__ = [
    "SensingProblem",
    "PreconditionedSystem",
    "build_matrix",
    "add_noise",
    "precondition",
    "gram_matrix",
    "gram_deviation",
    "save_problem",
    "load_problem",
]


def build_matrix(samples: Samples, B: int) -> np.ndarray:
    """m x N matrix of raw Wigner-D evaluations in canonical column order."""
    return evaluate_basis(B, samples.theta, samples.phi, samples.chi)


def add_noise(y: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. noise uniform on the complex disk of radius epsilon."""
    if not epsilon >= 0:   # false for NaN too
        raise ValueError("epsilon must be >= 0")
    if epsilon == 0:
        return y.copy()
    m = len(y)
    radius = epsilon * np.sqrt(rng.uniform(0.0, 1.0, m))
    angle = rng.uniform(0.0, 2 * math.pi, m)
    return y + radius * np.exp(1j * angle)


@dataclass
class SensingProblem:
    A: np.ndarray          # m x N raw basis evaluations
    y: np.ndarray          # length-m observations
    epsilon: float         # per-entry noise bound (inf-norm sense)
    samples: Samples
    B: int


@dataclass
class PreconditionedSystem:
    A: np.ndarray          # scale * diag(P) @ A_raw
    y: np.ndarray          # scale * P * y_raw
    radius: float          # scale * sqrt(m) * epsilon
    scale: float


def precondition(
    samples: Samples, A: np.ndarray, y: np.ndarray, epsilon: float = 0.0
) -> PreconditionedSystem:
    """Preconditioned, conditioned system and the matching constraint radius.

    Row i of A and entry i of y are multiplied by the preconditioner
    weight P_i of sample i. The solved program is the ball-constrained one
    with radius sqrt(m) * epsilon on that system; both sides are then
    multiplied by scale = sqrt(mass) / sqrt(m), which changes nothing in
    the minimizer and makes columns near-unit-norm. The inputs are not
    modified.
    """
    m = len(samples)
    scale = math.sqrt(measure_mass(samples.measure)) / math.sqrt(m)
    P = preconditioner_weight(samples.measure, samples.theta)
    return PreconditionedSystem(A=scale * (P[:, None] * A),
                                y=scale * (P * np.asarray(y, dtype=complex)),
                                radius=scale * math.sqrt(m) * epsilon, scale=scale)


def _gram_quadrature(B: int, measure: str | None):
    """1-D rules of gram_matrix's tensor grid: theta nodes and weights, then
    the uniform angle nodes and weights that phi and chi share."""
    if B < 1:
        raise ValueError(f"bandwidth must be >= 1, got {B}")
    x, wx = np.polynomial.legendre.leggauss(B + 1)
    theta = np.arccos(x)
    if measure is None:
        w_theta = wx                                   # sin(theta) dtheta = dx
    else:
        # integrand carries weight(theta)^2 * density = sin(theta); pull the
        # sin back out of dx = sin(theta) dtheta so roundoff is the only error
        dens = sampling.theta_density(measure, theta)
        p2 = preconditioner_weight(measure, theta) ** 2
        comb = p2 * dens
        # tan13 density diverges at theta = pi/2 while the weight vanishes;
        # the product has the finite limit sin(theta)
        bad = ~np.isfinite(comb)
        comb[bad] = np.sin(theta[bad])
        w_theta = wx * comb / np.sin(theta)
    Q = 4 * B
    return theta, w_theta, 2 * math.pi * np.arange(Q) / Q, np.full(Q, 2 * math.pi / Q)


def _gram_factors(B: int, theta, w_theta, angle, w_angle):
    """Factors D, w_theta D, K and c of the Gram matrix of the bandwidth-B
    basis on the grid theta x angle x angle (phi, then chi) with weights
    w_theta[i] w_angle[j] w_angle[q]: G_ab = (D^T diag(w_theta) D)_ab K[c_a, c_b].

    The sum over the tensor grid is evaluated by separation of variables.
    The node weight depends on theta alone, and each
    D_a = N_l e^{-jk phi} d_l^{k,n}(theta) e^{-jn chi} is a product of one
    factor per angle, so the triple sum of conj(D_a) D_b factors into
    G_ab = T_ab S[k_a, k_b] S[n_a, n_b] (Kostelec & Rockmore 2008, FFTs on
    the Rotation Group). D is the real table N_l d_l^{k,n}(theta_i) from one
    evaluate_basis call on the theta nodes and T = D^T diag(w_theta) D;
    S = E^H diag(w_angle) E with E_jk = e^{-jk phi_j} is the rule's sum over
    phi, and again over chi. K = S kron S holds S[k, k'] S[n, n'] at flat
    order pairs k (2B-1) + n, orders counted from 1 - B, and c_a is column
    a's position there. Every entry is that same weighted sum, computed from
    the nodes and weights: orthogonality is checked, never assumed.

    _separable_gram reads the full G from these factors; _gram_deviation
    streams row blocks of |G| and holds no N x N array.
    """
    zero = np.zeros_like(theta)
    D = evaluate_basis(B, theta, zero, zero).real      # N_l d_l^{k,n}(theta_i)
    E = np.exp(-1j * np.outer(angle, np.arange(1 - B, B)))
    S = E.conj().T @ (w_angle[:, None] * E)
    pos = np.arange((2 * B - 1) ** 2).reshape(2 * B - 1, 2 * B - 1)
    c = np.concatenate([pos[B - 1 - l:B + l, B - 1 - l:B + l].ravel() for l in range(B)])
    return D, w_theta[:, None] * D, np.kron(S, S), c


def _separable_gram(B: int, theta, w_theta, angle, w_angle) -> np.ndarray:
    """Gram matrix of the bandwidth-B basis on the grid theta x angle x angle
    (phi, then chi) with weights w_theta[i] w_angle[j] w_angle[q]."""
    D, wD, K, c = _gram_factors(B, theta, w_theta, angle, w_angle)
    G = (D.T @ wD) * K[np.ix_(c, c)]
    # G_ab and conj(G_ba) differ by roundoff; their mean is exactly Hermitian
    return 0.5 * (G + G.conj().T)


def _gram_deviation(B: int, theta, w_theta, angle, w_angle) -> tuple[float, float]:
    """max |G_ab| over a != b and max |G_aa - 1| of the same G before its
    Hermitian mean, from |G_ab| = |T_ab| |K[c_a, c_b]| one row block of T
    and of the gathered |K| at a time: memory O(block N), not O(N^2)."""
    D, wD, K, c = _gram_factors(B, theta, w_theta, angle, w_angle)
    diag_dev = np.abs((D * wD).sum(axis=0) * K[c, c] - 1).max()
    K, off, step = np.abs(K), 0.0, _SLICE // 4
    for start in range(0, len(c), step):
        rows = slice(start, start + step)
        block = np.abs(D[:, rows].T @ wD)
        block *= K[c[rows]].take(c, axis=1)
        np.fill_diagonal(block[:, start:], 0.0)
        off = max(off, block.max())
    return float(off), float(diag_dev)


def gram_matrix(B: int, measure: str | None = None) -> np.ndarray:
    """Quadrature Gram matrix of the bandwidth-B basis; identity if exact.

    measure None: raw Wigner-D functions against sin(theta) d(theta, phi, chi).
    measure "product"/"tan13": preconditioned functions against the
    (unnormalized) sampling measure. In theta the quadrature is
    Gauss-Legendre with B+1 nodes in x = cos(theta) (integrands are
    polynomials of degree <= 2B-1 there once the sin(theta) weight from
    weight^2 * density is absorbed); phi and chi use uniform 4B-point
    grids, exact for the trigonometric frequencies present. The sum over
    the (B+1) x 4B x 4B grid is separated as in `_gram_factors`.
    """
    return _separable_gram(B, *_gram_quadrature(B, measure))


def gram_deviation(B: int, measure: str | None = None) -> tuple[float, float]:
    """(max_offdiag, max_diag_dev): the largest |G_ab| over a != b and the
    largest |G_aa - 1| of gram_matrix(B, measure)'s sum, streamed over row
    blocks of its factors so that no N x N array is allocated."""
    return _gram_deviation(B, *_gram_quadrature(B, measure))


def save_problem(directory, problem: SensingProblem) -> None:
    """Serialize to points.csv / y.csv / meta.json inside `directory`."""
    os.makedirs(directory, exist_ok=True)
    samples = problem.samples
    np.savetxt(os.path.join(directory, "points.csv"),
               np.column_stack([samples.theta, samples.phi, samples.chi]),
               fmt=f"%.17g,%.17g,%.17g,{samples.measure}",
               header="theta,phi,chi,measure", comments="")
    np.savetxt(os.path.join(directory, "y.csv"),
               np.column_stack([problem.y.real, problem.y.imag]),
               fmt="%.17g", delimiter=",", header="re,im", comments="")
    meta = {
        "B": problem.B,
        "m": len(problem.y),
        "epsilon": problem.epsilon,
        "measure": samples.measure,
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(field: str) -> float:
    if not math.isfinite(value := float(field)):
        raise ValueError(f"{value} is not a finite number")
    return value


def _theta(field: str) -> float:
    if not 0 <= (value := float(field)) <= math.pi:   # false for NaN too
        raise ValueError(f"theta {value} outside [0, pi]")
    return value


def _load_rows(directory, name: str, kinds) -> list[list]:
    """The lines below the header of a problem CSV, field i of each parsed by
    kinds[i]. A file with no such line, or a line with another field count or
    a field that does not parse, is a ValueError naming the file and the
    line, counted from 1 with the header as line 1."""
    with open(os.path.join(directory, name)) as fh:
        lines = fh.read().splitlines()[1:]
    if not lines:
        raise ValueError(f"{name} holds no rows below its header")
    rows = []
    for number, line in enumerate(lines, start=2):
        fields = line.split(",")
        try:
            if len(fields) != len(kinds):
                raise ValueError(f"{len(fields)} fields where {len(kinds)} are expected")
            rows.append([kind(field) for kind, field in zip(kinds, fields)])
        except ValueError as exc:
            raise ValueError(f"{name} line {number}: {exc}") from None
    return rows


# meta.json fields: what each must be, and its test (bool is no int here)
_META_FIELDS = {
    "B": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "m": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "epsilon": ("a finite number >= 0",
                lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max),
}


def load_problem(directory) -> SensingProblem:
    """Read a problem written by save_problem. ValueError for a meta.json
    that is not an object or whose B, m or epsilon is missing or not as
    `_META_FIELDS` requires; a points.csv or y.csv with no rows or a line that
    does not parse, is not finite or has theta outside [0, pi]; a points.csv
    that mixes or names an unknown measure; or a y.csv whose row count differs
    from points.csv's or from meta.json's m."""
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError("meta.json is not a JSON object")
    for key, (want, ok) in _META_FIELDS.items():
        if key not in meta:
            raise ValueError(f"meta.json has no field {key}")
        if not ok(meta[key]):
            raise ValueError(f"meta.json field {key}: {meta[key]!r} is not {want}")
    points = _load_rows(directory, "points.csv", (_theta, _finite, _finite, str))
    theta, phi, chi, measure = zip(*points)
    measures = set(measure)
    if len(measures) != 1:
        raise ValueError(f"points.csv must hold one measure, found {sorted(measures)}")
    # each (re, im) row of float64 pairs is one complex128
    y = np.array(_load_rows(directory, "y.csv", (_finite, _finite))).view(complex)[:, 0]
    if not len(y) == len(theta) == meta["m"]:
        raise ValueError(
            f"y.csv has {len(y)} rows and points.csv {len(theta)}, "
            f"meta.json m={meta['m']}; all three must agree"
        )
    samples = Samples(theta, phi, chi, measures.pop())
    return SensingProblem(A=build_matrix(samples, meta["B"]), y=y,
                          epsilon=float(meta["epsilon"]), samples=samples, B=meta["B"])
