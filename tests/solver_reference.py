"""Reference KKT check for the package's l1 solves.

An independent oracle that the tests hold `solver.bpdn_ball`'s results
against: `check_optimality` builds its certificate itself, apart from the
loop's dual estimate. At radius 0 that is a dual vector u that matches the
signs of x on the support, chosen to minimize the off-support sup-norm of
A* u by a short ADMM over the null space of the support equalities; at a
positive radius it is the closed-form duality gap `solver._duality_gap`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from so3sparse.solver import _duality_gap, _shrink

_CERTIFICATE_ITERATIONS = 500
_CERTIFICATE_PENALTY = 1.0


def _project_l1_ball(t: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a complex vector onto {p : sum|p_j| <= radius}:
    soft thresholding at the level that brings the l1 norm down to radius."""
    mag = np.abs(t)
    if mag.sum() <= radius:
        return t.copy()
    desc = np.sort(mag)[::-1]
    levels = (np.cumsum(desc) - radius) / np.arange(1, len(desc) + 1)
    # the threshold belongs to the last sorted modulus that stays above it
    return _shrink(t, levels[np.nonzero(desc > levels)[0][-1]])


@dataclass
class OptimalityReport:
    feasibility_gap: float    # max(||Ax - y|| - radius, 0)
    dual_violation: float     # fit + inf-norm excess of A* u; at radius > 0 the gap


def check_optimality(
    A: np.ndarray, y: np.ndarray, x: np.ndarray, radius: float = 0.0,
    support_tol: float = 1e-5,
) -> OptimalityReport:
    """KKT check: search for a dual vector u with (A* u)_j = x_j/|x_j| on
    the support S and ||A* u||_inf <= 1; the violation is how badly the best
    candidate found misses. At a positive radius it is instead the relative
    duality gap of x against the dual point of its own residual, closed form.

    One SVD of A_S* gives the least-norm fit u0 of the support equalities
    and an orthonormal basis Z of their null space, so every u = u0 + Z w
    meets them. The search minimizes ||c + M w||_inf with c = A_Sc* u0 and
    M = A_Sc* Z by a fixed number of ADMM steps on the split v = c + M w:
    the w-update is one cached least-squares solve, and the prox of
    ||.||_inf / rho is t minus the projection of t onto the l1 ball of
    radius 1/rho (Moreau). Each iterate is a complete candidate u, so the
    best one seen is kept; the violation is evaluated on it directly and is
    therefore attained, not estimated. The search is skipped when u0
    already has sup-norm <= 1 off the support, and it stops at the first
    candidate that does: the violation is then the support fit either way.
    """
    A = np.asarray(A, dtype=complex)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    e = y - A @ x
    feas = max(float(np.linalg.norm(e)) - radius, 0.0)
    mag = np.abs(x)
    support = mag > support_tol * max(mag.max(), 1e-300)
    if not support.any():
        return OptimalityReport(feasibility_gap=feas, dual_violation=0.0)
    if radius > 0.0:
        return OptimalityReport(feasibility_gap=feas,
                                dual_violation=_duality_gap(A, y, radius, float(mag.sum()), e))
    signs = x[support] / mag[support]
    AsH = A[:, support].conj().T
    U, sv, Vh = np.linalg.svd(AsH)
    rank = int(np.sum(sv > sv[0] * max(AsH.shape) * np.finfo(float).eps))
    u = Vh[:rank].conj().T @ ((U[:, :rank].conj().T @ signs) / sv[:rank])
    Z = Vh[rank:].conj().T
    AoH = A[:, ~support].conj().T
    c = AoH @ u
    best = float(np.max(np.abs(c), initial=0.0))
    if Z.size and best > 1.0:
        M = AoH @ Z
        M_pinv = np.linalg.pinv(M)
        v = c
        lam = np.zeros_like(c)
        best_w = np.zeros(Z.shape[1], dtype=complex)
        for _ in range(_CERTIFICATE_ITERATIONS):
            w = M_pinv @ (v - c - lam)
            off = c + M @ w
            sup = float(np.max(np.abs(off)))
            if sup < best:
                best_w, best = w, sup
                if best <= 1.0:
                    break
            t = off + lam
            lam = _project_l1_ball(t, 1.0 / _CERTIFICATE_PENALTY)
            v = t - lam
        u = u + Z @ best_w
    corr = A.conj().T @ u
    fit = float(np.max(np.abs(corr[support] - signs)))
    violation = max(fit, max(float(np.max(np.abs(corr))) - 1.0, 0.0))
    return OptimalityReport(feasibility_gap=feas, dual_violation=violation)
