"""Complex l1 recovery by one ADMM loop, with a dual-certificate check.

`bpdn_ball` solves min sum|x_j| subject to ||A x - y||_2 <= radius, and
`basis_pursuit` is its radius-0 case, A x = y. The splitting is x = z,
Ax - y = w with w constrained to the ell2-ball and z updated by complex
soft thresholding. The x-update solves (I + A*A) x = rhs through the
Woodbury identity, x = rhs - A* q with q = C^{-1} A rhs and C = I + A A*,
so only an m x m system is ever solved. A x = A rhs - (C - I) q = q comes
for free, and the other A* products of an iteration are multiples of A* v
for the ball-projection argument v, so an iteration costs three matvecs.

The set-up is one Hermitian eigendecomposition A A* = V diag(lam) V*.
It gives the cached C^{-1} A = V (V* A / (1 + lam)) (the eigenvalues of C
are >= 1, so this is well conditioned) and the distance of y from the
range of A, ||V* y|| over the eigenvalues at or below the rank cut
lam_max * max(m, N) * eps. That distance decides `Infeasible`. The cut is
numpy's `lstsq` rcond applied to lam = sigma^2 instead of to sigma: it
agrees with `lstsq` whenever no singular value lies between
max(m, N) * eps * sigma_max and sqrt(max(m, N) * eps) * sigma_max, and
below that band eigh cannot resolve lam from rounding anyway.

The penalty starts at rho_0 = 4 and is rebalanced every 10 iterations
when the primal and dual residuals differ by 10x (residual balancing,
He, Yang & Wang 2000). Against rho_0 = 1, the start of 4 took the two
50-trial B=5 phase-transition grids from 467818 to 350157 iterations
with the success count of every cell unchanged, and 22 near-field
simulations (B=12, s=16, m=200) from 47461 to 46717. Starts scaled by
the problem were measured and rejected: sqrt(N)/||y|| needed 2.5 %
fewer iterations than rho_0 = 4 on a 120-trial grid but 27 % more on
the near-field simulations, and sqrt(N/m) needed more on both.

The dual residual and its tolerance are only evaluated when the primal
test passes, on a rebalance iteration or on the last allowed one, the
only places they are read; the iterates do not change.

`check_optimality` builds its KKT certificate itself: a dual vector u
that matches the signs of x on the support, chosen to minimize the
off-support sup-norm of A* u by a short ADMM over the null space of the
support equalities.

The l1 objective is the sum of complex moduli throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SolverConfig",
    "SolverResult",
    "OptimalityReport",
    "soft_threshold",
    "basis_pursuit",
    "bpdn_ball",
    "check_optimality",
]

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
INFEASIBLE = "Infeasible"

_PENALTY = 4.0           # initial ADMM penalty rho, rebalanced as the loop runs
_OVER_RELAXATION = 1.6
_CERTIFICATE_ITERATIONS = 500
_CERTIFICATE_PENALTY = 1.0


@dataclass
class SolverConfig:
    max_iterations: int = 50_000
    primal_tolerance: float = 1e-8
    dual_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.primal_tolerance <= 0 or self.dual_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolverResult:
    x: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    penalty: float     # final ADMM penalty rho, after rebalancing
    rebalances: int    # number of times rho was changed

    @property
    def objective(self) -> float:
        return float(np.sum(np.abs(self.x)))


def soft_threshold(z, tau: float):
    """Proximal map of tau * |.| for complex z: shrink the modulus by tau."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    z = np.asarray(z, dtype=complex)
    # 1 - tau/max(|z|, tau) is 1 - tau/|z| above the threshold and exactly
    # 0 at or below it; with tau = 0 the floor 1 keeps 0/0 out
    out = z * (1.0 - tau / np.maximum(np.abs(z), tau if tau > 0 else 1.0))
    return out if out.ndim else complex(out)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector, without np.linalg.norm's overhead."""
    return math.sqrt(np.vdot(v, v).real)


def basis_pursuit(A: np.ndarray, y: np.ndarray, cfg: SolverConfig | None = None) -> SolverResult:
    """min sum|x_j| subject to A x = y (complex): `bpdn_ball` at radius 0."""
    return bpdn_ball(A, y, 0.0, cfg)


def bpdn_ball(
    A: np.ndarray, y: np.ndarray, radius: float, cfg: SolverConfig | None = None
) -> SolverResult:
    """min sum|x_j| subject to ||A x - y||_2 <= radius (complex)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cfg = cfg or SolverConfig()
    A = np.asarray(A, dtype=complex)
    y = np.asarray(y, dtype=complex)
    m, N = A.shape
    y_norm = _norm(y)
    if y_norm <= radius:
        return SolverResult(x=np.zeros(N, dtype=complex), iterations=0,
                            primal_residual=0.0, dual_residual=0.0, status=CONVERGED,
                            penalty=_PENALTY, rebalances=0)

    At = A.conj().T
    lam, V = np.linalg.eigh(A @ At)     # A A* = V diag(lam) V*, lam ascending
    Vt = V.conj().T
    Vty = Vt @ y
    low = lam <= lam[-1] * max(m, N) * np.finfo(float).eps
    best_feasible = _norm(Vty[low])     # distance of y from range(A)
    if best_feasible > radius + cfg.primal_tolerance * (1.0 + y_norm):
        keep = ~low
        xls = At @ (V[:, keep] @ (Vty[keep] / lam[keep]))   # minimum-norm least squares
        return SolverResult(x=xls, iterations=0, primal_residual=best_feasible,
                            dual_residual=float("inf"), status=INFEASIBLE,
                            penalty=_PENALTY, rebalances=0)

    CinvA = V @ ((Vt @ A) / (1.0 + lam)[:, None])   # (I + A A*)^{-1} A
    Aty = At @ y

    rho = _PENALTY
    rebalances = 0
    alpha = _OVER_RELAXATION
    # absolute parts of the stopping tolerances; the relative parts scale
    # with the current iterates
    abs_pri = math.sqrt(N + m) * cfg.primal_tolerance
    abs_dua = math.sqrt(N + m) * cfg.dual_tolerance
    z = np.zeros(N, dtype=complex)
    w = np.zeros(m, dtype=complex)
    u1 = np.zeros(N, dtype=complex)
    u2 = np.zeros(m, dtype=complex)
    Atw = np.zeros(N, dtype=complex)    # A* w
    Atu2 = np.zeros(N, dtype=complex)   # A* u2
    r_norm = s_norm = float("inf")
    for it in range(1, cfg.max_iterations + 1):
        rhs = (z - u1) + (Aty + Atw - Atu2)
        Ax = CinvA @ rhs
        x = rhs - At @ Ax
        x_hat = alpha * x + (1.0 - alpha) * z
        Ax_y = Ax - y
        z_old, Atw_old = z, Atw
        z = soft_threshold(x_hat + u1, 1.0 / rho)
        # v = A x_hat - y + u2; w is its projection onto the ball and u2 = v - w,
        # so A* w and A* u2 are multiples of A* v
        v = alpha * Ax_y + (1.0 - alpha) * w + u2
        v_norm = _norm(v)
        shrink = radius / v_norm if v_norm > radius else 1.0
        w = shrink * v
        u2 = v - w
        Atv = At @ v
        Atw = shrink * Atv
        Atu2 = Atv - Atw
        u1 += x_hat
        u1 -= z
        r_norm = math.hypot(_norm(x - z), _norm(Ax_y - w))
        eps_pri = abs_pri + cfg.primal_tolerance * max(
            _norm(x), _norm(z), _norm(Ax_y), min(v_norm, radius))
        primal_ok = r_norm < eps_pri
        rebalance = it % 10 == 0
        if not (primal_ok or rebalance or it == cfg.max_iterations):
            continue    # the dual residual would not be read
        s_norm = rho * math.hypot(_norm(z - z_old), _norm(Atw - Atw_old))
        if primal_ok:
            eps_dua = abs_dua + cfg.dual_tolerance * (rho * math.hypot(_norm(u1), _norm(Atu2)))
            if s_norm < eps_dua:
                return SolverResult(x=z, iterations=it, primal_residual=r_norm,
                                    dual_residual=s_norm, status=CONVERGED, penalty=rho,
                                    rebalances=rebalances)
        # rebalance only every few iterations: per-iteration rescaling of the
        # scaled duals can lock the iteration into a limit cycle
        if rebalance:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u1 /= 2.0
                u2 /= 2.0
                Atu2 /= 2.0
                rebalances += 1
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u1 *= 2.0
                u2 *= 2.0
                Atu2 *= 2.0
                rebalances += 1
    return SolverResult(x=z, iterations=cfg.max_iterations, primal_residual=r_norm,
                        dual_residual=s_norm, status=MAX_ITER, penalty=rho,
                        rebalances=rebalances)


def _project_l1_ball(t: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a complex vector onto {p : sum|p_j| <= radius}:
    soft thresholding at the level that brings the l1 norm down to radius."""
    mag = np.abs(t)
    if mag.sum() <= radius:
        return t.copy()
    desc = np.sort(mag)[::-1]
    levels = (np.cumsum(desc) - radius) / np.arange(1, len(desc) + 1)
    # the threshold belongs to the last sorted modulus that stays above it
    return soft_threshold(t, levels[np.nonzero(desc > levels)[0][-1]])


@dataclass
class OptimalityReport:
    feasibility_gap: float    # max(||Ax - y|| - radius, 0)
    dual_violation: float     # certificate fit + inf-norm excess of A* u
    support_size: int


def check_optimality(
    A: np.ndarray, y: np.ndarray, x: np.ndarray, radius: float = 0.0,
    support_tol: float = 1e-5,
) -> OptimalityReport:
    """KKT check: search for a dual vector u with (A* u)_j = x_j/|x_j| on
    the support S and ||A* u||_inf <= 1; the violation is how badly the best
    candidate found misses.

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
    feas = max(float(np.linalg.norm(A @ x - y)) - radius, 0.0)
    mag = np.abs(x)
    support = mag > support_tol * max(mag.max(), 1e-300)
    if not support.any():
        return OptimalityReport(feasibility_gap=feas, dual_violation=0.0, support_size=0)
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
    return OptimalityReport(feasibility_gap=feas,
                            dual_violation=violation,
                            support_size=int(support.sum()))
