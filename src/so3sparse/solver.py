"""Complex basis pursuit and ball-constrained BPDN via ADMM.

Two operator-splitting schemes share the complex soft-thresholding
proximal step:

* `basis_pursuit` alternates an exact affine projection onto {Ax = y}
  (one cached factorization of A A*) with soft-thresholding.
* `bpdn_ball` splits as x = z, Ax - y = w with w constrained to the
  ell2-ball; the x-update solves (I + A*A) x = rhs through the Woodbury
  identity, x = rhs - A* q with q = C^{-1} A rhs and C = I + A A*, so only
  an m x m system is ever solved. C^{-1} A is solved for once per call and
  cached explicitly in place of a Cholesky factor: the eigenvalues of C
  are >= 1, so C^{-1} is well conditioned. A x = A rhs - (C - I) q = q
  comes for free, and the other A* products of an iteration are multiples
  of A* v for the ball-projection argument v, so an iteration costs three
  matvecs.

The l1 objective is the sum of complex moduli throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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


@dataclass
class SolverConfig:
    max_iterations: int = 50_000
    primal_tolerance: float = 1e-8
    dual_tolerance: float = 1e-8
    penalty: float = 1.0
    over_relaxation: float = 1.6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.primal_tolerance <= 0 or self.dual_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")
        if not 1.0 <= self.over_relaxation <= 1.9:
            raise ValueError("over_relaxation must lie in [1, 1.9]")


@dataclass
class SolverResult:
    x: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    penalty: float   # final ADMM penalty rho, after rebalancing

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


def _tolerances(cfg: SolverConfig, dim: int, ref_primal: float, ref_dual: float):
    eps_pri = math.sqrt(dim) * cfg.primal_tolerance + cfg.primal_tolerance * ref_primal
    eps_dua = math.sqrt(dim) * cfg.dual_tolerance + cfg.dual_tolerance * ref_dual
    return eps_pri, eps_dua


def basis_pursuit(A: np.ndarray, y: np.ndarray, cfg: SolverConfig | None = None) -> SolverResult:
    """min sum|x_j| subject to A x = y (complex)."""
    cfg = cfg or SolverConfig()
    A = np.asarray(A, dtype=complex)
    y = np.asarray(y, dtype=complex)
    m, N = A.shape
    AAt = A @ A.conj().T
    try:
        factor = cho_factor(AAt)
        solve = lambda b: cho_solve(factor, b)
    except np.linalg.LinAlgError:
        pinv = np.linalg.pinv(AAt, rcond=1e-12)
        solve = lambda b: pinv @ b

    def project(v):
        return v - A.conj().T @ solve(A @ v - y)

    # feasibility of the projection itself: y must lie in the range of A
    x0 = project(np.zeros(N, dtype=complex))
    if np.linalg.norm(A @ x0 - y) > cfg.primal_tolerance * (1.0 + np.linalg.norm(y)):
        return SolverResult(x=x0, iterations=0,
                            primal_residual=float(np.linalg.norm(A @ x0 - y)),
                            dual_residual=float("inf"), status=INFEASIBLE,
                            penalty=cfg.penalty)

    rho = cfg.penalty
    alpha = cfg.over_relaxation
    z = x0.copy()
    u = np.zeros(N, dtype=complex)
    r_norm = s_norm = float("inf")
    for it in range(1, cfg.max_iterations + 1):
        x = project(z - u)
        x_hat = alpha * x + (1.0 - alpha) * z
        z_old = z
        z = soft_threshold(x_hat + u, 1.0 / rho)
        u = u + x_hat - z
        r_norm = float(np.linalg.norm(x - z))
        s_norm = float(rho * np.linalg.norm(z - z_old))
        eps_pri, eps_dua = _tolerances(
            cfg, N, max(np.linalg.norm(x), np.linalg.norm(z)),
            rho * np.linalg.norm(u),
        )
        if r_norm < eps_pri and s_norm < eps_dua:
            return SolverResult(x=project(z), iterations=it, primal_residual=r_norm,
                                dual_residual=s_norm, status=CONVERGED, penalty=rho)
        # rebalance only every few iterations: per-iteration rescaling of u
        # can lock the iteration into a limit cycle
        if it % 10 == 0:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u *= 2.0
    return SolverResult(x=project(z), iterations=cfg.max_iterations,
                        primal_residual=r_norm, dual_residual=s_norm, status=MAX_ITER,
                        penalty=rho)


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
                            penalty=cfg.penalty)

    xls, *_ = np.linalg.lstsq(A, y, rcond=None)
    best_feasible = _norm(A @ xls - y)
    if best_feasible > radius + cfg.primal_tolerance * (1.0 + y_norm):
        return SolverResult(x=xls, iterations=0, primal_residual=best_feasible,
                            dual_residual=float("inf"), status=INFEASIBLE,
                            penalty=cfg.penalty)

    At = A.conj().T
    CinvA = np.linalg.solve(np.eye(m) + A @ At, A)   # (I + A A*)^{-1} A
    Aty = At @ y

    rho = cfg.penalty
    alpha = cfg.over_relaxation
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
        s_norm = rho * math.hypot(_norm(z - z_old), _norm(Atw - Atw_old))
        eps_pri, eps_dua = _tolerances(
            cfg, N + m,
            max(_norm(x), _norm(z), _norm(Ax_y), min(v_norm, radius)),
            rho * math.hypot(_norm(u1), _norm(Atu2)),
        )
        if r_norm < eps_pri and s_norm < eps_dua:
            return SolverResult(x=z, iterations=it, primal_residual=r_norm,
                                dual_residual=s_norm, status=CONVERGED, penalty=rho)
        # same periodic rebalancing as the exact-constraint solver
        if it % 10 == 0:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u1 /= 2.0
                u2 /= 2.0
                Atu2 /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u1 *= 2.0
                u2 *= 2.0
                Atu2 *= 2.0
    return SolverResult(x=z, iterations=cfg.max_iterations, primal_residual=r_norm,
                        dual_residual=s_norm, status=MAX_ITER, penalty=rho)


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
    the support and ||A* u||_inf <= 1; the violation is how badly the best
    candidate misses.

    The search minimizes the off-support sup-norm of A* u subject to the
    support equalities (a small SOCP); a plain least-norm fit of the
    equalities is the fallback when no conic solver is available, and is
    a looser certificate.
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
    violation = _certificate_socp(A, support, signs)
    if violation is None:
        As = A[:, support]
        u, *_ = np.linalg.lstsq(As.conj().T, signs, rcond=None)
        corr = A.conj().T @ u
        fit = float(np.max(np.abs(corr[support] - signs)))
        violation = max(fit, max(float(np.max(np.abs(corr))) - 1.0, 0.0))
    return OptimalityReport(feasibility_gap=feas,
                            dual_violation=violation,
                            support_size=int(support.sum()))


def _certificate_socp(A: np.ndarray, support: np.ndarray, signs: np.ndarray):
    """Best dual certificate by convex search; None if cvxpy is missing."""
    try:
        import cvxpy as cp
    except ImportError:
        return None
    m = A.shape[0]
    u = cp.Variable(m, complex=True)
    corr_s = A[:, support].conj().T @ u
    if (~support).any():
        objective = cp.Minimize(cp.max(cp.abs(A[:, ~support].conj().T @ u)))
    else:
        objective = cp.Minimize(cp.norm(u))
    problem = cp.Problem(objective, [corr_s == signs])
    try:
        problem.solve()
    except cp.error.SolverError:
        return None
    if problem.status not in ("optimal", "optimal_inaccurate"):
        return float("inf")
    corr = A.conj().T @ u.value
    fit = float(np.max(np.abs(corr[support] - signs)))
    excess = max(float(np.max(np.abs(corr))) - 1.0, 0.0)
    return max(fit, excess)
