"""Complex l1 recovery by one ADMM loop, with a dual-certificate check.

`bpdn_ball` solves min sum|x_j| subject to ||A x - y||_2 <= radius, and
`basis_pursuit` is its radius-0 case, A x = y. The splitting is x = z
(Boyd et al. 2011, section 6.2): x is the exact projection of z - u onto
the data ball {x : ||A x - y|| <= radius} and z is updated by complex soft
thresholding, so x - z is the only primal residual and an iteration costs
two matvecs and a soft threshold.

The set-up is one eigendecomposition A A* = V diag(lam) V*, cut at
lam_max * max(m, N) * eps. With W = V* A and c = W q - V* y over the kept
eigenvalues, the projection of q is q - W* diag(g) c: g = 1/lam at radius
0 (the pseudo-inverse), q itself when ||c|| <= radius, and otherwise
g = mu/(1 + mu lam) with mu the root of sum |c_i|^2/(1 + mu lam_i)^2 =
radius^2, found by Newton steps on 1/||.|| - 1/radius from the previous
root (More & Sorensen 1983). V* y below the cut is the distance of y from
range(A): a constant in that sum, and the test for `Infeasible`. The cut
on lam = sigma^2 drops directions that numpy's `lstsq` keeps with its cut
on sigma, so an `Infeasible` distance is confirmed on an SVD basis of A,
cut on sigma, which the solve then uses if y is in the range after all.

The penalty starts at rho_0 = 16 and is rebalanced every 10 iterations
when the primal and dual residuals differ by 10x (residual balancing,
He, Yang & Wang 2000). Starts of 1, 4 and 16 took the two 50-trial B=5
phase-transition grids to 323264, 232830 and 232831 iterations, and 10
near-field solves (B=12, s=16, m=200, eps=1e-3, both measures, seeds
0-4) to 10318, 10011 and 6378, with every trial's success unchanged.

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

_PENALTY = 16.0          # initial ADMM penalty rho, rebalanced as the loop runs
_OVER_RELAXATION = 1.6
_SECULAR_STEPS = 50      # cap on the Newton steps of one ball projection
_SECULAR_TOLERANCE = 1e-9
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


class _DataBall:
    """Euclidean projection onto {x : ||A x - y|| <= radius} by the cached
    eigenbasis of the module docstring, or by an SVD basis with `exact_rank`."""

    def __init__(self, A: np.ndarray, y: np.ndarray, radius: float, exact_rank: bool = False):
        m, N = A.shape
        cut = max(m, N) * np.finfo(float).eps
        if exact_rank:    # the cut applies to sigma, as in lstsq
            V, sigma, _ = np.linalg.svd(A)
            lam = np.pad(sigma, (0, m - sigma.size)) ** 2
            keep = lam > (sigma[0] * cut) ** 2
        else:
            lam, V = np.linalg.eigh(A @ A.conj().T)
            keep = lam > lam[-1] * cut
        Vty = V.conj().T @ y
        self.distance = _norm(Vty[~keep])
        self.W = V[:, keep].conj().T @ A
        self.Wt = self.W.conj().T
        self.Vty = Vty[keep]
        self.lam = lam[keep]
        # radius^2 minus the constant part of the misfit below the cut
        self.target = math.sqrt(max(radius * radius - self.distance ** 2, 0.0))
        self.mu = 0.0    # last root, the next Newton start

    def project(self, q: np.ndarray) -> np.ndarray:
        c = self.W @ q - self.Vty
        t = self.target
        if t == 0.0:
            return q - self.Wt @ (c / self.lam)
        a = (c * c.conj()).real
        if math.sqrt(a.sum()) <= t:
            return q
        # Newton on 1/psi(mu) - 1/t, psi(mu)^2 = sum a/(1 + mu lam)^2, which is
        # concave and increasing: one step lands left of the root, and from
        # there the steps rise to it
        lam, mu = self.lam, self.mu
        for _ in range(_SECULAR_STEPS):
            s = 1.0 / (1.0 + mu * lam)
            a_s2 = a * s * s
            psi2 = a_s2.sum()
            psi = math.sqrt(psi2)
            mu = max(mu + (psi - t) * psi2 / (t * np.dot(a_s2 * s, lam)), 0.0)
            if abs(psi - t) <= _SECULAR_TOLERANCE * t:
                break
        self.mu = mu
        return q - self.Wt @ (c * (mu / (1.0 + mu * lam)))


def bpdn_ball(
    A: np.ndarray, y: np.ndarray, radius: float, cfg: SolverConfig | None = None
) -> SolverResult:
    """min sum|x_j| subject to ||A x - y||_2 <= radius (complex)."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cfg = cfg or SolverConfig()
    A = np.asarray(A, dtype=complex)
    y = np.asarray(y, dtype=complex)
    N = A.shape[1]
    y_norm = _norm(y)
    if y_norm <= radius:
        return SolverResult(x=np.zeros(N, dtype=complex), iterations=0,
                            primal_residual=0.0, dual_residual=0.0, status=CONVERGED,
                            penalty=_PENALTY, rebalances=0)

    slack = radius + cfg.primal_tolerance * (1.0 + y_norm)
    ball = _DataBall(A, y, radius)
    if ball.distance > slack:
        # confirm on an SVD basis, cut on sigma as lstsq does
        ball = _DataBall(A, y, radius, exact_rank=True)
        if ball.distance > slack:
            return SolverResult(x=ball.project(np.zeros(N, dtype=complex)), iterations=0,
                                primal_residual=ball.distance, dual_residual=float("inf"),
                                status=INFEASIBLE, penalty=_PENALTY, rebalances=0)

    rho, rebalances, alpha = _PENALTY, 0, _OVER_RELAXATION
    # absolute parts of the stopping tolerances; the relative parts scale
    # with the current iterates
    abs_pri = math.sqrt(N) * cfg.primal_tolerance
    abs_dua = math.sqrt(N) * cfg.dual_tolerance
    z = np.zeros(N, dtype=complex)
    u = np.zeros(N, dtype=complex)
    for it in range(1, cfg.max_iterations + 1):
        x = ball.project(z - u)
        x_hat = alpha * x + (1.0 - alpha) * z
        z_old = z
        z = soft_threshold(x_hat + u, 1.0 / rho)
        u += x_hat
        u -= z
        r_norm = _norm(x - z)
        primal_ok = r_norm < abs_pri + cfg.primal_tolerance * max(_norm(x), _norm(z))
        rebalance = it % 10 == 0
        if not (primal_ok or rebalance or it == cfg.max_iterations):
            continue    # the dual residual would not be read
        s_norm = rho * _norm(z - z_old)
        if primal_ok and s_norm < abs_dua + cfg.dual_tolerance * rho * _norm(u):
            return SolverResult(x=z, iterations=it, primal_residual=r_norm,
                                dual_residual=s_norm, status=CONVERGED, penalty=rho,
                                rebalances=rebalances)
        # rebalance only every few iterations: per-iteration rescaling of the
        # scaled dual can lock the iteration into a limit cycle
        if rebalance and max(r_norm, s_norm) > 10.0 * min(r_norm, s_norm):
            scale = 2.0 if r_norm > s_norm else 0.5
            rho *= scale
            u /= scale
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
