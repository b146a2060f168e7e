"""Complex l1 recovery by one ADMM loop.

`bpdn_ball` solves min sum|x_j| subject to ||A x - y||_2 <= radius; basis
pursuit, A x = y, is its radius-0 case. The splitting is x = z
(Boyd et al. 2011, section 6.2): x is the exact projection of z - u onto
the data ball {x : ||A x - y|| <= radius} and z is updated by complex soft
thresholding, so x - z is the only primal residual and an iteration costs
two matvecs and a soft threshold.

The set-up at radius 0 is a QR factorization when every |R_ii| passes the
rank cut max(m, N) * eps relative to the largest. For m >= N the QR of
[A, y] gives the one feasible point R[:N, :N]^-1 R[:N, N], returned with 0
iterations, and |R[N, N]| is the distance of y from range(A); for m < N,
A* = Q R gives W = Q*, V* y = R^-* y and lam = 1. Otherwise, and at any
positive radius, it is one eigendecomposition A A* = V diag(lam) V*, cut at
lam_max * max(m, N) * eps. With W = V* A and c = W q - V* y over the kept
eigenvalues, the projection of q is q - W* diag(g) c: g = 1/lam at radius
0 (the pseudo-inverse), q itself when ||c|| <= radius, and otherwise
g = mu/(1 + mu lam) with mu the root of sum |c_i|^2/(1 + mu lam_i)^2 =
radius^2, found by Newton steps on 1/||.|| - 1/radius from the previous
root (More & Sorensen 1983). W is the one cached m x N matrix; W* c is
formed as conj(conj(c) W). V* y below the cut is the distance of y from
range(A): a constant in that sum, and the test for `Infeasible`. The cut
on lam = sigma^2 drops directions that numpy's `lstsq` keeps with its cut
on sigma, so an `Infeasible` distance is confirmed on an SVD basis of A,
cut on sigma, which the solve then uses if y is in the range after all.
numpy has no triangular solve, so every solve with R or R* here, in the
set-up and in the radius-0 polish, goes through `_solve_triangular`: blocked
substitution whose 32-row diagonal blocks are `np.linalg.solve` calls, so a
system of up to 32 rows is that one call.

The penalty starts at rho_0 = 16 and is rebalanced every 10 iterations
when the primal and dual residuals differ by 10x (residual balancing,
He, Yang & Wang 2000). Of the starts 1, 4 and 16, 16 tied with 4 on the
B=5 phase-transition grids and took the fewest iterations on the B=12
near-field solves, with every trial's success unchanged; CHANGES.md keeps
the counts.

Every 10th iteration also tries a polish, as in OSQP (Stellato et al.
2020), on S = supp(z) when 0 < |S| <= m and A_S = Q R passes the rank cut.
A polished x is returned as converged, exactly sparse, with a 0 dual
residual; otherwise the iterates go on untouched. Either way x_S must have no
0 entry and a misfit within the primal slack. At radius 0, x_S = R^-1 Q* y
and the loop's subgradient estimate w = rho (x - q), q the projection input,
lies in range(A*); w' = w + A* Q R^-* (sign(x_S) - w_S) stays there, equals
sign(x_S) on S and must be at most 1 off S: a dual certificate (Fuchs
2004). At a positive radius, with d = ||y - Q Q* y|| < radius and unit
phases sigma on S, x_S = R^-1 (Q* y - t v), v = R^-* sigma and
t = sqrt(radius^2 - d^2)/||v||, has a residual e with ||e|| = radius and
A_S* e = t sigma. With sigma = exp(i phi), the KKT point on S is the root of
F(phi) = arg(x_S conj(sigma)). sigma starts at the phases of z and takes
Newton steps on F, with the real |S| x |S| Jacobian
Im(conj(x_S) dx_S/dphi)/|x_S|^2 - I, while the duality gap against the dual
point e/||A* e||_inf falls, at most 8; the lowest gap must be within the
tolerance, and a singular Jacobian fails the attempt. (The plain step
sigma <- sign(x_S) is expanding near the root, so it certified only from
phases already accurate to the tolerance.)

The set-up also gives the minimum-norm least-squares point of A x = y
(`SolverResult.least_squares`, built on demand): the QR point, W* V* y on
the QR basis, and on an eigen- or SVD basis refinement steps
x += W* ((V* y - W x)/lam) from x = 0 while the correction shrinks. The kept
lam exceed lam_max max(m, N) eps, so eps cond(A)^2 < 1/max(m, N) and each
step contracts the error by at least that factor; the first step alone is
off by about eps cond(A)^2.

One tolerance tol sets the primal slack radius + tol (1 + ||y||), both
residual tests (sqrt(N) tol plus tol times the size of the iterates) and
the bound on the polish's gap. The dual residual and its test are only
evaluated when the primal test passes, on a rebalance iteration or on the
last allowed one, the only places they are read; the iterates do not
change.

With an `objective_limit`, every 10th iteration after the residual test
also checks the projected x, which is feasible: if sum|x_j| < limit, so is
the minimum, and the solve returns z with status `Cutoff`. A planted trial
passes ||g||_1 - sqrt(N) tau ||g||_2 for its planted g and success
threshold tau, as ||g - x*||_2 >= (||g||_1 - ||x*||_1)/sqrt(N) at the
minimizer x*: below the limit the trial has failed, whatever z does next.

The l1 objective is the sum of complex moduli throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

__all__ = ["SolverConfig", "SolverResult", "bpdn_ball"]

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
INFEASIBLE = "Infeasible"
CUTOFF = "Cutoff"

_PENALTY = 16.0          # initial ADMM penalty rho, rebalanced as the loop runs
_OVER_RELAXATION = 1.6
_SECULAR_STEPS = 50      # cap on the Newton steps of one ball projection
_SECULAR_TOLERANCE = 1e-9
_REFINE_STEPS = 8        # cap on the refinement steps of one least-squares point
_NEWTON_STEPS = 8        # cap on the phase steps of one ball polish
_BLOCK = 32              # diagonal block of `_solve_triangular`


@dataclass
class SolverConfig:
    max_iterations: int = 50_000
    tolerance: float = 1e-8    # of the primal and dual residual tests and the polish gap

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # false for NaN too; at tol >= 1 the primal slack admits x = 0
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must be in (0, 1)")


@dataclass
class SolverResult:
    # the defaults describe a solve that ends before the first iteration
    x: np.ndarray
    iterations: int = 0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    status: str = CONVERGED
    penalty: float = _PENALTY    # final ADMM penalty rho, after rebalancing
    rebalances: int = 0          # number of times rho was changed
    # the least-squares point of the solve's set-up, computed when asked for
    _least_squares: Callable[[], np.ndarray] | None = field(default=None, repr=False,
                                                          compare=False)

    @property
    def objective(self) -> float:
        return float(np.sum(np.abs(self.x)))

    def least_squares(self) -> np.ndarray:
        """The minimum-norm least-squares point of the solved system A x = y,
        from the solve's own set-up (see `_DataBall.least_squares`)."""
        if self._least_squares is None:
            raise ValueError("this result holds no solver set-up")
        return self._least_squares()


def _shrink(z: np.ndarray, tau: float) -> np.ndarray:
    """Complex soft thresholding, the proximal map of tau * |.| for tau >= 0:
    1 - tau/max(|z|, tau) is 1 - tau/|z| above the threshold and exactly 0 at
    or below it; with tau = 0 the floor 1 keeps 0/0 out."""
    return z * (1.0 - tau / np.maximum(np.abs(z), tau if tau > 0 else 1.0))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector, without np.linalg.norm's overhead."""
    return math.sqrt(np.vdot(v, v).real)


def _solve_triangular(T: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """T^-1 b for a triangular T by blocked substitution: each diagonal block
    of _BLOCK rows is solved by np.linalg.solve after the blocks already
    solved are subtracted by one matvec, so up to _BLOCK rows it is that call."""
    n = T.shape[0]
    if n <= _BLOCK:
        return np.linalg.solve(T, b)
    x = np.empty(n, dtype=np.result_type(T, b))
    starts = range(0, n, _BLOCK) if lower else reversed(range(0, n, _BLOCK))
    for i in starts:
        j = min(i + _BLOCK, n)
        done = slice(0, i) if lower else slice(j, n)
        x[i:j] = np.linalg.solve(T[i:j, i:j], b[i:j] - T[i:j, done] @ x[done])
    return x


class _DataBall:
    """Euclidean projection onto {x : ||A x - y|| <= radius} by a set-up of
    the module docstring: the QR point or QR basis at radius 0 when R passes
    the rank cut, else the cached eigenbasis, or an SVD basis with `exact_rank`."""

    def __init__(self, A: np.ndarray, y: np.ndarray, radius: float, exact_rank: bool = False):
        m, N = A.shape
        cut = max(m, N) * np.finfo(float).eps
        self.point, self.lam, self.target, self.distance = None, None, 0.0, 0.0
        self.mu = 0.0    # last root, the next Newton start
        if radius == 0.0 and not exact_rank:
            if m >= N:
                R = np.linalg.qr(np.column_stack([A, y]), mode="r")
            else:    # A^T = Q R, so A* = conj(Q) conj(R) and W = Q^T
                Q, R = np.linalg.qr(A.T)
            d = np.abs(R.diagonal()[:N])    # the diagonal of R[:N, :N]
            if d.min() > d.max() * cut:
                if m >= N:
                    self.point = _solve_triangular(R[:N, :N], R[:N, N], lower=False)
                    self.distance = _norm(R[N:, N])    # empty, so 0, when m = N
                else:    # W W* = I: lam stays None and project skips the divide
                    self.W = np.ascontiguousarray(Q.T)
                    self.Vty = _solve_triangular(R.T, y, lower=True)
                return
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
        self.Vty = Vty[keep]
        self.lam = lam[keep]
        # radius^2 minus the constant part of the misfit below the cut
        self.target = math.sqrt(max(radius * radius - self.distance ** 2, 0.0))

    def project(self, q: np.ndarray) -> np.ndarray:
        if self.point is not None:
            return self.point
        c = self.W @ q - self.Vty
        t = self.target
        if t == 0.0 and self.lam is not None:
            c /= self.lam
        elif t > 0.0:
            a = c.real ** 2 + c.imag ** 2
            if math.sqrt(a.sum()) <= t:
                return q
            # Newton on 1/psi(mu) - 1/t, psi(mu)^2 = sum a/(1 + mu lam)^2, which
            # is concave and increasing: one step lands left of the root, and
            # from there the steps rise to it
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
            c *= mu / (1.0 + mu * lam)
        return q - (c.conj() @ self.W).conj()

    def least_squares(self) -> np.ndarray:
        """The minimum-norm least-squares point of A x = y, truncated at the
        set-up's rank cut, as in the module docstring."""
        if self.point is not None:
            return self.point
        if self.lam is None:
            return (self.Vty.conj() @ self.W).conj()
        x = np.zeros(self.W.shape[1], dtype=complex)
        size = math.inf
        for _ in range(_REFINE_STEPS):
            dx = (((self.Vty - self.W @ x) / self.lam).conj() @ self.W).conj()
            dx_norm = _norm(dx)
            if not dx_norm < size:
                break
            x += dx
            size = dx_norm
        return x


def _duality_gap(A: np.ndarray, y: np.ndarray, radius: float, objective: float,
                 e: np.ndarray) -> float:
    """Relative duality gap of a point with l1 norm `objective` and residual
    e = y - A x: the dual max Re<nu, y> - radius ||nu|| subject to
    ||A* nu||_inf <= 1 bounds the minimum from below, here at nu = e/||A* e||_inf."""
    dual = (np.vdot(e, y).real - radius * _norm(e)) / np.max(np.abs(e.conj() @ A))
    return (objective - dual) / objective


def _polish(A: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray, radius: float,
            slack: float, gap_tolerance: float):
    """The polish of the module docstring on S = supp(z): (x, max(||A x - y||
    - radius, 0)) if a certificate proves x optimal, else None. w is the
    loop's subgradient estimate, read at radius 0."""
    m, N = A.shape
    S = np.flatnonzero(z)
    if not 0 < S.size <= m:
        return None
    A_S = A[:, S]
    Q, R = np.linalg.qr(A_S)
    d = np.abs(R.diagonal())
    if d.min() <= d.max() * max(m, N) * np.finfo(float).eps:
        return None
    Qy = Q.conj().T @ y
    if radius == 0.0:
        x_S = _solve_triangular(R, Qy, lower=False)
        misfit = _norm(A_S @ x_S - y)
    else:
        h = radius * radius - _norm(y - Q @ Qy) ** 2
        if h <= 0.0:
            return None
        Ri = np.linalg.inv(R)
        Rh = Ri.conj().T    # R^-*
        gap, sigma = math.inf, z[S] / np.abs(z[S])
        for _ in range(_NEWTON_STEPS):
            v = Rh @ sigma
            t = math.sqrt(h) / _norm(v)
            p = Ri @ (Qy - t * v)
            e = y - A_S @ p
            g = _duality_gap(A, y, radius, float(np.sum(np.abs(p))), e)
            if not g < gap:
                break
            gap, x_S, misfit = g, p, _norm(e)
            if not np.all(p):
                break
            # Newton on F(phi) = arg(x_S conj(sigma)), sigma = exp(i phi):
            # column j of dv holds dv/dphi_j = R^-* (i sigma_j e_j)
            dv = Rh * (1j * sigma)
            dt = -t * (v.conj() @ dv).real / _norm(v) ** 2
            dp = -Ri @ (np.outer(v, dt) + t * dv)
            J = (p.conj()[:, None] * dp).imag / (np.abs(p) ** 2)[:, None] - np.eye(S.size)
            try:
                step = np.linalg.solve(J, np.angle(p * sigma.conj()))
            except np.linalg.LinAlgError:
                return None
            sigma = sigma * np.exp(-1j * step)
        if not gap <= gap_tolerance:
            return None
    if misfit > slack or not np.all(x_S):
        return None
    if radius == 0.0:
        nu = Q @ _solve_triangular(R.conj().T, x_S / np.abs(x_S) - w[S], lower=True)
        w = w + (nu.conj() @ A).conj()    # equals the signs of x_S on S
        w[S] = 0.0
        if np.max(np.abs(w)) > 1.0:
            return None
    x = np.zeros(N, dtype=complex)
    x[S] = x_S
    return x, max(misfit - radius, 0.0)


def bpdn_ball(
    A: np.ndarray, y: np.ndarray, radius: float, cfg: SolverConfig | None = None,
    objective_limit: float = -math.inf,
) -> SolverResult:
    """min sum|x_j| subject to ||A x - y||_2 <= radius (complex); a solve
    proved to end below `objective_limit` stops as `Cutoff` (module docstring)."""
    if not radius >= 0:   # false for NaN too
        raise ValueError("radius must be >= 0")
    cfg = cfg or SolverConfig()
    A = np.asarray(A, dtype=complex)
    y = np.asarray(y, dtype=complex)
    N = A.shape[1]
    y_norm = _norm(y)
    if y_norm <= radius:
        return SolverResult(x=np.zeros(N, dtype=complex),
                            _least_squares=lambda: _DataBall(A, y, 0.0).least_squares())

    tol = cfg.tolerance
    slack = radius + tol * (1.0 + y_norm)
    ball = _DataBall(A, y, radius)
    if ball.distance > slack:
        # confirm on an SVD basis, cut on sigma as lstsq does
        ball = _DataBall(A, y, radius, exact_rank=True)
    result = partial(SolverResult, _least_squares=ball.least_squares)
    if ball.distance > slack:
        return result(x=ball.project(np.zeros(N, dtype=complex)), status=INFEASIBLE,
                      primal_residual=ball.distance, dual_residual=float("inf"))
    if ball.point is not None:    # the feasible set is one point
        return result(x=ball.point, primal_residual=ball.distance)

    rho, rebalances, alpha = _PENALTY, 0, _OVER_RELAXATION
    # absolute part of the stopping tests; the relative parts scale with
    # the current iterates
    abs_tol = math.sqrt(N) * tol
    z = np.zeros(N, dtype=complex)
    u = np.zeros(N, dtype=complex)
    status = MAX_ITER
    for it in range(1, cfg.max_iterations + 1):
        q = z - u
        x = ball.project(q)
        v = alpha * x + (1.0 - alpha) * z    # x_hat, then x_hat + u in place
        v += u
        z_old = z
        z = _shrink(v, 1.0 / rho)
        u = v - z
        r_norm = _norm(x - z)
        primal_ok = r_norm < abs_tol + tol * max(_norm(x), _norm(z))
        rebalance = it % 10 == 0
        if not (primal_ok or rebalance or it == cfg.max_iterations):
            continue    # the dual residual would not be read
        s_norm = rho * _norm(z - z_old)
        if primal_ok and s_norm < abs_tol + tol * rho * _norm(u):
            status = CONVERGED
            break
        if rebalance and np.sum(np.abs(x)) < objective_limit:
            status = CUTOFF
            break
        # x - q = -W* g c, so rho (x - q) lies in range(A*)
        polished = rebalance and _polish(A, y, z, rho * (x - q), radius, slack, tol)
        if polished:    # exactly sparse, with no dual residual
            z, r_norm = polished
            s_norm, status = 0.0, CONVERGED
            break
        # rebalance only every few iterations: per-iteration rescaling of the
        # scaled dual can lock the iteration into a limit cycle
        if rebalance and max(r_norm, s_norm) > 10.0 * min(r_norm, s_norm):
            scale = 2.0 if r_norm > s_norm else 0.5
            rho *= scale
            u /= scale
            rebalances += 1
    return result(x=z, iterations=it, primal_residual=r_norm, dual_residual=s_norm,
                  status=status, penalty=rho, rebalances=rebalances)
