import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from so3sparse import solver
from so3sparse.experiments import COMPLEX_GAUSSIAN, gen_sparse
from so3sparse.solver import (
    CONVERGED,
    CUTOFF,
    INFEASIBLE,
    MAX_ITER,
    SolverConfig,
    _norm,
    _shrink,
    bpdn_ball,
)
import solver_reference
from solver_reference import _project_l1_ball, check_optimality

TIGHT = SolverConfig(tolerance=1e-10)


def _planted(rng, m, n, s, complex_x=True):
    A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
    x = np.zeros(n, dtype=complex)
    support = rng.choice(n, s, replace=False)
    if complex_x:
        x[support] = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    else:
        x[support] = rng.standard_normal(s)
    return A, x, A @ x


def test_soft_threshold_values():
    assert _shrink(3 + 4j, 5.0) == 0
    assert _shrink(3 + 4j, 0.0) == 3 + 4j
    out = _shrink(3 + 4j, 2.5)
    assert out == pytest.approx(1.5 + 2j)
    assert abs(out) == pytest.approx(abs(3 + 4j) - 2.5)
    assert _shrink(0j, 1.0) == 0


def test_soft_threshold_is_proximal_map():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        tau = rng.uniform(0, 2)
        w0 = _shrink(z, tau)
        obj0 = tau * abs(w0) + 0.5 * abs(w0 - z) ** 2
        # fine grid of competitors around the returned point
        for dr in np.linspace(-0.2, 0.2, 9):
            for di in np.linspace(-0.2, 0.2, 9):
                w = w0 + complex(dr, di)
                assert tau * abs(w) + 0.5 * abs(w - z) ** 2 >= obj0 - 1e-12


def test_basis_pursuit_identity():
    y = np.array([1 + 1j, -2j, 0.5])
    res = bpdn_ball(np.eye(3), y, 0.0, TIGHT)
    assert res.status == CONVERGED
    np.testing.assert_allclose(res.x, y, atol=1e-8)


def test_basis_pursuit_square_invertible():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    res = bpdn_ball(A, y, 0.0, TIGHT)
    np.testing.assert_allclose(res.x, np.linalg.solve(A, y), atol=1e-8)


def test_basis_pursuit_2x3_optimal_face():
    # l1 optimum is the whole segment between (1,1,0) and (0,0,2): value 2
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    y = np.array([1.0, 1.0], dtype=complex)
    res = bpdn_ball(A, y, 0.0, TIGHT)
    assert res.status == CONVERGED
    assert res.objective == pytest.approx(2.0, abs=1e-7)
    np.testing.assert_allclose(A @ res.x, y, atol=1e-8)
    rep = check_optimality(A, y, res.x)
    assert rep.dual_violation < 1e-6


def test_basis_pursuit_infeasible():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # rank 1
    y = np.array([1.0, 0.0], dtype=complex)            # outside the range
    res = bpdn_ball(A, y, 0.0)
    assert res.status == INFEASIBLE


def test_bpdn_large_radius_gives_zero():
    rng = np.random.default_rng(2)
    A, _, y = _planted(rng, 10, 30, 3)
    res = bpdn_ball(A, y, radius=np.linalg.norm(y) * 1.01)
    np.testing.assert_array_equal(res.x, 0)
    assert res.status == CONVERGED


def test_bpdn_zero_radius_is_certified():
    rng = np.random.default_rng(3)
    for trial in range(20):
        A, x, y = _planted(rng, 12, 24, 3)
        res = bpdn_ball(A, y, 0.0, TIGHT)
        rep = check_optimality(A, y, res.x)
        assert rep.dual_violation < 1e-5
        assert rep.feasibility_gap < 1e-7


def test_bpdn_planted_one_sparse():
    rng = np.random.default_rng(4)
    A, x, y = _planted(rng, 20, 50, 1)
    res = bpdn_ball(A, y, 0.0, TIGHT)
    assert np.linalg.norm(res.x - x) / np.linalg.norm(x) < 1e-5


def test_bpdn_active_ball_with_bounded_noise():
    # 0 < radius < ||y||: the data-ball constraint is active at the optimum
    rng = np.random.default_rng(8)
    A, x, y0 = _planted(rng, 20, 50, 3)
    radius = 0.05 * np.linalg.norm(y0)
    e = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    y = y0 + 0.8 * radius * e / np.linalg.norm(e)
    assert 0 < radius < np.linalg.norm(y)
    res = bpdn_ball(A, y, radius, TIGHT)
    assert res.status == CONVERGED
    misfit = np.linalg.norm(A @ res.x - y)
    assert misfit <= radius * (1 + 1e-6) + 1e-8
    assert misfit >= radius * (1 - 1e-6)
    # the planted vector is feasible, so the minimizer's l1 norm is no larger
    assert res.objective <= np.sum(np.abs(x)) + 1e-7


def _repeated_rows(rng):
    # 7 rows, rank 4: rows 4..6 repeat rows 0..2
    base = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
    return base[[0, 1, 2, 3, 0, 1, 2]]


def test_infeasible_distance_matches_lstsq():
    rng = np.random.default_rng(9)
    A = _repeated_rows(rng)
    y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    xls, *_ = np.linalg.lstsq(A, y, rcond=None)
    dist = np.linalg.norm(A @ xls - y)
    assert dist > 0.1
    res = bpdn_ball(A, y, 0.0)
    assert res.status == INFEASIBLE
    assert res.primal_residual == pytest.approx(dist, rel=1e-12)
    np.testing.assert_allclose(res.x, xls, rtol=0, atol=1e-12 * np.linalg.norm(xls))


def test_rank_deficient_consistent_system_converges():
    rng = np.random.default_rng(9)
    A = _repeated_rows(rng)
    x = np.zeros(10, dtype=complex)
    x[[2, 7]] = [1.0 - 0.5j, 0.25j]
    res = bpdn_ball(A, A @ x, 0.0, TIGHT)
    assert res.status == CONVERGED
    np.testing.assert_allclose(A @ res.x, A @ x, atol=1e-8)


def test_ill_conditioned_full_rank_is_feasible():
    # condition number 1e6: sigma_min^2 / sigma_max^2 = 1e-12 is far above
    # the rank cut, so every y is in the range
    rng = np.random.default_rng(10)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    W, _ = np.linalg.qr(rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6)))
    A = U @ np.diag(np.logspace(0, -6, 6)) @ W.conj().T
    assert np.linalg.cond(A) == pytest.approx(1e6, rel=1e-6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    # one iteration is enough to show that the set-up let the loop start
    res = bpdn_ball(A, y, 0.0, SolverConfig(max_iterations=1))
    assert res.status == MAX_ITER and res.iterations == 1


def test_consistent_condition_1e7_is_not_infeasible():
    # sigma_min / sigma_max = 1e-7, so lam_min / lam_max = 1e-14 falls under
    # the eigenvalue rank cut 60 * eps = 1.3e-14; y is in the range all the same
    rng = np.random.default_rng(14)
    m, N = 60, 30
    U, _ = np.linalg.qr(rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N)))
    W, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    A = U @ np.diag(np.logspace(0, -7, N)) @ W.conj().T
    assert np.linalg.cond(A) == pytest.approx(1e7, rel=1e-6)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    y = A @ x
    res = bpdn_ball(A, y, 0.0)
    assert res.status == CONVERGED
    assert np.linalg.norm(A @ res.x - y) < 1e-8 * np.linalg.norm(y)
    assert np.linalg.norm(res.x - x) < 1e-6 * np.linalg.norm(x)


@pytest.mark.parametrize("m, N", [(30, 60), (60, 30)])
def test_svd_confirmation_keeps_a_consistent_ball_feasible(m, N):
    # sigma = logspace(0, -10): y = A (v_1 + 1e3 v_k) puts 1e-7 of y on u_k,
    # whose lam = 1e-20 falls under the eigenvalue cut, so the eigenbasis
    # reads y off the range by far more than the slack; sigma_k = 1e-10 is
    # above the cut on sigma, so the SVD basis finds y in the range
    rng = np.random.default_rng(0)
    k = min(m, N)
    U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    A = U[:, :k] * np.logspace(0, -10, k) @ V[:, :k].conj().T
    y = A @ (V[:, 0] + 1e3 * V[:, k - 1])
    assert solver._DataBall(A, y, 1e-9).distance == pytest.approx(1e-7, rel=1e-3)
    res = bpdn_ball(A, y, 1e-9)
    assert res.status == CONVERGED


def _off_range(rng, A, distance):
    """A y whose distance from range(A) is `distance`."""
    m, N = A.shape
    w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    e -= A @ (np.linalg.pinv(A) @ e)
    return A @ w + distance * e / np.linalg.norm(e)


def _tall(rng, m=30, N=12):
    return (rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))) / np.sqrt(2 * m)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 165])
@pytest.mark.parametrize("lower", [False, True])
def test_solve_triangular_matches_solve(n, lower):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    R = np.linalg.qr(M, mode="r")
    T = R.T if lower else R
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, ref = solver._solve_triangular(T, b, lower), np.linalg.solve(T, b)
    if n <= solver._BLOCK:
        np.testing.assert_array_equal(x, ref)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=0)


def test_tall_consistent_system_is_one_point():
    # full column rank: {x : A x = y} is one point, solved without iterations
    rng = np.random.default_rng(15)
    A = _tall(rng)
    x = gen_sparse(12, 3, COMPLEX_GAUSSIAN, rng)
    y = A @ x
    res = bpdn_ball(A, y, 0.0)
    assert res.status == CONVERGED
    assert (res.iterations, res.rebalances, res.dual_residual) == (0, 0, 0.0)
    xls, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert np.linalg.norm(res.x - xls) <= 1e-12 * np.linalg.norm(xls)
    assert res.primal_residual == pytest.approx(np.linalg.norm(A @ res.x - y), abs=1e-14)
    assert check_optimality(A, y, res.x).dual_violation <= 1e-8


def test_tall_inconsistent_system_is_infeasible():
    rng = np.random.default_rng(16)
    A = _tall(rng)
    y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    xls, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = bpdn_ball(A, y, 0.0)
    assert res.status == INFEASIBLE
    assert res.primal_residual == pytest.approx(np.linalg.norm(A @ xls - y), rel=1e-12)
    np.testing.assert_allclose(res.x, xls, rtol=0, atol=1e-12 * np.linalg.norm(xls))


def test_tall_repeated_column_falls_back_to_admm():
    # column 11 repeats column 3: the feasible set is a line, R's diagonal
    # fails the rank gate and the solve runs the loop on the eigenbasis
    rng = np.random.default_rng(17)
    A = _tall(rng)
    A[:, 11] = A[:, 3]
    x = np.zeros(12, dtype=complex)
    x[[3, 7]] = [1.0 - 0.5j, 0.25j]
    y = A @ x
    assert solver._DataBall(A, y, 0.0).point is None
    res = bpdn_ball(A, y, 0.0, TIGHT)
    assert res.status == CONVERGED and res.iterations > 0
    assert res.objective == pytest.approx(np.sum(np.abs(x)), rel=1e-8)
    rep = check_optimality(A, y, res.x)
    assert rep.feasibility_gap < 1e-8 and rep.dual_violation < 1e-6


def _least_squares_cases():
    """(A, y, radius) that reach each set-up, by name."""
    rng = np.random.default_rng(22)
    A, _, y = _planted(rng, 20, 50, 3)
    tall = _tall(rng)
    rows = _repeated_rows(rng)
    x = gen_sparse(12, 3, COMPLEX_GAUSSIAN, rng)
    for name, A, y, radius in (
            ("qr-basis", A, y, 0.0),
            ("eigenbasis", A, y, 0.05 * np.linalg.norm(y)),
            ("early-exit", A, y, 2.0 * np.linalg.norm(y)),
            ("zero-y", A, np.zeros(20, dtype=complex), 0.0),
            ("qr-point", tall, tall @ x, 0.0),
            ("tall-eigenbasis", tall, _off_range(rng, tall, 0.1), 0.2),
            ("rank-deficient", rows, rows @ np.arange(10, dtype=complex), 0.0),
            ("svd-basis", rows, rng.standard_normal(7) + 1j * rng.standard_normal(7), 0.0)):
        yield pytest.param(name, A, y, radius, id=name)


@pytest.mark.parametrize("name, A, y, radius", list(_least_squares_cases()))
def test_least_squares_from_the_solve_set_up(name, A, y, radius):
    res = bpdn_ball(A, y, radius)
    assert (res.status == INFEASIBLE) == (name == "svd-basis")
    ls = np.linalg.lstsq(A, y, rcond=None)[0]
    assert np.linalg.norm(res.least_squares() - ls) <= 1e-10 * np.linalg.norm(ls)


def test_least_squares_needs_a_set_up():
    with pytest.raises(ValueError, match="set-up"):
        solver.SolverResult(x=np.zeros(3, dtype=complex)).least_squares()


@given(m=st.integers(1, 8), extra=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_qr_basis_projection_is_pseudo_inverse_step(m, extra, seed):
    # wide full row rank at radius 0: the QR basis of A* gives q - A+(A q - y)
    rng = np.random.default_rng(seed)
    N = m + extra
    A = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    ball = solver._DataBall(A, y, 0.0)
    assert ball.lam is None and ball.distance == 0.0
    pinv = np.linalg.pinv(A)
    expected = q - pinv @ (A @ q - y)
    scale = np.linalg.norm(q) + np.linalg.norm(pinv @ y)
    np.testing.assert_allclose(ball.project(q), expected, rtol=0, atol=1e-10 * scale)


def _projection_cases():
    """(A, y, distance of y from range(A)): a wide complex matrix, the rank-4
    matrix of `_repeated_rows` and a tall full-rank matrix, the last two with
    y off their range by 1e-3."""
    rng = np.random.default_rng(21)
    wide = rng.standard_normal((8, 20)) + 1j * rng.standard_normal((8, 20))
    yield wide, rng.standard_normal(8) + 1j * rng.standard_normal(8), 0.0
    deficient = _repeated_rows(rng)
    yield deficient, _off_range(rng, deficient, 1e-3), 1e-3
    tall = rng.standard_normal((20, 8)) + 1j * rng.standard_normal((20, 8))
    yield tall, _off_range(rng, tall, 1e-3), 1e-3


@pytest.mark.parametrize("A, y, distance", list(_projection_cases()),
                         ids=["wide", "rank-deficient", "tall"])
def test_ball_projection_properties(A, y, distance):
    N = A.shape[1]
    rng = np.random.default_rng(22)
    # radius 0: the pseudo-inverse solve, exact on the range of A
    exact = solver._DataBall(A, y, 0.0)
    assert exact.distance == pytest.approx(distance, rel=1e-9, abs=1e-12)
    for _ in range(5):
        q = 3.0 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        x = exact.project(q)
        assert abs(np.linalg.norm(A @ x - y) - distance) <= 1e-10 * np.linalg.norm(y)
    radius = 0.1 * np.linalg.norm(y)
    ball = solver._DataBall(A, y, radius)
    null = np.eye(N) - np.linalg.pinv(A) @ A
    for _ in range(5):
        q = 3.0 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        assert np.linalg.norm(A @ q - y) > radius
        x = ball.project(q)
        assert np.linalg.norm(A @ x - y) == pytest.approx(radius, rel=1e-10)
        # the step q - x lies in range(A*): nothing of it in the null space
        assert np.linalg.norm(null @ (q - x)) <= 1e-10 * np.linalg.norm(q - x)
        np.testing.assert_allclose(ball.project(x), x, rtol=0, atol=1e-10 * np.linalg.norm(x))
    # a point inside the ball is its own projection
    inside = np.linalg.pinv(A) @ y
    assert np.linalg.norm(A @ inside - y) < radius
    np.testing.assert_array_equal(ball.project(inside), inside)


def test_ball_projection_matches_bisection_on_mu():
    # the eigenvalues of A A* span 1e10; the reference solves the same
    # secular equation on the same eigensystem by bisection on mu
    rng = np.random.default_rng(23)
    m, N = 12, 24
    U, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    W, _ = np.linalg.qr(rng.standard_normal((N, m)) + 1j * rng.standard_normal((N, m)))
    A = U @ np.diag(np.logspace(0, -5, m)) @ W.conj().T
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    for fraction in (0.9, 0.3, 0.01):
        q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        ball = solver._DataBall(A, y, 1.0)
        assert ball.lam.max() / ball.lam.min() == pytest.approx(1e10, rel=1e-3)
        c = ball.W @ q - ball.Vty
        radius = fraction * np.linalg.norm(c)
        ball = solver._DataBall(A, y, radius)

        def misfit(mu):
            return np.linalg.norm(c / (1.0 + mu * ball.lam))

        lo, hi = 0.0, 1.0
        while misfit(hi) > radius:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if misfit(mid) > radius else (lo, mid)
        mu = 0.5 * (lo + hi)
        x_ref = q - ball.W.conj().T @ (c * (mu / (1.0 + mu * ball.lam)))
        x = ball.project(q)
        assert ball.mu == pytest.approx(mu, rel=1e-9)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-9 * np.linalg.norm(x_ref))


def _reference_bpdn(A, y, radius, cfg, polish=True, objective_limit=-math.inf):
    """The loop of `bpdn_ball` with every residual and tolerance evaluated at
    every iteration, and on every 10th the objective-limit check and then the
    polish unless `polish` is False; returns x, iterations, status and the
    last residuals."""
    N = A.shape[1]
    project = solver._DataBall(A, y, radius).project
    tol = cfg.tolerance
    slack = radius + tol * (1.0 + _norm(y))
    rho, alpha = solver._PENALTY, solver._OVER_RELAXATION
    abs_tol = math.sqrt(N) * tol
    z, u = np.zeros(N, dtype=complex), np.zeros(N, dtype=complex)
    for it in range(1, cfg.max_iterations + 1):
        q = z - u
        x = project(q)
        x_hat = alpha * x + (1.0 - alpha) * z
        z_old = z
        z = _shrink(x_hat + u, 1.0 / rho)
        u = u + x_hat - z
        r_norm = _norm(x - z)
        s_norm = rho * _norm(z - z_old)
        eps_pri = abs_tol + tol * max(_norm(x), _norm(z))
        eps_dua = abs_tol + tol * rho * _norm(u)
        if r_norm < eps_pri and s_norm < eps_dua:
            return z, it, CONVERGED, r_norm, s_norm
        if it % 10 == 0:
            if np.sum(np.abs(x)) < objective_limit:
                return z, it, CUTOFF, r_norm, s_norm
            polished = polish and solver._polish(A, y, z, rho * (x - q), radius, slack, tol)
            if polished:
                return polished[0], it, CONVERGED, polished[1], 0.0
            if r_norm > 10.0 * s_norm:
                rho, u = 2.0 * rho, u / 2.0
            elif s_norm > 10.0 * r_norm:
                rho, u = rho / 2.0, u * 2.0
    return z, cfg.max_iterations, MAX_ITER, r_norm, s_norm


def test_lazy_dual_test_matches_reference_loop():
    rng = np.random.default_rng(12)
    for trial in range(10):
        A, _, y = _planted(rng, 20, 50, 3)
        radius = 0.0
        if trial % 2:
            radius = 0.05 * np.linalg.norm(y)
            e = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            y = y + 0.8 * radius * e / np.linalg.norm(e)
        res = bpdn_ball(A, y, radius)
        x, iterations, status, _, _ = _reference_bpdn(A, y, radius, SolverConfig())
        assert res.status == status == CONVERGED
        assert res.iterations == iterations
        np.testing.assert_array_equal(res.x, x)
        # these draws all end on a polish, which reports no dual residual
        assert res.dual_residual == 0.0


def test_cutoff_matches_reference_loop():
    # 6 of 40 entries from 10 measurements: recovery fails, and the solve
    # stops once a projected x is below the limit that proves it
    A, g, y = _planted(np.random.default_rng(2), 10, 40, 6)
    limit = np.sum(np.abs(g)) - math.sqrt(40) * 1e-3 * np.linalg.norm(g)
    res = bpdn_ball(A, y, 0.0, objective_limit=limit)
    x, iterations, status, r_norm, s_norm = _reference_bpdn(A, y, 0.0, SolverConfig(),
                                                            objective_limit=limit)
    assert res.status == status == CUTOFF
    assert res.iterations == iterations == 20
    assert (res.primal_residual, res.dual_residual) == (r_norm, s_norm)
    np.testing.assert_array_equal(res.x, x)
    # solved to the end, the minimum is below the limit too
    assert bpdn_ball(A, y, 0.0).objective < limit


def _noisy(rng, m, n, s):
    """A planted problem with y off the noiseless data by 0.8 of a radius of
    0.05 ||A x||; returns A, the planted x, y and the radius."""
    A, x, y = _planted(rng, m, n, s)
    radius = 0.05 * np.linalg.norm(y)
    e = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return A, x, y + 0.8 * radius * e / np.linalg.norm(e), radius


def _spy_polish(monkeypatch):
    """Record the support size of z at every polish attempt."""
    sizes, polish = [], solver._polish

    def spy(A, y, z, *args):
        sizes.append(np.count_nonzero(z))
        return polish(A, y, z, *args)

    monkeypatch.setattr(solver, "_polish", spy)
    return sizes


def test_max_iter_reports_final_dual_residual(monkeypatch):
    # 10 of 50 entries from 20 measurements: z keeps more than 20 nonzeros at
    # iterations 10, 20 and 30, so no polish can end the loop before 37
    A, _, y, radius = _noisy(np.random.default_rng(13), 20, 50, 10)
    sizes = _spy_polish(monkeypatch)
    cfg = SolverConfig(max_iterations=37)
    res = bpdn_ball(A, y, radius, cfg)
    assert len(sizes) == 3 and min(sizes) > 20
    x, iterations, status, r_norm, s_norm = _reference_bpdn(A, y, radius, cfg)
    assert res.status == status == MAX_ITER
    assert res.iterations == iterations == 37
    np.testing.assert_array_equal(res.x, x)
    assert res.primal_residual == r_norm
    assert res.dual_residual == s_norm


@settings(deadline=None)
@given(m=st.integers(4, 24), extra=st.integers(1, 30), sparsity=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_polished_solve_is_certified(m, extra, sparsity, seed):
    rng = np.random.default_rng(seed)
    A, x0, y = _planted(rng, m, m + extra, max(1, int(sparsity * m)))
    cfg = SolverConfig()
    res = bpdn_ball(A, y, 0.0, cfg)
    assume(res.iterations > 0 and res.dual_residual == 0.0)    # ended on a polish
    assert res.status == CONVERGED and res.iterations % 10 == 0
    support = res.x != 0
    assert 0 < support.sum() <= m
    misfit = np.linalg.norm(A @ res.x - y)
    assert misfit <= cfg.tolerance * (1.0 + np.linalg.norm(y))
    assert res.primal_residual == pytest.approx(misfit, rel=1e-6, abs=1e-15)
    # the planted vector is feasible, so it bounds the minimum
    assert res.objective <= np.sum(np.abs(x0)) * (1 + 1e-12)
    # support_tol 0 certifies x on exactly its nonzeros
    rep = check_optimality(A, y, res.x, support_tol=0.0)
    assert rep.dual_violation <= 1e-9


@settings(deadline=None)
@given(m=st.integers(4, 24), extra=st.integers(1, 30), sparsity=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32 - 1))
def test_polished_ball_solve_is_certified(m, extra, sparsity, seed):
    rng = np.random.default_rng(seed)
    A, x0, y, radius = _noisy(rng, m, m + extra, max(1, int(sparsity * m)))
    cfg = SolverConfig()
    res = bpdn_ball(A, y, radius, cfg)
    assume(res.iterations > 0 and res.dual_residual == 0.0)    # ended on a polish
    assert res.status == CONVERGED and res.iterations % 10 == 0
    assert 0 < np.count_nonzero(res.x) <= m
    misfit = np.linalg.norm(A @ res.x - y)
    assert misfit <= radius + cfg.tolerance * (1.0 + np.linalg.norm(y))
    # the planted vector is feasible, so it bounds the minimum
    assert res.objective <= np.sum(np.abs(x0)) * (1 + cfg.tolerance)


def _assert_plain_loop(monkeypatch, A, y, radius):
    """z keeps more than m nonzeros at every polish attempt, so the solve is
    the loop without the polish, bit for bit."""
    sizes = _spy_polish(monkeypatch)
    res = bpdn_ball(A, y, radius)
    assert sizes and min(sizes) > A.shape[0]
    x, iterations, status, r_norm, s_norm = _reference_bpdn(A, y, radius, SolverConfig(),
                                                            polish=False)
    assert res.status == status == CONVERGED
    assert (res.iterations, res.primal_residual, res.dual_residual) == (iterations, r_norm,
                                                                      s_norm)
    np.testing.assert_array_equal(res.x, x)


def test_support_beyond_m_never_polishes(monkeypatch):
    # 10 of 50 entries from 20 measurements: z keeps more than 20 nonzeros
    A, _, y = _planted(np.random.default_rng(100), 20, 50, 10)
    _assert_plain_loop(monkeypatch, A, y, 0.0)


def test_positive_radius_support_beyond_m_never_polishes(monkeypatch):
    A, _, y, radius = _noisy(np.random.default_rng(101), 20, 50, 10)
    _assert_plain_loop(monkeypatch, A, y, radius)


def test_check_optimality_ball_gap():
    # the planted vector is feasible but not optimal; the solve's is certified
    A, x0, y, radius = _noisy(np.random.default_rng(101), 20, 50, 3)
    assert check_optimality(A, y, x0, radius).dual_violation > 1.0
    res = bpdn_ball(A, y, radius)
    assert res.dual_residual == 0.0    # ended on a polish
    assert check_optimality(A, y, res.x, radius).dual_violation <= SolverConfig().tolerance


def test_bpdn_infeasible_ball():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    y = np.array([0.0, 1.0], dtype=complex)
    res = bpdn_ball(A, y, 0.1)
    assert res.status == INFEASIBLE


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    A, x, y = _planted(rng, 15, 30, 3)
    r1 = bpdn_ball(A, y, 0.0, TIGHT)
    r2 = bpdn_ball(7.0 * A, 7.0 * y, 0.0, TIGHT)
    assert np.linalg.norm(r1.x - r2.x) / np.linalg.norm(r1.x) < 1e-6


def test_objective_no_worse_than_planted():
    rng = np.random.default_rng(6)
    for _ in range(5):
        A, x, y = _planted(rng, 18, 40, 4)
        res = bpdn_ball(A, y, 0.0, TIGHT)
        assert res.objective <= np.sum(np.abs(x)) + 1e-7


def test_check_optimality_planted_and_perturbed():
    rng = np.random.default_rng(7)
    A, x, y = _planted(rng, 24, 48, 3)
    res = bpdn_ball(A, y, 0.0, TIGHT)
    assert np.linalg.norm(res.x - x) / np.linalg.norm(x) < 1e-5
    assert check_optimality(A, y, x).dual_violation < 1e-5
    # feasible but non-optimal: planted plus a null-space direction
    v = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    v = v - np.linalg.pinv(A) @ (A @ v)
    xp = x + 0.3 * np.linalg.norm(x) * v / np.linalg.norm(v)
    assert check_optimality(A, y, xp).dual_violation > 1e-2


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for tolerance in (0.0, math.nan, 1.0, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=tolerance)
    for radius in (-1.0, math.nan):
        with pytest.raises(ValueError, match="radius"):
            bpdn_ball(np.eye(2), np.ones(2), radius)


def test_check_optimality_where_least_norm_fit_fails():
    # the instance of seed 5033 in the planted-recovery acceptance test: the
    # least-norm fit of the sign equalities overshoots 1 off the support, yet
    # the planted vector is the l1 minimizer and has a certificate
    N, m, s = 100, 40, 5
    rng = np.random.default_rng(5033)
    A = (rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))) / math.sqrt(2 * m)
    x = gen_sparse(N, s, COMPLEX_GAUSSIAN, rng)
    S = x != 0
    u0, *_ = np.linalg.lstsq(A[:, S].conj().T, x[S] / np.abs(x[S]), rcond=None)
    assert np.max(np.abs(A[:, ~S].conj().T @ u0)) > 1.0
    assert check_optimality(A, A @ x, x).dual_violation < 1e-8


def test_check_optimality_searches_only_until_certified(monkeypatch):
    calls = []

    def counting(t, radius):
        calls.append(radius)
        return _project_l1_ball(t, radius)

    monkeypatch.setattr(solver_reference, "_project_l1_ball", counting)
    N, m, s = 100, 40, 5
    for seed, certifies in ((5000, True), (5033, False)):
        rng = np.random.default_rng(seed)
        A = (rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))) / math.sqrt(2 * m)
        x = gen_sparse(N, s, COMPLEX_GAUSSIAN, rng)
        calls.clear()
        assert check_optimality(A, A @ x, x).dual_violation < 1e-8
        if certifies:
            assert not calls   # the least-norm fit is already a certificate
        else:
            assert 0 < len(calls) < solver_reference._CERTIFICATE_ITERATIONS


COMPLEX_VECTORS = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=12
).map(lambda parts: np.array([complex(re, im) for re, im in parts]))


@given(t=COMPLEX_VECTORS, radius=st.floats(1e-3, 10), seed=st.integers(0, 2**32 - 1))
def test_project_l1_ball_properties(t, radius, seed):
    p = _project_l1_ball(t, radius)
    # the threshold is a difference of moduli of t, so rounding errors scale
    # with the size of t rather than with the radius
    t_l1 = float(np.sum(np.abs(t)))
    l1_tol = 1e-12 * (1.0 + t_l1)
    tol = 1e-12 * max(1.0, float(np.vdot(t, t).real))
    l1 = float(np.sum(np.abs(p)))
    assert l1 <= radius + l1_tol
    if t_l1 > radius:
        assert l1 == pytest.approx(radius, abs=l1_tol)
    np.testing.assert_allclose(_project_l1_ball(p, radius), p, rtol=0, atol=l1_tol)
    # Moreau: v = t - p is the prox of radius * ||.||_inf at t exactly when
    # p lies in radius * (subdifferential of ||.||_inf at v), that is
    # ||p||_1 <= radius and Re<p, v> = radius * ||v||_inf
    v = t - p
    assert np.vdot(p, v).real == pytest.approx(radius * np.max(np.abs(v)), abs=tol)
    # variational inequality of the projection against points of the ball
    rng = np.random.default_rng(seed)
    for _ in range(10):
        g = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
        q = rng.uniform(0, radius) * g / np.sum(np.abs(g))
        assert np.vdot(q - p, t - p).real <= tol
