import numpy as np
import pytest

from so3sparse.solver import (
    CONVERGED,
    INFEASIBLE,
    SolverConfig,
    basis_pursuit,
    bpdn_ball,
    check_optimality,
    soft_threshold,
)

TIGHT = SolverConfig(primal_tolerance=1e-10, dual_tolerance=1e-10)


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
    assert soft_threshold(3 + 4j, 5.0) == 0
    assert soft_threshold(3 + 4j, 0.0) == 3 + 4j
    out = soft_threshold(3 + 4j, 2.5)
    assert out == pytest.approx(1.5 + 2j)
    assert abs(out) == pytest.approx(abs(3 + 4j) - 2.5)
    assert soft_threshold(0j, 1.0) == 0


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(1 + 0j, -0.1)


def test_soft_threshold_is_proximal_map():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        tau = rng.uniform(0, 2)
        w0 = soft_threshold(z, tau)
        obj0 = tau * abs(w0) + 0.5 * abs(w0 - z) ** 2
        # fine grid of competitors around the returned point
        for dr in np.linspace(-0.2, 0.2, 9):
            for di in np.linspace(-0.2, 0.2, 9):
                w = w0 + complex(dr, di)
                assert tau * abs(w) + 0.5 * abs(w - z) ** 2 >= obj0 - 1e-12


def test_basis_pursuit_identity():
    y = np.array([1 + 1j, -2j, 0.5])
    res = basis_pursuit(np.eye(3), y, TIGHT)
    assert res.status == CONVERGED
    np.testing.assert_allclose(res.x, y, atol=1e-8)


def test_basis_pursuit_square_invertible():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    res = basis_pursuit(A, y, TIGHT)
    np.testing.assert_allclose(res.x, np.linalg.solve(A, y), atol=1e-8)


def test_basis_pursuit_2x3_optimal_face():
    # l1 optimum is the whole segment between (1,1,0) and (0,0,2): value 2
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
    y = np.array([1.0, 1.0], dtype=complex)
    res = basis_pursuit(A, y, TIGHT)
    assert res.status == CONVERGED
    assert res.objective == pytest.approx(2.0, abs=1e-7)
    np.testing.assert_allclose(A @ res.x, y, atol=1e-8)
    rep = check_optimality(A, y, res.x)
    assert rep.dual_violation < 1e-6


def test_basis_pursuit_infeasible():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # rank 1
    y = np.array([1.0, 0.0], dtype=complex)            # outside the range
    res = basis_pursuit(A, y)
    assert res.status == INFEASIBLE


def test_bpdn_large_radius_gives_zero():
    rng = np.random.default_rng(2)
    A, _, y = _planted(rng, 10, 30, 3)
    res = bpdn_ball(A, y, radius=np.linalg.norm(y) * 1.01)
    np.testing.assert_array_equal(res.x, 0)
    assert res.status == CONVERGED


def test_bpdn_zero_radius_matches_basis_pursuit():
    rng = np.random.default_rng(3)
    for trial in range(20):
        A, x, y = _planted(rng, 12, 24, 3)
        r_bp = basis_pursuit(A, y, TIGHT)
        r_ball = bpdn_ball(A, y, 0.0, TIGHT)
        denom = np.linalg.norm(r_bp.x)
        assert np.linalg.norm(r_ball.x - r_bp.x) / denom < 1e-6


def test_bpdn_planted_one_sparse():
    rng = np.random.default_rng(4)
    A, x, y = _planted(rng, 20, 50, 1)
    res = bpdn_ball(A, y, 0.0, TIGHT)
    assert np.linalg.norm(res.x - x) / np.linalg.norm(x) < 1e-5


def test_bpdn_active_ball_with_bounded_noise():
    # 0 < radius < ||y||: the ball projection of w is active at the optimum
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


def test_bpdn_infeasible_ball():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    y = np.array([0.0, 1.0], dtype=complex)
    res = bpdn_ball(A, y, 0.1)
    assert res.status == INFEASIBLE


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    A, x, y = _planted(rng, 15, 30, 3)
    r1 = basis_pursuit(A, y, TIGHT)
    r2 = basis_pursuit(7.0 * A, 7.0 * y, TIGHT)
    assert np.linalg.norm(r1.x - r2.x) / np.linalg.norm(r1.x) < 1e-6


def test_objective_no_worse_than_planted():
    rng = np.random.default_rng(6)
    for _ in range(5):
        A, x, y = _planted(rng, 18, 40, 4)
        res = basis_pursuit(A, y, TIGHT)
        assert res.objective <= np.sum(np.abs(x)) + 1e-7


def test_check_optimality_planted_and_perturbed():
    rng = np.random.default_rng(7)
    A, x, y = _planted(rng, 24, 48, 3)
    res = basis_pursuit(A, y, TIGHT)
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
    with pytest.raises(ValueError):
        SolverConfig(primal_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(over_relaxation=2.5)
    with pytest.raises(ValueError):
        bpdn_ball(np.eye(2), np.ones(2), -1.0)
