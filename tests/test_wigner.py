import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import lpmv, sph_harm_y

from so3sparse.wigner import (
    WignerIndex,
    _order_lanes,
    _wigner_d_lanes,
    all_indices,
    basis_count,
    spherical_harmonic,
    wigner_D,
    wigner_d,
    evaluate_basis,
)
from wigner_reference import jacobi_eval, wigner_D as reference_D, wigner_d as reference_d


def test_basis_count_values():
    assert basis_count(1) == 1
    assert basis_count(5) == 165
    assert basis_count(8) == 8 * 15 * 17 // 3 == 680
    # direct summation oracle
    for B in range(1, 10):
        assert basis_count(B) == sum((2 * l + 1) ** 2 for l in range(B))


def test_basis_count_rejects_zero():
    with pytest.raises(ValueError):
        basis_count(0)


def test_index_bijection():
    for B in (1, 2, 3, 5):
        cols = [idx.column for idx in all_indices(B)]
        assert cols == list(range(basis_count(B)))


def test_index_validation():
    with pytest.raises(ValueError):
        WignerIndex(l=3, k=0, n=0, B=3)
    with pytest.raises(ValueError):
        WignerIndex(l=1, k=2, n=0, B=3)


def test_jacobi_low_degree():
    x = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(jacobi_eval(0, 4, 7, x), 1.0)
    np.testing.assert_allclose(jacobi_eval(1, 0, 0, x), x)
    # frozen hypergeometric-sum oracle for P_3^{(2,1)}(0.3)
    assert jacobi_eval(3, 2, 1, 0.3) == pytest.approx(-0.9515, abs=1e-12)


def test_jacobi_domain_errors():
    with pytest.raises(ValueError):
        jacobi_eval(2, 0, 0, 1.5)
    with pytest.raises(ValueError):
        jacobi_eval(-1, 0, 0, 0.0)


def test_wigner_d_closed_forms():
    # the result takes theta's shape; a scalar theta gives a numpy scalar
    for theta in (np.linspace(0, math.pi, 33), 0.7,
                  np.linspace(0, math.pi, 6).reshape(2, 3)):
        for k, n, expected in ((0, 0, np.cos(theta)),
                               (1, 1, (1 + np.cos(theta)) / 2),
                               (1, 0, -np.sin(theta) / math.sqrt(2))):
            d = wigner_d(1, k, n, theta)
            assert np.shape(d) == np.shape(theta)
            assert isinstance(d, np.ndarray) == (np.ndim(theta) > 0)
            np.testing.assert_allclose(d, expected, atol=1e-14)


def test_wigner_d_boundary_collapse():
    for l in range(4):
        for k in range(-l, l + 1):
            for n in range(-l, l + 1):
                expected = 1.0 if k == n else 0.0
                assert wigner_d(l, k, n, 0.0) == pytest.approx(expected, abs=1e-14)


def test_wigner_d_order_swap():
    theta = np.linspace(0, math.pi, 17)
    for l in range(5):
        for k in range(-l, l + 1):
            for n in range(-l, l + 1):
                np.testing.assert_allclose(
                    wigner_d(l, k, n, theta),
                    (-1.0) ** (k - n) * wigner_d(l, n, k, theta),
                    atol=1e-13,
                )


def test_wigner_d_associated_legendre():
    theta = np.linspace(0, math.pi, 101)
    x = np.cos(theta)
    for l in range(11):
        for k in range(l + 1):
            ratio = math.exp(
                0.5 * (math.lgamma(l - k + 1) - math.lgamma(l + k + 1))
            )
            np.testing.assert_allclose(
                wigner_d(l, k, 0, theta), ratio * lpmv(k, l, x), atol=1e-10
            )


def _generator_D(l, theta, phi, chi):
    """Oracle: exponentiate the spin-l angular momentum generators."""
    ms = np.arange(l, -l - 1, -1)
    dim = 2 * l + 1
    Jp = np.zeros((dim, dim))
    for i, m in enumerate(ms):
        if m + 1 <= l:
            Jp[i - 1, i] = math.sqrt(l * (l + 1) - m * (m + 1))
    Jy = (Jp - Jp.T) / 2j
    Jz = np.diag(ms).astype(complex)
    return expm(-1j * phi * Jz) @ expm(-1j * theta * Jy) @ expm(-1j * chi * Jz), ms


def test_wigner_D_values():
    assert wigner_D(0, 0, 0, 0.3, 1.0, 2.0) == pytest.approx(
        1 / math.sqrt(8 * math.pi**2), abs=1e-14
    )
    assert wigner_D(1, 0, 0, math.pi / 2, 0.7, 0.1) == pytest.approx(0, abs=1e-14)
    # frozen generator-exponential oracle
    assert wigner_D(2, 1, -1, 1.0, 0.5, 2.0) == pytest.approx(
        0.00851275036038316 + 0.12004186773720044j, abs=1e-12
    )


def test_wigner_D_against_generator_oracle():
    theta, phi, chi = 1.3, 2.1, 0.4
    for l in range(4):
        D, ms = _generator_D(l, theta, phi, chi)
        nl = math.sqrt((2 * l + 1) / (8 * math.pi**2))
        for i, k in enumerate(ms):
            for j, n in enumerate(ms):
                assert wigner_D(int(l), int(k), int(n), theta, phi, chi) == pytest.approx(
                    nl * D[i, j], abs=1e-12
                )


def test_spherical_harmonic_values():
    assert spherical_harmonic(0, 0, 0.4, 1.2) == pytest.approx(
        1 / math.sqrt(4 * math.pi), abs=1e-14
    )
    theta = 0.9
    assert spherical_harmonic(1, 0, theta, 0.3) == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(theta), abs=1e-14
    )
    # frozen explicit-P_3^2 oracle
    assert spherical_harmonic(3, 2, 0.7, 1.1) == pytest.approx(
        -0.1909102029164763 + 0.26227683853906436j, abs=1e-12
    )


def test_spherical_harmonic_against_scipy():
    theta, phi = 0.8, 2.3
    for l in range(6):
        for k in range(-l, l + 1):
            assert spherical_harmonic(l, k, theta, phi) == pytest.approx(
                complex(sph_harm_y(l, k, theta, phi)), abs=1e-12
            )


def test_spherical_harmonic_rejects_bad_order():
    with pytest.raises(ValueError):
        spherical_harmonic(2, 3, 0.1, 0.1)


def test_evaluate_basis_matches_pointwise():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, math.pi, 4)
    phi = rng.uniform(0, 2 * math.pi, 4)
    chi = rng.uniform(0, 2 * math.pi, 4)
    B = 3
    F = evaluate_basis(B, theta, phi, chi)
    for idx in all_indices(B):
        np.testing.assert_allclose(
            F[:, idx.column],
            reference_D(idx.l, idx.k, idx.n, theta, phi, chi),
            atol=1e-13,
        )


def test_theta_endpoint_finite():
    vals = wigner_d(7, 3, -2, np.array([0.0, math.pi]))
    assert np.all(np.isfinite(vals))


def test_evaluate_basis_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        evaluate_basis(2, [0.1, 0.2], [0.3], [0.4])
    with pytest.raises(ValueError):
        evaluate_basis(2, [0.1], [0.3], [0.4, 0.5])


def test_evaluate_basis_rejects_theta_outside_range():
    with pytest.raises(ValueError, match=r"theta outside \[0, pi\]"):
        evaluate_basis(2, [0.1, math.pi + 1e-9], [0.3, 0.3], [0.4, 0.4])


def test_nan_theta_is_outside_range():
    # NaN fails every comparison, so the range check must ask for membership
    with pytest.raises(ValueError, match=r"theta outside \[0, pi\]"):
        evaluate_basis(2, [0.1, math.nan], [0.3, 0.3], [0.4, 0.4])
    with pytest.raises(ValueError, match=r"theta outside \[0, pi\]"):
        wigner_d(1, 0, 0, [0.1, math.nan])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_or_chi_is_rejected(bad):
    with pytest.raises(ValueError, match="phi and chi must be finite"):
        evaluate_basis(2, [0.1, 0.2], [0.3, bad], [0.4, 0.4])
    with pytest.raises(ValueError, match="phi and chi must be finite"):
        evaluate_basis(2, [0.1, 0.2], [0.3, 0.3], [bad, 0.4])
    with pytest.raises(ValueError, match="phi and chi must be finite"):
        wigner_D(1, 1, 0, 0.5, bad, 0.0)
    with pytest.raises(ValueError, match="phi and chi must be finite"):
        wigner_D(1, 1, 0, 0.5, 0.0, bad)


def test_seed_norms_match_binomials():
    # each lane's value at its first degree l0 is its closed-form seed
    # omega sqrt(C(mu + lam, mu)) sin(theta/2)^mu cos(theta/2)^lam; the norm
    # comes from log-factorials up to log(160!) ~ 657, whose roundoff alone
    # is about 1e-13 relative at l0 = 80
    orders = np.arange(-80, 81)
    k, n, _ = _order_lanes(orders, orders)
    l0 = np.maximum(np.abs(k), np.abs(n))
    seeds = np.empty(len(k))
    for l, d in _wigner_d_lanes(k, n, np.array([1.0]), 80):
        first = l0[:len(d)] == l
        seeds[:len(d)][first] = d[first, 0]
    half_sin, half_cos = math.sin(0.5), math.cos(0.5)
    expected = []
    for ki, ni in zip(k.tolist(), n.tolist()):
        mu, lam = abs(ki - ni), abs(ki + ni)
        omega = -1.0 if ni < ki and (ni - ki) % 2 else 1.0
        expected.append(omega * math.sqrt(math.comb(mu + lam, mu))
                        * half_sin ** mu * half_cos ** lam)
    np.testing.assert_allclose(seeds, expected, rtol=1.5e-13, atol=0)


@given(l=st.integers(0, 60), data=st.data())
def test_recurrence_matches_jacobi(l, data):
    k = data.draw(st.integers(-l, l), label="k")
    n = data.draw(st.integers(-l, l), label="n")
    theta = np.array(data.draw(
        st.lists(st.floats(0.0, math.pi), min_size=1, max_size=5), label="theta"))
    # the pair and its order swap share l0; each lane runs on its own grid
    grids = np.stack([theta, math.pi - theta])
    *_, (top, d) = _wigner_d_lanes([k, n], [n, k], grids, l)
    assert top == l
    np.testing.assert_allclose(d[0], reference_d(l, k, n, theta), rtol=0, atol=1e-12)
    np.testing.assert_allclose(d[1], reference_d(l, n, k, grids[1]), rtol=0, atol=1e-12)


@given(l=st.integers(0, 60), data=st.data())
def test_mirror_lane_reflects_theta(l, data):
    # |d_l^{k,-n}(theta)| = |d_l^{k,n}(pi - theta)|: the sup scan runs only n >= 0
    k = data.draw(st.integers(-l, l), label="k")
    n = data.draw(st.integers(-l, l), label="n")
    theta = np.array(data.draw(
        st.lists(st.floats(0.0, math.pi), min_size=1, max_size=5), label="theta"))
    *_, (_, d) = _wigner_d_lanes([k, k], [n, -n], np.stack([math.pi - theta, theta]), l)
    np.testing.assert_allclose(np.abs(d[0]), np.abs(d[1]), rtol=0, atol=1e-12)


@given(l=st.integers(0, 40), data=st.data())
def test_weighted_square_is_trig_polynomial_of_degree_2l_plus_1(l, data):
    # the premise of the sup scan's Bernstein pruning: sin theta * d_l^{k,n}^2,
    # evaluated on the whole circle, has no frequency above 2l + 1
    k = data.draw(st.integers(-l, l), label="k")
    n = data.draw(st.integers(-l, l), label="n")
    theta = 2 * math.pi * np.arange(512) / 512
    *_, (_, d) = _wigner_d_lanes([k], [n], theta, l)
    coef = np.abs(np.fft.rfft(np.sin(theta) * d[0] ** 2))
    assert coef[2 * l + 2:].max() <= 1e-12 * coef.max()


@given(l=st.integers(0, 60), theta=st.floats(0.0, math.pi))
def test_d_matrix_is_orthogonal(l, theta):
    # sum_n d_l^{k,n} d_l^{k',n} = delta_{k,k'}, every lane on one shared grid
    orders = np.arange(-l, l + 1)
    k, n = (a.ravel() for a in np.meshgrid(orders, orders, indexing="ij"))
    lane = np.argsort(np.maximum(np.abs(k), np.abs(n)), kind="stable")
    *_, (_, d) = _wigner_d_lanes(k[lane], n[lane], [theta], l)
    table = np.empty(k.size)
    table[lane] = d[:, 0]
    table = table.reshape(2 * l + 1, 2 * l + 1)
    np.testing.assert_allclose(table @ table.T, np.eye(2 * l + 1), rtol=0, atol=1e-12)
