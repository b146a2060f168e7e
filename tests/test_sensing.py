import json
import math
import tracemalloc

import numpy as np
import pytest

from so3sparse import sampling
from so3sparse.sampling import Samples, preconditioner_weight
from so3sparse.sensing import (
    SensingProblem,
    _gram_deviation,
    _gram_factors,
    _gram_quadrature,
    add_noise,
    build_matrix,
    gram_deviation,
    load_problem,
    precondition,
    save_problem,
)
from so3sparse.wigner import _SLICE, basis_count, evaluate_basis
from wigner_reference import column, indices, wigner_D


def _points(rng, m, measure=sampling.PRODUCT):
    return sampling.sample_points(measure, rng, m)


def test_build_matrix_constant_basis():
    pt = Samples([0.4], [1.0], [2.0], sampling.PRODUCT)
    A = build_matrix(pt, 1)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(1 / math.sqrt(8 * math.pi**2))


def test_build_matrix_shape_B5():
    A = build_matrix(_points(np.random.default_rng(0), 7), 5)
    assert A.shape == (7, 165)


def test_build_matrix_identical_points():
    pts = Samples([1.1, 1.1], [0.2, 0.2], [0.3, 0.3], sampling.PRODUCT)
    A = build_matrix(pts, 3)
    np.testing.assert_array_equal(A[0], A[1])


def test_build_matrix_rejects_empty():
    with pytest.raises(ValueError):
        build_matrix(Samples([], [], [], sampling.PRODUCT), 2)


def test_forward_unit_vector():
    pts = _points(np.random.default_rng(1), 5)
    g = np.eye(basis_count(2))[0]
    np.testing.assert_allclose(
        build_matrix(pts, 2) @ g, np.full(5, 1 / math.sqrt(8 * math.pi**2)), atol=1e-14
    )


def test_forward_zero():
    pts = _points(np.random.default_rng(2), 4)
    g = np.zeros(basis_count(3))
    np.testing.assert_array_equal(build_matrix(pts, 3) @ g, np.zeros(4))


def test_forward_matches_term_by_term_sum():
    rng = np.random.default_rng(3)
    pts = _points(rng, 4)
    B = 3
    g = np.zeros(basis_count(B), dtype=complex)
    idxs = rng.choice(basis_count(B), 3, replace=False)
    g[idxs] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = build_matrix(pts, B) @ g
    # brute-force triple-loop summation over (l, k, n)
    expected = np.zeros(4, dtype=complex)
    for l, k, n in indices(B):
        c = g[column(l, k, n)]
        if c == 0:
            continue
        for i, (t, p, ch) in enumerate(zip(pts.theta, pts.phi, pts.chi)):
            expected[i] += c * wigner_D(l, k, n, t, p, ch)
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_forward_linearity():
    rng = np.random.default_rng(4)
    pts = _points(rng, 6)
    B = 3
    g1 = rng.standard_normal(basis_count(B)) + 1j * rng.standard_normal(basis_count(B))
    g2 = rng.standard_normal(basis_count(B)) + 1j * rng.standard_normal(basis_count(B))
    a, b = 1.7 - 0.3j, -0.6 + 2.1j
    A = build_matrix(pts, B)
    lhs = A @ (a * g1 + b * g2)
    rhs = a * (A @ g1) + b * (A @ g2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_add_noise_zero_epsilon():
    y = np.array([1 + 2j, 3.0 + 0j])
    np.testing.assert_array_equal(add_noise(y, 0.0, np.random.default_rng(0)), y)


def test_add_noise_disk_moments():
    m, eps = 10_000, 0.1
    eta = add_noise(np.zeros(m, dtype=complex), eps, np.random.default_rng(5))
    assert np.abs(eta).max() <= eps
    # mean modulus of the uniform disk is 2/3 of the radius
    assert np.abs(eta).mean() == pytest.approx(2 / 3 * eps, rel=0.02)


def test_add_noise_determinism():
    y = np.ones(8, dtype=complex)
    a = add_noise(y, 0.3, np.random.default_rng(6))
    b = add_noise(y, 0.3, np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)


def test_precondition_equator_points():
    pts = Samples([math.pi / 2] * 3, [0.1, 0.5, 2.0], [0.1] * 3, sampling.PRODUCT)
    prob = SensingProblem(build_matrix(pts, 2), np.ones(3, dtype=complex), 0.0, pts, 2)
    sysm = precondition(pts, prob.A, prob.y)
    np.testing.assert_allclose(preconditioner_weight(pts.measure, pts.theta), 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(sysm.A, sysm.scale * prob.A, atol=1e-12)
    assert sysm.radius == 0.0


def test_precondition_single_row_weight():
    pt = Samples([math.pi / 6], [0.3], [0.4], sampling.PRODUCT)
    prob = SensingProblem(build_matrix(pt, 2), np.ones(1, dtype=complex), 0.0, pt, 2)
    sysm = precondition(pt, prob.A, prob.y)
    np.testing.assert_allclose(
        sysm.A[0], sysm.scale * math.sqrt(0.5) * prob.A[0], atol=1e-12
    )


def test_column_near_isometry():
    # m = 50 N product-measure rows: preconditioned scaled columns near unit norm
    B = 2
    N = basis_count(B)
    for seed in range(5):
        pts = _points(np.random.default_rng(seed), 50 * N)
        sysm = precondition(pts, build_matrix(pts, B), np.zeros(50 * N))
        norms2 = np.linalg.norm(sysm.A, axis=0) ** 2
        assert np.all(np.abs(norms2 - 1.0) < 0.2)


def test_problem_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pts = _points(rng, 5)
    B = 2
    g = rng.standard_normal(basis_count(B))
    A = build_matrix(pts, B)
    prob = SensingProblem(A, A @ g, 0.01, pts, B)
    save_problem(tmp_path / "prob", prob)
    loaded = load_problem(tmp_path / "prob")
    assert loaded.B == B and loaded.epsilon == 0.01
    np.testing.assert_allclose(loaded.y, prob.y, atol=0)
    np.testing.assert_allclose(loaded.A, prob.A, atol=0)
    assert loaded.samples.measure == pts.measure
    np.testing.assert_array_equal(loaded.samples.theta, pts.theta)


def test_saved_problem_files_are_frozen_text(tmp_path):
    # the exact bytes of each file: a header line, 17 significant digits per
    # value (a signed zero as -0) and a final newline
    pts = Samples([0.1, math.pi / 2, 3.0], [0.0, 2 / 3, 6.25], [1e-17, 5.0, math.pi],
                  sampling.PRODUCT)
    y = np.array([1 / 3 - 2j, complex(-0.0, 0.1), 1e300 - 1e-300j])
    save_problem(tmp_path, SensingProblem(build_matrix(pts, 1), y, 0.0, pts, 1))
    assert (tmp_path / "points.csv").read_bytes() == (
        b"theta,phi,chi,measure\n"
        b"0.10000000000000001,0,1.0000000000000001e-17,product\n"
        b"1.5707963267948966,0.66666666666666663,5,product\n"
        b"3,6.25,3.1415926535897931,product\n")
    assert (tmp_path / "y.csv").read_bytes() == (
        b"re,im\n"
        b"0.33333333333333331,-2\n"
        b"-0,0.10000000000000001\n"
        b"1.0000000000000001e+300,-1e-300\n")
    assert (tmp_path / "meta.json").read_bytes() == (
        b'{\n  "B": 1,\n  "epsilon": 0.0,\n  "m": 3,\n  "measure": "product"\n}\n')
    loaded = load_problem(tmp_path)
    np.testing.assert_array_equal(loaded.y.view(float), y.view(float))
    assert np.signbit(loaded.y[1].real)
    np.testing.assert_array_equal(loaded.samples.chi, pts.chi)


def test_precondition_leaves_inputs_unchanged():
    rng = np.random.default_rng(8)
    pts = _points(rng, 6, sampling.TAN13)
    A = build_matrix(pts, 2)
    y = A @ rng.standard_normal(basis_count(2))
    before = [a.copy() for a in (A, y, pts.theta, pts.phi, pts.chi)]
    sysm = precondition(pts, A, y, 0.01)
    for a, b in zip((A, y, pts.theta, pts.phi, pts.chi), before):
        np.testing.assert_array_equal(a, b)
    assert not np.shares_memory(sysm.A, A) and not np.shares_memory(sysm.y, y)
    assert pts.measure == sampling.TAN13
    P = preconditioner_weight(pts.measure, pts.theta)
    np.testing.assert_allclose(sysm.A, sysm.scale * P[:, None] * A, rtol=1e-14)
    assert sysm.radius == pytest.approx(sysm.scale * math.sqrt(6) * 0.01, rel=1e-15)


def test_load_problem_rejects_mixed_measures_and_ignores_scale(tmp_path):
    pts = _points(np.random.default_rng(9), 3)
    save_problem(tmp_path, SensingProblem(build_matrix(pts, 1), np.ones(3), 0.0, pts, 1))
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert "scale" not in meta
    # meta.json files written before scale was dropped still load
    (tmp_path / "meta.json").write_text(json.dumps({**meta, "scale": 2.5}))
    assert load_problem(tmp_path).samples.measure == sampling.PRODUCT
    text = (tmp_path / "points.csv").read_text()
    mixed = text.replace("product\n", "tan13\n", 1)
    unknown = text.replace("product", "uniform")
    for bad in (mixed, unknown):
        (tmp_path / "points.csv").write_text(bad)
        with pytest.raises(ValueError):
            load_problem(tmp_path)


def test_gram_deviation_rejects_zero_bandwidth():
    with pytest.raises(ValueError):
        gram_deviation(0)


@pytest.mark.parametrize("measure", [sampling.PRODUCT, sampling.TAN13])
def test_gram_theta_weights_are_legendre_weights(measure):
    # weight^2 * density = sin(theta) at every node, fl(pi/2) of even B included
    for B in range(1, 65):
        theta, w_theta, _, _ = _gram_quadrature(B, measure)
        wx = np.polynomial.legendre.leggauss(B + 1)[1]
        assert np.all(np.isfinite(w_theta))
        assert B % 2 or math.pi / 2 in theta
        np.testing.assert_allclose(w_theta, wx, rtol=1e-14, atol=0)


def _meshed_gram(B, theta, w_theta, angle, w_angle):
    # the tensor-grid sum itself: mesh the 1-D rules, one evaluate_basis call
    # on every node and one matmul
    tt, pp, cc = (v.ravel() for v in np.meshgrid(theta, angle, angle, indexing="ij"))
    weight = (w_theta[:, None, None] * w_angle[:, None] * w_angle).ravel()
    F = np.sqrt(weight)[:, None] * evaluate_basis(B, tt, pp, cc)
    return F.conj().T @ F


def _separable_gram(B, theta, w_theta, angle, w_angle):
    # the full G = (D^T w D) * K[c, c] of the factors the gram check streams;
    # G_ab and conj(G_ba) differ by roundoff, so their mean is exactly Hermitian
    D, wD, K, c = _gram_factors(B, theta, w_theta, angle, w_angle)
    G = (D.T @ wD) * K[np.ix_(c, c)]
    return 0.5 * (G + G.conj().T)


def gram_matrix(B, measure=None):
    """Quadrature Gram matrix of the bandwidth-B basis; identity if exact."""
    return _separable_gram(B, *_gram_quadrature(B, measure))


def _dense_gram(B, measure):
    return _meshed_gram(B, *_gram_quadrature(B, measure))


@pytest.mark.parametrize("measure", [None, sampling.PRODUCT, sampling.TAN13])
@pytest.mark.parametrize("B", [2, 3, 4, 5])
def test_gram_matrix_matches_dense_reference(B, measure):
    G = gram_matrix(B, measure)
    assert G.shape == (basis_count(B), basis_count(B))
    np.testing.assert_allclose(G, _dense_gram(B, measure), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(G, G.conj().T)


def _inexact_rule(B):
    # random theta nodes and weights, and Q < 2B-1 random angle nodes, so no
    # orthogonality holds and the entries between different orders (k, n)
    # are O(1)
    rng = np.random.default_rng(800 + B)
    theta = rng.uniform(0.05, np.pi - 0.05, B + 2)
    angle = rng.uniform(0.0, 2 * np.pi, 2 * B - 2)
    return theta, rng.uniform(0.5, 1.5, len(theta)), angle, rng.uniform(0.5, 1.5, len(angle))


def _deviations(G):
    # (max |G_ab| over a != b, max |G_aa - 1|), read off the full matrix
    return np.abs(G - np.diag(np.diag(G))).max(), np.abs(np.diag(G) - 1).max()


@pytest.mark.parametrize("B", [2, 3, 4])
def test_separable_gram_is_the_tensor_grid_sum(B):
    # on inexact rules the factored product must still be the meshed grid's sum
    rule = _inexact_rule(B)
    G = _separable_gram(B, *rule)
    ref = _meshed_gram(B, *rule)
    orders = [(k, n) for _, k, n in indices(B)]
    other_orders = np.array([[a != b for b in orders] for a in orders])
    assert np.abs(ref[other_orders]).max() > 0.1 * np.abs(ref).max()
    np.testing.assert_allclose(G, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(G, G.conj().T)


@pytest.mark.parametrize("B", [2, 3, 4, 5, 6])
def test_gram_deviation_streams_the_tensor_grid_sum(B):
    # the off-diagonal entries of inexact rules are O(1), so a wrong column
    # group or block offset shows; N = 165 and 286 at B = 5 and 6 span two
    # and three row blocks, the last one partial
    rule = _inexact_rule(B)
    if B >= 5:
        assert basis_count(B) > _SLICE // 4 and basis_count(B) % (_SLICE // 4)
    np.testing.assert_allclose(_gram_deviation(B, *rule), _deviations(_meshed_gram(B, *rule)),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("measure", [None, sampling.PRODUCT, sampling.TAN13])
def test_gram_deviation_matches_gram_matrix(measure):
    # one function has no off-diagonal entry
    assert gram_deviation(1, measure)[0] == 0.0
    # exact rules: every value is roundoff, read from the same sums
    for B in range(2, 6):
        for got, ref in zip(gram_deviation(B, measure), _deviations(gram_matrix(B, measure))):
            assert ref / 2 <= got <= 2 * ref


@pytest.mark.parametrize("measure", [None, sampling.PRODUCT, sampling.TAN13])
def test_gram_deviation_allocates_no_n_by_n_array(measure):
    # one N x N float64 array alone is N^2 8 bytes, 42 MB at B = 12 (N = 2300)
    N = basis_count(12)
    tracemalloc.start()
    try:
        off, diag = gram_deviation(12, measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N * 16 / 4
    assert off < 1e-8 and diag < 1e-8


def _saved_problem(path, m=30):
    pts = _points(np.random.default_rng(10), m)
    save_problem(path, SensingProblem(build_matrix(pts, 2), np.ones(m), 0.0, pts, 2))
    return (path / "y.csv").read_text().splitlines(keepends=True)


def test_load_problem_rejects_y_rows_differing_from_points(tmp_path):
    # one y row against 30 points used to be broadcast by precondition
    lines = _saved_problem(tmp_path)
    (tmp_path / "y.csv").write_text("".join(lines[:2]))
    with pytest.raises(ValueError, match="y.csv has 1 rows"):
        load_problem(tmp_path)


def test_load_problem_rejects_row_counts_differing_from_meta(tmp_path):
    _saved_problem(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    (tmp_path / "meta.json").write_text(json.dumps({**meta, "m": 29}))
    with pytest.raises(ValueError, match="m=29"):
        load_problem(tmp_path)

