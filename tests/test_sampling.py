import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta
from scipy.stats import chisquare, kstest

from sampling_reference import phi_everywhere, tan13_quantile, theta_cdf
from so3sparse import sampling
from so3sparse.sampling import (
    Samples,
    preconditioner_weight,
    sample_points,
    theta_density,
    theta_quantile,
)

# the values rng.uniform(0, 1) can return, k * 2^-53, with 1 added
UNIT = st.integers(0, 2**53).map(lambda k: k * 2.0**-53)


def test_product_determinism():
    a = sample_points(sampling.PRODUCT, np.random.default_rng(11), 3)
    b = sample_points(sampling.PRODUCT, np.random.default_rng(11), 3)
    for name in ("theta", "phi", "chi"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.measure == b.measure == sampling.PRODUCT


def test_product_theta_statistics():
    theta = sample_points(sampling.PRODUCT, np.random.default_rng(0), 100_000).theta
    assert abs(theta.mean() - math.pi / 2) < 0.02
    stat, _ = kstest(theta, lambda t: t / math.pi)
    assert stat < 0.01


def test_product_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_points(sampling.PRODUCT, np.random.default_rng(0), 0)


@pytest.mark.parametrize("measure", sampling.MEASURES)
def test_sample_stream_is_pinned(measure):
    # theta, phi and chi take m uniforms each, in that order, so that every
    # later draw of a trial (support, nonzeros, noise) is unchanged
    m = 7
    rng = np.random.default_rng(123)
    pts = sample_points(measure, rng, m)
    ref = np.random.default_rng(123)
    u = ref.uniform(0.0, 1.0, m)
    np.testing.assert_array_equal(pts.phi, ref.uniform(0.0, 2 * math.pi, m))
    np.testing.assert_array_equal(pts.chi, ref.uniform(0.0, 2 * math.pi, m))
    np.testing.assert_array_equal(pts.theta, theta_quantile(measure, u))
    assert rng.bit_generator.state == ref.bit_generator.state
    if measure == sampling.PRODUCT:
        np.testing.assert_array_equal(pts.theta, math.pi * u)
        theta_uniform = np.random.default_rng(123).uniform(0.0, math.pi, m)
        np.testing.assert_array_equal(pts.theta, theta_uniform)


def test_samples_rejects_malformed():
    with pytest.raises(ValueError):
        Samples([0.1], [0.2], [0.3], "uniform")
    with pytest.raises(ValueError):
        Samples([0.1, 0.2], [0.2], [0.3], sampling.PRODUCT)
    with pytest.raises(ValueError):
        Samples([], [], [], sampling.PRODUCT)
    assert len(Samples([0.1, 0.2], [0.2, 0.3], [0.3, 0.4], sampling.TAN13)) == 2


def test_tan_determinism():
    a = sample_points(sampling.TAN13, np.random.default_rng(5), 3)
    b = sample_points(sampling.TAN13, np.random.default_rng(5), 3)
    for name in ("theta", "phi", "chi"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.measure == b.measure == sampling.TAN13


def test_tan_theta_statistics():
    theta = sample_points(sampling.TAN13, np.random.default_rng(1), 100_000).theta
    assert abs(np.mean(theta < math.pi / 2) - 0.5) < 0.01
    # density mass near pi/2 exceeds mass near pi/4 (quadrature oracle)
    w = 0.1
    mass_mid, _ = quad(lambda t: abs(math.tan(t)) ** (1 / 3), math.pi / 2 - w,
                       math.pi / 2 + w, points=[math.pi / 2])
    mass_quarter, _ = quad(lambda t: abs(math.tan(t)) ** (1 / 3),
                           math.pi / 4 - w, math.pi / 4 + w)
    assert mass_mid > mass_quarter
    frac_mid = np.mean(np.abs(theta - math.pi / 2) < w)
    frac_quarter = np.mean(np.abs(theta - math.pi / 4) < w)
    assert frac_mid > frac_quarter


def test_preconditioner_values():
    assert preconditioner_weight(sampling.PRODUCT, math.pi / 2) == pytest.approx(1.0)
    # cos(float64 pi/2) is ~6e-17, not 0, and the 1/6 power lifts that to
    # ~2e-3; compare against the formula at the representable point instead
    assert preconditioner_weight(sampling.TAN13, math.pi / 2) == pytest.approx(
        abs(math.cos(math.pi / 2)) ** (1.0 / 6.0), rel=1e-12
    )
    assert preconditioner_weight(sampling.PRODUCT, math.pi / 6) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_preconditioning_identity():
    # weight^2 * theta-density proportional to sin(theta), rel dev < 1e-12
    theta = np.linspace(1e-6, math.pi - 1e-6, 1001)
    theta = theta[np.abs(theta - math.pi / 2) > 1e-6]
    for measure in (sampling.PRODUCT, sampling.TAN13):
        lhs = preconditioner_weight(measure, theta) ** 2 * theta_density(measure, theta)
        ratio = lhs / np.sin(theta)
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12


def test_cdf_table_endpoints():
    def F(t):
        return float(theta_cdf(sampling.TAN13, t))

    assert F(0.0) == pytest.approx(0.0, abs=1e-12)
    assert F(math.pi) == pytest.approx(1.0, abs=1e-12)
    assert F(math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    # frozen 1e-12-tolerance quadrature oracle
    assert F(math.pi / 4) == pytest.approx(0.15446198264429567, abs=1e-12)


def test_cdf_round_trip():
    u = np.random.default_rng(2).uniform(0.005, 0.995, 1000)
    back = theta_cdf(sampling.TAN13, theta_quantile(sampling.TAN13, u))
    np.testing.assert_allclose(back, u, rtol=0, atol=1e-12)


@pytest.mark.parametrize("measure", sampling.MEASURES)
@given(u1=UNIT, u2=UNIT)
def test_quantile_properties(measure, u1, u2):
    lo, hi = sorted((u1, u2))
    q_lo, q_hi = theta_quantile(measure, lo), theta_quantile(measure, hi)
    assert 0.0 <= q_lo <= math.pi and 0.0 <= q_hi <= math.pi
    # the quantile is accurate to about 2 ulp(pi/2) but not monotone at that level
    assert q_lo <= q_hi + 4 * np.spacing(math.pi)
    back = theta_cdf(measure, q_lo)
    if abs(lo - 0.5) > 1e-8:
        assert abs(back - lo) <= 1e-12
    # within ~1e-8 of u = 1/2 the tan13 CDF rises by more than 1e-12 from one
    # float theta to the next (its slope is infinite at pi/2), so there the
    # round trip asks that u lie between the CDF at the neighbouring floats
    below = theta_cdf(measure, np.nextafter(q_lo, 0.0))
    above = theta_cdf(measure, np.nextafter(q_lo, math.pi))
    assert below - 1e-12 <= lo <= above + 1e-12
    assert theta_quantile(measure, 0.5) == math.pi / 2


def test_tan13_quantile_matches_betaincinv(monkeypatch):
    # the closed-form Newton quantile and the test-side incomplete-beta
    # inverse are two routes to one function; each is within about 2 ulp
    # of a 40-digit oracle, so they may differ by a few ulp(pi/2)
    ulp = np.spacing(math.pi / 2)
    k = np.arange(4096) * 2.0**-53
    grids = (np.random.default_rng(3).uniform(0.0, 1.0, 200_000), k, 0.5 - k, 0.5 + k, 1.0 - k)
    thetas = [theta_quantile(sampling.TAN13, u) for u in grids]
    for u, theta in zip(grids, thetas):
        assert np.abs(theta - tan13_quantile(u)).max() <= 8 * ulp
    # Phi sums its series only where s < 1/4, and theta keeps every bit
    monkeypatch.setattr(sampling, "_phi", phi_everywhere)
    for u, theta in zip(grids, thetas):
        np.testing.assert_array_equal(theta_quantile(sampling.TAN13, u), theta)


def test_tan13_quantile_symmetry_and_endpoints():
    q = functools.partial(theta_quantile, sampling.TAN13)
    assert q(0.0) == 0.0 and q(0.5) == math.pi / 2 and q(1.0) == math.pi
    # every k 2^-53 <= 1/2, as a generator draws them, has an exact 1 - u
    k = np.concatenate([np.arange(4096), 2**52 - np.arange(4096),
                        np.random.default_rng(4).integers(0, 2**52, 100_000)])
    u = k * 2.0**-53
    np.testing.assert_array_equal(q(1.0 - u), math.pi - q(u))


@pytest.mark.parametrize("measure", [sampling.PRODUCT, sampling.TAN13])
def test_chi_square_goodness_of_fit(measure):
    m, bins = 100_000, 64
    theta = sample_points(measure, np.random.default_rng(9), m).theta
    edges = theta_quantile(measure, np.linspace(0, 1, bins + 1))
    counts, _ = np.histogram(theta, bins=edges)
    _, pvalue = chisquare(counts, np.full(bins, m / bins))
    assert pvalue > 1e-3


def test_measure_mass_values():
    assert sampling.measure_mass(sampling.PRODUCT) == pytest.approx(
        math.pi * 4 * math.pi**2
    )
    assert sampling.measure_mass(sampling.TAN13) == pytest.approx(
        3.627598728468277 * 4 * math.pi**2, rel=1e-12
    )
    assert sampling.TAN13_THETA_MASS == pytest.approx(beta(2 / 3, 1 / 3), rel=1e-15)
