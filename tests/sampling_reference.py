"""Reference theta-CDF and quantile of the sampling measures, on scipy's
regularized incomplete beta function.

An independent second route to the tan13 marginal that the tests compare
`so3sparse.sampling.theta_quantile` against. The substitution
x = sin^2 theta turns |tan theta|^{1/3} d theta into a beta density: the
mass of [0, pi] is B(2/3, 1/3) = 2 pi / sqrt(3), and

    F(theta) = I_{sin^2 theta}(2/3, 1/3) / 2          (theta <= pi/2)
    F(theta) = 1 - I_{sin^2 theta}(2/3, 1/3) / 2      (theta >  pi/2)

with I the regularized incomplete beta function. theta_cdf evaluates it at
e = pi/2 - theta, through whichever of sin^2 e and cos^2 e is small, so it
keeps full precision both at the poles and at the equator. e is taken from
the float pi/2, which makes theta_cdf(pi/2) exactly 1/2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaincinv

from so3sparse.sampling import _PHI_SERIES, _SQRT3, PRODUCT, TAN13


def theta_cdf(measure, theta):
    """Normalized CDF of the theta-marginal on [0, pi]."""
    theta = np.asarray(theta, dtype=float)
    if measure == PRODUCT:
        return theta / math.pi
    if measure == TAN13:
        e = math.pi / 2 - theta
        sin2, cos2 = np.sin(e) ** 2, np.cos(e) ** 2
        # mass between theta and its nearer pole
        from_pole = np.where(sin2 > 0.5, 0.5 * betainc(2 / 3, 1 / 3, cos2),
                             0.5 - 0.5 * betainc(1 / 3, 2 / 3, sin2))
        return np.where(e >= 0, from_pole, 1.0 - from_pole)
    raise ValueError(f"unknown measure {measure!r}")


def tan13_quantile(u):
    """Inverse of theta_cdf for tan13 by betaincinv: fold at u = 1/2, where
    v is the mass between theta and its nearer pole, and take
    e = |pi/2 - theta| from both sin^2 e and cos^2 e."""
    u = np.asarray(u, dtype=float)
    v = np.minimum(u, 1.0 - u)
    e = np.arctan2(np.sqrt(betaincinv(1 / 3, 2 / 3, 1.0 - 2.0 * v)),
                   np.sqrt(betaincinv(2 / 3, 1 / 3, 2.0 * v)))
    return math.pi / 2 - np.sign(0.5 - u) * e


def phi_everywhere(s):
    """sampling._phi with its series summed at every point and kept where
    s < 1/4: the quantile must give the same theta, bit for bit, on it."""
    c = s ** 3
    series = np.full_like(s, _PHI_SERIES[-1])
    for a in _PHI_SERIES[-2::-1]:
        series = a - c * series
    closed = 0.5 * np.log1p(-3 * s / (1 + s) ** 2) + _SQRT3 * np.arctan2(_SQRT3 * s, 2 - s)
    return np.where(s < 0.25, 3 * s * s * series, closed)
