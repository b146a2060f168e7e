"""Random sampling on SO(3) under the two measures used for sensing.

Two theta-marginals are supported: "product" (d theta, i.e. theta uniform)
and "tan13" (|tan theta|^{1/3} d theta). phi and chi are always uniform on
[0, 2 pi). Each measure comes with the preconditioner weight that turns
the sampled system back into an orthonormal one: weight(theta)^2 times the
theta-density is proportional to sin(theta) for both.

Both theta-CDFs have closed forms, so theta is drawn by inverting them.
For tan13 on [0, pi/2] substitute s = tan^{2/3} theta, so that
sin^2 theta = s^3 / (1 + s^3) and the mass of [0, theta] is Phi(s) / 2 with

    Phi(s) = int_0^s 3 t / (1 + t^3) dt
           = log1p(-3 s / (1 + s)^2) / 2 + sqrt(3) atan2(sqrt(3) s, 2 - s).

With x = sin^2 theta, Phi(s) is the incomplete beta function B_x(2/3, 1/3),
so Phi(inf) = B(2/3, 1/3) = 2 pi / sqrt(3) = TAN13_THETA_MASS is the mass of
[0, pi], and the CDF is F(theta) = Phi(s) / (2 TAN13_THETA_MASS) for
theta <= pi/2 and 1 - F(pi - theta) beyond. In w = 1/s = cot^{2/3} theta
the complement is

    Phi(inf) - Phi(s) = Psi(w) = int_0^w 3 / (1 + t^3) dt
           = -log1p(-3 w / (1 + w)^2) / 2 + sqrt(3) atan2(sqrt(3) w, 2 - w),

whose two terms are both >= 0. Phi's two terms cancel at leading order
(each is -+3s/2 + O(s^2)), so for s < 1/4 it is summed as the series
3 s^2 sum_k (-s^3)^k / (3k + 2) instead.

theta_quantile folds at u = 1/2: v = min(u, 1 - u) is the mass between
theta and its nearer pole. Below F(pi/4) = 1/4 - sqrt(3) log(2) / (4 pi),
where s = 1, it solves Phi(s) = 2 v Phi(inf) by Newton steps in s^2; above
it, Psi(w) = (1 - 2 v) Phi(inf) by Newton steps in w. Either way s, w <= 1
and the derivatives stay in [3/4, 3], so a series start and four steps give
theta to about 2 ulp(pi/2). u > 1/2 maps to pi - theta, so
theta(1 - u) = pi - theta(u) for every u <= 1/2 whose 1 - u is exact (each
k 2^-53 that a generator draws), and the endpoints are exact: theta(0) = 0,
theta(1/2) = pi/2 and theta(1) = pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRODUCT = "product"
TAN13 = "tan13"
MEASURES = (PRODUCT, TAN13)

# total mass of |tan theta|^{1/3} d theta on [0, pi]: B(2/3, 1/3)
TAN13_THETA_MASS = 2 * math.pi / math.sqrt(3)
_SQRT3 = math.sqrt(3)
_F_QUARTER_PI = 0.25 - _SQRT3 * math.log(2) / (4 * math.pi)   # tan13 F(pi/4)
_PHI_SERIES = 1.0 / (3 * np.arange(9) + 2)   # 9 terms: (1/64)^9 < 1e-16 at s < 1/4
_NEWTON_STEPS = 4

__all__ = [
    "PRODUCT",
    "TAN13",
    "MEASURES",
    "Samples",
    "sample_points",
    "theta_quantile",
    "preconditioner_weight",
    "theta_density",
    "measure_mass",
]


@dataclass
class Samples:
    """m points on SO(3) as Euler-angle arrays, all drawn from one measure."""

    theta: np.ndarray
    phi: np.ndarray
    chi: np.ndarray
    measure: str

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        self.theta, self.phi, self.chi = (
            np.asarray(a, dtype=float) for a in (self.theta, self.phi, self.chi)
        )
        shape = self.theta.shape
        if len(shape) != 1 or not shape == self.phi.shape == self.chi.shape:
            raise ValueError("theta, phi and chi must be 1-D arrays of equal length")
        if len(self.theta) < 1:
            raise ValueError("need m >= 1 points")

    def __len__(self) -> int:
        return len(self.theta)


def sample_points(measure: str, rng: np.random.Generator, m: int) -> Samples:
    """m i.i.d. points: theta by inverse CDF, phi and chi uniform on [0, 2 pi).

    The generator draws m uniforms for theta, then m for phi, then m for
    chi; for product, theta = pi * u equals rng.uniform(0, pi, m) bit for bit.
    """
    u = rng.uniform(0.0, 1.0, m)
    phi = rng.uniform(0.0, 2 * math.pi, m)
    chi = rng.uniform(0.0, 2 * math.pi, m)
    return Samples(theta_quantile(measure, u), phi, chi, measure)


def _phi(s):
    """Phi(s) of the module docstring: twice the tan13 mass of [0, atan(s^{3/2})],
    by its series at s < 1/4 only."""
    out = 0.5 * np.log1p(-3 * s / (1 + s) ** 2) + _SQRT3 * np.arctan2(_SQRT3 * s, 2 - s)
    low = s < 0.25
    s = s[low]
    c = s ** 3
    series = np.full_like(s, _PHI_SERIES[-1])
    for a in _PHI_SERIES[-2::-1]:
        series = a - c * series
    out[low] = 3 * s * s * series
    return out


def _psi(w):
    """Psi(w) of the module docstring: Phi(inf) - Phi(1 / w)."""
    return -0.5 * np.log1p(-3 * w / (1 + w) ** 2) + _SQRT3 * np.arctan2(_SQRT3 * w, 2 - w)


def theta_quantile(measure, u):
    """The theta in [0, pi] at which the theta-CDF of the measure is u."""
    u = np.asarray(u, dtype=float)
    if measure == PRODUCT:
        return math.pi * u
    if measure == TAN13:
        v = np.minimum(u, 1.0 - u)
        theta = np.empty_like(v)
        pole = v < _F_QUARTER_PI
        # pole branch: Phi(s) = target, Newton in x = s^2 with
        # dPhi/dx = 3 / (2 (1 + s^3)), from Phi ~ 1.5 x - 0.6 x^{5/2}
        target = 2 * TAN13_THETA_MASS * v[pole]
        y = target / 1.5
        x = y * (1 + 0.4 * y ** 1.5)
        for _ in range(_NEWTON_STEPS):
            s = np.sqrt(x)
            x = x - (_phi(s) - target) * (2 * (1 + s * x) / 3)
        theta[pole] = np.arctan(x ** 0.75)
        # equator branch: Psi(w) = target, from Psi ~ 3 w - 0.75 w^4
        target = (1 - 2 * v[~pole]) * TAN13_THETA_MASS
        y = target / 3
        w = y + y ** 4 / 4
        for _ in range(_NEWTON_STEPS):
            w = w - (_psi(w) - target) * ((1 + w ** 3) / 3)
        theta[~pole] = np.arctan2(1.0, w ** 1.5)
        return np.where(u > 0.5, math.pi - theta, theta)[()]
    raise ValueError(f"unknown measure {measure!r}")


def preconditioner_weight(measure, theta):
    """Diagonal preconditioner weight for a sample at colatitude theta.

    product: sin(theta)^{1/2};  tan13: (sin^2 theta |cos theta|)^{1/6}.
    Either way weight^2 times the theta-density is proportional to
    sin(theta), which is what restores orthonormality after sampling.
    """
    theta = np.asarray(theta, dtype=float)
    if measure == PRODUCT:
        return np.sqrt(np.abs(np.sin(theta)))
    if measure == TAN13:
        return (np.sin(theta) ** 2 * np.abs(np.cos(theta))) ** (1.0 / 6.0)
    raise ValueError(f"unknown measure {measure!r}")


def theta_density(measure, theta):
    """Unnormalized theta-marginal density of the sampling measure: 1 for
    product, |tan theta|^{1/3} for tan13. Its integral over [0, pi] is pi
    and TAN13_THETA_MASS respectively."""
    theta = np.asarray(theta, dtype=float)
    if measure == PRODUCT:
        return np.ones_like(theta)
    if measure == TAN13:
        return np.abs(np.tan(theta)) ** (1.0 / 3.0)
    raise ValueError(f"unknown measure {measure!r}")


def measure_mass(measure) -> float:
    """Total mass of the unnormalized measure on SO(3), angular factors included."""
    if measure == PRODUCT:
        return math.pi * (2 * math.pi) ** 2
    if measure == TAN13:
        return TAN13_THETA_MASS * (2 * math.pi) ** 2
    raise ValueError(f"unknown measure {measure!r}")
