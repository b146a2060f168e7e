"""Random sampling on SO(3) under the two measures used for sensing.

Two theta-marginals are supported: "product" (d theta, i.e. theta uniform)
and "tan13" (|tan theta|^{1/3} d theta). phi and chi are always uniform on
[0, 2 pi). Each measure comes with the preconditioner weight that turns
the sampled system back into an orthonormal one: weight(theta)^2 times the
theta-density is proportional to sin(theta) for both.

Both theta-CDFs have closed forms, so theta is drawn by inverting them.
For tan13 the substitution x = sin^2 theta turns the density into a beta
density: the mass of [0, pi] is B(2/3, 1/3) = 2 pi / sqrt(3), and

    F(theta) = I_{sin^2 theta}(2/3, 1/3) / 2          (theta <= pi/2)
    F(theta) = 1 - I_{sin^2 theta}(2/3, 1/3) / 2      (theta >  pi/2)

with I the regularized incomplete beta function. The code evaluates it at
e = pi/2 - theta, through whichever of sin^2 e and cos^2 e is small, so
it keeps full precision both at the poles and at the equator. e is taken
from the float pi/2, which makes theta_cdf(pi/2) exactly 1/2 and
theta_quantile(1/2) exactly pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv

PRODUCT = "product"
TAN13 = "tan13"
MEASURES = (PRODUCT, TAN13)

# total mass of |tan theta|^{1/3} d theta on [0, pi]: B(2/3, 1/3)
TAN13_THETA_MASS = 2 * math.pi / math.sqrt(3)

__all__ = [
    "PRODUCT",
    "TAN13",
    "MEASURES",
    "Samples",
    "sample_points",
    "theta_cdf",
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


def theta_quantile(measure, u):
    """Inverse of theta_cdf: the theta in [0, pi] with theta_cdf(theta) = u."""
    u = np.asarray(u, dtype=float)
    if measure == PRODUCT:
        return math.pi * u
    if measure == TAN13:
        # fold at u = 1/2: v is the mass between theta and its nearer pole,
        # and e = |pi/2 - theta| follows from both sin^2 e and cos^2 e
        v = np.minimum(u, 1.0 - u)
        e = np.arctan2(np.sqrt(betaincinv(1 / 3, 2 / 3, 1.0 - 2.0 * v)),
                       np.sqrt(betaincinv(2 / 3, 1 / 3, 2.0 * v)))
        return math.pi / 2 - np.sign(0.5 - u) * e
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
