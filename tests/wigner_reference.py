"""Reference Wigner-d and Wigner-D evaluation through Jacobi polynomials.

An independent second kernel that the tests compare the package's degree
recurrence against:

    d_l^{k,n}(theta) = omega sqrt(gamma) sin(theta/2)^mu cos(theta/2)^lam
                       P_alpha^(mu,lam)(cos theta),

with mu = |k - n|, lam = |k + n|, alpha = l - (mu + lam) / 2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def jacobi_eval(alpha: int, mu: int, lam: int, x):
    """Jacobi polynomial P_alpha^(mu,lam)(x) on [-1, 1].

    Ascending three-term recurrence in the degree at fixed (mu, lam);
    stable and O(alpha) per point.
    """
    if alpha < 0 or mu < 0 or lam < 0:
        raise ValueError("degree and orders must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("argument outside [-1, 1]")

    p_prev = np.ones_like(x)
    if alpha == 0:
        return p_prev
    a, b = mu, lam
    p = 0.5 * (a - b) + 0.5 * (a + b + 2) * x
    for m in range(2, alpha + 1):
        c = 2 * m + a + b
        a1 = 2 * m * (m + a + b) * (c - 2)
        a2 = (c - 1) * (a * a - b * b)
        a3 = (c - 2) * (c - 1) * c
        a4 = 2 * (m + a - 1) * (m + b - 1) * c
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p


def _jacobi_params(l: int, k: int, n: int):
    """(mu, lam, alpha, omega, log_gamma) for the d-function at (l, k, n)."""
    mu = abs(k - n)
    lam = abs(k + n)
    alpha = l - (mu + lam) // 2
    omega = 1.0 if n >= k else float((-1) ** ((n - k) % 2))
    log_gamma = (
        gammaln(alpha + 1)
        + gammaln(alpha + mu + lam + 1)
        - gammaln(alpha + mu + 1)
        - gammaln(alpha + lam + 1)
    )
    return mu, lam, alpha, omega, log_gamma


def wigner_d(l: int, k: int, n: int, theta):
    """Wigner-d function d_l^{k,n}(cos theta), theta in [0, pi].

    sqrt(gamma) goes through log-gamma differences so large degrees do
    not overflow the factorial ratio.
    """
    if abs(k) > l or abs(n) > l or l < 0:
        raise ValueError(f"invalid index (l={l}, k={k}, n={n})")
    theta = np.asarray(theta, dtype=float)
    if np.any((theta < 0) | (theta > np.pi)):
        raise ValueError("theta outside [0, pi]")
    mu, lam, alpha, omega, log_gamma = _jacobi_params(l, k, n)
    half = 0.5 * theta
    return (
        omega
        * math.exp(0.5 * log_gamma)
        * np.sin(half) ** mu
        * np.cos(half) ** lam
        * jacobi_eval(alpha, mu, lam, np.cos(theta))
    )


def wigner_D(l: int, k: int, n: int, theta, phi, chi):
    """Wigner-D function N_l e^{-jk phi} d_l^{k,n}(cos theta) e^{-jn chi}."""
    return (math.sqrt((2 * l + 1) / (8.0 * math.pi**2))
            * np.exp(-1j * (k * np.asarray(phi) + n * np.asarray(chi)))
            * wigner_d(l, k, n, theta))
