"""Wigner-d and Wigner-D functions from one kernel, the degree recurrence.

The basis is the set of Wigner-D functions of degree l < B, linearized
degree-major (l, then k, then n), giving N = B(2B-1)(2B+1)/3 columns.
All evaluators accept scalars or numpy arrays for the angular arguments.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["basis_count", "wigner_d", "wigner_D", "evaluate_basis"]


def basis_count(B: int) -> int:
    """Number of Wigner-D functions of degree l < B."""
    if B < 1:
        raise ValueError(f"bandwidth must be >= 1, got {B}")
    return B * (2 * B - 1) * (2 * B + 1) // 3


def _check_angles(theta, phi=0.0, chi=0.0) -> None:
    if not np.all((theta >= 0) & (theta <= np.pi)):   # false for NaN too
        raise ValueError("theta outside [0, pi]")
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(chi))):
        raise ValueError("phi and chi must be finite")


def _log_factorials(n: int) -> np.ndarray:
    """Table of log(j!) for j = 0..n, for callers to gather from."""
    return np.array([math.lgamma(j + 1) for j in range(n + 1)])


def wigner_d(l: int, k: int, n: int, theta):
    """Wigner-d function d_l^{k,n}(cos theta), theta in [0, pi], in theta's
    shape: the last step of one lane of the degree recurrence."""
    if abs(k) > l or abs(n) > l or l < 0:
        raise ValueError(f"invalid index (l={l}, k={k}, n={n})")
    theta = np.asarray(theta, dtype=float)
    _check_angles(theta)
    *_, (_, d) = _wigner_d_lanes([k], [n], theta.reshape(1, -1), l)
    return d[0].reshape(theta.shape)[()]


def _norm_factor(l: int) -> float:
    return math.sqrt((2 * l + 1) / (8.0 * math.pi**2))


def wigner_D(l: int, k: int, n: int, theta, phi, chi):
    """Wigner-D function N_l e^{-jk phi} d_l^{k,n}(cos theta) e^{-jn chi}."""
    theta, phi, chi = (np.asarray(v, dtype=float) for v in (theta, phi, chi))
    _check_angles(theta, phi, chi)
    return (
        _norm_factor(l)
        * np.exp(-1j * (k * phi + n * chi))
        * wigner_d(l, k, n, theta)
    )


_SLICE = 512  # points per run of _wigner_d_lanes: keeps its working arrays small


def _wigner_d_lanes(k, n, theta, l_max: int):
    """Yield (l, d) for l = 0..l_max, where row i of d is d_l^{k_i, n_i}(theta)
    for every lane i with max(|k_i|, |n_i|) <= l.

    Lanes must come sorted by l0 = max(|k|, |n|), so the lanes defined at
    degree l are the first rows; d is a view that the next step overwrites.
    theta is one grid shared by every lane, or one grid per lane (shape
    (lanes, points)). Each lane starts at its l0 from the closed form

        d_{l0}^{k,n} = omega sqrt((mu + lam)! / (mu! lam!))
                       sin(theta/2)^mu cos(theta/2)^lam,
        mu = |k - n|,  lam = |k + n|,  omega = (-1)^(n - k) if n < k else 1,

    and climbs by the three-term recurrence in the degree
    (Kostelec & Rockmore 2008, FFTs on the Rotation Group):

        d_l = a_l (cos theta - k n / (l (l-1))) d_{l-1} - c_l d_{l-2},
        a_l = l (2l-1) / r_l,  c_l = l r_{l-1} / ((l-1) r_l),
        r_l = sqrt((l^2 - k^2)(l^2 - n^2)).
    """
    k, n, theta = np.asarray(k), np.asarray(n), np.asarray(theta, dtype=float)
    shape = (len(k), theta.shape[-1])
    x, half_sin, half_cos = (np.broadcast_to(v, shape) for v in
                             (np.cos(theta), np.sin(0.5 * theta), np.cos(0.5 * theta)))
    # lanes [starts[l], starts[l + 1]) have l0 = l
    starts = np.searchsorted(np.maximum(np.abs(k), np.abs(n)), np.arange(l_max + 2))
    mu, lam = np.abs(k - n), np.abs(k + n)
    omega = np.where((n >= k) | ((n - k) % 2 == 0), 1.0, -1.0)
    log_fact = _log_factorials(int(np.max(mu + lam, initial=0)))
    seed_norm = omega * np.exp(0.5 * (log_fact[mu + lam] - log_fact[mu] - log_fact[lam]))
    k2, n2, kn = k * k, n * n, k * n
    cur, prev, tmp = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for l in range(l_max + 1):
        a, hi = starts[l], starts[l + 1]
        if a:
            # advance lanes [0, a) from degree l - 1 to l; at l = 1 they all
            # have k = n = 0 and c_l multiplies d_{-1} = 0
            r = np.sqrt((l * l - k2[:a]) * (l * l - n2[:a]))
            scale = l * (2 * l - 1) / r
            if l > 1:
                shift = kn[:a] / (l * (l - 1))
                r_prev = np.sqrt(((l - 1) ** 2 - k2[:a]) * ((l - 1) ** 2 - n2[:a]))
                back = l * r_prev / ((l - 1) * r)
            else:
                shift = back = np.zeros(a)
            t = tmp[:a]
            np.subtract(x[:a], shift[:, None], out=t)
            t *= cur[:a]
            t *= scale[:, None]
            p = prev[:a]
            p *= back[:, None]
            np.subtract(t, p, out=p)
            prev, cur = cur, prev
        if hi > a:
            new = slice(a, hi)
            cur[new] = (seed_norm[new, None] * half_sin[new] ** mu[new, None]
                        * half_cos[new] ** lam[new, None])
        yield l, cur[:hi]


def _order_lanes(k_orders, n_orders):
    """Lanes (k, n) of the grid k_orders x n_orders sorted by l0 = max(|k|, |n|)
    for `_wigner_d_lanes`, and slot[i, j], the lane of (k_orders[i], n_orders[j])."""
    kk, nn = np.meshgrid(k_orders, n_orders, indexing="ij")
    lane_pos = np.argsort(np.maximum(np.abs(kk), np.abs(nn)), axis=None, kind="stable")
    slot = np.empty_like(lane_pos)
    slot[lane_pos] = np.arange(lane_pos.size)
    return kk.ravel()[lane_pos], nn.ravel()[lane_pos], slot.reshape(kk.shape)


def _basis_blocks(k_orders, n_orders, theta, phi, chi, l_max: int):
    """Yield (rows, l, block) for l = 0..l_max on each _SLICE-point slice `rows`:
    block[p, i, j] = N_l e^{-jk_i phi_p} e^{-jn_j chi_p} d_l^{k_i,n_j}(theta_p)
    over the sorted k_orders and n_orders with |k_i|, |n_j| <= l, from one run
    of the degree recurrence per slice."""
    k, n, slot = _order_lanes(k_orders, n_orders)
    for start in range(0, len(theta), _SLICE):
        rows = slice(start, start + _SLICE)
        ephi = np.exp(-1j * np.outer(k_orders, phi[rows]))
        echi = np.exp(-1j * np.outer(n_orders, chi[rows]))
        for l, d in _wigner_d_lanes(k, n, theta[rows], l_max):
            ko = slice(*np.searchsorted(k_orders, (-l, l + 1)))
            no = slice(*np.searchsorted(n_orders, (-l, l + 1)))
            block = (_norm_factor(l) * ephi[ko])[:, None] * echi[no]
            block *= d[slot[ko, no]]
            yield rows, l, block.transpose(2, 0, 1)


def evaluate_basis(B: int, theta, phi, chi) -> np.ndarray:
    """Dense (npoints, N) matrix of all Wigner-D functions of degree l < B.

    Columns follow the canonical linearization: degree l is the (k, n)
    block of `_basis_blocks`, flattened k-major.
    """
    theta, phi, chi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (theta, phi, chi))
    if not (theta.ndim == 1 and theta.shape == phi.shape == chi.shape):
        raise ValueError(
            "theta, phi, chi must be 1-D of equal length, got shapes "
            f"{theta.shape}, {phi.shape}, {chi.shape}"
        )
    _check_angles(theta, phi, chi)
    out = np.empty((len(theta), basis_count(B)), dtype=complex)
    orders = np.arange(1 - B, B)
    for rows, l, block in _basis_blocks(orders, orders, theta, phi, chi, B - 1):
        base, w = l * (2 * l - 1) * (2 * l + 1) // 3, 2 * l + 1
        out[rows, base:base + w * w] = block.reshape(-1, w * w)
    return out
