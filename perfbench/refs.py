"""Exact references for the benchmark's correctness checks.

Every function here is a closed form from the copula algebra, written
with plain numpy and without importing copulalg or using quadrature, so
a defect in the package cannot hide behind its own reference.
"""

from __future__ import annotations

import numpy as np


def fgm(theta, u, v):
    """FGM copula uv(1 + theta(1-u)(1-v))."""
    return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))


def w_bound(u, v):
    return np.maximum(u + v - 1.0, 0.0)


def m_bound(u, v):
    return np.minimum(u, v)


def fgm_star_fgm(a, b, u, v):
    """FGM closure: fgm(a) * fgm(b) = fgm(ab/3)."""
    return fgm(a * b / 3.0, u, v)


def split_sign(theta, u, v):
    """fgm(theta) *_C Pi over C = fgm(theta) on [0, 1/2), fgm(-theta) after.

    The t-average of C is Pi, yet the product leaves Pi by
    theta^2 x(1-x)(1/2-x) y(1-y).
    """
    return u * v + theta**2 * u * (1.0 - u) * (0.5 - u) * v * (1.0 - v)


def w_left(inner, u, v):
    """(W * C)(u, v) = v - C(1-u, v) for C given as a function."""
    return v - inner(1.0 - u, v)


def w_right(inner, u, v):
    """(C * W)(u, v) = u - C(u, 1-v)."""
    return u - inner(u, 1.0 - v)


def _shuffle_targets(cuts, sigma):
    cuts = np.asarray(cuts, float)
    widths = np.diff(cuts)
    slots = np.asarray(sigma) - 1
    t0 = np.empty_like(widths)
    # a strip starts after every strip that lands in an earlier slot
    for i, s in enumerate(slots):
        t0[i] = widths[slots < s].sum()
    return cuts[:-1], widths, t0


def shuffle_star(cuts, sigma, flips, inner, u, v):
    """(S * C)(u, v) = sum_i C(hi_i(u), v) - C(lo_i(u), v) for a shuffle S.

    The u-section of strip i covers the t-interval [t0, t0 + c] (or
    [t1 - c, t1] when flipped), c = clip(u - s_i, 0, w_i).
    """
    s0, widths, t0 = _shuffle_targets(cuts, sigma)
    out = np.zeros(np.broadcast(u, v).shape)
    for s, w, t, flip in zip(s0, widths, t0, flips):
        c = np.clip(u - s, 0.0, w)
        lo, hi = (t + w - c, t + w) if flip else (t, t + c)
        out = out + inner(hi, v) - inner(lo, v)
    return out


def cell_masses(cdf, n):
    """Cell volumes of a cdf given as a function on the n x n checkerboard."""
    g = np.arange(n + 1) / n
    e = cdf(g[:, None], g[None, :])
    return e[1:, 1:] - e[1:, :-1] - e[:-1, 1:] + e[:-1, :-1]


def fgm_cell_masses(theta, n):
    """Exact cell volumes of fgm(theta) on the n x n checkerboard."""
    return cell_masses(lambda u, v: fgm(theta, u, v), n)


def checkerboard(mass, u, v):
    """Bilinear interpolant of the cumulative mass: the checkerboard cdf."""
    n = mass.shape[0]
    h = np.zeros((n + 1, n + 1))
    h[1:, 1:] = mass.cumsum(axis=0).cumsum(axis=1)
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    iu = np.minimum((u * n).astype(int), n - 1)
    iv = np.minimum((v * n).astype(int), n - 1)
    fu = u * n - iu
    fv = v * n - iv
    return (h[iu, iv] * (1 - fu) * (1 - fv) + h[iu + 1, iv] * fu * (1 - fv)
            + h[iu, iv + 1] * (1 - fu) * fv + h[iu + 1, iv + 1] * fu * fv)


def grid_star_grid(mass_a, mass_b, u, v):
    """star(gridA, gridB) = GridCopula(N A @ B): product of doubly
    stochastic matrices."""
    n = mass_a.shape[0]
    return checkerboard(n * (mass_a @ mass_b), u, v)


def _polymul(p, q):
    """Product of polynomials in t with coefficient rows (degree, *points)."""
    shape = np.broadcast_shapes(p.shape[1:], q.shape[1:])
    out = np.zeros((p.shape[0] + q.shape[0] - 1,) + shape)
    for i in range(p.shape[0]):
        for j in range(q.shape[0]):
            out[i + j] = out[i + j] + p[i] * q[j]
    return out


def fgm_curve_product(a, coeffs, b, u, v):
    """fgm(a) *_C fgm(b) for C_t = fgm(theta(t)), theta a polynomial
    that stays inside [-1, 1] on [0, 1] (so no clipping applies).

    The conditionals d2 fgm(a)(u, t) and d1 fgm(b)(t, v) are linear in
    t, so the integrand s r (1 + theta (1-s)(1-r)) is a polynomial in t
    and its integral over [0, 1] is the sum of coefficient_k / (k + 1).
    """
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    ku = a * u * (1.0 - u)
    kv = b * v * (1.0 - v)
    s = np.stack([u + ku, -2.0 * ku])
    r = np.stack([v + kv, -2.0 * kv])
    one = np.ones((1,) + u.shape)
    theta = np.asarray(coeffs, float).reshape((-1,) + (1,) * u.ndim) * one
    sr = _polymul(s, r)
    excess = _polymul(theta, _polymul(_pad_add(one, -s), _pad_add(one, -r)))
    total = _pad_add(sr, _polymul(sr, excess))
    k = np.arange(total.shape[0]).reshape((-1,) + (1,) * u.ndim)
    return (total / (k + 1.0)).sum(axis=0)


def _pad_add(p, q):
    n = max(p.shape[0], q.shape[0])
    out = np.zeros((n,) + np.broadcast_shapes(p.shape[1:], q.shape[1:]))
    out[: p.shape[0]] += p
    out[: q.shape[0]] += q
    return out
