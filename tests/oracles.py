"""Independent oracles for cross-checking library results.

Everything here deliberately avoids the library's own evaluation
paths: shuffle mass comes from Euclidean segment clipping
(Liang-Barsky), product integrals from scipy's adaptive quadrature
with the conditional-law formulas written out inline.
"""

import math

from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)


def clipped_length(seg, x1, x2, y1, y2):
    """Euclidean length of a segment clipped to [x1,x2] x [y1,y2]."""
    dx = seg.x1 - seg.x0
    dy = seg.y1 - seg.y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, seg.x0 - x1),
        (dx, x2 - seg.x0),
        (-dy, seg.y0 - y1),
        (dy, y2 - seg.y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return 0.0
        else:
            r = q / p
            if p < 0.0:
                t0 = max(t0, r)
            else:
                t1 = min(t1, r)
    if t1 <= t0:
        return 0.0
    return (t1 - t0) * math.hypot(dx, dy)


def shuffle_mass(segments, x1, x2, y1, y2):
    """Mass a shuffle places in a rectangle: clipped length / sqrt(2)."""
    return sum(clipped_length(s, x1, x2, y1, y2) for s in segments) / SQRT2


def shuffle_cdf(segments, u, v):
    return shuffle_mass(segments, 0.0, u, 0.0, v)


# conditional laws written independently of the library

def d2_fgm(theta):
    return lambda u, t: u + theta * u * (1.0 - u) * (1.0 - 2.0 * t)


def d1_fgm(theta):
    return lambda t, v: v + theta * v * (1.0 - v) * (1.0 - 2.0 * t)


def d2_pi(u, t):
    return u


def d1_pi(t, v):
    return v


def d2_m(u, t):
    return 1.0 if t < u else 0.0


def d1_m(t, v):
    return 1.0 if t < v else 0.0


def d2_w(u, t):
    return 1.0 if u + t >= 1.0 else 0.0


def d1_w(t, v):
    return 1.0 if t + v >= 1.0 else 0.0


def fgm_cdf(theta):
    return lambda x, y: x * y * (1.0 + theta * (1.0 - x) * (1.0 - y))


def quad_star(d2a, d1b, u, v, points=()):
    """Reference classical product via scipy adaptive quadrature."""
    val, _ = quad(
        lambda t: d2a(u, t) * d1b(t, v),
        0.0, 1.0, points=list(points) or None, limit=200,
    )
    return val


def quad_star_c(d2a, inner, d1b, u, v, points=()):
    """Reference generalized product; ``inner(t, x, y)`` is the family."""
    val, _ = quad(
        lambda t: inner(t, d2a(u, t), d1b(t, v)),
        0.0, 1.0, points=list(points) or None, limit=200,
    )
    return val


def counterexample_value(theta, x, y):
    """Closed form of (fgm(theta) *_C Pi)(x, y) for the two-piece
    family that is fgm(theta) below t=1/2 and fgm(-theta) above.

    Derived by splitting the integral at t=1/2 and integrating the
    FGM polynomials; re-checked against brute-force quadrature.
    """
    return x * y + theta * theta * x * (1.0 - x) * (0.5 - x) * y * (1.0 - y)


def d2_grid(mass):
    """t -> d2 C(u, t) of the checkerboard with this mass, right-hand:
    n times the mass of t's column below u, the cell row of u counted
    by the share of it that lies below u."""
    n = len(mass)

    def d2(u, t):
        i = min(int(u * n), n - 1)
        k = min(int(t * n), n - 1)
        below = sum(mass[r][k] for r in range(i))
        return n * (below + (u * n - i) * mass[i][k])

    return d2


def d1_grid(mass):
    """t -> d1 C(t, v): n times the mass of t's row left of v."""
    n = len(mass)

    def d1(t, v):
        k = min(int(t * n), n - 1)
        j = min(int(v * n), n - 1)
        left = sum(mass[k][c] for c in range(j))
        return n * (left + (v * n - j) * mass[k][j])

    return d1


def grid_star_grid(mass_a, mass_b, u, v):
    """Classical product of two checkerboards of the same order n.

    Both conditionals are constant in t on each cell [k/n, (k+1)/n),
    so the integral is exact as a sum of cell width times the integrand
    at the cell's midpoint.
    """
    n = len(mass_a)
    d2a, d1b = d2_grid(mass_a), d1_grid(mass_b)
    total = 0.0
    for k in range(n):
        t = (k + 0.5) / n
        total += d2a(u, t) * d1b(t, v) / n
    return total
