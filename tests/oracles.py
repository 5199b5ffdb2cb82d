"""Independent oracles for cross-checking library results.

Everything here deliberately avoids the library's own evaluation
paths: shuffle mass comes from Euclidean segment clipping
(Liang-Barsky), product integrals from scipy's adaptive quadrature
with the conditional-law formulas written out inline, and polynomial
products at a rational point from exact integration in t alone.
"""

import math
from fractions import Fraction

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


def d1_straight_star(alpha, d1c):
    """d1 of (straight(alpha) * C)(t, v): the strip [0, 1 - alpha) is
    moved up by alpha and the rest down by 1 - alpha."""
    return lambda t, v: d1c(t + alpha, v) if t < 1.0 - alpha else d1c(t - (1.0 - alpha), v)


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


# exact products of polynomial copulas at a rational point (u, v): the
# conditionals and the member are polynomials in t alone, held as
# Fraction coefficient lists in increasing degree, and integrated exactly

def t_add(p, q):
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]


def t_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def t_at(p, t):
    return sum(c * t**k for k, c in enumerate(p))


def fgm_d2_t(theta, u):
    """t -> d2 fgm(theta)(u, t) = u + theta u (1 - u)(1 - 2t)."""
    k = Fraction(theta) * u * (1 - u)
    return [u + k, -2 * k]


def fgm_d1_t(theta, v):
    """t -> d1 fgm(theta)(t, v), the mirror image of fgm_d2_t."""
    return fgm_d2_t(theta, v)


def pi_member(s, r):
    return t_mul(s, r)


def _one_minus(p):
    return t_add([1], [-c for c in p])


def fgm_member(theta_t):
    """(s, r) -> s r + theta(t) s (1 - s) r (1 - r) for a t-polynomial theta."""
    def inner(s, r):
        bump = t_mul(t_mul(s, _one_minus(s)), t_mul(r, _one_minus(r)))
        return t_add(t_mul(s, r), t_mul(theta_t, bump))
    return inner


def fgm_curve_pieces(coeffs, breakpoints):
    """(lo, hi, member) pieces of an FGM curve family: between the clip
    points theta is the raw polynomial or the constant -1 or 1 that the
    raw value at the piece's midpoint says."""
    raw = [Fraction(c) for c in coeffs]
    cuts = [Fraction(0)] + [Fraction(b) for b in breakpoints] + [Fraction(1)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = t_at(raw, (lo + hi) / 2)
        theta = raw if -1 <= mid <= 1 else [Fraction(1 if mid > 0 else -1)]
        out.append((lo, hi, fgm_member(theta)))
    return out


def exact_star_c(s, r, pieces):
    """integral over t of C_t(s(t), r(t)) for t-polynomials s and r and
    pieces (lo, hi, inner), inner(s, r) the t-polynomial of C_t(s, r)."""
    total = Fraction(0)
    for lo, hi, inner in pieces:
        for k, c in enumerate(inner(s, r)):
            total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


def exact_poly_eval(coeffs, x, y):
    """sum of coeffs[i][j] x^i y^j, exactly."""
    return sum(c * x**i * y**j for (i, row) in enumerate(coeffs) for j, c in enumerate(row))
