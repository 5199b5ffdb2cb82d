"""Polynomial copulas and their exact star products.

A polynomial copula has cdf C(u, v) = sum over i, j of c_ij u^i v^j.
Pi and FGM are the basic ones. When both factors are polynomial and
every member C_t of the family is polynomial in (x, y), with a
coefficient polynomial in t on each piece of [0, 1], the product
integrand is a polynomial in (u, t, v) on each piece, and the integral
is exact rational algebra:

    (A *_C B)_il = sum over a, b, p, q of S_a[i, p] mu_ab[p + q] R_b[q, l]

where S_a holds the (u, t) coefficients of s^a for s = d2 A(u, t),
R_b the (t, v) coefficients of r^b for r = d1 B(t, v), and
mu_ab[n] = integral of m_ab(t) t^n dt for the coefficient m_ab(t) of
x^a y^b in C_t. The classical product is the case C_t = Pi, which
gives (A * B)_il = sum over j, k of a_ij j b_kl k / (j + k - 1); there
the degree does not grow, and fgm(a) * fgm(b) = fgm(ab / 3) exactly.
Each member of degree d in x multiplies the u-degree by d, so a product
whose degree would pass ``MAX_DEGREE`` in either variable is left to
quadrature.

Exact values are integer matrices over one common denominator, an
(ints, den) pair; a float converts exactly through ``as_integer_ratio``.
Products of these need no gcd, which dominates ``fractions.Fraction``
arithmetic, and the order of the sums does not matter.
``PolyCopula.coeffs`` shows them as ``Fraction``; ``fractions`` is
imported only then, not with the package.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .copulas import (
    ConstructionError,
    Copula,
    FGMCopula,
    ProductPi,
    TransposedCopula,
)
from .families import FGMCurveFamily, PiecewiseConstantFamily

__all__ = ["PolyCopula", "MAX_DEGREE", "poly_product", "exact_gap"]

# largest degree per variable of a product built in closed form
MAX_DEGREE = 16

# Pi = xy; never modified, as every operation below makes a new array
_PI = (np.array([[0, 0], [0, 1]], dtype=object), 1)


def _ratio(x):
    """(numerator, denominator) of a finite real number, exactly."""
    if not isinstance(x, (int, float)):
        from fractions import Fraction

        x = Fraction(x)
    return x.as_integer_ratio()


def _scale(rows):
    """(ints, den) with rows = ints / den, for a matrix of numbers."""
    try:
        pairs = [[_ratio(x) for x in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConstructionError(f"coefficients must be finite numbers: {exc}") from None
    den = math.lcm(*(d for row in pairs for _, d in row))
    ints = np.array([[n * (den // d) for n, d in row] for row in pairs], dtype=object)
    if ints.ndim != 2 or ints.size == 0:
        raise ConstructionError("coefficients must form a nonempty matrix")
    return ints, den


def _horner(c, u, v):
    """sum of c[i, j] u^i v^j, by Horner in v inside Horner in u from
    the highest degree down, with elementwise arithmetic only, so a
    value's bits do not depend on its batch."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    acc = 0.0
    for row in c[::-1]:
        p = row[-1]
        for cj in row[-2::-1]:
            p = p * v + cj
        acc = acc * u + p
    shape = np.broadcast_shapes(u.shape, v.shape)
    if np.shape(acc) != shape:
        acc = np.broadcast_to(acc, shape).copy()
    return acc


def _floats(ints, den):
    # int / int is correctly rounded, so each value is rounded once
    return (ints / den).astype(float)


class PolyCopula(Copula):
    """Copula with cdf C(u, v) = sum of coeffs[i][j] u^i v^j.

    The coefficients (any finite numbers; a float is taken exactly) are
    kept exactly, zero trailing rows and columns dropped, and as a float
    copy rounded once; ``coeffs`` gives them as a read-only array of
    ``Fraction``. The boundary conditions C(u, 0) = C(0, v) = 0,
    C(u, 1) = u and C(1, v) = v are checked exactly; 2-increasing is the
    caller's claim. ``source``, the (A, family, B) of the product that
    made it (family None for the classical product), is set by
    ``star``/``star_c``, as on every product copula.
    """

    def __init__(self, coeffs):
        self._init(*_scale(coeffs))

    def _init(self, ints, den):
        rows = [i for i in range(ints.shape[0]) if any(ints[i])]
        cols = [j for j in range(ints.shape[1]) if any(ints[:, j])]
        if not rows:
            raise ConstructionError("a copula polynomial cannot be zero")
        ints = ints[: rows[-1] + 1, : cols[-1] + 1]
        du, dv = ints.shape[0] - 1, ints.shape[1] - 1
        if (any(ints[0]) or any(ints[:, 0])
                or list(ints.sum(axis=1)) != [den * (i == 1) for i in range(du + 1)]
                or list(ints.sum(axis=0)) != [den * (j == 1) for j in range(dv + 1)]):
            raise ConstructionError(
                "coefficients violate C(u, 0) = C(0, v) = 0, C(u, 1) = u, C(1, v) = v"
            )
        self._exact = (ints, den)
        self.degree = (du, dv)
        self._c = _floats(ints, den)
        self._c1 = _floats(ints[1:] * np.arange(1, du + 1)[:, None], den)
        self._c2 = _floats(ints[:, 1:] * np.arange(1, dv + 1), den)

    @cached_property
    def coeffs(self):
        from fractions import Fraction

        ints, den = self._exact
        c = np.array([[Fraction(n, den) for n in row] for row in ints], dtype=object)
        c.flags.writeable = False
        return c

    def _cdf(self, u, v):
        return np.clip(_horner(self._c, u, v), 0.0, 1.0)

    def _d1(self, u, v):
        return _horner(self._c1, u, v)

    def _d2(self, u, v):
        return _horner(self._c2, u, v)

    def __repr__(self):
        return f"<PolyCopula degree={self.degree}>"


def _exact_of(C):
    """(ints, den) of C's coefficients when C is Pi, FGM, a PolyCopula
    or a transpose of one; None for any other copula."""
    if isinstance(C, PolyCopula):
        return C._exact
    if isinstance(C, FGMCopula):
        # xy + theta xy(1 - x)(1 - y)
        n, d = C.theta.as_integer_ratio()
        return _PI if n == 0 else (
            np.array([[0, 0, 0], [0, d + n, -n], [0, -n, n]], dtype=object), d)
    if isinstance(C, ProductPi):
        return _PI
    if isinstance(C, TransposedCopula):
        inner = _exact_of(C.inner)
        return None if inner is None else (inner[0].T, inner[1])
    return None


def exact_gap(A: Copula, B: Copula, u, v):
    """|A(u, v) - B(u, v)| from the exact difference of the coefficients,
    rounded once, when both are polynomial copulas; None otherwise. The
    part the two share cancels before any rounding, so a small gap
    keeps its relative accuracy."""
    exact_a, exact_b = _exact_of(A), _exact_of(B)
    if exact_a is None or exact_b is None:
        return None
    (a, da), (b, db) = exact_a, exact_b
    d = np.zeros(np.maximum(a.shape, b.shape), dtype=object)
    d[: a.shape[0], : a.shape[1]] += a * db
    d[: b.shape[0], : b.shape[1]] -= b * da
    return np.abs(_horner(_floats(d, da * db), u, v))


# the t-polynomial 1, as (ints, den)
_ONE = ([1], 1)


def _piece(lo, hi, g):
    """((a, b, d), g): the piece [a/d, b/d] of [0, 1] carrying the
    t-polynomial g, given as (ints, den)."""
    (a, da), (b, db) = _ratio(lo), _ratio(hi)
    d = math.lcm(da, db)
    return (a * (d // da), b * (d // db), d), g


def _fgm_curve_pieces(curve: FGMCurveFamily):
    """The pieces between the clip points, carrying the raw theta
    polynomial, or the constant 1 or -1 where the raw value at the
    piece's midpoint is clipped."""
    gi, gd = _scale([curve.coeffs])
    raw = (list(gi[0]), gd)
    cuts = (0.0,) + curve.breakpoints() + (1.0,)
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = float(np.polynomial.polynomial.polyval(0.5 * (lo + hi), curve.coeffs))
        theta = raw if -1.0 <= mid <= 1.0 else ([1 if mid > 0.0 else -1], 1)
        pieces.append(_piece(lo, hi, theta))
    return pieces


_WHOLE = [_piece(0, 1, _ONE)]


def _family_terms(family):
    """The family as terms (member, pieces): C_t is the sum over terms
    of g(t) times the member polynomial, g given on each piece and 0
    elsewhere. None when a member is not polynomial."""
    if family is None:
        return [(_PI, _WHOLE)]
    if isinstance(family, PiecewiseConstantFamily):
        ms = [_exact_of(m) for m in family.members]
        if any(m is None for m in ms):
            return None
        cuts = family.cuts
        return [(m, [_piece(lo, hi, _ONE)]) for m, lo, hi in zip(ms, cuts, cuts[1:])]
    if isinstance(family, FGMCurveFamily):
        term = (np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]], dtype=object), 1)
        return [(_PI, _WHOLE), (term, _fgm_curve_pieces(family))]
    return None


def _moments(pieces, n):
    """(ints, den): the integrals of g(t) t^k over the pieces, k < n."""
    parts = []
    for (a, b, d), (g, gd) in pieces:
        # integral of t^(j-1) over [a/d, b/d] is (b^j - a^j) / (j d^j),
        # kept over the one denominator L d^m
        m = n + len(g) - 1
        L = math.lcm(*range(1, m + 1))
        ints = [(b**j - a**j) * d ** (m - j) * (L // j) for j in range(1, m + 1)]
        mom = [sum(gw * ints[k + w] for w, gw in enumerate(g)) for k in range(n)]
        parts.append((mom, gd * L * d**m))
    den = math.lcm(*(dp for _, dp in parts))
    total = [sum(mom[k] * (den // dp) for mom, dp in parts) for k in range(n)]
    return np.array(total, dtype=object), den


def _powers(p, k, d):
    """[p^i d^(k - i) for i = 0 .. k]: the powers of the coefficient
    matrix p / d, all over the one denominator d^k."""
    out = [np.ones((1, 1), dtype=object)]
    for _ in range(k):
        if len(out) == 1:
            out.append(p)
            continue
        q = out[-1]
        nxt = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1),
                       dtype=object)
        for i, j in zip(*np.nonzero(p)):
            nxt[i : i + q.shape[0], j : j + q.shape[1]] += p[i, j] * q
        out.append(nxt)
    return [x * d ** (k - i) for i, x in enumerate(out)]


def poly_product(A: Copula, family, B: Copula):
    """A *_C B over ``family`` (the classical A * B when it is None) as
    an exact PolyCopula, or None when a factor or a member is not
    polynomial or the product's degree would pass MAX_DEGREE."""
    exact_a, exact_b = _exact_of(A), _exact_of(B)
    if exact_a is None or exact_b is None:
        return None
    terms = _family_terms(family)
    if terms is None:
        return None
    (a, da), (b, db) = exact_a, exact_b
    mx = max(m.shape[0] for (m, _), _ in terms) - 1
    my = max(m.shape[1] for (m, _), _ in terms) - 1
    if mx * (a.shape[0] - 1) > MAX_DEGREE or my * (b.shape[1] - 1) > MAX_DEGREE:
        return None
    # powers of s = d2 A(u, t) over (u, t), all over da^mx, and of
    # r = d1 B(t, v) over (t, v), all over db^my
    S = _powers(a[:, 1:] * np.arange(1, a.shape[1]), mx, da)
    R = _powers(b[1:] * np.arange(1, b.shape[0])[:, None], my, db)
    n = S[-1].shape[1] + R[-1].shape[0] - 1
    # mu[i, j, k] = integral of m_ij(t) t^k, all over q
    moments = [(m, _moments(pieces, n)) for m, pieces in terms]
    q = math.lcm(*(dm * dk for (_, dm), (_, dk) in moments))
    mu = np.zeros((mx + 1, my + 1, n), dtype=object)
    for (m, dm), (mom, dk) in moments:
        mu[: m.shape[0], : m.shape[1]] += m[:, :, None] * (mom * (q // (dm * dk)))
    out = np.zeros((S[-1].shape[0], R[-1].shape[1]), dtype=object)
    for i, j in np.ndindex(mx + 1, my + 1):
        if any(mu[i, j]):
            # Hankel matrix of the moments between the t-powers of S_i and R_j
            p, r = S[i].shape[1], R[j].shape[0]
            part = S[i] @ mu[i, j][np.add.outer(np.arange(p), np.arange(r))] @ R[j]
            out[: part.shape[0], : part.shape[1]] += part
    P = PolyCopula.__new__(PolyCopula)
    P._init(out, da**mx * q * db**my)
    return P
