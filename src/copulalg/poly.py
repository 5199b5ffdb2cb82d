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

Exact values are matrices of plain Python ints over one common
denominator, a (rows, den) pair with rows a tuple of int tuples; a
float converts exactly through ``as_integer_ratio``, and a transpose is
``zip(*rows)``. Products of these need no gcd, which dominates
``fractions.Fraction`` arithmetic, and no numpy array, whose per-call
cost on small object matrices outweighs the arithmetic. The
contraction runs over the powers of s: for each a it forms
K_a[p, l] = sum over b, q of mu_ab[p + q] R_b[q, l] once, then adds
S_a K_a into the result. The order of the sums does not matter, as
every sum is exact; each float is the exact value rounded once, by the
correctly rounded int / int division, for the cdf when the copula is
built and for a partial derivative on its first use. Only
``PolyCopula.coeffs`` shows the values as a numpy array, of
``Fraction``; ``fractions`` is imported only then, not with the
package.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul

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

# Pi = xy
_PI = (((0, 0), (0, 1)), 1)


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
    if not pairs or not pairs[0] or any(len(row) != len(pairs[0]) for row in pairs):
        raise ConstructionError("coefficients must form a nonempty matrix")
    den = math.lcm(*(d for row in pairs for _, d in row))
    return tuple(tuple(n * (den // d) for n, d in row) for row in pairs), den


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
    return np.array([[n / den for n in row] for row in ints])


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
        rows = [i for i, row in enumerate(ints) if any(row)]
        if not rows:
            raise ConstructionError("a copula polynomial cannot be zero")
        cols = [j for j, col in enumerate(zip(*ints)) if any(col)]
        ints = tuple(tuple(row[: cols[-1] + 1]) for row in ints[: rows[-1] + 1])
        du, dv = len(ints) - 1, len(ints[0]) - 1
        if (any(ints[0]) or any(row[0] for row in ints)
                or [sum(row) for row in ints] != [den * (i == 1) for i in range(du + 1)]
                or [sum(col) for col in zip(*ints)] != [den * (j == 1) for j in range(dv + 1)]):
            raise ConstructionError(
                "coefficients violate C(u, 0) = C(0, v) = 0, C(u, 1) = u, C(1, v) = v"
            )
        self._exact = (ints, den)
        self.degree = (du, dv)
        self._c = _floats(ints, den)

    @cached_property
    def _c1(self):
        ints, den = self._exact
        return _floats([[i * n for n in row] for i, row in enumerate(ints[1:], 1)], den)

    @cached_property
    def _c2(self):
        ints, den = self._exact
        return _floats([[j * n for j, n in enumerate(row[1:], 1)] for row in ints], den)

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
        return _PI if n == 0 else (((0, 0, 0), (0, d + n, -n), (0, -n, n)), d)
    if isinstance(C, ProductPi):
        return _PI
    if isinstance(C, TransposedCopula):
        inner = _exact_of(C.inner)
        return None if inner is None else (tuple(zip(*inner[0])), inner[1])
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
    d = [[0] * max(len(a[0]), len(b[0])) for _ in range(max(len(a), len(b)))]
    for m, f in ((a, db), (b, -da)):
        for drow, row in zip(d, m):
            drow[: len(row)] = [x + f * y for x, y in zip(drow, row)]
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
        # a raw value past the float range is +-inf, clipped like any other
        with np.errstate(over="ignore"):
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
        term = (((0, 0, 0), (0, 1, -1), (0, -1, 1)), 1)
        return [(_PI, _WHOLE), (term, _fgm_curve_pieces(family))]
    return None


def _moments(pieces, n):
    """(list, den): the integrals of g(t) t^k over the pieces, k < n."""
    parts = []
    for (a, b, d), (g, gd) in pieces:
        # integral of t^(j-1) over [a/d, b/d] is (b^j - a^j) / (j d^j),
        # kept over the one denominator L d^m
        m = n + len(g) - 1
        L = math.lcm(*range(1, m + 1))
        ints = [(b**j - a**j) * d ** (m - j) * (L // j) for j in range(1, m + 1)]
        parts.append(([sum(map(mul, g, ints[k:])) for k in range(n)], gd * L * d**m))
    den = math.lcm(*(dp for _, dp in parts))
    scales = [den // dp for _, dp in parts]
    return [sum(map(mul, scales, ks)) for ks in zip(*(mom for mom, _ in parts))], den


def _powers(p, k):
    """[p^i for i = 0 .. k]: the powers of the integer matrix p, each
    the 2-D convolution of p with the one before, on rows laid end to
    end."""
    out = [[[1]], p]
    for _ in range(k - 1):
        q = out[-1]
        w = len(p[0]) + len(q[0]) - 1
        flat = [0] * (w * (len(p) + len(q) - 1))
        qs = [(a * w + b, y) for a, row in enumerate(q) for b, y in enumerate(row) if y]
        for i, row in enumerate(p):
            for j, x in enumerate(row, i * w):
                if x:
                    for o, y in qs:
                        flat[j + o] += x * y
        out.append([flat[r : r + w] for r in range(0, len(flat), w)])
    return out


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
    mx = max(len(m) for (m, _), _ in terms) - 1
    my = max(len(m[0]) for (m, _), _ in terms) - 1
    if mx * (len(a) - 1) > MAX_DEGREE or my * (len(b[0]) - 1) > MAX_DEGREE:
        return None
    # powers of s = d2 A(u, t) over (u, t), s^i over da^i, and of
    # r = d1 B(t, v) over (t, v), r^j over db^j, kept as columns
    S = _powers([[j * x for j, x in enumerate(row[1:], 1)] for row in a], mx)
    R = [list(zip(*r)) for r in
         _powers([[i * x for x in row] for i, row in enumerate(b[1:], 1)], my)]
    n = len(S[-1][0]) + len(R[-1][0]) - 1
    # mu[i, j][k] = integral of m_ij(t) t^k, all over q da^(mx - i)
    # db^(my - j), so that every term is over da^mx q db^my; m_ij = 0
    # is common, as m_i0 = m_0j = 0 for a copula, and has no entry
    moments = [(m, _moments(pieces, n)) for m, pieces in terms]
    q = math.lcm(*(dm * dk for (_, dm), (_, dk) in moments))
    mu = {}
    fa, fb = [da ** (mx - i) for i in range(mx + 1)], [db ** (my - j) for j in range(my + 1)]
    for (m, dm), (mom, dk) in moments:
        f = q // (dm * dk)
        for i, row in enumerate(m):
            for j, c in enumerate(row):
                if c:
                    c *= f * fa[i] * fb[j]
                    acc = mu.get((i, j), [0] * n)
                    mu[i, j] = [x + c * y for x, y in zip(acc, mom)]
    out = [[0] * len(R[-1]) for _ in S[-1]]
    for i, Si in enumerate(S):
        # K[l][p] = sum over j, q of mu_ij[p + q] R_j[q, l], the moments'
        # Hankel matrix between the t-powers of S_i and R_j times R_j
        js = [(R[j], mu[i, j]) for j in range(my + 1) if (i, j) in mu]
        if not js:
            continue
        K = [[0] * len(Si[0]) for _ in out[0]]
        for Rj, mu_ij in js:
            for krow, col in zip(K, Rj):
                if any(col):
                    krow[:] = [x + sum(map(mul, mu_ij[p:], col)) for p, x in enumerate(krow)]
        for orow, srow in zip(out, Si):
            if any(srow):
                orow[:] = [x + sum(map(mul, srow, kcol)) for x, kcol in zip(orow, K)]
    P = PolyCopula.__new__(PolyCopula)
    P._init(out, da**mx * q * db**my)
    return P
