"""One-parameter families t -> C_t of copulas on t in [0, 1].

A family supplies the inner copula used by the generalized star
product. Three shapes are supported:

* ``PiecewiseConstantFamily``: finitely many members on left-closed,
  right-open pieces [t_{i-1}, t_i); t = 1 belongs to the last piece.
* ``ConstantFamily``: the same copula for every t, the one-piece
  ``PiecewiseConstantFamily``. ``const(C)`` and ``pw(: C)`` give
  bit-identical products, and each prints as written.
* ``FGMCurveFamily``: FGM copulas with a polynomial parameter curve
  theta(t), clipped into [-1, 1].

``member_at(t)`` checks that t lies in [0, 1] for every family. The
product integrates t -> C_t(x, y), so the family must be measurable in
t. The library knows this only of the families it builds: ``pw`` and
``const`` are piecewise constant in t, and ``fgmcurve`` is continuous in
t. For a user subclass of ``CopulaFamily`` it is the caller's claim.
"""

from __future__ import annotations

import numpy as np

from .copulas import (
    ConstructionError,
    Copula,
    DomainError,
    FGMCopula,
    _fgm_cdf,
    _lattice,
    _maybe_scalar,
    _unit,
)

__all__ = [
    "CopulaFamily",
    "ConstantFamily",
    "PiecewiseConstantFamily",
    "FGMCurveFamily",
    "ae_equal",
    "family_integral",
    "midpoint_fgm_approximation",
]

AE_EQUAL_TOL = 1e-12


class CopulaFamily:
    """Abstract measurable family of copulas indexed by t in [0, 1]."""

    # degree in t of the members' parameter between breakpoints; 0 means
    # the family is constant there
    theta_degree = 0

    def member_at(self, t: float) -> Copula:
        """The copula C_t."""
        raise NotImplementedError

    def eval_grid(self, ts, x, y):
        """C_{ts[k]}(x[k, :], y[k, :]) for a batch of rows.

        ts has shape (k,); x and y broadcast to (k, m). Used by the
        quadrature engine; no domain checks. Every member is grounded:
        the value is exactly 0 (+0.0 or -0.0) wherever x or y is 0, as
        ``_cdf(0, y)`` and ``_cdf(x, 0)`` are (see ``Copula``).
        """
        raise NotImplementedError

    def breakpoints(self):
        """Interior t-values where t -> C_t(x, y) may jump or kink."""
        return ()

    def eval(self, t, x, y):
        """C_t(x, y) with domain checks; scalars or arrays."""
        tt = _unit(t, "t")
        xx = _unit(x, "x")
        yy = _unit(y, "y")
        tt, xx, yy = np.broadcast_arrays(np.atleast_1d(tt), xx, yy)
        out = self.eval_grid(tt.reshape(-1), xx.reshape(-1, 1), yy.reshape(-1, 1))
        out = out.reshape(tt.shape)
        if np.ndim(t) == 0 and np.ndim(x) == 0 and np.ndim(y) == 0:
            return float(out.reshape(()))
        return _maybe_scalar(out, t, x, y)


class PiecewiseConstantFamily(CopulaFamily):
    """Finitely many copulas on right-open pieces of [0, 1].

    cuts may be given with or without the 0 and 1 endpoints; members has
    one copula per piece. Member i rules [cuts[i], cuts[i+1]), the last
    piece also owns t = 1.
    """

    def __init__(self, cuts, members):
        members = tuple(members)
        if not members:
            raise ConstructionError("need at least one member")
        for m in members:
            if not isinstance(m, Copula):
                raise ConstructionError(f"members must be Copulas, got {m!r}")
        cuts = tuple(float(c) for c in cuts)
        if not (cuts and cuts[0] == 0.0 and cuts[-1] == 1.0):
            # interior-only form, () included
            cuts = (0.0,) + cuts + (1.0,)
        if len(cuts) != len(members) + 1:
            raise ConstructionError(
                f"{len(members)} members need {len(members) + 1} cuts "
                f"(with endpoints), got {len(cuts)}"
            )
        # NaN fails the comparison, so a NaN cut is rejected too
        if any(not b > a for a, b in zip(cuts, cuts[1:])):
            raise ConstructionError(f"cuts must increase strictly, got {cuts}")
        self.cuts = cuts
        self.members = members
        self._interior = np.asarray(cuts[1:-1])

    def _index(self, ts):
        # right-continuous selection; t = 1 falls in the last piece
        return np.searchsorted(self._interior, ts, side="right")

    def member_at(self, t):
        t = float(_unit(t, "t"))
        return self.members[int(self._index(t))]

    def eval_grid(self, ts, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        out = np.empty(np.broadcast_shapes((len(ts), 1), x.shape, y.shape))
        idx = self._index(np.asarray(ts))
        for k, member in enumerate(self.members):
            mask = idx == k
            if mask.any():
                # pick rows only from inputs with one row per t, so a
                # (1, m) row or an (n, 1) column is never expanded
                xm = x[mask] if x.ndim == 2 and x.shape[0] == mask.size else x
                ym = y[mask] if y.ndim == 2 and y.shape[0] == mask.size else y
                out[mask] = member._cdf(xm, ym)
        return out

    def breakpoints(self):
        return tuple(self.cuts[1:-1])

    def __repr__(self):
        return f"<{type(self).__name__} cuts={self.cuts} members={self.members!r}>"


class ConstantFamily(PiecewiseConstantFamily):
    """C_t = member for all t: the one-piece ``PiecewiseConstantFamily``."""

    def __init__(self, member: Copula):
        super().__init__((), (member,))
        self.member = member

    def eval_grid(self, ts, x, y):
        # the whole batch goes to the one member, with no row masks
        x, y = np.broadcast_arrays(x, y)
        out = self.member._cdf(x, y)
        if out.shape[0] != len(ts):
            out = np.broadcast_to(out, (len(ts),) + out.shape[1:]).copy()
        return out


class FGMCurveFamily(CopulaFamily):
    """FGM members with theta(t) = clip(polynomial(t), -1, 1).

    coeffs are polynomial coefficients in increasing degree order, so
    coeffs=(a, b, c) means theta(t) = a + b t + c t^2 before clipping.
    """

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ConstructionError("need at least one polynomial coefficient")
        if any(np.isnan(c) or np.isinf(c) for c in coeffs):
            raise ConstructionError(f"coefficients must be finite, got {coeffs}")
        self.coeffs = coeffs

    @property
    def theta_degree(self):
        return len(self.coeffs) - 1

    def theta(self, t):
        """Clipped parameter value(s) at t."""
        t = np.asarray(t, float)
        # a raw value past the float range is +-inf, which clips to +-1
        with np.errstate(over="ignore"):
            raw = np.polynomial.polynomial.polyval(t, self.coeffs)
        return np.clip(raw, -1.0, 1.0)

    def member_at(self, t):
        t = float(_unit(t, "t"))
        return FGMCopula(float(self.theta(t)))

    def eval_grid(self, ts, x, y):
        return _fgm_cdf(self.theta(np.asarray(ts)).reshape(-1, 1), x, y)

    def breakpoints(self):
        """Where the raw theta(t) crosses -1 or 1 in (0, 1): where
        clipping kicks in. Found in float arithmetic (``_crossings``),
        with no LAPACK call, so the cuts have the same bits on every
        machine."""
        pts = set()
        for level in (-1.0, 1.0):
            shifted = list(self.coeffs)
            shifted[0] -= level
            pts.update(_crossings(shifted))
        return tuple(sorted(pts))

    def __repr__(self):
        return f"<FGMCurveFamily coeffs={self.coeffs}>"


def _exact_value(c, t):
    """The polynomial with coefficients c (increasing degree) at t,
    exactly, as (numerator, denominator > 0): floats are dyadic
    rationals, so Horner's rule runs in integers."""
    n, d = t.as_integer_ratio()
    num, den = 0, 1
    for a in reversed(c):
        an, ad = a.as_integer_ratio()
        num, den = num * n * ad + an * den * d, den * d * ad
    return num, den


def _bisect(c, lo, hi):
    """The float nearest the sign change of c between lo and hi, whose
    values have strict opposite signs: bisected on exact signs until
    the two are adjacent floats, then the one with the smaller exact
    |c|, lo on a tie."""
    negative = _exact_value(c, lo)[0] < 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            (p, q), (r, s) = _exact_value(c, lo), _exact_value(c, hi)
            return lo if abs(p) * s <= abs(r) * q else hi
        f = _exact_value(c, mid)[0]
        if f == 0:
            return mid
        if (f < 0) == negative:
            lo = mid
        else:
            hi = mid


def _crossings(c):
    """The t in (0, 1) where the polynomial with coefficients c
    (increasing degree) changes sign, in increasing order.

    Degree 1 is the quotient -c0/c1. Above, the crossings of the
    derivative split [0, 1] into pieces on which c is monotone, and a
    piece whose ends have strict opposite signs holds one crossing,
    found by bisection (``_bisect``); an exact zero at a piece end
    counts when the signs around it differ. Signs are exact, so the
    result has the same bits everywhere, and it is the float nearest
    the crossing. Touching roots, without a sign change, are left out.
    """
    c = list(c)
    while c and c[-1] == 0.0:
        c.pop()
    if len(c) < 2:
        return []
    if len(c) == 2:
        r = -c[0] / c[1]
        return [r] if 0.0 < r < 1.0 else []
    knots = [0.0] + _crossings([k * c[k] for k in range(1, len(c))]) + [1.0]
    signs = [(v > 0) - (v < 0) for v, _ in (_exact_value(c, t) for t in knots)]
    out = []
    for i in range(len(knots) - 1):
        if signs[i] == 0 and 0 < i and signs[i - 1] * signs[i + 1] < 0:
            out.append(knots[i])
        elif signs[i] * signs[i + 1] < 0:
            out.append(_bisect(c, knots[i], knots[i + 1]))
    return [t for t in out if 0.0 < t < 1.0]


def _refined_samples(F: CopulaFamily, G: CopulaFamily):
    """d + 1 evenly spaced t inside each interval of the common cut
    refinement, d the larger theta degree, plus t = 1."""
    cuts = sorted(set((0.0, 1.0)) | set(F.breakpoints()) | set(G.breakpoints()))
    a, b = np.asarray(cuts[:-1])[:, None], np.asarray(cuts[1:])[:, None]
    d = max(F.theta_degree, G.theta_degree)
    k = np.arange(1, d + 2)
    return np.append((a * (d + 2 - k) + b * k) / (d + 2), 1.0)


def ae_equal(F: CopulaFamily, G: CopulaFamily, lattice: int = 32) -> bool:
    """Whether C^F_t == C^G_t off a null set of t.

    Samples d + 1 t's per interval of the common breakpoint refinement,
    where d is the larger theta degree of the two families (plus t=1),
    and compares members on a uniform (lattice+1)^2 grid to 1e-12.
    Between breakpoints both parameters are polynomials of degree at
    most d, so d + 1 equal samples make them equal on the whole
    interval, and jumps at cuts cannot hide.
    """
    g = _lattice(lattice)
    xg = np.tile(g, g.size).reshape(1, -1)
    y = np.repeat(g, g.size).reshape(1, -1)
    ts = _refined_samples(F, G)
    a = F.eval_grid(ts, xg, y)
    b = G.eval_grid(ts, xg, y)
    return bool(np.abs(a - b).max() <= AE_EQUAL_TOL)


def family_integral(F: CopulaFamily, x, y):
    """integral over t in [0,1] of C_t(x, y) dt.

    Exact interval-weighted sums for piecewise families, constant ones
    included.
    For parameter curves the member is FGM with the mean of theta, an
    exact sum of polynomial moments between the clip points, rounded
    once. No quadrature runs.
    """
    xx = _unit(x, "x")
    yy = _unit(y, "y")
    if isinstance(F, PiecewiseConstantFamily):
        out = 0.0
        for k, member in enumerate(F.members):
            w = F.cuts[k + 1] - F.cuts[k]
            out = out + w * member._cdf(xx, yy)
        return _maybe_scalar(out, x, y)
    if isinstance(F, FGMCurveFamily):
        from .poly import _fgm_curve_pieces, _moments

        mean, den = _moments(_fgm_curve_pieces(F), 1)
        # int / int is correctly rounded
        return _maybe_scalar(_fgm_cdf(int(mean[0]) / den, xx, yy), x, y)
    raise ConstructionError(f"unsupported family {type(F).__name__}")


def midpoint_fgm_approximation(curve: FGMCurveFamily, pieces: int) -> PiecewiseConstantFamily:
    """Piecewise-constant approximation of an FGM parameter curve.

    Splits [0, 1] into ``pieces`` equal intervals and freezes theta at
    each midpoint.
    """
    cuts = _lattice(pieces)
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    members = [FGMCopula(float(curve.theta(m))) for m in mids]
    return PiecewiseConstantFamily(tuple(cuts), members)
