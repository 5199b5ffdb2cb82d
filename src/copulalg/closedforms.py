"""Copulas that closed-form star products return.

``ShuffleStarProduct`` is a shuffle of M times any copula, and
``WRightProduct`` any copula times W (transposed, W times any copula).
Both evaluate the product from the other factor's cdf, and give exact
partials and breakpoint hints from its partials and hints, so that the
product can itself be a factor of a quadrature product. Each records
its own factors as ``source``, as every product copula does.
"""

from __future__ import annotations

import numpy as np

from .copulas import ConstructionError, Copula, ShuffleOfM, W

__all__ = ["ShuffleStarProduct", "WRightProduct"]


class ShuffleStarProduct(Copula):
    """(S * C) for a shuffle S: a finite sum of C-increments.

    The u-section of S carries slope 1 on finitely many t-intervals
    (lo_i(u), hi_i(u)), so the product integral collapses to
    sum_i C(hi_i, v) - C(lo_i, v).

    Its partials follow from C's, so the product can itself be a factor
    of a quadrature product. d/dv is the same sum over C's d/dv. d/du
    adds, in piece order, C's d/du at the moving end of every piece
    whose u-strip holds u: [s_i, s_i + w_i), or (s_i, s_i + w_i] at
    u = 1. The moving end runs backwards on a flipped piece, so there
    the right-hand slope in u is C's left-hand slope; the two differ
    only at C's breakpoints carried through the piece, a null set that
    the hints list, where this takes C's right-hand slope.
    """

    def __init__(self, S: ShuffleOfM, C: Copula):
        if not isinstance(S, ShuffleOfM):
            raise ConstructionError(f"left factor must be a shuffle, got {S!r}")
        self.S = S
        self.C = C
        self.source = (S, None, C)

    def _ends(self, u):
        """(lo, hi) of each piece in turn, for the u-sections ``u``
        (``ShuffleOfM._section``): one piece's arrays at a time."""
        for i in range(self.S.n_pieces):
            yield self.S._section(u, i)[1:]

    def _increments(self, inner, u, v):
        """sum_i inner(hi_i, v) - inner(lo_i, v), added in piece order."""
        u, v = np.asarray(u, float), np.asarray(v, float)
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
        for lo, hi in self._ends(u):
            out += inner(hi, v) - inner(lo, v)
        return out

    def _cdf(self, u, v):
        # u and v as given: a shuffle C shares its running sum between the
        # points with the same v
        return np.clip(self._increments(self.C._cdf, u, v), 0.0, 1.0)

    def _d2(self, u, v):
        return self._increments(self.C._d2, u, v)

    def _d1(self, u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        S = self.S
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
        at_one = u == 1.0
        for i, (lo, hi) in enumerate(self._ends(u)):
            a = u - S._s0[i]
            w = S._w[i]
            inside = np.where(at_one, (a > 0.0) & (a <= w), (a >= 0.0) & (a < w))
            out += np.where(inside, self.C._d1(lo if S._flip[i] else hi, v), 0.0)
        return out

    def d2_breakpoints(self, u):
        # C's breakpoints at both ends of every piece the u-section
        # reaches, NaN at the ends of the others
        c, lo, hi = self.S._sections(u)
        ends = np.concatenate((lo, hi), axis=1)
        reached = np.concatenate((c, c), axis=1).reshape(-1, 1) > 0.0
        hints = np.where(reached, self.C.d2_breakpoints(ends), np.nan)
        return hints.reshape(len(c), ends.shape[1] * hints.shape[1])

    def d1_breakpoints(self, v):
        # the strip edges, and C's breakpoints in its first argument
        # carried back through every piece whose image holds them, NaN
        # through the others
        S = self.S
        x = self.C.d1_breakpoints(v)[..., None]
        t = np.where(S._flip, S._s0 + (S._t1 - x), S._s0 + (x - S._t0))
        held = (S._t0 <= x) & (x <= S._t1)
        carried = np.where(held, t, np.nan).reshape(len(x), t.shape[1] * t.shape[2])
        edges = np.broadcast_to(S._s0[1:], (len(x), S.n_pieces - 1))
        return np.concatenate((edges, carried), axis=1)

    def __repr__(self):
        return f"<ShuffleStarProduct S={self.S!r} C={self.C!r}>"


class WRightProduct(Copula):
    """(A * W)(u, v) = u - A(u, 1 - v); W reverses the second law.

    Transposed around B^T it gives the left form, (W * B)(u, v) =
    v - B(1 - u, v).

    Partials: d/du is 1 - A's d/du at (u, 1 - v), right-hand as A's.
    d/dv is A's d/dv at (u, 1 - v); a right-hand slope in v is a
    left-hand one in A's second argument, and the two differ only at
    A's breakpoints, reflected in the hints, where this takes A's
    right-hand slope. At v = 0 and v = 1 A's conventions give the
    right side.
    """

    def __init__(self, A: Copula):
        self.A = A
        self.source = (A, None, W)

    def _cdf(self, u, v):
        # u and v as given, as in ShuffleStarProduct._cdf
        u = np.asarray(u, float)
        return np.clip(u - self.A._cdf(u, 1.0 - np.asarray(v, float)), 0.0, 1.0)

    def _d1(self, u, v):
        out = np.asarray(self.A._d1(u, 1.0 - np.asarray(v, float)))
        return np.subtract(1.0, out, out=out)

    def _d2(self, u, v):
        return self.A._d2(u, 1.0 - np.asarray(v, float))

    def d2_breakpoints(self, u):
        return 1.0 - self.A.d2_breakpoints(u)

    def d1_breakpoints(self, v):
        return self.A.d1_breakpoints(1.0 - np.asarray(v, float))

    def __repr__(self):
        return f"<WRightProduct A={self.A!r}>"
