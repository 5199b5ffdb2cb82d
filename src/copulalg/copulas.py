"""Bivariate copulas with exact evaluators and a.e. partial derivatives.

Provides the Frechet bounds M and W, the independence copula Pi, the
one-parameter FGM family, shuffles of M (including straight shuffles),
checkerboard/grid copulas with CSV round-trip, transposition, and the
numerical utilities built on top of pointwise evaluation: rectangle
volumes, sup-distance on a lattice, discretization to a grid copula,
and a validation report (boundary conditions plus 2-increasingness).

Derivative convention: ``partial1``/``partial2`` return the one-sided
(right-hand) a.e. derivative in the differentiated variable, switching
to the left-hand derivative at the value 1, clamped into [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "CopulaError",
    "DomainError",
    "ConstructionError",
    "FormatError",
    "Copula",
    "FrechetM",
    "FrechetW",
    "ProductPi",
    "FGMCopula",
    "ShuffleOfM",
    "StraightShuffle",
    "TransposedCopula",
    "GridCopula",
    "Rectangle",
    "Segment",
    "ValidationReport",
    "M",
    "W",
    "PI",
    "shuffle_from_grid",
    "grid_from_copula",
    "sup_distance",
    "sup_distance_witness",
    "validate",
    "fd_partial1",
    "fd_partial2",
    "read_grid_csv",
    "write_grid_csv",
]

# Finite-difference step for copulas without an analytic derivative.
FD_STEP = 1e-5

# Tolerances for constructor-level mass checks on grid copulas.
GRID_MARGIN_TOL = 1e-10
CSV_MARGIN_TOL = 1e-6
SINKHORN_TOL = 1e-13


class CopulaError(Exception):
    """Base class for errors raised by this package."""


class DomainError(CopulaError, ValueError):
    """An argument left the unit interval or unit square."""


class ConstructionError(CopulaError, ValueError):
    """Parameters do not define a valid copula object."""


class FormatError(CopulaError, ValueError):
    """A serialized grid copula is malformed or inconsistent."""


def _unit(x, name: str):
    """Coerce to a float array and check it lies in [0, 1]."""
    a = np.asarray(x, dtype=float)
    if a.size and (np.any(np.isnan(a)) or a.min() < 0.0 or a.max() > 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {x!r}")
    return a


def _result(u, v):
    """An uninitialized float array of the broadcast shape of u and v."""
    return np.empty(np.broadcast_shapes(np.shape(u), np.shape(v)))


def _maybe_scalar(out, *inputs):
    if all(np.isscalar(x) or np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


@dataclass(frozen=True)
class Rectangle:
    """Axis-parallel rectangle [x1, x2] x [y1, y2] inside the unit square."""

    x1: float
    x2: float
    y1: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "x2", "y1", "y2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0) or math.isnan(v):
                raise DomainError(f"rectangle coordinate {name}={v!r} outside [0, 1]")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise DomainError(
                f"rectangle must satisfy x1 <= x2 and y1 <= y2, "
                f"got ({self.x1}, {self.x2}, {self.y1}, {self.y2})"
            )


@dataclass(frozen=True)
class Segment:
    """Closed line segment from (x0, y0) to (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the numerical copula axioms check.

    max_boundary_error is the largest deviation from C(u,0)=C(0,v)=0,
    C(u,1)=u, C(1,v)=v over the lattice edge; min_volume is the most
    negative cell volume found (2-increasingness wants it >= 0 up to
    rounding); max_lipschitz_excess measures violations of the
    1-Lipschitz property along lattice rows and columns.
    """

    passed: bool
    max_boundary_error: float
    min_volume: float
    max_lipschitz_excess: float
    lattice: int
    tol: float


class Copula:
    """Abstract bivariate copula.

    Subclasses implement ``_cdf`` (vectorized, no domain checks) and may
    override ``_d1``/``_d2`` with analytic a.e. derivatives. The public
    methods validate domains and accept scalars or arrays.

    Kernel contract: ``_d1``/``_d2`` take broadcastable arrays that have
    not been broadcast, for instance a (1, 1) cell against (k, 1)
    nodes, and use elementwise arithmetic only, so a value's bits do
    not depend on the shape it is evaluated in. They return a new float
    array of the broadcast shape, never a view of an argument, which
    the quadrature clips and multiplies into in place. A kernel
    allocates that one result array and finishes it with in-place
    ufuncs; its other temporaries have an argument's shape, except one
    reused boolean mask in a shuffle and one gathered term in a grid.

    Groundedness contract: ``_cdf(0, y)`` and ``_cdf(x, 0)`` are exactly
    0 (+0.0 or -0.0) for every x, y in [0, 1]. The quadrature relies on
    it to skip the t-segments where a grouped conditional is 0.

    Exchangeable copulas, C(u, v) = C(v, u) as M, W, Pi and FGM, have
    dC/du (u, v) = dC/dv (v, u) exactly: they write ``_d2`` and
    ``d2_breakpoints`` once, take ``_d1`` and ``d1_breakpoints`` from
    them with the arguments swapped, and are their own transpose.

    Breakpoint contract: ``d2_breakpoints(u)`` takes a scalar or an
    array of coordinates u and returns one flat float array holding,
    for every given u, the t-values where t -> partial2(u, t) may jump
    or kink; ``d1_breakpoints(v)`` does the same for t -> partial1(t, v).
    Duplicates are allowed and the order is free: the quadrature sorts
    them and keeps each value once. An empty array means smooth conditionals.

    Degree contract: ``conditional_degree`` is the degree in t of both
    conditionals, t -> ``_d2(u, t)`` and t -> ``_d1(t, v)``, between
    their hints, or None when it is not declared. 0 promises what the
    float kernel does, not only the exact function: every t at which
    the kernel's value changes lies within a few multiples of 2**-53
    of a hint of that coordinate, so the kernel returns the same bits
    at all t between two hints that are farther than that from both.
    The quadrature then evaluates the conditional once per segment.
    """

    left_invertible = False
    right_invertible = False
    conditional_degree = None

    def _cdf(self, u, v):
        raise NotImplementedError

    def _d1(self, u, v):
        # default: central finite differences through the evaluator
        return fd_partial1(self, u, v)

    def _d2(self, u, v):
        return fd_partial2(self, u, v)

    def eval(self, u, v):
        """C(u, v) for u, v in [0, 1]; scalars or broadcastable arrays."""
        uu = _unit(u, "u")
        vv = _unit(v, "v")
        return _maybe_scalar(self._cdf(uu, vv), u, v)

    def __call__(self, u, v):
        return self.eval(u, v)

    def volume(self, rect: Rectangle) -> float:
        """C-volume of ``rect``; nonnegative up to rounding for a copula."""
        c = self._cdf
        return float(
            c(np.float64(rect.x2), np.float64(rect.y2))
            - c(np.float64(rect.x2), np.float64(rect.y1))
            - c(np.float64(rect.x1), np.float64(rect.y2))
            + c(np.float64(rect.x1), np.float64(rect.y1))
        )

    def _partial(self, kernel, u, v):
        out = np.clip(kernel(_unit(u, "u"), _unit(v, "v")), 0.0, 1.0)
        return _maybe_scalar(out, u, v)

    def partial1(self, u, v):
        """a.e. derivative of C in the first argument, clamped to [0, 1]."""
        return self._partial(self._d1, u, v)

    def partial2(self, u, v):
        """a.e. derivative of C in the second argument, clamped to [0, 1]."""
        return self._partial(self._d2, u, v)

    def transpose(self) -> "Copula":
        """The copula (u, v) -> C(v, u)."""
        return TransposedCopula(self)

    def d2_breakpoints(self, u):
        return np.empty(0)

    def d1_breakpoints(self, v):
        return np.empty(0)

    def __repr__(self):
        return f"<{type(self).__name__}>"


class _Exchangeable(Copula):
    """A copula with C(u, v) = C(v, u); see the ``Copula`` docstring."""

    def _d1(self, u, v):
        return self._d2(v, u)

    def d1_breakpoints(self, v):
        return self.d2_breakpoints(v)

    def transpose(self):
        return self


class FrechetM(_Exchangeable):
    """Upper Frechet bound M(u, v) = min(u, v), the comonotone copula."""

    left_invertible = True
    right_invertible = True
    # _d2 is the flag v < u, which changes exactly at the hint t = u, and
    # takes its other branch only at v = 1, the end of the unit interval
    conditional_degree = 0

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _d2(self, u, v):
        # right-hand slope is 1 strictly below u; left-hand at v=1 needs
        # v <= u, which there is u >= 1
        u, v = np.asarray(u, float), np.asarray(v, float)
        out = np.less(v, u, out=_result(u, v))
        return np.greater_equal(u, 1.0, out=out, where=v == 1.0)

    def d2_breakpoints(self, u):
        return np.ravel(u).astype(float)


class FrechetW(_Exchangeable):
    """Lower Frechet bound W(u, v) = max(u + v - 1, 0), countermonotone."""

    left_invertible = True
    right_invertible = True
    # _d2 is the flag fl(u + v) >= 1, which changes within 2**-53 of
    # 1 - u, so within 2**-52 of the hint fl(1 - u), and takes its other
    # branch only at v = 1
    conditional_degree = 0

    def _cdf(self, u, v):
        return np.maximum(u + v - 1.0, 0.0)

    def _d2(self, u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        # slope 1 on v > 1-u (right-hand includes equality), at v=1 needs u > 0
        out = np.add(u, v, out=_result(u, v))
        np.greater_equal(out, 1.0, out=out)
        return np.greater(u, 0.0, out=out, where=v == 1.0)

    def d2_breakpoints(self, u):
        return 1.0 - np.ravel(u)


class ProductPi(_Exchangeable):
    """Independence copula Pi(u, v) = u v."""

    # _d2 is a copy of u, whatever t is
    conditional_degree = 0

    def _cdf(self, u, v):
        return u * v

    def _d2(self, u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        return np.broadcast_to(u, np.broadcast_shapes(u.shape, v.shape)).copy()


def _fgm_cdf(theta, u, v):
    """The FGM cdf u v (1 + theta (1 - u)(1 - v)), in the one operation
    order that the copula, a curve family's members and its mean share."""
    return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))


class FGMCopula(_Exchangeable):
    """Farlie-Gumbel-Morgenstern copula.

    C(u, v) = u v + theta u v (1 - u)(1 - v) with theta in [-1, 1].
    theta = 0 gives Pi. The density 1 + theta (1 - 2u)(1 - 2v) is
    bounded, so both partials are smooth polynomials.
    """

    def __init__(self, theta: float):
        theta = float(theta)
        if math.isnan(theta) or not -1.0 <= theta <= 1.0:
            raise ConstructionError(f"FGM parameter must lie in [-1, 1], got {theta}")
        self.theta = theta

    def _cdf(self, u, v):
        return _fgm_cdf(self.theta, u, v)

    # the last product is the first of the broadcast shape; the sum with
    # u is added into it
    def _d2(self, u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        out = self.theta * u * (1.0 - u) * (1.0 - 2.0 * v)
        out += u
        return out

    def __repr__(self):
        return f"<FGMCopula theta={self.theta}>"


class ShuffleOfM(Copula):
    """Shuffle of M: the unit square is cut vertically, the strips are
    permuted, and mass is spread uniformly along the diagonal (or
    antidiagonal, per flip flag) of each relocated strip.

    Parameters
    ----------
    cuts : increasing sequence starting at 0 and ending at 1; the
        vertical cut points.
    sigma : permutation of 1..n; strip i of the source lands in slot
        sigma[i-1] of the target.
    flips : n booleans; True reverses strip i (antidiagonal support).
    """

    left_invertible = True
    right_invertible = True
    # each piece of _d2 adds a 0/1 flag, with c = a clipped into [0, w].
    # Unflipped, of b = fl(t - t0): b >= 0 changes exactly at lo = t0 (a
    # float difference has the sign of the exact one), b < w next to
    # t1 = fl(t0 + w) and b < a next to hi = fl(t0 + c); b < a only counts
    # for 0 <= b < w, so one of the two is the hint hi. Flipped, of
    # d = fl(t1 - t): d > 0 changes exactly at hi = t1, d <= c next to
    # lo = fl(t1 - c). The v = 1 branch is the end of the interval, and
    # _d1 is the transpose's _d2, with the transpose's hints
    conditional_degree = 0

    def __init__(self, cuts, sigma, flips=None):
        cuts = tuple(float(c) for c in cuts)
        if len(cuts) < 2 or cuts[0] != 0.0 or cuts[-1] != 1.0:
            raise ConstructionError(f"cuts must run from 0 to 1, got {cuts}")
        widths = np.diff(cuts)
        # NaN fails the comparison, so a NaN cut is rejected too
        if not np.all(widths > 0.0):
            raise ConstructionError(f"cuts must be strictly increasing, got {cuts}")
        n = len(cuts) - 1
        sigma = tuple(int(s) for s in sigma)
        if sorted(sigma) != list(range(1, n + 1)):
            raise ConstructionError(
                f"sigma must be a permutation of 1..{n}, got {sigma}"
            )
        if flips is None:
            flips = (False,) * n
        flips = tuple(bool(f) for f in flips)
        if len(flips) != n:
            raise ConstructionError(f"need {n} flip flags, got {len(flips)}")

        self.cuts = cuts
        self.sigma = sigma
        self.flips = flips
        self.n_pieces = n

        # target cut j is the total width of strips landing in slots <= j;
        # _inv[j] is the strip that lands in slot j
        self._inv = np.argsort(sigma)
        tcuts = np.concatenate(([0.0], np.cumsum(widths[self._inv])))
        tcuts[-1] = 1.0

        self._s0 = np.asarray(cuts[:-1])
        self._w = widths
        self._t0 = tcuts[np.asarray(sigma) - 1]
        self._t1 = self._t0 + widths
        self._flip = np.asarray(flips, dtype=bool)
        self._tcuts = tcuts
        self._transposed = None

    def _cdf(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros_like(u, dtype=float)
        # one piece at a time, in piece order: a point's sum is the same
        # whichever points are evaluated with it
        for i in range(self.n_pieces):
            s0, w = self._s0[i], self._w[i]
            t0, t1 = self._t0[i], self._t1[i]
            a = u - s0
            if self._flip[i]:
                out += np.maximum(
                    np.minimum(a, w) - np.maximum(t1 - v, 0.0), 0.0
                )
            else:
                out += np.clip(np.minimum(a, v - t0), 0.0, w)
        return out

    def _d2(self, u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
        hit = np.empty(out.shape, dtype=bool)
        at_one = v == 1.0
        for i in range(self.n_pieces):
            s0, w = self._s0[i], self._w[i]
            t0, t1 = self._t0[i], self._t1[i]
            a = u - s0
            # a piece has slope 1 where its right-hand conditions hold,
            # its left-hand ones at v = 1; those on v alone are selected
            # on v's shape, the rest are written into one reused mask
            if self._flip[i]:
                d = t1 - v
                c = np.clip(a, 0.0, w)
                near = np.where(at_one, d >= 0.0, d > 0.0)
                np.less_equal(d, c, out=hit)
                np.less(d, c, out=hit, where=at_one)
            else:
                b = v - t0
                near = np.where(at_one, (b > 0.0) & (b <= w), (b >= 0.0) & (b < w))
                np.less(b, a, out=hit)
                np.less_equal(b, a, out=hit, where=at_one)
            hit &= near
            out += hit
        return out

    def _d1(self, u, v):
        return self.transpose()._d2(v, u)

    def transpose(self):
        """Transpose of a shuffle is a shuffle (reflect the support)."""
        if self._transposed is None:
            t = self._transposed_copy()
            t._transposed = self
            self._transposed = t
        return self._transposed

    def _transposed_copy(self):
        return ShuffleOfM(self._tcuts, self._inv + 1, self._flip[self._inv])

    def support_segments(self):
        """Diagonal support segments, one per piece, left to right."""
        segs = []
        for i in range(self.n_pieces):
            s0, s1 = self._s0[i], self._s0[i] + self._w[i]
            t0, t1 = self._t0[i], self._t1[i]
            if self._flip[i]:
                segs.append(Segment(float(s0), float(t1), float(s1), float(t0)))
            else:
                segs.append(Segment(float(s0), float(t0), float(s1), float(t1)))
        return tuple(segs)

    def _section(self, u, i):
        """(c, lo, hi) of piece i, or of the pieces a slice i selects,
        broadcast against u: c is the width of the part of strip i left
        of u, and the u-section of piece i has slope 1 on the t-interval
        [lo, hi]."""
        c = np.clip(u - self._s0[i], 0.0, self._w[i])
        lo = np.where(self._flip[i], self._t1[i] - c, self._t0[i])
        hi = np.where(self._flip[i], self._t1[i], self._t0[i] + c)
        return c, lo, hi

    def _sections(self, u):
        """(c, lo, hi) of every piece, one row per u and one column per
        piece (``_section``)."""
        return self._section(np.reshape(u, (-1, 1)), slice(None))

    def d2_breakpoints(self, u):
        # each piece's conditional is 1 on a t-interval [lo, hi] per u
        _, lo, hi = self._sections(u)
        return np.concatenate((lo, hi), axis=None)

    def d1_breakpoints(self, v):
        return self.transpose().d2_breakpoints(v)

    def __repr__(self):
        return (
            f"<ShuffleOfM cuts={self.cuts} sigma={self.sigma} "
            f"flips={tuple(int(f) for f in self.flips)}>"
        )


class StraightShuffle(ShuffleOfM):
    """Straight shuffle: swap the two strips [0, 1-alpha] and [1-alpha, 1]
    without reflection. alpha in {0, 1} degenerates to M.
    """

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if math.isnan(alpha) or not 0.0 <= alpha <= 1.0:
            raise ConstructionError(f"alpha must lie in [0, 1], got {alpha}")
        self.alpha = alpha
        if alpha in (0.0, 1.0):
            super().__init__((0.0, 1.0), (1,), (False,))
        else:
            super().__init__((0.0, 1.0 - alpha, 1.0), (2, 1), (False, False))

    def _transposed_copy(self):
        return StraightShuffle(1.0 - self.alpha)

    def __repr__(self):
        return f"<StraightShuffle alpha={self.alpha}>"


class TransposedCopula(Copula):
    """Lazy transpose wrapper: C^T(u, v) = C(v, u)."""

    def __init__(self, inner: Copula):
        self.inner = inner
        self.left_invertible = inner.right_invertible
        self.right_invertible = inner.left_invertible

    def _cdf(self, u, v):
        return self.inner._cdf(v, u)

    def _d1(self, u, v):
        return self.inner._d2(v, u)

    def _d2(self, u, v):
        return self.inner._d1(v, u)

    def transpose(self):
        return self.inner

    def d2_breakpoints(self, u):
        return self.inner.d1_breakpoints(u)

    def d1_breakpoints(self, v):
        return self.inner.d2_breakpoints(v)

    def __repr__(self):
        return f"<TransposedCopula of {self.inner!r}>"


class GridCopula(Copula):
    """Checkerboard copula from an N x N mass matrix.

    mass[i][j] is the probability of cell [i/N, (i+1)/N] x [j/N, (j+1)/N]
    spread uniformly; both marginals of each row/column band must equal
    1/N. Evaluation is the bilinear interpolant of the cumulative mass,
    which is exactly the checkerboard cdf.
    """

    # both partials read t only through its cell index int(fl(t n)),
    # which steps within an ulp of the hints fl(k / n)
    conditional_degree = 0

    def __init__(self, mass):
        m = np.array(mass, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ConstructionError(f"mass must be square, got shape {m.shape}")
        if np.any(np.isnan(m)) or m.min() < -1e-12:
            raise ConstructionError("mass entries must be nonnegative")
        m[m < 0.0] = 0.0
        n = m.shape[0]
        rows = m.sum(axis=1)
        cols = m.sum(axis=0)
        err = max(np.abs(rows - 1.0 / n).max(), np.abs(cols - 1.0 / n).max())
        if err > GRID_MARGIN_TOL:
            raise ConstructionError(
                f"marginals deviate from 1/{n} by {err:.3e} (tol {GRID_MARGIN_TOL})"
            )
        self.n = n
        self.mass = m
        # cumulative H[i, j] = C(i/n, j/n)
        h = np.zeros((n + 1, n + 1))
        h[1:, 1:] = m.cumsum(axis=0).cumsum(axis=1)
        self._h = h

    def _cell(self, x):
        # cell index and offset; the top cell keeps x = 1 (left-hand at 1)
        n = self.n
        i = np.clip((x * n).astype(int), 0, n - 1)
        return i, x * n - i

    def _cdf(self, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        iu, fu = self._cell(u)
        iv, fv = self._cell(v)
        h = self._h
        return (
            h[iu, iv] * (1 - fu) * (1 - fv)
            + h[iu + 1, iv] * fu * (1 - fv)
            + h[iu, iv + 1] * (1 - fu) * fv
            + h[iu + 1, iv + 1] * fu * fv
        )

    # steps of the cumulative mass, h[i + 1, j] - h[i, j] and, transposed
    # so that both are indexed [fixed, free], h[i, j + 1] - h[i, j]; made
    # when a partial is first asked for
    @cached_property
    def _steps_u(self):
        return self._h[1:] - self._h[:-1]

    @cached_property
    def _steps_v(self):
        return (self._h[:, 1:] - self._h[:, :-1]).T

    # the bilinear cdf is linear in the differentiated variable on each
    # cell, so the cell index of the fixed coordinate picks the right-hand
    # slope at an interior edge; the slope is n (step_j (1 - f) +
    # step_j+1 f) in the free coordinate, gathered and finished in place
    def _slope(self, steps, fixed, x):
        fixed, x = np.asarray(fixed, float), np.asarray(x, float)
        i, _ = self._cell(fixed)
        j, f = self._cell(x)
        out = steps[i, j]
        out *= 1 - f
        upper = steps[i, j + 1]
        upper *= f
        out += upper
        out *= self.n
        return out

    def _d1(self, u, v):
        return self._slope(self._steps_u, u, v)

    def _d2(self, u, v):
        return self._slope(self._steps_v, v, u)

    def transpose(self):
        return GridCopula(self.mass.T)

    # the cell edges, whatever the coordinate
    def d2_breakpoints(self, u):
        return np.arange(1, self.n) / self.n

    d1_breakpoints = d2_breakpoints

    def __repr__(self):
        return f"<GridCopula n={self.n}>"


def _difference_quotient(cdf, x, h):
    # central difference of the one-argument cdf at x
    x = np.asarray(x, float)
    lo = np.clip(x - h, 0.0, 1.0)
    hi = np.clip(x + h, 0.0, 1.0)
    denom = hi - lo
    denom = np.where(denom == 0.0, 1.0, denom)
    return (cdf(hi) - cdf(lo)) / denom


def fd_partial1(C: Copula, u, v, h: float = FD_STEP):
    """Finite-difference d/du of C, one-sided within h of the boundary."""
    v = np.asarray(v, float)
    return _difference_quotient(lambda x: C._cdf(x, v), u, h)


def fd_partial2(C: Copula, u, v, h: float = FD_STEP):
    """Finite-difference d/dv of C, one-sided within h of the boundary."""
    u = np.asarray(u, float)
    return _difference_quotient(lambda y: C._cdf(u, y), v, h)


# module-level singletons for the parameterless copulas
M = FrechetM()
W = FrechetW()
PI = ProductPi()


def shuffle_from_grid(grid: GridCopula) -> ShuffleOfM:
    """Unroll a checkerboard into a shuffle of M with the same coarse cdf.

    Each cell (i, j) with mass m becomes an ascending piece of width m
    placed so that the piece's u-interval sits inside column band i (cells
    ordered by j) and its v-interval inside row band j (cells ordered by
    i). The resulting shuffle S satisfies sup |S - C| <= 4 / n.

    A cell whose mass is too small to move the running cut, such as the
    rounding residue that ``grid_from_copula`` leaves in an empty cell,
    would be a piece of width zero and is dropped.
    """
    m = grid.mass
    n = grid.n
    col_base = np.arange(n) / n
    row_off = np.vstack([np.zeros(n), m.cumsum(axis=0)[:-1]])  # offsets within row band
    cell = m > 0.0  # row-major: pieces in u order
    # running cut after each piece, added strictly in order
    ends = np.add.accumulate(m[cell])
    moves = ends > np.concatenate(([0.0], ends[:-1]))
    if not moves.any():
        raise ConstructionError("grid has no mass")
    cuts = np.concatenate(([0.0], ends[moves]))
    cuts[-1] = 1.0
    targets = (col_base + row_off)[cell][moves]  # v-interval start per piece
    sigma = np.argsort(np.argsort(targets, kind="stable")) + 1
    return ShuffleOfM(cuts, sigma)


def grid_from_copula(C: Copula, n: int) -> GridCopula:
    """Discretize C to an n x n checkerboard by exact cell volumes."""
    if not isinstance(n, int) or n < 1:
        raise ConstructionError(f"grid order must be a positive integer, got {n}")
    e = _lattice_values(C, n)
    vols = e[1:, 1:] - e[1:, :-1] - e[:-1, 1:] + e[:-1, :-1]
    return GridCopula(vols)


def _lattice_values(C: Copula, n: int):
    g = np.arange(n + 1) / n
    return C._cdf(g[:, None], g[None, :])


def sup_distance(A: Copula, B: Copula, n: int = 32) -> float:
    """max |A - B| over the (n+1) x (n+1) uniform lattice."""
    return sup_distance_witness(A, B, n)[0]


def sup_distance_witness(A: Copula, B: Copula, n: int = 32):
    """(deviation, (x, y)) at the first row-major maximizer of |A - B|,
    taken from the exact difference of the coefficients when both are
    polynomial copulas."""
    from .poly import exact_gap  # poly imports this module

    g = np.arange(n + 1) / n
    d = exact_gap(A, B, g[:, None], g[None, :])
    if d is None:
        d = np.abs(_lattice_values(A, n) - _lattice_values(B, n))
    return _lattice_witness(d, g)


def _lattice_witness(d, g):
    """(d[i, j], (g[i], g[j])) at the first row-major maximizer of the
    deviations d on the lattice g x g."""
    i, j = divmod(int(np.argmax(d)), len(g))
    return float(d[i, j]), (float(g[i]), float(g[j]))


def validate(C: Copula, n: int = 64, tol: float = 1e-9) -> ValidationReport:
    """Check boundary conditions, 2-increasingness and the Lipschitz
    property of C on the (n+1) x (n+1) lattice.

    Passes iff the boundary error is <= tol, every cell volume is
    >= -tol, and no lattice increment exceeds the argument increment
    by more than tol.
    """
    g = np.arange(n + 1) / n
    e = _lattice_values(C, n)
    boundary = max(
        float(np.abs(e[:, n] - g).max()),
        float(np.abs(e[n, :] - g).max()),
        float(np.abs(e[:, 0]).max()),
        float(np.abs(e[0, :]).max()),
    )
    vols = e[1:, 1:] - e[1:, :-1] - e[:-1, 1:] + e[:-1, :-1]
    min_vol = float(vols.min())
    step = 1.0 / n
    du = np.abs(np.diff(e, axis=0))
    dv = np.abs(np.diff(e, axis=1))
    lip = float(max(du.max() - step, dv.max() - step, 0.0))
    # pass/fail gates on the axioms; the Lipschitz excess is advisory
    # (it follows from the other two for a true copula)
    passed = boundary <= tol and min_vol >= -tol
    return ValidationReport(
        passed=passed,
        max_boundary_error=boundary,
        min_volume=min_vol,
        max_lipschitz_excess=lip,
        lattice=n,
        tol=tol,
    )


def _sinkhorn(m: np.ndarray, n: int) -> np.ndarray:
    """Alternately rescale rows and columns toward marginals 1/n."""
    target = 1.0 / n
    for _ in range(200):
        rows = m.sum(axis=1, keepdims=True)
        if rows.min() <= 0.0:
            raise FormatError("a row of the grid has no mass; cannot renormalize")
        m = m * (target / rows)
        cols = m.sum(axis=0, keepdims=True)
        if cols.min() <= 0.0:
            raise FormatError("a column of the grid has no mass; cannot renormalize")
        m = m * (target / cols)
        err = max(
            np.abs(m.sum(axis=1) - target).max(),
            np.abs(m.sum(axis=0) - target).max(),
        )
        if err <= SINKHORN_TOL:
            return m
    raise FormatError(f"renormalization failed to reach {SINKHORN_TOL:.0e}")


def write_grid_csv(grid: GridCopula, path) -> None:
    """Serialize as 'N=<n>' followed by n comma-separated mass rows."""
    # one row of Python floats at a time, written as it is made
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"N={grid.n}\n")
        for row in grid.mass:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _grid_lines(fh):
    """The non-blank lines of an open grid file, stripped, one at a time."""
    for text in fh:
        # the line breaks of str.splitlines, not only the file's newlines
        for ln in text.splitlines():
            ln = ln.strip()
            if ln:
                yield ln


def read_grid_csv(path) -> GridCopula:
    """Parse a grid file, verify marginals to 1e-6, renormalize exactly.

    Raises FormatError on malformed input, negative mass, or marginals
    off by more than 1e-6 per band. The file is read line by line, once
    to count the rows and once to parse them, so no more than one line
    of text is held at a time.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = _grid_lines(fh)
        head = next(lines, "")
        if not head.startswith("N="):
            raise FormatError("first line must be 'N=<order>'")
        try:
            n = int(head[2:])
        except ValueError:
            raise FormatError(f"bad order {head[2:]!r}") from None
        if n < 1:
            raise FormatError(f"order must be positive, got {n}")
        rows = sum(1 for _ in lines)
        if rows != n:
            raise FormatError(f"expected {n} mass rows, found {rows}")
        fh.seek(0)
        lines = _grid_lines(fh)
        next(lines)
        m = np.empty((n, n))
        for k, (ln, row) in enumerate(zip(lines, m), start=1):
            parts = ln.split(",")
            if len(parts) != n:
                raise FormatError(f"row {k} has {len(parts)} entries, expected {n}")
            try:
                row[:] = list(map(float, parts))
            except ValueError:
                raise FormatError(f"row {k} contains a non-numeric entry") from None
            # NaN fails the comparison too
            if not (row >= 0.0).all():
                raise FormatError(f"row {k} contains a negative or NaN mass")
    target = 1.0 / n
    err = max(
        np.abs(m.sum(axis=1) - target).max(),
        np.abs(m.sum(axis=0) - target).max(),
    )
    if err > CSV_MARGIN_TOL:
        raise FormatError(
            f"marginals deviate from 1/{n} by {err:.3e} (tol {CSV_MARGIN_TOL})"
        )
    if err > SINKHORN_TOL:
        m = _sinkhorn(m, n)
    return GridCopula(m)
