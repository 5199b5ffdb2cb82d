"""Star products of copulas, classical and family-generalized.

The classical star product composes the Markov kernels of two copulas:

    (A * B)(u, v) = integral over t of d2 A(u, t) * d1 B(t, v) dt.

The generalized product replaces the pointwise multiplication with a
copula family C_t applied to the two conditional values:

    (A *_C B)(u, v) = integral of C_t(d2 A(u, t), d1 B(t, v)) dt,

which coincides with the classical product when C_t = Pi for a.e. t.

Products are computed by composite Gauss-Legendre quadrature with
breakpoint-aware subdivision and a two-level adaptive error estimate,
except where a structural fast path gives the result in closed form:

* identity-M: M is a two-sided unit for both products.
* zero-Pi: Pi absorbs the classical product on either side. Pi is NOT
  absorbing for the generalized product, so this path never fires there.
* W-closed-form: (A *(_C) W)(u, v) = u - A(u, 1 - v) and symmetrically,
  for any family, because the inner copula only ever sees 0/1 in the
  W slot.
* invertible-reduction: when the left factor is left invertible (or the
  right factor right invertible) its conditional is 0/1 valued, the
  family drops out, and the generalized product equals the classical one.
* shuffle-closed-form: a shuffle factor turns the integral into a finite
  sum of increments of the other factor.
* grid-closed-form: two checkerboards of the same order N have
  conditionals that are constant in t on every cell, so their classical
  product is the checkerboard of N times the matrix product of their
  masses (the Markov product of doubly stochastic matrices).
* poly-closed-form: when both factors are polynomial copulas (Pi, FGM,
  an earlier polynomial product, or a transpose of one) and, for the
  generalized product, every member is too, with a parameter that is
  polynomial in t on each piece (``ConstantFamily``,
  ``PiecewiseConstantFamily``, ``FGMCurveFamily`` split at its clip
  points), the product is a ``PolyCopula`` computed in exact rational
  arithmetic (see ``poly``). It is tried last, and a product whose
  degree would pass ``poly.MAX_DEGREE`` = 16 in either variable is
  left to quadrature.

Quadrature integrates only where the grouped side's conditional is
nonzero. Every member C_t is grounded, C_t(0, y) = C_t(x, 0) = 0, so a
rule segment on which a grouped conditional is 0 at every node adds
exactly +-0 and is skipped, with the same bits (see
``_segment_values``). This is not a fast path: the family is still
integrated wherever that conditional is nonzero, so forced quadrature,
and the identity suite with it, still exercises the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .copulas import (
    ConstructionError,
    Copula,
    CopulaError,
    FrechetM,
    FrechetW,
    GridCopula,
    PI,
    ProductPi,
    ShuffleOfM,
    TransposedCopula,
    _maybe_scalar,
    _unit,
)
from .poly import poly_product

__all__ = [
    "QuadratureConfig",
    "ProductResult",
    "NonConvergenceError",
    "ComputedCopula",
    "ShuffleStarProduct",
    "WRightProduct",
    "star",
    "star_c",
    "integrate",
    "FAST_PATHS",
]

FAST_PATHS = (
    "none",
    "identity-M",
    "zero-Pi",
    "W-closed-form",
    "invertible-reduction",
    "shuffle-closed-form",
    "grid-closed-form",
    "poly-closed-form",
)

# memory cap for one integrand evaluation batch (elements, not bytes)
_CHUNK_ELEMENTS = 1 << 21

# numpy gives every broadcast operand of a ufunc call a scratch buffer
# of its buffer size (8192 elements by default) or of the whole call if
# smaller, so a small integrand call would hold more scratch than
# result; the integrand caps the buffers at this share of its output
_BUFFER_SHARE = 32


def _integrand_bufsize(elements):
    """numpy's ufunc buffer size for an integrand call of ``elements``:
    at most 1/_BUFFER_SHARE of them, in the multiples of 16 numpy takes,
    and never more than the size in force."""
    cap = max(16, elements // _BUFFER_SHARE // 16 * 16)
    return min(np.getbufsize(), cap)


# points probed for a quadrature product's error_estimate
_PROBES = ((0.25, 0.25), (0.5, 0.5), (0.75, 0.25), (0.3, 0.7), (0.9, 0.6))


class NonConvergenceError(CopulaError, RuntimeError):
    """Adaptive quadrature failed to meet its tolerance at max depth."""

    def __init__(self, interval, err, tol):
        self.interval = interval
        self.err = err
        self.tol = tol
        super().__init__(
            f"quadrature did not converge on [{interval[0]:.9g}, "
            f"{interval[1]:.9g}]: estimate {err:.3e} > tol {tol:.3e}"
        )


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the composite Gauss-Legendre product integrator.

    The unit interval is first split at ``base_subintervals`` uniform
    points plus every known breakpoint; each piece gets a
    ``nodes_per_subinterval``-point rule. A piece whose two-level
    estimate (rule vs. bisected rule) exceeds its share of
    ``adaptive_tol`` is bisected, at most ``max_depth`` times.
    """

    base_subintervals: int = 64
    nodes_per_subinterval: int = 16
    extra_breakpoints: tuple = ()
    adaptive_tol: float = 1e-8
    max_depth: int = 12

    def __post_init__(self):
        if self.base_subintervals < 1:
            raise ConstructionError("base_subintervals must be >= 1")
        if self.nodes_per_subinterval < 2:
            raise ConstructionError("nodes_per_subinterval must be >= 2")
        if not self.adaptive_tol > 0.0:
            raise ConstructionError("adaptive_tol must be positive")
        if self.max_depth < 0:
            raise ConstructionError("max_depth must be >= 0")
        object.__setattr__(
            self, "extra_breakpoints", tuple(float(b) for b in self.extra_breakpoints)
        )


@dataclass(frozen=True)
class ProductResult:
    """A star product: its evaluator plus how it was obtained.

    The third argument is the error estimate, or a function of no
    arguments that computes it. A function runs on the first read of
    ``error_estimate``, whose value is then cached, so a product pays
    for its probe only if the estimate is read.
    """

    copula: Copula
    fast_path: str
    _error: float | Callable[[], float]
    config: QuadratureConfig

    @cached_property
    def error_estimate(self) -> float:
        e = self._error
        return e() if callable(e) else e


@lru_cache(maxsize=8)
def _gl(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _initial_edges(breakpoints, q: QuadratureConfig):
    base = np.arange(q.base_subintervals + 1) / q.base_subintervals
    extra = np.concatenate((q.extra_breakpoints, breakpoints), axis=None)
    # NaN and the infinities fail both comparisons
    extra = extra[(0.0 < extra) & (extra < 1.0)]
    e = np.unique(np.concatenate((base, extra)))
    # merge nearly coincident cut points so no subinterval degenerates
    keep = np.concatenate(([True], np.diff(e) > 1e-14))
    e = e[keep]
    e[0] = 0.0
    e[-1] = 1.0
    return e


def _segment_values(fbatch, segs, nodes, weights, chunk, width, support=None):
    """Gauss-Legendre value of fbatch over each (a, b) row of ``segs``.

    Returns an array (len(segs), width). Segments are evaluated in order
    but batched into single fbatch calls of at most ``chunk`` nodes,
    rounded up to whole segments, to bound memory.

    The weighted sum runs node by node, j = 0 .. n-1, as elementwise
    array arithmetic: no BLAS and no SIMD reduction, whose summation
    order varies with the build, the CPU and the array shape. So each
    value has the same bits whatever the BLAS build, the CPU, the chunk
    size, or which points are evaluated together. Each node's weighted
    term is written into one scratch array per chunk, reused for every
    j, and added into the accumulator in place.

    ``support``, when given, maps all the nodes of ``segs`` to a boolean
    array, False where a grouped side's conditional is exactly 0, and a
    dict of that side's conditionals, passed on to fbatch as keyword
    arguments. Segments whose nodes are all dead lie outside the grouped
    side's support and are skipped: every member C_t is grounded, so
    the integrand is exactly +-0 on them. A skipped segment's value is
    +0.0 and fbatch sees only the other segments' nodes, in the same
    order. Adding +-0 never moves a nonzero sum, and the differences
    taken for the error estimate have the same magnitudes, so every
    value and estimate keeps its bits.
    """
    n = len(nodes)
    a, b = segs[:, :1], segs[:, 1:]
    hw = 0.5 * (b - a)
    ts = hw * nodes + 0.5 * (a + b)
    rows, cells = None, {}
    if support is not None:
        live, cells = support(ts.reshape(-1))
        keep = live.reshape(-1, n).any(axis=1)
        if not keep.all():
            rows = np.flatnonzero(keep)
            ts, hw = ts[rows], hw[rows]
            cells = {k: c.reshape(-1, n)[rows].reshape(-1, 1) for k, c in cells.items()}
    step = -(-chunk // n)
    parts = [np.empty((0, width))]
    for s in range(0, len(ts), step):
        given = {k: c[s * n : (s + step) * n] for k, c in cells.items()}
        fv = fbatch(ts[s : s + step].reshape(-1), **given)
        fv = fv.reshape(-1, n, fv.shape[-1])
        acc = weights[0] * fv[:, 0]
        term = np.empty_like(acc)
        for j in range(1, n):
            acc += np.multiply(weights[j], fv[:, j], out=term)
        acc *= hw[s : s + step]
        parts.append(acc)
    vals = np.concatenate(parts)
    if rows is None:
        return vals
    out = np.zeros((len(segs), width))
    out[rows] = vals
    return out


def _integrate_batch(fbatch, breakpoints, q: QuadratureConfig, width: int,
                     support=None):
    """Integrate a vector-valued function over [0, 1].

    fbatch maps a node array (k,) to values (k, width). Returns the
    (width,) integral and a scalar error estimate valid for every
    component (sum over pieces of the max-norm two-level defect).
    ``support``, as ``_make_integrand`` returns it, lets each level skip
    the segments outside a grouped side's support (``_segment_values``);
    values and estimates have the bits they have without it.

    Each adaptive level is one array of segments, in increasing order.
    A segment is accepted when the max-norm gap between its n-point
    rule and the sum of its two halves is within its share of the
    tolerance; the rest are bisected into the next level. Accepted
    values are then added strictly left to right in the order of
    their left ends.
    """
    nodes, weights = _gl(q.nodes_per_subinterval)
    edges = _initial_edges(breakpoints, q)
    tol0 = q.adaptive_tol / (len(edges) - 1)
    chunk = max(3 * len(nodes), _CHUNK_ELEMENTS // max(width, 1))
    a, b = edges[:-1], edges[1:]
    coarse = None  # n-point rule on each [a, b], computed with level 0
    starts, fines, errs = [], [], []
    depth = 0
    while a.size:
        mid = 0.5 * (a + b)
        if coarse is None:
            lo, hi = (a, a, mid), (b, mid, b)
        else:
            lo, hi = (a, mid), (mid, b)
        segs = np.stack((np.stack(lo, axis=1), np.stack(hi, axis=1)), axis=-1)
        vals = _segment_values(
            fbatch, segs.reshape(-1, 2), nodes, weights, chunk, width, support
        )
        vals = vals.reshape(a.size, len(lo), -1)
        if coarse is None:
            coarse = vals[:, 0]
        left, right = vals[:, -2], vals[:, -1]
        fine = left + right
        err = np.max(np.abs(coarse - fine), axis=1)
        # each bisection halves the budget so the total stays bounded
        tol = tol0 / (1 << depth)
        ok = err <= tol
        starts.append(a[ok])
        fines.append(fine[ok])
        errs.append(err[ok])
        bad = ~ok
        if depth >= q.max_depth and bad.any():
            i = int(np.argmax(bad))
            raise NonConvergenceError((float(a[i]), float(b[i])), float(err[i]), tol)
        a = np.stack((a[bad], mid[bad]), axis=1).reshape(-1)
        b = np.stack((mid[bad], b[bad]), axis=1).reshape(-1)
        coarse = np.stack((left[bad], right[bad]), axis=1).reshape(-1, vals.shape[-1])
        depth += 1
    order = np.argsort(np.concatenate(starts), kind="stable")
    # add.accumulate runs strictly in order; + 0.0 matches a sum from zero
    total = np.add.accumulate(np.concatenate(fines)[order], axis=0)[-1] + 0.0
    err_sum = np.add.accumulate(np.concatenate(errs)[order])[-1] + 0.0
    return total, float(err_sum)


def integrate(f, breakpoints=(), q: QuadratureConfig | None = None):
    """(value, error_estimate) of a scalar function on [0, 1]."""
    qq = q if q is not None else QuadratureConfig()

    def fbatch(ts):
        return np.asarray([float(f(t)) for t in ts]).reshape(-1, 1)

    total, err = _integrate_batch(fbatch, breakpoints, qq, 1)
    return float(total[0]), err


def _row(zs):
    """zs as a (1, k) row, or a (1, 1) cell when its values share their bits."""
    zs = np.asarray(zs, dtype=float)
    bits = zs.view(np.uint64)
    if bits.size and (bits == bits[0]).all():
        return zs[:1].reshape(1, 1)
    return zs.reshape(1, -1)


def _make_integrand(A: Copula, family, B: Copula, xs, ys):
    """(fbatch, support) for a batch of points.

    fbatch(ts, s=None, r=None) is the integrand at nodes ts, (k, width).
    A coordinate that is constant over the batch, as in a group of
    _product_points_eval, is a (1, 1) cell: its side's conditional is
    then evaluated once per node and broadcast only in the result.
    support(ts) evaluates the cell sides' clipped conditionals, s on
    the left and r on the right, and returns them with the nodes where
    none of them is 0 (NaN stays live); fbatch takes them back as s
    and r instead of evaluating them again. Without a cell, support
    is None. fbatch runs its kernels with numpy's ufunc buffers capped
    by ``_integrand_bufsize``, so a call on few live nodes holds about
    one (k, width) array, as a large one does; buffering changes no
    arithmetic, so the values keep their bits.
    """
    X, Y = _row(xs), _row(ys)
    width = xs.size

    def left(T):
        s = A._d2(X, T)
        return np.clip(s, 0.0, 1.0, out=s)

    def right(T):
        r = B._d1(T, Y)
        return np.clip(r, 0.0, 1.0, out=r)

    def fbatch(ts, s=None, r=None):
        T = ts.reshape(-1, 1)
        full = (ts.size, width)
        bufsize = np.setbufsize(_integrand_bufsize(ts.size * width))
        try:
            s = left(T) if s is None else s
            r = right(T) if r is None else r
            if family is not None:
                out = family.eval_grid(ts, s, r)
            else:
                # into the conditional that already has the batch's shape
                into = s if s.shape == full else r if r.shape == full else None
                out = np.multiply(s, r, out=into)
        finally:
            np.setbufsize(bufsize)
        return np.broadcast_to(out, full)

    sides = {k: f for k, f, Z in (("s", left, X), ("r", right, Y)) if Z.size == 1}
    if not sides:
        return fbatch, None

    def support(ts):
        T = ts.reshape(-1, 1)
        cells = {k: f(T) for k, f in sides.items()}
        live = np.ones(ts.size, dtype=bool)
        for c in cells.values():
            live &= c.reshape(-1) != 0.0
        return live, cells

    return fbatch, support


def _product_points_eval(A, family, B, xs, ys, q):
    """Quadrature values of the (generalized) product at flat points.

    Points sharing a coordinate on the side with the richer breakpoint
    structure are integrated together so the subdivision is built once
    per group; without breakpoints on either side all points form one
    group. Each group is split at the family's breakpoints and at both
    factors' breakpoints for the group's coordinates, the shared one
    asked for once. Returns (values, worst per-point error estimate).
    """
    m = xs.size
    out = np.empty(m)
    if m == 0:
        return out, 0.0
    fam_breaks = family.breakpoints() if family is not None else ()
    kA = len(A.d2_breakpoints(0.375))
    kB = len(B.d1_breakpoints(0.375))
    if kA or kB:
        keys = xs if kA >= kB else ys
        groups = [keys == val for val in np.unique(keys)]
    else:
        keys, groups = None, [slice(None)]
    worst = 0.0
    for g in groups:
        xs_g, ys_g = xs[g], ys[g]
        breaks = np.concatenate((
            fam_breaks,
            A.d2_breakpoints(xs_g[:1] if keys is xs else xs_g),
            B.d1_breakpoints(ys_g[:1] if keys is ys else ys_g),
        ), axis=None)
        fb, support = _make_integrand(A, family, B, xs_g, ys_g)
        vals, err = _integrate_batch(fb, breaks, q, xs_g.size, support)
        out[g] = vals
        worst = max(worst, err)
    return np.clip(out, 0.0, 1.0), worst


class ComputedCopula(Copula):
    """Star product evaluated on demand by adaptive quadrature."""

    def __init__(self, A: Copula, family, B: Copula, q: QuadratureConfig):
        self.A = A
        self.family = family
        self.B = B
        self.q = q

    @property
    def source(self):
        """(A, family, B): the factors, as ``PolyCopula.source`` gives them."""
        return (self.A, self.family, self.B)

    def _cdf_with_error(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        vals, err = _product_points_eval(
            self.A, self.family, self.B, u.reshape(-1), v.reshape(-1), self.q
        )
        return vals.reshape(u.shape), err

    def _cdf(self, u, v):
        return self._cdf_with_error(u, v)[0]

    def eval_with_error(self, u, v):
        """(C(u, v), error estimate): the values of ``eval`` and the
        largest two-level quadrature estimate among these points, 0.0
        for an empty batch."""
        uu = _unit(u, "u")
        vv = _unit(v, "v")
        vals, err = self._cdf_with_error(uu, vv)
        return _maybe_scalar(vals, u, v), err

    def __repr__(self):
        inner = "" if self.family is None else f" family={self.family!r}"
        return f"<ComputedCopula A={self.A!r} B={self.B!r}{inner}>"


class ShuffleStarProduct(Copula):
    """(S * C) for a shuffle S: a finite sum of C-increments.

    The u-section of S carries slope 1 on finitely many t-intervals
    (lo_i(u), hi_i(u)), so the product integral collapses to
    sum_i C(hi_i, v) - C(lo_i, v).
    """

    def __init__(self, S: ShuffleOfM, C: Copula):
        if not isinstance(S, ShuffleOfM):
            raise ConstructionError(f"left factor must be a shuffle, got {S!r}")
        self.S = S
        self.C = C

    def _cdf(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros_like(u, dtype=float)
        S = self.S
        inner = self.C._cdf
        for i in range(S.n_pieces):
            c = np.clip(u - S._s0[i], 0.0, S._w[i])
            if S._flip[i]:
                lo, hi = S._t1[i] - c, np.asarray(S._t1[i])
            else:
                lo, hi = np.asarray(S._t0[i]), S._t0[i] + c
            out += inner(hi, v) - inner(lo, v)
        return np.clip(out, 0.0, 1.0)

    def __repr__(self):
        return f"<ShuffleStarProduct S={self.S!r} C={self.C!r}>"


class WRightProduct(Copula):
    """(A * W)(u, v) = u - A(u, 1 - v); W reverses the second law.

    Transposed around B^T it gives the left form, (W * B)(u, v) =
    v - B(1 - u, v).
    """

    def __init__(self, A: Copula):
        self.A = A

    def _cdf(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return np.clip(u - self.A._cdf(u, 1.0 - v), 0.0, 1.0)

    def __repr__(self):
        return f"<WRightProduct A={self.A!r}>"


def _markov_product(a, b):
    """a @ b for square arrays, with each entry summed k = 0 .. n-1 in
    order by elementwise arithmetic, so its bits do not depend on the
    BLAS build or the CPU."""
    acc = a[:, :1] * b[:1, :]
    for k in range(1, a.shape[0]):
        acc += a[:, k : k + 1] * b[k : k + 1, :]
    return acc


def _probe_error(cop: ComputedCopula) -> float:
    xs = np.asarray([p[0] for p in _PROBES])
    ys = np.asarray([p[1] for p in _PROBES])
    return cop.eval_with_error(xs, ys)[1]


def _fast_path(A: Copula, family, B: Copula, q: QuadratureConfig | None,
               fast_paths: bool = True) -> ProductResult:
    """A *_C B over ``family``, or the classical A * B when it is None.

    The one dispatch behind ``star`` and ``star_c``: the first closed
    form that applies wins, in the module docstring's order, with
    zero-Pi for the classical product only and invertible-reduction
    for the generalized one only (it subsumes the shuffle closed form
    there). Without a closed form, or with ``fast_paths`` off, the
    product is left to quadrature, and its error estimate is probed
    when first read.
    """
    q = q if q is not None else QuadratureConfig()
    if fast_paths:
        if isinstance(A, FrechetM):
            return ProductResult(B, "identity-M", 0.0, q)
        if isinstance(B, FrechetM):
            return ProductResult(A, "identity-M", 0.0, q)
        if family is None and (isinstance(A, ProductPi) or isinstance(B, ProductPi)):
            return ProductResult(PI, "zero-Pi", 0.0, q)
        if isinstance(B, FrechetW):
            return ProductResult(WRightProduct(A), "W-closed-form", 0.0, q)
        if isinstance(A, FrechetW):
            return ProductResult(
                TransposedCopula(WRightProduct(B.transpose())), "W-closed-form", 0.0, q
            )
        if family is not None:
            if A.left_invertible or B.right_invertible:
                inner = _fast_path(A, None, B, q)
                return ProductResult(
                    inner.copula, "invertible-reduction",
                    lambda: inner.error_estimate, q,
                )
        elif isinstance(A, ShuffleOfM):
            closed = ShuffleStarProduct(A, B)
            return ProductResult(closed, "shuffle-closed-form", 0.0, q)
        elif isinstance(B, ShuffleOfM):
            flipped = ShuffleStarProduct(B.transpose(), A.transpose())
            return ProductResult(
                TransposedCopula(flipped), "shuffle-closed-form", 0.0, q
            )
        elif isinstance(A, GridCopula) and isinstance(B, GridCopula) and A.n == B.n:
            mass = A.n * _markov_product(A.mass, B.mass)
            return ProductResult(GridCopula(mass), "grid-closed-form", 0.0, q)
        poly = poly_product(A, family, B)
        if poly is not None:
            return ProductResult(poly, "poly-closed-form", 0.0, q)
    cop = ComputedCopula(A, family, B, q)
    return ProductResult(cop, "none", lambda: _probe_error(cop), q)


def star(A: Copula, B: Copula, q: QuadratureConfig | None = None,
         *, fast_paths: bool = True) -> ProductResult:
    """Classical star product A * B.

    Fast paths, in precedence order: identity-M, zero-Pi, W closed
    form (right factor checked first), shuffle closed form, grid closed
    form (two grids of the same order), polynomial closed form. Pass
    fast_paths=False to force raw quadrature.
    """
    return _fast_path(A, None, B, q, fast_paths)


def star_c(A: Copula, family, B: Copula, q: QuadratureConfig | None = None,
           *, fast_paths: bool = True) -> ProductResult:
    """Generalized star product A *_C B over a copula family.

    Precedence: identity-M, W closed form, invertible reduction (which
    subsumes shuffle factors), polynomial closed form, then quadrature.
    There is no zero-Pi path: Pi factors do not absorb the generalized
    product.
    """
    return _fast_path(A, family, B, q, fast_paths)
