"""Star products of copulas, classical and family-generalized.

The classical star product composes the Markov kernels of two copulas:

    (A * B)(u, v) = integral over t of d2 A(u, t) * d1 B(t, v) dt.

The generalized product replaces the pointwise multiplication with a
copula family C_t applied to the two conditional values:

    (A *_C B)(u, v) = integral of C_t(d2 A(u, t), d1 B(t, v)) dt,

which coincides with the classical product when C_t = Pi for a.e. t.

Products are computed by composite Gauss-Legendre quadrature with
breakpoint-aware subdivision and a two-level adaptive error estimate,
except where a structural fast path gives the result in closed form.
``_RULES`` is the one ordered table of fast paths: each entry is a tag,
the products it serves, and a rule whose docstring holds its math; the
first rule that serves the product and applies wins, and ``FAST_PATHS``
lists the tags, after the tag none of quadrature.

Every copula that ``star``/``star_c`` return records the product asked
for as its ``source``, (A, family, B) with family None for the classical
product, whichever closed form or quadrature evaluates it, so the
closed forms keep their factors alive through it, as quadrature and
polynomial products do. A rule that gives a factor or ``PI`` returns
that copula, and nothing is set on it.

Quadrature groups the points that share the coordinate of the factor
with more breakpoints, and the groups with the same other coordinates,
every group of a lattice, share one adaptive work list
(``_integrate_batch``), which every call runs, one group included. It
integrates only where a grouped conditional is nonzero: every member
C_t is grounded, C_t(0, y) = C_t(x, 0) = 0, so a rule segment on which
it is 0 at every node adds exactly +-0 and is skipped. The piece a
level bisects is the unit of its bookkeeping. A grouped conditional
that is a step function of t (``Copula.conditional_degree`` 0: M, W,
Pi, shuffles and grids) is evaluated at one node per piece: its jumps
lie next to hints, which are the group's edges, so it is constant on
the piece and on its halves, except on pieces too narrow to keep their
halves' nodes off their ends, which are evaluated at every node. Each
kind of piece gets one call per level, and each call returns one
layout: one value per piece, or a value per node. The pieces of a
level are keyed once, by their ends and those values, so the pieces
that several groups share are found with one sort; then only the live
segments of the distinct pieces are built, shared where their ends and
values agree, and evaluated. All groups' accepted pieces are summed
in one pass, each group's left to right. All of it keeps every bit
(see ``_segment_values`` and ``_integrate_batch``). None of it is a
fast path: the family is still integrated wherever the grouped
conditional is nonzero, so forced quadrature, and the identity suite
with it, still exercises the quadrature.
"""

from __future__ import annotations

import numbers
import operator
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
from .closedforms import ShuffleStarProduct, WRightProduct
from .families import CopulaFamily
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
    "FAST_PATHS",
]

# memory cap for one integrand evaluation batch (elements, not bytes)
_CHUNK_ELEMENTS = 1 << 21

# how far from a segment's ends its rule nodes must lie for a step-function
# conditional to be evaluated once on it: far above the few multiples of
# 2**-53 by which a degree-0 kernel's jumps may miss its hints
_SLACK = 2.0 ** -45

# the final sums add rows of this many columns or more one row at a time:
# add.accumulate down axis 0 runs one dependent sum per column, slower
# than a row loop from about 136 columns on; both add in the same order
_LOOP_COLUMNS = 192

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
    adaptive_tol: float = 1e-8
    max_depth: int = 12

    def __post_init__(self):
        for name in ("base_subintervals", "nodes_per_subinterval", "max_depth"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):  # an int to operator.index, not a count
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConstructionError(f"{name} must be an integer, got {value!r}") from None
        if self.base_subintervals < 1:
            raise ConstructionError("base_subintervals must be >= 1")
        if self.nodes_per_subinterval < 2:
            raise ConstructionError("nodes_per_subinterval must be >= 2")
        tol = self.adaptive_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ConstructionError(f"adaptive_tol must be a real number, got {tol!r}")
        # an infinite tolerance would accept every piece at its first
        # level; NaN fails the comparison too
        if not 0.0 < tol < np.inf:
            raise ConstructionError("adaptive_tol must be finite and positive")
        if self.max_depth < 0:
            raise ConstructionError("max_depth must be >= 0")


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
    """(a, b, pieces): the initial pieces [a, b] of every group, by group
    and then left to right, and their number in each group, for one row
    of breakpoints per group.

    A group's edges are the ``base_subintervals`` uniform points and its
    row's values in (0, 1) (NaN and the infinities are not), in
    increasing order, each value once. So every hint in (0, 1) is an
    edge, bit for bit, and a piece may be one ulp wide. Every row is sorted in one call, with what lies outside (0, 1)
    made 0.0, a copy of the first base point; a value that differs from
    its left neighbour ends a piece that starts at that neighbour.
    """
    bp = np.asarray(breakpoints, dtype=float)
    nb = q.base_subintervals + 1
    s = np.empty((len(bp), nb + bp.shape[1]))
    s[:, :nb] = np.arange(nb) / q.base_subintervals
    s[:, nb:] = bp
    hints = s[:, nb:]
    # NaN and the infinities fail both comparisons
    hints[~((0.0 < hints) & (hints < 1.0))] = 0.0
    s.sort(axis=1)
    new = s[:, 1:] != s[:, :-1]
    return s[:, :-1][new], s[:, 1:][new], new.sum(axis=1)


def _distinct_rows(columns):
    """(first, inverse) such that row ``first[inverse[i]]`` equals row i,
    for rows given as ``columns`` of 8-byte values, compared bit for bit.

    The columns, as one (k, m) array of their bits as uint64, are sorted
    by ``np.lexsort`` and each row is compared with its predecessor in
    one pass, so two rows share an entry exactly when their bits are the
    same (+0.0 and -0.0, or two NaN payloads, differ).
    """
    keys = np.asarray(columns)
    keys = keys.view(np.uint64).reshape(len(keys), -1)
    order = np.lexsort(keys)
    new = np.ones(len(order), dtype=bool)
    s = keys[:, order]
    np.any(s[:, 1:] != s[:, :-1], axis=0, out=new[1:])
    ids = np.cumsum(new) - 1
    inverse = np.empty_like(ids)
    inverse[order] = ids
    return order[new], inverse


def _rowwise(ufunc, x):
    """ufunc.reduce(x, axis=1) for a (m, k) array, one column at a time:
    numpy reduces each row of a few columns slowly."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)
    return out


def _nodes_of(segs, nodes):
    """The rule nodes of each (a, b) pair on the last axis of ``segs``,
    and its half width."""
    a, b = segs[..., :1], segs[..., 1:]
    hw = 0.5 * (b - a)
    return hw * nodes + 0.5 * (a + b), hw


def _live_pieces(support, segs, nodes, groups, coarse):
    """(ends, index, inverse, cells): the segments to evaluate, as (k, 2)
    rows; ``index``, whose row 0 is all 0 and whose other rows map the
    segments of one distinct piece each to 0 (dead) or 1 + the position
    in ``ends`` of the segment whose values they take; the map of every
    piece to its row of ``index``, row 0 for a dead piece that is not
    keyed; and the cell conditionals at the nodes of ``ends``, as
    (k * nodes, 1) columns.

    ``segs`` holds each piece's S segments as (pieces, S, 2); a piece's
    ends, its first segment's left end and its last one's right end,
    say what its segments are. The piece is the unit: it is once when
    all its segments are, that is when their outermost nodes, (1 +
    nodes[0]) / 2 of their width from their ends, lie more than
    ``_SLACK`` from them, and narrow otherwise. ``support`` evaluates a
    step-function side at one node of a once piece, which stands for
    every node of its segments, since no jump lies inside a piece
    (``_segment_values``), and at every node of a narrow one. This is
    the one place that tells the kinds apart. ``support`` gets each kind
    in calls of its own, the once pieces first, each kind in order, on
    slices of up to ``_CHUNK_ELEMENTS`` nodes, one call per kind and
    level as a rule. Each call returns one layout: a step-function side
    as (m, 1) on a once call, and every other side as (m, S * n).

    A piece is live when one of its segments is, or when ``coarse``, the
    index of its n-point rule made on the level before, is not 0. A
    level of several groups drops its dead pieces and keys its live
    once pieces, by their ends, ``coarse`` and cell sides as they come
    back, with one ``_distinct_rows``: a step side is one column however
    many segments the piece has. Then only the live
    segments of the distinct pieces are built, and keyed by their ends
    and cell sides, a step side as its piece's value, since pieces whose
    ends differ by an ulp may share a half; these are few rows. Narrow
    pieces are few and not keyed as pieces; their segments are keyed by
    their values at every node, apart from the once ones'. In a level of
    one group nothing is keyed but the narrow segments, by their ends
    alone, as their group fixes their cell sides: the once pieces are
    disjoint, and a half of a piece is the piece itself only when the
    piece is one ulp wide, its midpoint rounded onto an end, which makes
    it narrow. Nothing else moves the integrand, since the call shares
    the other coordinate's row.
    """
    m, S, _ = segs.shape
    n = len(nodes)
    step = -(-_CHUNK_ELEMENTS // (S * n))
    once = _rowwise(np.minimum, segs[..., 1] - segs[..., 0]) * (0.5 + 0.5 * nodes[0]) > _SLACK
    # the groups come in order: a level of one group when its ends agree
    single = groups[0] == groups[-1]
    # row 0 of index is the dead pieces', as values[0] is the dead segments'
    inverse = np.zeros(m, dtype=np.intp)
    index, ends, values = [np.zeros((1, S), dtype=np.intp)], [], []
    # rows are gathered by np.take and np.compress, several times faster
    # than indexing an array of two or three axes
    for kind in (True, False):
        ids = np.flatnonzero(once == kind)
        # the positions, live segments and cell sides of the kind's live pieces
        parts = []
        for s in range(0, ids.size, step):
            pos = ids[s : s + step]
            live, cells = support(np.take(segs, pos, axis=0), nodes, groups[pos], kind)
            # (m, 1) for the whole piece, or (m, S) from the nodes of each segment
            live = live if live.shape[1] == 1 else live.reshape(len(pos), S, n).any(axis=2)
            sides = list(cells.values())
            if not single:
                keep = _rowwise(np.logical_or, live)
                if coarse is not None:
                    keep |= coarse[pos] != 0
                pos, live, *sides = (np.compress(keep, x, axis=0) for x in [pos, live] + sides)
            parts.append([pos, live] + sides)
        if not parts:
            continue
        pos, live, *sides = (x[0] if len(x) == 1 else np.concatenate(x) for x in zip(*parts))
        made = sum(map(len, index))
        if single or not kind:
            inverse[pos] = np.arange(made, made + len(pos))
        else:
            key = [segs[:, 0, 0][pos][None], segs[:, -1, 1][pos][None]] + [c.T for c in sides]
            first, inv = _distinct_rows(np.concatenate(
                key if coarse is None else key + [coarse[pos].reshape(1, -1)]))
            inverse[pos] = made + inv
            pos, live, *sides = (np.take(x, first, axis=0) for x in [pos, live] + sides)
        # the live segments of the distinct pieces, a step side as its piece's value
        live = live if live.shape[1] == S else np.repeat(live, S, axis=1)
        at = np.take(segs, pos, axis=0).reshape(-1, 2)
        sides = [np.repeat(c, S, axis=0) if c.shape[1] == 1 else c.reshape(-1, n) for c in sides]
        flat = live.reshape(-1)
        if not flat.all():
            at, *sides = (np.compress(flat, x, axis=0) for x in [at] + sides)
        done = sum(map(len, ends))
        if kind and single:
            seg = np.arange(done + 1, done + 1 + len(at))
        else:
            # in one group a segment's cell sides follow from its ends
            key = at.T if single else np.concatenate([at.T] + [c.T for c in sides])
            first, inv = _distinct_rows(key)
            at, *sides = (np.take(x, first, axis=0) for x in [at] + sides)
            seg = done + 1 + inv
        rows = np.zeros(live.shape, dtype=np.intp)
        rows[live] = seg
        index.append(rows)
        ends.append(at)
        # a value given once stands for each of its segment's nodes
        values.append([c if c.shape[1] == n else np.repeat(c, n, axis=1) for c in sides])
    index = np.concatenate(index)
    cells = {k: (c[0] if len(c) == 1 else np.concatenate(c)).reshape(-1, 1)
             for k, c in zip(cells, zip(*values))}
    return (ends[0] if len(ends) == 1 else np.concatenate(ends)), index, inverse, cells


def _weighted_sum(fv, weights, out):
    """out[i] = sum over j of weights[j] * fv[i * n + j], j = 0 .. n-1 in
    order, for the (k * n, width) integrand values of k segments; fv is
    released before the next integrand call."""
    fv = fv.reshape(len(out), len(weights), -1)
    np.multiply(weights[0], fv[:, 0], out=out)
    term = np.empty_like(out)
    for j in range(1, len(weights)):
        out += np.multiply(weights[j], fv[:, j], out=term)


def _segment_values(fbatch, segs, nodes, weights, chunk, width, support, groups,
                   coarse=None):
    """Gauss-Legendre value of fbatch over each segment of each piece.

    ``segs`` holds the S segments of each piece as (pieces, S, 2),
    ``groups`` each piece's group and ``coarse``, if given, the index of
    each piece's n-point rule made on the level before. Returns
    (values, index, inverse): piece i's segment j has the (width,)
    values ``values[index[inverse[i], j]]``, ``values[0]`` is +0.0, and
    row 0 of ``index`` is all 0, a dead piece's. Segments are
    evaluated in order but batched into single fbatch calls of at most
    ``chunk`` nodes, rounded up to whole segments, and at most the
    largest group's segments, to bound memory.

    The weighted sum runs node by node, j = 0 .. n-1, as elementwise
    array arithmetic: no BLAS and no SIMD reduction, whose summation
    order varies with the build, the CPU and the array shape. So each
    value has the same bits whatever the BLAS build, the CPU, the chunk
    size, or which points are evaluated together. Each node's weighted
    term is written into one scratch array per chunk, reused for every
    j, and added into the accumulator in place.

    ``support`` evaluates the cell sides at every rule node of a
    piece's segments, or once per piece for a step-function side
    (``_make_integrand``): it maps the segments of pieces of one kind,
    their ``groups`` and whether they may be evaluated once to a
    boolean array, False where a cell conditional is exactly 0, and a
    dict of the cell conditionals in the one layout of that kind, which
    fbatch takes back per node as keyword arguments. ``_live_pieces``
    calls it once per kind of piece per level. Segments whose nodes are
    all dead lie outside a cell side's support and are skipped: every
    member C_t is grounded, so the integrand is exactly +-0 on them.
    Adding +-0 never moves a nonzero sum, and the differences taken for
    the error estimate have the same magnitudes, so every value and
    estimate keeps its bits.

    A step-function side evaluated once on a piece has the bits it has
    at every node of the piece's segments. Its kernel's value changes
    only within a few multiples of 2**-53 of a hint (the degree contract
    in ``copulas.Copula``). Every cell side's hints are among its
    group's breakpoints, in both branches of ``_product_points_eval``,
    and every one in (0, 1) is an initial edge of the group
    (``_initial_edges``), so no hint lies inside a piece or a piece
    bisected from one, and a jump lies within ``_SLACK`` of the end of
    any piece that holds it. A node lies (1 + nodes[0]) / 2 of its
    segment's width or more from the segment's ends, and so from the
    piece's, and a piece with a segment too narrow for that to exceed
    ``_SLACK`` is evaluated at every node. So no jump lies between two
    nodes of a piece evaluated once.

    fbatch runs only on the distinct live segments of the distinct live
    pieces (``_live_pieces``), whose values every segment with the same
    key takes. A key holds the segment's endpoints and its cell sides, a
    step-function side given once as its one value, which stands for
    every node, and any other side as its n node values: equal keys
    mean equal integrand values, node by node, so each value has the
    bits it has when its group is integrated alone.
    """
    n = len(nodes)
    # no call takes more nodes than the largest group's share
    step = min(-(-chunk // n), segs.shape[1] * np.bincount(groups).max())
    ends, index, inverse, cells = _live_pieces(support, segs, nodes, groups, coarse)
    ts, hw = _nodes_of(ends, nodes)
    vals = np.empty((len(ts) + 1, width))
    vals[0] = 0.0
    for s in range(0, len(ts), step):
        given = {k: c[s * n : (s + step) * n] for k, c in cells.items()}
        acc = vals[1 + s : 1 + s + step]
        _weighted_sum(fbatch(ts[s : s + step].reshape(-1), **given), weights, acc)
        acc *= hw[s : s + step]
    return vals, index, inverse


def _integrate_batch(fbatch, breakpoints, q: QuadratureConfig, width: int, support):
    """Integrate vector-valued functions over [0, 1], one per group.

    ``breakpoints`` is a (groups, k) array of t-values, one row per
    group, padded with NaN (``_initial_edges``). fbatch maps
    nodes (k,) to values (k, width). Returns the (groups, width)
    integrals and each group's error estimate, valid for every
    component (sum over pieces of the max-norm two-level defect).
    ``support``, as ``_make_integrand`` returns it, evaluates the cell
    sides, which tell the groups apart, and lets each level skip the
    segments outside their support (``_segment_values``), with the
    same bits.

    This is the one adaptive loop. Its work list holds (group, piece)
    pairs, and each level is one array of them, by group and then left
    to right. Each group starts from its own edges with its own share
    of the tolerance, and each piece passes its group on to its halves.
    A piece is accepted when the max-norm gap between its n-point rule
    and the sum of its two halves is within its share of its group's
    tolerance; the rest are bisected into the next level. Each level's
    pieces are keyed once by ``_segment_values``: a distinct piece holds
    one row of indices into its segments' values, the pieces with its
    key share its sum and gap, and the dead pieces of a level of several
    groups share the row of zeros, whose sum and gap are +0.0. A piece's
    coarse index is part of its key, so a distinct piece has one.

    Every group's accepted values and gaps are summed in one pass, each
    group's in the order of their left ends: row i of a padded array
    holds every group's i-th piece from the left, its sum and then its
    gap, or +0.0 after the group's last piece, and one running sum from
    +0.0 goes down the rows, in blocks of rows of up to
    ``_CHUNK_ELEMENTS``: by add.accumulate, or one row at a time where a
    row has ``_LOOP_COLUMNS`` or more, either adding strictly in order.
    A sum from +0.0 is never -0.0, so the padding changes no bit. So every group
    gets the bits it gets alone, and a failure names the leftmost
    failing piece of the first failing group.
    """
    nodes, weights = _gl(q.nodes_per_subinterval)
    a, b, pieces = _initial_edges(breakpoints, q)
    groups = len(pieces)
    tol0 = q.adaptive_tol / pieces
    chunk = max(3 * len(nodes), _CHUNK_ELEMENTS // max(width, 1))
    group = np.repeat(np.arange(groups), pieces)
    coarse = None  # each piece's n-point rule as (values, index), from the level before
    owners, starts, refs, fines = [], [], [], []
    made = depth = 0
    while True:
        mid = 0.5 * (a + b)
        # a piece's segments: itself and its halves on the first level, then its halves
        ends = (a, b, a, mid, mid, b) if coarse is None else (a, mid, mid, b)
        vals, index, inverse = _segment_values(
            fbatch, np.stack(ends, axis=1).reshape(a.size, -1, 2), nodes, weights, chunk,
            width, support, group, None if coarse is None else coarse[1],
        )
        if coarse is None:
            cvals, crows = vals, index[:, 0]
        else:
            # a distinct piece's coarse index is part of its key
            cvals, crows = coarse[0], np.zeros(len(index), dtype=np.intp)
            crows[inverse] = coarse[1]
        # each distinct piece's sum of its halves, and its gap in the last column
        fine = np.empty((len(index), width + 1))
        np.add(np.take(vals, index[:, -2], axis=0), np.take(vals, index[:, -1], axis=0),
               out=fine[:, :width])
        np.max(np.abs(np.take(cvals, crows, axis=0) - fine[:, :width]), axis=1,
               out=fine[:, width])
        err = fine[:, width][inverse]
        # each bisection halves the budget so the total stays bounded
        tol = tol0[group] / (1 << depth)
        ok = err <= tol
        owners.append(group[ok])
        starts.append(a[ok])
        refs.append(made + inverse[ok])
        fines.append(fine)
        made += len(fine)
        bad = ~ok
        if not bad.any():
            break
        if depth >= q.max_depth:
            i = int(np.argmax(bad))
            raise NonConvergenceError((float(a[i]), float(b[i])), float(err[i]),
                                      float(tol[i]))
        group = np.repeat(group[bad], 2)
        a, b = np.stack((a[bad], mid[bad], mid[bad], b[bad]), axis=1).reshape(-1, 2).T
        coarse = vals, np.take(index[:, -2:], inverse[bad], axis=0).reshape(-1)
        depth += 1
    owners, refs = np.concatenate(owners), np.concatenate(refs)
    if depth:
        # levels after the first: the accepted pieces by group, then by left end
        order = np.lexsort((np.concatenate(starts), owners))
        owners, refs = owners[order], refs[order]
    at = np.searchsorted(owners, np.arange(groups + 1))
    counts = np.diff(at)
    rank = np.arange(counts.max())[:, None]
    # row i: every group's i-th accepted piece, or the zero row after its last
    pos = np.append(refs, made)[np.where(rank < counts, at[:-1] + rank, len(refs))]
    fines = np.concatenate(fines + [np.zeros((1, width + 1))])
    total = np.zeros((groups, width + 1))
    step = max(1, _CHUNK_ELEMENTS // total.size)
    for r in range(0, len(pos), step):
        sums = np.take(fines, pos[r : r + step], axis=0)
        sums[0] += total
        if total.size < _LOOP_COLUMNS:
            total = np.add.accumulate(sums, axis=0, out=sums)[-1]
        else:
            total = sums[0]
            for row in sums[1:]:
                total += row
    return total[:, :width], total[:, width]


def _side(zs):
    """A coordinate of the integrand: a (groups, 1) column of one value
    per group as it is, a flat row as (1, k), or as a (1, 1) cell when
    its values share their bits."""
    zs = np.asarray(zs, dtype=float)
    if zs.ndim == 2:
        return zs
    bits = zs.view(np.uint64)
    if bits.size and (bits == bits[0]).all():
        return zs[:1].reshape(1, 1)
    return zs.reshape(1, -1)


def _make_integrand(A: Copula, family, B: Copula, xs, ys):
    """(fbatch, support) for the points of one ``_integrate_batch`` call.

    xs and ys broadcast to (groups, width): a flat array is a row that
    every group shares, a (groups, 1) column the grouped coordinate.
    fbatch(ts, s=None, r=None) is the integrand at nodes ts, (k, width).
    A coordinate constant within a group, a column or a row whose values
    share their bits, is a cell: its side's conditional is evaluated
    once per node, or once per piece, and broadcast only in the result.
    support(segs, nodes, groups, once) takes the segments of m pieces of
    one kind, as (m, S, 2), or m segments as (m, 2), the rule nodes on
    [-1, 1], each piece's group and one bool, whether the pieces may be
    evaluated once (``_live_pieces`` decides). It returns where no cell
    side's clipped conditional is 0 (NaN stays live), as (m, 1) or
    (m, S * n), and those conditionals, s on the left and r on the
    right; with no cell side, every node is live and the dict is empty.
    A side whose factor declares ``conditional_degree`` 0 is a step
    function of t: on a once call its kernel runs at the first node of
    every piece's first segment, in one call, and comes back as (m, 1),
    one value that stands for every node of the piece's segments; on a
    narrow call it is evaluated at every node, with the same clip, and
    comes back as (m, S * n) (``_segment_values`` states why this keeps
    the bits). Any other cell side is (m, S * n), one column per node of
    each segment in turn, on either call.
    fbatch takes the conditionals back as (k, 1) columns instead of
    evaluating them again. fbatch caps numpy's ufunc buffers
    (``_integrand_bufsize``), so a call on few live nodes holds about
    one (k, width) array; buffering changes no arithmetic.
    """
    width = np.broadcast_shapes(np.shape(xs), np.shape(ys))[-1]
    X, Y = _side(xs), _side(ys)

    def left(T, X=X):
        s = A._d2(X, T)
        return np.clip(s, 0.0, 1.0, out=s)

    def right(T, Y=Y):
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

    sides = [(k, f, Z, C.conditional_degree == 0)
             for k, f, Z, C in (("s", left, X, A), ("r", right, Y, B)) if Z.shape[1] == 1]

    def support(segs, nodes, groups, once):
        # the cell sides on pieces of one kind: a step side at the first
        # node of each if they are once, any other side at every node
        live, cells, ts = np.ones((len(segs), 1), dtype=bool), {}, None
        for k, f, Z, steps in sides:
            # a side of one row holds every group's value, a column one per group
            Z = Z if len(Z) == 1 else np.take(Z, groups, axis=0)
            if steps and once:
                c = f(_nodes_of(segs.reshape(len(segs), -1)[:, :2], nodes[:1])[0], Z)
            else:
                ts = _nodes_of(segs, nodes)[0].reshape(len(segs), -1) if ts is None else ts
                c = f(ts, Z)
            live = live & (c != 0.0)
            cells[k] = c
        return live, cells

    return fbatch, support


def _product_points_eval(A, family, B, xs, ys, q):
    """Quadrature values of the (generalized) product at flat points.

    Each side's hints are asked for once, one row per distinct
    coordinate, with the probe coordinate 0.375 in front: the side with
    more hints there is the grouped one, and without hints on either
    side all points form one group. Points sharing the grouped
    coordinate form a group, whose subdivision is built once. The groups
    whose other coordinates form the same row, bit for bit, are
    integrated in one ``_integrate_batch`` call, in key order: on a
    lattice that is every group. A group's breakpoint row is its own
    coordinate's hints, then the family's breakpoints and the other
    side's hints at every coordinate of the row, columns that every
    group of the call shares. Either way a group's breakpoints hold the
    hints of both sides at every coordinate they take in the group, so
    every cell side's hints are among them, as ``_segment_values``
    requires. Returns (values, worst per-point error estimate).
    """
    m = xs.size
    out = np.empty(m)
    if m == 0:
        return out, 0.0
    fam_breaks = np.asarray(family.breakpoints() if family is not None else (), dtype=float)
    ux, uy = np.unique(xs), np.unique(ys)
    hA = A.d2_breakpoints(np.concatenate(([0.375], ux)))
    hB = B.d1_breakpoints(np.concatenate(([0.375], uy)))
    # NaN is no hint
    kA, kB = np.count_nonzero(hA[0] == hA[0]), np.count_nonzero(hB[0] == hB[0])
    hA, hB = hA[1:], hB[1:]
    if not (kA or kB):
        breaks = np.concatenate((fam_breaks, hA, hB), axis=None).reshape(1, -1)
        fb, support = _make_integrand(A, family, B, xs, ys)
        vals, errs = _integrate_batch(fb, breaks, q, m, support)
        return np.clip(vals[0], 0.0, 1.0), float(errs[0])
    by_x = kA >= kB
    keys, uniq, own, other, other_uniq, shared = ((xs, ux, hA, ys, uy, hB) if by_x
                                                  else (ys, uy, hB, xs, ux, hA))
    # the points of each group, in increasing order
    inv = np.searchsorted(uniq, keys)
    order = np.argsort(inv, kind="stable")
    ends = np.cumsum(np.bincount(inv)).tolist()
    members = [order[i:j] for i, j in zip([0] + ends, ends)]
    calls = {}
    for g, idx in enumerate(members):
        calls.setdefault(other[idx].tobytes(), []).append(g)
    worst = 0.0
    for gs in calls.values():
        idx = np.array([members[g] for g in gs])
        row = other[idx[0]]
        col = uniq[gs].reshape(-1, 1)
        # the other side's rows at the row's coordinates
        at = np.searchsorted(other_uniq, row)
        common = np.concatenate((fam_breaks, shared[at]), axis=None)
        breaks = np.empty((len(gs), own.shape[1] + common.size))
        breaks[:, : own.shape[1]] = own[gs]
        breaks[:, own.shape[1] :] = common
        fb, support = _make_integrand(A, family, B, *((col, row) if by_x else (row, col)))
        vals, errs = _integrate_batch(fb, breaks, q, row.size, support)
        out[idx] = vals
        worst = max(worst, float(errs.max()))
    return np.clip(out, 0.0, 1.0), worst


class ComputedCopula(Copula):
    """Star product evaluated on demand by adaptive quadrature."""

    def __init__(self, A: Copula, family, B: Copula, q: QuadratureConfig):
        self.A = A
        self.family = family
        self.B = B
        self.q = q
        self.source = (A, family, B)

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


def _identity_m(A, family, B, q):
    """M is a two-sided unit for both products: the other factor."""
    return B if isinstance(A, FrechetM) else A if isinstance(B, FrechetM) else None


def _zero_pi(A, family, B, q):
    """Pi absorbs the classical product on either side. Pi is NOT
    absorbing for the generalized product, so this rule serves only the
    classical one."""
    return PI if isinstance(A, ProductPi) or isinstance(B, ProductPi) else None


def _w_closed_form(A, family, B, q):
    """(A *(_C) W)(u, v) = u - A(u, 1 - v), and (W *(_C) B) is the
    transpose of B^T *(_C) W, for any family, because the inner copula
    only ever sees 0/1 in the W slot. The right factor is checked first."""
    if isinstance(B, FrechetW):
        return WRightProduct(A)
    if isinstance(A, FrechetW):
        return TransposedCopula(WRightProduct(B.transpose()))


def _invertible_reduction(A, family, B, q):
    """When the left factor is left invertible (or the right factor right
    invertible) its conditional is 0/1 valued, the family drops out, and
    the generalized product is the classical one, which the same walk
    gives, with its estimate. This subsumes the shuffle closed form for
    the generalized product."""
    if A.left_invertible or B.right_invertible:
        return _product(A, None, B, q).copula


def _shuffle_closed_form(A, family, B, q):
    """A shuffle factor turns the integral into a finite sum of
    increments of the other factor; a right shuffle factor is the
    transpose of a left one."""
    if isinstance(A, ShuffleOfM):
        return ShuffleStarProduct(A, B)
    if isinstance(B, ShuffleOfM):
        return TransposedCopula(ShuffleStarProduct(B.transpose(), A.transpose()))


def _grid_closed_form(A, family, B, q):
    """Two checkerboards of the same order N have conditionals that are
    constant in t on every cell, so their classical product is the
    checkerboard of N times the matrix product of their masses (the
    Markov product of doubly stochastic matrices)."""
    if isinstance(A, GridCopula) and isinstance(B, GridCopula) and A.n == B.n:
        return GridCopula(A.n * _markov_product(A.mass, B.mass))


def _poly_closed_form(A, family, B, q):
    """When both factors are polynomial copulas (Pi, FGM, an earlier
    polynomial product, or a transpose of one) and, for the generalized
    product, every member is too, with a parameter that is polynomial in
    t on each piece (``ConstantFamily``, ``PiecewiseConstantFamily``,
    ``FGMCurveFamily`` split at its clip points), the product is a
    ``PolyCopula`` computed in exact rational arithmetic (see ``poly``).
    A product whose degree would pass ``poly.MAX_DEGREE`` = 16 in either
    variable is left to quadrature."""
    return poly_product(A, family, B)


# the fast paths in the order they are tried: (tag, the products the rule
# serves, rule); a rule maps (A, family, B, q) to the product's copula, or
# to None where it does not apply, and only the invertible reduction,
# which walks the table again, reads q
_RULES = (
    ("identity-M", "both", _identity_m),
    ("zero-Pi", "classical", _zero_pi),
    ("W-closed-form", "both", _w_closed_form),
    ("invertible-reduction", "generalized", _invertible_reduction),
    ("shuffle-closed-form", "classical", _shuffle_closed_form),
    ("grid-closed-form", "classical", _grid_closed_form),
    ("poly-closed-form", "both", _poly_closed_form),
)

FAST_PATHS = ("none",) + tuple(tag for tag, _, _ in _RULES)


def _product(A: Copula, family, B: Copula, q: QuadratureConfig | None,
             fast_paths: bool = True) -> ProductResult:
    """A *_C B over ``family``, or the classical A * B when it is None.

    The one dispatch behind ``star`` and ``star_c``: after the argument
    checks, the first rule of ``_RULES`` that serves the product and
    applies gives it. Without one, or with ``fast_paths`` off, the
    product is left to quadrature, tag none, and its error estimate is
    probed when first read; a closed form or a factor is exact. The
    copula's ``source`` is set to the product asked for unless it is a
    factor or ``PI``.
    """
    if not (isinstance(A, Copula) and isinstance(B, Copula)):
        raise ConstructionError(
            f"factors must be copulas, got {type(A).__name__} and {type(B).__name__}")
    if family is not None and not isinstance(family, CopulaFamily):
        raise ConstructionError(f"family must be a copula family, got {type(family).__name__}")
    if q is not None and not isinstance(q, QuadratureConfig):
        raise ConstructionError(f"q must be a QuadratureConfig or None, got {type(q).__name__}")
    q = q if q is not None else QuadratureConfig()
    served = ("both", "classical" if family is None else "generalized")
    for tag, serves, rule in _RULES if fast_paths else ():
        if serves in served and (cop := rule(A, family, B, q)) is not None:
            break
    else:
        tag, cop = FAST_PATHS[0], ComputedCopula(A, family, B, q)
    if any(cop is c for c in (A, B, PI)):
        return ProductResult(cop, tag, 0.0, q)
    cop.source = (A, family, B)
    error = (lambda: _probe_error(cop)) if isinstance(cop, ComputedCopula) else 0.0
    return ProductResult(cop, tag, error, q)


def star(A: Copula, B: Copula, q: QuadratureConfig | None = None,
         *, fast_paths: bool = True) -> ProductResult:
    """Classical star product A * B, by the first fast path of
    ``_RULES`` that serves it and applies, else by quadrature. Pass
    fast_paths=False to force raw quadrature.
    """
    return _product(A, None, B, q, fast_paths)


def star_c(A: Copula, family, B: Copula, q: QuadratureConfig | None = None,
           *, fast_paths: bool = True) -> ProductResult:
    """Generalized star product A *_C B over a copula family, by the
    first fast path of ``_RULES`` that serves it and applies, else by
    quadrature. Pass fast_paths=False to force raw quadrature.
    """
    return _product(A, family, B, q, fast_paths)
