import math
import tracemalloc

import numpy as np
import pytest

import oracles
from copulalg import products
from copulalg.copulas import fd_partial1, fd_partial2
from copulalg.dsl import build_copula, parse
from copulalg.verify import corpus_families
from copulalg import (
    ComputedCopula,
    ConstantFamily,
    ConstructionError,
    Copula,
    DomainError,
    FGMCopula,
    FGMCurveFamily,
    FrechetM,
    FrechetW,
    GridCopula,
    M,
    NonConvergenceError,
    PI,
    PiecewiseConstantFamily,
    QuadratureConfig,
    ShuffleOfM,
    ShuffleStarProduct,
    StraightShuffle,
    TransposedCopula,
    W,
    WRightProduct,
    grid_from_copula,
    midpoint_fgm_approximation,
    shuffle_from_grid,
    star,
    star_c,
    validate,
)

GRID_33 = np.arange(33) / 32


def sup_on_lattice(c1, c2, pts=GRID_33):
    a = c1.eval(pts[:, None], pts[None, :])
    b = c2.eval(pts[:, None], pts[None, :])
    return float(np.abs(a - b).max())


# ---------------------------------------------------------------------------
# quadrature core


def test_config_validation():
    QuadratureConfig()
    with pytest.raises(ConstructionError):
        QuadratureConfig(base_subintervals=0)
    with pytest.raises(ConstructionError):
        QuadratureConfig(nodes_per_subinterval=1)
    # a tolerance is finite and positive: an infinite one would accept
    # every piece at its first level
    for bad in (0.0, -1e-8, math.inf, -math.inf, math.nan, "1e-8", None, 1e-8j):
        with pytest.raises(ConstructionError, match="adaptive_tol"):
            QuadratureConfig(adaptive_tol=bad)
    # a numpy real is a real
    assert QuadratureConfig(adaptive_tol=np.float64(1e-6)).adaptive_tol == 1e-6
    with pytest.raises(ConstructionError):
        QuadratureConfig(max_depth=-1)
    # the counts are integers: a float, even a whole one, is refused at
    # construction, and a numpy integer is kept as the same int
    for name in ("base_subintervals", "nodes_per_subinterval", "max_depth"):
        for bad in (1.5, 3.0, "16", None):
            with pytest.raises(ConstructionError, match=name):
                QuadratureConfig(**{name: bad})
        q = QuadratureConfig(**{name: np.int64(5)})
        assert type(getattr(q, name)) is int and getattr(q, name) == 5


def test_quadrature_factor_partials_by_finite_differences(monkeypatch):
    # a quadrature product has no analytic partials, so as a factor of
    # another quadrature product it is differentiated by Copula._d1 and
    # _d2, the central differences; FGM products have exact polynomials
    from copulalg import PolyCopula, copulas
    calls = {"fd_partial1": 0, "fd_partial2": 0}
    for name, fn in ((n, getattr(copulas, n)) for n in calls):
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(copulas, name, counted)
    inner = star(FGMCopula(0.3), FGMCopula(-0.4), fast_paths=False).copula
    exact_inner = star(FGMCopula(0.3), FGMCopula(-0.4)).copula
    u, v = np.array([0.2, 0.5, 0.9]), np.array([0.7, 0.3, 0.6])
    cases = ((star(FGMCopula(0.5), inner, fast_paths=False),
              star(FGMCopula(0.5), exact_inner), "fd_partial1"),
             (star(inner, FGMCopula(0.5), fast_paths=False),
              star(exact_inner, FGMCopula(0.5)), "fd_partial2"))
    for prod, exact, fallback in cases:
        assert isinstance(exact.copula, PolyCopula)
        before = calls[fallback]
        got = prod.copula.eval(u, v)
        assert calls[fallback] > before
        assert np.abs(got - exact.copula.eval(u, v)).max() <= 1e-9


def _forced(A, F, B):
    # the forced quadrature product of A and B over F, classical if F is None
    prod = star(A, B, fast_paths=False) if F is None else star_c(A, F, B, fast_paths=False)
    return prod.copula


def _all_live(segs, nodes, groups, once):
    # the support of an integrand without cell sides: every node is live
    return np.ones((len(segs), 1), dtype=bool), {}


def integrate(f, breakpoints=(), q=None):
    # a scalar function on [0, 1] through the engine's one work list, as
    # one group of width 1 with every node live: (value, error estimate)
    def fbatch(ts):
        return np.asarray([float(f(t)) for t in ts]).reshape(-1, 1)

    q = QuadratureConfig() if q is None else q
    totals, errs = products._integrate_batch(
        fbatch, np.reshape(breakpoints, (1, -1)), q, 1, _all_live)
    return float(totals[0, 0]), float(errs[0])


def test_integrate_constant_exact():
    val, err = integrate(lambda t: 1.0)
    assert val == 1.0
    assert err == 0.0


def test_integrate_linear():
    val, err = integrate(lambda t: t)
    assert abs(val - 0.5) <= 1e-15
    assert err <= 1e-15


def test_integrate_kink_with_hint():
    val, err = integrate(lambda t: abs(t - 1 / 3), breakpoints=(1 / 3,))
    assert abs(val - 5 / 18) <= 1e-12


def test_integrate_kink_adaptive():
    # no hint: the subdivision has to find the kink on its own
    val, err = integrate(lambda t: abs(t - 1 / 3))
    assert abs(val - 5 / 18) <= 1e-8


def test_integrate_smooth_oscillation():
    val, err = integrate(lambda t: math.sin(7 * t))
    assert abs(val - (1 - math.cos(7)) / 7) <= 1e-13


def test_nonconvergence_raises():
    q = QuadratureConfig(base_subintervals=1, nodes_per_subinterval=2,
                         adaptive_tol=1e-12, max_depth=2)
    with pytest.raises(NonConvergenceError) as exc:
        integrate(lambda t: abs(t - 1 / 3), q=q)
    assert exc.value.err > exc.value.tol
    # the first segment in work order that fails at max depth is named
    assert exc.value.interval == (0.25, 0.5)
    assert exc.value.err == float.fromhex("0x1.0bd03dada1fc0p-11")
    assert exc.value.tol == float.fromhex("0x1.19799812dea11p-42")
    # kinks in [0.25, 0.5] and [0.5, 0.75]: both fail, the left one is named
    with pytest.raises(NonConvergenceError) as exc:
        integrate(lambda t: abs(t - 1 / 3) + abs(t - 0.7), q=q)
    assert exc.value.interval == (0.25, 0.5)
    assert exc.value.err == float.fromhex("0x1.0bd03dada1f80p-11")


GL16_NODES = (
    "0x1.fa92c264d787ep-1", "0x1.e39f56616f9b0p-1", "0x1.bb3403514e483p-1",
    "0x1.82c45dda4726bp-1", "0x1.3c5a466d5e8b8p-1", "0x1.d50259a43a772p-2",
    "0x1.205cae642337cp-2", "0x1.852bd6676a9f9p-4",
)
GL16_WEIGHTS = (
    "0x1.bcddab4b7c228p-6", "0x1.fdfb1a2c1261ep-5", "0x1.85c4ee79cc24bp-4",
    "0x1.fe7af2bad3878p-4", "0x1.325f61bca3cbep-3", "0x1.5a6ebbb5a7600p-3",
    "0x1.75f8c77e0c011p-3", "0x1.83feae80e4e01p-3",
)


def test_gauss_legendre_16_bits_pinned():
    # leggauss finds the nodes with LAPACK eigvalsh plus a Newton step, so
    # these bits could move with the LAPACK build; every bit-identity
    # promise of the products holds for this set of nodes and weights
    nodes, weights = products._gl(16)
    half_nodes = [float.fromhex(h) for h in GL16_NODES]
    half_weights = [float.fromhex(h) for h in GL16_WEIGHTS]
    want_nodes = [-x for x in half_nodes] + half_nodes[::-1]
    want_weights = half_weights + half_weights[::-1]
    msg = ("Gauss-Legendre nodes/weights from numpy leggauss (LAPACK) "
           "differ from the pinned bits; product values will differ too")
    assert [float(x) for x in nodes] == want_nodes, msg
    assert [float(w) for w in weights] == want_weights, msg


# ---------------------------------------------------------------------------
# breakpoint hints


def _point_breakpoints(C, side, x):
    """Reference: the breakpoints of one coordinate as a tuple, each
    shuffle piece visited in a Python loop. side 2 is d2_breakpoints,
    side 1 is d1_breakpoints."""
    if isinstance(C, TransposedCopula):
        return _point_breakpoints(C.inner, 3 - side, x)
    if isinstance(C, ShuffleOfM):
        S = C if side == 2 else C.transpose()  # d1 of S is d2 of S^T
        pts = []
        for i in range(S.n_pieces):
            c = min(max(x - S._s0[i], 0.0), S._w[i])
            if S._flip[i]:
                pts += [S._t1[i] - c, S._t1[i]]
            else:
                pts += [S._t0[i], S._t0[i] + c]
        return tuple(pts)
    if isinstance(C, ShuffleStarProduct):
        S, pts = C.S, []
        for i in range(S.n_pieces):
            if side == 2:
                # C's hints at both ends of every piece the section reaches
                c = min(max(x - S._s0[i], 0.0), S._w[i])
                if c > 0.0:
                    ends = (S._t1[i] - c, S._t1[i]) if S._flip[i] else (S._t0[i], S._t0[i] + c)
                    pts += [h for e in ends for h in _point_breakpoints(C.C, 2, e)]
            else:
                # the strip edges, and C's hints carried back through a piece
                pts += [S._s0[i]] if i else []
                for h in _point_breakpoints(C.C, 1, x):
                    if S._t0[i] <= h <= S._t1[i]:
                        pts.append(S._s0[i] + (S._t1[i] - h) if S._flip[i]
                                   else S._s0[i] + (h - S._t0[i]))
        return tuple(pts)
    if isinstance(C, WRightProduct):
        if side == 2:
            return tuple(1.0 - h for h in _point_breakpoints(C.A, 2, x))
        return _point_breakpoints(C.A, 1, 1.0 - x)
    if isinstance(C, FrechetM):
        return (float(x),)
    if isinstance(C, FrechetW):
        return (1.0 - float(x),)
    if isinstance(C, GridCopula):
        return tuple(np.arange(1, C.n) / C.n)
    return ()


def _hint_count(hints):
    # the hints in a breakpoint array; NaN pads a row and is no hint
    return int(np.count_nonzero(~np.isnan(hints)))


def _edges_of(rows, q):
    """Each group's initial edges from ``_initial_edges`` of its rows,
    as one array per group."""
    a, b, pieces = products._initial_edges(rows, q)
    group = np.repeat(np.arange(len(rows)), pieces)
    return [np.append(a[group == g], b[group == g][-1]) for g in range(len(rows))]


def _padded(groups):
    # one row per group, each padded with NaN to the longest
    k = max(len(g) for g in groups)
    rows = np.full((len(groups), k), np.nan)
    for i, g in enumerate(groups):
        rows[i, : len(g)] = g
    return rows


def _tuple_path_edges(breakpoints, q):
    """Reference: initial edges from a tuple of breakpoints, filtered
    one value at a time."""
    base = np.arange(q.base_subintervals + 1) / q.base_subintervals
    pts = [base]
    extra = [float(b) for b in breakpoints if np.isfinite(b) and 0.0 < float(b) < 1.0]
    if extra:
        pts.append(np.asarray(extra, dtype=float))
    return np.unique(np.concatenate(pts))


def _hint_corpus():
    rng = np.random.default_rng(7)
    g6 = grid_from_copula(FGMCopula(0.8), 6)
    base = [M, W, PI, FGMCopula(0.7), StraightShuffle(0.3), g6]
    for k in (2, 3, 5, 9):
        cuts = (0.0, *np.sort(rng.uniform(size=k - 1)), 1.0)
        flips = rng.integers(0, 2, k).astype(bool)
        base.append(ShuffleOfM(cuts, rng.permutation(k) + 1, flips))
    base += [ShuffleStarProduct(base[-2], g6), ShuffleStarProduct(StraightShuffle(0.3), PI),
             WRightProduct(g6), WRightProduct(base[-1])]
    return [c for C in base for c in (C, C.transpose(), TransposedCopula(C))]


def test_breakpoints_are_rows_per_coordinate():
    # one float row per coordinate, in flat order, padded with NaN: row
    # i without NaN holds the hints of coordinate i, as a set
    xs = np.concatenate((np.arange(17) / 16, [0.3, 1 / 3, 0.7, 0.3]))
    for C in _hint_corpus():
        for side, method in ((2, C.d2_breakpoints), (1, C.d1_breakpoints)):
            for coords in (xs, xs.reshape(3, 7), 0.375, 1 / 3, 0.0, 1.0, xs[:0]):
                rows = method(coords)
                assert isinstance(rows, np.ndarray) and rows.dtype == np.float64, (C, side)
                assert rows.ndim == 2 and len(rows) == np.size(coords), (C, side)
                for x, row in zip(np.ravel(coords), rows):
                    want = _point_breakpoints(C, side, float(x))
                    assert set(row[~np.isnan(row)].tolist()) == set(want), (C, side, x)
                    assert _hint_count(row) == len(want), (C, side, x)
            if not any(_point_breakpoints(C, side, float(x)) for x in xs):  # smooth
                assert method(xs).shape == (xs.size, 0)


def test_initial_edges_match_tuple_path():
    # every group's edges from one sort of its NaN-padded row are
    # bit-identical to the edges of the concatenated per-point tuples:
    # every value in (0, 1) once, however close to another; groups of
    # chains of cuts 0.9e-14 apart, hints one ulp apart, values next to
    # 0, 1 and base cuts, duplicates, NaN, the infinities and values
    # outside (0, 1), in one call and each group alone
    tiny = 0.9e-14
    ulp = np.nextafter(0.7, 1.0)
    groups = [
        (),
        (0.25 + tiny, 0.25 + 2 * tiny, 0.25 + 3 * tiny, 0.7, 0.7, 0.7 + 5e-15),
        (np.nan, np.inf, -np.inf, -0.5, 1.5, 0.0, 1.0, -0.0, 0.3),
        (3e-15, 1.0 - 3e-15, 0.5 - 5e-15, 0.5 + 2e-14, 0.5 + 2.5e-14),
        np.asarray([0.1 + 0.2, 0.3, 0.3, 0.6 - 1e-15, 0.6 + 1e-15, 0.6]),
        (0.125 - tiny, 0.125, 0.125 + tiny, 0.125 + 2 * tiny),
        (1.0 - 1e-15, 1.0 - 2e-15, 5e-324, np.nextafter(1.0, 0.0)),
        (1.0 - 3 * tiny, 1.0 - 2 * tiny, 1.0 - tiny),
        (0.7, ulp, np.nextafter(ulp, 1.0), np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)),
        np.random.default_rng(3).uniform(size=200),
    ]
    rows = _padded(groups)
    corpus = _hint_corpus()
    ys = np.arange(9) / 8
    fam_breaks = (0.25, 0.5)
    # the last configuration puts the same cuts in front of every row
    configs = ((QuadratureConfig(), ()), (QuadratureConfig(base_subintervals=1), ()),
               (QuadratureConfig(base_subintervals=5), (0.2 + 5e-15, np.nan, 0.9, 2.0, ulp)))
    for q, cuts in configs:
        cut_rows = np.concatenate((np.tile(cuts, (len(rows), 1)), rows), axis=1)
        together = _edges_of(cut_rows, q)
        for i, bp in enumerate(groups):
            want = _tuple_path_edges(cuts + tuple(bp), q)
            (alone,) = _edges_of(cut_rows[i : i + 1], q)
            assert together[i].tobytes() == alone.tobytes() == want.tobytes(), (q, bp)
            assert want[0] == 0.0 and want[-1] == 1.0 and (np.diff(want) > 0.0).all()
        # with no group, and groups whose rows are empty
        assert all(len(x) == 0 for x in products._initial_edges(np.empty((0, 3)), q))
        base = _tuple_path_edges((), q).tobytes()
        assert [e.tobytes() for e in _edges_of(np.empty((2, 0)), q)] == [base, base]
        for A in corpus:
            for B in corpus[::3]:
                hints = []
                for x in (0.2, 0.5):
                    xs = np.full(ys.size, x)
                    arrays = np.concatenate(
                        (cuts, fam_breaks, A.d2_breakpoints(xs), B.d1_breakpoints(ys)),
                        axis=None,
                    )
                    tuples = cuts + fam_breaks + _point_breakpoints(A, 2, x)
                    for y in ys:
                        tuples += _point_breakpoints(B, 1, float(y))
                    hints.append(arrays)
                    (got,) = _edges_of(arrays[None], q)
                    assert got.tobytes() == _tuple_path_edges(tuples, q).tobytes()
                # the two groups in one call, as a lattice's rows
                got = _edges_of(_padded(hints), q)
                assert [e.tobytes() for e in got] == [
                    _edges_of(h[None], q)[0].tobytes() for h in hints]


def test_group_hints_its_shared_coordinate_once(quad_counter):
    # a group of points sharing x asks the left factor for that x's
    # breakpoints once, not once per point, and gets the same edges
    S = shuffle_from_grid(grid_from_copula(FGMCopula(0.7), 16))
    B = FGMCopula(0.5)
    q = QuadratureConfig()
    xs = np.full(33, 0.3)
    star(S, B, q, fast_paths=False).copula.eval(xs, GRID_33)
    (hints,) = quad_counter["breakpoints"]
    assert hints.shape == S.d2_breakpoints(0.3).shape == (1, 2 * S.n_pieces)
    every_point = np.concatenate((S.d2_breakpoints(xs), B.d1_breakpoints(GRID_33)), axis=None)
    assert every_point.size == 33 * hints.size
    want = _edges_of(every_point[None], q)[0]
    assert _edges_of(hints, q)[0].tobytes() == want.tobytes()


def test_lattice_asks_each_side_for_hints_once(monkeypatch, quad_counter):
    # work-counter gate: a forced 33 x 33 shuffle * fgm lattice is one
    # quadrature run, and each factor is asked for its hints once for
    # it, one row per coordinate, not once per group
    S = ShuffleOfM((0.0, 0.2, 0.7, 1.0), (3, 1, 2), (False, True, False))
    B = FGMCopula(0.5)
    calls = {"d2": 0, "d1": 0}

    def counting(obj, name, key):
        method = getattr(obj, name)

        def counted(x):
            calls[key] += 1
            return method(x)
        monkeypatch.setattr(obj, name, counted)

    counting(S, "d2_breakpoints", "d2")
    counting(B, "d1_breakpoints", "d1")
    star(S, B, fast_paths=False).copula.eval(GRID_33[:, None], GRID_33[None, :])
    assert quad_counter["calls"] == 1
    assert calls == {"d2": 1, "d1": 1}


# ---------------------------------------------------------------------------
# classical star product: closed forms


def test_star_identity_values(copula_corpus):
    for name, c in copula_corpus:
        r = star(M, c)
        assert r.fast_path == "identity-M"
        assert r.copula is c
        r = star(c, M)
        assert r.fast_path == "identity-M"
        assert r.copula is c


def test_star_zero_values(copula_corpus):
    for name, c in copula_corpus:
        for r in (star(PI, c), star(c, PI)):
            # the identity check outranks the zero check when c is M,
            # but the result is Pi either way
            assert r.copula is PI
            if name != "M":
                assert r.fast_path == "zero-Pi"


def test_star_w_closed_form():
    r = star(FGMCopula(1.0), W)
    assert r.fast_path == "W-closed-form"
    u, v = 0.3, 0.8
    assert r.copula.eval(u, v) == pytest.approx(
        u - FGMCopula(1.0).eval(u, 1 - v), abs=1e-15
    )
    r = star(W, FGMCopula(1.0))
    assert r.fast_path == "W-closed-form"
    assert r.copula.eval(u, v) == pytest.approx(
        v - FGMCopula(1.0).eval(1 - u, v), abs=1e-15
    )


def test_star_w_w_is_m():
    r = star(W, W)
    assert sup_on_lattice(r.copula, M) == 0.0


def test_star_shuffle_with_transpose_is_m(flip_shuffle):
    for s in (StraightShuffle(0.3), flip_shuffle):
        r = star(s, s.transpose())
        assert r.fast_path == "shuffle-closed-form"
        assert sup_on_lattice(r.copula, M) <= 1e-15


def test_star_fast_path_precedence(flip_shuffle):
    assert star(M, W).fast_path == "identity-M"
    assert star(M, PI).fast_path == "identity-M"
    assert star(PI, W).fast_path == "zero-Pi"
    assert star(PI, flip_shuffle).fast_path == "zero-Pi"
    assert star(flip_shuffle, W).fast_path == "W-closed-form"
    assert star(W, flip_shuffle).fast_path == "W-closed-form"
    assert star(flip_shuffle, FGMCopula(1.0)).fast_path == "shuffle-closed-form"
    assert star(FGMCopula(1.0), flip_shuffle).fast_path == "shuffle-closed-form"
    assert star(FGMCopula(1.0), FGMCopula(1.0)).fast_path == "poly-closed-form"
    assert star(FGMCopula(1.0), FGMCopula(1.0), fast_paths=False).fast_path == "none"
    g8a = grid_from_copula(FGMCopula(0.6), 8)
    g8b = grid_from_copula(flip_shuffle, 8)
    g16 = grid_from_copula(FGMCopula(-0.4), 16)
    assert star(g8a, g8b).fast_path == "grid-closed-form"
    assert star(M, g8a).fast_path == "identity-M"
    assert star(PI, g8a).fast_path == "zero-Pi"
    assert star(g8a, W).fast_path == "W-closed-form"
    assert star(g8a, g16).fast_path == "none"
    assert star(g8a, g8b, fast_paths=False).fast_path == "none"
    F = PiecewiseConstantFamily((0.5,), (M, W))
    assert star_c(g8a, F, g8b).fast_path == "none"


def test_star_c_fast_path_precedence(flip_shuffle):
    F = PiecewiseConstantFamily((0.5,), (M, W))
    fgm = FGMCopula(0.5)
    r = star_c(PI, F, flip_shuffle)
    # invertible-reduction outranks the classical product's zero-Pi tag
    assert r.fast_path == "invertible-reduction"
    assert r.copula is PI
    assert star_c(W, F, flip_shuffle).fast_path == "W-closed-form"
    assert star_c(flip_shuffle, F, W).fast_path == "W-closed-form"
    assert star_c(PI, F, W).fast_path == "W-closed-form"
    assert star_c(M, F, W).fast_path == "identity-M"
    assert star_c(fgm, F, fgm).fast_path == "none"


def test_star_rejects_factors_and_families_of_the_wrong_type():
    # a family as a factor, or a copula as the family, is refused when
    # the product is built, with or without fast paths
    fgm = FGMCopula(0.3)
    for fast in (True, False):
        with pytest.raises(ConstructionError, match="factors must be copulas"):
            star(ConstantFamily(PI), fgm, fast_paths=fast)
        with pytest.raises(ConstructionError, match="factors must be copulas"):
            star_c(fgm, ConstantFamily(PI), 0.5, fast_paths=fast)
        for A in (FGMCopula(0.5), M):
            with pytest.raises(ConstructionError, match="family must be a copula family"):
                star_c(A, PI, fgm, fast_paths=fast)
        # a quadrature setting that is not a QuadratureConfig, closed form or not
        for q in (5, {"adaptive_tol": 1e-6}):
            for A in (fgm, M):
                with pytest.raises(ConstructionError, match="q must be a QuadratureConfig"):
                    star(A, fgm, q, fast_paths=fast)
                with pytest.raises(ConstructionError, match="q must be a QuadratureConfig"):
                    star_c(A, ConstantFamily(PI), fgm, q=q, fast_paths=fast)


def test_star_fast_paths_disabled():
    r = star(M, W, fast_paths=False)
    assert r.fast_path == "none"
    assert isinstance(r.copula, ComputedCopula)
    assert sup_on_lattice(r.copula, W) <= 1e-6


def test_shuffle_star_pinned_value():
    S = StraightShuffle(0.3)
    assert ShuffleStarProduct(S, PI).eval(0.4, 0.6) == pytest.approx(0.24, abs=1e-15)


def test_shuffle_star_requires_shuffle():
    with pytest.raises(ConstructionError):
        ShuffleStarProduct(FGMCopula(0.5), PI)


def test_straight_shuffle_star_closed_form():
    alpha = 0.3
    S = StraightShuffle(alpha)
    C = FGMCopula(0.8)
    P = ShuffleStarProduct(S, C)
    for u, v in [(0.2, 0.5), (0.7, 0.9), (0.71, 0.4), (1.0, 0.6), (0.0, 0.3)]:
        if u <= 1 - alpha:
            want = C.eval(u + alpha, v) - C.eval(alpha, v)
        else:
            want = v - C.eval(alpha, v) + C.eval(u - (1 - alpha), v)
        assert P.eval(u, v) == pytest.approx(want, abs=1e-15)


def test_many_piece_shuffle_star_holds_a_few_lattice_arrays():
    # memory gate: the closed form takes one piece's t-interval at a
    # time, so its cdf and partials on a 65 x 65 lattice hold a few
    # lattice-sized arrays, not one per piece of a 1024-piece shuffle
    S = shuffle_from_grid(grid_from_copula(FGMCopula(0.5), 32))
    P = star(S, FGMCopula(0.3)).copula
    assert isinstance(P, ShuffleStarProduct) and S.n_pieces == 1024
    g = np.linspace(0.0, 1.0, 65)
    u, v = g[:, None], g[None, :]
    tracemalloc.start()
    try:
        for f in (P.eval, P._d1, P._d2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f(u, v)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= 12 * g.size ** 2 * 8, f
    finally:
        tracemalloc.stop()


def test_closed_forms_pass_a_many_piece_shuffle_its_lattice(monkeypatch, flip_shuffle):
    # work-counter gate: W's closed forms and the shuffle closed form hand
    # u and v to the inner cdf unbroadcast, so on a 65 x 65 lattice a
    # 1024-piece shuffle shares its values of v and takes the running sum,
    # not the loop over its pieces; the bits are those of evaluating every
    # point with its own v, which takes the loop
    S = shuffle_from_grid(grid_from_copula(FGMCopula(0.5), 32))
    assert S.n_pieces == 1024
    g = np.linspace(0.0, 1.0, 65)
    u, v = g[:, None], g[None, :]
    looped = []
    cdf_looped = ShuffleOfM._cdf_looped

    def counting(self, uu, vv):
        looped.append(self.n_pieces)
        return cdf_looped(self, uu, vv)

    monkeypatch.setattr(ShuffleOfM, "_cdf_looped", counting)
    for r in (star(S, W), star(W, S), star(flip_shuffle, S)):
        assert r.fast_path in ("W-closed-form", "shuffle-closed-form")
        del looped[:]
        want = r.copula.eval(*np.broadcast_arrays(u, v))
        assert 1024 in looped
        del looped[:]
        got = r.copula.eval(u, v)
        assert 1024 not in looped, r.fast_path
        assert got.tobytes() == want.tobytes(), r.fast_path


def test_m_as_one_piece_shuffle_acts_as_identity():
    S = ShuffleOfM((0.0, 1.0), (1,))
    r = star(S, FGMCopula(1.0))
    assert r.fast_path == "shuffle-closed-form"
    assert sup_on_lattice(r.copula, FGMCopula(1.0)) <= 1e-15


def test_right_shuffle_factor_via_transpose(flip_shuffle):
    # (A * S) computed in closed form must match raw quadrature
    A = FGMCopula(0.7)
    closed = star(A, flip_shuffle)
    assert closed.fast_path == "shuffle-closed-form"
    raw = star(A, flip_shuffle, fast_paths=False)
    assert sup_on_lattice(closed.copula, raw.copula) <= 1e-8


def _hint_free(points, hints, gap=1e-4):
    # the points farther than ``gap`` from every hint of their own
    return np.asarray([(np.abs(x - h[h == h]) > gap).all() for x, y in points
                       for h in hints(y)])


def test_shuffle_and_w_products_partials_match_finite_differences(flip_shuffle):
    g8 = grid_from_copula(FGMCopula(0.6), 8)
    closed = (ShuffleStarProduct(StraightShuffle(0.3), FGMCopula(0.5)),
              ShuffleStarProduct(flip_shuffle, FGMCopula(-0.7)),
              ShuffleStarProduct(flip_shuffle, g8),
              WRightProduct(FGMCopula(0.5)), WRightProduct(g8),
              star(W, FGMCopula(0.3)).copula)
    rng = np.random.default_rng(3)
    u, v = rng.uniform(0.01, 0.99, 200), rng.uniform(0.01, 0.99, 200)
    for P in closed:
        # smooth points: away from the hints of the differentiated variable
        at1 = _hint_free(zip(u, v), P.d1_breakpoints)
        at2 = _hint_free(zip(v, u), P.d2_breakpoints)
        assert at1.sum() > 150 and at2.sum() > 150
        fd1 = np.clip(fd_partial1(P, u[at1], v[at1]), 0.0, 1.0)
        fd2 = np.clip(fd_partial2(P, u[at2], v[at2]), 0.0, 1.0)
        assert np.abs(P.partial1(u[at1], v[at1]) - fd1).max() <= 1e-9, P
        assert np.abs(P.partial2(u[at2], v[at2]) - fd2).max() <= 1e-9, P


def test_shuffle_and_w_products_are_right_hand_at_kinks(flip_shuffle):
    h = 1e-7
    # the checkerboard of M: its conditionals jump by 1 at cell edges
    g8 = grid_from_copula(M, 8)

    def one_sided(P, u, v, du, dv):
        c = P.eval(u, v)
        return (P.eval(u + du, v + dv) - c) / (du + dv), (c - P.eval(u - du, v - dv)) / (du + dv)

    # d/du jumps where u crosses the shuffle's strip edge at 0.7
    P = ShuffleStarProduct(StraightShuffle(0.3), FGMCopula(0.5))
    assert 0.7 in P.d1_breakpoints(0.4)
    right, left = one_sided(P, 0.7, 0.4, h, 0.0)
    assert P.partial1(0.7, 0.4) == pytest.approx(right, abs=1e-6)
    assert abs(right - left) > 0.2
    # d/dv jumps at the grid's cell edges
    P = ShuffleStarProduct(flip_shuffle, g8)
    assert 0.5 in P.d2_breakpoints(0.6)
    right, left = one_sided(P, 0.6, 0.5, 0.0, h)
    assert P.partial2(0.6, 0.5) == pytest.approx(right, abs=1e-6)
    assert abs(right - left) > 0.5
    # W on the right: d/du jumps at the edge of the cell of 1 - v
    P = WRightProduct(g8)
    assert 0.625 in P.d1_breakpoints(0.3)
    right, left = one_sided(P, 0.625, 0.3, h, 0.0)
    assert P.partial1(0.625, 0.3) == pytest.approx(right, abs=1e-6)
    assert abs(right - left) > 0.3


def test_products_over_a_shuffle_product_converge():
    # a quadrature product whose right factor is a shuffle product
    # integrates over its exact partials, split at the shuffle's cut
    S, F = StraightShuffle(0.3), FGMCopula(0.5)
    inner = star(S, F)
    assert inner.fast_path == "shuffle-closed-form"
    assert inner.copula.d1_breakpoints(0.5).tolist() == [[0.7]]
    g = np.arange(9) / 8
    d1 = oracles.d1_straight_star(0.3, oracles.d1_fgm(0.5))
    nested = star(FGMCopula(0.5), inner.copula)
    assert nested.fast_path == "none"
    regrouped = star(star(FGMCopula(0.5), S).copula, F)
    got = nested.copula.eval(g[:, None], g[None, :])
    assert np.abs(got - regrouped.copula.eval(g[:, None], g[None, :])).max() <= 1e-12
    for i, x in enumerate(g):
        for j, y in enumerate(g):
            want = oracles.quad_star(oracles.d2_fgm(0.5), d1, x, y, points=[0.7])
            assert got[i, j] == pytest.approx(want, abs=1e-12)
    # the generalized product over it, at a few points
    C = FGMCopula(0.5)
    prod = star_c(FGMCopula(1.0), ConstantFamily(C), inner.copula)
    for x, y in ((0.5, 0.5), (0.3, 0.8), (0.9, 0.2)):
        want = oracles.quad_star_c(oracles.d2_fgm(1.0), lambda t, a, b: C.eval(a, b),
                                   d1, x, y, points=[0.7])
        assert prod.copula.eval(x, y) == pytest.approx(want, abs=1e-12)


def test_grid_over_a_shuffle_product_in_one_run(quad_counter):
    # forced 33 x 33: the grid's x-groups share one quadrature run,
    # which agrees with the product regrouped around the shuffle
    S, F = StraightShuffle(0.3), FGMCopula(0.5)
    g8 = grid_from_copula(FGMCopula(0.6), 8)
    nested = star(g8, star(S, F).copula, fast_paths=False).copula
    got = nested.eval(GRID_33[:, None], GRID_33[None, :])
    assert quad_counter["calls"] == 1
    regrouped = star(star(g8, S).copula, F).copula
    assert sup_on_lattice(nested, regrouped) <= 1e-12
    assert validate(nested, 16).passed
    assert got.tobytes() == nested.eval(GRID_33[:, None], GRID_33[None, :]).tobytes()


# ---------------------------------------------------------------------------
# classical star product: quadrature against independent oracles


def test_fgm_star_law():
    # the family is closed: fgm(a) * fgm(b) = fgm(a b / 3)
    cases = [(1.0, 1.0), (0.5, -0.8), (-1.0, 1.0)]
    for a, b in cases:
        r = star(FGMCopula(a), FGMCopula(b), fast_paths=False)
        assert r.fast_path == "none"
        target = FGMCopula(a * b / 3.0)
        assert sup_on_lattice(r.copula, target) <= 1e-12


def test_fgm_star_pinned_value():
    r = star(FGMCopula(1.0), FGMCopula(1.0))
    assert r.copula.eval(0.5, 0.5) == pytest.approx(13 / 48, abs=1e-13)


def test_star_matches_scipy_oracle():
    pts = [(0.25, 0.5), (0.5, 0.5), (0.8, 0.3)]
    r = star(FGMCopula(1.0), FGMCopula(-0.6), fast_paths=False)
    for u, v in pts:
        ref = oracles.quad_star(oracles.d2_fgm(1.0), oracles.d1_fgm(-0.6), u, v)
        assert r.copula.eval(u, v) == pytest.approx(ref, abs=5e-8)
    r = star(FGMCopula(0.5), W, fast_paths=False)
    for u, v in pts:
        ref = oracles.quad_star(
            oracles.d2_fgm(0.5), oracles.d1_w, u, v, points=(1 - v,)
        )
        assert r.copula.eval(u, v) == pytest.approx(ref, abs=5e-8)


def test_star_deterministic():
    r1 = star(FGMCopula(1.0), FGMCopula(1.0), fast_paths=False)
    r2 = star(FGMCopula(1.0), FGMCopula(1.0), fast_paths=False)
    a = r1.copula.eval(GRID_33[:, None], GRID_33[None, :])
    b = r2.copula.eval(GRID_33[:, None], GRID_33[None, :])
    assert np.array_equal(a, b)
    again = r1.copula.eval(GRID_33[:, None], GRID_33[None, :])
    assert np.array_equal(a, again)


def test_quadrature_bits_do_not_depend_on_batch(monkeypatch):
    # the fgm integrand is quadratic in t, so every batch gets the same
    # subdivision and only the summation order could move the last bits
    fgm = FGMCopula(1.0)
    q = QuadratureConfig()

    def value_in_batch(vs, i):
        vs = np.asarray(vs, dtype=float)
        fb, support = products._make_integrand(fgm, None, fgm, np.full(vs.size, 0.3), vs)
        vals, _ = products._integrate_batch(fb, [()], q, vs.size, support)
        return vals[0, i]

    alone = value_in_batch([0.7], 0)
    wide = np.linspace(0.0, 1.0, 33)
    wide[20] = 0.7
    for vs, i in (([0.7, 0.2], 0), ([0.1, 0.5, 0.7], 2), (wide, 20)):
        assert value_in_batch(vs, i) == alone

    # the same property through the public API
    prod = star(fgm, fgm, fast_paths=False).copula
    vs = np.linspace(0.0, 1.0, 17)
    vs[11] = 0.7
    assert prod.eval(np.full(17, 0.3), vs)[11] == prod.eval(0.3, 0.7)

    # chunks of three segments instead of one chunk per level
    monkeypatch.setattr(products, "_CHUNK_ELEMENTS", 1)
    assert value_in_batch([0.7], 0) == alone


# the integrals of the synthetic deep-refinement integrands below, for
# kinks 1/3, 0.5, 0.7071 and 0.9, then for 1/3 alone, under each of three
# configs, and each run's error sum: the bits that a reference, the
# adaptive loop run one segment at a time as a work list, computed
WORK_LIST_INTEGRALS = (
    (("0x1.c82fdef4ca995p-2", "0x1.aa16839ea1e48p-2", "0x1.d8806c31ba274p-2",
      "0x1.2aa8b75dc8502p-1"), "0x1.269b30f200000p-35"),
    (("0x1.c82fdef00a1e6p-2", "0x1.aa168399f891ap-2", "0x1.d8806c2a31890p-2",
      "0x1.2aa8b75dc4c5fp-1"), "0x1.14791e7448000p-29"),
    (("0x1.c82fdef4b6a96p-2", "0x1.aa16839ea51c9p-2", "0x1.d8806c31b7d62p-2",
      "0x1.2aa8b75dc2c1bp-1"), "0x1.3332f77a00000p-45"),
    (("0x1.c82fdef4ca995p-2",), "0x1.7360f88000000p-36"),
    (("0x1.c82fdef00a1e5p-2",), "0x1.5c420f4000000p-30"),
    (("0x1.c82fdef4b6a96p-2",), "0x1.04c4454000000p-47"),
)


def test_level_loop_matches_work_list_reference():
    # one array per level keeps the work list's bits: same segments, same
    # acceptance, same left-to-right sum, over up to 15 levels. The
    # integrands take only +, -, *, / and sqrt, which IEEE 754 rounds
    # exactly, so the bits are the same on every machine that has these
    # Gauss-Legendre nodes (test_gauss_legendre_16_bits_pinned)
    got = []
    for kinks in ([1 / 3, 0.5, 0.7071, 0.9], [1 / 3]):
        kinks = np.asarray(kinks)

        def fbatch(ts):
            t = ts[:, None]
            d = np.abs(t - kinks)
            return d * np.sqrt(d) + 1.0 / (1.0 + 25.0 * t * t)

        for q, breaks in ((QuadratureConfig(), ()),
                          (QuadratureConfig(base_subintervals=3, max_depth=30), (0.5,)),
                          (QuadratureConfig(nodes_per_subinterval=5, adaptive_tol=1e-12,
                                            max_depth=40), ())):
            total, err = products._integrate_batch(fbatch, [breaks], q, kinks.size, _all_live)
            got.append((tuple(float(x).hex() for x in total[0]), float(err[0]).hex()))
    assert tuple(got) == WORK_LIST_INTEGRALS


def test_grouped_points_bits_match_alone(flip_shuffle):
    # _product_points_eval groups a lattice by x (kA >= kB) or by y
    # (kA < kB) and evaluates the group's fixed coordinate as a single
    # cell; every lattice value must equal the point evaluated alone
    g = np.arange(9) / 8
    fgm = FGMCopula(1.0)
    branches = set()
    for F in corpus_families():
        for A in (flip_shuffle, fgm):
            for left, right in ((M, A), (A, M)):
                kA = _hint_count(left.d2_breakpoints(0.375))
                kB = _hint_count(right.d1_breakpoints(0.375))
                branches.add(kA >= kB)
                prod = star_c(left, F, right, fast_paths=False).copula
                lattice = prod.eval(g[:, None], g[None, :])
                for i, x in enumerate(g):
                    for j, y in enumerate(g):
                        assert prod.eval(x, y) == lattice[i, j], (F, left, right, x, y)
                # a batch of identical points: both coordinates constant
                same = prod.eval(np.full(4, 0.375), np.full(4, 0.625))
                assert (same == prod.eval(0.375, 0.625)).all()
    assert branches == {True, False}


def test_constant_coordinate_evaluated_once_per_node(monkeypatch, quad_counter):
    # work-counter gates: the lattice's x-groups share one quadrature
    # call; the left conditional, a step function of t, is evaluated once
    # per piece the rule bisects, not once per node and point, nor once
    # per segment (no piece is narrow here), and the integrand does not
    # evaluate it again; M's conditional is 0 for t >= x, so about half
    # of the nodes lie on skipped segments, and the groups share most of
    # the others
    left = FrechetM()
    prod = star_c(left, ConstantFamily(PI), FGMCopula(1.0), fast_paths=False).copula
    d2 = left._d2
    d2_elements = 0

    def counting_d2(u, v):
        nonlocal d2_elements
        d2_elements += np.broadcast(u, v).size
        return d2(u, v)

    monkeypatch.setattr(left, "_d2", counting_d2)
    prod.eval(GRID_33[:, None], GRID_33[None, :])
    assert quad_counter["calls"] == 1
    assert quad_counter["nodes"] > 0
    assert quad_counter["elements"] == 33 * quad_counter["nodes"]
    # one level: each piece is itself and its two halves, and the step
    # side costs one element per piece, not one per segment
    assert d2_elements == quad_counter["pieces"]
    assert d2_elements * 3 * 16 == quad_counter["rule_nodes"]
    assert quad_counter["nodes"] <= 0.55 * quad_counter["rule_nodes"]


def _no_skip_segment_values(fbatch, segs, nodes, weights, chunk, width, support, groups,
                            coarse=None):
    # reference: the weighted sum before segments outside a grouped
    # side's support were skipped, shared segments and pieces were
    # evaluated once and step-function sides once per segment or piece;
    # every node of every piece's segments is evaluated, with its
    # group's cell conditionals at that node, and no piece is shared
    n = len(nodes)
    pieces, S = segs.shape[:2]
    segs = segs.reshape(-1, 2)
    a, b = segs[:, :1], segs[:, 1:]
    hw = 0.5 * (b - a)
    ts = hw * nodes + 0.5 * (a + b)
    cells = {k: c.reshape(-1, 1)
             for k, c in support(segs, nodes, np.repeat(groups, S), False)[1].items()}
    step = -(-chunk // n)
    out = [np.zeros((1, width))]
    for s in range(0, len(segs), step):
        given = {k: c[s * n : (s + step) * n] for k, c in cells.items()}
        fv = fbatch(ts[s : s + step].reshape(-1), **given)
        fv = fv.reshape(-1, n, fv.shape[-1])
        acc = weights[0] * fv[:, 0]
        term = np.empty_like(acc)
        for j in range(1, n):
            acc += np.multiply(weights[j], fv[:, j], out=term)
        acc *= hw[s : s + step]
        out.append(acc)
    # the dead pieces' row of zeros, then every piece its own row of segments
    index = np.zeros((pieces + 1, S), dtype=np.intp)
    index[1:] = np.arange(1, len(segs) + 1).reshape(pieces, S)
    return np.concatenate(out), index, np.arange(1, pieces + 1)


def _raw_integrations(record, prod, u, v, segment_values):
    # the product's values and the (integral, error sum) bytes of each of
    # its quadrature runs, with segment_values as the weighted sum
    runs = len(record["results"])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(products, "_segment_values", segment_values)
        vals = prod.eval(u, v)
    return vals.tobytes(), record["results"][runs:]


def test_skipping_dead_segments_keeps_the_bits(flip_shuffle, quad_counter):
    # grouped M, shuffle, grid and W sides, classical and over families:
    # the same values and error sums as evaluating every node of every
    # group; a lattice is one quadrature run
    fgm = FGMCopula(0.7)
    g8 = grid_from_copula(FGMCopula(0.6), 8)
    pairs = ((M, fgm), (fgm, M), (flip_shuffle, fgm), (fgm, flip_shuffle.transpose()),
             (g8, fgm), (W, fgm), (fgm, W))
    families = (None, ConstantFamily(FGMCopula(-1.0)),
                PiecewiseConstantFamily((0.3, 0.6), (FGMCopula(0.5), PI, W)),
                FGMCurveFamily((-1.0, 3.0)))
    wide = np.linspace(0.0, 1.0, 1089)
    runs = 0
    for A, B in pairs:
        # one group of width 1089 shares the coordinate of the grouped side
        if _hint_count(A.d2_breakpoints(0.375)) >= _hint_count(B.d1_breakpoints(0.375)):
            group = (np.full(wide.size, 0.45), wide)
        else:
            group = (wide, np.full(wide.size, 0.45))
        batches = ((np.asarray([0.3]), np.asarray([0.6])),
                   (GRID_33[:, None], GRID_33[None, :]), group)
        for F in families:
            prod = _forced(A, F, B)
            for u, v in batches:
                want = _raw_integrations(quad_counter, prod, u, v, _no_skip_segment_values)
                got = _raw_integrations(quad_counter, prod, u, v, products._segment_values)
                assert got == want, (F, A, B, np.size(u))
                runs += len(got[1])
    assert runs == 7 * 4 * (1 + 1 + 1)


class _WithCuts(Copula):
    """A copula with the values, partials and degree of ``C`` whose
    breakpoint hints add ``cuts`` at every coordinate: as a factor of a
    forced product it makes the cuts quadrature edges of every group."""

    def __init__(self, C, cuts):
        self.C = C
        self.cuts = np.asarray(cuts, dtype=float)
        self.conditional_degree = C.conditional_degree

    def _cdf(self, u, v):
        return self.C._cdf(u, v)

    def _d1(self, u, v):
        return self.C._d1(u, v)

    def _d2(self, u, v):
        return self.C._d2(u, v)

    def _add_cuts(self, rows):
        return np.concatenate((rows, np.tile(self.cuts, (len(rows), 1))), axis=1)

    def d1_breakpoints(self, v):
        return self._add_cuts(self.C.d1_breakpoints(v))

    def d2_breakpoints(self, u):
        return self._add_cuts(self.C.d2_breakpoints(u))


def _step_side_products(flip_shuffle):
    """Forced products whose grouped side is a step function of t, each
    with a grouped coordinate x whose hint h ends a chain of pieces
    0.9e-14 wide, before a piece of about 1e-11, or lies between pieces
    1e-12 and 1.05e-14 wide: narrow pieces, next to h, whose segments
    are evaluated at every node. The cuts come in as hints of the step
    side in the classical products, and as the cuts of a family whose
    members are all the same copula in the generalized ones."""
    tiny = 0.9e-14
    fgm = FGMCopula(0.7)
    g8 = grid_from_copula(FGMCopula(0.6), 8)
    # (side, x, the base cut e that starts its chain): M's hint is x, W's
    # fl(1 - x), a shuffle's hi = fl(t0 + x - s0), a grid's i / 8
    sides = ((M, 0.25 + 9 * tiny, 0.25), (M, 0.75 + 3e-15, 0.75),
             (W, 0.75 - 9 * tiny, 0.25), (W, 0.1 + 0.2, 0.6875),
             (flip_shuffle, 0.7 + 0.03125 + 9 * tiny, 0.53125),
             (flip_shuffle, 0.3, 0.375), (StraightShuffle(0.3), 0.5 + 9 * tiny, 0.5),
             (g8, 0.4, 0.375))
    cases = []
    for C, x, e in sides:
        (h,) = C.d2_breakpoints(x)
        h = h[np.argmin(np.abs(h - e))]
        chain = tuple(e + k * tiny for k in range(1, 9)) + (e + 1e-11,)
        narrow = (h - 1e-12, h - 1.05e-14, h + 1.05e-14, h + 1e-12)
        xs = np.asarray([x, np.nextafter(x, 0.0), np.nextafter(x, 1.0), 0.5,
                         0.125 + 3e-15, 0.625 + 3e-15])
        ys = np.linspace(0.0, 1.0, 5)
        for cuts in (chain, narrow):
            same = PiecewiseConstantFamily(cuts, (FGMCopula(-1.0),) * (len(cuts) + 1))
            for F, left, right in ((None, _WithCuts(C, cuts), _WithCuts(C.transpose(), cuts)),
                                   (same, C, C.transpose())):
                for A, B, u, v in ((left, fgm, xs[:, None], ys[None, :]),
                                   (fgm, right, ys[:, None], xs[None, :])):
                    prod = _forced(A, F, B)
                    cases.append((prod, u, v))
                    # one point
                    cases.append((prod, u.reshape(-1)[:1], v.reshape(-1)[:1]))
    return cases


def test_step_sides_once_per_segment_keep_the_bits(monkeypatch, flip_shuffle, quad_counter):
    # a grouped step-function side is evaluated once per piece where
    # that is exact, and at every node in pieces too narrow to keep
    # their segments' nodes off a hint: values and error sums have the
    # bits of evaluating it at every node, on hint chains, narrow pieces
    # and rounding-sensitive W hints
    # (test_skipping_dead_segments_keeps_the_bits compares the
    # dead-segment corpus with the same reference); some pieces of
    # these runs take each path. Each support call gets one kind of
    # piece and returns one layout: a step side as (m, 1) on a once
    # call and as one value per node of the pieces' segments on a narrow
    # one, any other side one value per node
    cases = _step_side_products(flip_shuffle)
    # also in support slices of 112 nodes (3 or 4 pieces), which key a
    # side alike however a level is sliced
    for chunk, batch in ((products._CHUNK_ELEMENTS, cases), (16 * 7, cases[::6])):
        monkeypatch.setattr(products, "_CHUNK_ELEMENTS", chunk)
        for prod, u, v in batch:
            want = _raw_integrations(quad_counter, prod, u, v, _no_skip_segment_values)
            got = _raw_integrations(quad_counter, prod, u, v, products._segment_values)
            assert got == want, (prod, np.size(u), np.size(v), chunk)
    paths = {True: 0, False: 0}
    for call in quad_counter["supports"]:
        once, cells = call["once"], quad_counter["builds"][call["build"]]
        assert type(once) is bool
        paths[once] += call["pieces"]
        every = call["segments"] // call["pieces"] * call["nodes"]
        for k, shape in call["shapes"].items():
            assert shape == (call["pieces"], 1 if once and cells[k][2] else every), k
    assert paths[True] > 0 and paths[False] > 0


def test_step_side_costs_one_kernel_element_per_segment(monkeypatch, flip_shuffle,
                                                      quad_counter):
    # work-counter gate: on the forced shuffle * fgm 33 x 33 lattice the
    # support evaluates the shuffle's conditional at one node of each
    # piece, not at one node of each of its three segments, and at every
    # node of the few pieces too narrow for that: one kernel call per
    # kind of piece a level holds (the lattice's one level holds both)
    S = ShuffleOfM(flip_shuffle.cuts, flip_shuffle.sigma, flip_shuffle.flips)
    elements = []
    d2 = S._d2

    def counting_d2(u, v):
        elements.append(np.broadcast(u, v).size)
        return d2(u, v)

    monkeypatch.setattr(S, "_d2", counting_d2)
    star(S, FGMCopula(0.5), fast_paths=False).copula.eval(GRID_33[:, None], GRID_33[None, :])
    n = QuadratureConfig().nodes_per_subinterval
    calls, levels = quad_counter["supports"], len(quad_counter["levels"])
    kinds = [{c["once"] for c in calls if c["level"] == i} for i in range(levels)]
    once_pieces = sum(c["pieces"] for c in calls if c["once"])
    segments = sum(c["segments"] for c in calls)
    every_node = sum(c["segments"] for c in calls if not c["once"])
    pieces = quad_counter["pieces"]
    assert pieces == sum(c["pieces"] for c in calls)
    assert len(elements) == sum(map(len, kinds)) == 2 * levels == 2
    assert every_node < segments / 8
    # one element per once piece, and one per node of a narrow piece's segments
    assert sum(elements) == once_pieces + n * every_node
    # about one element per piece: a step side keyed per segment took three
    assert once_pieces > 0.95 * pieces
    assert sum(elements) < 2 * pieces
    assert sum(elements) <= quad_counter["rule_nodes"] / 16


def test_cell_side_hints_are_initial_edges(flip_shuffle, quad_counter):
    # the invariant that evaluating a step-function side once per
    # piece rests on (_segment_values): in every group a product
    # integrates, each cell side's hints in (0, 1) are among the group's
    # initial edges, bit for bit; the edges are read off the pieces of
    # each run's first level, as (a, b), (a, mid), (mid, b) per piece
    fgm = FGMCopula(0.7)
    families = (None, PiecewiseConstantFamily((0.3, 0.6), (FGMCopula(0.5), PI, W)))
    g9 = np.arange(9) / 8
    for C in _hint_corpus():
        for F in families:
            for A, B in ((C, fgm), (fgm, C)):
                prod = _forced(A, F, B)
                prod.eval(g9[:, None], g9[None, :])
                prod.eval(0.3, 0.6)
    for prod, u, v in _step_side_products(flip_shuffle):
        prod.eval(u, v)
    # the first level of each build
    first = {level["build"]: level for level in reversed(quad_counter["levels"])}
    checked = 0
    for build, level in first.items():
        pieces, owner = level["segs"][:, 0], level["groups"]
        for g in range(owner.max() + 1):
            mine = pieces[owner == g]
            e = np.append(mine[:, 0], mine[-1, 1])
            for hints_of, Z, _ in quad_counter["builds"][build].values():
                h = hints_of(Z[g if len(Z) > 1 else 0, 0])
                h = h[(0.0 < h) & (h < 1.0)]
                assert np.isin(h.view(np.uint64), e.view(np.uint64)).all(), (g, h, e)
                checked += h.size
    assert checked > 0


def test_group_outside_the_support_makes_no_integrand_call(quad_counter):
    # at u = 0 M's conditional is 0 on all of [0, 1]: every segment is
    # skipped and the value is exactly +0.0
    prod = star_c(M, ConstantFamily(FGMCopula(1.0)), FGMCopula(0.5), fast_paths=False)
    vals = prod.copula.eval(np.zeros(5), np.linspace(0.0, 1.0, 5))
    assert quad_counter["calls"] == 1
    assert quad_counter["rule_nodes"] > 0
    assert quad_counter["nodes"] == 0
    assert vals.tobytes() == np.zeros(5).tobytes()


def _per_group_points_eval(A, family, B, xs, ys, q):
    # reference: the loop that integrated each group of points sharing
    # the grouped coordinate in a quadrature run of its own
    fam_breaks = family.breakpoints() if family is not None else ()
    kA = _hint_count(A.d2_breakpoints(0.375))
    kB = _hint_count(B.d1_breakpoints(0.375))
    if kA or kB:
        keys = xs if kA >= kB else ys
        groups = [keys == val for val in np.unique(keys)]
    else:
        keys, groups = None, [slice(None)]
    out, worst = np.empty(xs.size), 0.0
    for g in groups:
        xs_g, ys_g = xs[g], ys[g]
        breaks = np.concatenate((
            fam_breaks,
            A.d2_breakpoints(xs_g[:1] if keys is xs else xs_g),
            B.d1_breakpoints(ys_g[:1] if keys is ys else ys_g),
        ), axis=None)
        fb, support = products._make_integrand(A, family, B, xs_g, ys_g)
        vals, errs = products._integrate_batch(fb, [breaks], q, xs_g.size, support)
        out[g] = vals[0]
        worst = max(worst, float(errs[0]))
    return np.clip(out, 0.0, 1.0), worst


def _point_sets():
    g65 = np.arange(65) / 64
    # repeated x with different rows, so the groups take calls of their own
    xs = np.asarray([0.3, 0.3, 0.7, 0.7, 0.7, 0.45, 0.3])
    ys = np.asarray([0.2, 0.9, 0.2, 0.5, 0.9, 0.6, 0.6])
    return {
        "33x33": (GRID_33[:, None], GRID_33[None, :]),
        "65x65": (g65[:, None], g65[None, :]),
        "scattered": (xs, ys),
        "width 1": (np.asarray([0.3]), np.asarray([0.6])),
    }


def test_one_work_list_keeps_the_per_group_bits(flip_shuffle):
    # the groups of a row share one quadrature run, and segments they
    # share are evaluated once: values and estimates have the bits of
    # integrating each group alone
    fgm = FGMCopula(0.7)
    g8 = grid_from_copula(FGMCopula(0.6), 8)
    cells = (M, W, flip_shuffle, StraightShuffle(0.3), g8)
    cells += tuple(c.transpose() for c in cells)
    families = (None, ConstantFamily(PI), ConstantFamily(FGMCopula(1.0)),
                PiecewiseConstantFamily((0.3, 0.6), (M, W, flip_shuffle)),
                FGMCurveFamily((-1.0, 3.0)))
    q = QuadratureConfig()
    cases = 0
    for C in cells:
        for F in families:
            for A, B in ((C, fgm), (fgm, C)):
                prod = _forced(A, F, B)
                for name, (u, v) in _point_sets().items():
                    # the large lattice for the classical product only
                    if name == "65x65" and F is not None:
                        continue
                    u, v = np.broadcast_arrays(u, v)
                    vals, err = prod.eval_with_error(u, v)
                    want, want_err = _per_group_points_eval(
                        A, F, B, u.reshape(-1), v.reshape(-1), q)
                    assert vals.tobytes() == want.tobytes(), (C, F, A is C, name)
                    assert np.float64(err).tobytes() == np.float64(want_err).tobytes()
                    cases += 1
    assert cases == 10 * 2 * (5 * 3 + 1)


def test_several_groups_fail_as_the_first_alone(flip_shuffle):
    # two groups share a call, given in reverse key order, and both fail
    # at max depth: the error names the leftmost failing segment of the
    # group with the smaller key, as integrating group by group does
    q = QuadratureConfig(base_subintervals=2, nodes_per_subinterval=3,
                         adaptive_tol=1e-17, max_depth=1)
    prod = star(flip_shuffle, FGMCopula(0.5), q, fast_paths=False).copula
    xs, ys = np.asarray([0.65, 0.3]), np.asarray([0.6, 0.6])
    with pytest.raises(NonConvergenceError) as want:
        _per_group_points_eval(flip_shuffle, None, FGMCopula(0.5), xs, ys, q)
    with pytest.raises(NonConvergenceError) as got:
        prod.eval(xs, ys)
    for e in (want.value, got.value):
        assert [x.hex() for x in e.interval] == ["0x1.cccccccccccccp-2", "0x1.fffffffffffffp-2"]
        assert e.err.hex() == "0x1.0000000000000p-58"
        assert e.tol.hex() == "0x1.2725dd1d243acp-60"
    # the group at x = 0.65 fails on its own too, further left, so the
    # error is not the leftmost failing segment of the call
    with pytest.raises(NonConvergenceError) as alone:
        prod.eval(0.65, 0.6)
    assert alone.value.interval[0] < got.value.interval[0]


def _assert_partition(columns):
    """(first, inverse) of ``_distinct_rows``, checked: two rows share
    an entry exactly when their bits are the same, each entry is one of
    its rows, and ``rows[first][inverse]`` gives the rows back."""
    first, inverse = products._distinct_rows(columns)
    rows = np.stack([np.asarray(c).view(np.uint64) for c in columns], axis=1)
    assert rows[first][inverse].tobytes() == rows.tobytes()
    assert inverse[first].tolist() == list(range(len(first)))
    for i, r in enumerate(rows):
        same = (rows == r).all(axis=1)
        assert (inverse == inverse[i]).tolist() == same.tolist(), i
    return first, inverse


def test_distinct_rows_never_merge_unequal_rows():
    # only equal rows share an entry; rows 4 and 5 share a but not b
    a = np.asarray([0.5, 0.5, 0.25, 0.75, 0.75, 0.75])
    b = np.asarray([1.0, 1.0, 2.0, 1.0, 1.0, 3.0])
    first, inverse = _assert_partition((a, b))
    assert len(first) == 4
    # (5, 0, 0) and (0, 0, 1) are unequal rows that a hash linear in odd
    # multiples of one constant maps alike; sorted between the two equal
    # rows, such a row must not split them
    cols = (np.asarray([5, 0, 5]), np.zeros(3, dtype=np.intp), np.asarray([0, 1, 0]))
    first, inverse = _assert_partition(cols)
    assert len(first) == 2


def test_distinct_rows_compare_bits():
    # +0.0 and -0.0 compare equal as floats, and NaNs unequal, but rows
    # are compared as bits: signed zeros and NaN payloads stay apart and
    # equal bits share an entry
    bits = np.asarray([0, 1 << 63, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001,
                       0x7FF8000000000001], dtype=np.uint64)
    first, inverse = _assert_partition((bits.view(float),))
    assert len(first) == 4


def test_one_work_list_bits_do_not_depend_on_its_blocks(monkeypatch, flip_shuffle):
    # the support slices and the final sums run in blocks of up to
    # _CHUNK_ELEMENTS: slices of seven segments, and the 9 x 9 lattice's
    # padded sums one row at a time, give every group the same bits
    prod = star(flip_shuffle, FGMCopula(0.5), fast_paths=False).copula
    g = np.linspace(0.0, 1.0, 9)
    want = prod.eval_with_error(g[:, None], g[None, :])
    monkeypatch.setattr(products, "_CHUNK_ELEMENTS", 16 * 7)
    got = prod.eval_with_error(g[:, None], g[None, :])
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def test_distinct_rows_merge_equal_rows():
    # equal rows share an entry wherever they come from: the rows of one
    # group repeat where a piece one ulp wide has its midpoint on an end
    col = np.asarray([0.5, 0.5, 0.25])
    first, inverse = _assert_partition((col,))
    assert len(first) == 2 and inverse[0] == inverse[1]
    first, inverse = products._distinct_rows((col[:0],))
    assert len(first) == len(inverse) == 0


def test_one_ulp_piece_evaluates_each_distinct_segment_once(quad_counter):
    # work-counter gate: a forced fgm * fgm lattice over a family of Pi
    # on pieces cut at 0.5 and nextafter(0.5, 1) is one group; the piece
    # [0.5, nextafter(0.5, 1)] has its midpoint on an end, so one of its
    # halves is the piece itself, and the two are evaluated once
    family = PiecewiseConstantFamily((0.5, np.nextafter(0.5, 1.0)), (PI, PI, PI))
    star_c(FGMCopula(0.5), family, FGMCopula(0.3), fast_paths=False).copula.eval(
        GRID_33[:, None], GRID_33[None, :])
    segments = [len({(a.hex(), b.hex()) for a, b in level["segs"].reshape(-1, 2).tolist()})
                for level in quad_counter["levels"]]
    assert quad_counter["calls"] == 1
    # no coordinate is a cell: no support call yields a cell conditional
    assert quad_counter["builds"] == [{}]
    assert segments == [194]
    assert quad_counter["nodes"] == 16 * 194 < quad_counter["rule_nodes"]


def test_lattice_groups_share_one_run(quad_counter):
    # work-counter gate: a forced 33 x 33 product grouped by x is one
    # quadrature run, and its integrand is evaluated on at most 1/8 of
    # the nodes the rule places (about 1/2 group by group)
    prod = star_c(M, ConstantFamily(FGMCopula(1.0)), W, fast_paths=False).copula
    prod.eval(GRID_33[:, None], GRID_33[None, :])
    assert quad_counter["calls"] == 1
    assert 0 < quad_counter["nodes"] <= quad_counter["rule_nodes"] / 8

class _NanBelowHalf(Copula):
    # a faulty left factor: its conditional is NaN for t < 0.5 and 0 above
    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _d2(self, u, v):
        return np.where(np.asarray(v) < 0.5, np.nan, 0.0) + 0.0 * np.asarray(u)


def test_nan_cell_conditional_stays_live():
    # only an exact 0 is dead: NaN nodes are integrated, and their NaN
    # makes the quadrature fail instead of reading as +0.0
    A, B = _NanBelowHalf(), FGMCopula(0.5)
    fb, support = products._make_integrand(A, None, B, np.asarray([0.3]), np.asarray([0.6]))
    # one segment on [0, 1] whose nodes are 0.1, 0.4, 0.6 and 0.9
    live, cells = support(np.asarray([[0.0, 1.0]]), np.asarray([-0.8, -0.2, 0.2, 0.8]),
                          np.zeros(1, dtype=np.intp), True)
    assert live.tolist() == [[True, True, False, False]]
    assert sorted(cells) == ["r", "s"]
    with pytest.raises(NonConvergenceError):
        star(A, B, fast_paths=False).copula.eval(0.3, 0.6)


def test_integrand_with_a_cell_side_holds_one_full_array(flip_shuffle, peak_alloc):
    # memory gate: grouped by x, the shuffle's conditional is one value
    # per node, so the FGM conditional is the only (nodes, width) array
    # and the product is taken in it; numpy's buffers for the broadcast
    # operands are capped at a share of the call, also in the small
    # calls on few live nodes
    prod = star(flip_shuffle, FGMCopula(0.5), fast_paths=False).copula
    prod.eval(GRID_33[:, None], GRID_33[None, :])
    # the x-groups share one quadrature run; its integrand calls take at
    # most one group's level of nodes each
    assert len(peak_alloc) >= 1
    assert max(peak_alloc) <= 1.18


def test_shuffle_lattice_work_and_peak_memory(flip_shuffle, quad_counter):
    # work and memory gates on the forced flip_shuffle * fgm 33 x 33
    # lattice: 290 distinct segments evaluated, as since segments were
    # shared between groups, and the whole evaluation, the engine's level
    # keys and final sums included, peaks below the 2.42 MB it held with
    # a step-function side keyed by 16 copies of its value
    prod = star(flip_shuffle, FGMCopula(0.5), fast_paths=False).copula
    assert np.getbufsize() == 8192  # numpy's default
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        prod.eval(GRID_33[:, None], GRID_33[None, :])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert quad_counter["calls"] == 1
    assert quad_counter["nodes"] == 16 * 290
    assert peak <= 2.4e6


def test_integrand_with_two_varying_sides_holds_two_full_arrays(peak_alloc):
    # memory gate: one group of 1089 points, both conditionals full-size;
    # each kernel builds one array and the product reuses one of them
    prod = star(FGMCopula(0.5), FGMCopula(-0.5), fast_paths=False).copula
    prod.eval(GRID_33[:, None], GRID_33[None, :])
    assert len(peak_alloc) >= 1
    assert max(peak_alloc) <= 2.2


def test_error_estimate_and_config_passthrough():
    q = QuadratureConfig(adaptive_tol=1e-10)
    r = star(FGMCopula(1.0), FGMCopula(-1.0), q, fast_paths=False)
    assert r.config is q
    assert 0.0 <= r.error_estimate <= 1e-9
    closed = star(W, FGMCopula(1.0), q)
    assert closed.error_estimate == 0.0
    assert closed.config is q


SPLIT_M_W = PiecewiseConstantFamily((0.5,), (M, W))


def _probed_products(flip_shuffle):
    # (product, tag, pinned error_estimate as float.hex)
    quad = star(FGMCopula(1.0), FGMCopula(1.0), fast_paths=False).copula
    return (
        (star(FGMCopula(1.0), FGMCopula(-1.0), fast_paths=False), "none",
         "0x1.4000000000000p-54"),
        (star_c(FGMCopula(1.0), SPLIT_M_W, flip_shuffle, fast_paths=False),
         "none", "0x1.d800000000000p-55"),
        # a transposed shuffle is left invertible but not a ShuffleOfM,
        # so the classical product it reduces to runs quadrature
        (star_c(TransposedCopula(flip_shuffle), SPLIT_M_W, FGMCopula(0.8)),
         "invertible-reduction", "0x1.e800000000000p-55"),
        (star(M, quad), "identity-M", "0x0.0p+0"),
    )


def test_error_estimate_computed_on_first_read(flip_shuffle, quad_counter):
    results = _probed_products(flip_shuffle)
    assert quad_counter["calls"] == 0
    for r, tag, want in results:
        assert r.fast_path == tag
        assert r.error_estimate.hex() == want, tag
        calls = quad_counter["calls"]
        # a second read is served from the cache
        assert r.error_estimate.hex() == want
        assert quad_counter["calls"] == calls
    assert isinstance(results[-1][0].copula, ComputedCopula)


def test_closed_forms_estimate_zero(flip_shuffle, quad_counter):
    fgm = FGMCopula(0.5)
    g8a = grid_from_copula(FGMCopula(0.6), 8)
    g8b = grid_from_copula(flip_shuffle, 8)
    results = (
        star(M, fgm), star(PI, fgm), star(fgm, W), star(W, fgm),
        star(flip_shuffle, fgm), star(fgm, flip_shuffle), star(g8a, g8b),
        star_c(flip_shuffle, SPLIT_M_W, fgm), star(fgm, FGMCopula(-0.5)),
    )
    for r in results:
        assert r.fast_path != "none"
        assert r.error_estimate == 0.0
    assert {r.fast_path for r in results} == set(products.FAST_PATHS) - {"none"}
    # the tags come from one table, each once
    assert len(products.FAST_PATHS) == len(set(products.FAST_PATHS))
    assert quad_counter["calls"] == 0


def test_building_quadrature_products_runs_no_quadrature(flip_shuffle, quad_counter):
    fgm = FGMCopula(0.5)
    built = [
        star(fgm, FGMCopula(-0.5), fast_paths=False),
        star(fgm, flip_shuffle, fast_paths=False),
        star_c(fgm, SPLIT_M_W, FGMCopula(-0.5), fast_paths=False),
        star_c(TransposedCopula(flip_shuffle), SPLIT_M_W, fgm),
    ]
    assert {r.fast_path for r in built} == {"none", "invertible-reduction"}
    for text in (
        "star(fgm(0.5), fgm(-0.5))",
        "starc(fgm(1), pw(0.5: M, W), fgm(-1))",
        "star(star(fgm(1), fgm(1)), fgm(1))",
    ):
        assert isinstance(build_copula(parse(text), fast_paths=False), ComputedCopula)
    assert quad_counter["calls"] == 0


def _branch_products(flip_shuffle):
    # ungrouped (no factor has breakpoints) and grouped (a shuffle factor)
    fgm = FGMCopula(1.0)
    ungrouped = star(fgm, FGMCopula(-1.0), fast_paths=False)
    grouped = star_c(fgm, SPLIT_M_W, flip_shuffle, fast_paths=False)
    assert _hint_count(fgm.d2_breakpoints(0.375)) == 0
    assert _hint_count(flip_shuffle.d1_breakpoints(0.375)) > 0
    return ungrouped, grouped


def test_eval_with_error_values_are_eval(flip_shuffle):
    g = np.arange(9) / 8
    for r in _branch_products(flip_shuffle):
        cop = r.copula
        val, err = cop.eval_with_error(0.3, 0.7)
        assert isinstance(val, float) and val.hex() == cop.eval(0.3, 0.7).hex()
        assert err >= 0.0
        vals, err = cop.eval_with_error(g[:, None], g[None, :])
        want = cop.eval(g[:, None], g[None, :])
        assert vals.shape == (9, 9) and vals.tobytes() == want.tobytes()
        assert err >= 0.0
        xs, ys = (np.asarray(c) for c in zip(*products._PROBES))
        assert cop.eval_with_error(xs, ys)[1] == r.error_estimate


def test_eval_with_error_domain_and_empty_batch(flip_shuffle):
    for r in _branch_products(flip_shuffle):
        cop = r.copula
        for u, v in ((1.5, 0.5), (0.5, -0.1), (0.5, math.nan)):
            with pytest.raises(DomainError) as want:
                cop.eval(u, v)
            with pytest.raises(DomainError) as got:
                cop.eval_with_error(u, v)
            assert str(got.value) == str(want.value)
        vals, err = cop.eval_with_error(np.array([]), np.array([]))
        assert vals.tolist() == [] and err == 0.0


def test_nonconvergence_raised_on_first_evaluation(quad_counter):
    q = QuadratureConfig(adaptive_tol=1e-300)
    r = star(FGMCopula(1.0), FGMCopula(1.0), q, fast_paths=False)
    assert r.fast_path == "none" and quad_counter["calls"] == 0
    with pytest.raises(NonConvergenceError):
        r.copula.eval(0.3, 0.7)
    with pytest.raises(NonConvergenceError):
        r.error_estimate
    # a probe that failed is not cached: the next read fails again
    with pytest.raises(NonConvergenceError):
        r.error_estimate


# ---------------------------------------------------------------------------
# generalized star product


def test_star_c_identity_and_w_paths(family_pool):
    for _, F in family_pool:
        r = star_c(M, F, FGMCopula(0.5))
        assert r.fast_path == "identity-M"
        r = star_c(FGMCopula(0.5), F, M)
        assert r.fast_path == "identity-M"
        r = star_c(FGMCopula(0.5), F, W)
        assert r.fast_path == "W-closed-form"
        r = star_c(W, F, FGMCopula(0.5))
        assert r.fast_path == "W-closed-form"


def test_star_c_has_no_zero_path():
    # Pi does not absorb the generalized product: over the constant
    # family M the product of Pi with itself is M, not Pi
    r = star_c(PI, ConstantFamily(M), PI)
    assert r.fast_path == "none"
    assert sup_on_lattice(r.copula, M) <= 1e-12


def test_star_c_pi_family_recovers_star():
    A, B = FGMCopula(1.0), FGMCopula(-1.0)
    gen = star_c(A, ConstantFamily(PI), B)
    cls = star(A, B, fast_paths=False)
    assert sup_on_lattice(gen.copula, cls.copula) <= 1e-10


def test_star_c_invertible_reduction(flip_shuffle, family_pool):
    for _, F in family_pool:
        r = star_c(flip_shuffle, F, FGMCopula(0.8))
        assert r.fast_path == "invertible-reduction"
        r = star_c(FGMCopula(0.8), F, flip_shuffle)
        assert r.fast_path == "invertible-reduction"


def test_invertible_reduction_consistency(flip_shuffle):
    # family must drop out when a factor has 0/1 conditionals
    F = PiecewiseConstantFamily((0.5,), (M, W))
    raw = star_c(flip_shuffle, F, FGMCopula(0.8), fast_paths=False)
    red = star_c(flip_shuffle, F, FGMCopula(0.8))
    assert red.fast_path == "invertible-reduction"
    assert sup_on_lattice(raw.copula, red.copula) <= 1e-6


def test_star_c_matches_scipy_oracle():
    F = PiecewiseConstantFamily((0.5,), (M, W))
    A, B = FGMCopula(1.0), FGMCopula(-0.5)

    def inner(t, s, r):
        return min(s, r) if t < 0.5 else max(s + r - 1.0, 0.0)

    r = star_c(A, F, B, fast_paths=False)
    for u, v in [(0.25, 0.5), (0.5, 0.5), (0.7, 0.2)]:
        ref = oracles.quad_star_c(
            oracles.d2_fgm(1.0), inner, oracles.d1_fgm(-0.5), u, v, points=(0.5,)
        )
        assert r.copula.eval(u, v) == pytest.approx(ref, abs=5e-8)


def split_sign_family(theta):
    """fgm(theta) below t = 1/2, fgm(-theta) above; averages to Pi."""
    return PiecewiseConstantFamily(
        (0.5,), (FGMCopula(theta), FGMCopula(-theta))
    )


def test_counterexample_product_closed_form():
    for theta in (1.0, -1.0, 0.3):
        r = star_c(FGMCopula(theta), split_sign_family(theta), PI,
                   fast_paths=False)
        for u, v in [(0.25, 0.5), (0.5, 0.5), (0.75, 0.25), (0.3, 0.9)]:
            want = oracles.counterexample_value(theta, u, v)
            assert r.copula.eval(u, v) == pytest.approx(want, abs=1e-10)


def test_counterexample_pinned_value():
    r = star_c(FGMCopula(1.0), split_sign_family(1.0), PI, fast_paths=False)
    assert r.copula.eval(0.25, 0.5) == pytest.approx(0.13671875, abs=1e-10)
    assert abs(r.copula.eval(0.25, 0.5) - 0.25 * 0.5) >= 1e-2


def test_products_over_ae_equal_families_agree():
    A, B = FGMCopula(1.0), FGMCopula(-1.0)
    F1 = PiecewiseConstantFamily((0.5,), (FGMCopula(0.3), FGMCopula(0.7)))
    F2 = PiecewiseConstantFamily(
        (0.25, 0.5), (FGMCopula(0.3), FGMCopula(0.3), FGMCopula(0.7))
    )
    p1 = star_c(A, F1, B, fast_paths=False)
    p2 = star_c(A, F2, B, fast_paths=False)
    assert sup_on_lattice(p1.copula, p2.copula) <= 1e-8


# ---------------------------------------------------------------------------
# checkerboard products


def _random_grid_pairs(rng, n):
    """Grids of order n from FGM members and from random shuffles."""
    def shuffle():
        k = int(rng.integers(3, 7))
        cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, k - 1)), [1.0]))
        return ShuffleOfM(cuts, rng.permutation(k) + 1, rng.random(k) < 0.5)

    fgm_a = grid_from_copula(FGMCopula(rng.uniform(-1.0, 1.0)), n)
    fgm_b = grid_from_copula(FGMCopula(rng.uniform(-1.0, 1.0)), n)
    sh_a, sh_b = grid_from_copula(shuffle(), n), grid_from_copula(shuffle(), n)
    return ((fgm_a, fgm_b), (sh_a, sh_b), (sh_b, fgm_a))


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_grid_closed_form_matches_quadrature_and_oracle(n):
    rng = np.random.default_rng(100 + n)
    pts = np.arange(17) / 16
    for a, b in _random_grid_pairs(rng, n):
        r = star(a, b)
        assert r.fast_path == "grid-closed-form"
        assert r.error_estimate == 0.0
        assert isinstance(r.copula, GridCopula) and r.copula.n == n
        raw = star(a, b, fast_paths=False)
        assert sup_on_lattice(r.copula, raw.copula) <= 1e-12
        got = r.copula.eval(pts[:, None], pts[None, :])
        for i, u in enumerate(pts):
            for j, v in enumerate(pts):
                want = oracles.grid_star_grid(a.mass, b.mass, u, v)
                assert got[i, j] == pytest.approx(want, abs=1e-12), (u, v)
        rep = validate(r.copula, 64, 1e-12)
        assert rep.passed, rep


def test_grid_product_mass_bits_match_ordered_sum():
    # each entry is n * (a[i,0] b[0,j] + a[i,1] b[1,j] + ... ) added
    # k = 0 .. n-1 in order, whatever BLAS would do with a @ b
    rng = np.random.default_rng(5)
    for n in (1, 3, 16):
        for a, b in _random_grid_pairs(rng, n):
            mass = star(a, b).copula.mass
            A, B = a.mass.tolist(), b.mass.tolist()
            for i in range(n):
                for j in range(n):
                    acc = A[i][0] * B[0][j]
                    for k in range(1, n):
                        acc += A[i][k] * B[k][j]
                    assert mass[i, j] == n * acc, (n, i, j)


def test_empty_batch_evaluates_to_empty():
    empty = np.array([])
    for r in (
        star(FGMCopula(1.0), FGMCopula(1.0), fast_paths=False),
        star_c(M, ConstantFamily(PI), FGMCopula(1.0), fast_paths=False),
    ):
        out = r.copula.eval(empty, empty)
        assert out.shape == (0,)


# ---------------------------------------------------------------------------
# products stay inside the class


def test_products_validate_as_copulas(flip_shuffle):
    results = [
        star(FGMCopula(1.0), FGMCopula(-1.0), fast_paths=False),
        star(W, FGMCopula(1.0)),
        star(StraightShuffle(0.3), flip_shuffle),
        star_c(FGMCopula(1.0), split_sign_family(1.0), PI, fast_paths=False),
    ]
    for r in results:
        rep = validate(r.copula, 64, 1e-6)
        assert rep.passed, rep


def test_quadrature_identity_law(flip_shuffle):
    # M acts as a unit through the raw integral too, not just the tag
    pts = np.arange(65) / 64
    for c in (W, FGMCopula(1.0), flip_shuffle):
        left = star(M, c, fast_paths=False)
        right = star(c, M, fast_paths=False)
        a = left.copula.eval(pts[:, None], pts[None, :])
        b = right.copula.eval(pts[:, None], pts[None, :])
        ref = c.eval(pts[:, None], pts[None, :])
        assert np.abs(a - ref).max() <= 1e-6
        assert np.abs(b - ref).max() <= 1e-6


def test_quadrature_zero_law():
    for c in (W, FGMCopula(1.0), StraightShuffle(0.3)):
        left = star(PI, c, fast_paths=False)
        right = star(c, PI, fast_paths=False)
        assert sup_on_lattice(left.copula, PI) <= 1e-6
        assert sup_on_lattice(right.copula, PI) <= 1e-6


def test_quadrature_w_law():
    A = FGMCopula(1.0)
    raw = star(A, W, fast_paths=False)
    closed = star(A, W)
    assert sup_on_lattice(raw.copula, closed.copula) <= 1e-6


# ---------------------------------------------------------------------------
# convergence of family approximants


def test_midpoint_family_product_converges():
    # theta(t) = t^2: the midpoint rule undershoots the mean by 1/(12 n^2),
    # which shows up linearly in the product values
    curve = FGMCurveFamily((0.0, 0.0, 1.0))
    target = star_c(PI, curve, PI, fast_paths=False)
    errs = []
    for n in (4, 8, 16):
        approx = star_c(PI, midpoint_fgm_approximation(curve, n), PI,
                        fast_paths=False)
        errs.append(sup_on_lattice(target.copula, approx.copula))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] <= errs[0] / 3.5
    assert errs[2] <= errs[1] / 3.5
    x = y = 0.5
    want = x * (1 - x) * y * (1 - y) / (12 * 16.0)
    assert errs[0] == pytest.approx(want, rel=1e-3)


def test_shuffle_approximants_converge_through_products():
    # coarse shuffles standing in for fgm(1), pushed through both products;
    # the integrand is constant in t here, so a small rule is exact
    q = QuadratureConfig(base_subintervals=8, nodes_per_subinterval=4)
    pts = np.arange(17) / 16
    target_member = FGMCopula(1.0)
    S03 = StraightShuffle(0.3)
    ref = star(S03, target_member)
    for n in (1, 2, 3):
        order = 2 ** (n + 2)
        S = shuffle_from_grid(grid_from_copula(target_member, order))
        via_family = star_c(PI, ConstantFamily(S), PI, q, fast_paths=False)
        assert sup_on_lattice(via_family.copula, target_member, pts) \
            <= 4.0 * 2.0 ** -n
        via_star = star(S03, S)
        assert sup_on_lattice(via_star.copula, ref.copula, pts) <= 4.0 * 2.0 ** -n
