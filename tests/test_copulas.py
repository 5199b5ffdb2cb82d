import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from copulalg import (
    ConstructionError,
    Copula,
    DomainError,
    FGMCopula,
    FormatError,
    GridCopula,
    M,
    PI,
    Rectangle,
    ShuffleOfM,
    StraightShuffle,
    TransposedCopula,
    W,
    fd_partial1,
    fd_partial2,
    grid_from_copula,
    read_grid_csv,
    shuffle_from_grid,
    star,
    sup_distance,
    sup_distance_witness,
    validate,
    write_grid_csv,
)
from copulalg.copulas import GRID_MASS_TOL

unit = st.floats(min_value=0.0, max_value=1.0)


# ---------------------------------------------------------------------------
# point evaluation


def test_eval_closed_forms():
    assert M.eval(0.3, 0.8) == 0.3
    assert W.eval(0.3, 0.8) == pytest.approx(0.1, abs=1e-15)
    assert W.eval(0.3, 0.5) == 0.0
    assert PI.eval(0.5, 0.5) == 0.25
    assert FGMCopula(0.5).eval(0.5, 0.5) == pytest.approx(0.28125, abs=1e-15)
    assert FGMCopula(0.0).eval(0.3, 0.7) == PI.eval(0.3, 0.7)


def test_eval_accepts_arrays():
    u = np.asarray([0.0, 0.25, 1.0])
    out = M.eval(u, 0.5)
    assert out.shape == (3,)
    assert out.tolist() == [0.0, 0.25, 0.5]


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        M.eval(-0.1, 0.5)
    with pytest.raises(DomainError):
        PI.eval(0.5, 1.1)
    with pytest.raises(DomainError):
        W.eval(float("nan"), 0.5)


def test_fgm_parameter_range():
    FGMCopula(1.0)
    FGMCopula(-1.0)
    with pytest.raises(ConstructionError):
        FGMCopula(1.5)
    with pytest.raises(ConstructionError):
        FGMCopula(float("nan"))


# ---------------------------------------------------------------------------
# straight shuffles and general shuffles


def test_straight_shuffle_pinned_values():
    s = StraightShuffle(0.3)
    assert s.eval(0.2, 0.8) == pytest.approx(0.2, abs=1e-15)
    assert s.eval(0.9, 0.2) == pytest.approx(0.2, abs=1e-15)
    assert s.eval(0.7, 0.3) == pytest.approx(0.0, abs=1e-15)


def test_straight_shuffle_degenerate_is_m():
    for alpha in (0.0, 1.0):
        assert sup_distance(StraightShuffle(alpha), M, 32) == 0.0


def test_straight_shuffle_with_no_second_strip_is_m():
    # 1 - alpha == 1.0 for 0 < alpha <= 2**-54: the second strip has no
    # width, so the shuffle is the one-piece M, and it keeps its alpha
    from copulalg.dsl import expr_of, to_text
    g = np.arange(17) / 16
    for alpha in (1e-17, 2.0 ** -54, 5e-324):
        s = StraightShuffle(alpha)
        assert s.n_pieces == 1 and s.alpha == alpha
        got, want = s.eval(g[:, None], g[None, :]), M.eval(g[:, None], g[None, :])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert s.transpose().n_pieces == 1
    assert to_text(expr_of(StraightShuffle(1e-17))) == "straight(1e-17)"
    # the next alpha up still has two strips
    assert StraightShuffle(np.nextafter(2.0 ** -54, 1.0)).n_pieces == 2


def test_straight_shuffle_param_range():
    with pytest.raises(ConstructionError):
        StraightShuffle(-0.01)
    with pytest.raises(ConstructionError):
        StraightShuffle(1.5)


def test_shuffle_constructor_rejects_bad_input():
    with pytest.raises(ConstructionError):
        ShuffleOfM((0.0, 0.5), (1, 2), None)  # sigma arity
    with pytest.raises(ConstructionError):
        ShuffleOfM((0.0, 0.5, 0.5, 1.0), (1, 2, 3), None)  # zero width
    with pytest.raises(ConstructionError):
        ShuffleOfM((0.1, 0.5, 1.0), (1, 2), None)  # missing 0
    with pytest.raises(ConstructionError):
        ShuffleOfM((0.0, 0.5, 1.0), (1, 1), None)  # not a permutation
    with pytest.raises(ConstructionError):
        ShuffleOfM((0.0, 0.5, 1.0), (1, 2), (True,))  # flips arity


def test_shuffle_refuses_entries_that_are_not_integers_or_flags():
    # no float entry is truncated, and a flip is 0, 1 or a bool, not any truthy value
    cuts = (0.0, 0.5, 1.0)
    for sigma in ((1.5, 2), (2.9, 1.2), ("2", "1"), (1, None)):
        with pytest.raises(ConstructionError, match="sigma must be a permutation of 1..2"):
            ShuffleOfM(cuts, sigma)
    for flips, bad in (((2, "no"), "2"), ((0, "no"), "no"), ((0.5, 0), "0.5"),
                       ((None, 1), "None")):
        with pytest.raises(ConstructionError) as err:
            ShuffleOfM(cuts, (2, 1), flips)
        assert str(err.value) == f"flip flags must be 0 or 1, got {bad}"
    # numpy integers and bools pass, and are kept as Python values
    S = ShuffleOfM(cuts, np.array([2, 1]), np.array([True, False]))
    assert S.sigma == (2, 1) and all(type(s) is int for s in S.sigma)
    assert S.flips == (True, False) == ShuffleOfM(cuts, (2, 1), (1, 0)).flips


def test_shuffle_refuses_a_piece_with_no_target_width():
    # piece 1 would land on [1.0, 1.0]: 1.0 + 1e-20 == 1.0
    with pytest.raises(ConstructionError, match=r"piece 1 of width 1e-20 lands on "
                       r"\[1\.0, 1\.0\], a strip of no width in the target cuts"):
        ShuffleOfM((0.0, 1e-20, 1.0), (2, 1))
    # its own target cuts increase, but its transpose's would not
    cuts = (0.0, 1.0944247189792484e-12, 0.40087232448312343, 0.40087232448312377,
            0.40087232458903194, 0.40579022700652945, 0.9991301311240223,
            0.9999999999999999, 1.0)
    with pytest.raises(ConstructionError, match="piece 8 .* transpose's target cuts"):
        ShuffleOfM(cuts, (3, 2, 8, 1, 5, 4, 6, 7), (0, 0, 0, 0, 0, 1, 0, 0))


def test_every_shuffle_that_builds_has_a_transpose_that_builds():
    # seeded shuffles whose strips are often an ulp or a few wide
    rng = np.random.default_rng(29)
    built = refused = 0
    for _ in range(3000):
        k = int(rng.integers(2, 9))
        cuts = [0.0]
        for c in np.sort(rng.uniform(size=k - 1)):
            if rng.random() < 0.4:
                c = cuts[-1] + np.spacing(max(cuts[-1], 1e-300)) * int(rng.integers(1, 4))
            cuts.append(max(float(c), np.nextafter(cuts[-1], 2.0)))
        cuts.append(1.0)
        if not all(b > a for a, b in zip(cuts, cuts[1:])):
            continue
        try:
            S = ShuffleOfM(cuts, rng.permutation(k) + 1, rng.integers(0, 2, k))
        except ConstructionError:
            refused += 1
            continue
        built += 1
        T = S.transpose()
        assert T.transpose() is S
        assert np.isfinite(S.eval(np.array([0.3, 1.0]), np.array([0.5, 0.7]))).all()
        assert np.isfinite(T.eval(np.array([0.3, 1.0]), np.array([0.5, 0.7]))).all()
        S.partial1(0.3, 0.5)
    assert built > 1000 and refused > 0
    # this one builds and so does its transpose T, whose transpose is S.
    # Spelled out, T is refused: the transpose it would build afresh
    # stacks its widths into a strip of no width
    S = ShuffleOfM((0.0, 0.2957651786135483, 0.29576517861354845, 0.5380529496125839,
                    0.5380529496125842, 0.7385214515788401, 0.7385214515788402,
                    0.9697583180373829, 1.0),
                   (1, 8, 5, 6, 4, 7, 3, 2), (0, 1, 0, 0, 0, 0, 0, 1))
    T = S.transpose()
    assert T.transpose() is S and T.eval(0.3, 0.5) == S.eval(0.5, 0.3)
    with pytest.raises(ConstructionError, match="transpose's target cuts"):
        ShuffleOfM(T.cuts, T.sigma, T.flips)


def test_shuffle_rejects_nan_cut():
    with pytest.raises(ConstructionError):
        ShuffleOfM((0.0, float("nan"), 1.0), (2, 1))


def test_flip_shuffle_pinned_value(flip_shuffle):
    assert flip_shuffle.eval(0.1, 0.9) == pytest.approx(0.1, abs=1e-12)


def test_shuffle_eval_matches_mass_oracle(flip_shuffle, unit_grid_65):
    shuffles = [
        StraightShuffle(0.3),
        flip_shuffle,
        ShuffleOfM((0.0, 0.15, 0.3, 0.55, 0.85, 1.0), (4, 2, 5, 1, 3),
                   (True, False, True, False, True)),
    ]
    for s in shuffles:
        segs = s.support_segments()
        vals = s.eval(unit_grid_65[:, None], unit_grid_65[None, :])
        for i, u in enumerate(unit_grid_65):
            for j, v in enumerate(unit_grid_65):
                assert vals[i, j] == pytest.approx(
                    oracles.shuffle_cdf(segs, u, v), abs=1e-12
                )


def test_support_segments_pinned():
    segs = StraightShuffle(0.3).support_segments()
    flat = np.asarray([(s.x0, s.y0, s.x1, s.y1) for s in segs])
    assert np.allclose(
        flat, [(0.0, 0.3, 0.7, 1.0), (0.7, 0.0, 1.0, 0.3)], atol=1e-15
    )
    m_piece = ShuffleOfM((0.0, 1.0), (1,))
    assert [(s.x0, s.y0, s.x1, s.y1) for s in m_piece.support_segments()] == [
        (0.0, 0.0, 1.0, 1.0)
    ]


def test_flip_shuffle_support_segments(flip_shuffle):
    segs = np.asarray(
        [(s.x0, s.y0, s.x1, s.y1) for s in flip_shuffle.support_segments()]
    )
    assert np.allclose(
        segs,
        [
            (0.0, 0.8, 0.2, 1.0),
            (0.2, 0.5, 0.7, 0.0),
            (0.7, 0.5, 1.0, 0.8),
        ],
        atol=1e-15,
    )


def test_shuffle_transpose_is_shuffle(flip_shuffle):
    for s in (StraightShuffle(0.3), flip_shuffle):
        t = s.transpose()
        assert isinstance(t, ShuffleOfM)
        g = np.arange(33) / 32
        direct = s.eval(g[None, :], g[:, None])  # s(v, u) arranged as (u, v)
        assert np.abs(t.eval(g[:, None], g[None, :]) - direct).max() == 0.0


def test_straight_shuffle_transpose_parameter():
    t = StraightShuffle(0.3).transpose()
    assert isinstance(t, StraightShuffle)
    assert t.alpha == 0.7


def test_shuffle_transpose_made_once(flip_shuffle):
    # _d1 and d1_breakpoints go through the transpose on every call
    for s in (StraightShuffle(0.3), flip_shuffle):
        assert s.transpose() is s.transpose()
        assert s.transpose().transpose() is s


def test_transpose_involution(copula_corpus, flip_shuffle):
    g = np.arange(65) / 64
    for _, c in copula_corpus:
        cc = c.transpose().transpose()
        a = c.eval(g[:, None], g[None, :])
        b = cc.eval(g[:, None], g[None, :])
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# volumes and rectangles


def test_rectangle_validation():
    with pytest.raises(DomainError):
        Rectangle(0.5, 0.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        Rectangle(0.0, 1.2, 0.0, 1.0)


def test_volume_pinned_values():
    assert M.volume(Rectangle(0.0, 0.5, 0.0, 0.5)) == 0.5
    assert PI.volume(Rectangle(0.25, 0.75, 0.25, 0.75)) == pytest.approx(0.25)
    assert W.volume(Rectangle(0.0, 0.5, 0.0, 0.5)) == 0.0
    # all W mass rides the anti-diagonal
    assert W.volume(Rectangle(0.0, 0.5, 0.5, 1.0)) == 0.5


def test_shuffle_volume_matches_oracle(flip_shuffle):
    rects = [
        Rectangle(0.0, 0.35, 0.2, 0.9),
        Rectangle(0.1, 0.8, 0.0, 0.55),
        Rectangle(0.25, 0.5, 0.4, 0.6),
    ]
    segs = flip_shuffle.support_segments()
    for r in rects:
        assert flip_shuffle.volume(r) == pytest.approx(
            oracles.shuffle_mass(segs, r.x1, r.x2, r.y1, r.y2), abs=1e-12
        )


@given(x1=unit, x2=unit, y1=unit, y2=unit)
@settings(max_examples=60, deadline=None)
def test_volume_nonnegative_fgm(x1, x2, y1, y2):
    r = Rectangle(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
    for theta in (-1.0, -0.4, 0.7, 1.0):
        assert FGMCopula(theta).volume(r) >= -1e-12


# ---------------------------------------------------------------------------
# partial derivatives


def test_partial_values_one_sided():
    # right-hand rule at kinks, left-hand at the value 1
    assert M.partial2(0.7, 0.3) == 1.0
    assert M.partial2(0.7, 0.7) == 0.0
    assert M.partial2(0.7, 1.0) == 0.0
    assert M.partial2(1.0, 1.0) == 1.0
    assert W.partial2(0.5, 0.5) == 1.0
    assert W.partial2(0.5, 0.4) == 0.0
    assert W.partial2(0.3, 1.0) == 1.0
    assert W.partial2(0.0, 1.0) == 0.0
    assert PI.partial2(0.3, 0.99) == 0.3
    assert PI.partial1(0.99, 0.3) == 0.3


def test_partial_domain_and_clamp():
    with pytest.raises(DomainError):
        M.partial1(1.5, 0.5)
    vals = FGMCopula(1.0).partial2(np.linspace(0, 1, 33), 0.25)
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_fgm_partial_matches_finite_differences():
    c = FGMCopula(0.7)
    h = 1e-5
    g = np.linspace(h, 1.0 - h, 65)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    analytic = c.partial2(uu, vv)
    fd = fd_partial2(c, uu, vv)
    assert np.abs(analytic - fd).max() <= 1e-6
    analytic1 = c.partial1(uu, vv)
    fd1 = fd_partial1(c, uu, vv)
    assert np.abs(analytic1 - fd1).max() <= 1e-6


def test_shuffle_partial_is_indicator(flip_shuffle):
    # derivative of a shuffle section is 0/1 a.e.
    rng = np.random.default_rng(7)
    u = rng.uniform(0.01, 0.99, 200)
    v = rng.uniform(0.01, 0.99, 200)
    d2 = flip_shuffle.partial2(u, v)
    assert set(np.unique(d2)) <= {0.0, 1.0}
    d1 = flip_shuffle.partial1(u, v)
    assert set(np.unique(d1)) <= {0.0, 1.0}


def test_shuffle_partial_matches_fd_off_kinks(flip_shuffle):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.02, 0.98, (300, 2))
    d2 = flip_shuffle.partial2(pts[:, 0], pts[:, 1])
    fd = fd_partial2(flip_shuffle, pts[:, 0], pts[:, 1], h=1e-7)
    # FD smears the jump inside a 1e-7 window; random points miss it
    assert np.abs(d2 - fd).max() <= 1e-6


def _random_shuffle(rng):
    n = int(rng.integers(1, 7))
    cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
    return ShuffleOfM(cuts, rng.permutation(n) + 1, rng.random(n) < 0.5)


def test_kernels_agree_unbroadcast():
    # the quadrature hands _d1/_d2 a (1, w) row or a (1, 1) cell against
    # a (k, 1) column of nodes; the values must carry the same bits as on
    # explicitly broadcast (k, w) inputs. For shuffles the inputs sit on
    # every strip edge _s0, _t0, _t1, where one piece hands over to the
    # next, and on u = 1 and v = 1, where the left-hand rule applies.
    # The kernel section of tests/golden/forced_bits.json pins the bits
    # of the column-row and full forms.
    rng = np.random.default_rng(20)
    base = np.concatenate(([0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 5)))
    cases = [(c, base) for c in (
        M, W, PI, FGMCopula(0.7), FGMCopula(-1.0),
        TransposedCopula(FGMCopula(0.3)), TransposedCopula(W))]
    for _ in range(40):
        s = _random_shuffle(rng)
        edges = np.concatenate((s._s0, s._s0 + s._w, s._t0, s._t1, base))
        cases += [(s, edges), (TransposedCopula(s), edges)]
    # grids on every cell edge j/n, where the right-hand cell is picked
    for g in (grid_from_copula(FGMCopula(0.8), 8),
              grid_from_copula(_random_shuffle(rng), 5)):
        edges = np.concatenate((np.arange(g.n + 1) / g.n, base))
        cases += [(g, edges), (TransposedCopula(g), edges)]
    for c, pts in cases:
        row, col = pts.reshape(1, -1), pts.reshape(-1, 1)
        pairs = [(row, col), (col, row)]
        pairs += [(pts[i:i + 1].reshape(1, 1), col) for i in range(pts.size)]
        pairs += [(col, pts[i:i + 1].reshape(1, 1)) for i in range(pts.size)]
        for u, v in pairs:
            shape = np.broadcast_shapes(u.shape, v.shape)
            ub = np.broadcast_to(u, shape).copy()
            vb = np.broadcast_to(v, shape).copy()
            for d in (c._d1, c._d2):
                got, want = d(u, v), d(ub, vb)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (c, d.__name__)


# ---------------------------------------------------------------------------
# a.e.-derivative consistency: the section derivative integrates back


@pytest.mark.parametrize("uval", [0.17, 0.5, 0.83])
def test_partial2_integrates_to_section(copula_corpus, uval):
    # trapezoid over a fine grid; kinks make this only ~1e-4 accurate
    t = np.linspace(0.0, 1.0, 20001)
    for name, c in copula_corpus:
        d = c.partial2(np.full_like(t, uval), t)
        approx = np.trapezoid(d, t) if hasattr(np, "trapezoid") else np.trapz(d, t)
        assert approx == pytest.approx(c.eval(uval, 1.0), abs=5e-4), name


# ---------------------------------------------------------------------------
# grid copulas


def test_grid_from_copula_pinned_cells():
    g = grid_from_copula(PI, 2)
    assert np.allclose(g.mass, 0.25)
    g = grid_from_copula(M, 2)
    assert np.allclose(g.mass, [[0.5, 0.0], [0.0, 0.5]])
    g = grid_from_copula(FGMCopula(1.0), 2)
    assert g.mass[0, 0] == pytest.approx(0.3125, abs=1e-15)


def test_grid_marginals_exact(copula_corpus):
    for name, c in copula_corpus:
        g = grid_from_copula(c, 16)
        assert np.abs(g.mass.sum(axis=0) - 1 / 16).max() <= 1e-13, name
        assert np.abs(g.mass.sum(axis=1) - 1 / 16).max() <= 1e-13, name


def test_grid_interpolates_corners_exactly():
    c = FGMCopula(0.8)
    g = grid_from_copula(c, 8)
    pts = np.arange(9) / 8
    assert np.abs(
        g.eval(pts[:, None], pts[None, :]) - c.eval(pts[:, None], pts[None, :])
    ).max() <= 1e-15


def test_grid_partials_right_hand_at_cell_edges():
    # at v = j/8 the bilinear cdf kinks; d2 must take the slope of the
    # cell above v (right-hand), and the cell below at v = 1 (left-hand).
    # j/8 * 8 is exact, so the cell index is never off by rounding.
    g = grid_from_copula(FGMCopula(0.8), 8)
    d2, d1 = oracles.d2_grid(g.mass), oracles.d1_grid(g.mass)
    assert g.partial2(0.3, 0.375) == pytest.approx(0.320625, abs=1e-14)
    assert g.partial2(0.3, 0.5) == pytest.approx(0.279375, abs=1e-14)
    edges = np.arange(9) / 8
    for x in (0.0, 0.3, 0.375, 0.9, 1.0):
        for e in edges:
            assert g.partial2(x, e) == pytest.approx(d2(x, e), abs=1e-14), (x, e)
            assert g.partial1(e, x) == pytest.approx(d1(e, x), abs=1e-14), (e, x)
    # a one-sided difference inside the cell above each edge agrees
    u = np.full(8, 0.3)
    h = 1e-7
    fd = (g.eval(u, edges[:-1] + h) - g.eval(u, edges[:-1])) / h
    assert np.abs(g.partial2(u, edges[:-1]) - fd).max() <= 1e-6
    fd = (g.eval(1.0 - h, 0.3) - g.eval(1.0 - 2 * h, 0.3)) / h
    assert g.partial1(1.0, 0.3) == pytest.approx(fd, abs=1e-6)


def test_grid_constructor_rejects_bad_mass():
    with pytest.raises(ConstructionError):
        GridCopula([[0.6, 0.0], [0.0, 0.4]])  # marginals off
    with pytest.raises(ConstructionError):
        GridCopula([[0.75, -0.25], [-0.25, 0.75]])  # negative
    with pytest.raises(ConstructionError):
        GridCopula(np.ones((2, 3)))


def test_grid_csv_round_trip(tmp_path):
    g = grid_from_copula(FGMCopula(0.6), 5)
    p = tmp_path / "g.csv"
    write_grid_csv(g, p)
    g2 = read_grid_csv(p)
    assert np.array_equal(g.mass, g2.mass)
    write_grid_csv(g2, tmp_path / "g2.csv")
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()


def test_grid_csv_renormalizes_small_drift(tmp_path):
    mass = np.full((4, 4), 1 / 16)
    mass[0, 0] += 2e-7  # inside the 1e-6 acceptance band
    lines = ["N=4"] + [",".join(repr(float(x)) for x in row) for row in mass]
    p = tmp_path / "drift.csv"
    p.write_text("\n".join(lines) + "\n")
    g = read_grid_csv(p)
    assert np.abs(g.mass.sum(axis=0) - 0.25).max() <= 1e-10
    assert np.abs(g.mass.sum(axis=1) - 0.25).max() <= 1e-10


def test_grid_csv_rejects(tmp_path):
    # the row count is checked before any row's content
    cases = {
        "no-header.csv": ("0.5,0.5\n0.5,0.5\n", "first line must be 'N=<order>'"),
        "bad-count.csv": ("N=3\n" + "0.25,0.25\n" * 2, "expected 3 mass rows, found 2"),
        "bad-width.csv": ("N=2\n0.25,0.25,0.25\n0.25,0.25\n",
                          "row 1 has 3 entries, expected 2"),
        "negative.csv": ("N=2\n0.5,-0.25\n0.0,0.75\n", "row 1 contains a negative or NaN mass"),
        "non-numeric.csv": ("N=2\n0.25,x\n0.25,0.25\n", "row 1 contains a non-numeric entry"),
        "off-marginals.csv": ("N=2\n0.45,0.1\n0.1,0.35\n", "marginals deviate from 1/2"),
        "count-and-bad-row.csv": ("N=3\n0.25,x\n0.25,0.25\n", "expected 3 mass rows, found 2"),
        # '#' is data, not a comment
        "hash.csv": ("N=2\n0.25,0.25 # note\n0.25,0.25\n", "row 1 contains a non-numeric entry"),
        "hash-row.csv": ("N=2\n#0.25,0.25\n0.25,0.25\n", "row 1 contains a non-numeric entry"),
        # the first bad row wins, whatever is wrong with a later one
        "first-wins.csv": ("N=2\n0.25,x\n0.25,0.25,0.25\n",
                           "row 1 contains a non-numeric entry"),
        "negative-first.csv": ("N=2\n-0.25,0.75\n0.25,y\n",
                               "row 1 contains a negative or NaN mass"),
        "nan-later.csv": ("N=2\n0.25,0.25\n0.25,nan\n", "row 2 contains a negative or NaN mass"),
        "narrow.csv": ("N=2\n0.5\n0.5\n", "row 1 has 1 entries, expected 2"),
        # float() takes no unit separator for whitespace
        "unit-separator.csv": ("N=2\n0.25\x1f,0.25\n0.25,0.25\n",
                               "row 1 contains a non-numeric entry"),
    }
    for name, (body, message) in cases.items():
        p = tmp_path / name
        p.write_text(body)
        with pytest.raises(FormatError) as err:
            read_grid_csv(p)
        assert str(err.value).startswith(message), name


def test_grid_csv_rejects_a_bad_order(tmp_path):
    for header, message in (("N=abc", "bad order 'abc'"),
                            ("N=0", "order must be positive, got 0"),
                            ("N=-2", "order must be positive, got -2")):
        p = tmp_path / "order.csv"
        p.write_text(header + "\n0.5,0.5\n0.5,0.5\n")
        with pytest.raises(FormatError) as err:
            read_grid_csv(p)
        assert str(err.value) == message


NOT_ASCII = {
    "bom.csv": b"\xef\xbb\xbfN=2\n0.25,0.25\n0.25,0.25\n",
    "accent.csv": b"N=2\n0.25,0.25\n0.25,0.2\xc3\xa9\n",
    "trailing-ff.csv": b"N=2\n0.25,0.25\n0.25,0.25\n\xff",
}


def test_grid_csv_that_is_not_ascii_is_a_format_error(tmp_path):
    for name, body in NOT_ASCII.items():
        p = tmp_path / name
        p.write_bytes(body)
        with pytest.raises(FormatError) as err:
            read_grid_csv(p)
        # the message names the first byte that is not ASCII
        byte = next(b for b in body if b > 127)
        assert str(err.value) == f"not ASCII text: byte 0x{byte:02x}", name


def test_grid_csv_reads_as_float_does(tmp_path):
    # CRLF line ends, blank and whitespace-only lines, spaces around
    # entries and the underscores that float() takes give the same mass
    plain = "N=2\n0.25,0.25\n0.25,0.25\n"
    bodies = ["N=2\r\n0.25,0.25\r\n0.25,0.25\r\n",
              "N=2\n\n  \n0.25,0.25\n\t\n0.25,0.25\n\n",
              "N=2\n 0.25 ,\t0.25\n0.25, 0.25 \n",
              "N=2\n0.2_5,0.25\n0.25,2_5e-2\n"]
    want = read_grid_csv(_written(tmp_path / "plain.csv", plain)).mass
    assert want.tobytes() == np.full((2, 2), 0.25).tobytes()
    for k, body in enumerate(bodies):
        got = read_grid_csv(_written(tmp_path / f"{k}.csv", body)).mass
        assert got.tobytes() == want.tobytes(), body


def _written(path, body):
    with open(path, "w", newline="") as fh:
        fh.write(body)
    return path


def test_grid_csv_read_holds_little_more_than_the_grid(tmp_path):
    # the rows are parsed one line at a time by numpy's reader, which
    # holds about 1.2 mass arrays: reading a 512 x 512 export peaks
    # below 6 times its mass array (GridCopula alone takes about 4)
    g = grid_from_copula(FGMCopula(0.7), 512)
    p = tmp_path / "big.csv"
    write_grid_csv(g, p)
    tracemalloc.start()
    try:
        got = read_grid_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.mass, g.mass)
    assert peak <= 6 * got.mass.nbytes


def test_shuffle_from_grid_approximates():
    for n, order in ((1, 8), (2, 16), (3, 32)):
        g = grid_from_copula(FGMCopula(1.0), order)
        s = shuffle_from_grid(g)
        assert sup_distance(s, g, 22) <= 4.0 / order
        assert sup_distance(s, FGMCopula(1.0), 22) <= 2.0 ** -n


def test_many_piece_shuffle_bits_do_not_depend_on_batch(unit_grid_65):
    # 1024 pieces: a point's value has the same bits alone, inside a
    # 2-point batch and inside the 65 x 65 lattice
    s = shuffle_from_grid(grid_from_copula(FGMCopula(0.7), 32))
    assert s.n_pieces == 1024
    lattice = s._cdf(unit_grid_65[:, None], unit_grid_65[None, :])
    bad = []
    for i in range(0, 65, 3):
        for j in range(0, 65, 3):
            u, v = unit_grid_65[i], unit_grid_65[j]
            alone = s.eval(u, v)
            pair = s.eval(np.array([u, 0.5]), np.array([v, 0.25]))[0]
            if not alone == lattice[i, j] == pair:
                bad.append((u, v))
    assert bad == []


def _around(x):
    # x, its float neighbours, -0, 0 and 1, inside [0, 1]
    x = np.concatenate((x, [0.0, 1.0]))
    x = np.concatenate((x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)))
    return np.concatenate(([-0.0], np.unique(np.clip(x, 0.0, 1.0))))


def test_shuffle_cdf_matches_the_piece_loop_bit_for_bit(monkeypatch):
    # u at every cut and strip end, v at every strip and slot end, their
    # neighbours, -0, 0 and 1; lattices both ways, scalars and scattered
    # points, on both sides of the running-sum rule. The running sum has
    # the bits of the piece loop, whose own bits the kernel section of
    # tests/golden/forced_bits.json pins
    looped = ShuffleOfM._cdf_looped
    rng = np.random.default_rng(22)
    shuffles = [shuffle_from_grid(grid_from_copula(FGMCopula(0.7), 32)),
                StraightShuffle(0.3)]
    for n in (1, 2, 3, 5, 8, 13, 30, 64, 100):
        cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
        shuffles.append(ShuffleOfM(cuts, rng.permutation(n) + 1, rng.random(n) < 0.5))
    taken = {"running": 0, "looped": 0}
    for side in taken:
        def spy(self, u, v, kernel=getattr(ShuffleOfM, f"_cdf_{side}"), side=side):
            taken[side] += 1
            return kernel(self, u, v)
        monkeypatch.setattr(ShuffleOfM, f"_cdf_{side}", spy)
    for S in shuffles:
        us = _around(np.concatenate((S._s0, S._s0 + S._w)))
        vs = _around(np.concatenate((S._t0, S._t1, S._tcuts)))
        few_u = rng.choice(us, min(us.size, 16), replace=False)
        few_v = rng.choice(vs, min(vs.size, 16), replace=False)
        cases = [(us[:, None], few_v[None, :]), (few_v[None, :], us[:, None]),
                 (few_u[:, None], vs[None, :]), (vs[None, :], few_u[:, None])]
        cases += [(np.float64(x), vs) for x in few_u[:8]]
        cases += [(us, np.float64(y)) for y in few_v[:8]]
        cases += [(np.float64(x), np.float64(y)) for x, y in zip(few_u, few_v)]
        pairs = rng.choice(vs, us.size)
        cases += [(us, pairs), (us[:5], pairs[:5]), (us[-1:], pairs[-1:])]
        for u, v in cases:
            want = looped(S, u, v)
            got = S._cdf(u, v)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (S.n_pieces, np.shape(u), np.shape(v))
    assert taken["running"] > 0 and taken["looped"] > 0


def test_shuffle_lattice_and_point_cdf_take_the_running_sum(monkeypatch, unit_grid_65):
    # the running sum holds its (pieces + 1) x 65 array, and a second
    # one for the flipped pieces, never a (pieces x points) one
    def loop(*args):
        raise AssertionError("the piece loop ran")

    monkeypatch.setattr(ShuffleOfM, "_cdf_looped", loop)
    S = shuffle_from_grid(grid_from_copula(FGMCopula(0.7), 32))
    flips = np.random.default_rng(7).random(S.n_pieces) < 0.5
    g = unit_grid_65
    lattice = 65 * 65 * 8
    for C in (S, ShuffleOfM(S.cuts, S.sigma, flips)):
        C.eval(0.3, 0.6)
        validate(C, 64)
        running = (C.n_pieces + 1) * 65 * 8
        tracemalloc.start()
        try:
            C._cdf(g[:, None], g[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * running + 6 * lattice


def _residue_sweep():
    # grids of shuffles, whose empty cells keep a rounding residue of
    # about 1e-17: straight shuffles, the three-piece corpus shuffle and
    # seeded random shuffles with flips
    for a in range(1, 20):
        for n in range(2, 17):
            yield StraightShuffle(a * 0.05), n
    corpus = ShuffleOfM((0.0, 0.2, 0.7, 1.0), (3, 1, 2), (False, True, False))
    for n in range(2, 17):
        yield corpus, n
    rng = np.random.default_rng(123)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        cuts = (0.0, *np.sort(rng.uniform(size=k - 1)), 1.0)
        flips = rng.integers(0, 2, k).astype(bool)
        yield ShuffleOfM(cuts, rng.permutation(k) + 1, flips), int(rng.integers(2, 17))


def test_shuffle_from_grid_survives_rounding_residue():
    # a residue cell makes no piece: it would have no width on the target
    # side, or carry the running cut past 1.0 (W's checkerboards)
    residue = grid_from_copula(StraightShuffle(0.4), 5)
    assert 0.0 < residue.mass[residue.mass < 1e-12].max() < 1e-15
    fgm = FGMCopula(0.5)
    checkerboards = [(C, n) for C in (W, M, PI, fgm) for n in range(1, 65)]
    for C, n in [*_residue_sweep(), *checkerboards]:
        grid = grid_from_copula(C, n)
        S = shuffle_from_grid(grid)
        assert S.cuts[-1] == 1.0
        assert S.transpose().transpose() is S
        # a copula lies between the Frechet bounds W(0.3, 0.5) = 0 and M
        assert -1e-15 <= star(fgm, S).copula.eval(0.3, 0.5) <= 0.3 + 1e-15, (C, n)
        if n <= 16:
            assert sup_distance(S, grid, 64) <= 4.0 / n, (C, n)


def test_shuffle_from_grid_keeps_residue_free_grids():
    # with no mass within GRID_MASS_TOL of 0, the pieces are the cells
    # with mass, and the cuts their running sum in row-major order
    for theta in (0.7, -0.9, 0.3):
        for n in (8, 16, 32):
            m = grid_from_copula(FGMCopula(theta), n).mass
            assert m.min() > GRID_MASS_TOL
            S = shuffle_from_grid(GridCopula(m))
            want = np.add.accumulate(m.reshape(-1))
            assert S.n_pieces == n * n
            assert S.cuts[1:-1] == tuple(want[:-1])


# ---------------------------------------------------------------------------
# sup distance and validation


def test_sup_distance_pinned():
    assert sup_distance(M, M, 64) == 0.0
    dev, wit = sup_distance_witness(M, W, 2)
    assert dev == 0.5 and wit == (0.5, 0.5)
    dev, wit = sup_distance_witness(PI, FGMCopula(1.0), 64)
    assert dev == pytest.approx(0.0625, abs=1e-15)
    assert wit == (0.5, 0.5)


def test_sup_distance_exact_for_polynomial_copulas():
    # theta differs by 2^-53; the gap (2^-53 / 16 at the centre) is lost
    # when the rounded values are subtracted, and kept when the
    # coefficients are
    a, b = FGMCopula(0.5), FGMCopula(np.nextafter(0.5, 1.0))
    assert np.abs(a.eval(0.5, 0.5) - b.eval(0.5, 0.5)) == 0.0
    dev, wit = sup_distance_witness(a, b, 64)
    assert dev == 2.0 ** -57 and wit == (0.5, 0.5)
    assert dev == pytest.approx(6.94e-18, rel=1e-3)
    assert sup_distance(a, b, 64) == dev


def test_validate_builtins_tight(copula_corpus):
    for name, c in copula_corpus:
        rep = validate(c, 64, 1e-12)
        assert rep.passed, (name, rep)
        assert rep.max_boundary_error <= 1e-12
        assert rep.min_volume >= -1e-12


def test_validate_grid_interpolant():
    rep = validate(grid_from_copula(FGMCopula(1.0), 32), 64, 1e-9)
    assert rep.passed


def test_validate_boundary_points_1025(copula_corpus):
    pts = np.linspace(0.0, 1.0, 1025)
    for name, c in copula_corpus:
        tol = 1e-9 if isinstance(c, GridCopula) else 1e-12
        assert np.abs(c.eval(pts, 1.0) - pts).max() <= tol, name
        assert np.abs(c.eval(1.0, pts) - pts).max() <= tol, name
        assert np.abs(c.eval(pts, 0.0)).max() <= tol, name
        assert np.abs(c.eval(0.0, pts)).max() <= tol, name


def test_validate_flags_non_copula():
    class SquaredW(Copula):
        def _cdf(self, u, v):
            return np.maximum(u + v - 1.0, 0.0) ** 2

    rep = validate(SquaredW(), 64, 1e-9)
    assert not rep.passed
    assert rep.max_boundary_error > 1e-3


def test_validate_flags_negative_volume():
    class Tilted(Copula):
        def _cdf(self, u, v):
            # boundary-correct but not 2-increasing
            return u * v + 0.05 * np.sin(2 * np.pi * u) * np.sin(2 * np.pi * v)

    rep = validate(Tilted(), 64, 1e-9)
    assert not rep.passed
    assert rep.min_volume < -1e-4


@given(u1=unit, u2=unit, v=unit)
@settings(max_examples=80, deadline=None)
def test_lipschitz_in_first_argument(u1, u2, v):
    for c in (M, W, PI, FGMCopula(1.0), FGMCopula(-0.6), StraightShuffle(0.3)):
        assert abs(c.eval(u1, v) - c.eval(u2, v)) <= abs(u1 - u2) + 1e-12


@given(u=unit, v=unit)
@settings(max_examples=80, deadline=None)
def test_frechet_bounds(u, v, flip_shuffle):
    lo = W.eval(u, v)
    hi = M.eval(u, v)
    for c in (PI, FGMCopula(1.0), FGMCopula(-1.0), flip_shuffle):
        x = c.eval(u, v)
        assert lo - 1e-12 <= x <= hi + 1e-12
