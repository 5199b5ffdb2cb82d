import numpy as np
import pytest

import copulalg
from copulalg import (
    ConstantFamily,
    Copula,
    CopulaFamily,
    FGMCopula,
    FGMCurveFamily,
    GridCopula,
    M,
    PI,
    PiecewiseConstantFamily,
    ShuffleOfM,
    StraightShuffle,
    TransposedCopula,
    W,
    ae_equal,
    grid_from_copula,
    midpoint_fgm_approximation,
    star,
    star_c,
    sup_distance,
    write_grid_csv,
)
from copulalg.dsl import (
    Atom,
    Const,
    Fgm,
    FgmCurve,
    Grid,
    Opaque,
    ParseError,
    Pw,
    SemanticError,
    Shuffle,
    Star,
    StarC,
    Straight,
    Transpose,
    build_copula,
    build_family,
    expr_of,
    parse,
    parse_family,
    to_text,
)
from copulalg.products import FAST_PATHS
from copulalg.verify import corpus_copulas, corpus_families


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse("M") == Atom("M")
    assert parse("W") == Atom("W")
    assert parse("Pi") == Atom("Pi")
    assert parse("  M  ") == Atom("M")


def test_parse_parameterized():
    assert parse("fgm(0.5)") == Fgm(0.5)
    assert parse("fgm(-1)") == Fgm(-1.0)
    assert parse("fgm(5e-1)") == Fgm(0.5)
    assert parse("fgm(.25)") == Fgm(0.25)
    assert parse("straight(0.3)") == Straight(0.3)


def test_parse_shuffle():
    node = parse("shuffle(0.2, 0.7; 3, 1, 2; 0, 1, 0)")
    assert node == Shuffle((0.2, 0.7), (3, 1, 2), (0, 1, 0))


def test_parse_grid_paths():
    assert parse('grid("runs/g.csv")') == Grid("runs/g.csv")
    assert parse("grid(g.csv)") == Grid("g.csv")
    assert parse('grid("with space.csv")') == Grid("with space.csv")


def test_parse_nested():
    node = parse("star(M, fgm(0.5))")
    assert node == Star(Atom("M"), Fgm(0.5))
    node = parse("t(star(W, straight(0.25)))")
    assert node == Transpose(Star(Atom("W"), Straight(0.25)))
    node = parse("starc(fgm(1), pw(0.5: fgm(1), fgm(-1)), Pi)")
    assert node == StarC(
        Fgm(1.0), Pw((0.5,), (Fgm(1.0), Fgm(-1.0))), Atom("Pi")
    )


def test_parse_family_forms():
    assert parse_family("const(M)") == Const(Atom("M"))
    assert parse_family("pw(0.5: M, W)") == Pw((0.5,), (Atom("M"), Atom("W")))
    full = parse_family("pw(0, 0.5, 1: M, W)")
    assert full == Pw((0.0, 0.5, 1.0), (Atom("M"), Atom("W")))
    assert parse_family("fgmcurve(-1, 2)") == FgmCurve((-1.0, 2.0))
    assert parse_family("fgmcurve(poly: -1, 2)") == FgmCurve((-1.0, 2.0))


def test_parse_error_columns():
    with pytest.raises(ParseError) as exc:
        parse("star(M fgm(0.5))")
    assert exc.value.column == 8

    with pytest.raises(ParseError) as exc:
        parse("fgm(0.5")
    assert exc.value.column == 8
    assert "')'" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse("")
    assert exc.value.column == 1

    with pytest.raises(ParseError) as exc:
        parse("bogus(1)")
    assert exc.value.column == 1

    with pytest.raises(ParseError) as exc:
        parse("M extra")
    assert exc.value.column == 3
    assert "end of input" in str(exc.value)


def _first_too_deep(text, limit):
    """1-based column of the first "(" nested more than ``limit`` deep."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth > limit:
            return i + 1
    return None


def test_nesting_limit():
    # parse, build, expr_of, to_text and eval recurse per level of
    # parentheses; they all work at the limit, and the parser refuses
    # one level more, at the column of the "(" that opens it
    from copulalg.dsl import MAX_NESTING
    chains = (lambda k: "t(" * k + "M" + ")" * k,
              # fgm(0.5) opens a level of its own
              lambda k: "star(fgm(0.5), " * (k - 1) + "fgm(0.5)" + ")" * (k - 1))
    for chain in chains:
        text = chain(MAX_NESTING)
        assert _first_too_deep(text, MAX_NESTING - 1) is not None
        C = build_copula(parse(text))
        assert parse(to_text(expr_of(C))) == expr_of(C)
        assert 0.0 <= C.eval(0.3, 0.4) <= 0.3
        deeper = chain(MAX_NESTING + 1)
        with pytest.raises(ParseError) as exc:
            parse(deeper)
        assert exc.value.column == _first_too_deep(deeper, MAX_NESTING)
        assert f"at most {MAX_NESTING} nested" in str(exc.value)
    family = "const(" + "t(" * (MAX_NESTING - 1) + "Pi" + ")" * MAX_NESTING
    assert build_family(parse_family(family)).member is PI
    with pytest.raises(ParseError) as exc:
        parse_family("const(t(" + family[6:] + ")")
    assert exc.value.column == 2 * MAX_NESTING + 6


def test_parse_rejects_fractional_permutation_entry():
    with pytest.raises(ParseError) as exc:
        parse("shuffle(0.5; 1.5, 2; 0, 0)")
    assert "integer" in str(exc.value)


def test_parse_unterminated_quote():
    with pytest.raises(ParseError):
        parse('grid("oops)')


# ---------------------------------------------------------------------------
# canonical printing


def test_to_text_canonical():
    assert to_text(parse("fgm(.5)")) == "fgm(0.5)"
    assert to_text(parse("star( M ,  W )")) == "star(M, W)"
    assert to_text(parse("shuffle(0.2, 0.7; 3, 1, 2; 0, 1, 0)")) == \
        "shuffle(0.2,0.7; 3,1,2; 0,1,0)"
    assert to_text(parse("grid(data.csv)")) == 'grid("data.csv")'
    assert to_text(parse_family("pw(0, 0.5, 1: M, W)")) == "pw(0.5: M, W)"
    assert to_text(parse_family("fgmcurve(poly: -1, 2)")) == \
        "fgmcurve(-1.0,2.0)"


def test_to_text_parse_inverse():
    sources = [
        "M",
        "fgm(0.5)",
        "straight(0.3)",
        "shuffle(0.2,0.7; 3,1,2; 0,1,0)",
        "shuffle(; 1; 0)",
        'grid("g.csv")',
        "t(W)",
        "star(M, fgm(0.5))",
        "starc(fgm(1), pw(0.5: fgm(1), fgm(-1)), Pi)",
        "starc(Pi, fgmcurve(-1, 2), Pi)",
        "starc(W, const(straight(0.7)), t(M))",
        "pw(0, 1: M)",
        "pw(: M)",
        "pw(0.2, 0.4, 0.6, 0.8: M, W, Pi)",  # invalid: ends are not 0 and 1
    ]
    for s in sources:
        reader = parse_family if s.startswith("pw(") else parse
        node = reader(s)
        again = reader(to_text(node))
        assert to_text(again) == to_text(node)
        assert reader(to_text(again)) == again
        if s != "pw(0, 1: M)":  # endpoint cuts print interior-only
            assert again == node


# ---------------------------------------------------------------------------
# building


def test_build_atoms_and_params():
    assert build_copula(parse("M")) is M
    assert build_copula(parse("Pi")) is PI
    c = build_copula(parse("fgm(0.5)"))
    assert isinstance(c, FGMCopula) and c.theta == 0.5
    s = build_copula(parse("straight(0.3)"))
    assert isinstance(s, StraightShuffle) and s.alpha == 0.3


def test_build_shuffle_interior_cuts():
    c = build_copula(parse("shuffle(0.2,0.7; 3,1,2; 0,1,0)"))
    assert isinstance(c, ShuffleOfM)
    assert c.cuts == (0.0, 0.2, 0.7, 1.0)
    assert c.flips == (False, True, False)


def test_build_transpose_and_products():
    # fgm is exchangeable, so its transpose is itself
    t = build_copula(parse("t(fgm(1))"))
    assert isinstance(t, FGMCopula)
    t = build_copula(parse("t(star(fgm(1), W))"))
    assert isinstance(t, TransposedCopula)
    r = build_copula(parse("star(M, fgm(0.5))"))
    assert r is not None
    assert sup_distance(r, FGMCopula(0.5), 16) == 0.0
    raw = build_copula(parse("star(W, W)"), fast_paths=False)
    assert sup_distance(raw, M, 16) <= 1e-6


def test_build_starc():
    cop = build_copula(parse("starc(Pi, const(M), Pi)"))
    assert sup_distance(cop, M, 16) <= 1e-12


def test_build_family_objects():
    f = build_family(parse_family("const(fgm(0.25))"))
    assert isinstance(f, ConstantFamily)
    g = build_family(parse_family("pw(0.5: M, W)"))
    assert isinstance(g, PiecewiseConstantFamily)
    g_full = build_family(parse_family("pw(0, 0.5, 1: M, W)"))
    assert ae_equal(g, g_full)
    h = build_family(parse_family("fgmcurve(-1,2)"))
    assert isinstance(h, FGMCurveFamily)
    assert h.coeffs == (-1.0, 2.0)


def test_build_grid_round_trip(tmp_path):
    p = tmp_path / "g.csv"
    write_grid_csv(grid_from_copula(FGMCopula(0.5), 4), p)
    cop = build_copula(parse(f'grid("{p}")'))
    assert isinstance(cop, GridCopula)
    assert cop.eval(0.5, 0.5) == pytest.approx(
        FGMCopula(0.5).eval(0.5, 0.5), abs=1e-12
    )


def test_build_semantic_errors():
    for src in (
        "fgm(2)",
        "fgm(nan)" if False else "fgm(1.5)",
        "straight(1.5)",
        "shuffle(0.5; 1, 1; 0, 0)",       # not a permutation
        "shuffle(0.5; 1, 2; 0, 2)",       # bad flip flag
        "shuffle(0.7, 0.2; 1, 2, 3; 0, 0, 0)",  # cuts unsorted
    ):
        node = parse(src)
        with pytest.raises(SemanticError):
            build_copula(node)
    with pytest.raises(SemanticError):
        build_family(parse_family("pw(0.5: M)"))  # arity
    with pytest.raises(SemanticError):
        build_family(parse_family("pw(0.5, 0.5: M, W, Pi)"))


def test_build_missing_grid_file_is_not_semantic():
    with pytest.raises(OSError):
        build_copula(parse('grid("no-such-file.csv")'))


def test_parse_errors_are_not_semantic():
    # the two error kinds stay distinct for the CLI exit codes
    assert not issubclass(ParseError, SemanticError)
    assert not issubclass(SemanticError, ParseError)


# ---------------------------------------------------------------------------
# expr_of: the inverse of building


def split_sign_family(theta):
    return PiecewiseConstantFamily((0.5,), (FGMCopula(theta), FGMCopula(-theta)))


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_expr_of_inverts_build_copula():
    x, y = np.meshgrid(np.arange(17) / 16, np.arange(17) / 16, indexing="ij")
    forced = (
        star(FGMCopula(0.5), FGMCopula(-0.5), fast_paths=False).copula,
        star_c(FGMCopula(1.0), split_sign_family(1.0), PI,
               fast_paths=False).copula,
    )
    # a one-piece shuffle has no interior cut: its text is shuffle(; 1; 0)
    one_piece = ShuffleOfM((0.0, 1.0), (1,))
    for C in corpus_copulas() + forced + (one_piece,):
        node = expr_of(C)
        assert parse(to_text(node)) == node
        rebuilt = build_copula(node, fast_paths=False)
        assert same_bits(rebuilt.eval(x, y), C.eval(x, y)), to_text(node)


def test_expr_of_inverts_build_family():
    t, x, y = np.meshgrid(*(np.arange(17) / 16,) * 3, indexing="ij")
    curve = FGMCurveFamily((-1.0, 2.0))
    for F in corpus_families() + (
        split_sign_family(0.5),
        midpoint_fgm_approximation(curve, 5),
    ):
        node = expr_of(F)
        assert parse_family(to_text(node)) == node
        rebuilt = build_family(node)
        assert same_bits(rebuilt.eval(t, x, y), F.eval(t, x, y)), to_text(node)


def test_every_exported_class_has_a_spelling(exported_class_samples):
    # a concrete class exported with neither an expr_of case nor a
    # source would label its reports with its bare class name; a grid
    # read from a file is the one kind that spells no source text
    exported = {
        obj for obj in (getattr(copulalg, name) for name in copulalg.__all__)
        if isinstance(obj, type) and issubclass(obj, (Copula, CopulaFamily))
    } - {Copula, CopulaFamily, GridCopula}
    samples = exported_class_samples
    assert set(samples) == exported
    for cls, x in samples.items():
        assert not isinstance(expr_of(x), Opaque), cls.__name__


# one product per fast-path tag, and both sides where the dispatch has
# two: (text, fast_paths, tag, label), label None for the text itself
ASKED_PRODUCTS = (
    ("star(fgm(0.5), fgm(-0.3))", False, "none", None),
    ("starc(fgm(0.5), const(fgm(0.3)), fgm(-0.3))", False, "none", None),
    ("star(M, fgm(0.5))", True, "identity-M", "fgm(0.5)"),
    ("starc(fgm(0.5), const(Pi), M)", True, "identity-M", "fgm(0.5)"),
    ("star(Pi, fgm(0.5))", True, "zero-Pi", "Pi"),
    ("star(fgm(0.5), W)", True, "W-closed-form", None),
    ("star(W, fgm(0.5))", True, "W-closed-form", None),
    ("starc(fgm(0.5), const(fgm(0.5)), W)", True, "W-closed-form", None),
    ("starc(W, pw(0.5: M, W), fgm(0.5))", True, "W-closed-form", None),
    ("starc(shuffle(0.2,0.7; 3,1,2; 0,1,0), const(fgm(0.5)), fgm(0.3))", True,
     "invertible-reduction", None),
    ("starc(fgm(0.3), pw(0.5: M, W), straight(0.3))", True, "invertible-reduction", None),
    ("star(shuffle(0.2,0.7; 3,1,2; 0,1,0), fgm(0.5))", True, "shuffle-closed-form", None),
    ("star(fgm(0.5), shuffle(0.2,0.7; 3,1,2; 0,1,0))", True, "shuffle-closed-form", None),
    ("star(fgm(0.5), fgm(-0.5))", True, "poly-closed-form", None),
    ("starc(fgm(1.0), pw(0.5: fgm(1.0), fgm(-1.0)), Pi)", True, "poly-closed-form", None),
)


def _product_of(text, fast_paths):
    """The ProductResult of the star/starc that ``text`` spells."""
    node = parse(text)
    A, B = build_copula(node.left), build_copula(node.right)
    if isinstance(node, Star):
        return star(A, B, fast_paths=fast_paths)
    return star_c(A, build_family(node.family), B, fast_paths=fast_paths)


def test_every_product_is_labelled_as_it_was_asked_for(tmp_path):
    # whichever closed form evaluates a product, its label is the
    # product that was asked for and rebuilds it bit for bit; identity-M
    # and zero-Pi return a factor or Pi, and print as that
    x, y = np.meshgrid(np.arange(17) / 16, np.arange(17) / 16, indexing="ij")
    tags = set()
    for text, fast_paths, tag, label in ASKED_PRODUCTS:
        res = _product_of(text, fast_paths)
        assert res.fast_path == tag, text
        tags.add(tag)
        got = to_text(expr_of(res.copula))
        assert got == (text if label is None else label), text
        rebuilt = build_copula(parse(got), fast_paths=fast_paths)
        assert same_bits(rebuilt.eval(x, y), res.copula.eval(x, y)), text
    # a grid read from a file prints as grid[NxN], so the grid closed
    # form prints as the product of two of them
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_grid_csv(grid_from_copula(FGMCopula(0.5), 4), paths[0])
    write_grid_csv(grid_from_copula(StraightShuffle(0.3), 4), paths[1])
    res = _product_of(f'star(grid("{paths[0]}"), grid("{paths[1]}"))', True)
    assert res.fast_path == "grid-closed-form"
    tags.add(res.fast_path)
    assert to_text(expr_of(res.copula)) == "star(grid[4x4], grid[4x4])"
    assert tags == set(FAST_PATHS)


def test_transposed_grid_product_keeps_its_label(tmp_path):
    # the grid closed form's transpose is a grid of its own; it prints as
    # the transpose of the product it came from, as every other
    # transposed product does, and that text, with the files spelled
    # out, builds the same bits
    x, y = np.meshgrid(np.arange(17) / 16, np.arange(17) / 16, indexing="ij")
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_grid_csv(grid_from_copula(FGMCopula(0.5), 4), paths[0])
    write_grid_csv(grid_from_copula(StraightShuffle(0.3), 4), paths[1])
    files = [f'grid("{p}")' for p in paths]
    C = build_copula(parse(f"t(star({files[0]}, {files[1]}))"))
    assert isinstance(C, GridCopula)
    label = to_text(expr_of(C))
    assert label == "t(star(grid[4x4], grid[4x4]))"
    text = label.replace("grid[4x4]", files[0], 1).replace("grid[4x4]", files[1], 1)
    assert same_bits(build_copula(parse(text)).eval(x, y), C.eval(x, y))
    # a grid read from a file transposes to the transpose of that grid
    assert to_text(expr_of(build_copula(parse(f"t({files[0]})")))) == "t(grid[4x4])"


def test_transposed_shuffle_text_rebuilds():
    # a shuffle's transpose, spelled out as a shuffle of its own, may be
    # refused: one of its strips has no width in its own transpose's
    # target. Printed as t(...) of the shuffle it came from, the text
    # of a product over it builds the same bits
    x, y = np.meshgrid(np.arange(17) / 16, np.arange(17) / 16, indexing="ij")
    S = ("shuffle(0.2957651786135483,0.29576517861354845,0.5380529496125839,"
         "0.5380529496125842,0.7385214515788401,0.7385214515788402,0.9697583180373829;"
         " 1,8,5,6,4,7,3,2; 0,1,0,0,0,0,0,1)")
    T = build_copula(parse(S)).transpose()
    with pytest.raises(SemanticError, match="transpose's target"):
        build_copula(Shuffle(T.cuts[1:-1], T.sigma, T.flips))
    for text in (f"t({S})", f"star(fgm(0.5), t({S}))", f"starc(fgm(0.5), const(t({S})), Pi)"):
        C = build_copula(parse(text))
        got = to_text(expr_of(C))
        rebuilt = build_copula(parse(got))
        assert same_bits(rebuilt.eval(x, y), C.eval(x, y)), text
        assert to_text(expr_of(rebuilt)) == got
    # a shuffle built from its text, and its transpose's transpose, print as themselves
    S0 = build_copula(parse(S))
    assert to_text(expr_of(S0.transpose().transpose())) == to_text(expr_of(S0))
    assert to_text(expr_of(T)).startswith("t(shuffle(")
