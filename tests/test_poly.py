from fractions import Fraction

import numpy as np
import pytest

import oracles
from copulalg import (
    ConstantFamily,
    ConstructionError,
    FGMCopula,
    FGMCurveFamily,
    M,
    PI,
    PiecewiseConstantFamily,
    PolyCopula,
    ShuffleOfM,
    TransposedCopula,
    grid_from_copula,
    star,
    star_c,
)
from copulalg.dsl import Opaque, build_copula, expr_of, parse, to_text
from copulalg.poly import MAX_DEGREE, exact_gap
from copulalg.verify import fgm_counterexample

GRID_33 = np.arange(33) / 32
LATTICE = (GRID_33[:, None], GRID_33[None, :])
RATIONAL = [Fraction(k, 8) for k in range(9)]


def fgm(theta):
    return FGMCopula(theta)


def fgm_coeffs(theta):
    """Coefficients of xy + theta xy(1 - x)(1 - y), written out."""
    return [[0, 0, 0], [0, 1 + theta, -theta], [0, -theta, theta]]


def split_sign(theta):
    return PiecewiseConstantFamily((0.5,), (fgm(theta), fgm(-theta)))


CLIPPED = FGMCurveFamily((-1.0, 3.0))  # clipped to 1 from t = 2/3 on
UNCLIPPED = FGMCurveFamily((0.2, -0.5, 0.4))
PW = PiecewiseConstantFamily((0.25, 0.6), (fgm(1.0), PI, fgm(-0.8)))


def _cases():
    """(label, left, family, right): products that take the closed form."""
    inner = star_c(fgm(1.0), ConstantFamily(fgm(0.5)), fgm(-1.0)).copula
    return [
        ("star", fgm(0.7), None, fgm(-0.4)),
        ("const", fgm(1.0), ConstantFamily(fgm(0.5)), fgm(-1.0)),
        ("const Pi", fgm(0.3), ConstantFamily(PI), fgm(0.9)),
        ("pw", fgm(0.6), PW, fgm(0.5)),
        ("fgmcurve clipped", fgm(0.6), CLIPPED, fgm(0.6)),
        ("fgmcurve unclipped", fgm(-0.9), UNCLIPPED, fgm(-0.7)),
        ("nested", inner, ConstantFamily(fgm(-1.0)), fgm(0.5)),
        ("transposed nested", TransposedCopula(inner), PW, PI),
    ]


def _product(A, F, B, **kw):
    return star(A, B, **kw) if F is None else star_c(A, F, B, **kw)


def test_fgm_closure_is_exact():
    # fgm(a) * fgm(b) = fgm(ab / 3), coefficient for coefficient
    for a, b in ((1.0, 1.0), (0.5, -0.8), (-1.0, 0.3), (0.1, 0.7)):
        r = star(fgm(a), fgm(b))
        assert r.fast_path == "poly-closed-form" and r.error_estimate == 0.0
        want = fgm_coeffs(Fraction(a) * Fraction(b) / 3)
        assert r.copula.coeffs.tolist() == want


def test_products_match_the_fraction_oracle():
    # the library's exact coefficients, evaluated exactly, equal the
    # oracle's exact integral in t at every rational point
    member = {
        None: [(0, 1, oracles.pi_member)],
        "const": [(0, 1, oracles.fgm_member([Fraction(0.5)]))],
        "const Pi": [(0, 1, oracles.pi_member)],
        "pw": [(0, Fraction(1, 4), oracles.fgm_member([1])),
               (Fraction(1, 4), Fraction(0.6), oracles.pi_member),
               (Fraction(0.6), 1, oracles.fgm_member([Fraction(-0.8)]))],
        "clipped": oracles.fgm_curve_pieces(CLIPPED.coeffs, CLIPPED.breakpoints()),
        "unclipped": oracles.fgm_curve_pieces(UNCLIPPED.coeffs, UNCLIPPED.breakpoints()),
    }
    cases = [
        (fgm(0.7), None, fgm(-0.4), 0.7, -0.4, member[None]),
        (fgm(1.0), ConstantFamily(fgm(0.5)), fgm(-1.0), 1.0, -1.0, member["const"]),
        (fgm(0.3), ConstantFamily(PI), fgm(0.9), 0.3, 0.9, member["const Pi"]),
        (fgm(0.6), PW, fgm(0.5), 0.6, 0.5, member["pw"]),
        (fgm(0.6), CLIPPED, fgm(0.6), 0.6, 0.6, member["clipped"]),
        (fgm(-0.9), UNCLIPPED, fgm(-0.7), -0.9, -0.7, member["unclipped"]),
        # nested: star(fgm(1), fgm(1)) is fgm(1/3) exactly
        (star(fgm(1.0), fgm(1.0)).copula, None, fgm(1.0), Fraction(1, 3), 1.0,
         member[None]),
    ]
    assert len(CLIPPED.breakpoints()) == 1 and UNCLIPPED.breakpoints() == ()
    for A, F, B, ta, tb, pieces in cases:
        r = _product(A, F, B)
        assert r.fast_path == "poly-closed-form"
        for x in RATIONAL:
            for y in RATIONAL:
                want = oracles.exact_star_c(
                    oracles.fgm_d2_t(ta, x), oracles.fgm_d1_t(tb, y), pieces
                )
                assert oracles.exact_poly_eval(r.copula.coeffs, x, y) == want


def test_split_sign_deviations_are_exact_rationals():
    # (fgm(theta) *_C Pi) - Pi = theta^2 x (1 - x)(1/2 - x) y (1 - y)
    pins = (((0.25, 0.5), Fraction(3, 256)), ((0.5, 0.5), 0),
            ((0.75, 0.25), Fraction(-9, 1024)))
    for theta in (0.1, 0.5, 1.0):
        th2 = Fraction(theta) ** 2
        r = star_c(fgm(theta), split_sign(theta), PI)
        assert r.fast_path == "poly-closed-form"
        report = fgm_counterexample(theta)
        for (x, y), want in pins:
            fx, fy = Fraction(x), Fraction(y)
            got = oracles.exact_poly_eval(r.copula.coeffs, fx, fy) - fx * fy
            assert got == want * th2
            # the report rounds the exact difference of the coefficients
            dev = report.params[f"dev({x:g},{y:g})"]
            assert abs(Fraction(dev) - abs(want) * th2) <= Fraction(1, 10**18)
            if theta != 0.1:  # dyadic coefficients: no rounding at all
                assert Fraction(dev) == abs(want) * th2


def test_matches_forced_quadrature_on_lattices():
    for label, A, F, B in _cases():
        closed = _product(A, F, B)
        forced = _product(A, F, B, fast_paths=False)
        assert (closed.fast_path, forced.fast_path) == ("poly-closed-form", "none")
        gap = np.abs(closed.copula.eval(*LATTICE) - forced.copula.eval(*LATTICE)).max()
        assert gap <= 1e-12, label


def _exact_lattice(coeffs):
    return np.array([[float(oracles.exact_poly_eval(coeffs, Fraction(x), Fraction(y)))
                      for y in GRID_33] for x in GRID_33])


def test_float_horner_matches_exact_evaluation():
    # monomial Horner stays within 1e-13 of exact evaluation up to the cap
    P = fgm(1.0)
    chain = []
    while True:
        r = star_c(P, ConstantFamily(fgm(1.0)), fgm(-1.0))
        if r.fast_path != "poly-closed-form":
            break
        P = r.copula
        chain.append(P)
    assert [c.degree for c in chain] == [(4, 4), (8, 4), (16, 4)]
    assert chain[-1].degree[0] == MAX_DEGREE
    for P in chain + [star_c(fgm(0.6), CLIPPED, fgm(0.6)).copula]:
        c = P.coeffs
        assert np.abs(P.eval(*LATTICE) - _exact_lattice(c)).max() <= 1e-13
        d1 = c[1:] * np.arange(1, c.shape[0])[:, None]
        d2 = c[:, 1:] * np.arange(1, c.shape[1])
        assert np.abs(P._d1(*LATTICE) - _exact_lattice(d1)).max() <= 1e-13
        assert np.abs(P._d2(*LATTICE) - _exact_lattice(d2)).max() <= 1e-13


def test_degree_cap_falls_back_to_quadrature(quad_counter):
    chain = [fgm(1.0)]
    for _ in range(3):
        chain.append(star_c(chain[-1], ConstantFamily(fgm(1.0)), fgm(-1.0)).copula)
    P8, P16 = chain[2:]
    assert (P8.degree, P16.degree) == ((8, 4), (16, 4))
    # the classical product keeps the degree, an FGM member doubles it
    assert star(P16, fgm(0.5)).fast_path == "poly-closed-form"
    at_cap = star_c(PI, ConstantFamily(fgm(1.0)), TransposedCopula(P8))
    assert at_cap.fast_path == "poly-closed-form"
    assert at_cap.copula.degree[1] == MAX_DEGREE
    for over in (star_c(P16, ConstantFamily(fgm(1.0)), fgm(0.5)),
                 star_c(PI, ConstantFamily(fgm(1.0)), TransposedCopula(P16))):
        assert over.fast_path == "none"
    assert quad_counter["calls"] == 0


def test_non_polynomial_members_and_factors_use_other_paths():
    shuffle = ShuffleOfM((0.0, 0.5, 1.0), (2, 1))
    grid = grid_from_copula(fgm(0.5), 4)
    assert star_c(fgm(0.5), PiecewiseConstantFamily((0.5,), (M, fgm(1.0))),
                  fgm(0.5)).fast_path == "none"
    assert star(fgm(0.5), grid).fast_path == "none"
    assert star(fgm(0.5), shuffle).fast_path == "shuffle-closed-form"
    assert star(PI, fgm(0.5)).fast_path == "zero-Pi"


def test_building_and_evaluating_runs_no_quadrature(quad_counter):
    for _, A, F, B in _cases():
        r = _product(A, F, B)
        assert r.error_estimate == 0.0
        r.copula.eval(*LATTICE)
        r.copula.partial1(*LATTICE)
        r.copula.partial2(*LATTICE)
    assert quad_counter["calls"] == 0


def test_point_alone_has_its_batch_bits():
    g = np.arange(9) / 8
    for _, A, F, B in _cases():
        C = _product(A, F, B).copula
        for method in (C.eval, C.partial1, C.partial2):
            batch = method(g[:, None], g[None, :])
            for i, x in enumerate(g):
                for j, y in enumerate(g):
                    assert method(x, y) == batch[i, j]


def test_labels_spell_the_factors():
    for text in (
        "star(fgm(0.5), fgm(-0.5))",
        "starc(fgm(1.0), pw(0.5: fgm(1.0), fgm(-1.0)), Pi)",
        "star(t(starc(fgm(0.5), fgmcurve(-1.0,3.0), fgm(-0.5))), fgm(0.25))",
    ):
        cop = build_copula(parse(text))
        assert isinstance(cop, PolyCopula)
        assert to_text(expr_of(cop)) == text


def _float_copies(P):
    """P's float coefficients and those of its partials, each the exact
    coefficient, times i or j for a partial, rounded once."""
    c = P.coeffs
    return (np.array([[float(x) for x in row] for row in c]),
            np.array([[float(i * x) for x in row] for i, row in enumerate(c[1:], 1)]),
            np.array([[float(j * x) for j, x in enumerate(row[1:], 1)] for row in c]))


def _seeded_products():
    """(label, left, family, right): products of non-dyadic FGM copulas,
    Pi, degree-(4, 4) and (8, 8) polynomial factors and transposes, over
    every kind of family the closed form takes."""
    rng = np.random.default_rng(33)
    fa, fb, fc, fd, fe = (fgm(t) for t in rng.uniform(-1.0, 1.0, 5))
    P44 = star_c(fa, ConstantFamily(fb), fc).copula
    P84 = star_c(P44, CLIPPED, fd).copula
    P88 = star(P84, TransposedCopula(P84)).copula
    assert (P44.degree, P84.degree, P88.degree) == ((4, 4), (8, 4), (8, 8))
    cut = float(rng.uniform(0.2, 0.8))
    families = [("star", None), ("const", ConstantFamily(fe)), ("const Pi", ConstantFamily(PI)),
                ("pw", PiecewiseConstantFamily((cut,), (fd, fgm(-1.0)))),
                ("fgmcurve clipped", FGMCurveFamily((-1.0, float(rng.uniform(2.0, 3.0)))))]
    pairs = [("fgm", fa, "Pi", PI), ("Pi", PI, "t(P44)", TransposedCopula(P44)),
             ("P44", P44, "fgm", fb), ("P88", P88, "fgm", fc),
             ("t(P44)", TransposedCopula(P44), "P88", P88)]
    # the classical product with Pi is Pi by the zero-Pi path
    return [(f"{aname} *{fname} {bname}", A, F, B)
            for fname, F in families for aname, A, bname, B in pairs
            if F is not None or PI not in (A, B)]


def test_float_coefficients_round_the_exact_ones_once():
    cases = _cases() + _seeded_products()
    assert len(cases) == 8 + 23
    for label, A, F, B in cases:
        r = _product(A, F, B)
        assert r.fast_path == "poly-closed-form", label
        P = r.copula
        du, dv = P.degree
        for got, want, shape in zip((P._c, P._c1, P._c2), _float_copies(P),
                                    ((du + 1, dv + 1), (du, dv + 1), (du + 1, dv))):
            assert got.dtype == want.dtype == np.float64 and got.shape == shape, label
            assert got.tobytes() == want.tobytes(), label


def test_poly_copula_from_coefficients():
    P = PolyCopula(fgm_coeffs(Fraction(1, 2)))
    assert P.degree == (2, 2) and P.source is None
    assert np.abs(P.eval(*LATTICE) - fgm(0.5).eval(*LATTICE)).max() <= 1e-16
    assert expr_of(P) == Opaque("poly[2,2]")
    # zero trailing rows and columns are dropped
    assert PolyCopula([[0, 0, 0], [0, 1, 0], [0, 0, 0]]).degree == (1, 1)
    boundary = "coefficients violate C(u, 0) = C(0, v) = 0, C(u, 1) = u, C(1, v) = v"
    matrix = "coefficients must form a nonempty matrix"
    for bad, message in (
            ([[0, 0], [0, 2]], boundary), ([[1]], boundary), ([[0, 1], [0, 0]], boundary),
            ([[0, 0], [1, 0]], boundary), ([[0, 0], [0, Fraction(1, 3)]], boundary),
            ([[0, 0], [0, 0]], "a copula polynomial cannot be zero"),
            ([], matrix), ([[]], matrix), ([[], []], matrix), ([[0, 0], [0]], matrix),
            ([[0], [0, 1]], matrix), (np.zeros((0, 3)), matrix)):
        with pytest.raises(ConstructionError) as refused:
            PolyCopula(bad)
        assert str(refused.value) == message, bad
    # the rest of the message is Python's own
    for bad in ([0.5, 0.5], [[0, 0], [0, float("nan")]], [[0, 0], [0, float("inf")]],
                [[0, 0], [0, "x"]]):
        with pytest.raises(ConstructionError, match="^coefficients must be finite numbers: "):
            PolyCopula(bad)
    with pytest.raises(ValueError):
        P.coeffs[1, 1] = 0


def test_exact_gap():
    gap = exact_gap(fgm(0.5), fgm(-0.25), *LATTICE)
    x, y = LATTICE
    assert np.abs(gap - 0.75 * x * (1 - x) * y * (1 - y)).max() <= 1e-17
    assert exact_gap(fgm(0.5), TransposedCopula(fgm(0.5)), 0.3, 0.6) == 0.0
    assert exact_gap(fgm(0.5), ShuffleOfM((0.0, 1.0), (1,)), 0.3, 0.6) is None
