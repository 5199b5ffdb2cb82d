import math

import numpy as np
import pytest

import oracles
from copulalg import products
from copulalg import (
    ComputedCopula,
    ConstantFamily,
    ConstructionError,
    FGMCopula,
    FGMCurveFamily,
    M,
    NonConvergenceError,
    PI,
    PiecewiseConstantFamily,
    QuadratureConfig,
    ShuffleOfM,
    ShuffleStarProduct,
    StraightShuffle,
    W,
    grid_from_copula,
    integrate,
    midpoint_fgm_approximation,
    shuffle_from_grid,
    star,
    star_c,
    sup_distance,
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
    with pytest.raises(ConstructionError):
        QuadratureConfig(adaptive_tol=0.0)
    with pytest.raises(ConstructionError):
        QuadratureConfig(max_depth=-1)


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


def test_integrate_extra_breakpoints_config():
    q = QuadratureConfig(extra_breakpoints=(1 / 3,))
    val, _ = integrate(lambda t: abs(t - 1 / 3), q=q)
    assert abs(val - 5 / 18) <= 1e-12


def test_integrate_smooth_oscillation():
    val, err = integrate(lambda t: math.sin(7 * t))
    assert abs(val - (1 - math.cos(7)) / 7) <= 1e-13


def test_nonconvergence_raises():
    q = QuadratureConfig(base_subintervals=1, nodes_per_subinterval=2,
                         adaptive_tol=1e-12, max_depth=2)
    with pytest.raises(NonConvergenceError) as exc:
        integrate(lambda t: abs(t - 1 / 3), q=q)
    assert exc.value.err > exc.value.tol


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
    assert star(FGMCopula(1.0), FGMCopula(1.0)).fast_path == "none"


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


# ---------------------------------------------------------------------------
# classical star product: quadrature against independent oracles


def test_fgm_star_law():
    # the family is closed: fgm(a) * fgm(b) = fgm(a b / 3)
    cases = [(1.0, 1.0), (0.5, -0.8), (-1.0, 1.0)]
    for a, b in cases:
        r = star(FGMCopula(a), FGMCopula(b))
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
        fb = products._make_integrand(fgm, None, fgm, np.full(vs.size, 0.3), vs)
        vals, _ = products._integrate_batch(fb, (), q, vs.size)
        return vals[i]

    alone = value_in_batch([0.7], 0)
    wide = np.linspace(0.0, 1.0, 33)
    wide[20] = 0.7
    for vs, i in (([0.7, 0.2], 0), ([0.1, 0.5, 0.7], 2), (wide, 20)):
        assert value_in_batch(vs, i) == alone

    # the same property through the public API
    prod = star(fgm, fgm).copula
    vs = np.linspace(0.0, 1.0, 17)
    vs[11] = 0.7
    assert prod.eval(np.full(17, 0.3), vs)[11] == prod.eval(0.3, 0.7)

    # chunks of three segments instead of one chunk per level
    monkeypatch.setattr(products, "_CHUNK_ELEMENTS", 1)
    assert value_in_batch([0.7], 0) == alone


def test_error_estimate_and_config_passthrough():
    q = QuadratureConfig(adaptive_tol=1e-10)
    r = star(FGMCopula(1.0), FGMCopula(-1.0), q, fast_paths=False)
    assert r.config is q
    assert 0.0 <= r.error_estimate <= 1e-9
    closed = star(W, FGMCopula(1.0), q)
    assert closed.error_estimate == 0.0
    assert closed.config is q


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
