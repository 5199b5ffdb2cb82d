import math

import numpy as np
import pytest

import oracles
from copulalg import (
    ConstantFamily,
    ConstructionError,
    Copula,
    DomainError,
    FGMCopula,
    FGMCurveFamily,
    M,
    PI,
    PiecewiseConstantFamily,
    W,
    ae_equal,
    grid_from_copula,
    family_integral,
    midpoint_fgm_approximation,
    star_c,
)


# ---------------------------------------------------------------------------
# construction and member lookup


def test_constant_family():
    f = ConstantFamily(M)
    assert f.member_at(0.0) is M
    assert f.member_at(1.0) is M
    assert f.cuts == (0.0, 1.0) and f.members == (M,) and f.breakpoints() == ()
    with pytest.raises(DomainError):
        f.member_at(2.0)
    with pytest.raises(ConstructionError):
        ConstantFamily("x")


def test_const_is_the_one_piece_pw(flip_shuffle):
    # const(C) and pw(: C) give the same products and integrals, bit for bit
    g = np.linspace(0.0, 1.0, 9)
    x, y = g[:, None], g[None, :]
    grid8 = grid_from_copula(FGMCopula(0.7), 8)
    for C in (M, W, PI, FGMCopula(0.5), flip_shuffle, grid8):
        const, pw = ConstantFamily(C), PiecewiseConstantFamily((), (C,))
        assert family_integral(const, x, y).tobytes() == family_integral(pw, x, y).tobytes()
        for fast in (True, False):
            a, b = (star_c(FGMCopula(0.5), F, FGMCopula(-0.3), fast_paths=fast)
                    for F in (const, pw))
            assert a.fast_path == b.fast_path, (C, fast)
            assert a.copula.eval(x, y).tobytes() == b.copula.eval(x, y).tobytes(), (C, fast)
            if a.fast_path == "poly-closed-form":
                assert np.array_equal(a.copula.coeffs, b.copula.coeffs)


def test_piecewise_right_continuity():
    f = PiecewiseConstantFamily((0.5,), (M, W))
    assert f.member_at(0.0) is M
    assert f.member_at(0.5) is W  # right-continuous at the cut
    assert f.member_at(0.49999) is M
    assert f.member_at(1.0) is W  # t=1 joins the last piece


def test_piecewise_accepts_full_cut_vector():
    a = PiecewiseConstantFamily((0.25, 0.75), (M, PI, W))
    b = PiecewiseConstantFamily((0.0, 0.25, 0.75, 1.0), (M, PI, W))
    assert a.cuts == b.cuts
    assert ae_equal(a, b)


def test_piecewise_rejects_bad_input():
    with pytest.raises(ConstructionError):
        PiecewiseConstantFamily((0.5,), (M,))  # arity
    with pytest.raises(ConstructionError):
        PiecewiseConstantFamily((0.7, 0.3), (M, W, PI))  # unsorted
    with pytest.raises(ConstructionError):
        PiecewiseConstantFamily((0.5, 0.5), (M, W, PI))  # duplicate
    with pytest.raises(ConstructionError):
        PiecewiseConstantFamily((), (M, W))


def test_piecewise_rejects_nan_cut():
    with pytest.raises(ConstructionError):
        PiecewiseConstantFamily((float("nan"),), (M, W))


def test_fgm_curve_family():
    f = FGMCurveFamily((0.0, 1.0))  # theta(t) = t before clipping
    c = f.member_at(0.5)
    assert isinstance(c, FGMCopula)
    assert c.theta == 0.5
    with pytest.raises(ConstructionError):
        FGMCurveFamily(())


def test_fgm_curve_clips_theta():
    f = FGMCurveFamily((-1.0, 4.0))  # 4t - 1 leaves the band at t = 1/2
    assert f.member_at(0.0).theta == -1.0
    assert f.member_at(0.25).theta == 0.0
    assert f.member_at(0.75).theta == 1.0
    assert f.member_at(1.0).theta == 1.0
    assert np.allclose(sorted(f.breakpoints()), [0.5])
    two = FGMCurveFamily((-2.0, 4.0))  # enters at 1/4, leaves at 3/4
    assert np.allclose(sorted(two.breakpoints()), [0.25, 0.75])


def test_curve_breakpoints_run_no_lapack(monkeypatch):
    # the cuts feed quadrature edges and exact polynomial pieces, so
    # they come from float arithmetic with exact signs, not from an
    # eigenvalue solver whose bits depend on the LAPACK build
    def refuse(*args, **kwargs):
        raise AssertionError("eigvals reached")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    curve = FGMCurveFamily((-1.5, 0.0, 4.0))  # -1.5 + 4 t^2
    cuts = curve.breakpoints()
    # it crosses -1 at sqrt(1/8) and 1 at sqrt(5/8): the nearest floats
    assert [c.hex() for c in cuts] == ["0x1.6a09e667f3bcdp-2", "0x1.94c583ada5b53p-1"]
    assert cuts == (math.sqrt(0.125), math.sqrt(0.625))
    # exact pieces and quadrature edges take them
    fgm = FGMCopula(0.5)
    assert star_c(fgm, curve, fgm).fast_path == "poly-closed-form"
    forced = star_c(M, curve, fgm, fast_paths=False).copula
    assert 0.0 < forced.eval(0.5, 0.5) < 0.5


def test_curve_breakpoints_are_sign_changes():
    assert FGMCurveFamily((0.0, 0.0, 4.0)).breakpoints() == (0.5,)
    # 4 t - 4 t^2 touches 1 at t = 1/2 without crossing: no cut
    assert FGMCurveFamily((0.0, 4.0, -4.0)).breakpoints() == ()
    # 1 + 4 (t - 1/2)^3 crosses 1 where its derivative touches 0
    assert FGMCurveFamily((0.5, 3.0, -6.0, 4.0)).breakpoints() == (0.5,)
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = tuple(rng.uniform(-6.0, 6.0, rng.integers(2, 5)))
        want = []
        for level in (-1.0, 1.0):
            shifted = np.asarray(coeffs) - np.eye(len(coeffs))[0] * level
            roots = np.polynomial.polynomial.polyroots(shifted)
            want += [r.real for r in roots if abs(r.imag) < 1e-9 and 0.0 < r.real < 1.0]
        got = FGMCurveFamily(coeffs).breakpoints()
        assert np.allclose(got, sorted(want), rtol=0.0, atol=1e-12), coeffs


# ---------------------------------------------------------------------------
# pointwise evaluation through the family


def test_family_eval_pinned():
    f = PiecewiseConstantFamily((0.5,), (M, PI))
    assert f.eval(0.25, 0.5, 0.625) == 0.5
    assert f.eval(0.75, 0.5, 0.625) == pytest.approx(0.3125)


def test_family_eval_fgm_member():
    f = ConstantFamily(FGMCopula(0.5))
    assert f.eval(0.3, 0.5, 0.5) == pytest.approx(
        oracles.fgm_cdf(0.5)(0.5, 0.5)
    )
    assert f.eval(0.9, 0.25, 0.75) == pytest.approx(
        oracles.fgm_cdf(0.5)(0.25, 0.75), abs=1e-15
    )


def test_eval_grid_matches_member_loop():
    f = PiecewiseConstantFamily((0.3, 0.6), (M, FGMCopula(0.8), W))
    ts = np.asarray([0.0, 0.3, 0.45, 0.6, 0.99, 1.0])
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (ts.size, 7))
    y = rng.uniform(0, 1, (ts.size, 7))
    out = f.eval_grid(ts, x, y)
    for i, t in enumerate(ts):
        c = f.member_at(float(t))
        assert np.allclose(out[i], c.eval(x[i], y[i]), atol=1e-15)


def test_curve_eval_grid_matches_member_loop():
    f = FGMCurveFamily((0.5, -2.0, 2.0))
    ts = np.linspace(0, 1, 9)
    x = np.tile(np.linspace(0, 1, 5), (9, 1))
    y = np.tile(np.linspace(1, 0, 5), (9, 1))
    out = f.eval_grid(ts, x, y)
    for i, t in enumerate(ts):
        c = f.member_at(float(t))
        assert np.allclose(out[i], c.eval(x[i], y[i]), atol=1e-15)


def _is_zero(out):
    # +0.0 or -0.0 in every entry, compared bit for bit
    return np.abs(out).tobytes() == np.zeros(np.shape(out)).tobytes()


def test_every_exported_class_is_grounded(exported_class_samples, flip_shuffle):
    # the quadrature skips segments where a grouped side's conditional
    # is 0, which holds the bits only if every member gives exactly +-0
    # at a zero argument: C(0, y) = C(x, 0) = 0
    g = np.arange(17) / 16
    zero = np.zeros_like(g)
    copulas = [x for x in exported_class_samples.values() if isinstance(x, Copula)]
    copulas += [grid_from_copula(FGMCopula(0.7), 8), flip_shuffle]
    copulas += [C.transpose() for C in copulas]
    for C in copulas:
        assert _is_zero(C._cdf(zero, g)), C
        assert _is_zero(C._cdf(g, zero)), C
    ts = np.linspace(0.0, 1.0, 9)
    rows = np.tile(g, (ts.size, 1))
    families = [ConstantFamily(C) for C in copulas] + [
        PiecewiseConstantFamily(np.arange(1, len(copulas)) / len(copulas), copulas),
        FGMCurveFamily((-1.0, 3.0)),
        FGMCurveFamily((0.5, -2.0, 2.0)),
    ]
    for F in families:
        for x, y in ((zero[None, :], g[None, :]), (rows, np.zeros_like(rows))):
            assert _is_zero(F.eval_grid(ts, x, y)), F
            assert _is_zero(F.eval_grid(ts, y, x)), F


# ---------------------------------------------------------------------------
# a.e. equality


def test_ae_equal_refinement():
    f = PiecewiseConstantFamily((0.5,), (M, W))
    g = PiecewiseConstantFamily((0.25, 0.5), (M, M, W))
    assert ae_equal(f, g)
    assert ae_equal(g, f)


def test_ae_equal_constant_vs_piecewise():
    f = ConstantFamily(PI)
    g = PiecewiseConstantFamily((0.5,), (PI, PI))
    assert ae_equal(f, g)
    h = PiecewiseConstantFamily((0.5,), (PI, M))
    assert not ae_equal(f, h)


def test_ae_equal_distinguishes_members():
    f = PiecewiseConstantFamily((0.5,), (M, W))
    g = PiecewiseConstantFamily((0.5,), (W, M))
    assert not ae_equal(f, g)


def test_ae_equal_curves():
    f = FGMCurveFamily((0.0, 1.0))
    g = FGMCurveFamily((0.0, 1.0))
    assert ae_equal(f, g)
    # same clipped curve, different raw coefficients
    a = FGMCurveFamily((2.0,))
    b = FGMCurveFamily((1.0,))
    assert ae_equal(a, b)
    assert not ae_equal(f, FGMCurveFamily((0.0, 0.5)))


def test_ae_equal_sees_a_varying_theta():
    # theta(t) = -2 + 4t meets each member at its piece's midpoint only:
    # at t = 0.3 the curve's member is fgm(-0.8), the piece's fgm(-0.5)
    curve = FGMCurveFamily((-2.0, 4.0))
    steps = PiecewiseConstantFamily(
        (0.25, 0.5, 0.75),
        (FGMCopula(-1.0), FGMCopula(-0.5), FGMCopula(0.5), FGMCopula(1.0)),
    )
    assert not ae_equal(curve, steps)
    assert not ae_equal(steps, curve)


def test_ae_equal_curve_vs_constant():
    assert ae_equal(FGMCurveFamily((0.5,)), ConstantFamily(FGMCopula(0.5)))
    assert not ae_equal(FGMCurveFamily((0.5,)), ConstantFamily(PI))


def test_ae_equal_is_equivalence_like():
    fams = [
        ConstantFamily(PI),
        PiecewiseConstantFamily((0.5,), (PI, PI)),
        FGMCurveFamily((0.0,)),
        PiecewiseConstantFamily((0.5,), (M, W)),
    ]
    for f in fams:
        assert ae_equal(f, f)
    # the first three are the same family a.e., the last differs
    assert ae_equal(fams[0], fams[1])
    assert ae_equal(fams[1], fams[2])
    assert ae_equal(fams[0], fams[2])
    for f in fams[:3]:
        assert not ae_equal(f, fams[3])


def test_jump_location_detected_at_1024_samples():
    # two piecewise families whose only difference is a cut shifted by 2^-10
    eps = 1.0 / 1024.0
    f = PiecewiseConstantFamily((0.5,), (M, W))
    g = PiecewiseConstantFamily((0.5 + eps,), (M, W))
    assert not ae_equal(f, g)


# ---------------------------------------------------------------------------
# family integrals


def test_family_integral_constant():
    f = ConstantFamily(FGMCopula(0.4))
    pts = np.linspace(0, 1, 17)
    assert np.allclose(
        family_integral(f, pts[:, None], pts[None, :]),
        FGMCopula(0.4).eval(pts[:, None], pts[None, :]),
        atol=1e-15,
    )


def test_family_integral_piecewise_pinned():
    f = PiecewiseConstantFamily((0.5,), (M, W))
    assert family_integral(f, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
    # mixture of M and W at equal weight is (min + max(u+v-1,0)) / 2
    assert family_integral(f, 0.3, 0.8) == pytest.approx(0.2, abs=1e-15)


def test_family_integral_piecewise_weights():
    f = PiecewiseConstantFamily((0.25,), (M, PI))
    out = family_integral(f, 0.4, 0.9)
    assert out == pytest.approx(0.25 * 0.4 + 0.75 * 0.36, abs=1e-15)


def test_family_integral_curve_average():
    # theta(t) = t averages to 1/2
    f = FGMCurveFamily((0.0, 1.0))
    ref = FGMCopula(0.5)
    pts = np.linspace(0, 1, 33)
    dev = np.abs(
        family_integral(f, pts[:, None], pts[None, :])
        - ref.eval(pts[:, None], pts[None, :])
    ).max()
    assert dev <= 1e-12


def test_family_integral_curve_clipping():
    # raw 4t - 2 clips to mean 0 by symmetry
    f = FGMCurveFamily((-2.0, 4.0))
    pts = np.linspace(0, 1, 33)
    dev = np.abs(
        family_integral(f, pts[:, None], pts[None, :])
        - PI.eval(pts[:, None], pts[None, :])
    ).max()
    assert dev <= 1e-12


def test_family_integral_curve_mean_is_exact(curve_family_pool, quad_counter):
    # the mean of theta is exact rational algebra: FGMCurveFamily((-1, 3))
    # clips at t = 2/3 and averages to 1/3, so the integral is the FGM
    # closed form at 1/3, bit for bit, and no quadrature runs
    pts = np.linspace(0, 1, 33)
    x, y = pts[:, None], pts[None, :]
    got = family_integral(FGMCurveFamily((-1.0, 3.0)), x, y)
    assert got.tobytes() == FGMCopula(1 / 3)._cdf(x, y).tobytes()
    for f in curve_family_pool:
        family_integral(f, x, y)
    assert quad_counter["calls"] == 0


def test_family_integral_margins(curve_family_pool):
    x = np.linspace(0, 1, 65)
    for f in curve_family_pool:
        assert np.abs(family_integral(f, x, 1.0) - x).max() <= 1e-12
        assert np.abs(family_integral(f, 1.0, x) - x).max() <= 1e-12


# ---------------------------------------------------------------------------
# midpoint approximants of a curve family


def test_midpoint_approximation_structure():
    f = FGMCurveFamily((0.0, 1.0))
    g = midpoint_fgm_approximation(f, 4)
    assert isinstance(g, PiecewiseConstantFamily)
    assert len(g.members) == 4
    assert g.member_at(0.1).theta == pytest.approx(0.125)
    assert g.member_at(0.9).theta == pytest.approx(0.875)


def test_midpoint_approximation_converges_in_theta():
    f = FGMCurveFamily((0.0, 1.0))
    prev = None
    for n in (4, 8, 16):
        g = midpoint_fgm_approximation(f, n)
        ts = np.linspace(0, 1, 257, endpoint=False) + 1 / 514
        worst = max(
            abs(g.member_at(float(t)).theta - f.member_at(float(t)).theta)
            for t in ts
        )
        if prev is not None:
            assert worst <= prev / 2 + 1e-12
        prev = worst
