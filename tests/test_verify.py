import json
import pathlib

import numpy as np
import pytest

from copulalg import (
    ConstantFamily,
    ConstructionError,
    Copula,
    CopulaFamily,
    FGMCopula,
    FGMCurveFamily,
    GridCopula,
    M,
    PI,
    PiecewiseConstantFamily,
    QuadratureConfig,
    StraightShuffle,
    SUITES,
    W,
    check_identity,
    check_zero_candidate,
    check_zero_necessary,
    convergence_study,
    fgm_counterexample,
    reports_to_json,
    reports_to_text,
    run_suite,
    star,
    star_c,
)
from copulalg.verify import copula_label, family_label, report_lines

SMALL = dict(lattice=16)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def split_sign_family(theta):
    return PiecewiseConstantFamily(
        (0.5,), (FGMCopula(theta), FGMCopula(-theta))
    )


# ---------------------------------------------------------------------------
# labels


def test_labels(flip_shuffle):
    assert copula_label(M) == "M"
    assert copula_label(W) == "W"
    assert copula_label(PI) == "Pi"
    assert copula_label(FGMCopula(1.0)) == "fgm(1)"
    assert copula_label(FGMCopula(-0.5)) == "fgm(-0.5)"
    assert copula_label(StraightShuffle(0.3)) == "straight(0.3)"
    assert copula_label(flip_shuffle) == "shuffle(0.2,0.7; 3,1,2; 0,1,0)"
    assert family_label(ConstantFamily(PI)) == "const(Pi)"
    assert family_label(split_sign_family(1.0)) == "pw(0.5: fgm(1), fgm(-1))"
    assert family_label(FGMCurveFamily((-1.0, 2.0))) == "fgmcurve(-1,2)"
    assert family_label(PiecewiseConstantFamily((), (M,))) == "pw(: M)"
    fgm = FGMCopula(0.5)
    quad = star(fgm, FGMCopula(-0.5), fast_paths=False).copula
    assert copula_label(quad) == "star(fgm(0.5), fgm(-0.5))"
    assert copula_label(star(W, fgm).copula) == "t(star(fgm(0.5), W))"
    generalized = star_c(fgm, split_sign_family(1.0), PI, fast_paths=False)
    assert copula_label(generalized.copula) == \
        "starc(fgm(0.5), pw(0.5: fgm(1), fgm(-1)), Pi)"
    assert copula_label(GridCopula(np.full((4, 4), 1 / 16))) == "grid[4x4]"

    class Custom(Copula):
        pass

    class CustomFamily(CopulaFamily):
        pass

    assert copula_label(Custom()) == "Custom"
    assert family_label(CustomFamily()) == "CustomFamily"


# ---------------------------------------------------------------------------
# identity experiment


def test_identity_holds_over_families():
    corpus = (PI, FGMCopula(1.0))
    for F in (ConstantFamily(PI), split_sign_family(1.0)):
        rep = check_identity(F, corpus=corpus, **SMALL)
        assert rep.passed
        assert rep.deviation <= 1e-6
        assert rep.witness is not None
        assert rep.params["candidate"] == "M"
        side, label = rep.params["worst_case"].split(":")
        assert side in ("left", "right")


def test_identity_rejects_false_candidate():
    rep = check_identity(
        ConstantFamily(PI), corpus=(FGMCopula(1.0),),
        candidate=StraightShuffle(0.3), **SMALL,
    )
    assert not rep.passed
    assert rep.deviation > 1e-2


# ---------------------------------------------------------------------------
# zero element: necessary condition and candidate sweep


def test_zero_necessary_pass_and_fail():
    rep = check_zero_necessary(split_sign_family(1.0))
    assert rep.passed
    assert rep.deviation <= 1e-12
    assert rep.params["note"] == "necessary-only"

    rep = check_zero_necessary(ConstantFamily(PI))
    assert rep.passed

    rep = check_zero_necessary(ConstantFamily(FGMCopula(1.0)))
    assert not rep.passed
    assert rep.deviation == pytest.approx(0.0625, abs=1e-12)
    assert rep.witness == (0.5, 0.5)

    # (M + W) / 2 is not Pi, so this family fails too
    rep = check_zero_necessary(PiecewiseConstantFamily((0.5,), (M, W)))
    assert not rep.passed
    assert rep.deviation > 1e-2


def test_zero_necessary_witness_is_argmax():
    rep = check_zero_necessary(ConstantFamily(FGMCopula(-1.0)), lattice=8)
    x, y = rep.witness
    g = np.arange(9) / 8
    dev = np.abs(
        FGMCopula(-1.0).eval(g[:, None], g[None, :]) - g[:, None] * g[None, :]
    )
    assert rep.deviation == pytest.approx(float(dev.max()), abs=1e-15)
    assert dev[int(round(x * 8)), int(round(y * 8))] == pytest.approx(
        rep.deviation, abs=1e-15
    )


def test_zero_candidate_only_pi_survives():
    fam = split_sign_family(1.0)
    alphas = (0.25, 0.5, 0.75)
    rep = check_zero_candidate(fam, PI, alphas=alphas, **SMALL)
    assert rep.passed
    assert rep.deviation <= 1e-6

    for bad in (M, FGMCopula(1.0)):
        rep = check_zero_candidate(fam, bad, alphas=alphas, **SMALL)
        assert not rep.passed
        assert rep.deviation > 1e-2
        alpha, x, y = rep.witness
        assert alpha in alphas


# ---------------------------------------------------------------------------
# the counterexample


def test_fgm_counterexample_passes():
    rep = fgm_counterexample(1.0)
    assert rep.passed
    assert rep.deviation == pytest.approx(0.01171875, abs=1e-9)
    assert rep.witness == (0.25, 0.5)
    assert rep.params["necessary_dev"] <= 1e-12


def test_fgm_counterexample_small_theta():
    rep = fgm_counterexample(0.1)
    assert rep.passed
    assert rep.deviation == pytest.approx(1.171875e-4, rel=1e-6)


def test_fgm_counterexample_rejects_bad_theta():
    with pytest.raises(ConstructionError):
        fgm_counterexample(0.0)
    with pytest.raises(ConstructionError):
        fgm_counterexample(1.5)


# a check that evaluates nothing has no deviation to report


def test_identity_rejects_empty_corpus():
    with pytest.raises(ConstructionError):
        check_identity(ConstantFamily(PI), corpus=(), **SMALL)


def test_zero_candidate_rejects_empty_sweep():
    with pytest.raises(ConstructionError):
        check_zero_candidate(ConstantFamily(PI), PI, alphas=(), **SMALL)


def test_fgm_counterexample_rejects_no_points():
    with pytest.raises(ConstructionError):
        fgm_counterexample(1.0, points=())


def test_fgm_counterexample_custom_points():
    rep = fgm_counterexample(1.0, points=((0.25, 0.5), (0.1, 0.9)))
    assert rep.passed
    assert rep.witness == (0.25, 0.5)
    assert "dev(0.1,0.9)" in rep.params


# ---------------------------------------------------------------------------
# convergence of discretized families


def test_convergence_study_passes():
    curve = FGMCurveFamily((-1.0, 2.0))
    rep = convergence_study(
        curve, FGMCopula(0.5), FGMCopula(0.5), pieces=(4, 8, 16), **SMALL
    )
    assert rep.passed
    errs = [rep.params[f"err_{n}"] for n in (4, 8, 16)]
    assert errs[0] >= errs[1] >= errs[2]
    assert rep.deviation == errs[-1]
    assert rep.deviation <= 1e-3


def test_convergence_study_needs_two_levels():
    with pytest.raises(ConstructionError):
        convergence_study(
            FGMCurveFamily((0.0, 1.0)), PI, PI, pieces=(4,), **SMALL
        )


# ---------------------------------------------------------------------------
# suites


def test_run_suite_identity_with_custom_family():
    reports = run_suite("identity", lattice=8,
                        families=(ConstantFamily(PI),))
    assert len(reports) == 1
    assert reports[0].passed


def test_run_suite_zero_necessary_default():
    reports = run_suite("zero-necessary", lattice=16)
    assert len(reports) == 4
    assert all(r.passed for r in reports)
    assert reports[-1].name.startswith("zero-necessary-violation[")
    assert reports[-1].params["expected_dev"] == 0.0625


def test_run_suite_zero_candidate_polarity():
    reports = run_suite("zero-candidate", lattice=8)
    assert len(reports) == 4
    assert reports[0].name.startswith("zero-candidate[Pi]")
    assert all(r.passed for r in reports)
    eliminated = [r for r in reports if r.name.startswith("zero-eliminates[")]
    assert len(eliminated) == 3
    for r in eliminated:
        assert r.deviation >= 1e-2


def test_run_suite_fgm_thetas():
    reports = run_suite("fgm", thetas=(0.5,))
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].name == "fgm-counterexample[theta=0.5]"


def test_run_suite_unknown_name():
    with pytest.raises(ConstructionError):
        run_suite("nope")


def test_suite_names_frozen():
    assert SUITES == (
        "identity", "zero-necessary", "zero-candidate", "fgm", "convergence"
    )


def test_only_the_identity_suite_integrates(quad_counter):
    # zero-candidate's straight shuffles are left-invertible and fgm's
    # split-sign product is polynomial, so their checks take no
    # quadrature settings; identity forces quadrature on purpose
    for name in ("zero-necessary", "zero-candidate", "fgm", "convergence"):
        run_suite(name, lattice=8)
        assert quad_counter["calls"] == 0, name
    run_suite("identity", lattice=8)
    assert quad_counter["calls"] > 0


# ---------------------------------------------------------------------------
# serialization


def test_report_lines_format():
    reports = run_suite("zero-necessary", lattice=8)
    lines = report_lines(reports)
    assert len(lines) == len(reports)
    for line, rep in zip(lines, reports):
        head, flag, dev, wit, params = line.split(" | ", maxsplit=4)
        assert head == rep.name
        assert flag == ("pass" if rep.passed else "FAIL")
        assert dev == f"deviation={rep.deviation:.12e}"
        assert wit.startswith("witness=(") or wit == "witness=-"
        keys = [chunk.split("=", 1)[0] for chunk in params.split("; ")]
        assert keys == sorted(rep.params)


def test_verify_all_reports_match_golden():
    # the files `copulalg verify all` writes, bit for bit; their values
    # rest on the 16-point rule that test_gauss_legendre_16_bits_pinned pins
    reports = run_suite("all")
    assert reports_to_text(reports).encode("ascii") == \
        (GOLDEN / "verify_all.txt").read_bytes()
    assert reports_to_json(reports).encode("ascii") == \
        (GOLDEN / "verify_all.json").read_bytes()


def test_serialization_deterministic():
    a = run_suite("zero-necessary", lattice=8)
    b = run_suite("zero-necessary", lattice=8)
    assert reports_to_text(a) == reports_to_text(b)
    assert reports_to_json(a) == reports_to_json(b)


def test_json_shape():
    reports = run_suite("fgm", thetas=(1.0,))
    payload = json.loads(reports_to_json(reports))
    assert set(payload) == {"reports"}
    rec = payload["reports"][0]
    assert set(rec) == {"name", "passed", "deviation", "witness", "params"}
    assert rec["passed"] is True
    assert rec["witness"] == [0.25, 0.5]
