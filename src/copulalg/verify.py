"""Verification experiments for the star-product algebra.

Each check returns a ``VerificationReport`` with a pass flag, the
maximum observed deviation, a witness point where that deviation was
attained, and the parameters used. Reports serialize to stable text
lines and JSON so repeated runs are byte-identical.

The experiments:

* ``check_identity``: M acts as a two-sided identity for the
  generalized product over a family, measured by raw quadrature.
* ``check_zero_necessary``: a family admitting a zero element must
  average to Pi, i.e. integral over t of C_t(x, y) dt = x y. This is
  necessary only; it does not certify that a zero exists.
* ``check_zero_candidate``: a sweep of straight shuffles eliminates
  any absorbing-element candidate other than Pi.
* ``fgm_counterexample``: an explicit FGM family that satisfies the
  necessary averaging condition while Pi still fails to be absorbing,
  so the condition is not sufficient.
* ``convergence_study``: products against piecewise-constant
  approximations of a parameter curve converge to the product against
  the curve itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .copulas import (
    ConstructionError,
    DomainError,
    FGMCopula,
    M,
    PI,
    ShuffleOfM,
    StraightShuffle,
    W,
    _lattice_witness,
    sup_distance_witness,
)
from .families import (
    ConstantFamily,
    CopulaFamily,
    FGMCurveFamily,
    PiecewiseConstantFamily,
    family_integral,
    midpoint_fgm_approximation,
)
from .poly import exact_gap
from .products import QuadratureConfig, star_c

__all__ = [
    "VerificationReport",
    "check_identity",
    "check_zero_necessary",
    "check_zero_candidate",
    "fgm_counterexample",
    "convergence_study",
    "copula_label",
    "family_label",
    "corpus_copulas",
    "corpus_families",
    "SUITES",
    "run_suite",
    "report_lines",
    "reports_to_text",
    "reports_to_json",
]

DEFAULT_LATTICE = 32
DEFAULT_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_COUNTEREXAMPLE_POINTS = ((0.25, 0.5), (0.5, 0.5), (0.75, 0.25))
DEFAULT_CONVERGENCE_PIECES = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class VerificationReport:
    """One experiment outcome; ``witness`` locates the worst deviation."""

    name: str
    passed: bool
    deviation: float
    witness: tuple | None
    params: dict


def _num(x) -> str:
    if isinstance(x, float):
        return f"{x:g}"
    return str(x)


# The labels import the expression module when first called, so that
# `import copulalg` does not pay the ~10 ms its AST dataclasses take.

def copula_label(C) -> str:
    """Short stable text for a copula, in the expression syntax."""
    from .dsl import expr_of, to_text
    return to_text(expr_of(C), _num)


def family_label(F) -> str:
    """Short stable text for a family, in the expression syntax."""
    from .dsl import expr_of, to_text
    return to_text(expr_of(F), _num)


def corpus_copulas():
    """Default copulas exercised by identity/elimination experiments."""
    return (
        PI,
        W,
        FGMCopula(1.0),
        StraightShuffle(0.3),
        ShuffleOfM((0.0, 0.2, 0.7, 1.0), (3, 1, 2), (False, True, False)),
    )


def corpus_families():
    """Default families for the identity experiment."""
    return (
        ConstantFamily(PI),
        ConstantFamily(FGMCopula(1.0)),
        PiecewiseConstantFamily((0.5,), (FGMCopula(1.0), FGMCopula(-1.0))),
        FGMCurveFamily((-1.0, 2.0)),
    )


def check_identity(family: CopulaFamily, corpus=None, tol: float = 1e-5,
                   candidate=None, lattice: int = DEFAULT_LATTICE,
                   q: QuadratureConfig | None = None) -> VerificationReport:
    """Is ``candidate`` (default M) a two-sided unit over ``family``?

    Both product orders are computed by raw quadrature (fast paths off,
    so the law is actually exercised) against every corpus copula.
    """
    e = candidate if candidate is not None else M
    corpus = tuple(corpus) if corpus is not None else corpus_copulas()
    if not corpus:
        raise ConstructionError("need at least one corpus copula")
    worst = -1.0
    witness = None
    worst_case = ""
    for A in corpus:
        left = star_c(e, family, A, q, fast_paths=False)
        right = star_c(A, family, e, q, fast_paths=False)
        for side, prod in (("left", left), ("right", right)):
            dev, pt = sup_distance_witness(prod.copula, A, lattice)
            if dev > worst:
                worst = dev
                witness = pt
                worst_case = f"{side}:{copula_label(A)}"
    return VerificationReport(
        name=f"identity[{family_label(family)}]",
        passed=worst <= tol,
        deviation=worst,
        witness=witness,
        params={
            "candidate": copula_label(e),
            "corpus": ", ".join(copula_label(A) for A in corpus),
            "lattice": lattice,
            "tol": tol,
            "worst_case": worst_case,
        },
    )


def check_zero_necessary(family: CopulaFamily, tol: float = 1e-12,
                         lattice: int = DEFAULT_LATTICE) -> VerificationReport:
    """Does the family average to Pi: integral of C_t(x, y) dt = x y?

    A failing family cannot give its product a zero element. Passing
    proves nothing further (the condition is necessary only).
    """
    g = np.arange(lattice + 1) / lattice
    vals = family_integral(family, g[:, None], g[None, :])
    worst, witness = _lattice_witness(np.abs(vals - g[:, None] * g[None, :]), g)
    return VerificationReport(
        name=f"zero-necessary[{family_label(family)}]",
        passed=worst <= tol,
        deviation=worst,
        witness=witness,
        params={"lattice": lattice, "note": "necessary-only", "tol": tol},
    )


def check_zero_candidate(family: CopulaFamily, candidate,
                         alphas=DEFAULT_ALPHAS, tol: float = 1e-5,
                         lattice: int = DEFAULT_LATTICE) -> VerificationReport:
    """Can ``candidate`` absorb a sweep of straight shuffles?

    Passes iff straight(alpha) *_C candidate stays within tol of the
    candidate for every alpha. Only Pi survives the sweep; any other
    candidate is eliminated by some shuffle. A straight shuffle is
    left-invertible, so every product is a closed form and no
    quadrature runs.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ConstructionError("need at least one shuffle parameter alpha")
    worst = -1.0
    witness = None
    for a in alphas:
        prod = star_c(StraightShuffle(a), family, candidate)
        dev, pt = sup_distance_witness(prod.copula, candidate, lattice)
        if dev > worst:
            worst = dev
            witness = (float(a), pt[0], pt[1])
    return VerificationReport(
        name=f"zero-candidate[{copula_label(candidate)}]",
        passed=worst <= tol,
        deviation=worst,
        witness=witness,
        params={
            "alphas": ",".join(_num(float(a)) for a in alphas),
            "family": family_label(family),
            "lattice": lattice,
            "tol": tol,
        },
    )


def fgm_counterexample(theta: float = 1.0, points=None,
                       tol: float = 1e-5) -> VerificationReport:
    """Average-to-Pi holds, yet Pi fails to be absorbing.

    Uses the family that is fgm(theta) on [0, 1/2) and fgm(-theta) on
    [1/2, 1]: its t-average is exactly Pi, but fgm(theta) *_C Pi moves
    away from Pi by theta^2 x(1-x)(1/2-x) y(1-y). Passes iff that
    deviation is actually reproduced (> 10 tol) while the averaging
    condition holds. The product is polynomial, and the deviation is
    its coefficients minus Pi's, exactly, evaluated at each point.
    """
    theta = float(theta)
    if theta == 0.0:
        raise ConstructionError("theta=0 degenerates to Pi; no counterexample")
    if not -1.0 <= theta <= 1.0:
        raise ConstructionError(f"theta must lie in [-1, 1], got {theta}")
    pts = tuple(points) if points is not None else DEFAULT_COUNTEREXAMPLE_POINTS
    if not pts:
        raise ConstructionError("need at least one evaluation point")
    for x, y in pts:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise DomainError(f"point ({x}, {y}) outside the unit square")
    family = PiecewiseConstantFamily((0.5,), (FGMCopula(theta), FGMCopula(-theta)))
    necessary = check_zero_necessary(family, tol=1e-9)
    prod = star_c(FGMCopula(theta), family, PI)
    worst = -1.0
    witness = None
    params = {"theta": theta, "tol": tol, "necessary_dev": necessary.deviation}
    for x, y in pts:
        d = float(exact_gap(prod.copula, PI, x, y))
        params[f"dev({_num(float(x))},{_num(float(y))})"] = d
        if d > worst:
            worst = d
            witness = (float(x), float(y))
    return VerificationReport(
        name=f"fgm-counterexample[theta={_num(theta)}]",
        passed=bool(necessary.passed and worst > 10.0 * tol),
        deviation=worst,
        witness=witness,
        params=params,
    )


def convergence_study(curve: FGMCurveFamily, A, B,
                      pieces=DEFAULT_CONVERGENCE_PIECES,
                      tol_final: float = 1e-3, slack: float = 0.1,
                      lattice: int = DEFAULT_LATTICE,
                      q: QuadratureConfig | None = None) -> VerificationReport:
    """Products against midpoint discretizations approach the curve product.

    For each piece count, measures sup distance between
    A *_{approx} B and A *_{curve} B on the lattice, from the exact
    difference of their coefficients when both are polynomial. Passes
    iff the errors are non-increasing (up to 10 percent slack) and the
    last one is at most tol_final.
    """
    if len(pieces) < 2:
        raise ConstructionError("need at least two approximation levels")
    target = star_c(A, curve, B, q).copula
    errs = []
    last_witness = None
    for n in pieces:
        approx = midpoint_fgm_approximation(curve, int(n))
        prod = star_c(A, approx, B, q).copula
        dev, last_witness = sup_distance_witness(prod, target, lattice)
        errs.append(dev)
    monotone = all(
        errs[k + 1] <= errs[k] * (1.0 + slack) for k in range(len(errs) - 1)
    )
    passed = monotone and errs[-1] <= tol_final
    params = {
        "A": copula_label(A),
        "B": copula_label(B),
        "curve": family_label(curve),
        "lattice": lattice,
        "slack": slack,
        "tol_final": tol_final,
    }
    for n, e in zip(pieces, errs):
        params[f"err_{int(n)}"] = e
    return VerificationReport(
        name=f"convergence[{family_label(curve)}; {copula_label(A)}, {copula_label(B)}]",
        passed=passed,
        deviation=errs[-1],
        witness=last_witness,
        params=params,
    )


# ---------------------------------------------------------------------------
# suites: each runner takes (q, lattice, thetas, families) and uses what
# its checks need


def _suite_identity(q, lattice, thetas, families):
    fams = tuple(families) if families is not None else corpus_families()
    return [check_identity(F, lattice=lattice, q=q) for F in fams]


def _suite_zero_necessary(q, lattice, thetas, families):
    reports = []
    if families is not None:
        return [check_zero_necessary(F, lattice=lattice) for F in families]
    for th in (0.1, 0.5, 1.0):
        fam = PiecewiseConstantFamily((0.5,), (FGMCopula(th), FGMCopula(-th)))
        reports.append(check_zero_necessary(fam, lattice=lattice))
    # a family that fails the averaging condition, reported as the
    # expectation that the check detects the failure
    bad = ConstantFamily(FGMCopula(1.0))
    r = check_zero_necessary(bad, lattice=lattice)
    detected = (
        not r.passed
        and abs(r.deviation - 0.0625) <= 1e-9
        and r.witness == (0.5, 0.5)
    )
    reports.append(
        VerificationReport(
            name=f"zero-necessary-violation[{family_label(bad)}]",
            passed=detected,
            deviation=r.deviation,
            witness=r.witness,
            params=dict(r.params, expected_dev=0.0625),
        )
    )
    return reports


def _suite_zero_candidate(q, lattice, thetas, families):
    fam = families[0] if families else PiecewiseConstantFamily(
        (0.5,), (FGMCopula(1.0), FGMCopula(-1.0))
    )
    reports = [check_zero_candidate(fam, PI, lattice=lattice)]
    for U in (M, W, FGMCopula(1.0)):
        r = check_zero_candidate(fam, U, lattice=lattice)
        reports.append(
            VerificationReport(
                name=f"zero-eliminates[{copula_label(U)}]",
                passed=bool(not r.passed and r.deviation >= 1e-2),
                deviation=r.deviation,
                witness=r.witness,
                params=dict(r.params, eliminate_threshold=1e-2),
            )
        )
    return reports


def _suite_fgm(q, lattice, thetas, families):
    ths = tuple(thetas) if thetas is not None else (0.1, 0.5, 1.0)
    return [fgm_counterexample(th) for th in ths]


def _suite_convergence(q, lattice, thetas, families):
    curve = FGMCurveFamily((-1.0, 2.0))
    return [
        convergence_study(curve, FGMCopula(0.5), FGMCopula(0.5),
                          lattice=lattice, q=q)
    ]


_RUNNERS = {
    "identity": _suite_identity,
    "zero-necessary": _suite_zero_necessary,
    "zero-candidate": _suite_zero_candidate,
    "fgm": _suite_fgm,
    "convergence": _suite_convergence,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, q: QuadratureConfig | None = None,
              lattice: int = DEFAULT_LATTICE, thetas=None, families=None):
    """Run one named suite (or 'all'); returns the report list."""
    if name == "all":
        out = []
        for s in SUITES:
            out.extend(run_suite(s, q, lattice, thetas=thetas, families=families))
        return out
    if name not in _RUNNERS:
        raise ConstructionError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")
    return _RUNNERS[name](q, lattice, thetas, families)


# ---------------------------------------------------------------------------
# serialization

def _fmt_param(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_lines(reports):
    """Stable one-line-per-report text rendering."""
    lines = []
    for r in reports:
        wit = "-" if r.witness is None else \
            "(" + ", ".join(repr(float(w)) for w in r.witness) + ")"
        params = "; ".join(
            f"{k}={_fmt_param(r.params[k])}" for k in sorted(r.params)
        )
        lines.append(
            f"{r.name} | {'pass' if r.passed else 'FAIL'} | "
            f"deviation={r.deviation:.12e} | witness={wit} | {params}"
        )
    return lines


def reports_to_text(reports) -> str:
    return "\n".join(report_lines(reports)) + "\n"


def reports_to_json(reports) -> str:
    payload = {
        "reports": [
            {
                "name": r.name,
                "passed": r.passed,
                "deviation": r.deviation,
                "witness": list(r.witness) if r.witness is not None else None,
                "params": {k: r.params[k] for k in sorted(r.params)},
            }
            for r in reports
        ]
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
