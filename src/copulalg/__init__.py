"""Numerical algebra of bivariate copulas.

Core objects (M, W, Pi, FGM, shuffles of M, grid copulas), measurable
one-parameter families, classical and family-generalized star products
computed in closed form where the algebra gives one (exactly, for
polynomial copulas) and by breakpoint-aware adaptive quadrature
otherwise, verification experiments for the algebraic laws, and an
expression-based CLI.
"""

from . import copulas, families, products
from .copulas import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .products import *  # noqa: F401,F403
from .poly import PolyCopula
from .verify import (
    SUITES,
    VerificationReport,
    check_identity,
    check_zero_candidate,
    check_zero_necessary,
    convergence_study,
    fgm_counterexample,
    reports_to_json,
    reports_to_text,
    run_suite,
)

__version__ = "0.1.0"

# every public name of the core modules; only poly and verify are curated
__all__ = [
    *copulas.__all__,
    *families.__all__,
    *products.__all__,
    "PolyCopula",
    "VerificationReport",
    "check_identity",
    "check_zero_necessary",
    "check_zero_candidate",
    "fgm_counterexample",
    "convergence_study",
    "run_suite",
    "SUITES",
    "reports_to_text",
    "reports_to_json",
    "__version__",
]
