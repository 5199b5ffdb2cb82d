import tracemalloc

import numpy as np
import pytest

# filled by tests/test_acceptance.py; echoed after the run so the
# per-criterion outcome lines survive output capture
acceptance_outcomes = {}


def pytest_terminal_summary(terminalreporter):
    if not acceptance_outcomes:
        return
    terminalreporter.write_line("")
    for n in sorted(acceptance_outcomes):
        flag, label = acceptance_outcomes[n]
        word = "pass" if flag else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d} [{label}]: {word}")

from copulalg import products
from copulalg import (
    ConstantFamily,
    FGMCopula,
    FGMCurveFamily,
    M,
    PI,
    PiecewiseConstantFamily,
    ShuffleOfM,
    StraightShuffle,
    W,
)


@pytest.fixture
def quad_counter(monkeypatch):
    """Counts the quadrature runs of the test: ``calls`` to
    ``products._integrate_batch``, the ``nodes`` its integrands are
    evaluated at and the ``elements`` (nodes x batch width) they
    return."""
    counts = {"calls": 0, "nodes": 0, "elements": 0}
    integrate_batch = products._integrate_batch

    def counting_batch(fbatch, *args):
        counts["calls"] += 1

        def inner(ts):
            out = fbatch(ts)
            counts["nodes"] += ts.size
            counts["elements"] += out.size
            return out

        return integrate_batch(inner, *args)

    monkeypatch.setattr(products, "_integrate_batch", counting_batch)
    return counts


@pytest.fixture
def peak_alloc(monkeypatch):
    """Peak memory of each quadrature integrand call of the test, in
    full-size arrays: the most memory the call holds at once, returned
    values included, divided by (nodes x batch width x 8) bytes. Wraps
    the integrands that ``products._make_integrand`` builds and traces
    each call with ``tracemalloc``."""
    ratios = []
    make_integrand = products._make_integrand

    def tracing_make(A, family, B, xs, ys):
        fbatch = make_integrand(A, family, B, xs, ys)

        def inner(ts):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fbatch(ts)
            peak = tracemalloc.get_traced_memory()[1] - before
            ratios.append(peak / (ts.size * xs.size * 8))
            return out

        return inner

    monkeypatch.setattr(products, "_make_integrand", tracing_make)
    tracemalloc.start()
    try:
        yield ratios
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def flip_shuffle():
    """The running three-piece example: middle strip reflected."""
    return ShuffleOfM((0.0, 0.2, 0.7, 1.0), (3, 1, 2), (False, True, False))


@pytest.fixture(scope="session")
def copula_corpus(flip_shuffle):
    return (
        ("M", M),
        ("W", W),
        ("Pi", PI),
        ("fgm(1)", FGMCopula(1.0)),
        ("fgm(-1)", FGMCopula(-1.0)),
        ("fgm(0.5)", FGMCopula(0.5)),
        ("straight(0.3)", StraightShuffle(0.3)),
        ("flip-shuffle", flip_shuffle),
    )


@pytest.fixture(scope="session")
def unit_grid_65():
    return np.arange(65) / 64


@pytest.fixture(scope="session")
def family_pool(flip_shuffle):
    return (
        ("const(Pi)", ConstantFamily(PI)),
        ("const(M)", ConstantFamily(M)),
        ("pw(M,W)", PiecewiseConstantFamily((0.5,), (M, W))),
        ("pw(fgm,Pi,shuffle)",
         PiecewiseConstantFamily((0.3, 0.7), (FGMCopula(1.0), PI, flip_shuffle))),
        ("fgmcurve(t)", FGMCurveFamily((0.0, 1.0))),
        ("fgmcurve(clipped)", FGMCurveFamily((-1.0, 4.0))),
    )


@pytest.fixture(scope="session")
def curve_family_pool():
    return (
        FGMCurveFamily((0.5,)),
        FGMCurveFamily((0.0, 1.0)),
        FGMCurveFamily((-2.0, 4.0)),
        FGMCurveFamily((0.5, -2.0, 2.0)),
    )
