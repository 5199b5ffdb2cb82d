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
    ComputedCopula,
    ConstantFamily,
    FGMCopula,
    FGMCurveFamily,
    M,
    PI,
    PiecewiseConstantFamily,
    QuadratureConfig,
    ShuffleOfM,
    ShuffleStarProduct,
    StraightShuffle,
    TransposedCopula,
    W,
    WRightProduct,
    star,
)


@pytest.fixture
def quad_counter(monkeypatch):
    """Counts the quadrature runs of the test: ``calls`` to
    ``products._integrate_batch``, the ``pieces`` of its levels, the
    ``rule_nodes`` its rule places on their segments, the ``nodes`` its
    integrands are evaluated at (fewer when segments outside a grouped
    side's support are skipped) and the ``elements`` (nodes x batch
    width) they return."""
    counts = {"calls": 0, "pieces": 0, "rule_nodes": 0, "nodes": 0, "elements": 0}
    integrate_batch = products._integrate_batch
    segment_values = products._segment_values

    def counting_batch(fbatch, *args, **kwargs):
        counts["calls"] += 1

        def inner(ts, *a, **kw):
            out = fbatch(ts, *a, **kw)
            counts["nodes"] += ts.size
            counts["elements"] += out.size
            return out

        return integrate_batch(inner, *args, **kwargs)

    def counting_segments(fbatch, segs, nodes, *args, **kwargs):
        # segs holds each piece's segments as (pieces, segments, 2)
        counts["pieces"] += len(segs)
        counts["rule_nodes"] += segs[..., 0].size * len(nodes)
        return segment_values(fbatch, segs, nodes, *args, **kwargs)

    monkeypatch.setattr(products, "_integrate_batch", counting_batch)
    monkeypatch.setattr(products, "_segment_values", counting_segments)
    return counts


@pytest.fixture
def peak_alloc(monkeypatch):
    """Peak memory of each quadrature integrand call of the test, in
    full-size arrays: the most memory the call holds at once, returned
    values included, divided by (nodes x batch width x 8) bytes. Wraps
    the integrands that ``products._make_integrand`` builds, passes
    their support step through, and traces each call with
    ``tracemalloc``."""
    ratios = []
    make_integrand = products._make_integrand

    def tracing_make(A, family, B, xs, ys):
        fbatch, support = make_integrand(A, family, B, xs, ys)
        # xs and ys broadcast to (groups, width)
        width = np.broadcast_shapes(np.shape(xs), np.shape(ys))[-1]

        def inner(ts, *a, **kw):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fbatch(ts, *a, **kw)
            peak = tracemalloc.get_traced_memory()[1] - before
            ratios.append(peak / (ts.size * width * 8))
            return out

        return inner, support

    monkeypatch.setattr(products, "_make_integrand", tracing_make)
    tracemalloc.start()
    try:
        yield ratios
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def exported_class_samples():
    """One instance of every concrete exported Copula and CopulaFamily
    class but GridCopula, keyed by its class."""
    fgm = FGMCopula(0.5)
    shuffle = ShuffleOfM((0.0, 0.5, 1.0), (2, 1))
    split_sign = PiecewiseConstantFamily((0.5,), (FGMCopula(1.0), FGMCopula(-1.0)))
    return {type(x): x for x in (
        M, W, PI, fgm, shuffle, StraightShuffle(0.3), TransposedCopula(fgm),
        ComputedCopula(fgm, None, fgm, QuadratureConfig()),
        ShuffleStarProduct(shuffle, fgm), WRightProduct(fgm), star(fgm, fgm).copula,
        ConstantFamily(PI), split_sign, FGMCurveFamily((0.5,)),
    )}


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
