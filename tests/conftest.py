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
    """Records the quadrature work of the test.

    Counts the ``calls`` to ``products._integrate_batch``, the
    ``pieces`` of its levels, the ``rule_nodes`` its rule places on their
    segments, the ``nodes`` its integrands are evaluated at (fewer when
    segments outside a grouped side's support are skipped) and the
    ``elements`` (nodes x batch width) they return. Lists, in order:

    * ``breakpoints``: each run's breakpoint rows, one per group;
    * ``results``: each run's integrals and error sums, as bytes;
    * ``builds``: each integrand that ``products._make_integrand``
      builds, as its cell sides {key: (hints, column, step)}: ``hints``
      gives the breakpoints of that side's factor at a coordinate
      (``A.d2_breakpoints`` for "s", ``B.d1_breakpoints`` for "r"),
      ``column`` is the side's (groups or 1, 1) coordinates and ``step``
      whether the factor declares ``conditional_degree`` 0;
    * ``levels``: each level as {build, segs, groups}: the index of the
      last build, the (pieces, segments, 2) segments and each piece's
      group;
    * ``supports``: each support call as {build, level, once, pieces,
      segments, nodes, shapes}: the index of its build and of the last
      level, its kind, its number of pieces (or of segments, as a
      reference passes them), of segments and of rule nodes, and the
      shape of each cell conditional it returns.
    """
    record = {"calls": 0, "pieces": 0, "rule_nodes": 0, "nodes": 0, "elements": 0,
              "breakpoints": [], "results": [], "builds": [], "levels": [],
              "supports": []}
    integrate_batch = products._integrate_batch
    segment_values = products._segment_values
    make_integrand = products._make_integrand

    def recording_batch(fbatch, breakpoints, *args, **kwargs):
        record["calls"] += 1
        record["breakpoints"].append(np.asarray(breakpoints))

        def inner(ts, *a, **kw):
            out = fbatch(ts, *a, **kw)
            record["nodes"] += ts.size
            record["elements"] += out.size
            return out

        total, err = integrate_batch(inner, breakpoints, *args, **kwargs)
        record["results"].append((total.tobytes(), err.tobytes()))
        return total, err

    def recording_segments(fbatch, segs, nodes, weights, chunk, width, support, groups,
                           *args, **kwargs):
        record["pieces"] += len(segs)
        record["rule_nodes"] += segs[..., 0].size * len(nodes)
        record["levels"].append({"build": len(record["builds"]) - 1, "segs": segs,
                                 "groups": groups})
        return segment_values(fbatch, segs, nodes, weights, chunk, width, support, groups,
                              *args, **kwargs)

    def recording_make(A, family, B, xs, ys):
        fbatch, support = make_integrand(A, family, B, xs, ys)
        build = len(record["builds"])
        cells = {}
        for k, hints, zs, C in (("s", A.d2_breakpoints, xs, A), ("r", B.d1_breakpoints, ys, B)):
            Z = products._side(zs)
            if Z.shape[1] == 1:
                cells[k] = (hints, Z, C.conditional_degree == 0)
        record["builds"].append(cells)

        def recording_support(segs, nodes, groups, once):
            live, given = support(segs, nodes, groups, once)
            record["supports"].append({
                "build": build, "level": len(record["levels"]) - 1, "once": once,
                "pieces": len(segs), "segments": segs[..., 0].size, "nodes": len(nodes),
                "shapes": {k: c.shape for k, c in given.items()}})
            return live, given

        return fbatch, recording_support

    monkeypatch.setattr(products, "_integrate_batch", recording_batch)
    monkeypatch.setattr(products, "_segment_values", recording_segments)
    monkeypatch.setattr(products, "_make_integrand", recording_make)
    return record


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
