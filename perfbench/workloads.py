"""The benchmark's four workloads: inputs from a seed, one pass, checks.

All workloads are closed-loop with a single client. A pass is the
workload's fixed unit of work; a workload's pass function times the
calls into copulalg and then, outside the timed region, checks every
result against an exact reference from ``refs``.

* ``verify-all``: ``copulalg verify all`` with default flags in a fresh
  interpreter per pass, started through ``child.py``, which calls
  ``cli.main`` as ``python -m copulalg.cli`` does and runs the speed
  probe before each verify check and product. 16 reports per pass. Forced
  quadrature dominates (``ShuffleOfM._d2`` piece loop, all three family
  kinds, ``sup_distance_witness``), and it is the only workload paying
  the first-pass allocation and page-fault cost of every CLI run.
  ``verify --no-fast-path`` is parsed but never reaches ``run_suite``, so
  nothing here relies on it; ``verify`` with a missing ``--out``
  directory computes everything and then exits 2, so the pass creates
  the directory first.
* ``lattice-products``: seeded quadrature products evaluated on a 33x33
  lattice (wide batches of up to 1089 columns), plus ``validate`` at 64
  and ``grid_from_copula`` at 32. Grid factors force one integration
  group per distinct x with finite-difference partials, so the workload
  separates kernel throughput from grouping overhead.
* ``point-queries``: a seeded stream of in-process ``cli.main(["eval",
  ...])`` calls, each a parse, build, construct and one point. Batch
  width 1, so per-call overhead, the eager construction probe and the
  DSL dominate. QUAD_SHARE of the queries run quadrature, so the median
  query is a quadrature one.
* ``closed-forms``: almost no quadrature. ``copulalg grid`` at N=512 and
  ``read_grid_csv``, a 1024-piece ``shuffle_from_grid`` shuffle, and the
  shuffle, W and identity closed-form products on 65x65 lattices with
  ``validate`` and ``sup_distance_witness``. A quadrature-only change
  should leave it unchanged.

Nested products (``star(star(.,.),.)``) are left out on purpose: one
construction costs about 1.8 s and would be the whole tail of any mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import numpy as np

import probe
import refs

TOL_QUAD = 1e-7      # quadrature products (adaptive tolerance is 1e-8)
TOL_EXACT = 1e-10    # closed-form paths, up to rounding
TOL_PRINT = 1e-10    # eval output is printed with 12 significant digits

G33 = np.arange(33) / 32
G65 = np.arange(65) / 64

QUERIES_PER_PASS = 1000
# quadrature queries (about 3.5 ms each on a 2-vCPU Xeon VM) outnumber the
# closed-form ones (about 0.8 ms), so the median query runs quadrature and
# query_p50_ms moves with products.quad as well as with construct, dsl and
# cli; the closed-form share keeps those paths in wall_s
QUAD_SHARE = 0.6
PROBE_EVERY = 10      # queries between speed probes
VERIFY_REPORTS = 16   # identity 4, zero-necessary 4, zero-candidate 4, fgm 3, convergence 1


class Checker:
    """Counts attempted and failed operations and the largest deviation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_abs_err = 0.0
        self.notes: list[str] = []

    def _note(self, msg):
        if len(self.notes) < 20:
            self.notes.append(msg)

    def record(self, dev):
        """Fold one deviation from an exact reference into max_abs_err."""
        if np.isfinite(dev):
            self.max_abs_err = max(self.max_abs_err, float(dev))
        return dev

    def values(self, label, ops, got, ref, tol):
        """Compare arrays against a reference on ``ops`` operations.

        Each compared value stands for ops / size of them; a value
        outside tol (or NaN) fails its share.
        """
        dev = np.abs(np.asarray(got, float) - np.asarray(ref, float))
        finite = dev[np.isfinite(dev)]
        if finite.size:
            self.record(finite.max())
        bad = int(np.count_nonzero(~(dev <= tol)))
        per = max(1, ops // max(dev.size, 1))
        self.attempted += ops
        self.failed += min(bad * per, ops)
        if bad:
            self._note(f"{label}: {bad} values outside {tol:g} "
                       f"(max dev {float(np.nanmax(dev)):.3e})")

    def flag(self, label, ops, ok):
        """Attempt ``ops`` operations that all fail unless ``ok``."""
        self.attempted += ops
        self.require(label, ok, ops)

    def require(self, label, ok, ops):
        """A further condition on ``ops`` operations already attempted."""
        if not ok:
            self.failed = min(self.failed + ops, self.attempted)
            self._note(f"{label}: check failed")

    def error(self, label, ops, exc):
        self.attempted += ops
        self.failed += ops
        self._note(f"{label}: {type(exc).__name__}: {exc}")


def _pass_rng(seed, k):
    """Generator of pass k's inputs: the same seed gives the same inputs."""
    return random.Random(f"copulalg-bench/{seed}/{k}")


def _theta(rng, lo=-1.0, hi=1.0):
    return round(rng.uniform(lo, hi), 3)


def _small_shuffle(rng):
    """A 3-piece shuffle of M with seeded cuts, permutation and flips."""
    while True:
        c = sorted(round(rng.uniform(0.05, 0.95), 3) for _ in range(2))
        if c[1] - c[0] >= 0.05:
            break
    sigma = [1, 2, 3]
    rng.shuffle(sigma)
    flips = [rng.randint(0, 1) for _ in range(3)]
    return (0.0, c[0], c[1], 1.0), tuple(sigma), tuple(flips)


def _shuffle_text(shuffle):
    cuts, sigma, flips = shuffle
    return "shuffle({}; {}; {})".format(
        ",".join(repr(c) for c in cuts[1:-1]),
        ",".join(str(s) for s in sigma),
        ",".join(str(f) for f in flips))


# -- steps ---------------------------------------------------------------------
#
# A step is (label, ops, compute, check): compute() runs timed and returns
# its output; check(checker, output) runs after the pass is timed. A pass
# reports the wall and CPU time of each step with the mean of the speed
# probes taken right before and right after it, so that run.py can scale
# each step to the reference speed.


def _run_steps(steps, checker, tracer=None):
    outputs, walls, cpus, probes = [], [], [], [probe.speed()]
    for label, ops, compute, _ in steps:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.call("bench.step", compute, (), {})
            else:
                out = compute()
            outputs.append((True, out))
        except Exception as exc:  # a failed op is counted, the run goes on
            outputs.append((False, exc))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        probes.append(probe.speed())
    # a step ran at the mean of the speeds right before and right after it
    probes = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    for (label, ops, _, check), (ok, out) in zip(steps, outputs):
        if ok:
            check(checker, out)
        else:
            checker.error(label, ops, out)
    return {"ops": sum(s[1] for s in steps), "step_wall_s": walls, "step_cpu_s": cpus,
            "step_probe_s": probes, "queries": False}


def _close(label, ops, ref, tol):
    def check(checker, got):
        checker.values(label, ops, got, ref(), tol)
    return check


def _lattice(cop, g):
    return cop.eval(g[:, None], g[None, :])


# -- lattice-products ------------------------------------------------------


def lattice_inputs(seed):
    def make(k):
        rng = _pass_rng(seed, k)
        return {
            "a": _theta(rng), "b": _theta(rng),
            "split": _theta(rng, 0.2, 1.0) * rng.choice((-1, 1)),
            "curve": (_theta(rng), (round(rng.uniform(-0.5, 0.5), 3),
                                    round(rng.uniform(-0.5, 0.5), 3)), _theta(rng)),
            "shuffle": _small_shuffle(rng), "shuffle_b": _theta(rng),
            "grid": (_theta(rng), _theta(rng)),
        }
    return make


def lattice_steps(p):
    from copulalg import (PI, FGMCopula, FGMCurveFamily, PiecewiseConstantFamily,
                          ShuffleOfM, grid_from_copula, star, star_c, validate)

    U, V = G33[:, None], G33[None, :]
    n = G33.size ** 2
    a, b = p["a"], p["b"]
    th = p["split"]
    ca, coeffs, cb = p["curve"]
    cuts, sigma, flips = p["shuffle"]
    sb = p["shuffle_b"]
    ga, gb = p["grid"]

    def split_family():
        return PiecewiseConstantFamily((0.5,), (FGMCopula(th), FGMCopula(-th)))

    def shuffle():
        return ShuffleOfM(cuts, sigma, [bool(f) for f in flips])

    def fgm_b(x, y):
        return refs.fgm(sb, x, y)

    return [
        ("fgm*fgm", n,
         lambda: _lattice(star(FGMCopula(a), FGMCopula(b)).copula, G33),
         _close("fgm*fgm", n, lambda: refs.fgm_star_fgm(a, b, U, V), TOL_QUAD)),
        ("split-sign", n,
         lambda: _lattice(star_c(FGMCopula(th), split_family(), PI).copula, G33),
         _close("split-sign", n, lambda: refs.split_sign(th, U, V), TOL_QUAD)),
        ("fgmcurve", n,
         lambda: _lattice(star_c(FGMCopula(ca), FGMCurveFamily(coeffs),
                                 FGMCopula(cb)).copula, G33),
         _close("fgmcurve", n, lambda: refs.fgm_curve_product(ca, coeffs, cb, U, V),
                TOL_QUAD)),
        ("shuffle*fgm forced", n,
         lambda: _lattice(star(shuffle(), FGMCopula(sb), fast_paths=False).copula, G33),
         _close("shuffle*fgm forced", n,
                lambda: refs.shuffle_star(cuts, sigma, flips, fgm_b, U, V), TOL_QUAD)),
        ("shuffle*fgm fast", n,
         lambda: _lattice(star(shuffle(), FGMCopula(sb)).copula, G33),
         _close("shuffle*fgm fast", n,
                lambda: refs.shuffle_star(cuts, sigma, flips, fgm_b, U, V), TOL_EXACT)),
        ("grid*grid", n,
         lambda: _lattice(star(grid_from_copula(FGMCopula(ga), 16),
                               grid_from_copula(FGMCopula(gb), 16)).copula, G33),
         _close("grid*grid", n,
                lambda: refs.grid_star_grid(refs.fgm_cell_masses(ga, 16),
                                            refs.fgm_cell_masses(gb, 16), U, V),
                TOL_QUAD)),
        ("validate(fgm*fgm, 64)", 65 ** 2,
         lambda: validate(star(FGMCopula(a), FGMCopula(b)).copula, 64),
         lambda checker, rep: checker.flag("validate(fgm*fgm, 64)", 65 ** 2, rep.passed)),
        ("grid_from_copula(split-sign, 32)", 33 ** 2,
         lambda: grid_from_copula(star_c(FGMCopula(th), split_family(), PI).copula,
                                  32).mass,
         _close("grid_from_copula(split-sign, 32)", 33 ** 2,
                lambda: refs.cell_masses(lambda x, y: refs.split_sign(th, x, y), 32),
                TOL_QUAD)),
    ]


def lattice_pass(inputs, k, checker, ctx):
    return _run_steps(lattice_steps(ctx.inputs_for(inputs, k)), checker, ctx.tracer)


# -- closed-forms -----------------------------------------------------------

GRID_ORDER = 512
BIG_SHUFFLE_GRID = 32   # 32 x 32 positive cells unroll to 1024 pieces


def closed_inputs(seed):
    def make(k):
        rng = _pass_rng(seed, k)
        return {
            "export": (_small_shuffle(rng), _theta(rng)),
            "big": _theta(rng, -0.9, 0.9),
            "shuffle": _small_shuffle(rng), "shuffle_b": _theta(rng),
            "w": _theta(rng), "m": _theta(rng),
        }
    return make


def closed_steps(p, workdir):
    from copulalg import (M, W, FGMCopula, ShuffleOfM, cli, grid_from_copula,
                          read_grid_csv, shuffle_from_grid, star,
                          sup_distance_witness, validate)

    U, V = G65[:, None], G65[None, :]
    n65 = G65.size ** 2
    (ecuts, esigma, eflips), eb = p["export"]
    expr = f"star({_shuffle_text((ecuts, esigma, eflips))}, fgm({eb!r}))"
    csv = os.path.join(workdir, "grid.csv")
    big_theta = p["big"]
    cuts, sigma, flips = p["shuffle"]
    sb, wa, ma = p["shuffle_b"], p["w"], p["m"]

    def export():
        rc = cli.main(["grid", expr, str(GRID_ORDER), csv])
        if rc != 0:
            raise RuntimeError(f"copulalg grid exited {rc}")
        return read_grid_csv(csv).mass

    def export_ref():
        return refs.cell_masses(
            lambda x, y: refs.shuffle_star(ecuts, esigma, eflips,
                                           lambda s, t: refs.fgm(eb, s, t), x, y),
            GRID_ORDER)

    def big_shuffle():
        grid = grid_from_copula(FGMCopula(big_theta), BIG_SHUFFLE_GRID)
        S = shuffle_from_grid(grid)
        return (S.n_pieces, _lattice(S, G65), validate(S, 64),
                sup_distance_witness(S, grid, 64)[0])

    def big_check(checker, out):
        pieces, vals, report, dev = out
        # on the grid nodes the unrolled shuffle carries the grid's exact mass
        nodes = G65[::2]
        checker.values("big shuffle at grid nodes", n65, vals[::2, ::2],
                       refs.fgm(big_theta, nodes[:, None], nodes[None, :]), TOL_EXACT)
        checker.require("shuffle_from_grid pieces", pieces == BIG_SHUFFLE_GRID ** 2, n65)
        inside = ((vals >= refs.w_bound(U, V) - TOL_EXACT)
                  & (vals <= refs.m_bound(U, V) + TOL_EXACT))
        checker.require("big shuffle within Frechet bounds", bool(inside.all()), n65)
        checker.flag("validate(big shuffle, 64)", n65, report.passed)
        checker.flag("sup_distance_witness(big shuffle, grid)", n65,
                     dev <= 4.0 / BIG_SHUFFLE_GRID)

    def shuffle():
        return ShuffleOfM(cuts, sigma, [bool(f) for f in flips])

    def fgm_of(theta):
        return lambda x, y: refs.fgm(theta, x, y)

    def products():
        sp = star(shuffle(), FGMCopula(sb)).copula
        wl = star(W, FGMCopula(wa)).copula
        wr = star(FGMCopula(wa), W).copula
        ident = star(M, FGMCopula(ma)).copula
        sm = star(shuffle(), M).copula
        ww = star(W, star(W, FGMCopula(wa)).copula).copula
        return ([_lattice(c, G65) for c in (sp, wl, wr, ident, sm)],
                [validate(c, 64).passed for c in (sp, wl, sm)],
                sup_distance_witness(ww, FGMCopula(wa), 64)[0])

    def products_check(checker, out):
        lattices, valid, ww_dev = out
        ref = (refs.shuffle_star(cuts, sigma, flips, fgm_of(sb), U, V),
               refs.w_left(fgm_of(wa), U, V),
               refs.w_right(fgm_of(wa), U, V),
               refs.fgm(ma, U, V),
               refs.shuffle_star(cuts, sigma, flips, refs.m_bound, U, V))
        for label, got, want in zip(("shuffle*fgm", "W*fgm", "fgm*W", "M*fgm",
                                     "shuffle*M"), lattices, ref):
            checker.values(label, n65, got, want, TOL_EXACT)
        for label, ok in zip(("shuffle*fgm", "W*fgm", "shuffle*M"), valid):
            checker.flag(f"validate({label}, 64)", n65, ok)
        checker.values("W*(W*fgm) vs fgm", n65, ww_dev, 0.0, TOL_EXACT)

    return [
        ("grid export + read", GRID_ORDER ** 2, export,
         _close("grid export + read", GRID_ORDER ** 2, export_ref, TOL_EXACT)),
        ("big shuffle", 3 * n65, big_shuffle, big_check),
        ("closed-form products", 9 * n65, products, products_check),
    ]


def closed_pass(inputs, k, checker, ctx):
    return _run_steps(closed_steps(ctx.inputs_for(inputs, k), ctx.workdir), checker,
                      ctx.tracer)


# -- point-queries ----------------------------------------------------------


def query_inputs(seed):
    """Per pass, a stream of QUERIES_PER_PASS eval queries.

    Each query is (template, expression text, u, v, params). The order of
    templates is fixed by the seed, with exactly QUAD_SHARE of them going
    through quadrature; each pass draws its parameters from small pools
    of its own, so expression texts repeat within a pass.
    """
    n_quad = int(QUERIES_PER_PASS * QUAD_SHARE)
    closed = ("W", "M", "zero-Pi", "identity", "W-left", "shuffle", "invertible")
    kinds = ["fgm*fgm"] * (n_quad // 2) + ["split-sign"] * (n_quad - n_quad // 2)
    kinds += [closed[i % len(closed)] for i in range(QUERIES_PER_PASS - n_quad)]
    random.Random(seed).shuffle(kinds)

    def make(k):
        rng = _pass_rng(seed, k)
        thetas = [_theta(rng) for _ in range(16)]
        alphas = [round(rng.uniform(0.05, 0.95), 3) for _ in range(4)]
        shuffles = [_small_shuffle(rng) for _ in range(4)]
        return [_query(kind, rng, thetas, alphas, shuffles) for kind in kinds]
    return make


def _query(kind, rng, thetas, alphas, shuffles):
    a, b = rng.choice(thetas), rng.choice(thetas)
    u, v = round(rng.random(), 4), round(rng.random(), 4)
    if kind in ("W", "M"):
        text, params = kind, ()
    elif kind == "zero-Pi":
        text, params = f"star(Pi, fgm({a!r}))", ()
    elif kind == "identity":
        text, params = f"star(M, fgm({a!r}))", (a,)
    elif kind == "W-left":
        text, params = f"star(W, fgm({a!r}))", (a,)
    elif kind == "shuffle":
        sh = rng.choice(shuffles)
        text, params = f"star({_shuffle_text(sh)}, fgm({a!r}))", (sh, a)
    elif kind == "invertible":
        al = rng.choice(alphas)
        text = f"starc(straight({al!r}), const(fgm({b!r})), fgm({a!r}))"
        params = (((0.0, 1.0 - al, 1.0), (2, 1), (0, 0)), a)
    elif kind == "fgm*fgm":
        text, params = f"star(fgm({a!r}), fgm({b!r}))", (a, b)
    else:
        text, params = f"starc(fgm({a!r}), pw(0.5: fgm({a!r}), fgm({-a!r})), Pi)", (a,)
    return kind, text, u, v, params


def query_reference(kind, u, v, params):
    if kind == "W":
        return float(refs.w_bound(u, v)), TOL_PRINT
    if kind == "M":
        return float(refs.m_bound(u, v)), TOL_PRINT
    if kind == "zero-Pi":
        return u * v, TOL_PRINT
    if kind == "identity":
        return refs.fgm(params[0], u, v), TOL_PRINT
    if kind == "W-left":
        return refs.w_left(lambda x, y: refs.fgm(params[0], x, y), u, v), TOL_PRINT
    if kind in ("shuffle", "invertible"):
        (cuts, sigma, flips), a = params
        val = refs.shuffle_star(cuts, sigma, flips,
                                lambda x, y: refs.fgm(a, x, y), u, v)
        return float(val), TOL_PRINT
    if kind == "fgm*fgm":
        return refs.fgm_star_fgm(params[0], params[1], u, v), TOL_QUAD
    return refs.split_sign(params[0], u, v), TOL_QUAD


def repeat_share(stream):
    """Share of queries whose expression text already occurred in the pass."""
    seen, repeats = set(), 0
    for _, text, _, _, _ in stream:
        repeats += text in seen
        seen.add(text)
    return repeats / len(stream)


def query_pass(inputs, k, checker, ctx):
    from copulalg import cli

    stream = ctx.inputs_for(inputs, k)
    out, err = io.StringIO(), io.StringIO()
    walls, cpus, block_probes, results = [], [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for i, (kind, text, u, v, _) in enumerate(stream):
            if i % PROBE_EVERY == 0:
                block_probes.append(probe.speed())
            argv = ["eval", text, repr(u), repr(v)]
            pos = out.tell()
            c0 = cpu_clock()
            t0 = clock()
            try:
                if ctx.tracer is not None:
                    rc = ctx.tracer.call("bench.query", cli.main, (argv,), {})
                else:
                    rc = cli.main(argv)
            except Exception as exc:  # counted as a failed query
                rc = exc
            walls.append(clock() - t0)
            cpus.append(cpu_clock() - c0)
            results.append((rc, out.getvalue()[pos:]))
    block_probes.append(probe.speed())
    # a block of queries ran at the mean of the speeds right before and
    # right after it
    probes = [(block_probes[i // PROBE_EVERY] + block_probes[i // PROBE_EVERY + 1]) / 2
              for i in range(len(stream))]
    for (kind, text, u, v, params), (rc, printed) in zip(stream, results):
        label = f"eval {text} {u} {v}"
        if isinstance(rc, Exception):
            checker.error(label, 1, rc)
        elif rc != 0:
            checker.flag(f"{label} exit {rc}", 1, False)
        else:
            ref, tol = query_reference(kind, u, v, params)
            checker.values(label, 1, float(printed), ref, tol)
    return {"ops": len(stream), "step_wall_s": walls, "step_cpu_s": cpus,
            "step_probe_s": probes, "queries": True, "repeat_share": repeat_share(stream)}


# -- verify-all -------------------------------------------------------------

def verify_inputs(seed):
    """verify-all takes no generated input: its suites are fixed."""
    return lambda k: None


def _verify_references(report):
    """(label, value, exact reference, tol) for a report's closed forms."""
    name, dev, params = report["name"], report["deviation"], report["params"]
    if name.startswith(("identity[", "zero-necessary[", "zero-candidate[")):
        return [(name, dev, 0.0, params["tol"])]
    if name.startswith("zero-necessary-violation["):
        return [(name, dev, 0.0625, 1e-12)]
    if not name.startswith("fgm-counterexample["):
        return []
    theta = params["theta"]
    out = [(name + " necessary_dev", params["necessary_dev"], 0.0, 1e-9)]
    for key, val in params.items():
        if key.startswith("dev("):
            x, y = (float(s) for s in key[4:-1].split(","))
            exact = abs(theta**2 * x * (1 - x) * (0.5 - x) * y * (1 - y))
            out.append((f"{name} {key}", val, exact, TOL_QUAD))
    return out


def verify_pass(inputs, k, checker, ctx):
    outdir = os.path.join(ctx.workdir, f"verify-{k}")
    os.makedirs(outdir, exist_ok=True)
    # the child runs the speed probe before each verify check and
    # product, with nothing running beside it, and reports its steps'
    # times and probes
    steps_path = os.path.join(ctx.workdir, f"steps-{k}.json")
    cmd = [sys.executable, os.path.join(ctx.bench_dir, "child.py"), "verify", outdir,
           steps_path]
    if ctx.traced:
        result_path = os.path.join(ctx.workdir, f"trace-{k}.json")
        cmd += [result_path, ctx.spans_path]
    out_path = os.path.join(ctx.workdir, f"verify-{k}.stdout")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.child_env, stdout=out, stderr=err)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(out_path + ".err", "rb") as fh:
        stderr = fh.read()
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    try:
        with open(steps_path) as fh:
            steps = json.load(fh)
        wall -= steps["probe_s"]
        cpu -= steps["probe_cpu_s"]
        # one probe time that scales the steps' total as scaling each
        # step by its own probe would
        speed = (sum(d for d, _ in steps["steps"])
                 / sum(d / p for d, p in steps["steps"]))
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        speed = probe.speed()  # the child failed, which the checks report
    res = {"ops": VERIFY_REPORTS, "step_wall_s": [wall], "step_cpu_s": [cpu],
           "step_probe_s": [speed], "queries": False,
           "process": {"minor_faults": after.ru_minflt - before.ru_minflt,
                       "user_s": after.ru_utime - before.ru_utime,
                       "sys_s": after.ru_stime - before.ru_stime}}
    if ctx.traced and proc.returncode == 0:
        with open(result_path) as fh:
            res["trace"] = json.load(fh)
    _check_verify(checker, proc.returncode, stdout, stderr, outdir, ctx)
    return res


def _check_verify(checker, returncode, stdout, stderr, outdir, ctx):
    if returncode != 0:
        tail = stderr.decode(errors="replace").strip()[-300:]
        checker.flag(f"verify all exit {returncode}: {tail}", VERIFY_REPORTS, False)
        return
    try:
        with open(os.path.join(outdir, "verify_all.txt"), "rb") as fh:
            text = fh.read()
        with open(os.path.join(outdir, "verify_all.json"), "rb") as fh:
            reports = json.loads(fh.read())["reports"]
    except (OSError, ValueError, KeyError) as exc:
        checker.error("verify all reports", VERIFY_REPORTS, exc)
        return
    if len(reports) < VERIFY_REPORTS:
        checker.flag(f"verify all gave {len(reports)} reports", VERIFY_REPORTS - len(reports),
                     False)
    lines = text.decode("ascii", errors="replace").splitlines()
    # report bytes must repeat between passes of one run; there is no
    # committed digest, since a fixed-order reduction may legitimately
    # move the last bits
    if ctx.first_verify is None:
        ctx.first_verify = (lines, reports)
    first_lines, first_reports = ctx.first_verify
    for i, r in enumerate(reports):
        ok = bool(r["passed"])
        for _, got, exact, tol in _verify_references(r):
            ok &= checker.record(abs(got - exact)) <= tol
        same = (i < len(lines) and i < len(first_lines) and lines[i] == first_lines[i]
                and i < len(first_reports) and r == first_reports[i])
        checker.flag(f"report {r['name']}" + ("" if same else " differs between passes"),
                     1, ok and same)
    checker.require("stdout equals verify_all.txt", stdout == text, len(reports))


WORKLOADS = {
    "verify-all": (verify_inputs, verify_pass),
    "lattice-products": (lattice_inputs, lattice_pass),
    "point-queries": (query_inputs, query_pass),
    "closed-forms": (closed_inputs, closed_pass),
}
