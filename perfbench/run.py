"""copulalg benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; copulalg is imported from
``src/``. Workloads are defined in ``workloads.py``; the metric names and
units come from ``BENCHMARK.json``.

In-process workloads first run one warm-up pass. Timed passes follow
until ``--seconds`` have elapsed (at least ``MIN_PASSES``), each on
inputs of its own drawn from the seed, and every result is checked
against an exact reference. ``setup_s`` is the median over
``SETUP_REPEATS`` fresh interpreters that import copulalg and generate
the inputs, run between the passes so that they sample the whole run.

Timings are speed-scaled medians over passes; query percentiles are
over all the queries of the run. A pass is a sequence of steps (one
query, one product, one fresh ``verify`` process), and each step's time
is multiplied by ``probe.REFERENCE_S / probe``, with the speed probe
taken around the step: the mean of the probes right before and right
after a product, a closed-form step or a block of queries, and for a
``verify`` process the same mean over the steps between its checks and
products, weighted by their times. On a shared virtual machine the
vCPU speed swings by a quarter and more within seconds, and the scaled
times stay put where raw ones wander. Raw medians are printed
alongside.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, all on
the first input set, prints the per-layer metrics of the traced passes,
the tracing overhead, and whether the work counters repeated exactly
between traced passes, and writes the spans of the last traced pass to
``.perfbench/``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give every metric by name with its
unit, the error rate, the largest deviation from the references and the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
MIN_PASSES = {"verify-all": 2}
DEFAULT_MIN_PASSES = 3
MIN_TRACED_PASSES = 2


@dataclass
class Context:
    """What a workload pass needs besides its inputs."""

    root: str
    bench_dir: str
    workdir: str
    child_env: dict
    spans_path: str
    traced: bool = False
    tracer: object = None
    first_verify: object = None
    input_set: int | None = None

    def inputs_for(self, inputs, k):
        """The input set of pass k: the k-th, or the replayed one when fixed."""
        return inputs(k if self.input_set is None else self.input_set)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(workload, seed):
    """Seconds of import + input generation in a fresh interpreter.

    Not speed-scaled: import time follows file and memory-mapping costs
    more than the vCPU speed the probe sees.
    """
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "setup", workload, str(seed)],
        cwd=ROOT, env=_child_env(), check=True, stdout=subprocess.PIPE,
    ).stdout
    return float(out.decode().strip().splitlines()[-1])


def run_passes(run_pass, inputs, ctx, checker, seconds, min_passes, first_index=0,
               between=None):
    """Passes until ``seconds`` have elapsed; ``between()`` runs after each,
    outside the timed region."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(inputs, first_index + len(passes), checker, ctx))
        if between is not None:
            between()
    return passes


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(p, key):
    """A pass's step times scaled to the reference speed."""
    return [t * probe.REFERENCE_S / s for t, s in zip(p[key], p["step_probe_s"])]


def scaled_wall(passes):
    return statistics.median(sum(scaled(p, "step_wall_s")) for p in passes)


def end_to_end(passes, setup_s, fresh_process):
    """End-to-end metric values (by BENCHMARK.json name) from timed passes."""
    wall = scaled_wall(passes)
    ops = passes[0]["ops"]
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "cpu_s": statistics.median(sum(scaled(p, "step_cpu_s")) for p in passes),
    }
    if passes[0]["queries"]:
        # over every query of the run, so that p99 rests on the ten
        # slowest queries of each pass, not of one
        latencies = [t for p in passes for t in scaled(p, "step_wall_s")]
        for q in (50, 99):
            out[f"query_p{q}_ms"] = _percentile(latencies, q) * 1e3
    else:
        # no query stream: both read as the mean latency of one operation
        out["query_p50_ms"] = out["query_p99_ms"] = wall * 1e3 / ops
    who = resource.RUSAGE_CHILDREN if fresh_process else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return out


def traced_run(workload, run_pass, inputs, ctx, checker, seconds, min_passes):
    """Untraced passes, then traced ones; per-layer metrics and overhead."""
    import tracer

    # every pass replays one input set, so the counters of traced passes
    # must repeat exactly and the overhead compares like with like
    ctx.input_set = 0
    plain = run_passes(run_pass, inputs, ctx, checker, seconds / 2, max(1, min_passes - 1))
    fresh = workload == "verify-all"
    traced, layers, spans = [], [], 0
    ctx.traced = True
    tr = None
    if not fresh:
        tr = ctx.tracer = tracer.Tracer()
        tr.install()
    try:
        start = time.perf_counter()
        k = len(plain)
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds / 2:
            if fresh:
                p = run_pass(inputs, k, checker, ctx)
                proc = p["process"]
                trace = p.get("trace") or {"metrics": {}, "spans": 0, "unmeasured": []}
                metrics, spans = dict(trace["metrics"]), trace["spans"]
                unmeasured = trace["unmeasured"]
            else:
                tr.reset()
                before = tracer.rusage_snapshot()
                p = tr.call("bench.pass", run_pass, (inputs, k, checker, ctx), {})
                proc = tracer.rusage_delta(before, tracer.rusage_snapshot())
                metrics, spans = tracer.layer_metrics(tr, layer_names()), len(tr.span_start)
                unmeasured = sorted(tr.unmeasured)
            metrics.update({f"process.{key}": val for key, val in proc.items()})
            traced.append(p)
            layers.append(metrics)
            k += 1
        if tr is not None:
            tr.write_spans(ctx.spans_path)
    finally:
        if tr is not None:
            tr.uninstall()
        ctx.traced, ctx.tracer = False, None

    # counters from the first traced pass, times and faults as medians
    counters = [tracer.work_counters(m) for m in layers]
    out = dict(layers[0])
    for key in out:
        if key not in counters[0] and all(m.get(key) is not None for m in layers):
            out[key] = statistics.median(m[key] for m in layers)
    untraced_wall = scaled_wall(plain)
    traced_wall = scaled_wall(traced)
    out.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
        "trace.spans": spans,
        "trace.counters_repeat": int(all(c == counters[0] for c in counters)),
    })
    return out, plain + traced, unmeasured


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def layer_names():
    """Per-layer metrics the tracer reports; process and trace are run-level."""
    return [m["name"] for m in load_spec()["per_layer"]
            if not m["name"].startswith(("process.", "trace."))]


def environment(seed, fresh_process):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "copulalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "fresh_process": fresh_process,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "copulalg", "__init__.py")):
        print(f"error: no copulalg sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()

    sys.path.insert(0, SRC)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"pick from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    fresh = args.workload == "verify-all"
    min_passes = MIN_PASSES.get(args.workload, DEFAULT_MIN_PASSES)

    import copulalg  # noqa: F401

    inputs = make_inputs(args.seed)
    state = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(root=ROOT, bench_dir=HERE, workdir=workdir, child_env=_child_env(),
                  spans_path=os.path.join(state, f"spans-{args.workload}.npz"))
    checker = workloads.Checker()
    unmeasured = []
    try:
        if not fresh:
            run_pass(inputs, 0, checker, ctx)  # warm-up, checked but not timed
        if args.trace:
            values, passes, unmeasured = traced_run(
                args.workload, run_pass, inputs, ctx, checker, args.seconds, min_passes)
            wanted = spec["per_layer"]
        else:
            setups = []

            def measure_setup():
                if len(setups) < SETUP_REPEATS:
                    setups.append(setup_time(args.workload, args.seed))

            passes = run_passes(run_pass, inputs, ctx, checker, args.seconds, min_passes,
                                first_index=0 if fresh else 1, between=measure_setup)
            while len(setups) < SETUP_REPEATS:
                measure_setup()
            values = end_to_end(passes, statistics.median(setups), fresh)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [sum(p["step_wall_s"]) for p in passes],
        "probe_s": statistics.median(s for p in passes for s in p["step_probe_s"]),
        "median_pass_wall_s": statistics.median(sum(p["step_wall_s"]) for p in passes),
        "median_pass_cpu_s": statistics.median(sum(p["step_cpu_s"]) for p in passes),
        "ops_per_pass": passes[0]["ops"],
        "error_rate": error_rate,
        "max_abs_err": checker.max_abs_err,
        "failures": checker.notes,
        "environment": environment(args.seed, fresh),
    }
    if args.workload == "point-queries":
        details["query_samples_per_pass"] = passes[0]["ops"]
        details["query_samples"] = sum(p["ops"] for p in passes)
        details["quadrature_share"] = workloads.QUAD_SHARE
        details["repeat_share"] = statistics.mean(p["repeat_share"] for p in passes)
    else:
        details["query_latency"] = "mean per operation (no query stream)"
    if args.trace:
        details["unmeasured"] = unmeasured
        details["other_per_layer"] = {k: v for k, v in values.items() if k not in metrics}

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    print(f"{'error_rate':48s} {error_rate!r:>24} ratio")
    print(f"{'max_abs_err':48s} {checker.max_abs_err!r:>24} 1")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
