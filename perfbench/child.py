"""Fresh-interpreter helpers started by run.py.

    python3 perfbench/child.py setup WORKLOAD SEED
        Print the seconds taken to import copulalg and generate the
        workload's inputs in this fresh interpreter.

    python3 perfbench/child.py verify OUT_DIR STEPS_JSON [RESULT_JSON SPANS_NPZ]
        Run ``copulalg verify all --out OUT_DIR`` and exit with the
        command's exit code; the report goes to stdout exactly as the
        plain command prints it. The speed probe runs before each verify
        check and product, outside the timed steps, and STEPS_JSON gets
        the steps' seconds and probes. With RESULT_JSON the command runs under the
        tracer, which writes the per-layer metrics to RESULT_JSON and the
        spans to SPANS_NPZ.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def setup(workload, seed):
    import copulalg  # noqa: F401
    import workloads

    make_inputs, _ = workloads.WORKLOADS[workload]
    make_inputs(int(seed))(0)
    print(repr(time.perf_counter() - T0))
    return 0


class StepProbe:
    """Runs the speed probe before each verify check and product.

    Steps run between probes, the first from interpreter start and the
    last to a closing probe after the command returns. A step ran at the
    mean of the probes right before and right after it (the first, at
    the first probe's). The probes' own time is in no step.
    """

    def __init__(self, tr=None):
        self.tr = tr
        self.steps: list[list[float]] = []   # [seconds, probe seconds]
        self.probe_s = self.probe_cpu_s = 0.0
        self._mark = T0
        self._speed = None

    def point(self):
        import probe

        c0 = time.process_time()
        t0 = time.perf_counter()
        if self.tr is None:
            speed = probe.speed()
        else:  # a span of its own, so that no traced layer's self time holds it
            speed = self.tr.call("bench.probe", probe.speed, (), {})
        t1 = time.perf_counter()
        self.probe_s += t1 - t0
        self.probe_cpu_s += time.process_time() - c0
        self.steps.append([t0 - self._mark, ((self._speed or speed) + speed) / 2])
        self._mark, self._speed = t1, speed

    def install(self, module, names):
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(module, name, self._wrap(fn))

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            self.point()
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path):
        import json

        self.point()
        with open(path, "w") as fh:
            json.dump({"steps": self.steps, "probe_s": self.probe_s,
                       "probe_cpu_s": self.probe_cpu_s}, fh)


def verify(out_dir, steps_json, result_json=None, spans_path=None):
    import json

    import tracer
    from copulalg import cli
    from copulalg import verify as verify_module

    argv = ["verify", "all", "--out", out_dir]
    tr = None
    if result_json is not None:
        tr = tracer.Tracer()
        tr.install()
    steps = StepProbe(tr)
    steps.install(verify_module, tracer.CHECKS + ("star_c",))
    rc = cli.main(argv) if tr is None else tr.call("bench.pass", cli.main, (argv,), {})
    steps.write(steps_json)
    if tr is not None:
        from run import layer_names

        tr.uninstall()
        with open(result_json, "w") as fh:
            json.dump({"metrics": tracer.layer_metrics(tr, layer_names()),
                       "spans": len(tr.span_start),
                       "unmeasured": sorted(tr.unmeasured)}, fh)
        tr.write_spans(spans_path)
    return rc


if __name__ == "__main__":
    commands = {"setup": setup, "verify": verify}
    sys.exit(commands[sys.argv[1]](*sys.argv[2:]))
