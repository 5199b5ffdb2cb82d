"""Span tracer that wraps copulalg's entry points from outside the package.

``Tracer.install()`` replaces functions and methods of the copulalg
modules with wrappers that record a span (name, start, end, parent) and
bump work counters; ``uninstall()`` puts the originals back. Nothing in
``src/`` is edited. A module-level function is replaced under every name
that refers to it in any copulalg module, so ``from .x import f`` copies
are traced too.

A private name (``_integrate_batch``, ``_product_points_eval``) is
wrapped only when it exists. A layer whose target is missing is listed
in ``unmeasured`` and its metrics are reported as ``None`` rather than
failing the run, so the benchmark survives refactors of the package.

Self time of a span is its duration minus the time covered by its
direct child spans, accumulated per span name while the span closes.
"""

from __future__ import annotations

import inspect
import os
import resource
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

KERNEL_CLASSES = ("FGMCopula", "ShuffleOfM", "GridCopula")
FAMILY_CLASSES = ("ConstantFamily", "PiecewiseConstantFamily", "FGMCurveFamily")
CHECKS = ("check_identity", "check_zero_necessary", "check_zero_candidate",
          "fgm_counterexample", "convergence_study")
LATTICE_SWEEPS = ("validate", "sup_distance_witness", "grid_from_copula")

# counters that are pure functions of the inputs; times and page faults
# are left out because they vary between runs
WORK_SUFFIXES = (".calls", ".elements", ".nodes", ".groups", ".points",
                 ".bytes", ".fbatch_calls", ".nonconvergence")


def _size(a) -> int:
    try:
        return int(np.size(a))
    except (TypeError, ValueError):
        return 0


class Tracer:
    """Collects spans and counters while installed and enabled."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.unmeasured: set[str] = set()
        self._restore: list[tuple] = []
        self._kernel_groups: list[tuple] = []
        self._nonconvergence = None
        self._construct_depth = 0

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.span_end[idx] = t1
            self._stack.pop()
            d = t1 - t0
            self.self_s[name] += d - frame[1]
            self.total_s[name] += d
            if self._stack:
                self._stack[-1][1] += d

    def reset(self):
        """Drop spans and counters collected so far (wrappers stay)."""
        for a in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del a[:]
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def write_spans(self, path):
        """Write every span as parallel arrays to an .npz file."""
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, fn, wrapper):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "copulalg":
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def _wrap_function(self, module, fname, layer, make_wrapper):
        fn = getattr(module, fname, None)
        if not callable(fn):
            self.unmeasured.add(layer)
            return
        self._replace_function(fn, make_wrapper(fn))

    def install(self):
        """Wrap every traced entry point of the copulalg modules."""
        from copulalg import cli, copulas, dsl, families, products, verify

        self._install_kernels(copulas)
        self._install_families(families)
        self._install_products(products)
        self._install_copulas_utils(copulas)
        for fname in ("parse", "parse_family"):
            self._wrap_function(dsl, fname, "dsl.parse", self._plain("dsl.parse"))
        for fname in ("build_copula", "build_family"):
            self._wrap_function(dsl, fname, "dsl.build", self._plain("dsl.build"))
        self._wrap_function(cli, "main", "cli.main", self._plain("cli.main"))
        for fname in CHECKS:
            self._wrap_function(verify, fname, "verify.check", self._plain("verify.check"))
        self._wrap_function(verify, "run_suite", "verify.suite", self._suite)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _plain(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return self.call(name, fn, args, kwargs)
            return wrapper
        return make

    # -- copulas -----------------------------------------------------------

    def _install_kernels(self, copulas):
        base = getattr(copulas, "Copula", None)
        if base is None:
            self.unmeasured.add("copulas.kernel")
            return
        groups = []
        for cname in KERNEL_CLASSES:
            cls = getattr(copulas, cname, None)
            if isinstance(cls, type):
                groups.append((cls, cname))
            else:
                self.unmeasured.add(f"copulas.kernel.{cname}")
        self._kernel_groups = groups
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for meth in ("_cdf", "_d1", "_d2"):
                if meth in cls.__dict__:
                    self._set(cls, meth, self._kernel(cls.__dict__[meth]))
        for fname in ("fd_partial1", "fd_partial2"):
            self._wrap_function(copulas, fname, "copulas.fd_partial", self._counted(
                "copulas.fd_partial", lambda args, kwargs: _size(np.broadcast(args[1], args[2]))))

    def _kernel_group(self, obj) -> str:
        for cls, name in self._kernel_groups:
            if isinstance(obj, cls):
                return name
        return "other"

    def _kernel(self, fn):
        def wrapper(obj, u, v):
            name = "copulas.kernel." + self._kernel_group(obj)
            self.counts[name + ".calls"] += 1
            try:
                self.counts[name + ".elements"] += np.broadcast(u, v).size
            except ValueError:
                pass
            return self.call(name, fn, (obj, u, v), {})
        return wrapper

    def _counted(self, name, elements):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                try:
                    self.counts[name + ".elements"] += elements(args, kwargs)
                except (IndexError, ValueError):
                    pass
                return self.call(name, fn, args, kwargs)
            return wrapper
        return make

    def _install_copulas_utils(self, copulas):
        for fname in LATTICE_SWEEPS:
            layer = "copulas." + fname
            fn = getattr(copulas, fname, None)
            if not callable(fn):
                self.unmeasured.add(layer)
                continue
            self._replace_function(fn, self._lattice_sweep(layer, fn))
        for fname in ("read_grid_csv", "write_grid_csv"):
            fn = getattr(copulas, fname, None)
            if not callable(fn):
                self.unmeasured.add("copulas.io")
                continue
            self._replace_function(fn, self._io(fn, reading=fname.startswith("read")))

    def _lattice_sweep(self, layer, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n = int(bound.arguments["n"])
                self.counts[layer + ".points"] += (n + 1) ** 2
            except (TypeError, KeyError, ValueError):
                self.unmeasured.add(layer + ".points")
            return self.call(layer, fn, args, kwargs)
        return wrapper

    def _io(self, fn, reading):
        sig = inspect.signature(fn)

        def size_of(args, kwargs):
            try:
                return os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])
            except (TypeError, KeyError, OSError):
                return 0

        def wrapper(*args, **kwargs):
            self.counts["copulas.io.calls"] += 1
            if reading:
                self.counts["copulas.io.bytes"] += size_of(args, kwargs)
            try:
                return self.call("copulas.io", fn, args, kwargs)
            finally:
                if not reading:
                    self.counts["copulas.io.bytes"] += size_of(args, kwargs)
        return wrapper

    # -- families ----------------------------------------------------------

    def _install_families(self, families):
        for cname in FAMILY_CLASSES:
            cls = getattr(families, cname, None)
            if not isinstance(cls, type) or "eval_grid" not in cls.__dict__:
                self.unmeasured.add(f"families.eval_grid.{cname}")
                continue
            name = f"families.eval_grid.{cname}"
            fn = cls.__dict__["eval_grid"]

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                self.counts[_name + ".calls"] += 1
                out = self.call(_name, _fn, args, kwargs)
                self.counts[_name + ".elements"] += _size(out)
                return out
            self._set(cls, "eval_grid", wrapper)
        self._wrap_function(families, "family_integral", "families.family_integral",
                            self._plain("families.family_integral"))

    # -- products ----------------------------------------------------------

    def _install_products(self, products):
        self._wrap_function(products, "_integrate_batch", "products.quad", self._quad)
        self._wrap_function(products, "_product_points_eval", "products.point_eval",
                            self._point_eval)
        for fname in ("star", "star_c"):
            self._wrap_function(products, fname, "products.construct", self._construct)
        self._nonconvergence = getattr(products, "NonConvergenceError", None)

    def _quad(self, fn):
        def counting(fbatch):
            def inner(ts, *a, **kw):
                self.counts["products.quad.fbatch_calls"] += 1
                self.counts["products.quad.nodes"] += _size(ts)
                out = fbatch(ts, *a, **kw)
                self.counts["products.quad.elements"] += _size(out)
                return out
            return inner

        def wrapper(*args, **kwargs):
            self.counts["products.quad.calls"] += 1
            if args and callable(args[0]):
                args = (counting(args[0]),) + tuple(args[1:])
            elif callable(kwargs.get("fbatch")):
                kwargs["fbatch"] = counting(kwargs["fbatch"])
            else:
                self.unmeasured.add("products.quad.nodes")
            try:
                return self.call("products.quad", fn, args, kwargs)
            except Exception as exc:
                if self._nonconvergence and isinstance(exc, self._nonconvergence):
                    self.counts["products.quad.nonconvergence"] += 1
                raise
        return wrapper

    def _point_eval(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["products.point_eval.calls"] += 1
            before = self.counts["products.quad.calls"]
            out = self.call("products.point_eval", fn, args, kwargs)
            self.counts["products.point_eval.groups"] += (
                self.counts["products.quad.calls"] - before)
            vals = out[0] if isinstance(out, tuple) else out
            self.counts["products.point_eval.points"] += _size(vals)
            return out
        return wrapper

    def _construct(self, fn):
        def wrapper(*args, **kwargs):
            # a construction inside another (star_c reducing to star) is
            # timed but counted once, as its outermost call and tag
            if self._construct_depth:
                return self.call("products.construct", fn, args, kwargs)
            self._construct_depth += 1
            try:
                res = self.call("products.construct", fn, args, kwargs)
            finally:
                self._construct_depth -= 1
            self.counts["products.construct.calls"] += 1
            tag = getattr(res, "fast_path", None)
            if isinstance(tag, str):
                self.counts["products.fast_path." + tag] += 1
            return res
        return wrapper

    # -- verify ------------------------------------------------------------

    def _suite(self, fn):
        def wrapper(*args, **kwargs):
            suite = args[0] if args else kwargs.get("name", "unknown")
            name = f"verify.suite.{suite}"
            self.counts[name + ".calls"] += 1
            return self.call(name, fn, args, kwargs)
        return wrapper


def rusage_snapshot():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {"minor_faults": r.ru_minflt, "user_s": r.ru_utime, "sys_s": r.ru_stime}


def rusage_delta(before, after):
    return {k: after[k] - before[k] for k in before}


def layer_metrics(tracer: Tracer, names) -> dict:
    """Values of the per-layer metrics ``names`` from one traced pass.

    ``<layer>.self_s`` and ``<layer>.total_s`` are span times, the two
    ratios are derived, and every other name is a counter. Metrics of an
    unmeasured layer are None.
    """
    c = tracer.counts
    out = {}
    for name in names:
        layer, _, key = name.rpartition(".")
        if key == "self_s":
            out[name] = tracer.self_s[layer]
        elif key == "total_s":
            out[name] = tracer.total_s[layer]
        else:
            out[name] = c[name]
    points = c["products.point_eval.points"]
    out["products.nodes_per_point"] = c["products.quad.elements"] / points if points else 0.0
    constructs = c["products.construct.calls"]
    fast = sum(v for k, v in c.items()
               if k.startswith("products.fast_path.") and k != "products.fast_path.none")
    out["products.fast_path_ratio"] = fast / constructs if constructs else 0.0
    for key in out:
        if any(key == u or key.startswith(u + ".") for u in tracer.unmeasured):
            out[key] = None
    if "products.quad" in tracer.unmeasured or "products.point_eval" in tracer.unmeasured:
        out["products.nodes_per_point"] = None
    return out


def work_counters(metrics: dict) -> dict:
    """The subset of per-layer metrics that must repeat exactly."""
    return {k: v for k, v in metrics.items()
            if k.endswith(WORK_SUFFIXES) or k.startswith("products.fast_path.")}
