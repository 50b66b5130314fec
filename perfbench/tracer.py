"""Run `bck` with its layer boundaries traced from outside the program.

    python3 perfbench/tracer.py SRC TRACE_JSON analyze --config C --out R [--csv D]

SRC is the directory that holds the `bck` package.  The harness warms
BLAS, wraps the public functions of bck.kernels, bck.chern, bck.forms,
bck.positivity and bck.cli (and numpy's eigh/eigvalsh) at every name
their callers resolve them by, runs `bck.cli.main` with the remaining
arguments and exits with its code.  TRACE_JSON receives, per traced
label, the call count, inclusive and self time and the metric
evaluations made inside it, plus parent -> child call edges.  A target
that no longer exists is listed as absent instead of failing the run.

`layer_metrics` turns such a dump into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import platform
import sys
import time

import numpy as np

# (label, defining module, qualified name).  Functions are wrapped in every
# bck module that imported them, so the label counts calls however they
# resolve; methods are wrapped on their class.
TARGETS = [
    ("kernels.eval_kernel", "bck.kernels", "eval_kernel"),
    ("kernels.gram", "bck.kernels", "gram"),
    ("kernels.psd_check", "bck.kernels", "psd_check"),
    ("kernels.admissibility", "bck.kernels", "admissibility"),
    ("chern.metric_eval", "bck.chern", "MetricField.__call__"),
    ("chern.chern_connection", "bck.chern", "chern_connection"),
    ("chern.curvature", "bck.chern", "curvature"),
    ("chern.compatibility_residuals", "bck.chern", "compatibility_residuals"),
    ("chern.dual_curvature_check", "bck.chern", "dual_curvature_check"),
    ("chern.subbundle_split", "bck.chern", "subbundle_split"),
    ("forms.wirtinger_first", "bck.forms", "wirtinger_first"),
    ("forms.wirtinger_mixed", "bck.forms", "wirtinger_mixed"),
    ("forms.exterior_derivative", "bck.forms", "exterior_derivative"),
    ("forms.form2_eval", "bck.forms", "Form2.__call__"),
    ("forms.cauchy_riemann_residual", "bck.forms", "cauchy_riemann_residual"),
    ("positivity.griffiths_verdict", "bck.positivity", "griffiths_verdict"),
    ("linalg.eig", "numpy.linalg", "eigh"),
    ("linalg.eig", "numpy.linalg", "eigvalsh"),
    ("cli.to_json", "bck.cli", "AnalysisReport.to_json"),
    ("cli.csv", "bck.cli", "_write_csv_fields"),
]

TASKS = ["selftest", "psd", "admissibility", "connection", "curvature",
         "compatibility", "dual", "subbundle", "griffiths", "theorem55"]

_CURVATURE_METHODS = {"analytic_expansion": "analytic", "nested_fd": "nested_fd"}


class Tracer:
    """Aggregated spans: per label and per (parent, child) edge."""

    def __init__(self):
        self.stack = []  # open spans: [label, child_s, metric_evals_at_entry]
        self.stats = {}  # label -> [calls, total_s, self_s, metric_evals_inside]
        self.edges = {}  # (parent, label) -> [calls, total_s]
        self.metric_evals = 0
        self.metric_points = set()
        self.absent = []

    def wrap(self, label, fn, labeller=None, on_call=None):
        stack, stats, edges = self.stack, self.stats, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = labeller(args, kwargs) if labeller else label
            if on_call:
                on_call(args)
            frame = [name, 0.0, self.metric_evals]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                st[3] += self.metric_evals - frame[2]
                key = (parent[0] if parent else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur

        return traced

    def count_metric_eval(self, args):
        metric, z = args[0], args[1]
        # A metric built on another metric (the induced subbundle metric)
        # evaluates it inside its own evaluation: count stencil nodes once.
        if not self.stack or self.stack[-1][0] != "chern.metric_eval":
            self.metric_evals += 1
        point = np.asarray(z, dtype=complex).ravel().tobytes()
        self.metric_points.add((getattr(metric, "name", ""), point))

    def install(self):
        for label, module_name, qualname in TARGETS:
            try:
                self._install_one(label, module_name, qualname)
            except (ImportError, AttributeError) as exc:
                self.absent.append({"label": label, "target": f"{module_name}.{qualname}",
                                    "reason": str(exc)})
        try:
            cli = importlib.import_module("bck.cli")
            table = cli._TASKS
        except (ImportError, AttributeError) as exc:
            self.absent.append({"label": "cli.task", "target": "bck.cli._TASKS",
                                "reason": str(exc)})
            return
        for name, fn in list(table.items()):
            table[name] = self.wrap(f"cli.task.{name}", fn)

    def _install_one(self, label, module_name, qualname):
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            fn = getattr(cls, attr)
            on_call = self.count_metric_eval if label == "chern.metric_eval" else None
            setattr(cls, attr, self.wrap(label, fn, on_call=on_call))
            return
        fn = getattr(module, qualname)
        labeller = _curvature_labeller(fn) if label == "chern.curvature" else None
        wrapped = self.wrap(label, fn, labeller=labeller)
        if not module_name.startswith("bck"):
            setattr(module, qualname, wrapped)
            return
        for name, mod in list(sys.modules.items()):
            if name != "bck" and not name.startswith("bck."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "metric_evals": v[3]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": v[0], "total_s": v[1]}
                      for (p, c), v in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "metric_points_distinct": len(self.metric_points),
            "absent": self.absent,
        }


def _curvature_labeller(fn):
    signature = inspect.signature(fn)

    def label(args, kwargs):
        try:
            bound = signature.bind(*args, **kwargs)
        except TypeError:
            return "chern.curvature.other"
        bound.apply_defaults()
        method = bound.arguments.get("method")
        return "chern.curvature." + _CURVATURE_METHODS.get(method, "other")

    return label


def machine_info() -> dict:
    """nproc, interpreter, numpy and the BLAS library with its thread count."""
    import ctypes

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": None,
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                break
    return info


# -- per-layer metrics -------------------------------------------------------

# Times of layers that only some workloads exercise, with their units.
# Elsewhere they read 0 s on every run, and a result-line time must vary
# between runs, so they are printed but left out of the result line and of
# BENCHMARK.json, whose `per_layer` list names every other metric.
PRINTED_ONLY = {name: "s" for name in (
    "chern.compatibility_residuals.s", "chern.subbundle_split.s", "cli.csv.s",
    "cli.task.selftest.s", "cli.task.connection.s", "cli.task.compatibility.s",
    "cli.task.subbundle.s")}


def griffiths_pairs(report: dict) -> int:
    """Points x directions reduced by the Griffiths verdicts in a report."""
    points = report.get("grid", {}).get("points_used", 0)
    pairs = 0
    tasks = report.get("tasks", {})
    grif = tasks.get("griffiths", {}).get("data", {})
    pairs += points * grif.get("directions", 0)
    conclusion = (tasks.get("theorem55", {}).get("data", {}) or {}).get("conclusion") or {}
    pairs += points * conclusion.get("directions", 0)
    return pairs


def layer_metrics(trace: dict, report: dict, report_bytes: int, overhead_frac: float):
    """(values by metric name, absent names) from a trace dump and the traced run's report."""
    stats = trace["stats"]
    edges = trace["edges"]

    def stat(label, key):
        return stats.get(label, {}).get(key, 0)

    def per_call(label):
        calls = stat(label, "calls")
        return stat(label, "metric_evals") / calls if calls else 0.0

    griffiths_s = stat("positivity.griffiths_verdict", "total_s") - sum(
        e["total_s"] for e in edges
        if e["parent"] == "positivity.griffiths_verdict" and e["child"].startswith("chern.curvature")
    )
    pairs = griffiths_pairs(report)
    metric_calls = stat("chern.metric_eval", "calls")
    values = {
        "kernels.eval_kernel.calls": stat("kernels.eval_kernel", "calls"),
        "kernels.eval_kernel.self_s": stat("kernels.eval_kernel", "self_s"),
        "kernels.gram.s": stat("kernels.gram", "total_s"),
        "kernels.gram.blocks": sum(e["calls"] for e in edges
                                   if e["parent"] == "kernels.gram"
                                   and e["child"] == "kernels.eval_kernel"),
        "kernels.psd_check.s": stat("kernels.psd_check", "total_s"),
        "kernels.admissibility.calls": stat("kernels.admissibility", "calls"),
        "kernels.admissibility.s": stat("kernels.admissibility", "total_s"),
        "chern.metric_eval.calls": metric_calls,
        "chern.metric_eval.self_s": stat("chern.metric_eval", "self_s"),
        "chern.metric_eval.unique_frac": (trace["metric_points_distinct"] / metric_calls
                                          if metric_calls else 0.0),
        "chern.chern_connection.calls": stat("chern.chern_connection", "calls"),
        "chern.chern_connection.s": stat("chern.chern_connection", "total_s"),
        "positivity.griffiths.pairs": pairs,
        "positivity.griffiths.us_per_pair": 1e6 * griffiths_s / pairs if pairs else 0.0,
        "linalg.eig.calls": stat("linalg.eig", "calls"),
        "linalg.eig.s": stat("linalg.eig", "total_s"),
        "cli.report_bytes": report_bytes,
        "trace_overhead_frac": overhead_frac,
    }
    for route in ("analytic", "nested_fd"):
        label = f"chern.curvature.{route}"
        values[f"{label}.calls"] = stat(label, "calls")
        values[f"{label}.s"] = stat(label, "total_s")
        values[f"{label}.metric_evals_per_call"] = per_call(label)
    for label in ("forms.wirtinger_first", "forms.wirtinger_mixed",
                  "forms.exterior_derivative", "forms.form2_eval",
                  "positivity.griffiths_verdict"):
        values[f"{label}.calls"] = stat(label, "calls")
        values[f"{label}.self_s"] = stat(label, "self_s")
    for label in ("chern.compatibility_residuals", "chern.dual_curvature_check",
                  "chern.subbundle_split", "forms.cauchy_riemann_residual",
                  "cli.to_json", "cli.csv"):
        values[f"{label}.s"] = stat(label, "total_s")
    for task in TASKS:
        values[f"cli.task.{task}.s"] = stat(f"cli.task.{task}", "total_s")

    missing = {entry["label"] for entry in trace["absent"]}
    if "positivity.griffiths_verdict" in missing:
        missing.add("positivity.griffiths")  # us_per_pair divides its time
    absent = sorted(name for name in values
                    if any(name.startswith(label + ".") for label in missing))
    return values, absent


def main(argv: list[str]) -> int:
    src, trace_path, bck_argv = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    np.linalg.eigvalsh(a + a.conj().T)
    np.linalg.eigh(a[:8, :8] + a[:8, :8].conj().T)
    warmup_s = time.perf_counter() - start

    import bck.cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = bck.cli.main(bck_argv)
    main_s = time.perf_counter() - start
    dump = tracer.dump()
    dump.update(exit_code=code, warmup_s=warmup_s, main_s=main_s, machine=machine_info())
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(dump, handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
