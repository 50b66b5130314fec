"""End-to-end benchmark of `bck analyze` on three pinned workloads.

Run from the repository root:

    python3 perfbench/run.py --workload disc-flagship --seed 1 --seconds 10 --trace 0

Each measured run is one `bck analyze --config C --out R [--csv D]`
process, spawned the way the `bck` console script starts it, from the
`src/` tree of the checkout.  With `--trace 0` the benchmark runs the
set-up probe (the same config with one trivial task) several times, then
analyze runs back to back until `--seconds` have passed (at least one),
then the set-up probe again, and reports medians of wall time, set-up
time and peak resident memory.  With `--trace 1` it makes one untraced and one traced run
(perfbench/tracer.py) and reports per-layer counts and times.  Every
run's report is checked: exit code 0 or 1, no task errors, the oracle
gates of perfbench/workloads.py, CSV tables matching the report value for
value, and identical deterministic content (everything but `timing`)
across the runs of one invocation.  A `--trace 0` run of these workloads
holds one analyze process, so there the determinism check has nothing to
compare; a `--trace 1` run compares the traced report with the untraced
one.  `--workload all` runs every workload once and prints a summary
table.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 12  # half before the analyze runs and half after them
PROCESS_LIMIT_S = 170.0
# The same entry point as the `bck` console script, importing from SRC.
LAUNCH = "import sys; sys.path.insert(0, sys.argv.pop(1)); from bck.cli import main; sys.exit(main())"
# Counts the ROADMAP derived by hand for d = 1 with Richardson steps.
ROADMAP_EVALS_PER_CALL = {"analytic": 19, "nested_fd": 163}


class Run:
    """One spawned process: wall time from spawn to exit, peak RSS, exit code."""

    def __init__(self, argv: list[str], cwd: Path, log: Path, limit_s: float):
        env = dict(os.environ)
        env.pop("BCK_SEED", None)  # the generated config alone sets the seed
        with open(log, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            watchdog = threading.Timer(max(limit_s, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log = log


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def csv_problems(report: dict, csv_dir: Path) -> list[str]:
    """Each task's `fields` must appear as a CSV table with the same header and values."""
    problems = []
    for name, task in report.get("tasks", {}).items():
        fields = (task.get("data") or {}).get("fields")
        if not fields:
            continue
        path = csv_dir / f"{name}.csv"
        if not path.is_file():
            problems.append(f"missing CSV {path.name}")
            continue
        # The CLI writes a header and then each value as repr(float(v)).
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = [",".join(c["name"] for c in fields)]
        expected += [",".join(repr(float(c["values"][i])) for c in fields)
                     for i in range(len(fields[0]["values"]))]
        if lines != expected:
            line = next((i for i, (got, want) in enumerate(zip(lines, expected)) if got != want),
                        min(len(lines), len(expected)))
            problems.append(f"CSV {path.name} differs from the report fields at line {line + 1}")
    return problems


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workloads.make_config(workload, seed), indent=1))
        self.setup = self.dir / "setup.json"
        self.setup.write_text(json.dumps(
            workloads.setup_config(workloads.make_config(workload, seed)), indent=1))
        self.deadline = time.monotonic() + PROCESS_LIMIT_S
        self.canonical = None  # deterministic content of the first report
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.verdicts = None

    def _limit(self) -> float:
        return self.deadline - time.monotonic()

    def setup_probe(self, i: int) -> float:
        out = self.dir / f"setup{i}.json"
        run = Run([sys.executable, "-c", LAUNCH, str(SRC), "analyze",
                   "--config", str(self.setup), "--out", str(out)],
                  self.dir, self.dir / f"setup{i}.log", self._limit())
        if run.exit_code != 0 or not out.is_file():
            self.problems.append(f"set-up probe exited {run.exit_code}: "
                                 f"{run.log.read_text(errors='replace')[-300:]}")
        return run.wall_s

    def analyze(self, tag: str, traced: bool = False) -> tuple[Run, dict | None]:
        """One analyze process; gate its report and count it."""
        out = self.dir / f"report-{tag}.json"
        csv_dir = self.dir / f"csv-{tag}"
        args = ["analyze", "--config", str(self.config), "--out", str(out)]
        if self.workload in workloads.CSV_WORKLOADS:
            args += ["--csv", str(csv_dir)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(SRC),
                    str(self.dir / f"trace-{tag}.json"), *args]
        else:
            argv = [sys.executable, "-c", LAUNCH, str(SRC), *args]
        run = Run(argv, self.dir, self.dir / f"{tag}.log", self._limit())
        self.attempted += 1
        problems, report = self._gate(run, out, csv_dir)
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
        return run, report

    def _gate(self, run: Run, out: Path, csv_dir: Path):
        if run.exit_code not in (0, 1):
            tail = run.log.read_text(errors="replace")[-500:]
            return [f"exit code {run.exit_code}: {tail}"], None
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            return [f"no readable report: {exc}"], None
        problems = workloads.oracle_failures(self.workload, report)
        if report.get("exit_code") != run.exit_code:
            problems.append(f"report exit_code {report.get('exit_code')} != {run.exit_code}")
        if self.workload in workloads.CSV_WORKLOADS:
            problems += csv_problems(report, csv_dir)
        canonical = json.dumps(strip_timing(report), sort_keys=True)
        if self.canonical is None:
            self.canonical = canonical
            self.verdicts = workloads.verdicts(report)
        elif canonical != self.canonical:
            problems.append("deterministic report content differs between runs")
        return problems, report

    def verdict_line(self) -> str:
        expected = workloads.SEED_VERDICTS[self.workload]
        parts = []
        for name, (passed, status) in (self.verdicts or {}).items():
            mark = "" if expected.get(name) == (passed, status) else " (seed differs)"
            parts.append(f"{name}={'pass' if passed else 'FAIL'}/{status}{mark}")
        return "verdicts: " + " ".join(parts)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(bench: Bench, seconds: int) -> dict:
    # The machine's speed changes in phases of some seconds, so the probes
    # are split around the analyze runs instead of falling in one phase.
    setups = [bench.setup_probe(i) for i in range(SETUP_PROBES // 2)]
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        run, _ = bench.analyze(f"run{len(runs)}")
        runs.append(run)
        print(f"run {len(runs)}: wall {run.wall_s:.3f} s, peak RSS {run.peak_rss_mb:.1f} MB, "
              f"exit {run.exit_code}")
    setups += [bench.setup_probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    walls = [r.wall_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    print("set-up probes (s): " + " ".join(f"{s:.4f}" for s in setups))
    print(f"wall_s median {statistics.median(walls):.4f} s (n={len(walls)}); "
          f"setup_s median {statistics.median(setups):.4f} s (n={len(setups)}); "
          f"peak_rss_mb median {statistics.median(rss):.2f} MB (n={len(rss)}); "
          f"failed_frac {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.3f}")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def reported_layers() -> dict:
    """Unit by name of the per-layer metrics that BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def trace(bench: Bench) -> dict:
    reported = reported_layers()
    plain, _ = bench.analyze("plain")
    traced, report = bench.analyze("traced", traced=True)
    dump_path = bench.dir / "trace-traced.json"
    if not dump_path.is_file():
        bench.problems.append("the traced run wrote no trace")
        return {name: {"value": 0, "unit": unit} for name, unit in reported.items()}
    dump = json.loads(dump_path.read_text(encoding="utf-8"))
    overhead = (traced.wall_s - dump["warmup_s"]) / plain.wall_s - 1.0
    report_path = bench.dir / "report-traced.json"
    values, absent = tracer.layer_metrics(
        dump, report or {}, report_path.stat().st_size if report_path.is_file() else 0,
        overhead)
    print(f"untraced wall {plain.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s "
          f"(BLAS warm-up {dump['warmup_s']:.3f} s excluded)")
    print("absent: " + (", ".join(absent) if absent else "none"))
    print("workload-specific layers: " + ", ".join(
        f"{name} {values[name]:.4g} {unit}" for name, unit in tracer.PRINTED_ONLY.items()))
    for entry in dump["absent"]:
        print(f"  not wrapped: {entry['target']} ({entry['reason']})")
    for route, expected in ROADMAP_EVALS_PER_CALL.items():
        got = values[f"chern.curvature.{route}.metric_evals_per_call"]
        check = ""
        if bench.workload == "disc-flagship":  # the d = 1 Richardson workload
            check = f" ({'matches' if got == expected else 'differs from'} the ROADMAP's {expected})"
        print(f"metric evaluations per {route} curvature call: {got:g}{check}")
    WORK.mkdir(exist_ok=True)
    keep = WORK / f"trace-{bench.workload}-s{bench.seed}.json"
    shutil.copyfile(dump_path, keep)
    print(f"trace written to {keep.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in reported.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    bench = Bench(workload, seed)
    try:
        metrics = trace(bench) if traced else measure(bench, seconds)
        print(bench.verdict_line())
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    for problem in bench.problems:
        print(f"FAILED {problem}")
    return bench.result(metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bck" / "cli.py").is_file():
        print(f"no bck source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    info = tracer.machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"== {name} seed {args.seed} trace {args.trace}")
        results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
        print(f"{name:14s} " + "  ".join(cells) +
              f"  failed_frac {result['failed']}/{result['attempted']}"
              f"  correct {result['correct']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
