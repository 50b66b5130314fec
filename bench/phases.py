"""Where the wall time of a spawned `bck analyze` run goes, phase by phase.

Run from anywhere:

    python3 bench/phases.py

It times the `bck` package in this checkout's `src/`.  For every
workload of perfbench/workloads.py, the workload's seed-1 config is run
as perfbench runs it (`analyze --config C --out R`, plus `--csv D` for
the CSV workloads, each run to fresh output paths), spawned 30 times on
each of two sides, the sides alternating:

* cold: with PYTHONDONTWRITEBYTECODE=1 and no bytecode cache for bck,
  so every run compiles bck from source, as perfbench's runs do;
* warm: with a temporary PYTHONPYCACHEPREFIX, given to that child only
  and filled by one run before the series.

The child records time.perf_counter() (one clock across processes) as
its first statement, after `import numpy`, after `import bck.cli`, when
`run_analyze` returns and when `main` returns; the parent records the
spawn and the exit.  Prints, per workload, the median of each phase:
interpreter start with the site hooks, `import numpy`, `import bck.cli`,
config and tasks, report (the `--out` and `--csv` writes) and teardown,
and of the wall time, for each side.

Under config and tasks it prints, with the same clock, four pieces of
it: the two pieces of finite-difference work that exact metric jets
would replace, the nested curvature route (`cli.nested_curvature_field`)
and `theorem55`'s Cauchy-Riemann probe (its `delbar_norms` calls), whose
sum is the most that deleting that work could save on a workload; the
`psd` task's one call, `cli.psd_margin`, and of that the Gram assembly
(`kernels.gram`), which it makes only for a kernel without a section
frame (a section kernel's margin walks the Gram tiles instead).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PROBE = """\
import time; t = [time.perf_counter()]
import sys; out = sys.argv.pop(1); sys.path.insert(0, sys.argv.pop(1))
import numpy; t.append(time.perf_counter())
import bck.cli as cli; t.append(time.perf_counter())
spent = {row: 0.0 for row, _, _ in PIECES}
def timed(call, key):
    def run(*args, **kwargs):
        start = time.perf_counter()
        try: return call(*args, **kwargs)
        finally: spent[key] += time.perf_counter() - start
    return run
for row, module, name in PIECES:
    module = sys.modules[module]; setattr(module, name, timed(getattr(module, name), row))
run_analyze = cli.run_analyze
def analyze(config):
    report = run_analyze(config); t.append(time.perf_counter()); return report
cli.run_analyze = analyze
try:
    code = cli.main()
finally:
    t.append(time.perf_counter())
    with open(out, "w") as handle: handle.write(repr([t, list(spent.values())]))
sys.exit(code)
"""
SRC, RUNS, SEED = str(Path(__file__).resolve().parents[1] / "src"), 30, 1
PHASES = ("interpreter and site", "import numpy", "import bck.cli", "config and tasks", "report", "teardown")
# the pieces of config and tasks timed in the child: (row, the module that calls them, their name there)
PIECES = (("nested route", "bck.cli", "nested_curvature_field"), ("theorem55 CR probe", "bck.cli", "delbar_norms"),
          ("psd_margin", "bck.cli", "psd_margin"), ("of which gram", "bck.kernels", "gram"))
PROBE = f"PIECES = {PIECES!r}\n" + PROBE
ROWS = tuple(row for row, _, _ in PIECES)


def command(stamps: Path, config: Path, out: Path, csv: bool) -> list[str]:
    """The child's argv, writing to `out`.json (and the tables to `out`/)."""
    argv = [sys.executable, "-c", PROBE, str(stamps), SRC, "analyze",
            "--config", str(config), "--out", f"{out}.json"]
    return argv + (["--csv", str(out)] if csv else [])


def spawn(argv: list[str], env: dict, stamps: Path) -> list[float]:
    """One run: the lengths of its phases, then its wall time, then the
    timed pieces, in ms."""
    stamps.unlink(missing_ok=True)
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    end = time.perf_counter()
    stamped, pieces = json.loads(stamps.read_text())
    marks = [start, *stamped, end]
    return [1e3 * (b - a) for a, b in zip(marks, marks[1:])] + [1e3 * (end - start)] + [1e3 * s for s in pieces]


def main() -> int:
    cold = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    cold["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bck-phases-") as tmp:
        tmp = Path(tmp)
        envs = {"cold": cold, "warm": {**cold, "PYTHONPYCACHEPREFIX": str(tmp / "pycache")}}
        fill = {k: v for k, v in envs["warm"].items() if k != "PYTHONDONTWRITEBYTECODE"}
        stamps = tmp / "stamps"
        for workload in workloads.WORKLOADS:
            config = tmp / f"{workload}.json"
            config.write_text(json.dumps(workloads.make_config(workload, SEED)))
            csv = workload in workloads.CSV_WORKLOADS
            # every run writes to fresh output paths, as perfbench's runs do
            spawn(command(stamps, config, tmp / f"{workload}-fill", csv), fill, stamps)  # the warm bytecode
            runs = {"cold": [], "warm": []}
            for i in range(RUNS):
                for side in ("cold", "warm") if i % 2 == 0 else ("warm", "cold"):
                    argv = command(stamps, config, tmp / f"{workload}-{side}{i}", csv)
                    runs[side].append(spawn(argv, envs[side], stamps))
            print(f"{workload}, seed {SEED}, medians of {RUNS} (ms): cold / warm")
            rows = [*PHASES, "wall", *ROWS]
            for name in (*PHASES[:4], *ROWS, *PHASES[4:], "wall"):
                j = rows.index(name)
                medians = [statistics.median(r[j] for r in runs[side]) for side in ("cold", "warm")]
                label = f"  {name}" if name in ROWS else name
                print(f"  {label:22s} {medians[0]:6.1f} / {medians[1]:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
