"""Peak memory and run time of the flagship config on finer grids.

Run from anywhere:

    python3 bench/scale.py [--src TREE/src] [--res 121 241] [--repeat 3]

The config is perfbench's disc-flagship at seed 1 with its grid set to
res x res and without its `selftest` and `psd` tasks, which do not depend
on the grid.  For each resolution two fresh child processes import `bck`
from `--src` (default: this checkout's `src/`):

* one calls `run_analyze` `--repeat` times and reports the best wall time
  and the process's `ru_maxrss` after the calls;
* one calls it once under `tracemalloc` and reports each task's traced
  peak above what was traced when the task began (the run's shared
  fields are built by the first task that reads them: the metric jet by
  `connection`).

Prints one JSON line per resolution, sizes in MB.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import json, resource, sys, time, tracemalloc
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from bck import cli

res, repeat, traced = int(sys.argv[3]), int(sys.argv[4]), sys.argv[5] == "1"
config = workloads.make_config("disc-flagship", 1)
config["grid"]["axes"] = [{**config["grid"]["axes"][0], "re_res": res, "im_res": res}]
config["tasks"] = [t for t in config["tasks"] if t not in ("selftest", "psd")]
config = cli.AnalysisConfig.from_dict(config)
out = {"res": res}
if traced:
    peaks = {}

    def traced_task(name, task):
        def run(ctx):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                return task(ctx)
            finally:
                peaks[name] = round((tracemalloc.get_traced_memory()[1] - before) / 2**20, 1)
        return run

    cli._TASKS.update({name: traced_task(name, task) for name, task in cli._TASKS.items()})
    tracemalloc.start()
    cli.run_analyze(config)
    out["task_peak_mb"] = peaks
else:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        exit_code = cli.run_analyze(config).exit_code
        times.append(time.perf_counter() - start)
    out.update(exit_code=exit_code, best_s=round(min(times), 3),
               ru_maxrss_mb=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))
print(json.dumps(out))
"""


def child(src: Path, res: int, repeat: int, traced: bool) -> dict:
    argv = [sys.executable, "-c", CHILD, str(src), str(ROOT / "perfbench"), str(res), str(repeat), str(int(traced))]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--res", type=int, nargs="+", default=[121, 241])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for res in args.res:
        out = child(args.src.resolve(), res, args.repeat, traced=False)
        out["task_peak_mb"] = child(args.src.resolve(), res, 1, traced=True)["task_peak_mb"]
        print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
