"""Repeat the benchmark over seeds and write a BENCH_<label>.json summary.

Run from the repository root:

    python3 perfbench/record.py --label seed

For each workload, runs `perfbench/run.py` untraced once per seed 1..10
(for the `run_seconds` of BENCHMARK.json) and traced on seeds 1 and 2.
It records every run's metrics, each end-to-end metric's median,
quartiles and quartile spread (Q3 - Q1 as a share of the median), and
each per-layer metric's median plus whether its `.calls` counts repeated
exactly.  The summary goes to
perfbench/BENCH_<label>.json and is printed as a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACED_SEEDS = SEEDS[:2]


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    summary = {"label": args.label, "machine": tracer.machine_info(), "seconds": seconds,
               "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [bench_once(name, s, seconds, 0) for s in SEEDS]
        traces = [bench_once(name, s, seconds, 1) for s in TRACED_SEEDS]
        entry = {
            "correct": all(r["correct"] for r in runs + traces),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs])
                           for m in runs[0]["metrics"]},
            "runs": [{"seed": s, "metrics": {m: v["value"] for m, v in r["metrics"].items()}}
                     for s, r in zip(SEEDS, runs)],
        }
        layer = {m: [t["metrics"][m]["value"] for t in traces] for m in traces[0]["metrics"]}
        entry["per_layer"] = {m: statistics.median(v) for m, v in layer.items()}
        entry["calls_repeat_exactly"] = all(
            len(set(v)) == 1 for m, v in layer.items() if m.endswith(".calls"))
        entry["trace_log"] = traces[0]["log"]
        entry["verdicts"] = next((line for line in runs[0]["log"]
                                  if line.startswith("verdicts:")), None)
        summary["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:14s} {metric:12s} median {s['median']:.4f}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {s['spread']:.4f}  n={s['n']}")
        print(f"{name:14s} correct {entry['correct']}  failed {entry['failed']}/"
              f"{entry['attempted']}  calls repeat {entry['calls_repeat_exactly']}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
