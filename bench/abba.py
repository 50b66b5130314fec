"""Paired, alternating benchmark runs of two bck source trees.

Run from anywhere:

    python3 bench/abba.py --parent TREE --change TREE --label L [--pairs 10] [--seed 1]

Each TREE is a checkout whose `src/` holds the `bck` package.  Both
`src/` trees are copied into scratch directories whose paths have equal
length, so that path lengths cannot tilt the comparison.  For every
workload of BENCHMARK.json, pair i runs this checkout's

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

once in each copy, the parent first when i is odd and the change first
when i is even.  Every run is kept: a pair is never dropped or re-run.

Writes bench/ABBA_<L>.jsonl, one line per run ({"pair", "workload",
"seed", "side", "result"}, where "result" is run.py's last output line, or
null with an "error" when the run gave none), and
bench/ABBA_<L>-summary.json: for each workload the failed and attempted
operation counts, whether every run was correct, and for each end-to-end
metric each side's median, q1 and q3, then `pairs`, `change_lower`,
`ties`, `median_diff` (change minus parent) and `parent_iqr`, and
`claim_rule_holds`: the change is lower in at least 9 of 10 pairs and
|median_diff| exceeds the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ROOT / "perfbench" / "run.py"
SIDES = ("parent", "change")


def run_once(copy: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", "10", "--trace", "0"]
    proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return {"result": json.loads(lines[-1])}
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"result": None, "error": f"exit {proc.returncode}: {tail}"}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(lines: list[dict], metrics: list[str], pairs_wanted: int) -> dict:
    out = {}
    for workload, seed in dict.fromkeys((l["workload"], l["seed"]) for l in lines):
        runs = [l for l in lines if (l["workload"], l["seed"]) == (workload, seed)]
        results = {side: {l["pair"]: l["result"] for l in runs if l["side"] == side} for side in SIDES}
        entry = {
            "failed": {s: sum(r["failed"] for r in results[s].values() if r) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in results[s].values() if r) for s in SIDES},
            "correct": all(l["result"] and l["result"]["correct"] for l in runs),
            "runs_without_result": sum(l["result"] is None for l in runs),
        }
        for metric in metrics:
            paired = [(results["parent"][i]["metrics"][metric]["value"], results["change"][i]["metrics"][metric]["value"])
                      for i in results["parent"] if results["parent"][i] and results["change"].get(i)]
            parent, change = (list(side) for side in zip(*paired))
            p, c = spread(parent), spread(change)
            lower = sum(b < a for a, b in paired)
            diff, iqr = c["median"] - p["median"], p["q3"] - p["q1"]
            entry[metric] = {
                "parent": p, "change": c, "pairs": len(paired), "change_lower": lower,
                "ties": sum(a == b for a, b in paired), "median_diff": diff, "parent_iqr": iqr,
                "claim_rule_holds": lower >= 0.9 * pairs_wanted and abs(diff) > iqr,
            }
        out[f"{workload} seed {seed}"] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    scratch = Path(tempfile.mkdtemp(prefix="bck-abba-"))
    try:
        copies = {}
        for side in SIDES:  # "parent" and "change" have the same length
            copies[side] = scratch / side
            shutil.copytree(getattr(args, side) / "src", copies[side] / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        lines = []
        with open(HERE / f"ABBA_{args.label}.jsonl", "w", encoding="utf-8") as log:
            for workload in workloads:
                for pair in range(1, args.pairs + 1):
                    for side in SIDES if pair % 2 else SIDES[::-1]:
                        line = {"pair": pair, "workload": workload, "seed": args.seed, "side": side,
                                **run_once(copies[side], workload, args.seed)}
                        lines.append(line)
                        log.write(json.dumps(line) + "\n")
                        log.flush()
                        print(f"{workload} pair {pair} {side}: {line.get('error') or 'ok'}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0",
        "machine": f"{os.cpu_count()}-vCPU {platform.system()}, Python {platform.python_version()}, "
                   "parent and change in equal-length paths",
        "order": "pair i runs the parent first when i is odd and the change first when i is even",
        "seeds": f"seed {args.seed} on every workload",
        "workloads": summarize(lines, metrics, args.pairs),
    }
    path = HERE / f"ABBA_{args.label}-summary.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
