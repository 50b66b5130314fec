"""Check that two bck source trees compute the same results.

Run from anywhere:

    python3 bench/same.py --parent TREE --change TREE [--seeds 1 2 3]

Each TREE is a checkout whose `src/` holds the `bck` package.  For every
workload of perfbench/workloads.py and every seed, the workload's config
is run once from each tree's `src/` as

    bck analyze --config C --out R --csv D

spawned with perfbench's launcher line, in a temporary directory.  The
two runs must give the same exit code, the same report with every
`timing` entry removed, each leaf compared by its JSON text (so -0.0 and
0.0, 1 and 1.0, or true and 1 differ), and the same CSV tables byte for
byte.
Prints one line per (workload, seed), with each side's report size and,
where the reports differ, each JSON path that the change has `added`,
is `missing` or has `changed`, and the largest relative change
|c - p| / max(1, |p|) of a number that both runs hold, a report leaf or a
CSV cell, with where it is; exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  perfbench/run.py: the launcher line and strip_timing
import workloads  # noqa: E402

SIDES = ("parent", "change")


def analyze(tree: Path, config: Path, out: Path) -> dict:
    """One spawned run: its exit code, report size, report without timing and CSV tables."""
    report, csv_dir = out / "report.json", out / "csv"
    argv = [sys.executable, "-c", run.LAUNCH, str(tree.resolve() / "src"), "analyze",
            "--config", str(config), "--out", str(report), "--csv", str(csv_dir)]
    code = subprocess.run(argv, cwd=out.parent, capture_output=True).returncode
    text = report.read_bytes() if report.is_file() else None
    return {
        "exit": code,
        "bytes": len(text) if text is not None else None,
        "report": run.strip_timing(json.loads(text)) if text is not None else None,
        "tables": {p.name: p.read_bytes() for p in sorted(csv_dir.glob("*.csv"))},
    }


def json_paths(parent, change, path: str = "") -> list[tuple]:
    """(kind, path, p, c) at each path at which two JSON values differ: the
    kind `added`, `missing` or `changed`, and the two values there (None
    where absent); leaves differ when their JSON texts do, and lists of
    unequal length change as a whole."""
    if isinstance(parent, dict) and isinstance(change, dict):
        found = []
        for key in sorted(set(parent) | set(change)):
            at = f"{path}.{key}" if path else key
            if key not in parent or key not in change:
                found.append(("added" if key in change else "missing", at, parent.get(key), change.get(key)))
            else:
                found += json_paths(parent[key], change[key], at)
        return found
    if isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        return [d for i, pair in enumerate(zip(parent, change)) for d in json_paths(*pair, f"{path}[{i}]")]
    return [] if json.dumps(parent) == json.dumps(change) else [("changed", path, parent, change)]


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def changed_cells(name: str, parent: bytes, change: bytes):
    """(p, c, where) for each cell of two CSV tables of one header and row
    count that differs; tables of another layout compare no cells."""
    p_rows, c_rows = (text.decode().splitlines() for text in (parent, change))
    if len(p_rows) != len(c_rows) or p_rows[:1] != c_rows[:1]:
        return
    header = p_rows[0].split(",")
    for row, (p_line, c_line) in enumerate(zip(p_rows[1:], c_rows[1:])):
        for column, p, c in zip(header, p_line.split(","), c_line.split(",")):
            if p != c:
                yield float(p), float(c), f"CSV {name} row {row} {column}"


def largest_drift(parent: dict, change: dict) -> str | None:
    """The largest relative change |c - p| / max(1, |p|) over the numbers
    that two runs both hold and disagree on, and where it is."""
    pairs = []
    if parent["report"] is not None and change["report"] is not None:
        pairs += [(p, c, f"report {at}") for kind, at, p, c in json_paths(parent["report"], change["report"])
                  if kind == "changed" and _number(p) and _number(c)]
    for name in sorted(set(parent["tables"]) & set(change["tables"])):
        pairs += changed_cells(name, parent["tables"][name], change["tables"][name])
    drifts = [(abs(c - p) / max(1.0, abs(p)), where) for p, c, where in pairs]
    if not drifts:
        return None
    size, where = max(drifts, key=lambda drift: drift[0])  # the first of equal changes
    return f"largest relative change {size:.2e} at {where}"


def differences(parent: dict, change: dict) -> list[str]:
    """What two runs disagree on; a pair of runs without a report compares
    nothing, so it counts as a difference."""
    found = []
    if parent["exit"] != change["exit"]:
        found.append(f"exit {parent['exit']} != {change['exit']}")
    if parent["report"] is None or change["report"] is None:
        found.append("report")
    else:
        found += [f"report {kind} {at}" for kind, at, _, _ in json_paths(parent["report"], change["report"])]
    names = sorted(set(parent["tables"]) | set(change["tables"]))
    found += [f"CSV {name}" for name in names if parent["tables"].get(name) != change["tables"].get(name)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    same = True
    with tempfile.TemporaryDirectory(prefix="bck-same-") as scratch:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                case = Path(scratch) / f"{workload}-{seed}"
                config = case / "config.json"
                case.mkdir()
                config.write_text(json.dumps(workloads.make_config(workload, seed)), encoding="utf-8")
                runs = {}
                for side in SIDES:
                    (case / side).mkdir()
                    runs[side] = analyze(getattr(args, side), config, case / side)
                found = differences(runs["parent"], runs["change"])
                drift = largest_drift(runs["parent"], runs["change"]) if found else None
                same = same and not found
                sizes = " -> ".join(str(runs[side]["bytes"]) for side in SIDES)
                verdict = "DIFFERS: " + ", ".join(found + ([drift] if drift else [])) if found else (
                    f"same: exit {runs['change']['exit']}, report text-identical outside timing, "
                    f"{len(runs['change']['tables'])} CSV tables byte-identical")
                print(f"{workload} seed {seed}: {verdict}; report bytes {sizes}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
