"""List the statements of `bck` that no run of the program executes.

Run from the repository root:

    python3 bench/traffic.py [--seeds 1 2 3] [--suite]

A stdlib line trace (`sys.settrace`) records every line of `src/bck` that
these runs execute, all in this one process, with `bck` imported under
the trace:

* `bck analyze --config C --out R --csv D` through `bck.cli.main`, for
  every workload of perfbench/workloads.py and every seed;
* the acceptance suite, `tests/test_acceptance.py`;
* the Python blocks of README's "Library quick start", in order.

For each module it prints the first lines of the statements that those
runs never execute (a compound statement counts by its header, and
docstrings are not statements).  With `--suite` it then traces the
tier-1 suite too and splits those lines into the ones a unit test
reaches and the ones nothing reaches.  Test outcomes are ignored: a test
may fail under the trace, such as a `tracemalloc` bound that the
tracer's own allocations exceed.

Most CLI tests call `bck.cli.main` in this process, where the trace sees
them.  The three that spawn `bck` in a child process (`run_python` in
tests/test_cli.py) are not seen, so a `cli.py` line that only they run,
such as the program run's `gc.freeze()`, is listed as unreached.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bck"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402  perfbench/workloads.py: the workload configs

HITS: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    """Trace the lines of bck's frames only; other frames run untraced."""
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None

    def line(frame, event, arg):
        if event == "line":
            HITS.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    return line(frame, event, arg)


def statements(path: Path) -> dict[int, range]:
    """Each statement's first line and the lines that its own code spans:
    decorators and header for a compound statement, all of a simple one."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
        found[node.lineno] = range(first, last + 1)
    return found


def unreached(hits: set) -> dict[str, list[int]]:
    """Per module, the first lines of the statements with no traced line."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {n for name, n in hits if name == str(path)}
        out[path.name] = sorted(s for s, span in statements(path).items() if not lines.intersection(span))
    return out


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as `1-3, 7`."""
    spans = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in spans) or "-"


def pytest_quietly(*args: str) -> None:
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        pytest.main(["-q", "-p", "no:cacheprovider", *args])


def run_program(seeds: list[int]) -> None:
    from bck.cli import main

    with tempfile.TemporaryDirectory(prefix="bck-traffic-") as scratch:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                case = Path(scratch) / f"{workload}-{seed}"
                case.mkdir()
                config = case / "config.json"
                config.write_text(json.dumps(workloads.make_config(workload, seed)), encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    main(["analyze", "--config", str(config), "--out", str(case / "r.json"), "--csv", str(case / "csv")])
    pytest_quietly(str(ROOT / "tests" / "test_acceptance.py"))
    readme = (ROOT / "README.md").read_text()
    quick = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    namespace: dict = {}
    for block in re.findall(r"```python\n(.*?)```", quick, flags=re.S):
        exec(compile(block, "README.md", "exec"), namespace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--suite", action="store_true", help="also trace the tier-1 suite")
    args = parser.parse_args(argv)
    if "bck" in sys.modules:
        raise SystemExit("bck is imported before the trace starts; its import lines would go unseen")

    sys.settrace(_trace)
    try:
        run_program(args.seeds)
        runs = set(HITS)
        if args.suite:
            pytest_quietly(str(ROOT / "tests"))
    finally:
        sys.settrace(None)

    never = unreached(runs)
    nothing = unreached(HITS)
    total = sum(map(len, never.values()))
    print(f"statements of src/bck that no workload run, acceptance test or README quick start executes: {total}")
    for module, lines in never.items():
        if not lines:
            continue
        note = "  (the trace does not see the three CLI tests that spawn a child)" if module == "cli.py" else ""
        print(f"{module}: {len(lines)}{note}")
        if args.suite:
            dead = set(nothing[module])
            print(f"  unit tests reach it: {ranges([n for n in lines if n not in dead])}")
            print(f"  nothing reaches it:  {ranges(sorted(dead))}")
        else:
            print(f"  {ranges(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
