"""bench/same.py, the gate that two source trees compute the same reports:
it compares report leaves by their JSON text, so it reads a zero of the
other sign, an integer against a float and a bool against a number as
changes, and a NaN against a NaN as the same."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def same(monkeypatch):
    """bench/same.py as a module, loaded as `_fields.perfbench_workloads`
    loads perfbench's workloads; the path it adds for perfbench is undone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("same", Path(__file__).parents[1] / "bench" / "same.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(leaf) -> dict:
    return {"exit": 0, "report": {"tasks": {"psd": {"margin": [leaf]}}}, "tables": {}}


@pytest.mark.parametrize("parent, change", [(0.0, -0.0), (1, 1.0), (True, 1)], ids=["signed-zero", "int-float", "bool-int"])
def test_same_reads_leaves_of_another_json_text_as_changed(same, parent, change):
    path = "tasks.psd.margin[0]"
    assert same.json_paths(_run(parent)["report"], _run(change)["report"]) == [("changed", path, parent, change)]
    assert same.differences(_run(parent), _run(change)) == [f"report changed {path}"]
    assert same.differences(_run(parent), _run(parent)) == []


def test_same_reads_nan_against_nan_as_the_same(same):
    assert same.differences(_run(float("nan")), _run(float("nan"))) == []
