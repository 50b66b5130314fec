"""Config-driven runs: exit codes, determinism, reports, CSV, selftest."""

import collections
import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bck.chern
import bck.cli
import bck.forms
import bck.kernels
import bck.polys
import bck.selfcheck
from bck.cli import (
    TASK_ORDER,
    AnalysisConfig,
    ConfigError,
    main,
    run_analyze,
    run_selftest,
)
from bck.errors import DomainError, StructuralError
from bck.kernels import UserKernel, gram, psd_check, psd_margin
from bck.linalg import Sampler
from bck.selfcheck import run_selfcheck

from _fields import workload_config


def base_config(**overrides):
    cfg = {
        "kernel": {"variant": "disc_power", "nu": 1},
        "grid": {"axes": [{"re": [-0.5, 0.5], "im": [-0.5, 0.5], "re_res": 4, "im_res": 4}]},
        "fd_steps": {"richardson": True},
        "directions": {"count": 6, "seed": 7},
        "samples": {"psd_points": 10},
        "tasks": ["curvature"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- config validation ------------------------------------------------------------


def test_empty_tasks_is_config_error():
    with pytest.raises(ConfigError, match="tasks"):
        AnalysisConfig.from_dict(base_config(tasks=[]))


def test_unknown_kernel_variant_rejected():
    with pytest.raises(ConfigError, match="variant"):
        AnalysisConfig.from_dict(base_config(kernel={"variant": "mystery"}))


def test_low_resolution_rejected():
    cfg = base_config()
    cfg["grid"]["axes"][0]["re_res"] = 1
    with pytest.raises(ConfigError) as exc:
        AnalysisConfig.from_dict(cfg)
    assert str(exc.value) == "grid.axes[0].re_res must be an integer >= 2, not 1"


def test_dimension_mismatch_rejected():
    cfg = base_config(kernel={"variant": "universal_grassmann", "ambient_dim": 3, "rank": 1})
    with pytest.raises(ConfigError, match="axes"):
        AnalysisConfig.from_dict(cfg)


def test_subbundle_task_requires_frame():
    with pytest.raises(ConfigError, match="frame"):
        AnalysisConfig.from_dict(base_config(tasks=["subbundle"]))


ONE = [{"c": 1}]


@pytest.mark.parametrize(
    "overrides",
    [
        {"subbundle": {"frame": [[ONE], [ONE]]}, "tasks": ["subbundle"]},
        {"subbundle": {"frame": [[ONE, ONE]]}, "tasks": ["subbundle"]},
        {"subbundle": {"frame": [[]]}, "tasks": ["subbundle"]},
        {"kernel": {"variant": "from_sections", "entries": [[]]}},
    ],
    ids=["frame-2x1", "frame-1x2", "frame-empty-row", "sections-empty-row"],
)
def test_malformed_polynomial_matrices_are_config_errors(tmp_path, capsys, overrides):
    # the fiber of the nu = 2 disc is C^1, so the only frame shape is 1 x 1
    cfg = base_config(kernel={"variant": "disc_power", "nu": 2})
    cfg["grid"]["axes"][0].update(re_res=3, im_res=3)
    cfg.update(overrides)
    assert main(["analyze", "--config", write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err


TASK_NAMES = [*TASK_ORDER, "compatibility"]  # the retired name reads as the two tasks that gate it


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    names=st.lists(st.sampled_from(TASK_NAMES), min_size=1, max_size=12),
    other=st.text(max_size=16).filter(lambda name: name not in TASK_NAMES),
    at=st.integers(0, 12),
)
def test_tasks_read_in_task_order_with_compatibility_expanded(names, other, at):
    cfg = base_config(tasks=names, subbundle={"frame": [[ONE]]})
    wanted = {t for name in names for t in (("connection", "curvature") if name == "compatibility" else (name,))}
    assert AnalysisConfig.from_dict(cfg).tasks == tuple(t for t in TASK_ORDER if t in wanted)
    at = min(at, len(names))
    cfg["tasks"] = names[:at] + [other] + names[at:]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        assert main(["analyze", "--config", write_config(Path(tmp), cfg)]) == 2
    assert err.getvalue() == f"config error: tasks[{at}] must be a task name, not {other!r}\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"tolerances": {"psd": float("nan")}}, "tolerances.psd must be a finite number >= 0, not nan"),
        ({"tolerances": {"dual": float("inf")}}, "tolerances.dual must be a finite number >= 0, not inf"),
        ({"tolerances": {"neg": -5}}, "tolerances.neg must be a finite number >= 0, not -5"),
        ({"fd_steps": {"first": float("nan")}}, "fd_steps.first must be a positive finite number, not nan"),
        ({"fd_steps": {"second": float("inf")}}, "fd_steps.second must be a positive finite number, not inf"),
        ({"tolerances": {"psd": [1e-8]}}, "tolerances.psd must be a finite number >= 0, not [1e-08]"),
        ({"directions": {"seed": -7}}, "directions.seed must be an integer >= 0, not -7"),
    ],
    ids=["nan-tolerance", "inf-tolerance", "negative-tolerance", "nan-first-step", "inf-second-step",
         "list-tolerance", "negative-seed"],
)
def test_non_finite_tolerances_and_steps_are_config_errors(tmp_path, capsys, overrides, message):
    out = tmp_path / "report.json"
    path = write_config(tmp_path, base_config(**overrides))
    assert main(["analyze", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


def _last_field_infinite(report):
    # the last column of the last task with fields: the last array the
    # encoder meets
    fields = [t["data"]["fields"] for t in report.data["tasks"].values() if "fields" in t["data"]][-1]
    fields[-1]["values"][-1] = np.inf
    return report


# Ways a NaN or an infinity reaches the report: the config echo of a user
# hook's params, which the schema hands to the factory unread, or a number
# of the run itself, put there by patching `run_analyze`.
NON_FINITE_ENTRIES = {
    "nan-in-hook-params": ({"note": NAN}, lambda report: report),
    "nan-in-a-list-in-hook-params": ({"note": [1.0, NAN]}, lambda report: report),
    "numpy-scalar": ({}, lambda report: report.data["tasks"]["psd"]["data"].update(margin=np.float32(-INF)) or report),
    "complex-nan-imaginary": ({}, lambda report: report.data.update(z=complex(1.0, NAN)) or report),
    "inf-in-last-field-column": ({}, _last_field_infinite),
}


def test_non_finite_report_entry_is_a_structural_error(tmp_path, capsys, monkeypatch):
    real = bck.cli.run_analyze
    for name, (params, corrupt) in NON_FINITE_ENTRIES.items():
        monkeypatch.setattr(bck.cli, "run_analyze", lambda config: corrupt(real(config)))
        kernel = {"variant": "user_hook", "target": "_hook:make", "params": {"nu": 1, **params}}
        path = write_config(tmp_path, base_config(tasks=["psd", "curvature"], kernel=kernel), f"{name}.json")
        out = tmp_path / name / "report.json"
        out.parent.mkdir()
        for older in (None, b"an older report\n"):
            if older is not None:
                out.write_bytes(older)
            assert main(["analyze", "--config", path, "--out", str(out)]) == 4, name
            assert capsys.readouterr().err == "structural error: report contains a non-finite numeric entry\n"
            assert (out.read_bytes() if out.exists() else None) == older, name
            assert not list(tmp_path.rglob(".bck-*.tmp")), name
        # the report fails before its file is written, so a missing
        # directory stays missing
        missing = tmp_path / name / "new" / "report.json"
        assert main(["analyze", "--config", path, "--out", str(missing)]) == 4, name
        assert capsys.readouterr() == ("", "structural error: report contains a non-finite numeric entry\n")
        assert not missing.parent.exists(), name
        # on stdout, the text is printed only when it is whole
        assert main(["analyze", "--config", path]) == 4, name
        assert capsys.readouterr().out == "", name


def test_report_file_is_the_report_text(tmp_path, monkeypatch):
    # `--out` writes the report: its bytes are `to_json()` and a newline
    reports, real = [], bck.cli.run_analyze
    monkeypatch.setattr(bck.cli, "run_analyze", lambda config: reports.append(real(config)) or reports[-1])
    out = tmp_path / "report.json"
    cfg = base_config(kernel={"variant": "disc_power", "nu": 2}, tasks=["curvature", "griffiths"])
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path, "--out", str(out)]) == 0
    written = out.read_bytes()
    assert written == (reports[0].to_json() + "\n").encode("utf-8")
    # a report that cannot be encoded keeps the old report and leaves no
    # temporary file
    monkeypatch.setattr(bck.cli, "run_analyze", lambda config: bck.cli.AnalysisReport({"a": 1, "b": object()}))
    assert main(["analyze", "--config", path, "--out", str(out)]) == 4
    assert out.read_bytes() == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.json"]


@pytest.mark.parametrize("workload", ["disc-flagship", "grassmann-d2", "sections-d2"])
def test_report_text_is_the_stdlib_layout(workload):
    # the stdlib's compact layout with sorted keys: one line
    text = run_analyze(AnalysisConfig.from_dict(workload_config(workload, 1))).to_json()
    assert text == json.dumps(json.loads(text), sort_keys=True)
    assert "\n" not in text


def _set(cfg: dict, path: tuple, value) -> None:
    """Replace the entry of cfg at a path of keys and list indices."""
    for key in path[:-1]:
        cfg = cfg[key]
    cfg[path[-1]] = value


AXIS = ("grid", "axes", 0)

CONFIG_PROBES = {
    "fd_steps-list": (("fd_steps",), [1e-5]),
    "directions-list": (("directions",), [1]),
    "tolerances-list": (("tolerances",), [1e-8]),
    "richardson-nan": (("fd_steps", "richardson"), NAN),
    "samples-list": (("samples",), [10]),
    "output-list": (("output",), ["r.json"]),
    "psd_points-string": (("samples", "psd_points"), "x"),
    "seed-string": (("directions", "seed"), "x"),
    "count-string": (("directions", "count"), "x"),
    "count-inf": (("directions", "count"), INF),
    "nu-nan": (("kernel", "nu"), NAN),
    "constant-base_dim-string": (("kernel",), {"variant": "constant", "matrix": [[1.0]], "base_dim": "x"}),
    "constant-ragged": (("kernel",), {"variant": "constant", "matrix": [[1.0, 0.0], [1.0]]}),
    "constant-non-square": (("kernel",), {"variant": "constant", "matrix": [[1.0, 0.0]]}),
    "constant-nan-entry": (("kernel",), {"variant": "constant", "matrix": [[NAN]]}),
    "sections-null-power": (("kernel",), {"variant": "from_sections", "entries": [[[{"c": 1, "p": [None]}]]]}),
    "hook-rejects-params": (("kernel",), {"variant": "user_hook", "target": "_hook:make", "params": {"mu": 2}}),
    "hook-target-number": (("kernel",), {"variant": "user_hook", "target": 7}),
    "axes-number": (("grid", "axes"), 3),
    "nan-bound": (AXIS + ("re", 0), NAN),
    "inf-bound": (AXIS + ("re", 1), INF),
    "minus-inf-bound": (AXIS + ("im", 0), -INF),
    "nan-scale": (AXIS + ("scale",), NAN),
    "negative-scale": (AXIS + ("scale",), -1.0),
    # a negative tolerance: overlapping Griffiths regions, or a PSD margin of at least 1 demanded
    "negative-neg": (("tolerances",), {"neg": -5}),
    "negative-psd": (("tolerances",), {"psd": -1}),
    # misspelt keys, which would otherwise leave their defaults in force
    "misspelt-fd_steps": (("fd_step",), {"first": 1e-3, "second": 1e-2}),
    "misspelt-tolerances": (("tolerance",), {"method_agreement": 1e-30}),
    "misspelt-step": (("fd_steps", "frist"), 1e-3),
    "misspelt-count": (("directions", "cuont"), 4),
    "misspelt-psd_points": (("samples", "psd_point"), 4),
    "misspelt-report": (("output",), {"reprot": "r.json"}),
    "misspelt-axis-scale": (AXIS + ("scael",), 0.5),
    # keys outside the kernel, grid and subbundle tables, and mixed variants
    "misspelt-gram": (("kernel",), {"variant": "from_sections", "monomials": 2, "gramm": [[4, 0], [0, 1]]}),
    "disc-base_dim": (("kernel", "base_dim"), 1),
    "entries-and-monomials": (("kernel",), {"variant": "from_sections", "monomials": 1, "entries": [[ONE]]}),
    "monomial-q": (("kernel",), {"variant": "from_sections", "entries": [[[{"c": 1, "p": [0], "q": [3]}]]]}),
    "grid-scale": (("grid", "scale"), 0.5),
    "misspelt-frame": (("subbundle",), {"frame": [[ONE]], "frme": 1}),
    # an integer is an integer, and a number is not a boolean
    "count-fraction": (("directions", "count"), 2.7),
    "re_res-fraction": (AXIS + ("re_res",), 4.9),
    "psd_points-fraction": (("samples", "psd_points"), 10.5),
    "seed-fraction": (("directions", "seed"), 7.5),
    "nu-true": (("kernel", "nu"), True),
    "count-true": (("directions", "count"), True),
    # the one rule across keys
    "second-below-first": (("fd_steps",), {"first": 1e-3, "second": 1e-4}),
}
# each setting has one spelling and one source, so a second spelling of a
# key or an output path in the config is an unknown key
REMOVED_INPUTS = {
    "fd-beside-fd_steps": (("fd",), {"first": NAN}),
    "seed-beside-directions-seed": (("seed",), "x"),
    "fd-for-fd_steps": (("fd",), {"first": 1e-3, "second": 1e-2}),
    "top-level-seed": (("seed",), 7),
    "output-section": (("output",), {"report": "r.json"}),
}
CONFIG_PROBES.update(REMOVED_INPUTS)


@pytest.mark.parametrize("path, value", CONFIG_PROBES.values(), ids=CONFIG_PROBES.keys())
def test_every_malformed_config_value_exits_2(tmp_path, capsys, path, value):
    cfg = base_config(tasks=["admissibility", "curvature", "theorem55"])
    _set(cfg, path, value)
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


AXIS_2D = [{"re": [-0.5, 0.5], "im": [-0.5, 0.5], "re_res": 3, "im_res": 3, "scale": 1.0} for _ in range(2)]
VARIANT_CONFIGS = {
    "disc_power": base_config(
        kernel={"variant": "disc_power", "nu": 2}, subbundle={"frame": [[ONE]]},
        tolerances={"psd": 1e-8}, tasks=["psd", "subbundle"],
    ),
    "constant": base_config(
        kernel={"variant": "constant", "matrix": [[2.0, [0.0, 0.5]], [[0.0, -0.5], 1.0]], "base_dim": 2},
        grid={"axes": AXIS_2D},
    ),
    "from_sections": base_config(
        kernel={"variant": "from_sections", "entries": [[ONE, [{"c": [0.5, 0.1], "p": [1]}, {"c": 1, "p": 2}]]],
                "gram": [[2.0, 0.0], [0.0, 1.0]], "base_dim": 1},
        subbundle={"frame": [[[{"c": 1, "p": [0]}]]]},
    ),
    "universal_grassmann": base_config(
        kernel={"variant": "universal_grassmann", "ambient_dim": 3, "rank": 1}, grid={"axes": AXIS_2D},
    ),
    "user_hook": base_config(kernel={"variant": "user_hook", "target": "_hook:make", "params": {"nu": 2}}),
}


def _object_paths(obj, path=()):
    """The key path of every JSON object in a config, the config included."""
    if isinstance(obj, dict):
        yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _object_paths(value, path + (key,))


@pytest.mark.parametrize("variant", VARIANT_CONFIGS)
def test_unknown_keys_are_rejected_in_every_object(tmp_path, capsys, variant):
    cfg = VARIANT_CONFIGS[variant]
    AnalysisConfig.from_dict(copy.deepcopy(cfg))  # the config itself is valid
    for path in _object_paths(cfg):
        probe = copy.deepcopy(cfg)
        _set(probe, path + ("zz",), 1)
        code = main(["analyze", "--config", write_config(tmp_path, probe), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert (code, err.startswith("config error: ")) == (2, True), (path, code, err)


@pytest.mark.parametrize("path, value", REMOVED_INPUTS.values(), ids=REMOVED_INPUTS.keys())
def test_removed_inputs_are_not_config_keys(tmp_path, capsys, path, value):
    cfg = base_config()
    _set(cfg, path, value)
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"config error: {path[0]} is not a config key\n"


def test_readme_schema_names_every_key_of_the_tables():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config schema", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    named = set(re.findall(r'"(\w+)"\s*:', block)) | set(re.findall(r'"variant":\s*"(\w+)"', block))
    tables = [table for _, table in bck.cli._KERNELS.values()] + [
        value for value in vars(bck.cli).values()
        if isinstance(value, dict) and value
        and all(isinstance(e, tuple) and len(e) == 2 and callable(e[0]) for e in value.values())
    ]
    assert bck.cli._KERNELS in tables  # its keys are the variant names
    assert named == set().union(*tables)


def test_internal_errors_exit_4_without_a_traceback(tmp_path, capsys):
    # a TypeError inside a task is recorded as an internal error of that task
    cfg = base_config(kernel={"variant": "user_hook", "target": "_hook:make_raising"},
                      tasks=["admissibility", "curvature"])
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["exit_code"] == 4 and not report["passed"]
    for task in report["tasks"].values():
        assert (task["status"], task["error_kind"], task["error"]) == ("error", "internal", "TypeError: hook bug")
    # one raised while the run's grid is built ends the run
    cfg["kernel"]["params"] = {"where": "contains"}
    out = tmp_path / "report2.json"
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "internal error: TypeError: hook bug\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "where, message",
    [
        ("contains", "domain test has shape (2,), expected ()"),
        ("distance", "boundary distance has shape (2,), expected ()"),
    ],
    ids=["contains", "distance"],
)
def test_user_hook_values_of_the_wrong_shape_exit_4(tmp_path, capsys, where, message):
    hook = {"variant": "user_hook", "target": "_hook:make_misshapen", "params": {"where": where}}
    out = tmp_path / "report.json"
    code = main(["analyze", "--config", write_config(tmp_path, base_config(kernel=hook)), "--out", str(out)])
    # a domain hook fails while the grid is built, before any task runs
    assert code == 4 and not out.exists()
    assert capsys.readouterr().err == f"structural error: {message}\n"


FUZZ_CONFIG = base_config(
    grid={"axes": [{"re": [-0.5, 0.5], "im": [-0.5, 0.5], "re_res": 3, "im_res": 3, "scale": 1.0}]},
    fd_steps={"first": 1e-5, "second": 1e-4, "richardson": True},
    directions={"count": 4, "seed": 7},
    samples={"psd_points": 4},
    tolerances={"psd": 1e-8, "holomorphy": 1e-6},
    tasks=["psd", "admissibility", "connection", "theorem55"],
)
_SIZES = {"re_res", "im_res", "psd_points", "count"}


def _key_paths(obj, path=()):
    """Every key path of a config, containers included, sizes left out."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        if key not in _SIZES:
            yield path + (key,)
            yield from _key_paths(value, path + (key,))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    path=st.sampled_from(list(_key_paths(FUZZ_CONFIG))),
    value=st.sampled_from([[1.0], {"k": 1}, "x", None, NAN, INF, -INF, -1, -0.25]),
)
def test_exit_contract_holds_under_one_key_mutations(path, value):
    cfg = copy.deepcopy(FUZZ_CONFIG)
    _set(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = main(["analyze", "--config", write_config(Path(tmp), cfg), "--out", out])
        assert code in {0, 1, 2, 3, 4}
        if code == 1:
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            assert any(not task["passed"] for task in report["tasks"].values())


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert main(["analyze", "--config", str(bad)]) == 2
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2
    path = write_config(tmp_path, base_config(tasks=[]))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()  # nothing written on config failure
    capsys.readouterr()


# -- analysis runs ------------------------------------------------------------------


def test_disc_curvature_run_matches_closed_form():
    config = AnalysisConfig.from_dict(base_config())
    report = run_analyze(config)
    task = report.data["tasks"]["curvature"]
    assert task["passed"]
    assert task["data"]["closed_form_max_rel_err"] <= 1e-5
    assert report.exit_code == 0


def test_pseudo_kernel_psd_fails_with_expected_margin():
    cfg = base_config(
        kernel={"variant": "constant", "matrix": [[-1.0]]},
        tasks=["psd"],
        samples={"psd_points": 3},
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    task = report.data["tasks"]["psd"]
    assert not task["passed"]
    assert abs(task["data"]["margin"] + 3.0) <= 1e-12
    assert report.exit_code == 1


def test_failed_task_does_not_abort_others():
    cfg = base_config(
        kernel={"variant": "constant", "matrix": [[-1.0]]},
        tasks=["psd", "selftest"],
        samples={"psd_points": 3},
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    assert not report.data["tasks"]["psd"]["passed"]
    assert report.data["tasks"]["selftest"]["passed"]
    assert report.exit_code == 1


def test_dual_task_builds_its_metrics_at_the_configured_admissibility_tolerance():
    # the fiber entry 5e-12 is admissible at the run's 1e-14, and the dual
    # check's two metrics read the same tolerance as the run's own metric
    cfg = base_config(
        kernel={"variant": "constant", "matrix": [[1, 0], [0, 5e-12]]},
        grid={"axes": [{"re": [-0.5, 0.5], "im": [-0.5, 0.5], "re_res": 3, "im_res": 3}]},
        tolerances={"admissibility": 1e-14},
        tasks=["admissibility", "connection", "curvature", "dual", "griffiths"],
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    dual = report.data["tasks"]["dual"]
    assert dual["status"] == "ok" and dual["passed"] and dual["data"]["max_residual"] == 0.0
    assert report.exit_code == 0


def test_psd_sample_matches_point_by_point_rejection_loop(monkeypatch):
    # the unit disc rejects the corners of the box, so the batched draw must
    # redraw; it must take the same points as a loop that draws re and im
    # one point at a time and keeps the first accepted ones
    cfg = base_config(
        kernel={"variant": "disc_power", "nu": 2},
        grid={"axes": [{"re": [-0.95, 0.95], "im": [-0.95, 0.95], "re_res": 4, "im_res": 4}]},
        tasks=["psd"],
        samples={"psd_points": 40},
    )
    config = AnalysisConfig.from_dict(cfg)
    rng = Sampler(config.seed)
    grid, pts, rejected = config.grid, [], 0
    while len(pts) < config.psd_points:
        z = np.empty(grid.dim, dtype=complex)
        for j in range(grid.dim):
            re = rng.uniform(grid.re_lo[j], grid.re_hi[j], 1)[0]
            im = rng.uniform(grid.im_lo[j], grid.im_hi[j], 1)[0]
            z[j] = re + 1j * im
        if config.kernel.contains(z):
            pts.append(z)
        else:
            rejected += 1
    assert rejected > 0
    sampled = []
    monkeypatch.setattr(bck.cli, "psd_margin",
                        lambda spec, points: sampled.append(points) or psd_margin(spec, points))
    task = run_analyze(config).data["tasks"]["psd"]
    assert np.array_equal(sampled[0], pts)
    assert task["data"]["margin"] == psd_check(gram(config.kernel, np.array(pts)))


def test_psd_sampling_gives_up_after_1000_draws_per_point():
    drawn = []
    nowhere = UserKernel(lambda z, w: np.eye(1), 1, 1, contains_fn=lambda z: drawn.append(z) or False)
    config = AnalysisConfig.from_dict(base_config(samples={"psd_points": 2}))
    with pytest.raises(DomainError, match="could not sample"):
        bck.cli._task_psd(SimpleNamespace(config=config, kernel=nowhere))
    assert len(drawn) == 2000


def test_domain_violation_exit_code(tmp_path):
    cfg = base_config()
    cfg["grid"]["axes"][0]["re"] = [2.0, 3.0]
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", path]) == 3


def test_structural_error_exit_code():
    cfg = base_config(
        kernel={"variant": "constant", "matrix": [[0.0, 1.0], [0.0, 0.0]]},
        tasks=["psd"],
        samples={"psd_points": 2},
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    task = report.data["tasks"]["psd"]
    assert task["error_kind"] == "structural"
    assert report.exit_code == 4


def test_report_determinism_excluding_wall_clock():
    cfg = base_config(tasks=["psd", "curvature", "griffiths"])
    a = run_analyze(AnalysisConfig.from_dict(copy.deepcopy(cfg)))
    b = run_analyze(AnalysisConfig.from_dict(copy.deepcopy(cfg)))

    def scrub(report):
        data = json.loads(report.to_json())
        for task in data["tasks"].values():
            task.pop("timing")
        return json.dumps(data, sort_keys=True)

    assert scrub(a) == scrub(b)


def test_the_config_alone_sets_the_seed(monkeypatch):
    # BCK_SEED in the environment leaves the configured seed in force
    monkeypatch.setenv("BCK_SEED", "99")
    config = AnalysisConfig.from_dict(base_config(tasks=["psd"]))
    assert config.seed == 7
    assert run_analyze(config).data["seed"] == 7


def test_theorem55_premise_failure_skips_conclusion():
    cfg = base_config(
        kernel={"variant": "from_sections", "entries": [[[{"c": 1, "p": [1]}]]]},
        grid={"axes": [{"re": [-0.5, 0.5], "im": [-0.5, 0.5], "re_res": 5, "im_res": 5}]},
        tasks=["theorem55"],
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    task = report.data["tasks"]["theorem55"]
    assert task["status"] == "hypothesis_not_met"
    assert not task["passed"]
    assert task["data"]["conclusion"] is None
    assert report.exit_code == 1


def test_theorem55_verified_for_disc():
    cfg = base_config(tasks=["theorem55"])
    section = run_analyze(AnalysisConfig.from_dict(cfg)).data["tasks"]["theorem55"]
    assert section["status"] == "verified"
    assert section["data"]["premise"]["satisfied"]
    assert section["data"]["conclusion"]["verdict"] == "positive"


def test_theorem55_premise_fails_on_a_nan_cauchy_riemann_residual(monkeypatch, tmp_path, capsys):
    # the second kernel section's residuals are NaN: the premise's maximum
    # is NaN and fails, and the report cannot be written with it
    real, calls = bck.cli.delbar_norms, []

    def nan_second(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return out * np.nan if len(calls) == 2 else out

    monkeypatch.setattr(bck.cli, "delbar_norms", nan_second)
    cfg = base_config(tasks=["theorem55"])
    section = run_analyze(AnalysisConfig.from_dict(cfg)).data["tasks"]["theorem55"]
    assert section["status"] == "hypothesis_not_met"
    assert not section["data"]["premise"]["satisfied"]
    assert np.isnan(section["data"]["premise"]["cauchy_riemann_residual"])
    calls.clear()
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")]) == 4
    assert capsys.readouterr().err == "structural error: report contains a non-finite numeric entry\n"


def test_theorem55_probe_takes_the_scaled_steps_near_the_boundary():
    # points 1e-5 to 1e-4 from the unit circle clear the scaled margin
    # 4e-6; an unscaled probe of radius 2e-5 would leave the disc
    cfg = base_config(
        grid={"axes": [{"re": [0.9999, 0.99999], "im": [-1e-5, 1e-5], "re_res": 10, "im_res": 3,
                        "scale": 0.01}]},
        tasks=["curvature", "theorem55"],
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    assert report.data["grid"]["stencil_margin"] == pytest.approx(4e-6)
    task = report.data["tasks"]["theorem55"]
    assert task["error_kind"] is None, task["error"]
    assert task["status"] == "hypothesis_not_met"
    assert report.exit_code != 3


def test_theorem55_premise_takes_the_admissibility_decision(tmp_path):
    # a zero kernel at admissibility tolerance 0: every margin is 0 >= 0, but
    # no block is invertible, so `admissibility` fails and the premise with it
    cfg = base_config(kernel={"variant": "constant", "matrix": [[0]]}, tolerances={"admissibility": 0},
                      tasks=["admissibility", "theorem55"])
    tasks = run_analyze(AnalysisConfig.from_dict(cfg)).data["tasks"]
    assert not tasks["admissibility"]["passed"]
    assert (tasks["theorem55"]["status"], tasks["theorem55"]["error"]) == ("hypothesis_not_met", None)
    assert tasks["theorem55"]["data"]["premise"]["min_admissibility_margin"] == 0.0
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r.json")]) == 1


# -- reported extremes: one reduction, each naming the point that holds it --------


def test_extremes_name_the_first_point_of_a_tie_and_of_a_nan():
    points = np.array([[0.1], [0.2], [0.3], [0.4]], dtype=complex)
    data = bck.cli._extremes(
        points,
        max_tied=np.array([1.0, 3.0, 3.0, 2.0]),
        min_tied=np.array([2.0, 1.0, 0.5, 0.5]),
        max_nan=np.array([9.0, np.nan, 5.0, np.nan]),
        min_nan=np.array([-1.0, 0.0, np.nan, np.nan]),
    )
    witnesses = {key: point[0] for key, point in data.pop("witness_points").items()}
    assert witnesses == {"max_tied": 0.2, "min_tied": 0.3, "max_nan": 0.2, "min_nan": 0.3}
    assert (data["max_tied"], data["min_tied"]) == (3.0, 0.5)
    assert np.isnan(data["max_nan"]) and np.isnan(data["min_nan"])
    assert all(type(value) is float for value in data.values())


def test_grid_reports_its_tolerances_and_dropped_points():
    # 5 x 5 points of [-1, 1]^2 around the unit disc, stencil margin 0.4: the
    # 16 points with |z| >= 1 lie outside, the 4 at |z| = 0.71 within the margin
    cfg = base_config(
        grid={"axes": [{"re": [-1, 1], "im": [-1, 1], "re_res": 5, "im_res": 5}]},
        fd_steps={"first": 0.05, "second": 0.1}, tolerances={"dual": 1e-3}, tasks=["admissibility"],
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg)).data
    counts = ("points_total", "points_used", "points_outside_domain", "points_within_stencil_margin")
    assert tuple(report["grid"][key] for key in counts) == (25, 5, 16, 4)
    assert report["tolerances"] == {**{key: default for key, (_, default) in bck.cli._TOLERANCES.items()}, "dual": 1e-3}
    workloads = {"disc-flagship": (441, 417, 24, 0), "grassmann-d2": (256, 256, 0, 0), "sections-d2": (81, 81, 0, 0)}
    for workload, dropped in workloads.items():
        config = AnalysisConfig.from_dict({**workload_config(workload, 1), "tasks": ["psd"]})
        assert tuple(run_analyze(config).data["grid"][key] for key in counts) == dropped


def test_a_hook_without_a_boundary_distance_runs_only_the_gridless_tasks(tmp_path, capsys):
    # a domain test alone gives boundary distance 0: all 25 points lie in
    # the disc, and all 25 within the stencil margin, which the error names
    hook = {"variant": "user_hook", "target": "_hook:make_domain_only"}
    grid = {"axes": [{"re": [-0.5, 0.5], "im": [-0.5, 0.5], "re_res": 5, "im_res": 5}]}
    path = write_config(tmp_path, base_config(kernel=hook, grid=grid))
    assert main(["analyze", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "domain error: no grid point lies inside the kernel domain with the stencil margin 4.000e-04: "
        "of 25 points, 0 lie outside the domain and 25 within the margin\n"
    )
    gridless = write_config(tmp_path, base_config(kernel=hook, grid=grid, tasks=["psd"]), "psd.json")
    assert main(["analyze", "--config", gridless]) == 0


def _witnessed(section: dict) -> list[tuple]:
    """(key, value, witness) of each extreme that a report section names a
    point for: the `witness_points`, `admissibility`'s `worst_point` and
    the Griffiths `witness_point`."""
    found = [(key, section[key], point) for key, point in section.get("witness_points", {}).items()]
    for key, point in [("min_relative_margin", "worst_point"), ("min_margin", "witness_point")]:
        if point in section:
            found.append((key, section[key], section[point]))
    return found


@pytest.mark.parametrize("workload, count", [("disc-flagship", 14), ("grassmann-d2", 10), ("sections-d2", 9)])
def test_every_reported_grid_extreme_names_the_first_point_that_holds_it(monkeypatch, workload, count):
    # each per-point field a task reduces is recorded by (task, key); the
    # Griffiths margins are that task's `min_margin` column
    fields, running, real = {}, [], bck.cli._extremes

    def recording(points, **values):
        fields.update({(running[-1], key): (points, np.asarray(v)) for key, v in values.items()})
        return real(points, **values)

    monkeypatch.setattr(bck.cli, "_extremes", recording)
    for name, task in list(bck.cli._TASKS.items()):
        monkeypatch.setitem(bck.cli._TASKS, name, lambda ctx, name=name, task=task: running.append(name) or task(ctx))
    config = AnalysisConfig.from_dict(workload_config(workload, 1))
    tasks = run_analyze(config).data["tasks"]
    used = bck.cli._run_context(config, require_points=True)[0].points
    margins = {col["name"]: col["values"] for col in tasks["griffiths"]["data"]["fields"]}["min_margin"]
    fields["griffiths", "min_margin"] = used, margins
    sections = [(name, section) for name, entry in tasks.items() if name not in ("selftest", "psd")
                for section in (entry["data"], entry["data"].get("premise")) if section]
    seen = 0
    for name, section in sections:
        extremes = _witnessed(section)
        # every number a grid task reports is an extreme with a witness
        assert {key for key, value in section.items() if type(value) is float} == {e[0] for e in extremes}
        for key, value, witness in extremes:
            points, field = fields[name, "min_relative_margin" if key == "min_admissibility_margin" else key]
            first = int(np.flatnonzero((points == witness).all(axis=1))[0])
            assert (used == witness).all(axis=1).any(), (name, key)
            assert field[first] == value == (field.min() if key.startswith("min_") else field.max()), (name, key)
            assert value not in field[:first], (name, key)
        seen += len(extremes)
    assert seen == count


GRASSMANN_D2 = {
    "kernel": {"variant": "universal_grassmann", "ambient_dim": 3, "rank": 1},
    "grid": {"axes": [{"re": [-0.4, 0.4], "im": [-0.4, 0.4], "re_res": 2, "im_res": 2}] * 2},
}


def test_curvature_and_griffiths_computed_once_per_run(monkeypatch):
    # every grid field is built once per run, over all points, however many
    # tasks read it
    builders = (
        "metric_jet",
        "chern_connection_field",
        "analytic_curvature_field",
        "nested_curvature_field",
        "griffiths_verdict",
    )
    calls = []
    for name in builders:

        def counted(*args, _real=getattr(bck.cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(bck.cli, name, counted)
    tasks = ["connection", "curvature", "dual", "griffiths", "theorem55"]
    for overrides in ({}, GRASSMANN_D2):
        calls.clear()
        report = run_analyze(AnalysisConfig.from_dict(base_config(tasks=tasks, **overrides)))
        assert report.data["grid"]["points_used"] > 0
        assert sorted(calls) == sorted(builders)
        data = json.loads(report.to_json())["tasks"]
        assert all(data[t]["status"] != "error" for t in tasks)
        assert data["theorem55"]["status"] == "verified"
        # theorem55 cites the griffiths verdict, margin and witness; the
        # per-point margins are stated once, in the griffiths fields
        conclusion, griffiths = data["theorem55"]["data"]["conclusion"], data["griffiths"]["data"]
        cited = ("verdict", "min_margin", "witness_point", "witness_direction")
        assert conclusion == {key: griffiths[key] for key in cited}
        assert "fields" in griffiths


def test_curvature_and_dual_reduce_one_analytic_curvature(monkeypatch):
    # the dual check reads the run's curvature, conjugated: no module
    # builds a second analytic curvature for it
    calls = []
    for module in (bck.cli, bck.chern):

        def counted(jet, _real=module.analytic_curvature_field):
            calls.append(len(jet.points))
            return _real(jet)

        monkeypatch.setattr(module, "analytic_curvature_field", counted)
    for overrides in ({}, GRASSMANN_D2):
        calls.clear()
        report = run_analyze(AnalysisConfig.from_dict(base_config(tasks=["curvature", "dual"], **overrides)))
        assert all(entry["passed"] for entry in report.data["tasks"].values())
        assert calls == [report.data["grid"]["points_used"]]


@pytest.mark.parametrize("overrides, per_point", [
    ({}, 81 + 17),
    ({**GRASSMANN_D2, "fd_steps": {}}, 81 + 33),
    (GRASSMANN_D2, 289 + 65),
], ids=["disc-d1-richardson", "grassmann-d2", "grassmann-d2-richardson"])
def test_kernel_metric_rows_per_grid_point(monkeypatch, overrides, per_point):
    # with every task and a subbundle frame, a run evaluates the kernel
    # metric on the nested route's outer x inner nodes, (1 + 4d(1 + R))^2
    # rows per grid point, and once on its second-order jet's stencil; the
    # dual check reads the curvature of that jet and evaluates no dual metric
    rows = {}
    real = bck.chern.MetricField.batch

    def counted(self, points):
        values = real(self, points)
        rows[self.name] = rows.get(self.name, 0) + len(values)
        return values

    monkeypatch.setattr(bck.chern.MetricField, "batch", counted)
    cfg = base_config(tasks=list(TASK_ORDER), subbundle={"frame": [[[{"c": 1}]]]}, **overrides)
    config = AnalysisConfig.from_dict(cfg)
    report = run_analyze(config)
    assert all(task["status"] != "error" for task in report.data["tasks"].values())
    d, r, steps = config.kernel.base_dim, int(config.steps.richardson), config.steps
    jet = bck.forms.Stencil(d, steps.first_steps(), steps.second_steps(), steps.richardson, centre=True)
    assert (1 + 4 * d * (1 + r)) ** 2 + len(jet.offsets) == per_point
    points, variant = report.data["grid"]["points_used"], config.kernel.variant
    assert rows == {f"{variant} kernel metric": per_point * points}


def _mono(c, p):
    return {"c": c, "p": p}


# E(z) = [[1, z1 + z2^2 / 2, z2], [0, 1, z1 / 4 + z1 z2 / 2]]: a 2 x 3 section matrix
SECTIONS_D2 = {
    "kernel": {
        "variant": "from_sections",
        "base_dim": 2,
        "entries": [
            [[_mono(1, [0, 0])], [_mono(1, [1, 0]), _mono(0.5, [0, 2])], [_mono(1, [0, 1])]],
            [[_mono(0, [0, 0])], [_mono(1, [0, 0])], [_mono(0.25, [1, 0]), _mono(0.5, [1, 1])]],
        ],
    },
    "grid": GRASSMANN_D2["grid"],
    "subbundle": {"frame": [[[_mono(1, [0, 0])]], [[_mono(0, [0, 0])]]]},
}


def test_analyze_makes_no_lapack_call_per_small_matrix(monkeypatch):
    # stacks of 1 x 1 and 2 x 2 fiber matrices, the Griffiths forms
    # included, take the closed forms of bck.linalg; LAPACK sees whole
    # matrices only: the 3 x 3 section Gram of either section kernel
    # (checked once, at construction) and the disc's PSD Gram assembly,
    # which a section kernel's PSD margin reads from its tiles and frames instead
    calls = []
    for name in ("svd", "solve", "inv", "eigvalsh", "eigh"):

        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for overrides, n, factored in ((SECTIONS_D2, 2, True), (GRASSMANN_D2, 1, True), ({}, 1, False)):
        tasks = [t for t in TASK_ORDER if n == 2 or t != "subbundle"]
        calls.clear()
        report = run_analyze(AnalysisConfig.from_dict(base_config(tasks=tasks, **overrides)))
        data = json.loads(report.to_json())["tasks"]
        assert all(data[t]["status"] != "error" for t in tasks), data
        gram = ("eigvalsh", (10 * n, 10 * n))
        allowed = {gram, ("eigvalsh", (3, 3))}
        assert set(calls) <= allowed, sorted(set(calls) - allowed)
        assert calls.count(gram) == (0 if factored else 1), (overrides, calls)


def test_subbundle_admissibility_and_premise_are_array_reductions(monkeypatch):
    # no one-point metric evaluations and no per-point admissibility calls;
    # the admissibility margins are built once for both tasks that read them
    counts = {"point_metric": 0, "point_admissibility": 0, "margins": 0}

    def counted(real, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        bck.chern.MetricField, "__call__", counted(bck.chern.MetricField.__call__, "point_metric")
    )
    point = counted(bck.kernels.admissibility, "point_admissibility")
    monkeypatch.setattr(bck.kernels, "admissibility", point)
    monkeypatch.setattr(bck.cli, "admissibility", point, raising=False)
    monkeypatch.setattr(
        bck.cli, "admissibility_field", counted(bck.cli.admissibility_field, "margins")
    )
    tasks = ["admissibility", "subbundle", "griffiths", "theorem55"]
    cfg = base_config(tasks=tasks, subbundle={"frame": [[[{"c": 1}]]]})
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    assert report.exit_code == 0
    assert report.data["tasks"]["theorem55"]["status"] == "verified"
    assert counts == {"point_metric": 0, "point_admissibility": 0, "margins": 1}


def test_subbundle_task_from_config():
    cfg = base_config(
        kernel={"variant": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        tasks=["subbundle"],
        subbundle={"frame": [[[{"c": 1}]], [[{"c": 1, "p": [1]}]]]},
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    task = report.data["tasks"]["subbundle"]
    assert task["passed"]
    assert task["data"]["max_identity_residual"] <= 1e-4


def test_grassmann_tasks_run_on_matching_grid():
    cfg = base_config(
        kernel={"variant": "universal_grassmann", "ambient_dim": 2, "rank": 1},
        tasks=["admissibility", "curvature"],
        grid={"axes": [{"re": [-0.4, 0.4], "im": [-0.4, 0.4], "re_res": 3, "im_res": 3}]},
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    assert report.data["tasks"]["admissibility"]["passed"]
    assert report.data["tasks"]["curvature"]["passed"]


# -- outputs --------------------------------------------------------------------------


def test_report_and_csv_outputs(tmp_path):
    cfg = base_config(tasks=["curvature", "griffiths"])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.json"
    csv_dir = tmp_path / "csv"
    code = main(["analyze", "--config", path, "--out", str(out), "--csv", str(csv_dir)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "bck-report/1"
    assert data["tasks"]["curvature"]["passed"]
    # CSV: header + one row per used grid point, '.' decimals, \n endings
    text = (csv_dir / "curvature.csv").read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0].startswith("re_z1,im_z1,")
    assert len(lines) == 1 + data["grid"]["points_used"]
    assert "," in lines[1] and "." in lines[1]


def _per_cell_csv(data: dict) -> dict:
    """The tables by the rule of writing each cell as repr(float(v))."""
    tables = {}
    for name, task in data["tasks"].items():
        fields = task.get("data", {}).get("fields")
        if fields:
            lines = [",".join(c["name"] for c in fields)]
            lines += [",".join(repr(float(c["values"][i])) for c in fields) for i in range(len(fields[0]["values"]))]
            tables[f"{name}.csv"] = "\n".join(lines) + "\n"
    return tables


def test_csv_cells_are_the_report_numbers(tmp_path):
    path = write_config(tmp_path, workload_config("disc-flagship", 1))
    code = main(["analyze", "--config", path, "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "csv")])
    assert code == 0
    tables = _per_cell_csv(json.loads((tmp_path / "r.json").read_text()))
    assert sorted(tables) == ["connection.csv", "curvature.csv", "griffiths.csv"]
    assert {f: (tmp_path / "csv" / f).read_bytes().decode("utf-8") for f in tables} == tables


def test_csv_writes_crafted_columns_as_the_per_cell_rule(tmp_path):
    column = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2, -1e308, 1.0, 2.5e-17])
    data = {"tasks": {
        "crafted": {"data": {"fields": [{"name": "a", "values": column}, {"name": "b", "values": column[::-1]}]}},
        "empty": {"data": {"fields": [{"name": "c", "values": np.empty(0)}]}},
        "none": {"data": {}},
    }}
    bck.cli._write_csv_fields(data, str(tmp_path))
    tables = _per_cell_csv(data)
    assert sorted(os.listdir(tmp_path)) == ["crafted.csv", "empty.csv"]
    assert {f: (tmp_path / f).read_text() for f in tables} == tables
    assert tables["crafted.csv"].splitlines()[1] == "-0.0,2.5e-17"
    assert tables["empty.csv"] == "c\n"


def run_python(code, *args):
    """Run `python -c code *args` as a separate process that imports bck from this tree.

    PYTHONUNBUFFERED is removed, so stdout stays block-buffered as in a shell
    pipeline and an output that is not flushed at exit goes missing.
    """
    src = str(Path(bck.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_importing_bck_compiles_only_its_modules_and_selfcheck_on_demand(tmp_path):
    # an audit hook counts the source compiled after numpy is imported, with
    # an empty bytecode cache: importing bck.cli compiles its ten modules and
    # no generated code; the selftest corpus is compiled only by a run that
    # asks for it
    probe = (
        "import importlib.util, json, os, sys, numpy\n"
        "sys.dont_write_bytecode, sys.pycache_prefix = True, sys.argv[1]\n"
        "package = importlib.util.find_spec('bck').submodule_search_locations[0]\n"
        "compiled = []\n"
        "sys.addaudithook(lambda e, a: e == 'compile' and compiled.append(a[1]))\n"
        "def bck_modules():\n"
        "    return sorted(os.path.basename(f) for f in compiled if os.path.dirname(str(f)) == package)\n"
        "from bck.cli import main\n"
        "seen = {'generated': compiled.count('<string>'), 'imported': bck_modules()}\n"
        "code = main(['analyze', '--config', sys.argv[2]])\n"
        "seen['analyze'] = (code, 'bck.selfcheck' in sys.modules, bck_modules())\n"
        "seen['selftest'] = (main(['analyze', '--config', sys.argv[3]]), 'bck.selfcheck' in sys.modules)\n"
        "print(json.dumps(seen), file=sys.stderr)\n"
    )
    cache = tmp_path / "cache"
    cache.mkdir()
    plain = write_config(tmp_path, base_config(), "plain.json")
    selftest = write_config(tmp_path, base_config(tasks=["selftest"]), "selftest.json")
    proc = run_python(probe, str(cache), plain, selftest)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stderr.strip().splitlines()[-1])
    modules = ["__init__.py", "chern.py", "cli.py", "errors.py", "forms.py", "grids.py", "kernels.py",
               "linalg.py", "polys.py", "positivity.py"]
    assert seen["generated"] == 0
    assert seen["imported"] == modules
    assert seen["analyze"] == [0, False, modules]
    assert seen["selftest"] == [0, True]
    assert not list(cache.rglob("*.pyc"))


def test_analyze_never_imports_numpy_random(tmp_path):
    # every seeded draw comes from the stdlib Mersenne Twister, so neither
    # numpy.random nor the OpenSSL modules it pulls in through `secrets`
    # are loaded by a run of every task
    cfg = base_config(
        kernel={"variant": "disc_power", "nu": 2},
        subbundle={"frame": [[[{"c": 1}]]]},
        tasks=list(TASK_ORDER),
    )
    cfg["grid"]["axes"][0].update(re_res=3, im_res=3)
    out = tmp_path / "report.json"
    probe = (
        "import sys; from bck.cli import main; code = main(sys.argv[1:]); "
        "print([m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules]); "
        "sys.exit(code)"
    )
    proc = run_python(probe, "analyze", "--config", write_config(tmp_path, cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert sorted(json.loads(out.read_text())["tasks"]) == sorted(TASK_ORDER)


PASSING = base_config()
FAILING = base_config(
    kernel={"variant": "constant", "matrix": [[-1.0]]}, tasks=["psd"], samples={"psd_points": 3}
)
MALFORMED = base_config(tasks=[])


def without_timing(text):
    return re.sub(r'"timing": \{[^{}]*\}', '"timing": null', text)


@pytest.mark.parametrize(
    "cfg, command, code",
    [(PASSING, "analyze", 0), (FAILING, "analyze", 1), (MALFORMED, "analyze", 2),
     (None, "selftest", 0), (None, "selftest --seed -1", 2), (None, "version", 0)],
    ids=["pass", "fail", "config-error", "selftest", "selftest-negative-seed", "version"],
)
def test_in_process_main_leaves_gc_state_alone(tmp_path, capsys, cfg, command, code):
    # only the program run (argv None) freezes its heap: a caller that
    # passes an argv keeps its garbage collector as it was
    argv = command.split()
    if cfg is not None:
        argv += ["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "report.json")]
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(argv) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize(
    "cfg, code, to_stdout",
    [(PASSING, 0, False), (FAILING, 1, True), (MALFORMED, 2, False)],
    ids=["pass", "fail-to-stdout", "config-error"],
)
def test_bck_process_freezes_its_heap_and_keeps_outputs_and_exit_codes(tmp_path, cfg, code, to_stdout):
    # run as the program, `main()` freezes the heap once its outputs are
    # written; an atexit handler registered before it still runs, and sees
    # the frozen heap, and stdout is still flushed at exit
    probe = (
        "import atexit, gc, sys; "
        "atexit.register(lambda: print(f'atexit frozen={gc.get_freeze_count() > 0}', file=sys.stderr)); "
        "from bck.cli import main; sys.exit(main())"
    )
    path = write_config(tmp_path, cfg)
    spawned = tmp_path / "spawned.json"
    proc = run_python(probe, "analyze", "--config", path, *([] if to_stdout else ["--out", str(spawned)]))
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.endswith("atexit frozen=True\n"), proc.stderr
    if code == 2:
        assert proc.stderr.startswith("config error: ") and proc.stdout == ""
        return
    in_process = tmp_path / "in_process.json"
    assert main(["analyze", "--config", path, "--out", str(in_process)]) == code
    text = proc.stdout if to_stdout else spawned.read_text()
    assert without_timing(text) == without_timing(in_process.read_text())


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    import bck

    assert out == bck.__version__


# -- selftest -------------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_selftest_section_shape():
    section = run_selftest()
    assert section["passed"]
    names = [c["name"] for c in section["data"]["checks"]]
    assert "graded product rule" in names
    assert "d squared vanishes" in names


def test_selftest_detects_broken_wedge_sign(monkeypatch):
    real_wedge = bck.forms.wedge

    def broken_wedge(a, b):
        out = real_wedge(a, b)
        if isinstance(a, bck.forms.Form1) and isinstance(b, bck.forms.Form1):
            return type(out)(-out.c20, out.r11, out.c02)  # corrupt one block's sign
        return out

    monkeypatch.setattr(bck.forms, "wedge", broken_wedge)
    entries = {e["name"]: e for e in run_selfcheck(seed=0)}
    assert not entries["graded product rule"]["passed"]
    assert not entries["wedge normalization"]["passed"]


def _track_checks(monkeypatch, log):
    """Wrap every check of the corpus so that, before it runs, it opens a
    new Counter in `log` under its function name, as the last entry."""
    for name in [name for name in vars(bck.selfcheck) if name.startswith("_check_")]:
        real = getattr(bck.selfcheck, name)

        def tracked(rng, real=real, name=name):
            log.pop(name, None)
            log[name] = collections.Counter()
            return real(rng)

        monkeypatch.setattr(bck.selfcheck, name, tracked)


def test_selftest_fails_on_a_nan_product(monkeypatch, capsys):
    # item 1 of the first stacked wedge product of each check is NaN: the
    # check reads NaN and fails, and the finite residuals of its other
    # items do not hide it
    real_wedge, log, poisoned = bck.forms.wedge, {}, ("wedge normalization", "graded product rule")
    _track_checks(monkeypatch, log)

    def nan_in_one_item(a, b):
        out = real_wedge(a, b)
        calls = log[next(reversed(log))]
        calls["wedge"] += 1
        if calls["wedge"] > 1:
            return out
        mask = np.ones((np.shape(out.p if out.degree == 1 else out.c20)[-3], 1, 1))
        mask[1] = np.nan  # the items sit before the fiber matrix
        return out * mask

    monkeypatch.setattr(bck.forms, "wedge", nan_in_one_item)
    entries = {e["name"]: e for e in run_selfcheck(seed=0)}
    for name in poisoned:
        assert np.isnan(entries[name]["residual"]) and not entries[name]["passed"]
    assert all(e["passed"] for name, e in entries.items() if name not in poisoned)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  wedge normalization: residual nan" in out
    assert "FAIL  graded product rule: residual nan" in out


def test_selftest_evaluates_each_polynomial_field_once_on_its_node_stack(monkeypatch):
    # each check makes one library call per identity for all of its items:
    # a loop over items, vectors or polynomials would raise these counts.
    # d(df): one polynomial per item, each once on its 8 x 16 nested nodes;
    # graded product rule: f, g and the two coefficients of the 1-form,
    # each once on z0, the 16 Richardson nodes and the 8 coarse nodes
    log, shapes = {}, []
    _track_checks(monkeypatch, log)

    def count(owner, name, label):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            log[next(reversed(log))][label] += 1
            if label == "polynomial":
                shapes.append(np.shape(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("split_linear", "split_bilinear", "triple_split", "triple_join"):
        count(bck.selfcheck, name, name)
    count(bck.forms, "wedge", "wedge")
    count(bck.forms.Stencil, "on_points", "on_points")
    count(bck.polys.MatrixPolynomial, "__call__", "polynomial")
    assert all(e["passed"] for e in run_selfcheck(seed=0))
    assert log == {
        "_check_projectors": {"split_linear": 2},
        "_check_bilinear_split": {"split_bilinear": 1},
        "_check_wedge_normalization": {"wedge": 1},
        "_check_d_squared": {"on_points": 1, "polynomial": 3},
        "_check_leibniz": {"polynomial": 4, "wedge": 8},
        "_check_triple": {"triple_split": 2, "triple_join": 1},
    }
    assert shapes == [(128, 2)] * 3 + [(25, 2)] * 4


def test_selftest_deterministic_across_runs():
    a = run_selfcheck(seed=0)
    b = run_selfcheck(seed=0)
    assert a == b


def test_user_hook_kernel_variant():
    cfg = base_config(
        kernel={"variant": "user_hook", "target": "_hook:make", "params": {"nu": 2}},
        tasks=["admissibility", "psd"],
        samples={"psd_points": 5},
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    assert report.data["tasks"]["admissibility"]["passed"]
    assert report.data["tasks"]["psd"]["passed"]


def test_user_hook_bad_target_is_config_error():
    with pytest.raises(ConfigError, match="user hook"):
        AnalysisConfig.from_dict(
            base_config(kernel={"variant": "user_hook", "target": "no.such.module:fn"})
        )


def test_selftest_verdicts_stable_across_seeds():
    for seed in (0, 1, 2):
        assert all(e["passed"] for e in run_selfcheck(seed=seed))


def test_full_disc_grid_curvature_run():
    # the flagship run: 21 x 21 box grid clipped to the disc, both
    # curvature routes, closed-form comparison
    cfg = base_config(
        grid={"axes": [{"re": [-0.8, 0.8], "im": [-0.8, 0.8], "re_res": 21, "im_res": 21}]},
        tasks=["curvature"],
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    task = report.data["tasks"]["curvature"]
    assert report.data["grid"]["points_total"] == 441
    assert report.data["grid"]["points_used"] < 441  # corners fall outside the disc
    assert task["passed"]
    assert task["data"]["closed_form_max_rel_err"] <= 1e-5
    assert report.exit_code == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the FD curvature loses accuracy next to the disc "
                   "boundary on a 61 x 61 or finer grid")
def test_flagship_curvature_on_a_61_grid():
    cfg = workload_config("disc-flagship", 1)
    cfg["grid"]["axes"][0].update(re_res=61, im_res=61)
    cfg["tasks"] = ["curvature"]
    task = run_analyze(AnalysisConfig.from_dict(cfg)).data["tasks"]["curvature"]
    assert task["passed"]
    assert task["data"]["closed_form_max_rel_err"] <= 1e-5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_holomorphic_section_kernel_is_not_indefinite(seed):
    # the bundle of holomorphic sections has curvature of one sign under
    # either orientation convention; the metric (E E*)^T of the column
    # frame E^T reads margins of -4.2e-8, -2.9e-8 and -6.5e-8, where
    # E E* read -2.663, -3.717 and -3.075
    cfg = workload_config("sections-d2", seed)
    cfg["tasks"] = ["griffiths"]
    task = run_analyze(AnalysisConfig.from_dict(cfg)).data["tasks"]["griffiths"]
    assert task["data"]["verdict"] != "indefinite"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 26 and 3: theorem55's absolute Cauchy-Riemann residual grows with |K| "
                   "next to the disc boundary; item 26, the cheaper mend, decides a formula-holomorphic "
                   "kernel's premise without the probe")
def test_theorem55_premise_holds_next_to_the_boundary():
    # curvature passes on all 8 points and the admissibility margin reads
    # 1.0, yet the premise reads a Cauchy-Riemann residual of 0.125
    # against 1e-6
    cfg = base_config(
        grid={"axes": [{"re": [0.9999, 0.99999], "im": [-1e-6, 1e-6], "re_res": 4, "im_res": 2, "scale": 0.01}]},
        tasks=["curvature", "theorem55"],
    )
    report = run_analyze(AnalysisConfig.from_dict(cfg)).data
    assert report["grid"]["points_used"] == 8
    assert report["tasks"]["curvature"]["passed"]
    assert report["tasks"]["theorem55"]["data"]["premise"]["satisfied"]


def test_report_json_converts_arrays_in_one_step():
    report = bck.cli.AnalysisReport(
        {
            "floats": np.array([[0.5, -0.0], [1e-300, 3.0]]),
            "ints": np.arange(3),
            "flags": np.array([True, False]),
            "complex": np.array([1 + 2j]),
            "nested": [np.float64(2.5), (np.int64(4), np.bool_(True))],
        }
    )
    assert json.loads(report.to_json()) == {
        "floats": [[0.5, -0.0], [1e-300, 3.0]],
        "ints": [0, 1, 2],
        "flags": [True, False],
        "complex": [{"re": 1.0, "im": 2.0}],
        "nested": [2.5, [4, True]],
    }
    last_column_infinite = {"fields": [{"values": np.ones(3)}, {"values": np.array([1.0, 2.0, np.inf])}]}
    for bad in (np.array([1.0, np.nan]), np.array([[np.inf]]), np.array([1j * np.nan]),
                {"params": {"notes": [1.0, NAN]}}, np.float32(-np.inf), complex(1.0, NAN), last_column_infinite):
        with pytest.raises(StructuralError, match="non-finite"):
            bck.cli.AnalysisReport({"x": bad}).to_json()
