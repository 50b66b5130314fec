"""Config-driven runs: exit codes, determinism, reports, CSV, selftest."""

import copy
import json
import os
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
from bck.cli import (
    TASK_ORDER,
    AnalysisConfig,
    ConfigError,
    main,
    run_analyze,
    run_selftest,
)
from bck.errors import DomainError, StructuralError
from bck.kernels import UserKernel, gram, psd_check
from bck.linalg import Sampler
from bck.selfcheck import run_selfcheck


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
    with pytest.raises(ConfigError, match="resolution"):
        AnalysisConfig.from_dict(cfg)


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"tolerances": {"psd": float("nan")}}, "tolerance 'psd' must be finite, not nan"),
        ({"tolerances": {"dual": float("inf")}}, "tolerance 'dual' must be finite, not inf"),
        ({"fd_steps": {"first": float("nan")}}, "fd_steps.first must be finite, not nan"),
        ({"fd_steps": {"second": float("inf")}}, "fd_steps.second must be finite, not inf"),
        ({"tolerances": {"psd": [1e-8]}}, "tolerance 'psd' must be a number, not [1e-08]"),
        ({"directions": {"seed": -7}}, "the seed must be >= 0, not -7"),
    ],
    ids=["nan-tolerance", "inf-tolerance", "nan-first-step", "inf-second-step",
         "list-tolerance", "negative-seed"],
)
def test_non_finite_tolerances_and_steps_are_config_errors(tmp_path, capsys, overrides, message):
    out = tmp_path / "report.json"
    path = write_config(tmp_path, base_config(**overrides))
    assert main(["analyze", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_non_finite_report_entry_is_a_structural_error(tmp_path, capsys):
    # the report echoes the whole config, so a NaN under a key no check
    # reads reaches serialisation, which now runs inside the guarded region
    out = tmp_path / "report.json"
    kernel = {"variant": "disc_power", "nu": 1, "note": float("nan")}
    path = write_config(tmp_path, base_config(tasks=["psd"], kernel=kernel))
    assert main(["analyze", "--config", path, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("structural error: report contains a non-finite")
    assert not out.exists()


def _set(cfg: dict, path: tuple, value) -> None:
    """Replace the entry of cfg at a path of keys and list indices."""
    for key in path[:-1]:
        cfg = cfg[key]
    cfg[path[-1]] = value


NAN, INF = float("nan"), float("inf")
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
    # misspelt keys, which would otherwise leave their defaults in force
    "misspelt-fd_steps": (("fd_step",), {"first": 1e-3, "second": 1e-2}),
    "misspelt-tolerances": (("tolerance",), {"method_agreement": 1e-30}),
    "misspelt-step": (("fd_steps", "frist"), 1e-3),
    "misspelt-count": (("directions", "cuont"), 4),
    "misspelt-psd_points": (("samples", "psd_point"), 4),
    "misspelt-report": (("output",), {"reprot": "r.json"}),
    "misspelt-axis-scale": (AXIS + ("scael",), 0.5),
}


@pytest.mark.parametrize("path, value", CONFIG_PROBES.values(), ids=CONFIG_PROBES.keys())
def test_every_malformed_config_value_exits_2(tmp_path, capsys, path, value):
    cfg = base_config(tasks=["admissibility", "curvature", "theorem55"])
    _set(cfg, path, value)
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


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
        ("metric", "fiber metric has shape (1, 4), expected (2, 2)"),
        ("metric-row", "fiber metric has shape (1, 4), expected (2, 2)"),
        ("contains", "domain test has shape (2,), expected ()"),
        ("distance", "boundary distance has shape (2,), expected ()"),
    ],
    ids=["metric", "metric-row", "contains", "distance"],
)
def test_user_hook_values_of_the_wrong_shape_exit_4(tmp_path, capsys, where, message):
    # a flat fiber metric [1, .5, .5, 1] must not be read as [[1, .5], [.5, 1]]
    hook = {"variant": "user_hook", "target": "_hook:make_misshapen", "params": {"where": where}}
    out = tmp_path / "report.json"
    code = main(["analyze", "--config", write_config(tmp_path, base_config(kernel=hook)), "--out", str(out)])
    err = capsys.readouterr().err
    # a metric fails inside its task, a domain hook while the grid is built
    errors = [t["error"] for t in json.loads(out.read_text())["tasks"].values()] if out.exists() else [err]
    assert code == 4 and errors == [message if out.exists() else f"structural error: {message}\n"]


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
    monkeypatch.setattr(bck.cli, "gram", lambda spec, points: sampled.append(points) or gram(spec, points))
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


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("BCK_SEED", "99")
    config = AnalysisConfig.from_dict(base_config())
    assert config.seed == 99
    monkeypatch.setenv("BCK_SEED", "not-an-int")
    with pytest.raises(ConfigError, match="BCK_SEED"):
        AnalysisConfig.from_dict(base_config())


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


GRASSMANN_D2 = {
    "kernel": {"variant": "universal_grassmann", "ambient_dim": 3, "rank": 1},
    "grid": {"axes": [{"re": [-0.4, 0.4], "im": [-0.4, 0.4], "re_res": 2, "im_res": 2}] * 2},
}


def test_curvature_and_griffiths_computed_once_per_run(monkeypatch):
    # every grid field is built once per run, over all points, however many
    # tasks read it
    builders = (
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
    tasks = ["connection", "curvature", "compatibility", "dual", "griffiths", "theorem55"]
    # the Grassmann kernel is not holomorphic: theorem55 stops at its premise
    for overrides, status in (({}, "verified"), (GRASSMANN_D2, "hypothesis_not_met")):
        calls.clear()
        report = run_analyze(AnalysisConfig.from_dict(base_config(tasks=tasks, **overrides)))
        assert report.data["grid"]["points_used"] > 0
        assert sorted(calls) == sorted(builders)
        data = json.loads(report.to_json())["tasks"]
        assert all(data[t]["status"] != "error" for t in tasks)
        assert data["theorem55"]["status"] == status
    assert data["theorem55"]["data"]["conclusion"] is None
    report = run_analyze(AnalysisConfig.from_dict(base_config(tasks=tasks)))
    data = json.loads(report.to_json())["tasks"]
    assert data["theorem55"]["data"]["conclusion"] == data["griffiths"]["data"]


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
    # stacks of 1 x 1 and 2 x 2 fiber matrices take the closed forms of
    # bck.linalg; LAPACK sees whole matrices only: the PSD Gram assembly, the
    # section Gram (checked once) and the stack of Griffiths forms
    calls = []
    for name in ("svd", "solve", "inv", "eigvalsh", "eigh"):

        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for overrides, n in ((SECTIONS_D2, 2), (GRASSMANN_D2, 1)):
        tasks = [t for t in TASK_ORDER if n == 2 or t != "subbundle"]
        calls.clear()
        report = run_analyze(AnalysisConfig.from_dict(base_config(tasks=tasks, **overrides)))
        data = json.loads(report.to_json())["tasks"]
        assert all(data[t]["status"] != "error" for t in tasks), data
        points = report.data["grid"]["points_used"]
        directions = 2 * 2 + 6  # the axes, their i-rotations and the seeded sample
        gram, griffiths = ("eigvalsh", (10 * n, 10 * n)), ("eigh", (points, directions, n, n))
        allowed = {gram, griffiths} | ({("eigvalsh", (3, 3))} if n == 2 else set())
        assert set(calls) <= allowed, sorted(set(calls) - allowed)
        assert calls.count(gram) == calls.count(griffiths) == 1


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
    src = str(Path(bck.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("BCK_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", probe, "analyze", "--config", write_config(tmp_path, cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert sorted(json.loads(out.read_text())["tasks"]) == sorted(TASK_ORDER)


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
    entries = run_selfcheck(seed=0)
    leibniz = next(e for e in entries if e["name"] == "graded product rule")
    assert not leibniz["passed"]


def test_selftest_evaluates_each_polynomial_field_once_on_its_node_stack(monkeypatch):
    # d(df): one call per polynomial on the 8 x 16 nested nodes; graded
    # product rule: f, g and the 2 d one-form coefficients once each on z0,
    # the 16 Richardson nodes and the 8 coarse nodes
    calls = []
    real = bck.polys.MatrixPolynomial.__call__

    def counted(self, z):
        calls.append(np.shape(z))
        return real(self, z)

    monkeypatch.setattr(bck.polys.MatrixPolynomial, "__call__", counted)
    assert all(e["passed"] for e in run_selfcheck(seed=0))
    assert calls == [(128, 2)] * 3 + [(25, 2)] * 18


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
    for bad in (np.array([1.0, np.nan]), np.array([[np.inf]]), np.array([1j * np.nan])):
        with pytest.raises(StructuralError, match="non-finite"):
            bck.cli.AnalysisReport({"x": bad}).to_json()
