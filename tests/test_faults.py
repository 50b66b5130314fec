"""A planted-fault corpus: every number a task reports names the check behind it.

Each number under `tasks.<task>.data` of a report, and each key of its
`tasks.<task>.gates`, is in `TABLE`, as one of

* a `Gate`: a key of the task's gate records; a fault planted here, in
  process (a monkeypatch or an in-test wrapper), pushes the number past
  its bound, turns the key's gate record and the task's `passed` false,
  while the same config without the fault passes them;
* a `Structural`: a number whose check raises a structural error, so
  that a fault past it leaves no number and no gate;
* an `Info`: a number that decides nothing, with the file that reads it.

The key walk fails on a report number or gate the table lacks, on a row
that no report has, on a `Gate` row that no report gates, and on a task
of `bck.cli` without a row, so a new task, report number or gate names
the check that catches it before it lands.  This is
mutation analysis (DeMillo, Lipton and Sayward, IEEE Computer 11, 1978)
applied to bck's own checks.
"""

from functools import cache
from numbers import Real
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import bck.chern
import bck.cli
import bck.forms
import bck.kernels
import bck.selfcheck
from bck.cli import AnalysisConfig, run_analyze
from bck.forms import Form1, Form2, Stencil, replace
from bck.kernels import SectionKernel, gram, psd_check

from _fields import MappedKernel

ROOT = Path(__file__).resolve().parents[1]


def _axis(lo: float, hi: float, res: int) -> dict:
    return {"re": [lo, hi], "im": [lo, hi], "re_res": res, "im_res": res}


def _mono(c, *p) -> list:
    return [{"c": c, "p": list(p)}]


# Small configs: a d = 1 disc that runs and passes every task, a d = 2
# Grassmannian for the (2,0) gate, and d = 2 sections with a subbundle
# frame of rank 1 in a rank-2 bundle.
CONFIGS = {
    "disc": {
        "kernel": {"variant": "disc_power", "nu": 2},
        "grid": {"axes": [_axis(-0.6, 0.6, 5)]},
        "fd_steps": {"richardson": True},
        "directions": {"count": 4, "seed": 1},
        "samples": {"psd_points": 20},
        "subbundle": {"frame": [[_mono(1, 0)]]},
        "tasks": list(bck.cli.TASK_ORDER),
    },
    "grassmann": {
        "kernel": {"variant": "universal_grassmann", "ambient_dim": 3, "rank": 1},
        "grid": {"axes": [_axis(-0.5, 0.5, 2)] * 2},
        "directions": {"count": 4, "seed": 1},
        "tasks": ["connection", "curvature", "dual", "griffiths"],
    },
    "sections": {
        "kernel": {"variant": "from_sections", "base_dim": 2, "entries": [
            [_mono(1, 0, 0), _mono(1, 1, 0), _mono(0.5, 0, 1)],
            [_mono(0, 0, 0), _mono(1, 0, 0), _mono(0.3, 1, 0) + _mono(0.4, 1, 1)],
        ]},
        "grid": {"axes": [_axis(-0.4, 0.4, 2)] * 2},
        "subbundle": {"frame": [[_mono(1, 0, 0)], [_mono(0.5, 1, 0)]]},
        "tasks": ["curvature", "dual", "subbundle"],
    },
}


@cache
def _report(name: str, fault=None, tasks: tuple[str, ...] | None = None) -> dict:
    """The report of a config, with `fault` planted and only `tasks` run when given."""
    raw = dict(CONFIGS[name], tasks=list(tasks or CONFIGS[name]["tasks"]))
    config = AnalysisConfig.from_dict(raw)
    if fault is None:
        return run_analyze(config).data
    with pytest.MonkeyPatch.context() as patch:
        return run_analyze(fault(patch, config)).data


def _numbers(data: dict, prefix: str = ""):
    """(key, value, the dict that holds it) for every number of a task's
    data; witnesses and field columns are points and arrays, not report
    numbers, and a list entry is keyed by its `name`."""
    for key, value in data.items():
        path = prefix + key
        if key in ("witness_points", "fields"):
            continue
        if isinstance(value, dict):
            yield from _numbers(value, path + ".")
        elif isinstance(value, list):
            for entry in value:
                yield from _numbers(entry, f"{path}[{entry['name']}].")
        elif isinstance(value, Real) and not isinstance(value, bool):
            yield path, value, data


def _lookup(data: dict, key: str):
    """The value under a `_numbers` key and the dict that holds it, or (None, None)."""
    found = {path: (value, holder) for path, value, holder in _numbers(data)}
    return found.get(key, (None, None))


# ---------------------------------------------------------------------------
# the faults: each takes a MonkeyPatch and the config, and returns the
# config to run
# ---------------------------------------------------------------------------


def _kernel(blocks):
    """The fault of a config whose kernel has `blocks` in place of its own."""
    return lambda patch, config: replace(config, kernel=MappedKernel(config.kernel, blocks))


def _not_psd(z, w, k):  # minus a constant kernel larger than K(0, 0)
    return k - 2.0


def _singular_at_zero(z, w, k):  # the sections z K(., t) xi vanish at z = 0
    return (z[..., 0] * np.conj(w[..., 0]))[..., None, None] * k


def _not_holomorphic(z, w, k):  # plus |z|^2 |w|^2: still positive, not holomorphic
    return k + (np.abs(z[..., 0]) ** 2 * np.abs(w[..., 0]) ** 2)[..., None, None]


def _unclaimed(patch, config):  # the kernel itself, claiming no holomorphy
    kernel = MappedKernel(config.kernel, lambda z, w, k: k)
    kernel.holomorphic = False
    return replace(config, kernel=kernel)


def _patched(module, name, wrap):
    """The fault of a config run with `module.name` replaced by wrap(module.name)."""

    def fault(patch, config):
        patch.setattr(module, name, wrap(getattr(module, name)))
        return config

    return fault


def _then(change):
    """The wrap of a function whose result goes through `change`."""
    return lambda real: lambda *args, **kwargs: change(real(*args, **kwargs))


def _r11(change):
    """The wrap of a curvature route whose field has r11 -> change(r11)."""
    return _then(lambda field: replace(field, form=replace(field.form, r11=change(field.form.r11))))


def _one_forms(a, b) -> bool:
    return getattr(a, "degree", 0) == getattr(b, "degree", 0) == 1


def _symmetrized_wedge(real):  # c20 = pp + pp^T, where A ^ A has pp - pp^T
    def wedge(a, b):
        if not _one_forms(a, b):
            return real(a, b)
        pp = a.p[:, None] @ b.p[None]
        return replace(real(a, b), c20=pp + np.swapaxes(pp, 0, 1))

    return wedge


def _flipped_wedge(real):  # (a ^ b)(v, w) = a(w) b(v) - a(v) b(w) for two 1-forms
    return lambda a, b: real(a, b) * -1 if _one_forms(a, b) else real(a, b)


def _d_sign(block: str):
    """The wrap of Stencil.exterior_derivative whose d of a 1-form adds the
    transposed term of one Form2 block where it subtracts it."""

    def wrap(real):
        def exterior_derivative(self, values):
            if not isinstance(values, Form1):
                return real(self, values)
            dp_p, dq_p = self.first_derivatives(values.p)
            dp_q, dq_q = self.first_derivatives(values.q)
            terms = {"c20": (dp_p, dp_p), "r11": (dq_p, dp_q), "c02": (dq_q, dq_q)}
            sign = {name: 1.0 if name == block else -1.0 for name in terms}
            return Form2(**{name: a + sign[name] * np.swapaxes(b, 0, 1) for name, (a, b) in terms.items()})

        return exterior_derivative

    return wrap


def _tilted_frame(patch, config):  # the subbundle frame plus 0.1 |z|^2 in its first entry
    frame = config.subbundle_frame

    def tilted(z):
        f = np.array(frame(z), dtype=complex)
        f[..., 0, 0] += 0.1 * np.sum(np.abs(z) ** 2, axis=-1)
        return f

    return replace(config, subbundle_frame=tilted)


OFF = 1 + 1e-3


FAULTS = {
    "scaled connection solve": _patched(
        bck.cli, "chern_connection_field", _then(lambda conn: replace(conn, form=conn.form * OFF))),
    "scaled nested curvature": _patched(bck.cli, "nested_curvature_field", _r11(lambda r: r * OFF)),
    "symmetrized (2,0) block of the nested A ^ A": _patched(bck.chern, "wedge", _symmetrized_wedge),
    "non-PSD kernel": _kernel(_not_psd),
    "kernel with one singular diagonal block": _kernel(_singular_at_zero),
    "kernel claimed holomorphic that is not": _kernel(_not_holomorphic),
    "kernel that claims no holomorphy": _unclaimed,
    "flipped curvature sign": _patched(bck.cli, "analytic_curvature_field", _r11(lambda r: -r)),
    "curvature with a phase": _patched(bck.cli, "analytic_curvature_field", _r11(lambda r: r * (1 + 1e-3j))),
    "subbundle frame with a |z|^2 term": _tilted_frame,
    "split_linear's (1,0) part scaled": _patched(
        bck.selfcheck, "split_linear", _then(lambda parts: (parts[0] * OFF, parts[1]))),
    "split_bilinear's (1,1) block scaled": _patched(
        bck.selfcheck, "split_bilinear", _then(lambda form: replace(form, r11=form.r11 * OFF))),
    "wedge sign flipped": _patched(bck.forms, "wedge", _flipped_wedge),
    "d with a (1,1) sign flipped": _patched(Stencil, "exterior_derivative", _d_sign("r11")),
    "d with a (2,0) sign flipped": _patched(Stencil, "exterior_derivative", _d_sign("c20")),
    "d with a (0,2) sign flipped": _patched(Stencil, "exterior_derivative", _d_sign("c02")),
    "triple_join's Herm part scaled": _patched(
        bck.selfcheck, "triple_join", _then(lambda t: replace(t, herm=t.herm.combine(t.herm, 1.0, OFF - 1)))),
}


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


class Gate(NamedTuple):
    """A gate of its task, the fault that fails it and its `bound`: "<= name"
    or ">= name", name a run tolerance ("-name" its negative) or a number of
    the task's data, which the gate record names as its `tolerance`; or
    "holds" for a condition, whose record names no tolerance."""

    config: str
    fault: str
    bound: str

    def tolerance(self) -> str | None:
        return None if self.bound == "holds" else self.bound.split(" ", 1)[1].lstrip("-")

    def holds(self, value, data: dict, tolerances: dict) -> bool:
        op, name = self.bound.split(" ", 1)
        limit = _lookup(data, self.tolerance())[0]
        limit = tolerances[self.tolerance()] if limit is None else limit
        limit = -limit if name.startswith("-") else limit
        return value <= limit if op == "<=" else value >= limit


class Structural(NamedTuple):
    """A report number whose check raises a structural error, and the fault that raises it."""

    config: str
    fault: str


class Info(NamedTuple):
    """A report number that decides nothing, and the file that reads it."""

    reader: str


_SELFTEST_GATES = {
    "split_linear round trip": "split_linear's (1,0) part scaled",
    "split_linear idempotence": "split_linear's (1,0) part scaled",
    "split_bilinear reassembly": "split_bilinear's (1,1) block scaled",
    "wedge normalization": "wedge sign flipped",
    "d squared vanishes": "d with a (1,1) sign flipped",
    "delbar squared vanishes": "d with a (0,2) sign flipped",
    "del squared vanishes": "d with a (2,0) sign flipped",
    "graded product rule": "wedge sign flipped",
    "triple join after split": "triple_join's Herm part scaled",
    "triple split after join": "triple_join's Herm part scaled",
}

TABLE = {
    "selftest": {
        **{f"checks[{name}].residual": Gate("disc", fault, f"<= checks[{name}].tolerance")
           for name, fault in _SELFTEST_GATES.items()},
        **{f"checks[{name}].tolerance": Info("src/bck/cli.py") for name in _SELFTEST_GATES},  # `bck selftest` prints it
    },
    "psd": {
        "margin": Gate("disc", "non-PSD kernel", ">= -psd"),
        "sample_points": Info("README.md"),
    },
    "admissibility": {
        "min_relative_margin": Gate("disc", "kernel with one singular diagonal block", ">= admissibility"),
        "invertible": Gate("disc", "kernel with one singular diagonal block", "holds"),
        "points": Info("README.md"),
    },
    "connection": {
        "max_relative_metric_residual": Gate("disc", "scaled connection solve", "<= compatibility"),
        "closed_form_max_abs_err": Info("perfbench/workloads.py"),  # the disc oracle
    },
    "curvature": {
        "max_method_disagreement": Gate("disc", "scaled nested curvature", "<= method_agreement"),
        "max_relative_purity_residual": Gate("grassmann", "symmetrized (2,0) block of the nested A ^ A", "<= purity"),
        "max_pairing_residual": Info("README.md"),
        "closed_form_max_rel_err": Info("tests/test_cli.py"),  # the disc oracle
    },
    "dual": {
        # a phase breaks the pairing identity that the pulled-back conj(Theta) is checked against
        "max_residual": Gate("sections", "curvature with a phase", "<= dual"),
    },
    "subbundle": {
        "max_identity_residual": Gate("sections", "subbundle frame with a |z|^2 term", "<= subbundle"),
        "max_beta_antiholo_residual": Info("README.md"),
    },
    "griffiths": {
        "min_margin": Gate("disc", "flipped curvature sign", ">= -neg"),
        "max_hermiticity_residual": Structural("disc", "curvature with a phase"),
        "directions": Info("perfbench/tracer.py"),
    },
    "theorem55": {
        "premise.holomorphic": Gate("disc", "kernel that claims no holomorphy", "holds"),
        "premise.invertible": Gate("disc", "kernel with one singular diagonal block", "holds"),
        "premise.cauchy_riemann_residual": Gate("disc", "kernel claimed holomorphic that is not", "<= holomorphy"),
        "premise.min_admissibility_margin": Gate(
            "disc", "kernel with one singular diagonal block", ">= admissibility"),
        "conclusion.min_margin": Gate("disc", "flipped curvature sign", ">= -neg"),
    },
}

ROWS = [(task, key, row) for task, rows in TABLE.items() for key, row in rows.items()]
GATES = [(task, key, row) for task, key, row in ROWS if isinstance(row, Gate)]
STRUCTURAL = [(task, key, row) for task, key, row in ROWS if isinstance(row, Structural)]
INFOS = [(task, key, row) for task, key, row in ROWS if isinstance(row, Info)]


def _reported() -> set[tuple[str, str]]:
    return {(task, key) for name in CONFIGS for task, entry in _report(name)["tasks"].items()
            for key, _, _ in _numbers(entry["data"])}


def _gated() -> set[tuple[str, str]]:
    return {(task, key) for name in CONFIGS for task, entry in _report(name)["tasks"].items()
            for key in entry["gates"]}


def test_every_task_has_rows():
    assert set(TABLE) == set(bck.cli.TASK_ORDER)


def test_every_report_number_has_a_row():
    assert _reported() - {(task, key) for task, key, _ in ROWS} == set()


def test_every_row_is_a_report_number():
    # but a condition's, which gates no number and is a report gate
    assert {(task, key) for task, key, row in ROWS if getattr(row, "bound", None) != "holds"} - _reported() == set()


def test_every_report_gate_has_a_gate_row():
    assert _gated() - {(task, key) for task, key, _ in GATES} == set()


def test_every_gate_row_is_a_report_gate():
    assert {(task, key) for task, key, _ in GATES} - _gated() == set()


@pytest.mark.parametrize("task, key, row", INFOS, ids=[f"{task}.{key}" for task, key, _ in INFOS])
def test_an_information_number_names_its_reader(task, key, row):
    leaf = key.rsplit(".", 1)[-1]
    text = (ROOT / row.reader).read_text(encoding="utf-8")
    assert any(f"{quote}{leaf}{quote}" in text for quote in "`\"'"), (row.reader, leaf)


@pytest.mark.parametrize("task, key, row", GATES, ids=[f"{task}.{key}" for task, key, _ in GATES])
def test_a_planted_fault_fails_the_gate(task, key, row):
    clean = _report(row.config)["tasks"][task]
    assert clean["passed"] and clean["gates"][key] == {"tolerance": row.tolerance(), "passed": True}, clean
    value = _lookup(clean["data"], key)[0]
    if row.bound != "holds":
        assert row.holds(value, clean["data"], _report(row.config)["tolerances"]), (key, value)

    faulted = _report(row.config, FAULTS[row.fault], (task,))
    entry = faulted["tasks"][task]
    assert entry["passed"] is False, (key, row.fault)
    assert entry["gates"][key] == {"tolerance": row.tolerance(), "passed": False}, (key, row.fault, entry)
    if row.bound != "holds":
        value = _lookup(entry["data"], key)[0]
        assert value is not None, (key, row.fault, entry["error"])
        assert not row.holds(value, entry["data"], faulted["tolerances"]), (key, row.fault, value)


@pytest.mark.parametrize("task, key, row", STRUCTURAL, ids=[f"{task}.{key}" for task, key, _ in STRUCTURAL])
def test_a_planted_fault_raises_the_structural_check(task, key, row):
    assert _report(row.config)["tasks"][task]["passed"]
    entry = _report(row.config, FAULTS[row.fault], (task,))["tasks"][task]
    assert (entry["passed"], entry["error_kind"], entry["gates"]) == (False, "structural", {}), entry


def test_passed_status_and_exit_code_are_read_from_the_gates():
    # every report of the corpus, clean and faulted: a task that ran passes
    # when all of its gates do, theorem55's status names the first group of
    # gates that fails, and the exit code is 1 exactly when a gate fails
    # and no task raised
    reports = [_report(name) for name in CONFIGS] + [
        _report(row.config, FAULTS[row.fault], (task,)) for task, _, row in GATES + STRUCTURAL]
    for report in reports:
        ran = [entry for entry in report["tasks"].values() if entry["status"] != "error"]
        for entry in ran:
            assert entry["passed"] == all(gate["passed"] for gate in entry["gates"].values()), entry
        theorem55 = report["tasks"].get("theorem55", {"status": "error"})
        if theorem55["status"] != "error":
            failed = {key.split(".")[0] for key, gate in theorem55["gates"].items() if not gate["passed"]}
            wanted = "hypothesis_not_met" if "premise" in failed else "conclusion_failed" if failed else "verified"
            assert theorem55["status"] == wanted, theorem55
        if len(ran) == len(report["tasks"]):
            assert report["exit_code"] == int(not all(entry["passed"] for entry in ran)), report["tasks"]


def test_a_wrong_dbar_passes_selftest_and_fails_the_run():
    """The selftest corpus cannot see a wrong dzbar in the stencils: every
    identity it checks holds for any consistent linear difference operator.
    The run's own curvature, connection and dual checks do, and so does
    the subbundle identity for a frame of rank k < n."""
    # Stencil.first_derivatives with q = (fx + fy) / 2 where it is (fx + i fy) / 2
    wrong = _patched(Stencil, "first_derivatives",
                     _then(lambda pq: (pq[0], 0.5 * ((pq[0] + pq[1]) + 1j * (pq[0] - pq[1])))))
    report = _report("disc", wrong)
    tasks = report["tasks"]
    assert all(check["passed"] for check in tasks["selftest"]["data"]["checks"])
    assert not any(tasks[name]["passed"] for name in ("connection", "curvature", "dual"))
    assert report["exit_code"] == 4
    # the disc's frame spans its rank-1 fiber (k = n), so block11 and
    # theta_sub are one curvature computed twice and agree under any fault
    assert tasks["subbundle"]["passed"]
    sections = _report("sections", wrong)  # a rank-1 frame of a rank-2 bundle
    subbundle = sections["tasks"]["subbundle"]
    assert not subbundle["passed"]
    assert subbundle["data"]["max_identity_residual"] > sections["tolerances"]["subbundle"]


class _OffFactor(SectionKernel):
    """A section kernel plus 1e-6 I in every block: the assembly stays
    Hermitian and positive semidefinite, but leaves the kernel's factor."""

    def __init__(self, base: SectionKernel):
        self.__dict__.update(vars(base))

    def eval_many(self, z, w):
        return super().eval_many(z, w) + 1e-6 * np.eye(self.fiber_dim)


def test_a_section_kernel_whose_blocks_leave_its_factor_fails_psd():
    # the "non-PSD kernel" row's wrapper has no factor and keeps eigvalsh;
    # this fault is PSD, so only the factor's residual can catch it
    config = AnalysisConfig.from_dict({
        "kernel": {"variant": "universal_grassmann", "ambient_dim": 4, "rank": 2},
        "grid": {"axes": [_axis(-0.5, 0.5, 2)] * 4},
        "samples": {"psd_points": 20},
        "tasks": ["psd"],
    })
    clean = run_analyze(config).data["tasks"]["psd"]
    assert clean["passed"] and clean["gates"]["margin"] == {"tolerance": "psd", "passed": True}, clean
    faulted = run_analyze(replace(config, kernel=_OffFactor(config.kernel))).data
    entry = faulted["tasks"]["psd"]
    assert entry["gates"]["margin"] == {"tolerance": "psd", "passed": False}, entry
    assert (entry["passed"], faulted["exit_code"]) == (False, 1)
    # ||1e-6 J (x) I_2||_F for the all-ones 20 x 20 J, summed over the tiles
    assert entry["data"]["margin"] == pytest.approx(-1e-6 * 20 * np.sqrt(2), rel=1e-6)
    rng = np.random.default_rng(1)
    g = gram(_OffFactor(config.kernel), rng.uniform(-0.5, 0.5, (20, 4)) + 1j * rng.uniform(-0.5, 0.5, (20, 4)))
    assert psd_check(g) >= -faulted["tolerances"]["psd"]  # the spectrum alone passes


class _SkewedAcross(SectionKernel):
    """A section kernel plus 1e-6 E_12 in the block kappa(z, w) where
    Re z_0 > Re w_0: kappa(w, z) gains nothing, so the skew sits between
    two points, and the block of one point with itself stays Hermitian."""

    def __init__(self, base: SectionKernel):
        self.__dict__.update(vars(base))

    def eval_many(self, z, w):
        above = np.real(np.asarray(z)[..., 0]) > np.real(np.asarray(w)[..., 0])
        return super().eval_many(z, w) + 1e-6 * above[..., None, None] * np.eye(self.fiber_dim, k=1)


def test_psd_reads_the_skew_of_the_mirror_tiles(monkeypatch):
    # with tiles of one point every diagonal tile is Hermitian, and every
    # skew pairs a tile above the diagonal with its mirror below: a walk
    # that read the tiles above alone would pass this kernel
    config = AnalysisConfig.from_dict({
        "kernel": {"variant": "universal_grassmann", "ambient_dim": 4, "rank": 2},
        "grid": {"axes": [_axis(-0.5, 0.5, 2)] * 4},
        "samples": {"psd_points": 20},
        "tasks": ["psd"],
    })
    monkeypatch.setattr(bck.kernels, "_GRAM_TILE", config.kernel.fiber_dim)
    assert run_analyze(config).data["tasks"]["psd"]["passed"]
    faulted = run_analyze(replace(config, kernel=_SkewedAcross(config.kernel))).data
    entry = faulted["tasks"]["psd"]
    assert (entry["passed"], entry["error_kind"], faulted["exit_code"]) == (False, "structural", 4), entry
    assert "matrix is not Hermitian" in entry["error"], entry
