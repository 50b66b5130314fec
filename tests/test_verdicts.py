"""Decisions: the pinned workloads' table of verdicts, and laws under which
a change of input that leaves the bundle as it is must leave every verdict,
status and exit code as they are.

The table pins each task's (passed, status) and the exit code of the three
workloads of perfbench/workloads.py on seeds 1-3, and holds the recorded
`SEED_VERDICTS` against it.

The scale law: K -> cK with c > 0 multiplies the metric by c and leaves the
Chern connection and its curvature unchanged, so no decision may move with
c.  Where one does through a known defect, the case is a strict xfail that
names its ROADMAP item.

The frame law: a unitary change U of fiber frame maps the kernel blocks to
U* kappa U and the fiber metric to U* h0 U, so the metric to U* h U, the
same bundle in another frame; every decision stays, and the Griffiths
margins are spectra of matrices that U conjugates.
"""

import numpy as np
import pytest

from bck.chern import FdSteps, analytic_curvature_field, metric_from_kernel, metric_jet
from bck.cli import TASK_ORDER, AnalysisConfig, AnalysisReport, run_analyze
from bck.forms import replace
from bck.kernels import KernelSpec, disc_power, universal_grassmann
from bck.linalg import adjoint
from bck.positivity import griffiths_verdict

from _fields import MappedKernel, cmat, perfbench_workloads, workload_config

ITEM_19 = "ROADMAP item 19: a decision compares a quantity that scales with the kernel against an absolute threshold"

OK = (True, "ok")

# workload -> (exit code, each task's (passed, status)), the same on seeds 1-3
TABLE = {
    "disc-flagship": (0, {**dict.fromkeys(TASK_ORDER, OK), "theorem55": (True, "verified")}),
    "grassmann-d2": (1, {
        **dict.fromkeys(["psd", "admissibility", "connection", "curvature", "dual", "griffiths"], OK),
        "theorem55": (False, "hypothesis_not_met"),  # GrassmannKernel.holomorphic is False (item 1)
    }),
    "sections-d2": (1, {
        **dict.fromkeys(["psd", "admissibility", "curvature", "dual"], OK),
        "griffiths": (False, "ok"),  # indefinite through item 1's convention
        "theorem55": (False, "conclusion_failed"),
    }),
}


def _decisions(report: AnalysisReport):
    return report.exit_code, {name: (t["passed"], t["status"]) for name, t in report.data["tasks"].items()}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", list(TABLE))
def test_workload_decisions_are_the_table(workload, seed):
    report = run_analyze(AnalysisConfig.from_dict(workload_config(workload, seed)))
    assert _decisions(report) == TABLE[workload]
    # and each decision is the AND of the task's gate records
    assert all(task["passed"] == all(gate["passed"] for gate in task["gates"].values())
               for task in report.data["tasks"].values())


def test_recorded_seed_verdicts_differ_from_the_table_only_in_the_stale_dual_rows():
    # perfbench/workloads.SEED_VERDICTS, on every task that a report has:
    # its `dual` rows of grassmann-d2 and sections-d2 still read (False, ok)
    # from before `dual` was mended, and runs read (True, ok)
    recorded = perfbench_workloads().SEED_VERDICTS
    mismatches = {
        (workload, task): (recorded[workload].get(task), decision)
        for workload, (_, decisions) in TABLE.items()
        for task, decision in decisions.items()
        if recorded[workload].get(task) != decision
    }
    assert mismatches == {("grassmann-d2", "dual"): ((False, "ok"), OK), ("sections-d2", "dual"): ((False, "ok"), OK)}


class FrameChanged(MappedKernel):
    """A kernel in the unitary fiber frame U: blocks U* kappa U and fiber
    metric U* h0 U."""

    def __init__(self, base: KernelSpec, u: np.ndarray):
        super().__init__(base, lambda z, w, blocks: adjoint(u) @ blocks @ u)
        self.u = u

    def fiber_metric_batch(self, z):
        return adjoint(self.u) @ self.base.fiber_metric_batch(z) @ self.u


def _grassmann_32() -> dict:
    # Gr(3, 2) on a 3 x 3-per-axis grid in +-0.4: rank 2 with h0 != I
    cfg = workload_config("grassmann-d2", 1)
    axis = {"re": [-0.4, 0.4], "im": [-0.4, 0.4], "re_res": 3, "im_res": 3}
    cfg["kernel"]["rank"], cfg["grid"]["axes"] = 2, [axis, axis]
    cfg["tasks"] = ["psd", "admissibility", "connection", "curvature", "dual", "griffiths", "theorem55"]
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [workload_config(name, 1) for name in TABLE] + [_grassmann_32()],
    ids=[*TABLE, "grassmann-3-2"],
)
def test_a_unitary_change_of_fiber_frame_keeps_every_decision(cfg):
    config = AnalysisConfig.from_dict(cfg)
    u, _ = np.linalg.qr(cmat(np.random.default_rng(1), config.kernel.fiber_dim, config.kernel.fiber_dim))
    base = run_analyze(config)
    moved = run_analyze(replace(config, kernel=FrameChanged(config.kernel, u)))
    assert _decisions(moved) == _decisions(base)
    margin, moved_margin = (report.data["tasks"]["griffiths"]["data"]["min_margin"] for report in (base, moved))
    assert abs(moved_margin - margin) <= 1e-7 * max(1.0, abs(margin))


def _scaled(base: KernelSpec, c: float) -> KernelSpec:
    """c times a kernel: the same bundle, its metric times c."""
    return MappedKernel(base, lambda z, w, blocks: c * blocks)


def _sections_decisions(c: float):
    # sections-d2, seed 1, with the section Gram matrix I / c: h -> c h
    cfg = workload_config("sections-d2", 1)
    cfg["kernel"]["gram"] = (np.eye(3) / c).tolist()
    return _decisions(run_analyze(AnalysisConfig.from_dict(cfg)))


@pytest.mark.parametrize(
    "c",
    [
        1e-3,
        1e3,
        # griffiths reads nonnegative and theorem55 verified: the run exits 0
        pytest.param(1e-8, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_19)),
        # psd fails at margin -1.75e-5 and theorem55 reads hypothesis_not_met
        pytest.param(1e8, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_19)),
    ],
)
def test_sections_run_decisions_do_not_depend_on_the_kernel_scale(c):
    assert _sections_decisions(c) == _sections_decisions(1.0)


def _griffiths(spec: KernelSpec, points: np.ndarray) -> str:
    metric = metric_from_kernel(spec)
    field = analytic_curvature_field(metric_jet(metric, points, FdSteps(richardson=True)))
    return griffiths_verdict(metric, field, points, directions=16, seed=1).verdict


def _grassmann_points():  # 20 points of Gr(4, 2)'s chart, coordinates in +-0.3
    rng = np.random.default_rng(1)
    return rng.uniform(-0.3, 0.3, (20, 4)) + 1j * rng.uniform(-0.3, 0.3, (20, 4))


def _disc_points():  # a 5 x 5 grid in +-0.5
    axis = np.linspace(-0.5, 0.5, 5)
    return (axis[:, None] + 1j * axis[None, :]).reshape(-1, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_19)
@pytest.mark.parametrize("c", [10.0, 100.0])
def test_grassmann_griffiths_verdict_does_not_depend_on_the_kernel_scale(c):
    # Gr(4, 2) has an exact Griffiths margin of 0, and its FD margins read
    # about -1.2e-7 at c = 1 (nonnegative), -2.3e-6 at c = 10 and -1.5e-5
    # at c = 100 against the absolute 1e-6
    kernel, pts = universal_grassmann(4, 2), _grassmann_points()
    assert _griffiths(_scaled(kernel, c), pts) == _griffiths(kernel, pts) == "nonnegative"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_19)
def test_disc_griffiths_verdict_does_not_depend_on_the_kernel_scale():
    # the margin is about 4 c: below the absolute 1e-6 it reads nonnegative
    kernel, pts = disc_power(2), _disc_points()
    assert _griffiths(_scaled(kernel, 1e-9), pts) == _griffiths(kernel, pts) == "positive"
