"""Laws on decisions: a change of input that leaves the bundle as it is must
leave every verdict, status and exit code as they are.

The first law is the scale law.  K -> cK with c > 0 multiplies the metric
by c and leaves the Chern connection and its curvature unchanged, so no
decision may move with c.  Where one does through a known defect, the case
is a strict xfail that names its ROADMAP item.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bck.chern import FdSteps, analytic_curvature_field, metric_from_kernel, metric_jet
from bck.cli import AnalysisConfig, run_analyze
from bck.kernels import KernelSpec, disc_power, universal_grassmann
from bck.positivity import griffiths_verdict

from _fields import MappedKernel

ITEM_19 = "ROADMAP item 19: a decision compares a quantity that scales with the kernel against an absolute threshold"


def _workload_config(name: str, seed: int) -> dict:
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_config(name, seed)


def _scaled(base: KernelSpec, c: float) -> KernelSpec:
    """c times a kernel: the same bundle, its metric times c."""
    return MappedKernel(base, lambda z, w, blocks: c * blocks)


def _sections_decisions(c: float):
    # sections-d2, seed 1, with the section Gram matrix I / c: h -> c h
    cfg = _workload_config("sections-d2", 1)
    cfg["kernel"]["gram"] = (np.eye(3) / c).tolist()
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    return report.exit_code, {name: (t["passed"], t["status"]) for name, t in report.data["tasks"].items()}


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
