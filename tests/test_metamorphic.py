"""Transformation laws of curvature: exact identities that hold on any
family, with no closed form, gated at the method-agreement tolerance."""

import numpy as np
import pytest

import bck.chern
from bck.chern import (
    FdSteps,
    MetricField,
    analytic_curvature_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
)
from bck.forms import Stencil
from bck.kernels import universal_grassmann

TOL = 5e-5  # the method-agreement tolerance of the `curvature` task


def _relative(a, b):
    """Largest Frobenius distance of the r11 blocks, relative to max(1, size)."""
    scale = max(1.0, float(np.linalg.norm(b, axis=(-2, -1)).max()))
    return float(np.linalg.norm(a - b, axis=(-2, -1)).max()) / scale


@pytest.mark.parametrize("route", ["analytic", "nested"])
def test_chart_law_on_the_grassmannian(route, monkeypatch):
    # under a linear chart change z -> A z the metric h(A z) has curvature
    # r11'[k, j](z) = sum_ab conj(A[a, k]) A[b, j] r11[a, b](A z), r11[k, j]
    # multiplying dzbar_k ^ dz_j; A is not normal, so the law with the
    # conjugate on the other index misses
    base = metric_from_kernel(universal_grassmann(3, 1))
    a = np.array([[1.0, 0.6j], [0.3 - 0.2j, 0.8]])
    pulled = MetricField(None, 2, base.fiber_dim, name="pulled metric", batch_func=lambda z: base.batch(z @ a.T))
    pts = np.array([[0.1 + 0.2j, -0.3j], [0.25 - 0.1j, 0.15 + 0.05j], [-0.2, 0.3 + 0.1j]])
    steps = FdSteps()
    r11 = analytic_curvature_field(metric_jet(base, pts @ a.T, steps)).form.r11
    law = np.einsum("ak,bj,ab...->kj...", a.conj(), a, r11)
    swapped = np.einsum("ak,bj,ab...->kj...", a, a.conj(), r11)
    if route == "analytic":
        got = analytic_curvature_field(metric_jet(pulled, pts, steps)).form.r11
    else:  # one point a chunk, so the law holds across chunk boundaries
        outer = Stencil(2, first=steps.second_steps(), centre=True)
        monkeypatch.setattr(bck.chern, "_ROWS", len(outer.offsets))
        got = nested_curvature_field(pulled, pts, steps).form.r11
    assert _relative(got, law) <= TOL
    assert _relative(got, swapped) > 0.5
