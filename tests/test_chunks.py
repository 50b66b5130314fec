"""Whole-grid reductions run in point chunks of one budget, `chern._ROWS`.

The Griffiths reduction takes at most that many (point, direction) pairs at
once and the nested curvature route at most that many outer-stencil nodes.
Where the chunks split the points must not change a bit of any result or
error, and the memory a reduction holds besides its result must not grow
with the number of points.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import bck.chern
from bck.chern import (
    CurvatureField,
    FdSteps,
    MetricField,
    analytic_curvature_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
)
from bck.cli import build_kernel
from bck.errors import DomainError, StructuralError
from bck.forms import Form2, Record, Stencil
from bck.kernels import DiscPowerKernel, GrassmannKernel
from bck.positivity import griffiths_verdict

from _fields import bit_equal

RICH = FdSteps(richardson=True)

# E(z) = [[1, z, 0.5 z^2], [0, 1, (0.3 + 0.1i) z]]: rank 2 everywhere
RANK2_SECTIONS = {
    "variant": "from_sections",
    "entries": [
        [[{"c": 1}], [{"c": 1, "p": [1]}], [{"c": 0.5, "p": [2]}]],
        [[{"c": 0}], [{"c": 1}], [{"c": [0.3, 0.1], "p": [1]}]],
    ],
}


def _points(dim, radius=0.5):
    """Seven points of a spiral from the origin, its ends (where the extreme
    margins of these cases sit) moved to the middle of the list."""
    t = np.linspace(0.0, 1.0, 7)[[3, 1, 6, 0, 5, 2, 4]]
    return np.stack([radius * t * np.exp((5 + 2 * a) * 1j * t) for a in range(dim)], axis=-1)


CASES = {
    # one variable: every direction ties, so the witness direction is
    # whichever sample rounds lowest
    "disc": (DiscPowerKernel(2), RICH),
    "grassmann": (GrassmannKernel(3, 1), FdSteps()),
    "sections-rank2": (build_kernel(RANK2_SECTIONS), RICH),
}


def _outer_nodes(dim: int, steps: FdSteps) -> int:
    return len(Stencil(dim, first=steps.second_steps(), richardson=steps.richardson, centre=True).offsets)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("per_chunk", [1, 3])
def test_chunk_boundaries_change_nothing(case, per_chunk, monkeypatch):
    spec, steps = CASES[case]
    metric = metric_from_kernel(spec)
    pts = _points(spec.base_dim)
    analytic = analytic_curvature_field(metric_jet(metric, pts, steps))
    whole = griffiths_verdict(metric, analytic, pts, directions=5, seed=11)
    nested = nested_curvature_field(metric, pts, steps)
    assert len(pts) * len(whole.directions) <= bck.chern._ROWS  # the references are one chunk

    monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * len(whole.directions))
    chunked = griffiths_verdict(metric, analytic, pts, directions=5, seed=11)
    for name in whole._fields:
        assert bit_equal(getattr(chunked, name), getattr(whole, name)), name
    monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * _outer_nodes(spec.base_dim, steps))
    assert bit_equal(nested_curvature_field(metric, pts, steps), nested)


def test_hermiticity_failure_in_a_later_chunk_reports_the_worst_pair(monkeypatch):
    # two points fail the gate, the worse one two chunks after the first
    rng = np.random.default_rng(4)
    count, n = 4, 2
    b = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    r11 = (b + np.swapaxes(b.conj(), -1, -2))[None, None]
    r11[0, 0, 1, 0, 1] += 1e-4
    r11[0, 0, 3, 0, 1] += 1e-2
    pts = _points(1)[:count]
    h = np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))
    zero = np.zeros_like(r11)
    field = CurvatureField(pts, h, Form2(zero, r11, zero), "analytic_expansion", np.zeros(count), np.zeros(count))
    metric = MetricField(None, 1, n, batch_func=lambda z: np.broadcast_to(np.eye(n), (len(z), n, n)))

    def message():
        with pytest.raises(StructuralError) as exc:
            griffiths_verdict(metric, field, pts, directions=3)
        return str(exc.value)

    whole = message()
    monkeypatch.setattr(bck.chern, "_ROWS", 2 + 3)  # one point a chunk
    assert message() == whole
    first = CurvatureField(pts[:2], h[:2], Form2(zero[:, :, :2], r11[:, :, :2], zero[:, :, :2]),
                           "analytic_expansion", np.zeros(2), np.zeros(2))
    with pytest.raises(StructuralError) as early:
        griffiths_verdict(metric, first, pts[:2], directions=3)
    assert str(early.value) != whole  # the first failing chunk alone reports less


def test_stencil_failure_in_a_later_chunk_is_the_unchunked_error(monkeypatch):
    # point 3 is too close to the circle for the outer stencil, point 4
    # outside the disc: the error names point 3, however the points are cut
    metric = metric_from_kernel(DiscPowerKernel(2))
    pts = np.array([[0.0], [0.1 + 0.1j], [-0.2j], [0.99985], [1.5]], dtype=complex)

    def error():
        with pytest.raises(DomainError) as exc:
            nested_curvature_field(metric, pts, RICH)
        return str(exc.value)

    whole = error()
    assert str(pts[3]) in whole
    for per_chunk in (1, 3):
        monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * _outer_nodes(1, RICH))
        assert error() == whole


def _nbytes(value) -> int:
    if isinstance(value, Record):
        return sum(_nbytes(getattr(value, name)) for name in value._fields)
    return value.nbytes if isinstance(value, np.ndarray) else 0


def _traced(fn):
    """fn(), the peak traced memory of the call less what its result holds,
    and what its result holds."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current, current - base


def _disc_points(count):
    x = np.linspace(-0.7, 0.7, 48)
    z = (x[:, None] + 1j * x[None]).ravel()
    return z[np.abs(z) < 0.7][:count, None]


def test_transient_memory_is_a_constant_per_chunk():
    # grids of N and 4N points, each several chunks long: what a reduction
    # holds besides its result differs by less than one chunk's arrays
    metric = metric_from_kernel(DiscPowerKernel(2))
    rows, n = bck.chern._ROWS, 1
    inner = len(Stencil(1, first=RICH.first_steps(), richardson=True, centre=True).offsets)
    outer = _outer_nodes(1, RICH)
    griffiths, nested = [], []
    for count in (300, 1200):
        pts = _disc_points(count)
        assert len(pts) == count
        analytic = analytic_curvature_field(metric_jet(metric, pts, RICH))
        _, transient, _ = _traced(lambda: griffiths_verdict(metric, analytic, pts, directions=30, seed=1))
        griffiths.append(transient)
        field, transient, retained = _traced(lambda: nested_curvature_field(metric, pts, RICH))
        nested.append(transient)
        # the field keeps its own arrays, not the node table its h was read from
        table = count * outer * inner * n * n * 16
        assert retained - _nbytes(field) < table / 10, (retained, _nbytes(field))
    # a chunk's G stack, its hermitised copy, its eigenvectors and the contraction
    assert abs(griffiths[1] - griffiths[0]) < 4 * rows * n * n * 16, griffiths
    # a chunk's node table: the metric at every inner node of its outer nodes
    assert abs(nested[1] - nested[0]) < rows * inner * n * n * 16, nested
