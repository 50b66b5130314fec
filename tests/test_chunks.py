"""Whole-grid computations run in point chunks of one budget, `chern._ROWS`,
through one driver, `chern._chunked`.

A metric batch takes at most that many rows at once, a metric jet, the
nested curvature route, the subbundle split and the dual check at most
that many stencil nodes, and the Griffiths reduction at most that many
(point, direction) pairs.  Where the chunks split the points must not change a bit of any
result or error, and the memory a computation holds besides its result
must not grow with the number of points.
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
    dual_curvature_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
    subbundle_field,
)
from bck.cli import AnalysisConfig, build_kernel, run_analyze
from bck.errors import DomainError, StructuralError
from bck.forms import Form2, Record, Stencil
from bck.kernels import DiscPowerKernel, universal_grassmann
from bck.positivity import griffiths_verdict

from _fields import bit_equal, workload_config

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
    "grassmann": (universal_grassmann(3, 1), FdSteps()),
    "sections-rank2": (build_kernel(RANK2_SECTIONS), RICH),
}


def _outer_nodes(dim: int, steps: FdSteps) -> int:
    return len(Stencil(dim, first=steps.second_steps(), richardson=steps.richardson, centre=True).offsets)


def _jet_nodes(dim: int, steps: FdSteps) -> int:
    return len(Stencil(dim, first=steps.first_steps(), mixed=steps.second_steps(), richardson=steps.richardson,
                       centre=True).offsets)


def _frame(n):
    """The rank-1 frame (1, 0.3 z_1, 0.3 z_1^2, ...) of an n-dimensional fiber."""
    return lambda w: np.stack([(0.3 if i else 1.0) * w[:, 0] ** i for i in range(n)], axis=-1)[..., None]


def _same_fields(a, b) -> bool:
    """bit_equal field by field, a jet's stencil (a new one each call) aside."""
    return all(name == "stencil" or bit_equal(getattr(a, name), getattr(b, name)) for name in a._fields)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("per_chunk", [1, 3])
def test_chunk_boundaries_change_nothing(case, per_chunk, monkeypatch):
    spec, steps = CASES[case]
    metric = metric_from_kernel(spec)
    pts = _points(spec.base_dim)
    jet = metric_jet(metric, pts, steps)
    analytic = analytic_curvature_field(jet)
    whole = griffiths_verdict(metric, analytic, pts, directions=5, seed=11)
    nested = nested_curvature_field(metric, pts, steps)
    split = subbundle_field(jet, _frame(spec.fiber_dim))
    dual = dual_curvature_field(jet)
    for rows_per_point in (len(whole.directions), _outer_nodes(spec.base_dim, steps), _jet_nodes(spec.base_dim, steps)):
        assert len(pts) * rows_per_point <= bck.chern._ROWS  # the references are one chunk

    monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * len(whole.directions))
    chunked = griffiths_verdict(metric, analytic, pts, directions=5, seed=11)
    for name in whole._fields:
        assert bit_equal(getattr(chunked, name), getattr(whole, name)), name
    monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * _outer_nodes(spec.base_dim, steps))
    assert bit_equal(nested_curvature_field(metric, pts, steps), nested)
    monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * _jet_nodes(spec.base_dim, steps))
    assert _same_fields(metric_jet(metric, pts, steps), jet)
    assert bit_equal(subbundle_field(jet, _frame(spec.fiber_dim)), split)
    assert bit_equal(dual_curvature_field(jet), dual)
    assert bit_equal(dual_curvature_field(jet, analytic), dual)


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
    field = CurvatureField(pts, h, Form2(zero, r11, zero), np.zeros(count), np.zeros(count))
    metric = MetricField(None, 1, n, batch_func=lambda z: np.broadcast_to(np.eye(n), (len(z), n, n)))

    def message():
        with pytest.raises(StructuralError) as exc:
            griffiths_verdict(metric, field, pts, directions=3)
        return str(exc.value)

    whole = message()
    monkeypatch.setattr(bck.chern, "_ROWS", 2 + 3)  # one point a chunk
    assert message() == whole
    first = CurvatureField(pts[:2], h[:2], Form2(zero[:, :, :2], r11[:, :, :2], zero[:, :, :2]),
                           np.zeros(2), np.zeros(2))
    with pytest.raises(StructuralError) as early:
        griffiths_verdict(metric, first, pts[:2], directions=3)
    assert str(early.value) != whole  # the first failing chunk alone reports less


def test_stencil_failure_in_a_later_chunk_is_the_unchunked_error(monkeypatch):
    # point 3 is too close to the circle for either stencil, point 4
    # outside the disc: the error names point 3, however the points are cut
    metric = metric_from_kernel(DiscPowerKernel(2))
    pts = np.array([[0.0], [0.1 + 0.1j], [-0.2j], [0.99985], [1.5]], dtype=complex)

    def error(entry):
        with pytest.raises(DomainError) as exc:
            entry(metric, pts, RICH)
        return str(exc.value)

    budget = bck.chern._ROWS
    for entry, nodes in ((nested_curvature_field, _outer_nodes(1, RICH)), (metric_jet, _jet_nodes(1, RICH))):
        monkeypatch.setattr(bck.chern, "_ROWS", budget)
        whole = error(entry)
        assert str(pts[3]) in whole
        for per_chunk in (1, 3):
            monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * nodes)
            assert error(entry) == whole


def test_subbundle_failure_in_a_later_chunk_is_the_unchunked_error(monkeypatch):
    # the frame vanishes at points 3 and 4: the error names point 3,
    # however the points are cut
    metric = metric_from_kernel(build_kernel(RANK2_SECTIONS))
    pts = np.array([[0.0], [0.1 + 0.1j], [-0.2j], [0.3], [0.4]], dtype=complex)
    jet = metric_jet(metric, pts, RICH)

    def frame(w):
        vanishing = np.isin(w[:, 0], pts[3:, 0])[:, None, None]
        return np.where(vanishing, 0.0, _frame(2)(w))

    def error():
        with pytest.raises(StructuralError) as exc:
            subbundle_field(jet, frame)
        return str(exc.value)

    whole = error()
    assert f"grid point {pts[3]}" in whole
    for per_chunk in (1, 3):
        monkeypatch.setattr(bck.chern, "_ROWS", per_chunk * _jet_nodes(1, RICH))
        assert error() == whole


def test_a_chunk_of_the_wrong_length_raises(monkeypatch):
    # a chunk must hold exactly the points of its slice: a short one would
    # leave unwritten rows in the joined result, a long one would be cut
    monkeypatch.setattr(bck.chern, "_ROWS", 2)  # chunks of 2, 2, 2 and 1 points
    values, table = np.arange(7.0), np.arange(21.0).reshape(7, 3)
    assert np.array_equal(bck.chern._chunked(lambda r: values[r], 7, 1), values)
    joined = bck.chern._chunked(lambda r: (values[r], table[r]), 7, 1)
    assert np.array_equal(joined[0], values) and np.array_equal(joined[1], table)
    wrong = [
        lambda r: values[r][:1],  # short from the first chunk
        lambda r: values[r][: 1 if r.start else 2],  # short from the second
        lambda r: values,  # long
        lambda r: (values[r], table[r][1:]),  # one item of a tuple short
    ]
    for run in wrong:
        with pytest.raises(ValueError, match=r"a chunk of \d+ points holds"):
            bck.chern._chunked(run, 7, 1)


@pytest.mark.parametrize("workload", ["disc-flagship", "grassmann-d2", "sections-d2"])
def test_no_node_table_exceeds_the_budget(workload, monkeypatch):
    # every stencil evaluation of a run, the nested route's inner stencils
    # included, covers at most one chunk of `_ROWS` nodes
    sizes, on_points = [], Stencil.on_points

    def spy(self, evaluate, points, domain=None):
        sizes.append(len(points) * len(self.offsets))
        return on_points(self, evaluate, points, domain)

    monkeypatch.setattr(Stencil, "on_points", spy)
    run_analyze(AnalysisConfig.from_dict(workload_config(workload, 1)))
    assert sizes and max(sizes) <= bck.chern._ROWS, max(sizes)


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


def test_transient_memory_is_a_constant_per_chunk(monkeypatch):
    # grids of N and 4N points, each several chunks long at a budget of
    # 2048 rows: what a computation holds besides its result differs by
    # less than one chunk's arrays
    rows = 2048
    monkeypatch.setattr(bck.chern, "_ROWS", rows)
    metric = metric_from_kernel(DiscPowerKernel(2))
    sections = metric_from_kernel(build_kernel(RANK2_SECTIONS))
    n, m = 1, sections.fiber_dim
    inner = len(Stencil(1, first=RICH.first_steps(), richardson=True, centre=True).offsets)
    outer = _outer_nodes(1, RICH)
    griffiths, nested, jets, splits, duals = [], [], [], [], []
    for count in (300, 1200):
        pts = _disc_points(count)
        assert len(pts) == count and count * _jet_nodes(1, RICH) > 2 * rows
        jet, transient, _ = _traced(lambda: metric_jet(metric, pts, RICH))
        jets.append(transient)
        analytic = analytic_curvature_field(jet)
        _, transient, _ = _traced(lambda: griffiths_verdict(metric, analytic, pts, directions=30, seed=1))
        griffiths.append(transient)
        _, transient, _ = _traced(lambda: dual_curvature_field(jet, analytic))
        duals.append(transient)
        field, transient, retained = _traced(lambda: nested_curvature_field(metric, pts, RICH))
        nested.append(transient)
        # the field keeps its own arrays, not the node table its h was read from
        table = count * outer * inner * n * n * 16
        assert retained - _nbytes(field) < table / 10, (retained, _nbytes(field))
        ambient = metric_jet(sections, pts, RICH)
        _, transient, _ = _traced(lambda: subbundle_field(ambient, _frame(m)))
        splits.append(transient)
    growth = {name: abs(b - a) for name, (a, b) in
              {"griffiths": griffiths, "nested": nested, "jet": jets, "subbundle": splits, "dual": duals}.items()}
    bound = {
        # a chunk's G stack, its hermitised copy, its eigenvectors and the contraction
        "griffiths": 4 * rows * n * n * 16,
        # a chunk's node table: the metric at every inner node of its outer nodes
        "nested": rows * inner * n * n * 16,
        # a chunk's node table: coordinates and metric values at its stencil nodes
        "jet": rows * (1 + n * n) * 16,
        # a chunk's frame stack: an m x m matrix at every stencil node
        "subbundle": rows * m * m * 16,
        # a chunk's conjugated jet and its curvature temporaries
        "dual": rows * n * n * 16,
    }
    assert [name for name in growth if growth[name] >= bound[name]] == [], (growth, bound)
