"""Batched evaluation: kernel blocks, metric fields and grid fields.

Every batched result is checked against one-point calls, and every check
that a single evaluation makes must still fire, naming the first failing
point, when it sits inside a batch.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bck.chern import (
    _ROWS,
    ConnectionField,
    CurvatureField,
    DualCurvatureField,
    FdSteps,
    MetricField,
    SubbundleField,
    analytic_curvature_field,
    chern_connection,
    chern_connection_field,
    curvature,
    dual_curvature_check,
    dual_curvature_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
    subbundle_field,
    subbundle_split,
)
from bck.cli import AnalysisConfig, build_kernel, main, run_analyze
from bck.errors import BckError, DomainError, SingularMetricError, StructuralError, row_by_row
from bck.kernels import (
    AdmissibilityField,
    ConstantKernel,
    DiscPowerKernel,
    UserKernel,
    admissibility,
    admissibility_field,
    dual_kernel,
    eval_kernel,
    gram,
    universal_grassmann,
)
from bck.forms import Form1, Stencil, at_point, stack_points
from bck.linalg import mgs_orthonormalize
from bck.polys import MatrixPolynomial

from _fields import bit_equal, cmat, poly_metric

RICH = FdSteps(richardson=True)

SECTIONS_CONFIG = {
    "variant": "from_sections",
    "base_dim": 2,
    "entries": [
        [[{"c": 1}], [{"c": [0.5, 0.2], "p": [1, 0]}, {"c": 1, "p": [0, 2]}], [{"c": 0.3, "p": [1, 1]}]],
        [[{"c": 0}], [{"c": 1}], [{"c": [0, 1], "p": [0, 1]}]],
    ],
}


def _user_disc():  # twice the nu = 1.5 disc: a metric that is no built-in family's
    return UserKernel(
        lambda z, w: np.array([[2.0 * (1.0 - z[0] * np.conj(w[0])) ** -1.5]]),
        fiber_dim=1,
        base_dim=1,
        contains_fn=lambda z: abs(z[0]) < 1.0,
        boundary_distance_fn=lambda z: 1.0 - abs(z[0]),
        holomorphic=True,
    )


def _user_plain():  # no domain hooks: all of C^2
    def sections(z):
        return np.array([[1.0, z[0]], [z[1], 1.0]])

    return UserKernel(lambda z, w: sections(z) @ sections(w).conj().T, fiber_dim=2, base_dim=2)


FAMILIES = {
    "disc": DiscPowerKernel(2.5),
    "constant": ConstantKernel([[2.0, 1j], [-1j, 3.0]], base_dim=2),
    "from_sections": build_kernel(SECTIONS_CONFIG),
    "grassmann": universal_grassmann(4, 2),
    "dual": dual_kernel(DiscPowerKernel(1.5)),
    "user_hook": _user_disc(),
    "user_plain": _user_plain(),
}
# families whose domain has a boundary; the others accept every point of C^d
BOUNDED = ("disc", "dual", "user_hook")


def _points(data, spec, count):
    coords = st.floats(-0.55, 0.55)
    raw = data.draw(
        st.lists(st.tuples(coords, coords), min_size=count * spec.base_dim, max_size=count * spec.base_dim)
    )
    return np.array([re + 1j * im for re, im in raw]).reshape(count, spec.base_dim)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(FAMILIES)), count=st.integers(1, 4))
def test_eval_batch_matches_eval_kernel_pairwise(data, family, count):
    spec = FAMILIES[family]
    pts = _points(data, spec, count)
    blocks = spec.eval_batch(pts[:, None, :], pts[None, :, :])
    assert blocks.shape == (count, count, spec.fiber_dim, spec.fiber_dim)
    for l in range(count):
        for j in range(count):
            single = eval_kernel(spec, pts[l], pts[j])
            assert np.max(np.abs(blocks[l, j] - single)) <= 1e-14 * max(1.0, np.max(np.abs(single)))
    diagonal = spec.eval_batch(pts, pts)
    assert np.array_equal(diagonal, blocks[np.arange(count), np.arange(count)])
    # the one-point methods are the rows of the stack methods
    raw = spec.eval_many(pts, pts[0])
    inside, dist = spec.contains_batch(pts), spec.boundary_distance_batch(pts)
    for l in range(count):
        assert np.max(np.abs(raw[l] - spec.eval(pts[l], pts[0]))) <= 1e-14 * max(1.0, np.max(np.abs(raw[l])))
        assert spec.contains(pts[l]) is bool(inside[l])
        assert float(spec.boundary_distance_batch(pts[l])) == pytest.approx(dist[l], rel=1e-14)
    # empty stacks give empty arrays
    n, empty = spec.fiber_dim, np.empty((0, spec.base_dim), dtype=complex)
    assert spec.eval_many(empty, empty).shape == spec.eval_batch(empty, empty).shape == (0, n, n)
    assert spec.contains_batch(empty).shape == spec.boundary_distance_batch(empty).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from(sorted(FAMILIES)), count=st.integers(1, 4))
def test_eval_batch_out_of_domain_point_raises(data, family, count):
    spec = FAMILIES[family]
    pts = _points(data, spec, count)
    if family not in BOUNDED:
        assert spec.contains_batch(10.0 * pts + 5.0).all()
        return
    bad = data.draw(st.integers(0, count - 1))
    pts[bad] = 1.2 * np.exp(1j * data.draw(st.floats(-3.0, 3.0)))
    with pytest.raises(DomainError, match="outside") as info:
        spec.eval_batch(pts[:, None, :], pts[None, :, :])
    assert str(pts[bad]) in str(info.value)  # the first failing pair holds it
    with pytest.raises(DomainError):
        spec.eval_batch(pts, pts)


def test_metric_batch_names_first_failing_point_in_order():
    bad = {1: np.array([[1.0, 1.0], [0.0, 1.0]]), 2: np.diag([1.0, 0.0])}
    pts = np.array([[0.1], [0.2], [0.3], [0.4]], dtype=complex)

    def func(z):
        return bad.get(int(round(10 * z[0].real)) - 1, np.eye(2)).astype(complex)

    class Left:  # everything left of re z = 0.35
        def contains_batch(self, z):
            return z[..., 0].real < 0.35

        def boundary_distance_batch(self, z):
            return 0.35 - z[..., 0].real

    metric = MetricField(func, 1, 2, domain=Left())
    with pytest.raises(StructuralError, match=r"Hermitian at \[0.2"):
        metric.batch(pts)
    with pytest.raises(SingularMetricError, match=r"singular at \[0.3"):
        metric.batch(pts[[0, 2, 1]])
    # a point outside the domain is reported only if the rows before it pass
    with pytest.raises(StructuralError, match=r"Hermitian at \[0.2"):
        metric.batch(pts[[1, 3]])
    with pytest.raises(DomainError, match=r"\[0.4"):
        metric.batch(pts[[0, 3, 1]])
    assert np.array_equal(metric.batch(pts[:1]), np.eye(2)[None])


def test_kernel_metric_batch_reports_row_order_across_its_own_checks():
    # an inadmissible row after a non-Hermitian one: the kernel's own check
    # must not pre-empt the earlier row's failure
    spec = UserKernel(
        lambda z, w: np.array([[1.0, 1.0], [0.0, 1.0]]) if z[0].real < 0 else np.diag([1.0, 0.0]),
        fiber_dim=2,
        base_dim=1,
    )
    metric = metric_from_kernel(spec)
    pts = np.array([[-0.5], [-0.1], [0.2], [0.4]], dtype=complex)
    with pytest.raises(StructuralError, match=r"Hermitian at \[-0.5"):
        metric.batch(pts)
    with pytest.raises(SingularMetricError, match=r"admissible at \[0.2"):
        metric.batch(pts[2:])


def test_metric_batch_over_several_chunks_equals_the_chunks_one_by_one():
    metric = metric_from_kernel(universal_grassmann(3, 1))
    rows = []
    batch_func = metric.batch_func
    metric.batch_func = lambda z: rows.append(len(z)) or batch_func(z)
    count = 2 * _ROWS + 5
    t = np.linspace(0.0, 1.0, count)
    pts = np.stack([0.4 * t * np.exp(7j * t), 0.3 * np.exp(-3j * t)], axis=-1)
    whole = metric.batch(pts)
    assert rows == [_ROWS, _ROWS, 5]
    chunks = [metric.batch(pts[i : i + _ROWS]) for i in range(0, count, _ROWS)]
    assert np.array_equal(whole, np.concatenate(chunks))


class _BelowTen:
    def contains_batch(self, z):
        return z[..., 0].real < 10.0

    def boundary_distance_batch(self, z):
        return 10.0 - z[..., 0].real


@pytest.mark.parametrize(
    "first, later",
    [(DomainError, SingularMetricError), (SingularMetricError, DomainError)],
)
def test_metric_batch_failure_in_a_later_chunk_is_the_row_by_row_error(first, later):
    # a point with re z >= 10 is outside the domain and one with im z != 0
    # has a singular metric; the first failure sits in the second chunk,
    # the other kind after it in the third
    def batch_func(z):
        return (z[:, 0].imag == 0).astype(complex)[:, None, None]

    metric = MetricField(None, 1, 1, domain=_BelowTen(), batch_func=batch_func)
    pts = np.linspace(0.0, 1.0, 2 * _ROWS + 10).astype(complex)[:, None]
    bad = {DomainError: 20.0, SingularMetricError: 0.5 + 1j}
    pts[_ROWS + 3, 0], pts[2 * _ROWS + 1, 0] = bad[first], bad[later]
    with pytest.raises(first) as batched:
        metric.batch(pts)
    for row in pts:
        try:
            metric(row)
        except BckError as exc:
            looped = exc
            break
    assert type(looped) is first and str(batched.value) == str(looped)
    assert str(pts[_ROWS + 3]) in str(looped)


# -- one contract for every batched entry: the error of a point-by-point loop -------


def _looped_error(call, points):
    """The index and error of the first point on which `call`, given one
    point at a time, raises."""
    for i in range(len(points)):
        try:
            call(points[i : i + 1])
        except BckError as exc:
            return i, exc
    raise AssertionError("no point fails")


def _gram_pairs_error(points):
    """The index and error of the first (t_l, t_j) pair, in row-major order,
    on which `eval_kernel` raises: `gram` evaluates every pair, not only the
    diagonal blocks that one point at a time would give."""
    for index, (l, j) in enumerate(np.ndindex(len(points), len(points))):
        try:
            eval_kernel(NON_FINITE, points[l], points[j])
        except BckError as exc:
            return index, exc
    raise AssertionError("no pair fails")


def _diagonal_sections_kernel(value):
    # E(z) = diag(1, s(z)) with s = 1 except s(0.3) = value, on re z < 0.5
    def s(z):
        return value if z[0] == 0.3 else 1.0

    return UserKernel(
        lambda z, w: np.diag([1.0, s(z) * np.conj(s(w))]),
        fiber_dim=2,
        base_dim=1,
        contains_fn=lambda z: z[0].real < 0.5,
        boundary_distance_fn=lambda z: 0.5 - z[0].real,
    )


def _frame_dependent_at(*nodes):
    # the column (1, 0), zero at the given stencil nodes
    def frame(w):
        zero = [any(abs(p[0] - node) < 1e-12 for node in nodes) for p in w]
        return np.where(np.array(zero)[:, None, None], 0.0, np.array([[1.0], [0.0]])).astype(complex)

    return frame


# 0.3 fails a late check (inadmissible, a non-finite block or a dependent
# frame at its +ih node), 0.6 an earlier one (outside the domain, or a
# dependent frame at its +h node, a node listed before +ih)
CONTRACT_POINTS = np.array([[0.1], [0.3], [0.4], [0.6]], dtype=complex)
INADMISSIBLE, NON_FINITE = _diagonal_sections_kernel(0.0), _diagonal_sections_kernel(np.nan)
BATCHED_ENTRIES = {
    "MetricField.batch": lambda p: metric_from_kernel(INADMISSIBLE).batch(p),
    "metric_jet": lambda p: metric_jet(metric_from_kernel(INADMISSIBLE), p),
    "nested_curvature_field": lambda p: nested_curvature_field(metric_from_kernel(INADMISSIBLE), p),
    # the failing point raises while the jet is built: the dual adds no error of its own
    "dual_curvature_field": lambda p: dual_curvature_field(
        analytic_curvature_field(metric_jet(metric_from_kernel(INADMISSIBLE), p))),
    "subbundle_field": lambda p: subbundle_field(
        metric_jet(metric_from_kernel(ConstantKernel(np.eye(2))), p),
        _frame_dependent_at(0.3 + 1e-5j, 0.6 + 1e-5),
    ),
    "admissibility_field": lambda p: admissibility_field(NON_FINITE, p),
    "gram": lambda p: gram(NON_FINITE, p),
}


# the loop a batched entry is held to, where it is not one point at a time
LOOPS = {"gram": _gram_pairs_error}


@pytest.mark.parametrize("entry", sorted(BATCHED_ENTRIES))
def test_batched_entry_raises_the_error_of_a_point_by_point_loop(entry):
    call = BATCHED_ENTRIES[entry]
    index, looped = LOOPS.get(entry, lambda points: _looped_error(call, points))(CONTRACT_POINTS)
    assert index == 1  # 0.3, or for gram the pair (0.1, 0.3)
    with pytest.raises(BckError) as batched:
        call(CONTRACT_POINTS)
    assert type(batched.value) is type(looped) and str(batched.value) == str(looped)


def test_a_non_finite_kernel_block_names_its_pair():
    # the first failing (z, w) pair in row-major order of the broadcast
    pts = CONTRACT_POINTS[:3]
    for z, w, pair in [(pts[:, None], pts[None, :], "([0.1+0.j], [0.3+0.j])"), (pts[1:], pts[0], "([0.3+0.j], [0.1+0.j])")]:
        with pytest.raises(StructuralError, match=re.escape(f"kernel block at {pair} has non-finite entries")):
            NON_FINITE.eval_batch(z, w)


CHECKS = (DomainError, StructuralError, SingularMetricError)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([None, 0, 1, 2]), max_size=40))
def test_row_by_row_raises_the_first_error_of_a_loop(fails):
    # row i fails check fails[i] (None: it passes); a run takes one check at
    # a time over all its rows, as a batch does, so a later row's failure of
    # an earlier check raises before an earlier row's failure of a later one
    calls = []

    def run(rows):
        calls.append(rows)
        for check, kind in enumerate(CHECKS):
            for i in range(len(fails))[rows]:
                if fails[i] == check:
                    raise kind(f"check {check} fails at row {i}")
        return list(range(len(fails)))[rows]

    looped = None
    for i in range(len(fails)):
        if fails[i] is not None:
            looped = CHECKS[fails[i]](f"check {fails[i]} fails at row {i}")
            break
    if looped is None:
        assert row_by_row(run, len(fails)) == list(range(len(fails)))
        assert len(calls) == 1
        return
    with pytest.raises(BckError) as batched:
        row_by_row(run, len(fails))
    assert type(batched.value) is type(looped) and str(batched.value) == str(looped)
    assert len(calls) <= 2 + int(np.log2(len(fails)))  # the whole batch, then a bisection


def test_batched_fields_match_point_calls():
    # the point functions are the one-point case of the fields: they return
    # the field class with the point axis dropped, and batching must not
    # change the arithmetic beyond round-off amplified by the stencils
    # (first differences: 1e-10, second and nested: 1e-7)
    rng = np.random.default_rng(5)
    specs = [DiscPowerKernel(2), universal_grassmann(3, 1), FAMILIES["from_sections"]]
    cases = [(spec, metric_from_kernel(spec)) for spec in specs] + [(None, poly_metric(rng, 2, 2))]
    for spec, m in cases:
        d, n = m.dim, m.fiber_dim
        pts = 0.4 * (rng.uniform(-1, 1, (5, d)) + 1j * rng.uniform(-1, 1, (5, d)))
        jet = metric_jet(m, pts, RICH)
        conn = chern_connection_field(jet)
        analytic = analytic_curvature_field(jet)
        nested = nested_curvature_field(m, pts, RICH)
        cscale = max(1.0, np.max(np.abs(conn.form.p)))
        rscale = max(1.0, np.max(np.abs(analytic.form.r11)))
        for i, z in enumerate(pts):
            single = chern_connection(m, z, RICH)
            assert type(single) is ConnectionField
            assert conn.at(i).form.p.shape == (d, n, n) and conn.at(i).jet.h.shape == (n, n)
            assert np.max(np.abs(conn.at(i).form.p - single.form.p)) <= 1e-10 * cscale
            single = curvature(m, z, RICH)
            assert type(single) is CurvatureField
            assert analytic.at(i).form.r11.shape == (d, d, n, n) and analytic.at(i).points.shape == (d,)
            assert np.max(np.abs(analytic.at(i).form.r11 - single.form.r11)) <= 1e-7 * rscale
            assert type(single.pairing_residual) is float and type(analytic.at(i).pairing_residual) is float
            assert analytic.pairing_residual[i] == pytest.approx(single.pairing_residual, abs=1e-12)
            single = nested_curvature_field(m, [z], RICH).at(0)
            assert np.max(np.abs(nested.at(i).form.r11 - single.form.r11)) <= 1e-7 * rscale
            assert type(single.purity_residual) is float
            assert nested.purity_residual[i] == pytest.approx(single.purity_residual, abs=1e-7 * rscale)
        frame = lambda w: np.eye(n, 1, dtype=complex)
        split = subbundle_split(m, frame, pts[0], RICH)
        assert type(split) is SubbundleField and split.beta.shape == (d, n - 1, 1)
        assert type(split.identity_residual) is float
        if spec is None:
            continue
        dual = dual_curvature_field(analytic)
        adm = admissibility_field(spec, pts)
        sscale = max(1.0, np.max(adm.norm))
        for i, z in enumerate(pts):
            single = dual_curvature_check(spec, z, RICH)
            assert type(single) is DualCurvatureField
            assert dual.at(i).theta_dual_r11.shape == (d, d, n, n)
            assert np.max(np.abs(dual.at(i).theta_dual_r11 - single.theta_dual_r11)) <= 1e-7 * rscale
            assert type(single.residual) is float
            assert dual.residual[i] == pytest.approx(single.residual, abs=1e-7 * rscale)
            single = admissibility(spec, z)
            assert type(single) is AdmissibilityField
            assert type(single.invertible) is bool and single.invertible == adm.at(i).invertible
            assert type(single.smallest_singular_value) is float
            assert abs(adm.at(i).smallest_singular_value - single.smallest_singular_value) <= 1e-10 * sscale
            assert abs(adm.at(i).norm - single.norm) <= 1e-10 * sscale


def test_subbundle_reuses_precomputed_connection_and_curvature():
    rng = np.random.default_rng(101)
    amb = poly_metric(rng, 1, 3)
    frame = lambda z: np.stack(
        [np.array([[1.0, 0.0], [w[0], 1.0], [0.0, w[0] ** 2]], dtype=complex) for w in z]
    )
    pts = np.array([[0.1 + 0.2j], [-0.3j]])
    # the split is a reduction of the run's one jet: a jet that the
    # connection and the curvature have read gives the split of a fresh
    # one, and its ambient blocks are that curvature in the adapted frame
    fresh = subbundle_field(metric_jet(amb, pts, RICH), frame)
    jet = metric_jet(amb, pts, RICH)
    chern_connection_field(jet)
    r11 = analytic_curvature_field(jet).form.r11
    shared = subbundle_field(jet, frame)
    assert np.array_equal(fresh.identity_residual, shared.identity_residual)
    assert np.array_equal(fresh.beta, shared.beta)
    u0 = shared.adapted_frame
    tilde = np.swapaxes(u0.conj(), -1, -2) @ jet.h @ r11 @ u0
    assert np.array_equal(shared.theta_block11, tilde[..., :2, :2])
    assert np.array_equal(shared.theta_block22, tilde[..., 2:, 2:])


def _grid_points(rng, count, dim, radius=0.4):
    return radius * (rng.uniform(-1, 1, (count, dim)) + 1j * rng.uniform(-1, 1, (count, dim)))


def test_subbundle_field_matches_point_splits():
    # a rank-2 frame of a curved rank-3 metric: the field at point i is the
    # one-point split at that point, bit for bit
    rng = np.random.default_rng(101)
    amb = poly_metric(rng, 1, 3)
    frame = MatrixPolynomial(
        1,
        {
            ((0,), (0,)): np.array([[1, 0], [0, 1], [0, 0]]),
            ((1,), (0,)): np.array([[0, 0], [1, 0], [0, 0]]),
            ((2,), (0,)): np.array([[0, 0], [0, 0], [0, 1]]),
        },
        shape=(3, 2),
    )
    pts = _grid_points(rng, 6, 1)
    field = subbundle_field(metric_jet(amb, pts, RICH), frame)
    assert field.beta.shape == (1, 6, 1, 2)
    for i, z in enumerate(pts):
        single = subbundle_split(amb, frame, z, RICH)
        for name, value in vars(single).items():
            assert np.array_equal(getattr(field.at(i), name), value), name
        assert single.identity_residual <= 1e-4


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    shape=st.sampled_from([(), (2,), (2, 2), (3, 2, 2), (2, 3, 1, 2)]),
    kind=st.sampled_from(["complex", "float", "bool"]),
)
def test_at_point_inverts_stack_points(seed, count, shape, kind):
    rng = np.random.default_rng(seed)
    raw = {"complex": cmat(rng, count, *shape), "float": rng.standard_normal((count,) + shape)}
    raw["bool"] = raw["float"] > 0
    vals = [v.item() if v.ndim == 0 else v for v in raw[kind]]  # per-point scalars are Python scalars
    for i, v in enumerate(vals):
        assert bit_equal(at_point(stack_points(vals), i), v)
    # records field by field, and a value that is no array kept
    forms = [Form1(v, v) for v in raw["complex"]]
    for i, form in enumerate(forms):
        assert bit_equal(at_point(stack_points(forms), i), form)
    assert stack_points(["analytic_expansion"] * count) == "analytic_expansion"


def test_fields_are_stacks_of_their_points():
    rng = np.random.default_rng(17)
    spec = FAMILIES["from_sections"]
    m = metric_from_kernel(spec)
    pts = _grid_points(rng, 3, 2)
    frame = lambda nodes: np.broadcast_to(np.eye(2, 1, dtype=complex), (len(nodes), 2, 1))
    results = [
        chern_connection_field(metric_jet(m, pts, RICH, order=1)),
        analytic_curvature_field(metric_jet(m, pts, RICH)),
        nested_curvature_field(m, pts, RICH),
        subbundle_field(metric_jet(m, pts, RICH), frame),
        dual_curvature_field(analytic_curvature_field(metric_jet(m, pts, RICH))),
        admissibility_field(spec, pts),
        metric_jet(m, pts, RICH, order=1),
        metric_jet(m, pts, RICH),
    ]
    for field in results:
        assert bit_equal(stack_points([at_point(field, i) for i in range(len(pts))]), field), type(field)


def test_by_node_splits_on_points_rows_into_nodes():
    # entry s of the split holds node s of every point, as evaluating the
    # nodes point by point gives it, for arrays and for records
    rng = np.random.default_rng(23)
    m = poly_metric(rng, 2, 2)
    stencil = Stencil(2, first=1e-3, mixed=1e-2, richardson=True, centre=True)
    pts = _grid_points(rng, 3, 2)
    h = stencil.by_node(stencil.on_points(m.batch, pts), len(pts))
    connection = lambda w: chern_connection_field(metric_jet(m, w, RICH, order=1))
    conn = stencil.by_node(stencil.on_points(connection, pts), len(pts))
    for s, offset in enumerate(stencil.offsets):
        for i, z in enumerate(pts):
            single = chern_connection(m, z + offset, RICH)
            assert np.array_equal(h[s, i], m(z + offset))
            assert np.array_equal(conn.form.p[s][:, i], single.form.p)
            assert np.array_equal(conn.jet.points[s, i], z + offset)


def test_subbundle_field_flat_graph_frame():
    # span(1, z) in the flat C^2: theta_sub = 1 / (1 + |z|^2)^2 at every point
    flat = metric_from_kernel(ConstantKernel(np.eye(2)))
    pts = _grid_points(np.random.default_rng(3), 12, 1, radius=0.6)
    frame = lambda z: np.stack([np.ones(len(z)), z[:, 0]], axis=-1)[..., None]  # (M, 2, 1)
    field = subbundle_field(metric_jet(flat, pts, RICH), frame)
    expected = 1.0 / (1.0 + np.abs(pts[:, 0]) ** 2) ** 2
    assert np.max(np.abs(field.theta_sub[0, 0, :, 0, 0] - expected)) <= 1e-6
    assert np.max(field.identity_residual) <= 1e-4
    assert np.max(field.beta_antiholo_residual) <= 1e-8


def test_subbundle_field_two_variable_graph_frame():
    # span(1, z1, z2) in the flat C^3: the identity closes with a curved
    # induced metric 1 + |z|^2, whose curvature is known in closed form
    flat = metric_from_kernel(ConstantKernel(np.eye(3), base_dim=2))
    pts = _grid_points(np.random.default_rng(5), 8, 2)
    frame = lambda z: np.concatenate([np.ones((len(z), 1)), z], axis=-1)[..., None]  # (M, 3, 1)
    field = subbundle_field(metric_jet(flat, pts, RICH), frame)
    assert np.max(field.identity_residual) <= 1e-4
    assert np.max(field.beta_antiholo_residual) <= 1e-8
    w = 1.0 + np.sum(np.abs(pts) ** 2, axis=-1)
    closed = np.eye(2)[:, :, None] / w - pts.T[:, None, :] * pts.conj().T[None, :, :] / w**2
    assert np.max(np.abs(field.theta_sub[..., 0, 0] - closed)) <= 1e-6


def test_mgs_over_a_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(11)
    a = cmat(rng, 4, 5, 3, 2)
    c = cmat(rng, 4, 5, 3, 3)
    inner = c @ np.swapaxes(c.conj(), -1, -2) + np.eye(3)
    q, r = mgs_orthonormalize(a, inner=inner)
    for index in np.ndindex(4, 5):
        q1, r1 = mgs_orthonormalize(a[index], inner=inner[index])
        assert np.array_equal(q[index], q1) and np.array_equal(r[index], r1)
    a[2, 3, :, 1] = (1 + 2j) * a[2, 3, :, 0]
    with pytest.raises(StructuralError, match=r"column 1 of matrix \(2, 3\) is linearly dependent"):
        mgs_orthonormalize(a, inner=inner)


@pytest.mark.filterwarnings("error")
def test_mgs_rejects_a_nan_column():
    # a non-finite column is named as such, not as linearly dependent, it
    # does not make the finite columns before it fail, and no projection
    # meets it, so it raises no warning
    with pytest.raises(StructuralError, match=r"^column 0 has non-finite entries$"):
        mgs_orthonormalize(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(StructuralError, match=r"^column 1 of matrix \(1,\) has non-finite entries$"):
        mgs_orthonormalize(np.array([np.eye(2), [[1.0, np.inf], [0.0, 1.0]]]))


# -- failures inside a batched run keep their error kind and exit code --------------

GRID_TASKS = ["connection", "curvature", "dual", "griffiths", "theorem55"]


def _axis(lo, hi, res):
    return {"re": [lo, hi], "im": [-0.5, 0.5], "re_res": res, "im_res": res}


FAILURES = {
    # sections vanishing at the origin: the metric is singular there
    "inadmissible": (
        {"variant": "from_sections", "entries": [[[{"c": 1, "p": [1]}]]]},
        _axis(-0.5, 0.5, 5),
        ("structural", 4, "not admissible at [0.+0.j]"),
    ),
    "non_hermitian": (
        {"variant": "constant", "matrix": [[1.0, 1.0], [0.0, 1.0]]},
        _axis(-0.5, 0.5, 4),
        ("structural", 4, "not Hermitian at [-0.5-0.5j]"),
    ),
    # the hook claims more room than its domain has: stencils step outside
    "stencil_crosses_boundary": (
        {"variant": "user_hook", "target": "_hook:make_edge", "params": {"edge": 0.3}},
        _axis(-0.5, 0.3 - 5e-6, 4),
        ("domain", 3, "point [0.300005-0.5j] is outside the domain"),
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_batched_run_failures_keep_error_kind_and_exit_code(case, tmp_path):
    kernel, axis, (kind, code, message) = FAILURES[case]
    cfg = {
        "kernel": kernel,
        "grid": {"axes": [axis]},
        "fd_steps": {"richardson": True},
        "directions": {"count": 4, "seed": 1},
        "tasks": GRID_TASKS,
    }
    report = run_analyze(AnalysisConfig.from_dict(cfg))
    assert report.exit_code == code
    failed = [t for t in GRID_TASKS if report.data["tasks"][t]["status"] == "error"]
    assert "curvature" in failed
    if case == "stencil_crosses_boundary":  # the Cauchy-Riemann probe is held to the domain too
        assert "theorem55" in failed
    for name in failed:
        task = report.data["tasks"][name]
        assert task["error_kind"] == kind
        assert message in task["error"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "r.json")]) == code
