"""Herm/Symm/Skew correspondence, Griffiths forms and verdicts, global generation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bck.forms
from bck.chern import (
    CurvatureField,
    FdSteps,
    MetricField,
    analytic_curvature_field,
    curvature,
    metric_from_kernel,
    metric_jet,
)
from bck.errors import StructuralError
from bck.forms import Form2, cauchy_riemann_residual
from bck.grids import ChartGrid
from bck.kernels import ConstantKernel, DiscPowerKernel, SectionKernel, admissibility_field, from_sections
from bck.linalg import frob, hermitize
from bck.positivity import (
    BilinearSamples,
    direction_samples,
    griffiths_form,
    griffiths_verdict,
    triple_join,
    triple_split,
)

from _fields import bit_equal, cmat, full_rank_sections, poly_metric

RICH = FdSteps(richardson=True)


def herm_scalar(v, w):
    return np.asarray(v[0] * np.conj(w[0]))


# -- the three-space correspondence ------------------------------------------------


def test_triple_split_scalar_example():
    triple = triple_split(herm_scalar, 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v, w = cmat(rng, 1), cmat(rng, 1)
        val = v[0] * np.conj(w[0])
        assert abs(triple.symm(v, w) - val.real) <= 1e-12
        assert abs(triple.skew(v, w) - val.imag) <= 1e-12
        assert abs(triple.herm(v, w) - val) <= 1e-12
    assert max(triple.residuals.values()) <= 1e-12


def test_triple_split_zero_map():
    triple = triple_split(lambda v, w: np.asarray(0.0 + 0.0j), 1)
    assert triple.symm.norm() == 0.0 and triple.skew.norm() == 0.0


def test_triple_split_scales_with_hermitian_matrix():
    m = np.array([[2.0, 1j], [-1j, 3.0]])
    triple = triple_split(lambda v, w: v[0] * np.conj(w[0]) * m, 1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        v, w = cmat(rng, 1), cmat(rng, 1)
        val = v[0] * np.conj(w[0])
        assert np.max(np.abs(triple.symm(v, w) - val.real * m)) <= 1e-12
        assert np.max(np.abs(triple.skew(v, w) - val.imag * m)) <= 1e-12


def test_triple_split_rejects_non_hermitian():
    with pytest.raises(StructuralError, match="Hermitian"):
        triple_split(lambda v, w: np.asarray(v[0] * w[0]), 1)


def test_triple_join_recovers_hermitian_form():
    omega = lambda v, w: np.asarray((v[0] * np.conj(w[0])).imag + 0j)
    triple = triple_join(omega, 1)
    rng = np.random.default_rng(6)
    for _ in range(10):
        v, w = cmat(rng, 1), cmat(rng, 1)
        assert abs(triple.herm(v, w) - v[0] * np.conj(w[0])) <= 1e-12


def test_triple_join_zero():
    triple = triple_join(lambda v, w: np.asarray(0.0 + 0j), 1)
    assert triple.herm.norm() == 0.0


def test_triple_join_rejects_non_skew():
    with pytest.raises(StructuralError, match="Skew"):
        triple_join(lambda v, w: np.asarray(v[0].real * w[0].real + 0j), 1)


def _random_hermitian_sesquilinear(rng, dim, n):
    c = cmat(rng, dim, dim, n, n)
    for j in range(dim):
        c[j, j] = 0.5 * (c[j, j] + c[j, j].conj().T)
        for k in range(j + 1, dim):
            c[k, j] = c[j, k].conj().T

    def herm(v, w):
        out = np.zeros((n, n), dtype=complex)
        for j in range(dim):
            for k in range(dim):
                out += c[j, k] * v[j] * np.conj(w[k])
        return out

    return herm


def test_triple_round_trips_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(100):
        dim = 1 + trial % 3
        herm = _random_hermitian_sesquilinear(rng, dim, 2)
        triple = triple_split(herm, dim)
        rebuilt = triple_join(triple.skew, dim)
        assert rebuilt.herm.combine(triple.herm, 1.0, -1.0).norm() <= 1e-12
        again = triple_split(rebuilt.herm, dim)
        assert again.skew.combine(triple.skew, 1.0, -1.0).norm() <= 1e-12


@pytest.mark.parametrize(
    "split, message",
    [(triple_split, "not Hermitian sesquilinear: defect nan"), (triple_join, "not in the Skew class: defect nan")],
)
def test_triple_gates_reject_a_nan_map(split, message):
    with pytest.raises(StructuralError, match=message):
        split(lambda v, w: np.full((2, 2), np.nan), 2)


def _same_triple(a, b) -> bool:
    return a.residuals == b.residuals and all(
        bit_equal(getattr(a, part).tensor, getattr(b, part).tensor) for part in ("herm", "symm", "skew")
    )


def test_triple_split_and_join_take_a_callable_or_its_samples():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 3):
        herm = _random_hermitian_sesquilinear(rng, dim, 2)
        samples = BilinearSamples.from_callable(herm, dim)
        assert _same_triple(triple_split(herm, dim), triple_split(samples, dim))
        skew = triple_split(samples, dim).skew
        assert _same_triple(triple_join(skew, dim), triple_join(lambda v, w: skew(v, w), dim))
    assert BilinearSamples.of(samples, dim) is samples
    assert BilinearSamples is bck.forms.BilinearSamples


# -- Griffiths forms ---------------------------------------------------------------


def _disc_curv(nu, z0):
    m = metric_from_kernel(DiscPowerKernel(nu))
    z = np.array([z0])
    return m(z), curvature(m, z, RICH)


def test_griffiths_form_disc_origin():
    h, curv = _disc_curv(1, 0.0)
    theta_eval = curv.form(np.array([1.0]), np.array([1j]))
    assert abs(theta_eval[0, 0] - 2j) <= 1e-7
    g = griffiths_form(h, curv, np.array([1.0]))
    assert abs(g[0, 0] - 2.0) <= 1e-7


def test_griffiths_form_zero_direction():
    h, curv = _disc_curv(1, 0.2)
    g = griffiths_form(h, curv, np.array([0.0]))
    assert np.max(np.abs(g)) == 0.0


def test_griffiths_form_scales_linearly_in_nu():
    h, curv = _disc_curv(2, 0.0)
    g = griffiths_form(h, curv, np.array([1.0]))
    assert abs(g[0, 0] - 4.0) <= 2e-7


def test_griffiths_form_quadratic_scaling():
    h, curv = _disc_curv(1, 0.3)
    g1 = griffiths_form(h, curv, np.array([1.0 + 1j]))
    g2 = griffiths_form(h, curv, np.array([2.0 + 2j]))
    assert abs(g2[0, 0] - 4.0 * g1[0, 0]) <= 1e-9


def test_griffiths_form_polarization_consistency():
    # G(x) equals the polarized sesquilinear form at y = x; the bilinear
    # term drops out because the curvature pairing is skew
    h, curv = _disc_curv(2, 0.25)
    x = np.array([0.7 - 0.2j])
    g = griffiths_form(h, curv, x)
    polarized = -1j * h @ curv.form(x, 1j * x) - h @ curv.form(x, x)
    assert np.max(np.abs(g - polarized)) <= 1e-12


def test_griffiths_form_purity_gate():
    bad = Form2(
        np.ones((1, 1, 1, 1), dtype=complex),
        np.ones((1, 1, 1, 1), dtype=complex),
        np.zeros((1, 1, 1, 1), dtype=complex),
    )
    for residual in (1.0, np.nan):  # a NaN residual fails the gate too
        curv = CurvatureField(
            points=np.zeros(1), h=np.eye(1), form=bad,
            purity_residual=residual, pairing_residual=0.0,
        )
        with pytest.raises(StructuralError, match="pure"):
            griffiths_form(np.eye(1), curv, np.array([1.0]))


def test_griffiths_form_rejects_a_field_over_several_points():
    m = metric_from_kernel(DiscPowerKernel(1))
    field = analytic_curvature_field(metric_jet(m, np.array([[0.1], [0.2j]]), order=2))
    with pytest.raises(TypeError, match="one-point"):
        griffiths_form(field.h[0], field, np.array([1.0]))
    assert griffiths_form(field.h[0], field.at(0), np.array([1.0])).shape == (1, 1)


def test_griffiths_form_rejects_a_nan_form():
    nan = Form2(
        np.zeros((1, 1, 1, 1), dtype=complex),
        np.full((1, 1, 1, 1), np.nan + 0j),
        np.zeros((1, 1, 1, 1), dtype=complex),
    )
    with pytest.raises(StructuralError, match="Griffiths form is not Hermitian: relative defect nan"):
        griffiths_form(np.eye(1), nan, np.array([1.0]))


def test_griffiths_form_hermiticity_gate():
    skewed = Form2(
        np.zeros((1, 1, 1, 1), dtype=complex),
        np.full((1, 1, 1, 1), 1j),  # h r11 pairs Hermitian, not skew-Hermitian
        np.zeros((1, 1, 1, 1), dtype=complex),
    )
    with pytest.raises(StructuralError, match="Hermitian"):
        griffiths_form(np.eye(1), skewed, np.array([1.0]))


# -- verdicts ---------------------------------------------------------------------


def _verdict_for_metric(metric, grid_pts, directions=16, seed=3):
    return griffiths_verdict(
        metric,
        lambda z: curvature(metric, z, RICH),
        grid_pts,
        directions=directions,
        seed=seed,
    )


def test_verdict_disc_positive():
    m = metric_from_kernel(DiscPowerKernel(1))
    pts = ChartGrid.square(-0.56, 0.56, 5).points()
    report = _verdict_for_metric(m, pts)
    assert report.verdict == "positive"
    assert report.min_margin >= 2.0 - 1e-3
    assert abs(report.witness_point[0]) <= 1e-12  # the origin minimizes


def test_verdict_constant_metric_nonnegative():
    m = metric_from_kernel(ConstantKernel(np.diag([1.0, 3.0])))
    report = _verdict_for_metric(m, np.array([[0.0], [0.2 + 0.1j]]))
    assert report.verdict == "nonnegative"
    assert abs(report.min_margin) <= 1e-9


def test_verdict_gaussian_weight_indefinite():
    m = MetricField(lambda z: np.array([[np.exp(-abs(z[0]) ** 2)]]), 1, 1)
    report = _verdict_for_metric(m, np.array([[0.0], [0.3]]))
    assert report.verdict == "indefinite"
    # G(0) = 2 h Theta_coeff = -2 at the origin
    assert abs(report.min_margin + 2.0) <= 1e-6


def test_verdict_deterministic_given_seed():
    m = metric_from_kernel(DiscPowerKernel(2))
    pts = np.array([[0.0], [0.3 - 0.2j]])
    a = _verdict_for_metric(m, pts, directions=8, seed=11)
    b = _verdict_for_metric(m, pts, directions=8, seed=11)
    assert a.min_margin == b.min_margin
    assert np.array_equal(a.directions, b.directions)


def test_verdict_takes_h_from_the_collected_fields(monkeypatch):
    # the map route reads h off each one-point CurvatureField: one metric
    # batch per point (its curvature jet), none for h itself
    m = metric_from_kernel(DiscPowerKernel(2))
    calls = []
    batch = MetricField.batch
    monkeypatch.setattr(MetricField, "batch", lambda self, p: calls.append(len(p)) or batch(self, p))
    pts = ChartGrid.square(-0.5, 0.5, 4).points()[:10]
    report = _verdict_for_metric(m, pts, directions=8)
    assert len(pts) == 10 and len(calls) == 10
    assert report.verdict == "positive"


def test_verdict_congruence_invariance():
    # a holomorphic frame change congruence-transforms every Griffiths
    # form, so the verdict (sign pattern) is unchanged
    rng = np.random.default_rng(15)
    m = poly_metric(rng, 1, 2)

    def g(z):
        return np.array([[1.0, 0.3 * z[0]], [0.0, 1.0 + 0.2 * z[0]]], dtype=complex)

    mg = MetricField(lambda z: g(z).conj().T @ m.func(z) @ g(z), 1, 2)
    pts = np.array([[0.0 + 0j], [0.25 - 0.15j], [0.3 + 0.3j]])
    a = _verdict_for_metric(m, pts)
    b = _verdict_for_metric(mg, pts)
    assert a.verdict == b.verdict
    assert np.sign(a.min_margin) == np.sign(b.min_margin)


def _block_field(rng, dim, n, count, hermitian_pairing=True):
    """`count` points, each with a random positive-definite h and curvature
    r11[k, j] = h^-1 B[k, j], with arbitrary nonzero (2,0)/(0,2) blocks.
    With `hermitian_pairing`, B[k, j]* = B[j, k], so every G(x) is Hermitian."""
    points = np.arange(count)[:, None] * np.full(dim, 0.1 + 0.05j)
    fields = {}
    for z in points:
        a = cmat(rng, n, n)
        h = hermitize(a @ a.conj().T + np.eye(n))
        b = cmat(rng, dim, dim, n, n)
        if hermitian_pairing:
            b = 0.5 * (b + np.conj(np.swapaxes(b, 0, 1).swapaxes(2, 3)))
        form = Form2(cmat(rng, dim, dim, n, n), np.linalg.solve(h, b), cmat(rng, dim, dim, n, n))
        curv = CurvatureField(
            points=z, h=h, form=form,
            purity_residual=float(rng.uniform()), pairing_residual=0.0,
        )
        fields[z.tobytes()] = (h, curv)
    metric = MetricField(lambda z: fields[z.tobytes()][0], dim, n)
    return metric, (lambda z: fields[z.tobytes()][1]), points, fields


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    n=st.integers(1, 3),
    count=st.integers(1, 4),
    directions=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_verdict_matches_per_pair_reference(dim, n, count, directions, seed):
    rng = np.random.default_rng(seed)
    metric, field, points, fields = _block_field(rng, dim, n, count)
    report = griffiths_verdict(metric, field, points, directions=directions, seed=seed)

    dirs = direction_samples(dim, directions, seed)
    reference = np.empty((count, dirs.shape[0]))
    scale = 1.0
    for i, z in enumerate(points):
        h, curv = fields[z.tobytes()]
        for m, x in enumerate(dirs):
            g = griffiths_form(h, curv.form, x)
            scale = max(scale, frob(g))
            reference[i, m] = np.linalg.eigvalsh(hermitize(g))[0]
    assert np.max(np.abs(report.margins - reference)) <= 1e-12 * scale
    worst = np.unravel_index(np.argmin(reference), reference.shape)
    assert np.array_equal(report.witness_point, points[worst[0]])
    lowest = reference.min()
    expected = "positive" if lowest > 1e-6 else "indefinite" if lowest < -1e-6 else "nonnegative"
    assert report.verdict == expected


def test_verdict_rejects_a_curvature_field_over_other_points():
    # a field over the first point only, or over the points in another
    # order, would give its margins to the wrong points
    metric = metric_from_kernel(DiscPowerKernel(2))
    pts = np.array([[0.1 + 0.2j], [-0.35 + 0.1j], [0.3 - 0.25j]])
    field = analytic_curvature_field(metric_jet(metric, pts, FdSteps(richardson=True)))
    assert griffiths_verdict(metric, field, pts, directions=3).verdict == "positive"
    for other in (field.at(slice(0, 1)), field.at(slice(None, None, -1))):
        with pytest.raises(ValueError, match="other points"):
            griffiths_verdict(metric, other, pts, directions=3)


def test_verdict_hermiticity_gate():
    # n = 2 with a non-Hermitian pairing h r11: every G(x) fails the gate
    metric, field, points, _ = _block_field(
        np.random.default_rng(8), 2, 2, 2, hermitian_pairing=False
    )
    with pytest.raises(StructuralError, match="Hermitian"):
        griffiths_verdict(metric, field, points, directions=4)


def test_verdict_rejects_a_nan_curvature():
    # one NaN in a disc field's r11 must not read `nonnegative`
    metric = metric_from_kernel(DiscPowerKernel(2))
    points = np.array([[0.1], [0.2j], [-0.3]])
    field = analytic_curvature_field(metric_jet(metric, points, order=2))
    r11 = field.form.r11.copy()
    r11[0, 0, 1] = np.nan
    field = bck.forms.replace(field, form=bck.forms.replace(field.form, r11=r11))
    with pytest.raises(StructuralError, match="worst relative defect nan"):
        griffiths_verdict(metric, field, points, directions=4)


def test_direction_samples_deterministic_and_normalized():
    dirs = direction_samples(3, 10, seed=5)
    again = direction_samples(3, 10, seed=5)
    assert np.array_equal(dirs, again)
    assert dirs.shape == (16, 3)
    for x in dirs:
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_direction_samples_reject_a_chart_of_dimension_zero():
    # a chart of dimension 0 has no unit directions; the call runs in a child
    # process, so that a hang fails the test instead of stalling the suite
    src = str(Path(bck.forms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "from bck.positivity import direction_samples\ndirection_samples(0, 1, 0)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10)
    assert "ValueError: directions need a chart of dimension d >= 1, not 0" in done.stderr
    with pytest.raises(ValueError, match="dimension d >= 1"):
        direction_samples(-1, 0, 0)


def test_verdict_empty_inputs_rejected():
    m = metric_from_kernel(DiscPowerKernel(1))
    with pytest.raises(ValueError, match="empty"):
        _verdict_for_metric(m, np.empty((0, 1)))


# -- theorem 5.5 style end-to-end ---------------------------------------------------


def test_kernel_metrics_are_never_griffiths_negative():
    # scalar-fiber section kernels: the weight is a sum of |holomorphic|^2,
    # whose log-subharmonicity keeps the Griffiths form nonnegative
    rng = np.random.default_rng(19)
    pts_disc = ChartGrid.square(-0.5, 0.5, 4).points()
    for nu in (1, 2, 3):
        m = metric_from_kernel(DiscPowerKernel(nu))
        report = _verdict_for_metric(m, pts_disc, directions=8)
        assert report.verdict == "positive"
    for trial in range(4):
        k = SectionKernel(full_rank_sections(rng, 1, 1, extra=1 + trial % 3))
        m = metric_from_kernel(k)
        report = _verdict_for_metric(m, 0.5 * cmat(rng, 5, 1), directions=8)
        assert report.min_margin >= -1e-6
        assert report.verdict != "indefinite"


# -- global generation ---------------------------------------------------------------
# Sections E generate every sampled fiber when kappa(z, z) = E(z) E(z)* of
# their kernel is invertible there (`admissibility_field`); holomorphy of E
# is gated by its Cauchy-Riemann residual.


def test_global_generation_constant_plus_linear():
    pts = ChartGrid.square(-0.7, 0.7, 4).points()
    adm = admissibility_field(from_sections(lambda z: np.array([[1.0, z[0]]], dtype=complex)), pts)
    assert adm.invertible.all()
    assert adm.smallest_singular_value.min() >= 1.0  # 1 + |z|^2


def test_global_generation_fails_at_zero_of_sections():
    pts = np.array([[0.0], [0.4]])
    adm = admissibility_field(from_sections(lambda z: np.array([[z[0]]], dtype=complex)), pts)
    assert not adm.invertible[0] and adm.invertible[1]
    assert adm.smallest_singular_value[0] <= 1e-14


def test_global_generation_monomials_margin():
    rng = np.random.default_rng(23)
    pts = 0.8 * cmat(rng, 10, 1)
    adm = admissibility_field(
        from_sections(lambda z: np.array([[1.0, z[0], z[0] ** 2]], dtype=complex)), pts
    )
    assert adm.invertible.all()
    assert adm.smallest_singular_value.min() >= 1.0  # the section-kernel metric dominates 1


def test_global_generation_rejects_non_holomorphic_sections():
    pts = np.array([[0.1], [0.2]])
    holomorphic = cauchy_riemann_residual(lambda z: np.array([[z[0], 1.0]]), pts, 1e-5)
    anti = cauchy_riemann_residual(lambda z: np.array([[np.conj(z[0]), 1.0]]), pts, 1e-5)
    assert holomorphic <= 1e-6 < anti


def test_triple_join_of_curvature_pairing_reproduces_griffiths_form():
    # the positivity pipeline in terms of the correspondence machinery:
    # omega = i h Theta lies in the Skew class, and the Hermitian form it
    # determines evaluates on the diagonal to the Griffiths form
    rng = np.random.default_rng(27)
    m = poly_metric(rng, 2, 2)
    z = np.array([0.2 - 0.1j, 0.15j])
    h = m(z)
    curv = curvature(m, z, RICH)
    omega = BilinearSamples.from_callable(lambda v, w: 1j * h @ curv.form(v, w), 2)
    triple = triple_join(omega, 2, tol=1e-5)  # finite-difference noise in Theta
    for _ in range(6):
        x = cmat(rng, 2)
        lhs = triple.herm(x, x)
        rhs = griffiths_form(h, curv, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7


def test_projection_kernel_metric_semipositive_on_higher_rank_planes():
    # the plane-bundle metric I + B*B over the 4-complex-dim graph chart
    # is Griffiths semipositive but not strict: a tangent direction whose
    # 2 x 2 block matrix is rank deficient leaves a zero eigenvalue,
    # while a full-rank block direction gives a strictly positive form
    from bck.kernels import GrassmannKernel

    k = GrassmannKernel(4, 2)
    m = metric_from_kernel(k)
    rng = np.random.default_rng(33)
    pts = 0.4 * cmat(rng, 2, 4)
    report = _verdict_for_metric(m, pts, directions=8, seed=1)
    assert report.verdict == "nonnegative"
    assert report.min_margin >= -1e-7
    z = pts[0]
    curv = curvature(m, z, RICH)
    assert curv.pairing_residual <= 1e-6
    full_rank_direction = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    g = griffiths_form(m(z), curv, full_rank_direction)
    assert np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] > 0.05
