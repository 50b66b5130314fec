"""Metric connections, curvature (two routes), compatibility, HS and subbundles."""


import numpy as np
import pytest

import bck.chern
from bck.chern import (
    FdSteps,
    MetricField,
    analytic_curvature_field,
    chern_connection,
    chern_connection_field,
    compatibility_field,
    curvature,
    dual_curvature_check,
    dual_curvature_field,
    hs_connection_check,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
    subbundle_field,
    subbundle_split,
)
from bck.errors import DomainError, SingularMetricError, StructuralError
from bck.forms import Form1, replace
from bck.kernels import ConstantKernel, DiscPowerKernel, GrassmannKernel, SectionKernel, dual_kernel

from _fields import cmat, disc_connection, disc_curvature, disc_metric, full_rank_sections, poly_metric

RICH = FdSteps(richardson=True)


def disc_metric_field(nu):
    return metric_from_kernel(DiscPowerKernel(nu))


# -- metrics from kernels -------------------------------------------------------


def test_metric_from_disc_kernel_closed_form():
    m = disc_metric_field(2)
    for z in (0.0, 0.3 + 0.4j, -0.7j):
        assert abs(m(np.array([z]))[0, 0] - disc_metric(2, z)) <= 1e-13


def test_metric_from_sections():
    k = SectionKernel(lambda z: np.array([[1.0, z[0]]], dtype=complex))
    m = metric_from_kernel(k)
    z = 0.3 - 0.5j
    assert abs(m(np.array([z]))[0, 0] - (1 + abs(z) ** 2)) <= 1e-13


def test_metric_from_constant_kernel():
    mat = np.array([[2.0, 1j], [-1j, 3.0]])
    m = metric_from_kernel(ConstantKernel(mat))
    assert np.allclose(m(np.zeros(1)), mat)


def test_metric_from_inadmissible_kernel_aborts():
    k = SectionKernel(lambda z: np.array([[z[0]]], dtype=complex))
    m = metric_from_kernel(k)
    with pytest.raises(SingularMetricError, match="admissible"):
        m(np.zeros(1))


def test_metric_field_rejects_non_hermitian_and_indefinite():
    bad = MetricField(lambda z: np.array([[1.0, 1.0], [0.0, 1.0]]), 1, 2)
    with pytest.raises(StructuralError, match="Hermitian"):
        bad(np.zeros(1))
    sing = MetricField(lambda z: np.diag([1.0, 0.0]).astype(complex), 1, 2)
    with pytest.raises(SingularMetricError):
        sing(np.zeros(1))


# -- connection -------------------------------------------------------------------


def test_connection_disc_closed_form():
    m = disc_metric_field(1)
    conn = chern_connection(m, np.array([0.5]), RICH)
    assert abs(conn.form.p[0, 0, 0] - 2.0 / 3.0) <= 1e-9
    assert np.all(conn.form.q == 0.0)


def test_connection_constant_metric_vanishes():
    m = metric_from_kernel(ConstantKernel(np.diag([2.0, 5.0])))
    conn = chern_connection(m, np.array([0.1 + 0.2j]))
    assert np.max(np.abs(conn.form.p)) <= 1e-12


def test_connection_section_metric_closed_form():
    k = SectionKernel(lambda z: np.array([[1.0, z[0]]], dtype=complex))
    m = metric_from_kernel(k)
    conn = chern_connection(m, np.array([0.5]), RICH)
    assert abs(conn.form.p[0, 0, 0] - 0.4) <= 1e-10


# -- curvature --------------------------------------------------------------------


def test_curvature_disc_both_methods():
    m = disc_metric_field(2)
    z = np.array([0.0 + 0.0j])
    for method, tol in (("analytic_expansion", 1e-7), ("nested_fd", 1e-6)):
        curv = curvature(m, z, RICH, method=method)
        assert abs(curv.form.r11[0, 0, 0, 0] - 2.0) <= tol, method
        assert curv.pairing_residual <= 1e-10


def test_curvature_constant_metric_flat():
    m = metric_from_kernel(ConstantKernel(np.diag([1.0, 4.0])))
    curv = curvature(m, np.array([0.3j]), method="nested_fd")
    assert np.max(np.abs(curv.form.r11)) <= 1e-10
    assert curv.purity_residual <= 1e-10


def test_curvature_section_metric_value():
    k = SectionKernel(lambda z: np.array([[1.0, z[0]]], dtype=complex))
    m = metric_from_kernel(k)
    curv = curvature(m, np.zeros(1), RICH)
    assert abs(curv.form.r11[0, 0, 0, 0] - 1.0) <= 1e-8


def test_curvature_methods_agree_on_corpus():
    rng = np.random.default_rng(61)
    fields = [disc_metric_field(nu) for nu in (1, 2, 3)]
    fields.append(poly_metric(rng, 1, 2))
    fields.append(poly_metric(rng, 2, 2))
    for m in fields:
        for _ in range(3):
            z = 0.45 * cmat(rng, m.dim)
            z = z * 0.6 / max(0.6, np.max(np.abs(z)))  # stay inside the disc
            a = curvature(m, z, RICH, method="analytic_expansion")
            b = curvature(m, z, RICH, method="nested_fd")
            scale = max(1.0, np.max(np.abs(a.form.r11)))
            assert np.max(np.abs(a.form.r11 - b.form.r11)) / scale <= 5e-5
            assert b.purity_residual / scale <= 1e-5
            assert a.pairing_residual <= 1e-6


def test_curvature_nu_linearity():
    rng = np.random.default_rng(67)
    base = disc_metric_field(1)
    for nu in (2, 3):
        m = disc_metric_field(nu)
        for _ in range(5):
            z = cmat(rng, 1)
            z = 0.8 * z / max(1.0, abs(z[0]))
            t1 = curvature(base, z, RICH).form.r11[0, 0, 0, 0]
            tn = curvature(m, z, RICH).form.r11[0, 0, 0, 0]
            assert abs(tn - nu * t1) / abs(tn) <= 1e-5


def test_curvature_frame_covariance():
    # holomorphic frame change g: curvature transforms by conjugation
    rng = np.random.default_rng(71)
    m = poly_metric(rng, 1, 2)

    def g(z):
        return np.array([[1.0, 0.4 * z[0]], [0.0, 1.0 + 0.3 * z[0]]], dtype=complex)

    mg = MetricField(
        lambda z: g(z).conj().T @ m.func(z) @ g(z), 1, 2, name="transformed metric"
    )
    for _ in range(4):
        z = 0.4 * cmat(rng, 1)
        theta = curvature(m, z, RICH).form.r11[0, 0]
        theta_g = curvature(mg, z, RICH).form.r11[0, 0]
        expected = np.linalg.solve(g(z), theta @ g(z))
        assert np.max(np.abs(theta_g - expected)) <= 1e-4


def test_curvature_reductions_read_a_jet_of_their_order():
    # a first-order jet serves the connection; the analytic curvature and
    # the subbundle split need the mixed derivatives of a second-order one
    m = disc_metric_field(1)
    jet = metric_jet(m, np.array([[0.3], [-0.2j]]), RICH, order=1)
    assert np.array_equal(chern_connection_field(jet).form.p[:, 1], chern_connection(m, [-0.2j], RICH).form.p)
    with pytest.raises(ValueError, match="second-order metric jet"):
        analytic_curvature_field(jet)
    with pytest.raises(ValueError, match="second-order metric jet"):
        subbundle_field(jet, lambda w: np.ones((len(w), 1, 1)))


# -- compatibility ----------------------------------------------------------------


def one_point_compatibility(metric, z, steps):
    """`compatibility_field` at one point, with the (2,0) curvature block
    as `structure` when d >= 2."""
    pts = np.asarray(z, dtype=complex)[None]
    structure = nested_curvature_field(metric, pts, steps).form.c20 if metric.dim > 1 else None
    res = compatibility_field(chern_connection_field(metric_jet(metric, pts, steps, order=1)), structure)
    return {key: float(value[0]) for key, value in res.items()}


def test_compatibility_disc_residuals_small():
    m = disc_metric_field(1)
    res = one_point_compatibility(m, np.array([0.3]), RICH)
    assert res["metric"] <= 1e-6
    assert res["holo"] == 0.0
    assert res["structure"] == 0.0  # single-variable chart has no (2,0) block


def test_compatibility_two_axis_structure_residual():
    rng = np.random.default_rng(73)
    m = poly_metric(rng, 2, 2)
    res = one_point_compatibility(m, np.array([0.2 + 0.1j, -0.15j]), RICH)
    assert res["metric"] <= 1e-6
    assert res["structure"] <= 1e-5


def test_compatibility_constant_metric_exact():
    m = metric_from_kernel(ConstantKernel(np.diag([1.0, 2.0])))
    res = one_point_compatibility(m, np.array([0.4]), FdSteps())
    assert res["metric"] <= 1e-12
    assert res["holo"] == 0.0


def test_compatibility_detects_antiholomorphic_perturbation():
    m = disc_metric_field(1)
    z = np.array([0.3])
    conn = chern_connection_field(metric_jet(m, z[None], RICH, order=1))
    eps = 1e-3
    q = conn.form.q.copy()
    q[0, 0, 0, 0] += eps
    res = compatibility_field(replace(conn, form=Form1(conn.form.p, q)))
    assert abs(res["holo"][0] - eps) <= 1e-15


def test_uniqueness_surrogate_perturbations_violate_residuals():
    # a connection that differs from the metric one must break an identity
    m = disc_metric_field(1)
    z = np.array([0.3])
    conn = chern_connection_field(metric_jet(m, z[None], RICH, order=1))
    eps = 1e-3
    p = conn.form.p.copy()
    p[0, 0, 0, 0] += eps
    res = compatibility_field(replace(conn, form=Form1(p, conn.form.q)))
    assert res["metric"][0] > 1e-4  # far above the 1e-8 compatibility budget
    q = conn.form.q.copy()
    q[0, 0, 0, 0] += eps
    res = compatibility_field(replace(conn, form=Form1(conn.form.p, q)))
    assert res["holo"][0] > 1e-4


# -- Hilbert-Schmidt bundles ----------------------------------------------------------


def test_hs_connection_constant_metrics():
    h1 = metric_from_kernel(ConstantKernel(np.diag([2.0, 3.0])))
    h2 = metric_from_kernel(ConstantKernel(np.diag([1.0, 5.0])))
    assert hs_connection_check(h1, h2, np.array([0.1]), FdSteps()) <= 1e-10


def test_hs_connection_scalar_disc_example():
    disc = DiscPowerKernel(1)
    h1 = MetricField(lambda w: np.array([[1.0 / (1 - abs(w[0]) ** 2)]]), 1, 1, domain=disc)
    h2 = MetricField(lambda w: np.eye(1, dtype=complex), 1, 1)
    z = np.array([0.3 + 0.2j])
    assert hs_connection_check(h1, h2, z, RICH) <= 1e-6
    # the superoperator connection reduces to -A1 here; cross-check the value
    a1 = chern_connection(h1, z, RICH).form.p[0, 0, 0]
    assert abs(a1 - disc_connection(1, z[0])) <= 1e-9


def test_hs_connection_polynomial_matrix_metrics():
    rng = np.random.default_rng(83)
    for _ in range(5):
        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2))
        h1 = MetricField(
            lambda w, m=m1: np.eye(2) + abs(w[0]) ** 2 * (m @ m.T) * 0.3, 1, 2
        )
        h2 = MetricField(
            lambda w, m=m2: np.eye(2) + abs(w[0]) ** 2 * (m @ m.T) * 0.3, 1, 2
        )
        assert hs_connection_check(h1, h2, np.array([0.2]), RICH) <= 1e-6


def test_hs_connection_check_carries_a_nan_residual(monkeypatch):
    # the residual of direction 1 is NaN: the check's maximum is NaN, not direction 0's
    rng = np.random.default_rng(29)
    h1, h2 = poly_metric(rng, 2, 2), poly_metric(rng, 2, 1)
    real, calls = bck.chern.frob, []

    def nan_second(a):
        calls.append(a)
        return np.nan if len(calls) == 2 else real(a)

    monkeypatch.setattr(bck.chern, "frob", nan_second)
    assert np.isnan(hs_connection_check(h1, h2, np.array([0.1, 0.2j]), FdSteps()))
    assert len(calls) == 2


# -- subbundles ------------------------------------------------------------------------


def test_subbundle_trivial_split():
    rng = np.random.default_rng(89)
    m = poly_metric(rng, 1, 2)
    frame = lambda z: np.eye(2, dtype=complex)  # k = n
    split = subbundle_split(m, frame, np.array([0.2 - 0.1j]), RICH)
    assert split.beta.shape == (1, 0, 2)
    assert split.identity_residual <= 1e-6


def test_subbundle_flat_ambient_graph_frame():
    flat = metric_from_kernel(ConstantKernel(np.eye(2)))
    frame = lambda z: np.array([[1.0], [z[0]]], dtype=complex)
    for z0 in (0.0, 0.2 + 0.1j, -0.5j):
        split = subbundle_split(flat, frame, np.array([z0]), RICH)
        assert split.identity_residual <= 1e-4
        assert split.beta_antiholo_residual <= 1e-8
        expected = 1.0 / (1 + abs(z0) ** 2) ** 2
        assert abs(split.theta_sub[0, 0, 0, 0] - expected) <= 1e-6
        # ambient is flat, so the whole sub-block curvature is beta* ^ beta
        assert np.max(np.abs(split.theta_block11)) <= 1e-6


def test_subbundle_block_diagonal_decouples():
    disc = DiscPowerKernel(1)
    amb = MetricField(
        lambda w: np.diag([1.0 / (1 - abs(w[0]) ** 2), 1.0]).astype(complex),
        1,
        2,
        domain=disc,
    )
    frame = lambda z: np.array([[1.0], [0.0]], dtype=complex)
    z = np.array([0.3 + 0.1j])
    split = subbundle_split(amb, frame, z, RICH)
    assert np.max(np.abs(split.beta)) <= 1e-9
    assert abs(split.theta_block11[0, 0, 0, 0] - disc_curvature(1, z[0])) <= 1e-6
    assert split.identity_residual <= 1e-4


def test_subbundle_rank_deficient_frame_rejected():
    m = metric_from_kernel(ConstantKernel(np.eye(2)))
    frame = lambda z: np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(StructuralError, match="dependent"):
        subbundle_split(m, frame, np.zeros(1), FdSteps())


def test_subbundle_field_names_grid_point_and_node_of_a_dependent_frame():
    # independent columns everywhere except at the node right of z = 0.5
    m = metric_from_kernel(ConstantKernel(np.eye(2)))

    def frame(nodes):
        out = np.zeros((len(nodes), 2, 2), dtype=complex)
        out[:, 0] = 1.0
        out[:, 1, 1] = np.where(nodes[:, 0].real > 0.5, 0.0, 1.0)
        return out

    pts = np.array([[0.0], [0.5]], dtype=complex)
    with pytest.raises(
        StructuralError,
        match=r"column 1 of \[frame \| complement\] at grid point \[0.5\+0.j\], "
        r"stencil node \[0.50001\+0.j\], is linearly dependent",
    ):
        subbundle_field(metric_jet(m, pts, FdSteps()), frame)
    # at the point itself the frame is already dependent there
    with pytest.raises(StructuralError, match=r"grid point \[0.6\+0.j\], stencil node \[0.6\+0.j\]"):
        subbundle_field(metric_jet(m, np.array([[0.0], [0.6]], dtype=complex), FdSteps()), frame)


def test_subbundle_induced_metric_checked_at_every_node():
    # the columns stay independent on the first-derivative nodes (1e-5 from
    # z = 0.5) and become dependent only past Re z = 0.50005, at the mixed
    # node 0.5001, where the induced metric F* h F is singular
    m = metric_from_kernel(ConstantKernel(np.eye(2)))

    def frame(nodes):
        out = np.zeros((len(nodes), 2, 2), dtype=complex)
        out[:, 0] = 1.0
        out[:, 1, 1] = np.where(nodes[:, 0].real > 0.50005, 0.0, 1.0)
        return out

    pts = np.array([[0.0], [0.5]], dtype=complex)
    with pytest.raises(
        SingularMetricError, match=r"^induced subbundle metric is numerically singular at \[0.5001\+0.j\]"
    ):
        subbundle_field(metric_jet(m, pts, FdSteps()), frame)
    # nodes are checked point by point: a later mixed node of the first
    # point comes before an earlier one of the second
    above = lambda nodes: frame(nodes + (nodes.imag > 0.00005))  # and above Im z = 0.00005
    with pytest.raises(SingularMetricError, match=r"singular at \[0.\+0.0001j\]"):
        subbundle_field(metric_jet(m, pts, FdSteps()), above)


# -- duals ----------------------------------------------------------------------------


def test_dual_curvature_disc_origin():
    res = dual_curvature_check(DiscPowerKernel(1), np.zeros(1), RICH)
    assert abs(res.theta_r11[0, 0, 0, 0] - 1.0) <= 1e-7
    assert abs(res.theta_dual_r11[0, 0, 0, 0] + 1.0) <= 1e-7
    assert res.residual <= 1e-6


def test_dual_curvature_constant_flat():
    res = dual_curvature_check(ConstantKernel(np.array([[2.0, 1j], [-1j, 3.0]])), np.zeros(1), FdSteps())
    assert res.residual <= 1e-10


def test_dual_curvature_generic_point_and_matrix_kernel():
    res = dual_curvature_check(DiscPowerKernel(3), np.array([0.4]), RICH)
    assert res.residual <= 1e-5
    rng = np.random.default_rng(97)
    k = SectionKernel(full_rank_sections(rng, 1, 2))
    res = dual_curvature_check(k, np.array([0.3 - 0.2j]), RICH)
    assert res.residual <= 1e-5


# in two variables the pull-back swaps the form indices and leaves the
# operator values alone; the dual curvature is then -(h Theta h^-1)^T
DUAL_POINTS_D2 = (np.array([0.1 + 0.2j, -0.2 + 0.1j]), np.array([0.3 - 0.1j, 0.2j]))


def test_dual_curvature_grassmannian_two_variables():
    for z in DUAL_POINTS_D2:
        res = dual_curvature_check(GrassmannKernel(3, 1), z, RICH)
        assert np.max(np.abs(res.theta_r11)) > 0.5  # curved, with off-diagonal form blocks
        assert res.residual <= 1e-6


def test_dual_curvature_rank_two_sections_two_variables():
    rng = np.random.default_rng(43)
    spec = SectionKernel(full_rank_sections(rng, 2, 2), base_dim=2)
    for z in DUAL_POINTS_D2:
        res = dual_curvature_check(spec, z, RICH)
        assert np.max(np.abs(res.theta_r11)) > 0.1
        assert res.residual <= 1e-6


def test_dual_curvature_field_rejects_a_field_over_other_points():
    # a theta over the first point only, or over the points in another
    # order, would be broadcast or misread as the analytic field at each
    rng = np.random.default_rng(43)
    spec = SectionKernel(full_rank_sections(rng, 2, 2), base_dim=2)
    pts = np.array([[0.1 + 0.2j, -0.2 + 0.1j], [0.3 - 0.1j, 0.2j], [-0.25j, 0.1]])
    theta = analytic_curvature_field(metric_jet(metric_from_kernel(spec), pts, RICH))
    assert np.max(dual_curvature_field(spec, pts, RICH, theta=theta).residual) <= 1e-6
    for other in (theta.at(slice(0, 1)), theta.at(slice(None, None, -1))):
        with pytest.raises(ValueError, match="other points"):
            dual_curvature_field(spec, pts, RICH, theta=other)


def test_connection_stencil_near_boundary_raises():
    from bck.errors import DomainError

    m = disc_metric_field(1)
    with pytest.raises(DomainError):
        chern_connection(m, np.array([0.99999]), FdSteps(first=1e-2))


def test_subbundle_curved_ambient_mixing_frame():
    # rank-2 holomorphic subbundle of a curved rank-3 metric: the
    # curvature-decrease identity must close with nontrivial beta
    rng = np.random.default_rng(101)
    amb = poly_metric(rng, 1, 3)
    frame = lambda z: np.array(
        [[1.0, 0.0], [z[0], 1.0], [0.0, z[0] ** 2]], dtype=complex
    )
    for z0 in (0.1 + 0.2j, -0.3j, 0.25):
        split = subbundle_split(amb, frame, np.array([z0]), RICH)
        assert split.identity_residual <= 1e-4, z0
        assert split.beta_antiholo_residual <= 1e-7, z0
        assert np.max(np.abs(split.beta)) > 1e-3  # the frame genuinely tilts


def test_per_axis_scale_rescales_stencils():
    # halving the chart scale halves the effective steps; the derivative
    # estimates must stay on the closed form
    m = disc_metric_field(2)
    half = FdSteps(richardson=True, scale=0.5)
    conn = chern_connection(m, np.array([0.3 + 0.2j]), half)
    expected = disc_connection(2, 0.3 + 0.2j)
    assert abs(conn.form.p[0, 0, 0] - expected) <= 1e-9
    curv = curvature(m, np.array([0.3 + 0.2j]), half)
    assert abs(curv.form.r11[0, 0, 0, 0] - disc_curvature(2, 0.3 + 0.2j)) <= 1e-6
    # 1.5e-4 from the circle: the mixed stencil's radius is 2e-4 unscaled
    # and 1e-4 at scale 0.5, so only the scaled steps stay in the disc
    edge = np.array([1.0 - 1.5e-4])
    with pytest.raises(DomainError):
        curvature(m, edge, RICH)
    curvature(m, edge, half)


def test_default_step_policy_accurate_away_from_boundary():
    # the plain second-order stencils at the default steps carry the
    # moderate-|z| regime on their own; extrapolation is only needed for
    # the tightest tolerances near the domain edge
    plain = FdSteps()
    m = disc_metric_field(1)
    for z0 in (0.1 + 0.2j, -0.4j, 0.5):
        z = np.array([z0])
        conn = chern_connection(m, z, plain)
        assert abs(conn.form.p[0, 0, 0] - disc_connection(1, z0)) <= 1e-6
        curv = curvature(m, z, plain)
        ref = disc_curvature(1, z0)
        assert abs(curv.form.r11[0, 0, 0, 0] - ref) / ref <= 1e-5
