"""Metric connections, curvature (two routes), compatibility, HS and subbundles."""


import numpy as np
import pytest

import bck.chern
from bck.chern import (
    FdSteps,
    MetricField,
    MetricJet,
    analytic_curvature_field,
    chern_connection,
    chern_connection_field,
    compatibility_field,
    curvature,
    dual_curvature_check,
    dual_curvature_field,
    hom_metric,
    hs_connection_check,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
    subbundle_field,
    subbundle_split,
)
from bck.errors import DomainError, SingularMetricError, StructuralError
from bck.forms import Form1, replace
from bck.kernels import ConstantKernel, DiscPowerKernel, SectionKernel, dual_kernel, universal_grassmann
from bck.linalg import norms, solve

from _fields import cmat, disc_connection, disc_curvature, disc_metric, full_rank_sections, poly_metric
from _hook import make_edge

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
    # the metric is the transpose of the diagonal block, here conj(M) != M
    mat = np.array([[2.0, 1j], [-1j, 3.0]])
    m = metric_from_kernel(ConstantKernel(mat))
    assert np.array_equal(m(np.zeros(1)), mat.T)


@pytest.mark.parametrize("ambient_dim, rank", [(3, 1), (3, 2), (4, 2)])
def test_sections_of_the_graph_frame_carry_the_grassmann_metric(ambient_dim, rank):
    # the section kernel of the rows E = [I_k, B^T], B the chart point read
    # row-major as an (N - k) x k matrix, has the metric F* F = I + B* B of
    # the column frame F = [I_k; B], as universal_grassmann has; E E*
    # itself misses it by 0.69 and 1.53 at rank 2
    shape = (ambient_dim - rank, rank)
    rows = SectionKernel(lambda z: np.hstack([np.eye(rank), z.reshape(shape).T]), base_dim=shape[0] * rank)
    pts = 0.4 * cmat(np.random.default_rng(1), 30, rows.base_dim)
    b = pts.reshape((30,) + shape)
    frame_gram = np.eye(rank) + np.swapaxes(b.conj(), -1, -2) @ b
    for spec in (rows, universal_grassmann(ambient_dim, rank)):
        assert np.abs(metric_from_kernel(spec).batch(pts) - frame_gram).max() <= 1e-15


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
    analytic, nested = curvature(m, z, RICH), nested_curvature_field(m, [z], RICH).at(0)
    for method, curv, tol in (("analytic", analytic, 1e-7), ("nested", nested, 1e-6)):
        assert abs(curv.form.r11[0, 0, 0, 0] - 2.0) <= tol, method
        assert curv.pairing_residual <= 1e-10


def test_curvature_constant_metric_flat():
    m = metric_from_kernel(ConstantKernel(np.diag([1.0, 4.0])))
    curv = nested_curvature_field(m, [np.array([0.3j])]).at(0)
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
            a = curvature(m, z, RICH)
            b = nested_curvature_field(m, [z], RICH).at(0)
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


def test_subbundle_field_needs_the_node_values():
    # a second-order jet without its node values (an exact jet) carries
    # no stencil to evaluate the frame on; the split says so before any work
    m = disc_metric_field(1)
    jet = replace(metric_jet(m, np.array([[0.3], [-0.2j]]), RICH), values=None, stencil=None)
    calls = []
    with pytest.raises(ValueError, match="the subbundle split needs the node values"):
        subbundle_field(jet, lambda w: calls.append(w) or np.ones((len(w), 1, 1)))
    assert calls == []


# -- compatibility ----------------------------------------------------------------


def one_point_compatibility(metric, z, steps):
    """`compatibility_field` at one point."""
    pts = np.asarray(z, dtype=complex)[None]
    res = compatibility_field(chern_connection_field(metric_jet(metric, pts, steps, order=1)))
    return {key: float(value[0]) for key, value in res.items()}


def one_point_structure(metric, z, steps) -> float:
    """||del A + A ^ A|| at one point: the largest norm of the nested
    route's (2,0) block."""
    c20 = nested_curvature_field(metric, np.asarray(z, dtype=complex)[None], steps).form.c20
    return float(np.linalg.norm(c20, axis=(-2, -1)).max(axis=(0, 1))[0])


def test_compatibility_disc_residuals_small():
    m = disc_metric_field(1)
    res = one_point_compatibility(m, np.array([0.3]), RICH)
    assert res["metric"] <= 1e-6
    assert res["holo"] == 0.0
    assert one_point_structure(m, np.array([0.3]), RICH) == 0.0  # dz ^ dz = 0: no (2,0) block


def test_compatibility_two_axis_structure_residual():
    rng = np.random.default_rng(73)
    m = poly_metric(rng, 2, 2)
    res = one_point_compatibility(m, np.array([0.2 + 0.1j, -0.15j]), RICH)
    assert res["metric"] <= 1e-6
    assert one_point_structure(m, np.array([0.2 + 0.1j, -0.15j]), RICH) <= 1e-5


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


def _transposed(m: MetricField) -> MetricField:
    return MetricField(func=None, dim=m.dim, fiber_dim=m.fiber_dim, domain=m.domain, name="transposed",
                       batch_func=lambda nodes: np.swapaxes(m.batch(nodes), -1, -2))


@pytest.mark.parametrize("case", ["sections-rank2-disc", "gr32-gr31"])
def test_hs_connection_check_sees_a_superoperator_metric_without_its_transpose(monkeypatch, case):
    # a complex, non-symmetric source metric at a point off the real axes:
    # a rank-2 section metric on the disc chart, or Gr(3, 2) into Gr(3, 1);
    # hom_metric(h1^T, h2) is kron(h2, inv(h1)), the superoperator without
    # the transpose of inv(h1), and the identity fails on it
    if case == "sections-rank2-disc":
        h1 = metric_from_kernel(SectionKernel(full_rank_sections(np.random.default_rng(47), 1, 2)))
        h2, z = disc_metric_field(1), np.array([0.3 + 0.2j])
    else:
        h1, h2 = (metric_from_kernel(universal_grassmann(3, rank)) for rank in (2, 1))
        z = np.array([0.2 + 0.1j, -0.15 + 0.25j])
    h = h1.batch(z[None])[0]
    assert np.abs(h - h.T).max() > 0.1
    assert hs_connection_check(h1, h2, z, RICH) <= 1e-6
    real = bck.chern.hom_metric
    monkeypatch.setattr(bck.chern, "hom_metric", lambda a, b: real(_transposed(a), b))
    assert hs_connection_check(h1, h2, z, RICH) > 0.1


def _kron(a, b):
    """kron of each pair of matrices of two broadcast stacks."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(shape)


def _relative_miss(r11, expected) -> float:
    """Largest Frobenius norm of r11 - expected over coefficients and points,
    relative to max(1, the largest norm of expected)."""
    return float(norms(r11 - expected).max() / max(1.0, norms(expected).max()))


@pytest.mark.parametrize("nu1, nu2", [(1, 3), (3, 1), (2, 2)])
def test_hom_metric_of_two_disc_bundles_has_the_closed_form_curvature(nu1, nu2):
    # Hom(E1, E2) of two disc line bundles has the metric (1 - |z|^2)^(nu1 - nu2),
    # so r11 = (nu2 - nu1) / (1 - |z|^2)^2: positive, negative or flat
    rng = np.random.default_rng(41)
    z = 0.85 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    hom = hom_metric(disc_metric_field(nu1), disc_metric_field(nu2))
    r11 = analytic_curvature_field(metric_jet(hom, z[:, None], RICH)).form.r11[0, 0, :, 0, 0]
    ref = (nu2 - nu1) / (1.0 - np.abs(z) ** 2) ** 2
    assert np.max(np.abs(r11 - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-6


@pytest.mark.parametrize("rank1, rank2", [(2, 1), (2, 2)], ids=["hom-gr32-gr31", "end-gr32"])
def test_hom_metric_curvature_is_the_factor_curvatures_acting_on_both_sides(rank1, rank2):
    # Theta_Hom(S) = Theta2 S - S Theta1 for Hom(Gr(3, rank1), Gr(3, rank2)),
    # in row-major vectorization kron(r11_2, I) - kron(I, r11_1^T), on both
    # curvature routes at 30 seeded points of C^2 in +-0.4; without the
    # transpose the identity fails on a rank-2 source
    rng = np.random.default_rng(43)
    pts = rng.uniform(-0.4, 0.4, (30, 2)) + 1j * rng.uniform(-0.4, 0.4, (30, 2))
    h1, h2 = (metric_from_kernel(universal_grassmann(3, rank)) for rank in (rank1, rank2))
    hom = hom_metric(h1, h2)
    analytic = analytic_curvature_field(metric_jet(hom, pts, RICH)).form.r11
    nested = nested_curvature_field(hom, pts, RICH).form.r11
    r1, r2 = (analytic_curvature_field(metric_jet(h, pts, RICH)).form.r11 for h in (h1, h2))
    eye1, eye2 = np.eye(rank1), np.eye(rank2)
    expected = _kron(r2, eye1) - _kron(eye2, np.swapaxes(r1, -1, -2))
    assert _relative_miss(analytic, expected) <= 5e-5
    assert _relative_miss(nested, expected) <= 5e-5
    assert _relative_miss(analytic, _kron(r2, eye1) - _kron(eye2, r1)) > 0.5


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
        res = dual_curvature_check(universal_grassmann(3, 1), z, RICH)
        assert np.max(np.abs(res.theta_r11)) > 0.5  # curved, with off-diagonal form blocks
        assert res.residual <= 1e-6


def test_dual_curvature_rank_two_sections_two_variables():
    rng = np.random.default_rng(3)
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
    jet = metric_jet(metric_from_kernel(spec), pts, RICH)
    theta = analytic_curvature_field(jet)
    assert np.max(dual_curvature_field(jet, theta).residual) <= 1e-6
    for other in (theta.at(slice(0, 1)), theta.at(slice(None, None, -1))):
        with pytest.raises(ValueError, match="other points"):
            dual_curvature_field(jet, other)


def test_dual_curvature_field_needs_a_second_order_jet():
    m = metric_from_kernel(DiscPowerKernel(2))
    pts = np.array([[0.1 + 0.2j], [-0.3]])
    theta = analytic_curvature_field(metric_jet(m, pts, RICH))
    for args in ((), (theta,)):
        with pytest.raises(ValueError, match="needs a second-order metric jet"):
            dual_curvature_field(metric_jet(m, pts, RICH, order=1), *args)


DUAL_CASES = {
    "disc": (DiscPowerKernel(2), [[0.1 + 0.2j], [-0.3], [0.25j], [0.0]]),
    "grassmann": (universal_grassmann(3, 2), DUAL_POINTS_D2),
    "sections": (SectionKernel(full_rank_sections(np.random.default_rng(43), 2, 2), base_dim=2),
                 [[0.1 + 0.2j, -0.2 + 0.1j], [0.3 - 0.1j, -0.15 + 0.2j]]),
    "constant": (ConstantKernel(np.array([[2.0, 1j], [-1j, 3.0]])), [[0.0], [0.4 - 0.3j]]),
    "hook-edge": (make_edge(), [[0.1], [-0.2 + 0.1j], [0.29]]),
}


@pytest.mark.parametrize("case", sorted(DUAL_CASES))
def test_dual_jet_is_the_conjugate_of_the_jet(case):
    # the dual kernel's metric at conj(z) is conj(h(z)), and conjugation
    # commutes with the Wirtinger derivatives: the dual kernel's own jet is
    # the jet conjugated array by array, and its curvature gives
    # dual_curvature_field's residual.  Its mixed derivative sums the
    # conjugate stencil's node pairs in another order, so it agrees only
    # to rounding; the residual, itself rounding (2e-9 on Gr(3, 2)), is
    # taken with the conjugated mixed array in its place
    spec, pts = DUAL_CASES[case]
    pts = np.array(pts, dtype=complex)
    jet = metric_jet(metric_from_kernel(spec), pts, RICH)
    dual = metric_jet(metric_from_kernel(dual_kernel(spec)), np.conj(pts), RICH)
    for name in ("h", "dp", "dq"):
        assert np.array_equal(np.conj(getattr(jet, name)), getattr(dual, name)), name
    assert np.max(np.abs(np.conj(jet.mixed) - dual.mixed)) <= 1e-12 * np.max(np.abs(dual.mixed))
    theta = analytic_curvature_field(jet)
    dual = replace(dual, mixed=np.conj(jet.mixed))
    pulled = -np.swapaxes(analytic_curvature_field(dual).form.r11, 0, 1)
    expected = -np.swapaxes(theta.h @ theta.form.r11 @ solve(theta.h, np.eye(spec.fiber_dim)), -1, -2)
    assert np.array_equal(dual_curvature_field(jet).residual, norms(pulled - expected).max(axis=(0, 1)))


def test_dual_curvature_field_reads_a_jet_without_node_values():
    # the nu = 2 disc's closed-form jet, s = 1 - |z|^2: h = s^-nu,
    # dh = nu zbar s^(-nu-1), delbar h its conjugate and
    # delbar del h = nu s^(-nu-1) + nu (nu+1) |z|^2 s^(-nu-2)
    nu, z = 2, np.array([0.0, 0.3 + 0.2j, -0.5j, 0.7, 0.9 * np.exp(2j)])
    s = 1 - np.abs(z) ** 2
    dp = nu * np.conj(z) * s ** (-nu - 1)
    mixed = nu * s ** (-nu - 1) + nu * (nu + 1) * np.abs(z) ** 2 * s ** (-nu - 2)
    jet = MetricJet(z[:, None], *(a[..., None, None] for a in (
        s ** -nu, dp[None], np.conj(dp)[None], mixed[None, None])), None, None)
    dual = dual_curvature_field(jet)
    assert np.max(dual.residual) <= 1e-13
    assert np.max(np.abs(dual.theta_r11[0, 0, :, 0, 0] / (nu / s**2) - 1)) <= 1e-13


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
