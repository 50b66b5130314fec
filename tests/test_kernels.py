"""Kernel families, Gram positivity, the sampled section space, admissibility."""

import re
import tracemalloc

import numpy as np
import pytest

import bck.forms
import bck.kernels
from hypothesis import assume, given, settings, strategies as st

from bck.chern import FdSteps, MetricField, curvature, metric_from_kernel
from bck.errors import DomainError, StructuralError
from bck.kernels import (
    AdmissibilityField,
    ConstantKernel,
    DiscPowerKernel,
    DualKernel,
    KernelSpec,
    RkhsModel,
    SectionKernel,
    UserKernel,
    admissibility,
    dual_kernel,
    eval_kernel,
    evaluation_adjoint_check,
    from_sections,
    gram,
    lemma51_consistency,
    psd_check,
    psd_margin,
    reproducing_check,
    rkhs_inner,
    universal_grassmann,
)
from bck.linalg import hermiticity_defect, hermitize, mgs_orthonormalize
from bck.polys import MatrixPolynomial

from _fields import bit_equal, cmat, disc_curvature, full_rank_sections


def vandermonde_sections(m):
    return lambda z: np.array([[z[0] ** k for k in range(m)]], dtype=complex)


def disc_points(rng, count, radius=0.9):
    out = []
    while len(out) < count:
        z = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(z) <= radius:
            out.append([z])
    return np.array(out)


# -- evaluation ----------------------------------------------------------------


def test_disc_power_closed_form_values():
    k = DiscPowerKernel(2)
    assert abs(eval_kernel(k, 0.5, 0.5)[0, 0] - 16.0 / 9.0) <= 1e-14
    for w in (0.3, -0.7j, 0.1 + 0.2j):
        assert abs(eval_kernel(DiscPowerKernel(3), 0.0, w)[0, 0] - 1.0) <= 1e-15


def test_disc_power_domain_error():
    with pytest.raises(DomainError):
        eval_kernel(DiscPowerKernel(1), 1.0, 0.0)
    with pytest.raises(ValueError):
        DiscPowerKernel(0.5)


def test_section_kernel_matches_expansion():
    k = SectionKernel(lambda z: np.array([[1.0, z[0]]], dtype=complex))
    rng = np.random.default_rng(0)
    for _ in range(5):
        z, w = cmat(rng, 1), cmat(rng, 1)
        assert abs(eval_kernel(k, z, w)[0, 0] - (1 + z[0] * np.conj(w[0]))) <= 1e-12


def test_section_kernel_with_gram_weights():
    g = np.array([[2.0, 0.0], [0.0, 4.0]])
    k = SectionKernel(lambda z: np.array([[1.0, z[0]]], dtype=complex), gram=g)
    z, w = np.array([0.3 + 0.1j]), np.array([-0.2j])
    expected = 0.5 + z[0] * np.conj(w[0]) / 4.0
    assert abs(eval_kernel(k, z, w)[0, 0] - expected) <= 1e-14


def test_grassmann_kernel_diagonal_is_the_frame_gram():
    # the section kernel of E = [I, B^T]: kappa(z, w) = 1 + z . conj(w) on Gr(3, 1)
    k = universal_grassmann(3, 1)
    z, w = np.array([0.4 + 0.2j, -0.3j]), np.array([0.1, 0.2 - 0.5j])
    assert np.allclose(eval_kernel(k, z, z), np.array([[1 + 0.2 + 0.09]]), atol=1e-12)
    assert np.allclose(eval_kernel(k, z, w), np.array([[1 + z @ w.conj()]]), atol=1e-12)


def test_polynomial_sections_are_holomorphic_only_without_conjugate_powers():
    # a conj(z) power in any term makes the sections, and the dual's, not
    # holomorphic; a plain callable claims holomorphy for the probe to decide
    terms = {((0,), (0,)): [[1, 0]], ((1,), (0,)): [[0, 1]]}
    holo = from_sections(MatrixPolynomial(1, terms, shape=(1, 2)))
    mixed = from_sections(MatrixPolynomial(1, {**terms, ((0,), (1,)): [[0, 0.5]]}, shape=(1, 2)))
    callable_ = from_sections(lambda z: np.array([[1.0, np.conj(z[0])]]))
    assert holo.holomorphic and dual_kernel(holo).holomorphic
    assert not mixed.holomorphic and not dual_kernel(mixed).holomorphic
    assert callable_.holomorphic


def test_constructor_names_take_every_call_the_functions_took():
    # disc_power, from_sections and dual_kernel are the classes;
    # universal_grassmann builds a SectionKernel of its own variant
    def sections(z):
        return np.array([[1.0, z[0], z[-1] ** 2]])

    gram_weights = np.diag([1.0, 2.0, 0.5])
    pts = np.array([[0.1 + 0.2j, -0.3j], [0.2, 0.1 - 0.1j]])
    disc = [bck.kernels.disc_power(2), bck.kernels.disc_power(nu=2), bck.kernels.disc_power(2.0)]
    built = [
        bck.kernels.from_sections(sections, 2),
        bck.kernels.from_sections(sections, base_dim=2),
        bck.kernels.from_sections(sections=sections, base_dim=2),
        bck.kernels.from_sections(sections, 2, gram_weights),
        bck.kernels.from_sections(sections, 2, gram=gram_weights),
        bck.kernels.from_sections(sections, base_dim=2, gram=gram_weights),
    ]
    grass = [
        bck.kernels.universal_grassmann(3, 1),
        bck.kernels.universal_grassmann(3, rank=1),
        bck.kernels.universal_grassmann(ambient_dim=3, rank=1),
    ]
    for family, cls, reference in [
        (disc, DiscPowerKernel, DiscPowerKernel(2)),
        (built[:3], SectionKernel, SectionKernel(sections, 2)),
        (built[3:], SectionKernel, SectionKernel(sections, 2, gram_weights)),
        (grass, SectionKernel, universal_grassmann(3, 1)),
    ]:
        z = pts[:, : reference.base_dim]
        for spec in family:
            assert type(spec) is cls and spec.variant == reference.variant
            assert bit_equal(spec.eval_batch(z[:, None], z[None]), reference.eval_batch(z[:, None], z[None]))
    assert bck.kernels.from_sections(sections).base_dim == 1
    for dual in (dual_kernel(grass[0]), dual_kernel(spec=grass[0])):
        assert type(dual) is DualKernel and dual.base is grass[0]
    with pytest.raises(ValueError, match="nu >= 1"):
        bck.kernels.disc_power(0.5)
    with pytest.raises(ValueError, match="rank"):
        bck.kernels.universal_grassmann(2, 2)


# -- Gram matrices and positivity ----------------------------------------------


def test_gram_single_point():
    k = DiscPowerKernel(1)
    g = gram(k, np.array([[0.3 + 0.1j]]))
    assert g.assembled.shape == (1, 1)
    assert abs(g.assembled[0, 0] - 1.0 / (1 - abs(0.3 + 0.1j) ** 2)) <= 1e-14


def test_gram_two_point_disc_closed_form():
    # kappa(t_l, t_j) = 1 / (1 - t_l conj(t_j)) at {0, 0.5}
    g = gram(DiscPowerKernel(1), np.array([[0.0], [0.5]]))
    expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    assert np.max(np.abs(g.assembled - expected)) <= 1e-14


def test_gram_constant_kernel_blocks():
    m = np.array([[2.0, 1j], [-1j, 3.0]])
    g = gram(ConstantKernel(m), np.zeros((3, 1)))
    for l in range(3):
        for j in range(3):
            assert np.array_equal(g.assembled[2 * l : 2 * l + 2, 2 * j : 2 * j + 2], m)


def test_psd_check_disc_positive():
    rng = np.random.default_rng(42)
    g = gram(DiscPowerKernel(1), disc_points(rng, 10))
    assert psd_check(g) >= -1e-10


def test_psd_check_pseudo_kernel_margin():
    g = gram(ConstantKernel(np.array([[-1.0]])), np.zeros((3, 1)))
    assert abs(psd_check(g) - (-3.0)) <= 1e-12


def test_psd_check_single_point_scalar():
    g = gram(DiscPowerKernel(2), np.array([[0.4]]))
    assert psd_check(g) >= 0.0


def test_psd_check_rejects_broken_symmetry():
    # a = ones(2, 2) (x) M: ||a - a*|| = sqrt(8), ||a|| = 2
    g = gram(ConstantKernel(np.array([[0.0, 1.0], [0.0, 0.0]])), np.zeros((2, 1)))
    message = "matrix is not Hermitian: relative defect 1.414e+00 > 1.0e-10"
    with pytest.raises(StructuralError, match=re.escape(message)):
        psd_check(g)


def test_psd_check_rejects_a_nan_defect():
    g = bck.forms.replace(gram(DiscPowerKernel(2), np.array([[0.1], [0.3j]])), defect=np.nan)
    with pytest.raises(StructuralError, match="relative defect nan > 1.0e-10"):
        psd_check(g)


def test_section_kernel_rejects_a_nan_gram_matrix():
    with pytest.raises(ValueError, match="Gram matrix must be Hermitian"):
        from_sections(lambda z: np.array([[1.0, z[0]]]), gram=np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_section_kernel_rejects_a_vector_of_sections():
    # one row of sections is a 1 x m matrix, not a vector
    with pytest.raises(ValueError, match="section field must return an n x m matrix"):
        from_sections(lambda z: np.array([1.0, z[0]]))


def _section_kernel(rng, dim, shape):
    return from_sections(MatrixPolynomial.random(rng, dim, shape, degree=2, holomorphic=True), base_dim=dim)


def test_gram_holds_little_more_than_one_gram_matrix():
    # a section kernel's margin, which read its factor from this assembly,
    # holds a few tiles instead: tests/test_tiles.py
    rng = np.random.default_rng(3)
    spec = _section_kernel(rng, 2, (2, 3))
    pts = 0.5 * cmat(rng, 200, 2)
    size = (200 * 2) ** 2 * 16
    gram(spec, pts)  # lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        gram(spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * size, peak / size


class _Skewed(KernelSpec):
    """A kernel plus a constant block, which breaks the kernel symmetry."""

    def __init__(self, base, skew):
        self.base, self.skew = base, skew
        self.variant, self.fiber_dim, self.base_dim = "skewed", base.fiber_dim, base.base_dim

    def eval_many(self, z, w):
        return self.base.eval_many(z, w) + self.skew

    def contains_batch(self, z):
        return self.base.contains_batch(z)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["disc", "grassmann", "sections"]),
    count=st.integers(1, 20),
    log_skew=st.one_of(st.just(None), st.floats(-15.0, -6.0)),
    seed=st.integers(0, 2**16),
)
def test_psd_margin_and_gate_match_the_hermitized_assembly(family, count, log_skew, seed):
    rng = np.random.default_rng(seed)
    if family == "disc":
        base, pts = DiscPowerKernel(2), disc_points(rng, count)
    elif family == "grassmann":
        base, pts = universal_grassmann(4, 2), 0.5 * cmat(rng, count, 4)
    else:
        base, pts = _section_kernel(rng, 1, (2, 3)), 0.5 * cmat(rng, count, 1)
    n = base.fiber_dim
    skew = 0.0 if log_skew is None else 10.0**log_skew * cmat(rng, n, n)
    spec = _Skewed(base, skew)
    blocks = spec.eval_batch(pts[:, None], pts[None])
    a = blocks.transpose(0, 2, 1, 3).reshape(count * n, count * n)
    g = gram(spec, pts)
    assert np.array_equal(g.assembled, hermitize(a))
    defect = hermiticity_defect(a)
    assert g.defect == pytest.approx(defect, rel=1e-12, abs=0.0)
    assume(not 0.5e-10 <= defect <= 2e-10)
    if defect > 1e-10:
        with pytest.raises(StructuralError, match="not Hermitian"):
            psd_check(g)
    else:
        assert psd_check(g) == np.linalg.eigvalsh(hermitize(a))[0]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["sections", "grassmann"]),
    n=st.integers(1, 3),
    m=st.integers(1, 5),
    dim=st.integers(1, 2),
    count=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_psd_margin_of_a_section_kernel_bounds_its_spectrum_through_the_factor(family, n, m, dim, count, seed):
    # the Gram assembly of a section kernel is X X* for the stack X of its
    # frames: at most m x m, its margin is eigvalsh's; larger, X X* has
    # least eigenvalue 0 and the margin -||G - X X*||_F bounds G's below
    rng = np.random.default_rng(seed)
    if family == "grassmann":
        assume(n < m)
        spec = universal_grassmann(m, n)
    else:
        b = 0.3 * cmat(rng, m, m)
        sections = MatrixPolynomial.random(rng, dim, (n, m), degree=2, holomorphic=True)
        spec = from_sections(sections, base_dim=dim, gram=np.eye(m) + b @ b.conj().T)
    pts = 0.5 * cmat(rng, count, spec.base_dim)
    g, margin = gram(spec, pts), psd_margin(spec, pts)
    x = spec.frame(pts).reshape(count * n, m)
    if count * n <= m:
        assert margin == np.linalg.eigvalsh(g.assembled)[0]
        return
    size = np.linalg.norm(g.assembled)
    assert -1e-13 * size <= margin <= 0.0
    dense = -np.linalg.norm(g.assembled - x @ x.conj().T)
    assert margin == pytest.approx(dense, rel=1e-12, abs=1e-15 * size)


def test_psd_stability_across_builtins():
    rng = np.random.default_rng(7)
    specs = [
        DiscPowerKernel(1),
        DiscPowerKernel(2),
        ConstantKernel(np.array([[2.0, 0.5], [0.5, 1.0]])),
        SectionKernel(full_rank_sections(rng, 1, 1)),
        universal_grassmann(3, 1),
    ]
    for spec in specs:
        n_pts = int(rng.integers(5, 20))
        if isinstance(spec, DiscPowerKernel):
            pts = disc_points(rng, min(n_pts, 50))
        else:
            pts = 0.5 * cmat(rng, n_pts, spec.base_dim)
        assert psd_check(gram(spec, pts)) >= -1e-8, spec.variant


def test_kernel_hermitian_symmetry_invariant():
    rng = np.random.default_rng(13)
    specs = [
        DiscPowerKernel(1),
        DiscPowerKernel(2.5),
        ConstantKernel(np.array([[2.0, 1j], [-1j, 3.0]])),
        SectionKernel(full_rank_sections(rng, 1, 2)),
        universal_grassmann(3, 1),
        universal_grassmann(4, 2),
    ]
    for spec in specs:
        for _ in range(100):
            if isinstance(spec, DiscPowerKernel):
                z, w = disc_points(rng, 2)
            else:
                z, w = 0.5 * cmat(rng, spec.base_dim), 0.5 * cmat(rng, spec.base_dim)
            lhs, rhs = eval_kernel(spec, z, w).conj().T, eval_kernel(spec, w, z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12, spec.variant


# -- reproducing structure -----------------------------------------------------


def test_rkhs_inner_diagonal_nonnegative():
    k = DiscPowerKernel(2)
    val = rkhs_inner(k, (np.array([1.0]), np.array([0.4j])), (np.array([1.0]), np.array([0.4j])))
    assert abs(val.imag) <= 1e-14 and val.real > 0


def test_rkhs_inner_disc_example():
    k = DiscPowerKernel(1)
    val = rkhs_inner(k, (np.array([1.0]), np.array([0.0])), (np.array([1.0]), np.array([0.7])))
    assert abs(val - 1.0) <= 1e-14  # kappa(0.7, 0) = 1


def test_rkhs_inner_conjugate_symmetry():
    rng = np.random.default_rng(3)
    k = SectionKernel(full_rank_sections(rng, 1, 2))
    for _ in range(10):
        xi, eta = cmat(rng, 2), cmat(rng, 2)
        s, t = 0.4 * cmat(rng, 1), 0.4 * cmat(rng, 1)
        assert abs(rkhs_inner(k, (xi, s), (eta, t)) - np.conj(rkhs_inner(k, (eta, t), (xi, s)))) <= 1e-12


def test_rkhs_inner_grassmann_orthogonal_fibers():
    k = universal_grassmann(4, 2)
    z = 0.3 * cmat(np.random.default_rng(5), k.base_dim)
    h = eval_kernel(k, z, z)  # the norm form kappa(z, z)
    xi = np.array([1.0, 0.0])
    # eta orthogonal to xi in the norm form at z: <K_xi, K_eta> = 0
    u = np.array([1.0, 1.0])
    eta = u - (xi.conj() @ h @ u) / (xi.conj() @ h @ xi) * xi
    val = rkhs_inner(k, (xi, z), (eta, z), )
    assert abs(val) <= 1e-12


def test_reproducing_check_single_generator():
    k = DiscPowerKernel(1)
    model = RkhsModel(k, np.array([[0.0]]))
    resid = reproducing_check(model, np.array([[1.0]]), np.array([1.0]), np.array([0.6]))
    assert resid <= 1e-12


def test_reproducing_check_random_combination():
    rng = np.random.default_rng(23)
    k = DiscPowerKernel(2)
    model = RkhsModel(k, disc_points(rng, 3, radius=0.7))
    coeffs = cmat(rng, 3, 1)
    resid = reproducing_check(model, coeffs, np.array([1.0]), np.array([0.2 - 0.3j]))
    assert resid <= 1e-9


def _weighted_hardy():
    # kappa(t, s) = h0(s) / (1 - t conj(s)) paired through h0 = e^{|z|^2}:
    # holomorphic in t, with the Hardy space's sections and inner products
    def h0(z):
        return np.array([[np.exp(abs(z[0]) ** 2)]])

    return (lambda t, s: h0(s) / (1.0 - t[0] * np.conj(s[0]))), h0


def _weighted_sections():
    # kappa(t, s) = E(t) E(s)* h0(s) paired through h0 = I + |s|^2 A, A >= 0
    rng = np.random.default_rng(41)
    sections, b = full_rank_sections(rng, 1, 2), cmat(rng, 2, 2)

    def h0(z):
        return np.eye(2) + abs(z[0]) ** 2 * (b @ b.conj().T)

    return (lambda t, s: sections(t) @ sections(s).conj().T @ h0(s)), h0


PAIRED = {"hardy": _weighted_hardy(), "sections-rank-2": _weighted_sections()}


def _euclidean(kappa, h0) -> UserKernel:
    """The kernel kappa(z, w) h0(w)^-1 that stands for kappa paired through
    h0, (f | g)_z = g(z)* h0(z) f(z), on the unit disc."""
    n = len(h0(np.zeros(1)))
    return UserKernel(lambda z, w: kappa(z, w) @ np.linalg.inv(h0(w)), n, 1, contains_fn=lambda z: abs(z[0]) < 1.0,
                      boundary_distance_fn=lambda z: 1.0 - abs(z[0]), holomorphic=True)


@pytest.mark.parametrize("case", list(PAIRED))
def test_a_fiber_metric_folds_into_the_kernel_with_the_same_inner_products(case):
    # the section kappa(., s) xi of the h0 pairing is the section of
    # h0(s) xi of the Euclidean kernel, and its inner products are the
    # pairing's: <K_(xi, s), K_(eta, t)> = eta* h0(t) kappa(t, s) xi
    kappa, h0 = PAIRED[case]
    spec, rng = _euclidean(kappa, h0), np.random.default_rng(43)
    for _ in range(10):
        xi, eta = cmat(rng, spec.fiber_dim), cmat(rng, spec.fiber_dim)
        s, t = disc_points(rng, 2, radius=0.6)
        by_hand = eta.conj() @ h0(t) @ kappa(t, s) @ xi
        value = rkhs_inner(spec, (h0(s) @ xi, s), (h0(t) @ eta, t))
        assert abs(value - by_hand) <= 1e-12 * max(1.0, abs(by_hand))


def test_a_fiber_metric_folded_into_the_kernel_gives_the_hardy_curvature():
    # the rule h = (h0 kappa)^T, which read h0 beside the kernel, read
    # dbar d log h0^2 = 2 more than the Hardy curvature at every point
    kappa, h0 = PAIRED["hardy"]
    spec = _euclidean(kappa, h0)
    old = MetricField(func=lambda z: (h0(z) @ kappa(z, z)).T, dim=1, fiber_dim=1, domain=spec, name="h0 kappa")
    rich = FdSteps(richardson=True)
    for z in (0.0, 0.3 + 0.2j, 0.6j):
        ref = disc_curvature(1, z)
        value, old_value = (curvature(m, np.array([z]), rich).form.r11[0, 0, 0, 0]
                            for m in (metric_from_kernel(spec), old))
        assert abs(value - ref) / ref <= 1e-5
        assert abs(old_value - ref - 2.0) <= 1e-5


def test_reproducing_check_detects_broken_kernel_symmetry():
    # kappa(z, w) = 1 + z w is not Hermitian-symmetric: its kernel sections
    # do not reproduce, and the check must say so
    k = UserKernel(lambda z, w: np.array([[1.0 + z[0] * w[0]]]), fiber_dim=1, base_dim=1)
    model = RkhsModel(k, np.array([[0.3 + 0.2j], [-0.1 + 0.4j]]))
    resid = reproducing_check(model, np.array([[1.0], [0.5j]]), np.array([1.0]), np.array([0.2 - 0.3j]))
    assert resid > 1e-3


def test_gram_inner_matches_pairwise_kernel_values():
    rng = np.random.default_rng(29)
    k = SectionKernel(full_rank_sections(rng, 1, 2))
    pts = 0.4 * cmat(rng, 3, 1)
    model = RkhsModel(k, pts)
    c = cmat(rng, 3, 2)
    d = cmat(rng, 3, 2)
    basis = np.eye(2, dtype=complex)
    direct = 0.0 + 0.0j
    for j in range(3):
        for a in range(2):
            for l in range(3):
                for b in range(2):
                    direct += (
                        c[j, a]
                        * np.conj(d[l, b])
                        * rkhs_inner(k, (basis[a], pts[j]), (basis[b], pts[l]))
                    )
    assert abs(model.gram_inner(c, d) - direct) <= 1e-10


def test_section_kernel_holomorphic_in_first_argument():
    from bck.forms import cauchy_riemann_residual

    rng = np.random.default_rng(31)
    k = SectionKernel(full_rank_sections(rng, 1, 2, extra=1))
    w0 = np.array([0.2 + 0.1j])
    xi = cmat(rng, 2)
    pts = 0.5 * cmat(rng, 8, 1)
    resid = cauchy_riemann_residual(lambda z: k.eval(z, w0) @ xi, pts, 1e-5)
    assert resid <= 1e-8


def test_truncated_sections_approximate_disc_kernel():
    # geometric tail bound for the monomial truncation of the nu=1 kernel
    rng = np.random.default_rng(37)
    zmax = 0.7
    disc = DiscPowerKernel(1)
    for m in (3, 6):
        trunc = SectionKernel(vandermonde_sections(m + 1))
        worst = 0.0
        for _ in range(50):
            z, w = disc_points(rng, 2, radius=zmax)
            worst = max(worst, abs(trunc.eval(z, w)[0, 0] - disc.eval(z, w)[0, 0]))
        assert worst <= zmax ** (m + 1) / (1 - zmax)


# -- admissibility and the consistency lemma ------------------------------------


def test_admissibility_disc_and_degenerate_sections():
    res = admissibility(DiscPowerKernel(3), np.array([0.5j]))
    assert res.invertible and res.smallest_singular_value > 1.0
    k = SectionKernel(lambda z: np.array([[z[0]]], dtype=complex))
    assert not admissibility(k, np.array([0.0])).invertible
    assert admissibility(universal_grassmann(3, 1), np.array([0.2, 0.3j])).invertible


def test_rank_one_admissibility_takes_the_modulus(monkeypatch):
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(8)
    # blocks of size 1 and 2 take closed forms: no LAPACK call
    metric_from_kernel(DiscPowerKernel(2)).batch(disc_points(rng, 30))
    metric_from_kernel(_section_kernel(rng, 1, (2, 3))).batch(0.5 * cmat(rng, 30, 1))
    assert calls == []
    # the disc's diagonal blocks are real: |kappa| has the bits of svd
    blocks = DiscPowerKernel(2).eval_batch(*[disc_points(rng, 500)] * 2)
    adm = AdmissibilityField.of_blocks(blocks)
    s = svd(blocks, compute_uv=False)
    assert np.array_equal(adm.norm, s[:, 0]) and np.array_equal(adm.smallest_singular_value, s[:, -1])
    # complex blocks: both round the modulus within 2 ulps, apart by at most 2
    blocks = cmat(rng, 500, 1, 1)
    norm = AdmissibilityField.of_blocks(blocks).norm
    s = svd(blocks, compute_uv=False)[:, 0]
    assert np.abs(norm.view(np.int64) - s.view(np.int64)).max() <= 2


def test_lemma51_all_true_cases():
    report = lemma51_consistency(DiscPowerKernel(1), np.array([0.3]))
    assert report.consistent and report.invertible
    report = lemma51_consistency(ConstantKernel(np.eye(2)), np.array([0.1 + 0.4j]))
    assert report.consistent and report.invertible


def test_lemma51_all_false_case():
    k = SectionKernel(lambda z: np.array([[z[0]]], dtype=complex))
    report = lemma51_consistency(k, np.array([0.0]))
    assert report.consistent and not report.invertible
    assert not report.evaluation_surjective


def test_lemma51_seeded_agreement():
    rng = np.random.default_rng(41)
    for trial in range(20):
        kind = trial % 4
        if kind == 0:
            spec, s = DiscPowerKernel(1 + trial % 3), disc_points(rng, 1, 0.8)[0]
        elif kind == 1:
            spec = SectionKernel(full_rank_sections(rng, 1, 2))
            s = 0.5 * cmat(rng, 1)
        elif kind == 2:
            spec = universal_grassmann(3, 1)
            s = 0.5 * cmat(rng, 2)
        else:  # constructed failure: rank-one constant block on a 2-dim fiber
            spec = ConstantKernel(np.diag([1.0, 0.0]))
            s = cmat(rng, 1)
        report = lemma51_consistency(spec, s, seed=trial)
        assert report.consistent, (trial, report)
        if kind == 3:
            assert not report.invertible


def test_evaluation_adjoint_identity():
    k = DiscPowerKernel(2)
    s, t = np.array([0.2]), np.array([-0.4j])
    one = np.array([1.0])
    assert evaluation_adjoint_check(k, s, s, one, one) <= 1e-14
    assert evaluation_adjoint_check(k, s, t, one, one) <= 1e-12
    rng = np.random.default_rng(43)
    sk = SectionKernel(full_rank_sections(rng, 1, 2, extra=1))
    for _ in range(20):
        resid = evaluation_adjoint_check(
            sk, 0.5 * cmat(rng, 1), 0.5 * cmat(rng, 1), cmat(rng, 2), cmat(rng, 2)
        )
        assert resid <= 1e-12


def test_evaluation_adjoint_orthogonal_planes():
    # span(1, 1) and span(1, -1) are orthogonal in C^2; the kernel block vanishes
    k = universal_grassmann(2, 1)
    z1, z2 = np.array([1.0 + 0j]), np.array([-1.0 + 0j])
    assert abs(eval_kernel(k, z1, z2)[0, 0]) <= 1e-14
    resid = evaluation_adjoint_check(k, z1, z2, np.array([1.0]), np.array([1.0]))
    assert resid <= 1e-14


# -- orthonormal bases of subspaces ------------------------------------------------


def test_subspace_orthonormalization_quality():
    rng = np.random.default_rng(47)
    a = cmat(rng, 6, 3)
    q, _ = mgs_orthonormalize(a)
    assert np.max(np.abs(q.conj().T @ q - np.eye(3))) <= 1e-12
    # same column span: projection reproduces the original columns
    assert np.max(np.abs(q @ q.conj().T @ a - a)) <= 1e-12


# -- dual kernels -----------------------------------------------------------------


def test_dual_disc_kernel_is_conjugation_of_arguments():
    rng = np.random.default_rng(53)
    k = DiscPowerKernel(2)
    dk = dual_kernel(k)
    for _ in range(20):
        z, w = disc_points(rng, 2)
        expected = np.conj(k.eval(np.conj(z), np.conj(w)))
        assert np.max(np.abs(dk.eval(z, w) - expected)) == 0.0
        # and for the disc family the closed form is reproduced verbatim
        assert abs(dk.eval(z, w)[0, 0] - (1 - z[0] * np.conj(w[0])) ** -2.0) <= 1e-12


def test_dual_constant_kernel_transposes():
    m = np.array([[2.0, 1j], [-1j, 3.0]])
    dk = dual_kernel(ConstantKernel(m))
    assert np.array_equal(dk.eval(np.zeros(1), np.zeros(1)), m.T)


def test_dual_preserves_admissibility_on_disc_samples():
    rng = np.random.default_rng(59)
    k = DiscPowerKernel(1.5)
    dk = dual_kernel(k)
    for z in disc_points(rng, 10):
        assert admissibility(dk, z).invertible == admissibility(k, z).invertible
