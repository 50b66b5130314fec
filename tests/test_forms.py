"""Form calculus: type projectors, wedge, exterior derivative, Dolbeault split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bck.chern import analytic_curvature_field, metric_from_kernel, metric_jet
from bck.errors import DomainError, StructuralError
from bck.forms import (
    BilinearSamples,
    Form1,
    Form2,
    Stencil,
    cauchy_riemann_residual,
    delbar_norms,
    exterior_derivative,
    form_norm,
    split_bilinear,
    split_linear,
    pointwise,
    wedge,
)
from bck.kernels import DiscPowerKernel, gram
from bck.positivity import griffiths_verdict
from bck.polys import MatrixPolynomial

from _fields import bit_equal, cmat


# -- split of real-linear maps ------------------------------------------------


def test_split_linear_identity_is_already_complex_linear():
    t10, t01 = split_linear(lambda v: np.asarray(v[0]), 1)
    assert abs(t10.p[0] - 1.0) <= 1e-15
    assert abs(t01.q[0]) <= 1e-15


def test_split_linear_conjugation_is_already_conjugate_linear():
    t10, t01 = split_linear(lambda v: np.asarray(np.conj(v[0])), 1)
    assert abs(t10.p[0]) <= 1e-15
    assert abs(t01.q[0] - 1.0) <= 1e-15


def test_split_linear_mixed_map():
    # T(v) = v + 2 conj(v): the projectors give back the two pieces exactly
    t10, t01 = split_linear(lambda v: np.asarray(v[0] + 2.0 * np.conj(v[0])), 1)
    assert abs(t10.p[0] - 1.0) <= 1e-12
    assert abs(t01.q[0] - 2.0) <= 1e-12


def test_split_linear_rejects_non_finite():
    with pytest.raises(ValueError):
        split_linear(lambda v: np.asarray(complex("nan")), 1)


def test_split_linear_round_trip_and_idempotence():
    rng = np.random.default_rng(11)
    dim, n = 3, 2
    a, b = cmat(rng, dim, n, n), cmat(rng, dim, n, n)

    def t(v):
        v = np.asarray(v, dtype=complex)
        return np.tensordot(v, a, (0, 0)) + np.tensordot(v.conj(), b, (0, 0))

    t10, t01 = split_linear(t, dim)
    for _ in range(4 * 2 * dim):
        v = cmat(rng, dim)
        assert np.linalg.norm(t10(v) + t01(v) - t(v)) <= 1e-12
        # components have the right linearity type
        assert np.linalg.norm(t10(1j * v) - 1j * t10(v)) <= 1e-12
        assert np.linalg.norm(t01(1j * v) + 1j * t01(v)) <= 1e-12
    again10, again01 = split_linear(lambda v: t10(v), dim)
    assert np.max(np.abs(again10.p - t10.p)) <= 1e-12
    assert np.max(np.abs(again01.q)) <= 1e-12


# -- split of skew bilinear maps ----------------------------------------------


def test_split_bilinear_mixed_type_example():
    # phi(v, w) = conj(v) w - conj(w) v is purely of mixed type
    phi = lambda v, w: np.asarray(np.conj(v[0]) * w[0] - np.conj(w[0]) * v[0])
    form = split_bilinear(phi, 1)
    assert abs(form.r11[0, 0] - 1.0) <= 1e-12
    assert np.max(np.abs(form.c20)) <= 1e-12
    assert np.max(np.abs(form.c02)) <= 1e-12


def test_split_bilinear_vanishing_symmetric_combinations():
    for phi in (
        lambda v, w: np.asarray(v[0] * w[0] - w[0] * v[0]),
        lambda v, w: np.asarray(np.conj(v[0] * w[0]) - np.conj(w[0] * v[0])),
    ):
        form = split_bilinear(phi, 1)
        assert form_norm(form) <= 1e-12


def test_split_bilinear_rejects_non_skew():
    with pytest.raises(StructuralError, match="asymmetry"):
        split_bilinear(lambda v, w: np.asarray(v[0] * w[0]), 1)


def test_split_bilinear_rejects_a_nan_map():
    # the skewness gate fails closed: a NaN asymmetry does not pass it
    with pytest.raises(StructuralError, match="measured asymmetry nan"):
        split_bilinear(lambda v, w: np.asarray(np.nan), 1)


def test_split_bilinear_reassembles_random_two_forms():
    rng = np.random.default_rng(5)
    dim, n = 2, 2
    c20 = cmat(rng, dim, dim, n, n)
    c20 = c20 - np.swapaxes(c20, 0, 1)
    c02 = cmat(rng, dim, dim, n, n)
    c02 = c02 - np.swapaxes(c02, 0, 1)
    reference = Form2(c20, cmat(rng, dim, dim, n, n), c02)
    recovered = split_bilinear(reference, dim)
    assert np.max(np.abs(recovered.c20 - reference.c20)) <= 1e-12
    assert np.max(np.abs(recovered.r11 - reference.r11)) <= 1e-12
    assert np.max(np.abs(recovered.c02 - reference.c02)) <= 1e-12
    for _ in range(8):
        v, w = cmat(rng, dim), cmat(rng, dim)
        assert np.linalg.norm(recovered(v, w) - reference(v, w)) <= 1e-12


def _split_bilinear_by_permutation(phi, dim):
    """The split with the (iv, iw) rotation written as a permutation of the
    probes with signs: i e_j is probe d + j and i (i e_j) = -e_j."""
    basis = np.eye(dim, dtype=complex)
    probes = np.concatenate([basis, 1j * basis])
    samples = np.array([[phi(v, w) for w in probes] for v in probes], dtype=complex)
    rho = np.r_[dim : 2 * dim, 0:dim]
    sign = np.r_[np.ones(dim), -np.ones(dim)]
    expand = (...,) + (None,) * (samples.ndim - 2)
    rotated = (sign[:, None] * sign[None, :])[expand] * samples[rho][:, rho]
    mixed, pure = 0.5 * (samples + rotated), 0.5 * (samples - rotated)
    r11 = 0.5 * (mixed[:dim, :dim] + 1j * mixed[dim:, :dim])
    c20 = 0.5 * (pure[:dim, :dim] - 1j * pure[dim:, :dim])
    c02 = 0.5 * (pure[:dim, :dim] + 1j * pure[dim:, :dim])
    c20 = 0.5 * (c20 - np.swapaxes(c20, 0, 1))
    c02 = 0.5 * (c02 - np.swapaxes(c02, 0, 1))
    return Form2(c20, r11, c02)


# finite parts with both zeros, so signed zeros reach the probe tensor
_PARTS = st.floats(-4, 4, allow_nan=False) | st.sampled_from([0.0, -0.0])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.sampled_from([(), (1, 1), (2, 2)]), st.booleans(), st.data())
def test_split_bilinear_is_bit_equal_to_the_permutation_rotation(dim, values, from_samples, data):
    # a skew map given by a Form2, or by an antisymmetric probe tensor
    shape = ((2 * dim, 2 * dim) if from_samples else (3, dim, dim)) + values
    size = int(np.prod(shape))
    c = np.empty(size, dtype=complex)
    c.real = data.draw(st.lists(_PARTS, min_size=size, max_size=size))
    c.imag = data.draw(st.lists(_PARTS, min_size=size, max_size=size))
    c = c.reshape(shape)
    if from_samples:
        phi = BilinearSamples(c - np.swapaxes(c, 0, 1), dim)
    else:
        phi = Form2(c[0] - np.swapaxes(c[0], 0, 1), c[1], c[2] - np.swapaxes(c[2], 0, 1))
    assert bit_equal(split_bilinear(phi, dim), _split_bilinear_by_permutation(phi, dim))


def test_bilinear_samples_rotations_are_the_probe_rotations():
    # rotate_first/second/both evaluate the map at (iv, w), (v, iw), (iv, iw)
    rng = np.random.default_rng(11)
    dim = 2
    t = cmat(rng, 2 * dim, 2 * dim, 2, 2)
    phi = BilinearSamples(t, dim)
    v, w = cmat(rng, dim), cmat(rng, dim)
    for rotated, (x, y) in [
        (phi.rotate_first(), (1j * v, w)),
        (phi.rotate_second(), (v, 1j * w)),
        (phi.rotate_both(), (1j * v, 1j * w)),
    ]:
        assert np.linalg.norm(rotated(v, w) - phi(x, y)) <= 1e-12
    assert bit_equal(BilinearSamples.from_callable(phi, dim).tensor, t)


# -- wedge products -----------------------------------------------------------


def test_wedge_dzbar_dz():
    dzbar = Form1(np.array([0.0 + 0j]), np.array([1.0 + 0j]))
    dz = Form1(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
    product = wedge(dzbar, dz)
    assert abs(product.r11[0, 0] - 1.0) <= 1e-15
    v, w = 0.3 + 0.7j, -0.2 + 0.4j
    expected = np.conj(v) * w - np.conj(w) * v
    assert abs(product(np.array([v]), np.array([w])) - expected) <= 1e-15
    # scalar values on a d = 2 chart: (a ^ b)(v, w) = a(v) b(w) - a(w) b(v)
    rng = np.random.default_rng(5)
    a, b = Form1(cmat(rng, 2), cmat(rng, 2)), Form1(cmat(rng, 2), cmat(rng, 2))
    product = wedge(a, b)
    assert product.r11.shape == (2, 2)
    for _ in range(5):
        v, w = cmat(rng, 2), cmat(rng, 2)
        assert abs(product(v, w) - (a(v) * b(w) - a(w) * b(v))) <= 1e-13


def test_wedge_scalar_zero_form_scales_pointwise():
    rng = np.random.default_rng(3)
    beta = Form1(cmat(rng, 2, 2, 2), cmat(rng, 2, 2, 2))
    scaled = wedge(np.asarray(2.5 + 0j), beta)
    assert np.max(np.abs(scaled.p - 2.5 * beta.p)) == 0.0


def test_wedge_dz_dz_vanishes():
    dz = Form1(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
    assert form_norm(wedge(dz, dz)) == 0.0


def test_wedge_rejects_degree_overflow():
    dz = Form1(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
    two = wedge(dz, dz)
    with pytest.raises(ValueError, match="degree"):
        wedge(two, dz)
    with pytest.raises(ValueError, match="degree"):
        wedge(dz, two)


def test_form_norm_carries_a_nan_coefficient():
    rng = np.random.default_rng(5)
    r11 = cmat(rng, 2, 2, 2, 2)
    r11[1, 0, 0, 1] = np.nan
    assert np.isnan(form_norm(Form2(cmat(rng, 2, 2, 2, 2), r11, cmat(rng, 2, 2, 2, 2))))


def test_wedge_skewness_exact():
    rng = np.random.default_rng(7)
    dim, n = 2, 2
    alpha = Form1(cmat(rng, dim, n, n), cmat(rng, dim, n, n))
    beta = Form1(cmat(rng, dim, n, n), cmat(rng, dim, n, n))
    product = wedge(alpha, beta)
    for _ in range(10):
        v, w = cmat(rng, dim), cmat(rng, dim)
        assert np.max(np.abs(product(v, w) + product(w, v))) == 0.0


# -- exterior derivative ------------------------------------------------------


def test_exterior_derivative_of_constant_vanishes():
    rng = np.random.default_rng(1)
    value = cmat(rng, 2, 2)
    df = exterior_derivative(lambda z: value, np.array([0.1 + 0.2j, -0.3j]), 1e-5)
    assert form_norm(df) <= 1e-10


def test_exterior_derivative_zbar_dz():
    field = lambda z: Form1(np.array([np.conj(z[0])]), np.array([0.0 + 0j]))
    two = exterior_derivative(field, np.array([0.2 + 0.1j]), 1e-5)
    assert abs(two.r11[0, 0] - 1.0) <= 1e-10
    assert abs(two.c20[0, 0]) <= 1e-10 and abs(two.c02[0, 0]) <= 1e-10


def test_exterior_derivative_z_dz_vanishes():
    field = lambda z: Form1(np.array([z[0]]), np.array([0.0 + 0j]))
    two = exterior_derivative(field, np.array([0.2 + 0.1j]), 1e-5)
    assert form_norm(two) <= 1e-10


def test_exterior_derivative_matches_alternating_sum():
    # directional-derivative definition: (d sigma)(v, w) = D_v[sigma(.)(w)] - D_w[sigma(.)(v)]
    rng = np.random.default_rng(9)
    dim, n = 2, 2
    ps = [MatrixPolynomial.random(rng, dim, (n, n), degree=2) for _ in range(dim)]
    qs = [MatrixPolynomial.random(rng, dim, (n, n), degree=2) for _ in range(dim)]

    def field(z):
        return Form1(np.stack([p(z) for p in ps]), np.stack([q(z) for q in qs]))

    z0 = np.array([0.2 - 0.1j, 0.05 + 0.3j])
    two = exterior_derivative(field, z0, 1e-5, richardson=True)
    eps = 1e-5
    for _ in range(4):
        v, w = cmat(rng, dim), cmat(rng, dim)
        dv = (field(z0 + eps * v)(w) - field(z0 - eps * v)(w)) / (2 * eps)
        dw = (field(z0 + eps * w)(v) - field(z0 - eps * w)(v)) / (2 * eps)
        assert np.linalg.norm(two(v, w) - (dv - dw)) <= 1e-5


def test_d_squared_and_dolbeault_squares_vanish():
    rng = np.random.default_rng(21)
    dim, n = 2, 2
    for _ in range(3):
        poly = MatrixPolynomial.random(rng, dim, (n, n), degree=3)
        z0 = 0.3 * cmat(rng, dim)

        def first(w):
            return exterior_derivative(poly, w, 1e-5, richardson=True)

        def only_q(w):
            df = first(w)
            return Form1(np.zeros_like(df.q), df.q)

        def only_p(w):
            df = first(w)
            return Form1(df.p, np.zeros_like(df.p))

        assert form_norm(exterior_derivative(first, z0, 1e-4)) <= 1e-5
        ddbar = exterior_derivative(only_q, z0, 1e-4)
        ddel = exterior_derivative(only_p, z0, 1e-4)
        assert np.max(np.abs(ddbar.c02)) <= 1e-5  # delbar^2 = 0
        assert np.max(np.abs(ddel.c20)) <= 1e-5  # del^2 = 0


def test_graded_product_rule():
    rng = np.random.default_rng(31)
    dim, n = 2, 2
    f = MatrixPolynomial.random(rng, dim, (n, n), degree=2)
    g = MatrixPolynomial.random(rng, dim, (n, n), degree=2)
    ps = [MatrixPolynomial.random(rng, dim, (n, n), degree=2) for _ in range(dim)]
    qs = [MatrixPolynomial.random(rng, dim, (n, n), degree=2) for _ in range(dim)]
    one_form = lambda z: Form1(np.stack([p(z) for p in ps]), np.stack([q(z) for q in qs]))
    z0 = np.array([0.15 + 0.2j, -0.1 + 0.05j])

    df = exterior_derivative(f, z0, 1e-5, richardson=True)
    dg = exterior_derivative(g, z0, 1e-5, richardson=True)
    dbeta = exterior_derivative(one_form, z0, 1e-5, richardson=True)

    lhs0 = exterior_derivative(lambda w: f(w) @ g(w), z0, 1e-5, richardson=True)
    rhs0 = wedge(df, g(z0)) + wedge(f(z0), dg)
    assert form_norm(lhs0 - rhs0) <= 1e-5

    lhs1 = exterior_derivative(lambda w: wedge(f(w), one_form(w)), z0, 1e-4)
    rhs1 = wedge(df, one_form(z0)) + wedge(f(z0), dbeta)
    assert form_norm(lhs1 - rhs1) <= 1e-5

    # degree-1 left factor flips the sign of the second term
    lhs2 = exterior_derivative(lambda w: wedge(one_form(w), g(w)), z0, 1e-4)
    rhs2 = wedge(dbeta, g(z0)) - wedge(one_form(z0), dg)
    assert form_norm(lhs2 - rhs2) <= 1e-5


# -- Wirtinger operators ------------------------------------------------------


@pytest.mark.parametrize(
    "f, z0, dz, dzbar, tol",
    [
        (lambda z: z[0], 0.3 + 0.4j, 1.0, 0.0, 1e-12),
        (lambda z: abs(z[0]) ** 2, 0.3 - 0.2j, 0.3 + 0.2j, 0.3 - 0.2j, 1e-11),
        (lambda z: np.conj(z[0]), 0.1 + 0.7j, 0.0, 1.0, 1e-11),
    ],
    ids=["holomorphic_monomial", "modulus_squared", "antiholomorphic"],
)
def test_wirtinger_first_values(f, z0, dz, dzbar, tol):
    df = exterior_derivative(lambda z: np.asarray(f(z)), np.array([z0]), 1e-5)
    assert abs(df.p[0] - dz) <= tol
    assert abs(df.q[0] - dzbar) <= tol


def test_del_plus_delbar_is_full_differential():
    rng = np.random.default_rng(17)
    poly = MatrixPolynomial.random(rng, 2, (2, 2), degree=3)
    z0 = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    # the Wirtinger derivatives, the stencil's first derivatives over the
    # node values, are the dz and dzbar parts of df
    df = exterior_derivative(poly, z0, 1e-5)
    stencil = Stencil(2, first=1e-5)
    p, q = stencil.first_derivatives(stencil.by_node(stencil.on_points(pointwise(poly), z0[None]), 1))
    assert np.max(np.abs(df.p - p[:, 0])) <= 1e-12
    assert np.max(np.abs(df.q - q[:, 0])) <= 1e-12


def _exact_wirtinger(poly: MatrixPolynomial, z: np.ndarray):
    """(d/dz_j, d/dzbar_j, d^2/dzbar_k dz_j at [k, j]) of `poly` at z, term
    by term from the powers (p, q) of C z^p conj(z)^q."""
    d, eye = poly.dim, np.eye(poly.dim, dtype=int)

    def mono(p, q):  # a power that would go negative has a zero factor in front
        return np.prod(z ** np.maximum(p, 0)) * np.prod(np.conj(z) ** np.maximum(q, 0))

    dz, dzbar = np.zeros((2, d) + poly.shape, dtype=complex)
    mixed = np.zeros((d, d) + poly.shape, dtype=complex)
    for (p, q), c in poly.terms.items():
        p, q = np.array(p), np.array(q)
        for j in range(d):
            dz[j] += p[j] * mono(p - eye[j], q) * c
            dzbar[j] += q[j] * mono(p, q - eye[j]) * c
            for k in range(d):
                mixed[k, j] += p[j] * q[k] * mono(p - eye[j], q - eye[k]) * c
    return dz, dzbar, mixed


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    richardson=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    radii=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2),
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=2),
)
def test_stencil_weights_are_exact_on_polynomials_of_their_order(dim, richardson, seed, radii, angles):
    """Every first and mixed derivative row, k != j included, is exact up to
    round-off on polynomials of the degree its differences cancel: 2 for
    the central differences, 4 once Richardson removes their h^2 term."""
    poly = MatrixPolynomial.random(np.random.default_rng(seed), dim, (2, 2), degree=4 if richardson else 2)
    z = (np.array(radii) * np.exp(1j * np.array(angles)))[:dim]
    stencil = Stencil(dim, first=1e-2, mixed=2e-2, richardson=richardson, centre=True)
    values = stencil.by_node(stencil.on_points(poly, z[None]), 1)
    p, q = stencil.first_derivatives(values)
    mixed = stencil.mixed_derivatives(values)
    tol = 1e-9 * max(1.0, np.max(np.abs(values)))
    for got, exact in zip((p, q, mixed), _exact_wirtinger(poly, z)):
        assert np.max(np.abs(got[..., 0, :, :] - exact)) <= tol


def test_cauchy_riemann_residual_values():
    grid = np.linspace(-0.5, 0.5, 5)
    pts = np.array([[x + 1j * y] for x in grid for y in grid])
    assert cauchy_riemann_residual(lambda z: np.asarray(z[0] ** 2), pts, 1e-5) <= 1e-9
    resid = cauchy_riemann_residual(lambda z: np.asarray(np.conj(z[0])), pts, 1e-5)
    assert abs(resid - 1.0) <= 1e-9
    resid = cauchy_riemann_residual(lambda z: np.asarray(z[0].real), pts, 1e-5)
    assert abs(resid - 0.5) <= 1e-9


def test_cauchy_riemann_residual_rejects_empty_sample():
    with pytest.raises(ValueError, match="empty"):
        cauchy_riemann_residual(lambda z: np.asarray(z[0]), np.empty((0, 1)), 1e-5)


def _sample_entries():
    """Each entry that takes a sample of points, as a function of the sample,
    and whether it knows the dimension a point must have (here d = 1)."""
    disc = DiscPowerKernel(2)
    metric = metric_from_kernel(disc)
    field = analytic_curvature_field(metric_jet(metric, np.array([[0.1]]), order=2))
    return {
        "gram": (lambda p: gram(disc, p), True),
        "griffiths_verdict": (lambda p: griffiths_verdict(metric, field, p, directions=4), True),
        "delbar_norms": (lambda p: delbar_norms(pointwise(lambda z: z[0] ** 2), p, 1e-5), False),
        "cauchy_riemann_residual": (lambda p: cauchy_riemann_residual(lambda z: z[0] ** 2, p, 1e-5), False),
    }


@pytest.mark.parametrize("entry", ["gram", "griffiths_verdict", "delbar_norms", "cauchy_riemann_residual"])
def test_every_sample_entry_accepts_points_by_one_rule(entry):
    # forms.as_sample is the one rule, so every entry gives the same answer
    # to the same sample: one point or a scalar is a sample of one; a
    # non-finite point, a stack of more than two axes or an empty sample is
    # the same ValueError; and where the entry knows d, so is a wrong d
    call, knows_dim = _sample_entries()[entry]
    fields = lambda result: getattr(result, "__dict__", result)
    for one in (0.1, np.array([0.1])):
        np.testing.assert_equal(fields(call(one)), fields(call(np.array([[0.1]]))))
    with pytest.raises(ValueError, match="chart point has non-finite coordinates"):
        call(np.array([[0.1], [np.nan], [-0.3]]))
    for wrong in (np.full((3, 1, 1), 0.1), np.empty((0, 1))):
        with pytest.raises(ValueError, match=r"must be a non-empty \(N, d\) array"):
            call(wrong)
    if knows_dim:
        with pytest.raises(ValueError, match="must have 1 coordinates along the last axis"):
            call(np.full((3, 2), 0.1))


def test_exterior_derivative_stencil_domain_guard():
    from bck.errors import DomainError
    from bck.kernels import DiscPowerKernel

    disc = DiscPowerKernel(1)
    field = lambda z: np.asarray(z[0] ** 2)
    with pytest.raises(DomainError, match="stencil"):
        exterior_derivative(field, np.array([0.999]), 1e-2, domain=disc)
    with pytest.raises(DomainError, match="outside"):
        exterior_derivative(field, np.array([1.5]), 1e-5, domain=disc)


def test_exterior_derivative_evaluates_each_node_once():
    calls = []

    def field(w):
        calls.append(w.tobytes())
        return Form1(np.array([[np.conj(w[0]) ** 2, 1.0]]), np.zeros((1, 2)))

    z0 = np.array([0.2 + 0.1j])
    two = exterior_derivative(field, z0, 1e-5, richardson=True)
    assert len(calls) == len(set(calls)) == 8  # 4 nodes per step level, z itself unused
    assert abs(two.r11[0, 0, 0] - 2.0 * np.conj(z0[0])) <= 1e-8


def test_form1_evaluation_additive_and_real_homogeneous():
    rng = np.random.default_rng(91)
    form = Form1(cmat(rng, 2, 2, 2), cmat(rng, 2, 2, 2))
    for _ in range(6):
        v, w = cmat(rng, 2), cmat(rng, 2)
        assert np.max(np.abs(form(v + w) - (form(v) + form(w)))) <= 1e-12
        for a in (-1.5, 0.25, 3.0):  # real scalars only; i mixes p and q
            assert np.max(np.abs(form(a * v) - a * form(v))) <= 1e-12


@pytest.mark.parametrize("dim, value_shape", [(1, ()), (2, (2, 2)), (3, (4, 2, 2))])
def test_forms_on_a_vector_stack_equal_a_loop_of_one_vector_calls(dim, value_shape):
    # bit for bit: a stack contracts each vector as a one-vector call does
    rng = np.random.default_rng(17)
    one = Form1(cmat(rng, dim, *value_shape), cmat(rng, dim, *value_shape))
    two = Form2(*(cmat(rng, dim, dim, *value_shape) for _ in range(3)))
    v, w = cmat(rng, 5, dim), cmat(rng, 5, dim)
    assert one(v).shape == (5,) + value_shape
    assert bit_equal(one(v), np.array([one(x) for x in v]))
    assert bit_equal(two(v, w), np.array([two(x, y) for x, y in zip(v, w)]))
    # one vector broadcasts against a stack, on either side
    assert bit_equal(two(v, w[0]), np.array([two(x, w[0]) for x in v]))
    assert bit_equal(two(v[0], w), np.array([two(v[0], y) for y in w]))
    assert two(v.reshape(5, 1, dim), w).shape == (5, 5) + value_shape


def test_forms_reject_vectors_of_the_wrong_length_or_not_finite():
    rng = np.random.default_rng(18)
    one = Form1(cmat(rng, 2, 2, 2), cmat(rng, 2, 2, 2))
    two = Form2(*(cmat(rng, 2, 2, 2, 2) for _ in range(3)))
    good, bad = cmat(rng, 4, 2), cmat(rng, 4, 3)
    poisoned = good.copy()
    poisoned[2, 1] = np.nan
    for call in (lambda: one(bad), lambda: two(bad, good), lambda: two(good[0], bad),
                 lambda: one(poisoned), lambda: two(good, poisoned), lambda: two(poisoned[2], good)):
        with pytest.raises(ValueError):
            call()


# -- one-contraction evaluation against the term-by-term formulas -------------


def _complex_arrays(draw, shape):
    values = st.floats(-2.0, 2.0, allow_nan=False)
    size = int(np.prod(shape, dtype=int))
    re = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
    im = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float)
    return (re + 1j * im).reshape(shape)


def _form2_by_tensordots(form, v, w):
    """Form2 evaluation as sixteen tensordots: the raw pairing
    raw(v, w) = c20(v, w) + r11(conj v, w) - r11(conj w, v) + c02(conj v, conj w),
    antisymmetrised as (raw(v, w) - raw(w, v)) / 2."""

    def pair(t, a, b):
        return np.tensordot(b, np.tensordot(a, t, axes=(0, 0)), axes=(0, 0))

    def raw(v, w):
        out = pair(form.c20, v, w)
        out = out + pair(form.r11, v.conj(), w) - pair(form.r11, w.conj(), v)
        return out + pair(form.c02, v.conj(), w.conj())

    return 0.5 * (raw(v, w) - raw(w, v))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), value_shape=st.sampled_from([(), (2,), (2, 2), (1, 3)]))
def test_form2_call_matches_tensordot_formula(data, dim, value_shape):
    blocks = [_complex_arrays(data.draw, (dim, dim) + value_shape) for _ in range(3)]
    form = Form2(*blocks)
    v, w = _complex_arrays(data.draw, (dim,)), _complex_arrays(data.draw, (dim,))
    reference = _form2_by_tensordots(form, v, w)
    value = form(v, w)
    size = (1.0 + np.abs(v).max()) * (1.0 + np.abs(w).max())
    scale = 1.0 + sum(np.abs(b).sum() for b in blocks) * size
    assert value.shape == value_shape
    assert np.max(np.abs(value - reference), initial=0.0) <= 1e-14 * scale
    assert np.array_equal(form(w, v), -value)  # skew exactly, not to round-off


def _poly_by_terms(poly, z):
    """Sum over terms of C z^p conj(z)^q, one monomial at a time."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape[:-1] + poly.shape, dtype=complex)
    expand = (...,) + (None,) * len(poly.shape)
    for (p, q), coeff in poly.terms.items():
        mono = np.ones(z.shape[:-1], dtype=complex)
        for j in range(poly.dim):
            mono = mono * z[..., j] ** p[j] * np.conj(z[..., j]) ** q[j]
        out = out + coeff * mono[expand]
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    shape=st.sampled_from([(), (3,), (2, 2), (2, 3)]),
    degree=st.integers(0, 4),
    terms=st.integers(0, 7),
    lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
)
def test_matrix_polynomial_matches_term_by_term_sum(seed, dim, shape, degree, terms, lead):
    rng = np.random.default_rng(seed)
    poly = MatrixPolynomial.random(rng, dim, shape, degree=degree, terms=terms)
    z = 0.9 * (rng.standard_normal(lead + (dim,)) + 1j * rng.standard_normal(lead + (dim,)))
    value = poly(z)
    reference = _poly_by_terms(poly, z)
    assert value.shape == lead + shape
    bound = sum(np.abs(c).max() for c in poly.terms.values()) * max(1.0, np.abs(z).max()) ** (2 * degree)
    assert np.max(np.abs(value - reference), initial=0.0) <= 1e-14 * max(1.0, bound)
    if lead:  # each point alone gives its stack values, to round-off
        flat = z.reshape(-1, dim)
        single = np.array([poly(p) for p in flat]).reshape(value.shape)
        assert np.max(np.abs(value - single), initial=0.0) <= 1e-14 * max(1.0, bound)


def test_matrix_polynomial_rejects_powers_that_are_not_natural_numbers():
    # a power is a natural number: 1.5 and -1 are refused, not truncated to
    # an integer, and an integral float is that integer
    for p in ((1.5,), (-1,)):
        with pytest.raises(ValueError, match="powers must be natural numbers"):
            MatrixPolynomial(1, {(p, (0,)): 2.0}, shape=())
    assert MatrixPolynomial(1, {((2.0,), (0,)): 1.0}, shape=())(np.array([0.5])) == 0.25


def test_matrix_polynomial_needs_its_shape():
    with pytest.raises(TypeError):
        MatrixPolynomial(1, {((1,), (0,)): np.eye(2)})


# -- batched stencil-domain check ---------------------------------------------


def test_on_points_names_first_failing_stencil_after_evaluating_earlier_nodes():
    stencil = Stencil(1, first=0.01)
    pts = np.array([[0.0], [0.5j], [0.995], [0.2], [1.5]], dtype=complex)
    seen = []

    def evaluate(nodes):
        seen.append(nodes.copy())
        return np.zeros(len(nodes))

    disc = DiscPowerKernel(2)
    with pytest.raises(DomainError, match=r"stencil of radius 2.000e-02 around \[0.995\+0.j\]"):
        stencil.on_points(evaluate, pts, disc)
    # the nodes of the two points before it and the failing point itself
    assert len(seen) == 1 and seen[0].shape == (2 * 4 + 1, 1)
    assert np.array_equal(seen[0][-1], pts[2])
    with pytest.raises(DomainError, match=r"point \[1.5\+0.j\] is outside the chart domain"):
        stencil.on_points(evaluate, pts[[0, 3, 4]], disc)
    assert len(stencil.on_points(evaluate, pts[[0, 1, 3]], disc)) == 3 * 4
    assert np.array_equal(disc.boundary_distance_batch(pts), [float(disc.boundary_distance_batch(p)) for p in pts])


def test_on_points_never_evaluates_a_failing_point_outside_the_domain():
    # a field may raise its own error outside the domain; the DomainError
    # must come first, and the point itself is never evaluated
    disc = DiscPowerKernel(1)
    calls = []

    def field(z):
        calls.append(complex(z[0]))
        return np.asarray(z[0] ** 2)

    with pytest.raises(DomainError, match="outside"):
        exterior_derivative(field, [1.5], 1e-5, domain=disc)
    assert calls == []
    with pytest.raises(DomainError, match=r"point \[1.5\+0.j\] is outside"):
        cauchy_riemann_residual(field, [[0.1], [1.5]], 1e-5, domain=disc)
    assert len(calls) == 4 and 1.5 not in calls
