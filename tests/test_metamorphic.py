"""Transformation laws of curvature: exact identities that hold on any
family, with no closed form, gated at the method-agreement tolerance.

The fixed rank-1 laws run on the nu = 2 disc metric with Richardson steps;
the chart, normalization and twist laws also run over small random
families of the built-in kernels, rank 2 included, on both routes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bck.chern
from _fields import cmat, full_rank_sections
from bck.chern import (
    FdSteps,
    MetricField,
    analytic_curvature_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
)
from bck.forms import Stencil
from bck.kernels import ConstantKernel, DiscPowerKernel, SectionKernel, disc_power, universal_grassmann

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


RICH = FdSteps(richardson=True)
DISC = metric_from_kernel(disc_power(2))
DISC_POINTS = np.array([[0.1 + 0.2j], [-0.35 + 0.1j], [0.3 - 0.25j]])


def _r11(metric, points, route):
    if route == "analytic":
        return analytic_curvature_field(metric_jet(metric, points, RICH)).form.r11
    return nested_curvature_field(metric, points, RICH).form.r11


def _twisted(z):
    """The disc metric times the weight exp(-0.7 |z|^2)."""
    return np.exp(-0.7 * np.sum(abs(z) ** 2, axis=-1))[..., None, None] * DISC.batch(z)


TWISTED = MetricField(None, 1, 1, domain=DISC.domain, name="twisted disc metric", batch_func=_twisted)


@pytest.mark.parametrize("route", ["analytic", "nested"])
def test_twist_by_a_weight_shifts_the_curvature(route):
    # h -> exp(-c |z|^2) h adds d-bar d of -c |z|^2, that is -c, to r11
    r11 = _r11(DISC, DISC_POINTS, route)
    got = _r11(TWISTED, DISC_POINTS, route)
    assert _relative(got, r11 - 0.7) <= TOL
    assert _relative(got, r11 + 0.7) > 0.1


class _Normalized(DiscPowerKernel):
    """phi(z) K(z, w) conj(phi(w)) with phi = e^z + 2, nowhere zero on the disc."""

    def eval_many(self, z, w):
        phi_z, phi_w = (np.exp(p[..., 0]) + 2 for p in (np.asarray(z), np.asarray(w)))
        return phi_z[..., None, None] * super().eval_many(z, w) * np.conj(phi_w)[..., None, None]


def test_normalizing_the_kernel_keeps_the_curvature():
    # h -> |phi|^2 h changes log h by a harmonic function
    got = _r11(metric_from_kernel(_Normalized(2)), DISC_POINTS, "analytic")
    assert _relative(got, _r11(DISC, DISC_POINTS, "analytic")) <= TOL


def test_direct_sum_has_block_diagonal_curvature():
    def blocks(z):
        out = np.zeros(np.shape(z)[:-1] + (2, 2), dtype=complex)
        out[..., :1, :1], out[..., 1:, 1:] = DISC.batch(z), _twisted(z)
        return out

    summed = MetricField(None, 1, 2, domain=DISC.domain, name="disc metric and its twist", batch_func=blocks)
    got = _r11(summed, DISC_POINTS, "analytic")
    law = np.zeros_like(got)
    law[..., :1, :1], law[..., 1:, 1:] = _r11(DISC, DISC_POINTS, "analytic"), _r11(TWISTED, DISC_POINTS, "analytic")
    assert _relative(got, law) <= TOL


@pytest.mark.parametrize("route", ["analytic", "nested"])
def test_disc_automorphism_carries_the_derivative_squared(route):
    # pulling h back along phi(z) = (a - z) / (1 - conj(a) z) gives
    # r11'(z) = |phi'(z)|^2 r11(phi(z)), phi'(z) = (|a|^2 - 1) / (1 - conj(a) z)^2
    a = 0.5 - 0.3j

    def phi(z):
        return (a - z) / (1 - np.conj(a) * z)

    pulled = MetricField(None, 1, 1, domain=DISC.domain, name="pulled disc metric", batch_func=lambda z: DISC.batch(phi(z)))
    dphi = (abs(a) ** 2 - 1) / (1 - np.conj(a) * DISC_POINTS[:, 0]) ** 2
    r11 = _r11(DISC, phi(DISC_POINTS), route)
    got = _r11(pulled, DISC_POINTS, route)
    assert _relative(got, abs(dphi[:, None, None]) ** 2 * r11) <= TOL
    assert _relative(got, r11) > 0.05


@pytest.mark.parametrize("route", ["analytic", "nested"])
def test_a_holomorphic_gauge_of_rank_two_sections_conjugates_the_curvature(route):
    # E -> g E, g holomorphic and invertible, moves the column frame E^T to
    # E^T a with a = g^T holomorphic, so h -> a* h a and r11 -> a^-1 r11 a;
    # the metric E E* would take the antiholomorphic frame change g* and
    # miss the law by 1.8
    sections = full_rank_sections(np.random.default_rng(3), 2, 2)

    def g(z):
        return np.array([[1 + 0.5 * z[0], 0.3 * z[1]], [0.4j * z[0], 1 - 0.2 * z[1] + 0.3 * z[0] * z[1]]])

    base = metric_from_kernel(SectionKernel(sections, base_dim=2))
    gauged = metric_from_kernel(SectionKernel(lambda z: g(z) @ sections(z), base_dim=2))
    pts = np.array([[0.1 + 0.2j, -0.3j], [0.25 - 0.1j, 0.15 + 0.05j], [-0.2, 0.3 + 0.1j]])
    a = np.stack([g(z).T for z in pts])
    law = np.linalg.solve(a, _r11(base, pts, route) @ a)
    assert _relative(_r11(gauged, pts, route), law) <= TOL


# -- the laws over small random families --------------------------------------

FAMILIES = ("sections-rank-1", "sections-rank-2", "grassmann-3-1", "disc-nu-2", "constant")


def _family(kind: str, rng):
    """The kernel metric of a small random family of its kind, and two points
    of its domain."""
    dim = 2 if kind == "grassmann-3-1" else 1 if kind == "disc-nu-2" else int(rng.integers(1, 3))
    if kind.startswith("sections"):
        n, degree = int(kind[-1]), int(rng.integers(1, 3))
        spec = SectionKernel(full_rank_sections(rng, dim, n, degree=degree), base_dim=dim)
    elif kind == "grassmann-3-1":
        spec = universal_grassmann(3, 1)
    elif kind == "disc-nu-2":
        spec = disc_power(2)
    else:
        b = cmat(rng, 2, 2)
        spec = ConstantKernel(b @ b.conj().T + np.eye(2), base_dim=dim)
    points = 0.5 * (rng.uniform(-1, 1, (2, dim)) + 1j * rng.uniform(-1, 1, (2, dim))) / np.sqrt(2 * dim)
    return metric_from_kernel(spec), points


def _transformed(metric, law: str, rng):
    """The metric under a law and the r11 the law predicts from the
    original metric's r11 at given points, by a given route."""
    dim = metric.dim
    if law == "chart":  # h(A z): r11'[k, j](z) = sum_ab conj(A[a, k]) A[b, j] r11[a, b](A z)
        c = cmat(rng, dim, dim)
        a = np.eye(dim) + 0.3 * c / np.linalg.norm(c)  # |A z| <= 1.3 |z|, inside the disc
        field = MetricField(None, dim, metric.fiber_dim, name="pulled metric", batch_func=lambda z: metric.batch(z @ a.T))

        def law_r11(points, route):
            return np.einsum("ak,bj,ab...->kj...", a.conj(), a, _r11(metric, points @ a.T, route))
    elif law == "normalization":  # |phi|^2 h, phi = exp(c . z) + 2 nowhere zero: r11 unchanged
        c = cmat(rng, dim)
        c *= 0.5 / np.linalg.norm(c)  # |c . z| <= 0.25, so phi stays near 3

        def scaled(z):
            return (abs(np.exp(z @ c) + 2) ** 2)[..., None, None] * metric.batch(z)

        field = MetricField(None, dim, metric.fiber_dim, name="normalized metric", batch_func=scaled)

        def law_r11(points, route):
            return _r11(metric, points, route)
    else:  # exp(-t |z|^2) h: r11'[k, j] = r11[k, j] - t delta_kj
        t = float(rng.uniform(0.1, 1.0))

        def twisted(z):
            return np.exp(-t * np.sum(abs(z) ** 2, axis=-1))[..., None, None] * metric.batch(z)

        field = MetricField(None, dim, metric.fiber_dim, name="twisted metric", batch_func=twisted)

        def law_r11(points, route):
            shift = np.eye(dim)[:, :, None, None, None] * np.eye(metric.fiber_dim)
            return _r11(metric, points, route) - t * shift
    return field, law_r11


@pytest.mark.parametrize("route", ["analytic", "nested"])
@pytest.mark.parametrize("law", ["chart", "normalization", "twist"])
@pytest.mark.parametrize("kind", FAMILIES)
@settings(max_examples=3, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_laws_hold_on_random_families(kind, law, route, seed):
    # the chart, normalization and twist laws hold for any Hermitian metric,
    # h and its transpose alike, so rank-2 section kernels belong here
    rng = np.random.default_rng(seed)
    metric, points = _family(kind, rng)
    field, law_r11 = _transformed(metric, law, rng)
    assert _relative(_r11(field, points, route), law_r11(points, route)) <= TOL
