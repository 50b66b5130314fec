"""Shared test fixtures: random fields with known structure, disc references
and the pinned workloads."""

import functools
import importlib.util
from pathlib import Path

import numpy as np

from bck.chern import MetricField
from bck.forms import Record
from bck.kernels import KernelSpec
from bck.polys import MatrixPolynomial


def bit_equal(a, b) -> bool:
    """Same class, and every array of the same dtype, shape and bytes."""
    if isinstance(a, Record):
        return type(a) is type(b) and all(bit_equal(getattr(a, name), getattr(b, name)) for name in a._fields)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


@functools.cache
def perfbench_workloads():
    """perfbench/workloads.py, the benchmark's pinned workloads, as a module."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def workload_config(name: str, seed: int) -> dict:
    """A new copy of a pinned workload's config at a seed."""
    return perfbench_workloads().make_config(name, seed)


class MappedKernel(KernelSpec):
    """A kernel whose blocks are `blocks(z, w, base's blocks)`, with base's
    domain and claim of holomorphy."""

    def __init__(self, base: KernelSpec, blocks):
        self.base, self.blocks = base, blocks
        self.variant, self.holomorphic = base.variant, base.holomorphic
        self.fiber_dim, self.base_dim = base.fiber_dim, base.base_dim

    def eval_many(self, z, w):
        return self.blocks(z, w, self.base.eval_many(z, w))

    def contains_batch(self, z):
        return self.base.contains_batch(z)

    def boundary_distance_batch(self, z):
        return self.base.boundary_distance_batch(z)


def cmat(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def disc_metric(nu, z):
    return 1.0 / (1.0 - abs(z) ** 2) ** nu


def disc_connection(nu, z):
    return nu * np.conj(z) / (1.0 - abs(z) ** 2)


def disc_curvature(nu, z):
    return nu / (1.0 - abs(z) ** 2) ** 2


def poly_metric(rng, dim, n, degree=2, amplitude=0.3, name="poly metric"):
    """Smooth Hermitian positive-definite polynomial metric I + C(z)* C(z)."""
    c = MatrixPolynomial.random(rng, dim, (n, n), degree=degree, amplitude=amplitude)

    def func(z):
        m = c(z)
        return np.eye(n, dtype=complex) + m.conj().T @ m

    return MetricField(func=func, dim=dim, fiber_dim=n, name=name)


def full_rank_sections(rng, dim, n, extra=2, degree=3, amplitude=0.7):
    """Holomorphic n x (n + extra) section matrix [I | random], full rank everywhere."""
    tail = MatrixPolynomial.random(
        rng, dim, (n, extra), degree=degree, holomorphic=True, amplitude=amplitude
    )

    def sections(z):
        return np.hstack([np.eye(n, dtype=complex), tail(z)])

    return sections
