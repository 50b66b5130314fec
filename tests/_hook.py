"""Importable kernel factories used by the user-hook config tests."""

import numpy as np

from bck.kernels import DiscPowerKernel, UserKernel


def make(nu=1.0, note=None):
    """The disc kernel of weight nu; `note` is ignored, so a test can put any
    value into the params."""
    return DiscPowerKernel(nu)


def make_edge(edge=0.3):
    """A kernel whose domain ends at re z = edge but which reports a
    boundary distance of 1 everywhere, so stencils can step outside."""
    return UserKernel(
        lambda z, w: np.array([[1.0 / (1.0 - z[0] * np.conj(w[0]) / 4.0)]]),
        fiber_dim=1,
        base_dim=1,
        contains_fn=lambda z: z[0].real < edge,
        boundary_distance_fn=lambda z: 1.0,
    )


def make_raising(where="eval"):
    """A kernel whose block evaluation (or, with where="contains", whose
    domain test) raises TypeError, as a faulty user hook would."""

    def fail(*args):
        raise TypeError("hook bug")

    return UserKernel(
        fail if where == "eval" else lambda z, w: np.eye(1),
        fiber_dim=1,
        base_dim=1,
        contains_fn=fail if where == "contains" else None,
    )


def make_misshapen(where="contains"):
    """A 2 x 2 kernel with one hook whose values have the wrong shape: a
    domain test or boundary distance with one value per fiber coordinate."""
    wrong = {"contains": lambda z: np.array([True, True]), "distance": lambda z: np.ones(2)}[where]
    return UserKernel(
        lambda z, w: np.eye(2),
        fiber_dim=2,
        base_dim=1,
        contains_fn=wrong if where == "contains" else None,
        boundary_distance_fn=wrong if where == "distance" else None,
    )


def make_domain_only():
    """The nu = 1 disc kernel with a domain test and no boundary distance,
    which then reads 0 at every point."""
    return UserKernel(
        lambda z, w: np.array([[1.0 / (1.0 - z[0] * np.conj(w[0]))]]),
        fiber_dim=1,
        base_dim=1,
        contains_fn=lambda z: abs(z[0]) < 1.0,
    )
