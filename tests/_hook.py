"""Importable kernel factories used by the user-hook config tests."""

import numpy as np

from bck.kernels import DiscPowerKernel, UserKernel


def make(nu=1.0):
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
