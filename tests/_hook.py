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


def make_misshapen(where="metric"):
    """A 2 x 2 kernel with one hook whose values have the wrong shape: a
    fiber metric as a flat list or a row, or a domain test or boundary
    distance with one value per fiber coordinate."""
    wrong = {
        "metric": lambda z: [1.0, 0.5, 0.5, 1.0],
        "metric-row": lambda z: [[1.0, 0.5, 0.5, 1.0]],
        "contains": lambda z: np.array([True, True]),
        "distance": lambda z: np.ones(2),
    }[where]
    return UserKernel(
        lambda z, w: np.eye(2),
        fiber_dim=2,
        base_dim=1,
        fiber_metric_fn=wrong if where.startswith("metric") else None,
        contains_fn=wrong if where == "contains" else None,
        boundary_distance_fn=wrong if where == "distance" else None,
    )
