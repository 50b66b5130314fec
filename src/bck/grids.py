"""Rectangular sampling grids on complex coordinate charts.

A chart is an open box in C^d; each complex axis is sampled on a
rectangle in its real/imaginary parts.  Iteration order is row-major
over the real coordinates in axis declaration order
(re z_1, im z_1, re z_2, ...), with the last coordinate varying fastest;
reports record this so field exports are reproducible.
"""

from __future__ import annotations

import numpy as np

from .forms import Record, clear_of_boundary

__all__ = ["ChartGrid"]


class ChartGrid(Record, frozen=True):
    """Sampling of an open box in C^d.

    Parameters
    ----------
    re_lo, re_hi, im_lo, im_hi
        Per-axis bounds of the box, length d each.
    re_res, im_res
        Number of sample points per real axis, >= 1.
    """

    re_lo: tuple[float, ...]
    re_hi: tuple[float, ...]
    im_lo: tuple[float, ...]
    im_hi: tuple[float, ...]
    re_res: tuple[int, ...]
    im_res: tuple[int, ...]

    def __post_init__(self):
        d = len(self.re_lo)
        if d < 1:
            raise ValueError("grid needs at least one complex axis")
        for name in ("re_hi", "im_lo", "im_hi", "re_res", "im_res"):
            if len(getattr(self, name)) != d:
                raise ValueError(f"{name} must have length {d}")
        if any(r < 1 for r in self.re_res) or any(r < 1 for r in self.im_res):
            raise ValueError("resolution must be >= 1 per real axis")
        if any(hi < lo for lo, hi in zip(self.re_lo, self.re_hi)):
            raise ValueError("re_hi must dominate re_lo")
        if any(hi < lo for lo, hi in zip(self.im_lo, self.im_hi)):
            raise ValueError("im_hi must dominate im_lo")

    @property
    def dim(self) -> int:
        return len(self.re_lo)

    @classmethod
    def square(cls, lo: float, hi: float, res: int, dim: int = 1) -> "ChartGrid":
        """Box [lo, hi]^2 on every complex axis with `res` points per real axis."""
        return cls(
            re_lo=(lo,) * dim,
            re_hi=(hi,) * dim,
            im_lo=(lo,) * dim,
            im_hi=(hi,) * dim,
            re_res=(res,) * dim,
            im_res=(res,) * dim,
        )

    def axis_samples(self) -> list[np.ndarray]:
        """The 2d real sample vectors in declaration order."""
        out = []
        for j in range(self.dim):
            out.append(np.linspace(self.re_lo[j], self.re_hi[j], self.re_res[j]))
            out.append(np.linspace(self.im_lo[j], self.im_hi[j], self.im_res[j]))
        return out

    def points(self) -> np.ndarray:
        """All grid points, shape (N, d) complex, row-major order."""
        mesh = np.meshgrid(*self.axis_samples(), indexing="ij")
        flat = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        return flat[:, 0::2] + 1j * flat[:, 1::2]

    def interior_points(self, domain, margin: float = 0.0) -> np.ndarray:
        """Grid points inside `domain` with at least `margin` to its boundary.

        `domain` provides `contains_batch` and `boundary_distance_batch`
        (every KernelSpec does); points outside, or too close to the
        boundary for a finite-difference stencil, are dropped.
        """
        pts = self.points()
        return pts[clear_of_boundary(domain, pts, margin)]
