"""Matrix-valued polynomials in the chart coordinates and their conjugates.

Used for holomorphic section matrices and subbundle frames (pure z
powers), and as smooth non-holomorphic test fields (mixed z / conj z
powers) whose exact derivatives serve as oracles for the
finite-difference operators.
"""

from __future__ import annotations

import numpy as np

from .forms import as_points

__all__ = ["MatrixPolynomial"]


class MatrixPolynomial:
    """sum over terms of  C * z^p * conj(z)^q  with matrix coefficients C.

    `terms` maps a pair of power multi-indices (p, q), each a tuple of
    length d, to a coefficient array; all coefficients share a shape.
    """

    def __init__(self, dim: int, terms: dict, shape: tuple[int, ...] | None = None):
        self.dim = int(dim)
        self.terms = {}
        for (p, q), coeff in terms.items():
            p = tuple(int(x) for x in p)
            q = tuple(int(x) for x in q)
            if len(p) != self.dim or len(q) != self.dim:
                raise ValueError("power multi-indices must have length d")
            coeff = np.asarray(coeff, dtype=complex)
            if shape is None:
                shape = coeff.shape
            if coeff.shape != shape:
                raise ValueError("all coefficients must share a shape")
            if (p, q) in self.terms:
                self.terms[(p, q)] = self.terms[(p, q)] + coeff
            else:
                self.terms[(p, q)] = coeff
        if shape is None:
            raise ValueError("a polynomial needs at least one term or a shape")
        self.shape = shape

    def __call__(self, z) -> np.ndarray:
        """Value at a chart point (d,), or at each point of a stack (..., d)."""
        z = as_points(z, self.dim)
        lead = z.shape[:-1]
        out = np.zeros(lead + self.shape, dtype=complex)
        expand = (...,) + (None,) * len(self.shape)
        for (p, q), coeff in self.terms.items():
            mono = np.ones(lead, dtype=complex)
            for j in range(self.dim):
                if p[j]:
                    mono *= z[..., j] ** p[j]
                if q[j]:
                    mono *= np.conj(z[..., j]) ** q[j]
            out = out + coeff * mono[expand]
        return out

    @property
    def holomorphic(self) -> bool:
        return all(all(x == 0 for x in q) for (_, q) in self.terms)

    def d_z(self, axis: int) -> "MatrixPolynomial":
        """Exact derivative in z_axis."""
        terms = {}
        for (p, q), coeff in self.terms.items():
            if p[axis] == 0:
                continue
            pp = list(p)
            pp[axis] -= 1
            key = (tuple(pp), q)
            add = p[axis] * coeff
            terms[key] = terms.get(key, 0) + add
        return MatrixPolynomial(self.dim, terms, shape=self.shape)

    def d_zbar(self, axis: int) -> "MatrixPolynomial":
        """Exact derivative in conj(z_axis)."""
        terms = {}
        for (p, q), coeff in self.terms.items():
            if q[axis] == 0:
                continue
            qq = list(q)
            qq[axis] -= 1
            key = (p, tuple(qq))
            add = q[axis] * coeff
            terms[key] = terms.get(key, 0) + add
        return MatrixPolynomial(self.dim, terms, shape=self.shape)

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        dim: int,
        shape: tuple[int, ...],
        degree: int = 3,
        holomorphic: bool = False,
        amplitude: float = 1.0,
        terms: int = 6,
    ) -> "MatrixPolynomial":
        """Random polynomial of total degree <= `degree`."""
        out = {}
        for _ in range(terms):
            total = int(rng.integers(0, degree + 1))
            split = int(rng.integers(0, total + 1))
            p_deg, q_deg = split, total - split
            if holomorphic:
                p_deg, q_deg = total, 0
            p = _random_multi_index(rng, dim, p_deg)
            q = _random_multi_index(rng, dim, q_deg)
            coeff = amplitude * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            key = (p, q)
            out[key] = out.get(key, 0) + coeff
        return cls(dim, out, shape=shape)


def _random_multi_index(rng: np.random.Generator, dim: int, total: int) -> tuple:
    idx = [0] * dim
    for _ in range(total):
        idx[int(rng.integers(0, dim))] += 1
    return tuple(idx)
