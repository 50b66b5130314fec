"""Matrix-valued polynomials in the chart coordinates and their conjugates.

Used for holomorphic section matrices and subbundle frames (pure z
powers), and as smooth non-holomorphic test fields (mixed z / conj z
powers) whose exact derivatives serve as oracles for the
finite-difference operators.
"""

from __future__ import annotations

import numpy as np

from .forms import as_points
from .linalg import Sampler, complex_normal

__all__ = ["MatrixPolynomial"]


class MatrixPolynomial:
    """sum over terms of  C * z^p * conj(z)^q  with matrix coefficients C.

    `terms` maps a pair of power multi-indices (p, q), each a tuple of
    length d of natural numbers, to a coefficient array of the given shape.
    """

    def __init__(self, dim: int, terms: dict, shape: tuple[int, ...]):
        self.dim = int(dim)
        self.terms = {}
        for (p, q), coeff in terms.items():
            if any(x < 0 or x != int(x) for x in (*p, *q)):
                raise ValueError(f"powers must be natural numbers, not {p}, {q}")
            p, q = tuple(map(int, p)), tuple(map(int, q))
            if len(p) != self.dim or len(q) != self.dim:
                raise ValueError("power multi-indices must have length d")
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != shape:
                raise ValueError("all coefficients must share a shape")
            self.terms[(p, q)] = coeff
        self.shape = shape

    def __call__(self, z) -> np.ndarray:
        """Value at a chart point (d,), or at each point of a stack (..., d).

        Each term's monomial is its powers z_j^p_j and conj(z_j)^q_j
        multiplied into it in place, in axis order with z before conj z.
        The terms are added in order into one output, so that memory holds
        one term's values at a time, not a stack of all of them.
        """
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
            out += coeff * mono[expand]
        return out

    @classmethod
    def random(
        cls,
        rng: Sampler | np.random.Generator,
        dim: int,
        shape: tuple[int, ...],
        degree: int = 3,
        holomorphic: bool = False,
        amplitude: float = 1.0,
        terms: int = 6,
    ) -> "MatrixPolynomial":
        """Random polynomial of total degree <= `degree`, drawn from `rng`
        through its `integers` and `standard_normal` methods."""
        out = {}
        for _ in range(terms):
            total = int(rng.integers(0, degree + 1))
            split = int(rng.integers(0, total + 1))
            p_deg, q_deg = split, total - split
            if holomorphic:
                p_deg, q_deg = total, 0
            p = _random_multi_index(rng, dim, p_deg)
            q = _random_multi_index(rng, dim, q_deg)
            coeff = amplitude * complex_normal(rng, shape)
            key = (p, q)
            out[key] = out.get(key, 0) + coeff
        return cls(dim, out, shape=shape)


def _random_multi_index(rng: Sampler | np.random.Generator, dim: int, total: int) -> tuple:
    idx = [0] * dim
    for _ in range(total):
        idx[int(rng.integers(0, dim))] += 1
    return tuple(idx)
