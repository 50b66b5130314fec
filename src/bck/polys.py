"""Matrix-valued polynomials in the chart coordinates and their conjugates.

Used for holomorphic section matrices and subbundle frames (pure z
powers), and as smooth non-holomorphic test fields (mixed z / conj z
powers) whose exact derivatives serve as oracles for the
finite-difference operators.
"""

from __future__ import annotations

import numpy as np

from .forms import as_points
from .linalg import Sampler

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
        # evaluation tables: the distinct powers (conj, axis, exponent) the
        # terms use, each term's factors as power-table columns (column 0 is
        # the constant 1, padding on the left), and the coefficients by term
        self._powers: list[tuple[bool, int, int]] = []
        factors = []
        for p, q in self.terms:
            cols = []
            for j in range(self.dim):
                for conj, e in ((False, p[j]), (True, q[j])):
                    if e:
                        if (conj, j, e) not in self._powers:
                            self._powers.append((conj, j, e))
                        cols.append(1 + self._powers.index((conj, j, e)))
            factors.append(cols)
        width = max(map(len, factors), default=0)
        self._factors = np.array([[0] * (width - len(c)) + c for c in factors], dtype=int).reshape(
            len(factors), width
        )
        self._coeffs = np.array(list(self.terms.values()), dtype=complex).reshape((-1,) + shape)

    def __call__(self, z) -> np.ndarray:
        """Value at a chart point (d,), or at each point of a stack (..., d).

        One power table holds the distinct powers z_j^e and conj(z_j)^e
        that the terms use; each term's monomial is the product of its
        factors in axis order (z before conj z), all terms at once.  The
        terms are added in order into one output, so that memory holds one
        term's values at a time, not a stack of all of them.
        """
        z = as_points(z, self.dim)
        lead = z.shape[:-1]
        table = np.ones((1 + len(self._powers),) + lead, dtype=complex)
        for col, (conj, j, e) in enumerate(self._powers, 1):
            table[col] = (np.conj(z[..., j]) if conj else z[..., j]) ** e
        mono = np.ones((len(self._factors),) + lead, dtype=complex)
        for cols in self._factors.T:
            mono *= table[cols]
        out = np.zeros(lead + self.shape, dtype=complex)
        expand = (...,) + (None,) * len(self.shape)
        for coeff, m in zip(self._coeffs, mono):
            out += coeff * m[expand]
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
            coeff = amplitude * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
            key = (p, q)
            out[key] = out.get(key, 0) + coeff
        return cls(dim, out, shape=shape)


def _random_multi_index(rng: Sampler | np.random.Generator, dim: int, total: int) -> tuple:
    idx = [0] * dim
    for _ in range(total):
        idx[int(rng.integers(0, dim))] += 1
    return tuple(idx)
