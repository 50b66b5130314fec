"""Small dense linear-algebra helpers used throughout the package.

Everything here operates on modest complex matrices (fibers of dimension
<= 8, Gram matrices of a few hundred rows), so plain LAPACK calls via
numpy are the right tool.  `Sampler` makes the package's seeded draws.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import StructuralError

__all__ = [
    "Sampler",
    "frob",
    "max_frob",
    "hermitize",
    "hermiticity_defect",
    "mgs_orthonormalize",
    "relative_rank",
]


class Sampler:
    """Seeded draws from the stdlib Mersenne Twister (`random.Random(seed)`).

    It offers the few `numpy.random.Generator` methods the package calls,
    so a run never imports `numpy.random`.  Uniforms carry 53 random bits
    each, (u64 >> 11) 2^-53, taken in one `randbytes` call per draw and
    filled in C order: a uniform draw of shape (k, ...) equals k draws of
    shape (...) in a row.  Normals come from pairs of uniforms by
    Box-Muller, made `_NORMALS` at a time and handed out in order, so a
    small draw costs no more than a slice.
    """

    _NORMALS = 1024

    def __init__(self, seed: int):
        if seed < 0:  # random.Random would take -seed and seed to one stream
            raise ValueError(f"seed must be >= 0, not {seed}")
        self._random = random.Random(seed)
        self._normals = np.empty(0)
        self._next = 0

    def _unit(self, count: int) -> np.ndarray:
        """`count` uniforms in [0, 1)."""
        raw = np.frombuffer(self._random.randbytes(8 * count), dtype="<u8")
        return (raw >> np.uint64(11)) * 2.0**-53

    def uniform(self, low, high, size) -> np.ndarray:
        """Uniforms in [low, high) of shape `size`; `low` and `high` broadcast to it."""
        u = self._unit(_count(size)).reshape(size)
        return np.add(low, np.subtract(high, low) * u)

    def standard_normal(self, size) -> np.ndarray:
        """Standard normals of shape `size`, the next ones of the stream."""
        count = _count(size)
        if self._next + count > len(self._normals):
            u = self._unit(2 * max(count, self._NORMALS)).reshape(-1, 2)
            pairs = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.exp(2j * math.pi * u[:, 1])
            self._normals = np.concatenate([self._normals[self._next :], pairs.view(float)])
            self._next = 0
        out = self._normals[self._next : self._next + count]
        self._next += count
        return out.reshape(size)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return self._random.randrange(low, high)

    def choice(self, n: int, size: int) -> np.ndarray:
        """`size` distinct integers of [0, n), in draw order: numpy's
        `choice(n, size, replace=False)`."""
        return np.array(self._random.sample(range(n), size))


def _count(size) -> int:
    """The number of entries of an array of shape `size` (an int or a tuple)."""
    return math.prod(size) if isinstance(size, tuple) else int(size)


def frob(a: np.ndarray) -> float:
    """Frobenius norm, as a plain float."""
    return float(np.linalg.norm(np.asarray(a)))


def max_frob(a: np.ndarray, lead: int) -> float:
    """Largest Frobenius norm over the values of a stack whose first `lead`
    axes index the values; 0 for an empty stack."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a.reshape(math.prod(a.shape[:lead]), -1), axis=-1).max())


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*) / 2, of each matrix of a stack (..., n, n)."""
    a = np.asarray(a)
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def hermiticity_defect(a: np.ndarray) -> np.ndarray | float:
    """Frobenius norm of a - a*, relative to max(1, ||a||), of each matrix
    of a stack (..., n, n); a scalar for one matrix."""
    a = np.asarray(a)
    skew = np.linalg.norm(a - np.swapaxes(a.conj(), -1, -2), axis=(-2, -1))
    return skew / np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))


def relative_rank(a: np.ndarray, tol: float = 1e-10) -> int:
    """Numerical rank with a threshold relative to the largest singular value."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= tol * s[0]))


def mgs_orthonormalize(a: np.ndarray, inner: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Orthonormalizes the columns of `a` (..., n, k) with respect to the
    inner product (u, v) -> v* @ inner @ u (Euclidean if `inner` is None;
    otherwise (..., n, n), broadcast against the leading axes), each
    matrix of a stack on its own.  The returned triangular factor has
    real positive diagonal, which pins the phase of each column; this
    keeps frames computed at nearby points smoothly comparable.

    Returns
    -------
    (q, r) with a = q @ r, q*-inner-q = identity.

    Raises
    ------
    StructuralError
        If a column is linearly dependent on the previous ones (relative
        norm below 1e-12); in a stack, the first such matrix names it.
        The error's `index` is (matrix index..., column) and its `residual`
        the column's residual norm.
    """
    a = np.array(a, dtype=complex)
    k = a.shape[-1]
    g = np.eye(a.shape[-2]) if inner is None else np.asarray(inner)
    q, r = np.zeros_like(a), np.zeros(a.shape[:-2] + (k, k), dtype=complex)
    floor = 1e-12 * np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), 1e-300)

    def pair(u, v):  # v* g u per matrix, for (..., n) columns
        return (v.conj()[..., None, :] @ (g @ u[..., None]))[..., 0, 0]

    for i in range(k):
        v = a[..., i].copy()
        for _ in range(2):  # second pass restores orthogonality to ~1e-15
            for l in range(i):
                c = pair(v, q[..., l])
                r[..., l, i] += c
                v = v - c[..., None] * q[..., l]
        nrm = np.sqrt(np.abs(pair(v, v)))
        r[..., i, i] = nrm
        q[..., i] = v / np.where(nrm <= floor, 1.0, nrm)[..., None]
    norms = np.diagonal(r, axis1=-2, axis2=-1).real
    dependent = np.argwhere(norms <= floor[..., None])
    if len(dependent):
        first = tuple(int(j) for j in dependent[0])
        where = f" of matrix {first[:-1]}" if first[:-1] else ""
        error = StructuralError(
            f"column {first[-1]}{where} is linearly dependent (residual norm {norms[first]:.3e})"
        )
        error.index, error.residual = first, float(norms[first])
        raise error
    return q, r
