"""Small dense linear-algebra helpers used throughout the package.

The batched layers reduce stacks of thousands of fiber matrices, mostly
1 x 1 or 2 x 2, one per grid point or stencil node.  `numpy.linalg`
makes one LAPACK call per matrix of a stack, so the stack kernels here
work on whole stacks (..., n, n) at once: `mul` forms products entry by
entry over the stack, and `solve`, `cholesky`, `eigvalsh` and `svdvals`
use closed forms for n <= 2 and LAPACK for n >= 3.  Whole matrices (a
Gram matrix of a few hundred rows) go to LAPACK directly.  `Sampler` makes the
package's seeded draws, and `complex_normal` its complex normal draws.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import StructuralError

__all__ = [
    "Sampler",
    "complex_normal",
    "frob",
    "max_frob",
    "adjoint",
    "norms",
    "hermitize",
    "hermiticity_defect",
    "mgs_orthonormalize",
    "relative_rank",
    "mul",
    "solve",
    "cholesky",
    "eigvalsh",
    "svdvals",
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


def complex_normal(rng, size) -> np.ndarray:
    """Complex normals x + iy of shape `size` from a `Sampler` or a
    `numpy.random.Generator`, the real parts x drawn first."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose a* of each matrix of a stack (..., n, k)."""
    return np.swapaxes(np.conj(a), -1, -2)


def norms(a: np.ndarray) -> np.ndarray | float:
    """Frobenius norm of each matrix of a stack (..., n, k); a scalar for one matrix."""
    return np.linalg.norm(a, axis=(-2, -1))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*) / 2, of each matrix of a stack (..., n, n)."""
    return 0.5 * (a + adjoint(a))


def hermiticity_defect(a: np.ndarray) -> np.ndarray | float:
    """Frobenius norm of a - a*, relative to max(1, ||a||), of each matrix
    of a stack (..., n, n); a scalar for one matrix."""
    return norms(a - adjoint(a)) / np.maximum(1.0, norms(a))


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
        If a column has non-finite entries or is linearly dependent on the
        previous ones (relative residual norm below 1e-12, or NaN); in a
        stack, the first such matrix names it.  The error's `index` is
        (matrix index..., column) and its `reason` what is wrong with it.
    """
    a = np.array(a, dtype=complex)
    k = a.shape[-1]
    g = np.eye(a.shape[-2]) if inner is None else np.asarray(inner)
    q, r = np.zeros_like(a), np.zeros(a.shape[:-2] + (k, k), dtype=complex)
    nonfinite = ~np.isfinite(a).all(axis=-2)  # per column, which then fails whatever the floor
    a = np.where(nonfinite[..., None, :], 0.0, a)  # so that no projection meets it
    largest = np.abs(a).max(axis=(-2, -1), initial=0.0)
    floor = 1e-12 * np.maximum(largest, 1e-300)

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
        q[..., i] = v / np.where(nrm > floor, nrm, 1.0)[..., None]
    norms = np.diagonal(r, axis1=-2, axis2=-1).real
    failed = np.argwhere(nonfinite | ~(norms > floor[..., None]))
    if len(failed):
        first = tuple(int(j) for j in failed[0])
        where = f" of matrix {first[:-1]}" if first[:-1] else ""
        reason = ("has non-finite entries" if nonfinite[first]
                  else f"is linearly dependent (residual norm {norms[first]:.3e})")
        error = StructuralError(f"column {first[-1]}{where} {reason}")
        error.index, error.reason = first, reason
        raise error
    return q, r


# ---------------------------------------------------------------------------
# small-matrix stacks
# ---------------------------------------------------------------------------


def mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product of broadcast stacks (..., n, k) and (..., k, m).

    Each entry of the product is a sum over the inner index, formed over
    the whole stack at once and written into `out` (allocated when None;
    it may be a strided view, and must not overlap `a` or `b`).  `a @ b`
    would make one small matrix product per matrix of the stack.
    """
    a, b = np.asarray(a), np.asarray(b)
    n, k, m = a.shape[-2], a.shape[-1], b.shape[-1]
    if b.shape[-2] != k:
        raise ValueError(f"inner dimensions differ: {a.shape} and {b.shape}")
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (n, m)
    if out is None:
        out = np.empty(shape, dtype=np.result_type(a, b))
    elif out.shape != shape:
        raise ValueError(f"output has shape {out.shape}, expected {shape}")
    term = np.empty(shape[:-2], dtype=out.dtype) if k > 1 else None
    for i in range(n):
        for j in range(m):
            entry = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=entry)
            for l in range(1, k):
                entry += np.multiply(a[..., i, l], b[..., l, j], out=term)
    return out


def _singular(det: np.ndarray) -> None:
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for broadcast stacks a (..., n, n) and b (..., n, k).

    n = 1 divides and n = 2 takes the adjugate (Cramer's rule, forward
    stable for 2 x 2); both raise `numpy.linalg.LinAlgError` on an
    exactly zero determinant, as LAPACK does on an exactly zero pivot.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1]
    if n == 1:
        _singular(a)
        return b / a
    if n == 2:
        p, q, r, s = a[..., 0, 0, None], a[..., 0, 1, None], a[..., 1, 0, None], a[..., 1, 1, None]
        det = p * s - q * r
        _singular(det)
        b0, b1 = b[..., 0, :], b[..., 1, :]
        return np.stack([(s * b0 - q * b1) / det, (p * b1 - r * b0) / det], axis=-2)
    return np.linalg.solve(a, b)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular l with a = l l* for each Hermitian positive
    definite matrix of a stack (..., n, n).

    Like `numpy.linalg.cholesky`, only the lower triangle is read, and a
    pivot that is not positive raises `numpy.linalg.LinAlgError`; for
    n <= 2 a NaN pivot gives NaN entries, as `solve` does.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n > 2:
        return np.linalg.cholesky(a)
    l = np.zeros(a.shape, dtype=np.result_type(a, complex))
    pivot = a[..., 0, 0].real
    if n == 2:
        below = a[..., 1, 0] / np.sqrt(np.where(pivot > 0.0, pivot, 1.0))
        pivot = np.stack([pivot, a[..., 1, 1].real - np.abs(below) ** 2], axis=-1)
        l[..., 1, 0] = below
    if np.any(pivot <= 0.0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    diagonal = np.sqrt(pivot).reshape(a.shape[:-1])
    l[..., range(n), range(n)] = diagonal
    return l


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of a stack (..., n, n).

    Like `numpy.linalg.eigvalsh`, only the real diagonal and the lower
    triangle are read.  For n = 2 the eigenvalues are m -+ r with m the
    mean of the diagonal and r = hypot(half its difference, |a10|), each
    within a few ulps of max |eigenvalue|.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 1:
        return a[..., 0].real.copy()
    if n == 2:
        p, q = a[..., 0, 0].real, a[..., 1, 1].real
        mean, r = 0.5 * (p + q), np.hypot(0.5 * (p - q), np.abs(a[..., 1, 0]))
        return np.stack([mean - r, mean + r], axis=-1)
    return np.linalg.eigvalsh(a)


def svdvals(a: np.ndarray) -> np.ndarray:
    """Descending singular values of each matrix of a stack (..., n, n).

    For n = 1 the singular value is the modulus.  For n = 2, with a
    scaled by its largest entry modulus, s1^2 + s2^2 = ||a||_F^2 and
    s1^2 - s2^2 = hypot(p - q, 2 |c|) for a* a = [[p, c*], [c, q]], which
    gives s1 to a few ulps, and s2 = |det a| / s1 to a few ulps of s1.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 1:
        return np.abs(a[..., 0])
    if n == 2:
        top = np.abs(a).max(axis=(-2, -1))
        scale = np.where(top > 0.0, top, 1.0)
        u = a / scale[..., None, None]
        w, x, y, z = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
        ww, xx, yy, zz = (v.real**2 + v.imag**2 for v in (w, x, y, z))
        spread = np.hypot((ww + yy) - (xx + zz), 2.0 * np.abs(w.conj() * x + y.conj() * z))
        big = np.sqrt(0.5 * ((ww + xx + yy + zz) + spread))
        det = np.abs(w * z - x * y)
        small = np.divide(det, big, out=np.zeros_like(big), where=big > 0.0)
        return np.stack([big, np.minimum(small, big)], axis=-1) * scale[..., None]
    return np.linalg.svd(a, compute_uv=False)
