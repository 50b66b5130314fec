"""Operator-valued reproducing kernels on complex chart domains.

A kernel assigns to each ordered pair of chart points an n x n matrix
kappa(z, w), the block of the kernel in a fixed trivialization, and
fibers are paired by eta* xi: the kernel symmetry kappa(t, s) =
kappa(s, t)* makes the block matrix [kappa(t_l, t_j)]_{l,j} Hermitian,
the quadratic form whose nonnegativity defines kernel positivity.  A
kernel paired through a fiber metric h0, (f | g)_z = g(z)* h0(z) f(z), is
the kernel kappa(z, w) h0(w)^-1 here, with the same sections and norms.

Built-in families:

* ``disc_power(nu)`` - the scalar weight (1 - z conj(w))**(-nu) on the
  open unit disc (Hardy space at nu = 1, Bergman spaces at nu > 1).
* ``from_sections(E, G)`` - kappa(z, w) = E(z) G^{-1} E(w)* for a
  holomorphic n x m section matrix E and a Hermitian positive Gram G.
* ``universal_grassmann(N, k)`` - the section kernel of the k x N frame
  [I_k, B^T] of the universal bundle over the k-planes in C^N, in the
  graph chart B -> span[I; B]; its metric is I + B* B.
* ``ConstantKernel(M)``, variant ``constant`` - a fixed block; non-PSD
  blocks are accepted so that negative positivity tests have something
  to chew on.
* user hooks wrapping arbitrary callables.

Every family defines the stack methods `eval_many`, `contains_batch` and
`boundary_distance_batch` (the last two have defaults); `KernelSpec`
derives the one-point `eval` and `contains` from them.  `UserKernel` wraps
per-point callables, lifted to stacks by `forms.pointwise`, which checks
the shape of every value.
`KernelSpec.eval_batch` evaluates blocks over whole stacks of point pairs
with the checks of `eval_kernel`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, StructuralError, require
from .forms import Record, as_point, as_points, as_sample, at_point, pointwise
from .linalg import (
    Sampler,
    adjoint,
    complex_normal,
    hermiticity_defect,
    hermitize,
    mgs_orthonormalize,
    mul,
    relative_rank,
    svdvals,
)
from .polys import MatrixPolynomial

__all__ = [
    "KernelSpec",
    "DiscPowerKernel",
    "ConstantKernel",
    "SectionKernel",
    "UserKernel",
    "DualKernel",
    "disc_power",
    "from_sections",
    "universal_grassmann",
    "dual_kernel",
    "eval_kernel",
    "GramMatrix",
    "gram",
    "psd_check",
    "rkhs_inner",
    "RkhsModel",
    "reproducing_check",
    "AdmissibilityField",
    "admissibility",
    "admissibility_field",
    "Lemma51Report",
    "lemma51_consistency",
    "evaluation_adjoint_check",
]


class KernelSpec:
    """Base class for operator-valued kernels on a chart domain in C^d."""

    variant: str = "abstract"
    fiber_dim: int = 1
    base_dim: int = 1
    holomorphic: bool = False  # whether sections z -> kappa(z, t) xi should be

    def eval_many(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Raw kernel blocks over stacks of chart points.

        z and w have shapes (..., d) that broadcast against each other; the
        result has shape (..., n, n).  Every family defines this.
        """
        raise NotImplementedError(f"{type(self).__name__} does not define eval_many")

    def contains_batch(self, z: np.ndarray) -> np.ndarray:
        """Domain membership over a stack of chart points (..., d) -> (...)
        booleans; all of C^d by default."""
        return np.ones(np.shape(z)[:-1], dtype=bool)

    def boundary_distance_batch(self, z: np.ndarray) -> np.ndarray:
        """Distance to the domain boundary over a stack of chart points
        (..., d) -> (...) floats; infinite by default."""
        return np.full(np.shape(z)[:-1], np.inf)

    # -- one-point forms of the stack methods --------------------------------

    def eval(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Raw kernel block kappa(z, w) for one pair of chart points."""
        return self.eval_many(z, w)

    def contains(self, z) -> bool:
        return bool(self.contains_batch(np.asarray(z, dtype=complex)))

    def eval_batch(self, z, w) -> np.ndarray:
        """kappa(z, w) over broadcast stacks of chart points, with the checks
        of `eval_kernel` on every pair.

        z and w have shapes (..., d) that broadcast against each other; the
        result has shape (..., n, n).  Pairs are taken in row-major order,
        z before w: a point outside the domain raises DomainError once the
        pairs before it have passed every check, and a block of the wrong
        shape or with non-finite entries raises StructuralError.
        """
        z = as_points(z, self.base_dim)
        w = as_points(w, self.base_dim)
        z_in, w_in = self.contains_batch(z), self.contains_batch(w)
        if not (z_in.all() and w_in.all()):
            shape = np.broadcast_shapes(z.shape[:-1], w.shape[:-1])
            z_in, w_in = (np.broadcast_to(a, shape).ravel() for a in (z_in, w_in))
            i = int(np.argmin(z_in & w_in))
            flat = [np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, self.base_dim) for a in (z, w)]
            if i:
                self._checked_blocks(flat[0][:i], flat[1][:i])
            point = flat[1][i] if z_in[i] else flat[0][i]
            raise DomainError(f"point {point} is outside the domain of the {self.variant} kernel")
        return self._checked_blocks(z, w)

    def _checked_blocks(self, z, w) -> np.ndarray:
        out = np.asarray(self.eval_many(z, w), dtype=complex)
        shape, n = out.shape[max(z.ndim, w.ndim) - 1 :], self.fiber_dim
        if shape != (n, n):
            raise StructuralError(f"kernel block has shape {shape}, expected ({n}, {n})")
        bad = ~np.isfinite(out).all(axis=(-2, -1))
        if bad.any():  # the first pair in row-major order of the broadcast
            i = np.unravel_index(np.argmax(bad), bad.shape)
            z, w = (np.broadcast_to(a, bad.shape + a.shape[-1:])[i] for a in (z, w))
            raise StructuralError(f"kernel block at ({z}, {w}) has non-finite entries")
        return out


def eval_kernel(spec: KernelSpec, z, w) -> np.ndarray:
    """Evaluate kappa(z, w) with domain and finiteness checks (one pair of
    `KernelSpec.eval_batch`)."""
    return spec.eval_batch(as_point(z, spec.base_dim), as_point(w, spec.base_dim))


class DiscPowerKernel(KernelSpec):
    """(1 - z conj(w))**(-nu) on the open unit disc; nu >= 1."""

    variant = "disc_power"
    holomorphic = True

    def __init__(self, nu: float):
        if nu < 1:
            raise ValueError("disc_power requires nu >= 1")
        self.nu = float(nu)

    def eval_many(self, z, w):
        z, w = np.asarray(z)[..., 0], np.asarray(w)[..., 0]
        # z conj(w) in real arithmetic: a fused complex multiply would leave
        # round-off in the imaginary part of the diagonal z conj(z)
        re = z.real * w.real + z.imag * w.imag
        im = z.imag * w.real - z.real * w.imag
        val = (1.0 - (re + 1j * im)) ** (-self.nu)
        return np.asarray(val)[..., None, None]

    def contains_batch(self, z):
        return np.abs(np.asarray(z, dtype=complex)).max(axis=-1) < 1.0

    def boundary_distance_batch(self, z):
        return 1.0 - np.abs(np.asarray(z, dtype=complex)).max(axis=-1)


class ConstantKernel(KernelSpec):
    """kappa(z, w) = M everywhere; M need not be positive (pseudo-kernels)."""

    variant = "constant"
    holomorphic = True

    def __init__(self, matrix, base_dim: int = 1):
        m = np.atleast_2d(np.asarray(matrix, dtype=complex))
        if m.shape[0] != m.shape[1]:
            raise ValueError("constant kernel block must be square")
        self.matrix = m
        self.fiber_dim = m.shape[0]
        self.base_dim = int(base_dim)

    def eval_many(self, z, w):
        shape = np.broadcast_shapes(np.shape(z)[:-1], np.shape(w)[:-1])
        return np.broadcast_to(self.matrix, shape + self.matrix.shape).copy()


class SectionKernel(KernelSpec):
    """kappa(z, w) = E(z) G^{-1} E(w)* from an n x m section matrix field.

    G is factored once: Gram-Schmidt of the coordinate basis in the inner
    product G gives an upper triangular W with W* G W = I, so G^{-1} = W W*
    and kappa(z, w) = X(z) X(w)* for the frame X = E W (`frame`).  A
    section callable claims holomorphy; a polynomial does unless a term has
    a conj(z) power.
    """

    variant = "from_sections"

    def __init__(
        self,
        sections: Callable[[np.ndarray], np.ndarray],
        base_dim: int = 1,
        gram: np.ndarray | None = None,
    ):
        self.sections = sections
        self.base_dim = int(base_dim)
        probe = np.asarray(sections(np.zeros(self.base_dim, dtype=complex)), dtype=complex)
        polynomial = isinstance(sections, MatrixPolynomial)
        self.holomorphic = not (polynomial and any(any(q) for _, q in sections.terms))
        if probe.ndim != 2:
            raise ValueError("section field must return an n x m matrix")
        self.fiber_dim, self.section_count = probe.shape
        if gram is None:
            gram = np.eye(self.section_count, dtype=complex)
        gram = np.asarray(gram, dtype=complex)
        if gram.shape != (self.section_count, self.section_count):
            raise ValueError("Gram matrix shape does not match the section count")
        if not hermiticity_defect(gram) <= 1e-12:
            raise ValueError("Gram matrix must be Hermitian")
        if np.linalg.eigvalsh(hermitize(gram))[0] <= 0:
            raise ValueError("Gram matrix must be positive definite")
        self.gram_matrix = gram
        factor = mgs_orthonormalize(np.eye(self.section_count), inner=gram)[0]
        if polynomial:  # W folded into the coefficients
            terms = {powers: coeff @ factor for powers, coeff in sections.terms.items()}
            self._frame = MatrixPolynomial(sections.dim, terms, shape=probe.shape)
        else:
            values = pointwise(sections, probe.shape, what="section matrix")
            self._frame = lambda t: mul(values(t), factor)

    def frame(self, t) -> np.ndarray:
        """X = E W at a chart point, or at each point of a stack (..., d) -> (..., n, m).

        A polynomial section matrix is evaluated on the whole stack at once;
        any other callable point by point (`forms.pointwise`), each value
        with the shape it has at the origin.
        """
        return self._frame(as_points(t, self.base_dim))

    def eval_many(self, z, w):
        xz = self.frame(z)
        return mul(xz, adjoint(xz if w is z else self.frame(w)))  # the diagonal evaluates X once


def universal_grassmann(ambient_dim: int, rank: int) -> SectionKernel:
    """The universal bundle over the k-planes of C^N, k = rank, as the
    section kernel of the k x N frame E = [I_k, B^T]: the chart point z is
    the (N-k) x k graph matrix B read row-major, the plane the column span
    of F = [I_k; B], and the metric (E E*)^T = F* F = I + B* B.
    """
    if not 1 <= rank < ambient_dim:
        raise ValueError("need 1 <= rank < ambient_dim")
    n, k = int(ambient_dim), int(rank)
    d = (n - k) * k
    terms = {((0,) * d, (0,) * d): np.eye(k, n)}
    for a in range(d):  # z_a = B[r, c] is the entry E[c, k + r]
        r, c = divmod(a, k)
        coeff = np.zeros((k, n))
        coeff[c, k + r] = 1.0
        terms[(tuple(int(a == j) for j in range(d)), (0,) * d)] = coeff
    spec = SectionKernel(MatrixPolynomial(d, terms, shape=(k, n)), base_dim=d)
    spec.variant = "universal_grassmann"
    return spec


class UserKernel(KernelSpec):
    """Wrap arbitrary callables of one point (or pair) as a kernel: each
    given hook becomes its stack method through `forms.pointwise`, kernel
    blocks n x n (a scalar reads as 1 x 1), domain tests and boundary
    distances scalars; a domain test alone gives boundary distance 0."""

    variant = "user_hook"

    def __init__(
        self,
        eval_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        fiber_dim: int,
        base_dim: int,
        *,
        contains_fn=None,
        boundary_distance_fn=None,
        holomorphic: bool = False,
    ):
        self.fiber_dim = int(fiber_dim)
        self.base_dim = int(base_dim)
        self.holomorphic = bool(holomorphic)
        matrix = (self.fiber_dim, self.fiber_dim)
        self.eval_many = pointwise(lambda z, w: np.atleast_2d(eval_fn(z, w)), matrix, what="kernel block")
        if contains_fn is not None:
            self.contains_batch = pointwise(contains_fn, (), bool, "domain test")
        if boundary_distance_fn is not None:
            self.boundary_distance_batch = pointwise(boundary_distance_fn, (), float, "boundary distance")
        elif contains_fn is not None:
            self.boundary_distance_batch = lambda z: np.zeros(np.shape(z)[:-1])


class DualKernel(KernelSpec):
    """Kernel of the dual bundle, expressed in the conjugated chart.

    The dual of a holomorphic Hermitian bundle carries the conjugate
    complex structure on fibers and base; in the conjugated holomorphic
    coordinates the kernel reads conj(kappa(conj z, conj w)), which is
    again holomorphic in its first argument whenever kappa is.  The point
    of the dual chart matching a point z of the original chart is
    conj(z).
    """

    def __init__(self, spec: KernelSpec):
        self.base = spec
        self.variant = f"dual({spec.variant})"
        self.fiber_dim = spec.fiber_dim
        self.base_dim = spec.base_dim
        self.holomorphic = spec.holomorphic

    def eval_many(self, z, w):
        return np.conj(self.base.eval_many(np.conj(z), np.conj(w)))

    def contains_batch(self, z):
        return self.base.contains_batch(np.conj(np.asarray(z, dtype=complex)))

    def boundary_distance_batch(self, z):
        return self.base.boundary_distance_batch(np.conj(np.asarray(z, dtype=complex)))


# the constructor names of the library API, each its class but universal_grassmann
disc_power, from_sections = DiscPowerKernel, SectionKernel
dual_kernel = DualKernel


# ---------------------------------------------------------------------------
# Gram matrices and positivity
# ---------------------------------------------------------------------------


class GramMatrix(Record):
    """The positivity quadratic form of a kernel over a finite point set.

    `assembled` is the Hermitian part of the (N n) x (N n) matrix whose
    (l, j) block is kappa(t_l, t_j), that is of
    `spec.eval_batch(points[:, None], points[None])`; `defect` is the
    relative hermiticity defect ||a - a*|| / max(1, ||a||) of that matrix
    before it was made Hermitian.  `factor`, for a `SectionKernel` only,
    is the (N n) x m stack X of its frames E(t) W, so that the assembly
    is X X*.
    """

    points: np.ndarray  # (N, d)
    assembled: np.ndarray  # (N n, N n), Hermitian
    defect: float
    factor: np.ndarray | None = None  # (N n, m)


_GRAM_CHUNKS = 8  # row chunks of the assembly: the kernel blocks of one chunk are alive at a time


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Assemble the kernel blocks over a point list, in place.

    The blocks are evaluated in chunks of rows straight into the
    (N n) x (N n) layout; the matrix is then made Hermitian tile by tile,
    so no full-size temporary is made.
    """
    pts = as_sample(points, spec.base_dim)
    n = spec.fiber_dim
    npts = pts.shape[0]
    assembled = np.empty((npts * n, npts * n), dtype=complex)
    by_block = assembled.reshape(npts, n, npts, n).transpose(0, 2, 1, 3)
    for rows in _chunks(npts):
        by_block[rows] = spec.eval_batch(pts[rows, None, :], pts[None, :, :])
    defect = _hermitize_in_place(assembled, _chunks(npts, n))
    factor = spec.frame(pts).reshape(npts * n, -1) if isinstance(spec, SectionKernel) else None
    return GramMatrix(points=pts, assembled=assembled, defect=defect, factor=factor)


def _chunks(npts: int, n: int = 1) -> list[slice]:
    """The row chunks of an assembly over `npts` points with fiber `n`."""
    step = -(-npts // _GRAM_CHUNKS) * n
    return [slice(r, r + step) for r in range(0, npts * n, step)]


def _hermitize_in_place(a: np.ndarray, cuts: list[slice]) -> float:
    """Overwrite the square matrix `a` with its Hermitian part, one pair of
    tiles (rows, cols) and (cols, rows) at a time, with the bits of
    `hermitize`; return the relative defect of `a` as given."""
    skew = norm = 0.0
    for i, rows in enumerate(cuts):
        for cols in cuts[i:]:
            x, y = a[rows, cols], a[cols, rows]
            mirror = cols is not rows  # then (cols, rows) is a second tile, holding -d*
            d = x - adjoint(y)
            skew += (1 + mirror) * np.vdot(d, d).real
            norm += np.vdot(x, x).real + mirror * np.vdot(y, y).real
            upper = 0.5 * (x + adjoint(y))
            a[cols, rows] = 0.5 * (y + adjoint(x))
            a[rows, cols] = upper
    return float(np.sqrt(skew) / max(1.0, np.sqrt(norm)))


def psd_check(gram_matrix: GramMatrix) -> float:
    """A lower bound on the least eigenvalue of the Hermitian Gram
    assembly G: `eigvalsh`'s, or, when the factor X has m < N n columns,
    -||G - X X*||_F by Weyl's inequality, X X* having least eigenvalue 0;
    summed over `gram`'s row chunks, at O((N n)^2 m), not O((N n)^3).

    The caller compares the margin with its own tolerance.  Raises
    StructuralError if the raw assembly was not Hermitian within 1e-10
    (relative), which signals broken kernel symmetry rather than
    curable noise.
    """
    defect = gram_matrix.defect
    require(defect <= 1e-10, f"matrix is not Hermitian: relative defect {defect:.3e} > 1.0e-10")
    g, x = gram_matrix.assembled, gram_matrix.factor
    if x is None or x.shape[1] >= x.shape[0]:
        return float(np.linalg.eigvalsh(g)[0])
    npts, xh, square = len(gram_matrix.points), adjoint(x), 0.0
    for rows in _chunks(npts, len(g) // npts):
        d = x[rows] @ xh
        d -= g[rows]  # in place: the difference makes no second tile
        square += np.vdot(d, d).real
    return -float(np.sqrt(square))


def rkhs_inner(spec: KernelSpec, left: tuple, right: tuple) -> complex:
    """Inner product of two kernel sections K_xi, K_eta.

    `left` is (xi, s) and `right` is (eta, t); the value is the fiber
    pairing eta* kappa(t, s) xi, conjugate-symmetric in the two
    arguments.
    """
    xi, s = left
    eta, t = right
    xi = np.asarray(xi, dtype=complex).reshape(spec.fiber_dim)
    eta = np.asarray(eta, dtype=complex).reshape(spec.fiber_dim)
    return complex(eta.conj() @ (eval_kernel(spec, t, s) @ xi))


class RkhsModel:
    """Finite-sample model of the section space spanned by kernel sections.

    The generators are K_(e_a, t_j) for the sample points t_j and fiber
    basis vectors e_a; their pairwise inner products are exactly the
    entries of the assembled Gram matrix, whose quadratic form stands in
    for the completion.  Span elements are coefficient arrays
    of shape (N, n).
    """

    def __init__(self, spec: KernelSpec, points):
        self.spec = spec
        self.gram = gram(spec, points)
        self.points = self.gram.points

    @property
    def generator_count(self) -> int:
        return self.gram.assembled.shape[0]

    def _coeffs(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=complex)
        return c.reshape(self.generator_count)

    def gram_inner(self, c1, c2) -> complex:
        """<f, g> for span elements via the assembled Gram quadratic form."""
        c1 = self._coeffs(c1)
        c2 = self._coeffs(c2)
        return complex(c2.conj() @ (self.gram.assembled @ c1))

    def evaluate(self, c, t) -> np.ndarray:
        """Pointwise value of the span element sum c_(j,a) K_(e_a, t_j)."""
        c = self._coeffs(c).reshape(-1, self.spec.fiber_dim, 1)
        blocks = self.spec.eval_batch(as_point(t, self.spec.base_dim), self.points)
        return (blocks @ c).sum(axis=0)[:, 0]


def reproducing_check(model: RkhsModel, coeffs, eta, t) -> float:
    """Residual of the reproducing identity <f, K_eta> = eta* f(t).

    The left side is built by conjugate symmetry from the kernel sections
    at the sample points, <K_(e_a, s_j), K_eta> = conj(e_a* kappa(s_j, t)
    eta), so it reads kappa(s_j, t); the right side evaluates the span
    element at t through kappa(t, s_j).  The two agree only when the
    kernel symmetry kappa(t, s) = kappa(s, t)* holds.
    """
    spec = model.spec
    eta = np.asarray(eta, dtype=complex).reshape(spec.fiber_dim)
    c = np.asarray(coeffs, dtype=complex).reshape(-1, spec.fiber_dim)
    t = as_point(t, spec.base_dim)
    lhs = complex(np.sum(c * (spec.eval_batch(model.points, t) @ eta).conj()))
    rhs = complex(eta.conj() @ model.evaluate(c, t))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# admissibility and the four-way consistency report
# ---------------------------------------------------------------------------


class AdmissibilityField(Record, frozen=True):
    """Invertibility margins of diagonal kernel blocks over an array of
    points, as (N,) arrays: kappa(s, s) counts as invertible when its
    largest singular value is positive and its smallest is at least `tol`
    times the largest."""

    invertible: np.ndarray
    smallest_singular_value: np.ndarray
    norm: np.ndarray

    @classmethod
    def of_blocks(cls, blocks: np.ndarray, tol: float = 1e-10) -> "AdmissibilityField":
        s = svdvals(blocks)
        return cls((s[:, 0] > 0.0) & (s[:, -1] >= tol * s[:, 0]), s[:, -1], s[:, 0])

    @property
    def relative_margin(self) -> np.ndarray:
        """sigma_min / sigma_max, and 0 where the block vanishes."""
        zero = np.zeros_like(self.norm)
        return np.divide(self.smallest_singular_value, self.norm, out=zero, where=self.norm > 0.0)

    at = at_point


def admissibility_field(spec: KernelSpec, points, tol: float = 1e-10) -> AdmissibilityField:
    """Invertibility margins of kappa(s, s) at every row s of an (N, d) array."""
    pts = as_points(points, spec.base_dim).reshape(-1, spec.base_dim)
    return AdmissibilityField.of_blocks(spec.eval_batch(pts, pts), tol)


def admissibility(spec: KernelSpec, s, tol: float = 1e-10) -> AdmissibilityField:
    """Invertibility margin of the diagonal block kappa(s, s)."""
    return admissibility_field(spec, as_point(s, spec.base_dim)[None], tol).at(0)


class Lemma51Report(Record, frozen=True):
    injective: bool
    invertible: bool
    surjective: bool
    evaluation_surjective: bool
    details: dict

    @property
    def consistent(self) -> bool:
        flags = (
            self.injective,
            self.invertible,
            self.surjective,
            self.evaluation_surjective,
        )
        return len(set(flags)) == 1


def lemma51_consistency(
    spec: KernelSpec,
    s,
    tol: float = 1e-10,
    seed: int = 0,
) -> Lemma51Report:
    """Cross-check four finite-dimensional invertibility criteria at s.

    (1) injectivity of xi -> K_xi through the norm form kappa(s, s)
    (its eigenvalue margin), (2) invertibility of kappa(s, s) by singular
    values, (3) surjectivity of kappa(s, s) by numerical row rank, and
    (4) surjectivity of the evaluation at s of the sampled section span
    by the rank of [kappa(s, t_1) ... kappa(s, t_m)], with the t_i seeded
    random points near s.  In finite fiber dimension the four answers
    must agree.
    """
    s = as_point(s, spec.base_dim)
    if not spec.contains(s):  # the sampling loop below would never end
        raise DomainError(f"point {s} is outside the domain of the {spec.variant} kernel")
    n = spec.fiber_dim
    rng = Sampler(seed)
    sample = [s]
    for _ in range(max(4, n + 2)):
        step = 0.1 * complex_normal(rng, spec.base_dim)
        while not spec.contains(s + step):
            step = step / 2.0
        sample.append(s + step)
    blocks = spec.eval_batch(s, np.array(sample))  # kappa(s, t) for t in the sample, s first
    block = blocks[0]

    evals = np.linalg.eigvalsh(hermitize(block))
    injective = bool(evals[-1] > 0.0 and evals[0] >= tol * abs(evals[-1]))
    adm = AdmissibilityField.of_blocks(blocks[:1], tol).at(0)
    surjective = relative_rank(block, tol=tol) == n
    evaluation_rank = relative_rank(np.hstack(blocks), tol=tol)

    return Lemma51Report(
        injective=injective,
        invertible=adm.invertible,
        surjective=surjective,
        evaluation_surjective=evaluation_rank == n,
        details={
            "norm_form_margin": float(evals[0]),
            "smallest_singular_value": adm.smallest_singular_value,
            "evaluation_rank": evaluation_rank,
            "sample_size": len(sample),
        },
    )


def evaluation_adjoint_check(spec: KernelSpec, s, t, xi, eta) -> float:
    """Residual of the adjoint identity <K_xi, K_eta> = (kappa(s, t) eta)* xi.

    Both sides are computed independently: the left through the kernel
    block at (t, s), the right through the block at (s, t).
    """
    xi = np.asarray(xi, dtype=complex).reshape(spec.fiber_dim)
    eta = np.asarray(eta, dtype=complex).reshape(spec.fiber_dim)
    lhs = rkhs_inner(spec, (xi, s), (eta, t))
    rhs = complex((eval_kernel(spec, s, t) @ eta).conj() @ xi)
    return abs(lhs - rhs)
