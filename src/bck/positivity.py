"""Hermitian/symmetric/skew correspondence and curvature positivity verdicts.

A real-bilinear map on C^d with matrix values is captured by its sample
tensor over the 2d probe directions e_j, i e_j (`forms.BilinearSamples`).
Three classes of such maps determine each other:

* Herm  - sesquilinear with Psi(v1, v2)* = Psi(v2, v1),
* Symm  - symmetric and invariant under (v1, v2) -> (i v1, i v2),
* Skew  - antisymmetric, i-invariant, with self-adjoint values,

linked by Psi = psi + i omega, psi = (Psi + flip)/2,
omega = (Psi - flip)/(2i) and omega(v1, v2) = psi(v1, i v2).

The positivity verdict of a curvature form applies this correspondence
to omega = i h Theta: the associated Hermitian form at a tangent
direction x is G(x) = -i h(z) Theta(x, i x), an n x n Hermitian matrix
whose smallest eigenvalue over sampled points and directions decides
positive / nonnegative / indefinite.  The sign convention is pinned so
the unit-disc weights (1 - |z|^2)^(-nu) come out strictly positive, and
it inherits the dzbar ^ dz orientation of the curvature coefficients;
sampled directions can over-report positivity for adversarial curvature,
which the report states.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chern import CurvatureField, MetricField, _chunked
from .errors import require
from .forms import BilinearSamples, Form2, Record, as_point, as_sample, pointwise
from .linalg import Sampler, complex_normal, eigvalsh, frob, hermiticity_defect, hermitize

__all__ = [
    "BilinearSamples",
    "SesquiTriple",
    "triple_split",
    "triple_join",
    "griffiths_form",
    "GriffithsReport",
    "griffiths_verdict",
    "direction_samples",
]


# ---------------------------------------------------------------------------
# the Herm/Symm/Skew correspondence
# ---------------------------------------------------------------------------


class SesquiTriple(Record, frozen=True):
    """Matched (Psi, psi, omega) triple with membership residuals.

    Invariants: Psi(v1,v2)* = Psi(v2,v1); psi symmetric and i-invariant;
    omega skew, i-invariant, self-adjoint values; Psi = psi + i omega.
    """

    herm: BilinearSamples
    symm: BilinearSamples
    skew: BilinearSamples
    residuals: dict


def _herm_membership_defect(psi: BilinearSamples) -> float:
    # Herm membership: Psi(v1,v2)* = Psi(v2,v1) and Psi(v2,v1) = i Psi(v2, i v1);
    # as maps of (v1,v2) the second reads flip(Psi) = i rotate_first(flip(Psi)).
    flipped = psi.flip()
    adjoint = psi.combine(flipped.adjoint_values(), 1.0, -1.0).norm()
    sesqui = flipped.combine(flipped.rotate_first(), 1.0, -1j).norm()
    return float(np.max([adjoint, sesqui]))


def triple_split(psi_map, dim: int, tol: float = 1e-10) -> SesquiTriple:
    """Split a Hermitian sesquilinear map into its Symm and Skew parts.

    psi = (Psi + flip)/2, omega = (Psi - flip)/(2i).  The input may be a
    callable or a BilinearSamples tensor; membership of the input in the
    Herm class is checked on the probe basis and rejection reports the
    measured defect.
    """
    psi = BilinearSamples.of(psi_map, dim)
    scale = max(1.0, psi.norm())
    defect = _herm_membership_defect(psi)
    require(defect <= tol * scale, f"map is not Hermitian sesquilinear: defect {defect:.3e}")
    flipped = psi.flip()
    symm = psi.combine(flipped, 0.5, 0.5)
    skew = psi.combine(flipped, 1.0 / 2j, -1.0 / 2j)
    residuals = _triple_residuals(psi, symm, skew)
    return SesquiTriple(herm=psi, symm=symm, skew=skew, residuals=residuals)


def triple_join(omega_map, dim: int, tol: float = 1e-10) -> SesquiTriple:
    """Rebuild the Hermitian form from its Skew component.

    Psi(v1, v2) = -omega(v1, i v2) + i omega(v1, v2); the input must be
    in the Skew class (antisymmetric, i-invariant, self-adjoint values).
    """
    skew = BilinearSamples.of(omega_map, dim)
    scale = max(1.0, skew.norm())
    anti = skew.combine(skew.flip(), 1.0, 1.0).norm()
    rot = skew.combine(skew.rotate_both(), 1.0, -1.0).norm()
    sa = skew.combine(skew.adjoint_values(), 1.0, -1.0).norm()
    defect = float(np.max([anti, rot, sa]))
    require(defect <= tol * scale, f"map is not in the Skew class: defect {defect:.3e}")
    herm = skew.rotate_second().combine(skew, -1.0, 1j)
    symm = herm.combine(herm.flip(), 0.5, 0.5)
    residuals = _triple_residuals(herm, symm, skew)
    return SesquiTriple(herm=herm, symm=symm, skew=skew, residuals=residuals)


def _triple_residuals(herm, symm, skew) -> dict:
    recomposed = symm.combine(skew, 1.0, 1j)
    return {
        "recomposition": herm.combine(recomposed, 1.0, -1.0).norm(),
        "symm_flip": symm.combine(symm.flip(), 1.0, -1.0).norm(),
        "symm_rotation": symm.combine(symm.rotate_both(), 1.0, -1.0).norm(),
        "skew_flip": skew.combine(skew.flip(), 1.0, 1.0).norm(),
        "skew_rotation": skew.combine(skew.rotate_both(), 1.0, -1.0).norm(),
        "skew_self_adjoint": skew.combine(skew.adjoint_values(), 1.0, -1.0).norm(),
        "omega_from_symm": skew.combine(symm.rotate_second(), 1.0, -1.0).norm(),
    }


# ---------------------------------------------------------------------------
# Griffiths forms and verdicts
# ---------------------------------------------------------------------------

# Relative hermiticity gate on every Griffiths form value: a larger defect
# signals a curvature block inconsistent with the metric pairing.
_HERM_TOL = 1e-6


def griffiths_form(h: np.ndarray, theta, x) -> np.ndarray:
    """Hermitian form G(x) = -i h Theta(x, i x) of a (1,1) curvature value.

    `theta` may be a one-point CurvatureField (its purity residual is
    gated at 1e-5 relative) or a bare Form2.  G scales as |lambda|^2 under
    x -> lambda x; its hermiticity defect beyond `_HERM_TOL` (relative)
    raises.
    """
    if isinstance(theta, CurvatureField) and np.ndim(theta.purity_residual) == 0:
        require(
            theta.purity_residual <= 1e-5 * max(1.0, frob(theta.form.r11)),
            f"curvature is not (1,1)-pure: residual {theta.purity_residual:.3e}",
        )
        form = theta.form
    elif isinstance(theta, Form2):
        form = theta
    else:
        raise TypeError("theta must be a one-point CurvatureField or a Form2")
    x = as_point(x)
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    g = -1j * h @ form(x, 1j * x)
    defect = hermiticity_defect(g)
    require(defect <= _HERM_TOL, f"Griffiths form is not Hermitian: relative defect {defect:.3e}")
    return g


def direction_samples(dim: int, count: int, seed: int) -> np.ndarray:
    """Unit tangent directions: canonical axes, their i-rotations, and
    `count` seeded uniform points on the unit sphere of C^d, for d >= 1."""
    if dim < 1:
        raise ValueError(f"directions need a chart of dimension d >= 1, not {dim}")
    basis = np.eye(dim, dtype=complex)
    dirs = [basis[j] for j in range(dim)] + [1j * basis[j] for j in range(dim)]
    rng = Sampler(seed)
    for _ in range(count):
        v = complex_normal(rng, dim)
        nrm = np.linalg.norm(v)
        while nrm < 1e-8:  # essentially never; keeps the draw well defined
            v = complex_normal(rng, dim)
            nrm = np.linalg.norm(v)
        dirs.append(v / nrm)
    return np.asarray(dirs)


class GriffithsReport(Record):
    """Spectral margins of the Griffiths form over a point/direction sample.

    The verdict quantifies only over the sampled rank-one directions;
    `sampled_only` records that a sampled positive verdict is not a
    certificate against adversarial curvature between samples.

    Round-off picks among margins that agree mathematically, so a witness
    may differ between versions of the reduction or of the stencils: in one
    variable G(x) = |x|^2 G(1) ties every unit direction, and beyond one
    variable points can tie (grid corners with equal |B| on a Grassmannian
    chart) for `witness_point`.
    """

    points: np.ndarray  # (N, d)
    directions: np.ndarray  # (M, d)
    seed: int
    margins: np.ndarray  # (N, M) lambda_min(G) per point and direction
    min_margins: np.ndarray  # (N,) min over directions
    min_margin: float
    witness_point: np.ndarray
    witness_direction: np.ndarray
    hermiticity_residuals: np.ndarray  # (N,) worst relative defect of G over directions
    verdict: str
    sampled_only: bool = True


def griffiths_verdict(
    metric: MetricField,
    curvature_field: CurvatureField | Callable[[np.ndarray], CurvatureField],
    points,
    directions: int = 64,
    seed: int = 0,
    pos_tol: float = 1e-6,
    neg_tol: float = 1e-6,
) -> GriffithsReport:
    """Spectral verdict of the curvature's Griffiths form over a grid.

    `curvature_field` is either a CurvatureField over `points`, whose
    metric values are reused, or a map z -> one-point CurvatureField,
    lifted to the points by `forms.pointwise` (called in grid order); a
    field over other points raises ValueError.
    Under Form2's antisymmetrised evaluation the (2,0) and (0,2) blocks
    vanish on (x, i x), so for point i and direction x_m

        G_im = -i h Theta(x_m, i x_m) = 2 h_i sum_{k,j} conj(x_mk) x_mj r11[k, j, i],

    one contraction over the (point, direction) pairs of each
    `chern._chunked` chunk of points.  Every G_im passes
    the same relative hermiticity gate as `griffiths_form`, and one stacked
    `linalg.eigvalsh` of a chunk's hermitised G_im gives its margins.

    Deterministic for a fixed seed: the direction sample and the
    iteration order are pinned.  The reduction is a minimum; on ties the
    first (point, direction) pair in row-major order is the witness.
    """
    pts = as_sample(points, metric.dim)
    dirs = direction_samples(metric.dim, directions, seed)

    field = curvature_field if isinstance(curvature_field, CurvatureField) else pointwise(curvature_field)(pts)
    if not np.array_equal(field.points, pts):
        raise ValueError("curvature_field is a field over other points")

    def chunk(rows):  # the hermiticity defects (NaN propagates) and margins
        s = np.einsum("mk,mj,kjiab->imab", dirs.conj(), dirs, field.form.r11[:, :, rows])
        g = 2.0 * np.matmul(field.h[rows, None], s)
        return hermiticity_defect(g).max(axis=1), eigvalsh(hermitize(g))[..., 0]

    herm, margins = _chunked(chunk, len(pts), len(dirs))
    worst = np.max(herm, initial=0.0)
    require(worst <= _HERM_TOL, f"Griffiths forms are not Hermitian: worst relative defect {worst:.3e}")
    i, m = np.unravel_index(np.argmin(margins), margins.shape)
    overall = float(margins[i, m])
    verdict = "positive" if overall > pos_tol else "indefinite" if overall < -neg_tol else "nonnegative"
    return GriffithsReport(
        points=pts,
        directions=dirs,
        seed=seed,
        margins=margins,
        min_margins=margins.min(axis=1),
        min_margin=overall,
        witness_point=pts[i].copy(),
        witness_direction=dirs[m].copy(),
        hermiticity_residuals=herm,
        verdict=verdict,
    )
