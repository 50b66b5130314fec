"""Hermitian metrics, metric connections and curvature on complex charts.

For a positive-definite Hermitian metric field h on an open set of C^d
the unique connection compatible with both the metric and the complex
structure has local form A = h^{-1} del h, a pure (1,0) form.  Its
curvature is the (1,1) form delbar A, computed here by two independent
routes:

* `analytic_curvature_field` - the quotient-rule expansion
  Theta = h^{-1} (delbar del h) - (h^{-1} delbar h) ^ (h^{-1} del h),
  using mixed second Wirtinger differences of h;
* `nested_curvature_field` - d A + A ^ A with A itself obtained by inner
  finite differences at each outer stencil node.

Cross-validating the two replaces a symbolic derivation as the
correctness argument.  All (1,1) coefficients are stored in the
dzbar ^ dz orientation, so the unit-disc weight (1 - |z|^2)^(-nu)
yields the positive coefficient nu / (1 - |z|^2)^2.

Everything is computed over whole arrays of points.  `metric_jet` is the
one evaluation of a metric on a grid stencil: it evaluates the metric once
on every stencil node of every point, splits the rows by node with
`Stencil.by_node`, and returns a `MetricJet`.  The connection, the
analytic curvature and the subbundle split are reductions of a jet, the
dual check is a reduction of the analytic curvature, and none of them
evaluates anything; the nested route builds its own jets.
Field arrays put the point axis between the form indices and the fiber
matrix, e.g. (d, N, n, n) for connection coefficients.  `field.at(i)` is
the same field class at point i (`forms.at_point`), and the point
functions (`chern_connection`, `curvature`, ...) return it.  A metric or
frame given as a function of one point is lifted to stacks by
`forms.pointwise`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, SingularMetricError, StructuralError, row_by_row
from .forms import (
    Form1, Form2, Record, Stencil, as_point, as_points, at_point, inside_domain, join_points, pointwise, wedge,
)
from .kernels import AdmissibilityField, KernelSpec
from .linalg import adjoint, eigvalsh, frob, hermiticity_defect, hermitize, mgs_orthonormalize, mul, norms, solve

__all__ = [
    "FdSteps",
    "MetricField",
    "metric_from_kernel",
    "MetricJet",
    "metric_jet",
    "ConnectionField",
    "chern_connection",
    "chern_connection_field",
    "CurvatureField",
    "curvature",
    "analytic_curvature_field",
    "nested_curvature_field",
    "compatibility_field",
    "hom_metric",
    "hs_connection_check",
    "SubbundleField",
    "subbundle_field",
    "subbundle_split",
    "DualCurvatureField",
    "dual_curvature_check",
    "dual_curvature_field",
]


class FdSteps(Record, frozen=True):
    """Finite-difference step policy.

    `first` scales steps for first derivatives, `second` for mixed second
    derivatives and outer layers of nested differences; both multiply the
    chart `scale`, one number or one per complex axis, the only place a
    chart scale enters a step.  `richardson` switches on step-halving
    extrapolation (one extra order pair), needed when tolerances are
    tighter than plain second-order stencils deliver.
    """

    first: float = 1e-5
    second: float = 1e-4
    richardson: bool = False
    scale: float | tuple[float, ...] = 1.0

    def first_steps(self) -> np.ndarray:
        return self.first * np.asarray(self.scale, dtype=float)

    def second_steps(self) -> np.ndarray:
        return self.second * np.asarray(self.scale, dtype=float)

    @property
    def max_step(self) -> float:
        return max(self.first, self.second)

    @property
    def margin(self) -> float:
        """Boundary distance a grid point needs for every stencil: four
        largest scaled steps.  A stencil reaches two steps from its centre
        (`Stencil.radius`), and the nested route centres an inner stencil
        on each node of an outer one."""
        return 4.0 * self.max_step * float(np.max(self.scale))


_ROWS = 8192  # the budget of `_chunked`


def _chunked(run, count: int, rows_per_point: int):
    """`run(rows)`, a field result over the points `rows`, over consecutive
    slices of `count` points in grid order (one empty slice for no points),
    joined by `forms.join_points` as each arrives.  A slice holds at least
    one point and at most `_ROWS` rows (metric rows, stencil nodes, fiber
    matrices or (point, direction) pairs) at `rows_per_point` a point, the
    bound on the temporaries of every whole-grid computation.  Each call
    goes through `errors.row_by_row`, so the error is a point loop's first."""
    step, joined = max(1, _ROWS // rows_per_point), None
    for start in range(0, max(count, 1), step):
        size = len(range(start, count)[:step])
        chunk = row_by_row(lambda head: run(slice(start, start + head.stop)), size)
        joined = join_points(joined, chunk, slice(start, start + size), count)
    return joined


def _first_false(ok: np.ndarray) -> int | None:
    return None if ok.all() else int(np.argmin(ok))


def _validated(h: np.ndarray, pts: np.ndarray, name: str) -> np.ndarray:
    """Fiber metric values h (M, n, n) at the rows of `pts`, if each is finite,
    Hermitian within 1e-12 (relative) and has its smallest eigenvalue above
    1e-12 of the largest.  Otherwise the first check that fails raises,
    naming its earliest failing row."""
    i = _first_false(np.isfinite(h).all(axis=(1, 2)))
    if i is not None:
        raise StructuralError(f"{name} has non-finite entries at {pts[i]}")
    i = _first_false(hermiticity_defect(h) <= 1e-12)
    if i is not None:
        raise StructuralError(f"{name} is not Hermitian at {pts[i]}")
    evals = eigvalsh(hermitize(h))
    i = _first_false(evals[:, 0] > 1e-12 * np.maximum(evals[:, -1], 0.0))
    if i is not None:
        raise SingularMetricError(
            f"{name} is numerically singular at {pts[i]} "
            f"(eigenvalue range [{evals[i, 0]:.3e}, {evals[i, -1]:.3e}])"
        )
    return h


class MetricField(Record):
    """A map z -> positive-definite Hermitian fiber metric h(z).

    Every evaluation is validated: Hermitian within 1e-12 (relative) and
    smallest eigenvalue above 1e-12 of the largest, otherwise the metric
    counts as singular and evaluation aborts rather than regularizing.
    `batch_func`, if given, maps an (M, d) array of points to the (M, n, n)
    values at once, and `func` may be None; otherwise `func` is lifted to
    the stack by `forms.pointwise`, a scalar value counting as a 1 x 1
    matrix.
    """

    func: Callable[[np.ndarray], np.ndarray] | None
    dim: int
    fiber_dim: int
    domain: object = None
    name: str = "metric"
    batch_func: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.func is None and self.batch_func is None:
            raise ValueError(f"{self.name} needs func or batch_func")

    def __call__(self, z) -> np.ndarray:
        return self.batch(as_point(z, self.dim)[None])[0]

    def batch(self, points) -> np.ndarray:
        """h at each row of an (M, d) array of points, shape (M, n, n).

        Rows pass the checks of a single evaluation, in its order: domain,
        the function's own checks, shape, finiteness, hermiticity and
        singularity, `_ROWS` at a time (`_chunked`), so the error raised is
        the one a row-by-row loop would raise.
        """
        pts = as_points(points, self.dim).reshape(-1, self.dim)
        return _chunked(lambda rows: self._checked(pts[rows]), len(pts), 1)

    def _checked(self, pts: np.ndarray) -> np.ndarray:
        """h at each row of `pts`, through every check of `batch`."""
        n = self.fiber_dim
        if self.domain is not None:
            i = _first_false(inside_domain(self.domain, pts))
            if i is not None:
                raise DomainError(f"point {pts[i]} is outside the domain of {self.name}")
        if not len(pts):
            return np.empty((0, n, n), dtype=complex)
        batch = self.batch_func or pointwise(lambda z: np.atleast_2d(self.func(z)), (n, n), what=self.name)
        h = np.asarray(batch(pts), dtype=complex)
        if h.shape != (len(pts), n, n):
            raise StructuralError(f"{self.name} returned shape {h.shape[1:]}, expected ({n}, {n})")
        return _validated(h, pts, self.name)


def metric_from_kernel(spec: KernelSpec, admissibility_tol: float = 1e-10) -> MetricField:
    """The Hermitian structure z -> kappa(z, z)^T induced by a kernel:
    the Gram matrix of the holomorphic frame z -> conj K(., z) e_i, which is
    F* F for a section kernel E(z) E(w)* with the column frame F = E^T.

    Raises SingularMetricError through the returned field wherever the
    diagonal kernel block fails the admissibility margin.
    """

    def batch_func(z):
        blocks = spec.eval_batch(z, z)
        adm = AdmissibilityField.of_blocks(blocks, admissibility_tol)
        i = _first_false(adm.invertible)
        if i is not None:
            raise SingularMetricError(
                f"kernel {spec.variant} is not admissible at {z[i]} "
                f"(singular values in [{adm.smallest_singular_value[i]:.3e}, {adm.norm[i]:.3e}])"
            )
        return np.swapaxes(blocks, -1, -2)

    return MetricField(
        func=None,
        dim=spec.base_dim,
        fiber_dim=spec.fiber_dim,
        domain=spec,
        name=f"{spec.variant} kernel metric",
        batch_func=batch_func,
    )


# ---------------------------------------------------------------------------
# the metric jet
# ---------------------------------------------------------------------------


class MetricJet(Record, frozen=True):
    """h and its Wirtinger derivatives at an array of N chart points and, to
    second order, the node values they were taken from.

    h is (N, n, n); dp[j] ~ dh/dz_j and dq[k] ~ dh/dzbar_k are stacked as
    (d, N, n, n); mixed[k, j] ~ d^2 h / dzbar_k dz_j is (d, d, N, n, n),
    and `values` (S, N, n, n), h at node s of `stencil` around every point,
    node first as `Stencil.by_node` puts it (only `subbundle_field` reads
    these two); both are None for a first-order jet or a jet without nodes.
    """

    points: np.ndarray
    h: np.ndarray
    dp: np.ndarray
    dq: np.ndarray
    mixed: np.ndarray | None
    values: np.ndarray | None
    stencil: Stencil | None


def _jet(points: np.ndarray, values: np.ndarray, stencil: Stencil, order: int) -> MetricJet:
    """The jet of node-first values (S, N, n, n) on `stencil` around `points`."""
    dp, dq = stencil.first_derivatives(values)
    mixed = stencil.mixed_derivatives(values) if order == 2 else None
    return MetricJet(points, values[Stencil.CENTRE], dp, dq, mixed, None if mixed is None else values, stencil)


def metric_jet(metric: MetricField, points, steps: FdSteps = FdSteps(), order: int = 2) -> MetricJet:
    """Evaluate the metric once on every stencil node of every point.

    First derivatives use `steps.first`, mixed second derivatives (order 2)
    `steps.second`, both times the chart scale of `steps`.  Points run in
    `_chunked` chunks: the first whose evaluation or stencil fails raises.
    """
    pts = as_points(points, metric.dim).reshape(-1, metric.dim)
    mixed = steps.second_steps() if order == 2 else None
    stencil = Stencil(metric.dim, first=steps.first_steps(), mixed=mixed, richardson=steps.richardson, centre=True)

    def chunk(rows):
        p = pts[rows]
        return _jet(p, stencil.by_node(stencil.on_points(metric.batch, p, metric.domain), len(p)), stencil, order)

    return _chunked(chunk, len(pts), len(stencil.offsets))


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------


class ConnectionField(Record, frozen=True):
    """A connection form over an array of points, with the metric jet it
    was computed from; form.p and form.q are (d, N, n, n)."""

    jet: MetricJet
    form: Form1

    at = at_point


def chern_connection_field(jet: MetricJet) -> ConnectionField:
    """A = h^{-1} del h at every point of a metric jet of either order, with
    the dzbar block zero by construction."""
    p = solve(jet.h, jet.dp)
    return ConnectionField(jet=jet, form=Form1(p, np.zeros_like(p)))


def chern_connection(metric: MetricField, z, steps: FdSteps = FdSteps()) -> ConnectionField:
    """A = h^{-1} del h at z, with the dzbar block zero by construction."""
    return chern_connection_field(metric_jet(metric, as_point(z, metric.dim)[None], steps, order=1)).at(0)


class CurvatureField(Record, frozen=True):
    """Curvature over an array of points: form blocks (d, d, N, n, n), the
    metric h (N, n, n) and (N,) residuals.

    `purity_residual` measures the (2,0) + (0,2) leakage (zero for the
    analytic expansion, finite-difference noise for the nested route);
    `pairing_residual` measures the failure of h Theta to pair
    skew-Hermitianly, relative to its size.
    """

    points: np.ndarray
    h: np.ndarray
    form: Form2
    purity_residual: np.ndarray
    pairing_residual: np.ndarray

    at = at_point


def _max_norm(blocks: np.ndarray) -> np.ndarray:
    """Largest Frobenius norm over the two form indices, per point."""
    return norms(blocks).max(axis=(0, 1))


def _pairing_residuals(h: np.ndarray, r11: np.ndarray) -> np.ndarray:
    weighted = h @ r11
    scale = np.maximum(1.0, _max_norm(weighted))
    return _max_norm(adjoint(weighted) - np.swapaxes(weighted, 0, 1)) / scale


def analytic_curvature_field(jet: MetricJet) -> CurvatureField:
    """The analytic expansion at every point of a second-order metric jet."""
    if jet.mixed is None:
        raise ValueError("the analytic curvature needs a second-order metric jet")
    h = jet.h
    hk = solve(h, jet.dq)
    r11 = solve(h, jet.mixed) - mul(hk[:, None], solve(h, jet.dp)[None, :])
    zero = np.zeros_like(r11)
    return CurvatureField(
        points=jet.points,
        h=h,
        form=Form2(zero, r11, zero.copy()),
        purity_residual=np.zeros(len(jet.points)),
        pairing_residual=_pairing_residuals(h, r11),
    )


def nested_curvature_field(metric: MetricField, points, steps: FdSteps = FdSteps()) -> CurvatureField:
    """d A + A ^ A at every point, A from the connection field at the nodes
    of an outer stencil of step `steps.second` (the point itself included).

    Points run in `_chunked` chunks of outer nodes, so the node tables of
    one chunk are all that is held at once; the first point whose
    evaluation or stencil fails raises."""
    pts = as_points(points, metric.dim).reshape(-1, metric.dim)
    outer = Stencil(metric.dim, first=steps.second_steps(), richardson=steps.richardson, centre=True)

    def connection(nodes):  # each node's own connection, from a first-order jet
        return chern_connection_field(metric_jet(metric, nodes, steps, order=1))

    def chunk(rows) -> CurvatureField:
        p = pts[rows]
        conn = outer.by_node(outer.on_points(connection, p, metric.domain), len(p))
        a0 = Form1(conn.form.p[Stencil.CENTRE], conn.form.q[Stencil.CENTRE])
        theta = outer.exterior_derivative(conn.form) + wedge(a0, a0)
        h = conn.jet.h[Stencil.CENTRE]
        return CurvatureField(
            points=p,
            h=h,
            form=theta,
            purity_residual=np.maximum(_max_norm(theta.c20), _max_norm(theta.c02)),
            pairing_residual=_pairing_residuals(h, theta.r11),
        )

    return _chunked(chunk, len(pts), len(outer.offsets))


def curvature(metric: MetricField, z, steps: FdSteps = FdSteps()) -> CurvatureField:
    """Curvature of the metric connection at z, by the analytic expansion.

    The coefficient r11[k, j] multiplies dzbar_k ^ dz_j.  The nested route
    at one point is `nested_curvature_field(metric, [z], steps).at(0)`; the
    two agree within 5e-5 relative on smooth metrics, and the analytic one
    is cheaper and amplifies less noise.
    """
    pts = as_point(z, metric.dim)[None]
    return analytic_curvature_field(metric_jet(metric, pts, steps, order=2)).at(0)


def compatibility_field(connection: ConnectionField) -> dict:
    """Residuals of the pointwise identities of a metric connection at every
    point of a connection field, as (N,) arrays:

    metric    ||dh - h A - A* h|| over the coefficient basis,
    holo      ||A^(0,1)||,
    scale     max(1, ||h||, ||dh||) for relative gates; the rest are absolute.

    The structure equation del A + A ^ A = 0 is a curvature field's `form.c20`.
    """
    jet, a = connection.jet, connection.form
    h = jet.h
    metric_res = np.maximum(
        norms(jet.dp - (h @ a.p + adjoint(a.q) @ h)),
        norms(jet.dq - (h @ a.q + adjoint(a.p) @ h)),
    ).max(axis=0)
    return {
        "metric": metric_res,
        "holo": norms(a.q).max(axis=0),
        "scale": np.maximum.reduce(
            [np.ones(len(jet.points)), norms(h), norms(jet.dp).max(axis=0), norms(jet.dq).max(axis=0)]
        ),
    }


# ---------------------------------------------------------------------------
# Hilbert-Schmidt bundles
# ---------------------------------------------------------------------------


def hom_metric(h1: MetricField, h2: MetricField) -> MetricField:
    """The metric S -> h2 S h1^{-1} of Hom(E1, E2), the n2 x n1 matrices S
    with the trace pairing, as the superoperator kron(h2, (h1^{-1})^T) on
    row-major vectorized S; its curvature is S -> Theta2 S - S Theta1."""
    if h1.dim != h2.dim:
        raise ValueError("factor metrics live on charts of different dimension")
    n1, n2 = h1.fiber_dim, h2.fiber_dim

    def super_metric(nodes):  # kron(h2, inv(h1)^T) at every node
        a, b = h2.batch(nodes), np.swapaxes(solve(h1.batch(nodes), np.eye(n1)), -1, -2)
        return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(nodes), n2 * n1, n2 * n1)

    return MetricField(
        func=None,
        dim=h1.dim,
        fiber_dim=n1 * n2,
        domain=h1.domain if h1.domain is not None else h2.domain,
        name="hs metric",
        batch_func=super_metric,
    )


def hs_connection_check(
    h1: MetricField,
    h2: MetricField,
    z,
    steps: FdSteps = FdSteps(),
) -> float:
    """Residual of the operator-bundle connection identity.

    The metric connection of `hom_metric(h1, h2)`, computed directly as a
    superoperator on vectorized matrices, must equal S -> A2 S - S A1
    built from the factor connections.
    """
    z = as_point(z, h1.dim)
    n1, n2 = h1.fiber_dim, h2.fiber_dim
    a_super, a1, a2 = (chern_connection(m, z, steps).form.p for m in (hom_metric(h1, h2), h1, h2))
    return float(np.max([
        frob(a_super[j] - (np.kron(a2[j], np.eye(n1)) - np.kron(np.eye(n2), a1[j].T)))
        for j in range(h1.dim)
    ]))


# ---------------------------------------------------------------------------
# holomorphic subbundles
# ---------------------------------------------------------------------------


class SubbundleField(Record, frozen=True):
    """Split of a metric bundle along a holomorphic subframe, over an array
    of points.

    `beta[j]` is the (n-k) x k dz_j block of the ambient connection in
    the adapted frame (the shape operator of the subbundle); the
    curvature identity block11 = Theta_sub - beta* ^ beta is reported as
    `identity_residual`.  `beta_antiholo_residual` measures the dzbar
    leakage of the lower-left block, which must vanish for a holomorphic
    subbundle.
    """

    adapted_frame: np.ndarray  # (N, n, n), orthonormal for the ambient metric
    beta: np.ndarray  # (d, N, n-k, k)
    theta_block11: np.ndarray  # (d, d, N, k, k) ambient curvature, sub block
    theta_block22: np.ndarray  # (d, d, N, n-k, n-k)
    theta_sub: np.ndarray  # (d, d, N, k, k) curvature of the induced metric
    identity_residual: np.ndarray  # (N,)
    beta_antiholo_residual: np.ndarray  # (N,)

    at = at_point


def _frames(frame, nodes: np.ndarray, n: int) -> np.ndarray:
    f = np.asarray(frame(nodes), dtype=complex)
    if f.ndim != 3 or f.shape[:2] != (len(nodes), n):
        raise ValueError(f"frame must return an {n} x k matrix")
    if f.shape[2] > n:
        raise ValueError("frame rank exceeds the fiber dimension")
    return f


def _node_frames(a, inner, pts, offsets):
    """`mgs_orthonormalize` of the frames [frame | complement] at the points
    (N, n, k) or at their stencil nodes, node axis first (S, N, n, k), with
    a failing column reported by its grid point and stencil node."""
    try:
        return mgs_orthonormalize(a, inner=inner)
    except StructuralError as exc:
        *node, i, column = exc.index
        where = pts[i] + offsets[node[0] if node else Stencil.CENTRE]
        raise StructuralError(
            f"column {column} of [frame | complement] at grid point {pts[i]}, stencil node {where}, {exc.reason}"
        ) from exc


def subbundle_field(jet: MetricJet, frame: Callable[[np.ndarray], np.ndarray]) -> SubbundleField:
    """Adapted-frame split of the metric connection along span(frame) at
    every point of a second-order metric jet; `frame` maps an (M, d) stack
    of points to (M, n, k).

    The adapted frame orthonormalizes [frame | fixed complement columns]
    in the pointwise metric inner product by modified Gram-Schmidt with
    the triangular factor's diagonal kept real positive; fixing each
    point's complement columns (chosen there by largest projection
    residual) keeps the frame field smooth across its stencil.  The frame
    is evaluated once on the jet's nodes.  On the first-derivative nodes,
    with h read from the jet, it gives the adapted frames; on every node
    it gives the induced metric F* h F, checked as a metric evaluation is
    and differentiated with the jet's stencil.  The ambient connection and
    curvature are reductions of the jet.  Points run in `_chunked` chunks
    of the jet's nodes, raising the error a loop over the points would.
    """
    if jet.values is None:  # a first-order jet has none either
        raise ValueError("the subbundle split needs the node values of a second-order metric jet")
    return _chunked(lambda rows: _subbundle(at_point(jet, rows), frame), len(jet.points), len(jet.stencil.offsets))


def _subbundle(jet: MetricJet, frame: Callable[[np.ndarray], np.ndarray]) -> SubbundleField:
    pts, stencil, n = jet.points, jet.stencil, jet.h.shape[-1]
    r11 = analytic_curvature_field(jet).form.r11
    nodes, frames = stencil.on_points(lambda w: (w, _frames(frame, w, n)), pts)
    f_all = stencil.by_node(frames, len(pts))
    h, f = jet.values[: stencil.first_nodes], f_all[: stencil.first_nodes]
    h0, k = jet.h, f.shape[-1]

    q1, _ = _node_frames(f[Stencil.CENTRE], h0, pts, stencil.offsets)
    eye = np.eye(n, dtype=complex)
    e, hc = eye[:, :, None], h0[:, None]  # e[i] is the column e_i
    resid = e - q1[:, None] @ (adjoint(q1)[:, None] @ (hc @ e))
    scores = np.abs(adjoint(resid) @ (hc @ resid))[..., 0, 0]
    complement = np.sort(np.argsort(scores, axis=-1, kind="stable")[:, ::-1][:, : n - k], axis=-1)
    fixed = np.swapaxes(eye[complement], -1, -2)
    columns = np.concatenate([f, np.broadcast_to(fixed, f.shape[:2] + fixed.shape[1:])], axis=-1)
    u, r_full = _node_frames(columns, h, pts, stencil.offsets)
    u0 = u[Stencil.CENTRE]
    u0_inv = adjoint(u0) @ h0  # h-unitarity makes this the inverse

    du_p, du_q = stencil.first_derivatives(u)
    beta = (u0_inv @ (solve(h0, jet.dp) @ u0 + du_p))[..., k:, :k]
    antiholo = norms((u0_inv @ du_q)[..., k:, :k]).max(axis=0, initial=0.0)

    tilde = u0_inv @ r11 @ u0
    block11, block22 = tilde[..., :k, :k], tilde[..., k:, k:]

    induced = adjoint(f_all) @ jet.values @ f_all  # (S, N, k, k), checked point by point
    _validated(np.swapaxes(induced, 0, 1).reshape(-1, k, k), nodes, "induced subbundle metric")
    sub = analytic_curvature_field(_jet(pts, induced, stencil, order=2)).form.r11
    r = r_full[Stencil.CENTRE, :, :k, :k]
    theta_sub = r @ sub @ solve(r, np.eye(k))
    expected = theta_sub - adjoint(beta)[:, None] @ beta[None, :]
    return SubbundleField(
        adapted_frame=u0,
        beta=beta,
        theta_block11=block11,
        theta_block22=block22,
        theta_sub=theta_sub,
        identity_residual=_max_norm(block11 - expected),
        beta_antiholo_residual=antiholo,
    )


def subbundle_split(
    metric: MetricField,
    frame: Callable[[np.ndarray], np.ndarray],
    z,
    steps: FdSteps = FdSteps(),
) -> SubbundleField:
    """`subbundle_field` at one point z, for a frame z -> (n, k) matrix."""
    stacked = pointwise(lambda w: np.atleast_2d(frame(w)))
    return subbundle_field(metric_jet(metric, as_point(z, metric.dim)[None], steps, order=2), stacked).at(0)


# ---------------------------------------------------------------------------
# dual bundles
# ---------------------------------------------------------------------------


class DualCurvatureField(Record, frozen=True):
    """The dual-bundle curvature of a kernel metric, pulled back to the
    original chart, with the residual of Theta_dual = -(h Theta h^-1)^T,
    over an array of points."""

    theta_dual_r11: np.ndarray  # (d, d, N, n, n), pulled back
    residual: np.ndarray  # (N,)

    at = at_point


def dual_curvature_field(theta: CurvatureField) -> DualCurvatureField:
    """Check that the dual-bundle curvature is minus the transpose of the
    original at every point of a curvature field of a kernel metric.

    The dual kernel lives on the conjugated chart, and its metric at
    conj(z) is conj(h(z)); as conjugation commutes with the Wirtinger
    derivatives, its jet is the jet of h conjugated array by array, and
    the analytic curvature of that jet is conj(Theta) bit for bit.
    Pulling its (1,1) coefficients back to the original coordinates swaps
    the form indices and flips the orientation sign, and leaves the
    operator values as they are.  The metric identifies the dual kernel's
    frame with h times the dual frame, in which the dual curvature is
    -Theta^T; so the pulled-back coefficients must equal
    -(h Theta h^-1)^T, which is the pairing identity of h Theta weighted by
    h^-1.  Chunks hold 4 (1 + d)^2 matrices a point.
    """

    def chunk(rows) -> DualCurvatureField:
        field = at_point(theta, rows)
        h, r11 = field.h, field.form.r11
        pulled = -np.swapaxes(np.conj(r11), 0, 1)
        expected = -np.swapaxes(h @ r11 @ solve(h, np.eye(h.shape[-1])), -1, -2)
        return DualCurvatureField(pulled, _max_norm(pulled - expected))

    return _chunked(chunk, len(theta.points), 4 * (1 + theta.points.shape[-1]) ** 2)


def dual_curvature_check(spec: KernelSpec, z, steps: FdSteps = FdSteps()) -> DualCurvatureField:
    """`dual_curvature_field` at one point z."""
    jet = metric_jet(metric_from_kernel(spec), as_point(z, spec.base_dim)[None], steps)
    return dual_curvature_field(analytic_curvature_field(jet)).at(0)
