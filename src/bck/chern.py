"""Hermitian metrics, metric connections and curvature on complex charts.

For a positive-definite Hermitian metric field h on an open set of C^d
the unique connection compatible with both the metric and the complex
structure has local form A = h^{-1} del h, a pure (1,0) form.  Its
curvature is the (1,1) form delbar A, computed here by two independent
routes:

* ``analytic_expansion`` - the quotient-rule expansion
  Theta = h^{-1} (delbar del h) - (h^{-1} delbar h) ^ (h^{-1} del h),
  using mixed second Wirtinger differences of h;
* ``nested_fd`` - d A + A ^ A with A itself obtained by inner finite
  differences at each outer stencil node.

Cross-validating the two replaces a symbolic derivation as the
correctness argument.  All (1,1) coefficients are stored in the
dzbar ^ dz orientation, so the unit-disc weight (1 - |z|^2)^(-nu)
yields the positive coefficient nu / (1 - |z|^2)^2.

Everything is computed over whole arrays of points: `metric_jet`
evaluates the metric once on every stencil node of every point, and the
connection, both curvature routes, the compatibility residuals, the
subbundle split and the dual check are fields derived from such
evaluations.  Field arrays put the point axis between the form indices
and the fiber matrix, e.g. (d, N, n, n) for connection coefficients.
`field.at(i)` is the same field class at point i (`forms.at_point`), and
the point functions (`chern_connection`, `curvature`, ...) return it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BckError, DomainError, SingularMetricError, StructuralError
from .forms import Form1, Form2, Stencil, as_point, as_points, at_point, inside_domain, wedge
from .kernels import AdmissibilityField, KernelSpec, dual_kernel
from .linalg import frob, hermiticity_defect, hermitize, mgs_orthonormalize

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
    "hs_connection_check",
    "SubbundleField",
    "subbundle_field",
    "subbundle_split",
    "DualCurvatureField",
    "dual_curvature_check",
    "dual_curvature_field",
]


@dataclass(frozen=True)
class FdSteps:
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


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norms over the two trailing (matrix) axes."""
    return np.linalg.norm(a, axis=(-2, -1))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


# Rows of a metric batch evaluated and validated at once: the bound on
# the temporaries of one `MetricField.batch` call, whatever its length.
_ROWS = 2048


def _first_false(ok: np.ndarray) -> int | None:
    return None if ok.all() else int(np.argmin(ok))


@dataclass
class MetricField:
    """A map z -> positive-definite Hermitian fiber metric h(z).

    Every evaluation is validated: Hermitian within 1e-12 (relative) and
    smallest eigenvalue above 1e-12 of the largest, otherwise the metric
    counts as singular and evaluation aborts rather than regularizing.
    `batch_func`, if given, maps an (M, d) array of points to the (M, n, n)
    values at once, and `func` may be None; otherwise `func` is called
    point by point.
    """

    func: Callable[[np.ndarray], np.ndarray] | None
    dim: int
    fiber_dim: int
    domain: object = None
    name: str = "metric"
    batch_func: Callable[[np.ndarray], np.ndarray] | None = None

    _HERM_TOL = 1e-12
    _SING_TOL = 1e-12

    def __post_init__(self):
        if self.func is None and self.batch_func is None:
            raise ValueError(f"{self.name} needs func or batch_func")

    def __call__(self, z) -> np.ndarray:
        return self.batch(as_point(z, self.dim)[None])[0]

    def batch(self, points) -> np.ndarray:
        """h at each row of an (M, d) array of points, shape (M, n, n).

        Rows pass the checks of a single evaluation, in its order: domain,
        the function's own checks, shape, finiteness, hermiticity and
        singularity.  The error raised is the one a row-by-row loop would
        raise: each check runs only on the rows before the first failure of
        an earlier check, and the earliest failing row wins.  Rows are
        evaluated and checked `_ROWS` at a time, in order, and the first
        chunk that fails raises.
        """
        pts = as_points(points, self.dim).reshape(-1, self.dim)
        out = np.empty((len(pts), self.fiber_dim, self.fiber_dim), dtype=complex)
        for start in range(0, len(pts), _ROWS):
            out[start : start + _ROWS] = self._checked(pts[start : start + _ROWS])
        return out

    def _checked(self, pts: np.ndarray) -> np.ndarray:
        """h at each row of `pts`, through every check of `batch`."""
        error = None
        if self.domain is not None:
            i = _first_false(inside_domain(self.domain, pts))
            if i is not None:
                error = DomainError(f"point {pts[i]} is outside the domain of {self.name}")
                pts = pts[:i]
        h, func_error = self._values(pts)
        if func_error is not None:
            error, pts = func_error, pts[: len(h)]
        i = _first_false(np.isfinite(h).all(axis=(1, 2)))
        if i is not None:
            error = StructuralError(f"{self.name} has non-finite entries at {pts[i]}")
            pts, h = pts[:i], h[:i]
        i = _first_false(hermiticity_defect(h) <= self._HERM_TOL)
        if i is not None:
            error = StructuralError(f"{self.name} is not Hermitian at {pts[i]}")
            pts, h = pts[:i], h[:i]
        evals = np.linalg.eigvalsh(hermitize(h))
        i = _first_false(evals[:, 0] > self._SING_TOL * np.maximum(evals[:, -1], 0.0))
        if i is not None:
            error = SingularMetricError(
                f"{self.name} is numerically singular at {pts[i]} "
                f"(eigenvalue range [{evals[i, 0]:.3e}, {evals[i, -1]:.3e}])"
            )
        if error is not None:
            raise error
        return h

    def _values(self, pts: np.ndarray) -> tuple[np.ndarray, BckError | None]:
        """The function's values on the rows before the first row it fails
        on, and that failure (None if every row passes)."""
        try:
            return self._evaluate(pts), None
        except BckError as exc:
            error = exc
        # bisect for the first failing row: a prefix fails iff it holds one
        lo, hi = 0, len(pts) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                self._evaluate(pts[: mid + 1])
            except BckError as exc:
                hi, error = mid, exc
            else:
                lo = mid + 1
        return self._evaluate(pts[:lo]), error

    def _evaluate(self, pts: np.ndarray) -> np.ndarray:
        n = self.fiber_dim
        if not len(pts):
            return np.empty((0, n, n), dtype=complex)
        if self.batch_func is not None:
            h = np.asarray(self.batch_func(pts), dtype=complex)
            if h.shape != (len(pts), n, n):
                raise StructuralError(
                    f"{self.name} returned shape {h.shape[1:]}, expected ({n}, {n})"
                )
            return h
        rows = []
        for z in pts:
            h = np.atleast_2d(np.asarray(self.func(z), dtype=complex))
            if h.shape != (n, n):
                raise StructuralError(f"{self.name} returned shape {h.shape}, expected ({n}, {n})")
            rows.append(h)
        return np.array(rows)


def metric_from_kernel(spec: KernelSpec, admissibility_tol: float = 1e-10) -> MetricField:
    """The Hermitian structure z -> h0(z) kappa(z, z) induced by a kernel.

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
        return spec.fiber_metric_batch(z) @ blocks

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


def _by_node(values: np.ndarray, count: int, nodes: int) -> np.ndarray:
    """Rows (axis -3) of a batch over count x nodes stencil points, node axis first."""
    split = values.reshape(values.shape[:-3] + (count, nodes) + values.shape[-2:])
    return np.moveaxis(split, -3, 0)


@dataclass(frozen=True)
class MetricJet:
    """h and its Wirtinger derivatives at an array of N chart points.

    h is (N, n, n); dp[j] ~ dh/dz_j and dq[k] ~ dh/dzbar_k are stacked as
    (d, N, n, n); mixed[k, j] ~ d^2 h / dzbar_k dz_j is (d, d, N, n, n),
    or None for a first-order jet.
    """

    points: np.ndarray
    h: np.ndarray
    dp: np.ndarray
    dq: np.ndarray
    mixed: np.ndarray | None = None


def metric_jet(metric: MetricField, points, steps: FdSteps = FdSteps(), order: int = 2) -> MetricJet:
    """Evaluate the metric once on every stencil node of every point.

    First derivatives use `steps.first`, mixed second derivatives (order 2)
    `steps.second`, both times the chart scale of `steps`.  Points are checked
    in grid order: the first point whose evaluation or stencil fails raises.
    """
    pts = as_points(points, metric.dim).reshape(-1, metric.dim)
    d = metric.dim
    stencil = Stencil(
        d,
        first=steps.first_steps(),
        mixed=steps.second_steps() if order == 2 else None,
        richardson=steps.richardson,
        centre=True,
    )
    values = _by_node(
        stencil.on_points(metric.batch, pts, metric.domain), len(pts), len(stencil.offsets)
    )
    dp, dq = stencil.first_derivatives(values)
    mixed = None
    if order == 2:
        mixed = np.stack(
            [np.stack([stencil.mixed_derivative(values, k, j) for j in range(d)]) for k in range(d)]
        )
    return MetricJet(points=pts, h=values[Stencil.CENTRE], dp=dp, dq=dq, mixed=mixed)


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionField:
    """A connection form over an array of points, with the first-order
    metric jet it was computed from; form.p and form.q are (d, N, n, n)."""

    jet: MetricJet
    form: Form1

    at = at_point


def chern_connection_field(metric: MetricField, points, steps: FdSteps = FdSteps()) -> ConnectionField:
    """A = h^{-1} del h at every point, with the dzbar block zero by construction."""
    jet = metric_jet(metric, points, steps, order=1)
    p = np.linalg.solve(jet.h, jet.dp)
    return ConnectionField(jet=jet, form=Form1(p, np.zeros_like(p)))


def chern_connection(metric: MetricField, z, steps: FdSteps = FdSteps()) -> ConnectionField:
    """A = h^{-1} del h at z, with the dzbar block zero by construction."""
    return chern_connection_field(metric, as_point(z, metric.dim)[None], steps).at(0)


@dataclass(frozen=True)
class CurvatureField:
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
    method: str
    purity_residual: np.ndarray
    pairing_residual: np.ndarray

    at = at_point


def _max_norm(blocks: np.ndarray) -> np.ndarray:
    """Largest Frobenius norm over the two form indices, per point."""
    return _norms(blocks).max(axis=(0, 1))


def _pairing_residuals(h: np.ndarray, r11: np.ndarray) -> np.ndarray:
    weighted = h @ r11
    scale = np.maximum(1.0, _max_norm(weighted))
    return _max_norm(_adjoint(weighted) - np.swapaxes(weighted, 0, 1)) / scale


def analytic_curvature_field(metric: MetricField, points, steps: FdSteps = FdSteps()) -> CurvatureField:
    """The analytic expansion at every point, from one second-order metric jet."""
    jet = metric_jet(metric, points, steps, order=2)
    h = jet.h
    hk = np.linalg.solve(h, jet.dq)
    r11 = np.linalg.solve(h, jet.mixed) - hk[:, None] @ np.linalg.solve(h, jet.dp)[None, :]
    zero = np.zeros_like(r11)
    return CurvatureField(
        points=jet.points,
        h=h,
        form=Form2(zero, r11, zero.copy()),
        method="analytic_expansion",
        purity_residual=np.zeros(len(jet.points)),
        pairing_residual=_pairing_residuals(h, r11),
    )


def nested_curvature_field(metric: MetricField, points, steps: FdSteps = FdSteps()) -> CurvatureField:
    """d A + A ^ A at every point, A from the connection field at the nodes
    of an outer stencil of step `steps.second` (the point itself included)."""
    pts = as_points(points, metric.dim).reshape(-1, metric.dim)
    outer = Stencil(
        metric.dim,
        first=steps.second_steps(),
        richardson=steps.richardson,
        centre=True,
    )
    conn = outer.on_points(
        lambda nodes: chern_connection_field(metric, nodes, steps), pts, metric.domain
    )
    count, nodes = len(pts), len(outer.offsets)
    p = _by_node(conn.form.p, count, nodes)
    q = _by_node(conn.form.q, count, nodes)
    a0 = Form1(p[Stencil.CENTRE], q[Stencil.CENTRE])
    theta = outer.exterior_derivative([Form1(pp, qq) for pp, qq in zip(p, q)]) + wedge(a0, a0)
    h = _by_node(conn.jet.h, count, nodes)[Stencil.CENTRE]
    return CurvatureField(
        points=pts,
        h=h,
        form=theta,
        method="nested_fd",
        purity_residual=np.maximum(_max_norm(theta.c20), _max_norm(theta.c02)),
        pairing_residual=_pairing_residuals(h, theta.r11),
    )


def curvature(
    metric: MetricField,
    z,
    steps: FdSteps = FdSteps(),
    method: str = "analytic_expansion",
) -> CurvatureField:
    """Curvature of the metric connection at z.

    The coefficient r11[k, j] multiplies dzbar_k ^ dz_j.  Both methods
    must agree within 5e-5 relative on smooth metrics; the analytic
    expansion is the default (cheaper and with less noise amplification).
    """
    fields = {
        "analytic_expansion": analytic_curvature_field,
        "nested_fd": nested_curvature_field,
    }
    if method not in fields:
        raise ValueError(f"unknown curvature method {method!r}")
    return fields[method](metric, as_point(z, metric.dim)[None], steps).at(0)


def compatibility_field(connection: ConnectionField, structure: np.ndarray | None = None) -> dict:
    """Residuals of the three structural identities of a metric connection
    at every point of a connection field, as (N,) arrays:

    metric    ||dh - h A - A* h|| over the coefficient basis,
    holo      ||A^(0,1)||,
    structure ||del A + A ^ A||: the (2,0) curvature block `structure`
              (d, d, N, n, n), such as `nested_curvature_field(...).form.c20`
              when d >= 2, or zero without it, as in one variable,
    scale     max(1, ||h||, ||dh||) for relative gates; the rest are absolute.
    """
    jet, a = connection.jet, connection.form
    h = jet.h
    metric_res = np.maximum(
        _norms(jet.dp - (h @ a.p + _adjoint(a.q) @ h)),
        _norms(jet.dq - (h @ a.q + _adjoint(a.p) @ h)),
    ).max(axis=0)
    count = len(jet.points)
    return {
        "metric": metric_res,
        "holo": _norms(a.q).max(axis=0),
        "structure": np.zeros(count) if structure is None else _max_norm(structure),
        "scale": np.maximum.reduce(
            [np.ones(count), _norms(h), _norms(jet.dp).max(axis=0), _norms(jet.dq).max(axis=0)]
        ),
    }


# ---------------------------------------------------------------------------
# Hilbert-Schmidt bundles
# ---------------------------------------------------------------------------


def hs_connection_check(
    h1: MetricField,
    h2: MetricField,
    z,
    steps: FdSteps = FdSteps(),
) -> float:
    """Residual of the operator-bundle connection identity.

    The space of n2 x n1 matrices S carries the metric
    S -> h2(z) S h1(z)^{-1} (trace pairing); its metric connection,
    computed directly as a superoperator on vectorized matrices, must
    equal S -> A2 S - S A1 built from the factor connections.  Row-major
    vectorization turns S -> h2 S h1^{-1} into kron(h2, (h1^{-1})^T).
    """
    z = as_point(z, h1.dim)
    if h1.dim != h2.dim:
        raise ValueError("factor metrics live on charts of different dimension")
    n1, n2 = h1.fiber_dim, h2.fiber_dim

    def super_metric(nodes):  # kron(h2, inv(h1)^T) at every node
        a, b = h2.batch(nodes), np.swapaxes(np.linalg.inv(h1.batch(nodes)), -1, -2)
        return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(nodes), n2 * n1, n2 * n1)

    big = MetricField(
        func=None,
        dim=h1.dim,
        fiber_dim=n1 * n2,
        domain=h1.domain if h1.domain is not None else h2.domain,
        name="hs metric",
        batch_func=super_metric,
    )
    a_super, a1, a2 = (chern_connection_field(m, z[None], steps).form.p[:, 0] for m in (big, h1, h2))
    return max(
        frob(a_super[j] - (np.kron(a2[j], np.eye(n1)) - np.kron(np.eye(n2), a1[j].T)))
        for j in range(h1.dim)
    )


# ---------------------------------------------------------------------------
# holomorphic subbundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubbundleField:
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
    (N, n, k) or at their stencil nodes (N, S, n, k), with a dependent column
    reported by its grid point and stencil node."""
    try:
        return mgs_orthonormalize(a, inner=inner)
    except StructuralError as exc:
        i, *node, column = exc.index
        where = pts[i] + offsets[node[0] if node else Stencil.CENTRE]
        raise StructuralError(
            f"column {column} of [frame | complement] at grid point {pts[i]}, stencil node "
            f"{where}, is linearly dependent (residual norm {exc.residual:.3e})"
        ) from exc


def subbundle_field(
    metric: MetricField,
    frame: Callable[[np.ndarray], np.ndarray],
    points,
    steps: FdSteps = FdSteps(),
    ambient: CurvatureField | None = None,
) -> SubbundleField:
    """Adapted-frame split of the metric connection along span(frame) at
    every point; `frame` maps an (M, d) stack of points to (M, n, k).

    The adapted frame orthonormalizes [frame | fixed complement columns]
    in the pointwise metric inner product by modified Gram-Schmidt with
    the triangular factor's diagonal kept real positive; fixing each
    point's complement columns (chosen there by largest projection
    residual) keeps the frame field smooth across its stencil.  Metric
    and frame are evaluated once on the first-derivative stencil nodes of
    all points, which also give the metric connection; the ambient
    analytic curvature field over the points is computed unless passed in
    as `ambient`.
    """
    pts = as_points(points, metric.dim).reshape(-1, metric.dim)
    n, d = metric.fiber_dim, metric.dim
    stencil = Stencil(d, first=steps.first_steps(), richardson=steps.richardson, centre=True)
    h, f = stencil.on_points(
        lambda nodes: (metric.batch(nodes), _frames(frame, nodes, n)), pts, metric.domain
    )
    h, f = (a.reshape((len(pts), -1) + a.shape[1:]) for a in (h, f))
    h0, k = h[:, Stencil.CENTRE], f.shape[-1]

    q1, _ = _node_frames(f[:, Stencil.CENTRE], h0, pts, stencil.offsets)
    eye = np.eye(n, dtype=complex)
    e, hc = eye[:, :, None], h0[:, None]  # e[i] is the column e_i
    resid = e - q1[:, None] @ (_adjoint(q1)[:, None] @ (hc @ e))
    scores = np.abs(_adjoint(resid) @ (hc @ resid))[..., 0, 0]
    complement = np.sort(np.argsort(scores, axis=-1, kind="stable")[:, ::-1][:, : n - k], axis=-1)
    fixed = np.swapaxes(eye[complement], -1, -2)[:, None]
    columns = np.concatenate([f, np.broadcast_to(fixed, f.shape[:2] + fixed.shape[2:])], axis=-1)
    u, r_full = _node_frames(columns, h, pts, stencil.offsets)
    u0 = u[:, Stencil.CENTRE]
    u0_inv = _adjoint(u0) @ h0  # h-unitarity makes this the inverse

    du_p, du_q = stencil.first_derivatives(np.moveaxis(u, 1, 0))
    a_p = np.linalg.solve(h0, stencil.first_derivatives(np.moveaxis(h, 1, 0))[0])
    beta = (u0_inv @ (a_p @ u0 + du_p))[..., k:, :k]
    antiholo = _norms((u0_inv @ du_q)[..., k:, :k]).max(axis=0, initial=0.0)

    if ambient is None:
        ambient = analytic_curvature_field(metric, pts, steps)
    tilde = u0_inv @ ambient.form.r11 @ u0
    block11, block22 = tilde[..., :k, :k], tilde[..., k:, k:]

    def induced(w):
        fw = _frames(frame, w, n)
        return _adjoint(fw) @ metric.batch(w) @ fw

    sub_metric = replace(
        metric,
        func=None,
        fiber_dim=k,
        name="induced subbundle metric",
        batch_func=induced,
    )
    sub = analytic_curvature_field(sub_metric, pts, steps).form.r11
    r = r_full[:, Stencil.CENTRE, :k, :k]
    theta_sub = r @ sub @ np.linalg.inv(r)
    expected = theta_sub - _adjoint(beta)[:, None] @ beta[None, :]
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
    z = as_point(z, metric.dim)

    def stacked(nodes):
        return np.stack([np.atleast_2d(np.asarray(frame(w), dtype=complex)) for w in nodes])

    return subbundle_field(metric, stacked, z[None], steps).at(0)


# ---------------------------------------------------------------------------
# dual bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCurvatureField:
    """Curvatures of a kernel metric and of its dual, pulled back to the
    original chart, with the residual of Theta_dual = -(h Theta h^-1)^T,
    over an array of points."""

    theta_r11: np.ndarray  # (d, d, N, n, n)
    theta_dual_r11: np.ndarray  # (d, d, N, n, n), pulled back
    residual: np.ndarray  # (N,)

    at = at_point


def dual_curvature_field(
    spec: KernelSpec,
    points,
    steps: FdSteps = FdSteps(),
    theta: CurvatureField | None = None,
) -> DualCurvatureField:
    """Check that the dual-bundle curvature is minus the transpose of the original.

    The dual kernel lives on the conjugated chart; the point matching z
    is conj(z).  Pulling its (1,1) coefficients back to the original
    coordinates swaps the form indices and flips the orientation sign,
    and leaves the operator values as they are.  The metric identifies
    the dual kernel's frame with h times the dual frame, in which the
    dual curvature is -Theta^T; so the pulled-back coefficients must equal
    -(h Theta h^-1)^T, h taken from the analytic field.  `theta`, the
    analytic curvature field of spec's metric over the same points and
    steps, is reused when given.
    """
    pts = as_points(points, spec.base_dim).reshape(-1, spec.base_dim)
    if theta is None:
        theta = analytic_curvature_field(metric_from_kernel(spec), pts, steps)
    raw = analytic_curvature_field(metric_from_kernel(dual_kernel(spec)), np.conj(pts), steps).form.r11
    pulled = -np.swapaxes(raw, 0, 1)
    expected = -np.swapaxes(theta.h @ theta.form.r11 @ np.linalg.inv(theta.h), -1, -2)
    return DualCurvatureField(
        theta_r11=theta.form.r11,
        theta_dual_r11=pulled,
        residual=_max_norm(pulled - expected),
    )


def dual_curvature_check(
    spec: KernelSpec,
    z,
    steps: FdSteps = FdSteps(),
) -> DualCurvatureField:
    """`dual_curvature_field` at one point z."""
    return dual_curvature_field(spec, as_point(z, spec.base_dim)[None], steps).at(0)
