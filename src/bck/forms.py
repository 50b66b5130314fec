"""Vector- and operator-valued differential forms on complex coordinate charts.

Forms live at a point of an open set in C^d and take values in complex
matrices (or vectors).  They are stored by their coefficients on the
dz_j / dzbar_k basis:

* degree 1:  T(v) = sum_j P_j v_j + sum_k Q_k conj(v_k)
* degree 2:  split into a (2,0) block on dz_j ^ dz_k, a (1,1) block on
  dzbar_k ^ dz_j, and a (0,2) block on dzbar_j ^ dzbar_k.

The (1,1) block is stored in the dzbar ^ dz orientation, so the curvature
of the unit-disc weight (1 - |z|^2)^(-nu) comes out with the positive
coefficient nu / (1 - |z|^2)^2.

Derivatives are central finite differences on the 2d underlying real
coordinates (Wirtinger combinations), with optional Richardson
extrapolation for one extra order pair; `Stencil` holds the one table of
stencil nodes and weights, and `Stencil.on_points` takes every difference:
it evaluates a field once on the nodes of all points of an array, and
`Stencil.by_node` splits those rows by node.  A 0-form is a bare array.
The point axis of field results has one owner: `at_point` drops it,
`stack_points` restores it, `join_points` joins point chunks along it as
they arrive, and `pointwise` lifts point functions with it.  Field
results, and every other result class of bck, are `Record`s: one field
protocol that these functions read.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, StructuralError, require
from .linalg import max_frob

__all__ = [
    "Record",
    "replace",
    "Form1",
    "Form2",
    "form_norm",
    "split_linear",
    "split_bilinear",
    "BilinearSamples",
    "wedge",
    "exterior_derivative",
    "cauchy_riemann_residual",
    "delbar_norms",
    "as_point",
    "as_points",
    "as_sample",
    "at_point",
    "stack_points",
    "join_points",
    "pointwise",
    "Stencil",
    "inside_domain",
    "clear_of_boundary",
]


def as_point(z, dim: int | None = None) -> np.ndarray:
    """Coerce a chart point to a finite complex vector of shape (d,)."""
    p = np.atleast_1d(np.asarray(z, dtype=complex))
    if p.ndim != 1 or p.size < 1:
        raise ValueError("chart point must be a vector of complex coordinates")
    if dim is not None and p.size != dim:
        raise ValueError(f"chart point has {p.size} coordinates, expected {dim}")
    return as_points(p, p.size)


def as_points(z, dim: int) -> np.ndarray:
    """Coerce a stack of chart points to a finite complex array of shape (..., dim)."""
    p = np.asarray(z, dtype=complex)
    if p.ndim < 1 or p.shape[-1] != dim:
        raise ValueError(f"chart points must have {dim} coordinates along the last axis")
    if not np.isfinite(p).all():
        raise ValueError("chart point has non-finite coordinates")
    return p


def as_sample(points, dim: int | None = None) -> np.ndarray:
    """Coerce a non-empty sample of chart points to a finite complex (N, d)
    array, d being `dim` when given; one point, or a scalar, is a sample of one."""
    p = np.atleast_2d(np.asarray(points, dtype=complex))
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("a sample of chart points must be a non-empty (N, d) array")
    return as_points(p, p.shape[1] if dim is None else dim)


class Record:
    """The field protocol of bck's result classes.

    A subclass declares its fields once, as annotations in its body, in
    order; a field given a value there defaults to it.  Fields of a base
    record come first.  `class C(Record, frozen=True)` makes assignment to
    an instance raise AttributeError.  A record is built from its field
    values, positional or by keyword, after which `__post_init__`, if the
    class has one, runs.  It reads as `C(name=value, ...)`; two records
    are equal when they have one class and equal tuples of field values; a
    frozen record hashes that tuple, and any other is unhashable.
    `replace` builds a changed copy through the same constructor.
    `_fields` names the fields in order.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        if frozen:
            cls.__setattr__, cls.__delattr__ = _assign_frozen, _assign_frozen
            cls.__hash__ = Record._field_hash

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        missing = [name for name in cls._fields if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__} is missing fields: {', '.join(missing)}")
        self.__dict__.update({name: values.get(name, cls._defaults.get(name)) for name in cls._fields})
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    def _field_hash(self) -> int:
        return hash(_field_values(self))


def _field_values(record: Record) -> tuple:
    """The values of a record's fields in order: a form's coefficient arrays."""
    return tuple(getattr(record, name) for name in record._fields)


def _assign_frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def replace(record: Record, **changes) -> Record:
    """A copy of a record with some fields changed, built and checked by
    its constructor."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def _arrays(fn, value):
    """fn(array, its point axis) on every array of a field result (see
    `at_point`): records field by field, anything else kept as it is."""
    if isinstance(value, Record):
        return replace(value, **{name: _arrays(fn, getattr(value, name)) for name in value._fields})
    if not isinstance(value, np.ndarray):
        return value
    return fn(value, _point_axis(value))


def _point_axis(a: np.ndarray) -> int:
    """The point axis of a field array, as `at_point` describes it."""
    return 0 if a.ndim <= 2 else a.ndim - 3


def at_point(value, i: int | slice):
    """A field result at its point i: the same class with the point axis dropped (kept for a slice i).

    The point axis is the first axis of per-point scalars (N,), which
    become Python scalars, and of points (N, d); in every larger array it
    is third from the end, before the fiber matrix.  Records (fields,
    forms, metric jets) are taken field by field; anything else, such as a
    missing jet order, is kept as it is.
    """

    def take(a, axis):
        return a[i].item() if a.ndim == 1 and not isinstance(i, slice) else a[(slice(None),) * axis + (i,)]

    return _arrays(take, value)


def stack_points(values: list):
    """The inverse of `at_point`: `at_point(stack_points(values), i)` is
    `values[i]`.  Arrays and scalars are stacked along the point axis and
    records field by field; anything else is taken from the first."""
    first = values[0]
    if isinstance(first, Record):
        return replace(first, **{name: stack_points([getattr(v, name) for v in values]) for name in first._fields})
    if not isinstance(first, (np.ndarray, np.generic, int, float, complex)):
        return first
    return _arrays(lambda a, axis: np.moveaxis(a, 0, axis), np.stack(values))


def join_points(joined, value, rows: slice, count: int):
    """`value`, a field result over the points `rows` of `count`, copied into
    `joined`, the result over all of them (allocated when None, each array
    once over all `count` points), which is returned: arrays along the point
    axis of `at_point`, records field by field and tuples item by item;
    anything else is taken from the first.  A value that does not hold
    exactly the points `rows` raises ValueError."""
    if isinstance(value, Record):
        parts = join_points(None if joined is None else _field_values(joined), _field_values(value), rows, count)
        return replace(value, **dict(zip(value._fields, parts)))
    if isinstance(value, tuple):
        return tuple(join_points(j, v, rows, count) for j, v in zip(joined or (None,) * len(value), value))
    if not isinstance(value, np.ndarray):
        return value if joined is None else joined
    axis, size = _point_axis(value), len(range(count)[rows])
    if value.shape[axis] != size:
        raise ValueError(f"a chunk of {size} points holds {value.shape[axis]}")
    if joined is None:
        joined = np.empty(value.shape[:axis] + (count,) + value.shape[axis + 1 :], dtype=value.dtype)
    joined[(slice(None),) * axis + (rows,)] = value
    return joined


def pointwise(fn: Callable, shape: tuple | None = None, dtype=complex, what: str = "value") -> Callable:
    """`fn`, a function of one chart point (or of one point of each of
    several stacks), lifted to (..., d) stacks that broadcast, and called
    at every row in row-major order.  Without a `shape` its values are
    joined by `stack_points`; with one, each value is converted to `dtype`
    and must have that shape, or StructuralError names `what`, and the
    result is one (..., *shape) array."""

    def lifted(*stacks):
        rows = np.broadcast_arrays(*(np.asarray(s, dtype=complex) for s in stacks))
        lead, values = rows[0].shape[:-1], []
        for args in zip(*(r.reshape(-1, r.shape[-1]) for r in rows)):
            values.append(fn(*args) if shape is None else np.asarray(fn(*args), dtype=dtype))
            if shape is not None and values[-1].shape != shape:
                raise StructuralError(f"{what} has shape {values[-1].shape}, expected {shape}")
        if shape is None:
            return stack_points(values)
        return np.array(values, dtype=dtype).reshape(lead + shape)

    return lifted


# ---------------------------------------------------------------------------
# point forms
# ---------------------------------------------------------------------------


class _Linear(Record):
    """Sums, differences and scalar multiples of forms of one degree, taken
    coefficient array by coefficient array: complex arrays of one shape."""

    def __post_init__(self):
        coeffs = [np.asarray(c, dtype=complex) for c in _field_values(self)]
        if len({c.shape for c in coeffs}) > 1:
            raise ValueError(f"{type(self).__name__} coefficients must share a shape")
        self.__dict__.update(zip(self._fields, coeffs))

    def _combine(self, op, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*map(op, _field_values(self), _field_values(other)))

    def __add__(self, other):
        return self._combine(np.add, other)

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __mul__(self, scalar):
        return type(self)(*(c * scalar for c in _field_values(self)))

    __rmul__ = __mul__


class Form1(_Linear, frozen=True):
    """Degree-1 form value with coefficients p on dz_j and q on dzbar_k.

    Evaluation on a tangent vector v in C^d is
    sum_j p[j] v_j + sum_k q[k] conj(v_k), which is additive and
    real-homogeneous in v.
    """

    p: np.ndarray  # (d, ...) coefficients of dz_j
    q: np.ndarray  # (d, ...) coefficients of dzbar_k

    degree = 1

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def __call__(self, v) -> np.ndarray:
        """The value on a tangent vector (d,), or on each of a stack (..., d)."""
        v = as_points(v, self.dim)
        return _on_vectors(np.concatenate([v, v.conj()], axis=-1), np.concatenate([self.p, self.q]))


class Form2(_Linear, frozen=True):
    """Degree-2 form value split by type.

    c20[j, k] multiplies dz_j ^ dz_k and is antisymmetric in (j, k);
    r11[k, j] multiplies dzbar_k ^ dz_j; c02[j, k] multiplies
    dzbar_j ^ dzbar_k and is antisymmetric.  Evaluation is real-bilinear
    and skew; the (1,1) block is invariant under (v, w) -> (iv, iw).
    """

    c20: np.ndarray  # (d, d, ...)
    r11: np.ndarray  # (d, d, ...)
    c02: np.ndarray  # (d, d, ...)

    degree = 2

    @property
    def dim(self) -> int:
        return self.c20.shape[0]

    def __call__(self, v, w) -> np.ndarray:
        """sum_jk of c20[j, k] / 2 (v_j w_k - w_j v_k)
        + r11[j, k] (conj(v_j) w_k - conj(w_j) v_k)
        + c02[j, k] / 2 (conj(v_j) conj(w_k) - conj(w_j) conj(v_k)),
        one contraction of the three antisymmetrised outer products with
        the stacked blocks.  Swapping v and w negates the products exactly,
        so skewness holds exactly, not just to round-off.  v and w may be
        (..., d) stacks that broadcast against each other."""
        v, w = np.broadcast_arrays(as_points(v, self.dim), as_points(w, self.dim))
        vc, wc = v.conj(), w.conj()
        # (2, ..., 3, d): the factors of the three products of each pair
        first = np.moveaxis(np.array([[v, vc, vc], [w, wc, wc]]), 1, -2)
        second = np.moveaxis(np.array([[w, w, wc], [v, v, vc]]), 1, -2)
        products = first[..., :, None] * second[..., None, :]
        outer = (products[0] - products[1]) * np.array([0.5, 1.0, 0.5])[:, None, None]
        blocks = np.array([self.c20, self.r11, self.c02])
        return _on_vectors(outer.reshape(v.shape[:-1] + (-1,)), blocks.reshape((-1,) + blocks.shape[3:]))


def _on_vectors(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Each row of a (..., K) stack contracted with the (K, ...) coefficients,
    by one vector-matrix product per row, so that a stack reads bit for bit
    what a loop over its rows reads."""
    values = rows[..., None, :] @ coeffs.reshape(len(coeffs), -1)
    return values[..., 0, :].reshape(rows.shape[:-1] + coeffs.shape[1:])


def form_norm(form: Form1 | Form2) -> float:
    """Max Frobenius norm over the coefficient matrices of a form, NaN if
    one is NaN."""
    return float(np.max([max_frob(c, form.degree) for c in _field_values(form)]))


# ---------------------------------------------------------------------------
# type projectors
# ---------------------------------------------------------------------------


def split_linear(t: Callable[[np.ndarray], np.ndarray], dim: int) -> tuple[Form1, Form1]:
    """Split a real-linear map C^d -> values into C-linear and conjugate-linear parts.

    Uses the projectors T10(v) = (T(v) - i T(iv)) / 2 and
    T01(v) = (T(v) + i T(iv)) / 2, probed on the canonical basis
    directions e_j and i e_j.

    Returns
    -------
    (t10, t01)
        Two Form1 values with t01.p = 0 and t10.q = 0, satisfying
        t10(v) + t01(v) = t(v) for every v.
    """
    basis = np.eye(dim, dtype=complex)
    te = np.array([t(e) for e in basis], dtype=complex)
    tie = np.array([t(1j * e) for e in basis], dtype=complex)
    if not (np.isfinite(te).all() and np.isfinite(tie).all()):
        raise ValueError("map returned non-finite values on probe directions")
    p, q = 0.5 * (te - 1j * tie), 0.5 * (te + 1j * tie)
    zero = np.zeros_like(p)
    return Form1(p, zero), Form1(zero.copy(), q)


class BilinearSamples:
    """A real-bilinear map C^d x C^d -> matrices, held by its probe tensor.

    tensor[a, b] is the value on (basis_a, basis_b) where the 2d probes
    are e_0..e_{d-1}, i e_0..i e_{d-1}.  Real-bilinearity makes this a
    faithful representation.
    """

    def __init__(self, tensor: np.ndarray, dim: int):
        self.tensor = np.asarray(tensor, dtype=complex)
        self.dim = dim
        if self.tensor.shape[:2] != (2 * dim, 2 * dim):
            raise ValueError("sample tensor must be (2d, 2d, ...)")

    @classmethod
    def from_callable(cls, fn: Callable, dim: int) -> "BilinearSamples":
        """fn on every pair of probe directions."""
        basis = np.eye(dim, dtype=complex)
        probes = np.concatenate([basis, 1j * basis])
        return cls(np.array([[fn(v, w) for w in probes] for v in probes], dtype=complex), dim)

    @classmethod
    def of(cls, value, dim: int) -> "BilinearSamples":
        """`value` itself if it is a BilinearSamples, else its samples as a callable."""
        return value if isinstance(value, cls) else cls.from_callable(value, dim)

    def __call__(self, v, w) -> np.ndarray:
        v = as_point(v, self.dim)
        w = as_point(w, self.dim)
        rv = np.concatenate([v.real, v.imag])
        rw = np.concatenate([w.real, w.imag])
        return np.tensordot(rw, np.tensordot(rv, self.tensor, axes=(0, 0)), axes=(0, 0))

    def flip(self) -> "BilinearSamples":
        return BilinearSamples(np.swapaxes(self.tensor, 0, 1), self.dim)

    def _rotate(self, axis: int) -> "BilinearSamples":
        # i e_j is probe d + j and i (i e_j) = -e_j
        d, t = self.dim, np.moveaxis(self.tensor, axis, 0)
        return BilinearSamples(np.moveaxis(np.concatenate([t[d:], -t[:d]]), 0, axis), d)

    def rotate_first(self) -> "BilinearSamples":
        """(v, w) -> value at (i v, w)."""
        return self._rotate(0)

    def rotate_second(self) -> "BilinearSamples":
        """(v, w) -> value at (v, i w)."""
        return self._rotate(1)

    def rotate_both(self) -> "BilinearSamples":
        """(v, w) -> value at (i v, i w)."""
        return self.rotate_first().rotate_second()

    def norm(self) -> float:
        return max_frob(self.tensor, 2)

    def combine(self, other: "BilinearSamples", ca, cb) -> "BilinearSamples":
        return BilinearSamples(ca * self.tensor + cb * other.tensor, self.dim)

    def adjoint_values(self) -> "BilinearSamples":
        if self.tensor.ndim < 4:
            return BilinearSamples(np.conj(self.tensor), self.dim)
        return BilinearSamples(np.conj(np.swapaxes(self.tensor, -1, -2)), self.dim)


def split_bilinear(phi: Callable[[np.ndarray, np.ndarray], np.ndarray], dim: int) -> Form2:
    """Decompose a skew real-bilinear map into its (2,0), (1,1), (0,2) blocks.

    The mixed block is the +1 eigenspace of the rotation
    (Q phi)(v, w) = phi(iv, iw); the pure block (its -1 eigenspace) is
    further split by C-linearity in the first argument.

    Raises
    ------
    StructuralError
        If phi is not skew on the probe basis to 1e-12 relative (the
        measured asymmetry is included in the message).
    """
    samples = BilinearSamples.from_callable(phi, dim)
    scale = max(1.0, samples.norm())
    asym = samples.combine(samples.flip(), 1, 1).norm()
    require(asym <= 1e-12 * scale, f"bilinear map is not skew: measured asymmetry {asym:.3e}")

    t, rotated = samples.tensor, samples.rotate_both().tensor
    mixed, pure = 0.5 * (t + rotated), 0.5 * (t - rotated)
    r11 = 0.5 * (mixed[:dim, :dim] + 1j * mixed[dim:, :dim])
    # rotate the first argument only: phi_p(i e_k, e_j)
    c20 = 0.5 * (pure[:dim, :dim] - 1j * pure[dim:, :dim])
    c02 = 0.5 * (pure[:dim, :dim] + 1j * pure[dim:, :dim])
    c20 = 0.5 * (c20 - np.swapaxes(c20, 0, 1))
    c02 = 0.5 * (c02 - np.swapaxes(c02, 0, 1))
    return Form2(c20, r11, c02)


# ---------------------------------------------------------------------------
# wedge product
# ---------------------------------------------------------------------------


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Operator composition (matrix product); scalar values multiply pointwise."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim == 0 or y.ndim == 0:
        return x * y
    return x @ y


def _each(f: Callable, block, depth: int):
    """f applied to every coefficient of a (d,) * depth stack, restacked."""
    return np.stack([_each(f, x, depth - 1) for x in block]) if depth else f(block)


def wedge(a, b):
    """Exterior product of two point forms of total degree <= 2.

    Values of `a` and `b` are combined by operator composition (matrix
    product), with scalar values multiplied pointwise.  For 1-forms the
    normalization is (a ^ b)(v, w) = a(v) b(w) - a(w) b(v), and a degree-0
    factor, a bare array, acts pointwise on every coefficient.  For two
    1-forms each coefficient table is one broadcast product of the
    (d, 1, ...) and (1, d, ...) coefficient stacks.
    """
    da, db = (getattr(x, "degree", 0) for x in (a, b))
    if db == 0:
        return type(a)(*(_each(lambda m: _mul(m, b), c, da) for c in _field_values(a)))
    if da == 0:
        return type(b)(*(_each(lambda m: _mul(a, m), c, db) for c in _field_values(b)))
    if (da, db) != (1, 1):
        raise ValueError(f"unsupported degree combination ({da}, {db})")
    if a.dim != b.dim:
        raise ValueError("forms live on charts of different dimension")

    def table(x, y):  # [j, k] -> _mul(x[j], y[k]), one broadcast call
        return _mul(x[:, None], y[None])

    pp, qq = table(a.p, b.p), table(a.q, b.q)
    return Form2(
        pp - np.swapaxes(pp, 0, 1),
        table(a.q, b.p) - np.swapaxes(table(a.p, b.q), 0, 1),
        qq - np.swapaxes(qq, 0, 1),
    )


# ---------------------------------------------------------------------------
# finite differences on the underlying real coordinates
# ---------------------------------------------------------------------------


def _steps_array(step, dim: int) -> np.ndarray:
    s = np.broadcast_to(np.asarray(step, dtype=float), (dim,)).copy()
    if np.any(s <= 0):
        raise ValueError("finite-difference steps must be positive")
    return s


def inside_domain(domain, points: np.ndarray) -> np.ndarray:
    """Per row of an (N, d) array of points: inside `domain`, by one
    `contains_batch` call (a domain provides it, as every KernelSpec does)."""
    return np.array(domain.contains_batch(points), dtype=bool)


def clear_of_boundary(domain, points: np.ndarray, margin: float) -> np.ndarray:
    """Per row of an (N, d) array of points: inside `domain` and farther
    than `margin` from its boundary.

    Membership follows `inside_domain`; the boundary distance is taken
    only of points inside, by one `boundary_distance_batch` call.
    """
    ok = inside_domain(domain, points)
    ok[ok] = np.asarray(domain.boundary_distance_batch(points[ok]), dtype=float) > margin
    return ok


def _axis_offset(dim: int, axis: int, h, imag: bool) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[axis] = 1j * h if imag else h
    return e


def _extrapolate(estimates: list):
    """The step-h estimate, or with a step-h/2 one (4 D(h/2) - D(h)) / 3."""
    if len(estimates) == 1:
        return estimates[0]
    return (4.0 * estimates[1] - estimates[0]) / 3.0


class Stencil:
    """The central-difference stencils of the package: node offsets and weights.

    Offsets from the base point z are stored once each, in order of first
    use.  `first` registers, per axis j, the nodes z +- h e_j, z +- i h e_j
    of the first Wirtinger derivatives; `mixed` registers, per pair
    (k, j), the nodes of the second difference d^2 / dzbar_k dz_j (z and
    four axis nodes when k == j, sixteen diagonal nodes otherwise).  Each
    derivative is taken at the step h and, with `richardson`, also at h/2,
    the two combined as (4 D(h/2) - D(h)) / 3.  With `centre` the point z
    itself is node 0 (`CENTRE`).  Nodes are numbered in that order: the
    centre, then the first-derivative nodes, then the mixed ones not
    already listed, so `first_derivatives` reads only the first
    `first_nodes` of them.

    `first_derivatives`, `mixed_derivatives` and `exterior_derivative`
    combine field values taken at z + offsets[s], indexed by node first;
    any trailing shape is carried along, so a whole batch of points is
    differentiated at once when the point axis sits in the value shape, as
    `by_node` puts it.  `radius` is the distance from z that the domain
    must clear.
    """

    CENTRE = 0

    def __init__(
        self,
        dim: int,
        first,
        mixed=None,
        richardson: bool = False,
        centre: bool = False,
    ):
        self.dim = int(dim)
        self._index: dict[bytes, int] = {}
        self._offsets: list[np.ndarray] = []
        levels = (1.0, 0.5) if richardson else (1.0,)
        if centre:
            self._node(np.zeros(self.dim, dtype=complex))
        self._first = []
        steps = _steps_array(first, self.dim)
        self.radius = 2.0 * float(np.max(steps))
        for j in range(self.dim):
            rule = []
            for level in levels:
                h = steps[j] * level
                e = _axis_offset(self.dim, j, h, False)
                ie = 1j * e
                rule.append((h, [self._node(o) for o in (e, -e, ie, -ie)]))
            self._first.append(rule)
        self.first_nodes = len(self._offsets)
        self._mixed = {}
        if mixed is not None:
            steps = _steps_array(mixed, self.dim)
            for k, j in np.ndindex(self.dim, self.dim):
                self.radius = max(self.radius, 2.0 * float(max(steps[k], steps[j])))
                self._mixed[(k, j)] = [
                    self._mixed_rule(k, j, steps[k] * level, steps[j] * level)
                    for level in levels
                ]

    def _node(self, offset: np.ndarray) -> int:
        key = offset.tobytes()
        if key not in self._index:
            self._index[key] = len(self._offsets)
            self._offsets.append(offset)
        return self._index[key]

    def _mixed_rule(self, k, j, hk, hj):
        if k == j:
            ex = _axis_offset(self.dim, j, hj, False)
            ey = _axis_offset(self.dim, j, hj, True)
            zero = np.zeros(self.dim, dtype=complex)
            return hk, hj, [self._node(o) for o in (zero, ex, -ex, ey, -ey)]
        nodes = []
        for u_imag, v_imag in ((False, False), (True, False), (False, True), (True, True)):
            u = _axis_offset(self.dim, k, hk, u_imag)
            v = _axis_offset(self.dim, j, hj, v_imag)
            nodes += [self._node(o) for o in (u + v, u - v, -u + v, -u - v)]
        return hk, hj, nodes

    @property
    def offsets(self) -> np.ndarray:
        """Node offsets from the base point, shape (S, d)."""
        return np.array(self._offsets)

    def on_points(self, evaluate: Callable[[np.ndarray], object], points: np.ndarray, domain=None):
        """`evaluate` applied once to the (N S, d) array of all nodes of all points.

        Nodes are listed point by point in grid order.  With a `domain`,
        every point must lie inside it and farther than `radius` from its
        boundary (`clear_of_boundary`).  Failures are reported as a
        per-point loop would: if point i is the first to fail, the nodes of
        the points before it, and point i itself if it lies inside the
        domain, are evaluated first (raising any earlier failure), then a
        DomainError names point i.
        """
        nodes = points[:, None, :] + self.offsets
        clear = True if domain is None else clear_of_boundary(domain, points, self.radius)
        if not np.all(clear):
            i = int(np.argmin(clear))
            z = points[i]
            inside = bool(inside_domain(domain, z[None])[0])
            head = nodes[:i].reshape(-1, self.dim)
            if inside:
                head = np.concatenate([head, z[None]])
            if len(head):
                evaluate(head)
            if not inside:
                raise DomainError(f"point {z} is outside the chart domain")
            raise DomainError(
                f"finite-difference stencil of radius {self.radius:.3e} around {z} "
                "leaves the chart domain"
            )
        return evaluate(nodes.reshape(-1, self.dim))

    def by_node(self, values, count: int):
        """`on_points` values over `count` points, node axis first: the
        point axis (as `at_point` takes it) holds the nodes point by point,
        and entry s of the result holds node s of every point there."""

        def split(a, axis):
            rows = a.reshape(a.shape[:axis] + (count, len(self._offsets)) + a.shape[axis + 1 :])
            return np.moveaxis(rows, axis + 1, 0)

        return _arrays(split, values)

    def first_derivatives(self, values) -> tuple[np.ndarray, np.ndarray]:
        """(p, q) of shape (d, ...) with p[j] ~ df/dz_j and q[k] ~ df/dzbar_k."""
        ps, qs = [], []
        for rule in self._first:
            p_levels, q_levels = [], []
            for h, (px, mx, py, my) in rule:
                fx = (np.asarray(values[px]) - np.asarray(values[mx])) / (2.0 * h)
                fy = (np.asarray(values[py]) - np.asarray(values[my])) / (2.0 * h)
                p_levels.append(0.5 * (fx - 1j * fy))
                q_levels.append(0.5 * (fx + 1j * fy))
            ps.append(_extrapolate(p_levels))
            qs.append(_extrapolate(q_levels))
        return np.stack(ps), np.stack(qs)

    def mixed_derivatives(self, values) -> np.ndarray:
        """The (d, d, ...) table of d^2 f / dzbar_k dz_j at [k, j].  For
        k == j the cross terms cancel exactly and only the
        quarter-Laplacian on that axis survives."""

        def pair(k, j):
            estimates = []
            for hk, hj, nodes in self._mixed[(k, j)]:
                f = [np.asarray(values[s]) for s in nodes]
                if k == j:
                    dxx = (f[1] - 2.0 * f[0] + f[2]) / hj**2
                    dyy = (f[3] - 2.0 * f[0] + f[4]) / hj**2
                    estimates.append(0.25 * (dxx + dyy))
                else:
                    cross = [
                        (f[i] - f[i + 1] - f[i + 2] + f[i + 3]) / (4.0 * hk * hj)
                        for i in range(0, 16, 4)
                    ]
                    estimates.append(0.25 * (cross[0] + 1j * cross[1] - 1j * cross[2] + cross[3]))
            return _extrapolate(estimates)

        return np.stack([np.stack([pair(k, j) for j in range(self.dim)]) for k in range(self.dim)])

    def exterior_derivative(self, values):
        """d of a 0- or 1-form field from its values at the nodes, node
        axis first: an array is a 0-form, and a Form1 has (S, d, ...)
        coefficient arrays.  The coefficient fields are differentiated and
        reassembled into the degree p+1 coefficients.
        """
        if not isinstance(values, Form1):
            return Form1(*self.first_derivatives(values))
        # dp_p[m, j] ~ d P_j / dz_m ; dq_p[k, j] ~ d P_j / dzbar_k ; etc.
        dp_p, dq_p = self.first_derivatives(values.p)
        dp_q, dq_q = self.first_derivatives(values.q)
        return Form2(
            dp_p - np.swapaxes(dp_p, 0, 1),
            dq_p - np.swapaxes(dp_q, 0, 1),
            dq_q - np.swapaxes(dq_q, 0, 1),
        )


# ---------------------------------------------------------------------------
# exterior derivative and Dolbeault operators
# ---------------------------------------------------------------------------


def exterior_derivative(
    field: Callable[[np.ndarray], object],
    z,
    step,
    richardson: bool = False,
    domain=None,
):
    """Exterior derivative of a 0- or 1-form field at one point.

    The field maps chart points to Form1 values or bare arrays (0-forms)
    and is evaluated once per stencil node.
    """
    z = as_point(z)
    stencil = Stencil(z.size, first=step, richardson=richardson)
    values = stencil.on_points(pointwise(field), z[None], domain)
    # the nodes of the one point fill its point axis: move them first
    return stencil.exterior_derivative(_arrays(lambda a, axis: np.moveaxis(a, axis, 0), values))


def delbar_norms(
    evaluate: Callable[[np.ndarray], np.ndarray],
    points,
    step,
    richardson: bool = False,
    domain=None,
) -> np.ndarray:
    """|| delbar f || at each row of an (N, d) array of points: the largest
    norm over k of df/dzbar_k.

    `evaluate` maps the (N S, d) stack of all stencil nodes of all points
    to the values of f there, (N S,), (N S, m) or (N S, m, m); it is
    called once.
    """
    pts = as_sample(points)
    stencil = Stencil(pts.shape[1], first=step, richardson=richardson)
    values = np.asarray(stencil.on_points(evaluate, pts, domain))
    _, q = stencil.first_derivatives(stencil.by_node(values, len(pts)))
    return np.linalg.norm(q.reshape(q.shape[:2] + (-1,)), axis=-1).max(axis=0)


def cauchy_riemann_residual(
    f: Callable[[np.ndarray], np.ndarray],
    points,
    step,
    richardson: bool = False,
    domain=None,
) -> float:
    """Max over sample points of || delbar f ||.

    Vanishes (up to finite-difference noise) exactly when f is
    numerically holomorphic on the sample.  `points` is an (N, d) array;
    f maps one chart point to its value and is called once per stencil
    node (see `delbar_norms`).
    """
    pts = as_sample(points)
    # one flat row of values per node: the norm is over all entries
    evaluate = pointwise(lambda z: np.ravel(f(z)))
    return float(np.max(delbar_norms(evaluate, pts, step, richardson, domain)))
