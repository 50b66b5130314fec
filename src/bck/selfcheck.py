"""Built-in invariant suite for the form calculus and the triple correspondence.

Runs a deterministic corpus of random polynomial fields through the
structural identities the calculus must satisfy: projector round trips,
the wedge's normalization, d d = 0 and its Dolbeault refinements on
0-form fields, the graded product rule, and the Herm/Symm/Skew round
trips.  Each check draws its items as one stack, held in the value axes
of one map, form or polynomial field (the fields of `d squared vanishes`
stay one polynomial per item, evaluated side by side), so that each
identity is one library call for all items.  Residuals are Frobenius
norms of one matrix, so of one item, each; an entry reports the largest,
by numpy's NaN-propagating `max`, against a published tolerance.  The
command-line `selftest` task and the test suite both consume the same
list.
"""

from __future__ import annotations

import numpy as np

from . import forms
from .forms import Form1, Record, Stencil, _field_values, at_point, split_bilinear, split_linear
from .linalg import Sampler, adjoint, complex_normal, norms
from .polys import MatrixPolynomial
from .positivity import triple_join, triple_split

__all__ = ["run_selfcheck"]

_STEP1 = 1e-5
_STEP2 = 1e-4


def _entry(name, residuals, tolerance):
    """A check's entry: the largest of its residuals, arrays of norms taken
    item by item, by numpy's `max`, which carries a NaN residual into a
    failed entry."""
    residual = float(np.max([np.max(r) for r in residuals]))
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _norms(value):
    """The Frobenius norm of each matrix of a stack (..., n, n), of a form
    each of its coefficient matrices: norms of one item each, never one
    norm over the stack."""
    if isinstance(value, Record):
        value = np.array(_field_values(value))
    return norms(value)


def _own(values):
    """Each vector's value on its own item: of the values (k, items,
    items, ...) that a (k, items, d) vector stack takes on a map with the
    items in its value axes, the (k, items, ...) diagonal."""
    return np.einsum("kii...->ki...", values)


def _check_projectors(rng):
    dim, n, items = 2, 2, 4
    t = Form1(*complex_normal(rng, (2, dim, items, n, n)))  # a random real-linear map per item
    t10, t01 = split_linear(t, dim)
    vs = complex_normal(rng, (4 * dim, items, dim))
    split = _norms(_own(t10(vs) + t01(vs) - t(vs)))
    again10, again01 = split_linear(t10, dim)
    idem = [np.abs(again10.p - t10.p), np.abs(again01.q)]
    return [_entry("split_linear round trip", [split], 1e-12), _entry("split_linear idempotence", idem, 1e-12)]


def _check_bilinear_split(rng):
    dim, n, items = 2, 2, 4
    c20, r11, c02 = (complex_normal(rng, (dim, dim, items, n, n)) for _ in range(3))
    reference = forms.Form2(c20 - np.swapaxes(c20, 0, 1), r11, c02 - np.swapaxes(c02, 0, 1))
    recovered = split_bilinear(reference, dim)
    v, w = complex_normal(rng, (2, 8, items, dim))
    return [_entry("split_bilinear reassembly", [_norms(_own(recovered(v, w) - reference(v, w)))], 1e-12)]


def _check_wedge_normalization(rng):
    # (alpha ^ beta)(v, w) = alpha(v) beta(w) - alpha(w) beta(v), the
    # normalization `wedge` states
    dim, n, items = 2, 2, 4
    alpha, beta = (Form1(*complex_normal(rng, (2, dim, items, n, n))) for _ in range(2))
    product = forms.wedge(alpha, beta)
    v, w = complex_normal(rng, (2, 6, items, dim))
    residual = product(v, w) - (alpha(v) @ beta(w) - alpha(w) @ beta(v))
    return [_entry("wedge normalization", [_norms(_own(residual))], 1e-12)]


def _d(stencil: Stencil, values):
    """d of a 0- or 1-form field given at the nodes of one point per item,
    the nodes on the point axis (`at_point(values, s)` is the field at
    node s) and the items before it."""
    return at_point(stencil.exterior_derivative(stencil.by_node(values, 1)), 0)


def _check_d_squared(rng):
    dim, n, items = 2, 2, 3
    inner = Stencil(dim, first=_STEP1, richardson=True)
    outer = Stencil(dim, first=_STEP2)
    polys = [MatrixPolynomial.random(rng, dim, (n, n), degree=3) for _ in range(items)]
    z0 = 0.3 * complex_normal(rng, (items, 1, dim))
    # df at every outer node of every item, from one evaluation of each
    # field on its own outer x inner nodes, the items first
    nodes = (z0 + outer.offsets).reshape(-1, dim)
    values = inner.on_points(lambda z: np.stack([f(x) for f, x in zip(polys, np.split(z, items))]), nodes)
    df = Form1(*inner.first_derivatives(inner.by_node(values, len(outer.offsets))))
    dd = _d(outer, df)
    # Dolbeault refinements: the (0,2) block of d(df) is d of its (0,1)
    # part alone, delbar^2 f, and the (2,0) block is del^2 f
    return [
        _entry("d squared vanishes", [_norms(dd)], 1e-5),
        _entry("delbar squared vanishes", [_norms(dd.c02)], 1e-5),
        _entry("del squared vanishes", [_norms(dd.c20)], 1e-5),
    ]


def _check_leibniz(rng):
    dim, n, items = 2, 2, 3
    fine = Stencil(dim, first=_STEP1, richardson=True, centre=True)
    coarse = Stencil(dim, first=_STEP2)
    at_fine, at_coarse = slice(0, len(fine.offsets)), slice(len(fine.offsets), None)
    # f, g and the coefficients of a 1-form beta, the items in their value axes
    f, g = (MatrixPolynomial.random(rng, dim, (items, n, n), degree=2) for _ in range(2))
    p, q = (MatrixPolynomial.random(rng, dim, (dim, items, n, n), degree=2) for _ in range(2))
    z0 = 0.3 * complex_normal(rng, dim)
    # every field once, on z0 (the fine stencil's centre) and the nodes;
    # the nodes go on the point axis, after the items
    nodes = z0 + np.concatenate([fine.offsets, coarse.offsets])
    fv, gv = (np.moveaxis(x(nodes), 0, -3) for x in (f, g))
    beta = Form1(*(np.moveaxis(x(nodes), 0, -3) for x in (p, q)))
    f0, g0, beta0 = (at_point(x, Stencil.CENTRE) for x in (fv, gv, beta))
    f_fine, g_fine, beta_fine = (at_point(x, at_fine) for x in (fv, gv, beta))
    f_coarse, g_coarse, beta_coarse = (at_point(x, at_coarse) for x in (fv, gv, beta))

    # degree (0,0)
    lhs = _d(fine, f_fine @ g_fine)
    df, dg = _d(fine, f_fine), _d(fine, g_fine)
    rhs = forms.wedge(df, g0) + forms.wedge(f0, dg)

    # degree (0,1)
    lhs01 = _d(coarse, forms.wedge(f_coarse, beta_coarse))
    dbeta = _d(fine, beta_fine)
    rhs01 = forms.wedge(df, beta0) + forms.wedge(f0, dbeta)

    # degree (1,0) picks up the sign of the graded product rule
    lhs10 = _d(coarse, forms.wedge(beta_coarse, g_coarse))
    rhs10 = forms.wedge(dbeta, g0) - forms.wedge(beta0, dg)
    residuals = [_norms(lhs - rhs), _norms(lhs01 - rhs01), _norms(lhs10 - rhs10)]
    return [_entry("graded product rule", residuals, 1e-5)]


def _check_triple(rng):
    dim, n, items = 2, 2, 6
    c = complex_normal(rng, (dim, dim, items, n, n))
    c = 0.5 * (c + adjoint(np.swapaxes(c, 0, 1)))  # Hermitian sesquilinear symmetry

    def herm(v, w):
        return np.einsum("jkiab,j,k->iab", c, v, np.conj(w))

    triple = triple_split(herm, dim)
    rebuilt = triple_join(triple.skew, dim)
    again = triple_split(rebuilt.herm, dim)
    split_join = [_norms(rebuilt.herm.tensor - triple.herm.tensor), _norms(rebuilt.skew.tensor - triple.skew.tensor)]
    join_split = [_norms(again.skew.tensor - triple.skew.tensor)]
    return [_entry("triple join after split", split_join, 1e-12), _entry("triple split after join", join_split, 1e-12)]


def run_selfcheck(seed: int = 0) -> list[dict]:
    """Run the invariant corpus; returns one pass/fail entry per check."""
    rng = Sampler(seed)
    checks = (_check_projectors, _check_bilinear_split, _check_wedge_normalization, _check_d_squared,
              _check_leibniz, _check_triple)
    return [entry for check in checks for entry in check(rng)]
