"""Built-in invariant suite for the form calculus and the triple correspondence.

Runs a deterministic corpus of random polynomial fields through the
structural identities the calculus must satisfy: projector round trips,
the wedge's normalization, d d = 0 and its Dolbeault refinements on
0-form fields, the graded product rule, and the Herm/Symm/Skew round
trips.  Each entry reports the largest residual over its items, by
numpy's NaN-propagating `max`, against a published tolerance; the
command-line `selftest` task and the test suite both consume the same
list.
"""

from __future__ import annotations

import numpy as np

from . import forms
from .forms import Form1, Stencil, at_point, form_norm, split_bilinear, split_linear
from .linalg import Sampler, complex_normal, frob, max_frob
from .polys import MatrixPolynomial
from .positivity import triple_join, triple_split

__all__ = ["run_selfcheck"]

_STEP1 = 1e-5
_STEP2 = 1e-4


def _entry(name, residuals, tolerance):
    """A check's entry: the largest of its residuals, one per item, by
    numpy's `max`, which carries a NaN residual into a failed entry."""
    residual = float(np.max(residuals))
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _pairs(rng, dim, count):
    """`count` tangent vector pairs (v, w), drawn v then w."""
    return [(complex_normal(rng, dim), complex_normal(rng, dim)) for _ in range(count)]


def _check_projectors(rng):
    dim, n = 2, 2
    split, idem = [], []
    for _ in range(4):
        a, b = complex_normal(rng, (dim, n, n)), complex_normal(rng, (dim, n, n))

        def t(v):  # a random real-linear map
            return (v @ a.reshape(dim, -1) + v.conj() @ b.reshape(dim, -1)).reshape(n, n)

        t10, t01 = split_linear(t, dim)
        vs = [complex_normal(rng, dim) for _ in range(4 * dim)]
        split += [frob(t10(v) + t01(v) - t(v)) for v in vs]
        again10, again01 = split_linear(lambda v: t10(v), dim)
        idem += [np.max(np.abs(again10.p - t10.p)), np.max(np.abs(again01.q))]
    return [_entry("split_linear round trip", split, 1e-12), _entry("split_linear idempotence", idem, 1e-12)]


def _check_bilinear_split(rng):
    dim, n = 2, 2
    residuals = []
    for _ in range(4):
        c20, r11, c02 = (complex_normal(rng, (dim, dim, n, n)) for _ in range(3))
        reference = forms.Form2(c20 - np.swapaxes(c20, 0, 1), r11, c02 - np.swapaxes(c02, 0, 1))
        recovered = split_bilinear(lambda v, w: reference(v, w), dim)
        residuals += [frob(recovered(v, w) - reference(v, w)) for v, w in _pairs(rng, dim, 8)]
    return [_entry("split_bilinear reassembly", residuals, 1e-12)]


def _check_wedge_normalization(rng):
    # (alpha ^ beta)(v, w) = alpha(v) beta(w) - alpha(w) beta(v), the
    # normalization `wedge` states
    dim, n = 2, 2
    residuals = []
    for _ in range(4):
        alpha = Form1(complex_normal(rng, (dim, n, n)), complex_normal(rng, (dim, n, n)))
        beta = Form1(complex_normal(rng, (dim, n, n)), complex_normal(rng, (dim, n, n)))
        product = forms.wedge(alpha, beta)
        residuals += [
            frob(product(v, w) - (alpha(v) @ beta(w) - alpha(w) @ beta(v))) for v, w in _pairs(rng, dim, 6)
        ]
    return [_entry("wedge normalization", residuals, 1e-12)]


def _d(stencil: Stencil, form: Form1) -> forms.Form2:
    """d of a 1-form field given at the nodes of one point, the nodes on
    the point axis (`at_point(form, s)` is the form at node s)."""
    return at_point(stencil.exterior_derivative(stencil.by_node(form, 1)), 0)


def _check_d_squared(rng):
    dim, n = 2, 2
    inner = Stencil(dim, first=_STEP1, richardson=True)
    outer = Stencil(dim, first=_STEP2)
    residuals = []  # per field: d d, delbar delbar and del del
    for _ in range(3):
        poly = MatrixPolynomial.random(rng, dim, (n, n), degree=3)
        z0 = 0.3 * complex_normal(rng, dim)
        # df at every outer node, from one evaluation on the outer x inner nodes
        values = inner.on_points(poly, z0 + outer.offsets)
        df = Form1(*inner.first_derivatives(inner.by_node(values, len(outer.offsets))))
        dd = _d(outer, df)
        # Dolbeault refinements: the (0,2) block of d(delbar f) and the
        # (2,0) block of d(del f) are delbar^2 f and del^2 f.
        zero = np.zeros_like(df.p)
        ddbar = _d(outer, Form1(zero, df.q))
        ddel = _d(outer, Form1(df.p, zero))
        residuals.append((form_norm(dd), max_frob(ddbar.c02, 2), max_frob(ddel.c20, 2)))
    names = ("d squared vanishes", "delbar squared vanishes", "del squared vanishes")
    return [_entry(name, column, 1e-5) for name, column in zip(names, zip(*residuals))]


def _check_leibniz(rng):
    dim, n = 2, 2
    fine = Stencil(dim, first=_STEP1, richardson=True, centre=True)
    coarse = Stencil(dim, first=_STEP2)
    at_fine, at_coarse = slice(0, len(fine.offsets)), slice(len(fine.offsets), None)
    residuals = []
    for _ in range(3):
        f = MatrixPolynomial.random(rng, dim, (n, n), degree=2)
        g = MatrixPolynomial.random(rng, dim, (n, n), degree=2)
        one_form = _poly_one_form(rng, dim, n, degree=2)
        z0 = 0.3 * complex_normal(rng, dim)
        # every field once, on z0 (the fine stencil's centre) and the nodes
        nodes = z0 + np.concatenate([fine.offsets, coarse.offsets])
        fv, gv, beta = f(nodes), g(nodes), one_form(nodes)
        f0, g0, beta0 = fv[Stencil.CENTRE], gv[Stencil.CENTRE], at_point(beta, Stencil.CENTRE)
        beta_fine, beta_coarse = (Form1(beta.p[:, at], beta.q[:, at]) for at in (at_fine, at_coarse))

        # degree (0,0)
        lhs = fine.exterior_derivative(fv[at_fine] @ gv[at_fine])
        df = fine.exterior_derivative(fv[at_fine])
        dg = fine.exterior_derivative(gv[at_fine])
        rhs = forms.wedge(df, g0) + forms.wedge(f0, dg)

        # degree (0,1)
        lhs01 = _d(coarse, forms.wedge(fv[at_coarse], beta_coarse))
        dbeta = _d(fine, beta_fine)
        rhs01 = forms.wedge(df, beta0) + forms.wedge(f0, dbeta)

        # degree (1,0) picks up the sign of the graded product rule
        lhs10 = _d(coarse, forms.wedge(beta_coarse, gv[at_coarse]))
        rhs10 = forms.wedge(dbeta, g0) - forms.wedge(beta0, dg)
        residuals += [form_norm(lhs - rhs), form_norm(lhs01 - rhs01), form_norm(lhs10 - rhs10)]
    return [_entry("graded product rule", residuals, 1e-5)]


def _poly_one_form(rng, dim, n, degree):
    """A random polynomial 1-form field; on an (S, d) node stack its
    coefficients are (d, S, n, n)."""
    ps = [MatrixPolynomial.random(rng, dim, (n, n), degree=degree) for _ in range(dim)]
    qs = [MatrixPolynomial.random(rng, dim, (n, n), degree=degree) for _ in range(dim)]

    def field(w):
        return Form1(np.stack([p(w) for p in ps]), np.stack([q(w) for q in qs]))

    return field


def _check_triple(rng):
    dim, n = 2, 2
    split_join, join_split = [], []
    for _ in range(6):
        c = complex_normal(rng, (dim, dim, n, n))
        for j in range(dim):  # Hermitian sesquilinear symmetry of the coefficients
            c[j, j] = 0.5 * (c[j, j] + c[j, j].conj().T)
            for k in range(j + 1, dim):
                c[k, j] = c[j, k].conj().T

        def herm(v, w):
            return np.einsum("jkab,j,k->ab", c, v, np.conj(w))

        triple = triple_split(herm, dim)
        rebuilt = triple_join(triple.skew, dim)
        split_join += [
            rebuilt.herm.combine(triple.herm, 1.0, -1.0).norm(),
            rebuilt.skew.combine(triple.skew, 1.0, -1.0).norm(),
        ]
        again = triple_split(rebuilt.herm, dim)
        join_split.append(again.skew.combine(triple.skew, 1.0, -1.0).norm())
    return [_entry("triple join after split", split_join, 1e-12), _entry("triple split after join", join_split, 1e-12)]


def run_selfcheck(seed: int = 0) -> list[dict]:
    """Run the invariant corpus; returns one pass/fail entry per check."""
    rng = Sampler(seed)
    checks = (_check_projectors, _check_bilinear_split, _check_wedge_normalization, _check_d_squared,
              _check_leibniz, _check_triple)
    return [entry for check in checks for entry in check(rng)]
