"""Built-in invariant suite for the form calculus and the triple correspondence.

Runs a deterministic corpus of random polynomial fields through the
structural identities the calculus must satisfy: projector round trips,
wedge skewness, d d = 0 and its Dolbeault refinements on 0-form fields,
the graded product rule, and the Herm/Symm/Skew round trips.  Each entry
reports a residual against a published tolerance; the command-line
`selftest` task and the test suite both consume the same list.
"""

from __future__ import annotations

import numpy as np

from . import forms
from .forms import Form0, Form1, Stencil, form_norm, split_bilinear, split_linear
from .linalg import Sampler, frob, max_frob
from .polys import MatrixPolynomial
from .positivity import triple_join, triple_split

__all__ = ["run_selfcheck"]

_STEP1 = 1e-5
_STEP2 = 1e-4


def _entry(name, residual, tolerance):
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _random_linear_map(rng, dim, n):
    a = rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n))
    b = rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n))

    def t(v):
        v = np.asarray(v, dtype=complex)
        return (v @ a.reshape(dim, -1) + v.conj() @ b.reshape(dim, -1)).reshape(n, n)

    return t, a, b


def _random_probe(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _check_projectors(rng, results):
    dim, n = 2, 2
    worst_split = 0.0
    worst_idem = 0.0
    for _ in range(4):
        t, a, b = _random_linear_map(rng, dim, n)
        t10, t01 = split_linear(t, dim)
        for _ in range(4 * dim):
            v = _random_probe(rng, dim)
            worst_split = max(worst_split, frob(t10(v) + t01(v) - t(v)))
        again10, again01 = split_linear(lambda v: t10(v), dim)
        worst_idem = max(
            worst_idem,
            float(np.max(np.abs(again10.p - t10.p))),
            float(np.max(np.abs(again01.q))),
        )
    results.append(_entry("split_linear round trip", worst_split, 1e-12))
    results.append(_entry("split_linear idempotence", worst_idem, 1e-12))


def _check_bilinear_split(rng, results):
    dim, n = 2, 2
    worst = 0.0
    for _ in range(4):
        c20 = rng.standard_normal((dim, dim, n, n)) + 1j * rng.standard_normal((dim, dim, n, n))
        c20 = c20 - np.swapaxes(c20, 0, 1)
        r11 = rng.standard_normal((dim, dim, n, n)) + 1j * rng.standard_normal((dim, dim, n, n))
        c02 = rng.standard_normal((dim, dim, n, n)) + 1j * rng.standard_normal((dim, dim, n, n))
        c02 = c02 - np.swapaxes(c02, 0, 1)
        reference = forms.Form2(c20, r11, c02)
        recovered = split_bilinear(lambda v, w: reference(v, w), dim)
        for _ in range(8):
            v, w = _random_probe(rng, dim), _random_probe(rng, dim)
            worst = max(worst, frob(recovered(v, w) - reference(v, w)))
    results.append(_entry("split_bilinear reassembly", worst, 1e-12))


def _check_wedge_skewness(rng, results):
    dim, n = 2, 2
    worst = 0.0
    for _ in range(4):
        alpha = Form1(
            rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n)),
            rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n)),
        )
        beta = Form1(
            rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n)),
            rng.standard_normal((dim, n, n)) + 1j * rng.standard_normal((dim, n, n)),
        )
        product = forms.wedge(alpha, beta)
        for _ in range(6):
            v, w = _random_probe(rng, dim), _random_probe(rng, dim)
            worst = max(worst, frob(product(v, w) + product(w, v)))
    results.append(_entry("wedge skewness", worst, 1e-12))


def _one_forms_at(form: Form1, nodes=slice(None)) -> list:
    """The 1-form at each node of a field evaluated on a node stack (node
    axis after the form index), for the given nodes."""
    p, q = (np.moveaxis(c[:, nodes], 1, 0) for c in (form.p, form.q))
    return [Form1(*pq) for pq in zip(p, q)]


def _check_d_squared(rng, results):
    dim, n = 2, 2
    inner = Stencil(dim, first=_STEP1, richardson=True)
    outer = Stencil(dim, first=_STEP2)
    worst_dd = 0.0
    worst_delbar = 0.0
    worst_del = 0.0
    for _ in range(3):
        poly = MatrixPolynomial.random(rng, dim, (n, n), degree=3)
        z0 = 0.3 * _random_probe(rng, dim)
        # df at every outer node, from one evaluation on the outer x inner nodes
        values = inner.on_points(poly, z0 + outer.offsets).reshape((len(outer.offsets), -1, n, n))
        df = Form1(*inner.first_derivatives(np.moveaxis(values, 1, 0)))
        dd = outer.exterior_derivative(_one_forms_at(df))
        worst_dd = max(worst_dd, form_norm(dd))
        # Dolbeault refinements: the (0,2) block of d(delbar f) and the
        # (2,0) block of d(del f) are delbar^2 f and del^2 f.
        zero = np.zeros_like(df.p)
        ddbar = outer.exterior_derivative(_one_forms_at(Form1(zero, df.q)))
        ddel = outer.exterior_derivative(_one_forms_at(Form1(df.p, zero)))
        worst_delbar = max(worst_delbar, max_frob(ddbar.c02, 2))
        worst_del = max(worst_del, max_frob(ddel.c20, 2))
    results.append(_entry("d squared vanishes", worst_dd, 1e-5))
    results.append(_entry("delbar squared vanishes", worst_delbar, 1e-5))
    results.append(_entry("del squared vanishes", worst_del, 1e-5))


def _check_leibniz(rng, results):
    dim, n = 2, 2
    fine = Stencil(dim, first=_STEP1, richardson=True, centre=True)
    coarse = Stencil(dim, first=_STEP2)
    at_fine, at_coarse = slice(0, len(fine.offsets)), slice(len(fine.offsets), None)
    worst = 0.0
    for _ in range(3):
        f = MatrixPolynomial.random(rng, dim, (n, n), degree=2)
        g = MatrixPolynomial.random(rng, dim, (n, n), degree=2)
        one_form = _poly_one_form(rng, dim, n, degree=2)
        z0 = 0.3 * _random_probe(rng, dim)
        # every field once, on z0 (the fine stencil's centre) and the nodes
        nodes = z0 + np.concatenate([fine.offsets, coarse.offsets])
        fv, gv, beta = f(nodes), g(nodes), one_form(nodes)
        f0, g0 = Form0(fv[Stencil.CENTRE]), Form0(gv[Stencil.CENTRE])
        beta0 = Form1(beta.p[:, Stencil.CENTRE], beta.q[:, Stencil.CENTRE])
        beta_coarse = Form1(beta.p[:, at_coarse], beta.q[:, at_coarse])

        # degree (0,0)
        lhs = fine.exterior_derivative(fv[at_fine] @ gv[at_fine])
        df = fine.exterior_derivative(fv[at_fine])
        dg = fine.exterior_derivative(gv[at_fine])
        rhs = forms.wedge(df, g0) + forms.wedge(f0, dg)
        worst = max(worst, form_norm(lhs - rhs))

        # degree (0,1)
        product01 = forms.wedge(Form0(fv[at_coarse]), beta_coarse)
        lhs01 = coarse.exterior_derivative(_one_forms_at(product01))
        dbeta = fine.exterior_derivative(_one_forms_at(beta, at_fine))
        rhs01 = forms.wedge(df, beta0) + forms.wedge(f0, dbeta)
        worst = max(worst, form_norm(lhs01 - rhs01))

        # degree (1,0) picks up the sign of the graded product rule
        product10 = forms.wedge(beta_coarse, Form0(gv[at_coarse]))
        lhs10 = coarse.exterior_derivative(_one_forms_at(product10))
        rhs10 = forms.wedge(dbeta, g0) - forms.wedge(beta0, dg)
        worst = max(worst, form_norm(lhs10 - rhs10))
    results.append(_entry("graded product rule", worst, 1e-5))


def _poly_one_form(rng, dim, n, degree):
    """A random polynomial 1-form field; on an (S, d) node stack its
    coefficients are (d, S, n, n)."""
    ps = [MatrixPolynomial.random(rng, dim, (n, n), degree=degree) for _ in range(dim)]
    qs = [MatrixPolynomial.random(rng, dim, (n, n), degree=degree) for _ in range(dim)]

    def field(w):
        return Form1(np.stack([p(w) for p in ps]), np.stack([q(w) for q in qs]))

    return field


def _check_triple(rng, results):
    dim, n = 2, 2
    worst_split_join = 0.0
    worst_join_split = 0.0
    for _ in range(6):
        c = rng.standard_normal((dim, dim, n, n)) + 1j * rng.standard_normal((dim, dim, n, n))
        for j in range(dim):  # Hermitian sesquilinear symmetry of the coefficients
            c[j, j] = 0.5 * (c[j, j] + c[j, j].conj().T)
            for k in range(j + 1, dim):
                c[k, j] = c[j, k].conj().T

        def herm(v, w):
            return np.einsum("jkab,j,k->ab", c, v, np.conj(w))

        triple = triple_split(herm, dim)
        rebuilt = triple_join(triple.skew, dim)
        worst_split_join = max(
            worst_split_join,
            rebuilt.herm.combine(triple.herm, 1.0, -1.0).norm(),
            rebuilt.skew.combine(triple.skew, 1.0, -1.0).norm(),
        )
        again = triple_split(rebuilt.herm, dim)
        worst_join_split = max(
            worst_join_split, again.skew.combine(triple.skew, 1.0, -1.0).norm()
        )
    results.append(_entry("triple join after split", worst_split_join, 1e-12))
    results.append(_entry("triple split after join", worst_join_split, 1e-12))


def run_selfcheck(seed: int = 0) -> list[dict]:
    """Run the invariant corpus; returns one pass/fail entry per check."""
    rng = Sampler(seed)
    results: list[dict] = []
    _check_projectors(rng, results)
    _check_bilinear_split(rng, results)
    _check_wedge_skewness(rng, results)
    _check_d_squared(rng, results)
    _check_leibniz(rng, results)
    _check_triple(rng, results)
    return results
