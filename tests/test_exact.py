"""The finite-difference routes against an exact oracle: each family's
metric differentiated in sympy from its definition (tests/_exact.py), at a
fixed corpus of dyadic points, gated at the method-agreement tolerance.

The connection, the analytic and the nested curvature and the Griffiths
margins at bck's own sampled directions are compared, on rank-1 section
kernels (d = 1 with a non-identity Gram matrix, and d = 2), on
universal_grassmann(3, 1) and on a constant kernel."""

import numpy as np
import pytest

import _exact
from bck.chern import (
    FdSteps,
    analytic_curvature_field,
    chern_connection_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
)
from bck.kernels import ConstantKernel, GrassmannKernel, SectionKernel
from bck.polys import MatrixPolynomial
from bck.positivity import direction_samples, griffiths_verdict

TOL = 5e-5  # the method-agreement tolerance of the `curvature` task
RICH = FdSteps(richardson=True)
COUNT, SEED = 6, 3  # the Griffiths direction sample


def _relative(a, b):
    """Largest Frobenius distance of the fiber blocks, relative to max(1, size)."""
    scale = max(1.0, float(np.linalg.norm(b, axis=(-2, -1)).max()))
    return float(np.linalg.norm(a - b, axis=(-2, -1)).max()) / scale


def _sections(rows, dim):
    """A section matrix given as rows of {powers: coefficient} as bck's polynomial."""
    shape = (len(rows), len(rows[0]))
    terms = {}
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            for powers, c in entry.items():
                terms.setdefault((powers, (0,) * dim), np.zeros(shape, dtype=complex))[i, j] += c
    return MatrixPolynomial(dim, terms, shape=shape)


# dyadic points, so that the float a route sees is the rational the oracle takes
D1 = np.array([[0.25 + 0.125j], [-0.375 + 0.0625j], [0.3125 - 0.25j]])
D2 = np.array([[0.125 + 0.25j, -0.3125j], [0.25 - 0.125j, 0.1875 + 0.0625j], [-0.25, 0.375 + 0.125j]])
ROWS_D1 = [[{(0,): 1}, {(1,): 0.5 + 0.25j, (0,): 0.25}, {(2,): 0.375 - 0.5j}]]
GRAM_D1 = [[2, 0.5 + 0.25j, 0], [0.5 - 0.25j, 1, 0], [0, 0, 1.5]]
ROWS_D2 = [[{(0, 0): 1}, {(1, 0): 1, (0, 1): -0.5j}, {(1, 1): 0.75}, {(0, 2): 0.5 + 0.5j}]]
MATRIX = [[2, 0.5j], [-0.5j, 1]]

CASES = {
    "sections-d1-gram": (
        lambda: SectionKernel(_sections(ROWS_D1, 1), gram=np.array(GRAM_D1, dtype=complex)),
        lambda: _exact.sections(ROWS_D1, GRAM_D1), D1,
    ),
    "sections-d2": (
        lambda: SectionKernel(_sections(ROWS_D2, 2), base_dim=2), lambda: _exact.sections(ROWS_D2, dim=2), D2,
    ),
    "grassmann-3-1": (lambda: GrassmannKernel(3, 1), lambda: _exact.grassmann(3, 1), D2),
    "constant": (lambda: ConstantKernel(MATRIX), lambda: _exact.constant(MATRIX), D1),
}


@pytest.mark.parametrize("case", CASES)
def test_routes_match_the_exact_oracle(case):
    build, build_exact, points = CASES[case]
    spec, exact = build(), build_exact()
    values = [exact.at(p) for p in points]
    connection = np.stack([_exact.as_array(v["connection"]) for v in values], axis=1)  # (d, N, n, n)
    r11 = np.stack([_exact.as_array(v["r11"]) for v in values], axis=2)  # (d, d, N, n, n)
    dirs = direction_samples(spec.base_dim, COUNT, SEED)
    margins = np.stack([_exact.griffiths_margins(v, dirs) for v in values])

    metric = metric_from_kernel(spec)
    jet = metric_jet(metric, points, RICH)
    analytic = analytic_curvature_field(jet)
    assert _relative(chern_connection_field(jet).form.p, connection) <= TOL
    assert _relative(analytic.form.r11, r11) <= TOL
    assert _relative(nested_curvature_field(metric, points, RICH).form.r11, r11) <= TOL
    got = griffiths_verdict(metric, analytic, points, directions=COUNT, seed=SEED).margins
    assert np.abs(got - margins).max() / max(1.0, np.abs(margins).max()) <= TOL
