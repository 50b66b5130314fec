"""Exact curvature oracle: a family's metric built in sympy from the family's
definition, differentiated symbolically and evaluated at rational points.

Each metric is a polynomial in z = (z_1..z_d) and in separate symbols
wb = (wb_1..wb_d) that stand for conj(z): H(z, wb) with h(z) = H(z, conj z).
The Wirtinger derivatives of h are then partial derivatives of H,
d_j h = dH/dz_j, dbar_k h = dH/dwb_k and dbar_k d_j h = d^2 H/dwb_k dz_j,
taken at wb = conj z.  A point is a float vector, read as the Gaussian
rational it is exactly, so h, its derivatives, the connection
A_j = h^-1 d_j h and the curvature r11[k, j] = dbar_k (h^-1 d_j h) are exact
rationals, written out to `DIGITS` digits.  Nothing here calls bck.
"""

import mpmath
import numpy as np
import sympy

DIGITS = 30


def _rational(x):
    """A float, or a complex of floats, as the Gaussian rational it equals."""
    x = complex(x)
    return sympy.Rational(x.real) + sympy.I * sympy.Rational(x.imag)


def _symbols(dim: int):
    return sympy.symbols(f"z1:{dim + 1}"), sympy.symbols(f"wb1:{dim + 1}")


def _poly(terms: dict, variables, conjugate: bool = False):
    """sum of c * prod_a v_a**p_a over the entries {powers p: coefficient c};
    with `conjugate`, of conj(c) * prod_a v_a**p_a."""
    total = sympy.Integer(0)
    for powers, c in terms.items():
        c = _rational(c)
        total += (sympy.conjugate(c) if conjugate else c) * sympy.Mul(*(v**p for v, p in zip(variables, powers)))
    return total


class ExactMetric:
    """A metric h(z) = H(z, conj z) on C^d, H an n x n sympy matrix."""

    def __init__(self, H: sympy.Matrix, z, wb):
        self.H, self.z, self.wb = H, z, wb
        self.dim = len(z)
        self.dp = [H.diff(zj) for zj in z]
        self.dq = [H.diff(wk) for wk in wb]
        self.mixed = [[H.diff(wk, zj) for zj in z] for wk in wb]

    def at(self, point) -> dict:
        """The exact connection (d, n, n) and curvature (d, d, n, n) at a point,
        with h (n, n) as a sympy matrix for the Griffiths form."""
        values = [_rational(p) for p in point]
        at = {**dict(zip(self.z, values)), **dict(zip(self.wb, map(sympy.conjugate, values)))}

        def value(m):
            return m.xreplace(at).applyfunc(sympy.expand)

        h = value(self.H)
        inv = h.inv()
        conn = [inv * value(dp) for dp in self.dp]
        r11 = [[(inv * value(self.mixed[k][j]) - inv * value(self.dq[k]) * conn[j]).applyfunc(sympy.expand)
                for j in range(self.dim)] for k in range(self.dim)]
        return {"h": h, "connection": conn, "r11": r11}


def griffiths_margins(values: dict, directions) -> np.ndarray:
    """lambda_min of G(x) = 2 h sum_kj conj(x_k) x_j r11[k, j] relative to
    h, that is of h^-1/2 G(x) h^-1/2, at each direction x, from the exact
    values `ExactMetric.at` gives at a point."""
    h, r11 = values["h"], values["r11"]
    dim, margins = len(r11), []
    with mpmath.workdps(DIGITS):
        e, q = mpmath.eighe(mpmath.matrix([[_mp(v) for v in row] for row in h.tolist()]))
        root = q * mpmath.diag([1 / mpmath.sqrt(v) for v in e]) * q.H  # h^-1/2
    for x in directions:
        x = [_rational(c) for c in x]
        g = 2 * h * sum((sympy.conjugate(x[k]) * x[j] * r11[k][j] for k in range(dim) for j in range(dim)),
                        sympy.zeros(h.shape[0]))
        with mpmath.workdps(DIGITS):
            g = root * mpmath.matrix([[_mp(e) for e in row] for row in g.tolist()]) * root
            margins.append(float(min(mpmath.eighe(g, eigvals_only=True))))
    return np.array(margins)


def _mp(e):
    """A Gaussian rational as an mpmath complex at the working precision."""
    re, im = sympy.expand(e).as_real_imag()
    return mpmath.mpc(mpmath.mpf(re.p) / re.q, mpmath.mpf(im.p) / im.q)


def as_array(m) -> np.ndarray:
    """A nested list of exact sympy matrices as a complex array, each entry
    written out to `DIGITS` digits first."""
    if isinstance(m, sympy.MatrixBase):
        return np.array([[complex(e.evalf(DIGITS)) for e in row] for row in m.tolist()])
    return np.stack([as_array(x) for x in m])


def sections(rows, gram=None, dim: int = 1) -> ExactMetric:
    """from_sections: H = (E(z) G^-1 E(w)*)^T, the Gram matrix of the column
    frame E^T, which is holomorphic in z; E is an n x m matrix whose entries
    are given as {powers: coefficient}, and G defaults to the identity."""
    z, wb = _symbols(dim)
    e = sympy.Matrix([[_poly(entry, z) for entry in row] for row in rows])
    e_star = sympy.Matrix([[_poly(entry, wb, conjugate=True) for entry in row] for row in rows]).T
    g = sympy.eye(e.shape[1]) if gram is None else sympy.Matrix([[_rational(c) for c in row] for row in gram])
    return ExactMetric((e * g.inv() * e_star).T, z, wb)


def grassmann(ambient_dim: int, rank: int) -> ExactMetric:
    """universal_grassmann: h = F(z)* F(z) for the frame F = [I; B], B the
    (N - k) x k graph matrix whose entries are the chart coordinates, row by row."""
    dim = (ambient_dim - rank) * rank
    z, wb = _symbols(dim)
    frame = sympy.Matrix.vstack(sympy.eye(rank), sympy.Matrix(ambient_dim - rank, rank, list(z)))
    frame_star = sympy.Matrix.vstack(sympy.eye(rank), sympy.Matrix(ambient_dim - rank, rank, list(wb))).T
    return ExactMetric(frame_star * frame, z, wb)


def constant(matrix, dim: int = 1) -> ExactMetric:
    """The constant kernel: h = M everywhere."""
    z, wb = _symbols(dim)
    return ExactMetric(sympy.Matrix([[_rational(c) for c in row] for row in matrix]), z, wb)
