"""The seeded sampler that makes every random draw of the package, the
hermiticity rule, and the small-matrix stack kernels against LAPACK."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bck.chern import MetricField
from bck.errors import SingularMetricError
from bck.kernels import AdmissibilityField
from bck.linalg import (
    Sampler, cholesky, complex_normal, eigvalsh, hermiticity_defect, hermitize, mul, solve, svdvals,
)

from _fields import bit_equal


def _draws(seed):
    rng = Sampler(seed)
    return [
        rng.standard_normal((3, 2)),
        rng.uniform([0.0, -1.0], [1.0, 1.0], (4, 2)),
        rng.integers(0, 10**6),
        rng.choice(50, 10),
        rng.standard_normal(5),
    ]


def test_sampler_same_seed_same_draws_other_seed_other_draws():
    a, b, c = _draws(5), _draws(5), _draws(6)
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


def test_sampler_draws_are_one_stream_split_in_order():
    # a draw of k rows equals k one-row draws in a row
    whole, rng = Sampler(3).uniform([0.0, 2.0], [1.0, 5.0], (50, 2)), Sampler(3)
    assert np.array_equal(whole, np.concatenate([rng.uniform([0.0, 2.0], [1.0, 5.0], (1, 2)) for _ in range(50)]))
    assert ((whole >= [0.0, 2.0]) & (whole < [1.0, 5.0])).all()
    normals, rng = Sampler(3).standard_normal(3000), Sampler(3)
    assert np.array_equal(normals, np.concatenate([rng.standard_normal((3,)) for _ in range(1000)]))
    assert abs(normals.mean()) < 0.1 and abs(normals.std() - 1.0) < 0.05


def test_sampler_rejects_negative_seeds():
    # random.Random(-s) is random.Random(s): a negative seed would alias
    with pytest.raises(ValueError, match="seed must be >= 0"):
        Sampler(-1)


def test_sampler_choice_is_without_replacement():
    idx = Sampler(0).choice(30, 30)
    assert sorted(idx.tolist()) == list(range(30))
    assert all(0 <= Sampler(s).integers(2, 5) - 2 < 3 for s in range(20))


@pytest.mark.parametrize("make", [Sampler, np.random.default_rng], ids=["Sampler", "Generator"])
def test_complex_normal_is_the_two_draw_expression(make):
    # the real parts are drawn first, so a seeded stream is that of
    # rng.standard_normal(s) + 1j * rng.standard_normal(s)
    ours, theirs = make(4), make(4)
    for size in (3, (2, 2), (2, 3, 2, 2), 1, 0):
        got = complex_normal(ours, size)
        want = theirs.standard_normal(size) + 1j * theirs.standard_normal(size)
        assert bit_equal(got, want)
    assert bit_equal(ours.standard_normal(5), theirs.standard_normal(5))


def test_hermiticity_defect_of_a_stack_is_each_matrix_defect():
    rng = Sampler(11)
    a = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    a = a + np.swapaxes(a.conj(), -1, -2)
    a[1, 2, 0, 3] += 0.5
    stacked = hermiticity_defect(a)
    assert stacked.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        m = a[i, j]
        assert stacked[i, j] == hermiticity_defect(m)
        assert hermiticity_defect(m) == pytest.approx(
            np.linalg.norm(m - m.conj().T) / max(1.0, np.linalg.norm(m)), rel=1e-14
        )
    assert np.count_nonzero(stacked) == 1 and stacked[1, 2] > 0.0


# -- small-matrix stacks ----------------------------------------------------------


def _unitary(rng, shape, n):
    g = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return np.linalg.qr(g)[0]


def _stack(rng, shape, n, log_cond, kind, hermitian=False):
    """Matrices of a known spectrum: singular values (or, Hermitian, signed
    eigenvalues) spread from 1 down to 10**-log_cond and scaled; a zero or
    an exactly rank-one matrix per `kind`."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, shape)[..., None]
    spread = 10.0 ** -(log_cond * np.linspace(0.0, 1.0, n))
    values = scale * rng.permuted(np.broadcast_to(spread, shape + (n,)), axis=-1)
    u = _unitary(rng, shape, n)
    if hermitian:
        values = values * rng.choice([-1.0, 1.0], shape + (n,), p=[0.2, 0.8])
        a = hermitize((u * values[..., None, :]) @ np.swapaxes(u.conj(), -1, -2))
    else:
        a = (u * values[..., None, :]) @ _unitary(rng, shape, n)
    flat = a.reshape((-1, n, n))
    if kind == "zero" and len(flat):
        flat[0] = 0.0
    if kind == "rank_one" and len(flat):
        x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        flat[-1] = np.outer(x, (x if hermitian else y).conj())
    return a


_lead = st.lists(st.integers(0, 4), min_size=0, max_size=2).map(tuple)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    lead=_lead,
    drop=st.integers(0, 2),
    log_cond=st.floats(0.0, 12.0),
    kind=st.sampled_from(["generic", "zero", "rank_one"]),
    seed=st.integers(0, 2**16),
)
def test_small_stack_kernels_match_lapack(n, lead, drop, log_cond, kind, seed):
    rng = np.random.default_rng(seed)
    a = _stack(rng, lead, n, log_cond, kind)
    h = _stack(rng, lead, n, log_cond, kind, hermitian=True)
    # b broadcasts against a: it keeps the trailing lead axes, set to 1 at random
    tail = tuple(k if rng.random() < 0.5 else 1 for k in lead[drop:])
    b = rng.standard_normal(tail + (n, 2)) + 1j * rng.standard_normal(tail + (n, 2))

    # products, into a fresh array and into a strided view
    ref = a @ b
    norms = [np.linalg.norm(x, axis=(-2, -1))[..., None, None] for x in (a, b)]
    bound = 1e-14 * norms[0] * norms[1]
    assert mul(a, b).shape == ref.shape and (np.abs(mul(a, b) - ref) <= bound).all()
    out = np.zeros(ref.shape[:-2] + (n, 4), dtype=complex)
    mul(a, b, out=out[..., ::2])
    assert np.array_equal(out[..., ::2], mul(a, b)) and not out[..., 1::2].any()

    # singular values and Hermitian eigenvalues within 1e-14 ||a||
    s, s_ref = svdvals(a), np.linalg.svd(a, compute_uv=False)
    norm = s_ref[..., :1]
    assert s.shape == s_ref.shape and (np.abs(s - s_ref) <= 1e-14 * norm).all()
    e, e_ref = eigvalsh(h), np.linalg.eigvalsh(h)
    size = np.abs(e_ref).max(axis=-1, keepdims=True, initial=0.0)
    assert e.shape == e_ref.shape and (np.abs(e - e_ref) <= 1e-14 * size).all()
    # only the lower triangle and the real diagonal are read, as by LAPACK
    skewed = h + np.triu(np.full((n, n), 1.0 + 1j), 1) + 1j * np.eye(n)
    assert np.array_equal(eigvalsh(skewed), e)

    # solves: forward error within 1e-14 cond(a) of LAPACK's solution, and
    # LinAlgError on a zero block, as LAPACK
    if kind == "zero" and a.size:
        for f in (solve, np.linalg.solve):
            with pytest.raises(np.linalg.LinAlgError):
                f(a, b)
    elif kind == "generic":
        x, x_ref = solve(a, b), np.linalg.solve(a, b)
        cond = (s_ref[..., 0] / s_ref[..., -1])[..., None, None]
        x_norm = np.linalg.norm(x_ref, axis=(-2, -1))[..., None, None]
        assert x.shape == x_ref.shape and (np.abs(x - x_ref) <= 1e-14 * cond * x_norm).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    lead=_lead,
    log_cond=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**16),
)
def test_cholesky_matches_lapack(n, lead, log_cond, seed):
    # positive definite stacks: l l* = a within 1e-14 ||a||, l within
    # 1e-14 cond(a) ||l|| of LAPACK's factor, and only the lower triangle
    # is read; a pivot that is not positive raises, as LAPACK's does
    rng = np.random.default_rng(seed)
    u = _unitary(rng, lead, n)
    values = 10.0 ** rng.uniform(-3.0, 3.0, lead)[..., None] * 10.0 ** -(log_cond * rng.uniform(0.0, 1.0, lead + (n,)))
    a = hermitize((u * values[..., None, :]) @ np.swapaxes(u.conj(), -1, -2))
    l, l_ref = cholesky(a), np.linalg.cholesky(a)
    size = np.linalg.norm(a, axis=(-2, -1))[..., None, None]
    assert l.shape == a.shape and np.array_equal(np.triu(l, 1), np.zeros_like(l))
    assert (np.abs(l @ np.swapaxes(l.conj(), -1, -2) - a) <= 1e-14 * size).all()
    cond = (values.max(axis=-1) / values.min(axis=-1))[..., None, None]
    assert (np.abs(l - l_ref) <= 1e-14 * cond * np.linalg.norm(l_ref, axis=(-2, -1))[..., None, None]).all()
    skewed = a + np.triu(np.full((n, n), 1.0 + 1j), 1) + 1j * np.eye(n)
    assert np.array_equal(cholesky(skewed), l)
    indefinite = a.copy().reshape((-1, n, n))
    if len(indefinite):
        indefinite[0, -1, -1] = -1.0
        for f in (cholesky, np.linalg.cholesky):
            with pytest.raises(np.linalg.LinAlgError):
                f(indefinite)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    count=st.integers(0, 12),
    # spreads near both thresholds: 1e-10 of the admissibility tolerance
    # and 1e-12 of the singularity gate
    log_cond=st.one_of(
        st.floats(0.0, 14.0),
        st.floats(-1e-2, 1e-2).map(lambda x: 10.0 + x),
        st.floats(-0.5, 0.5).map(lambda x: 12.0 + x),
    ),
    kind=st.sampled_from(["generic", "zero", "rank_one"]),
    seed=st.integers(0, 2**16),
)
def test_admissibility_and_singularity_gate_decide_as_lapack(n, count, log_cond, kind, seed):
    # the two decisions equal LAPACK's outside a band of 1e-13 of the
    # largest singular value (eigenvalue) around each threshold
    rng = np.random.default_rng(seed)
    tol = 1e-10
    blocks = _stack(rng, (count,), n, log_cond, kind)
    s = np.linalg.svd(blocks, compute_uv=False)
    margin = s[:, -1] - tol * s[:, 0]
    assume(not ((np.abs(margin) <= 1e-13 * s[:, 0]) & (s[:, 0] > 0.0)).any())
    expected = (s[:, 0] > 0.0) & (margin >= 0.0)
    assert np.array_equal(AdmissibilityField.of_blocks(blocks, tol).invertible, expected)

    h = _stack(rng, (count,), n, log_cond, kind, hermitian=True)
    e = np.linalg.eigvalsh(h)
    margin = e[:, 0] - 1e-12 * np.maximum(e[:, -1], 0.0)
    size = np.abs(e).max(axis=-1, initial=0.0)
    assume(not ((np.abs(margin) <= 1e-13 * size) & (size > 0.0)).any())
    metric = MetricField(func=None, dim=1, fiber_dim=n, batch_func=lambda pts: h[: len(pts)])
    points = np.arange(count, dtype=complex)[:, None]
    failing = np.flatnonzero(margin <= 0.0)
    if len(failing):
        with pytest.raises(SingularMetricError, match=rf"singular at \[{failing[0]}\.\+0\.j\]"):
            metric.batch(points)
    else:
        assert np.array_equal(metric.batch(points), h)
