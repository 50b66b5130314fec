"""The seeded sampler that makes every random draw of the package, and the
hermiticity rule."""

import numpy as np
import pytest

from bck.linalg import Sampler, hermiticity_defect


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
