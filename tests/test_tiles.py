"""The Gram matrix is walked by pairs of square tiles of at most
`kernels._GRAM_TILE` rows, through one generator, `kernels._gram_tiles`:
`gram` assembles the matrix from them, and `psd_margin` reads a section
kernel's margin from them without assembling it.

Where the tiles cut the matrix must not change a bit of the assembly, and
a section kernel's margin must hold no more than its frame stack and a few
tiles, however many points it has.
"""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bck.kernels
from bck.errors import StructuralError
from bck.kernels import DiscPowerKernel, from_sections, gram, psd_margin, universal_grassmann
from bck.linalg import hermiticity_defect, hermitize
from bck.polys import MatrixPolynomial

from _fields import MappedKernel, cmat


def _family(name, rng):
    """A kernel and a function drawing `count` points inside its domain."""
    if name == "disc":
        return DiscPowerKernel(2), lambda count: 0.9 * np.exp(2j * np.pi * rng.uniform(size=(count, 1))) * np.sqrt(
            rng.uniform(size=(count, 1)))
    if name == "grassmann":  # n = 1, m = 3
        spec = universal_grassmann(3, 1)
    else:  # n = 2, m = 3
        spec = from_sections(MatrixPolynomial.random(rng, 1, (2, 3), degree=2, holomorphic=True))
    return spec, lambda count: 0.5 * cmat(rng, count, spec.base_dim)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["disc", "grassmann", "sections"]),
    budget=st.sampled_from([1, 3, bck.kernels._GRAM_TILE]),
    where=st.sampled_from(["tile edge", "N n = m", "N n = m + 1"]),
    tiles=st.integers(1, 3),
    offset=st.integers(-1, 1),
    seed=st.integers(0, 2**16),
)
def test_tile_edges_change_nothing(family, budget, where, tiles, offset, seed):
    rng = np.random.default_rng(seed)
    spec, draw = _family(family, rng)
    n = spec.fiber_dim
    m = getattr(spec, "section_count", 3)
    count = {"tile edge": max(1, tiles * max(1, budget // n) + offset), "N n = m": -(-m // n),
             "N n = m + 1": -(-(m + 1) // n)}[where]
    pts = draw(count)
    blocks = spec.eval_batch(pts[:, None], pts[None])
    a = blocks.transpose(0, 2, 1, 3).reshape(count * n, count * n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bck.kernels, "_GRAM_TILE", budget)
        g, margin = gram(spec, pts), psd_margin(spec, pts)
        sides = [side for _, _, tile, _, _ in bck.kernels._gram_tiles(spec, pts) for side in tile.shape]
    assert max(sides) <= max(budget, n)
    assert np.array_equal(g.assembled, hermitize(a))
    assert g.defect == pytest.approx(hermiticity_defect(a), rel=1e-12, abs=0.0)
    if family == "disc" or count * n <= m:
        assert margin == np.linalg.eigvalsh(hermitize(a))[0]
        return
    x = spec.frame(pts).reshape(count * n, m)
    size = np.linalg.norm(a)
    dense = -np.linalg.norm(hermitize(a) - x @ x.conj().T)
    assert margin == pytest.approx(dense, rel=1e-12, abs=1e-15 * size)


def test_a_failing_block_raises_the_error_of_one_batch(monkeypatch):
    # blocks (t3, t0) and (t2, t3) are not finite: the walk by one-point
    # tiles meets (t3, t0) first, one batch over all pairs (t2, t3)
    pts = np.array([[0.1], [0.2], [0.3], [0.4]], dtype=complex)

    def blocks(z, w, k):
        bad = ((z[..., 0] == 0.4) & (w[..., 0] == 0.1)) | ((z[..., 0] == 0.3) & (w[..., 0] == 0.4))
        return np.where(bad[..., None, None], np.nan, k)

    spec = MappedKernel(DiscPowerKernel(2), blocks)
    with pytest.raises(StructuralError) as whole:
        spec.eval_batch(pts[:, None], pts[None])
    assert "([0.3+0.j], [0.4+0.j])" in str(whole.value)
    monkeypatch.setattr(bck.kernels, "_GRAM_TILE", 1)
    for call in (gram, psd_margin):
        with pytest.raises(StructuralError, match=re.escape(str(whole.value))):
            call(spec, pts)


def test_a_section_kernel_margin_holds_its_frames_and_a_few_tiles():
    # 1,000 points with n = 2: a dense G would be 2000^2 complex entries,
    # 64 MB; the margin holds X and X*, the walk's three tile buffers, the
    # margin's product tile, the two tiles of one pair as one batch
    # evaluates them with that batch's temporaries: nine tiles of at most
    # `_GRAM_TILE` rows
    rng = np.random.default_rng(3)
    spec = from_sections(MatrixPolynomial.random(rng, 2, (2, 3), degree=2, holomorphic=True), base_dim=2)
    count, n, m = 1000, spec.fiber_dim, spec.section_count
    pts = 0.5 * cmat(rng, count, 2)
    tile = bck.kernels._GRAM_TILE ** 2 * 16
    frames = count * n * m * 16
    psd_margin(spec, pts)  # lazy imports and caches outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        psd_margin(spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * frames + 9 * tile, (peak - 2 * frames) / tile
