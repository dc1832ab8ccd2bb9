import numpy as np
import pytest

from sphdecon import _kernels as K
from sphdecon import sphere_grid as sg

from graph_reference import dense_scaled_laplacian


@pytest.fixture(scope="module")
def levels():
    """The three U-Net levels of the default model and nside 1, which is
    smaller than one 16-row patch: grid, scaled Laplacian, dense copy."""
    out = []
    for nside in (8, 4, 2, 1):
        grid = sg.build_grid(nside)
        lmax = sg.estimate_lmax(grid.laplacian)
        lap = grid.laplacian.rescaled(lmax)
        out.append((grid, lap, dense_scaled_laplacian(grid, lmax)))
    return out


def brute_maxpool4(x):
    n, cols = x.shape
    out = np.empty((n // 4, cols))
    arg = np.empty((n // 4, cols), dtype=np.int64)
    for b in range(n // 4):
        for c in range(cols):
            best = 0
            for j in range(1, 4):
                if x[4 * b + j, c] > x[4 * b + best, c]:
                    best = j
            out[b, c] = x[4 * b + best, c]
            arg[b, c] = best
    return out, arg


def brute_local_maxima(values, nbrs):
    out = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(values):
        around = [values[k] for k in nbrs[i] if k >= 0]
        out[i] = all(u <= v for u in around) and any(u < v for u in around)
    return out


class TestBackendsAgree:
    """Each kernel against an independent reference: a dense product or a loop."""

    # measured: float64 products agree with the dense one to within 3.5e-16
    # of its largest entry, over 20 seeds and 1, 17 and 64 columns at nside
    # 1 to 16
    def test_patch_matmul(self, levels):
        rng = np.random.default_rng(0)
        for grid, lap, dense in levels:
            x = rng.standard_normal((grid.n_vertices, 17))
            out = K.patch_matmul(lap.own, lap.halo, lap.halo_index, x)
            ref = dense @ x
            assert out.shape == (grid.n_vertices, 17)
            assert np.abs(out - ref).max() <= 5e-16 * np.abs(ref).max()

    def test_patch_matmul_float32(self, levels):
        # the product takes the dense operand's dtype, so the Laplacian's
        # float64 values do not promote a float32 network
        rng = np.random.default_rng(2)
        for grid, lap, dense in levels:
            x = rng.standard_normal((grid.n_vertices, 17)).astype(np.float32)
            out = K.patch_matmul(lap.own, lap.halo, lap.halo_index, x)
            assert out.dtype == np.float32
            assert np.abs(out - dense @ x).max() <= 1e-6 * np.abs(dense @ x).max()

    def test_patch_matmul_vector(self, levels):
        rng = np.random.default_rng(1)
        for grid, lap, dense in levels:
            x = rng.standard_normal(grid.n_vertices)
            out = K.patch_matmul(lap.own, lap.halo, lap.halo_index, x)
            ref = dense @ x
            assert out.shape == (grid.n_vertices,)
            assert np.abs(out - ref).max() <= 5e-16 * np.abs(ref).max()

    def test_patch_layout(self, levels):
        # 16-row patches, or one patch holding a grid smaller than that
        for grid, lap, _ in levels:
            s = min(16, grid.n_vertices)
            assert lap.own.shape == (grid.n_vertices // s, s, s)
            assert lap.halo.shape[:2] == lap.own.shape[:2]
            assert lap.halo_index.shape == (lap.own.shape[0], lap.halo.shape[2])
        assert [lap.halo.shape[2] for _, lap, _ in levels] == [20, 18, 24, 0]

    def test_patch_matmul_chunked_halo(self, levels, monkeypatch):
        # one block per halo gather gives the same product
        rng = np.random.default_rng(3)
        grid, lap, _ = levels[0]
        x = rng.standard_normal((grid.n_vertices, 17))
        expect = K.patch_matmul(lap.own, lap.halo, lap.halo_index, x)
        monkeypatch.setattr(K, "_HALO_CHUNK_BYTES", 1)
        assert np.array_equal(K.patch_matmul(lap.own, lap.halo, lap.halo_index, x), expect)

    def test_maxpool(self):
        rng = np.random.default_rng(2)
        # small integers, so that many blocks hold tied maxima
        x = rng.integers(0, 3, size=(48, 7)).astype(float)
        out, arg = K.maxpool4(x)
        ref_out, ref_arg = brute_maxpool4(x)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(arg, ref_arg)

    def test_maxpool_tie_break_lowest(self):
        x = np.zeros((8, 1))
        out, arg = K.maxpool4(x)
        assert np.all(arg == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_offsets_are_uint8_first_wins(self, dtype):
        # each column ties children 1 and 3, so the winner is 1 (not 3)
        x = np.array([[0, 5, 2, 5], [7, 7, 7, 7], [-1, 0, -1, 0]], dtype).T
        out, arg = K.maxpool4(x)
        assert arg.dtype == np.uint8 and out.dtype == dtype
        assert np.array_equal(arg, [[1, 0, 1]])
        assert np.array_equal(out, [[5, 7, 0]])

    def test_local_maxima(self, levels):
        rng = np.random.default_rng(3)
        for grid, _, _ in levels:
            nbrs = grid.neighbor_table
            # the second field is mostly ones, so it has plateaus of tied maxima
            values = np.stack([rng.standard_normal(grid.n_vertices),
                               (rng.random(grid.n_vertices) < 0.9).astype(float)])
            rows, cols = np.nonzero(np.ones_like(values, bool))
            got = K.local_maxima(values, nbrs, rows, cols).reshape(values.shape)
            for v, mask in zip(values, got):
                assert np.array_equal(mask, brute_local_maxima(v, nbrs))
            # a subset of the entries, in any order, gets the same answers
            pick = rng.permutation(rows.size)[: rows.size // 3]
            assert np.array_equal(K.local_maxima(values, nbrs, rows[pick], cols[pick]),
                                  got.ravel()[pick])

    def test_local_maxima_constant_none(self, levels):
        grid = levels[1][0]
        v = np.ones((1, grid.n_vertices))
        cols = np.arange(grid.n_vertices)
        assert not K.local_maxima(v, grid.neighbor_table, 0 * cols, cols).any()
