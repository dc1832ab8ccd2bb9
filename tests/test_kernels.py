import numpy as np
import pytest

from sphdecon import _kernels as K
from sphdecon import autodiff as ad
from sphdecon import sphere_grid as sg


@pytest.fixture(scope="module")
def levels():
    """The three U-Net levels of the default model: grid, scaled CSR, dense copy."""
    out = []
    for nside in (8, 4, 2):
        grid = sg.build_grid(nside)
        lmax = sg.estimate_lmax(grid)
        lap = ad.scaled_laplacian(grid.laplacian, lmax)
        dense = (2.0 / lmax) * grid.laplacian.toarray() - np.eye(grid.n_vertices)
        out.append((grid, lap, dense))
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

    def test_csr_matmul(self, levels):
        rng = np.random.default_rng(0)
        for grid, lap, dense in levels:
            x = rng.standard_normal((grid.n_vertices, 17))
            out = K.csr_matmul(lap.indptr, lap.indices, lap.data, x)
            assert out.shape == (grid.n_vertices, 17)
            assert np.abs(out - dense @ x).max() <= 1e-12

    def test_csr_matmul_float32(self, levels):
        # the product takes the dense operand's dtype, so the Laplacian's
        # float64 values do not promote a float32 network
        rng = np.random.default_rng(2)
        for grid, lap, dense in levels:
            x = rng.standard_normal((grid.n_vertices, 17)).astype(np.float32)
            out = K.csr_matmul(lap.indptr, lap.indices, lap.data, x)
            assert out.dtype == np.float32
            assert np.abs(out - dense @ x).max() <= 1e-6 * np.abs(dense @ x).max()

    def test_csr_matmul_vector(self, levels):
        rng = np.random.default_rng(1)
        for grid, lap, dense in levels:
            x = rng.standard_normal(grid.n_vertices)
            out = K.csr_matmul(lap.indptr, lap.indices, lap.data, x)
            assert out.shape == (grid.n_vertices,)
            assert np.abs(out - dense @ x).max() <= 1e-12

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
