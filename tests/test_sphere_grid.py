import numpy as np
import pytest
import scipy.sparse.linalg

from sphdecon import sphere_grid as sg
from sphdecon.errors import InvalidArgumentError


def test_vertex_count_nside1():
    grid = sg.build_grid(1)
    assert grid.n_vertices == 12
    assert grid.vertices.shape == (12, 3)


def test_vertex_counts_follow_pixel_formula():
    for nside in (1, 2, 4, 8):
        assert sg.build_grid(nside).n_vertices == 12 * nside * nside


def test_laplacian_row_sums_nside4():
    grid = sg.build_grid(4)
    row_sums = np.asarray(grid.laplacian.sum(axis=1)).ravel()
    assert np.abs(row_sums).max() < 1e-12


def test_laplacian_spectrum_nside2():
    # oracle: dense eigendecomposition of the 48x48 Laplacian
    grid = sg.build_grid(2)
    eigvals = np.linalg.eigvalsh(grid.laplacian.toarray())
    assert abs(eigvals[0]) < 1e-10
    assert np.all(eigvals[1:] > 0)


def test_constant_vector_in_kernel():
    grid = sg.build_grid(4)
    ones = np.ones(grid.n_vertices)
    assert np.abs(grid.laplacian @ ones).max() < 1e-12


@pytest.mark.parametrize("nside", [2, 4, 8, 16])
def test_neighbor_counts(nside):
    grid = sg.build_grid(nside)
    counts = (grid.neighbor_table >= 0).sum(axis=1)
    assert set(counts.tolist()) <= {7, 8}
    assert (counts == 7).sum() == 24


def test_neighbor_counts_nside1():
    # each face is a single pixel: both lateral diagonals degenerate
    counts = (sg.build_grid(1).neighbor_table >= 0).sum(axis=1)
    assert set(counts.tolist()) == {6}


def test_adjacency_symmetric_zero_diagonal():
    grid = sg.build_grid(8)
    A = grid.adjacency
    assert (abs(A - A.T)).nnz == 0
    assert np.all(A.diagonal() == 0)


def test_weights_in_unit_interval_and_rho_positive():
    grid = sg.build_grid(4)
    assert grid.rho > 0
    w = grid.adjacency.data
    assert np.all(w > 0) and np.all(w <= 1.0)


def test_edge_weight_formula():
    grid = sg.build_grid(2)
    A = grid.adjacency.tocoo()
    d2 = ((grid.vertices[A.row] - grid.vertices[A.col]) ** 2).sum(axis=1)
    assert np.allclose(A.data, np.exp(-d2 / grid.rho**2), rtol=0, atol=1e-15)


def test_rho_is_mean_neighbor_chord():
    grid = sg.build_grid(2)
    A = grid.adjacency.tocoo()
    pairs = A.row < A.col
    d = np.linalg.norm(grid.vertices[A.row[pairs]] - grid.vertices[A.col[pairs]], axis=1)
    assert np.isclose(grid.rho, d.mean(), rtol=0, atol=1e-15)


def test_build_grid_deterministic():
    a = sg.build_grid(4)
    b = sg.build_grid(4)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.adjacency.data, b.adjacency.data)


@pytest.mark.parametrize("nside", [0, 3, 5, 128, -2])
def test_build_grid_rejects_bad_nside(nside):
    with pytest.raises(InvalidArgumentError):
        sg.build_grid(nside)


def test_vertices_unit_norm():
    grid = sg.build_grid(16)
    assert np.abs(np.linalg.norm(grid.vertices, axis=1) - 1).max() < 1e-15


def nested_parent(n_fine):
    """The NESTED parent rule healpix_maxpool relies on: 4 consecutive children."""
    return np.arange(n_fine) // 4


class TestPooling:
    def test_nside2_to_1_parents(self):
        parent_of = nested_parent(sg.build_grid(2).n_vertices)
        assert np.array_equal(parent_of[0:4], np.zeros(4))
        assert np.array_equal(parent_of[4:8], np.ones(4))

    def test_fibers_of_size_four(self):
        counts = np.bincount(nested_parent(sg.build_grid(4).n_vertices), minlength=48)
        assert np.all(counts == 4)

    def test_children_are_nearest_parents(self):
        # oracle: brute-force nearest-parent assignment by angular distance
        fine, coarse = sg.build_grid(2), sg.build_grid(1)
        dots = fine.vertices @ coarse.vertices.T
        assert np.array_equal(np.argmax(dots, axis=1), nested_parent(fine.n_vertices))


class TestZRotation:
    def test_zero_turns_identity(self):
        grid = sg.build_grid(2)
        assert np.array_equal(sg.z_rotation_permutation(grid, 0), np.arange(48))

    def test_order_four(self):
        grid = sg.build_grid(1)
        pi = sg.z_rotation_permutation(grid, 1)
        p = pi.copy()
        for _ in range(3):
            p = pi[p]
        assert np.array_equal(p, np.arange(12))

    def test_rotation_matches_vertices(self):
        grid = sg.build_grid(4)
        for k in range(4):
            pi = sg.z_rotation_permutation(grid, k)
            ang = k * np.pi / 2
            rot = np.array(
                [[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]]
            )
            err = np.linalg.norm(grid.vertices[pi] @ rot.T - grid.vertices, axis=1)
            assert err.max() < 1e-9

    def test_adjacency_invariant_exhaustive(self):
        # exhaustive check over all 48^2 pairs
        grid = sg.build_grid(2)
        pi = sg.z_rotation_permutation(grid, 1)
        A = grid.adjacency.toarray()
        assert np.array_equal(A[np.ix_(pi, pi)], A)

    def test_laplacian_commutes_exactly(self):
        grid = sg.build_grid(8)
        pi = sg.z_rotation_permutation(grid, 3)
        L = grid.laplacian.toarray()
        assert np.array_equal(L[np.ix_(pi, pi)], L)

    def test_permutation_consistent_with_pooling(self):
        # quarter turns act on the nested hierarchy: parent(pi_fine) = pi_coarse(parent)
        fine, coarse = sg.build_grid(4), sg.build_grid(2)
        parent_of = nested_parent(fine.n_vertices)
        pf = sg.z_rotation_permutation(fine, 1)
        pc = sg.z_rotation_permutation(coarse, 1)
        assert np.array_equal(parent_of[pf], pc[parent_of])


def test_estimate_lmax_close_to_dense():
    grid = sg.build_grid(2)
    dense = np.linalg.eigvalsh(grid.laplacian.toarray())[-1]
    est = sg.estimate_lmax(grid)
    assert est <= dense + 1e-9
    assert est > 0.9 * dense


def test_psd_via_sparse_eigs():
    grid = sg.build_grid(8)
    smallest = scipy.sparse.linalg.eigsh(
        grid.laplacian, k=1, sigma=-1e-3, return_eigenvectors=False
    )
    assert smallest[0] > -1e-10
