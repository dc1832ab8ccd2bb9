import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from sphdecon import harmonics as sh
from sphdecon import sphere_grid as sg
from sphdecon.errors import InvalidArgumentError

from graph_reference import reference_graph, reference_lmax, reference_scaled, sparse
from grid_rotations import z_rotation_permutation


def dense_laplacian(grid):
    return sparse(grid.laplacian).toarray()


def dense_adjacency(grid):
    lap = dense_laplacian(grid)
    return np.diag(np.diag(lap)) - lap


def edges(grid):
    """Row, column and weight of every edge, in row then column order."""
    adjacency = dense_adjacency(grid)
    rows, cols = np.nonzero(adjacency)
    return rows, cols, adjacency[rows, cols]


def assert_csr_identical(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("nside", [1, 2, 4, 8, 16])
def test_graph_bit_identical_to_scipy_construction(nside):
    grid = sg.build_grid(nside)
    _, laplacian, _ = reference_graph(grid)
    assert_csr_identical(sparse(grid.laplacian), laplacian)


@pytest.mark.parametrize("nside", [1, 2, 4, 8, 16])
def test_rescaled_laplacian_bit_identical_to_scipy_construction(nside):
    # (2/lmax) L - I is the operator every graph convolution multiplies by.
    # The patch product sums each row in another order than the CSR
    # product, which moves lmax by one ulp at nside 1 and 2; 2/lmax still
    # rounds to the same value there, so the operator is the same
    grid = sg.build_grid(nside)
    _, laplacian, _ = reference_graph(grid)
    lmax = reference_lmax(laplacian)
    est = sg.estimate_lmax(grid.laplacian)
    assert abs(est - lmax) <= (np.spacing(lmax) if nside <= 2 else 0.0)
    assert_csr_identical(sparse(grid.laplacian.rescaled(est)), reference_scaled(laplacian, lmax))


def test_graph_built_on_first_use():
    grid = sg.build_grid(4)
    assert "laplacian" not in vars(grid)
    assert grid.laplacian is grid.laplacian


def test_vertex_count_nside1():
    grid = sg.build_grid(1)
    assert grid.n_vertices == 12
    assert grid.vertices.shape == (12, 3)


def test_vertex_counts_follow_pixel_formula():
    for nside in (1, 2, 4, 8):
        assert sg.build_grid(nside).n_vertices == 12 * nside * nside


def test_laplacian_row_sums_nside4():
    grid = sg.build_grid(4)
    row_sums = dense_laplacian(grid).sum(axis=1)
    assert np.abs(row_sums).max() < 1e-12


def test_laplacian_spectrum_nside2():
    # oracle: dense eigendecomposition of the 48x48 Laplacian
    grid = sg.build_grid(2)
    eigvals = np.linalg.eigvalsh(dense_laplacian(grid))
    assert abs(eigvals[0]) < 1e-10
    assert np.all(eigvals[1:] > 0)


def test_constant_vector_in_kernel():
    grid = sg.build_grid(4)
    ones = np.ones(grid.n_vertices)
    assert np.abs(dense_laplacian(grid) @ ones).max() < 1e-12


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
    A = dense_adjacency(grid)
    assert np.array_equal(A, A.T)
    assert np.all(A.diagonal() == 0)


def test_weights_in_unit_interval_and_rho_positive():
    grid = sg.build_grid(4)
    assert reference_graph(grid)[2] > 0
    _, _, w = edges(grid)
    assert np.all(w > 0) and np.all(w <= 1.0)


def test_edge_weight_formula():
    grid = sg.build_grid(2)
    rows, cols, w = edges(grid)
    d2 = ((grid.vertices[rows] - grid.vertices[cols]) ** 2).sum(axis=1)
    rho = reference_graph(grid)[2]
    assert np.allclose(w, np.exp(-d2 / rho**2), rtol=0, atol=1e-15)


def test_rho_is_mean_neighbor_chord():
    grid = sg.build_grid(2)
    rows, cols, _ = edges(grid)
    pairs = rows < cols
    d = np.linalg.norm(grid.vertices[rows[pairs]] - grid.vertices[cols[pairs]], axis=1)
    assert np.isclose(reference_graph(grid)[2], d.mean(), rtol=0, atol=1e-15)


@pytest.mark.parametrize("nside", [1, 2, 4, 8, 16, 32, 64])
def test_antipodes_exact(nside):
    # exact up to the sign of a zero: an equator vertex has z = 0.0, and so
    # has its antipode, where -vertices holds -0.0
    grid = sg.build_grid(nside)
    anti = sg._antipodes(nside)
    assert np.array_equal(np.sort(anti), np.arange(grid.n_vertices))
    assert np.array_equal(grid.vertices[anti], -grid.vertices)
    assert np.array_equal(anti[anti], np.arange(grid.n_vertices))


@pytest.mark.parametrize("nside", [1, 2, 4, 8])
def test_folded_laplacian_equals_the_folded_dense_one(nside):
    # the scipy construction's L on the rows of base faces 0-5, each column
    # added onto its representative there: the faces' antipodes are faces
    # 6-11, so they hold one vertex of each antipodal pair. At nside 1 one
    # vertex reaches another both directly and through its antipode, and
    # the 24 rows at nside 2 are one patch, as 16 does not divide them
    grid = sg.build_grid(nside)
    n = grid.n_vertices
    half = np.arange(n) < n // 2
    assert np.array_equal(np.unique(sg._ANTIPODAL_FACE[:6]), np.arange(6, 12))
    rep = sg.face_half_rep(nside)
    assert np.array_equal(rep[half], np.arange(n // 2))
    assert np.array_equal(rep[~half], sg._antipodes(nside)[~half])
    fold = np.zeros((n, n // 2))
    fold[np.arange(n), rep] = 1.0
    expect = reference_graph(grid)[1].toarray()[half] @ fold
    folded = sg.graph_laplacian(grid, folded=True)
    assert folded.n == n // 2 == 6 * nside * nside
    got = sparse(folded).toarray()
    assert np.array_equal(got, expect)
    assert np.array_equal(got, got.T)
    # on an even field the folded product is the whole one, restricted
    x = np.random.default_rng(nside).standard_normal((n // 2, 3))
    whole = sparse(grid.laplacian) @ x[rep]
    assert np.abs(folded.matmul(x) - whole[half]).max() <= 1e-13 * np.abs(whole).max()


@pytest.mark.parametrize("nside", [16, 32, 64])
def test_hemisphere_tables(nside):
    grid = sg.build_grid(nside)
    half = grid.hemisphere
    assert half is grid.hemisphere
    assert half.index.size == 6 * nside * nside
    assert np.all(np.diff(half.index) > 0)
    kept = grid.vertices[half.index]
    # every half vertex is its own fold, bit for bit, and every vertex's
    # representative is its fold (a zero's sign aside, as above)
    assert sh.fold_hemisphere(kept).tobytes() == kept.tobytes()
    assert np.array_equal(grid.vertices[half.index[half.rep]], sh.fold_hemisphere(grid.vertices))
    assert np.array_equal(half.rep[half.index], np.arange(half.index.size))
    # a neighbor across the equator is replaced by its antipode's representative
    nbrs = grid.neighbor_table[half.index]
    assert np.array_equal(half.neighbor_table, np.where(nbrs >= 0, half.rep[nbrs], -1))


def test_build_grid_deterministic():
    a = sg.build_grid(4)
    b = sg.build_grid(4)
    assert np.array_equal(a.vertices, b.vertices)
    for name in ("own", "halo", "halo_index"):
        assert np.array_equal(getattr(a.laplacian, name), getattr(b.laplacian, name))


@pytest.mark.parametrize("nside", [0, 3, 5, 128, -2])
def test_build_grid_rejects_bad_nside(nside):
    with pytest.raises(InvalidArgumentError):
        sg.build_grid(nside)


@pytest.mark.parametrize("nside", [16, 32, 64])
def test_antipodal_symmetry_bit_exact(nside):
    # CSD's constraint penalty uses one hemisphere at twice the weight
    grid = sg.build_grid(nside)
    v = grid.vertices
    index = {tuple(p): i for i, p in enumerate(v)}
    antipode = np.array([index.get(tuple(-p), -1) for p in v])
    assert np.all(antipode >= 0)
    kept = (sh.fold_hemisphere(v) == v).all(axis=1)
    assert kept.sum() == grid.n_vertices // 2
    assert np.all(kept != kept[antipode])
    Y = sh.design_matrix(sh.ShBasis(8), v)
    assert np.array_equal(Y, Y[:, antipode])


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
        assert np.array_equal(z_rotation_permutation(grid, 0), np.arange(48))

    def test_order_four(self):
        grid = sg.build_grid(1)
        pi = z_rotation_permutation(grid, 1)
        p = pi.copy()
        for _ in range(3):
            p = pi[p]
        assert np.array_equal(p, np.arange(12))

    def test_rotation_matches_vertices(self):
        grid = sg.build_grid(4)
        for k in range(4):
            pi = z_rotation_permutation(grid, k)
            ang = k * np.pi / 2
            rot = np.array(
                [[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]]
            )
            err = np.linalg.norm(grid.vertices[pi] @ rot.T - grid.vertices, axis=1)
            assert err.max() < 1e-9

    def test_adjacency_invariant_exhaustive(self):
        # exhaustive check over all 48^2 pairs
        grid = sg.build_grid(2)
        pi = z_rotation_permutation(grid, 1)
        A = dense_adjacency(grid)
        assert np.array_equal(A[np.ix_(pi, pi)], A)

    def test_laplacian_commutes_exactly(self):
        grid = sg.build_grid(8)
        pi = z_rotation_permutation(grid, 3)
        L = dense_laplacian(grid)
        assert np.array_equal(L[np.ix_(pi, pi)], L)

    def test_permutation_consistent_with_pooling(self):
        # quarter turns act on the nested hierarchy: parent(pi_fine) = pi_coarse(parent)
        fine, coarse = sg.build_grid(4), sg.build_grid(2)
        parent_of = nested_parent(fine.n_vertices)
        pf = z_rotation_permutation(fine, 1)
        pc = z_rotation_permutation(coarse, 1)
        assert np.array_equal(parent_of[pf], pc[parent_of])


def test_estimate_lmax_close_to_dense():
    grid = sg.build_grid(2)
    dense = np.linalg.eigvalsh(dense_laplacian(grid))[-1]
    est = sg.estimate_lmax(grid.laplacian)
    assert est <= dense + 1e-9
    assert est > 0.9 * dense


def test_psd_via_sparse_eigs():
    grid = sg.build_grid(8)
    smallest = scipy.sparse.linalg.eigsh(
        scipy.sparse.csr_array(dense_laplacian(grid)), k=1, sigma=-1e-3,
        return_eigenvectors=False,
    )
    assert smallest[0] > -1e-10
