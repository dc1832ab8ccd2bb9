"""Reference forms of a grid's graph for the tests.

``dense_laplacian`` writes ``grid.graph`` out as a dense matrix.
``reference_graph`` is the scipy.sparse construction of the graph that
sphdecon used before it built the graph in numpy: it returns the CSR
adjacency A and Laplacian L = D - A, both with sorted indices, and rho.
``reference_lmax`` is the power iteration that ran on that Laplacian.
"""

import numpy as np
import scipy.sparse as sp


def dense_laplacian(grid):
    graph = grid.graph
    rows = np.repeat(np.arange(grid.n_vertices), graph.columns.shape[1])
    cols = graph.columns.reshape(-1)
    keep = cols >= 0
    dense = np.zeros((grid.n_vertices, grid.n_vertices))
    dense[rows[keep], cols[keep]] = graph.values.reshape(-1)[keep]
    return dense


def dense_scaled_laplacian(grid, lmax):
    """(2/lmax) L - I, the matrix of autodiff.scaled_laplacian."""
    return (2.0 / lmax) * dense_laplacian(grid) - np.eye(grid.n_vertices)


def reference_graph(grid):
    npix = grid.n_vertices
    pix = np.arange(npix, dtype=np.int64)
    vertices, nbrs = grid.vertices, grid.neighbor_table

    rows = np.repeat(pix, 8)
    cols = nbrs.reshape(-1)
    valid = cols >= 0
    rows, cols = rows[valid], cols[valid]

    diff = vertices[rows] - vertices[cols]
    d2 = (diff[:, 0] ** 2 + diff[:, 1] ** 2) + diff[:, 2] ** 2
    upper = rows < cols
    rho = float(np.mean(np.sqrt(d2[upper])))
    weights = np.exp(-d2 / (rho * rho))

    adjacency = sp.csr_matrix((weights, (rows, cols)), shape=(npix, npix))
    adjacency.sum_duplicates()
    adjacency.sort_indices()

    padded = np.zeros((npix, 8), dtype=np.float64)
    counts = np.diff(adjacency.indptr)
    mask = np.arange(8)[None, :] < counts[:, None]
    padded[mask] = adjacency.data
    degrees = np.sort(padded, axis=1).sum(axis=1)

    laplacian = (sp.diags(degrees) - adjacency).tocsr()
    laplacian.sort_indices()
    return adjacency, laplacian, rho


def reference_lmax(laplacian):
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(laplacian.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(20):
        w = laplacian @ v
        v = w / np.linalg.norm(w)
    return float(v @ (laplacian @ v))
