"""Reference forms of a grid's Laplacian for the tests.

``sparse`` writes a ``sphere_grid.PatchOperator`` out as a CSR matrix.
``reference_graph`` is the scipy.sparse construction of the graph that
sphdecon used before it built the Laplacian in numpy: it returns the CSR
adjacency A and Laplacian L = D - A, both with sorted indices, and the
Gaussian width rho. ``reference_lmax`` is the power iteration that ran on
that Laplacian, and ``reference_scaled`` and ``dense_scaled_laplacian``
are (2/lmax) L - I built from it.
"""

import numpy as np
import scipy.sparse as sp


def sparse(op):
    """A patch operator's nonzero entries as a CSR matrix with sorted indices.

    The zeros it drops are the own blocks' entries between vertices that
    are not neighbors and the halo's pad columns.
    """
    nb, s, _ = op.halo.shape
    rows = np.arange(op.n).reshape(nb, s, 1)
    r = np.concatenate([np.broadcast_to(rows, a.shape).ravel() for a in (op.own, op.halo)])
    c = np.concatenate([np.broadcast_to(rows.reshape(nb, 1, s), op.own.shape).ravel(),
                        np.broadcast_to(op.halo_index[:, None, :], op.halo.shape).ravel()])
    v = np.concatenate([op.own.ravel(), op.halo.ravel()])
    keep = v != 0
    out = sp.csr_matrix((v[keep], (r[keep], c[keep])), shape=(op.n, op.n))
    out.sort_indices()
    return out


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


def reference_scaled(laplacian, lmax):
    """(2/lmax) L - I from the reference Laplacian, as a CSR matrix."""
    out = ((2.0 / lmax) * laplacian - sp.identity(laplacian.shape[0])).tocsr()
    out.sort_indices()
    return out


def dense_scaled_laplacian(grid, lmax):
    return reference_scaled(reference_graph(grid)[1], lmax).toarray()
