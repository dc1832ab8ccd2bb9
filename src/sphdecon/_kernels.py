"""Hot numeric kernels: sparse Laplacian products, Healpix pooling, peak scans.

Plain numpy and scipy.sparse; every kernel is deterministic. Callers reach
them through this module's attributes, so a profiler can wrap them there.
"""

import numpy as np
import scipy.sparse as sp

# ---------------------------------------------------------------------------
# CSR sparse matrix times dense matrix: out[n, m] = sum_k A[n, k] X[k, m].
# This is the inner loop of every graph convolution (forward and backward).


def csr_matmul(indptr, indices, data, x):
    """Multiply a CSR matrix by a dense (k, m) matrix or a length-k vector.

    Each output row sums its terms in stored order, which is column order
    for the sorted Laplacians of ``autodiff.scaled_laplacian``.
    """
    a = sp.csr_array((data, indices, indptr), shape=(len(indptr) - 1, x.shape[0]))
    return a @ x


# ---------------------------------------------------------------------------
# Healpix max pooling over groups of 4 NESTED children.


def maxpool4(x):
    """Max over each block of 4 consecutive rows (fine vertices).

    x is (n_fine, cols) with n_fine divisible by 4. Returns (out, argmax),
    both (n_fine / 4, cols), where argmax holds the winning offset 0..3
    inside each block; ties resolve to the lowest index.
    """
    g = x.reshape(-1, 4, x.shape[1])
    arg = np.argmax(g, axis=1)  # first max wins: lowest child index
    return np.take_along_axis(g, arg[:, None], axis=1)[:, 0], arg


# ---------------------------------------------------------------------------
# Strict local maxima over a padded neighbor table (peak detection).


def local_maxima(values, nbrs):
    """Local-maximum candidates: >= every neighbor and > at least one.

    Plateaus that tie a true maximum (e.g. the exact symmetry ring around
    a Healpix pole) yield one candidate per tied vertex; callers collapse
    those by angular suppression. A globally constant field yields none.
    nbrs is (n, max_deg) with -1 padding for missing neighbors.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    lo = np.concatenate([values, [-np.inf]])
    hi = np.concatenate([values, [np.inf]])
    return (values >= lo[nbrs].max(axis=1)) & (values > hi[nbrs].min(axis=1))
