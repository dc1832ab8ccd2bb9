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
    """Max over each block of 4 consecutive fine vertices.

    x is (rows, n_fine) with n_fine divisible by 4. Returns (out, argmax)
    where argmax holds the winning offset 0..3 inside each block; ties
    resolve to the lowest index.
    """
    g = np.ascontiguousarray(x, dtype=np.float64).reshape(x.shape[0], -1, 4)
    arg = np.argmax(g, axis=2)  # first max wins: lowest child index
    out = np.take_along_axis(g, arg[:, :, None], axis=2)[:, :, 0]
    return out, arg.astype(np.int64)


def maxpool4_backward(grad_out, arg, n_fine):
    """Route coarse gradients to the argmax child of each block."""
    rows = grad_out.shape[0]
    gx = np.zeros((rows, n_fine // 4, 4), dtype=np.float64)
    np.put_along_axis(gx, arg[:, :, None], grad_out[:, :, None], axis=2)
    return gx.reshape(rows, n_fine)


def unpool4(x):
    """Copy each coarse value to its 4 NESTED children."""
    return np.repeat(x, 4, axis=-1)


def unpool4_backward(grad_out):
    """Sum child gradients back onto each coarse vertex."""
    return grad_out.reshape(grad_out.shape[0], -1, 4).sum(axis=2)


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
