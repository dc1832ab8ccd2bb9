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
    for the sorted Laplacians of ``autodiff.scaled_laplacian``. The product
    takes x's dtype: data is cast to it, which costs microseconds for a
    Laplacian and leaves a float64 product untouched.
    """
    a = sp.csr_array((data.astype(x.dtype, copy=False), indices, indptr),
                     shape=(len(indptr) - 1, x.shape[0]))
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


def local_maxima(values, nbrs, rows, cols):
    """Strict local maxima: whether each values[rows[k], cols[k]] is >= every
    neighbor in its row and > at least one.

    values is (V, n), one field per row; nbrs is (n, max_deg) with -1
    padding for missing neighbors. Plateaus that tie a true maximum (e.g.
    the exact symmetry ring around a Healpix pole) yield one candidate per
    tied vertex; callers collapse those by angular suppression. A
    constant row has none.
    """
    flat = values.ravel()
    base = rows * values.shape[1]
    center = flat[base + cols]
    # one neighbor slot at a time, dropping entries as soon as one fails;
    # a missing neighbor stands in as the vertex itself, which passes >=
    alive = np.arange(rows.size)
    for slot in nbrs.T:
        nb = slot[cols[alive]]
        nb = np.where(nb >= 0, nb, cols[alive])
        alive = alive[center[alive] >= flat[base[alive] + nb]]
    nb = nbrs[cols[alive]]
    nb = np.where(nb >= 0, nb, cols[alive, None])
    strict = (center[alive, None] > flat[base[alive, None] + nb]).any(axis=1)
    out = np.zeros(rows.size, bool)
    out[alive[strict]] = True
    return out
