"""Hot numeric kernels: Laplacian products, Healpix pooling, peak scans.

Plain numpy; every kernel is deterministic. Callers reach them through
this module's attributes, so a profiler can wrap them there.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Block-patch Laplacian times dense matrix: out[n, m] = sum_k L[n, k] X[k, m].
# This is the inner loop of every graph convolution (forward and backward).

# bytes of gathered halo rows per batched product, so that the gather's
# transient stays small next to the operand
_HALO_CHUNK_BYTES = 1 << 18


def patch_matmul(own, halo, halo_index, x):
    """Multiply a block-patch matrix by a dense (n, m) matrix or a length-n vector.

    The rows split into B blocks of s consecutive rows. Block b's rows are
    own[b] (s, s) on the block's own rows of x plus halo[b] (s, h) on the
    rows halo_index[b] (h,) of x, so out[b] = own[b] x[b] + halo[b]
    x[halo_index[b]]. Each half is one batched GEMM; the own rows are a
    view of x, and the halo rows are gathered a few blocks at a time. The
    product takes x's dtype: own and halo are cast to it, which costs
    microseconds for a Laplacian and leaves a float64 product untouched.
    """
    nb, s, _ = own.shape
    x2 = x.reshape(nb * s, -1)
    out = np.matmul(own.astype(x.dtype, copy=False), x2.reshape(nb, s, -1))
    h = halo.shape[2]
    if h:
        halo = halo.astype(x.dtype, copy=False)
        step = max(1, _HALO_CHUNK_BYTES // (h * x2[0].nbytes))
        for b in range(0, nb, step):
            out[b:b + step] += np.matmul(halo[b:b + step], x2[halo_index[b:b + step]])
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Healpix max pooling over groups of 4 NESTED children.


def maxpool4(x):
    """Max over each block of 4 consecutive rows (fine vertices).

    x is (n_fine, cols) with n_fine divisible by 4. Returns (out, argmax),
    both (n_fine / 4, cols), where argmax holds the winning offset 0..3
    inside each block as uint8 (a training tape keeps it until backward);
    ties resolve to the lowest index.
    """
    g = x.reshape(-1, 4, x.shape[1])
    arg = np.argmax(g, axis=1)  # first max wins: lowest child index
    return np.take_along_axis(g, arg[:, None], axis=1)[:, 0], arg.astype(np.uint8)


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
