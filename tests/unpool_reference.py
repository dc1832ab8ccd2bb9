"""The Healpix unpooling as a standalone op, the reference for unpool_conv.

``healpix_unpool`` is the op the network ran before each decoder level's
first convolution took the unpooling in: it copies each coarse vertex row
to its 4 NESTED children, appends the skip connection's channels, and
keeps its whole output on the tape. ``graph_conv`` of its output is what
``autodiff.unpool_conv`` must equal, up to the rounding of its coarse-row
channel mix.
"""

import numpy as np

from sphdecon import autodiff as ad


def healpix_unpool(tape, x: ad.Tensor, skip: ad.Tensor) -> ad.Tensor:
    """Copy each coarse vertex row to its 4 children, then append skip's channels.

    x is (N, V, C), skip (4 N, V, C_skip); returns (4 N, V, C + C_skip).
    """
    n, v, c = x.values.shape
    out = ad.Tensor(np.empty((4 * n, v, c + skip.values.shape[2]),
                             np.result_type(x.values, skip.values)))
    out.values.reshape(n, 4, v, -1)[..., :c] = x.values[:, None]
    out.values[..., c:] = skip.values

    def backward():
        if x.requires_grad:
            x.add_grad(out.grad[..., :c].reshape(n, 4, v, c).sum(axis=1))
        if skip.requires_grad:
            skip.add_grad(out.grad[..., c:].copy())  # a view of out.grad

    if tape is not None and (x.requires_grad or skip.requires_grad):
        out.requires_grad = True
        tape.record(backward)
    return out
