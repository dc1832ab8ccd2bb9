"""Reverse-mode differentiation over dense float64 arrays.

A Tape records one backward closure per executed op; backward() walks the
records once in reverse, accumulating gradients by summation. Ops are
free functions taking the tape first; passing tape=None runs the forward
computation without recording (inference mode). The op set is exactly
what the spherical deconvolution network needs; there is no general
broadcasting.

Network activations are (N, V, C): vertex, voxel, channel. Hot inner
loops (sparse Laplacian products, pooling) go through the kernels
module (numpy and scipy.sparse).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from . import _kernels
from .errors import InvalidArgumentError


class Tensor:
    """Dense array with an optional accumulated gradient."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    def ensure_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        return self.grad

    def zero_grad(self):
        self.grad = None


class Tape:
    """Ordered record of executed ops; backward visits each exactly once."""

    def __init__(self):
        self._records = []

    def record(self, fn):
        self._records.append(fn)

    def backward(self, loss: Tensor):
        if loss.values.shape != ():
            raise InvalidArgumentError("backward starts from a scalar loss")
        loss.ensure_grad()[...] = 1.0
        for fn in reversed(self._records):
            fn()


def _track(tape, out, inputs, backward_fn):
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    tape.record(backward_fn)
    return out


# ---------------------------------------------------------------------------
# Laplacian plumbing


@dataclass
class ChebLaplacian:
    """Rescaled Laplacian (2/lmax) L - I in CSR arrays for the kernels."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n: int

    def matmul(self, x_cols):
        """Product with a dense matrix whose first axis runs over vertices."""
        return _kernels.csr_matmul(self.indptr, self.indices, self.data, x_cols)


def scaled_laplacian(laplacian, lmax_scale: float) -> ChebLaplacian:
    scaled = ((2.0 / lmax_scale) * laplacian - sp.identity(laplacian.shape[0])).tocsr()
    scaled.sort_indices()
    return ChebLaplacian(
        scaled.indptr.copy(), scaled.indices.copy(),
        np.ascontiguousarray(scaled.data, dtype=np.float64), scaled.shape[0],
    )


def graph_conv(tape, x: Tensor, weights: Tensor, lap: ChebLaplacian) -> Tensor:
    """Polynomial spectral filter: y = sum_p (L^p x) W_p over input channels.

    x is (N, V, C_in), weights (P+1, C_in, C_out); returns (N, V, C_out).
    Vertices lead the layout, so the Laplacian acts on x viewed as
    (N, V * C_in) with no copy. Exact gradients for both x and weights;
    the monomial stack is kept for backward when recording.
    """
    if x.values.ndim != 3 or x.values.shape[0] != lap.n:
        raise InvalidArgumentError(
            f"graph_conv input shape {x.values.shape} does not match N={lap.n}"
        )
    order = weights.values.shape[0] - 1
    n, v, c_in = x.values.shape
    if weights.values.shape[1] != c_in:
        raise InvalidArgumentError(
            f"weights expect {weights.values.shape[1]} input channels, got {c_in}"
        )
    c_out = weights.values.shape[2]
    recording = tape is not None and (x.requires_grad or weights.requires_grad)

    w = weights.values
    y = np.zeros((n * v, c_out))
    stack = np.empty((order + 1, n, v * c_in)) if recording else None
    cur = x.values.reshape(n, v * c_in)
    for p in range(order + 1):
        if recording:
            stack[p] = cur
        y += cur.reshape(n * v, c_in) @ w[p]
        if p < order:
            cur = lap.matmul(cur)
    out = Tensor(y.reshape(n, v, c_out))

    def backward():
        g = out.grad.reshape(n * v, c_out)
        if weights.requires_grad:
            dw = weights.ensure_grad()
            for p in range(order + 1):
                dw[p] += stack[p].reshape(n * v, c_in).T @ g
        if x.requires_grad:
            # Horner form of sum_p L^p u_p with u_p = g W_p^T (L symmetric)
            acc = (g @ w[order].T).reshape(n, v * c_in)
            for p in range(order - 1, -1, -1):
                acc = lap.matmul(acc)
                acc += (g @ w[p].T).reshape(n, v * c_in)
            x.ensure_grad()[...] += acc.reshape(n, v, c_in)

    return _track(tape, out, (x, weights), backward)


def healpix_maxpool(tape, x: Tensor):
    """Max over the 4 NESTED children, which are 4 consecutive vertex rows.

    Returns (pooled, argmax offsets 0..3), both (N / 4, V, C).
    """
    n, v, c = x.values.shape
    if n % 4:
        raise InvalidArgumentError(f"vertex count {n} is not divisible by 4")
    pooled, arg = _kernels.maxpool4(x.values.reshape(n, v * c))
    out = Tensor(pooled.reshape(n // 4, v, c))

    def backward():
        gx = np.zeros((n // 4, 4, v * c))
        np.put_along_axis(gx, arg[:, None], out.grad.reshape(n // 4, 1, v * c), axis=1)
        x.ensure_grad()[...] += gx.reshape(n, v, c)

    return _track(tape, out, (x,), backward), arg.reshape(n // 4, v, c)


def healpix_unpool(tape, x: Tensor) -> Tensor:
    """Copy each coarse vertex row to its 4 children."""
    out = Tensor(np.repeat(x.values, 4, axis=0))

    def backward():
        n, v, c = x.values.shape
        x.ensure_grad()[...] += out.grad.reshape(n, 4, v, c).sum(axis=1)

    return _track(tape, out, (x,), backward)


@dataclass
class BatchNormState:
    """Per-channel running statistics (biased variance), momentum 0.1."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def for_channels(cls, c):
        return cls(np.zeros(c), np.ones(c))


def batchnorm(tape, x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              training: bool) -> Tensor:
    """Per-channel normalization of (N, V, C) over the N and V axes."""
    eps = state.eps
    if training:
        mean = x.values.mean(axis=(0, 1))
        var = x.values.var(axis=(0, 1))
        state.running_mean += state.momentum * (mean - state.running_mean)
        state.running_var += state.momentum * (var - state.running_var)
    else:
        mean, var = state.running_mean, state.running_var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.values - mean) * invstd
    out = Tensor(gamma.values * xhat + beta.values)

    def backward():
        g = out.grad
        if beta.requires_grad:
            beta.ensure_grad()[...] += g.sum(axis=(0, 1))
        if gamma.requires_grad:
            gamma.ensure_grad()[...] += (g * xhat).sum(axis=(0, 1))
        if x.requires_grad:
            gx = g * gamma.values
            if training:
                m = x.values.shape[0] * x.values.shape[1]
                s1 = gx.sum(axis=(0, 1))
                s2 = (gx * xhat).sum(axis=(0, 1))
                dx = (invstd / m) * (m * gx - s1 - xhat * s2)
            else:
                dx = gx * invstd
            x.ensure_grad()[...] += dx

    return _track(tape, out, (x, gamma, beta), backward)


def relu(tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.values, 0.0))

    def backward():
        x.ensure_grad()[...] += out.grad * (x.values > 0)

    return _track(tape, out, (x,), backward)


def softplus(tape, x: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, x.values))

    def backward():
        x.ensure_grad()[...] += out.grad * expit(x.values)

    return _track(tape, out, (x,), backward)


def concat(tape, parts) -> Tensor:
    """Join tensors along the last (channel) axis."""
    out = Tensor(np.concatenate([p.values for p in parts], axis=-1))
    splits = np.cumsum([p.values.shape[-1] for p in parts])[:-1]

    def backward():
        for p, g in zip(parts, np.split(out.grad, splits, axis=-1)):
            if p.requires_grad:
                p.ensure_grad()[...] += g

    return _track(tape, out, tuple(parts), backward)


def scale(tape, x: Tensor, s: float) -> Tensor:
    out = Tensor(x.values * s)

    def backward():
        x.ensure_grad()[...] += out.grad * s

    return _track(tape, out, (x,), backward)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators, aligned with a parameter list."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params):
        return cls([np.zeros_like(p.values) for p in params],
                   [np.zeros_like(p.values) for p in params])


def adam_step(params, state: AdamState, lr: float):
    """One standard Adam update with bias correction, in place.

    betas are (0.9, 0.999) and eps is 1e-8.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m += (1 - b1) * (g - m)
        v += (1 - b2) * (g * g - v)
        p.values -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def zero_grads(params):
    for p in params:
        p.zero_grad()
