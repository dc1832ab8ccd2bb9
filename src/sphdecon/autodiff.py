"""Reverse-mode differentiation over dense float32 or float64 arrays.

A Tape records one backward closure per executed op; backward() pops the
records in reverse, accumulating gradients by summation. A closure keeps
only what its backward reads and dies once run, so the sweep frees saved
arrays and intermediate gradients as it unwinds. Ops are
free functions taking the tape first; passing tape=None runs the forward
computation without recording (inference mode). The op set is exactly
what the spherical deconvolution network needs; there is no general
broadcasting. Every op computes in its input's dtype: the ESD network
runs in float32, and float64 inputs (the finite-difference tests) run the
same ops in float64.

Network activations are (N, V, C): vertex, voxel, channel. graph_conv
multiplies by whatever Laplacian operator it is handed (sphere_grid
builds the network's), and pooling goes through the kernels module.
unpool_conv is a decoder level's first convolution with the unpooling
and the skip connection folded in, so its widest input is never kept.
graph_conv picks its product order from the weight shape: it applies the
Laplacian after mixing channels when the filter does not widen
(C_out <= C_in), and to the input otherwise. Either way each dense
product is one GEMM over all P+1 powers, and backward keeps nothing but
the input.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError


class Tensor:
    """Dense floating-point array with an optional accumulated gradient.

    A float32 or float64 array keeps its dtype; anything else becomes float64.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad=False):
        values = np.asarray(values)
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values
        self.requires_grad = requires_grad
        self.grad = None

    def add_grad(self, g):
        """Add g to the gradient; with none yet, g becomes the gradient.

        So g must be an array the caller allocated and no longer writes,
        not a view of another array.
        """
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None


class Tape:
    """Ordered record of executed ops; backward runs and drops each exactly once."""

    def __init__(self):
        self._records = []

    def record(self, fn):
        self._records.append(fn)

    def backward(self, loss: Tensor):
        if loss.values.shape != ():
            raise InvalidArgumentError("backward starts from a scalar loss")
        if self._records is None:
            raise InvalidArgumentError("backward already ran on this tape")
        records, self._records = self._records, None
        loss.grad = np.ones_like(loss.values)
        while records:
            records.pop()()


def _track(tape, out, inputs, backward_fn):
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    tape.record(backward_fn)
    return out


# ---------------------------------------------------------------------------
# Network layers


def graph_conv(tape, x: Tensor, weights: Tensor, lap) -> Tensor:
    """Polynomial spectral filter: y = sum_p (L^p x) W_p over input channels.

    x is (N, V, C_in), weights (P+1, C_in, C_out); returns (N, V, C_out).
    lap is a symmetric operator with .n = N and .matmul that maps constant
    fields to minus themselves, such as a grid's Laplacian rescaled onto
    [-1, 1].
    Exact gradients for both x and weights. The Laplacian runs on the
    narrower side of the filter, each side takes one GEMM per product, and
    neither keeps anything for backward but x:

    - C_out <= C_in: one GEMM forms every u_p = x W_p, then Horner,
      y = u_0 + L(u_1 + L(... u_P)), runs on C_out columns. Backward builds
      the stack [g, Lg, ..., L^P g] on C_out columns and takes dW and dx
      from one GEMM each.
    - C_out > C_in: the monomial stack [x, Lx, ..., L^P x] is one
      (N V, (P+1) C_in) matrix, and y is its product with W viewed as
      ((P+1) C_in, C_out). Backward rebuilds the stack from x for the
      one-GEMM dW; dx runs Horner on C_in columns. The forward stack is
      built from x less the mean over vertices of each (voxel, channel)
      column, so that the operator, which the kernel rounds to x's
      dtype, never carries a large constant part: batchnorm would
      amplify its rounding on a channel that barely varies.
    """
    if x.values.ndim != 3 or x.values.shape[0] != lap.n:
        raise InvalidArgumentError(
            f"graph_conv input shape {x.values.shape} does not match N={lap.n}"
        )
    p1 = weights.values.shape[0]
    n, v, c_in = x.values.shape
    if weights.values.shape[1] != c_in:
        raise InvalidArgumentError(
            f"weights expect {weights.values.shape[1]} input channels, got {c_in}"
        )
    c_out = weights.values.shape[2]
    x2 = x.values.reshape(n * v, c_in)

    if c_out <= c_in:
        w_cat = weights.values.transpose(1, 0, 2).reshape(c_in, p1 * c_out)
        out = Tensor(_horner(lap, (x2 @ w_cat).reshape(n, v, p1, c_out)))

        def backward():
            g_stack = _powers(lap, out.grad, p1)
            if weights.requires_grad:
                dw = (x2.T @ g_stack).reshape(c_in, p1, c_out)
                weights.add_grad(dw.transpose(1, 0, 2))
            if x.requires_grad:
                x.add_grad((g_stack @ w_cat.T).reshape(n, v, c_in))

        return _track(tape, out, (x, weights), backward)

    w_cat = weights.values.reshape(p1 * c_in, c_out)
    # L^p takes each column's vertex mean m to (-1)^p m, so the powers run
    # on the rest and m's share is added exactly. A contiguous copy fixes
    # the mean's sum order whatever x's layout.
    xc = np.ascontiguousarray(x.values)
    mean = ((np.ones(n, xc.dtype) @ xc.reshape(n, v * c_in)) / n).reshape(v, c_in)
    y = (_powers(lap, xc - mean, p1) @ w_cat).reshape(n, v, c_out)
    y += (mean @ np.einsum("p,pio->io", (-1.0) ** np.arange(p1), weights.values)).astype(y.dtype)
    out = Tensor(y)

    def backward():
        g = out.grad.reshape(n * v, c_out)
        if weights.requires_grad:
            stack = _powers(lap, x.values, p1)
            weights.add_grad((stack.T @ g).reshape(p1, c_in, c_out))
        if x.requires_grad:
            # L is symmetric: dx = sum_p L^p (g W_p^T)
            x.add_grad(_horner(lap, (g @ w_cat.T).reshape(n, v, p1, c_in)))

    return _track(tape, out, (x, weights), backward)


def _powers(lap, x, p1):
    """[x, Lx, ..., L^(p1-1) x] of an (N, V, C) array as one (N V, p1 C) matrix."""
    n, v, c = x.shape
    stack = np.empty((n, v, p1, c), x.dtype)
    stack[:, :, 0] = x
    cur = x.reshape(n, v * c)
    for p in range(1, p1):
        cur = lap.matmul(cur)
        stack[:, :, p] = cur.reshape(n, v, c)
    return stack.reshape(n * v, p1 * c)


def _horner(lap, u):
    """sum_p L^p u[:, :, p] of an (N, V, P+1, C) array, as (N, V, C)."""
    n, v, p1, c = u.shape
    acc = u[:, :, p1 - 1].copy()
    for p in range(p1 - 2, -1, -1):
        acc = lap.matmul(acc.reshape(n, v * c)).reshape(n, v, c)
        acc += u[:, :, p]
    return acc


def healpix_maxpool(tape, x: Tensor) -> Tensor:
    """Max over the 4 NESTED children, which are 4 consecutive vertex rows.

    Without a tape nothing reads the winners, so the max alone is taken.
    """
    n, v, c = x.values.shape
    if n % 4:
        raise InvalidArgumentError(f"vertex count {n} is not divisible by 4")
    if tape is None:
        return Tensor(x.values.reshape(n // 4, 4, v, c).max(axis=1))
    pooled, arg = _kernels.maxpool4(x.values.reshape(n, v * c))
    out = Tensor(pooled.reshape(n // 4, v, c))

    def backward():
        gx = np.zeros((n // 4, 4, v * c), out.grad.dtype)
        np.put_along_axis(gx, arg[:, None], out.grad.reshape(n // 4, 1, v * c), axis=1)
        x.add_grad(gx.reshape(n, v, c))

    return _track(tape, out, (x,), backward)


def unpool_conv(tape, coarse: Tensor, skip: Tensor, weights: Tensor, lap) -> Tensor:
    """graph_conv of the unpooled input: each coarse vertex row copied to its
    4 children, with skip's channels appended.

    coarse is (N, V, C), skip (4 N, V, C_skip) and weights (P+1, C + C_skip,
    C_out) with C_out <= C + C_skip; returns (4 N, V, C_out). The
    (4 N, V, C + C_skip) input lives only while a product needs it: forward
    builds it for the channel mix, and backward rebuilds it for dW after
    the gradient's power stack. So the tape keeps nothing that coarse and
    skip do not hold already. The GEMMs and sums are graph_conv's narrow
    side, term for term, so the output and every gradient equal graph_conv
    of the built input bit for bit.
    """
    n, v, c = coarse.values.shape
    p1, c_in, c_out = weights.values.shape
    if skip.values.shape[:2] != (4 * n, v) or lap.n != 4 * n:
        raise InvalidArgumentError(
            f"unpool_conv inputs {coarse.values.shape} and {skip.values.shape} "
            f"do not match N={lap.n}"
        )
    if c_in != c + skip.values.shape[2] or c_out > c_in:
        raise InvalidArgumentError(
            f"weights {weights.values.shape} do not map {c} + {skip.values.shape[2]} "
            "channels onto at most as many"
        )
    w_cat = weights.values.transpose(1, 0, 2).reshape(c_in, p1 * c_out)
    u = _unpooled(coarse.values, skip.values) @ w_cat
    out = Tensor(_horner(lap, u.reshape(4 * n, v, p1, c_out)))

    def backward():
        g_stack = _powers(lap, out.grad, p1)
        if weights.requires_grad:
            dw = (_unpooled(coarse.values, skip.values).T @ g_stack).reshape(c_in, p1, c_out)
            weights.add_grad(dw.transpose(1, 0, 2))
        if coarse.requires_grad or skip.requires_grad:
            dx = (g_stack @ w_cat.T).reshape(4 * n, v, c_in)
            if coarse.requires_grad:
                coarse.add_grad(dx[..., :c].reshape(n, 4, v, c).sum(axis=1))
            if skip.requires_grad:
                skip.add_grad(dx[..., c:].copy())  # a view of dx

    return _track(tape, out, (coarse, skip, weights), backward)


def _unpooled(coarse, skip):
    """(N, V, C) rows copied to their 4 children next to skip's (4 N, V, C_skip),
    as one (4 N V, C + C_skip) matrix."""
    n, v, c = coarse.shape
    x = np.empty((4 * n, v, c + skip.shape[2]), np.result_type(coarse, skip))
    x.reshape(n, 4, v, -1)[..., :c] = coarse[:, None]
    x[..., c:] = skip
    return x.reshape(4 * n * v, -1)


@dataclass
class BatchNormState:
    """Per-channel statistics (biased variance) that eval mode normalizes with.

    A train-mode batchnorm without a tape is a statistics pass: it folds
    its batch's mean and variance into the state's cumulative means, of
    which batches counts the terms (set it to 0 to start over). Training
    steps record on a tape and leave the state alone. batchnorm casts the
    statistics to its input's dtype where they meet it.
    """

    mean: np.ndarray
    var: np.ndarray
    batches: int = 0
    eps: float = 1e-5


def batchnorm(tape, x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              training: bool) -> Tensor:
    """Per-channel normalization of (N, V, C) over the N and V axes, then ReLU.

    Training mode normalizes with the batch's statistics, eval mode with
    the state's. x is viewed as (N V, C). Each per-channel sum is a product
    with a ones vector and each per-channel sum of products a column-wise
    einsum, both several times faster than a numpy reduction over the two
    leading axes. The output is its own ReLU mask; backward rebuilds xhat
    from x. The ones vector and the state's statistics take x's dtype, so
    that no float64 operand promotes a float32 layer.
    """
    n, v, c = x.values.shape
    m = n * v
    x2 = x.values.reshape(m, c)
    ones = np.ones(m, x2.dtype)
    # y holds x - mean, then xhat, then the output, all in place
    if training:
        mean = (ones @ x2) / m
        y = x2 - mean
        var = np.einsum("ij,ij->j", y, y) / m
        if tape is None:  # the first term replaces the start values exactly
            state.batches += 1
            w = 1.0 / state.batches
            state.mean *= 1.0 - w
            state.mean += w * mean
            state.var *= 1.0 - w
            state.var += w * var
    else:
        mean = state.mean.astype(x2.dtype, copy=False)
        var = state.var.astype(x2.dtype, copy=False)
        y = x2 - mean
    invstd = 1.0 / np.sqrt(var + state.eps)
    y *= invstd
    y *= gamma.values
    y += beta.values
    out = Tensor(np.maximum(y, 0.0, out=y).reshape(n, v, c))

    def backward():
        g = (out.grad * (out.values > 0)).reshape(m, c)
        xhat = x2 - mean
        xhat *= invstd
        sum_g = ones @ g
        sum_gx = np.einsum("ij,ij->j", g, xhat)
        if beta.requires_grad:
            beta.add_grad(sum_g)
        if gamma.requires_grad:
            gamma.add_grad(sum_gx)
        if x.requires_grad:
            if training:
                dx = g - xhat * (sum_gx / m)
                dx -= sum_g / m
                dx *= gamma.values * invstd
            else:
                dx = g * (gamma.values * invstd)
            x.add_grad(dx.reshape(n, v, c))

    return _track(tape, out, (x, gamma, beta), backward)


def softplus(tape, x: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, x.values))

    def backward():
        # the logistic function, written so that exp never overflows
        t = np.exp(-np.abs(x.values))
        x.add_grad(out.grad * (np.where(x.values >= 0, 1.0, t) / (1.0 + t)))

    return _track(tape, out, (x,), backward)


def scale(tape, x: Tensor, s: float) -> Tensor:
    out = Tensor(x.values * s)

    def backward():
        x.add_grad(out.grad * s)

    return _track(tape, out, (x,), backward)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators, aligned with a parameter list.

    Each moment takes its parameter's dtype.
    """

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
