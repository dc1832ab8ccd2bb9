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
and the skip connection folded in, so its widest input is never built.
graph_conv picks its product order from the weight shape: it applies the
Laplacian after mixing channels when the filter does not widen
(C_out <= C_in), and to the input otherwise. Either way the powers of
the Laplacian are taken one at a time, in forward and in backward, so no
(P+1)-wide stack is ever built.

What the tape pins: a convolution's backward keeps its input tensors and
reads their values only when it runs, and the pool keeps its winner
offsets. batchnorm's backward keeps its input, the conv output, with
per-channel statistics, and its output gets a rebuild from them
(Tensor.read). A caller that releases each block output after its last
forward reader, as the ESD network does, leaves one (N, V, C) array per
conv block on the tape, besides the network input and the pooled arrays.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError


class Tensor:
    """Dense floating-point array with an optional accumulated gradient.

    A float32 or float64 array keeps its dtype; anything else becomes float64.
    An op recording on a tape may give its output a rebuild: a function
    that recomputes the values byte for byte from what the op's backward
    keeps anyway. Such a tensor's values can be released once its last
    forward reader has run, and read() rebuilds them for backward readers.
    """

    __slots__ = ("values", "grad", "requires_grad", "rebuild")

    def __init__(self, values, requires_grad=False):
        values = np.asarray(values)
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values
        self.requires_grad = requires_grad
        self.grad = None
        self.rebuild = None

    def read(self):
        """The values, rebuilt and kept again if they were released."""
        if self.values is None:
            self.values = self.rebuild()
        return self.values

    def release(self):
        """Drop the values if a rebuild can recompute them."""
        if self.rebuild is not None:
            self.values = None

    def add_grad(self, g):
        """Add g to the gradient; with none yet, g becomes the gradient.

        So g is handed over: an array the caller allocated and no longer
        reads or writes, not a view of another array. The tensor owns its
        gradient, and the backward of the op that made the tensor, which
        runs after every reader's has added to it, may overwrite it.
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
    narrower side of the filter, one power at a time, so no (P+1)-wide
    stack is ever built; backward reads x through the tensor, so a
    released x is rebuilt rather than kept:

    - C_out <= C_in: Horner, y = u_0 + L(u_1 + L(... u_P)), runs on C_out
      columns, each u_p = x W_p formed as the sum reaches it. Backward
      walks the powers g_p = L^p g of the output gradient, taking
      dW_p = x^T g_p and adding g_p W_p^T to dx.
    - C_out > C_in: y sums (L^p x) W_p over the powers of x. Backward
      walks them again for dW_p = (L^p x)^T g; dx runs Horner on C_in
      columns. The forward powers are taken of x less the mean over
      vertices of each (voxel, channel) column, so that the operator,
      which the kernel rounds to x's dtype, never carries a large
      constant part: batchnorm would amplify its rounding on a channel
      that barely varies.
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
    w = weights.values

    if c_out <= c_in:
        x2 = x.values.reshape(n * v, c_in)
        out = Tensor(_horner(lap, lambda p: x2 @ w[p], p1).reshape(n, v, c_out))

        def backward():
            x2 = x.read().reshape(n * v, c_in) if weights.requires_grad else None
            dw = np.empty_like(w)
            dx = None
            for p, g in enumerate(_powers(lap, out.grad.reshape(n * v, c_out), p1)):
                if weights.requires_grad:
                    dw[p] = x2.T @ g
                if x.requires_grad:  # np.dot: see _powers
                    dx = _added(dx, np.dot(g, w[p].T))
            if weights.requires_grad:
                weights.add_grad(dw)
            if x.requires_grad:
                x.add_grad(dx.reshape(n, v, c_in))

        return _track(tape, out, (x, weights), backward)

    # L^p takes each column's vertex mean m to (-1)^p m, so the powers run
    # on the rest and m's share is added exactly. A contiguous copy fixes
    # the mean's sum order whatever x's layout.
    xc = np.ascontiguousarray(x.values)
    mean = ((np.ones(n, xc.dtype) @ xc.reshape(n, v * c_in)) / n).reshape(v, c_in)
    y = None
    for p, xp in enumerate(_powers(lap, (xc - mean).reshape(n * v, c_in), p1)):
        y = _added(y, np.dot(xp, w[p]))  # see _powers
    y = y.reshape(n, v, c_out)
    y += (mean @ np.einsum("p,pio->io", (-1.0) ** np.arange(p1), w)).astype(y.dtype)
    out = Tensor(y)

    def backward():
        g = out.grad.reshape(n * v, c_out)
        if weights.requires_grad:
            dw = np.empty_like(w)
            for p, xp in enumerate(_powers(lap, x.read().reshape(n * v, c_in), p1)):
                dw[p] = xp.T @ g
            weights.add_grad(dw)
        if x.requires_grad:
            # L is symmetric: dx = sum_p L^p (g W_p^T)
            x.add_grad(_horner(lap, lambda p: g @ w[p].T, p1).reshape(n, v, c_in))

    return _track(tape, out, (x, weights), backward)


def _added(acc, term):
    """acc + term, in acc's buffer; term, a fresh array, starts the sum."""
    if acc is None:
        return term
    acc += term
    return acc


def _powers(lap, x, p1):
    """x, Lx, ..., L^(p1-1) x of an (N V, C) array, one at a time.

    The operator sees each power as (N, V C), vertices first. A product of
    a power with one column goes through np.dot: numpy's matmul runs an
    inner dimension of 1 outside BLAS, about 5 times slower.
    """
    yield x
    for _ in range(1, p1):
        x = lap.matmul(x.reshape(lap.n, -1)).reshape(x.shape)
        yield x


def _horner(lap, term, p1):
    """sum_p L^p term(p) over p < p1, as an (N V, C) array.

    term(p) returns a fresh (N V, C) array, called as the sum reaches it.
    """
    acc = term(p1 - 1)
    for p in range(p1 - 2, -1, -1):
        acc = lap.matmul(acc.reshape(lap.n, -1)).reshape(acc.shape)
        acc += term(p)
    return acc


def healpix_maxpool(tape, x: Tensor) -> Tensor:
    """Max over the 4 NESTED children, which are 4 consecutive vertex rows.

    Without a tape nothing reads the winners, so the max alone is taken.
    Backward reads the winners alone, never x's values.
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
    C_out) with C_out <= C + C_skip; returns (4 N, V, C_out). The unpooled
    input is never built: each Horner term u_p is skip's channels mixed on
    the 4 N fine rows plus coarse's mixed on the N coarse rows and copied
    to their 4 children. Backward walks the output gradient's powers like
    graph_conv's narrow side, summing each over the 4 children once for
    coarse's share, and reads coarse and skip through their tensors, so a
    released one is rebuilt rather than kept.
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
    w = weights.values
    c_skip = c_in - c
    coarse2 = coarse.values.reshape(n * v, c)
    skip2 = skip.values.reshape(4 * n * v, c_skip)

    def term(p):
        u = skip2 @ w[p, c:]
        fine = u.reshape(n, 4, v * c_out)
        fine += (coarse2 @ w[p, :c]).reshape(n, 1, v * c_out)
        return u

    out = Tensor(_horner(lap, term, p1).reshape(4 * n, v, c_out))

    def backward():
        need_w = weights.requires_grad
        coarse2 = coarse.read().reshape(n * v, c) if need_w else None
        skip2 = skip.read().reshape(4 * n * v, c_skip) if need_w else None
        dw = np.empty_like(w)
        d_coarse = d_skip = None
        for p, g in enumerate(_powers(lap, out.grad.reshape(4 * n * v, c_out), p1)):
            # the coarse rows' share: g summed over each vertex's 4 children
            g_up = g.reshape(n, 4, v * c_out).sum(axis=1).reshape(n * v, c_out)
            if need_w:
                dw[p, :c] = coarse2.T @ g_up
                dw[p, c:] = skip2.T @ g
            if coarse.requires_grad:
                d_coarse = _added(d_coarse, g_up @ w[p, :c].T)
            if skip.requires_grad:
                d_skip = _added(d_skip, g @ w[p, c:].T)
        if need_w:
            weights.add_grad(dw)
        if coarse.requires_grad:
            coarse.add_grad(d_coarse.reshape(n, v, c))
        if skip.requires_grad:
            skip.add_grad(d_skip.reshape(4 * n, v, c_skip))

    return _track(tape, out, (coarse, skip, weights), backward)


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
    leading axes. Backward keeps x and the per-channel statistics: it
    takes the ReLU mask from the output (rebuilt if it was released),
    overwrites the output's gradient with its masked copy, rebuilds xhat
    from x and forms dx in xhat's buffer. On a
    tape the output gets a rebuild, the forward's ops in the forward's
    order on x, so its values can be released. The ones vector and the
    state's statistics take x's dtype, so that no float64 operand promotes
    a float32 layer.
    """
    n, v, c = x.values.shape
    m = n * v
    x2 = x.values.reshape(m, c)
    ones = np.ones(m, x2.dtype)
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
    out = Tensor(_normalized_relu(y, invstd, gamma, beta).reshape(n, v, c))

    def backward():
        g = out.grad.reshape(m, c)
        np.multiply(g, out.read().reshape(m, c) > 0, out=g)  # through the ReLU
        xhat = x.values.reshape(m, c) - mean
        xhat *= invstd
        sum_g = ones @ g
        sum_gx = np.einsum("ij,ij->j", g, xhat)
        if beta.requires_grad:
            beta.add_grad(sum_g)
        if gamma.requires_grad:
            gamma.add_grad(sum_gx)
        if x.requires_grad:
            if training:  # dx = (g - xhat sum_gx / m - sum_g / m) gamma invstd
                dx = xhat
                dx *= -(sum_gx / m)
                dx += g
                dx -= sum_g / m
                dx *= gamma.values * invstd
            else:
                dx = g * (gamma.values * invstd)
            x.add_grad(dx.reshape(n, v, c))

    out = _track(tape, out, (x, gamma, beta), backward)
    if out.requires_grad:
        out.rebuild = lambda: _normalized_relu(
            x.values.reshape(m, c) - mean, invstd, gamma, beta).reshape(n, v, c)
    return out


def _normalized_relu(y, invstd, gamma, beta):
    """ReLU(y invstd gamma + beta) of a fresh (N V, C) array y = x - mean, in place."""
    y *= invstd
    y *= gamma.values
    y += beta.values
    return np.maximum(y, 0.0, out=y)


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
