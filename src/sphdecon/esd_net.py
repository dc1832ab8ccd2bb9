"""Equivariant spherical deconvolution network.

A U-Net of polynomial graph convolutions on the Healpix hierarchy maps
the resampled signal (one channel per shell) to per-tissue nonnegative
spatial fODFs. The WM head is refit to even-degree coefficients and
convolved with the response functions to reconstruct the measured
samples; training minimizes reconstruction error plus a Cauchy sparsity
penalty and a squared hinge on negative fODF values.

The signal is antipodally even, and so is every activation: the graph
Laplacian commutes with the point reflection, and batchnorm, ReLU and
pooling act per vertex or per NESTED family. So the network runs on base
faces 0-5 of every level, the first half of its NESTED vertices, which
hold one vertex of each antipodal pair and are closed under pooling; each
level's convolutions use the folded Laplacian (sphere_grid). Sums over
the whole sphere are twice their sums over these vertices.

Batchnorm normalizes a training step with the batch's statistics; eval
mode uses statistics set after each epoch's steps from train-mode
forwards of that epoch's batches under its final weights ("precise BN"),
so they are never stale.

The network runs in float32: its parameters, batchnorm statistics,
activations and Adam moments. The input resampling, the loss with its
system matrix, and the SH refit run in float64; the network input is cast
down once, and the loss casts the head output up once and hands back a
float32 gradient.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import classical_csd as ccsd
from . import harmonics as sh
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import InvalidArgumentError, NumericalError

# fixed gain of the multi-tissue softplus head: fODF lobes live at ~10-20x
# the unit scale of normalized features, and Adam is slow to grow raw magnitudes
_HEAD_GAIN = 12.0
# voxels per eval forward in infer; larger chunks fall out of cache
_INFER_CHUNK = 32
_DTYPE = np.float32


@dataclass
class EsdConfig:
    nside_in: int = 8
    depth: int = 3
    channels: tuple[int, ...] = (16, 32, 64)
    poly_order: int = 4
    tissues: int = 1
    fodf_degree: int = 20
    lambda_sparsity: float = 1e-4
    sigma_cauchy: float = 1e-4
    lambda_nonneg: float = 1.0
    batch_size: int = 32
    lr: float = 1e-2
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        sg.check_nside(self.nside_in, "nside_in")
        if len(self.channels) != self.depth:
            raise InvalidArgumentError(
                f"channels {self.channels} must have one entry per level (depth {self.depth})"
            )
        if not 1 <= self.tissues <= 3:
            raise InvalidArgumentError("tissues must be 1, 2 or 3")
        # written as `not x >= low` so that NaN fails too
        for name, low in (("depth", 1), ("max_epochs", 1), ("batch_size", 1),
                          ("poly_order", 0), ("lambda_sparsity", 0), ("lambda_nonneg", 0)):
            if not getattr(self, name) >= low:
                raise InvalidArgumentError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        if not all(c >= 1 for c in self.channels):
            raise InvalidArgumentError(f"channels {self.channels} must each be at least 1")
        for name in ("sigma_cauchy", "lr"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.plateau_factor <= 1:  # a factor <= 0 turns descent into ascent
            raise InvalidArgumentError(
                f"plateau_factor must be in (0, 1], got {self.plateau_factor}")
        if self.nside_in >> (self.depth - 1) < 1:
            raise InvalidArgumentError(
                f"depth {self.depth} too large for nside_in {self.nside_in}"
            )

    @property
    def tissue_names(self):
        return sm.TISSUES[: self.tissues]


class EsdModel:
    """Parameters, normalization state, and grid hierarchy of one network."""

    def __init__(self, config: EsdConfig, shells):
        self.config = config
        # one input channel per shell, ascending as a GradientTable lists them
        self.shells = [float(b) for b in shells]
        self.grids = [sg.build_grid(config.nside_in >> i) for i in range(config.depth)]
        # the input level's vertices that the network runs on: base faces 0-5
        self.vertices = self.grids[0].vertices[: self.grids[0].n_vertices // 2]
        # built outside the grids' caches, so only the rescaled folded copies
        # are kept; each is scaled by the whole Laplacian's top eigenvalue
        self.laps = [sg.graph_laplacian(g, folded=True).rescaled(
            sg.estimate_lmax(sg.graph_laplacian(g))) for g in self.grids]
        self.params: dict = {}
        self.bn: dict = {}
        rng = np.random.default_rng([config.seed, 77])
        ch = config.channels
        self._add_block(rng, "enc0_0", len(self.shells), ch[0])
        self._add_block(rng, "enc0_1", ch[0], ch[0])
        for lvl in range(1, config.depth):
            self._add_block(rng, f"enc{lvl}_0", ch[lvl - 1], ch[lvl])
            self._add_block(rng, f"enc{lvl}_1", ch[lvl], ch[lvl])
        for lvl in range(config.depth - 2, -1, -1):
            self._add_block(rng, f"dec{lvl}_0", ch[lvl + 1] + ch[lvl], ch[lvl])
            self._add_block(rng, f"dec{lvl}_1", ch[lvl], ch[lvl])
        if config.tissues == 1:
            self._add_block(rng, "head", ch[0], 1)
        else:  # small init: the output starts near zero, _HEAD_GAIN sets its scale
            self.params["head_w"] = ad.Tensor(
                0.05 * self._init_weights(rng, ch[0], config.tissues), requires_grad=True
            )

    def _init_weights(self, rng, c_in, c_out):
        p1 = self.config.poly_order + 1
        bound = np.sqrt(6.0 / (p1 * c_in + c_out))
        return rng.uniform(-bound, bound, size=(p1, c_in, c_out)).astype(_DTYPE)

    def _add_block(self, rng, name, c_in, c_out):
        self.params[f"{name}_w"] = ad.Tensor(
            self._init_weights(rng, c_in, c_out), requires_grad=True
        )
        self.params[f"{name}_gamma"] = ad.Tensor(np.ones(c_out, _DTYPE), requires_grad=True)
        self.params[f"{name}_beta"] = ad.Tensor(np.zeros(c_out, _DTYPE), requires_grad=True)
        self.bn[name] = ad.BatchNormState(np.zeros(c_out, _DTYPE), np.ones(c_out, _DTYPE))

    def parameters(self):
        return list(self.params.values())

    def state_dict(self):
        return {
            "params": {k: t.values.copy() for k, t in self.params.items()},
            "bn": {k: (s.mean.copy(), s.var.copy()) for k, s in self.bn.items()},
        }

    def load_state(self, state):
        """Copy values into the model's arrays, rounding them to its float32."""
        for k, vals in state["params"].items():
            self.params[k].values[...] = vals
        for k, (mean, var) in state["bn"].items():
            self.bn[k].mean[...] = mean
            self.bn[k].var[...] = var

    def _block(self, tape, name, x, lvl, training, skip=None):
        """conv, batchnorm and ReLU; with a skip, x is the coarser level,
        unpooled onto the skip's vertices and joined to its channels.

        The conv is the last forward reader of x and skip, so their values
        are released here if they can be rebuilt (block outputs on a tape).
        """
        w = self.params[f"{name}_w"]
        if skip is None:
            h = ad.graph_conv(tape, x, w, self.laps[lvl])
        else:
            h = ad.unpool_conv(tape, x, skip, w, self.laps[lvl])
            skip.release()
        x.release()
        return ad.batchnorm(  # includes the block's ReLU
            tape, h, self.params[f"{name}_gamma"], self.params[f"{name}_beta"],
            self.bn[name], training,
        )

    def forward(self, tape, x: ad.Tensor, training: bool = False) -> ad.Tensor:
        """(N, V, C_in) -> (N, V, T) nonnegative per-tissue fields on the
        N = len(self.vertices) network vertices.

        In training mode without a tape, the forward is a statistics pass
        (see precise_statistics). On a tape, the tape pins each conv
        block's conv output, which its batchnorm's backward keeps; the
        block's output is released once its last forward reader has run
        and rebuilt from the conv output when backward reads it.
        """
        config = self.config
        skips = []
        h = x
        for lvl in range(config.depth):
            h = self._block(tape, f"enc{lvl}_0", h, lvl, training)
            h = self._block(tape, f"enc{lvl}_1", h, lvl, training)
            if lvl < config.depth - 1:
                skips.append(h)
                h = ad.healpix_maxpool(tape, h)
        for lvl in range(config.depth - 2, -1, -1):
            h = self._block(tape, f"dec{lvl}_0", h, lvl, training, skips.pop())
            h = self._block(tape, f"dec{lvl}_1", h, lvl, training)
        if config.tissues == 1:  # WM alone: one more conv block
            return self._block(tape, "head", h, 0, training)
        head = ad.graph_conv(tape, h, self.params["head_w"], self.laps[0])
        h.release()
        return ad.scale(tape, ad.softplus(tape, head), _HEAD_GAIN)

    def precise_statistics(self, x: np.ndarray, batches):
        """Set each block's statistics to the mean of its train-mode batch
        statistics over batches (index arrays into x's voxels), under the
        current weights."""
        for state in self.bn.values():
            state.batches = 0
        for idx in batches:
            self.forward(None, ad.Tensor(x[:, idx]), training=True)


def heads_to_fodf(outputs: np.ndarray, fit: np.ndarray) -> dict:
    """Per-tissue fODF coefficients of (N, V, T) head outputs.

    WM: even-degree SH refit of channel 0 by the vertices' (L, N) fit matrix;
    isotropic tissues: max over vertices of their channel. Both in float64.
    """
    outputs = outputs.astype(np.float64, copy=False)
    coeffs = {"wm": outputs[:, :, 0].T @ fit.T}
    for i, t in enumerate(sm.TISSUES[1 : outputs.shape[2]], start=1):
        coeffs[t] = outputs[:, :, i].max(axis=0)[:, None]
    return coeffs


class LossContext:
    """Constant matrices shared by every loss evaluation of one dataset.

    The forward operator is CSD's stacked system matrix at the fODF
    degree, kept transposed: samples = [wm coeffs, iso maxima] @ a_t.
    """

    def __init__(self, model: EsdModel, gradients: sm.GradientTable, rfs: dict):
        config = model.config
        missing = [t for t in config.tissue_names if t not in rfs]
        if missing:
            raise InvalidArgumentError(
                f"model tissues {missing} have no response function (have {sorted(rfs)})"
            )
        basis = sh.ShBasis(config.fodf_degree)
        A, _ = ccsd.system_matrix(
            gradients, {t: rfs[t] for t in config.tissue_names}, basis
        )
        self.a_t = np.ascontiguousarray(A.T)  # (L + T - 1, samples)
        self.y_grid = sh.design_matrix(basis, model.vertices)  # (L, N)
        self.fit_t = sh.fit_from_design(self.y_grid).T  # (N, L)


def esd_loss(tape, model: EsdModel, outputs: ad.Tensor, targets: np.ndarray,
             ctx: LossContext):
    """Three-term objective as one op; returns (loss tensor, logged term values).

    targets is (V, samples) in the system matrix's row order, as
    network_inputs returns it. The WM channel refit to SH coefficients and
    each isotropic channel's (first) maximum reconstruct the samples; the
    sparsity and negativity terms act on the refit WM fODF on the whole
    grid, twice its sums over the network's vertices. The terms are
    computed in float64 from the outputs cast up once, and the outputs'
    gradient has their dtype.
    """
    config = model.config
    two_s2 = 2.0 * config.sigma_cauchy * config.sigma_cauchy
    vals = outputs.values.astype(np.float64, copy=False)
    f_wm = vals[:, :, 0].T.copy() @ ctx.fit_t
    arg = np.argmax(vals[:, :, 1:], axis=0)  # (V, T - 1)
    iso = np.take_along_axis(vals[:, :, 1:], arg[None], axis=0)[0]
    diff = np.concatenate([f_wm, iso], axis=1) @ ctx.a_t - targets
    recon = np.sum(diff * diff)
    grid = f_wm @ ctx.y_grid
    sparsity = 2.0 * np.sum(np.log1p(grid * grid / two_s2))
    neg = np.minimum(grid, 0.0)
    negativity = 2.0 * np.sum(neg * neg)
    total = ad.Tensor(
        recon + sparsity * config.lambda_sparsity + negativity * config.lambda_nonneg
    )

    def backward():
        s = total.grad
        d_coeffs = (2.0 * diff * s) @ ctx.a_t.T
        d_grid = 4.0 * neg * (s * config.lambda_nonneg)
        d_grid += (s * config.lambda_sparsity) * (4.0 * grid) / (two_s2 + grid * grid)
        d_wm = d_grid @ ctx.y_grid.T
        d_wm += d_coeffs[:, : f_wm.shape[1]]
        g = np.zeros_like(outputs.values)
        g[:, :, 0] += (d_wm @ ctx.fit_t.T).T
        rows = np.arange(vals.shape[1])[:, None]
        g[arg, rows, np.arange(1, vals.shape[2])] += d_coeffs[:, f_wm.shape[1] :]
        outputs.add_grad(g)

    if tape is not None and outputs.requires_grad:
        total.requires_grad = True
        tape.record(backward)
    terms = {
        "reconstruction": float(recon),
        "sparsity": float(sparsity),
        "negativity": float(negativity),
        "total": float(total.values),
    }
    for name in ("reconstruction", "sparsity", "negativity"):
        if not np.isfinite(terms[name]):
            raise NumericalError(f"loss term '{name}' is not finite")
    return total, terms


def _input_matrices(model: EsdModel, table: sm.GradientTable) -> list:
    """Each shell's resampling matrices onto the network's vertices, in shell order."""
    if table.shells != model.shells:
        raise InvalidArgumentError(
            f"batch shells {table.shells} do not match the model's {model.shells}"
        )
    return [sh.resample_matrices(table.directions[b], model.vertices) for b in table.shells]


def _resampled(batch: sm.VoxelBatch, matrices: list) -> np.ndarray:
    """The float32 (N, V, C_in) network input of a b=0-normalized batch.

    A resampled value beyond float32's finite range is refused, not cast.
    """
    x = np.empty((matrices[0][1].shape[1], batch.n_voxels, len(matrices)), _DTYPE)
    for i, (b, mats) in enumerate(zip(batch.gradients.shells, matrices)):
        channel = sh.resample(batch.shell(b), mats)
        if np.abs(channel).max(initial=0.0) > np.finfo(_DTYPE).max:
            raise InvalidArgumentError(
                f"the b={b} signals resample beyond float32's range on the input grid")
        x[:, :, i] = channel.T
    return x


def network_inputs(model: EsdModel, batch: sm.VoxelBatch) -> tuple:
    """Resample a batch onto the network's vertices; returns (x array, targets).

    x is the float32 (N, V, C_in) network input, with one channel per shell
    in ascending order, resampled in float64 and cast once. targets is the
    (V, samples) b=0-normalized signal matrix, whose columns are the system
    matrix's rows.
    """
    matrices = _input_matrices(model, batch.gradients)
    batch = batch.b0_normalized()
    return _resampled(batch, matrices), batch.signals


@dataclass
class TrainResult:
    log: list
    best_val_loss: float
    best_epoch: int


def _summarize(config, sums, n):
    """Per-voxel term means with the total recomputed from the logged terms."""
    out = {
        "reconstruction": sums[0] / n,
        "sparsity": sums[1] / n,
        "negativity": sums[2] / n,
    }
    out["total"] = (
        out["reconstruction"]
        + config.lambda_sparsity * out["sparsity"]
        + config.lambda_nonneg * out["negativity"]
    )
    return out


def _live_voxels(out: ad.Tensor) -> int:
    """The number of voxels whose WM output is not all zero."""
    return int(np.count_nonzero(np.any(out.values[:, :, 0] != 0, axis=0)))


def _epoch_loss(model, ctx, x_all, targets, indices, batch_size):
    """Eval-mode loss over a split, summed then normalized per voxel.

    live_frac is the fraction of the split's voxels whose WM output is not all zero.
    """
    sums = np.zeros(3)
    live = 0
    for lo in range(0, len(indices), batch_size):
        idx = indices[lo : lo + batch_size]
        x = ad.Tensor(x_all[:, idx])
        out = model.forward(None, x, training=False)
        _, terms = esd_loss(None, model, out, targets[idx], ctx)
        sums += [terms["reconstruction"], terms["sparsity"], terms["negativity"]]
        live += _live_voxels(out)
    n = max(len(indices), 1)
    return dict(_summarize(model.config, sums, n), live_frac=live / n)


def _grad_norm(params) -> float:
    """The global L2 norm of the parameters' gradients, summed in float64."""
    return float(np.sqrt(sum(np.sum(np.square(p.grad, dtype=np.float64))
                             for p in params if p.grad is not None)))


def train(model: EsdModel, train_batch: sm.VoxelBatch, val_batch: sm.VoxelBatch,
          rfs: dict) -> TrainResult:
    """Optimize the model on one dataset; deterministic for a fixed seed.

    The validation loss uses the training set's forward operator, so the
    two sets must share one gradient table.
    """
    if train_batch.gradients != val_batch.gradients:
        raise InvalidArgumentError(
            "the validation set's gradient table (b=0 count, shells or directions) "
            "differs from the training set's"
        )
    config = model.config
    ctx = LossContext(model, train_batch.gradients, rfs)
    x_train, t_train = network_inputs(model, train_batch)
    x_val, t_val = network_inputs(model, val_batch)

    params = model.parameters()
    adam = ad.AdamState.for_params(params)
    lr = config.lr
    best_val = np.inf
    best_state = model.state_dict()
    best_epoch = -1
    wait = 0
    log = []
    n_train = x_train.shape[1]
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng([config.seed, 13, epoch]).permutation(n_train)
        train_sums = np.zeros(3)
        train_live = 0
        norms = []
        batches = [order[lo : lo + config.batch_size]
                   for lo in range(0, n_train, config.batch_size)]
        for idx in batches:
            tape = ad.Tape()
            x = ad.Tensor(x_train[:, idx])
            out = model.forward(tape, x, training=True)
            train_live += _live_voxels(out)
            loss, terms = esd_loss(tape, model, out, t_train[idx], ctx)
            ad.zero_grads(params)
            tape.backward(loss)
            norms.append(_grad_norm(params))
            ad.adam_step(params, adam, lr)
            train_sums += [
                terms["reconstruction"], terms["sparsity"], terms["negativity"]
            ]
        model.precise_statistics(x_train, batches)
        val = _epoch_loss(model, ctx, x_val, t_val, np.arange(x_val.shape[1]),
                          config.batch_size)
        record = {
            "epoch": epoch,
            "lr": lr,
            "val": val,
            "train": dict(_summarize(config, train_sums, n_train),
                          live_frac=train_live / max(n_train, 1)),
            "grad_norm": sum(norms) / max(len(norms), 1),
            "elapsed_ms": round(1000.0 * (time.perf_counter() - t0), 3),
        }
        log.append(record)
        if val["total"] < best_val:
            best_val = val["total"]
            best_state = model.state_dict()
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait >= config.plateau_patience:
                lr *= config.plateau_factor
                wait = 0
    model.load_state(best_state)
    return TrainResult(log, float(best_val), best_epoch)


def infer(model: EsdModel, batch: sm.VoxelBatch) -> ccsd.FodfField:
    """Eval-mode deconvolution of a batch; returns fODF coefficients.

    Each chunk is resampled as it enters the network and refit as it
    leaves it, so the chunk sets memory; the resampling and fit matrices
    are built once per call.
    """
    matrices = _input_matrices(model, batch.gradients)
    basis = sh.ShBasis(model.config.fodf_degree)
    fit = sh.fit_matrix(model.vertices, basis.l_max)
    coeffs = {t: np.empty((batch.n_voxels, basis.L if t == "wm" else 1))
              for t in model.config.tissue_names}
    for lo in range(0, batch.n_voxels, _INFER_CHUNK):
        chunk = batch.subset(slice(lo, lo + _INFER_CHUNK)).b0_normalized()
        x = _resampled(chunk, matrices)
        out = model.forward(None, ad.Tensor(x), training=False)
        for t, c in heads_to_fodf(out.values, fit).items():
            coeffs[t][lo : lo + len(c)] = c
    return ccsd.FodfField(coeffs, basis)
