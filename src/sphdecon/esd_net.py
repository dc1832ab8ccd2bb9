"""Equivariant spherical deconvolution network.

A U-Net of polynomial graph convolutions on the Healpix hierarchy maps
the resampled signal (one channel per shell, optionally plus a baseline
deconvolution channel) to per-tissue nonnegative spatial fODFs. The WM
head is refit to even-degree coefficients and convolved with the response
functions to reconstruct the measured samples; training minimizes
reconstruction error plus a Cauchy sparsity penalty and a squared hinge
on negative fODF values.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import classical_csd as ccsd
from . import harmonics as sh
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import InvalidArgumentError, NumericalError

_TISSUE_ORDER = ("wm", "gm", "csf")


@dataclass
class EsdConfig:
    nside_in: int = 8
    depth: int = 3
    channels: tuple = (16, 32, 64)
    poly_order: int = 4
    tissues: int = 1
    fodf_degree: int = 20
    lambda_sparsity: float = 1e-4
    sigma_cauchy: float = 1e-4
    lambda_nonneg: float = 1.0
    head_gain: float = 12.0
    batch_size: int = 32
    lr: float = 1e-2
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    max_epochs: int = 30
    use_csd_input: bool = False
    seed: int = 0

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if len(self.channels) != self.depth:
            raise InvalidArgumentError(
                f"channels {self.channels} must have one entry per level (depth {self.depth})"
            )
        if not 1 <= self.tissues <= 3:
            raise InvalidArgumentError("tissues must be 1, 2 or 3")
        if self.sigma_cauchy <= 0:
            raise InvalidArgumentError("sigma_cauchy must be positive")
        if self.max_epochs < 1:
            raise InvalidArgumentError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.nside_in >> (self.depth - 1) < 1:
            raise InvalidArgumentError(
                f"depth {self.depth} too large for nside_in {self.nside_in}"
            )

    @property
    def tissue_names(self):
        return _TISSUE_ORDER[: self.tissues]


class EsdModel:
    """Parameters, normalization state, and grid hierarchy of one network."""

    def __init__(self, config: EsdConfig, in_channels: int):
        self.config = config
        self.in_channels = in_channels
        self.shells = None  # pinned on first training, checked at inference
        self.grids = [sg.build_grid(config.nside_in >> i) for i in range(config.depth)]
        self.laps = [
            ad.scaled_laplacian(g.laplacian, sg.estimate_lmax(g)) for g in self.grids
        ]
        self.params: dict = {}
        self.bn: dict = {}
        rng = np.random.default_rng([config.seed, 77])
        ch = config.channels
        self._add_block(rng, "enc0_0", in_channels, ch[0])
        self._add_block(rng, "enc0_1", ch[0], ch[0])
        for lvl in range(1, config.depth):
            self._add_block(rng, f"enc{lvl}_0", ch[lvl - 1], ch[lvl])
            self._add_block(rng, f"enc{lvl}_1", ch[lvl], ch[lvl])
        for lvl in range(config.depth - 2, -1, -1):
            self._add_block(rng, f"dec{lvl}_0", ch[lvl + 1] + ch[lvl], ch[lvl])
            self._add_block(rng, f"dec{lvl}_1", ch[lvl], ch[lvl])
        # small head init: the output starts near zero (but alive through
        # the rectifier) and head_gain supplies the eventual fODF scale
        self.params["head_w"] = ad.Tensor(
            0.05 * self._init_weights(rng, ch[0], config.tissues), requires_grad=True
        )

    def _init_weights(self, rng, c_in, c_out):
        p1 = self.config.poly_order + 1
        bound = np.sqrt(6.0 / (p1 * c_in + c_out))
        return rng.uniform(-bound, bound, size=(p1, c_in, c_out))

    def _add_block(self, rng, name, c_in, c_out):
        self.params[f"{name}_w"] = ad.Tensor(
            self._init_weights(rng, c_in, c_out), requires_grad=True
        )
        self.params[f"{name}_gamma"] = ad.Tensor(np.ones(c_out), requires_grad=True)
        self.params[f"{name}_beta"] = ad.Tensor(np.zeros(c_out), requires_grad=True)
        self.bn[name] = ad.BatchNormState.for_channels(c_out)

    def parameters(self):
        return list(self.params.values())

    def state_dict(self):
        return {
            "params": {k: t.values.copy() for k, t in self.params.items()},
            "bn": {
                k: (s.running_mean.copy(), s.running_var.copy()) for k, s in self.bn.items()
            },
        }

    def load_state(self, state):
        for k, vals in state["params"].items():
            self.params[k].values[...] = vals
        for k, (mean, var) in state["bn"].items():
            self.bn[k].running_mean[...] = mean
            self.bn[k].running_var[...] = var

    def _block(self, tape, name, x, lvl, training):
        h = ad.graph_conv(tape, x, self.params[f"{name}_w"], self.laps[lvl])
        h = ad.batchnorm(
            tape, h, self.params[f"{name}_gamma"], self.params[f"{name}_beta"],
            self.bn[name], training,
        )
        return ad.relu(tape, h)

    def forward(self, tape, x: ad.Tensor, training: bool = False) -> ad.Tensor:
        """(N, V, C_in) -> (N, V, T) nonnegative per-tissue fields."""
        config = self.config
        skips = []
        h = x
        for lvl in range(config.depth):
            h = self._block(tape, f"enc{lvl}_0", h, lvl, training)
            h = self._block(tape, f"enc{lvl}_1", h, lvl, training)
            if lvl < config.depth - 1:
                skips.append(h)
                h, _ = ad.healpix_maxpool(tape, h)
        for lvl in range(config.depth - 2, -1, -1):
            h = ad.healpix_unpool(tape, h)
            h = ad.concat(tape, [h, skips[lvl]])
            h = self._block(tape, f"dec{lvl}_0", h, lvl, training)
            h = self._block(tape, f"dec{lvl}_1", h, lvl, training)
        h = ad.graph_conv(tape, h, self.params["head_w"], self.laps[0])
        h = ad.softplus(tape, h) if config.tissues > 1 else ad.relu(tape, h)
        # fixed output gain: fODF lobes live at ~10-20x the unit scale of
        # normalized features, and Adam is slow to grow raw magnitudes
        return ad.scale(tape, h, config.head_gain)


def build_model(config: EsdConfig, in_channels: int) -> EsdModel:
    """Construct a model with seeded, deterministic initialization."""
    return EsdModel(config, in_channels)


def heads_to_fodf(outputs: np.ndarray, grid, l_max: int = 20) -> ccsd.FodfField:
    """Convert (N, V, T) head outputs to fODF coefficients.

    WM: even-degree SH refit of channel 0 on the grid; isotropic tissues:
    max over vertices of their channel.
    """
    basis = sh.ShBasis(l_max)
    fit = sh.fit_matrix(grid.vertices, l_max)
    coeffs = {"wm": outputs[:, :, 0].T @ fit.T}
    for i, t in enumerate(_TISSUE_ORDER[1 : outputs.shape[2]], start=1):
        coeffs[t] = outputs[:, :, i].max(axis=0)[:, None]
    return ccsd.FodfField(coeffs, basis)


class LossContext:
    """Constant matrices shared by every loss evaluation of one dataset."""

    def __init__(self, model: EsdModel, gradients: sm.GradientTable, rfs: dict):
        config = model.config
        basis = sh.ShBasis(config.fodf_degree)
        grid = model.grids[0]
        self.basis = basis
        self.gradients = gradients
        self.fit_t = sh.fit_matrix(grid.vertices, config.fodf_degree).T  # (N, L)
        self.y_grid = sh.design_matrix(basis, grid.vertices).Y  # (L, N)
        self.shell_ops = {}
        for b in gradients.shells:
            Y = sh.design_matrix(basis, gradients.directions[b]).Y
            ry = sm.rf_diagonal(rfs["wm"], basis, b)[:, None] * Y  # (L, n_b)
            iso = {
                t: float(rfs[t].r[b][0]) for t in config.tissue_names if t != "wm"
            }
            self.shell_ops[b] = (ry, iso)
        self.b0 = None
        if gradients.b0_count:
            self.b0 = {t: float(rfs[t].r[0][0]) for t in config.tissue_names}


def esd_loss(tape, model: EsdModel, outputs: ad.Tensor, targets: dict,
             ctx: LossContext):
    """Three-term objective; returns (loss tensor, logged term values)."""
    config = model.config
    f_wm = ad.linear(tape, ad.take_channel(tape, outputs, 0), ctx.fit_t)
    iso = {}
    for i, t in enumerate(config.tissue_names[1:], start=1):
        iso[t] = ad.reduce_max(tape, ad.take_channel(tape, outputs, i))

    recon = None
    for b in ctx.gradients.shells:
        ry, iso_scale = ctx.shell_ops[b]
        pred = ad.linear(tape, f_wm, ry)
        for t, f_t in iso.items():
            pred = ad.add_outer(tape, pred, f_t, iso_scale[t])
        term = ad.sq_err_sum(tape, pred, targets[b])
        recon = term if recon is None else ad.add(tape, recon, term)
    if ctx.b0 is not None:
        pred0 = ad.scale(tape, ad.column(tape, f_wm, 0), ctx.b0["wm"])
        for t, f_t in iso.items():
            pred0 = ad.add(tape, pred0, ad.scale(tape, f_t, ctx.b0[t]))
        recon = ad.add(tape, recon, ad.sq_err_sum_bcast(tape, pred0, targets[0]))

    grid_vals = ad.linear(tape, f_wm, ctx.y_grid)
    sparsity = ad.cauchy_sum(tape, grid_vals, config.sigma_cauchy)
    negativity = ad.neg_part_sq_sum(tape, grid_vals)

    total = ad.add(
        tape,
        ad.add(tape, recon, ad.scale(tape, sparsity, config.lambda_sparsity)),
        ad.scale(tape, negativity, config.lambda_nonneg),
    )
    terms = {
        "reconstruction": recon.item(),
        "sparsity": sparsity.item(),
        "negativity": negativity.item(),
        "total": total.item(),
    }
    for name in ("reconstruction", "sparsity", "negativity"):
        if not np.isfinite(terms[name]):
            raise NumericalError(f"loss term '{name}' is not finite")
    return total, terms


def b0_normalize(batch: sm.VoxelBatch):
    """Divide every voxel's samples by its mean b=0 signal.

    Returns (normalized signals dict, per-voxel norms). Voxels without
    b=0 samples keep scale 1.
    """
    if 0 in batch.signals:
        norms = batch.signals[0].mean(axis=1)
        norms = np.where(norms > 0, norms, 1.0)
    else:
        norms = np.ones(batch.n_voxels)
    return {b: s / norms[:, None] for b, s in batch.signals.items()}, norms


def network_inputs(model: EsdModel, batch: sm.VoxelBatch, rfs=None,
                   csd_config=None) -> tuple:
    """Resample a batch onto the input grid; returns (x array, targets).

    x is (N, V, C_in) with one channel per shell in ascending order, plus
    the baseline deconvolution channel when the model was built with
    use_csd_input. targets maps shell -> normalized samples.
    """
    signals, _ = b0_normalize(batch)
    grid = model.grids[0]
    shells = sorted(batch.gradients.shells)
    if model.shells is not None and [float(b) for b in shells] != sorted(model.shells):
        raise InvalidArgumentError(
            f"batch shells {shells} do not match the model's {sorted(model.shells)}"
        )
    channels = [
        sh.resample(signals[b], batch.gradients.directions[b], grid) for b in shells
    ]
    if model.config.use_csd_input:
        if rfs is None:
            raise InvalidArgumentError("use_csd_input needs response functions")
        normalized = sm.VoxelBatch(signals, batch.gradients)
        csd_field = ccsd.csd_solve(normalized, rfs, csd_config)
        channels.append(ccsd.fodf_values(csd_field, grid)["wm"])
    x = np.stack([c.T for c in channels], axis=-1)
    if x.shape[2] != model.in_channels:
        raise InvalidArgumentError(
            f"batch yields {x.shape[2]} input channels, model expects {model.in_channels}"
        )
    return x, signals


@dataclass
class TrainResult:
    log: list
    best_state: dict
    best_val_loss: float
    best_epoch: int
    adam: ad.AdamState = None


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


def _epoch_loss(model, ctx, x_all, targets, indices, batch_size):
    """Eval-mode loss over a split, summed then normalized per voxel."""
    sums = np.zeros(3)
    for lo in range(0, len(indices), batch_size):
        idx = indices[lo : lo + batch_size]
        x = ad.Tensor(x_all[:, idx])
        out = model.forward(None, x, training=False)
        batch_targets = {b: t[idx] for b, t in targets.items()}
        _, terms = esd_loss(None, model, out, batch_targets, ctx)
        sums += [terms["reconstruction"], terms["sparsity"], terms["negativity"]]
    return _summarize(model.config, sums, max(len(indices), 1))


def train(model: EsdModel, train_batch: sm.VoxelBatch, val_batch: sm.VoxelBatch,
          rfs: dict, csd_config=None) -> TrainResult:
    """Optimize the model on one dataset; deterministic for a fixed seed."""
    config = model.config
    ctx = LossContext(model, train_batch.gradients, rfs)
    x_train, t_train = network_inputs(model, train_batch, rfs, csd_config)
    x_val, t_val = network_inputs(model, val_batch, rfs, csd_config)

    params = model.parameters()
    adam = ad.AdamState.for_params(params)
    lr = config.lr
    best_val = np.inf
    best_state = model.state_dict()
    best_epoch = -1
    wait = 0
    log = []
    n_train = x_train.shape[1]
    model.shells = [float(b) for b in sorted(train_batch.gradients.shells)]
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, 13, epoch]).permutation(n_train)
        train_sums = np.zeros(3)
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            tape = ad.Tape()
            x = ad.Tensor(x_train[:, idx])
            out = model.forward(tape, x, training=True)
            batch_targets = {b: t[idx] for b, t in t_train.items()}
            loss, terms = esd_loss(tape, model, out, batch_targets, ctx)
            ad.zero_grads(params)
            tape.backward(loss)
            ad.adam_step(params, adam, lr)
            train_sums += [
                terms["reconstruction"], terms["sparsity"], terms["negativity"]
            ]
        val = _epoch_loss(model, ctx, x_val, t_val, np.arange(x_val.shape[1]),
                          config.batch_size)
        record = {
            "epoch": epoch,
            "lr": lr,
            "val": val,
            "train": _summarize(config, train_sums, n_train),
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
    return TrainResult(log, best_state, float(best_val), best_epoch, adam)


def infer(model: EsdModel, batch: sm.VoxelBatch, rfs=None, csd_config=None) -> ccsd.FodfField:
    """Eval-mode deconvolution of a batch; returns fODF coefficients."""
    x, _ = network_inputs(model, batch, rfs, csd_config)
    fields = []
    for lo in range(0, x.shape[1], 512):
        out = model.forward(None, ad.Tensor(x[:, lo : lo + 512]), training=False)
        fields.append(out.values)
    outputs = np.concatenate(fields, axis=1)
    return heads_to_fodf(outputs, model.grids[0], model.config.fodf_degree)
