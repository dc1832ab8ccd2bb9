"""Equivariant spherical deconvolution network.

A U-Net of polynomial graph convolutions on the Healpix hierarchy maps
the resampled signal (one channel per shell) to per-tissue nonnegative
spatial fODFs. The WM head is refit to even-degree coefficients and
convolved with the response functions to reconstruct the measured
samples; training minimizes reconstruction error plus a Cauchy sparsity
penalty and a squared hinge on negative fODF values.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import classical_csd as ccsd
from . import harmonics as sh
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import InvalidArgumentError, NumericalError

# fixed output gain: fODF lobes live at ~10-20x the unit scale of
# normalized features, and Adam is slow to grow raw magnitudes
_HEAD_GAIN = 12.0


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
        return sm.TISSUES[: self.tissues]


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
        # the rectifier) and _HEAD_GAIN supplies the eventual fODF scale
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
        return ad.scale(tape, h, _HEAD_GAIN)


def heads_to_fodf(outputs: np.ndarray, grid, l_max: int = 20) -> ccsd.FodfField:
    """Convert (N, V, T) head outputs to fODF coefficients.

    WM: even-degree SH refit of channel 0 on the grid; isotropic tissues:
    max over vertices of their channel.
    """
    basis = sh.ShBasis(l_max)
    fit = sh.fit_matrix(grid.vertices, l_max)
    coeffs = {"wm": outputs[:, :, 0].T @ fit.T}
    for i, t in enumerate(sm.TISSUES[1 : outputs.shape[2]], start=1):
        coeffs[t] = outputs[:, :, i].max(axis=0)[:, None]
    return ccsd.FodfField(coeffs, basis)


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
        grid = model.grids[0]
        A, _, _ = ccsd.system_matrix(
            gradients, {t: rfs[t] for t in config.tissue_names}, basis
        )
        self.a_t = np.ascontiguousarray(A.T)  # (L + T - 1, samples)
        self.fit_t = sh.fit_matrix(grid.vertices, config.fodf_degree).T  # (N, L)
        self.y_grid = sh.design_matrix(basis, grid.vertices)  # (L, N)


def esd_loss(tape, model: EsdModel, outputs: ad.Tensor, targets: np.ndarray,
             ctx: LossContext):
    """Three-term objective as one op; returns (loss tensor, logged term values).

    targets is (V, samples) in the system matrix's row order, as
    network_inputs returns it. The WM channel refit to SH coefficients and
    each isotropic channel's (first) maximum reconstruct the samples; the
    sparsity and negativity terms act on the refit WM fODF on the grid.
    """
    config = model.config
    two_s2 = 2.0 * config.sigma_cauchy * config.sigma_cauchy
    vals = outputs.values
    f_wm = vals[:, :, 0].T.copy() @ ctx.fit_t
    arg = np.argmax(vals[:, :, 1:], axis=0)  # (V, T - 1)
    iso = np.take_along_axis(vals[:, :, 1:], arg[None], axis=0)[0]
    diff = np.concatenate([f_wm, iso], axis=1) @ ctx.a_t - targets
    recon = np.sum(diff * diff)
    grid = f_wm @ ctx.y_grid
    sparsity = np.sum(np.log1p(grid * grid / two_s2))
    neg = np.minimum(grid, 0.0)
    negativity = np.sum(neg * neg)
    total = ad.Tensor(
        recon + sparsity * config.lambda_sparsity + negativity * config.lambda_nonneg
    )

    def backward():
        s = total.grad
        d_coeffs = (2.0 * diff * s) @ ctx.a_t.T
        d_grid = 2.0 * neg * (s * config.lambda_nonneg)
        d_grid += (s * config.lambda_sparsity) * (2.0 * grid) / (two_s2 + grid * grid)
        d_wm = d_grid @ ctx.y_grid.T
        d_wm += d_coeffs[:, : f_wm.shape[1]]
        g = outputs.ensure_grad()
        g[:, :, 0] += (d_wm @ ctx.fit_t.T).T
        rows = np.arange(vals.shape[1])[:, None]
        g[arg, rows, np.arange(1, vals.shape[2])] += d_coeffs[:, f_wm.shape[1] :]

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


def network_inputs(model: EsdModel, batch: sm.VoxelBatch) -> tuple:
    """Resample a batch onto the input grid; returns (x array, targets).

    x is (N, V, C_in) with one channel per shell in ascending order.
    targets is the (V, samples) normalized samples in the system matrix's
    row order (b=0 first, then the shells).
    """
    batch = batch.b0_normalized()
    grid = model.grids[0]
    shells = sorted(batch.gradients.shells)
    if model.shells is not None and [float(b) for b in shells] != sorted(model.shells):
        raise InvalidArgumentError(
            f"batch shells {shells} do not match the model's {sorted(model.shells)}"
        )
    channels = [
        sh.resample(batch.signals[b], batch.gradients.directions[b], grid) for b in shells
    ]
    x = np.stack([c.T for c in channels], axis=-1)
    if x.shape[2] != model.in_channels:
        raise InvalidArgumentError(
            f"batch yields {x.shape[2]} input channels, model expects {model.in_channels}"
        )
    return x, ccsd.stack_samples(batch, ccsd.sample_keys(batch.gradients))


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


def _epoch_loss(model, ctx, x_all, targets, indices, batch_size):
    """Eval-mode loss over a split, summed then normalized per voxel."""
    sums = np.zeros(3)
    for lo in range(0, len(indices), batch_size):
        idx = indices[lo : lo + batch_size]
        x = ad.Tensor(x_all[:, idx])
        out = model.forward(None, x, training=False)
        _, terms = esd_loss(None, model, out, targets[idx], ctx)
        sums += [terms["reconstruction"], terms["sparsity"], terms["negativity"]]
    return _summarize(model.config, sums, max(len(indices), 1))


def _same_table(a: sm.GradientTable, b: sm.GradientTable) -> bool:
    return (a.b0_count == b.b0_count and sorted(a.shells) == sorted(b.shells)
            and all(np.array_equal(a.directions[s], b.directions[s]) for s in a.shells))


def train(model: EsdModel, train_batch: sm.VoxelBatch, val_batch: sm.VoxelBatch,
          rfs: dict) -> TrainResult:
    """Optimize the model on one dataset; deterministic for a fixed seed.

    The validation loss uses the training set's forward operator, so the
    two sets must share one gradient table.
    """
    if not _same_table(train_batch.gradients, val_batch.gradients):
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
    model.shells = [float(b) for b in sorted(train_batch.gradients.shells)]
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, 13, epoch]).permutation(n_train)
        train_sums = np.zeros(3)
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            tape = ad.Tape()
            x = ad.Tensor(x_train[:, idx])
            out = model.forward(tape, x, training=True)
            loss, terms = esd_loss(tape, model, out, t_train[idx], ctx)
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
    return TrainResult(log, float(best_val), best_epoch)


def infer(model: EsdModel, batch: sm.VoxelBatch) -> ccsd.FodfField:
    """Eval-mode deconvolution of a batch; returns fODF coefficients."""
    x, _ = network_inputs(model, batch)
    fields = []
    for lo in range(0, x.shape[1], 512):
        out = model.forward(None, ad.Tensor(x[:, lo : lo + 512]), training=False)
        fields.append(out.values)
    outputs = np.concatenate(fields, axis=1)
    return heads_to_fodf(outputs, model.grids[0], model.config.fodf_degree)
