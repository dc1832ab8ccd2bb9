"""Acceptance: the 1-tissue ESD network learns on the quickstart data.

The README quickstart's dataset (seed 7: one shell of 64 gradients, SNR 30,
700 training and 100 validation voxels) trains for six epochs at lr 1e-2
from two model seeds, about ten seconds each on one core. The reference
is the all-zero loss: the validation total of a network whose every output
is zero, which a dead head scores at every epoch.

Measured (validation total by epoch, all-zero loss 6.0311):
  seed 7: 3.013, 2.377, 2.133, 2.100, 1.742, 1.577 (eval live 0.95 to 0.97)
  seed 1: 5.395, 1.426, 1.306, 1.299, 1.065, 1.034 (eval live 0.95 to 1.0)
Every epoch is live in eval mode, epoch 0 included: batchnorm's statistics
are set after each epoch's steps from that epoch's batches under its final
weights. With running statistics (momentum 0.1), epoch 0 was dead at both
seeds (6.0311, eval live 0).
"""

import json

import numpy as np
import pytest

from sphdecon import autodiff as ad
from sphdecon import esd_net as en
from sphdecon import io_cli

QUICKSTART = {"seed": 7, "dataset": {
    "shells": [3000.0], "gradients_per_shell": 64, "n_voxels": 1000,
    "split": [700, 100, 200], "snr": 30, "tissues": 1,
}}
EPOCHS = 6
# the best validation total must be at most this fraction of the all-zero
# loss; measured 0.26 (seed 7) and 0.17 (seed 1) after six epochs
BEST_FRACTION = 0.5
# every epoch's eval-mode live fraction must reach this; measured 0.95 at least
LIVE_FRACTION = 0.9


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The quickstart's training and validation sets and their WM response."""
    out = tmp_path_factory.mktemp("quickstart")
    cfg = out / "sim.cfg"
    cfg.write_text(json.dumps(QUICKSTART))
    data, rf = out / "data", out / "wm.rf"
    assert io_cli.main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    assert io_cli.main(["response", "--dataset", str(data / "train.sdv"),
                        "--out", str(rf)]) == 0
    return (io_cli.read_dataset(data / "train.sdv"), io_cli.read_dataset(data / "val.sdv"),
            io_cli.read_response(rf))


def zero_loss(model, val, rfs):
    """The per-voxel validation total of all-zero head outputs."""
    ctx = en.LossContext(model, val.gradients, rfs)
    _, targets = en.network_inputs(model, val)
    zeros = ad.Tensor(np.zeros((len(model.vertices), val.n_voxels, 1), np.float32))
    _, terms = en.esd_loss(None, model, zeros, targets, ctx)
    return terms["total"] / val.n_voxels


@pytest.mark.parametrize("seed", [7, 1])
def test_network_learns(quickstart, seed):
    train, val, rfs = quickstart
    model = en.EsdModel(en.EsdConfig(max_epochs=EPOCHS, lr=1e-2, seed=seed),
                        train.gradients.shells)
    dead = zero_loss(model, val, rfs)
    result = en.train(model, train, val, rfs)
    assert len(result.log) == EPOCHS
    for record in result.log:
        assert record["val"]["total"] < dead, record
        assert record["val"]["live_frac"] >= LIVE_FRACTION, record
    assert result.best_val_loss < BEST_FRACTION * dead, (result.best_val_loss, dead)
