"""Acceptance: the 1-tissue ESD network learns on the quickstart data.

The README quickstart's dataset (seed 7: one shell of 64 gradients, SNR 30,
700 training and 100 validation voxels) trains for six epochs at lr 1e-2
from two model seeds, about half a minute each on one core. The reference
is the all-zero loss: the validation total of a network whose every output
is zero, which a dead head scores at every epoch.

Measured (validation total by epoch, all-zero loss 6.0311):
  seed 7: 6.0311, 5.884, 3.556, 2.482, 2.003, 1.676 (eval live 0, 0.11, 0.73, ...)
  seed 1: 6.0311, 1.733, 1.189, 1.140, 1.105, 1.036 (eval live 0, then 1.0)
Epoch 0 may be dead: in eval mode, with running statistics, the network is
dead after its first 22 steps at both seeds, and live from epoch 1 on.
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
# loss; measured 0.28 (seed 7) and 0.17 (seed 1) after six epochs
BEST_FRACTION = 0.5


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
    zeros = ad.Tensor(np.zeros((model.grids[0].n_vertices, val.n_voxels, 1), np.float32))
    _, terms = en.esd_loss(None, model, zeros, targets, ctx)
    return terms["total"] / val.n_voxels


@pytest.mark.parametrize("seed", [7, 1])
def test_network_learns(quickstart, seed):
    train, val, rfs = quickstart
    model = en.EsdModel(en.EsdConfig(max_epochs=EPOCHS, lr=1e-2, seed=seed),
                        train.gradients.shells)
    dead = zero_loss(model, val, rfs)
    result = en.train(model, train, val, rfs)
    for record in result.log[1:]:
        assert record["val"]["total"] < dead, record
        assert record["val"]["live_frac"] > 0, record
    assert result.best_val_loss < BEST_FRACTION * dead, (result.best_val_loss, dead)
