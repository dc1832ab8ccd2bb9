import copy
import tracemalloc

import numpy as np
import pytest

from sphdecon import _kernels
from sphdecon import autodiff as ad
from sphdecon import esd_net as en
from sphdecon import harmonics as sh
from sphdecon import io_cli
from sphdecon import signal_model as sm
from sphdecon import sphere_grid as sg
from sphdecon.errors import InvalidArgumentError, NumericalError

from forward_model import forward
from graph_reference import dense_scaled_laplacian, reference_graph, reference_lmax, sparse
from grid_rotations import z_rotation_permutation
from test_autodiff import check_grad, scalar_loss
from test_signal_model import tensor_response


def tiny_dataset(n=12, seed=4, snr=None, shells=(3000.0,), n_grad=16):
    config = sm.SimConfig(
        shells=list(shells), gradients_per_shell=n_grad, n_voxels=n,
        split=(n, 0, 0), seed=seed, snr=snr, tissues=1,
    )
    table = sm.build_gradient_table(config)
    return sm.generate_batch(config, table, np.arange(n)), table


TINY = dict(nside_in=2, depth=2, channels=(4, 6), fodf_degree=4, max_epochs=2,
            batch_size=4, seed=3)


def as_float64(model):
    """A copy of a model with float64 parameters and batchnorm statistics.

    Fed float64 inputs, it runs the same ops as the model in float64.
    """
    model = copy.deepcopy(model)
    for p in model.params.values():
        p.values = p.values.astype(np.float64)
    for state in model.bn.values():
        state.mean = state.mean.astype(np.float64)
        state.var = state.var.astype(np.float64)
    return model


def float64_fodf(model, batch):
    """The fODF of a model's weights run through the same ops in float64.

    The input is resampled in float64 and never rounded to float32.
    """
    batch = batch.b0_normalized()
    table, points = batch.gradients, model.vertices
    x = np.stack([sh.resample(batch.shell(b), sh.resample_matrices(table.directions[b], points)).T
                  for b in table.shells], axis=-1)
    out = as_float64(model).forward(None, ad.Tensor(x)).values
    return en.heads_to_fodf(out, sh.fit_matrix(points, model.config.fodf_degree))


class TestBuildModel:
    def test_default_output_shape(self):
        config = en.EsdConfig(tissues=3, seed=0)
        model = en.EsdModel(config, [1000.0, 2000.0, 3000.0])
        # the network runs on half of the 768 input vertices
        x = ad.Tensor(np.random.default_rng(0).standard_normal((384, 2, 3)))
        out = model.forward(None, x)
        assert out.values.shape == (384, 2, 3)
        assert np.all(out.values >= 0)  # softplus head

    def test_single_tissue_relu_head(self):
        # the WM head is a conv block: graph conv, batchnorm and its ReLU
        model = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        assert model.params["head_w"].values.shape == (5, 4, 1)
        assert {"head_gamma", "head_beta"} <= set(model.params) and "head" in model.bn
        x = ad.Tensor(np.random.default_rng(1).standard_normal((24, 3, 1)))
        out = model.forward(None, x)
        assert out.values.shape == (24, 3, 1)
        assert np.all(out.values >= 0)
        assert np.any(out.values == 0)  # relu clips

    def test_same_seed_same_parameters(self):
        a = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        b = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        for k in a.params:
            assert np.array_equal(a.params[k].values, b.params[k].values)

    def test_one_input_channel_per_shell(self):
        batch, _ = tiny_dataset(n=3, shells=(3000.0, 1000.0))
        model = en.EsdModel(en.EsdConfig(**TINY), [1000.0, 3000.0])
        assert model.params["enc0_0_w"].values.shape == (5, 2, 4)
        x, targets = en.network_inputs(model, batch)
        assert x.shape == (24, 3, 2) and targets.shape == (3, batch.gradients.total_samples)

    def test_untrained_model_refuses_other_shells(self):
        batch, _ = tiny_dataset(n=3, shells=(1000.0,))
        model = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        with pytest.raises(InvalidArgumentError, match="shells"):
            en.network_inputs(model, batch)

    def test_depth_too_large(self):
        with pytest.raises(InvalidArgumentError):
            en.EsdConfig(nside_in=4, depth=4, channels=(4, 4, 4, 4))

    def test_channels_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            en.EsdConfig(depth=2, channels=(4, 4, 4))

    def test_max_epochs_below_one(self):
        with pytest.raises(InvalidArgumentError, match="max_epochs"):
            en.EsdConfig(max_epochs=0)


class TestHeadsToFodf:
    def test_constant_channel(self):
        grid = sg.build_grid(8)
        outputs = np.zeros((768, 2, 3))
        outputs[:, :, 0] = 1.5
        outputs[100, 0, 1] = 2.5  # one-hot spike in the gm channel
        coeffs = en.heads_to_fodf(outputs, sh.fit_matrix(grid.vertices, 20))
        assert coeffs["wm"][0, 0] == pytest.approx(1.5 * np.sqrt(4 * np.pi), rel=1e-10)
        assert np.abs(coeffs["wm"][:, 1:]).max() < 1e-8
        assert coeffs["gm"][0, 0] == 2.5
        assert coeffs["csf"][0, 0] == 0.0

    def test_band_limited_round_trip(self):
        grid = sg.build_grid(8)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((3, 231))
        vals = coeffs @ sh.design_matrix(sh.ShBasis(20), grid.vertices)
        outputs = vals.T[:, :, None]
        got = en.heads_to_fodf(outputs, sh.fit_matrix(grid.vertices, 20))
        assert np.abs(got["wm"] - coeffs).max() < 1e-6


def multi_tissue(tissues):
    """A two-shell batch with a b=0 sample, its model and loss context."""
    shells = (1000.0, 3000.0)
    sim = sm.SimConfig(shells=list(shells), gradients_per_shell=16, n_voxels=5,
                       split=(5, 0, 0), seed=2, snr=20, tissues=tissues, b0_count=2)
    table = sm.build_gradient_table(sim)
    batch = sm.generate_batch(sim, table, np.arange(5))
    config = en.EsdConfig(**dict(TINY, tissues=tissues, lambda_sparsity=0.3,
                                 sigma_cauchy=0.5, lambda_nonneg=2.0))
    basis = sh.ShBasis(config.fodf_degree)
    rfs = {"wm": tensor_response(basis, table)}
    for t, d in (("gm", 0.8e-3), ("csf", 3e-3)):
        rfs[t] = sm.ResponseFunction(
            t, {b: [np.sqrt(4 * np.pi) * np.exp(-b * d)] for b in (0.0,) + shells}
        )
    model = en.EsdModel(config, shells)
    _, targets = en.network_inputs(model, batch)
    return model, en.LossContext(model, table, rfs), rfs, batch, targets


class TestLoss:
    def make_ctx(self, batch, table, config):
        rfs = {"wm": tensor_response(sh.ShBasis(config.fodf_degree), table)}
        model = en.EsdModel(config, [3000.0])
        return model, en.LossContext(model, table, rfs), rfs

    def test_zero_output_zero_fodf_terms(self):
        batch, table = tiny_dataset()
        config = en.EsdConfig(**TINY)
        model, ctx, _ = self.make_ctx(batch, table, config)
        outputs = ad.Tensor(np.zeros((24, batch.n_voxels, 1)))
        _, targets = en.network_inputs(model, batch)
        _, terms = en.esd_loss(None, model, outputs, targets, ctx)
        assert terms["sparsity"] == 0.0
        assert terms["negativity"] == 0.0
        assert terms["total"] == terms["reconstruction"]

    def test_perfect_reconstruction_zero_loss(self):
        # target synthesized from the model's own zero output
        batch, table = tiny_dataset(n=2)
        config = en.EsdConfig(**TINY)
        model, ctx, _ = self.make_ctx(batch, table, config)
        zero_targets = np.zeros((2, table.total_samples))
        outputs = ad.Tensor(np.zeros((24, 2, 1)))
        _, terms = en.esd_loss(None, model, outputs, zero_targets, ctx)
        assert terms["total"] == 0.0

    def test_sparsity_probe_ln2(self):
        # a constant field refits to the same constant on every vertex, so
        # each of the 48 grid values costs log(1 + 1) = ln 2, and a negative
        # one also costs its square in the negativity term; the network's 24
        # vertices hold one of each antipodal pair, and the terms count both
        batch, table = tiny_dataset(n=1)
        config = en.EsdConfig(**TINY)
        model, ctx, _ = self.make_ctx(batch, table, config)
        _, targets = en.network_inputs(model, batch)
        for probe in np.array([1.0, -1.0]) * config.sigma_cauchy * np.sqrt(2):
            outputs = ad.Tensor(np.full((24, 1, 1), probe))
            _, terms = en.esd_loss(None, model, outputs, targets, ctx)
            assert terms["sparsity"] == pytest.approx(48 * np.log(2), rel=1e-9)
            assert terms["negativity"] == pytest.approx(48 * min(probe, 0.0) ** 2, rel=1e-9)

    def test_decomposition_identity(self):
        batch, table = tiny_dataset(n=6, snr=20)
        config = en.EsdConfig(**TINY, lambda_sparsity=0.37, lambda_nonneg=1.7)
        model, ctx, _ = self.make_ctx(batch, table, config)
        rng = np.random.default_rng(0)
        outputs = ad.Tensor(np.abs(rng.standard_normal((24, 6, 1))))
        _, targets = en.network_inputs(model, batch)
        _, terms = en.esd_loss(None, model, outputs, targets, ctx)
        recomposed = (
            terms["reconstruction"]
            + config.lambda_sparsity * terms["sparsity"]
            + config.lambda_nonneg * terms["negativity"]
        )
        assert terms["total"] == pytest.approx(recomposed, abs=1e-12)
        assert all(terms[k] >= 0 for k in ("reconstruction", "sparsity", "negativity"))

    def test_lambda_zero_drops_sparsity(self):
        batch, table = tiny_dataset(n=2)
        config = en.EsdConfig(**TINY, lambda_sparsity=0.0)
        model, ctx, _ = self.make_ctx(batch, table, config)
        rng = np.random.default_rng(1)
        outputs = ad.Tensor(np.abs(rng.standard_normal((24, 2, 1))))
        _, targets = en.network_inputs(model, batch)
        _, terms = en.esd_loss(None, model, outputs, targets, ctx)
        assert terms["total"] == pytest.approx(
            terms["reconstruction"] + terms["negativity"], abs=1e-12
        )

    @pytest.mark.parametrize("tissues", [1, 3])
    def test_reconstruction_matches_forward_model(self, tissues):
        # reference: forward_model.forward on the fODF that heads_to_fodf
        # reads off the same outputs (WM refit, isotropic maxima)
        model, ctx, rfs, batch, targets = multi_tissue(tissues)
        rng = np.random.default_rng(5)
        outputs = np.abs(rng.standard_normal((24, 5, tissues)))
        _, terms = en.esd_loss(None, model, ad.Tensor(outputs), targets, ctx)

        config, table = model.config, batch.gradients
        basis = sh.ShBasis(config.fodf_degree)
        F = en.heads_to_fodf(outputs, sh.fit_matrix(model.vertices, config.fodf_degree))
        pred = forward(F, rfs, basis, table)
        expect = np.sum((pred - batch.b0_normalized().signals) ** 2)
        assert targets.shape == (5, table.total_samples)
        assert terms["reconstruction"] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("tissues", [1, 3])
    def test_gradient_check(self, tissues):
        # signed outputs, so the refit WM fODF is negative on part of the
        # grid, and one clear spike per isotropic channel and voxel
        model, ctx, _, _, targets = multi_tissue(tissues)
        rng = np.random.default_rng(6)
        outputs = ad.Tensor(rng.standard_normal((24, 5, tissues)), requires_grad=True)
        spikes = rng.integers(0, 24, size=(5, tissues))
        for v in range(5):
            for i in range(1, tissues):
                outputs.values[spikes[v, i], v, i] = outputs.values[:, v, i].max() + 1.0

        def loss(tape):
            return en.esd_loss(tape, model, outputs, targets, ctx)[0]

        _, terms = en.esd_loss(None, model, outputs, targets, ctx)
        assert terms["sparsity"] > 0 and terms["negativity"] > 0
        check_grad(loss, [outputs])
        # each isotropic channel's gradient reaches only its maximum's vertex
        for v in range(5):
            for i in range(1, tissues):
                assert np.flatnonzero(outputs.grad[:, v, i]).tolist() == [spikes[v, i]]

    def test_end_to_end_gradient_check(self):
        # toy model: nside_in=2, depth=1, 4 voxels; central differences need
        # float64, so the network runs its ops in float64
        batch, table = tiny_dataset(n=4)
        config = en.EsdConfig(nside_in=2, depth=1, channels=(4,), fodf_degree=4,
                              seed=1, lambda_sparsity=0.01, sigma_cauchy=0.3)
        rfs = {"wm": tensor_response(sh.ShBasis(4), table)}
        model = as_float64(en.EsdModel(config, [3000.0]))
        ctx = en.LossContext(model, table, rfs)
        x_in, targets = en.network_inputs(model, batch)
        x = ad.Tensor(x_in.astype(np.float64))
        checked = [model.params[k] for k in
                   ("enc0_0_w", "enc0_0_gamma", "enc0_0_beta", "head_w")]

        def loss(tape):
            bn_backup = copy.deepcopy(model.bn)
            out = model.forward(tape, x, training=True)
            total, _ = en.esd_loss(tape, model, out, targets, ctx)
            model.bn.update(bn_backup)
            return total

        check_grad(loss, checked, rtol=2e-4)


class TestTrainInfer:
    def run_train(self, seed=3):
        # validation voxels share the training set's gradient table
        data, table = tiny_dataset(n=18, snr=30)
        batch, val = data.subset(np.arange(12)), data.subset(np.arange(12, 18))
        rfs = {"wm": tensor_response(sh.ShBasis(4), table)}
        config = en.EsdConfig(**TINY)
        model = en.EsdModel(config, [3000.0])
        result = en.train(model, batch, val, rfs)
        return model, result, batch, rfs

    def test_training_runs_and_logs(self):
        model, result, batch, rfs = self.run_train()
        assert len(result.log) == 2
        for record in result.log:
            for split in ("train", "val"):
                terms = record[split]
                recomposed = (
                    terms["reconstruction"]
                    + model.config.lambda_sparsity * terms["sparsity"]
                    + model.config.lambda_nonneg * terms["negativity"]
                )
                assert terms["total"] == pytest.approx(recomposed, abs=1e-10)
            assert 0 <= record["val"]["live_frac"] <= 1 and "live_frac" not in record["train"]
            for key in ("grad_norm", "elapsed_ms"):
                assert np.isfinite(record[key]) and record[key] > 0

    def test_logged_gradient_norm_is_the_steps_mean(self, monkeypatch):
        # the same run again, with each step's gradient norm read off before
        # Adam's update
        norms = []
        step = ad.adam_step

        def spy(params, state, lr):
            norms.append(np.sqrt(sum(np.sum(p.grad.astype(np.float64) ** 2)
                                     for p in params if p.grad is not None)))
            step(params, state, lr)

        monkeypatch.setattr(ad, "adam_step", spy)
        _, result, _, _ = self.run_train()
        per_epoch = np.array(norms).reshape(len(result.log), -1)
        for record, epoch_norms in zip(result.log, per_epoch):
            assert record["grad_norm"] == pytest.approx(epoch_norms.mean(), rel=1e-12)

    def test_validation_live_fraction(self):
        # an untrained network maps a zero input to zero at every layer, so
        # voxels 1 and 4 are dead; batches of 4 end mid-split
        data, table = tiny_dataset(n=6, snr=30)
        model = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        ctx = en.LossContext(model, table, {"wm": tensor_response(sh.ShBasis(4), table)})
        x, targets = en.network_inputs(model, data)
        x[:, [1, 4]] = 0.0
        out = model.forward(None, ad.Tensor(x)).values[:, :, 0]
        assert np.any(out != 0, axis=0).tolist() == [True, False, True, True, False, True]
        val = en._epoch_loss(model, ctx, x, targets, np.arange(6), 4)
        assert val["live_frac"] == 4 / 6

    def test_checkpoint_statistics_are_the_best_epochs_batch_means(self):
        # after each epoch's steps, every block's statistics become the mean
        # of its train-mode statistics over that epoch's batches, under the
        # epoch's final weights; the best epoch's are the ones kept
        model, result, batch, _ = self.run_train()
        config = model.config
        order = np.random.default_rng([config.seed, 13, result.best_epoch]).permutation(12)
        x, _ = en.network_inputs(model, batch)
        redo = copy.deepcopy(model)
        redo.precise_statistics(x, [order[lo : lo + 4] for lo in range(0, 12, 4)])
        for name, state in model.bn.items():
            assert redo.bn[name].batches == 3
            assert state.mean.tobytes() == redo.bn[name].mean.tobytes()
            assert state.var.tobytes() == redo.bn[name].var.tobytes()
            assert not np.array_equal(state.var, np.ones_like(state.var))

    def test_one_batch_statistics_make_eval_match_training(self):
        # with one batch's statistics, eval mode normalizes that batch as a
        # training step does, bit for bit, and a training step on a tape
        # leaves the statistics alone
        data, _ = tiny_dataset(n=6, snr=30)
        model = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        x, _ = en.network_inputs(model, data)
        model.precise_statistics(x, [np.arange(6)])
        kept = copy.deepcopy(model.bn)
        trained = model.forward(ad.Tape(), ad.Tensor(x), training=True).values
        assert all(model.bn[k].mean.tobytes() == s.mean.tobytes() for k, s in kept.items())
        assert model.forward(None, ad.Tensor(x)).values.tobytes() == trained.tobytes()
        assert np.any(trained > 0)

    def test_deterministic_training(self):
        m1, r1, _, _ = self.run_train()
        m2, r2, _, _ = self.run_train()
        assert r1.log[0]["val"]["total"] == r2.log[0]["val"]["total"]
        for k in m1.params:
            assert np.array_equal(m1.params[k].values, m2.params[k].values)

    def test_infer_deterministic_and_shapes(self):
        model, result, batch, rfs = self.run_train()
        f1 = en.infer(model, batch)
        f2 = en.infer(model, batch)
        assert np.array_equal(f1.coeffs["wm"], f2.coeffs["wm"])
        assert f1.coeffs["wm"].shape == (12, 15)

    def test_infer_chunks_match_one_forward(self):
        # 70 voxels span three chunks; iso maxima are exact, the WM refit
        # differs only by the GEMM's blocking
        data, _ = tiny_dataset(n=70, snr=30)
        model = en.EsdModel(en.EsdConfig(**dict(TINY, tissues=3)), [3000.0])
        x, _ = en.network_inputs(model, data)
        out = model.forward(None, ad.Tensor(x)).values
        expect = en.heads_to_fodf(out, sh.fit_matrix(model.vertices, 4))
        field = en.infer(model, data)
        assert field.coeffs.keys() == expect.keys()
        for t, ref in expect.items():
            assert np.abs(field.coeffs[t] - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(field.coeffs["gm"], expect["gm"])

    def test_infer_refuses_input_beyond_float32(self):
        # finite in float64, but the float32 network input cannot hold it
        data, _ = tiny_dataset(n=3)
        data.signals[1, 5] = 1e300
        model = en.EsdModel(en.EsdConfig(**TINY), [3000.0])
        with pytest.raises(InvalidArgumentError, match="float32"):
            en.infer(model, data)

    def test_infer_shell_mismatch(self):
        model, result, batch, rfs = self.run_train()
        other, _ = tiny_dataset(n=3, shells=(1000.0,))
        with pytest.raises(InvalidArgumentError):
            en.infer(model, other)

    @pytest.mark.parametrize("change", ["directions", "b0_count", "shells"])
    def test_rejects_val_table_mismatch(self, change, monkeypatch):
        batch, table = tiny_dataset(n=6)
        if change == "directions":
            val, _ = tiny_dataset(n=4, seed=9)
        elif change == "b0_count":
            val = batch.subset(np.arange(4))
            val.gradients = sm.GradientTable(table.shells, dict(table.directions),
                                             b0_count=table.b0_count + 1)
        else:
            val, _ = tiny_dataset(n=4, shells=(3000.0, 1000.0))
        model = en.EsdModel(en.EsdConfig(**TINY), [3000.0])

        def never(*args, **kwargs):
            raise AssertionError("computed before checking the validation table")

        monkeypatch.setattr(en, "network_inputs", never)
        with pytest.raises(InvalidArgumentError, match="gradient table"):
            en.train(model, batch, val, {"wm": tensor_response(sh.ShBasis(4), table)})

    def test_nan_diagnostic_names_term(self):
        batch, table = tiny_dataset(n=4)
        config = en.EsdConfig(**TINY)
        rfs = {"wm": tensor_response(sh.ShBasis(4), table)}
        model = en.EsdModel(config, [3000.0])
        model.params["head_w"].values[:] = np.inf
        ctx = en.LossContext(model, table, rfs)
        x_in, targets = en.network_inputs(model, batch)
        # the injected inf turns into NaN inside the network
        with pytest.warns(RuntimeWarning, match="invalid value"):
            out = model.forward(None, ad.Tensor(x_in))
        with pytest.raises(NumericalError) as err:
            en.esd_loss(None, model, out, targets, ctx)
        assert "reconstruction" in str(err.value)


class TestEquivariance:
    def test_model_commutes_with_quarter_turn(self):
        # on even fields the turn permutes the network's vertices through
        # each turned vertex's representative
        config = en.EsdConfig(seed=2, channels=(8, 8, 8))
        model = en.EsdModel(config, [3000.0])
        grid = model.grids[0]
        turned = z_rotation_permutation(grid, 1)[: len(model.vertices)]
        perm = sg.face_half_rep(grid.nside)[turned]
        rng = np.random.default_rng(3)
        x = rng.standard_normal((len(model.vertices), 2, 1))
        out = model.forward(None, ad.Tensor(x)).values
        out_p = model.forward(None, ad.Tensor(x[perm])).values
        assert np.abs(out_p - out[perm]).max() < 1e-9


def test_eval_forward_matches_dense_laplacian(monkeypatch):
    # a freshly built default model has a live ReLU head, so the outputs
    # compared below are not all zero; x is float64, so the ops run in float64
    model = en.EsdModel(en.EsdConfig(), [3000.0])
    x = ad.Tensor(np.abs(np.random.default_rng(0).standard_normal((384, 4, 1))))
    out = model.forward(None, x, training=False).values

    calls = []

    def dense_matmul(own, halo, halo_index, x):
        op = sg.PatchOperator(own, halo, halo_index, own.shape[0] * own.shape[1])
        calls.append(op.n)
        return sparse(op).toarray() @ x

    # the network reaches the kernel through the module attribute, which is
    # also where profilers wrap it
    monkeypatch.setattr(_kernels, "patch_matmul", dense_matmul)
    ref = model.forward(None, x, training=False).values
    assert sorted(set(calls)) == [24, 96, 384]
    assert (out > 0).mean() > 0
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(out).max()


class DenseOperator:
    """A dense (n, n) matrix with the .n and .matmul that graph_conv reads."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.n = matrix.shape[0]

    def matmul(self, x):
        return (self.matrix @ x.reshape(self.n, -1)).reshape(x.shape)


@pytest.mark.parametrize("tissues", [1, 3])
@pytest.mark.parametrize("training", [False, True])
def test_half_network_matches_a_dense_full_grid_forward(tissues, training):
    # reference: the same weights in float64 on every vertex of every level,
    # with each level's dense (2/lmax) L - I from the scipy construction of
    # the graph, fed the even extension of the network's input. Its output
    # is even, and on base faces 0-5 it is the network's. The parameters'
    # gradients of sum(out * G), G even, agree too: on the network's
    # vertices, that sum's gradient counts each antipodal pair twice.
    model = as_float64(en.EsdModel(en.EsdConfig(tissues=tissues, seed=2), [1000.0, 3000.0]))
    rng = np.random.default_rng(4)
    for state in model.bn.values():
        state.mean = 0.3 * rng.standard_normal(state.mean.shape)
        state.var = rng.uniform(0.5, 2.0, state.var.shape)
    full = copy.deepcopy(model)
    full.laps = [DenseOperator(dense_scaled_laplacian(g, reference_lmax(reference_graph(g)[1])))
                 for g in model.grids]
    rep = sg.face_half_rep(model.grids[0].nside)
    half = len(model.vertices)
    x = rng.standard_normal((half, 3, 2))
    weight = rng.standard_normal((half, 3, tissues))

    grads = []
    for net, x_in, g in ((model, x, 2.0 * weight), (full, x[rep], weight[rep])):
        params = net.parameters()
        ad.zero_grads(params)
        tape = ad.Tape()
        out = net.forward(tape, ad.Tensor(x_in), training)
        tape.backward(scalar_loss(tape, out, lambda v, g=g: v * g, lambda v, g=g: g))
        grads.append([p.grad for p in params])
        if net is model:
            got = out.values
        else:
            ref = out.values
    assert np.abs(ref - ref[rep]).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(got - ref[:half]).max() <= 1e-12 * np.abs(ref).max()
    assert (got > 0).mean() > 0.2
    for g_half, g_full in zip(*grads):
        assert np.linalg.norm(g_half - g_full) <= 1e-12 * np.linalg.norm(g_full)


def test_operator_hooks_for_the_tracer(monkeypatch):
    # the benchmark's tracer (perfbench/tracing.py) times
    # sphere_grid.estimate_lmax through the module attribute and names each
    # graph_conv span after the operator's .n: each level's vertex count on
    # the network's half of the grid, while lmax comes from the whole grid
    lmax_grids = []
    estimate_lmax, graph_conv = sg.estimate_lmax, ad.graph_conv

    def counted_lmax(lap):
        lmax_grids.append(lap.n)
        return estimate_lmax(lap)

    monkeypatch.setattr(sg, "estimate_lmax", counted_lmax)
    model = en.EsdModel(en.EsdConfig(), [3000.0])
    assert lmax_grids == [768, 192, 48]
    assert [lap.n for lap in model.laps] == [g.n_vertices // 2 for g in model.grids]

    convs = []

    def recorded_conv(tape, x, weights, lap):
        convs.append((lap.n, x.values.shape[0]))
        return graph_conv(tape, x, weights, lap)

    monkeypatch.setattr(ad, "graph_conv", recorded_conv)
    model.forward(None, ad.Tensor(np.zeros((384, 2, 1), np.float32)))
    assert all(n == rows for n, rows in convs)
    assert sorted({n for n, _ in convs}) == [24, 96, 384]


def test_model_keeps_only_the_rescaled_laplacians():
    # each level's operators are built outside the grid's cache, so neither
    # unscaled float64 copy is held next to the rescaled folded one, which
    # is scaled by the whole Laplacian's top eigenvalue
    model = en.EsdModel(en.EsdConfig(), [3000.0])
    for grid, lap in zip(model.grids, model.laps):
        assert "laplacian" not in vars(grid)
        fresh = sg.build_grid(grid.nside)
        expect = sg.graph_laplacian(fresh, folded=True).rescaled(sg.estimate_lmax(fresh.laplacian))
        for name in ("own", "halo", "halo_index"):
            got, ref = getattr(lap, name), getattr(expect, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_training_step_memory_peak():
    # one default-config step at batch 32, forward, loss and backward, under
    # tracemalloc (numpy reports its buffers to it). Measured: 11.2 MB after
    # the forward pass and a 17.1 MB peak; 22.2 and 33.7 MB while the network
    # ran on every vertex instead of base faces 0-5; 30.3 and 41.7 MB while the tape
    # kept each decoder level's unpooled input and int64 pool offsets; 59.5
    # and 81.1 MB in float64, 117.2 and 138.8 MB when the wide graph convs
    # also kept their monomial stacks, and a 267.8 MB peak when the tape
    # also kept every record to the end.
    batch, table = tiny_dataset(n=32, n_grad=64, snr=30)
    model = en.EsdModel(en.EsdConfig(), [3000.0])
    ctx = en.LossContext(model, table, {"wm": tensor_response(sh.ShBasis(20), table)})
    x, targets = en.network_inputs(model, batch)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = ad.Tape()
        out = model.forward(tape, ad.Tensor(x), training=True)
        after_forward = tracemalloc.get_traced_memory()[0] - base
        loss, _ = en.esd_loss(tape, model, out, targets, ctx)
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert after_forward < 12.5e6, f"the tape held {after_forward / 1e6:.1f} MB after forward"
    assert peak < 19e6, f"training step peaked at {peak / 1e6:.1f} MB"
    assert not tape._records
    assert all(p.grad is not None for p in model.parameters())


class TestFloat32Network:
    # a live model: every one of the 100 test voxels has a nonzero WM fODF
    CONFIG = {"seed": 3, "model": {"nside_in": 4, "depth": 2, "channels": [4, 6],
                                   "fodf_degree": 8, "max_epochs": 2, "batch_size": 4,
                                   "lr": 1e-3}}

    @pytest.fixture(scope="class")
    def trained(self):
        data, table = tiny_dataset(n=146, snr=30, seed=5)
        model = en.EsdModel(io_cli.build_config(self.CONFIG, "model"), [3000.0])
        rfs = {"wm": tensor_response(sh.ShBasis(8), table)}
        result = en.train(model, data.subset(np.arange(40)), data.subset(np.arange(40, 46)), rfs)
        return model, result, data.subset(np.arange(46, 146))

    def assert_agrees(self, field, expect):
        # measured: WM within 2.0e-6 relative (Frobenius) on this model, 3.4e-6
        # from the float64 checkpoint, and 1.4e-6 to 4.7e-6 over seeds 3-7.
        # Batchnorm divides each channel by its standard deviation, so float32
        # rounding grows where a channel barely varies: this model's smallest
        # variance is 1.3e-4 (1.8e-5 at seed 6).
        for t, ref in expect.items():
            assert np.linalg.norm(field.coeffs[t] - ref) <= 5e-6 * np.linalg.norm(ref)
            live = np.any(ref != 0, axis=1)
            assert live.sum() == 100
            assert np.array_equal(np.any(field.coeffs[t] != 0, axis=1), live)

    def test_same_weights_agree_with_float64(self, trained):
        model, _, test = trained
        self.assert_agrees(en.infer(model, test), float64_fodf(model, test))

    def test_checkpoint_round_trip_is_bit_exact(self, trained, tmp_path):
        model, result, test = trained
        io_cli.write_checkpoint(tmp_path / "a.ckpt", model, result, self.CONFIG)
        loaded, _ = io_cli.read_checkpoint(tmp_path / "a.ckpt")
        for k, p in model.params.items():
            assert loaded.params[k].values.dtype == np.float32
            assert np.array_equal(loaded.params[k].values, p.values)
        for k, bn in model.bn.items():
            assert np.array_equal(loaded.bn[k].mean, bn.mean)
            assert np.array_equal(loaded.bn[k].var, bn.var)
        assert np.array_equal(en.infer(loaded, test).coeffs["wm"], en.infer(model, test).coeffs["wm"])

    def test_float64_checkpoint_loads_rounded(self, trained, tmp_path):
        model, result, test = trained
        # float64 weights that float32 cannot hold exactly
        wide = as_float64(model)
        rng = np.random.default_rng(8)
        for p in wide.params.values():
            p.values *= 1 + 1e-6 * rng.standard_normal(p.values.shape)
        io_cli.write_checkpoint(tmp_path / "wide.ckpt", wide, result, self.CONFIG)
        loaded, _ = io_cli.read_checkpoint(tmp_path / "wide.ckpt")
        for k, p in wide.params.items():
            assert np.array_equal(loaded.params[k].values, p.values.astype(np.float32))
        self.assert_agrees(en.infer(loaded, test), float64_fodf(wide, test))

    @pytest.mark.parametrize("tissues", [1, 3])
    def test_training_step_stays_float32(self, tissues, monkeypatch):
        # a stray float64 operand promotes a whole layer and everything after it
        model, ctx, _, batch, targets = multi_tissue(tissues)
        outputs = []
        for name in ("graph_conv", "unpool_conv", "batchnorm", "healpix_maxpool",
                     "softplus", "scale"):
            def recorded(*args, op=getattr(ad, name)):
                outputs.append(op(*args))
                return outputs[-1]

            monkeypatch.setattr(ad, name, recorded)
        x, _ = en.network_inputs(model, batch)
        params = model.parameters()
        adam = ad.AdamState.for_params(params)
        tape = ad.Tape()
        out = model.forward(tape, ad.Tensor(x), training=True)
        loss, _ = en.esd_loss(tape, model, out, targets, ctx)
        tape.backward(loss)
        ad.adam_step(params, adam, 1e-3)
        assert loss.values.dtype == np.float64
        # six conv blocks (the decoder's first one unpools), one pool, then the
        # head: one more conv block for WM alone, graph conv, softplus and
        # gain for three tissues
        n_ops = 6 * 2 + 1 + (2 if tissues == 1 else 3)
        assert len(outputs) == n_ops
        for t in outputs + params:
            assert t.values.dtype == np.float32 and t.grad.dtype == np.float32
        # eval mode reads the running statistics instead of batch ones
        outputs.clear()
        model.forward(None, ad.Tensor(x), training=False)
        assert len(outputs) == n_ops and all(t.values.dtype == np.float32 for t in outputs)
        for m in adam.m + adam.v:
            assert m.dtype == np.float32
        for state in model.bn.values():
            assert state.mean.dtype == state.var.dtype == np.float32


def test_infer_memory_per_voxel():
    # resampled chunk by chunk, infer grows with the voxel count only by its
    # output: 231 WM coefficients of 8 bytes per voxel. Measured: 1.75 kB per
    # voxel from 64 to 192 voxels; resampling every voxel before the first
    # chunk grew by 8.0 kB per voxel.
    model = en.EsdModel(en.EsdConfig(), [3000.0])
    peaks = []
    for n in (64, 192):
        data, _ = tiny_dataset(n=n, snr=30)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            field = en.infer(model, data)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert field.coeffs["wm"].shape == (n, 231)
    per_voxel = (peaks[1] - peaks[0]) / 128
    assert per_voxel < 3e3, f"infer grew by {per_voxel:.0f} bytes per voxel"
