import copy

import numpy as np
import pytest

from sphdecon import _kernels
from sphdecon import autodiff as ad
from sphdecon import esd_net as en
from sphdecon import harmonics as sh
from sphdecon import signal_model as sm
from sphdecon import sphere_grid as sg
from sphdecon.errors import InvalidArgumentError, NumericalError

from test_autodiff import check_grad
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


class TestBuildModel:
    def test_default_output_shape(self):
        config = en.EsdConfig(tissues=3, seed=0)
        model = en.EsdModel(config, in_channels=3)
        x = ad.Tensor(np.random.default_rng(0).standard_normal((768, 2, 3)))
        out = model.forward(None, x)
        assert out.values.shape == (768, 2, 3)
        assert np.all(out.values >= 0)  # softplus head

    def test_single_tissue_relu_head(self):
        model = en.EsdModel(en.EsdConfig(**TINY), 1)
        x = ad.Tensor(np.random.default_rng(1).standard_normal((48, 3, 1)))
        out = model.forward(None, x)
        assert out.values.shape == (48, 3, 1)
        assert np.all(out.values >= 0)
        assert np.any(out.values == 0)  # relu clips

    def test_same_seed_same_parameters(self):
        a = en.EsdModel(en.EsdConfig(**TINY), 1)
        b = en.EsdModel(en.EsdConfig(**TINY), 1)
        for k in a.params:
            assert np.array_equal(a.params[k].values, b.params[k].values)

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
        field = en.heads_to_fodf(outputs, grid, l_max=20)
        assert field.coeffs["wm"][0, 0] == pytest.approx(1.5 * np.sqrt(4 * np.pi), rel=1e-10)
        assert np.abs(field.coeffs["wm"][:, 1:]).max() < 1e-8
        assert field.coeffs["gm"][0, 0] == 2.5
        assert field.coeffs["csf"][0, 0] == 0.0

    def test_band_limited_round_trip(self):
        grid = sg.build_grid(8)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((3, 231))
        vals = coeffs @ sh.design_matrix(sh.ShBasis(20), grid.vertices)
        outputs = vals.T[:, :, None]
        field = en.heads_to_fodf(outputs, grid, l_max=20)
        assert np.abs(field.coeffs["wm"] - coeffs).max() < 1e-6


class TestLoss:
    def make_ctx(self, batch, table, config):
        rfs = {"wm": tensor_response(sh.ShBasis(config.fodf_degree), table)}
        model = en.EsdModel(config, 1)
        return model, en.LossContext(model, table, rfs), rfs

    def test_zero_output_zero_fodf_terms(self):
        batch, table = tiny_dataset()
        config = en.EsdConfig(**TINY)
        model, ctx, _ = self.make_ctx(batch, table, config)
        outputs = ad.Tensor(np.zeros((48, batch.n_voxels, 1)))
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
        outputs = ad.Tensor(np.zeros((48, 2, 1)))
        _, terms = en.esd_loss(None, model, outputs, zero_targets, ctx)
        assert terms["total"] == 0.0

    def test_sparsity_probe_ln2(self):
        # a constant field refits to the same constant on every vertex, so
        # each of the 48 grid values costs log(1 + 1) = ln 2, and a negative
        # one also costs its square in the negativity term
        batch, table = tiny_dataset(n=1)
        config = en.EsdConfig(**TINY)
        model, ctx, _ = self.make_ctx(batch, table, config)
        _, targets = en.network_inputs(model, batch)
        for probe in np.array([1.0, -1.0]) * config.sigma_cauchy * np.sqrt(2):
            outputs = ad.Tensor(np.full((48, 1, 1), probe))
            _, terms = en.esd_loss(None, model, outputs, targets, ctx)
            assert terms["sparsity"] == pytest.approx(48 * np.log(2), rel=1e-9)
            assert terms["negativity"] == pytest.approx(48 * min(probe, 0.0) ** 2, rel=1e-9)

    def test_decomposition_identity(self):
        batch, table = tiny_dataset(n=6, snr=20)
        config = en.EsdConfig(**TINY, lambda_sparsity=0.37, lambda_nonneg=1.7)
        model, ctx, _ = self.make_ctx(batch, table, config)
        rng = np.random.default_rng(0)
        outputs = ad.Tensor(np.abs(rng.standard_normal((48, 6, 1))))
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
        outputs = ad.Tensor(np.abs(rng.standard_normal((48, 2, 1))))
        _, targets = en.network_inputs(model, batch)
        _, terms = en.esd_loss(None, model, outputs, targets, ctx)
        assert terms["total"] == pytest.approx(
            terms["reconstruction"] + terms["negativity"], abs=1e-12
        )

    def multi_tissue(self, tissues):
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
        model = en.EsdModel(config, len(shells))
        _, targets = en.network_inputs(model, batch)
        return model, en.LossContext(model, table, rfs), rfs, batch, targets

    @pytest.mark.parametrize("tissues", [1, 3])
    def test_reconstruction_matches_forward_model(self, tissues):
        # reference: signal_model.forward on the fODF that heads_to_fodf
        # reads off the same outputs (WM refit, isotropic maxima)
        model, ctx, rfs, batch, targets = self.multi_tissue(tissues)
        rng = np.random.default_rng(5)
        outputs = np.abs(rng.standard_normal((48, 5, tissues)))
        _, terms = en.esd_loss(None, model, ad.Tensor(outputs), targets, ctx)

        config, table = model.config, batch.gradients
        basis = sh.ShBasis(config.fodf_degree)
        F = en.heads_to_fodf(outputs, model.grids[0], config.fodf_degree).coeffs
        pred = sm.forward(F, rfs, basis, table)
        signals = batch.b0_normalized().signals
        keys = [0, *table.shells]
        expect = sum(np.sum((pred[b] - signals[b]) ** 2) for b in keys)
        assert targets.shape == (5, table.total_samples)
        assert terms["reconstruction"] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("tissues", [1, 3])
    def test_gradient_check(self, tissues):
        # signed outputs, so the refit WM fODF is negative on part of the
        # grid, and one clear spike per isotropic channel and voxel
        model, ctx, _, _, targets = self.multi_tissue(tissues)
        rng = np.random.default_rng(6)
        outputs = ad.Tensor(rng.standard_normal((48, 5, tissues)), requires_grad=True)
        spikes = rng.integers(0, 48, size=(5, tissues))
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
        # toy model: nside_in=2, depth=1, 4 voxels
        batch, table = tiny_dataset(n=4)
        config = en.EsdConfig(nside_in=2, depth=1, channels=(4,), fodf_degree=4,
                              seed=1, lambda_sparsity=0.01, sigma_cauchy=0.3)
        rfs = {"wm": tensor_response(sh.ShBasis(4), table)}
        model = en.EsdModel(config, 1)
        ctx = en.LossContext(model, table, rfs)
        x_in, targets = en.network_inputs(model, batch)
        x = ad.Tensor(x_in)
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
        model = en.EsdModel(config, 1)
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
        model = en.EsdModel(en.EsdConfig(**TINY), 1)

        def never(*args, **kwargs):
            raise AssertionError("computed before checking the validation table")

        monkeypatch.setattr(en, "network_inputs", never)
        with pytest.raises(InvalidArgumentError, match="gradient table"):
            en.train(model, batch, val, {"wm": tensor_response(sh.ShBasis(4), table)})

    def test_nan_diagnostic_names_term(self):
        batch, table = tiny_dataset(n=4)
        config = en.EsdConfig(**TINY)
        rfs = {"wm": tensor_response(sh.ShBasis(4), table)}
        model = en.EsdModel(config, 1)
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
        config = en.EsdConfig(seed=2, channels=(8, 8, 8))
        model = en.EsdModel(config, 1)
        grid = model.grids[0]
        perm = sg.z_rotation_permutation(grid, 1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((grid.n_vertices, 2, 1))
        out = model.forward(None, ad.Tensor(x)).values
        out_p = model.forward(None, ad.Tensor(x[perm])).values
        assert np.abs(out_p - out[perm]).max() < 1e-9


def test_eval_forward_matches_dense_laplacian(monkeypatch):
    # a freshly built default model has a live ReLU head, so the outputs
    # compared below are not all zero
    model = en.EsdModel(en.EsdConfig(), 1)
    x = ad.Tensor(np.abs(np.random.default_rng(0).standard_normal((768, 4, 1))))
    out = model.forward(None, x, training=False).values

    calls = []

    def dense_matmul(indptr, indices, data, x):
        n = len(indptr) - 1
        calls.append(n)
        a = np.zeros((n, x.shape[0]))
        a[np.repeat(np.arange(n), np.diff(indptr)), indices] = data
        return a @ x

    # the network reaches the kernel through the module attribute, which is
    # also where profilers wrap it
    monkeypatch.setattr(_kernels, "csr_matmul", dense_matmul)
    ref = model.forward(None, x, training=False).values
    assert sorted(set(calls)) == [48, 192, 768]
    assert (out > 0).mean() > 0
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(out).max()
