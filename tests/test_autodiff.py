import copy

import numpy as np
import pytest

from sphdecon import autodiff as ad
from sphdecon import sphere_grid as sg
from sphdecon.errors import InvalidArgumentError


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grad(build_loss, tensors, rtol=1e-4):
    """build_loss(tape) -> scalar Tensor; checks every tensor's gradient."""
    for t in tensors:
        t.zero_grad()
    tape = ad.Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    for t in tensors:
        num = numeric_grad(lambda: build_loss(None).item(), t.values)
        got = t.grad if t.grad is not None else np.zeros_like(t.values)
        scale = np.abs(num).max() + 1e-8
        assert np.abs(got - num).max() / scale < rtol, (
            f"gradient mismatch: {np.abs(got - num).max()} vs scale {scale}"
        )


@pytest.fixture(scope="module")
def lap12():
    grid = sg.build_grid(1)
    return ad.scaled_laplacian(grid.laplacian, sg.estimate_lmax(grid))


@pytest.fixture(scope="module")
def lap48():
    grid = sg.build_grid(2)
    return ad.scaled_laplacian(grid.laplacian, sg.estimate_lmax(grid))


class TestGraphConv:
    def test_order0_is_channel_mixing(self, lap12):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((12, 2, 3)))
        w = ad.Tensor(rng.standard_normal((1, 3, 4)))
        y = ad.graph_conv(None, x, w, lap12)
        expect = np.einsum("nvc,co->nvo", x.values, w.values[0])
        assert np.abs(y.values - expect).max() < 1e-12

    def test_constant_field_is_minus_one_eigenvector(self, lap12):
        # scaled laplacian maps constants to -1 times themselves
        x = ad.Tensor(np.ones((12, 1, 1)))
        w = ad.Tensor(np.zeros((2, 1, 1)))
        w.values[1, 0, 0] = 1.0
        y = ad.graph_conv(None, x, w, lap12)
        assert np.abs(y.values + x.values).max() < 1e-9

    def test_gradients(self, lap12):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((12, 2, 2)), requires_grad=True)
        w = ad.Tensor(0.3 * rng.standard_normal((4, 2, 3)), requires_grad=True)
        target = rng.standard_normal((12, 2, 3))

        def loss(tape):
            return ad.sq_err_sum(tape, ad.graph_conv(tape, x, w, lap12), target)

        check_grad(loss, [x, w])

    def test_equivariance_exact(self, lap48):
        grid = sg.build_grid(2)
        perm = sg.z_rotation_permutation(grid, 1)
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.standard_normal((48, 3, 2)))
        w = ad.Tensor(rng.standard_normal((5, 2, 2)))
        y = ad.graph_conv(None, x, w, lap48)
        xp = ad.Tensor(x.values[perm])
        yp = ad.graph_conv(None, xp, w, lap48)
        assert np.abs(yp.values - y.values[perm]).max() < 1e-12

    def test_shape_mismatch(self, lap12):
        x = ad.Tensor(np.zeros((10, 1, 2)))
        w = ad.Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(InvalidArgumentError):
            ad.graph_conv(None, x, w, lap12)

    def test_matches_dense_chebyshev_sum(self, lap48):
        # oracle: sum_p T^p x W_p with the dense scaled Laplacian T
        grid = sg.build_grid(2)
        lmax = sg.estimate_lmax(grid)
        dense = (2.0 / lmax) * grid.laplacian.toarray() - np.eye(48)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((48, 3, 2))
        w = rng.standard_normal((5, 2, 4))
        powers = [np.linalg.matrix_power(dense, p) for p in range(5)]
        expect = sum(np.einsum("nm,mvc,co->nvo", powers[p], x, w[p]) for p in range(5))
        y = ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w), lap48)
        assert np.abs(y.values - expect).max() <= 1e-12


class TestPooling:
    def test_constant_tie_break(self):
        x = ad.Tensor(np.ones((8, 1, 1)))
        out, arg = ad.healpix_maxpool(None, x)
        assert np.all(out.values == 1.0)
        assert np.all(arg == 0)

    def test_one_hot_spike(self):
        x = ad.Tensor(np.zeros((16, 1, 1)))
        x.values[6, 0, 0] = 5.0
        out, _ = ad.healpix_maxpool(None, x)
        expect = np.zeros(4)
        expect[1] = 5.0
        assert np.array_equal(out.values[:, 0, 0], expect)

    def test_maxpool_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.standard_normal((16, 2, 2)), requires_grad=True)
        target = rng.standard_normal((4, 2, 2))

        def loss(tape):
            out, _ = ad.healpix_maxpool(tape, x)
            return ad.sq_err_sum(tape, out, target)

        check_grad(loss, [x], rtol=1e-5)

    def test_unpool_of_pooled_constant_blocks(self):
        rng = np.random.default_rng(4)
        coarse = rng.standard_normal((4, 1, 1))
        x = ad.Tensor(np.repeat(coarse, 4, axis=0))
        pooled, _ = ad.healpix_maxpool(None, x)
        back = ad.healpix_unpool(None, pooled)
        assert np.array_equal(back.values, x.values)

    def test_unpool_adjoint_of_sum_pool(self):
        # <unpool(x), y> == <x, sum-pool(y)>
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 3))
        y = rng.standard_normal((16, 2, 3))
        lhs = np.sum(ad.healpix_unpool(None, ad.Tensor(x)).values * y)
        rhs = np.sum(x * y.reshape(4, 4, 2, 3).sum(axis=1))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_unpool_gradient(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((4, 1, 2)), requires_grad=True)
        target = rng.standard_normal((16, 1, 2))

        def loss(tape):
            return ad.sq_err_sum(tape, ad.healpix_unpool(tape, x), target)

        check_grad(loss, [x])

    def test_unpool_round_trip(self):
        x = ad.Tensor(np.random.default_rng(4).standard_normal((12, 1, 3)), requires_grad=True)
        tape = ad.Tape()
        up = ad.healpix_unpool(tape, x)
        assert up.values.shape == (48, 1, 3)
        tape.backward(ad.sq_err_sum(tape, up, up.values / 2))  # d/dup = up
        assert np.array_equal(x.grad / 4.0, x.values)

    def test_maxpool_backward_routes_to_argmax(self):
        x = ad.Tensor(np.array([1.0, 3.0, 2.0, 0.0])[:, None, None], requires_grad=True)
        tape = ad.Tape()
        out, _ = ad.healpix_maxpool(tape, x)
        tape.backward(ad.sq_err_sum(tape, out, out.values - 2.5))  # d/dout = 5
        assert np.array_equal(x.grad[:, 0, 0], [0.0, 5.0, 0.0, 0.0])


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(3 + 2 * rng.standard_normal((32, 8, 3)))
        gamma = ad.Tensor(np.ones(3))
        beta = ad.Tensor(np.zeros(3))
        state = ad.BatchNormState.for_channels(3)
        y = ad.batchnorm(None, x, gamma, beta, state, training=True)
        assert np.abs(y.values.mean(axis=(0, 1))).max() < 1e-6
        assert np.abs(y.values.var(axis=(0, 1)) - 1).max() < 1e-4

    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((128, 64, 2))
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        y = ad.batchnorm(
            None, ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
            ad.BatchNormState.for_channels(2), training=True,
        )
        assert np.abs(y.values - x).max() < 1e-4

    def test_eval_before_training_uses_unit_stats(self):
        x = np.full((4, 2, 1), 1.5)
        state = ad.BatchNormState.for_channels(1)
        y = ad.batchnorm(
            None, ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
            state, training=False,
        )
        assert np.abs(y.values - x / np.sqrt(1 + state.eps)).max() < 1e-12

    def test_running_stats_update(self):
        rng = np.random.default_rng(9)
        x = 2 + rng.standard_normal((64, 16, 1))
        state = ad.BatchNormState.for_channels(1)
        ad.batchnorm(None, ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                     state, training=True)
        assert state.running_mean[0] == pytest.approx(0.1 * x.mean(), rel=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.standard_normal((8, 3, 2)), requires_grad=True)
        gamma = ad.Tensor(1 + 0.1 * rng.standard_normal(2), requires_grad=True)
        beta = ad.Tensor(0.1 * rng.standard_normal(2), requires_grad=True)
        target = rng.standard_normal((8, 3, 2))
        state = ad.BatchNormState(np.array([0.3, -0.2]), np.array([1.5, 0.8]))

        def loss(tape):
            out = ad.batchnorm(tape, x, gamma, beta, copy.deepcopy(state), training)
            return ad.sq_err_sum(tape, out, target)

        check_grad(loss, [x, gamma, beta])


class TestActivations:
    def test_values(self):
        assert ad.softplus(None, ad.Tensor(0.0)).item() == pytest.approx(np.log(2))
        assert ad.relu(None, ad.Tensor(-3.0)).item() == 0
        assert ad.relu(None, ad.Tensor(3.0)).item() == 3

    def test_softplus_gradient_is_logistic(self):
        x = ad.Tensor(np.linspace(-3, 3, 13), requires_grad=True)
        tape = ad.Tape()
        s = ad.softplus(tape, x)
        total = ad.sq_err_sum(tape, s, np.zeros(13))
        tape.backward(total)
        # d/dx sum s^2 = 2 s sigmoid(x)
        expect = 2 * s.values / (1 + np.exp(-x.values))
        assert np.abs(x.grad - expect).max() < 1e-10

        def loss(tape):
            return ad.sq_err_sum(tape, ad.softplus(tape, x), np.zeros(13))

        check_grad(loss, [x], rtol=1e-6)

    def test_relu_gradient(self):
        x = ad.Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)

        def loss(tape):
            return ad.sq_err_sum(tape, ad.relu(tape, x), np.ones(4))

        check_grad(loss, [x])


class TestSmallOps:
    def test_linear_concat_channel_column_gradients(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.standard_normal((5, 3, 2)), requires_grad=True)
        y = ad.Tensor(rng.standard_normal((5, 3, 1)), requires_grad=True)
        M = rng.standard_normal((5, 4))
        target = rng.standard_normal((3, 4))

        def loss(tape):
            cat = ad.concat(tape, [x, y])
            ch = ad.take_channel(tape, cat, 2)
            lin = ad.linear(tape, ch, M)
            col = ad.linear(tape, lin, np.eye(4)[:, [1]])
            t1 = ad.sq_err_sum(tape, lin, target)
            t2 = ad.sq_err_sum(tape, col, np.zeros((3, 1)))
            return ad.add(tape, t1, ad.scale(tape, t2, 0.5))

        check_grad(loss, [x, y])

    def test_reduce_max_and_outer_gradients(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        s = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        target = rng.standard_normal((4, 3))

        def loss(tape):
            m = ad.reduce_max(tape, x)  # (4, 1)
            outer = np.vstack([np.eye(3), np.full((1, 3), 0.7)])
            out = ad.linear(tape, ad.concat(tape, [s, m]), outer)  # s + 0.7 m
            t = ad.sq_err_sum(tape, out, target)
            m_rows = ad.linear(tape, m, np.ones((1, 3)))
            return ad.add(tape, t, ad.sq_err_sum(tape, m_rows, target))

        check_grad(loss, [x, s])

    def test_cauchy_values_and_gradient(self):
        sigma = 0.3
        x = ad.Tensor(np.array([sigma * np.sqrt(2)]), requires_grad=True)
        val = ad.cauchy_sum(None, x, sigma)
        assert val.item() == pytest.approx(np.log(2), abs=1e-12)

        def loss(tape):
            return ad.cauchy_sum(tape, x, sigma)

        check_grad(loss, [x], rtol=1e-6)

    def test_neg_part_gradient(self):
        x = ad.Tensor(np.array([-1.0, -0.2, 0.3, 2.0]), requires_grad=True)

        def loss(tape):
            return ad.neg_part_sq_sum(tape, x)

        check_grad(loss, [x])
        assert ad.neg_part_sq_sum(None, x).item() == pytest.approx(1.04)

    def test_gradient_accumulates_across_uses(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        tape = ad.Tape()
        y = ad.add(tape, x, x)
        total = ad.sq_err_sum(tape, y, np.zeros(1))  # (2x)^2 -> d/dx = 8x
        tape.backward(total)
        assert x.grad[0] == pytest.approx(16.0)


class TestAdam:
    def test_first_step_magnitude(self):
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.37])
        state = ad.AdamState.for_params([p])
        ad.adam_step([p], state, lr=0.05)
        assert p.values[0] == pytest.approx(1.0 - 0.05, abs=1e-6)

    def test_zero_grad_no_change(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = ad.AdamState.for_params([p])
        ad.adam_step([p], state, lr=0.1)
        assert np.array_equal(p.values, [1.0, -2.0])

    def test_descends_quadratic(self):
        # scripted descent oracle: f(w) = (w - 3)^2 from w = 0
        p = ad.Tensor(np.array([0.0]), requires_grad=True)
        state = ad.AdamState.for_params([p])
        for _ in range(100):
            p.grad = 2 * (p.values - 3.0)
            ad.adam_step([p], state, lr=0.1)
        assert abs(p.values[0] - 3.0) < 0.2


class TestRandomizedGradChecks:
    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_graph(self, seed, lap12):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.standard_normal((12, 2, 2)), requires_grad=True)
        w1 = ad.Tensor(0.4 * rng.standard_normal((3, 2, 3)), requires_grad=True)
        gamma = ad.Tensor(np.ones(3), requires_grad=True)
        beta = ad.Tensor(np.zeros(3), requires_grad=True)
        w2 = ad.Tensor(0.4 * rng.standard_normal((3, 3, 1)), requires_grad=True)
        state = ad.BatchNormState.for_channels(3)
        target = rng.standard_normal((3, 2, 1))

        def loss(tape):
            h = ad.graph_conv(tape, x, w1, lap12)
            h = ad.batchnorm(tape, h, gamma, beta, copy.deepcopy(state), True)
            h = ad.relu(tape, h)
            h = ad.graph_conv(tape, h, w2, lap12)
            h, _ = ad.healpix_maxpool(tape, h)
            t1 = ad.sq_err_sum(tape, h, target)
            t2 = ad.cauchy_sum(tape, h, 0.5)
            return ad.add(tape, t1, ad.scale(tape, t2, 0.1))

        check_grad(loss, [x, w1, gamma, beta, w2], rtol=2e-4)
