import copy
import tracemalloc

import numpy as np
import pytest

from sphdecon import _kernels
from sphdecon import autodiff as ad
from sphdecon import sphere_grid as sg
from sphdecon.errors import InvalidArgumentError

from graph_reference import dense_scaled_laplacian
from grid_rotations import z_rotation_permutation
from unpool_reference import healpix_unpool


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
        num = numeric_grad(lambda: float(build_loss(None).values), t.values)
        got = t.grad if t.grad is not None else np.zeros_like(t.values)
        scale = np.abs(num).max() + 1e-8
        assert np.abs(got - num).max() / scale < rtol, (
            f"gradient mismatch: {np.abs(got - num).max()} vs scale {scale}"
        )


def scalar_loss(tape, x, f, df):
    """Test-local loss sum(f(x)), with df its elementwise derivative."""
    out = ad.Tensor(np.sum(f(x.values)))
    if tape is not None and x.requires_grad:
        out.requires_grad = True

        def backward():
            x.add_grad(out.grad * df(x.values))

        tape.record(backward)
    return out


def sq_err(tape, x, target):
    """Sum of squared errors against a constant target."""
    return scalar_loss(tape, x, lambda v: (v - target) ** 2, lambda v: 2.0 * (v - target))


def unpool(tape, x, skip, lap):
    """unpool_conv through an order-0 identity filter: the unpooled input itself."""
    eye = np.eye(x.values.shape[2] + skip.values.shape[2], dtype=x.values.dtype)
    return ad.unpool_conv(tape, x, skip, ad.Tensor(eye[None]), lap)


def scaled_laplacian(nside):
    grid = sg.build_grid(nside)
    return grid.laplacian.rescaled(sg.estimate_lmax(grid.laplacian))


@pytest.fixture(scope="module")
def lap12():
    return scaled_laplacian(1)


@pytest.fixture(scope="module")
def lap48():
    return scaled_laplacian(2)


@pytest.fixture(scope="module")
def lap768():
    return scaled_laplacian(8)


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
            return sq_err(tape, ad.graph_conv(tape, x, w, lap12), target)

        check_grad(loss, [x, w])

    def test_equivariance_exact(self, lap48):
        grid = sg.build_grid(2)
        perm = z_rotation_permutation(grid, 1)
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

    @pytest.mark.parametrize("c_in, c_out", [(2, 3), (3, 3), (3, 2)])
    @pytest.mark.parametrize("needs_grad", ["x", "weights", "both"])
    def test_gradients_each_input(self, lap12, c_in, c_out, needs_grad):
        # C_out <= C_in runs the Laplacian after the channel mix, C_out > C_in
        # before it, and rebuilds the monomial stack in backward
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.standard_normal((12, 2, c_in)),
                      requires_grad=needs_grad in ("x", "both"))
        w = ad.Tensor(0.3 * rng.standard_normal((4, c_in, c_out)),
                      requires_grad=needs_grad in ("weights", "both"))
        target = rng.standard_normal((12, 2, c_out))

        def loss(tape):
            return sq_err(tape, ad.graph_conv(tape, x, w, lap12), target)

        check_grad(loss, [t for t in (x, w) if t.requires_grad])
        assert all((t.grad is None) == (not t.requires_grad) for t in (x, w))

    @pytest.mark.parametrize("c_in", [16, 1])
    def test_tape_keeps_only_the_input(self, lap768, c_in):
        # a recorded call against an unrecorded one, at the default network's
        # finest level. Measured: under 0.2 kB more at 16->16 and 1->16 (11.2
        # and 0.7 kB while the closure kept the (16, 80) mixed weights); a
        # kept monomial stack is 15.7 MB and 0.98 MB.
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.standard_normal((768, 32, c_in)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((5, c_in, 16)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.graph_conv(None, x, w, lap768)
            unrecorded = tracemalloc.get_traced_memory()[0] - base
            del out
            base = tracemalloc.get_traced_memory()[0]
            tape = ad.Tape()
            out = ad.graph_conv(tape, x, w, lap768)
            recorded = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert recorded - unrecorded < 32e3, (
            f"the tape pins {(recorded - unrecorded) / 1e6:.2f} MB beyond the output"
        )

    def test_backward_peak_is_a_few_activations(self, lap768):
        # a 16 -> 16 float32 filter on 768 vertices and 32 voxels, whose
        # (N, V, C) arrays are 1.57 MB; the loss's gradient, one of them, is
        # counted. Measured: 4.3 such arrays (the output gradient, a power of
        # it, the operator's product, dx and its next term), and 8.3 while
        # backward built the (P+1)-wide power stack.
        rng = np.random.default_rng(15)
        x = ad.Tensor(rng.standard_normal((768, 32, 16)).astype(np.float32), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((5, 16, 16)).astype(np.float32), requires_grad=True)
        g = rng.standard_normal((768, 32, 16)).astype(np.float32)
        tape = ad.Tape()
        y = ad.graph_conv(tape, x, w, lap768)
        loss = scalar_loss(tape, y, lambda v: v * g, lambda v: g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * g.nbytes, f"backward peaked at {peak / g.nbytes:.1f} activations"
        assert x.grad.dtype == w.grad.dtype == np.float32

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_constant_offset_stays_out_of_the_operator(self, lap768, seed):
        # a float32 field of 100 plus unit variation, through a filter blind
        # to constants: against float64 on the same rounded operands, the
        # output is within 1.5e-7 relative (Frobenius) over seeds 0-4, and
        # was within 8.9e-6 to 1.8e-5 when the monomial stack carried the
        # offset through the float32-rounded operator
        rng = np.random.default_rng(seed)
        x = (100.0 + rng.standard_normal((768, 8, 1))).astype(np.float32)
        w = rng.standard_normal((5, 1, 4))
        w[4] -= np.einsum("p,pio->io", (-1.0) ** np.arange(5), w)
        w = w.astype(np.float32)
        got = ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w), lap768).values
        ref = ad.graph_conv(None, ad.Tensor(x.astype(np.float64)),
                            ad.Tensor(w.astype(np.float64)), lap768).values
        assert got.dtype == np.float32
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)

    @pytest.mark.parametrize("c_in, c_out", [(1, 4), (3, 3), (4, 2), (5, 1)])
    def test_matches_dense_chebyshev_sum(self, lap48, c_in, c_out):
        # oracle: sum_p T^p x W_p with the dense scaled Laplacian T
        grid = sg.build_grid(2)
        lmax = sg.estimate_lmax(grid.laplacian)
        dense = dense_scaled_laplacian(grid, lmax)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((48, 3, c_in))
        w = rng.standard_normal((5, c_in, c_out))
        powers = [np.linalg.matrix_power(dense, p) for p in range(5)]
        expect = sum(np.einsum("nm,mvc,co->nvo", powers[p], x, w[p]) for p in range(5))
        y = ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w), lap48)
        assert np.abs(y.values - expect).max() <= 1e-12


class TestPooling:
    def test_constant_tie_break(self):
        x = ad.Tensor(np.ones((8, 1, 1)))
        out = ad.healpix_maxpool(None, x)
        _, arg = _kernels.maxpool4(x.values.reshape(8, 1))
        assert np.all(out.values == 1.0)
        assert np.all(arg == 0)

    def test_one_hot_spike(self):
        x = ad.Tensor(np.zeros((16, 1, 1)))
        x.values[6, 0, 0] = 5.0
        out = ad.healpix_maxpool(None, x)
        expect = np.zeros(4)
        expect[1] = 5.0
        assert np.array_equal(out.values[:, 0, 0], expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_pool_takes_the_max_alone(self, dtype, monkeypatch):
        # without a tape no winner offsets are computed, and the output is the
        # recorded pool's byte for byte: ReLU zeros, exact ties and signed values
        rng = np.random.default_rng(12)
        x = np.maximum(rng.standard_normal((96, 5, 3)), 0.0).astype(dtype)
        x[8:12] = x[8]  # a family whose 4 children tie
        x[20:24] = 0.0
        recorded = ad.healpix_maxpool(ad.Tape(), ad.Tensor(x, requires_grad=True)).values

        def refuse(values):
            raise AssertionError("an eval pool computed winner offsets")

        monkeypatch.setattr(_kernels, "maxpool4", refuse)
        out = ad.healpix_maxpool(None, ad.Tensor(x)).values
        assert out.dtype == dtype and out.shape == (24, 5, 3)
        assert out.tobytes() == recorded.tobytes()

    def test_maxpool_gradient(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.standard_normal((16, 2, 2)), requires_grad=True)
        target = rng.standard_normal((4, 2, 2))

        def loss(tape):
            return sq_err(tape, ad.healpix_maxpool(tape, x), target)

        check_grad(loss, [x], rtol=1e-5)

    def test_unpool_of_pooled_constant_blocks(self, lap12):
        rng = np.random.default_rng(4)
        coarse = rng.standard_normal((3, 1, 1))
        x = ad.Tensor(np.repeat(coarse, 4, axis=0))
        pooled = ad.healpix_maxpool(None, x)
        back = unpool(None, pooled, ad.Tensor(np.zeros((12, 1, 0))), lap12)
        assert np.array_equal(back.values, x.values)

    def test_unpool_adjoint_of_sum_pool(self, lap12):
        # <unpool(x), y> == <x, sum-pool(y)>
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 3))
        y = rng.standard_normal((12, 2, 3))
        no_skip = ad.Tensor(np.zeros((12, 2, 0)))
        lhs = np.sum(unpool(None, ad.Tensor(x), no_skip, lap12).values * y)
        rhs = np.sum(x * y.reshape(3, 4, 2, 3).sum(axis=1))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_unpool_gradient(self, lap12):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((3, 1, 2)), requires_grad=True)
        skip = ad.Tensor(rng.standard_normal((12, 1, 1)), requires_grad=True)
        w = ad.Tensor(0.3 * rng.standard_normal((3, 3, 2)), requires_grad=True)
        target = rng.standard_normal((12, 1, 2))

        def loss(tape):
            return sq_err(tape, ad.unpool_conv(tape, x, skip, w, lap12), target)

        check_grad(loss, [x, skip, w])

    def test_unpool_joins_skip_channels(self, lap12):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.standard_normal((3, 3, 2)))
        skip = ad.Tensor(rng.standard_normal((12, 3, 1)))
        up = unpool(None, x, skip, lap12)
        expect = np.concatenate([np.repeat(x.values, 4, axis=0), skip.values], axis=-1)
        assert np.array_equal(up.values, expect)

    def test_unpool_round_trip(self, lap48):
        x = ad.Tensor(np.random.default_rng(4).standard_normal((12, 1, 3)), requires_grad=True)
        skip = ad.Tensor(np.zeros((48, 1, 2)))
        tape = ad.Tape()
        up = unpool(tape, x, skip, lap48)
        assert up.values.shape == (48, 1, 5)
        tape.backward(sq_err(tape, up, up.values / 2))  # d/dup = up
        assert np.array_equal(x.grad / 4.0, x.values)
        assert skip.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_backward_routes_as_int64_offsets_did(self, dtype):
        # small integers tie often; the gradient goes to the first of the tied
        # children, as numpy's int64 argmax placed it before the offsets
        # became uint8
        rng = np.random.default_rng(9)
        x = ad.Tensor(rng.integers(0, 3, size=(48, 5, 3)).astype(dtype), requires_grad=True)
        g = rng.standard_normal((12, 5, 3)).astype(dtype)
        tape = ad.Tape()
        out = ad.healpix_maxpool(tape, x)
        tape.backward(scalar_loss(tape, out, lambda v: v * g, lambda v: g))
        blocks = x.values.reshape(12, 4, 15)
        expect = np.zeros_like(blocks)
        np.put_along_axis(expect, np.argmax(blocks, axis=1)[:, None],
                          g.reshape(12, 1, 15), axis=1)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == expect.reshape(48, 5, 3).tobytes()

    def test_maxpool_backward_routes_to_argmax(self):
        x = ad.Tensor(np.array([1.0, 3.0, 2.0, 0.0])[:, None, None], requires_grad=True)
        tape = ad.Tape()
        out = ad.healpix_maxpool(tape, x)
        tape.backward(sq_err(tape, out, out.values - 2.5))  # d/dout = 5
        assert np.array_equal(x.grad[:, 0, 0], [0.0, 5.0, 0.0, 0.0])


class TestUnpoolConv:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_bit_for_bit(self, lap768, dtype):
        # the default network's level-0 decoder block: 192 coarse vertices of
        # 32 channels, a 16-channel skip, 32 voxels, order 4, 48 -> 16.
        # unpool_conv mixes the coarse channels on the coarse rows and sums
        # the gradient over the 4 children before its channel mix, so it
        # rounds otherwise than graph_conv of the unpooled input, which it
        # matched bit for bit while it built that input. Measured (relative,
        # Frobenius, seeds 21-26): at most 7.8e-16 in float64 and 4.3e-7 in
        # float32; skip's gradient is still bit for bit.
        rng = np.random.default_rng(21)
        init = {"coarse": (192, 32, 32), "skip": (768, 32, 16), "weights": (5, 48, 16)}
        g = rng.standard_normal((768, 32, 16)).astype(dtype)
        results = []
        for op in ("new", "reference"):
            ts = {k: ad.Tensor(np.random.default_rng(22 + i).standard_normal(shape)
                               .astype(dtype), requires_grad=True)
                  for i, (k, shape) in enumerate(init.items())}
            tape = ad.Tape()
            if op == "new":
                y = ad.unpool_conv(tape, ts["coarse"], ts["skip"], ts["weights"], lap768)
            else:
                up = healpix_unpool(tape, ts["coarse"], ts["skip"])
                y = ad.graph_conv(tape, up, ts["weights"], lap768)
            tape.backward(scalar_loss(tape, y, lambda v: v * g, lambda v: g))
            results.append([y.values] + [ts[k].grad for k in init])
        bound = 1e-12 if dtype == np.float64 else 1e-6
        for got, ref in zip(*results):
            assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)

    def test_tape_keeps_nothing_beyond_the_output(self, lap768):
        # a recorded call against an unrecorded one at the same shape; the
        # unpooled (768, 32, 48) float32 input is 4.7 MB
        rng = np.random.default_rng(23)
        coarse = ad.Tensor(rng.standard_normal((192, 32, 32)).astype(np.float32),
                           requires_grad=True)
        skip = ad.Tensor(rng.standard_normal((768, 32, 16)).astype(np.float32),
                         requires_grad=True)
        w = ad.Tensor(rng.standard_normal((5, 48, 16)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.unpool_conv(None, coarse, skip, w, lap768)
            unrecorded = tracemalloc.get_traced_memory()[0] - base
            del out
            base = tracemalloc.get_traced_memory()[0]
            tape = ad.Tape()
            out = ad.unpool_conv(tape, coarse, skip, w, lap768)
            recorded = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert recorded - unrecorded < 32e3, (
            f"the tape pins {(recorded - unrecorded) / 1e6:.2f} MB beyond the output"
        )

    @pytest.mark.parametrize("coarse, skip, w", [
        ((3, 2, 2), (12, 2, 1), (2, 2, 1)),  # weights miss the skip channel
        ((3, 2, 2), (12, 2, 1), (2, 3, 4)),  # a widening filter
        ((3, 2, 2), (12, 1, 1), (2, 3, 1)),  # voxel counts differ
        ((12, 2, 2), (48, 2, 1), (2, 3, 1)),  # the operator is level 1's
    ])
    def test_shape_mismatch(self, lap12, coarse, skip, w):
        with pytest.raises(InvalidArgumentError):
            ad.unpool_conv(None, ad.Tensor(np.zeros(coarse)), ad.Tensor(np.zeros(skip)),
                           ad.Tensor(np.zeros(w)), lap12)


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(3 + 2 * rng.standard_normal((32, 8, 3)))
        gamma = ad.Tensor(np.ones(3))
        beta = ad.Tensor(np.full(3, 10.0))  # shifted clear of the ReLU
        state = ad.BatchNormState(np.zeros(3), np.ones(3))
        y = ad.batchnorm(None, x, gamma, beta, state, training=True)
        assert np.abs(y.values.mean(axis=(0, 1)) - 10).max() < 1e-6
        assert np.abs(y.values.var(axis=(0, 1)) - 1).max() < 1e-4

    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((128, 64, 2))
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        y = ad.batchnorm(
            None, ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
            ad.BatchNormState(np.zeros(2), np.ones(2)), training=True,
        )
        assert np.abs(y.values - np.maximum(x, 0)).max() < 1e-4

    def test_eval_before_training_uses_unit_stats(self):
        x = np.full((4, 2, 1), 1.5)
        state = ad.BatchNormState(np.zeros(1), np.ones(1))
        y = ad.batchnorm(
            None, ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
            state, training=False,
        )
        assert np.abs(y.values - x / np.sqrt(1 + state.eps)).max() < 1e-12

    def test_running_stats_update(self):
        # a tape-free train-mode pass folds each batch into cumulative means,
        # the first one replacing the start values; a training step, which
        # records on a tape, leaves the statistics alone
        rng = np.random.default_rng(9)
        xs = [2 + k + rng.standard_normal((64, 16, 1)) for k in range(3)]
        state = ad.BatchNormState(np.full(1, 5.0), np.full(1, 7.0))
        for k, x in enumerate(xs, start=1):
            ad.batchnorm(None, ad.Tensor(x), ad.Tensor(np.ones(1)), ad.Tensor(np.zeros(1)),
                         state, training=True)
            assert state.batches == k
            assert state.mean[0] == pytest.approx(np.mean([x.mean() for x in xs[:k]]), rel=1e-12)
            assert state.var[0] == pytest.approx(np.mean([x.var() for x in xs[:k]]), rel=1e-12)
        ad.batchnorm(ad.Tape(), ad.Tensor(xs[0] + 9, requires_grad=True), ad.Tensor(np.ones(1)),
                     ad.Tensor(np.zeros(1)), state, training=True)
        assert state.batches == 3
        assert state.mean[0] == pytest.approx(np.mean([x.mean() for x in xs]), rel=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_axis_reductions(self, training):
        # reference: the textbook forward and backward with numpy's
        # mean, var and sum over the (N, V) axes, then the ReLU
        rng = np.random.default_rng(11)
        x = ad.Tensor(2 + rng.standard_normal((48, 5, 3)), requires_grad=True)
        gamma = ad.Tensor(1 + 0.1 * rng.standard_normal(3), requires_grad=True)
        beta = ad.Tensor(0.1 * rng.standard_normal(3), requires_grad=True)
        g = rng.standard_normal((48, 5, 3))
        state = ad.BatchNormState(np.array([0.3, -0.2, 1.0]), np.array([1.5, 0.8, 2.0]))
        ref_state = copy.deepcopy(state)

        tape = ad.Tape()
        out = ad.batchnorm(tape, x, gamma, beta, state, training)
        # d(sum(out * g))/d(out) = g
        tape.backward(scalar_loss(tape, out, lambda v: v * g, lambda v: g))

        xv, m = x.values, 48 * 5
        if training:  # a step on a tape leaves the statistics as they were
            mean, var = xv.mean(axis=(0, 1)), xv.var(axis=(0, 1))
        else:
            mean, var = ref_state.mean, ref_state.var
        invstd = 1.0 / np.sqrt(var + state.eps)
        xhat = (xv - mean) * invstd
        pre = gamma.values * xhat + beta.values
        g_pre = g * (pre > 0)  # through the ReLU
        gx = g_pre * gamma.values
        if training:
            s1, s2 = gx.sum(axis=(0, 1)), (gx * xhat).sum(axis=(0, 1))
            dx = (invstd / m) * (m * gx - s1 - xhat * s2)
        else:
            dx = gx * invstd
        pairs = [
            (out.values, np.maximum(pre, 0)),
            (x.grad, dx),
            (gamma.grad, (g_pre * xhat).sum(axis=(0, 1))),
            (beta.grad, g_pre.sum(axis=(0, 1))),
            (state.mean, ref_state.mean),
            (state.var, ref_state.var),
        ]
        for got, expect in pairs:
            assert np.abs(got - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_rebuild_is_the_output_byte_for_byte(self, dtype, training):
        # on a tape the output can be released and rebuilt from x; read()
        # keeps the rebuilt values. Without a tape it has no rebuild, and
        # release keeps the values.
        rng = np.random.default_rng(13)
        x = ad.Tensor((2 + 3 * rng.standard_normal((96, 5, 4))).astype(dtype),
                      requires_grad=True)
        gamma = ad.Tensor((1 + 0.3 * rng.standard_normal(4)).astype(dtype), requires_grad=True)
        beta = ad.Tensor((0.2 * rng.standard_normal(4)).astype(dtype), requires_grad=True)
        state = ad.BatchNormState(np.array([1.5, 2.0, 2.5, 3.0], dtype),
                                  np.array([4.0, 9.0, 1.0, 16.0], dtype))
        out = ad.batchnorm(ad.Tape(), x, gamma, beta, state, training)
        kept = out.values.copy()
        assert 0 < np.count_nonzero(kept) < kept.size
        out.release()
        assert out.values is None
        rebuilt = out.read()
        assert out.values is rebuilt
        assert rebuilt.dtype == dtype and rebuilt.shape == kept.shape
        assert rebuilt.tobytes() == kept.tobytes()

        untaped = ad.batchnorm(None, x, gamma, beta, state, training)
        untaped.release()
        assert untaped.rebuild is None and untaped.values.tobytes() == kept.tobytes()

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
            return sq_err(tape, out, target)

        check_grad(loss, [x, gamma, beta])


class TestActivations:
    def test_values(self):
        assert float(ad.softplus(None, ad.Tensor(0.0)).values) == pytest.approx(np.log(2))

    def test_softplus_gradient_is_logistic(self):
        x = ad.Tensor(np.linspace(-3, 3, 13), requires_grad=True)
        tape = ad.Tape()
        s = ad.softplus(tape, x)
        total = sq_err(tape, s, np.zeros(13))
        tape.backward(total)
        # d/dx sum s^2 = 2 s sigmoid(x)
        expect = 2 * s.values / (1 + np.exp(-x.values))
        assert np.abs(x.grad - expect).max() < 1e-10

        def loss(tape):
            return sq_err(tape, ad.softplus(tape, x), np.zeros(13))

        check_grad(loss, [x], rtol=1e-6)

    def test_softplus_gradient_matches_expit(self):
        from scipy.special import expit

        x = ad.Tensor(np.concatenate([np.random.default_rng(5).normal(0, 30, 2000),
                                      [0.0, -700.0, -40.0, 40.0, 800.0]]), requires_grad=True)
        tape = ad.Tape()
        total = scalar_loss(tape, ad.softplus(tape, x), lambda v: v, np.ones_like)
        tape.backward(total)
        ref = expit(x.values)
        assert np.all(np.abs(x.grad - ref) <= 1e-15 * ref)


class TestSmallOps:
    def test_gradient_accumulates_across_uses(self, lap12):
        x = ad.Tensor(np.full((3, 1, 1), 2.0), requires_grad=True)
        tape = ad.Tape()
        up = unpool(tape, x, ad.Tensor(np.zeros((12, 1, 0))), lap12)
        y = unpool(tape, ad.scale(tape, x, 3.0), up, lap12)
        total = sq_err(tape, y, np.zeros((12, 1, 2)))  # 4 ((3x)^2 + x^2) -> d/dx = 80x
        tape.backward(total)
        assert np.all(x.grad == pytest.approx(160.0))


class TestTape:
    def test_second_backward_refused(self):
        x = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        tape = ad.Tape()
        total = sq_err(tape, ad.scale(tape, x, 2.0), np.zeros(2))
        tape.backward(total)
        grad = x.grad.copy()
        with pytest.raises(InvalidArgumentError, match="already ran"):
            tape.backward(total)
        assert np.array_equal(x.grad, grad)


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
        state = ad.BatchNormState(np.zeros(3), np.ones(3))
        target = rng.standard_normal((3, 2, 1))

        def loss(tape):
            h = ad.graph_conv(tape, x, w1, lap12)
            h = ad.batchnorm(tape, h, gamma, beta, copy.deepcopy(state), True)
            h = ad.graph_conv(tape, h, w2, lap12)
            h = ad.healpix_maxpool(tape, h)
            # squared error plus 0.1 x a Cauchy penalty with sigma 0.5
            return scalar_loss(
                tape, h, lambda v: (v - target) ** 2 + 0.1 * np.log1p(v * v / 0.5),
                lambda v: 2.0 * (v - target) + 0.2 * v / (0.5 + v * v),
            )

        check_grad(loss, [x, w1, gamma, beta, w2], rtol=2e-4)
