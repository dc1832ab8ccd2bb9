import numpy as np
import pytest

from sphdecon import harmonics as sh
from sphdecon import signal_model as sm
from sphdecon.errors import InvalidArgumentError

from test_harmonics import eval_sh


def make_table(n=64, shells=(3000.0,), b0=1, seed=0):
    dirs = {b: sm.generate_gradients(n, seed) for b in shells}
    return sm.GradientTable(list(shells), dirs, b0_count=b0)


def tensor_response(basis, table, params=None, n_quad=512):
    """Independent oracle: direct zonal quadrature of the z-aligned tensor signal."""
    params = params or sm.TensorParams()
    z = np.polynomial.legendre.leggauss(n_quad)
    x, w = z
    pts = np.stack([np.sqrt(1 - x**2), np.zeros_like(x), x], axis=1)
    degrees = np.arange(0, basis.l_max + 1, 2)
    r = {}
    for b in table.shells:
        adc = params.lambda_perp + (params.lambda_parallel - params.lambda_perp) * x**2
        sig = np.exp(-b * adc)
        Z = sh.zonal_design(degrees, pts)
        r[b] = 2 * np.pi * (Z * w) @ sig
    if table.b0_count:
        r[0] = np.zeros(len(degrees))
        r[0][0] = np.sqrt(4 * np.pi)
    return sm.ResponseFunction("wm", r)


class TestRfDiagonal:
    def test_l0_block(self):
        rf = sm.ResponseFunction("gm", {3000.0: [0.7]})
        diag = sm.rf_diagonal(rf, sh.ShBasis(0), 3000.0)
        assert diag[0] == pytest.approx(np.sqrt(4 * np.pi) * 0.7, rel=1e-14)

    def test_gm_degree20(self):
        rf = sm.ResponseFunction("gm", {1000.0: [0.5]})
        diag = sm.rf_diagonal(rf, sh.ShBasis(20), 1000.0)
        assert diag[0] == pytest.approx(np.sqrt(4 * np.pi) * 0.5, rel=1e-14)
        assert np.all(diag[1:] == 0)
        assert diag.shape == (231,)

    def test_wm_blocks(self):
        rf = sm.ResponseFunction("wm", {3000.0: [1.0, 0.5]})
        diag = sm.rf_diagonal(rf, sh.ShBasis(8), 3000.0)
        assert diag[0] == pytest.approx(np.sqrt(4 * np.pi))
        assert np.allclose(diag[1:6], np.sqrt(4 * np.pi / 5) * 0.5)
        assert np.all(diag[6:] == 0)

    def test_unknown_shell(self):
        rf = sm.ResponseFunction("wm", {3000.0: [1.0]})
        with pytest.raises(InvalidArgumentError):
            sm.rf_diagonal(rf, sh.ShBasis(4), 2000.0)


class TestForward:
    def test_delta_fodf_reproduces_rf(self):
        # delta-like fODF along the response axis: the signal is the RF itself
        table = make_table(64)
        basis = sh.ShBasis(8)
        rf = tensor_response(basis, table)
        # band-limited delta at +z: coefficients Y_l^m(z)
        delta = np.array([eval_sh(l, m, [0, 0, 1]) for l, m in basis.degrees])
        F = {"wm": delta[None, :]}
        pred = sm.forward(F, {"wm": rf}, basis, table)
        # oracle: direct zonal evaluation of the RF at the gradients
        degrees = np.arange(0, 10, 2)
        Z = sh.zonal_design(degrees, table.directions[3000.0])
        direct = rf.r[3000.0] @ Z
        assert np.abs(pred[0, table.columns(3000.0)] - direct).max() < 1e-6

    def test_zero_fodf(self):
        table = make_table(32)
        basis = sh.ShBasis(8)
        rf = tensor_response(basis, table)
        pred = sm.forward({"wm": np.zeros((3, basis.L))}, {"wm": rf}, basis, table)
        assert pred.shape == (3, table.total_samples) and np.all(pred == 0)

    def test_linearity(self):
        table = make_table(32)
        basis = sh.ShBasis(4)
        rf = tensor_response(basis, table)
        rng = np.random.default_rng(5)
        f1, f2 = rng.standard_normal((2, 4, basis.L))
        p1 = sm.forward({"wm": f1}, {"wm": rf}, basis, table)
        p2 = sm.forward({"wm": f2}, {"wm": rf}, basis, table)
        p12 = sm.forward({"wm": 2 * f1 + 3 * f2}, {"wm": rf}, basis, table)
        assert np.abs(p12 - 2 * p1 - 3 * p2).max() < 1e-10

    def test_rotation_equivariance(self):
        # rotating the fODF (via refit of rotated samples) rotates the signal
        table = make_table(64, seed=3)
        basis = sh.ShBasis(8)
        rf = tensor_response(basis, table)
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(basis.L) * 0.2
        rot = sm.rotation_to_z([1.0, 1.0, 0.5])
        pts = np.asarray(
            sm.generate_gradients(256, 9), dtype=np.float64
        )
        vals = coeffs @ sh.design_matrix(basis, pts)
        rotated = sh.fit_matrix(pts @ rot.T, basis.l_max) @ vals
        pred_rot = sm.forward({"wm": rotated[None]}, {"wm": rf}, basis, table)
        # oracle: predict from original coefficients at inverse-rotated gradients
        table2 = sm.GradientTable(
            table.shells,
            {b: d @ rot for b, d in table.directions.items()},
            table.b0_count,
        )
        pred_back = sm.forward({"wm": coeffs[None]}, {"wm": rf}, basis, table2)
        cols = table.columns(3000.0)
        assert np.abs(pred_rot[:, cols] - pred_back[:, cols]).max() < 1e-5


class TestSimulateVoxel:
    def test_b0_is_one(self):
        table = make_table(16, b0=3)
        out = sm.simulate_voxel([([0, 0, 1], 1.0)], (0.5, 0.3, 0.2), table)
        assert np.all(out[0] == 1.0)

    def test_single_fiber_axial_value(self):
        table = sm.GradientTable([3000.0], {3000.0: np.array([[0.0, 0.0, 1.0]])}, 0)
        out = sm.simulate_voxel([([0, 0, 1], 1.0)], (0.6, 0.4, 0.0), table)
        lp, lt = 1.7e-3, 0.2e-3
        expect = 0.6 * np.exp(-3000 * lp) + 0.4 * np.exp(-3000 * 0.8e-3)
        assert out[3000.0][0] == pytest.approx(expect, rel=1e-12)
        assert np.exp(-3000 * lp) == pytest.approx(np.exp(-5.1), rel=1e-12)

    def test_fiber_swap_symmetry(self):
        table = make_table(32)
        a = sm.simulate_voxel(
            [([1, 0, 0], 0.5), ([0, 1, 0], 0.5)], (1.0, 0.0, 0.0), table
        )
        b = sm.simulate_voxel(
            [([0, 1, 0], 0.5), ([1, 0, 0], 0.5)], (1.0, 0.0, 0.0), table
        )
        assert np.abs(a[3000.0] - b[3000.0]).max() < 1e-12

    def test_rejects_bad_fractions(self):
        table = make_table(8)
        with pytest.raises(InvalidArgumentError):
            sm.simulate_voxel([([0, 0, 1], 1.0)], (0.5, 0.2, 0.2), table)


class TestRicianNoise:
    def test_sigma_zero_identity(self):
        s = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(sm.add_rician_noise(s, 0.0, 1), np.abs(s))

    def test_rayleigh_mean(self):
        # oracle: zero signal gives Rayleigh samples with mean sigma*sqrt(pi/2)
        sigma = 0.1
        out = sm.add_rician_noise(np.zeros(100_000), sigma, 42)
        assert out.mean() == pytest.approx(sigma * np.sqrt(np.pi / 2), rel=0.02)

    def test_deterministic(self):
        s = np.linspace(0, 1, 50)
        a = sm.add_rician_noise(s, 0.05, [1, 2])
        b = sm.add_rician_noise(s, 0.05, [1, 2])
        assert np.array_equal(a, b)


class TestGradients:
    def test_unit_and_spread(self):
        pts = sm.generate_gradients(64, 0)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12
        # no two directions (as axes) closer than a few degrees
        dots = np.abs(pts @ pts.T) - 2 * np.eye(64)
        assert np.degrees(np.arccos(np.clip(dots.max(), -1, 1))) > 5

    def test_deterministic(self):
        assert np.array_equal(sm.generate_gradients(16, 5), sm.generate_gradients(16, 5))


class TestSampleLayout:
    def table(self, shells=(3000.0, 1000.0, 2000.0), b0=2):
        widths = {1000.0: 8, 2000.0: 32, 3000.0: 16}
        dirs = {b: sm.generate_gradients(widths[b], 1) for b in shells}
        return sm.GradientTable(list(shells), dirs, b0_count=b0)

    def test_shells_sorted(self):
        table = self.table()
        assert table.shells == [1000.0, 2000.0, 3000.0]
        assert table.keys == [0, 1000.0, 2000.0, 3000.0]
        assert self.table(b0=0).keys == [1000.0, 2000.0, 3000.0]

    def test_columns_tile_samples_in_key_order(self):
        for b0 in (0, 2):
            table = self.table(b0=b0)
            cols = [np.arange(table.total_samples)[table.columns(b)] for b in table.keys]
            assert np.array_equal(np.concatenate(cols), np.arange(table.total_samples))
            widths = [len(c) for c in cols]
            assert widths == [b0] * bool(b0) + [table.n(b) for b in table.shells]
        assert self.table().total_samples == 2 + 8 + 32 + 16

    def test_equality(self):
        table = self.table()
        assert table == self.table(shells=(1000.0, 2000.0, 3000.0))
        assert table != self.table(b0=1)
        dirs = dict(table.directions)
        assert table != sm.GradientTable([1000.0, 2000.0], dirs, b0_count=2)
        dirs[2000.0] = dirs[2000.0].copy()
        dirs[2000.0][5] *= -1
        assert table != sm.GradientTable(list(dirs), dirs, b0_count=2)
        assert table != "table"

    def test_rejects_nonpositive_shell(self):
        dirs = sm.generate_gradients(8, 1)
        for b in (0.0, -1000.0):
            with pytest.raises(InvalidArgumentError, match="not positive"):
                sm.GradientTable([b], {b: dirs}, b0_count=1)

    def test_every_shell_gets_the_scheme(self):
        config = sm.SimConfig(shells=[3000.0, 1000.0], gradients_per_shell=16, n_voxels=3,
                              split=(1, 1, 1), seed=4)
        table = sm.build_gradient_table(config)
        assert table.shells == [1000.0, 3000.0]
        for b in table.shells:
            assert np.array_equal(table.directions[b], sm.generate_gradients(16, 4))

    def test_batch_rejects_wrong_width(self):
        table = self.table()
        sm.VoxelBatch(np.zeros((4, table.total_samples)), table)
        for shape in [(4, table.total_samples - 1), (4, table.total_samples + 1),
                      (table.total_samples,)]:
            with pytest.raises(InvalidArgumentError, match="columns"):
                sm.VoxelBatch(np.zeros(shape), table)

    def test_shell_is_a_view_of_its_columns(self):
        table = self.table()
        batch = sm.VoxelBatch(np.arange(3.0 * table.total_samples).reshape(3, -1), table)
        for b in table.keys:
            assert np.array_equal(batch.shell(b), batch.signals[:, table.columns(b)])
            assert np.shares_memory(batch.shell(b), batch.signals)
        assert batch.shell(0).shape == (3, 2)


class TestBatchGeneration:
    def config(self, **kw):
        base = dict(
            shells=[3000.0],
            gradients_per_shell=32,
            n_voxels=30,
            split=(20, 5, 5),
            seed=7,
            snr=30,
            tissues=1,
        )
        base.update(kw)
        return sm.SimConfig(**base)

    def test_crossing_angle_floor(self):
        config = self.config(n_voxels=60, split=(40, 10, 10))
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(60))
        for v in range(60):
            k = batch.n_fibers()[v]
            if k >= 2:
                angles = sm._axis_angles_deg(batch.fibers[v, :k])
                assert angles.min() >= config.min_crossing_angle_deg

    def test_order_independent(self):
        config = self.config()
        table = sm.build_gradient_table(config)
        full = sm.generate_batch(config, table, np.arange(10))
        part = sm.generate_batch(config, table, [7, 3])
        assert np.array_equal(part.signals[0], full.signals[7])
        assert np.array_equal(part.signals[1], full.signals[3])

    def test_tissue_fractions_sum(self):
        config = self.config(tissues=3)
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(30))
        assert np.abs(batch.tissue_fractions.sum(axis=1) - 1).max() < 1e-12

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidArgumentError):
            self.config(gradients_per_shell=48)
        with pytest.raises(InvalidArgumentError):
            self.config(shells=[500.0])
        with pytest.raises(InvalidArgumentError):
            self.config(split=(10, 10, 5))


class TestEstimateResponse:
    def single_fiber_batch(self, n=20, axis_aligned=False, seed=3):
        config = sm.SimConfig(
            shells=[3000.0],
            gradients_per_shell=64,
            n_voxels=n,
            split=(n, 0, 0),
            seed=seed,
            snr=None,
            tissues=1,
            fiber_count_probs=(1.0, 0.0, 0.0),
        )
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(n))
        if axis_aligned:
            for v in range(n):
                batch.fibers[v, 0] = [0, 0, 1]
                clean = sm.simulate_voxel([([0, 0, 1], 1.0)], (1, 0, 0), table)
                for b in clean:
                    batch.signals[v, table.columns(b)] = clean[b]
        return batch, table

    def test_recovers_tensor_response(self):
        batch, table = self.single_fiber_batch()
        basis = sh.ShBasis(8)
        est = sm.estimate_response(batch, basis)
        oracle = tensor_response(basis, table)
        # compare the implied signals at the gradients
        degrees = np.arange(0, 10, 2)
        Z = sh.zonal_design(degrees, table.directions[3000.0])
        assert np.abs(est.r[3000.0] @ Z - oracle.r[3000.0] @ Z).max() < 1e-3

    def test_axis_aligned_equals_plain_zonal_fit(self):
        batch, table = self.single_fiber_batch(axis_aligned=True)
        basis = sh.ShBasis(8)
        est = sm.estimate_response(batch, basis)
        degrees = np.arange(0, 10, 2)
        Z = sh.zonal_design(degrees, table.directions[3000.0])
        mean_sig = batch.shell(3000.0).mean(axis=0)
        plain = np.linalg.solve(Z @ Z.T, Z @ mean_sig)
        assert np.abs(est.r[3000.0] - plain).max() < 1e-10

    def test_isotropic_input_zonal_only(self):
        batch, table = self.single_fiber_batch()
        batch.signals[:] = 0.5
        est = sm.estimate_response(batch, sh.ShBasis(8))
        assert np.abs(est.r[3000.0][1:]).max() < 1e-6

    def test_too_few_voxels(self):
        batch, _ = self.single_fiber_batch(n=5)
        with pytest.raises(InvalidArgumentError):
            sm.estimate_response(batch, sh.ShBasis(4))
