import tracemalloc

import numpy as np
import pytest

from sphdecon import harmonics as sh
from sphdecon import signal_model as sm
from sphdecon.errors import InvalidArgumentError

from forward_model import forward
from test_harmonics import eval_sh


# ---------------------------------------------------------------------------
# References: a per-voxel generator over the simulator's Philox layout (one
# generator per voxel and lane, drawing through the same numpy ufuncs), and
# the gradient scheme and the response fit as they were before they were
# batched. The batched code must reproduce each of them exactly.


def reference_simulate_voxel(fibers, tissue_fractions, gradients, tensor_params=None):
    """Noiseless multi-tensor signals of one voxel as {key: samples}."""
    tensor_params = tensor_params or sm.TensorParams()
    wm, gm, csf = tissue_fractions
    dirs = np.array([np.asarray(d, float) / np.linalg.norm(d) for d, _ in fibers])
    fracs = np.array([f for _, f in fibers], dtype=np.float64)
    lp, lt = tensor_params.lambda_parallel, tensor_params.lambda_perp
    out = {}
    for b in gradients.shells:
        g = gradients.directions[b]
        proj = (g @ dirs.T) ** 2
        adc = lt + (lp - lt) * proj
        wm_sig = np.exp(-b * adc) @ fracs
        out[b] = wm * wm_sig + gm * np.exp(-b * tensor_params.d_gm) + csf * np.exp(
            -b * tensor_params.d_csf
        )
    if gradients.b0_count > 0:
        out[0] = np.full(gradients.b0_count, wm + gm + csf)
    return out


def reference_uniforms(seed, stream, lane, voxel, n):
    """One voxel's n uniforms of a lane, from its own Philox at [voxel * blocks, lane, stream, 0]."""
    blocks = -(-n // 4)
    gen = np.random.Philox(key=[seed % 2**64, seed >> 64],
                           counter=[voxel * blocks, lane, stream, 0])
    return (gen.random_raw(4 * blocks)[:n] >> 11) * 2.0**-53


def reference_normals(u):
    """Box-Muller on 2m uniforms: m cosine normals, then m sine normals."""
    m = len(u) // 2
    r = np.sqrt(-2.0 * np.log1p(-u[:m]))
    theta = 2 * np.pi * u[m:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])


def reference_flat_dirichlet(u):
    """k unit exponentials over their sum, added left to right."""
    e = -np.log1p(-u)
    total = 0.0
    for x in e:
        total += x
    return e / total


def reference_draw_voxel(config, vox):
    """One voxel's axes, fiber and tissue fractions, and its axis and fraction attempts."""
    seed = config.seed
    u = reference_uniforms(seed, 202, 0, vox, 6)
    cdf = np.cumsum(config.fiber_count_probs)
    n_fib = 1 + int(np.searchsorted(cdf / cdf[-1], u[0], side="right"))
    attempts = [0, 0]
    while True:
        z = reference_normals(reference_uniforms(seed, 202, 1 + 2 * attempts[0], vox, 10))
        dirs = np.array([row / np.linalg.norm(row) for row in z[:9].reshape(3, 3)[:n_fib]])
        attempts[0] += 1
        angles = [np.degrees(np.arccos(np.clip(abs(dirs[i] @ dirs[j]), -1, 1)))
                  for i in range(n_fib) for j in range(i + 1, n_fib)]
        if n_fib == 1 or min(angles) >= config.min_crossing_angle_deg:
            break
    while True:
        u_fracs = reference_uniforms(seed, 202, 2 + 2 * attempts[1], vox, 3)
        fracs = reference_flat_dirichlet(u_fracs[:n_fib])
        attempts[1] += 1
        if n_fib == 1 or fracs.min() >= config.min_fiber_fraction:
            break
    if config.tissues == 1:
        tissue = np.array([1.0, 0.0, 0.0])
    elif u[1] < config.pure_voxel_prob:
        tissue = np.zeros(3)
        tissue[int(3 * u[2])] = 1.0
    else:
        tissue = reference_flat_dirichlet(u[3:])
    return dirs, fracs, tissue, attempts


def reference_generate_batch(config, gradients, voxel_indices):
    """(signals, fibers, fiber_fractions, tissue_fractions, attempts), one voxel at a time."""
    n = len(voxel_indices)
    fibers = np.zeros((n, 3, 3))
    fiber_fracs = np.zeros((n, 3))
    tissue_fracs = np.zeros((n, 3))
    signals = np.zeros((n, gradients.total_samples))
    attempts = []
    sigma = 0.0 if not config.snr else 1.0 / config.snr
    for row, vox in enumerate(voxel_indices):
        dirs, fracs, tissue, tries = reference_draw_voxel(config, int(vox))
        attempts.append(tries)
        k = 0 if tissue[0] == 0.0 else len(dirs)
        fibers[row, :k] = dirs[:k]
        fiber_fracs[row, :k] = fracs[:k]
        tissue_fracs[row] = tissue
        clean = reference_simulate_voxel(list(zip(dirs, fracs)), tissue, gradients,
                                         config.tensor)
        for b in gradients.keys:
            signals[row, gradients.columns(b)] = clean[b]
        if sigma:
            m = gradients.total_samples
            z = reference_normals(reference_uniforms(config.seed, 303, 0, int(vox), 2 * m))
            signals[row] = np.sqrt((signals[row] + sigma * z[:m]) ** 2 + (sigma * z[m:]) ** 2)
    return signals, fibers, fiber_fracs, tissue_fracs, attempts


def reference_generate_gradients(n, seed):
    rng = np.random.default_rng([int(seed), 101, n])
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if n == 1:
        return pts

    def energy_of(p):
        d1 = np.linalg.norm(p[:, None] - p[None, :], axis=2)
        d2 = np.linalg.norm(p[:, None] + p[None, :], axis=2)
        iu = np.triu_indices(len(p), 1)
        return (1 / d1[iu]).sum() + (1 / d2[iu]).sum() + (1 / d2.diagonal()).sum()

    def force_of(p):
        diff = p[:, None] - p[None, :]
        d1 = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(d1, np.inf)
        f = (diff / d1[:, :, None] ** 3).sum(axis=1)
        anti = p[:, None] + p[None, :]
        d2 = np.linalg.norm(anti, axis=2)
        f += (anti / d2[:, :, None] ** 3).sum(axis=1)
        return f

    step = 0.1
    energy = energy_of(pts)
    for _ in range(300):
        force = force_of(pts)
        force -= (force * pts).sum(axis=1, keepdims=True) * pts
        trial = pts + step * force / np.abs(force).max()
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        e2 = energy_of(trial)
        if e2 < energy:
            pts, energy, step = trial, e2, step * 1.1
        else:
            step *= 0.5
            if step < 1e-8:
                break
    return pts


def reference_estimate_response(batch, basis):
    """Per-shell zonal WM response, one fit per voxel, as {b: coefficients}."""
    degrees = np.arange(0, basis.l_max + 1, 2)
    r = {}
    for b in batch.gradients.shells:
        samples = batch.shell(b)
        acc = np.zeros(len(degrees))
        for v in range(batch.n_voxels):
            rot = sm.rotation_to_z(batch.fibers[v, 0])
            Z = sh.zonal_design(degrees, batch.gradients.directions[b] @ rot.T)
            acc += np.linalg.solve(Z @ Z.T, Z @ samples[v])
        r[b] = acc / batch.n_voxels
    return r


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
        pred = forward(F, {"wm": rf}, basis, table)
        # oracle: direct zonal evaluation of the RF at the gradients
        degrees = np.arange(0, 10, 2)
        Z = sh.zonal_design(degrees, table.directions[3000.0])
        direct = rf.r[3000.0] @ Z
        assert np.abs(pred[0, table.columns(3000.0)] - direct).max() < 1e-6

    def test_zero_fodf(self):
        table = make_table(32)
        basis = sh.ShBasis(8)
        rf = tensor_response(basis, table)
        pred = forward({"wm": np.zeros((3, basis.L))}, {"wm": rf}, basis, table)
        assert pred.shape == (3, table.total_samples) and np.all(pred == 0)

    def test_linearity(self):
        table = make_table(32)
        basis = sh.ShBasis(4)
        rf = tensor_response(basis, table)
        rng = np.random.default_rng(5)
        f1, f2 = rng.standard_normal((2, 4, basis.L))
        p1 = forward({"wm": f1}, {"wm": rf}, basis, table)
        p2 = forward({"wm": f2}, {"wm": rf}, basis, table)
        p12 = forward({"wm": 2 * f1 + 3 * f2}, {"wm": rf}, basis, table)
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
        pred_rot = forward({"wm": rotated[None]}, {"wm": rf}, basis, table)
        # oracle: predict from original coefficients at inverse-rotated gradients
        table2 = sm.GradientTable(
            table.shells,
            {b: d @ rot for b, d in table.directions.items()},
            table.b0_count,
        )
        pred_back = forward({"wm": coeffs[None]}, {"wm": rf}, basis, table2)
        cols = table.columns(3000.0)
        assert np.abs(pred_rot[:, cols] - pred_back[:, cols]).max() < 1e-5


def one_voxel(table, fibers, tissue, tensor_params=None):
    """tensor_signals of one voxel given as [(direction, fraction)], as one row."""
    dirs = np.zeros((1, 3, 3))
    fracs = np.zeros((1, 3))
    for i, (d, f) in enumerate(fibers):
        dirs[0, i], fracs[0, i] = d, f
    return sm.tensor_signals(dirs, fracs, np.array([tissue], float), table, tensor_params)[0]


class TestSimulateVoxel:
    def test_b0_is_one(self):
        table = make_table(16, b0=3)
        out = one_voxel(table, [([0, 0, 1], 1.0)], (0.5, 0.3, 0.2))
        assert np.all(out[table.columns(0)] == 1.0)

    def test_single_fiber_axial_value(self):
        table = sm.GradientTable([3000.0], {3000.0: np.array([[0.0, 0.0, 1.0]])}, 0)
        out = one_voxel(table, [([0, 0, 1], 1.0)], (0.6, 0.4, 0.0))
        lp, lt = 1.7e-3, 0.2e-3
        expect = 0.6 * np.exp(-3000 * lp) + 0.4 * np.exp(-3000 * 0.8e-3)
        assert out[0] == pytest.approx(expect, rel=1e-12)
        assert np.exp(-3000 * lp) == pytest.approx(np.exp(-5.1), rel=1e-12)

    def test_fiber_swap_symmetry(self):
        table = make_table(32)
        a = one_voxel(table, [([1, 0, 0], 0.5), ([0, 1, 0], 0.5)], (1.0, 0.0, 0.0))
        b = one_voxel(table, [([0, 1, 0], 0.5), ([1, 0, 0], 0.5)], (1.0, 0.0, 0.0))
        cols = table.columns(3000.0)
        assert np.abs(a[cols] - b[cols]).max() < 1e-12

    def test_rejects_bad_fractions(self):
        table = make_table(8)
        with pytest.raises(InvalidArgumentError):
            one_voxel(table, [([0, 0, 1], 1.0)], (0.5, 0.2, 0.2))
        with pytest.raises(InvalidArgumentError, match="fiber fractions"):
            one_voxel(table, [([0, 0, 1], -0.5)], (1.0, 0.0, 0.0))
        with pytest.raises(InvalidArgumentError, match="WM fraction"):
            one_voxel(table, [], (0.5, 0.5, 0.0))

    def test_rows_match_the_per_voxel_reference(self):
        # unnormalized directions and a mix of fiber counts in one batch
        table = make_table(16, shells=(1000.0, 3000.0), b0=2)
        rng = np.random.default_rng(8)
        fibers = np.zeros((12, 3, 3))
        fracs = np.zeros((12, 3))
        tissue = rng.dirichlet(np.ones(3), 12)
        tissue[11] = [0.0, 0.7, 0.3]  # no WM compartment and so no fibers
        for v in range(11):
            k = 1 + v % 3
            fibers[v, :k] = 2.0 * rng.standard_normal((k, 3))
            fracs[v, :k] = rng.dirichlet(np.ones(k))
        out = sm.tensor_signals(fibers, fracs, tissue, table)
        for v in range(12):
            k = int(fibers[v].any(axis=1).sum())
            # the reference needs a fiber even where the WM fraction is 0
            pairs = list(zip(fibers[v, :k], fracs[v, :k])) if k else [([0, 0, 1], 1.0)]
            ref = reference_simulate_voxel(pairs, tissue[v], table)
            for b in table.keys:
                assert np.array_equal(out[v, table.columns(b)], ref[b])


class TestRicianNoise:
    def test_sigma_zero_identity(self):
        s = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(sm.rician_noise(s, 0.0, 1, [0]), np.abs(s))

    def test_rayleigh_mean(self):
        # oracle: zero signal gives Rayleigh samples with mean sigma*sqrt(pi/2)
        sigma = 0.1
        out = sm.rician_noise(np.zeros((1000, 100)), sigma, 42, np.arange(1000))
        assert out.mean() == pytest.approx(sigma * np.sqrt(np.pi / 2), rel=0.02)

    def test_deterministic(self):
        table = make_table(16, shells=(1000.0, 2000.0), b0=2)
        s = np.linspace(0, 1, 5 * table.total_samples).reshape(5, -1)
        a = sm.rician_noise(s, 0.05, 1, [4, 9, 0, 7, 2])
        b = sm.rician_noise(s[[3, 0]], 0.05, 1, [7, 4])
        assert np.array_equal(b, a[[3, 0]])
        out = np.empty_like(s)
        assert sm.rician_noise(s, 0.05, 1, [4, 9, 0, 7, 2], out=out) is out
        assert np.array_equal(out, a)

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidArgumentError, match="sigma"):
            sm.rician_noise(np.zeros((1, 3)), -0.1, 1, [0])


class TestGradients:
    def test_unit_and_spread(self):
        pts = sm.generate_gradients(64, 0)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12
        # no two directions (as axes) closer than a few degrees
        dots = np.abs(pts @ pts.T) - 2 * np.eye(64)
        assert np.degrees(np.arccos(np.clip(dots.max(), -1, 1))) > 5

    def test_deterministic(self):
        assert np.array_equal(sm.generate_gradients(16, 5), sm.generate_gradients(16, 5))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64, 128])
    def test_matches_reference(self, n):
        for seed in (0, 1, 7):
            assert np.array_equal(sm.generate_gradients(n, seed),
                                  reference_generate_gradients(n, seed))


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


class TestPhiloxStreams:
    VOXEL_LISTS = {
        "contiguous": np.arange(7, 40),
        "shuffled": np.array([57, 3, 12, 40, 3, 0]),
        # gaps wider than a drawn-and-dropped one, so several generators
        "gaps": np.array([9, 0, 1, 2, 5000, 5001, 10**6, 4999]),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5, 2**128 - 1])
    @pytest.mark.parametrize("kind", list(VOXEL_LISTS))
    def test_words_match_numpy_philox(self, kind, seed):
        voxels = self.VOXEL_LISTS[kind]
        for lane, n in [(0, 6), (3, 10), (0, 3), (1, 4), (0, 194)]:
            got = sm._philox_words(seed, 303, lane, voxels, n)
            blocks = -(-n // 4)
            assert got.shape == (len(voxels), n) and got.dtype == np.uint64
            for row, vox in zip(got, voxels):
                gen = np.random.Philox(key=seed, counter=[int(vox) * blocks, lane, 303, 0])
                assert np.array_equal(row, gen.random_raw(4 * blocks)[:n])


class TestStreamEntropy:
    # a stream's entropy is its Philox key: the seed as a list of two
    # 64-bit words, least significant first
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5])
    def test_same_state_as_int_list(self, seed):
        voxels = [5, 0, 2**32 - 1]
        words = sm._philox_words(seed, 303, 1, voxels, 6)
        for row, vox in zip(words, voxels):
            gen = np.random.Philox(key=[seed % 2**64, seed >> 64], counter=[vox * 2, 1, 303, 0])
            assert np.array_equal(row, gen.random_raw(8)[:6])

    def test_seed_split_least_significant_word_first(self):
        seed = 2**64 * 9 + 7
        gen = np.random.Philox(key=[7, 9], counter=[0, 0, 202, 0])
        assert np.array_equal(sm._philox_words(seed, 202, 0, [0], 4)[0], gen.random_raw(4))

    @pytest.mark.parametrize("seed, part", [(-1, 0), (0, -1), (2**128, 0)])
    def test_rejects_entries_that_do_not_fit(self, seed, part):
        with pytest.raises(InvalidArgumentError):
            sm._philox_words(seed, 202, 0, [3, part], 4)


class TestBulkSeeding:
    # one Philox generator draws a whole run of voxels; each voxel's uniforms
    # must be what default_rng on that voxel's own Philox draws
    @staticmethod
    def own_generator(seed, stream, lane, voxel, n):
        counter = [int(voxel) * -(-n // 4), lane, stream, 0]
        return np.random.default_rng(np.random.Philox(key=seed, counter=counter))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("fill", ["zeros", "ones", "random"])
    def test_same_state_as_default_rng(self, k, fill):
        # 5 and 6 draws take each voxel past its first 4-word Philox block
        rng = np.random.default_rng(k)
        seeds = {"zeros": [0], "ones": [2**128 - 1],
                 "random": [int.from_bytes(rng.bytes(16), "little") for _ in range(3)]}[fill]
        voxels = np.array([4, 0, 1, 2, 2])
        for seed in seeds:
            got = sm._uniforms(seed, 202, k, voxels, k)
            for row, vox in zip(got, voxels):
                assert np.array_equal(row, self.own_generator(seed, 202, k, vox, k).random(k))

    def test_states_past_one_chunk(self):
        # a batch past one chunk, and a batch of voxels on either side of it
        config = sm.SimConfig(shells=[1000.0], gradients_per_shell=8, n_voxels=2,
                              split=(2, 0, 0), seed=11, tissues=3)
        table = sm.build_gradient_table(config)
        full = sm.generate_batch(config, table, np.arange(sm._CHUNK + 5))
        voxels = [sm._CHUNK + 4, sm._CHUNK - 1, sm._CHUNK, 0]
        part = sm.generate_batch(config, table, voxels)
        assert np.array_equal(part.signals, full.signals[voxels])
        assert np.array_equal(part.fibers, full.fibers[voxels])
        assert np.array_equal(part.redraws, full.redraws[voxels])

    def test_streams_draw_what_default_rng_draws(self):
        # shuffled voxels, a repeat, and gaps that start new generators
        voxels = np.array([10**6, 9, 0, 1, 5000, 1, 4999])
        for n in (2, 7, 194):
            got = sm._uniforms(3, 303, 0, voxels, n)
            assert got.min() >= 0.0 and got.max() < 1.0
            for row, vox in zip(got, voxels):
                assert np.array_equal(row, self.own_generator(3, 303, 0, vox, n).random(n))

    def test_empty_block(self):
        words = sm._philox_words(5, 202, 0, np.zeros(0, np.int64), 6)
        assert words.shape == (0, 6) and words.dtype == np.uint64
        config = sm.SimConfig(shells=[1000.0], gradients_per_shell=8, n_voxels=2,
                              split=(2, 0, 0), seed=5, tissues=3, snr=30)
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, [])
        assert batch.signals.shape == (0, table.total_samples)
        assert batch.redraws.shape == (0,)


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

    # the 7 cases at seed 7, then again at a seed past 2**64, whose key
    # fills both of Philox's key words
    @pytest.mark.parametrize("case", [dict(case, seed=seed) for seed in (7, 2**64 + 5) for case in [
        dict(tissues=1, snr=30, b0_count=1, gradients_per_shell=32),
        dict(tissues=3, snr=30, b0_count=0, gradients_per_shell=8,
             shells=[1000.0, 2000.0, 3000.0]),
        dict(tissues=3, snr=None, b0_count=3, gradients_per_shell=64),
        dict(tissues=1, snr=None, b0_count=0, gradients_per_shell=8),
        dict(tissues=3, snr=30, b0_count=1, gradients_per_shell=32, pure_voxel_prob=1.0),
        dict(tissues=1, snr=30, b0_count=3, gradients_per_shell=64,
             fiber_count_probs=(1.0, 0.0, 0.0)),
        dict(tissues=3, snr=30, b0_count=1, gradients_per_shell=16,
             shells=[1000.0, 3000.0], fiber_count_probs=(0.0, 0.0, 1.0)),
    ]])
    def test_matches_per_voxel_reference(self, case):
        config = self.config(n_voxels=60, split=(40, 10, 10), **case)
        table = sm.build_gradient_table(config)
        for voxels in (np.arange(60), np.array([57, 3, 12, 40])):
            batch = sm.generate_batch(config, table, voxels)
            ref = reference_generate_batch(config, table, voxels)
            got = (batch.signals, batch.fibers, batch.fiber_fractions, batch.tissue_fractions)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    def test_redraws_count_rejected_draws(self):
        config = self.config(n_voxels=60, split=(40, 10, 10), min_fiber_fraction=0.3)
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(60))
        attempts = reference_generate_batch(config, table, np.arange(60))[-1]
        expect = [axes + fractions - 2 for axes, fractions in attempts]
        assert batch.redraws.tolist() == expect
        assert sum(expect) > 0
        assert batch.subset([3, 1]).redraws.tolist() == [expect[3], expect[1]]

    def test_memory_peak(self):
        # one 5000-voxel batch of 3 shells x 32 gradients, 3 tissues, SNR 30:
        # measured 10.17 MB in chunks of 1024 voxels, 13.95 MB when the draws
        # looped over voxels and the noise over b-value keys
        config = self.config(shells=[1000.0, 2000.0, 3000.0], tissues=3, n_voxels=5000,
                             split=(5000, 0, 0))
        table = sm.build_gradient_table(config)
        sm.generate_batch(config, table, np.arange(2))
        tracemalloc.start()
        try:
            sm.generate_batch(config, table, np.arange(5000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_draw_distributions(self):
        # 5000 voxels of 97 samples; each bound is 4 standard errors. Measured
        # at seed 7: the cosine and sine noise means at 1.6 and -3.0 standard
        # errors (over seeds 1-20 those scores spread with a standard
        # deviation of 0.85 and 1.10), their variances at -0.2 and 0.4, the
        # mean squared magnitude at 0.1 and the fiber-count frequencies at
        # -0.4, 0.7 and -0.5
        n_vox, sigma = 5000, 1 / 30
        config = self.config(shells=[1000.0, 2000.0, 3000.0], n_voxels=n_vox,
                             split=(n_vox, 0, 0))
        table = sm.build_gradient_table(config)
        n = table.total_samples
        m = n_vox * n
        voxels = np.arange(n_vox)
        noise = sigma * sm._box_muller(sm._uniforms(config.seed, 303, 0, voxels, 2 * n))
        for e in (noise[:, :n], noise[:, n:]):
            assert abs(e.mean()) < 4 * sigma / np.sqrt(m)
            assert abs(e.var() - sigma**2) < 4 * sigma**2 * np.sqrt(2 / m)
        # at a clean signal of 0 the magnitude squared is sigma^2 chi^2 with 2 degrees
        out = sm.rician_noise(np.zeros((n_vox, n)), sigma, config.seed, voxels)
        assert abs((out**2).mean() - 2 * sigma**2) < 4 * 2 * sigma**2 / np.sqrt(m)
        batch = sm.generate_batch(config, table, voxels)
        freq = np.bincount(batch.n_fibers(), minlength=4)[1:] / n_vox
        p = np.array(config.fiber_count_probs)
        assert np.all(np.abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n_vox))

    def test_crossing_angle_floor(self):
        config = self.config(n_voxels=60, split=(40, 10, 10))
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(60))
        for v in range(60):
            k = batch.n_fibers()[v]
            for i in range(k):
                for j in range(i + 1, k):
                    dot = abs(batch.fibers[v, i] @ batch.fibers[v, j])
                    assert np.degrees(np.arccos(min(dot, 1.0))) >= config.min_crossing_angle_deg

    @pytest.mark.parametrize("k, floor", [(2, 0.45), (3, 0.3)])
    def test_fiber_fraction_floor(self, k, floor):
        probs = tuple(float(i == k - 1) for i in range(3))
        config = self.config(n_voxels=200, split=(200, 0, 0), fiber_count_probs=probs,
                             min_fiber_fraction=floor)
        batch = sm.generate_batch(config, sm.build_gradient_table(config), np.arange(200))
        assert np.all(batch.n_fibers() == k)
        fracs = batch.fiber_fractions[:, :k]
        assert fracs.min() >= floor and np.all(batch.fiber_fractions[:, k:] == 0)
        assert np.abs(fracs.sum(axis=1) - 1).max() < 1e-12
        assert batch.redraws.sum() > 0

    def test_pure_voxels_hold_one_tissue(self):
        config = self.config(n_voxels=200, split=(200, 0, 0), tissues=3, pure_voxel_prob=1.0)
        batch = sm.generate_batch(config, sm.build_gradient_table(config), np.arange(200))
        tissue = batch.tissue_fractions
        assert np.all(np.sort(tissue, axis=1) == [0.0, 0.0, 1.0])
        assert np.all(np.bincount(tissue.argmax(axis=1), minlength=3) > 40)
        wm = tissue[:, 0] == 1.0
        assert np.all(batch.n_fibers()[wm] >= 1) and np.all(batch.fibers[~wm] == 0)
        assert np.all(batch.fiber_fractions[~wm] == 0)

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
    def single_fiber_batch(self, n=20, axis_aligned=False, seed=3, shells=(3000.0,),
                           gradients_per_shell=64, snr=None):
        config = sm.SimConfig(
            shells=list(shells),
            gradients_per_shell=gradients_per_shell,
            n_voxels=n,
            split=(n, 0, 0),
            seed=seed,
            snr=snr,
            tissues=1,
            fiber_count_probs=(1.0, 0.0, 0.0),
        )
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(n))
        if axis_aligned:
            batch.fibers[:, 0] = [0, 0, 1]
            batch.signals[:] = sm.tensor_signals(batch.fibers, batch.fiber_fractions,
                                                 batch.tissue_fractions, table)
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

    @pytest.mark.parametrize("shells, gradients_per_shell", [
        pytest.param((3000.0,), 64, id="1shell"),
        pytest.param((1000.0, 2000.0, 3000.0), 32, id="3shell")])
    def test_matches_reference(self, shells, gradients_per_shell):
        batch, _ = self.single_fiber_batch(n=37, shells=shells,
                                           gradients_per_shell=gradients_per_shell, snr=30.0)
        basis = sh.ShBasis(8)
        est = sm.estimate_response(batch, basis)
        ref = reference_estimate_response(batch, basis)
        assert set(est.r) == {0, *shells}
        for b in shells:
            assert np.array_equal(est.r[b], ref[b])

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
