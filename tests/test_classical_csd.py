import tracemalloc

import numpy as np
import pytest

from sphdecon import classical_csd as csd
from sphdecon import harmonics as sh
from sphdecon import peaks_metrics as pm
from sphdecon import signal_model as sm
from sphdecon import sphere_grid as sg

from forward_model import forward
from test_harmonics import eval_sh
from test_signal_model import make_table, tensor_response


def single_fiber_batch(n=12, seed=11, snr=None, n_grad=64):
    config = sm.SimConfig(
        shells=[3000.0],
        gradients_per_shell=n_grad,
        n_voxels=n,
        split=(n, 0, 0),
        seed=seed,
        snr=snr,
        tissues=1,
        fiber_count_probs=(1.0, 0.0, 0.0),
    )
    table = sm.build_gradient_table(config)
    return sm.generate_batch(config, table, np.arange(n)), table


def objective(c, A, s, B, wm_sl, lam, thr):
    """Value of the regularized deconvolution objective for one voxel."""
    resid = A @ c - s
    val = float(resid @ resid)
    if wm_sl is not None:
        viol = np.minimum(B @ c[wm_sl] - thr, 0.0)
        val += lam * float(viol @ viol)
    return val


def reference_csd_solve(batch, rfs, config=None):
    """Independent reference: the active-set iteration run one voxel at a time.

    Returns the (V, n_cols) coefficients, the converged flags and the
    per-voxel count of active-set solves.
    """
    config = config or csd.CsdConfig()
    basis = sh.ShBasis(config.wm_degree)
    A, slices = csd.system_matrix(batch.gradients, rfs, basis)
    S = batch.signals
    grid = sg.build_grid(config.constraint_grid_nside)
    B = sh.design_matrix(basis, grid.vertices).T  # (m, L_wm)

    n_rows, n_cols = A.shape
    ata = A.T @ A + config.ridge * np.eye(n_cols)
    atb = A.T @ S.T  # (n_cols, V)

    wm_sl = slices.get("wm")
    iso_idx = [slices[t].start for t in sm.TISSUES[1:] if t in slices]
    lam = config.lambda_sparsity

    init_deg = min(config.wm_degree, sh.default_fit_degree(n_rows))
    init_cols = [i for i, (l, _) in enumerate(basis.degrees) if l <= init_deg]
    if wm_sl is not None:
        keep = np.array([wm_sl.start + i for i in init_cols]
                        + list(range(basis.L, n_cols)))
    else:
        keep = np.arange(n_cols)
    ata_init = ata[np.ix_(keep, keep)]

    V = batch.n_voxels
    coeffs = np.zeros((V, n_cols))
    converged = np.zeros(V, bool)
    iterations = np.zeros(V, np.int64)
    thr = config.nonneg_threshold
    for v in range(V):
        c = np.zeros(n_cols)
        c[keep] = np.linalg.solve(ata_init, atb[keep, v])
        state = None
        for _ in range(config.max_iters):
            iterations[v] += 1
            active = (B @ c[wm_sl] < thr) if wm_sl is not None else None
            grad = ata @ c - atb[:, v]
            pinned = frozenset(
                i for i in iso_idx
                if (c[i] < 0) or (c[i] == 0 and grad[i] >= 0)
            )
            M = ata.copy()
            if wm_sl is not None and np.any(active):
                Ba = B[active]
                M[wm_sl, wm_sl] += lam * (Ba.T @ Ba)
            rhs = atb[:, v].copy()
            for i in pinned:
                M[i, :] = 0.0
                M[:, i] = 0.0
                M[i, i] = 1.0
                rhs[i] = 0.0
            c_next = np.linalg.solve(M, rhs)
            new_state = (active.tobytes() if active is not None else b"", pinned)
            stable = state == new_state
            delta = np.abs(c_next - c).max()
            c, state = c_next, new_state
            if stable or delta < config.tol:
                converged[v] = True
                break
        coeffs[v] = c
    return coeffs, converged, iterations


def wm_values(field, grid):
    """WM fODF values on a grid's vertices, (V, N)."""
    return field.coeffs["wm"] @ sh.design_matrix(field.basis, grid.vertices)


@pytest.fixture(scope="module")
def wm_rf():
    table = make_table(64)
    return tensor_response(sh.ShBasis(8), table)


@pytest.fixture(scope="module")
def constraint_grid():
    return sg.build_grid(16)


class TestCsdSolve:
    def test_single_fiber_peak_accuracy(self, wm_rf):
        # oracle: dense-grid argmax of the fitted fODF
        batch, _ = single_fiber_batch(n=12)
        field = csd.csd_solve(batch, {"wm": wm_rf})
        dense = sg.build_grid(64)
        vals = wm_values(field, dense)
        for v in range(batch.n_voxels):
            peak_dir = dense.vertices[np.argmax(vals[v])]
            ang = pm.axis_angles_deg(peak_dir, batch.fibers[v, 0])[0, 0]
            assert ang < 2.5  # argmax on nside=64 quantizes to ~1 degree

    def test_zero_signal_zero_fodf(self, wm_rf):
        batch, _ = single_fiber_batch(n=2)
        batch.signals[:] = 0.0
        field = csd.csd_solve(batch, {"wm": wm_rf})
        assert np.abs(field.coeffs["wm"]).max() < 1e-10

    def test_residual_not_worse_than_ground_truth(self, wm_rf):
        # feasible ground truth: signal synthesized from a nonnegative fODF
        rng = np.random.default_rng(4)
        table = make_table(64)
        basis = sh.ShBasis(8)
        c_gt = np.zeros(basis.L)
        c_gt[0] = 1.0  # constant, strictly positive fODF
        c_gt += 0.02 * rng.standard_normal(basis.L)
        pred = forward({"wm": c_gt[None]}, {"wm": wm_rf}, basis, table)
        batch = sm.VoxelBatch(pred, table)
        field = csd.csd_solve(batch, {"wm": wm_rf})
        A, slices = csd.system_matrix(table, {"wm": wm_rf}, basis)
        s = batch.signals[0]
        r_hat = np.linalg.norm(A @ field.coeffs["wm"][0] - s)
        r_gt = np.linalg.norm(A @ c_gt - s)
        assert r_hat <= r_gt + 1e-6

    def test_nonnegativity_on_constraint_grid(self, wm_rf, constraint_grid):
        batch, _ = single_fiber_batch(n=6, snr=30)
        config = csd.CsdConfig()
        field = csd.csd_solve(batch, {"wm": wm_rf}, config)
        vals = wm_values(field, constraint_grid)
        # soft constraint: violations are small relative to the peak amplitude
        assert vals.min() > -0.05 * vals.max()

    def test_objective_nonincreasing(self, wm_rf, constraint_grid):
        batch, table = single_fiber_batch(n=1, snr=20)
        basis = sh.ShBasis(8)
        A, slices = csd.system_matrix(table, {"wm": wm_rf}, basis)
        s = batch.signals[0]
        B = sh.design_matrix(basis, constraint_grid.vertices).T
        config = csd.CsdConfig()
        # re-run the iteration manually, tracking the objective
        ata = A.T @ A + config.ridge * np.eye(A.shape[1])
        atb = A.T @ s
        init_deg = min(config.wm_degree, sh.default_fit_degree(A.shape[0]))
        cols = [i for i, (l, _) in enumerate(basis.degrees) if l <= init_deg]
        c = np.zeros(A.shape[1])
        c[cols] = np.linalg.solve(ata[np.ix_(cols, cols)], atb[cols])
        prev = None
        for _ in range(config.max_iters):
            active = B @ c < config.nonneg_threshold
            M = ata.copy()
            if active.any():
                Ba = B[active]
                M += config.lambda_sparsity * (Ba.T @ Ba)
            c = np.linalg.solve(M, atb)
            obj = objective(c, A, s, B, slice(0, basis.L),
                                config.lambda_sparsity, config.nonneg_threshold)
            if prev is not None:
                assert obj <= prev + 1e-9
            prev = obj

    def test_msmt_pure_wm_reduces_to_ssst(self):
        config = sm.SimConfig(
            shells=[1000.0, 2000.0, 3000.0],
            gradients_per_shell=32,
            n_voxels=8,
            split=(8, 0, 0),
            seed=2,
            snr=None,
            tissues=1,
            fiber_count_probs=(1.0, 0.0, 0.0),
        )
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(8))
        basis = sh.ShBasis(8)
        wm = tensor_response(basis, table)
        params = sm.TensorParams()
        gm = sm.ResponseFunction(
            "gm",
            {b: [np.sqrt(4 * np.pi) * np.exp(-b * params.d_gm)] for b in [0.0, *table.shells]},
        )
        csf = sm.ResponseFunction(
            "csf",
            {b: [np.sqrt(4 * np.pi) * np.exp(-b * params.d_csf)] for b in [0.0, *table.shells]},
        )
        field = csd.csd_solve(batch, {"wm": wm, "gm": gm, "csf": csf})
        assert np.abs(field.coeffs["gm"]).max() < 1e-4
        assert np.abs(field.coeffs["csf"]).max() < 1e-4
        # isotropic coefficients are (softly) nonnegative
        assert field.coeffs["gm"].min() > -1e-6
        assert field.coeffs["csf"].min() > -1e-6


class TestConstraintPenalty:
    @pytest.mark.parametrize("wm_degree", [4, 8, 12])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_factored_matches_explicit_rows(self, wm_degree, lam, constraint_grid):
        # oracle: lambda B_a^T B_a from the active rows of the whole grid,
        # where a vertex is active when its hemisphere representative is
        basis = sh.ShBasis(wm_degree)
        Y2, G, pair = csd._constraint_penalty(
            basis, csd.CsdConfig(wm_degree=wm_degree, lambda_sparsity=lam))
        verts = constraint_grid.vertices
        hemi = verts[(sh.fold_hemisphere(verts) == verts).all(axis=1)]
        rep = np.argmax(sh.fold_hemisphere(verts) @ hemi.T, axis=1)
        B = sh.design_matrix(basis, verts).T
        rng = np.random.default_rng(wm_degree)
        masks = np.array([np.zeros(len(hemi), bool), np.ones(len(hemi), bool),
                          rng.random(len(hemi)) < 0.3])
        got = ((masks @ Y2) @ G)[:, pair]
        for mask, g in zip(masks, got):
            Ba = B[mask[rep]]
            want = lam * (Ba.T @ Ba)
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

    def test_memory_peak(self, wm_rf):
        # one default 128-voxel solve: measured 9.05 MB, and 19.2 MB when the
        # penalty products were packed as a (1536, 1035) matrix
        batch, _ = single_fiber_batch(n=128, snr=30)
        csd.csd_solve(batch.subset(np.arange(2)), {"wm": wm_rf})
        tracemalloc.start()
        try:
            csd.csd_solve(batch, {"wm": wm_rf})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestFodfValues:
    def test_unit_y00_constant(self, wm_rf):
        basis = sh.ShBasis(8)
        coeffs = np.zeros((1, basis.L))
        coeffs[0, 0] = 1.0
        field = csd.FodfField({"wm": coeffs}, basis)
        vals = wm_values(field, sg.build_grid(4))
        assert np.allclose(vals, 1 / np.sqrt(4 * np.pi))

    def test_zero(self):
        basis = sh.ShBasis(8)
        field = csd.FodfField({"wm": np.zeros((2, basis.L))}, basis)
        assert np.abs(wm_values(field, sg.build_grid(2))).max() == 0

    def test_matches_pointwise_eval(self):
        # oracle: naive per-vertex summation
        rng = np.random.default_rng(8)
        basis = sh.ShBasis(4)
        coeffs = rng.standard_normal((1, basis.L))
        field = csd.FodfField({"wm": coeffs}, basis)
        grid = sg.build_grid(2)
        vals = wm_values(field, grid)[0]
        naive = np.array(
            [
                sum(
                    coeffs[0, i] * eval_sh(l, m, vert)
                    for i, (l, m) in enumerate(basis.degrees)
                )
                for vert in grid.vertices
            ]
        )
        assert np.abs(vals - naive).max() < 1e-12


def three_tissue_batch(n=24, seed=5):
    """Noisy 3-shell, 3-tissue voxels with tensor WM and isotropic GM/CSF responses."""
    config = sm.SimConfig(
        shells=[1000.0, 2000.0, 3000.0], gradients_per_shell=32, n_voxels=n,
        split=(n, 0, 0), seed=seed, snr=30, tissues=3,
    )
    table = sm.build_gradient_table(config)
    batch = sm.generate_batch(config, table, np.arange(n)).b0_normalized()
    params = sm.TensorParams()
    rfs = {"wm": tensor_response(sh.ShBasis(8), table)}
    for t, d in (("gm", params.d_gm), ("csf", params.d_csf)):
        rfs[t] = sm.ResponseFunction(
            t, {b: [np.sqrt(4 * np.pi) * np.exp(-b * d)] for b in [0.0, *table.shells]})
    return batch, rfs


class TestBatchedMatchesReference:
    """csd_solve against the one-voxel-at-a-time reference iteration."""

    def check(self, batch, rfs, config=None):
        field = csd.csd_solve(batch, rfs, config)
        coeffs, converged, iterations = reference_csd_solve(batch, rfs, config)
        got = np.hstack([field.coeffs[t] for t in field.tissues])
        assert got.shape == coeffs.shape
        scale = np.abs(coeffs).max(axis=1)
        assert np.all(np.abs(got - coeffs).max(axis=1, initial=0.0) <= 1e-10 * scale)
        assert np.array_equal(field.converged, converged)
        assert np.array_equal(field.iterations, iterations)
        return field

    def test_ssst(self):
        config = sm.SimConfig(shells=[3000.0], gradients_per_shell=64, n_voxels=40,
                              split=(40, 0, 0), seed=3, snr=20, tissues=1)
        table = sm.build_gradient_table(config)
        batch = sm.generate_batch(config, table, np.arange(40)).b0_normalized()
        field = self.check(batch, {"wm": tensor_response(sh.ShBasis(8), table)})
        assert field.converged.all() and field.iterations.max() > 2

    def test_three_tissue_with_iso_pins(self):
        batch, rfs = three_tissue_batch()
        field = self.check(batch, rfs)
        # a coefficient held at exactly 0 was pinned in the last solve
        iso = np.hstack([field.coeffs["gm"], field.coeffs["csf"]])
        assert np.any(iso == 0.0)

    def test_voxel_chunks(self, monkeypatch):
        monkeypatch.setattr(csd, "_CHUNK", 7)
        batch, rfs = three_tissue_batch()
        self.check(batch, rfs)

    def test_iso_tissues_only(self):
        # zero-mean noise makes the pins change from step to step; without
        # a WM block they alone decide whether a step is stable
        batch, rfs = three_tissue_batch(n=8)
        rng = np.random.default_rng(0)
        table = batch.gradients
        noise = np.zeros((60, table.total_samples))
        for b in [*table.shells, 0]:  # drawn shells first, then b=0
            cols = table.columns(b)
            noise[:, cols] = 0.3 * rng.standard_normal((60, cols.stop - cols.start))
        field = self.check(sm.VoxelBatch(noise, batch.gradients),
                           {t: rfs[t] for t in ("gm", "csf")})
        assert field.iterations.max() > 2

    @pytest.mark.parametrize("nside", [2, 4])
    @pytest.mark.parametrize("wm_degree", [4, 8])
    def test_small_constraint_grid(self, nside, wm_degree, wm_rf):
        # the hemisphere holds 24 or 96 vertices: at wm_degree 8 fewer than
        # the 153 harmonics of degree 16, so the penalty's expansion
        # cannot be fitted on the constraint grid
        batch, _ = single_fiber_batch(n=16, snr=20)
        self.check(batch, {"wm": wm_rf},
                   csd.CsdConfig(constraint_grid_nside=nside, wm_degree=wm_degree))

    def test_descending_shells_same_coefficients(self):
        batch, rfs = three_tissue_batch(n=12)
        table = batch.gradients
        descending = sm.GradientTable(table.shells[::-1], dict(table.directions),
                                      b0_count=table.b0_count)
        field = csd.csd_solve(batch, rfs)
        other = csd.csd_solve(sm.VoxelBatch(batch.signals, descending), rfs)
        for t in sm.TISSUES:
            assert np.array_equal(other.coeffs[t], field.coeffs[t])
        assert np.array_equal(other.iterations, field.iterations)

    def test_one_iteration_flags_nonconverged(self):
        batch, rfs = three_tissue_batch(n=12)
        field = self.check(batch, rfs, csd.CsdConfig(max_iters=1))
        assert not field.converged.any()
        assert np.all(field.iterations == 1)

    def test_zero_signal_voxel(self, wm_rf):
        batch, _ = single_fiber_batch(n=4, snr=30)
        batch.signals[2] = 0.0
        field = self.check(batch, {"wm": wm_rf})
        assert np.all(field.coeffs["wm"][2] == 0.0) and field.converged[2]

    def test_empty_batch(self, wm_rf):
        batch, _ = single_fiber_batch(n=2)
        field = self.check(batch.subset(np.arange(0)), {"wm": wm_rf})
        assert field.n_voxels == 0 and field.coeffs["wm"].shape == (0, 45)


@pytest.mark.parametrize("nside", [1, 2, 4, 8, 16])
def test_hemisphere_reads_the_grid_table(nside):
    # the constraint rows are the vertices fold_hemisphere keeps, in grid
    # order, whichever table selects them
    vertices = sg.build_grid(nside).vertices
    expect = vertices[(sh.fold_hemisphere(vertices) == vertices).all(axis=1)]
    got = csd._hemisphere(nside)
    assert got.shape == (6 * nside * nside, 3)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
