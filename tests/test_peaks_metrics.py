import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdecon import _kernels
from sphdecon import harmonics as sh
from sphdecon import peaks_metrics as pm
from sphdecon import signal_model as sm
from sphdecon import sphere_grid as sg

from grid_rotations import z_rotation_permutation


def cap_fodf(axis, width_deg=5.0, l_max=20, nside_fit=32):
    """Degree-l_max SH fit of a small spherical cap indicator around axis."""
    grid = sg.build_grid(nside_fit)
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    cosw = np.cos(np.radians(width_deg))
    vals = (np.abs(grid.vertices @ axis) >= cosw).astype(float)
    return sh.fit_matrix(grid.vertices, l_max, tikhonov=1e-10) @ vals


def brute_force_match(gt, pred_dirs, cone_deg=25.0):
    """Exhaustive assignment oracle: max matches, then min total angle."""
    n, m = len(gt), len(pred_dirs)
    best = (0, 0.0, [])
    angles = pm.axis_angles_deg(gt, pred_dirs) if n and m else np.zeros((n, m))
    k = min(n, m)
    for gt_sub in itertools.permutations(range(n), k):
        for pred_sub in itertools.permutations(range(m), k):
            pairs = [
                (g, p, angles[g, p])
                for g, p in zip(gt_sub, pred_sub)
                if angles[g, p] <= cone_deg
            ]
            score = (len(pairs), -sum(a for _, _, a in pairs))
            if score > (best[0], -best[1]):
                best = (len(pairs), sum(a for _, _, a in pairs), pairs)
    return best


def random_axes(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def one_voxel_peaks(coeffs, grid, rel_threshold=0.1, min_separation_deg=15.0):
    """peaks_for_batch on a single (L,) coefficient row."""
    return pm.peaks_for_batch(coeffs[None], grid, rel_threshold, min_separation_deg)[0]


def reference_local_maxima(values, nbrs):
    lo = np.concatenate([values, [-np.inf]])
    hi = np.concatenate([values, [np.inf]])
    return (values >= lo[nbrs].max(axis=1)) & (values > hi[nbrs].min(axis=1))


def reference_refine(values, grid, vertex):
    """One Newton step of a tangent-plane quadratic fit over the neighbors."""
    nbrs = grid.neighbor_table[vertex]
    nbrs = nbrs[nbrs >= 0]
    center = grid.vertices[vertex]
    pts = grid.vertices[np.concatenate([[vertex], nbrs])]
    e1 = np.cross(center, [0.0, 0.0, 1.0] if abs(center[2]) < 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    proj = pts / (pts @ center)[:, None] - center
    u = np.stack([proj @ e1, proj @ e2], axis=1)
    f = values[np.concatenate([[vertex], nbrs])]
    design = np.stack(
        [np.ones(len(f)), u[:, 0], u[:, 1], u[:, 0] ** 2, u[:, 0] * u[:, 1], u[:, 1] ** 2],
        axis=1,
    )
    beta, *_ = np.linalg.lstsq(design, f, rcond=None)
    g = beta[1:3]
    H = np.array([[2 * beta[3], beta[4]], [beta[4], 2 * beta[5]]])
    try:
        step = -np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        step = np.zeros(2)
    radius = np.abs(u[1:]).max()
    norm = np.linalg.norm(step)
    if norm > radius:
        step *= radius / max(norm, 1e-30)
    refined = center + step[0] * e1 + step[1] * e2
    return refined / np.linalg.norm(refined)


@functools.lru_cache(maxsize=None)
def grid_design(l_max, nside):
    return sh.design_matrix(sh.ShBasis(l_max), sg.build_grid(nside).vertices)


@functools.lru_cache(maxsize=None)
def grid_fit(l_max, nside):
    grid = sg.build_grid(nside)
    return sh.fit_matrix(grid.vertices, l_max, tikhonov=1e-10)


def reference_detect_peaks(coeffs, grid, rel_threshold, min_separation_deg):
    """Independent reference: one voxel's peaks, candidate by candidate."""
    basis = sh.ShBasis(pm._lmax_from_count(len(coeffs)))
    values = coeffs @ grid_design(basis.l_max, grid.nside)
    idx = np.flatnonzero(reference_local_maxima(values, grid.neighbor_table))
    if idx.size == 0 or values[idx].max() <= 0:
        return pm.PeakSet(np.zeros((0, 3)), np.zeros(0))
    idx = idx[values[idx] >= 0.5 * rel_threshold * values[idx].max()]
    dirs = np.array([reference_refine(values, grid, v) for v in idx])
    amps = coeffs @ sh.design_matrix(basis, dirs)
    worse = amps < values[idx]
    dirs[worse] = grid.vertices[idx[worse]]
    amps[worse] = values[idx[worse]]
    dirs = sh.fold_hemisphere(dirs)
    order = np.argsort(-amps, kind="stable")
    dirs, amps = dirs[order], amps[order]
    keep_mask = amps >= rel_threshold * amps[0]
    dirs, amps = dirs[keep_mask], amps[keep_mask]
    kept = []
    for i in range(len(amps)):
        if all(pm.axis_angles_deg(dirs[i], dirs[j])[0, 0] >= min_separation_deg for j in kept):
            kept.append(i)
    return pm.PeakSet(dirs[kept], amps[kept], len(idx))


class TestDetectPeaks:
    def test_single_lobe_within_one_degree(self):
        # oracle: dense argmax at nside=64
        coeffs = cap_fodf([0, 0, 1])
        dense = sg.build_grid(64)
        vals = coeffs @ sh.design_matrix(sh.ShBasis(20), dense.vertices)
        oracle_dir = dense.vertices[np.argmax(vals)]
        grid = sg.build_grid(32)
        peaks = one_voxel_peaks(coeffs, grid, rel_threshold=0.5)
        assert len(peaks) == 1
        assert pm.axis_angles_deg(peaks.directions[0], [0, 0, 1])[0, 0] < 1.0
        assert pm.axis_angles_deg(peaks.directions[0], oracle_dir)[0, 0] < 1.0

    def test_two_orthogonal_lobes(self):
        coeffs = cap_fodf([0, 0, 1])
        coeffs2 = cap_fodf([1, 0, 0])
        both = coeffs + coeffs2
        grid = sg.build_grid(32)
        peaks = one_voxel_peaks(both, grid, rel_threshold=0.5)
        assert len(peaks) == 2
        ang = pm.axis_angles_deg(peaks.directions[0], peaks.directions[1])[0, 0]
        assert abs(ang - 90.0) < 2.0

    def test_constant_fodf_no_peaks(self):
        coeffs = np.r_[1.0, np.zeros(44)]
        peaks = one_voxel_peaks(coeffs, sg.build_grid(16), rel_threshold=0.5)
        assert len(peaks) <= 1

    def test_zero_fodf_empty(self):
        coeffs = np.zeros(45)
        assert len(one_voxel_peaks(coeffs, sg.build_grid(16))) == 0

    def test_rejects_coarse_grid(self):
        coeffs = np.zeros(15)
        with pytest.raises(Exception):
            one_voxel_peaks(coeffs, sg.build_grid(8))

    def test_quarter_turn_equivariance(self):
        grid = sg.build_grid(32)
        coeffs = cap_fodf([0.6, 0.3, np.sqrt(1 - 0.45)])
        peaks = one_voxel_peaks(coeffs, grid, rel_threshold=0.5)
        perm = z_rotation_permutation(grid, 1)
        vals = coeffs @ sh.design_matrix(sh.ShBasis(20), grid.vertices)
        rotated_coeffs = sh.fit_matrix(grid.vertices, 20, tikhonov=1e-10) @ vals[perm]
        rot_peaks = one_voxel_peaks(rotated_coeffs, grid, rel_threshold=0.5)
        ang = np.pi / 2
        rot = np.array([[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]])
        expect = sh.fold_hemisphere(peaks.directions @ rot.T)
        got = sh.fold_hemisphere(rot_peaks.directions)
        assert len(rot_peaks) == len(peaks)
        assert pm.axis_angles_deg(expect, got).diagonal().max() < 0.2


def lobes(axes, weights, l_max):
    """A sum of narrow lobes about the given axes, fitted at degree l_max."""
    grid = sg.build_grid(32)
    vals = sum(w * np.exp(-8.0 * (1 - (grid.vertices @ a) ** 2)) for w, a in zip(weights, axes))
    return grid_fit(l_max, 32) @ vals


def rotated_lobes(rng, l_max, n_voxels):
    """Sums of 1-3 narrow lobes about random axes, fitted at degree l_max."""
    rows = []
    for _ in range(n_voxels):
        axes = random_axes(rng, rng.integers(1, 4))
        rows.append(lobes(axes, rng.uniform(0.5, 1.0, len(axes)), l_max))
    return np.array(rows)


class TestBatchedMatchesReference:
    """peaks_for_batch against the candidate-by-candidate reference."""

    @pytest.mark.parametrize("nside", [16, 32])
    @pytest.mark.parametrize("l_max", [8, 20])
    def test_random_rotated_constant_zero(self, nside, l_max):
        rng = np.random.default_rng(nside + l_max)
        basis = sh.ShBasis(l_max)
        constant = np.zeros((1, basis.L))
        constant[0, 0] = 1.0
        grid = sg.build_grid(nside)
        # lobes next to vertices with 7 neighbors, whose fits have one row less
        corners = grid.vertices[(grid.neighbor_table < 0).any(axis=1)][::6]
        corners = corners + 0.01 * random_axes(rng, len(corners))
        corners /= np.linalg.norm(corners, axis=1, keepdims=True)
        coeffs = np.vstack([
            rng.standard_normal((6, basis.L)) / (1 + np.arange(basis.L)),  # many maxima
            rotated_lobes(rng, l_max, 12),
            [lobes([a], [1.0], l_max) for a in corners],
            constant,
            np.zeros((1, basis.L)),
        ])
        got = pm.peaks_for_batch(coeffs, grid, 0.25, 15.0)
        assert len(got) == len(coeffs)
        n_peaks = 0
        for row, peaks in zip(coeffs, got):
            ref = reference_detect_peaks(row, grid, 0.25, 15.0)
            assert len(peaks) == len(ref)
            assert np.abs(peaks.directions - ref.directions).max(initial=0.0) <= 1e-9
            assert np.abs(peaks.amplitudes - ref.amplitudes).max(initial=0.0) <= 1e-9
            # the reference searches the full sphere and finds every maximum
            # twice, once at each end of its axis
            assert 2 * peaks.candidates == ref.candidates >= len(ref)
            n_peaks += len(ref)
        assert len(got[-2]) == len(got[-1]) == 0
        assert n_peaks > len(coeffs)

    @pytest.mark.parametrize("nside", [16, 32])
    @pytest.mark.parametrize("l_max", [8, 20])
    def test_zonal_ties_in_a_mixed_batch(self, nside, l_max):
        # a zonal field (m = 0 only) peaked at the pole: the 4 vertices
        # around the pole tie bit for bit, and so do their refined
        # amplitudes, while their refined directions lie 0.01-0.2 degrees
        # apart; the first in vertex order must win, as in the reference
        basis = sh.ShBasis(l_max)
        zonal = lobes([np.array([0.0, 0.0, 1.0])], [1.0], l_max)
        zonal[[m != 0 for _, m in basis.degrees]] = 0.0
        grid = sg.build_grid(nside)
        values = zonal @ grid_design(l_max, nside)
        ring = np.argsort(-grid.vertices[:, 2], kind="stable")[:4]
        assert np.all(values[ring] == values[ring[0]])
        rng = np.random.default_rng(3 * nside + l_max)
        coeffs = np.vstack([rotated_lobes(rng, l_max, 3), zonal, rotated_lobes(rng, l_max, 2)])
        got = pm.peaks_for_batch(coeffs, grid, 0.25, 15.0)
        for row, peaks in zip(coeffs, got):
            ref = reference_detect_peaks(row, grid, 0.25, 15.0)
            assert len(peaks) == len(ref)
            assert np.abs(peaks.directions - ref.directions).max(initial=0.0) <= 1e-9
            assert np.abs(peaks.amplitudes - ref.amplitudes).max(initial=0.0) <= 1e-9
        assert got[3].candidates == 4

    def test_no_candidate_anywhere(self):
        # constant and zero fields have no strict maximum; each voxel still gets its empty set
        coeffs = np.zeros((3, 45))
        coeffs[1, 0] = 1.0
        got = pm.peaks_for_batch(coeffs, sg.build_grid(16), 0.25, 15.0)
        assert len(got) == 3
        for peaks in got:
            assert peaks.directions.shape == (0, 3) and peaks.amplitudes.shape == (0,)
            assert peaks.candidates == 0

    def test_values_on_the_hemisphere(self, monkeypatch):
        # the grid values peaks_for_batch scans have one column per half-grid vertex
        shapes = []
        local_maxima = _kernels.local_maxima

        def recorded(values, nbrs, rows, cols):
            shapes.append((values.shape[1], nbrs.shape[0]))
            return local_maxima(values, nbrs, rows, cols)

        monkeypatch.setattr(_kernels, "local_maxima", recorded)
        for nside in (16, 32):
            pm.peaks_for_batch(rotated_lobes(np.random.default_rng(4), 8, 2),
                               sg.build_grid(nside), 0.25, 15.0)
            assert shapes.pop() == (6 * nside * nside, 6 * nside * nside)
            assert pm._grid_design(8, sg.build_grid(nside)).shape == (45, 6 * nside * nside)

    def test_voxel_chunks(self, monkeypatch):
        rng = np.random.default_rng(7)
        coeffs = np.vstack([rotated_lobes(rng, 8, 11), np.zeros((1, 45))])
        grid = sg.build_grid(16)
        whole = pm.peaks_for_batch(coeffs, grid, 0.25, 15.0)
        monkeypatch.setattr(pm, "_CHUNK", 5)
        monkeypatch.setattr(pm, "_BLOCK", 3)
        chunked = pm.peaks_for_batch(coeffs, grid, 0.25, 15.0)
        assert len(chunked) == len(whole) == len(coeffs)
        for a, b in zip(chunked, whole):
            assert len(a) == len(b)
            assert np.abs(a.directions - b.directions).max(initial=0.0) <= 1e-9

    def test_empty_batch(self):
        assert pm.peaks_for_batch(np.zeros((0, 45)), sg.build_grid(16), 0.25, 15.0) == []

    @pytest.mark.parametrize("power", [-60, 3, 900])
    def test_power_of_two_scale_is_exact(self, power):
        # a field scaled by 2**power has the same peaks, with amplitudes
        # scaled exactly, also where the unscaled products would overflow
        coeffs = rotated_lobes(np.random.default_rng(8), 8, 6)
        grid = sg.build_grid(16)
        base = pm.peaks_for_batch(coeffs, grid, 0.25, 15.0)
        scaled = pm.peaks_for_batch(np.ldexp(coeffs, power), grid, 0.25, 15.0)
        for a, b in zip(base, scaled):
            assert np.array_equal(a.directions, b.directions)
            assert np.array_equal(np.ldexp(a.amplitudes, power), b.amplitudes)


class TestHemisphereMaxima:
    @pytest.mark.parametrize("nside", [16, 32, 64])
    @pytest.mark.parametrize("l_max", [8, 20])
    def test_half_table_maxima_are_the_full_grid_maxima(self, nside, l_max):
        # on an even field, the strict maxima of the half table are the
        # full grid's, restricted to the hemisphere
        grid = sg.build_grid(nside)
        half = grid.hemisphere
        basis = sh.ShBasis(l_max)
        rng = np.random.default_rng(nside * l_max)
        coeffs = rng.standard_normal((3, basis.L)) / (1 + np.arange(basis.L))
        values = np.hstack([coeffs @ sh.design_matrix(basis, grid.vertices[lo : lo + 8192])
                            for lo in range(0, grid.n_vertices, 8192)])
        on_half = values[:, half.index]
        rows, cols = np.nonzero(np.ones(on_half.shape, bool))
        strict = _kernels.local_maxima(on_half, half.neighbor_table, rows, cols)
        strict = strict.reshape(on_half.shape)
        for row, maxima in zip(values, strict):
            expect = reference_local_maxima(row, grid.neighbor_table)
            assert np.array_equal(maxima, expect[half.index])
            assert 2 * maxima.sum() == expect.sum() > 0


class TestSelect:
    def test_stable_order_and_suppression(self):
        # voxel 0 keeps its two peaks 90 degrees apart, strongest first, and
        # drops the one below the threshold; voxel 1's two tied candidates
        # stay in input order. In the second call the tied pair lies 10
        # degrees apart, and only the first in input order is kept
        a = np.radians(10.0)
        dirs = np.array([[1.0, 0, 0], [0, np.cos(a), np.sin(a)], [0, 1.0, 0],
                         [0, 0, 1.0], [0, 1.0, 0]])
        rows = np.array([1, 1, 0, 0, 0])
        amps = np.array([2.0, 2.0, 1.0, 3.0, 0.5])
        got_rows, got_dirs, got_amps = pm._select(rows, dirs, amps, 3, 0.25, 15.0)
        assert got_rows.tolist() == [0, 0, 1, 1]
        assert got_amps.tolist() == [3.0, 1.0, 2.0, 2.0]
        assert np.array_equal(got_dirs, dirs[[3, 2, 0, 1]])
        got_rows, got_dirs, _ = pm._select(rows[:2], dirs[[1, 4]], amps[:2], 2, 0.25, 15.0)
        assert got_rows.tolist() == [1] and np.array_equal(got_dirs, dirs[[1]])


class TestMatchFibers:
    def test_single_within_cone(self):
        pred = pm.PeakSet(np.array([[np.sin(np.radians(10)), 0, np.cos(np.radians(10))]]),
                          np.array([1.0]))
        score = pm.match_fibers([[0, 0, 1]], pred)
        assert score.success
        assert score.matched[0][2] == pytest.approx(10.0, abs=1e-9)

    def test_extra_prediction_fails(self):
        pred = pm.PeakSet(np.array([[0.0, 0, 1], [1, 0, 0.0]]), np.array([1.0, 0.9]))
        score = pm.match_fibers([[0, 0, 1]], pred)
        assert score.n_over == 1 and not score.success

    def test_antipodal_invariance(self):
        rng = np.random.default_rng(0)
        gt = random_axes(rng, 3)
        pred_dirs = random_axes(rng, 3)
        pred = pm.PeakSet(pred_dirs, np.ones(3))
        flipped = pm.PeakSet(pred_dirs * np.array([[-1], [1], [-1]]), np.ones(3))
        a = pm.match_fibers(gt, pred)
        b = pm.match_fibers(-gt, flipped)
        assert a.success == b.success and a.n_over == b.n_over and a.n_under == b.n_under
        assert np.allclose(
            sorted(x[2] for x in a.matched), sorted(x[2] for x in b.matched)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 3), st.integers(0, 3))
    def test_against_bruteforce(self, seed, n_gt, n_pred):
        rng = np.random.default_rng(seed)
        gt = random_axes(rng, n_gt)
        pred_dirs = random_axes(rng, n_pred)
        score = pm.match_fibers(gt, pm.PeakSet(pred_dirs, np.ones(n_pred)))
        n_best, total_best, _ = brute_force_match(gt, pred_dirs)
        assert len(score.matched) == n_best
        assert sum(a for _, _, a in score.matched) == pytest.approx(total_best, abs=1e-9)

    def test_same_pairs_as_linear_sum_assignment(self):
        # the scipy assignment this module used before, kept as the reference:
        # inadmissible pairs cost 1e6, so it maximizes the pair count first
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(2024)
        for _ in range(3000):
            gt = random_axes(rng, int(rng.integers(1, 4)))
            n_pred = int(rng.integers(0, 9))
            # peaks scattered around the fibers, so that fibers compete for them
            near = gt[rng.integers(0, len(gt), n_pred)] + 0.3 * rng.standard_normal((n_pred, 3))
            pred = pm.PeakSet(near / np.linalg.norm(near, axis=1, keepdims=True), np.ones(n_pred))
            expect = []
            if n_pred:
                angles = pm.axis_angles_deg(gt, pred.directions)
                rows, cols = linear_sum_assignment(np.where(angles <= 25.0, angles, 1e6))
                expect = [(r, c, angles[r, c]) for r, c in zip(rows, cols) if angles[r, c] <= 25.0]
            assert pm.match_fibers(gt, pred).matched == expect


class TestAggregate:
    def test_all_perfect(self):
        scores = [pm.VoxelScore([(0, 0, 0.0)], 0, 0) for _ in range(5)]
        agg = pm.aggregate_scores(scores)
        assert agg == {
            "success_rate": 1.0,
            "mean_angular_error_deg": 0.0,
            "over": 0.0,
            "under": 0.0,
        }

    def test_half_missed(self):
        scores = [pm.VoxelScore([(0, 0, 5.0)], 0, 0), pm.VoxelScore([], 0, 1)] * 3
        agg = pm.aggregate_scores(scores)
        assert agg["under"] == 0.5
        assert agg["success_rate"] <= 0.5


class TestVolumeFractionKl:
    def field_from_fracs(self, fracs, rfs):
        from sphdecon.classical_csd import FodfField

        fracs = np.asarray(fracs, float)
        coeffs = {}
        for i, t in enumerate(sm.TISSUES):
            col = fracs[:, i] / rfs[t].r[0][0]
            if t == "wm":
                mat = np.zeros((len(fracs), 45))
                mat[:, 0] = col
            else:
                mat = col[:, None]
            coeffs[t] = mat
        return FodfField(coeffs, sh.ShBasis(8))

    def rfs(self):
        r0 = np.sqrt(4 * np.pi)
        return {
            "wm": sm.ResponseFunction("wm", {0: [r0, 0, 0, 0, 0]}),
            "gm": sm.ResponseFunction("gm", {0: [r0]}),
            "csf": sm.ResponseFunction("csf", {0: [r0]}),
        }

    def test_perfect_prediction_zero(self):
        gt = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        rfs = self.rfs()
        assert pm.volume_fraction_kl(gt, self.field_from_fracs(gt, rfs), rfs) < 1e-12

    def test_known_value(self):
        gt = np.array([[1.0, 0.0, 0.0]])
        pred = np.array([[0.5, 0.5, 0.0]])
        rfs = self.rfs()
        kl = pm.volume_fraction_kl(gt, self.field_from_fracs(pred, rfs), rfs)
        assert kl == pytest.approx(np.log(2), abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_nonnegative_and_direct_recompute(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.dirichlet(np.ones(3), size=4)
        pred = rng.dirichlet(np.ones(3), size=4)
        rfs = self.rfs()
        kl = pm.volume_fraction_kl(gt, self.field_from_fracs(pred, rfs), rfs)
        # independent per-voxel scalar recomputation
        direct = 0.0
        for v in range(4):
            p = np.maximum(pred[v], 1e-8)
            p = p / p.sum()
            q = np.maximum(gt[v], 1e-8)
            q = q / q.sum()
            direct += sum(q[i] * (np.log(q[i]) - np.log(p[i])) for i in range(3))
        assert kl == pytest.approx(direct / 4, abs=1e-12)
        assert kl >= 0
