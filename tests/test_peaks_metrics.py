import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdecon import harmonics as sh
from sphdecon import peaks_metrics as pm
from sphdecon import signal_model as sm
from sphdecon import sphere_grid as sg


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


class TestDetectPeaks:
    def test_single_lobe_within_one_degree(self):
        # oracle: dense argmax at nside=64
        coeffs = cap_fodf([0, 0, 1])
        dense = sg.build_grid(64)
        vals = coeffs @ sh.design_matrix(sh.ShBasis(20), dense.vertices)
        oracle_dir = dense.vertices[np.argmax(vals)]
        grid = sg.build_grid(32)
        peaks = pm.detect_peaks(coeffs, grid, rel_threshold=0.5)
        assert len(peaks) == 1
        assert pm.axis_angles_deg(peaks.directions[0], [0, 0, 1])[0, 0] < 1.0
        assert pm.axis_angles_deg(peaks.directions[0], oracle_dir)[0, 0] < 1.0

    def test_two_orthogonal_lobes(self):
        coeffs = cap_fodf([0, 0, 1])
        coeffs2 = cap_fodf([1, 0, 0])
        both = coeffs + coeffs2
        grid = sg.build_grid(32)
        peaks = pm.detect_peaks(both, grid, rel_threshold=0.5)
        assert len(peaks) == 2
        ang = pm.axis_angles_deg(peaks.directions[0], peaks.directions[1])[0, 0]
        assert abs(ang - 90.0) < 2.0

    def test_constant_fodf_no_peaks(self):
        coeffs = np.r_[1.0, np.zeros(44)]
        peaks = pm.detect_peaks(coeffs, sg.build_grid(16), rel_threshold=0.5)
        assert len(peaks) <= 1

    def test_zero_fodf_empty(self):
        coeffs = np.zeros(45)
        assert len(pm.detect_peaks(coeffs, sg.build_grid(16))) == 0

    def test_rejects_coarse_grid(self):
        coeffs = np.zeros(15)
        with pytest.raises(Exception):
            pm.detect_peaks(coeffs, sg.build_grid(8))

    def test_quarter_turn_equivariance(self):
        grid = sg.build_grid(32)
        coeffs = cap_fodf([0.6, 0.3, np.sqrt(1 - 0.45)])
        peaks = pm.detect_peaks(coeffs, grid, rel_threshold=0.5)
        perm = sg.z_rotation_permutation(grid, 1)
        vals = coeffs @ sh.design_matrix(sh.ShBasis(20), grid.vertices)
        rotated_coeffs = sh.fit_matrix(grid.vertices, 20, tikhonov=1e-10) @ vals[perm]
        rot_peaks = pm.detect_peaks(rotated_coeffs, grid, rel_threshold=0.5)
        ang = np.pi / 2
        rot = np.array([[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]])
        expect = sh.fold_hemisphere(peaks.directions @ rot.T)
        got = sh.fold_hemisphere(rot_peaks.directions)
        assert len(rot_peaks) == len(peaks)
        assert pm.axis_angles_deg(expect, got).diagonal().max() < 0.2


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
