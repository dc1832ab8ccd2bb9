"""Peak extraction from fODFs and the evaluation scores.

Peaks are strict local maxima over the dense-grid 8-neighborhood, refined
by one Newton step of a tangent-plane quadratic fit, antipodally merged,
thresholded relative to the strongest peak, and greedily suppressed
within a minimum separation. Matching against ground truth uses optimal
assignment under a 25-degree cone; all angles treat directions as axes
(arccos of |dot|).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import _kernels
from . import harmonics as sh
from . import signal_model as sm
from .errors import InvalidArgumentError

_UNMATCHABLE = 1e6
_design_cache: dict = {}


def _grid_design(l_max, grid):
    key = (l_max, grid.nside)
    if key not in _design_cache:
        _design_cache[key] = sh.design_matrix(sh.ShBasis(l_max), grid.vertices)
    return _design_cache[key]


@dataclass
class PeakConfig:
    """Peak extraction settings: the config's "peaks" section."""

    grid_nside: int = 32
    rel_threshold: float = 0.25
    min_separation_deg: float = 15.0


@dataclass
class PeakSet:
    directions: np.ndarray  # (K, 3), descending amplitude, hemisphere reps
    amplitudes: np.ndarray  # (K,)

    def __len__(self):
        return self.directions.shape[0]


@dataclass
class VoxelScore:
    matched: list  # (gt index, pred index, angle in degrees)
    n_over: int
    n_under: int
    success: bool = field(init=False)

    def __post_init__(self):
        self.success = self.n_over == 0 and self.n_under == 0


def axis_angles_deg(u, v):
    """Angles between axes (antipodally symmetric), in degrees."""
    dots = np.abs(np.atleast_2d(u) @ np.atleast_2d(v).T)
    return np.degrees(np.arccos(np.clip(dots, -1.0, 1.0)))


def _refine_direction(values, grid, vertex):
    """One Newton step of a tangent-plane quadratic fit over the neighbors."""
    nbrs = grid.neighbor_table[vertex]
    nbrs = nbrs[nbrs >= 0]
    center = grid.vertices[vertex]
    pts = grid.vertices[np.concatenate([[vertex], nbrs])]
    # gnomonic projection onto the tangent plane at the center vertex
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


def detect_peaks(coeffs, grid_dense, rel_threshold: float = 0.1,
                 min_separation_deg: float = 15.0, _values=None) -> PeakSet:
    """Extract fiber peaks from one (L,) row of even-degree fODF coefficients."""
    if grid_dense.nside < 16:
        raise InvalidArgumentError("peak grid must have nside >= 16")
    basis = sh.ShBasis(_lmax_from_count(len(coeffs)))
    if _values is None:
        _values = coeffs @ _grid_design(basis.l_max, grid_dense)
    mask = _kernels.local_maxima(_values, grid_dense.neighbor_table)
    idx = np.flatnonzero(mask)
    if idx.size == 0 or _values[idx].max() <= 0:
        return PeakSet(np.zeros((0, 3)), np.zeros(0))
    # refinement moves amplitudes only slightly: prune clearly
    # sub-threshold candidates before the per-peak quadratic fits
    idx = idx[_values[idx] >= 0.5 * rel_threshold * _values[idx].max()]

    dirs = np.array([_refine_direction(_values, grid_dense, v) for v in idx])
    amps = coeffs @ sh.design_matrix(basis, dirs)
    # keep the vertex itself where refinement moved off the ridge
    worse = amps < _values[idx]
    dirs[worse] = grid_dense.vertices[idx[worse]]
    amps[worse] = _values[idx[worse]]
    dirs = sh.fold_hemisphere(dirs)

    order = np.argsort(-amps, kind="stable")
    dirs, amps = dirs[order], amps[order]
    keep_mask = amps >= rel_threshold * amps[0]
    dirs, amps = dirs[keep_mask], amps[keep_mask]

    kept = []
    for i in range(len(amps)):
        if all(axis_angles_deg(dirs[i], dirs[j])[0, 0] >= min_separation_deg for j in kept):
            kept.append(i)
    return PeakSet(dirs[kept], amps[kept])


def peaks_for_batch(wm_coeffs, grid_dense, rel_threshold, min_separation_deg):
    """Detect peaks for every row of a (V, L) WM coefficient matrix.

    Grid values are evaluated 256 voxels at a time to bound memory on
    large batches.
    """
    wm_coeffs = np.asarray(wm_coeffs)
    design = _grid_design(_lmax_from_count(wm_coeffs.shape[1]), grid_dense)
    out = []
    for lo in range(0, wm_coeffs.shape[0], 256):
        block = wm_coeffs[lo : lo + 256]
        values = block @ design
        out.extend(
            detect_peaks(block[v], grid_dense, rel_threshold, min_separation_deg,
                         _values=values[v])
            for v in range(block.shape[0])
        )
    return out


def _lmax_from_count(L):
    l = 0
    while (l // 2 + 1) * (l + 1) < L:
        l += 2
    if (l // 2 + 1) * (l + 1) != L:
        raise InvalidArgumentError(f"{L} is not an even-basis coefficient count")
    return l


def match_fibers(gt_directions, pred: PeakSet, cone_deg: float = 25.0) -> VoxelScore:
    """Optimal one-to-one matching of ground-truth fibers to predicted peaks."""
    gt = np.atleast_2d(np.asarray(gt_directions, float)) if len(gt_directions) else np.zeros((0, 3))
    n_gt, n_pred = gt.shape[0], len(pred)
    if n_gt == 0 or n_pred == 0:
        return VoxelScore([], n_pred, n_gt)
    angles = axis_angles_deg(gt, pred.directions)
    cost = np.where(angles <= cone_deg, angles, _UNMATCHABLE)
    rows, cols = linear_sum_assignment(cost)
    matched = [
        (int(r), int(c), float(angles[r, c]))
        for r, c in zip(rows, cols)
        if angles[r, c] <= cone_deg
    ]
    return VoxelScore(matched, n_pred - len(matched), n_gt - len(matched))


def aggregate_scores(scores) -> dict:
    """Pool per-voxel scores into the summary record.

    The mean angular error is None when no fiber was matched.
    """
    if not scores:
        raise InvalidArgumentError("no voxel scores to aggregate")
    pair_angles = [angle for s in scores for (_, _, angle) in s.matched]
    return {
        "success_rate": float(np.mean([s.success for s in scores])),
        "mean_angular_error_deg": float(np.mean(pair_angles)) if pair_angles else None,
        "over": float(np.mean([s.n_over for s in scores])),
        "under": float(np.mean([s.n_under for s in scores])),
    }


def tissue_fraction_estimates(field, rfs) -> np.ndarray:
    """Signal-fraction estimates per voxel: degree-0 SHC times the RF b=0 scale."""
    tissues = [t for t in sm.TISSUES if t in field.coeffs]
    cols = []
    for t in tissues:
        rf = rfs[t]
        b0_key = 0 if 0 in rf.r else min(rf.r)
        cols.append(field.coeffs[t][:, 0] * rf.r[b0_key][0])
    return np.stack(cols, axis=1)


def volume_fraction_kl(gt_fractions, field, rfs, eps: float = 1e-8) -> float:
    """Mean KL divergence (nats) from ground-truth tissue fractions."""
    gt = np.asarray(gt_fractions, float)
    if np.any(np.abs(gt.sum(axis=1) - 1) > 1e-6):
        raise InvalidArgumentError("ground-truth fractions must sum to 1")
    pred = tissue_fraction_estimates(field, rfs)
    if pred.shape != gt.shape:
        raise InvalidArgumentError(
            f"prediction has shape {pred.shape}, ground truth {gt.shape}"
        )
    # clamp and renormalize both sides so KL
    # is finite and exactly 0 on equal inputs
    pred = np.maximum(pred, eps)
    pred /= pred.sum(axis=1, keepdims=True)
    gt = np.maximum(gt, eps)
    gt = gt / gt.sum(axis=1, keepdims=True)
    terms = gt * (np.log(gt) - np.log(pred))
    return float(terms.sum(axis=1).mean())
