"""Peak extraction from fODFs and the evaluation scores.

Peaks are strict local maxima over the dense-grid 8-neighborhood, refined
by one Newton step of a tangent-plane quadratic fit, antipodally merged,
thresholded relative to the strongest peak, and greedily suppressed
within a minimum separation. Candidates, refinement and amplitudes run
on a chunk of voxels at once; only the final selection is per voxel.
Matching against ground truth uses optimal assignment under a 25-degree
cone; all angles treat directions as axes (arccos of |dot|).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from . import harmonics as sh
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import InvalidArgumentError

# voxels per peak-extraction chunk; bounds the (chunk, grid) value matrix
_CHUNK = 32
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

    def __post_init__(self):
        # written as `not low <= x <= high` so that NaN fails too
        if not 0 <= self.rel_threshold <= 1:
            raise InvalidArgumentError(
                f"rel_threshold must be in [0, 1], got {self.rel_threshold}")
        if not 0 < self.min_separation_deg <= 90:
            raise InvalidArgumentError(
                f"min_separation_deg must be in (0, 90], got {self.min_separation_deg}")
        sg.check_nside(self.grid_nside, "grid_nside")
        if self.grid_nside < 16:
            raise InvalidArgumentError(f"grid_nside must be at least 16, got {self.grid_nside}")


@dataclass
class PeakSet:
    directions: np.ndarray  # (K, 3), descending amplitude, hemisphere reps
    amplitudes: np.ndarray  # (K,)
    candidates: int = 0  # local maxima the peaks were selected from

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


def detect_peaks(dirs, amps, rel_threshold, min_separation_deg) -> PeakSet:
    """Select one voxel's peaks from its refined candidates.

    dirs (K, 3) and amps (K,) hold the candidates in vertex order. The
    strongest first, candidates below rel_threshold times the strongest
    are dropped, then each one closer than min_separation_deg to a
    stronger kept peak.
    """
    if len(amps) == 0:
        return PeakSet(np.zeros((0, 3)), np.zeros(0))
    candidates = len(amps)
    order = np.argsort(-amps, kind="stable")
    dirs, amps = dirs[order], amps[order]
    keep = amps >= rel_threshold * amps[0]
    dirs, amps = dirs[keep], amps[keep]
    angles = axis_angles_deg(dirs, dirs)
    kept = []
    for i in range(len(amps)):
        if np.all(angles[i, kept] >= min_separation_deg):
            kept.append(i)
    return PeakSet(dirs[kept], amps[kept], candidates)


def peaks_for_batch(wm_coeffs, grid_dense, rel_threshold, min_separation_deg):
    """Detect peaks for every row of a (V, L) WM coefficient matrix.

    Peaks are strict local maxima of the grid values, refined by one
    Newton step of a tangent-plane quadratic fit over each vertex's
    neighbors. Voxels are processed _CHUNK at a time: candidates,
    refinement and amplitudes run on a whole chunk at once, and only the
    selection (detect_peaks) runs per voxel. Each PeakSet counts the
    local maxima it was selected from.
    """
    if grid_dense.nside < 16:
        raise InvalidArgumentError("peak grid must have nside >= 16")
    wm_coeffs = np.asarray(wm_coeffs)
    basis = sh.ShBasis(_lmax_from_count(wm_coeffs.shape[1]))
    design = _grid_design(basis.l_max, grid_dense)
    out = []
    for lo in range(0, wm_coeffs.shape[0], _CHUNK):
        # each voxel's coefficients are scaled by a power of two that brings
        # their largest magnitude into [0.5, 1): exact, so the peaks are the
        # unscaled ones, and no product overflows however large they are
        _, shift = np.frexp(np.abs(wm_coeffs[lo : lo + _CHUNK]).max(axis=1, initial=0.0))
        block = np.ldexp(wm_coeffs[lo : lo + _CHUNK], -shift[:, None])
        values = block @ design
        # only vertices at or above the pre-prune threshold, 0.5 *
        # rel_threshold times the strongest local maximum, can be kept;
        # that maximum is the global one unless the field is constant,
        # and a constant field has no strict local maximum
        top = values.max(axis=1)
        above = (values >= 0.5 * rel_threshold * top[:, None]) & (top[:, None] > 0)
        rows, verts = np.nonzero(above)
        strict = _kernels.local_maxima(values, grid_dense.neighbor_table, rows, verts)
        rows, verts = rows[strict], verts[strict]
        dirs, amps = np.zeros((0, 3)), values[rows, verts]
        if rows.size:
            dirs = _refine(values, grid_dense, rows, verts)
            refined = np.einsum("kl,lk->k", block[rows], sh.design_matrix(basis, dirs))
            # keep the vertex itself where refinement moved off the ridge
            worse = refined < amps
            dirs[worse] = grid_dense.vertices[verts[worse]]
            amps = np.ldexp(np.where(worse, amps, refined), shift[rows])
            dirs = sh.fold_hemisphere(dirs)
        bounds = np.cumsum(np.bincount(rows, minlength=block.shape[0]))[:-1]
        out.extend(detect_peaks(d, a, rel_threshold, min_separation_deg)
                   for d, a in zip(np.split(dirs, bounds), np.split(amps, bounds)))
    return out


def _refine(values, grid, rows, verts):
    """One Newton step of a tangent-plane quadratic fit at each (row, vertex).

    The fit's design depends only on the grid, so its pseudo-inverse is
    computed once per distinct vertex. Vertices with 7 neighbors get a
    zero design row (and value) in the 8th slot, which leaves the fit as
    it is. Steps are clipped to the neighborhood's radius; a singular
    Hessian takes no step. Returns the (K, 3) unit directions.
    """
    uniq, inv = np.unique(verts, return_inverse=True)
    center = grid.vertices[uniq]
    nbrs = grid.neighbor_table[uniq]
    valid = np.concatenate([np.ones((uniq.size, 1), bool), nbrs >= 0], axis=1)
    idx = np.where(valid, np.concatenate([uniq[:, None], nbrs], axis=1), uniq[:, None])
    # gnomonic projection onto the tangent plane at the center vertex
    ref = np.where((np.abs(center[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(center, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(center, e1)
    pts = grid.vertices[idx]
    proj = pts / np.einsum("nkd,nd->nk", pts, center)[..., None] - center[:, None]
    u0 = np.einsum("nkd,nd->nk", proj, e1)
    u1 = np.einsum("nkd,nd->nk", proj, e2)
    design = np.stack([np.ones_like(u0), u0, u1, u0 ** 2, u0 * u1, u1 ** 2], axis=2)
    pinv = np.linalg.pinv(design * valid[..., None])
    radius = np.maximum(np.abs(u0[:, 1:]), np.abs(u1[:, 1:])).max(axis=1)

    f = np.where(valid[inv], values[rows[:, None], idx[inv]], 0.0)
    beta = np.einsum("kij,kj->ki", pinv[inv], f)
    g0, g1 = beta[:, 1], beta[:, 2]
    h00, h01, h11 = 2 * beta[:, 3], beta[:, 4], 2 * beta[:, 5]
    det = (h00 * h11 - h01 * h01)[:, None]
    step = -np.stack([h11 * g0 - h01 * g1, h00 * g1 - h01 * g0], axis=1)
    step = np.divide(step, det, out=np.zeros_like(step), where=det != 0)
    norm = np.linalg.norm(step, axis=1)
    scale = np.where(norm > radius[inv], radius[inv] / np.maximum(norm, 1e-30), 1.0)
    step *= scale[:, None]
    refined = center[inv] + step[:, :1] * e1[inv] + step[:, 1:] * e2[inv]
    return refined / np.linalg.norm(refined, axis=1, keepdims=True)


def _lmax_from_count(L):
    l = 0
    while (l // 2 + 1) * (l + 1) < L:
        l += 2
    if (l // 2 + 1) * (l + 1) != L:
        raise InvalidArgumentError(f"{L} is not an even-basis coefficient count")
    return l


def match_fibers(gt_directions, pred: PeakSet, cone_deg: float = 25.0) -> VoxelScore:
    """Optimal one-to-one matching of ground-truth fibers to predicted peaks.

    Each fiber takes one free peak within the cone or none; the assignment
    with the most pairs wins, and among those the smallest angle sum. The
    search is exhaustive, over each fiber's n_gt closest peaks in the cone
    only: an optimal assignment that gives a fiber a farther peak leaves
    one of those free, and moving the fiber there costs no pair and no
    angle. A voxel has at most 3 fibers, so there are at most 4^3 picks.
    """
    gt = np.atleast_2d(np.asarray(gt_directions, float)) if len(gt_directions) else np.zeros((0, 3))
    n_gt, n_pred = gt.shape[0], len(pred)
    if n_gt == 0 or n_pred == 0:
        return VoxelScore([], n_pred, n_gt)
    angles = axis_angles_deg(gt, pred.directions).tolist()
    options = [
        [None, *sorted((c for c, a in enumerate(row) if a <= cone_deg), key=row.__getitem__)[:n_gt]]
        for row in angles
    ]
    best, best_key = [], (0, 0.0)
    for pick in itertools.product(*options):
        pairs = [(r, c) for r, c in enumerate(pick) if c is not None]
        if len({c for _, c in pairs}) < len(pairs):
            continue
        key = (-len(pairs), sum(angles[r][c] for r, c in pairs))
        if key < best_key:
            best, best_key = pairs, key
    matched = [(r, c, angles[r][c]) for r, c in best]
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
