"""Peak extraction from fODFs and the evaluation scores.

Peaks are strict local maxima over the dense-grid 8-neighborhood, refined
by one Newton step of a tangent-plane quadratic fit, thresholded relative
to the strongest peak, and greedily suppressed within a minimum
separation. fODFs are even and the Healpix grid is point-symmetric, so
the search runs on the half of the grid that fold_hemisphere keeps and
finds each antipodal pair of maxima once. Grid values are computed a
chunk of voxels at a time and refined amplitudes a block of candidates
at a time; the refinement's fits (one pseudo-inverse call) and the
selection (one pass over the batch) cover the whole batch at once.
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
# candidates refined at once; bounds their (block, L) amplitude arrays
_BLOCK = 1024
_design_cache: dict = {}


def _grid_design(l_max, grid):
    """The (L, N/2) design on the grid's hemisphere, cached per (l_max, nside)."""
    key = (l_max, grid.nside)
    if key not in _design_cache:
        vertices = grid.vertices[grid.hemisphere.index]
        _design_cache[key] = sh.design_matrix(sh.ShBasis(l_max), vertices)
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


def peaks_for_batch(wm_coeffs, grid_dense, rel_threshold, min_separation_deg):
    """Detect peaks for every row of a (V, L) WM coefficient matrix.

    An fODF is even, so it is evaluated on the grid's hemisphere only:
    the vertices fold_hemisphere keeps, whose neighbors across the equator
    read their antipodes' values. Peaks are strict local maxima of those
    values, refined by one Newton step of a tangent-plane quadratic fit
    over each vertex's neighbors. The values are computed _CHUNK voxels
    at a time and the refined amplitudes _BLOCK candidates at a time; the
    fits' pseudo-inverses and the selection each take one pass over the
    whole batch. Each PeakSet counts the hemisphere maxima it was
    selected from.
    """
    if grid_dense.nside < 16:
        raise InvalidArgumentError("peak grid must have nside >= 16")
    wm_coeffs = np.asarray(wm_coeffs)
    basis = sh.ShBasis(_lmax_from_count(wm_coeffs.shape[1]))
    n_voxels = wm_coeffs.shape[0]
    if n_voxels == 0:
        return []
    design = _grid_design(basis.l_max, grid_dense)
    half = grid_dense.hemisphere
    # each voxel's coefficients are scaled by a power of two that brings
    # their largest magnitude into [0.5, 1): exact, so the peaks are the
    # unscaled ones, and no product overflows however large they are
    shift = np.empty(n_voxels, np.int32)
    found = []
    for lo in range(0, n_voxels, _CHUNK):
        block = wm_coeffs[lo : lo + _CHUNK]
        _, shift[lo : lo + _CHUNK] = np.frexp(np.abs(block).max(axis=1, initial=0.0))
        values = np.ldexp(block, -shift[lo : lo + _CHUNK, None]) @ design
        # only vertices at or above the pre-prune threshold, 0.5 *
        # rel_threshold times the strongest local maximum, can be kept;
        # that maximum is the global one unless the field is constant,
        # and a constant field has no strict local maximum
        top = values.max(axis=1)
        above = (values >= 0.5 * rel_threshold * top[:, None]) & (top[:, None] > 0)
        rows, verts = np.nonzero(above)
        strict = _kernels.local_maxima(values, half.neighbor_table, rows, verts)
        rows, verts = rows[strict], verts[strict]
        # each candidate's value and its neighbors' (0 where one is missing)
        ring = np.concatenate([verts[:, None], half.neighbor_table[verts]], axis=1)
        found.append((rows + lo, half.index[verts], values[rows, verts],
                      np.where(ring >= 0, values[rows[:, None], ring], 0.0)))
    rows, verts, amps, ring_values = (np.concatenate(parts) for parts in zip(*found))
    del found
    inv, fits = _tangent_fits(grid_dense, verts)
    dirs, refined = np.empty((rows.size, 3)), np.empty(rows.size)
    for lo in range(0, rows.size, _BLOCK):
        at = slice(lo, lo + _BLOCK)
        dirs[at] = _refine([a[inv[at]] for a in fits], ring_values[at])
        coeffs = np.ldexp(wm_coeffs[rows[at]], -shift[rows[at], None])
        refined[at] = np.einsum("kl,lk->k", coeffs, sh.design_matrix(basis, dirs[at]))
    # keep the vertex itself where refinement moved off the ridge
    worse = refined < amps
    dirs[worse] = grid_dense.vertices[verts[worse]]
    dirs = sh.fold_hemisphere(dirs)
    amps = np.ldexp(np.where(worse, amps, refined), shift[rows])
    candidates = np.bincount(rows, minlength=n_voxels)
    rows, dirs, amps = _select(rows, dirs, amps, n_voxels, rel_threshold, min_separation_deg)
    ends = np.cumsum(np.bincount(rows, minlength=n_voxels)).tolist()
    return [PeakSet(dirs[a:b], amps[a:b], c)
            for a, b, c in zip([0, *ends], ends, candidates.tolist())]


def _select(rows, dirs, amps, n_voxels, rel_threshold, min_separation_deg):
    """Select each voxel's peaks from the refined candidates of a batch.

    Candidates are ordered by voxel and, stably, by descending amplitude.
    Those below rel_threshold times their voxel's strongest are dropped,
    then each one closer than min_separation_deg to a stronger kept peak
    of its voxel: round i decides every voxel's i-th candidate at once.
    Returns the kept (rows, dirs, amps), in that order.
    """
    order = np.lexsort((-amps, rows))
    rows, dirs, amps = rows[order], dirs[order], amps[order]
    count = np.bincount(rows, minlength=n_voxels)
    first = np.cumsum(count) - count
    keep = amps >= rel_threshold * amps[first[rows]]
    rows, dirs, amps = rows[keep], dirs[keep], amps[keep]
    count = np.bincount(rows, minlength=n_voxels)
    first = (np.cumsum(count) - count)[count > 0]
    count = count[count > 0]
    kept = np.zeros(rows.size, bool)
    for i in range(count.max(initial=0)):
        live = first[count > i]
        stronger = live[:, None] + np.arange(i)
        dots = np.abs(np.einsum("kjd,kd->kj", dirs[stronger], dirs[live + i]))
        near = np.degrees(np.arccos(np.clip(dots, -1.0, 1.0))) < min_separation_deg
        kept[live + i] = ~(near & kept[stronger]).any(axis=1)
    return rows[kept], dirs[kept], amps[kept]


def _tangent_fits(grid, verts):
    """The tangent-plane quadratic fit at each distinct vertex of verts.

    The fit's design depends only on the grid, so it is built once per
    distinct vertex, and one pinv call inverts them all (inverting every
    grid vertex's fit up front would cost more than the peaks of a few
    hundred voxels). The fit
    places the neighbors at their true positions. A vertex with 7
    neighbors gets a zero design row in the 8th slot, which leaves the fit
    as it is. Returns inv, each entry's position among the distinct
    vertices, and per distinct vertex: the (6, 9) pseudo-inverse, the
    center, the tangent frame e1 and e2, and the neighborhood's radius.
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
    return inv, (pinv, center, e1, e2, radius)


def _refine(fit, ring_values):
    """One Newton step of each candidate's tangent-plane fit.

    fit holds _tangent_fits' tables at each candidate's vertex, and
    ring_values (K, 9) the field there and at its neighbors in
    neighbor_table order, 0 where one is missing; a neighbor across the
    equator carries its antipode's value, which an even field shares.
    Steps are clipped to the neighborhood's radius; a singular Hessian
    takes no step. Returns the (K, 3) unit directions.
    """
    pinv, center, e1, e2, radius = fit
    beta = np.einsum("kij,kj->ki", pinv, ring_values)
    g0, g1 = beta[:, 1], beta[:, 2]
    h00, h01, h11 = 2 * beta[:, 3], beta[:, 4], 2 * beta[:, 5]
    det = (h00 * h11 - h01 * h01)[:, None]
    step = -np.stack([h11 * g0 - h01 * g1, h00 * g1 - h01 * g0], axis=1)
    step = np.divide(step, det, out=np.zeros_like(step), where=det != 0)
    norm = np.linalg.norm(step, axis=1)
    scale = np.where(norm > radius, radius / np.maximum(norm, 1e-30), 1.0)
    step *= scale[:, None]
    refined = center + step[:, :1] * e1 + step[:, 1:] * e2
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
