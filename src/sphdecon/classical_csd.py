"""Baseline constrained spherical deconvolution (SSST / SSMT / MSMT).

Per voxel the quadratic data term ||s - A c||^2 is minimized under an
iterated soft non-negativity constraint: grid points where the current
fODF falls below the threshold contribute quadratic penalty rows, the
augmented normal equations are re-solved, and the active set is updated
until it stabilizes. Isotropic tissue coefficients are constrained
nonnegative the same way.
"""

from dataclasses import dataclass

import numpy as np

from . import harmonics as sh
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import IllConditionedError, InvalidArgumentError

_Z_AXIS = np.array([[0.0, 0.0, 1.0]])


@dataclass
class CsdConfig:
    lambda_sparsity: float = 1.0
    nonneg_threshold: float = 0.0
    max_iters: int = 50
    tol: float = 1e-8
    constraint_grid_nside: int = 16
    wm_degree: int = 8
    ridge: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be positive")
        if self.tol <= 0:
            raise InvalidArgumentError("tol must be positive")


class FodfField:
    """Per-voxel fODF coefficients per tissue (WM even-degree, iso scalar)."""

    def __init__(self, coeffs: dict, basis: sh.ShBasis, converged=None):
        self.coeffs = coeffs
        self.basis = basis
        v = coeffs["wm"].shape[0] if "wm" in coeffs else next(iter(coeffs.values())).shape[0]
        self.n_voxels = v
        self.converged = np.ones(v, bool) if converged is None else converged
        if "wm" in coeffs and coeffs["wm"].shape[1] != basis.L:
            raise InvalidArgumentError(
                f"wm coefficients have {coeffs['wm'].shape[1]} columns, basis wants {basis.L}"
            )

    @property
    def tissues(self):
        return list(self.coeffs)


def system_matrix(gradients: sm.GradientTable, rfs: dict, basis: sh.ShBasis):
    """Stacked forward operator A with one column block per tissue.

    Rows run over b=0 samples then each shell's gradient samples; the
    tissue blocks are ordered wm, gm, csf (as present).
    """
    tissues = [t for t in sm.TISSUES if t in rfs]
    blocks = []
    keys = sample_keys(gradients)
    for b in keys:
        if b == 0:
            dirs = np.repeat(_Z_AXIS, gradients.b0_count, axis=0)
        else:
            dirs = gradients.directions[b]
        row = []
        for t in tissues:
            tb = sm.tissue_basis(basis, t)
            Y = sh.design_matrix(tb, dirs)
            row.append((sm.rf_diagonal(rfs[t], tb, b)[:, None] * Y).T)
        blocks.append(np.hstack(row))
    A = np.vstack(blocks)
    slices, at = {}, 0
    for t in tissues:
        lt = sm.tissue_basis(basis, t).L
        slices[t] = slice(at, at + lt)
        at += lt
    return A, slices, keys


def sample_keys(gradients: sm.GradientTable):
    """Row order of the stacked samples: b=0 (when present), then each shell."""
    return ([0] if gradients.b0_count else []) + list(gradients.shells)


def stack_samples(batch: sm.VoxelBatch, keys):
    return np.hstack([batch.signals[b] for b in keys])


def csd_solve(batch: sm.VoxelBatch, rfs: dict, config: CsdConfig | None = None) -> FodfField:
    """Deconvolve every voxel of a batch.

    rfs maps tissue names to ResponseFunctions; which tissues take part is
    decided by the keys. Non-convergence is flagged per voxel, never
    raised.
    """
    config = config or CsdConfig()
    basis = sh.ShBasis(config.wm_degree)
    A, slices, keys = system_matrix(batch.gradients, rfs, basis)
    S = stack_samples(batch, keys)
    grid = sg.build_grid(config.constraint_grid_nside)
    B = sh.design_matrix(basis, grid.vertices).T  # (m, L_wm)

    n_rows, n_cols = A.shape
    ata = A.T @ A + config.ridge * np.eye(n_cols)
    cond = np.linalg.cond(ata)
    if not np.isfinite(cond) or cond > 1e14:
        raise IllConditionedError(
            f"normal matrix condition estimate {cond:.3e}; "
            "increase ridge or reduce wm_degree"
        )
    atb = A.T @ S.T  # (n_cols, V)

    wm_sl = slices.get("wm")
    iso_idx = [slices[t].start for t in sm.TISSUES[1:] if t in slices]
    lam = config.lambda_sparsity

    # low-degree unconstrained fit seeds the active set
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
    thr = config.nonneg_threshold
    for v in range(V):
        c = np.zeros(n_cols)
        c[keep] = np.linalg.solve(ata_init, atb[keep, v])
        state = None
        for _ in range(config.max_iters):
            active = (B @ c[wm_sl] < thr) if wm_sl is not None else None
            # isotropic coefficients are bound-constrained at 0: pin
            # negatives, release pins whose data gradient points inward
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

    out = {t: coeffs[:, slices[t]] for t in slices}
    return FodfField(out, basis, converged)
