"""Baseline constrained spherical deconvolution (SSST / SSMT / MSMT).

Per voxel the quadratic data term ||s - A c||^2 is minimized under an
iterated soft non-negativity constraint: grid points where the current
fODF falls below the threshold contribute quadratic penalty rows, the
augmented normal equations are re-solved, and the active set is updated
until it stabilizes. Isotropic tissue coefficients are constrained
nonnegative the same way. The voxels of a batch iterate together, one
stacked solve per step, until each has converged or run out of steps.
"""

from dataclasses import dataclass

import numpy as np

from . import harmonics as sh
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import IllConditionedError, InvalidArgumentError

_Z_AXIS = np.array([[0.0, 0.0, 1.0]])
# voxels that iterate together; bounds the per-step work arrays (the
# stacked systems, the active-set masks and their penalty products)
_CHUNK = 128


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
        # each check is negated so that NaN fails it too
        if not self.max_iters >= 1:
            raise InvalidArgumentError("max_iters must be positive")
        if not self.tol > 0:
            raise InvalidArgumentError(f"tol must be positive, got {self.tol}")
        for name in ("ridge", "lambda_sparsity", "nonneg_threshold"):
            if not getattr(self, name) >= 0:
                raise InvalidArgumentError(
                    f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.wm_degree < 0 or self.wm_degree % 2:
            raise InvalidArgumentError(
                f"wm_degree must be even and nonnegative, got {self.wm_degree}")
        sg.check_nside(self.constraint_grid_nside, "constraint_grid_nside")


class FodfField:
    """Per-voxel fODF coefficients per tissue (WM even-degree, iso scalar)."""

    def __init__(self, coeffs: dict, basis: sh.ShBasis, converged=None, iterations=None):
        self.coeffs = coeffs
        self.basis = basis
        v = coeffs["wm"].shape[0] if "wm" in coeffs else next(iter(coeffs.values())).shape[0]
        self.n_voxels = v
        self.converged = np.ones(v, bool) if converged is None else converged
        # active-set solves per voxel, for fields that CSD computed
        self.iterations = iterations
        if "wm" in coeffs and coeffs["wm"].shape[1] != basis.L:
            raise InvalidArgumentError(
                f"wm coefficients have {coeffs['wm'].shape[1]} columns, basis wants {basis.L}"
            )

    @property
    def tissues(self):
        return list(self.coeffs)


def system_matrix(gradients: sm.GradientTable, rfs: dict, basis: sh.ShBasis):
    """Stacked forward operator A with one column block per tissue.

    Rows follow the gradient table's columns (b=0 samples, then each
    shell's); the tissue blocks are ordered wm, gm, csf (as present).
    """
    tissues = [t for t in sm.TISSUES if t in rfs]
    blocks = []
    for b in gradients.keys:
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
    return A, slices


def csd_solve(batch: sm.VoxelBatch, rfs: dict, config: CsdConfig | None = None) -> FodfField:
    """Deconvolve every voxel of a batch.

    rfs maps tissue names to ResponseFunctions; which tissues take part is
    decided by the keys. Non-convergence is flagged per voxel, never
    raised. Voxels iterate together, _CHUNK at a time: each active-set
    step is one stacked solve over the voxels that have not converged yet.
    """
    config = config or CsdConfig()
    basis = sh.ShBasis(config.wm_degree)
    A, slices = system_matrix(batch.gradients, rfs, basis)

    n_rows, n_cols = A.shape
    ata = A.T @ A + config.ridge * np.eye(n_cols)
    cond = np.linalg.cond(ata)
    if not np.isfinite(cond) or cond > 1e14:
        raise IllConditionedError(
            f"normal matrix condition estimate {cond:.3e}; "
            "increase ridge or reduce wm_degree"
        )
    atb = A.T @ batch.signals.T  # (n_cols, V)

    wm_sl = slices.get("wm")
    iso_idx = [slices[t].start for t in sm.TISSUES[1:] if t in slices]

    # low-degree unconstrained fit seeds the active set
    init_deg = min(config.wm_degree, sh.default_fit_degree(n_rows))
    init_cols = [i for i, (l, _) in enumerate(basis.degrees) if l <= init_deg]
    if wm_sl is not None:
        keep = np.array([wm_sl.start + i for i in init_cols]
                        + list(range(basis.L, n_cols)))
        Y2, G, pair = _constraint_penalty(basis, config)
        B = Y2[:, : basis.L]  # the degree-l_max columns are the design rows
    else:
        keep = np.arange(n_cols)
    V = batch.n_voxels
    coeffs = np.zeros((V, n_cols))
    coeffs[:, keep] = np.linalg.solve(ata[np.ix_(keep, keep)], atb[keep]).T

    converged = np.zeros(V, bool)
    iterations = np.zeros(V, np.int64)
    for lo in range(0, V, _CHUNK):
        live = np.arange(lo, min(lo + _CHUNK, V))
        state = None  # the active set and pins of the live voxels at the last step
        for _ in range(config.max_iters):
            if live.size == 0:
                break
            c = coeffs[live]
            rhs = atb[:, live].T  # a fancy-indexed copy
            # isotropic coefficients are bound-constrained at 0: pin
            # negatives, release pins whose data gradient points inward
            grad = c @ ata[:, iso_idx] - rhs[:, iso_idx]
            c_iso = c[:, iso_idx]
            flags = pinned = (c_iso < 0) | ((c_iso == 0) & (grad >= 0))
            M = np.repeat(ata[None], live.size, axis=0)
            if wm_sl is not None:
                # constraint grid points where the fODF is below the threshold
                active = c[:, wm_sl] @ B.T < config.nonneg_threshold
                M[:, wm_sl, wm_sl] += ((active @ Y2) @ G)[:, pair]
                flags = np.hstack([active, pinned])
            for j, i in enumerate(iso_idx):
                p = pinned[:, j]
                M[p, i, :] = 0.0
                M[p, :, i] = 0.0
                M[p, i, i] = 1.0
                rhs[p, i] = 0.0
            c_next = np.linalg.solve(M, rhs[..., None])[..., 0]
            stable = np.zeros(live.size, bool) if state is None else (flags == state).all(axis=1)
            done = stable | (np.abs(c_next - c).max(axis=1) < config.tol)
            coeffs[live] = c_next
            iterations[live] += 1
            converged[live[done]] = True
            live, state = live[~done], flags[~done]

    out = {t: coeffs[:, slices[t]] for t in slices}
    return FodfField(out, basis, converged, iterations)


def _constraint_penalty(basis: sh.ShBasis, config: CsdConfig):
    """The constraint grid's penalty products, factored through degree 2 l_max.

    The Healpix grid is closed under negation and the design rows of
    antipodal vertices are bit-identical, so only the hemisphere that
    fold_hemisphere keeps is used, each vertex weighing twice. A product
    B_i B_j of two even harmonics of degree <= l_max is an even function
    of degree <= 2 l_max (the Gaunt rule), so the products
    2 lambda B[k, i] B[k, j] of the m hemisphere rows factor exactly as
    Y2 @ G. Returns (Y2, G, pair): Y2 the (m, L2) design rows at degree
    2 l_max, whose first L columns are B; G the (L2, L(L+1)/2) expansion
    of each product with i <= j; and pair the (L, L) index of each (i, j)
    into G's columns, so that ((active @ Y2) @ G)[:, pair] is
    lambda B_a^T B_a for each row of an (n, m) active-set mask.

    G is fitted on a hemisphere chosen by the degree, not on the
    constraint grid, which may have fewer vertices than there are
    harmonics: the one of the smallest nside >= l_max, whose Gram matrix
    at degree 2 l_max = 2 nside has a condition number of 1.07-1.54 at
    nside 2-16 (1.24 at the default l_max of 8).
    """
    basis2 = sh.ShBasis(2 * basis.l_max)
    Y2 = sh.design_matrix(basis2, _hemisphere(config.constraint_grid_nside)).T
    Yf = sh.design_matrix(basis2, _hemisphere(1 << max(basis.l_max - 1, 0).bit_length()))
    fit, Bf = sh.fit_from_design(Yf), Yf[: basis.L].T
    iu, ju = np.triu_indices(basis.L)
    pair = np.empty((basis.L, basis.L), np.int64)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    # one row of the packed upper triangle at a time, which holds the
    # transient to a column block of the products on the fit grid
    G = np.empty((basis2.L, iu.size))
    for i in range(basis.L):
        G[:, pair[i, i] : pair[i, i] + basis.L - i] = fit @ (Bf[:, i : i + 1] * Bf[:, i:])
    G *= 2.0 * config.lambda_sparsity
    return Y2, G, pair


def _hemisphere(nside):
    """The vertices of a Healpix grid that fold_hemisphere keeps."""
    grid = sg.build_grid(nside)
    return grid.vertices[grid.hemisphere.index]
