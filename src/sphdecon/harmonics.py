"""Real even-degree spherical harmonics: evaluation, fitting, resampling.

The basis is the real, orthonormal, Condon-Shortley-free convention:
cosine branch for m > 0, sine branch for m < 0, with fully normalized
associated Legendre functions. Only even degrees appear anywhere in this
package (signals and fODFs are antipodally symmetric). Dense matrices are
used throughout; no fast transforms are needed at these sizes.
"""

import numpy as np
from scipy.special import gammaln, lpmv

from .errors import IllConditionedError, InvalidArgumentError

_COND_LIMIT = 1e12
DEFAULT_TIKHONOV = 1e-6


class ShBasis:
    """Even-degree real SH basis up to a maximum degree.

    Coefficient count is L = (l_max/2 + 1) * (l_max + 1); entries are
    ordered by (l, m) ascending.
    """

    def __init__(self, l_max: int):
        if l_max < 0 or l_max % 2 != 0:
            raise InvalidArgumentError(f"l_max must be even and nonnegative, got {l_max}")
        self.l_max = l_max
        self.degrees = [(l, m) for l in range(0, l_max + 1, 2) for m in range(-l, l + 1)]
        self.L = len(self.degrees)
        assert self.L == (l_max // 2 + 1) * (l_max + 1)

    def __eq__(self, other):
        return isinstance(other, ShBasis) and other.l_max == self.l_max

    def __repr__(self):
        return f"ShBasis(l_max={self.l_max})"


class ShCoeffs:
    """Coefficient vector over an ShBasis."""

    def __init__(self, basis: ShBasis, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (basis.L,):
            raise InvalidArgumentError(
                f"coefficient vector has shape {values.shape}, expected ({basis.L},)"
            )
        self.basis = basis
        self.values = values


class DesignMatrix:
    """Basis functions evaluated at a point set: Y[(l,m), i] = Y_l^m(p_i)."""

    def __init__(self, basis: ShBasis, points, Y):
        self.basis = basis
        self.points = points
        self.Y = Y


def _check_unit(points):
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    norms = np.linalg.norm(points, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise InvalidArgumentError(f"points must be unit vectors (worst deviation {worst:.3e})")
    return points


def eval_sh(l: int, m: int, p) -> float:
    """Real orthonormal SH value at a unit vector."""
    if l % 2 != 0 or l < 0:
        raise InvalidArgumentError(f"degree must be even and nonnegative, got {l}")
    if abs(m) > l:
        raise InvalidArgumentError(f"|m| must not exceed l, got l={l}, m={m}")
    p = _check_unit(p)[0]
    return float(_sh_block(l, m, p[None, :])[0])


def _fold_hemisphere(points):
    """Replace each point by its antipodal representative in one hemisphere.

    Even-degree harmonics are antipodally symmetric, so this changes no
    value mathematically; it makes f(-p) == f(p) hold bit-exactly.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    flip = (z < 0) | ((z == 0) & ((y < 0) | ((y == 0) & (x < 0))))
    return np.where(flip[:, None], -points, points)


def _sh_block(l, m, points):
    """Y_l^m at each point, vectorized over points."""
    points = _fold_hemisphere(points)
    z = np.clip(points[:, 2], -1.0, 1.0)
    am = abs(m)
    # lpmv carries the Condon-Shortley phase; (-1)^m removes it
    norm = (-1.0) ** am * np.sqrt(
        (2 * l + 1) / (4 * np.pi) * np.exp(gammaln(l - am + 1) - gammaln(l + am + 1))
    )
    leg = norm * lpmv(am, l, z)
    if m == 0:
        return leg
    phi = np.arctan2(points[:, 1], points[:, 0])
    if m > 0:
        return np.sqrt(2.0) * leg * np.cos(m * phi)
    return np.sqrt(2.0) * leg * np.sin(am * phi)


def zonal_design(degrees, points) -> np.ndarray:
    """m=0 basis functions at a point set, one row per requested even degree."""
    points = _check_unit(points)
    return np.stack([_sh_block(l, 0, points) for l in degrees])


def design_matrix(basis: ShBasis, points) -> DesignMatrix:
    """Evaluate the whole basis at a point set, as an L x n matrix."""
    points = _check_unit(points)
    Y = np.empty((basis.L, points.shape[0]), dtype=np.float64)
    for row, (l, m) in enumerate(basis.degrees):
        Y[row] = _sh_block(l, m, points)
    return DesignMatrix(basis, points, Y)


def fit_matrix(points, l_max: int, tikhonov: float = 0.0) -> np.ndarray:
    """L x n matrix M with M @ samples = least-squares SH coefficients.

    With tikhonov = 0 the normal equations must be well conditioned;
    otherwise a ridge term tikhonov * I is added.
    """
    basis = ShBasis(l_max)
    Y = design_matrix(basis, points).Y
    gram = Y @ Y.T
    if tikhonov < 0:
        raise InvalidArgumentError("tikhonov must be nonnegative")
    if tikhonov == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise IllConditionedError(
                f"normal equations are ill-conditioned (condition estimate {cond:.3e}); "
                "supply more points or a positive tikhonov"
            )
        return np.linalg.solve(gram, Y)
    return np.linalg.solve(gram + tikhonov * np.eye(basis.L), Y)


def fit_shc(samples, points, l_max: int, tikhonov: float = 0.0) -> ShCoeffs:
    """Least-squares SH fit of sampled values at unit points."""
    samples = np.asarray(samples, dtype=np.float64)
    M = fit_matrix(points, l_max, tikhonov)
    return ShCoeffs(ShBasis(l_max), M @ samples)


def evaluate_shc(coeffs: ShCoeffs, points) -> np.ndarray:
    """Evaluate an SH expansion at unit points."""
    Y = design_matrix(coeffs.basis, points).Y
    return coeffs.values @ Y


def default_fit_degree(n_gradients: int) -> int:
    """Largest even degree whose coefficient count fits 0.8x the samples, capped at 8."""
    l = 0
    while l + 2 <= 8 and ((l + 2) // 2 + 1) * (l + 3) <= 0.8 * n_gradients:
        l += 2
    return l


def resample(samples, gradients, grid, l_max_fit: int | None = None,
             tikhonov: float = DEFAULT_TIKHONOV) -> np.ndarray:
    """Interpolate gradient-direction samples onto a Healpix grid via SH.

    samples may be a vector over gradients or a (V, n) batch; the result
    has vertices on the last axis.
    """
    samples = np.asarray(samples, dtype=np.float64)
    gradients = _check_unit(gradients)
    if l_max_fit is None:
        l_max_fit = default_fit_degree(gradients.shape[0])
    basis = ShBasis(l_max_fit)
    if basis.L > gradients.shape[0] and tikhonov == 0.0:
        raise InvalidArgumentError(
            f"l_max_fit={l_max_fit} needs {basis.L} coefficients but only "
            f"{gradients.shape[0]} gradients are available"
        )
    M = fit_matrix(gradients, l_max_fit, tikhonov)
    Yg = design_matrix(basis, grid.vertices).Y
    return (samples @ M.T) @ Yg
