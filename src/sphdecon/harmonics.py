"""Real even-degree spherical harmonics: evaluation, fitting, resampling.

The basis is the real, orthonormal, Condon-Shortley-free convention:
cosine branch for m > 0, sine branch for m < 0, with fully normalized
associated Legendre functions. Only even degrees appear anywhere in this
package (signals and fODFs are antipodally symmetric). Dense matrices are
used throughout; no fast transforms are needed at these sizes.
"""

import numpy as np

from .errors import IllConditionedError, InvalidArgumentError

_COND_LIMIT = 1e12
_RESAMPLE_TIKHONOV = 1e-6


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


def _check_unit(points):
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    norms = np.linalg.norm(points, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise InvalidArgumentError(f"points must be unit vectors (worst deviation {worst:.3e})")
    return points


def fold_hemisphere(points):
    """Replace each point by its antipodal representative in one hemisphere.

    Even-degree harmonics are antipodally symmetric, so this changes no
    value mathematically; it makes f(-p) == f(p) hold bit-exactly.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    flip = (z < 0) | ((z == 0) & ((y < 0) | ((y == 0) & (x < 0))))
    return np.where(flip[:, None], -points, points)


def _polar(points):
    """cos(theta) and azimuth of each point's folded representative."""
    points = fold_hemisphere(points)
    return np.clip(points[:, 2], -1.0, 1.0), np.arctan2(points[:, 1], points[:, 0])


def _even_harmonics(l_max, z, phi, max_order):
    """Yield (l, m, Y_l^m) for every even l <= l_max and |m| <= max_order.

    z and phi are the polar coordinates _polar returns. The fully
    normalized associated Legendre functions (no Condon-Shortley phase)
    come from the standard recurrences: the sectoral
    P_m^m = sqrt((2m+1)/(2m)) sin(theta) P_{m-1}^{m-1}, then
    P_l^m = a_lm (cos(theta) P_{l-1}^m - b_lm P_{l-2}^m) up the degrees.
    """
    sin_theta = np.sqrt((1.0 - z) * (1.0 + z))
    sectoral = np.full(z.shape, np.sqrt(0.25 / np.pi))
    for m in range(min(l_max, max_order) + 1):
        if m > 0:
            sectoral = np.sqrt((2 * m + 1) / (2 * m)) * sin_theta * sectoral
            cos_m, sin_m = np.sqrt(2.0) * np.cos(m * phi), np.sqrt(2.0) * np.sin(m * phi)
        prev, leg = 0.0, sectoral
        for l in range(m, l_max + 1):
            if l > m:
                a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
                b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
                prev, leg = leg, a * (z * leg - b * prev)
            if l % 2:
                continue
            if m == 0:
                yield l, 0, leg
            else:
                yield l, m, leg * cos_m
                yield l, -m, leg * sin_m


def zonal_design(degrees, points) -> np.ndarray:
    """m=0 basis functions at a point set, one row per requested even degree."""
    z, phi = _polar(_check_unit(points))
    rows = {l: y for l, _, y in _even_harmonics(max(degrees), z, phi, 0)}
    return np.stack([rows[l] for l in degrees])


def design_matrix(basis: ShBasis, points) -> np.ndarray:
    """Evaluate the whole basis at a point set: Y[(l,m), i] = Y_l^m(p_i), L x n."""
    z, phi = _polar(_check_unit(points))
    Y = np.empty((basis.L, z.shape[0]), dtype=np.float64)
    for l, m, y in _even_harmonics(basis.l_max, z, phi, basis.l_max):
        # rows are ordered by (l, m); the even degrees below l take l(l-1)/2
        Y[l * (l - 1) // 2 + l + m] = y
    return Y


def fit_matrix(points, l_max: int, tikhonov: float = 0.0) -> np.ndarray:
    """L x n matrix M with M @ samples = least-squares SH coefficients.

    With tikhonov = 0 the normal equations must be well conditioned;
    otherwise a ridge term tikhonov * I is added.
    """
    return fit_from_design(design_matrix(ShBasis(l_max), points), tikhonov)


def fit_from_design(Y, tikhonov: float = 0.0) -> np.ndarray:
    """The fit_matrix of a point set, from its L x n design matrix Y."""
    if tikhonov < 0:
        raise InvalidArgumentError("tikhonov must be nonnegative")
    gram = Y @ Y.T
    if tikhonov == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise IllConditionedError(
                f"normal equations are ill-conditioned (condition estimate {cond:.3e}); "
                "supply more points or a positive tikhonov"
            )
        return np.linalg.solve(gram, Y)
    return np.linalg.solve(gram + tikhonov * np.eye(Y.shape[0]), Y)


def default_fit_degree(n_gradients: int) -> int:
    """Largest even degree whose coefficient count fits 0.8x the samples, capped at 8."""
    l = 0
    while l + 2 <= 8 and ((l + 2) // 2 + 1) * (l + 3) <= 0.8 * n_gradients:
        l += 2
    return l


def resample_matrices(gradients, points) -> tuple:
    """The two matrices that resample samples on these gradients onto points.

    Returns (fit_t, y_grid): the (n, L) transposed SH fit at
    default_fit_degree with a small ridge, and the (L, N) basis on the
    N points. Build them once and resample any number of batches.
    """
    gradients = _check_unit(gradients)
    l_max_fit = default_fit_degree(gradients.shape[0])
    M = fit_matrix(gradients, l_max_fit, _RESAMPLE_TIKHONOV)
    return M.T, design_matrix(ShBasis(l_max_fit), points)


def resample(samples, matrices) -> np.ndarray:
    """Interpolate gradient-direction samples onto a point set via SH.

    matrices is resample_matrices(gradients, points). samples may be a
    vector over gradients or a (V, n) batch; the result has vertices on
    the last axis.
    """
    fit_t, y_grid = matrices
    return (np.asarray(samples, dtype=np.float64) @ fit_t) @ y_grid
