"""Hierarchical Healpix discretization of the sphere and its weighted graph.

Healpix pixel centers (NESTED ordering throughout) form the vertices of a
graph whose edges connect the standard 8-neighborhood (7 at the 24
degenerate corner pixels, 6 everywhere at nside=1). Edge weights are
exp(-d^2/rho^2) with d the chord distance and rho the mean chord distance
over all neighbor pairs; the graph Laplacian is the unweighted-degree
combinatorial form L = D - A.

Vertex azimuths are computed per quadrant and mapped by exact sign/swap
rules, so the 4-fold rotation symmetry of the pixelization about z holds
bit-exactly: the quarter-turn vertex permutations are exact graph
automorphisms, which downstream convolutions rely on for equivariance.
"""

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import InternalConsistencyError, InvalidArgumentError

MAX_NSIDE = 64

_JRLL = np.array([2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4], dtype=np.int64)
_JPLL = np.array([1, 3, 5, 7, 0, 2, 4, 6, 1, 3, 5, 7], dtype=np.int64)

# Neighbor lookup tables for pixels on face edges, indexed by the
# direction bucket (S, SE, E, SW, center, NE, W, NW, N) and face number.
_XOFFSET = np.array([-1, -1, 0, 1, 1, 1, 0, -1], dtype=np.int64)
_YOFFSET = np.array([0, 1, 1, 1, 0, -1, -1, -1], dtype=np.int64)
_FACEARRAY = np.array(
    [
        [8, 9, 10, 11, -1, -1, -1, -1, 10, 11, 8, 9],  # S
        [5, 6, 7, 4, 8, 9, 10, 11, 9, 10, 11, 8],  # SE
        [-1, -1, -1, -1, 5, 6, 7, 4, -1, -1, -1, -1],  # E
        [4, 5, 6, 7, 11, 8, 9, 10, 11, 8, 9, 10],  # SW
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],  # center
        [1, 2, 3, 0, 0, 1, 2, 3, 5, 6, 7, 4],  # NE
        [-1, -1, -1, -1, 7, 4, 5, 6, -1, -1, -1, -1],  # W
        [3, 0, 1, 2, 3, 0, 1, 2, 4, 5, 6, 7],  # NW
        [2, 3, 0, 1, -1, -1, -1, -1, 0, 1, 2, 3],  # N
    ],
    dtype=np.int64,
)
_SWAPARRAY = np.array(
    [
        [0, 0, 3],
        [0, 0, 6],
        [0, 0, 0],
        [0, 0, 5],
        [0, 0, 0],
        [5, 0, 0],
        [0, 0, 0],
        [6, 0, 0],
        [3, 0, 0],
    ],
    dtype=np.int64,
)


def _compress_bits(v):
    """Extract the even-position bits of v (inverse of _spread_bits)."""
    v = v & 0x5555555555555555
    v = (v | (v >> 1)) & 0x3333333333333333
    v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v | (v >> 8)) & 0x0000FFFF0000FFFF
    v = (v | (v >> 16)) & 0x00000000FFFFFFFF
    return v


def _spread_bits(v):
    """Spread the low 32 bits of v onto even positions."""
    v = v & 0x00000000FFFFFFFF
    v = (v ^ (v << 16)) & 0x0000FFFF0000FFFF
    v = (v ^ (v << 8)) & 0x00FF00FF00FF00FF
    v = (v ^ (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v ^ (v << 2)) & 0x3333333333333333
    v = (v ^ (v << 1)) & 0x5555555555555555
    return v


def _nest2xyf(nside, pix):
    order = int(nside).bit_length() - 1
    face = pix >> (2 * order)
    within = pix & (nside * nside - 1)
    ix = _compress_bits(within)
    iy = _compress_bits(within >> 1)
    return face, ix, iy


def _xyf2nest(nside, face, ix, iy):
    order = int(nside).bit_length() - 1
    return (face << (2 * order)) + _spread_bits(ix) + (_spread_bits(iy) << 1)


def _pix2vec(nside, pix):
    """Unit vectors of NESTED pixel centers.

    The azimuth is reduced to the first quadrant before cos/sin and then
    mapped out by exact (sign, swap) rules, making the quarter-turn
    symmetry about z bit-exact.
    """
    face, ix, iy = _nest2xyf(nside, pix)
    jr = _JRLL[face] * nside - ix - iy - 1

    z = np.empty(pix.shape, dtype=np.float64)
    sth = np.empty_like(z)
    nr = np.empty_like(jr)

    north = jr < nside
    south = jr > 3 * nside
    equa = ~(north | south)

    nr[north] = jr[north]
    nr[south] = 4 * nside - jr[south]
    nr[equa] = nside

    cap = north | south
    t = nr[cap].astype(np.float64) ** 2 / (3.0 * nside * nside)
    z[cap] = 1.0 - t
    z[south] = -z[south]
    sth[cap] = np.sqrt(t * (2.0 - t))

    z[equa] = (2.0 * nside - jr[equa]) * (2.0 / (3.0 * nside))
    sth[equa] = np.sqrt((1.0 - z[equa]) * (1.0 + z[equa]))

    tmp = _JPLL[face] * nr + ix - iy
    tmp = np.where(tmp < 0, tmp + 8 * nr, tmp)

    quad, rem = np.divmod(tmp, 2 * nr)
    phi0 = (np.pi / 4.0) * (rem.astype(np.float64) / nr)
    c0 = np.cos(phi0)
    s0 = np.sin(phi0)
    c = np.where(quad == 0, c0, np.where(quad == 1, -s0, np.where(quad == 2, -c0, s0)))
    s = np.where(quad == 0, s0, np.where(quad == 1, c0, np.where(quad == 2, -s0, -c0)))

    vec = np.stack([sth * c, sth * s, z], axis=-1)
    norm = np.sqrt((vec[:, 0] ** 2 + vec[:, 1] ** 2) + vec[:, 2] ** 2)
    return vec / norm[:, None]


def _neighbor_table(nside):
    """(N, 8) NESTED neighbor indices, -1 where a diagonal is missing."""
    npix = 12 * nside * nside
    pix = np.arange(npix, dtype=np.int64)
    face, ix, iy = _nest2xyf(nside, pix)
    out = np.empty((npix, 8), dtype=np.int64)
    for m in range(8):
        x = ix + _XOFFSET[m]
        y = iy + _YOFFSET[m]
        bucket = np.full(npix, 4, dtype=np.int64)
        xl = x < 0
        xh = x >= nside
        x = np.where(xl, x + nside, np.where(xh, x - nside, x))
        bucket += xh.astype(np.int64) - xl.astype(np.int64)
        yl = y < 0
        yh = y >= nside
        y = np.where(yl, y + nside, np.where(yh, y - nside, y))
        bucket += 3 * (yh.astype(np.int64) - yl.astype(np.int64))

        f = _FACEARRAY[bucket, face]
        bits = _SWAPARRAY[bucket, face >> 2]
        x2 = np.where(bits & 1, nside - x - 1, x)
        y2 = np.where(bits & 2, nside - y - 1, y)
        xs = np.where(bits & 4, y2, x2)
        ys = np.where(bits & 4, x2, y2)
        out[:, m] = np.where(f >= 0, _xyf2nest(nside, f, xs, ys), -1)
    return out


class SphericalGrid:
    """Immutable Healpix graph at one resolution.

    Attributes
    ----------
    nside : int
        Healpix resolution parameter (power of two).
    vertices : (N, 3) ndarray
        Unit vectors of pixel centers, NESTED order, N = 12*nside^2.
    neighbor_table : (N, 8) ndarray
        Neighbor indices with -1 padding.
    adjacency : scipy.sparse.csr_matrix
        Symmetric nonnegative edge weights, zero diagonal.
    laplacian : scipy.sparse.csr_matrix
        L = D - A; symmetric PSD with zero row sums.
    rho : float
        Mean chord distance over neighbor pairs.
    """

    def __init__(self, nside, vertices, neighbor_table, adjacency, laplacian, rho):
        self.nside = nside
        self.n_vertices = vertices.shape[0]
        self.vertices = vertices
        self.neighbor_table = neighbor_table
        self.adjacency = adjacency
        self.laplacian = laplacian
        self.rho = rho
        vertices.setflags(write=False)
        neighbor_table.setflags(write=False)


def build_grid(nside: int) -> SphericalGrid:
    """Construct the Healpix graph for one resolution.

    Parameters
    ----------
    nside : int
        Power of two in 1..64.
    """
    if nside < 1 or nside > MAX_NSIDE or (nside & (nside - 1)) != 0:
        raise InvalidArgumentError(
            f"nside must be a power of two in 1..{MAX_NSIDE}, got {nside}"
        )
    npix = 12 * nside * nside
    pix = np.arange(npix, dtype=np.int64)
    vertices = _pix2vec(nside, pix)
    nbrs = _neighbor_table(nside)

    rows = np.repeat(pix, 8)
    cols = nbrs.reshape(-1)
    valid = cols >= 0
    rows, cols = rows[valid], cols[valid]

    diff = vertices[rows] - vertices[cols]
    d2 = (diff[:, 0] ** 2 + diff[:, 1] ** 2) + diff[:, 2] ** 2
    upper = rows < cols
    rho = float(np.mean(np.sqrt(d2[upper])))
    weights = np.exp(-d2 / (rho * rho))

    adjacency = sp.csr_matrix((weights, (rows, cols)), shape=(npix, npix))
    adjacency.sum_duplicates()
    adjacency.sort_indices()

    # Degrees are sums of per-row sorted weights: permutation-equivalent
    # rows then sum in an identical order, keeping the quarter-turn
    # symmetry of the Laplacian bit-exact.
    padded = np.zeros((npix, 8), dtype=np.float64)
    counts = np.diff(adjacency.indptr)
    mask = np.arange(8)[None, :] < counts[:, None]
    padded[mask] = adjacency.data
    degrees = np.sort(padded, axis=1).sum(axis=1)

    laplacian = (sp.diags(degrees) - adjacency).tocsr()
    laplacian.sort_indices()
    return SphericalGrid(nside, vertices, nbrs, adjacency, laplacian, rho)


def z_rotation_permutation(grid: SphericalGrid, quarter_turns: int) -> np.ndarray:
    """Vertex permutation realizing a rotation about z by quarter_turns*90 degrees.

    Returns pi such that R_z(quarter_turns*90deg) @ vertices[pi[i]] equals
    vertices[i]; pi is an exact automorphism of the weighted graph.
    """
    k = int(quarter_turns) % 4
    if k == 0:
        return np.arange(grid.n_vertices, dtype=np.int64)
    ang = -k * np.pi / 2.0
    ca, sa = np.cos(ang), np.sin(ang)
    rot_inv = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    targets = grid.vertices @ rot_inv.T
    dist, perm = cKDTree(grid.vertices).query(targets)
    if np.max(dist) > 1e-9:
        raise InternalConsistencyError(
            f"no matching vertex within 1e-9 (max distance {np.max(dist):.3e})"
        )
    if len(np.unique(perm)) != grid.n_vertices:
        raise InternalConsistencyError("quarter-turn map is not a bijection")
    return perm.astype(np.int64)


def estimate_lmax(grid: SphericalGrid, iterations: int = 20) -> float:
    """Largest Laplacian eigenvalue estimated by power iteration."""
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(grid.n_vertices)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        w = grid.laplacian @ v
        v = w / np.linalg.norm(w)
    return float(v @ (grid.laplacian @ v))
