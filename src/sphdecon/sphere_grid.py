"""Hierarchical Healpix discretization of the sphere and its graph Laplacian.

Healpix pixel centers (NESTED ordering throughout) form the vertices of a
graph whose edges connect the standard 8-neighborhood (7 at the 24
degenerate corner pixels, 6 everywhere at nside=1). Edge weights are
exp(-d^2/rho^2) with d the chord distance and rho the mean chord distance
over all neighbor pairs; the graph Laplacian is the combinatorial form
L = D - A. A grid builds L on first use, straight from the neighbor
table, as a PatchOperator: dense patches of 16 consecutive vertices that
_kernels.patch_matmul multiplies. The network's filters use the folded L,
which acts on even fields through base faces 0-5 alone (half the
vertices), in the rescaled form (2/lmax) L - I, with lmax from
estimate_lmax of the whole L. CSD and peak detection
read only the vertices and the neighbor table and never build L; peak
detection reads them on the half of the grid that
harmonics.fold_hemisphere keeps (SphericalGrid.hemisphere).

Vertex azimuths are computed per quadrant and mapped by exact sign/swap
rules, so the 4-fold rotation symmetry of the pixelization about z holds
bit-exactly: the quarter-turn vertex permutations are exact graph
automorphisms, which downstream convolutions rely on for equivariance.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from . import harmonics as sh
from .errors import InvalidArgumentError

MAX_NSIDE = 64

_JRLL = np.array([2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4], dtype=np.int64)
_JPLL = np.array([1, 3, 5, 7, 0, 2, 4, 6, 1, 3, 5, 7], dtype=np.int64)
# the base face holding each face's antipodes: north polar <-> south polar
# and equatorial <-> equatorial, half a turn about z apart
_ANTIPODAL_FACE = np.array([10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1], dtype=np.int64)

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


def _antipodes(nside):
    """NESTED index of each pixel's antipode.

    The point reflection maps face f to _ANTIPODAL_FACE[f] and turns the
    face over its diagonal: (ix, iy) -> (nside-1-iy, nside-1-ix). The ring
    index goes to 4 nside minus itself and the azimuth offset gains half a
    turn, so _pix2vec gives the antipode exactly -vertices: bit for bit,
    but for an equator vertex's z, which is +0.0 at both ends of its axis.
    """
    face, ix, iy = _nest2xyf(nside, np.arange(12 * nside * nside, dtype=np.int64))
    return _xyf2nest(nside, _ANTIPODAL_FACE[face], nside - 1 - iy, nside - 1 - ix)


def face_half_rep(nside):
    """(N,) each NESTED vertex's representative on base faces 0-5: itself
    there, its antipode on faces 6-11.

    Faces 0-5 are the first N/2 vertices. Their antipodes are faces 6-11,
    so they hold one vertex of each antipodal pair, and the children of
    vertex p are rows 4p..4p+3 of the next level's half. An even field is
    known from its values there.
    """
    pix = np.arange(12 * nside * nside, dtype=np.int64)
    return np.where(pix < 6 * nside * nside, pix, _antipodes(nside))


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


# rows per Laplacian patch: at nside >= 4, 16 consecutive NESTED vertices
# are a 4x4 patch of one base face, whose neighbors outside it are a ring
# of at most 20
_PATCH_ROWS = 16


@dataclass(frozen=True)
class PatchOperator:
    """An (n, n) vertex operator as dense patches for _kernels.patch_matmul.

    The n vertex rows split into blocks of s consecutive rows (s = 16, or n
    when 16 does not divide n). own (B, s, s) holds each block's entries on
    its own columns; halo (B, s, h) holds those on the columns halo_index
    (B, h) outside the block, zero-padded (a pad column is the block's first
    vertex) to the widest block's h. Values are float64; the kernel casts
    them to the dense operand's dtype.
    """

    own: np.ndarray
    halo: np.ndarray
    halo_index: np.ndarray
    n: int

    def matmul(self, x):
        """Product with a dense array whose first axis runs over vertices."""
        return _kernels.patch_matmul(self.own, self.halo, self.halo_index, x)

    def rescaled(self, lmax: float) -> "PatchOperator":
        """(2/lmax) M - I for this operator M: a spectrum in [0, lmax] maps onto [-1, 1]."""
        scale = 2.0 / lmax
        own = scale * self.own
        diag = np.arange(own.shape[1])
        own[:, diag, diag] -= 1.0
        return PatchOperator(own, scale * self.halo, self.halo_index, self.n)


@dataclass(frozen=True)
class Hemisphere:
    """The half of a grid that harmonics.fold_hemisphere keeps.

    An even field takes the same value at a vertex and at its antipode, so
    it is known from the N/2 kept vertices alone. index (N/2,) holds their
    grid indices, ascending; rep (N,) the half-grid position of each grid
    vertex's representative (itself or its antipode); neighbor_table
    (N/2, 8) each kept vertex's neighbors as half-grid positions of their
    representatives, -1 where a diagonal is missing, so that a neighbor
    across the equator reads its antipode's value.
    """

    index: np.ndarray
    rep: np.ndarray
    neighbor_table: np.ndarray


class SphericalGrid:
    """Immutable Healpix grid at one resolution.

    Attributes
    ----------
    nside : int
        Healpix resolution parameter (power of two).
    vertices : (N, 3) ndarray
        Unit vectors of pixel centers, NESTED order, N = 12*nside^2.
    neighbor_table : (N, 8) ndarray
        Neighbor indices with -1 padding.
    laplacian : PatchOperator
        L = D - A of the weighted graph, built on first access.
    hemisphere : Hemisphere
        The kept half and its neighbor table, built on first access.
    """

    def __init__(self, nside, vertices, neighbor_table):
        self.nside = nside
        self.n_vertices = vertices.shape[0]
        self.vertices = vertices
        self.neighbor_table = neighbor_table
        vertices.setflags(write=False)
        neighbor_table.setflags(write=False)

    @cached_property
    def laplacian(self) -> PatchOperator:
        """L = D - A, cached; graph_laplacian builds it without caching."""
        return graph_laplacian(self)

    @cached_property
    def hemisphere(self) -> Hemisphere:
        """The vertices fold_hemisphere keeps, each vertex's representative
        among them, and their neighbor table."""
        anti = _antipodes(self.nside)
        kept = (sh.fold_hemisphere(self.vertices) == self.vertices).all(axis=1)
        position = np.cumsum(kept) - 1
        rep = position[np.where(kept, np.arange(self.n_vertices), anti)]
        index = np.flatnonzero(kept)
        nbrs = self.neighbor_table[index]
        half_nbrs = np.where(nbrs >= 0, rep[nbrs], -1)
        for a in (index, rep, half_nbrs):
            a.setflags(write=False)
        return Hemisphere(index, rep, half_nbrs)


def graph_laplacian(grid: SphericalGrid, folded: bool = False) -> PatchOperator:
    """Gaussian edge weights on a grid's neighbor table, and L = D - A.

    folded gives L as it acts on even fields, whose value at a vertex and
    at its antipode agree: the rows of base faces 0-5, with each column
    sent to its representative there (face_half_rep). For an even field
    f, (L f) on those rows is this (N/2, N/2) operator times f on them. It
    is symmetric, because L commutes with the point reflection.
    """
    nbrs = grid.neighbor_table
    n = grid.n_vertices
    rows = np.repeat(np.arange(n), 8)
    cols = nbrs.reshape(-1)
    valid = cols >= 0
    rows, cols = rows[valid], cols[valid]

    diff = grid.vertices[rows] - grid.vertices[cols]
    d2 = (diff[:, 0] ** 2 + diff[:, 1] ** 2) + diff[:, 2] ** 2
    rho = float(np.mean(np.sqrt(d2[rows < cols])))
    weights = np.exp(-d2 / (rho * rho))
    padded = np.zeros(nbrs.size)
    padded[valid] = weights

    # Degrees are sums of per-row sorted weights: permutation-equivalent
    # rows then sum in an identical order, keeping the quarter-turn
    # symmetry of the Laplacian bit-exact.
    degrees = np.sort(padded.reshape(n, 8), axis=1).sum(axis=1)
    vals = 0.0 - weights
    if folded:
        n //= 2
        keep = rows < n
        rows, cols, vals, degrees = rows[keep], cols[keep], vals[keep], degrees[:n]
        cols = face_half_rep(grid.nside)[cols]
    return _patch_operator(rows, cols, vals, degrees)


def _patch_operator(rows, cols, vals, diagonal) -> PatchOperator:
    """The PatchOperator with the given diagonal plus vals at (rows, cols).

    Entries that share a position add up, in the order given. A block is
    16 rows, or all n rows when 16 does not divide n.
    """
    n = diagonal.size
    s = _PATCH_ROWS if n % _PATCH_ROWS == 0 else n
    nb = n // s
    pix = np.arange(n)
    own = np.zeros((nb, s, s))
    own[pix // s, pix % s, pix % s] = diagonal
    block = rows // s
    inside = cols // s == block
    np.add.at(own, (block[inside], rows[inside] % s, cols[inside] % s), vals[inside])

    # each block's halo: the distinct outside columns its rows read, ascending
    block, rows, cols, vals = (a[~inside] for a in (block, rows, cols, vals))
    keys, slot = np.unique(block * n + cols, return_inverse=True)
    first = np.searchsorted(keys, np.arange(nb) * n)
    h = int(np.bincount(keys // n, minlength=nb).max())
    halo_index = np.repeat(np.arange(nb) * s, h).reshape(nb, h)
    halo_index[keys // n, np.arange(keys.size) - first[keys // n]] = keys % n
    halo = np.zeros((nb, s, h))
    np.add.at(halo, (block, rows % s, slot - first[block]), vals)
    return PatchOperator(own, halo, halo_index, n)


def check_nside(nside: int, name: str = "nside"):
    """Refuse an nside that is not a power of two in 1..MAX_NSIDE."""
    if not (1 <= nside <= MAX_NSIDE and nside & (nside - 1) == 0):
        raise InvalidArgumentError(
            f"{name} must be a power of two in 1..{MAX_NSIDE}, got {nside}")


def build_grid(nside: int) -> SphericalGrid:
    """The Healpix grid at one resolution, nside a power of two in 1..MAX_NSIDE."""
    check_nside(nside)
    pix = np.arange(12 * nside * nside, dtype=np.int64)
    return SphericalGrid(nside, _pix2vec(nside, pix), _neighbor_table(nside))


def estimate_lmax(lap: PatchOperator) -> float:
    """Largest eigenvalue of a Laplacian, estimated by 20 power iterations."""
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(lap.n)
    v /= np.linalg.norm(v)
    for _ in range(20):
        w = lap.matmul(v)
        v = w / np.linalg.norm(w)
    return float(v @ lap.matmul(v))
