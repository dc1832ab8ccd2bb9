"""Forward signal model, response functions, and the synthetic generator.

Per shell b the signal is S^b = sum_t F_t R_t^b Y_t^b: fODF coefficients
times the diagonal deconvolution kernel times the basis at the gradient
directions. The synthetic generator draws multi-tensor voxels (1-3 axially
symmetric fiber tensors plus isotropic GM/CSF compartments) and corrupts
them with Rician noise.

All randomness is drawn from named substreams of a single seed so that
results are independent of evaluation order.
"""

from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from . import harmonics as sh
from .errors import InvalidArgumentError

TISSUES = ("wm", "gm", "csf")

# substream tags for seeded generators
_STREAM_SCHEME = 101
_STREAM_VOXEL = 202
_STREAM_NOISE = 303


def _stream_entropy(seed: int, stream: int, *parts) -> np.ndarray:
    """Entropy words of the streams [seed, stream, *parts], one uint32 row each.

    numpy seeds a generator from a list of Python ints by splitting each
    int into 32-bit words, least significant first; default_rng of a row
    here gets the state the list gets, without the per-element coercion.
    parts broadcast against each other, and each of their values (voxel
    indices, b-values) must fit one word.
    """
    seed = int(seed)
    head = [(seed >> s) & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words = np.stack(np.broadcast_arrays(*head, stream, *(np.asarray(p, np.int64) for p in parts)),
                     axis=-1)
    if seed < 0 or words.min(initial=0) < 0 or words.max(initial=0) > 0xFFFFFFFF:
        raise InvalidArgumentError("seed stream entries must be nonnegative, parts below 2**32")
    return words.astype(np.uint32)


# numpy's SeedSequence hash (a pool of 4 uint32 words) and PCG64's 128-bit LCG
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_STREAM_CHUNK = 256  # rows whose states are held as Python ints at once


def _hash_constants(init, mult, n) -> list:
    """The (xor, multiply) constant pairs of n successive hash steps.

    The constant only ever advances by `mult`, whatever the data, so every
    row of a block shares them.
    """
    pairs = []
    for _ in range(n):
        xor, init = init, init * mult & 0xFFFFFFFF
        pairs.append((np.uint32(xor), np.uint32(init)))
    return pairs


def _pcg64_states(entropy) -> list:
    """PCG64 (state, inc) of default_rng(row) for each row of an (N, k) uint32 block.

    The SeedSequence hash runs on whole columns: the pool is 4 hashmix
    words (zeros past a row's end), then mixed with each other and with the
    words past the 4th; PCG64 takes 4 uint64 output words as the high and
    low halves of its seed and increment, then srandom sets inc = 2 seq + 1
    and state = (seed + inc) mult + inc.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    n, k = entropy.shape
    n_hash = _POOL_SIZE * _POOL_SIZE + max(k - _POOL_SIZE, 0) * _POOL_SIZE
    consts = iter(_hash_constants(_INIT_A, _MULT_A, n_hash))

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> 16)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < k else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, k):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    out = np.empty((n, 8), dtype=np.uint32)
    for i, (xor, mult) in enumerate(_hash_constants(_INIT_B, _MULT_B, 8)):
        value = (pool[i % _POOL_SIZE] ^ xor) * mult
        out[:, i] = value ^ (value >> 16)
    states = []
    # uint32 pairs read as little-endian uint64s: seed high, low, seq high, low
    for s_hi, s_lo, q_hi, q_lo in out.astype("<u4").view("<u8").tolist():
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
        seed = (s_hi << 64) | s_lo
        states.append((((seed + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _streams(entropy):
    """Yield a generator per row of an (N, k) uint32 block, seeded as default_rng(row).

    It is one Generator whose state is reset for each row, so each must be
    used up before the next is taken. States are derived a chunk at a time.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for lo in range(0, len(entropy), _STREAM_CHUNK):
        for state, inc in _pcg64_states(entropy[lo:lo + _STREAM_CHUNK]):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


@dataclass
class GradientTable:
    """Acquisition geometry: per-shell unit directions plus b=0 count.

    It owns the sample layout: a voxel's samples are the b=0 samples (when
    present), then each shell's in ascending b. `keys` lists them in that
    order (0 for b=0) and `columns(b)` is one key's slice of the samples.
    """

    shells: list
    directions: dict
    b0_count: int = 0

    def __post_init__(self):
        if not self.shells and self.b0_count == 0:
            raise InvalidArgumentError("gradient table needs at least one shell")
        self.shells = list(self.shells)
        self.shells.sort()
        widths = {0: self.b0_count} if self.b0_count else {}
        for b in self.shells:
            if b <= 0:  # key 0 is the b=0 samples, which b0_count counts
                raise InvalidArgumentError(f"shell b-value {b} is not positive")
            d = np.asarray(self.directions[b], dtype=np.float64)
            if np.any(np.abs(np.linalg.norm(d, axis=1) - 1) > 1e-6):
                raise InvalidArgumentError(f"shell {b} directions are not unit vectors")
            self.directions[b] = d
            widths[b] = d.shape[0]
        self.keys = list(widths)
        ends = np.cumsum([0, *widths.values()]).tolist()
        self._columns = {b: slice(lo, hi) for b, lo, hi in zip(widths, ends, ends[1:])}
        self.total_samples = ends[-1]

    def n(self, b):
        return self.directions[b].shape[0]

    def columns(self, b):
        return self._columns[b]

    def __eq__(self, other):
        return (isinstance(other, GradientTable) and self.b0_count == other.b0_count
                and self.shells == other.shells
                and all(np.array_equal(self.directions[b], other.directions[b])
                        for b in self.shells))


@dataclass
class ResponseFunction:
    """Zonal (m=0) deconvolution kernel coefficients per shell.

    r[b][j] is the coefficient of degree 2j; isotropic tissues carry a
    single degree-0 coefficient per shell. Shell key 0 holds the b=0
    response when the acquisition includes b=0 samples.
    """

    tissue: str
    r: dict

    def __post_init__(self):
        if self.tissue not in TISSUES:
            raise InvalidArgumentError(f"unknown tissue {self.tissue!r}")
        self.r = {b: np.asarray(v, dtype=np.float64).ravel() for b, v in self.r.items()}
        if self.tissue in TISSUES[1:]:
            for b, v in self.r.items():
                if v.shape != (1,):
                    raise InvalidArgumentError(
                        f"isotropic tissue {self.tissue} must have one coefficient per shell"
                    )
        for b, v in self.r.items():
            if not np.all(np.isfinite(v)):
                raise InvalidArgumentError(f"non-finite response coefficients at b={b}")


@dataclass
class TensorParams:
    """Axially symmetric tensor eigenvalues and isotropic diffusivities (mm^2/s)."""

    lambda_parallel: float = 1.7e-3
    lambda_perp: float = 0.2e-3
    d_gm: float = 0.8e-3
    d_csf: float = 3.0e-3

    def __post_init__(self):
        # a negative diffusivity makes a signal grow without bound with b
        for name, value in vars(self).items():
            if not value >= 0:
                raise InvalidArgumentError(f"tensor.{name} must be nonnegative, got {value}")


@dataclass
class VoxelBatch:
    """Sampled signals, one row per voxel, with optional ground truth."""

    signals: np.ndarray  # (V, total_samples) in the gradient table's column order
    gradients: GradientTable
    fibers: np.ndarray | None = None  # (V, 3, 3) unit rows, zero-padded
    fiber_fractions: np.ndarray | None = None  # (V, 3), zero-padded
    tissue_fractions: np.ndarray | None = None  # (V, 3) wm/gm/csf
    redraws: np.ndarray | None = None  # (V,) rejected axis and fraction draws, if simulated

    def __post_init__(self):
        if self.signals.ndim != 2 or self.signals.shape[1] != self.gradients.total_samples:
            raise InvalidArgumentError(f"signals of shape {self.signals.shape} do not have "
                                       f"the table's {self.gradients.total_samples} columns")
        if self.tissue_fractions is not None:
            sums = self.tissue_fractions.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise InvalidArgumentError("tissue fractions must sum to 1")

    @property
    def n_voxels(self):
        return self.signals.shape[0]

    def shell(self, b):
        """The (V, n_b) samples of one key of the table (0 for b=0), as a view."""
        return self.signals[:, self.gradients.columns(b)]

    def n_fibers(self):
        return (np.linalg.norm(self.fibers, axis=2) > 0.5).sum(axis=1)

    def b0_normalized(self):
        """This batch with every voxel's samples divided by its mean b=0 signal.

        Without b=0 samples, and in voxels whose mean is not positive, the
        scale is 1.
        """
        if not self.gradients.b0_count:
            return self
        norms = self.shell(0).mean(axis=1)
        norms = np.where(norms > 0, norms, 1.0)[:, None]
        return replace(self, signals=self.signals / norms)

    def subset(self, idx):
        return VoxelBatch(
            self.signals[idx],
            self.gradients,
            None if self.fibers is None else self.fibers[idx],
            None if self.fiber_fractions is None else self.fiber_fractions[idx],
            None if self.tissue_fractions is None else self.tissue_fractions[idx],
            None if self.redraws is None else self.redraws[idx],
        )


def rf_diagonal(rf: ResponseFunction, basis: sh.ShBasis, b) -> np.ndarray:
    """Diagonal of R^b: sqrt(4pi/(2l+1)) r_l in blocks of 2l+1 entries."""
    if b not in rf.r:
        raise InvalidArgumentError(f"response for tissue {rf.tissue} has no shell b={b}")
    coeffs = rf.r[b]
    diag = np.zeros(basis.L)
    for i, (l, _) in enumerate(basis.degrees):
        j = l // 2
        if j < len(coeffs):
            diag[i] = np.sqrt(4 * np.pi / (2 * l + 1)) * coeffs[j]
    return diag


_ISO_BASIS = sh.ShBasis(0)


def tissue_basis(basis, tissue):
    """The basis of a tissue's fODF: the full basis for wm, degree 0 otherwise."""
    return basis if tissue == "wm" else _ISO_BASIS


def rotation_to_z(direction) -> np.ndarray:
    """Rotation matrix taking `direction` onto the +z axis."""
    u = np.asarray(direction, dtype=np.float64)
    u = u / np.linalg.norm(u)
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(u, z)
    c = float(u @ z)
    if np.linalg.norm(v) < 1e-12:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    K = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + K + K @ K / (1 + c)


def tensor_signals(fibers, fiber_fractions, tissue_fractions, gradients: GradientTable,
                   tensor_params: TensorParams | None = None) -> np.ndarray:
    """Noiseless multi-tensor signals, (V, total_samples) in the table's column order.

    fibers is (V, 3, 3): each voxel's fiber directions in its first rows,
    then zero rows. fiber_fractions (V, 3) are the fibers' shares of the
    WM compartment, and tissue_fractions (V, 3) the wm/gm/csf fractions,
    which sum to 1. A voxel without fibers needs a WM fraction of 0.
    Voxels are grouped by fiber count, so each group's products are one
    stacked matmul that does each voxel's matrix products unchanged.
    """
    tensor_params = tensor_params or TensorParams()
    if np.any(tissue_fractions < -1e-12) or np.any(
            np.abs(tissue_fractions.sum(axis=1) - 1.0) > 1e-9):
        raise InvalidArgumentError("tissue fractions must be nonnegative and sum to 1")
    if np.any(fiber_fractions < -1e-12):
        raise InvalidArgumentError("fiber fractions must be nonnegative")
    counts = fibers.any(axis=2).sum(axis=1)
    if np.any((counts == 0) & (tissue_fractions[:, 0] != 0)):
        raise InvalidArgumentError("a voxel with a WM fraction needs 1 to 3 fibers")
    groups = []
    for k in (1, 2, 3):
        rows = np.flatnonzero(counts == k)
        if rows.size:
            dirs = fibers[rows, :k]
            # sqrt of a row's dot product with itself is its 1-D np.linalg.norm
            dirs = dirs / np.sqrt(np.vecdot(dirs, dirs))[..., None]
            groups.append((rows, dirs.transpose(0, 2, 1), fiber_fractions[rows, :k, None]))

    wm, gm, csf = (tissue_fractions[:, t, None] for t in range(3))
    lp, lt = tensor_params.lambda_parallel, tensor_params.lambda_perp
    out = np.empty((len(fibers), gradients.total_samples))
    for b in gradients.shells:
        wm_sig = np.zeros((len(fibers), gradients.n(b)))  # stays 0 where wm is 0
        for rows, dirs_t, fracs in groups:
            # g^T D g for an axially symmetric tensor
            proj = np.matmul(gradients.directions[b], dirs_t) ** 2
            adc = lt + (lp - lt) * proj
            wm_sig[rows] = np.matmul(np.exp(-b * adc), fracs)[..., 0]
        out[:, gradients.columns(b)] = (wm * wm_sig + gm * np.exp(-b * tensor_params.d_gm)
                                        + csf * np.exp(-b * tensor_params.d_csf))
    if gradients.b0_count > 0:
        out[:, gradients.columns(0)] = wm + gm + csf
    return out


def rician_noise(clean, sigma: float, seed, voxel_indices,
                 gradients: GradientTable) -> np.ndarray:
    """Magnitude-MR noise on (V, samples) signals: sqrt((s + e1)^2 + e2^2), e ~ N(0, sigma^2).

    Row v is voxel voxel_indices[v]. Its noise on each key b of the table
    is the normal(0, sigma, 2 n_b) draw, e1 then e2, of the stream
    [seed, 303, voxel, b], so it does not depend on the batch the voxel is
    in. Each stream writes sigma times its standard normals into one key's
    (V, 2, n_b) buffer, the same numbers as 0 + sigma z.
    """
    if sigma < 0:
        raise InvalidArgumentError("sigma must be nonnegative")
    if sigma == 0:
        return np.abs(clean)
    voxel_indices = np.asarray(voxel_indices)
    out = np.empty(clean.shape)
    for b in gradients.keys:
        cols = gradients.columns(b)
        noise = np.empty((len(voxel_indices), 2, cols.stop - cols.start))
        entropy = _stream_entropy(seed, _STREAM_NOISE, voxel_indices, int(b))
        for row, rng in zip(noise, _streams(entropy)):
            rng.standard_normal(out=row)
        noise *= sigma
        noise[:, 0] += clean[:, cols]
        np.square(noise, out=noise)
        np.sqrt(np.add(noise[:, 0], noise[:, 1], out=noise[:, 0]), out=out[:, cols])
    return out


def generate_gradients(n: int, seed) -> np.ndarray:
    """Electrostatic-repulsion scheme of n unit vectors (antipodal charges)."""
    rng = np.random.default_rng([int(seed), _STREAM_SCHEME, n])
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if n == 1:
        return pts
    upper = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    step = 0.1
    energy, pairs = _scheme_energy(pts, upper)
    force = _scheme_force(pts, *pairs)
    for _ in range(300):
        trial = pts + step * force / np.abs(force).max()
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        e2, pairs = _scheme_energy(trial, upper)
        if e2 < energy:
            pts, energy, step = trial, e2, step * 1.1
            force = _scheme_force(pts, *pairs)
        else:  # pts did not move, so neither did the force
            step *= 0.5
            if step < 1e-8:
                break
    return pts


def _scheme_energy(pts, upper):
    """Coulomb energy of the charges and their antipodes, and the pair arrays it used.

    Each pair array is (3, n, n), one (n, n) plane per component: entry
    [k, j, i] is component k of p_i - p_j (diff) or p_i + p_j (anti).
    `upper` holds the flat indices of the pairs i < j in row-major order.
    """
    c = pts.T.copy()
    diff = c[:, None, :] - c[:, :, None]
    anti = c[:, None, :] + c[:, :, None]
    d1 = _pair_norm(diff)
    d2 = _pair_norm(anti)
    energy = (1 / d1.take(upper)).sum() + (1 / d2.take(upper)).sum() + (1 / d2.diagonal()).sum()
    return energy, (diff, d1, anti, d2)


def _pair_norm(v):
    """Norms of (3, n, n) pair vectors, adding x*x + y*y + z*z left to right."""
    x, y, z = v
    s = x * x
    s += y * y
    s += z * z
    return np.sqrt(s, out=s)


def _scheme_force(pts, diff, d1, anti, d2):
    """The force on each charge, projected onto the sphere's tangent plane.

    Each component plane is summed over its rows j = 0, 1, ... in turn;
    the pair arrays are overwritten.
    """
    np.fill_diagonal(d1, np.inf)
    f = np.divide(diff, d1 ** 3, out=diff).sum(axis=1)
    f += np.divide(anti, d2 ** 3, out=anti).sum(axis=1)
    f = f.T
    f -= (f * pts).sum(axis=1, keepdims=True) * pts
    return f


@dataclass
class SimConfig:
    """Synthetic dataset settings: the config's "dataset" section."""

    shells: list[float]
    gradients_per_shell: int
    n_voxels: int
    split: tuple[int, ...]
    seed: int
    snr: float | None = 30.0
    tissues: int = 1
    b0_count: int = 1
    fiber_count_probs: tuple[float, ...] = (0.3, 0.5, 0.2)
    min_crossing_angle_deg: float = 20.0
    pure_voxel_prob: float = 0.06
    min_fiber_fraction: float = 0.2
    tensor: TensorParams = field(default_factory=TensorParams)

    def __post_init__(self):
        allowed_n = {8, 16, 32, 64, 128}
        allowed_b = {1000.0, 2000.0, 3000.0}
        if self.gradients_per_shell not in allowed_n:
            raise InvalidArgumentError(
                f"gradients_per_shell must be one of {sorted(allowed_n)}"
            )
        if not self.shells or not set(map(float, self.shells)) <= allowed_b:
            raise InvalidArgumentError(f"shells must be a nonempty subset of {sorted(allowed_b)}")
        if self.tissues not in (1, 3):
            raise InvalidArgumentError("tissues must be 1 or 3")
        if len(self.split) != 3 or min(self.split) < 0 or sum(self.split) != self.n_voxels:
            raise InvalidArgumentError(f"split {self.split} must be 3 nonnegative counts "
                                       f"summing to n_voxels={self.n_voxels}")
        # each check is written so that NaN fails it too
        if self.snr is not None and not self.snr >= 0:
            raise InvalidArgumentError(f"snr must be nonnegative or null, got {self.snr}")
        if self.b0_count < 0:
            raise InvalidArgumentError(f"b0_count must be nonnegative, got {self.b0_count}")
        if not 0 <= self.pure_voxel_prob <= 1:
            raise InvalidArgumentError(
                f"pure_voxel_prob must lie in [0, 1], got {self.pure_voxel_prob}")
        probs = self.fiber_count_probs
        if len(probs) != 3 or not all(p >= 0 for p in probs) or not abs(sum(probs) - 1) <= 1e-9:
            raise InvalidArgumentError(
                f"fiber_count_probs must be 3 nonnegative numbers summing to 1, got {list(probs)}")
        # the draws are redone until they pass these floors: the smallest of
        # k Dirichlet fractions is below 1/k, and two axes are at most 90
        # degrees apart, so a floor at or past those bounds is never met
        for k in (2, 3):
            if probs[k - 1] > 0 and not self.min_fiber_fraction < 1 / k:
                raise InvalidArgumentError(
                    f"min_fiber_fraction {self.min_fiber_fraction} can never be met by "
                    f"{k} fibers: it must be below 1/{k}")
        if (probs[1] > 0 or probs[2] > 0) and not self.min_crossing_angle_deg < 90:
            raise InvalidArgumentError(
                f"min_crossing_angle_deg {self.min_crossing_angle_deg} can never be met: "
                "it must be below 90 when crossings are drawn")


def build_gradient_table(config: SimConfig) -> GradientTable:
    """Every shell samples the same scheme, computed once."""
    scheme = generate_gradients(config.gradients_per_shell, config.seed)
    shells = [float(b) for b in config.shells]
    return GradientTable(shells, {b: scheme for b in shells}, b0_count=config.b0_count)


_PAIRS = {k: np.triu_indices(k, 1) for k in (2, 3)}


def _axis_angles_deg(dirs):
    dots = np.abs(dirs @ dirs.T)
    return np.degrees(np.arccos(np.clip(dots[_PAIRS[len(dirs)]], -1, 1)))


def _flat_dirichlet(rng, k) -> list:
    """dirichlet(ones(k)) from the same bits: k unit exponentials over their sum."""
    draws = rng.standard_exponential(k).tolist()
    acc = 0.0
    for x in draws:  # numpy sums left to right, then scales by the reciprocal
        acc += x
    inv = 1.0 / acc
    return [x * inv for x in draws]


def _draw_voxel(config: SimConfig, rng, fiber_cdf):
    """One voxel's fiber axes (array), fiber and tissue fractions (lists), and its redraws.

    fiber_cdf is the cumulative fiber-count probabilities over their sum.
    The draws are, in order and bit for bit, choice(3, p), standard normal
    axes and dirichlet(ones(k)) fractions until they pass their floors,
    then the tissue draw; redraws counts the axes and fractions rejected.
    """
    n_fib = 1 + bisect_right(fiber_cdf, rng.random())  # choice(3, p) searches side='right'
    redraws = 0
    while True:
        dirs = rng.standard_normal((n_fib, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if n_fib == 1 or _axis_angles_deg(dirs).min() >= config.min_crossing_angle_deg:
            break
        redraws += 1
    while True:
        fracs = _flat_dirichlet(rng, n_fib)
        if min(fracs) >= config.min_fiber_fraction or n_fib == 1:
            break
        redraws += 1
    if config.tissues == 1:
        tissue = [1.0, 0.0, 0.0]
    elif rng.random() < config.pure_voxel_prob:
        tissue = [0.0, 0.0, 0.0]
        tissue[rng.integers(0, 3)] = 1.0  # choice(3)
    else:
        tissue = _flat_dirichlet(rng, 3)
    return dirs, fracs, tissue, redraws


def generate_batch(config: SimConfig, gradients: GradientTable, voxel_indices) -> VoxelBatch:
    """Simulate the voxels with the given global indices (order-independent).

    Voxel v's fibers and tissue fractions are drawn from the stream
    [seed, 202, v] and its noise from [seed, 303, v, b] per key b; only
    the draws loop over voxels, the signals are computed for the batch.
    """
    voxel_indices = np.asarray(voxel_indices)
    n = len(voxel_indices)
    fibers = np.zeros((n, 3, 3))
    fiber_fracs = np.zeros((n, 3))
    tissue_fracs = np.zeros((n, 3))
    redraws = np.zeros(n, dtype=np.int64)
    cdf = np.asarray(config.fiber_count_probs, float).cumsum()
    fiber_cdf = (cdf / cdf[-1]).tolist()
    entropy = _stream_entropy(config.seed, _STREAM_VOXEL, voxel_indices)
    for row, rng in enumerate(_streams(entropy)):
        dirs, fracs, tissue, redraws[row] = _draw_voxel(config, rng, fiber_cdf)
        if tissue[0] != 0.0:  # without a WM compartment the fibers are not ground truth
            fibers[row, : len(dirs)] = dirs
            fiber_fracs[row, : len(dirs)] = fracs
        tissue_fracs[row] = tissue
    clean = tensor_signals(fibers, fiber_fracs, tissue_fracs, gradients, config.tensor)
    sigma = 0.0 if not config.snr else 1.0 / config.snr
    signals = rician_noise(clean, sigma, config.seed, voxel_indices, gradients)
    return VoxelBatch(signals, gradients, fibers, fiber_fracs, tissue_fracs, redraws)


def make_dataset(config: SimConfig) -> dict:
    """Simulate the train, val and test batches, keyed by split name."""
    gradients = build_gradient_table(config)
    offsets = np.cumsum([0, *config.split])
    return {name: generate_batch(config, gradients, np.arange(lo, hi))
            for name, lo, hi in zip(("train", "val", "test"), offsets[:-1], offsets[1:])}


@dataclass
class ResponseConfig:
    """Response estimation settings: the config's "response" section."""

    degree: int = 16  # WM response SH degree, lowered to what the shells can fit

    def __post_init__(self):
        # the degree is lowered in steps of 2, so an odd one never becomes valid
        if self.degree < 0 or self.degree % 2:
            raise InvalidArgumentError(
                f"degree must be even and nonnegative, got {self.degree}")


def estimate_response(batch: VoxelBatch, basis: sh.ShBasis) -> ResponseFunction:
    """WM response from single-fiber voxels with known fiber directions.

    Each voxel's gradients are rotated so its fiber lands on +z, the zonal
    (m=0) coefficients are fit per shell, and voxels are averaged.
    """
    if batch.fibers is None:
        raise InvalidArgumentError("response estimation needs ground-truth fibers")
    n_fib = batch.n_fibers()
    if np.any(n_fib != 1):
        raise InvalidArgumentError("response estimation expects single-fiber voxels")
    if batch.n_voxels < 10:
        raise InvalidArgumentError(
            f"need at least 10 single-fiber voxels, got {batch.n_voxels}"
        )
    degrees = np.arange(0, basis.l_max + 1, 2)
    rots = [rotation_to_z(fiber).T for fiber in batch.fibers[:, 0]]
    r = {}
    for b in batch.gradients.shells:
        samples = batch.shell(b)
        dirs = batch.gradients.directions[b]
        # one design over every voxel's rotated gradients, cut into
        # contiguous (degrees, n_b) blocks, one per voxel
        rotated = np.concatenate([dirs @ rot for rot in rots])
        Z = sh.zonal_design(degrees, rotated).reshape(len(degrees), batch.n_voxels, len(dirs))
        Z = np.ascontiguousarray(Z.transpose(1, 0, 2))
        acc = np.zeros(len(degrees))
        for v in range(batch.n_voxels):
            acc += np.linalg.solve(Z[v] @ Z[v].T, Z[v] @ samples[v])
        r[b] = acc / batch.n_voxels
    if batch.gradients.b0_count:
        r[0] = np.zeros(len(degrees))
        r[0][0] = np.sqrt(4 * np.pi) * float(np.mean(batch.shell(0)))
    return ResponseFunction("wm", r)


def isotropic_response(batch: VoxelBatch, tissue: str) -> ResponseFunction:
    """Degree-0 response of an isotropic compartment from pure voxels."""
    r = {}
    for b in batch.gradients.keys:
        r[b] = np.array([np.sqrt(4 * np.pi) * float(np.mean(batch.shell(b)))])
    return ResponseFunction(tissue, r)
