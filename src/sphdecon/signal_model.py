"""Forward signal model, response functions, and the synthetic generator.

Per shell b the signal is S^b = sum_t F_t R_t^b Y_t^b: fODF coefficients
times the diagonal deconvolution kernel times the basis at the gradient
directions. The synthetic generator draws multi-tensor voxels (1-3 axially
symmetric fiber tensors plus isotropic GM/CSF compartments) and corrupts
them with Rician noise.

A voxel's random draws come from numpy's counter-based Philox generator
(Salmon et al., SC'11), keyed by the seed. Each lane of a stream gives
every voxel the same number of words at its own counter blocks, so its
draws do not depend on the batch it is drawn in, and a run of voxels is
one random_raw call. Stream 202 holds the voxel parameters and stream 303
the noise; words become uniforms, Box-Muller normals and exponentials.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import harmonics as sh
from .errors import InvalidArgumentError

TISSUES = ("wm", "gm", "csf")

# stream tags: a seeded generator's entropy for the scheme, the Philox
# counter's third word for the voxel parameters and the noise
_STREAM_SCHEME = 101
_STREAM_VOXEL = 202
_STREAM_NOISE = 303
_CHUNK = 1024  # voxels simulated at once
# a gap between two voxels is drawn and dropped, rather than skipped with a
# new generator, when it is shorter than this many words (building a
# generator costs about as much as drawing 3,000)
_SKIP_WORDS = 4096


def _philox_words(seed, stream, lane, voxels, n) -> np.ndarray:
    """(V, n) uint64 words of one lane of a stream, row v from voxel voxels[v].

    Each voxel owns blocks = ceil(n / 4) of Philox's 4-word outputs: voxel
    v's words are the first n that Philox(key=seed, counter=[v blocks,
    lane, stream, 0]).random_raw draws. The voxels are drawn in ascending
    runs, one generator and one random_raw call each.
    """
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise InvalidArgumentError(f"the seed must lie in [0, 2**128), got {seed}")
    blocks = -(-n // 4)
    voxels = np.asarray(voxels, dtype=np.int64)
    order = np.argsort(voxels, kind="stable")
    ordered = voxels[order]
    out = np.empty((len(voxels), n), dtype=np.uint64)
    if not len(voxels):
        return out
    if ordered[0] < 0:
        raise InvalidArgumentError("voxel indices must be nonnegative")
    bounds = [0, *(np.flatnonzero(np.diff(ordered) * 4 * blocks > _SKIP_WORDS) + 1), len(voxels)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = ordered[lo:hi]
        first = int(run[0])
        gen = np.random.Philox(key=seed, counter=[first * blocks, lane, stream, 0])
        words = gen.random_raw((int(run[-1]) - first + 1) * 4 * blocks).reshape(-1, 4 * blocks)
        out[order[lo:hi]] = words[run - first, :n]
    return out


def _uniforms(seed, stream, lane, voxels, n) -> np.ndarray:
    """(V, n) uniforms in [0, 1): the top 53 bits of each of _philox_words' words."""
    words = _philox_words(seed, stream, lane, voxels, n)
    return np.right_shift(words, 11, out=words) * 2.0**-53


def _box_muller(u) -> np.ndarray:
    """Standard normals from (V, 2m) uniforms, in place: radii from the first m, angles from the last m.

    Row v becomes the m cosine normals, then the m sine normals.
    """
    m = u.shape[1] // 2
    r, theta = u[:, :m], u[:, m:]
    np.sqrt(np.multiply(-2.0, np.log1p(np.negative(r, out=r), out=r), out=r), out=r)
    np.multiply(2 * np.pi, theta, out=theta)
    cos = np.cos(theta)
    np.multiply(r, np.sin(theta, out=theta), out=theta)
    np.multiply(r, cos, out=r)
    return u


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


def rician_noise(clean, sigma: float, seed, voxel_indices, out=None) -> np.ndarray:
    """Magnitude-MR noise on (V, samples) signals: sqrt((s + e1)^2 + e2^2), e ~ N(0, sigma^2).

    Row v is voxel voxel_indices[v]. Its e1 and e2 are sigma times the
    cosine and sine normals that _box_muller makes of the 2 x samples
    uniforms of lane 0 of stream 303, so they do not depend on the batch
    the voxel is in. The result is written to `out` when it is given.
    """
    if sigma < 0:
        raise InvalidArgumentError("sigma must be nonnegative")
    if sigma == 0:
        return np.abs(clean, out=out)
    n = clean.shape[1]
    noise = _box_muller(_uniforms(seed, _STREAM_NOISE, 0, voxel_indices, 2 * n))
    noise *= sigma
    noise[:, :n] += clean
    np.square(noise, out=noise)
    return np.sqrt(np.add(noise[:, :n], noise[:, n:], out=noise[:, :n]), out=out)


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


_PAIRS = (np.array([0, 0, 1]), np.array([1, 2, 2]))  # the axis pairs (i, j), i < j


def _draw_voxels(config: SimConfig, voxels):
    """Fiber axes (V, 3, 3), fiber and tissue fractions (V, 3) and redraws (V,) of the voxels.

    Lane 0 of stream 202 holds a voxel's fiber count, pure-voxel flag,
    tissue choice and tissue Dirichlet. Attempt r reads lane 1 + 2r for the
    axes, 3 standard normal rows of which the first n_fib count, and lane
    2 + 2r for the fractions, n_fib unit exponentials over their sum. Each
    round draws one attempt for the voxels whose axes or fractions have not
    yet passed their floors; redraws counts the attempts rejected.
    """
    seed, n = config.seed, len(voxels)
    u = _uniforms(seed, _STREAM_VOXEL, 0, voxels, 6)
    cdf = np.cumsum(config.fiber_count_probs)
    n_fib = 1 + np.searchsorted(cdf / cdf[-1], u[:, 0], side="right")
    if config.tissues == 1:
        tissue = np.tile([1.0, 0.0, 0.0], (n, 1))
    else:
        e = -np.log1p(-u[:, 3:])
        tissue = e / (e[:, 0] + e[:, 1] + e[:, 2])[:, None]
        pure = u[:, 1] < config.pure_voxel_prob
        tissue[pure] = np.eye(3)[(3 * u[pure, 2]).astype(np.int64)]
    owned = np.arange(3) < n_fib[:, None]  # each voxel's fiber slots
    fibers = np.zeros((n, 3, 3))
    fractions = np.zeros((n, 3))
    redraws = np.zeros(n, dtype=np.int64)
    axes_left = fractions_left = np.arange(n)
    lane = 1
    while axes_left.size or fractions_left.size:
        if axes_left.size:
            rows = axes_left
            dirs = _box_muller(_uniforms(seed, _STREAM_VOXEL, lane, voxels[rows], 10))
            dirs = dirs[:, :9].reshape(-1, 3, 3)
            dirs /= np.sqrt(np.vecdot(dirs, dirs))[..., None]
            dirs *= owned[rows, :, None]
            i, j = _PAIRS
            dots = np.abs(np.vecdot(dirs[:, i], dirs[:, j]))
            angles = np.degrees(np.arccos(np.clip(dots, -1, 1)))
            ok = np.all((angles >= config.min_crossing_angle_deg)
                        | (j >= n_fib[rows, None]), axis=1)
            fibers[rows[ok]] = dirs[ok]
            axes_left = rows[~ok]
        if fractions_left.size:
            rows = fractions_left
            e = -np.log1p(-_uniforms(seed, _STREAM_VOXEL, lane + 1, voxels[rows], 3))
            e = np.where(owned[rows], e, 0.0)
            f = e / (e[:, 0] + e[:, 1] + e[:, 2])[:, None]
            ok = (n_fib[rows] == 1) | (np.where(owned[rows], f, 1.0).min(axis=1)
                                       >= config.min_fiber_fraction)
            fractions[rows[ok]] = f[ok]
            fractions_left = rows[~ok]
        redraws[axes_left] += 1
        redraws[fractions_left] += 1
        lane += 2
    no_wm = tissue[:, 0] == 0.0  # without a WM compartment the fibers are not ground truth
    fibers[no_wm] = 0.0
    fractions[no_wm] = 0.0
    return fibers, fractions, tissue, redraws


def generate_batch(config: SimConfig, gradients: GradientTable, voxel_indices) -> VoxelBatch:
    """Simulate the voxels with the given global indices (order-independent).

    Voxel v's parameters come from stream 202 (_draw_voxels) and its noise
    from stream 303 (rician_noise), at v's own counter blocks. The batch is
    simulated _CHUNK voxels at a time, each chunk's noisy signals written
    into the batch's one (V, samples) array.
    """
    voxel_indices = np.asarray(voxel_indices, dtype=np.int64)
    n = len(voxel_indices)
    signals = np.empty((n, gradients.total_samples))
    fibers = np.empty((n, 3, 3))
    fiber_fracs = np.empty((n, 3))
    tissue_fracs = np.empty((n, 3))
    redraws = np.empty(n, dtype=np.int64)
    sigma = 0.0 if not config.snr else 1.0 / config.snr
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        voxels = voxel_indices[rows]
        fibers[rows], fiber_fracs[rows], tissue_fracs[rows], redraws[rows] = _draw_voxels(
            config, voxels)
        clean = tensor_signals(fibers[rows], fiber_fracs[rows], tissue_fracs[rows], gradients,
                               config.tensor)
        rician_noise(clean, sigma, config.seed, voxels, out=signals[rows])
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
