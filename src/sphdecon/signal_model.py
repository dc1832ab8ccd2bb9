"""Forward signal model, response functions, and the synthetic generator.

Per shell b the signal is S^b = sum_t F_t R_t^b Y_t^b: fODF coefficients
times the diagonal deconvolution kernel times the basis at the gradient
directions. The synthetic generator draws multi-tensor voxels (1-3 axially
symmetric fiber tensors plus isotropic GM/CSF compartments) and corrupts
them with Rician noise.

All randomness is drawn from named substreams of a single seed so that
results are independent of evaluation order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import harmonics as sh
from .errors import InvalidArgumentError

TISSUES = ("wm", "gm", "csf")

# substream tags for seeded generators
_STREAM_SCHEME = 101
_STREAM_VOXEL = 202
_STREAM_NOISE = 303


@dataclass
class GradientTable:
    """Acquisition geometry: per-shell unit directions plus b=0 count."""

    shells: list
    directions: dict
    b0_count: int = 0

    def __post_init__(self):
        if not self.shells and self.b0_count == 0:
            raise InvalidArgumentError("gradient table needs at least one shell")
        for b in self.shells:
            if b < 0:
                raise InvalidArgumentError(f"negative b-value {b}")
            d = np.asarray(self.directions[b], dtype=np.float64)
            if np.any(np.abs(np.linalg.norm(d, axis=1) - 1) > 1e-6):
                raise InvalidArgumentError(f"shell {b} directions are not unit vectors")
            self.directions[b] = d

    def n(self, b):
        return self.directions[b].shape[0]

    @property
    def total_samples(self):
        return self.b0_count + sum(self.n(b) for b in self.shells)


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
        if self.tissue in ("gm", "csf"):
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


@dataclass
class VoxelBatch:
    """Sampled signals per shell, with optional ground truth."""

    signals: dict  # b -> (V, n_b); key 0 holds b=0 samples
    gradients: GradientTable
    fibers: np.ndarray | None = None  # (V, 3, 3) unit rows, zero-padded
    fiber_fractions: np.ndarray | None = None  # (V, 3), zero-padded
    tissue_fractions: np.ndarray | None = None  # (V, 3) wm/gm/csf

    def __post_init__(self):
        rows = {v.shape[0] for v in self.signals.values()}
        if len(rows) > 1:
            raise InvalidArgumentError(f"inconsistent voxel counts across shells: {rows}")
        if self.tissue_fractions is not None:
            sums = self.tissue_fractions.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise InvalidArgumentError("tissue fractions must sum to 1")

    @property
    def n_voxels(self):
        return next(iter(self.signals.values())).shape[0]

    def n_fibers(self):
        return (np.linalg.norm(self.fibers, axis=2) > 0.5).sum(axis=1)

    def subset(self, idx):
        return VoxelBatch(
            {b: v[idx] for b, v in self.signals.items()},
            self.gradients,
            None if self.fibers is None else self.fibers[idx],
            None if self.fiber_fractions is None else self.fiber_fractions[idx],
            None if self.tissue_fractions is None else self.tissue_fractions[idx],
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


def _tissue_basis(basis, tissue):
    return basis if tissue == "wm" else _ISO_BASIS


def forward(F: dict, rfs: dict, basis: sh.ShBasis, gradients: GradientTable) -> dict:
    """Predict per-shell signals from fODF coefficients.

    F maps tissue name to a (V, L_t) coefficient matrix (L_t = basis.L for
    wm, 1 for gm/csf). Returns {b: (V, n_b)} including b=0 when present.
    """
    n_vox = None
    for t, coeffs in F.items():
        lt = _tissue_basis(basis, t).L
        if coeffs.ndim != 2 or coeffs.shape[1] != lt:
            raise InvalidArgumentError(
                f"fODF for {t} has shape {coeffs.shape}, expected (V, {lt})"
            )
        if n_vox is None:
            n_vox = coeffs.shape[0]
        elif coeffs.shape[0] != n_vox:
            raise InvalidArgumentError("tissue fODF matrices disagree on voxel count")

    out = {}
    for b in gradients.shells:
        acc = np.zeros((n_vox, gradients.n(b)))
        for t, coeffs in F.items():
            tb = _tissue_basis(basis, t)
            Y = sh.design_matrix(tb, gradients.directions[b]).Y
            acc += (coeffs * rf_diagonal(rfs[t], tb, b)) @ Y
        out[b] = acc
    if gradients.b0_count > 0:
        col = np.zeros((n_vox, 1))
        for t, coeffs in F.items():
            tb = _tissue_basis(basis, t)
            d0 = rf_diagonal(rfs[t], tb, 0)[0]
            col += coeffs[:, :1] * (d0 / np.sqrt(4 * np.pi))
        out[0] = np.repeat(col, gradients.b0_count, axis=1)
    return out


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


def simulate_voxel(fibers, tissue_fractions, gradients: GradientTable,
                   tensor_params: TensorParams | None = None) -> dict:
    """Noiseless multi-tensor signals for one voxel.

    fibers is a list of (direction, fraction) with fractions summing to 1
    inside the WM compartment; tissue_fractions is (wm, gm, csf) summing
    to 1. Returns {b: samples} including b=0 when the table has it.
    """
    tensor_params = tensor_params or TensorParams()
    wm, gm, csf = tissue_fractions
    if min(wm, gm, csf) < -1e-12 or abs(wm + gm + csf - 1.0) > 1e-9:
        raise InvalidArgumentError("tissue fractions must be nonnegative and sum to 1")
    if not 1 <= len(fibers) <= 3:
        raise InvalidArgumentError(f"voxel must have 1..3 fibers, got {len(fibers)}")
    dirs = np.array([np.asarray(d, float) / np.linalg.norm(d) for d, _ in fibers])
    fracs = np.array([f for _, f in fibers], dtype=np.float64)
    if np.any(fracs < -1e-12):
        raise InvalidArgumentError("fiber fractions must be nonnegative")

    lp, lt = tensor_params.lambda_parallel, tensor_params.lambda_perp
    out = {}
    for b in gradients.shells:
        g = gradients.directions[b]
        # g^T D g for an axially symmetric tensor
        proj = (g @ dirs.T) ** 2
        adc = lt + (lp - lt) * proj
        wm_sig = np.exp(-b * adc) @ fracs
        out[b] = wm * wm_sig + gm * np.exp(-b * tensor_params.d_gm) + csf * np.exp(
            -b * tensor_params.d_csf
        )
    if gradients.b0_count > 0:
        out[0] = np.full(gradients.b0_count, wm + gm + csf)
    return out


def add_rician_noise(samples, sigma: float, rng_seed) -> np.ndarray:
    """Magnitude-MR noise: sqrt((s + e1)^2 + e2^2), e ~ N(0, sigma^2)."""
    samples = np.asarray(samples, dtype=np.float64)
    if sigma < 0:
        raise InvalidArgumentError("sigma must be nonnegative")
    if sigma == 0:
        return np.abs(samples)
    rng = np.random.default_rng(rng_seed)
    e1 = rng.normal(0.0, sigma, samples.shape)
    e2 = rng.normal(0.0, sigma, samples.shape)
    return np.sqrt((samples + e1) ** 2 + e2**2)


def generate_gradients(n: int, seed, iterations: int = 300) -> np.ndarray:
    """Electrostatic-repulsion scheme of n unit vectors (antipodal charges)."""
    rng = np.random.default_rng([int(seed), _STREAM_SCHEME, n])
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if n == 1:
        return pts
    step = 0.1
    energy = _scheme_energy(pts)
    for _ in range(iterations):
        force = _scheme_force(pts)
        # project onto the tangent space and take a trial step
        force -= (force * pts).sum(axis=1, keepdims=True) * pts
        trial = pts + step * force / np.abs(force).max()
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        e2 = _scheme_energy(trial)
        if e2 < energy:
            pts, energy, step = trial, e2, step * 1.1
        else:
            step *= 0.5
            if step < 1e-8:
                break
    return pts


def _scheme_energy(pts):
    d1 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d2 = np.linalg.norm(pts[:, None] + pts[None, :], axis=2)
    iu = np.triu_indices(len(pts), 1)
    return (1 / d1[iu]).sum() + (1 / d2[iu]).sum() + (1 / d2.diagonal()).sum()


def _scheme_force(pts):
    diff = pts[:, None] - pts[None, :]
    d1 = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(d1, np.inf)
    f = (diff / d1[:, :, None] ** 3).sum(axis=1)
    anti = pts[:, None] + pts[None, :]
    d2 = np.linalg.norm(anti, axis=2)
    f += (anti / d2[:, :, None] ** 3).sum(axis=1)
    return f


@dataclass
class SimConfig:
    """Synthetic dataset settings (see io_cli for the file schema)."""

    shells: list
    gradients_per_shell: int
    n_voxels: int
    split: tuple
    seed: int
    snr: float | None = 30.0
    tissues: int = 1
    b0_count: int = 1
    fiber_count_probs: tuple = (0.3, 0.5, 0.2)
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
        if len(self.split) != 3 or sum(self.split) != self.n_voxels:
            raise InvalidArgumentError(
                f"split {self.split} must be 3 counts summing to n_voxels={self.n_voxels}"
            )
        if abs(sum(self.fiber_count_probs) - 1.0) > 1e-9:
            raise InvalidArgumentError("fiber_count_probs must sum to 1")


def build_gradient_table(config: SimConfig) -> GradientTable:
    dirs = {
        float(b): generate_gradients(config.gradients_per_shell, config.seed)
        for b in config.shells
    }
    return GradientTable(sorted(dirs), dirs, b0_count=config.b0_count)


def _axis_angles_deg(dirs):
    dots = np.abs(dirs @ dirs.T)
    iu = np.triu_indices(len(dirs), 1)
    return np.degrees(np.arccos(np.clip(dots[iu], -1, 1)))


def _draw_voxel(config: SimConfig, rng):
    n_fib = 1 + rng.choice(3, p=np.asarray(config.fiber_count_probs, float))
    while True:
        dirs = rng.standard_normal((n_fib, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if n_fib == 1 or _axis_angles_deg(dirs).min() >= config.min_crossing_angle_deg:
            break
    while True:
        fracs = rng.dirichlet(np.ones(n_fib))
        if fracs.min() >= config.min_fiber_fraction or n_fib == 1:
            break
    if config.tissues == 1:
        tissue = np.array([1.0, 0.0, 0.0])
    elif rng.random() < config.pure_voxel_prob:
        tissue = np.zeros(3)
        tissue[rng.choice(3)] = 1.0
    else:
        tissue = rng.dirichlet(np.ones(3))
    return dirs, fracs, tissue


def generate_batch(config: SimConfig, gradients: GradientTable, voxel_indices) -> VoxelBatch:
    """Simulate the voxels with the given global indices (order-independent)."""
    voxel_indices = np.asarray(voxel_indices)
    n = len(voxel_indices)
    fibers = np.zeros((n, 3, 3))
    fiber_fracs = np.zeros((n, 3))
    tissue_fracs = np.zeros((n, 3))
    signals = {b: np.zeros((n, gradients.n(b))) for b in gradients.shells}
    if gradients.b0_count:
        signals[0] = np.zeros((n, gradients.b0_count))
    sigma = 0.0 if not config.snr else 1.0 / config.snr
    for row, vox in enumerate(voxel_indices):
        rng = np.random.default_rng([config.seed, _STREAM_VOXEL, int(vox)])
        dirs, fracs, tissue = _draw_voxel(config, rng)
        k = len(dirs)
        if tissue[0] == 0.0:
            # no WM compartment: keep fibers out of the ground truth
            k = 0
        fibers[row, :k] = dirs[:k]
        fiber_fracs[row, :k] = fracs[:k]
        tissue_fracs[row] = tissue
        clean = simulate_voxel(
            list(zip(dirs, fracs)), tissue, gradients, config.tensor
        )
        for b, s in clean.items():
            signals[b][row] = add_rician_noise(
                s, sigma, [config.seed, _STREAM_NOISE, int(vox), int(b)]
            )
    return VoxelBatch(signals, gradients, fibers, fiber_fracs, tissue_fracs)


def make_dataset(config: SimConfig, out_dir) -> dict:
    """Simulate and write train/val/test dataset files; returns a manifest."""
    from . import io_cli  # file formats live with the CLI

    gradients = build_gradient_table(config)
    names = ("train", "val", "test")
    offsets = np.cumsum([0, *config.split])
    manifest = {"seed": config.seed, "files": {}}
    for name, lo, hi in zip(names, offsets[:-1], offsets[1:]):
        batch = generate_batch(config, gradients, np.arange(lo, hi))
        path = io_cli.dataset_path(out_dir, name)
        io_cli.write_dataset(path, batch, seed=config.seed)
        manifest["files"][name] = {"path": str(path), "n_voxels": int(hi - lo)}
    return manifest


def estimate_response(batch: VoxelBatch, basis: sh.ShBasis,
                      tikhonov: float = 0.0) -> ResponseFunction:
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
    r = {}
    for b in batch.gradients.shells:
        acc = np.zeros(len(degrees))
        for v in range(batch.n_voxels):
            rot = rotation_to_z(batch.fibers[v, 0])
            rotated = batch.gradients.directions[b] @ rot.T
            acc += _zonal_fit(batch.signals[b][v], rotated, degrees, tikhonov)
        r[b] = acc / batch.n_voxels
    if batch.gradients.b0_count:
        r[0] = np.zeros(len(degrees))
        r[0][0] = np.sqrt(4 * np.pi) * float(np.mean(batch.signals[0]))
    return ResponseFunction("wm", r)


def isotropic_response(batch: VoxelBatch, tissue: str) -> ResponseFunction:
    """Degree-0 response of an isotropic compartment from pure voxels."""
    r = {}
    for b, s in batch.signals.items():
        r[b] = np.array([np.sqrt(4 * np.pi) * float(np.mean(s))])
    return ResponseFunction(tissue, r)


def _zonal_fit(samples, points, degrees, tikhonov):
    Z = sh.zonal_design(degrees, points)
    gram = Z @ Z.T + tikhonov * np.eye(len(degrees))
    return np.linalg.solve(gram, Z @ samples)
