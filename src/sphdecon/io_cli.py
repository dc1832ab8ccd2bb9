"""File formats, configuration schema, and the command-line interface.

All binary files share one container: magic "SDV1", a version field, a
JSON text header, then 32-byte-aligned little-endian float64 payload
blocks. Writers are deterministic (sorted keys, no timestamps), so
identical inputs and seeds produce byte-identical files.

Exit codes: 0 ok, 1 I/O failure, 2 config/validation failure,
3 numerical failure. Errors print one line: "error: <kind>: <message>".
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import classical_csd as ccsd
from . import esd_net as en
from . import harmonics as sh
from . import peaks_metrics as pm
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import (
    IllConditionedError,
    InternalConsistencyError,
    InvalidArgumentError,
    NumericalError,
)

MAGIC = b"SDV1"
VERSION = 1
_ALIGN = 32


class FormatError(Exception):
    """A file does not conform to the container format."""


class ConfigError(Exception):
    """A configuration document is malformed; message names the key."""


# ---------------------------------------------------------------------------
# container


def _pad(n):
    return (-n) % _ALIGN


def write_container(path, header: dict, blocks: list):
    """Write header JSON plus named float64 blocks, 32-byte aligned."""
    head = dict(header)
    head["blocks"] = [[name, list(arr.shape)] for name, arr in blocks]
    payload = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint32(len(payload)).tobytes())
        fh.write(payload)
        fh.write(b" " * _pad(12 + len(payload)))
        for _, arr in blocks:
            data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            fh.write(data)
            fh.write(b"\0" * _pad(len(data)))


def read_container(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version = int(np.frombuffer(raw, "<u4", count=1, offset=4)[0])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    hlen = int(np.frombuffer(raw, "<u4", count=1, offset=8)[0])
    header = json.loads(raw[12 : 12 + hlen].decode())
    offset = 12 + hlen + _pad(12 + hlen)
    blocks = {}
    for name, shape in header.pop("blocks"):
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, "<f8", count=count, offset=offset).reshape(shape)
        blocks[name] = arr.copy()
        nbytes = count * 8
        offset += nbytes + _pad(nbytes)
    return header, blocks


# ---------------------------------------------------------------------------
# dataset files


def dataset_path(out_dir, name):
    return os.path.join(out_dir, f"{name}.sdv")


def write_dataset(path, batch: sm.VoxelBatch, seed=None):
    table = batch.gradients
    shells = sorted(table.shells)
    header = {
        "kind": "dataset",
        "voxel_count": batch.n_voxels,
        "shells": [float(b) for b in shells],
        "directions": {str(float(b)): table.directions[b].tolist() for b in shells},
        "b0_count": table.b0_count,
        "seed": seed,
        "has_ground_truth": batch.fibers is not None,
    }
    cols = []
    if table.b0_count:
        cols.append(batch.signals[0])
    cols.extend(batch.signals[b] for b in shells)
    blocks = [("signals", np.hstack(cols))]
    if batch.fibers is not None:
        blocks += [
            ("fibers", batch.fibers),
            ("fiber_fractions", batch.fiber_fractions),
            ("tissue_fractions", batch.tissue_fractions),
        ]
    write_container(path, header, blocks)


def read_dataset(path) -> sm.VoxelBatch:
    header, blocks = read_container(path)
    if header.get("kind") != "dataset":
        raise FormatError(f"{path}: not a dataset file")
    shells = [float(b) for b in header["shells"]]
    directions = {b: np.array(header["directions"][str(b)]) for b in shells}
    table = sm.GradientTable(shells, directions, b0_count=header["b0_count"])
    sig = blocks["signals"]
    expected = table.total_samples
    if sig.shape != (header["voxel_count"], expected):
        raise FormatError(
            f"{path}: payload shape {sig.shape} does not match "
            f"(V={header['voxel_count']}, samples={expected})"
        )
    signals = {}
    at = 0
    if table.b0_count:
        signals[0] = sig[:, : table.b0_count]
        at = table.b0_count
    for b in shells:
        signals[b] = sig[:, at : at + table.n(b)]
        at += table.n(b)
    return sm.VoxelBatch(
        signals,
        table,
        blocks.get("fibers"),
        blocks.get("fiber_fractions"),
        blocks.get("tissue_fractions"),
    )


# ---------------------------------------------------------------------------
# FSL-style gradient table text pair (bvals: one line; bvecs: x/y/z lines)

_B0_THRESHOLD = 50.0


def read_fsl_gradients(bvals_path, bvecs_path) -> sm.GradientTable:
    bvals = np.loadtxt(bvals_path, ndmin=1)
    bvecs = np.loadtxt(bvecs_path, ndmin=2)
    if bvecs.shape[0] != 3:
        raise FormatError(f"{bvecs_path}: expected 3 rows (x, y, z components)")
    if bvecs.shape[1] != bvals.size:
        raise FormatError(
            f"gradient files disagree: {bvals.size} b-values vs {bvecs.shape[1]} columns"
        )
    is_b0 = bvals < _B0_THRESHOLD
    directions = {}
    for b in sorted(set(np.round(bvals[~is_b0], 6))):
        cols = bvecs[:, np.abs(bvals - b) < 1e-6].T
        directions[float(b)] = cols / np.linalg.norm(cols, axis=1, keepdims=True)
    return sm.GradientTable(sorted(directions), directions, int(is_b0.sum()))


def write_fsl_gradients(table: sm.GradientTable, bvals_path, bvecs_path):
    bvals = [0.0] * table.b0_count
    cols = [np.zeros((table.b0_count, 3))] if table.b0_count else []
    for b in sorted(table.shells):
        bvals.extend([float(b)] * table.n(b))
        cols.append(table.directions[b])
    vecs = np.vstack(cols) if cols else np.zeros((0, 3))
    with open(bvals_path, "w") as fh:
        fh.write(" ".join(repr(float(v)) for v in bvals) + "\n")
    with open(bvecs_path, "w") as fh:
        for axis in range(3):
            fh.write(" ".join(repr(float(v)) for v in vecs[:, axis]) + "\n")


# ---------------------------------------------------------------------------
# response, fODF, peaks, checkpoint files


def write_response(path, rfs: dict):
    tissues = [t for t in sm.TISSUES if t in rfs]
    shells = sorted(next(iter(rfs.values())).r)
    blocks = []
    for t in tissues:
        rf = rfs[t]
        width = max(len(rf.r[b]) for b in shells)
        mat = np.zeros((len(shells), width))
        for i, b in enumerate(shells):
            mat[i, : len(rf.r[b])] = rf.r[b]
        blocks.append((t, mat))
    write_container(
        path,
        {"kind": "response", "tissues": tissues, "shells": [float(b) for b in shells]},
        blocks,
    )


def read_response(path) -> dict:
    header, blocks = read_container(path)
    if header.get("kind") != "response":
        raise FormatError(f"{path}: not a response file")
    shells = [float(b) for b in header["shells"]]
    out = {}
    for t in header["tissues"]:
        mat = blocks[t]
        width = 1 if t in ("gm", "csf") else mat.shape[1]
        out[t] = sm.ResponseFunction(
            t, {b: mat[i, :width] for i, b in enumerate(shells)}
        )
    return out


def write_fodf(path, field: ccsd.FodfField):
    header = {
        "kind": "fodf",
        "tissues": field.tissues,
        "degree": field.basis.l_max,
        "voxel_count": field.n_voxels,
    }
    blocks = [(t, field.coeffs[t]) for t in field.tissues]
    blocks.append(("converged", field.converged.astype(np.float64)))
    write_container(path, header, blocks)


def read_fodf(path) -> ccsd.FodfField:
    header, blocks = read_container(path)
    if header.get("kind") != "fodf":
        raise FormatError(f"{path}: not an fODF file")
    coeffs = {t: blocks[t] for t in header["tissues"]}
    return ccsd.FodfField(
        coeffs, sh.ShBasis(header["degree"]), blocks["converged"] > 0.5
    )


def write_peaks(path, peak_sets: list):
    k = max((len(p) for p in peak_sets), default=0)
    arr = np.zeros((len(peak_sets), max(k, 1), 4))
    for v, p in enumerate(peak_sets):
        if len(p):
            arr[v, : len(p), :3] = p.directions
            arr[v, : len(p), 3] = p.amplitudes
    write_container(
        path, {"kind": "peaks", "voxel_count": len(peak_sets)}, [("peaks", arr)]
    )


def read_peaks(path) -> list:
    header, blocks = read_container(path)
    if header.get("kind") != "peaks":
        raise FormatError(f"{path}: not a peaks file")
    arr = blocks["peaks"]
    out = []
    for v in range(arr.shape[0]):
        amps = arr[v, :, 3]
        keep = amps > 0
        out.append(pm.PeakSet(arr[v, keep, :3], amps[keep]))
    return out


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_checkpoint(path, model: en.EsdModel, result: en.TrainResult, config: dict):
    names = sorted(model.params)
    bn_names = sorted(model.bn)
    header = {
        "kind": "checkpoint",
        "config": config,
        "config_hash": config_hash(config),
        "epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "in_channels": model.in_channels,
        "shells": model.shells,
        "param_names": names,
        "bn_names": bn_names,
        "adam_step": result.adam.step if result.adam else 0,
    }
    blocks = [(f"param/{n}", model.params[n].values) for n in names]
    for n in bn_names:
        blocks.append((f"bn_mean/{n}", model.bn[n].running_mean))
        blocks.append((f"bn_var/{n}", model.bn[n].running_var))
    if result.adam is not None:
        params = model.parameters()
        order = {id(p): i for i, p in enumerate(params)}
        for n in names:
            i = order[id(model.params[n])]
            blocks.append((f"adam_m/{n}", result.adam.m[i]))
            blocks.append((f"adam_v/{n}", result.adam.v[i]))
    write_container(path, header, blocks)


def read_checkpoint(path):
    header, blocks = read_container(path)
    if header.get("kind") != "checkpoint":
        raise FormatError(f"{path}: not a checkpoint file")
    config = header["config"]
    model = en.build_model(_model_config(config), header["in_channels"])
    model.shells = header["shells"]
    for n in header["param_names"]:
        model.params[n].values[...] = blocks[f"param/{n}"]
    for n in header["bn_names"]:
        model.bn[n].running_mean[...] = blocks[f"bn_mean/{n}"]
        model.bn[n].running_var[...] = blocks[f"bn_var/{n}"]
    return model, header


# ---------------------------------------------------------------------------
# configuration schema


_TENSOR_SCHEMA = {
    "lambda_parallel": float,
    "lambda_perp": float,
    "d_gm": float,
    "d_csf": float,
}
_SCHEMA = {
    "seed": int,
    "dataset": {
        "shells": list,
        "gradients_per_shell": int,
        "n_voxels": int,
        "split": list,
        "snr": float,
        "tissues": int,
        "b0_count": int,
        "fiber_count_probs": list,
        "min_crossing_angle_deg": float,
        "pure_voxel_prob": float,
        "min_fiber_fraction": float,
        "tensor": _TENSOR_SCHEMA,
    },
    "model": {
        "nside_in": int,
        "depth": int,
        "channels": list,
        "poly_order": int,
        "tissues": int,
        "fodf_degree": int,
        "lambda_sparsity": float,
        "sigma_cauchy": float,
        "lambda_nonneg": float,
        "batch_size": int,
        "lr": float,
        "plateau_factor": float,
        "plateau_patience": int,
        "max_epochs": int,
        "use_csd_input": bool,
    },
    "csd": {
        "lambda_sparsity": float,
        "nonneg_threshold": float,
        "max_iters": int,
        "tol": float,
        "constraint_grid_nside": int,
        "wm_degree": int,
        "ridge": float,
    },
    "peaks": {
        "grid_nside": int,
        "rel_threshold": float,
        "min_separation_deg": float,
    },
    "response": {"degree": int},
}


def validate_config(config, schema=None, prefix=""):
    """Schema-check a nested config dict; unknown keys are rejected."""
    schema = _SCHEMA if schema is None else schema
    if not isinstance(config, dict):
        raise ConfigError(f"config section '{prefix or '<root>'}' must be an object")
    for key, value in config.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key '{path}'")
        expected = schema[key]
        if isinstance(expected, dict):
            validate_config(value, expected, prefix=f"{path}.")
        elif expected is float:
            if value is not None and not isinstance(value, (int, float)):
                raise ConfigError(f"config key '{path}' must be a number")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"config key '{path}' must be an integer")
        elif expected is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"config key '{path}' must be a boolean")
        elif expected is list:
            if not isinstance(value, list):
                raise ConfigError(f"config key '{path}' must be a list")
    return config


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    return validate_config(raw)


def _require(config, section, keys):
    sub = config.get(section)
    if sub is None:
        raise ConfigError(f"missing config section '{section}'")
    for key in keys:
        if key not in sub:
            raise ConfigError(f"missing config key '{section}.{key}'")
    return sub


def sim_config(config: dict) -> sm.SimConfig:
    d = dict(_require(config, "dataset", ("shells", "gradients_per_shell", "n_voxels", "split")))
    tensor = sm.TensorParams(**d.pop("tensor", {}))
    return sm.SimConfig(
        seed=config.get("seed", 0),
        tensor=tensor,
        split=tuple(d.pop("split")),
        **d,
    )


def _model_config(config: dict) -> en.EsdConfig:
    kwargs = dict(config.get("model", {}))
    if "channels" in kwargs:
        kwargs["channels"] = tuple(kwargs["channels"])
    return en.EsdConfig(seed=config.get("seed", 0), **kwargs)


def _csd_config(config: dict) -> ccsd.CsdConfig:
    return ccsd.CsdConfig(**config.get("csd", {}))


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args):
    config = load_config(args.config)
    sc = sim_config(config)
    os.makedirs(args.out, exist_ok=True)
    manifest = sm.make_dataset(sc, args.out)
    print(json.dumps(manifest, sort_keys=True))
    return 0


def cmd_response(args):
    config = load_config(args.config) if args.config else {}
    batch = read_dataset(args.dataset)
    if batch.fibers is None:
        raise InvalidArgumentError("response estimation needs ground truth")
    signals, _ = en.b0_normalize(batch)
    normalized = sm.VoxelBatch(
        signals, batch.gradients, batch.fibers, batch.fiber_fractions,
        batch.tissue_fractions,
    )
    degree = config.get("response", {}).get("degree", 16)
    n_grad = min(batch.gradients.n(b) for b in batch.gradients.shells)
    while degree // 2 + 1 > 0.8 * n_grad:
        degree -= 2
    nf = normalized.n_fibers()
    wm_sel = (nf == 1) & (normalized.tissue_fractions[:, 0] > 0.999)
    rfs = {"wm": sm.estimate_response(normalized.subset(wm_sel), sh.ShBasis(degree))}
    for i, t in enumerate(("gm", "csf"), start=1):
        sel = normalized.tissue_fractions[:, i] > 0.999
        if np.any(sel):
            rfs[t] = sm.isotropic_response(normalized.subset(sel), t)
    write_response(args.out, rfs)
    print(json.dumps({"out": args.out, "tissues": sorted(rfs), "degree": degree}))
    return 0


def _normalized(batch):
    signals, _ = en.b0_normalize(batch)
    return sm.VoxelBatch(signals, batch.gradients, batch.fibers,
                         batch.fiber_fractions, batch.tissue_fractions)


def cmd_csd(args):
    config = load_config(args.config) if args.config else {}
    batch = _normalized(read_dataset(args.dataset))
    rfs = read_response(args.response)
    field = ccsd.csd_solve(batch, rfs, _csd_config(config))
    write_fodf(args.out, field)
    print(json.dumps({"out": args.out, "voxels": field.n_voxels,
                      "converged": int(field.converged.sum())}))
    return 0


def cmd_esd_train(args):
    config = load_config(args.config) if args.config else {}
    train_batch = read_dataset(args.train)
    val_batch = read_dataset(args.val)
    rfs = read_response(args.response)
    mc = _model_config(config)
    in_channels = len(train_batch.gradients.shells) + int(mc.use_csd_input)
    model = en.build_model(mc, in_channels)
    result = en.train(model, train_batch, val_batch, rfs, _csd_config(config))
    write_checkpoint(args.out, model, result, config)
    if args.log:
        with open(args.log, "w") as fh:
            for record in result.log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"out": args.out, "best_epoch": result.best_epoch,
                      "best_val_loss": result.best_val_loss}, allow_nan=False))
    return 0


def cmd_esd_infer(args):
    model, header = read_checkpoint(args.checkpoint)
    batch = read_dataset(args.dataset)
    rfs = read_response(args.response) if args.response else None
    field = en.infer(model, batch, rfs, _csd_config(header["config"]))
    write_fodf(args.out, field)
    print(json.dumps({"out": args.out, "voxels": field.n_voxels}))
    return 0


def cmd_peaks(args):
    config = load_config(args.config) if args.config else {}
    pc = config.get("peaks", {})
    field = read_fodf(args.fodf)
    grid = sg.build_grid(pc.get("grid_nside", 32))
    peak_sets = pm.peaks_for_batch(
        field.coeffs["wm"], grid,
        rel_threshold=pc.get("rel_threshold", 0.25),
        min_separation_deg=pc.get("min_separation_deg", 15.0),
    )
    write_peaks(args.out, peak_sets)
    print(json.dumps({"out": args.out, "voxels": len(peak_sets)}))
    return 0


def cmd_evaluate(args):
    config = load_config(args.config) if args.config else {}
    pc = config.get("peaks", {})
    gt = read_dataset(args.dataset)
    if gt.fibers is None:
        raise InvalidArgumentError("evaluation needs a dataset with ground truth")
    field = None
    if args.fodf:
        field = read_fodf(args.fodf)
        grid = sg.build_grid(pc.get("grid_nside", 32))
        peak_sets = pm.peaks_for_batch(
            field.coeffs["wm"], grid,
            rel_threshold=pc.get("rel_threshold", 0.25),
            min_separation_deg=pc.get("min_separation_deg", 15.0),
        )
    else:
        peak_sets = read_peaks(args.peaks)
    if len(peak_sets) != gt.n_voxels:
        raise InvalidArgumentError(
            f"{len(peak_sets)} predictions vs {gt.n_voxels} ground-truth voxels"
        )
    nf = gt.n_fibers()
    scores = [
        pm.match_fibers(gt.fibers[v, : nf[v]], peak_sets[v]) for v in range(gt.n_voxels)
    ]
    summary = pm.aggregate_scores(scores)
    summary["kl"] = None
    if field is not None and args.response and len(field.tissues) > 1:
        rfs = read_response(args.response)
        summary["kl"] = pm.volume_fraction_kl(gt.tissue_fractions, field, rfs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, sort_keys=True, allow_nan=False)
            fh.write("\n")
    if args.per_voxel:
        with open(args.per_voxel, "w") as fh:
            fh.write("voxel,n_fibers,success,n_over,n_under,matched_angles\n")
            for v, s in enumerate(scores):
                angles = ";".join(f"{a:.4f}" for _, _, a in s.matched)
                fh.write(f"{v},{nf[v]},{int(s.success)},{s.n_over},{s.n_under},{angles}\n")
    if args.emit_plots:
        os.makedirs(args.emit_plots, exist_ok=True)
        n_grad = min(gt.gradients.n(b) for b in gt.gradients.shells)
        with open(os.path.join(args.emit_plots, "scores.csv"), "w") as fh:
            fh.write("n_gradients,success_rate,mean_angular_error_deg,over,under,kl\n")
            angle = summary["mean_angular_error_deg"]
            angle = "" if angle is None else f"{angle:.6f}"
            kl = "" if summary["kl"] is None else f"{summary['kl']:.6f}"
            fh.write(
                f"{n_grad},{summary['success_rate']:.6f},{angle},"
                f"{summary['over']:.6f},{summary['under']:.6f},{kl}\n"
            )
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphdecon",
        description="Sparse fODF estimation from spherical dMRI signals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="generate synthetic dataset files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = subs.add_parser("response", help="estimate response functions from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_response)

    p = subs.add_parser("csd", help="constrained spherical deconvolution baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_csd)

    p = subs.add_parser("esd-train", help="train the spherical network")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--log")
    p.set_defaults(fn=cmd_esd_train)

    p = subs.add_parser("esd-infer", help="deconvolve a dataset with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--response")
    p.set_defaults(fn=cmd_esd_infer)

    p = subs.add_parser("peaks", help="extract fiber peaks from an fODF file")
    p.add_argument("--fodf", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_peaks)

    p = subs.add_parser("evaluate", help="score predictions against ground truth")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fodf")
    group.add_argument("--peaks")
    p.add_argument("--dataset", required=True)
    p.add_argument("--response")
    p.add_argument("--out")
    p.add_argument("--per-voxel", dest="per_voxel")
    p.add_argument("--emit-plots", dest="emit_plots")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidArgumentError) as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    except (OSError, FormatError) as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 1
    except (NumericalError, IllConditionedError, InternalConsistencyError) as err:
        print(f"error: numerical: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
