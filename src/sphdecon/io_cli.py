"""File formats, configuration sections, and the command-line interface.

All binary files share one container: magic "SDV1", a version field, a
JSON text header, then 32-byte-aligned little-endian float64 payload
blocks. Writers are deterministic (sorted keys, no timestamps), so
identical inputs and seeds produce byte-identical files. This is the
only module that writes files.

Each command is a function (args, config) -> summary dict. `main` runs
the protocol they share: it checks that every output file's directory
exists before any input is read, loads the config, runs the command and
prints its summary, with elapsed_ms, as one strict-JSON line with sorted
keys.

Exit codes: 0 ok, 1 I/O failure, 2 config/validation failure,
3 numerical failure. Errors print one line: "error: <kind>: <message>".
"""

import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import sys
import time
import types
import typing

import numpy as np

from . import classical_csd as ccsd
from . import esd_net as en
from . import harmonics as sh
from . import peaks_metrics as pm
from . import signal_model as sm
from . import sphere_grid as sg
from .errors import IllConditionedError, InvalidArgumentError, NumericalError

MAGIC = b"SDV1"
VERSION = 1
# the layout of a checkpoint's blocks; a network change that alters it bumps it
CHECKPOINT_FORMAT = 2
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


class _Entries(dict):
    """Header objects and the block table: a missing entry is a FormatError."""

    def __init__(self, path, what, items=()):
        super().__init__(items)
        self.path, self.what = path, what

    def __missing__(self, key):
        raise FormatError(f"{self.path}: no {self.what} {key!r}")

    def typed(self, key, hint):
        """The entry under key, which must fit a type hint such as int or list[str]."""
        try:
            _check(self[key], hint, key, "header key")
        except ConfigError as err:
            raise FormatError(f"{self.path}: {err}") from err
        return self[key]

    def shaped(self, key, *shape):
        """The block under key, which must have this shape; None matches any length > 0."""
        arr = self[key]
        if arr.ndim != len(shape) or any(
                n < 1 if w is None else n != w for n, w in zip(arr.shape, shape)):
            want = ", ".join("any" if w is None else str(w) for w in shape)
            raise FormatError(f"{self.path}: block {key!r} has shape {arr.shape}, not ({want})")
        return arr


def read_container(path, kind=None):
    """Read a container, checking its length against the header and blocks.

    A truncated file, an undecodable header, a header of another kind
    than `kind` (when given) or a block holding a non-finite value raises
    FormatError (no writer stores one), and so does looking up a header key
    or block that the file lacks.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated at {len(raw)} bytes, inside the preamble")
    version = int(np.frombuffer(raw, "<u4", count=1, offset=4)[0])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    hlen = int(np.frombuffer(raw, "<u4", count=1, offset=8)[0])
    if len(raw) < 12 + hlen:
        raise FormatError(
            f"{path}: truncated at {len(raw)} bytes, inside the {hlen}-byte header"
        )
    try:
        header = json.loads(raw[12 : 12 + hlen].decode(),
                            object_hook=lambda obj: _Entries(path, "header key", obj))
        specs = [(name, [int(n) for n in shape]) for name, shape in header.pop("blocks")]
        if any(n < 0 for _, shape in specs for n in shape):
            raise ValueError("negative block dimension")
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        raise FormatError(f"{path}: corrupt header: {err}") from err
    if kind is not None and header.get("kind") != kind:
        raise FormatError(f"{path}: a {header.get('kind')!r} file, expected {kind!r}")
    offset = 12 + hlen + _pad(12 + hlen)
    blocks = _Entries(path, "block")
    for name, shape in specs:
        nbytes = 8 * (int(np.prod(shape)) if shape else 1)
        if len(raw) < offset + nbytes:
            raise FormatError(
                f"{path}: truncated at {len(raw)} bytes, inside block '{name}'"
            )
        arr = np.frombuffer(raw, "<f8", count=nbytes // 8, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: block {name!r} holds non-finite values")
        blocks[name] = arr.copy()
        offset += nbytes + _pad(nbytes)
    return header, blocks


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(path, batch: sm.VoxelBatch, seed=None):
    table = batch.gradients
    header = {
        "kind": "dataset",
        "voxel_count": batch.n_voxels,
        "shells": [float(b) for b in table.shells],
        "directions": {str(float(b)): table.directions[b].tolist() for b in table.shells},
        "b0_count": table.b0_count,
        "seed": seed,
        "has_ground_truth": batch.fibers is not None,
    }
    blocks = [("signals", batch.signals)]
    if batch.fibers is not None:
        blocks += [
            ("fibers", batch.fibers),
            ("fiber_fractions", batch.fiber_fractions),
            ("tissue_fractions", batch.tissue_fractions),
        ]
    write_container(path, header, blocks)


def read_dataset(path) -> sm.VoxelBatch:
    header, blocks = read_container(path, "dataset")
    shells = [float(b) for b in header.typed("shells", list[float])]
    if not shells:  # every command reads at least one diffusion-weighted shell
        raise FormatError(f"{path}: no diffusion-weighted shell")
    directions = {}
    for b in shells:
        rows = header.typed("directions", dict).typed(str(b), list[list[float]])
        if any(len(row) != 3 for row in rows):
            raise FormatError(f"{path}: shell {b} directions are not 3-vectors")
        directions[b] = np.array(rows, dtype=np.float64).reshape(-1, 3)
    table = sm.GradientTable(shells, directions, b0_count=header.typed("b0_count", int))
    if table.shells != shells:
        raise FormatError(f"{path}: shells {shells} are not in ascending order")
    n = header.typed("voxel_count", int)
    truth = [None] * 3
    if "fibers" in blocks:
        truth = [blocks.shaped("fibers", n, 3, 3), blocks.shaped("fiber_fractions", n, 3),
                 blocks.shaped("tissue_fractions", n, 3)]
        # fiber rows are unit directions, or zero padding; the entry bound
        # comes first so that the norms cannot overflow
        fibers = truth[0]
        if np.abs(fibers).max(initial=0.0) > 1.0 + 1e-6 or np.any(
                (np.abs(np.linalg.norm(fibers, axis=2) - 1.0) > 1e-6) & fibers.any(axis=2)):
            raise FormatError(f"{path}: block 'fibers' holds rows that are neither unit nor zero")
    return sm.VoxelBatch(blocks.shaped("signals", n, table.total_samples), table, *truth)


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
    header, blocks = read_container(path, "response")
    shells = [float(b) for b in header.typed("shells", list[float])]
    out = {}
    for t in header.typed("tissues", list[str]):
        mat = blocks.shaped(t, len(shells), None)
        width = 1 if t in sm.TISSUES[1:] else mat.shape[1]
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
    header, blocks = read_container(path, "fodf")
    n = header.typed("voxel_count", int)
    degree = header.typed("degree", int)
    tissues = header.typed("tissues", list[str])
    if "wm" not in tissues:
        raise FormatError(f"{path}: tissues {tissues} lack 'wm'")
    # the wm width is checked before a basis whose size grows with the
    # square of the header's degree is built
    width = (degree // 2 + 1) * (degree + 1)
    coeffs = {t: blocks.shaped(t, n, width if t == "wm" else 1) for t in tissues}
    try:
        basis = sh.ShBasis(degree)
    except InvalidArgumentError as err:
        raise FormatError(f"{path}: header degree: {err}") from err
    converged = blocks.shaped("converged", n)
    return ccsd.FodfField(coeffs, basis, converged > 0.5)


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
    header, blocks = read_container(path, "peaks")
    arr = blocks.shaped("peaks", header.typed("voxel_count", int), None, 4)
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


def _digest(blocks):
    """SHA-256 of the blocks' payloads, in order."""
    h = hashlib.sha256()
    for arr in blocks:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def write_checkpoint(path, model: en.EsdModel, result: en.TrainResult, config: dict):
    blocks = [(f"param/{n}", model.params[n].values) for n in sorted(model.params)]
    for n in sorted(model.bn):
        blocks.append((f"bn_mean/{n}", model.bn[n].mean))
        blocks.append((f"bn_var/{n}", model.bn[n].var))
    header = {
        "kind": "checkpoint",
        "format": CHECKPOINT_FORMAT,
        "config": config,
        "config_hash": config_hash(config),
        "epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "shells": model.shells,
        # finite but absurd weights cannot be told apart from trained ones
        # by value, so corruption is caught by the digest
        "payload_sha256": _digest(arr for _, arr in blocks),
    }
    write_container(path, header, blocks)


def read_checkpoint(path):
    """The model a checkpoint holds, and the checkpoint's header.

    The format and then the payload digest are checked first. The network
    is float32, so a block that the model reads and that holds a value
    beyond float32's finite range is refused before any value is cast.
    """
    header, blocks = read_container(path, "checkpoint")
    fmt = header.get("format")  # None before format 2
    if fmt != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: checkpoint format {fmt}, expected {CHECKPOINT_FORMAT} "
                          "(train the model again)")
    if header.typed("payload_sha256", str) != _digest(blocks.values()):
        raise FormatError(f"{path}: payload does not match its SHA-256 digest")
    # only the seed and the model section are read back
    stored = header.typed("config", dict)
    model = dict(stored.typed("model", dict)) if "model" in stored else {}
    config = {"seed": stored.get("seed", 0), "model": model}
    try:
        validate_config(config)
    except ConfigError as err:
        raise ConfigError(f"{path}: stored {err}") from err
    # the model built from the stored config and shells names every block it needs
    model = en.EsdModel(build_config(config, "model"), header.typed("shells", list[float]))
    targets = {f"param/{n}": p.values for n, p in model.params.items()}
    for n, bn in model.bn.items():
        targets[f"bn_mean/{n}"] = bn.mean
        targets[f"bn_var/{n}"] = bn.var
    for name, target in targets.items():
        block = blocks.shaped(name, *target.shape)
        if np.abs(block).max(initial=0.0) > np.finfo(target.dtype).max:
            raise FormatError(f"{path}: block {name!r} holds a value beyond {target.dtype}'s range")
    for name, target in targets.items():
        target[...] = blocks[name]
    if any(np.any(bn.var < 0) for bn in model.bn.values()):
        raise FormatError(f"{path}: a batchnorm variance is negative")
    return model, header


# ---------------------------------------------------------------------------
# configuration: one dataclass per section, whose fields are the schema


SECTIONS = {
    "dataset": sm.SimConfig,
    "model": en.EsdConfig,
    "csd": ccsd.CsdConfig,
    "peaks": pm.PeakConfig,
    "response": sm.ResponseConfig,
}
_KINDS = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _check(value, hint, path, what="config key"):
    """Raise ConfigError unless a JSON value fits an annotation; dicts are sections."""
    if dataclasses.is_dataclass(hint):  # the seed is a top-level key only
        hint = {f.name: f.type for f in dataclasses.fields(hint) if f.name != "seed"}
    if isinstance(hint, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section '{path or '<root>'}' must be an object")
        for key, item in value.items():
            name = f"{path}.{key}" if path else key
            if key not in hint:
                raise ConfigError(f"unknown config key '{name}'")
            _check(item, hint[key], name)
    elif typing.get_origin(hint) is types.UnionType:  # float | None
        if value is not None:
            _check(value, typing.get_args(hint)[0], path, what)
    elif typing.get_origin(hint) in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{what} '{path}' must be a list")
        for i, item in enumerate(value):
            _check(item, typing.get_args(hint)[0], f"{path}[{i}]", what)
    elif hint is float and isinstance(value, _NonFinite):
        raise ConfigError(f"{what} '{path}' must be a finite number, got {value.text}")
    elif isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise ConfigError(f"{what} '{path}' must be {_KINDS[hint]}")


def validate_config(config):
    """Check a config document against the section dataclasses' fields."""
    _check(config, {"seed": int, **SECTIONS}, "")
    if config.get("seed", 0) < 0:  # the seed is drawn into numpy generators' entropy
        raise ConfigError(f"config key 'seed' must be nonnegative, got {config['seed']}")
    return config


def build_config(config: dict, section: str):
    """A validated config's section as its dataclass, with the top-level seed."""
    return _build(SECTIONS[section], config.get(section, {}), config.get("seed", 0), section)


def _build(cls, values, seed, path):
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name == "seed":
            kwargs["seed"] = seed
        elif f.name in values:
            value = values[f.name]
            if dataclasses.is_dataclass(f.type):
                value = _build(f.type, value, seed, f"{path}.{f.name}")
            elif typing.get_origin(f.type) is tuple:
                value = tuple(value)
            kwargs[f.name] = value
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key '{path}.{f.name}'")
    return cls(**kwargs)


class _NonFinite:
    """A NaN, Infinity or overflowing number in a config file; _check refuses it."""

    def __init__(self, text):
        self.text = text


def _parse_float(text):
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_NonFinite, parse_float=_parse_float)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    return validate_config(raw)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, config):
    sc = build_config(config, "dataset")
    os.makedirs(args.out, exist_ok=True)
    files = {}
    redraws = 0
    for name, batch in sm.make_dataset(sc).items():
        path = os.path.join(args.out, f"{name}.sdv")
        write_dataset(path, batch, seed=sc.seed)
        files[name] = {"path": path, "n_voxels": batch.n_voxels}
        redraws += int(batch.redraws.sum())
    # rejected axis and fraction draws, the cost of the crossing-angle and fraction floors
    return {"seed": sc.seed, "files": files,
            "redraws_per_voxel": redraws / max(sc.n_voxels, 1)}


def cmd_response(args, config):
    batch = read_dataset(args.dataset)
    if batch.fibers is None:
        raise InvalidArgumentError("response estimation needs ground truth")
    normalized = batch.b0_normalized()
    degree = build_config(config, "response").degree
    n_grad = min(batch.gradients.n(b) for b in batch.gradients.shells)
    while degree // 2 + 1 > 0.8 * n_grad:
        degree -= 2
    nf = normalized.n_fibers()
    wm_sel = (nf == 1) & (normalized.tissue_fractions[:, 0] > 0.999)
    rfs = {"wm": sm.estimate_response(normalized.subset(wm_sel), sh.ShBasis(degree))}
    voxels = {"wm": int(wm_sel.sum()), "gm": 0, "csf": 0}  # pure voxels each response used
    for i, t in enumerate(sm.TISSUES[1:], start=1):
        sel = normalized.tissue_fractions[:, i] > 0.999
        if np.any(sel):
            rfs[t] = sm.isotropic_response(normalized.subset(sel), t)
            voxels[t] = int(sel.sum())
    write_response(args.out, rfs)
    return {"out": args.out, "tissues": sorted(rfs), "degree": degree, "voxels": voxels}


def cmd_csd(args, config):
    batch = read_dataset(args.dataset).b0_normalized()
    rfs = read_response(args.response)
    field = ccsd.csd_solve(batch, rfs, build_config(config, "csd"))
    write_fodf(args.out, field)
    converged = int(field.converged.sum())
    return {"out": args.out, "voxels": field.n_voxels, "converged": converged,
            "nonconverged": field.n_voxels - converged,
            "iterations": int(field.iterations.sum())}


def cmd_esd_train(args, config):
    train_batch = read_dataset(args.train)
    val_batch = read_dataset(args.val)
    rfs = read_response(args.response)
    model = en.EsdModel(build_config(config, "model"), train_batch.gradients.shells)
    result = en.train(model, train_batch, val_batch, rfs)
    write_checkpoint(args.out, model, result, config)
    if args.log:
        with open(args.log, "w") as fh:
            for record in result.log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"out": args.out, "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss}


def cmd_esd_infer(args, config):
    model, _ = read_checkpoint(args.checkpoint)
    field = en.infer(model, read_dataset(args.dataset))
    write_fodf(args.out, field)
    live = np.any(field.coeffs["wm"] != 0, axis=1)
    return {"out": args.out, "voxels": field.n_voxels,
            "live_frac": float(live.mean()) if live.size else None}


def _peaks(field, config):
    """Peaks of a field's WM fODFs under the config's peaks section."""
    pc = build_config(config, "peaks")
    return pm.peaks_for_batch(field.coeffs["wm"], sg.build_grid(pc.grid_nside),
                              pc.rel_threshold, pc.min_separation_deg)


def cmd_peaks(args, config):
    peak_sets = _peaks(read_fodf(args.fodf), config)
    write_peaks(args.out, peak_sets)
    n = len(peak_sets)
    return {"out": args.out, "voxels": n,
            "peaks_per_voxel": sum(map(len, peak_sets)) / n if n else None,
            "candidates_per_voxel": sum(p.candidates for p in peak_sets) / n if n else None}


def cmd_evaluate(args, config):
    gt = read_dataset(args.dataset)
    if gt.fibers is None:
        raise InvalidArgumentError("evaluation needs a dataset with ground truth")
    field = None
    if args.fodf:
        field = read_fodf(args.fodf)
        peak_sets = _peaks(field, config)
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
    return summary


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphdecon",
        description="Sparse fODF estimation from spherical dMRI signals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="generate synthetic dataset files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate, outputs=())

    p = subs.add_parser("response", help="estimate response functions from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_response, outputs=("out",))

    p = subs.add_parser("csd", help="constrained spherical deconvolution baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_csd, outputs=("out",))

    p = subs.add_parser("esd-train", help="train the spherical network")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--log")
    p.set_defaults(fn=cmd_esd_train, outputs=("out", "log"))

    p = subs.add_parser("esd-infer", help="deconvolve a dataset with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_esd_infer, outputs=("out",))

    p = subs.add_parser("peaks", help="extract fiber peaks from an fODF file")
    p.add_argument("--fodf", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_peaks, outputs=("out",))

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
    p.set_defaults(fn=cmd_evaluate, outputs=("out", "per_voxel"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in filter(None, (getattr(args, name) for name in args.outputs)):
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        t0 = time.perf_counter()
        config = load_config(args.config) if getattr(args, "config", None) else {}
        summary = args.fn(args, config)
        summary["elapsed_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
        print(json.dumps(summary, sort_keys=True, allow_nan=False))
        return 0
    except (ConfigError, InvalidArgumentError) as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    except (OSError, FormatError) as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 1
    except (NumericalError, IllConditionedError) as err:
        print(f"error: numerical: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
