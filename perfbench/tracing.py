"""Span tracer that instruments sphdecon from the outside, plus the per-layer metrics.

``instrument`` replaces module attributes (``sphere_grid.build_grid``,
``_kernels.csr_matmul``, ``classical_csd.csd_solve``, ...) with wrappers
that record a span: name, start, end and parent. sphdecon modules call
each other through module attributes and their own module globals, so one
replacement reaches every caller. Backward passes are timed by wrapping the
closures that ops hand to ``autodiff.Tape.record``; each closure's span is
named after the op that recorded it. Counters are kept at the same
boundaries. Spans stay in memory until ``write_spans``.

Span names are ``<module>.<what>``; the module part (``kernels`` stands for
``_kernels``) is the layer that a span's self time is charged to. Self time
is a span's duration minus the time its child spans cover.
"""

import collections
import functools
import json
import os
import time

# the ESD hierarchy of the default config: nside 8, 4, 2 -> levels 0, 1, 2
_LEVEL_OF_VERTICES = {12 * (8 >> k) ** 2: k for k in range(3)}

LAYERS = ("signal_model", "io_cli", "sphere_grid", "harmonics", "classical_csd",
          "autodiff", "kernels", "esd_net", "peaks_metrics")

# per-layer metrics: name -> unit; every traced run reports all of them
LAYER_METRICS = {
    "kernels.csr_matmul_s": "s",
    "kernels.csr_matmul_calls": "count",
    "kernels.csr_matmul_bytes": "bytes_computed",
    "kernels.maxpool4_s": "s",
    "kernels.local_maxima_s": "s",
    **{f"autodiff.graph_conv.{d}.l{k}_s": "s" for d in ("fwd", "bwd") for k in range(3)},
    "autodiff.batchnorm.fwd_s": "s",
    "autodiff.batchnorm.bwd_s": "s",
    "autodiff.pool.fwd_s": "s",
    "autodiff.pool.bwd_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.adam_step_s": "s",
    "autodiff.tape_records": "count",
    "esd_net.network_inputs_s": "s",
    "esd_net.forward_s": "s",
    "esd_net.loss_fwd_s": "s",
    "esd_net.loss_bwd_s": "s",
    "esd_net.heads_to_fodf_s": "s",
    "esd_net.live_frac": "ratio",
    "classical_csd.csd_solve_s": "s",
    "classical_csd.system_matrix_s": "s",
    "classical_csd.solves_per_voxel": "count/voxel",
    "classical_csd.nonconverged": "count",
    "peaks_metrics.detect_peaks_s": "s",
    "peaks_metrics.candidates_per_voxel": "count/voxel",
    "peaks_metrics.refinements_per_voxel": "count/voxel",
    "peaks_metrics.peaks_per_voxel": "count/voxel",
    "peaks_metrics.kept_ratio": "ratio",
    "peaks_metrics.match_s": "s",
    "sphere_grid.build_grid_s": "s",
    "sphere_grid.build_grid_calls": "count",
    "sphere_grid.estimate_lmax_s": "s",
    "harmonics.design_matrix_s": "s",
    "harmonics.design_matrix_calls": "count",
    "harmonics.resample_s": "s",
    "io_cli.import_s": "s",
    "io_cli.read_s": "s",
    "io_cli.write_s": "s",
    "io_cli.bytes_read": "bytes",
    "io_cli.bytes_written": "bytes",
    **{f"io_cli.cmd_{c}_s": "s" for c in ("simulate", "response", "csd", "peaks",
                                          "evaluate", "esd_train", "esd_infer")},
    "signal_model.simulate_s": "s",
    "signal_model.estimate_response_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.missing = []  # attributes the program no longer has
        self._stack = []
        self._open = collections.Counter()
        self._patches = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def inside(self, name):
        return self._open[name] > 0

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def replace(self, owner, attr, make):
        """Set ``owner.attr`` to ``make(original)``; ``restore`` undoes it."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr, name, after=None):
        """Record a span around every call; ``name`` may be a function of the args."""

        def make(original):
            def wrapper(*args, **kwargs):
                idx = self.open(name(*args, **kwargs) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def count_calls(self, owner, attr, counter, within):
        """Count calls made while a span named ``within`` is open; no span."""

        def make(original):
            def wrapper(*args, **kwargs):
                if self.inside(within):
                    self.counts[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        self.replace(owner, attr, make)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _conv_name(tape, x, weights, lap):
    level = _LEVEL_OF_VERTICES.get(lap.n)
    return f"autodiff.graph_conv.fwd.{'l%d' % level if level is not None else 'n%d' % lap.n}"


def _backward_name(op_span):
    """The span name of a backward closure recorded inside ``op_span``."""
    if op_span and ".fwd" in op_span:
        return op_span.replace(".fwd", ".bwd")
    if op_span and op_span.endswith("_fwd"):
        return op_span[: -len("_fwd")] + "_bwd"
    return "autodiff.other.bwd"


def instrument(tracer: Tracer):
    """Wrap the public functions of every sphdecon layer."""
    import numpy as np

    from sphdecon import _kernels
    from sphdecon import autodiff as ad
    from sphdecon import classical_csd as ccsd
    from sphdecon import esd_net as en
    from sphdecon import harmonics as sh
    from sphdecon import io_cli
    from sphdecon import peaks_metrics as pm
    from sphdecon import signal_model as sm
    from sphdecon import sphere_grid as sg

    counts = tracer.counts
    p = tracer.patch

    def file_bytes(key):
        def after(result, path, *args, **kwargs):
            counts[key] += os.path.getsize(path)
        return after

    for cmd in ("simulate", "response", "csd", "peaks", "evaluate", "esd_train", "esd_infer"):
        p(io_cli, f"cmd_{cmd}", f"io_cli.cmd_{cmd}")
    p(io_cli, "read_container", "io_cli.read", file_bytes("io_cli.bytes_read"))
    p(io_cli, "write_container", "io_cli.write", file_bytes("io_cli.bytes_written"))

    p(sm, "make_dataset", "signal_model.simulate")
    p(sm, "estimate_response", "signal_model.estimate_response")
    p(sm, "isotropic_response", "signal_model.estimate_response")

    p(sg, "build_grid", "sphere_grid.build_grid")
    p(sg, "estimate_lmax", "sphere_grid.estimate_lmax")
    p(sh, "design_matrix", "harmonics.design_matrix")
    p(sh, "resample", "harmonics.resample")

    def csd_done(field, batch, *args, **kwargs):
        counts["classical_csd.voxels"] += field.n_voxels
        counts["classical_csd.nonconverged"] += int((~field.converged).sum())

    p(ccsd, "csd_solve", "classical_csd.csd_solve", csd_done)
    p(ccsd, "system_matrix", "classical_csd.system_matrix")
    tracer.count_calls(np.linalg, "solve", "classical_csd.solves", "classical_csd.csd_solve")

    def peaks_done(peak_set, *args, **kwargs):
        counts["peaks_metrics.voxels"] += 1
        counts["peaks_metrics.peaks"] += len(peak_set)

    def maxima_done(mask, *args, **kwargs):
        if tracer.inside("peaks_metrics.detect_peaks"):
            counts["peaks_metrics.candidates"] += int(np.count_nonzero(mask))

    p(pm, "peaks_for_batch", "peaks_metrics.peaks_for_batch")
    p(pm, "detect_peaks", "peaks_metrics.detect_peaks", peaks_done)
    p(pm, "match_fibers", "peaks_metrics.match")
    p(pm, "volume_fraction_kl", "peaks_metrics.volume_fraction_kl")
    tracer.count_calls(np.linalg, "lstsq", "peaks_metrics.refinements",
                       "peaks_metrics.detect_peaks")

    def matmul_done(out, indptr, indices, data, x):
        # compulsory traffic: each operand read once, the product written once
        counts["kernels.csr_matmul_calls"] += 1
        counts["kernels.csr_matmul_bytes"] += (
            indptr.nbytes + indices.nbytes + data.nbytes + 8 * x.size + out.nbytes
        )

    p(_kernels, "csr_matmul", "kernels.csr_matmul", matmul_done)
    p(_kernels, "maxpool4", "kernels.maxpool4")
    p(_kernels, "local_maxima", "kernels.local_maxima", maxima_done)

    p(ad, "graph_conv", _conv_name)
    p(ad, "batchnorm", "autodiff.batchnorm.fwd")
    p(ad, "healpix_maxpool", "autodiff.pool.fwd")
    p(ad, "healpix_unpool", "autodiff.pool.fwd")
    p(ad, "adam_step", "autodiff.adam_step")
    p(ad.Tape, "backward", "autodiff.backward")

    def make_record(original):
        def record(tape, fn):
            counts["autodiff.tape_records"] += 1
            name = _backward_name(tracer.current())

            def traced_backward():
                idx = tracer.open(name)
                try:
                    fn()
                finally:
                    tracer.close(idx)

            original(tape, traced_backward)

        return record

    tracer.replace(ad.Tape, "record", make_record)

    def forward_done(out, model, tape, x, training=False):
        if not training:  # eval mode: validation passes and inference
            counts["esd_net.head_outputs"] += out.values.size
            counts["esd_net.head_positive"] += int(np.count_nonzero(out.values > 0))

    p(en, "train", "esd_net.train")
    p(en, "infer", "esd_net.infer")
    p(en, "_epoch_loss", "esd_net.validate")
    p(en, "network_inputs", "esd_net.network_inputs")
    p(en.EsdModel, "forward", "esd_net.forward", forward_done)
    p(en, "esd_loss", "esd_net.loss_fwd")
    p(en, "heads_to_fodf", "esd_net.heads_to_fodf")


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> tuple:
    """Per-layer metrics and the number of spans that break nesting.

    A span's time counts toward its name only when no enclosing span has
    the same name, so recursion is not counted twice.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    inclusive = collections.defaultdict(float)
    calls = collections.Counter()
    self_time = collections.defaultdict(float)
    violations = 0
    for name, start, end, parent in spans:
        if end is None:
            violations += 1
            continue
        dur = end - start
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if p_end is None or start < p_start or end > p_end:
                violations += 1
            child_time[parent] += dur
        calls[name] += 1
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            inclusive[name] += dur
    for (name, start, end, _), covered in zip(spans, child_time):
        if end is None:
            continue
        own = (end - start) - covered
        if own < -1e-9:
            violations += 1
        self_time[name.split(".", 1)[0]] += own

    c = tracer.counts
    m = {}
    for metric in LAYER_METRICS:
        if metric.endswith("_s") and not metric.startswith("trace."):
            m[metric] = inclusive[metric[: -len("_s")]]
    m.update({
        "kernels.csr_matmul_calls": c["kernels.csr_matmul_calls"],
        "kernels.csr_matmul_bytes": c["kernels.csr_matmul_bytes"],
        "autodiff.tape_records": c["autodiff.tape_records"],
        "esd_net.live_frac": _ratio(c["esd_net.head_positive"], c["esd_net.head_outputs"]),
        "classical_csd.solves_per_voxel": _ratio(c["classical_csd.solves"],
                                                 c["classical_csd.voxels"]),
        "classical_csd.nonconverged": c["classical_csd.nonconverged"],
        "peaks_metrics.candidates_per_voxel": _ratio(c["peaks_metrics.candidates"],
                                                     c["peaks_metrics.voxels"]),
        "peaks_metrics.refinements_per_voxel": _ratio(c["peaks_metrics.refinements"],
                                                      c["peaks_metrics.voxels"]),
        "peaks_metrics.peaks_per_voxel": _ratio(c["peaks_metrics.peaks"],
                                                c["peaks_metrics.voxels"]),
        "peaks_metrics.kept_ratio": _ratio(c["peaks_metrics.peaks"],
                                           c["peaks_metrics.refinements"]),
        "sphere_grid.build_grid_calls": calls["sphere_grid.build_grid"],
        "harmonics.design_matrix_calls": calls["harmonics.design_matrix"],
        "io_cli.bytes_read": c["io_cli.bytes_read"],
        "io_cli.bytes_written": c["io_cli.bytes_written"],
        "trace.spans": len(spans),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m, violations


def write_spans(tracer: Tracer, path):
    """Write the spans as {"names": [...], "spans": [[name index, start, end, parent]]}."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], s, e, p] for n, s, e, p in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"names": names, "spans": rows}, fh, allow_nan=False)

