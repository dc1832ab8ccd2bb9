"""End-to-end benchmark of the sphdecon CLI pipeline, with an outside-in trace.

    python3 perfbench/run.py --workload ssst_csd --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; sphdecon is imported from its src/.
Workloads are defined in perfbench/workloads.py and described in
perfbench/README.md.

--trace 0 (timed run): for --seconds, fresh processes alternate between
  set-ups (imports, simulate, response) and passes over the timed stages,
  one set-up before every two passes; at least one pass, and set-ups
  follow until there are three. ``setup_s`` is the median wall time of the
  set-up processes; stage times are medians over passes. All processes
  run BLAS on one thread.
--trace 1 (traced run): one process runs set-up and stages under the span
  tracer (perfbench/tracing.py), then one untraced pass runs the stages;
  the tracing overhead is the difference of their stage wall times.

Every run prints each metric by name and unit, a provenance record, and
as its last line one strict JSON object: correct, attempted, failed and
the metrics listed for its mode in BENCHMARK.json. Outputs are checked:
every stage must exit 0, fODF and peaks files are read back and must be
finite, csd_success_rate must reach the workload's floor, repeated set-ups
must write identical files, and trace spans must nest. The exit code is 0
only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PIPELINE = Path(__file__).resolve().parent / "pipeline.py"
MIN_SETUPS = 3
DEADLINE_S = 170.0
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "csd_vox_per_s": "voxels/s",
    "peaks_vox_per_s": "voxels/s",
    "train_vox_per_s": "voxel-epochs/s",
    "infer_vox_per_s": "voxels/s",
    "peak_rss_mb": "MB",
    "csd_success_rate": "ratio",
    "csd_angular_error_deg": "deg",
    "csd_kl": "nats",
    "esd_val_loss": "loss",
    "failed_frac": "ratio",
}
# the end-to-end metrics every workload has, the ones the last line carries
RESULT_E2E = ("setup_s", "wall_s", "peak_rss_mb")
DATA_FILES = ("train.sdv", "val.sdv", "test.sdv", "response.rf")
# BLAS runs one thread: with two, the small CSD systems spin-wait on the
# second core whenever the host is busy, and stage times vary twofold
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The run cannot produce a result."""


class Runner:
    """Starts the child processes of one run, all inside one run directory."""

    def __init__(self, workload, run_dir):
        self.workload = workload
        self.run_dir = run_dir
        self.data = run_dir / "data"
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")])
        )

    def child(self, mode, *extra):
        """Run pipeline.py in a fresh process; returns (wall seconds, result)."""
        self.children += 1
        result_path = self.run_dir / f"child{self.children}-{mode}.json"
        cmd = [sys.executable, str(PIPELINE), mode, "--workload", self.workload.name,
               "--dir", str(self.data), "--result", str(result_path), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} process exceeded the run deadline") from err
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        with open(result_path) as fh:
            return wall, json.load(fh)


def data_digest(data_dir):
    h = hashlib.sha256()
    for name in DATA_FILES:
        h.update((data_dir / name).read_bytes())
    return h.hexdigest()


class Tally:
    """Checks made on a run: attempted and failed counts, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)

    def check(self, ok, problem):
        self.count(1, int(not ok), problem)

    def stages(self, records):
        for r in records:
            self.check(r["rc"] == 0, f"stage {r['stage']} exited with {r['rc']}")
            # a summary line that is not strict JSON (bare NaN) counts as failed;
            # the run fails only when a metric needs the value (stage_metrics)
            self.count(1, int(r["nulls"] > 0))
            if "voxels" in r:
                self.count(r["voxels"], r["nonfinite"],
                           f"{r['nonfinite']} non-finite voxels in {r['stage']} output")
                # non-converged voxels count as failed but do not fail the run
                self.count(0, r.get("nonconverged", 0))


def stage_metrics(workload, size, passes, tally):
    """End-to-end metrics from the timed passes (lists of stage records)."""
    train, _, test = workload.splits[size]
    seconds = {s: statistics.median(p[i]["seconds"] for p in passes)
               for i, s in enumerate(workload.stages)}
    m = {"wall_s": statistics.median(sum(r["seconds"] for r in p) for p in passes)}
    per_stage = {"csd": ("csd_vox_per_s", test), "peaks": ("peaks_vox_per_s", test),
                 "esd-train": ("train_vox_per_s",
                               train * workload.model.get("max_epochs", 0)),
                 "esd-infer": ("infer_vox_per_s", test)}
    for stage, (name, voxels) in per_stage.items():
        if stage in seconds:
            m[name] = voxels / seconds[stage]

    summaries = {r["stage"]: r["summary"] or {} for r in passes[0]}
    evaluate = summaries.get("evaluate", summaries.get("evaluate_kl"))
    sources = {
        "csd_success_rate": (evaluate, "success_rate"),
        "csd_angular_error_deg": (evaluate, "mean_angular_error_deg"),
        "csd_kl": (summaries.get("evaluate_kl"), "kl"),
        "esd_val_loss": (summaries.get("esd-train"), "best_val_loss"),
    }
    for name, (summary, key) in sources.items():
        if summary is None:
            continue  # the workload does not run that stage
        value = summary.get(key)
        ok = isinstance(value, (int, float))
        tally.check(ok, f"{name}: summary field {key} is {value!r}")
        if ok:
            m[name] = float(value)
    if "csd_success_rate" in m:
        floor = workload.success_floor if size == "full" else 0.0
        tally.check(m["csd_success_rate"] >= floor,
                    f"csd_success_rate {m['csd_success_rate']:.4f} below floor {floor}")
    return m


def blas_info():
    """BLAS library, build config and thread count, read from the loaded library."""
    import ctypes

    import numpy as np

    info = {"name": None, "threads": None, "config": None}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["name"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    return info


def provenance(workload, seed, size, seconds, trace):
    import numpy
    import scipy

    sys.path.insert(0, str(ROOT / "src"))
    from sphdecon import _kernels

    backend = getattr(_kernels, "backend", None)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload.name, "seed": seed, "size": size, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend() if callable(backend) else None,
        "blas": blas_info(), "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def timed_run(runner, args, tally):
    workload = runner.workload
    setup_walls, digests, passes, pass_walls = [], [], [], []

    def setup():
        wall, result = runner.child("setup")
        tally.stages(result["setup"])
        if any(r["rc"] != 0 for r in result["setup"]):
            raise BenchError("set-up stage failed")
        setup_walls.append(wall)
        digests.append(data_digest(runner.data))

    def stage_pass():
        wall, result = runner.child("stages")
        tally.stages(result["stages"])
        if len(result["stages"]) != len(workload.stages) or any(
                r["rc"] != 0 for r in result["stages"]):
            raise BenchError("a timed stage failed")
        passes.append(result["stages"])
        pass_walls.append(wall)

    # One set-up before every two stage passes, so that both metrics sample
    # the whole run: the host's speed drifts over tens of seconds. Start
    # another process only while it is expected to end within --seconds.
    t0 = time.perf_counter()
    while True:
        step, walls = ((setup, setup_walls) if 2 * len(setup_walls) <= len(passes)
                       else (stage_pass, pass_walls))
        if passes and time.perf_counter() - t0 + statistics.median(walls) > args.seconds:
            break
        step()
    while len(setup_walls) < MIN_SETUPS:
        setup()
    tally.check(len(set(digests)) == 1, "repeated set-ups wrote different files")

    e2e = {"setup_s": statistics.median(setup_walls)}
    e2e.update(stage_metrics(workload, args.size, passes, tally))
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    info = {"passes": len(passes), "setups": len(setup_walls)}
    return e2e, {name: (e2e[name], E2E_UNITS[name]) for name in RESULT_E2E}, info


def traced_run(runner, args, tally):
    workload = runner.workload
    spans_path = runner.run_dir / "spans.json"
    _, traced = runner.child("traced", "--spans", str(spans_path))
    tally.stages(traced["setup"] + traced.get("stages", []))
    if len(traced.get("stages", [])) != len(workload.stages) or any(
            r["rc"] != 0 for r in traced["setup"] + traced["stages"]):
        raise BenchError("a traced stage failed")
    tally.check(traced["nesting_violations"] == 0,
                f"{traced['nesting_violations']} spans do not nest in their parents")
    _, plain = runner.child("stages")
    tally.stages(plain["stages"])
    if any(r["rc"] != 0 for r in plain["stages"]):
        raise BenchError("a timed stage failed")

    e2e = stage_metrics(workload, args.size, [plain["stages"]], tally)
    traced_wall = sum(r["seconds"] for r in traced["stages"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / e2e["wall_s"]
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
    info = {"spans_file": str(spans_path.relative_to(ROOT)), "unpatched": traced["unpatched"]}
    return e2e, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: minimal voxel counts, no success floor")
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in the children

    if not (ROOT / "src" / "sphdecon" / "io_cli.py").is_file():
        print(f"error: no sphdecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "data").mkdir(parents=True)
    with open(run_dir / "data" / "config.json", "w") as fh:
        json.dump(workload.config(args.seed, args.size), fh)

    runner = Runner(workload, run_dir)
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        e2e, metrics, info = run(runner, args, tally)
    except BenchError as err:
        for problem in tally.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / "data", ignore_errors=True)
    e2e["failed_frac"] = tally.failed / tally.attempted

    report = {
        "provenance": provenance(workload, args.seed, args.size, args.seconds, args.trace),
        "run": info,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "problems": tally.problems,
    }
    if args.trace:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(run_dir / "report.json", "w") as fh:
        json.dump(report, fh, allow_nan=False, indent=1)

    print(f"{workload.name} seed={args.seed} size={args.size} trace={args.trace} "
          + json.dumps(info))
    for name, unit in E2E_UNITS.items():
        if name in e2e:
            print(f"  {name:24s} {e2e[name]:14.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
    for problem in tally.problems:
        print(f"  check failed: {problem}")
    print("provenance " + json.dumps(report["provenance"], allow_nan=False))
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
