"""Smoke test of the benchmark itself: every workload at minimal size, both modes.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size smoke`` with --trace 0 and 1 and
checks that the run exits 0 with a correct result, that the last line holds
exactly the metrics BENCHMARK.json lists for the mode, each with its unit,
and that the run's report names every end-to-end metric the workload's
stages produce. It also checks the trace's zero/non-zero pattern, that
BENCHMARK.json keeps to the benchmark contract, and that the benchmark
fails without printing a result where the program's sources are missing.
Exits 0 when every check passes.
"""

import json
import math
import re
import shutil
import subprocess
import sys

import run
import tracing
import workloads

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
# end-to-end metrics each workload's report must name
_ALL = {"setup_s", "wall_s", "peak_rss_mb", "failed_frac"}
_CSD = _ALL | {"csd_vox_per_s", "peaks_vox_per_s", "csd_success_rate", "csd_angular_error_deg"}
REPORTED = {
    "ssst_csd": _CSD,
    "msmt_csd": _CSD | {"csd_kl"},
    "esd_ssst": _ALL | {"train_vox_per_s", "infer_vox_per_s", "esd_val_loss"},
}

class Checks:
    def __init__(self):
        self.failures = []

    def __call__(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"FAIL: {what}")


def check_spec(expect, spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    for w in spec["workloads"]:
        expect(w["why"] == workloads.WORKLOADS[w["name"]].why and len(w["why"]) <= 200,
               f"why of {w['name']}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    expect(list(e2e) == list(run.RESULT_E2E), "end_to_end names match run.RESULT_E2E")
    for name, m in e2e.items():
        expect(m["unit"] == run.E2E_UNITS[name] and 0 < m["bound"] <= 0.25,
               f"end_to_end {name} unit and bound")
    expect(max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"],
           "setup_s has the largest bound")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == tracing.LAYER_METRICS, "per_layer matches tracing.LAYER_METRICS")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.match(m["name"]) and UNIT.match(m["unit"]), f"name/unit of {m['name']}")


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(expect, spec, workload, trace):
    proc = run_bench(workload, trace)
    tag = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{tag} exit code {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag} result keys")
    expect(result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0,
           f"{tag} correct, attempted, failed")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in declared], f"{tag} metric names")
    for m in declared:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
               and math.isfinite(got["value"]), f"{tag} {m['name']} value and unit")
        if not trace:
            expect(got.get("value", 0) > 0, f"{tag} {m['name']} is positive")

    report_dir = ROOT / ".bench_runs" / f"{workload}-smoke-seed1-trace{trace}"
    report = json.loads((report_dir / "report.json").read_text())
    named = set(report["end_to_end"]) | ({"setup_s"} if trace else set())
    expect(named == REPORTED[workload], f"{tag} report end-to-end metrics {sorted(named)}")
    for name, entry in report["end_to_end"].items():
        expect(entry["unit"] == run.E2E_UNITS[name], f"{tag} report unit of {name}")
    if trace:
        value = {k: v["value"] for k, v in metrics.items()}
        esd_only = [k for k in value
                    if k.startswith(("autodiff.", "kernels.csr_matmul", "esd_net."))]
        if workload == "esd_ssst":
            expect(value["kernels.csr_matmul_s"] > 0.5 * value["io_cli.cmd_esd_train_s"],
                   f"{tag} csr_matmul is most of esd-train")
        else:
            expect(all(value[k] == 0 for k in esd_only), f"{tag} ESD layers read zero")
            expect(value["classical_csd.solves_per_voxel"] > 0, f"{tag} CSD solves counted")


def check_bare_directory(expect):
    """With only BENCHMARK.json and perfbench/, the run must fail without a result."""
    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ssst_csd", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "bare directory: non-zero exit and no result")


def main():
    expect = Checks()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(expect, spec)
    check_bare_directory(expect)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(expect, spec, workload, trace)
            print(f"ran {workload} trace={trace}", flush=True)
    failures = expect.failures
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
