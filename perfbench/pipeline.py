"""One process of a benchmark run: set up a workload, or run its timed stages.

    python3 perfbench/pipeline.py setup  --workload W --dir D --result R
    python3 perfbench/pipeline.py stages --workload W --dir D --result R
    python3 perfbench/pipeline.py traced --workload W --dir D --result R --spans S

``setup`` runs simulate and response; ``stages`` runs the workload's timed
stages on the files a setup left in D; ``traced`` does both under the span
tracer. Every stage is an in-process call of ``sphdecon.io_cli.main(argv)``,
the entry point of the ``sphdecon`` command, so each pays the config
parsing, container I/O, grid builds and cache fills that a CLI call pays.
After each stage its output file is read back and checked (untimed). The
result file is strict JSON. sphdecon must be importable (run.py puts the
checkout's src/ on PYTHONPATH). numpy and sphdecon are imported late, so
that in a traced run the ``io_cli.import`` span covers them.
"""

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

import workloads


def parse_summary(text):
    """The stage's last output line as strict JSON.

    Bare NaN and infinities become null and are counted, so a summary
    that is not strict JSON is reported instead of crashing the parser.
    """
    lines = text.strip().splitlines()
    if not lines:
        return None, 0
    bad = []

    def reject(token):
        bad.append(token)
        return None

    try:
        return json.loads(lines[-1], parse_constant=reject), len(bad)
    except json.JSONDecodeError:
        return None, 1


def run_stage(main, stage, p):
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(workloads.stage_argv(stage, p))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback fails the stage; the run still reports
        traceback.print_exc()
        rc = -1
    seconds = time.perf_counter() - t0
    summary, nulls = parse_summary(out.getvalue())
    return {"stage": stage, "rc": rc, "seconds": seconds, "summary": summary, "nulls": nulls}


def _nonfinite_rows(arrays):
    import numpy as np

    bad = np.zeros(arrays[0].shape[0], bool)
    for a in arrays:
        bad |= ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
    return int(bad.sum())


def check_output(record, p):
    """Read the stage's output back: voxel count, non-finite and non-converged voxels."""
    from sphdecon import io_cli

    stage = record["stage"]
    if stage in ("csd", "esd-infer"):
        field = io_cli.read_fodf(p["csd_fodf" if stage == "csd" else "esd_fodf"])
        record["voxels"] = field.n_voxels
        record["nonfinite"] = _nonfinite_rows(list(field.coeffs.values()))
        if stage == "csd":
            record["nonconverged"] = int((~field.converged).sum())
    elif stage == "peaks":
        # raw block: read_peaks would drop rows whose amplitude is NaN
        _, blocks = io_cli.read_container(p["csd_peaks"])
        record["voxels"] = blocks["peaks"].shape[0]
        record["nonfinite"] = _nonfinite_rows([blocks["peaks"]])


def run_stages(main, stages, p, check=True):
    records = []
    for stage in stages:
        record = run_stage(main, stage, p)
        records.append(record)
        if record["rc"] != 0:
            break  # later stages read this stage's output
        if check:
            check_output(record, p)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "stages", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    p = workloads.paths(args.dir)
    timed = workloads.WORKLOADS[args.workload].stages
    result = {"mode": args.mode}

    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        span = tracer.open("io_cli.import")
        from sphdecon import io_cli

        tracer.close(span)
        tracing.instrument(tracer)
        result["setup"] = run_stages(io_cli.main, workloads.SETUP_STAGES, p, check=False)
        if all(r["rc"] == 0 for r in result["setup"]):
            result["stages"] = run_stages(io_cli.main, timed, p)
        tracer.restore()
        result["layers"], result["nesting_violations"] = tracing.summarize(tracer)
        result["unpatched"] = tracer.missing
        tracing.write_spans(tracer, args.spans)
    else:
        from sphdecon import io_cli

        stages = workloads.SETUP_STAGES if args.mode == "setup" else timed
        result[args.mode] = run_stages(io_cli.main, stages, p, check=args.mode == "stages")

    with open(args.result, "w") as fh:
        json.dump(result, fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
