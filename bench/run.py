"""Benchmark of noise_radiance: one workload per run, one thread, one process.

Run from the repository root:

    python3 bench/run.py --workload spectrum-3d --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory.  A run
sets up, runs one untimed warm-up round, then times whole rounds of
operations until ``--seconds`` of operation time has passed.  Every output
is checked against an independent reference outside the timed region.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (work_per_s,
op_p50_s, peak_rss_mb, setup_s); with ``--trace 1`` a fixed number of
rounds runs under ``tracing.Tracer`` and the metrics are per layer.  The
full record of each run is also written to ``.bench_out/``.
"""
from __future__ import annotations

import os

# one thread everywhere, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NOISE_RADIANCE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("spectrum-3d", "compare-gaussian", "mc-two-level", "validate-tabulated")

#: set-ups per run; setup_s reports the import time plus their median
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(ops, record) -> None:
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an operation that crashes counts as failed
            out = exc
        record(op, time.perf_counter() - start, out)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "noise_radiance" / "__init__.py").is_file():
        print(f"error: no noise_radiance package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import noise_radiance
    import workloads

    if Path(noise_radiance.__file__).resolve().parent != (src / "noise_radiance").resolve():
        print(f"error: noise_radiance imported from {noise_radiance.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wdir = workdir / f"setup{rep}"
            wdir.mkdir(parents=True)
            workload = workloads.WORKLOADS[args.workload](args.seed, wdir)
            workload.prepare()
            setup_times.append(time.perf_counter() - t0)
        setup = {"setup_s": import_s + statistics.median(setup_times), "import_s": import_s,
                 "setup_repeats_s": setup_times}
        return measure(args, workload, setup, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()


def measure(args, workload, setup: dict, root: Path) -> int:
    import tracing
    import workloads  # already loaded by main(), with src/ on the path

    times: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    errors: list[str] = []
    tally = {"attempted": 0, "failed": 0, "work": 0}

    def record(op, elapsed, out):
        times.append(elapsed)
        kinds.append(op.kind)
        tally["attempted"] += 1
        try:
            ok = not isinstance(out, Exception) and op.check(out)
        except workloads.CheckFailed as exc:
            errors.append(str(exc))
            ok = True  # it ran; its output was wrong, which `correct` reports
        if ok:
            tally["work"] += op.work
        else:
            tally["failed"] += 1
            failures.append(f"{op.kind}: {out.stderr.strip() if hasattr(out, 'stderr') else out!r}")

    def warm_up_record(op, elapsed, out):
        try:
            if not isinstance(out, Exception):
                op.check(out)
        except workloads.CheckFailed as exc:
            errors.append(str(exc))

    run_round(workload.round(0), warm_up_record)
    gc.collect()

    index = 1
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for _ in range(workload.trace_rounds):
                run_round(workload.round(index), record)
                index += 1
        finally:
            tracer.uninstall()
    else:
        while sum(times) < args.seconds:
            run_round(workload.round(index), record)
            index += 1
    try:
        figures = workload.finish()
    except workloads.CheckFailed as exc:
        errors.append(str(exc))
        figures = {}

    timed = sum(times)
    if tracer is not None:
        units = tracing.metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.metrics().items()}
    else:
        metrics = {
            "work_per_s": {"value": tally["work"] / timed, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
        }
    result = {
        "correct": not errors,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    record_file = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "errors": errors,
        "failures": sorted(set(failures)), "checks": figures, "op_times_s": times,
        "op_kinds": kinds, "timed_s": timed, "work": tally["work"], **setup,
    }
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (out_dir / name).write_text(json.dumps(record_file, indent=1) + "\n")
    for line in errors[:5]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
