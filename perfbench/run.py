"""Run one steklab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-graded --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It uses the sources under src/ as they
are, single-threaded (STEKLAB_THREADS=1 and the BLAS pools pinned to one
thread before steklab is imported), as a closed loop of one job at a time.

Set-up (imports, set-up meshes, reference values) runs SETUP_REPEATS times;
setup_s is the import time plus the median set-up.  The timed phase runs
whole passes over the workload's job list, at least one, and starts another
pass only while it expects that pass to end within --seconds.  Every output
is checked; a job that raises or misses its gate counts as failed and the
run goes on.  wall_s is the time to finish the job list once, as the sum of
each job's median time.  peak_rss_mib is this process's high-water mark.

With --trace 1 each job runs untraced and then traced (see spans.py), and
the result holds the per-layer metrics instead; run.trace_overhead_s is the
traced minus the untraced wall_s.  The spans are written to
.perfbench/trace-<workload>-seed<seed>.jsonl.

The last line of stdout is the JSON result; the lines above it repeat the
metrics with their units.  Exit code 0 after a run, 2 when the arguments or
the steklab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("mesh-spectrum", "certify-graded", "index-audit")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in ("intersection.accept_ratio", "spectral.residual_max"):
        return "1"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_job(job, tracer, job_id):
    """Run one job (traced when a tracer is given); return (seconds, failure or None)."""
    if tracer is not None:
        tracer.install(job_id, job.kind)
    start = time.perf_counter()
    try:
        output = job.run()
    except Exception:  # a failing job is counted, and the run goes on
        seconds = time.perf_counter() - start
        return seconds, "raised\n" + traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = time.perf_counter() - start
    try:
        failure = job.check(output)
    except Exception:
        failure = "check raised\n" + traceback.format_exc()
    return seconds, failure


def measure(jobs, seconds, tracer):
    """Closed loop over whole passes of the job list; returns per-kind timings."""
    untraced = {job.kind: [] for job in jobs}
    traced = {job.kind: [] for job in jobs}
    attempted = failed = passes = 0
    modes = (None, tracer) if tracer is not None else (None,)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for job in jobs:
            for mode in modes:
                took, failure = run_job(job, mode, attempted)
                attempted += 1
                (untraced if mode is None else traced)[job.kind].append(took)
                if failure is not None:
                    failed += 1
                    print(f"FAILED {job.kind}: {failure}", file=sys.stderr)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return untraced, traced, attempted, failed, passes, now - start


def list_time(timings) -> float:
    return sum(statistics.median(values) for values in timings.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "steklab" / "__init__.py").is_file():
        print(f"error: no steklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["STEKLAB_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import_start = time.perf_counter()
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - import_start
    setup, uses_seed = workloads.SETUPS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            jobs = setup(workdir, args.seed)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        tracer = Tracer() if args.trace else None
        cpu_start = cpu_seconds()
        untraced, traced, attempted, failed, passes, timed_s = measure(
            jobs, args.seconds, tracer
        )
        cpu_s = cpu_seconds() - cpu_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "wall_s": list_time(untraced),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = tracer.layer_metrics()
        metrics["run.cpu_s"] = cpu_s
        metrics["run.timed_s"] = timed_s
        metrics["run.trace_overhead_s"] = list_time(traced) - list_time(untraced)
        units = {name: layer_unit(name) for name in metrics}
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    print(f"workload {args.workload}: {len(jobs)} jobs per pass, {passes} passes, "
          f"seed {args.seed}" + ("" if uses_seed else " (deterministic; seed not used)"))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {failed}/{attempted} failed/attempted")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
