"""Run every benchmark workload, each in a fresh process, and print one table.

    python3 perfbench/summary.py --seed 1 --seconds 30 --trace 0

Run it from the repository root.  With --trace 0 the table holds wall_s,
setup_s, peak_rss_mib and fail_ratio with their units for each workload;
with --trace 1 it holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.splitlines()[-1])

    first = next(iter(results.values()))["metrics"]
    rows = [(name, first[name]["unit"],
             [f"{r['metrics'][name]['value']:.6g}" for r in results.values()])
            for name in first]
    rows.append(("fail_ratio", "failed/attempted",
                 [f"{r['failed']}/{r['attempted']}" for r in results.values()]))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'metric':<{width}}  {'unit':<16}" + "".join(f"{w:>16}" for w in results))
    for name, unit, cells in rows:
        print(f"{name:<{width}}  {unit:<16}" + "".join(f"{c:>16}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
