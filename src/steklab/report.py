"""Structured run reports and delimited tables.

Every CLI run emits one JSON report with a fixed schema: tool version, the
full parameter echo (defaults included), the seed, per-stage wall times and
a payload produced by the library call.  Payloads of deterministic stages
reproduce bit-for-bit across identical invocations; wall times live outside
the payload so they never break that.
"""

from __future__ import annotations

import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import NumericalError, UsageError

REPORT_SCHEMA_VERSION = 1
TABLE_HEADER = ["k", "epsilon", "value", "bound", "satisfied"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class StageTimer:
    """Collects named wall times for the report."""

    def __init__(self):
        self.times = {}

    def stage(self, name: str):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                timer.times[name] = timer.times.get(name, 0.0) + time.perf_counter() - self.t0
                return False

        return _Ctx()


def run_report(command: str, parameters: dict, payload, seed=None, wall_times=None) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "steklab",
        "tool_version": __version__,
        "command": command,
        "parameters": _jsonable(parameters),
        "seed": seed,
        "wall_time_s": _jsonable(wall_times or {}),
        "payload": _jsonable(payload),
    }


def write_report(doc: dict, path=None) -> None:
    """Write the report as strict JSON; NumericalError on a non-finite number."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"the report holds a non-finite number ({exc})") from exc
    if path is None:
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise UsageError("cannot write the report: there is no standard output")
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def write_table(path, rows) -> None:
    """CSV table with the fixed header (k, epsilon, value, bound, satisfied).

    Each row is a mapping; missing columns are left blank.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_HEADER, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _jsonable(v) for k, v in row.items() if k in TABLE_HEADER})


def write_boundary_traces(path, result) -> None:
    """CSV of eigenvector boundary traces keyed by boundary vertex index."""
    vecs = result.eigenvectors_boundary
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary_vertex"] + [f"mode_{j}" for j in range(vecs.shape[1])])
        for idx, row in zip(result.boundary_vertices, vecs):
            writer.writerow([int(idx)] + [repr(float(v)) for v in row])
