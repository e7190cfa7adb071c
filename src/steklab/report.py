"""Structured run reports and delimited tables.

Every CLI run emits one JSON report with a fixed schema: tool version, the
full parameter echo (defaults included), the seed, the wall time of the run
and a payload produced by the library call.  Payloads of deterministic runs
reproduce bit-for-bit across identical invocations; the wall time lives
outside the payload so it never breaks that.  Every output, mesh documents
included, is written through `open_output`.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager

from . import __version__
from .errors import NumericalError, UsageError

REPORT_SCHEMA_VERSION = 1
TABLE_HEADER = ["k", "epsilon", "value", "bound", "satisfied"]


@contextmanager
def open_output(path, newline=None):
    """Text stream to the file at `path`, or to standard output when it is None.

    An OSError raised while opening, writing or flushing becomes the
    UsageError "cannot write <path>: <reason>" ("the report" for stdout).
    """
    name = "the report" if path is None else path
    try:
        if path is not None:
            with open(path, "w", newline=newline) as fh:
                yield fh
        elif sys.stdout is None:  # started with file descriptor 1 closed
            raise UsageError(f"cannot write {name}: there is no standard output")
        else:
            yield sys.stdout
            sys.stdout.flush()  # so a closed pipe fails here, not at interpreter exit
    except OSError as exc:
        raise UsageError(f"cannot write {name}: {exc.strerror or exc}") from exc


def run_report(command: str, parameters: dict, payload, seed=None, wall_times=None) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "steklab",
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "wall_time_s": wall_times or {},
        "payload": payload,
    }


def write_report(doc: dict, path=None) -> None:
    """Write the report as strict JSON; NumericalError on a non-finite number."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"the report holds a non-finite number ({exc})") from exc
    with open_output(path) as fh:
        fh.write(text + "\n")


def write_table(path, rows) -> None:
    """CSV table with the fixed header (k, epsilon, value, bound, satisfied).

    Each row is a mapping; missing columns are left blank.
    """
    with open_output(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_HEADER, restval="")
        writer.writeheader()
        writer.writerows(rows)


def write_boundary_traces(path, result) -> None:
    """CSV of eigenvector boundary traces keyed by boundary vertex index."""
    vecs = result.eigenvectors_boundary
    with open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["boundary_vertex"] + [f"mode_{j}" for j in range(vecs.shape[1])])
        for idx, row in zip(result.boundary_vertices, vecs):
            writer.writerow([int(idx)] + [repr(float(v)) for v in row])
