"""Outside-in tracing of steklab's public functions.

The tracer rebinds each traced public function at the name its caller looks
up (module globals, class attributes, and the two scipy entry points the
spectral layer calls by name), records one span per call, and restores the
originals on uninstall.  Nothing under src/ is changed.  Counters come only
from the traced functions' return values; call counts come from the spans.

A span is [name, start, end, parent span index or -1, job id].  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import scipy.linalg

from steklab import cli, intersection, packing, spectral
from steklab.mesh import EmbeddedMesh

# (owner, attribute looked up by the caller, span name)
TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "generate_mesh", "families.generate_mesh"),
    (cli, "geometric_summary", "families.geometric_summary"),
    (cli, "solve_steklov", "spectral.solve_steklov"),
    (cli, "write_report", "report.write_report"),
    (EmbeddedMesh, "load", "mesh.load"),
    (EmbeddedMesh, "save", "mesh.save"),
    (EmbeddedMesh, "validate", "mesh.validate"),
    (EmbeddedMesh, "boundary_components", "mesh.boundary_components"),
    (spectral, "solve_steklov", "spectral.solve_steklov"),
    (spectral, "assemble_operators", "spectral.assemble_operators"),
    (spectral, "splu", "spectral.factorize"),
    (scipy.linalg, "eigh", "spectral.eigensolve"),
    (packing, "solve_steklov", "spectral.solve_steklov"),
    (packing, "assemble_operators", "spectral.assemble_operators"),
    (packing, "rayleigh_from_operators", "spectral.rayleigh_from_operators"),
    (packing, "cell_gradient_norms", "packing.cell_gradient_norms"),
    (packing, "certify_sigma_k", "packing.certify_sigma_k"),
    (packing, "resolve_covering_constant", "packing.resolve_covering_constant"),
    (packing, "empirical_covering_constant", "packing.empirical_covering_constant"),
    (packing, "build_packing", "packing.build_packing"),
    (packing, "max_ball_measure", "packing.max_ball_measure"),
    (intersection, "estimate_index", "intersection.estimate_index"),
    (intersection, "plane_mesh_intersections", "intersection.plane_count"),
    (intersection, "concentration_audit", "intersection.concentration_audit"),
]

# per-layer metrics taken from the spans: total seconds (.s), self seconds
# (.self_s) or calls (.calls) per job
SPAN_METRICS = [
    "cli.main.self_s",
    "report.write_report.s",
    "families.generate_mesh.s",
    "families.generate_mesh.self_s",
    "families.geometric_summary.s",
    "mesh.validate.s",
    "mesh.validate.calls",
    "mesh.load.s",
    "mesh.save.s",
    "mesh.boundary_components.s",
    "spectral.solve_steklov.s",
    "spectral.solve_steklov.calls",
    "spectral.solve_steklov.self_s",
    "spectral.assemble_operators.s",
    "spectral.factorize.s",
    "spectral.factorize.calls",
    "spectral.eigensolve.s",
    "intersection.estimate_index.s",
    "intersection.estimate_index.self_s",
    "intersection.plane_count.s",
    "intersection.plane_count.calls",
    "intersection.concentration_audit.s",
    "packing.certify_sigma_k.s",
    "packing.certify_sigma_k.self_s",
    "packing.resolve_covering_constant.s",
    "packing.empirical_covering_constant.s",
    "packing.build_packing.s",
    "packing.max_ball_measure.s",
    "packing.cell_gradient_norms.s",
]


class Tracer:
    """Span recorder that wraps the TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self.jobs = {}  # job id -> job kind
        self.counters = {}  # job id -> {counter: [values, one per call]}
        self._stack = []
        self._job = None
        self._saved = []
        self._lus = []

    # -- installation ------------------------------------------------------

    def install(self, job_id: int, kind: str) -> None:
        self._job = job_id
        self.jobs[job_id] = kind
        self.counters[job_id] = {}
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        # L and U are built on access, so count them after the job's clock stopped
        for lu in self._lus:
            self._count("spectral.lu_nnz", lu.L.nnz + lu.U.nnz)
        self._lus = []
        self._stack = []
        self._job = None

    def _wrap(self, name, fn):
        tracer = self
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer._job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- counters from return values -----------------------------------------

    def _count(self, key, value) -> None:
        self.counters[self._job].setdefault(key, []).append(value)

    def _on_spectral_solve_steklov(self, result) -> None:
        self._count("spectral.dof_boundary", result.dof_boundary)
        self._count("spectral.dof_interior", result.dof_interior)
        self._count("spectral.residual_max", float(result.residuals.max()))

    def _on_spectral_assemble_operators(self, result) -> None:
        self._count("spectral.stiffness_nnz", result[0].nnz)

    def _on_spectral_factorize(self, lu) -> None:
        self._lus.append(lu)

    def _on_intersection_estimate_index(self, estimate) -> None:
        self._count("intersection.samples", estimate.samples)
        self._count("intersection.rejections", estimate.degeneracy_rejections)

    def _on_intersection_concentration_audit(self, report) -> None:
        self._count("intersection.audit_trials", report.trials)

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for job_id, kind in self.jobs.items():
                fh.write(json.dumps({"job": job_id, "kind": kind}) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics, per job: median over a kind's traced jobs, mean over kinds.

        Counter values (DOFs, nnz) are per call.  Rates and ratios pool every
        traced job.  A layer that does not run on the workload reports 0.
        """
        per_job = {job: {} for job in self.jobs}
        for name, start, end, parent, job in self.spans:
            stats = per_job[job]
            stats[name + ".s"] = stats.get(name + ".s", 0.0) + end - start
            stats[name + ".self_s"] = stats.get(name + ".self_s", 0.0) + end - start
            stats[name + ".calls"] = stats.get(name + ".calls", 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                stats[pname + ".self_s"] -= end - start
        for job, counters in self.counters.items():
            for key, values in counters.items():
                per_job[job][key] = statistics.fmean(values)
        kinds = sorted(set(self.jobs.values()))

        def per_kind_mean(key):
            medians = [
                statistics.median(per_job[j].get(key, 0.0) for j in per_job if self.jobs[j] == kind)
                for kind in kinds
            ]
            return statistics.fmean(medians)

        def pooled(key):
            return sum(stats.get(key, 0.0) for stats in per_job.values())

        def pooled_count(key):
            return sum(sum(counters.get(key, ())) for counters in self.counters.values())

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        out = {key: per_kind_mean(key) for key in SPAN_METRICS}
        for key in ("spectral.lu_nnz", "spectral.dof_boundary", "spectral.dof_interior",
                    "spectral.stiffness_nnz"):
            out[key] = per_kind_mean(key)
        out["packing.covering_trials"] = per_kind_mean("packing.empirical_covering_constant.calls")
        out["spectral.residual_max"] = max(
            (max(c.get("spectral.residual_max", [0.0])) for c in self.counters.values()),
            default=0.0,
        )
        out["intersection.planes_per_s"] = ratio(
            pooled("intersection.plane_count.calls"), pooled("intersection.plane_count.s")
        )
        samples = pooled_count("intersection.samples")
        out["intersection.accept_ratio"] = ratio(
            samples, samples + pooled_count("intersection.rejections")
        )
        out["intersection.audit_trials_per_s"] = ratio(
            pooled_count("intersection.audit_trials"), pooled("intersection.concentration_audit.s")
        )
        return out
