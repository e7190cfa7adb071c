"""The benchmark's three workloads: set-up, jobs and output gates.

Each set-up function writes its inputs under a work directory and returns
the workload's fixed job list.  A job's `run` starts from a mesh file loaded
inside the job, so nothing cached on a mesh object carries over from one job
to the next; `check` returns None when the output passes its gate and a
reason otherwise.  Gates use the acceptance suite's tolerances.

Jobs call steklab through module attributes (`spectral.solve_steklov`, ...)
so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from steklab import bounds, cli, closed_forms, intersection, packing, spectral
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.mesh import EmbeddedMesh
from steklab.spectral import SpectralProblem


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def job_seed(seed: int, index: int) -> int:
    """Seed of the index-th job of a workload, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _spectrum_gate(got, reference) -> Optional[str]:
    """sigma_0 <= 1e-8 and every later eigenvalue within 1% of the reference."""
    if len(got) != len(reference):
        return f"{len(got)} eigenvalues, expected {len(reference)}"
    if got[0] > 1e-8:
        return f"sigma_0 = {got[0]:.3e} > 1e-8"
    for k in range(1, len(got)):
        if abs(got[k] - reference[k]) > 0.01 * reference[k]:
            return f"sigma_{k} = {got[k]:.6f}, reference {reference[k]:.6f} (1%)"
    return None


# -- mesh-spectrum -------------------------------------------------------------

# criteria 1-3: (kind, `steklab mesh` arguments, `steklab spectrum` arguments)
MESH_SPECTRUM = [
    ("disk", ["--family", "disk", "--n", "2", "--delta", "1", "--h", "0.05"], ["--kmax", "6"]),
    (
        "annulus",
        ["--family", "annulus", "--n", "2", "--eps", "1", "--delta", "2", "--h", "0.05"],
        ["--kind", "steklov-neumann", "--kmax", "1"],
    ),
    ("cylinder", ["--family", "cylinder", "--radius", "1", "--L", "1", "--h", "0.05"], ["--kmax", "5"]),
]


def _cli_job(workdir, kind, mesh_args, spectrum_args, reference) -> Job:
    mesh_file = os.path.join(workdir, f"{kind}.json")
    mesh_report = os.path.join(workdir, f"{kind}-mesh-report.json")
    spectrum_report = os.path.join(workdir, f"{kind}-spectrum-report.json")

    def run():
        for path in (mesh_file, mesh_report, spectrum_report):
            if os.path.exists(path):
                os.remove(path)
        return (
            cli.main(["mesh", *mesh_args, "--mesh-out", mesh_file, "--out", mesh_report]),
            cli.main(["spectrum", "--mesh", mesh_file, *spectrum_args, "--out", spectrum_report]),
        )

    def check(codes):
        if codes != (0, 0):
            return f"exit codes {codes}"
        with open(spectrum_report) as fh:
            return _spectrum_gate(json.load(fh)["payload"]["eigenvalues"], reference)

    return Job(kind, run, check)


def setup_mesh_spectrum(workdir: str, seed: int) -> list[Job]:
    """The everyday CLI path; deterministic, so the seed is not used."""
    lams = closed_forms.expand_multiplicities(closed_forms.sphere_laplace_spectrum(2, 1.0, 6))
    references = {
        "disk": closed_forms.disk_steklov_spectrum(1.0, 7),
        "annulus": [0.0, closed_forms.annulus_sn_eigenvalue(2, 1.0, 2.0, 1)],
        "cylinder": closed_forms.cylinder_steklov_spectrum(lams, 1.0, 6),
    }
    return [
        _cli_job(workdir, kind, mesh_args, spectrum_args, references[kind])
        for kind, mesh_args, spectrum_args in MESH_SPECTRUM
    ]


# -- certify-graded ------------------------------------------------------------

# criterion 7: (kind, boundary-graded mesh, problem kind)
CERTIFY = [
    ("disk", FamilyDescriptor("ball-flat", h=0.15, n=2, delta=1.0, h_boundary=0.9 / 288), "steklov"),
    (
        "annulus",
        FamilyDescriptor("annulus-flat", h=0.15, n=2, eps=1.0, delta=2.0, h_boundary=0.9 / 288),
        "steklov-neumann",
    ),
    (
        "cylinder",
        FamilyDescriptor("cylinder-surface", h=0.15, radius=1.0, length=1.0, h_boundary=0.9 / 144),
        "steklov",
    ),
]
CERTIFY_KS = (1, 2, 3)
I_SIGMA = 2


def _certify_job(kind, path, problem, seed, mesh) -> Job:
    n, m, volume_m = mesh.intrinsic_dim, mesh.ambient_dim, mesh.volume()
    config = packing.ConstantsConfig(use_empirical=True)

    def run():
        loaded = EmbeddedMesh.load(path)
        operators = spectral.assemble_operators(loaded)
        fem = spectral.solve_steklov(SpectralProblem(loaded, problem, k_max=max(CERTIFY_KS)))
        return [
            packing.certify_sigma_k(
                loaded, k, config, i_sigma=I_SIGMA, seed=seed, operators=operators,
                fem_sigma_k=float(fem.eigenvalues[k]),
            )
            for k in CERTIFY_KS
        ]

    def check(certs):
        for k, cert in zip(CERTIFY_KS, certs):
            rhs = bounds.volume_bound(bounds.BoundInputs(
                n=n, m=m, volume_m=volume_m, volume_sigma=cert.total_boundary_volume,
                i_m=1, i_sigma=I_SIGMA, k=k, covering=cert.c_cover,
            ))
            target = cert.total_boundary_volume / (2 * cert.c_cover * (2 * k + 2))
            if not cert.valid:
                return f"k={k}: certificate not valid"
            if np.any(cert.set_measures < target * (1 - 1e-12)):
                return f"k={k}: a set measure is below the target {target:.4e}"
            if cert.separation < 3 * cert.r * (1 - 1e-12):
                return f"k={k}: separation {cert.separation:.4e} < 3r"
            if not cert.sigma_k_fem <= cert.certified_bound <= rhs:
                return (f"k={k}: chain {cert.sigma_k_fem:.4f} <= {cert.certified_bound:.4f} "
                        f"<= {rhs:.4g} broken")
        return None

    return Job(kind, run, check)


def setup_certify_graded(workdir: str, seed: int) -> list[Job]:
    jobs = []
    for index, (kind, desc, problem) in enumerate(CERTIFY):
        mesh = generate_mesh(desc)
        path = os.path.join(workdir, f"{kind}-graded.json")
        mesh.save(path)
        jobs.append(_certify_job(kind, path, problem, job_seed(seed, index), mesh))
    return jobs


# -- index-audit ---------------------------------------------------------------

INDEX_MESHES = {
    "circle": FamilyDescriptor("sphere-boundary", h=0.05, n=2, eps=1.0),
    "torus": FamilyDescriptor("torus-surface", h=0.22, major_radius=2.0, minor_radius=1.0),
    "torus-coarse": FamilyDescriptor("torus-surface", h=0.3, major_radius=2.0, minor_radius=1.0),
    "revolution": FamilyDescriptor("revolution-closure", h=0.22, n=2, eps=0.5, delta=2.0),
}
INDEX_SAMPLES = 1000
AUDIT_TRIALS = 200
AUDIT_CAP = 1.05
# (job kind, mesh, smooth index, whether the PL mesh keeps to it): the PL
# torus has planes with more than 4 transverse hits (see the README), so its
# estimate runs without the degree bound and the gate recounts the witness
INDEX_JOBS = [("circle-index", "circle", 2, True), ("torus-index", "torus", 4, False)]
AUDIT_JOBS = [
    ("torus-audit", "torus-coarse", 4),
    ("revolution-audit", "revolution", 6),
    ("circle-audit", "circle", 2),
]


def line_hits(plane, mesh) -> int:
    """Transverse hits of a line with a triangle mesh in R^3 (Moller-Trumbore).

    An independent recount for the torus gate; it shares no code with
    steklab's barycentric plane counter.
    """
    rows = plane.normal_rows
    origin = rows.T @ plane.offset
    direction = np.cross(rows[0], rows[1])
    tri = mesh.vertices[mesh.cells]
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    p = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, p)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = origin - tri[:, 0]
    u = np.einsum("ij,ij->i", s, p) * inv
    v = np.einsum("j,ij->i", direction, np.cross(s, e1)) * inv
    return int(np.count_nonzero(ok & (u > 0) & (v > 0) & (u + v < 1)))


def _index_job(kind, path, seed, index, bound_holds) -> Job:
    def run():
        mesh = EmbeddedMesh.load(path)
        return mesh, intersection.estimate_index(
            mesh, samples=INDEX_SAMPLES, seed=seed, degree_bound=index if bound_holds else None
        )

    def check(output):
        mesh, estimate = output
        if bound_holds:
            if estimate.sampled_max != index:
                return f"sampled index {estimate.sampled_max}, expected {index}"
            return None
        hits = line_hits(estimate.witness_plane, mesh)
        if estimate.sampled_max < index or hits != estimate.sampled_max:
            return (f"sampled index {estimate.sampled_max}, independent recount {hits}, "
                    f"expected at least {index}")
        return None

    return Job(kind, run, check)


def _audit_job(kind, path, seed, index_bound) -> Job:
    def run():
        return intersection.concentration_audit(
            EmbeddedMesh.load(path), index_bound, trials=AUDIT_TRIALS, seed=seed
        )

    def check(report):
        if report.trials != AUDIT_TRIALS or not report.worst_ratio <= AUDIT_CAP:
            return f"worst ratio {report.worst_ratio:.4f} over {report.trials} trials"
        return None

    return Job(kind, run, check)


def setup_index_audit(workdir: str, seed: int) -> list[Job]:
    paths = {}
    for name, desc in INDEX_MESHES.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        generate_mesh(desc).save(paths[name])
    jobs = [
        _index_job(kind, paths[mesh], job_seed(seed, i), index, bound_holds)
        for i, (kind, mesh, index, bound_holds) in enumerate(INDEX_JOBS)
    ]
    jobs += [
        _audit_job(kind, paths[mesh], job_seed(seed, len(INDEX_JOBS) + i), bound)
        for i, (kind, mesh, bound) in enumerate(AUDIT_JOBS)
    ]
    return jobs


# name -> (set-up, whether the workload seed changes the inputs)
SETUPS = {
    "mesh-spectrum": (setup_mesh_spectrum, False),
    "certify-graded": (setup_certify_graded, True),
    "index-audit": (setup_index_audit, True),
}
