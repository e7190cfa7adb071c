"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each criterion asserts its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_rotation, submesh
from steklab.bounds import (
    BoundInputs,
    blowup_experiment,
    evaluate_bounds,
    fit_asymptotics,
    injectivity_bound,
    isoperimetric_bound,
    obstruction_experiment,
    volume_bound,
)
from steklab.closed_forms import (
    annulus_sn_eigenvalue,
    cylinder_steklov_spectrum,
    disk_steklov_spectrum,
    expand_multiplicities,
    separated_mode_sn_eigenvalue,
    sphere_laplace_spectrum,
)
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.intersection import concentration_audit, degree_upper_bound, estimate_index
from steklab.mesh import STEKLOV, EmbeddedMesh
from steklab.packing import ConstantsConfig, certify_sigma_k
from steklab.spectral import SpectralProblem, assemble_operators, solve_steklov


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def certification_setups():
    """Boundary-graded meshes for the certificate criterion, with FEM data."""
    setups = {}
    cases = {
        "disk": (
            FamilyDescriptor("ball-flat", h=0.15, n=2, delta=1.0, h_boundary=0.9 / 288),
            "steklov",
        ),
        "annulus": (
            FamilyDescriptor(
                "annulus-flat", h=0.15, n=2, eps=1.0, delta=2.0, h_boundary=0.9 / 288
            ),
            "steklov-neumann",
        ),
        "cylinder": (
            FamilyDescriptor(
                "cylinder-surface", h=0.15, radius=1.0, length=1.0, h_boundary=0.9 / 144
            ),
            "steklov",
        ),
    }
    for name, (desc, kind) in cases.items():
        mesh = generate_mesh(desc)
        operators = assemble_operators(mesh)
        fem = solve_steklov(SpectralProblem(mesh, kind, k_max=3))
        setups[name] = (mesh, operators, fem)
    return setups


# -- criteria ------------------------------------------------------------------


def test_criterion_1_disk_oracle():
    t0 = time.monotonic()
    mesh = generate_mesh(FamilyDescriptor("ball-flat", h=0.05, n=2, delta=1.0))
    got = solve_steklov(SpectralProblem(mesh, "steklov", k_max=6)).eigenvalues
    elapsed = time.monotonic() - t0
    exact = np.array(disk_steklov_spectrum(1.0, 7))
    rel = np.abs(got[1:] - exact[1:]) / exact[1:]
    ok = got[0] <= 1e-8 and rel.max() <= 0.01 and elapsed <= 60.0
    report(
        "criterion 1 (disk oracle)",
        ok,
        f"max rel err {rel.max():.2e} vs (0,1,1,2,2,3,3), sigma0 {got[0]:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_annulus_mixed_mode(annulus_mesh):
    fem = solve_steklov(SpectralProblem(annulus_mesh, "steklov-neumann", k_max=1))
    sigma = fem.eigenvalues[1]
    radial = separated_mode_sn_eigenvalue(2, 1.0, 2.0, mu=1.0, lam=0.0, resolution=4096)
    ok = abs(sigma - 0.6) <= 0.006 and abs(radial - 0.6) <= 1e-4
    report(
        "criterion 2 (mixed annulus mode)",
        ok,
        f"FEM {sigma:.5f} (exact 0.6), radial solver err {abs(radial - 0.6):.1e}",
    )


def test_criterion_3_cylinder_closed_form(cylinder_spectrum):
    t = math.tanh(0.5)
    exact = [0.0, t, t, 2 * math.tanh(1.0), 2 * math.tanh(1.0), 2.0]
    lams = expand_multiplicities(sphere_laplace_spectrum(2, 1.0, 6))
    oracle = cylinder_steklov_spectrum(lams, 1.0, 6)
    got = cylinder_spectrum.eigenvalues
    oracle_exact = np.allclose(oracle, exact, rtol=1e-12, atol=1e-12)
    rel = np.abs(got[1:] - np.array(exact[1:])) / np.array(exact[1:])
    ok = bool(oracle_exact and got[0] <= 1e-8 and rel.max() <= 0.01)
    report(
        "criterion 3 (cylinder closed form)",
        ok,
        f"FEM max rel err {rel.max():.2e}; oracle list exact: {oracle_exact}",
    )


def test_criterion_4_asymptotics():
    disk = fit_asymptotics(disk_steklov_spectrum(1.0, 202), 2, 2 * math.pi, 20, 200)
    lams = expand_multiplicities(sphere_laplace_spectrum(2, 1.0, 140))
    cyl = fit_asymptotics(
        cylinder_steklov_spectrum(lams, 1.0, 202), 2, 4 * math.pi, 20, 200
    )
    ok = (
        abs(disk.exponent - 1.0) <= 0.05
        and abs(cyl.exponent - 1.0) <= 0.05
        and abs(disk.coefficient - disk.reference_coefficient)
        <= 0.1 * disk.reference_coefficient
        and abs(cyl.coefficient - cyl.reference_coefficient)
        <= 0.1 * cyl.reference_coefficient
    )
    report(
        "criterion 4 (eigenvalue growth fit)",
        ok,
        f"disk ({disk.exponent:.3f}, {disk.coefficient:.3f} vs 0.5), "
        f"cylinder ({cyl.exponent:.3f}, {cyl.coefficient:.3f} vs 0.25)",
    )


def test_criterion_5_index_estimation(circle_mesh, torus_mesh):
    circle = estimate_index(circle_mesh, samples=1000, seed=7, degree_bound=2)
    torus = estimate_index(torus_mesh, samples=10000, seed=11, degree_bound=4)
    union = [
        degree_upper_bound([[1, 2]]),
        degree_upper_bound([[1, 2]]),
        degree_upper_bound([[4, 2]]),
        degree_upper_bound([[1, 2], [1, 2], [4, 2]]),
    ]
    ok = (
        circle.sampled_max == 2
        and torus.sampled_max == 4
        and union == [2, 2, 8, 12]
    )
    report(
        "criterion 5 (index estimation)",
        ok,
        f"circle {circle.sampled_max}/2, torus {torus.sampled_max}/4, union {union}",
    )


def test_criterion_6_concentration_audit(circle_mesh):
    torus = generate_mesh(
        FamilyDescriptor("torus-surface", h=0.3, major_radius=2.0, minor_radius=1.0)
    )
    revolution = generate_mesh(
        FamilyDescriptor("revolution-closure", h=0.22, n=2, eps=0.5, delta=2.0)
    )
    worst = {}
    for name, mesh, bound in (
        ("circle", circle_mesh, 2),
        ("torus", torus, 4),
        ("revolution", revolution, 6),
    ):
        worst[name] = concentration_audit(mesh, bound, trials=10000, seed=3).worst_ratio
    ok = all(v <= 1.05 for v in worst.values())
    report(
        "criterion 6 (concentration audit)",
        ok,
        ", ".join(f"{k} {v:.3f}" for k, v in worst.items()) + " (cap 1.05)",
    )


def test_criterion_7_packing_certificates(certification_setups):
    config = ConstantsConfig(use_empirical=True)
    lines = []
    ok = True
    for name, (mesh, operators, fem) in certification_setups.items():
        for k in (1, 2, 3):
            cert = certify_sigma_k(
                mesh,
                k,
                config,
                i_sigma=2,
                operators=operators,
                fem_sigma_k=float(fem.eigenvalues[k]),
            )
            rhs = volume_bound(
                BoundInputs(
                    n=mesh.intrinsic_dim,
                    m=mesh.ambient_dim,
                    volume_m=mesh.volume(),
                    volume_sigma=cert.total_boundary_volume,
                    i_m=1,
                    i_sigma=2,
                    k=k,
                    covering=cert.c_cover,
                )
            )
            target = cert.total_boundary_volume / (2 * cert.c_cover * (2 * k + 2))
            lemma_ok = bool(
                np.all(cert.set_measures >= target * (1 - 1e-12))
                and cert.separation >= 3 * cert.r * (1 - 1e-12)
            )
            chain_ok = cert.sigma_k_fem <= cert.certified_bound <= rhs
            ok = ok and cert.valid and lemma_ok and chain_ok
            lines.append(
                f"{name} k={k}: {cert.sigma_k_fem:.3f} <= {cert.certified_bound:.1f} "
                f"<= {rhs:.3g} (C={cert.c_cover})"
            )
    report("criterion 7 (packing certificates)", ok, "; ".join(lines))


def test_criterion_8_literal_constant_dominance(
    disk_spectrum, disk_mesh, annulus_mesh, cylinder_mesh, cylinder_spectrum,
    revolution_mesh, product_mesh,
):
    cases = []  # the bounds' defaults: covering 32^m, d_ball 1

    cases.append(("disk", disk_mesh, disk_spectrum, 1, 2, math.pi))

    pure_annulus = EmbeddedMesh(
        annulus_mesh.vertices, annulus_mesh.cells, annulus_mesh.boundary_faces,
        [STEKLOV] * len(annulus_mesh.face_tags),
    )
    ann_fem = solve_steklov(SpectralProblem(pure_annulus, "steklov", k_max=3))
    cases.append(("annulus", pure_annulus, ann_fem, 1, 4, math.pi))

    cases.append(("cylinder", cylinder_mesh, cylinder_spectrum, 2, 4, math.pi))

    rev_fem = solve_steklov(SpectralProblem(revolution_mesh, "steklov", k_max=3))
    cases.append(("revolution", revolution_mesh, rev_fem, 6, 2, 0.5 * math.pi))

    pure_product = EmbeddedMesh(
        product_mesh.vertices, product_mesh.cells, product_mesh.boundary_faces,
        [STEKLOV] * len(product_mesh.face_tags),
    )
    prod_fem = solve_steklov(SpectralProblem(pure_product, "steklov", k_max=3))
    cases.append(("product", pure_product, prod_fem, 2, 8, 0.3 * math.pi))

    ok = True
    checked = 0
    for name, mesh, fem, i_m, i_sigma, r0 in cases:
        for k in (1, 2, 3):
            if k >= len(fem.eigenvalues):
                continue
            inputs = BoundInputs(
                n=mesh.intrinsic_dim,
                m=mesh.ambient_dim,
                volume_m=mesh.volume(),
                volume_sigma=mesh.steklov_volume(),
                i_m=i_m,
                i_sigma=i_sigma,
                k=k,
                r_0=r0,
            )
            rep = evaluate_bounds(inputs, sigma_k=float(fem.eigenvalues[k]))
            ok = ok and all(rep.satisfied.values())
            checked += 1
    report(
        "criterion 8 (literal constants dominate)",
        ok,
        f"{checked} (family, k) pairs against volume/injectivity/isoperimetric bounds",
    )


def test_criterion_9_blowup_experiment():
    t0 = time.monotonic()
    rows = blowup_experiment(3, [0.4, 0.2, 0.1], resolution=1024)
    elapsed = time.monotonic() - t0
    mins = [row.mode_min for row in rows]
    ok = (
        all(row.satisfied for row in rows)
        and all(row.mode_min >= 0.25 / row.eps for row in rows)
        and all(row.annulus_mode1 >= 1.4 / row.eps for row in rows)
        and mins[0] <= mins[1] <= mins[2]
        and elapsed <= 120.0
    )
    report(
        "criterion 9 (thin-boundary blow-up)",
        ok,
        f"mins {[f'{v:.2f}' for v in mins]} vs floors "
        f"{[f'{0.25 / r.eps:.2f}' for r in rows]} in {elapsed:.0f}s",
    )


def test_criterion_10_obstruction_experiment():
    flat = obstruction_experiment(2, 0.0, range(10, 201))
    weighted = obstruction_experiment(2, 1.0, range(10, 201))
    ok = (
        abs(flat.fitted_exponent - 1.0) <= 0.05
        and abs(weighted.fitted_exponent - 2.0) <= 0.05
        and flat.consistent
        and weighted.consistent
    )
    report(
        "criterion 10 (volume-weight obstruction)",
        ok,
        f"beta=0 exponent {flat.fitted_exponent:.3f}, "
        f"beta=1 exponent {weighted.fitted_exponent:.3f}",
    )


def test_criterion_11_property_suites():
    rng = np.random.default_rng(2024)
    failures = []

    # scale covariance, 100 trials
    base = generate_mesh(FamilyDescriptor("ball-flat", h=0.2, n=2, delta=1.0))
    ref = solve_steklov(SpectralProblem(base, "steklov", k_max=3)).eigenvalues
    for _ in range(100):
        t = float(rng.uniform(0.2, 5.0))
        scaled = EmbeddedMesh(base.vertices * t, base.cells, base.boundary_faces, base.face_tags)
        got = solve_steklov(SpectralProblem(scaled, "steklov", k_max=3)).eigenvalues
        if not np.allclose(got, ref / t, rtol=1e-8, atol=1e-12):
            failures.append("scale")
            break

    # rigid motion invariance, 100 trials
    cyl = generate_mesh(FamilyDescriptor("cylinder-surface", h=0.3, radius=1.0, length=1.0))
    ref = solve_steklov(SpectralProblem(cyl, "steklov", k_max=3)).eigenvalues
    for _ in range(100):
        q = random_rotation(rng, 3)
        b = rng.standard_normal(3) * 5
        moved = EmbeddedMesh(cyl.vertices @ q.T + b, cyl.cells, cyl.boundary_faces, cyl.face_tags)
        got = solve_steklov(SpectralProblem(moved, "steklov", k_max=3)).eigenvalues
        if not np.allclose(got, ref, rtol=1e-10, atol=1e-12):
            failures.append("rigid")
            break

    # mixed-problem bracketing on subdomains, 100 trials
    ref = solve_steklov(SpectralProblem(base, "steklov", k_max=3)).eigenvalues
    centroids = base.vertices[base.cells].mean(axis=1)
    trials = 0
    while trials < 100:
        hole = rng.uniform(-0.4, 0.4, size=2)
        radius = rng.uniform(0.1, 0.45)
        keep = np.linalg.norm(centroids - hole, axis=1) > radius
        if keep.all():
            continue
        omega = submesh(base, np.nonzero(keep)[0])
        if not omega.is_connected():
            continue
        trials += 1
        got = solve_steklov(SpectralProblem(omega, "steklov-neumann", k_max=3)).eigenvalues
        if not np.all(got <= ref * (1 + 1e-8) + 1e-10):
            failures.append("bracketing")
            break

    # volume bound / isoperimetric identity and threshold-branch consistency
    for _ in range(100):
        n = int(rng.integers(2, 5))
        inputs = BoundInputs(
            n=n, m=n + int(rng.integers(0, 3)),
            volume_m=float(rng.uniform(0.1, 20)),
            volume_sigma=float(rng.uniform(0.1, 20)),
            i_m=int(rng.integers(1, 9)), i_sigma=int(rng.integers(1, 9)),
            k=int(rng.integers(1, 30)), r_0=float(rng.uniform(0.05, 3.0)),
        )
        lhs_factor, iso_rhs = isoperimetric_bound(inputs)
        if abs(iso_rhs - lhs_factor * volume_bound(inputs)) > 1e-12 * iso_rhs:
            failures.append("identity")
            break
        c = inputs.constants()
        _, k0 = injectivity_bound(inputs)
        tail = c.tail_coeff * inputs.i_m * (
            inputs.i_sigma * k0 / inputs.volume_sigma
        ) ** (1 / (n - 1))
        inj = c.injectivity_coeff * inputs.i_m / inputs.r_0
        if abs(tail - inj) > 1e-10 * inj:
            failures.append("threshold")
            break

    report(
        "criterion 11 (property suites)",
        not failures,
        "scale, rigid-motion, bracketing, identity, threshold" if not failures
        else f"failed: {failures}",
    )
