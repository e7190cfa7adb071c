import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import coo_matrix

from conftest import random_rotation, submesh
from steklab import spectral
from steklab.closed_forms import cylinder_steklov_spectrum, disk_steklov_spectrum
from steklab.errors import NumericalError, UsageError
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.mesh import NEUMANN, STEKLOV, EmbeddedMesh, simplex_grams
from steklab.spectral import (
    SpectralProblem,
    assemble_operators,
    cell_gradient_norms,
    rayleigh_from_operators,
    solve_steklov,
)


def spectra_match(computed, reference, atol: float = 1e-8, rtol: float = 1e-2) -> bool:
    """Compare spectra as sorted multisets with atol + rtol*|ref| per entry."""
    a = np.sort(np.asarray(computed, dtype=float))
    b = np.sort(np.asarray(reference, dtype=float))
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def interval_mesh():
    """[0, 1] with two elements; both endpoints are Steklov points."""
    verts = np.array([[0.0], [0.5], [1.0]])
    cells = np.array([[0, 1], [1, 2]])
    faces = np.array([[0], [2]])
    tags = np.array([STEKLOV, STEKLOV], dtype=object)
    return EmbeddedMesh(verts, cells, faces, tags)


def test_interval_steklov_matches_hand_computation():
    # u'' = 0 with u'(1) = sigma u(1), -u'(0) = sigma u(0): sigma = 0 and 2
    result = solve_steklov(SpectralProblem(interval_mesh(), "steklov", k_max=1))
    assert result.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_interval_has_two_boundary_components():
    # a 0-dimensional boundary: each endpoint is its own component
    assert interval_mesh().boundary_components() == 2


def test_stiffness_rows_sum_to_zero():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = EmbeddedMesh(
        verts,
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [0, 2]]),
        np.array([STEKLOV] * 3, dtype=object),
    )
    stiffness, mass = assemble_operators(mesh)
    assert np.allclose(stiffness @ np.ones(3), 0.0, atol=1e-14)
    assert mass.toarray().sum() == pytest.approx(1 + math.sqrt(2) + 1, rel=1e-12)


def test_operators_assembled_once_per_mesh_and_read_only(disk_mesh_coarse):
    stiffness, mass = assemble_operators(disk_mesh_coarse)
    again = assemble_operators(disk_mesh_coarse)
    assert again[0] is stiffness and again[1] is mass
    for matrix in (stiffness, mass):
        with pytest.raises(ValueError, match="read-only"):
            matrix.data[0] = 0.0


def reference_stiffness(mesh):
    """K from the three-operand einsum S^T ginv S per cell; the table form matches it bit for bit."""
    n, nv = mesh.intrinsic_dim, mesh.n_vertices
    ginv = np.linalg.inv(simplex_grams(mesh.vertices, mesh.cells)[0])
    shape = np.hstack([-np.ones((n, 1)), np.eye(n)])
    kloc = np.einsum("ai,cab,bj->cij", shape, ginv, shape) * mesh.cell_volumes()[:, None, None]
    rows = np.repeat(mesh.cells[:, :, None], n + 1, axis=2)
    cols = np.repeat(mesh.cells[:, None, :], n + 1, axis=1)
    return coo_matrix((kloc.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)).tocsr()


STIFFNESS_CASES = {
    "interval-n1": interval_mesh,
    "circle-n1": lambda: generate_mesh(FamilyDescriptor("sphere-boundary", h=0.05, n=2, eps=1.0)),
    "graded-disk-n2": lambda: generate_mesh(
        FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0, h_boundary=0.05)
    ),
    "cylinder-n2": lambda: generate_mesh(
        FamilyDescriptor("cylinder-surface", h=0.1, radius=1.0, length=1.0)
    ),
    "sphere-n2": lambda: generate_mesh(FamilyDescriptor("sphere-boundary", h=0.3, n=3, eps=1.0)),
    "ball-n3": lambda: generate_mesh(FamilyDescriptor("ball-flat", h=0.35, n=3, delta=1.0)),
    "annulus-n3": lambda: generate_mesh(
        FamilyDescriptor("annulus-flat", h=0.5, n=3, eps=1.0, delta=2.0, h_boundary=0.3)
    ),
}


@pytest.mark.parametrize("case", sorted(STIFFNESS_CASES))
def test_stiffness_bit_identical_to_three_operand_einsum(case):
    mesh = STIFFNESS_CASES[case]()
    stiffness, reference = assemble_operators(mesh)[0], reference_stiffness(mesh)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(stiffness, name), getattr(reference, name))


def test_stiffness_positive_semidefinite(disk_mesh_coarse):
    stiffness, mass = assemble_operators(disk_mesh_coarse)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(disk_mesh_coarse.n_vertices)
        assert v @ (stiffness @ v) >= -1e-10
        assert v @ (mass @ v) >= -1e-12


def test_boundary_mass_supported_on_steklov_vertices(annulus_mesh):
    _, mass = assemble_operators(annulus_mesh)
    gamma = set(annulus_mesh.steklov_vertices().tolist())
    nz = np.nonzero(np.asarray(mass.sum(axis=1)).ravel())[0]
    assert set(nz.tolist()) == gamma


def test_disk_spectrum_matches_separation_of_variables(disk_spectrum):
    exact = disk_steklov_spectrum(1.0, 7)
    assert spectra_match(disk_spectrum.eigenvalues, exact, atol=1e-8, rtol=1e-2)
    assert disk_spectrum.residuals.max() < 1e-8


def test_annulus_mixed_sn_first_eigenvalue(annulus_mesh):
    result = solve_steklov(SpectralProblem(annulus_mesh, "steklov-neumann", k_max=1))
    assert result.eigenvalues[1] == pytest.approx(0.6, rel=1e-2)


def test_cylinder_spectrum_matches_closed_form(cylinder_spectrum):
    from steklab.closed_forms import expand_multiplicities, sphere_laplace_spectrum

    lams = expand_multiplicities(sphere_laplace_spectrum(2, 1.0, 5))
    exact = cylinder_steklov_spectrum(lams, 1.0, 6)
    assert spectra_match(cylinder_spectrum.eigenvalues, exact, atol=1e-8, rtol=1e-2)
    assert 2.0 in [round(v, 6) for v in exact]


def test_sigma0_is_zero(disk_spectrum, cylinder_spectrum):
    assert 0.0 <= disk_spectrum.eigenvalues[0] <= 1e-8
    assert 0.0 <= cylinder_spectrum.eigenvalues[0] <= 1e-8
    assert np.all(np.diff(disk_spectrum.eigenvalues) >= -1e-12)


def dense_schur_spectrum(mesh, k_max):
    """Reference: dense S = K_GG - K_GI K_II^{-1} K_IG with the dense generalized eigh."""
    stiffness, mass = (op.toarray() for op in assemble_operators(mesh))
    gamma = mesh.steklov_vertices()
    interior = np.setdiff1d(np.arange(mesh.n_vertices), gamma)
    k_ig = stiffness[np.ix_(interior, gamma)]
    schur = stiffness[np.ix_(gamma, gamma)] - k_ig.T @ np.linalg.solve(
        stiffness[np.ix_(interior, interior)], k_ig
    )
    vals = scipy.linalg.eigh(schur, mass[np.ix_(gamma, gamma)], eigvals_only=True)
    return vals[: k_max + 1]


@pytest.fixture(scope="module")
def coarse_cases(disk_mesh_coarse):
    annulus = generate_mesh(FamilyDescriptor("annulus-flat", h=0.15, n=2, eps=1.0, delta=2.0))
    return {"disk": (disk_mesh_coarse, "steklov"), "annulus": (annulus, "steklov-neumann")}


@pytest.mark.parametrize("case", ["disk", "annulus"])
@pytest.mark.parametrize("branch", ["lanczos", "dense"])
def test_matches_dense_schur_reference(coarse_cases, case, branch):
    mesh, kind = coarse_cases[case]
    n_gamma = len(mesh.steklov_vertices())
    # k_max + 1 < n_gamma // 4 runs shift-invert Lanczos, anything larger the dense path
    k_max = 3 if branch == "lanczos" else n_gamma - 1
    assert (k_max + 1 < n_gamma // 4) == (branch == "lanczos")
    got = solve_steklov(SpectralProblem(mesh, kind, k_max=k_max))
    ref = dense_schur_spectrum(mesh, k_max)
    assert np.allclose(got.eigenvalues, ref, rtol=1e-9, atol=1e-12)
    assert got.residuals.max() < 1e-12


@pytest.mark.parametrize("case", ["disk", "annulus"])
@pytest.mark.parametrize("block", [5, 7])
def test_dense_branch_in_column_blocks(coarse_cases, case, block, monkeypatch):
    mesh, kind = coarse_cases[case]
    n_gamma = len(mesh.steklov_vertices())
    # n_G is 42 and 84: blocks of 5 leave a ragged last block in both passes,
    # blocks of 7 in the extension pass over k_max + 1 = n_G - 1 columns
    k_max = n_gamma - 2
    assert (k_max + 1) % block and n_gamma > 2 * block
    # the Lanczos branch extends its k_max + 1 = 8 and 19 pairs in the same blocks
    k_lanczos = n_gamma // 4 - 3
    assert (k_lanczos + 1) % block
    monkeypatch.setattr(spectral, "DENSE_BLOCK", n_gamma)
    whole = solve_steklov(SpectralProblem(mesh, kind, k_max=k_max))
    whole_lanczos = solve_steklov(SpectralProblem(mesh, kind, k_max=k_lanczos))
    monkeypatch.setattr(spectral, "DENSE_BLOCK", block)
    blocked = solve_steklov(SpectralProblem(mesh, kind, k_max=k_max))
    blocked_lanczos = solve_steklov(SpectralProblem(mesh, kind, k_max=k_lanczos))
    assert np.allclose(blocked.eigenvalues, dense_schur_spectrum(mesh, k_max), rtol=1e-9,
                       atol=1e-12)
    assert np.allclose(blocked.eigenvalues, whole.eigenvalues, rtol=1e-13, atol=1e-13)
    assert blocked.residuals.max() < 1e-12
    assert blocked.eigenvectors_boundary.shape == (n_gamma, k_max + 1)
    assert np.allclose(blocked_lanczos.eigenvalues, whole_lanczos.eigenvalues, rtol=1e-13,
                       atol=1e-13)
    assert np.allclose(blocked_lanczos.eigenvectors_boundary, whole_lanczos.eigenvectors_boundary,
                       rtol=1e-13, atol=1e-13)
    assert blocked_lanczos.residuals.max() < 1e-12


def test_dense_branch_checks_the_size_budget(disk_mesh_coarse, monkeypatch):
    n_gamma = len(disk_mesh_coarse.steklov_vertices())
    monkeypatch.setattr(spectral, "SIZE_BUDGET", n_gamma**2 - 1)
    problem = SpectralProblem(disk_mesh_coarse, "steklov", k_max=n_gamma - 1)
    with pytest.raises(UsageError, match="Steklov vertices"):
        solve_steklov(problem)
    # the Lanczos branch allocates no dense block and ignores the budget
    solve_steklov(SpectralProblem(disk_mesh_coarse, "steklov", k_max=3))


def test_repeat_solves_are_bit_identical(disk_mesh_coarse):
    first = solve_steklov(SpectralProblem(disk_mesh_coarse, "steklov", k_max=3))
    second = solve_steklov(SpectralProblem(disk_mesh_coarse, "steklov", k_max=3))
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.residuals, second.residuals)


def test_residual_gate_rejects_perturbed_eigenvalues(disk_mesh_coarse, monkeypatch):
    true_eigsh = spectral.eigsh

    def shifted_eigsh(*args, **kwargs):
        vals, vecs = true_eigsh(*args, **kwargs)
        return vals + 1e-4, vecs

    monkeypatch.setattr(spectral, "eigsh", shifted_eigsh)
    with pytest.raises(NumericalError, match="residual"):
        solve_steklov(SpectralProblem(disk_mesh_coarse, "steklov", k_max=3))


def test_kind_validation(disk_mesh_coarse, annulus_mesh):
    with pytest.raises(UsageError, match="neumann"):
        SpectralProblem(annulus_mesh, "steklov", k_max=1)
    with pytest.raises(UsageError):
        SpectralProblem(annulus_mesh, "robin", k_max=1)
    # the mixed kind needs a neumann face to pose it
    with pytest.raises(UsageError, match="which pose 'steklov'$"):
        SpectralProblem(disk_mesh_coarse, "steklov-neumann", k_max=1)


def test_kind_defaults_to_the_face_tags(disk_mesh_coarse, annulus_mesh):
    assert SpectralProblem(disk_mesh_coarse, k_max=1).kind == "steklov"
    assert SpectralProblem(annulus_mesh, k_max=1).kind == "steklov-neumann"


def test_kmax_exceeding_boundary_dofs():
    mesh = interval_mesh()
    with pytest.raises(UsageError, match="Steklov vertices"):
        solve_steklov(SpectralProblem(mesh, "steklov", k_max=5))


def test_rayleigh_of_constant_vanishes_with_error(disk_mesh_coarse):
    v = np.ones(disk_mesh_coarse.n_vertices)
    value = rayleigh_from_operators(*assemble_operators(disk_mesh_coarse), v)
    assert value == pytest.approx(0.0, abs=1e-14)


def test_rayleigh_requires_boundary_energy(disk_mesh_coarse):
    v = np.zeros(disk_mesh_coarse.n_vertices)
    interior = np.setdiff1d(
        np.arange(disk_mesh_coarse.n_vertices), disk_mesh_coarse.steklov_vertices()
    )
    v[interior] = 1.0
    with pytest.raises(UsageError, match="vanishes"):
        rayleigh_from_operators(*assemble_operators(disk_mesh_coarse), v)


def test_rayleigh_of_coordinate_function_on_disk(disk_mesh):
    # x1 is harmonic with normal derivative x1 on the unit circle
    value = rayleigh_from_operators(*assemble_operators(disk_mesh), disk_mesh.vertices[:, 0])
    assert value == pytest.approx(1.0, rel=2e-3)


# a 200,000-entry quotient of tridiagonal operators, printed as float.hex
_QUOTIENT_CHILD = """
import numpy as np, scipy.sparse as sp
from steklab.spectral import rayleigh_from_operators
rng = np.random.default_rng(5)
n = 200_000
off = rng.random(n - 1)
stiffness = sp.diags([-off, np.r_[off, 0] + np.r_[0, off] + 1e-3, -off], [-1, 0, 1], format="csr")
mass = sp.diags(rng.random(n), format="csr")
print(rayleigh_from_operators(stiffness, mass, rng.standard_normal(n)).hex())
"""


def _quotient_at(threads: int) -> str:
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.update({var: str(threads) for var in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", _QUOTIENT_CHILD], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout.strip()


def test_rayleigh_quotient_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot product splits a vector this long across its threads
    assert _quotient_at(1) == _quotient_at(2)


def test_variational_consistency(disk_mesh, disk_spectrum):
    stiffness, mass = assemble_operators(disk_mesh)
    rng = np.random.default_rng(2)
    ones = np.ones(disk_mesh.n_vertices)
    b_ones = mass @ ones
    sigma1 = disk_spectrum.eigenvalues[1]
    for _ in range(50):
        v = rng.standard_normal(disk_mesh.n_vertices)
        v -= (v @ b_ones) / (ones @ b_ones) * ones
        quotient = (v @ (stiffness @ v)) / (v @ (mass @ v))
        assert quotient >= sigma1 - 1e-8


def test_scale_covariance_randomized():
    rng = np.random.default_rng(3)
    base = generate_mesh(FamilyDescriptor("ball-flat", h=0.2, n=2, delta=1.0))
    ref = solve_steklov(SpectralProblem(base, "steklov", k_max=4)).eigenvalues
    for _ in range(100):
        t = float(rng.uniform(0.2, 5.0))
        mesh = EmbeddedMesh(base.vertices * t, base.cells, base.boundary_faces, base.face_tags)
        scaled = solve_steklov(SpectralProblem(mesh, "steklov", k_max=4)).eigenvalues
        assert np.allclose(scaled, ref / t, rtol=1e-8, atol=1e-12)


def test_rigid_motion_invariance_randomized():
    rng = np.random.default_rng(4)
    base = generate_mesh(
        FamilyDescriptor("cylinder-surface", h=0.25, radius=1.0, length=1.0)
    )
    ref = solve_steklov(SpectralProblem(base, "steklov", k_max=4)).eigenvalues
    for _ in range(100):
        q = random_rotation(rng, 3)
        b = rng.standard_normal(3) * 10
        moved = EmbeddedMesh(base.vertices @ q.T + b, base.cells, base.boundary_faces,
                             base.face_tags)
        got = solve_steklov(SpectralProblem(moved, "steklov", k_max=4)).eigenvalues
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_sn_bracketing_on_subdomains():
    # sigma_k^N(Omega) <= sigma_k(M) for submeshes Omega keeping the full
    # Steklov boundary, with the cut interface tagged neumann
    rng = np.random.default_rng(5)
    base = generate_mesh(FamilyDescriptor("ball-flat", h=0.15, n=2, delta=1.0))
    k_max = 3
    ref = solve_steklov(SpectralProblem(base, "steklov", k_max=k_max)).eigenvalues
    centroids = base.vertices[base.cells].mean(axis=1)
    trials = 0
    while trials < 100:
        hole_center = rng.uniform(-0.4, 0.4, size=2)
        hole_radius = rng.uniform(0.1, 0.45)
        keep = np.linalg.norm(centroids - hole_center, axis=1) > hole_radius
        if keep.all():
            continue
        omega = submesh(base, np.nonzero(keep)[0])
        if not omega.is_connected():
            continue
        trials += 1
        got = solve_steklov(
            SpectralProblem(omega, "steklov-neumann", k_max=k_max)
        ).eigenvalues
        assert np.all(got <= ref * (1 + 1e-8) + 1e-10)


def test_growing_steklov_region_never_increases_eigenvalues():
    # enlarging the boundary-mass support can only lower min-max quotients;
    # equivalently retagging steklov faces as neumann can only raise them
    rng = np.random.default_rng(6)
    base = generate_mesh(FamilyDescriptor("ball-flat", h=0.2, n=2, delta=1.0))
    k_max = 3
    ref = solve_steklov(SpectralProblem(base, "steklov", k_max=k_max)).eigenvalues
    n_faces = len(base.boundary_faces)
    trials = 0
    while trials < 100:
        keep = rng.random(n_faces) < rng.uniform(0.3, 0.9)
        tags = np.where(keep, STEKLOV, NEUMANN).astype(object)
        retagged = EmbeddedMesh(base.vertices, base.cells, base.boundary_faces, tags)
        if len(retagged.steklov_vertices()) <= k_max:
            continue
        trials += 1
        got = solve_steklov(
            SpectralProblem(retagged, "steklov-neumann", k_max=k_max)
        ).eigenvalues
        assert np.all(got >= ref * (1 - 1e-8) - 1e-10)


def test_disk_convergence_monotone():
    exact = np.array(disk_steklov_spectrum(1.0, 7))
    errors = []
    for h in (0.2, 0.1, 0.05):
        mesh = generate_mesh(FamilyDescriptor("ball-flat", h=h, n=2, delta=1.0))
        got = solve_steklov(SpectralProblem(mesh, "steklov", k_max=6)).eigenvalues
        errors.append(np.abs(got - exact)[1:].max())
    assert errors[0] > errors[1] > errors[2]


def test_cell_gradient_norms_of_linear_function(disk_mesh_coarse):
    v = 2.0 * disk_mesh_coarse.vertices[:, 0] - disk_mesh_coarse.vertices[:, 1]
    grads = cell_gradient_norms(disk_mesh_coarse, v)
    assert np.allclose(grads, math.sqrt(5.0), rtol=1e-10)


@pytest.mark.parametrize("mesh_name", ["disk_mesh_coarse", "product_mesh"])
def test_cell_gradient_norms_match_full_pass_on_small_support(request, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    centre = mesh.vertices[len(mesh.vertices) // 3]
    v = np.maximum(0.0, 1.0 - np.linalg.norm(mesh.vertices - centre, axis=1) / 0.4)
    # every cell measured, as before the pass skipped the cells where v vanishes
    ginv = np.linalg.inv(simplex_grams(mesh.vertices, mesh.cells)[0])
    dv = np.einsum("ai,ci->ca", spectral._shape_derivatives(mesh.intrinsic_dim), v[mesh.cells])
    full = np.sqrt(np.maximum(np.einsum("ca,cab,cb->c", dv, ginv, dv), 0.0))
    assert 0 < np.count_nonzero(full) < len(full)
    assert np.array_equal(cell_gradient_norms(mesh, v), full)


def test_spectra_match_tolerances():
    assert spectra_match([0.0, 1.001, 1.002], [0.0, 1.0, 1.0], rtol=1e-2)
    assert not spectra_match([0.0, 1.2], [0.0, 1.0], rtol=1e-2)
    assert not spectra_match([0.0], [0.0, 1.0])


def test_product_mixed_modes_match_radial_solver(product_sn_case):
    fem, separated = product_sn_case
    # degree-1 annulus mode times constant circle mode, multiplicity two
    assert fem.eigenvalues[1] == pytest.approx(separated[0], rel=0.03)
    assert fem.eigenvalues[2] == pytest.approx(separated[0], rel=0.03)
    assert fem.eigenvalues[3] == pytest.approx(separated[1], rel=0.07)


def test_product_first_mode_equals_annulus_closed_form(product_sn_case):
    from steklab.closed_forms import annulus_sn_eigenvalue

    _, separated = product_sn_case
    assert separated[0] == pytest.approx(annulus_sn_eigenvalue(2, 0.5, 1.5, 1), rel=1e-4)
