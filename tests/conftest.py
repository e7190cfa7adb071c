"""Shared meshes, built once per session.

The acceptance criteria and several unit tests exercise the same family
meshes; building them in session fixtures keeps the suite fast.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from steklab.families import FamilyDescriptor, generate_mesh
from steklab.mesh import NEUMANN, EmbeddedMesh, _unique_rows, boundary_facets
from steklab.spectral import SpectralProblem, solve_steklov

# every property test: reproducible examples, at most 100 of them, no deadline
# (a CLI run can take a second), and fixtures such as capsys shared by examples
settings.register_profile(
    "steklab",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("steklab")


@pytest.fixture(scope="session")
def disk_mesh():
    return generate_mesh(FamilyDescriptor("ball-flat", h=0.05, n=2, delta=1.0))


@pytest.fixture(scope="session")
def disk_mesh_coarse():
    return generate_mesh(FamilyDescriptor("ball-flat", h=0.15, n=2, delta=1.0))


@pytest.fixture(scope="session")
def annulus_mesh():
    return generate_mesh(FamilyDescriptor("annulus-flat", h=0.05, n=2, eps=1.0, delta=2.0))


@pytest.fixture(scope="session")
def cylinder_mesh():
    return generate_mesh(
        FamilyDescriptor("cylinder-surface", h=0.05, radius=1.0, length=1.0)
    )


@pytest.fixture(scope="session")
def circle_mesh():
    return generate_mesh(FamilyDescriptor("sphere-boundary", h=0.05, n=2, eps=1.0))


@pytest.fixture(scope="session")
def torus_mesh():
    return generate_mesh(
        FamilyDescriptor("torus-surface", h=0.22, major_radius=2.0, minor_radius=1.0)
    )


@pytest.fixture(scope="session")
def revolution_mesh():
    return generate_mesh(
        FamilyDescriptor("revolution-closure", h=0.15, n=2, eps=0.5, delta=2.0)
    )


@pytest.fixture(scope="session")
def product_mesh():
    return generate_mesh(
        FamilyDescriptor(
            "product-annulus-circle", h=0.3, n=2, eps=0.5, delta=2.0, circle_radius=0.3
        )
    )


@pytest.fixture(scope="session")
def disk_spectrum(disk_mesh):
    return solve_steklov(SpectralProblem(disk_mesh, "steklov", k_max=6))


@pytest.fixture(scope="session")
def cylinder_spectrum(cylinder_mesh):
    return solve_steklov(SpectralProblem(cylinder_mesh, "steklov", k_max=5))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def submesh(mesh: EmbeddedMesh, cell_indices) -> EmbeddedMesh:
    """Restriction of a mesh to a subset of its cells.

    Boundary faces inherit their tags where they coincide with the mesh's
    boundary faces; faces newly exposed by the cut are tagged neumann (the
    mixed-problem convention for interior interfaces).
    """
    cells = mesh.cells[np.asarray(cell_indices)]
    used = np.unique(cells)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    faces = boundary_facets(cells)
    old = np.sort(mesh.boundary_faces, axis=1)
    distinct, group, _ = _unique_rows(np.concatenate([old, faces]))
    tag_of = np.full(len(distinct), NEUMANN, dtype=object)
    tag_of[group[: len(old)]] = mesh.face_tags
    return EmbeddedMesh(
        mesh.vertices[used], remap[cells], remap[faces], tag_of[group[len(old) :]],
        dict(mesh.metadata),
    )


@pytest.fixture(scope="session")
def product_sn_case():
    """Mixed problem on A(0.5, 1.5) x S^1_0.4 plus its separated-mode values."""
    from steklab.closed_forms import separated_mode_sn_eigenvalue
    from steklab.families import FamilyDescriptor as FD

    mesh = generate_mesh(
        FD("product-annulus-circle", h=0.15, n=2, eps=0.5, delta=1.5, circle_radius=0.4)
    )
    fem = solve_steklov(SpectralProblem(mesh, "steklov-neumann", k_max=3))
    values = sorted(
        separated_mode_sn_eigenvalue(2, 0.5, 1.5, float(k * k), (j / 0.4) ** 2, 2048)
        for k in range(5)
        for j in range(5)
        if (k, j) != (0, 0)
    )
    return fem, values
