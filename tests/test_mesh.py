import itertools
import math

import numpy as np
import pytest

from conftest import random_rotation
from steklab.errors import MeshError
from steklab.mesh import NEUMANN, STEKLOV, EmbeddedMesh, simplex_volume


def cayley_menger_volume(points):
    """Independent simplex volume via the Cayley-Menger determinant."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[0] - 1
    if d == 0:
        return 1.0
    size = d + 2
    mat = np.ones((size, size))
    mat[0, 0] = 0.0
    for i in range(d + 1):
        for j in range(d + 1):
            mat[i + 1, j + 1] = np.sum((pts[i] - pts[j]) ** 2)
    det = np.linalg.det(mat)
    coeff = (-1) ** (d + 1) / (2**d * math.factorial(d) ** 2)
    return math.sqrt(abs(coeff * det))


def single_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    faces = np.array([[0, 1], [1, 2], [0, 2]])
    tags = np.array([STEKLOV] * 3, dtype=object)
    return EmbeddedMesh(verts, cells, faces, tags)


def test_unit_right_triangle_volume():
    pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert simplex_volume(pts) == pytest.approx(0.5)


def test_segment_volume():
    assert simplex_volume([[0, 0], [3, 4]]) == pytest.approx(5.0)


def test_point_volume_is_counting_measure():
    assert simplex_volume([[2.0, 1.0, 0.5]]) == 1.0


def test_regular_tetrahedron_against_cayley_menger():
    # edge-1 regular tetrahedron; expect sqrt(2)/12
    pts = np.array(
        [
            [0, 0, 0],
            [1, 0, 0],
            [0.5, math.sqrt(3) / 2, 0],
            [0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)],
        ]
    )
    vol = simplex_volume(pts)
    assert vol == pytest.approx(math.sqrt(2) / 12, rel=1e-12)
    assert vol == pytest.approx(cayley_menger_volume(pts), rel=1e-10)


def test_random_simplices_match_cayley_menger():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(1, 4)
        m = rng.integers(d, 6)
        pts = rng.standard_normal((d + 1, m))
        assert simplex_volume(pts) == pytest.approx(cayley_menger_volume(pts), rel=1e-9)


def test_degenerate_simplex_has_zero_volume():
    assert simplex_volume([[0, 0], [1, 1], [2, 2]]) == 0.0


def test_volume_rigid_motion_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pts = rng.standard_normal((3, 5))
        q = random_rotation(rng, 5)
        b = rng.standard_normal(5)
        moved = pts @ q.T + b
        assert simplex_volume(moved) == pytest.approx(simplex_volume(pts), rel=1e-12)


def test_validate_accepts_simple_mesh():
    single_triangle_mesh().validate()


def test_validate_rejects_bad_index():
    mesh = single_triangle_mesh()
    mesh.cells = np.array([[0, 1, 7]])
    with pytest.raises(MeshError):
        mesh.validate()


def test_validate_rejects_wrong_boundary():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    faces = np.array([[0, 1]])  # two edges missing
    mesh = EmbeddedMesh(verts, cells, faces, np.array([STEKLOV], dtype=object))
    with pytest.raises(MeshError, match="boundary"):
        mesh.validate()


def test_validate_rejects_degenerate_cell():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cells = np.array([[0, 1, 2]])
    mesh = EmbeddedMesh(
        verts, cells, np.array([[0, 1], [1, 2], [0, 2]]), np.array([STEKLOV] * 3, dtype=object)
    )
    with pytest.raises(MeshError, match="volume"):
        mesh.validate()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite_vertex(value):
    mesh = single_triangle_mesh()
    mesh.vertices[2, 0] = value
    with pytest.raises(MeshError, match="non-finite vertex"):
        mesh.validate()


def test_document_roundtrip(tmp_path, annulus_mesh):
    path = tmp_path / "mesh.json"
    annulus_mesh.save(path)
    back = EmbeddedMesh.load(path)
    assert np.array_equal(back.vertices, annulus_mesh.vertices)
    assert np.array_equal(back.cells, annulus_mesh.cells)
    assert np.array_equal(back.boundary_faces, annulus_mesh.boundary_faces)
    assert list(back.face_tags) == list(annulus_mesh.face_tags)
    back.validate()


def test_document_has_required_fields(tmp_path, disk_mesh_coarse):
    doc = disk_mesh_coarse.to_document()
    assert doc["version"] == 1
    assert doc["ambient_dim"] == 2 and doc["intrinsic_dim"] == 2
    assert {"indices", "tag"} <= set(doc["boundary_faces"][0])


def test_boundary_of_boundary_is_even(annulus_mesh, cylinder_mesh, revolution_mesh):
    for mesh in (annulus_mesh, cylinder_mesh, revolution_mesh):
        counts = {}
        for face in mesh.boundary_faces:
            k = len(face)
            for drop in range(k):
                key = tuple(sorted(v for i, v in enumerate(face) if i != drop))
                counts[key] = counts.get(key, 0) + 1
        assert all(c % 2 == 0 for c in counts.values())


def test_tags_must_be_known():
    mesh = single_triangle_mesh()
    mesh.face_tags = np.array(["steklov", "robin", "steklov"], dtype=object)
    with pytest.raises(MeshError, match="tag"):
        mesh.validate()


def test_steklov_quantities(annulus_mesh):
    assert annulus_mesh.steklov_volume() < annulus_mesh.face_volumes().sum()
    gamma = annulus_mesh.steklov_vertices()
    radii = np.linalg.norm(annulus_mesh.vertices[gamma], axis=1)
    assert np.allclose(radii, 1.0, atol=1e-12)


def test_neumann_tag_constant_matches():
    assert NEUMANN == "neumann" and STEKLOV == "steklov"


def test_connected_components(disk_mesh_coarse, circle_mesh):
    assert disk_mesh_coarse.is_connected()
    assert circle_mesh.is_connected()


def test_edge_lengths_positive(disk_mesh_coarse):
    lengths = disk_mesh_coarse.edge_lengths()
    assert np.all(lengths > 0)
    assert lengths.max() < 0.5


def test_interior_faces_shared_by_two(disk_mesh_coarse):
    # facet-count bookkeeping: interior edges twice, boundary edges once
    counts = {}
    for cell in disk_mesh_coarse.cells:
        for i, j in itertools.combinations(sorted(int(v) for v in cell), 2):
            counts[(i, j)] = counts.get((i, j), 0) + 1
    boundary = {tuple(sorted(int(v) for v in f)) for f in disk_mesh_coarse.boundary_faces}
    for edge, c in counts.items():
        assert c == (1 if edge in boundary else 2)


def test_document_version_guard(tmp_path, disk_mesh_coarse):
    import json

    doc = disk_mesh_coarse.to_document()
    doc["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeshError, match="version"):
        EmbeddedMesh.load(path)


def test_submesh_inherits_tags(annulus_mesh):
    centroids = annulus_mesh.vertices[annulus_mesh.cells].mean(axis=1)
    keep = np.linalg.norm(centroids, axis=1) < 1.5
    inner_half = annulus_mesh.submesh(np.nonzero(keep)[0])
    inner_half.validate()
    tags = set(inner_half.face_tags)
    assert tags == {"steklov", "neumann"}  # original inner circle + new cut
