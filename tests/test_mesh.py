import itertools
import json
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from conftest import random_rotation, submesh
from steklab.cli import main
from steklab.errors import MeshError
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.mesh import NEUMANN, STEKLOV, EmbeddedMesh, facet_table, simplex_volume


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


def single_triangle_mesh(**replace):
    """The unit right triangle, with any constructor argument replaced."""
    parts = dict(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        cells=np.array([[0, 1, 2]]),
        boundary_faces=np.array([[0, 1], [1, 2], [0, 2]]),
        face_tags=np.array([STEKLOV] * 3, dtype=object),
    )
    return EmbeddedMesh(**{**parts, **replace})


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


def test_mesh_is_frozen_and_leaves_the_callers_arrays_writable():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    mesh = single_triangle_mesh(vertices=verts, cells=cells)
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mesh.cell_volumes()[0] = 1.0
    with pytest.raises(FrozenInstanceError):
        mesh.cells = np.array([[0, 2, 1]])
    verts[2, 1] = 2.0
    cells[0, 0] = 2
    assert mesh.vertices[2, 1] == 1.0 and mesh.cells[0, 0] == 0
    assert mesh.cell_volumes()[0] == 0.5
    # meshes built from another's arrays share the read-only ones they do not change
    retagged = EmbeddedMesh(mesh.vertices, mesh.cells, mesh.boundary_faces,
                            [NEUMANN, STEKLOV, STEKLOV])
    assert retagged.vertices is mesh.vertices and retagged.cells is mesh.cells
    scaled = EmbeddedMesh(mesh.vertices * 2.0, mesh.cells, mesh.boundary_faces, mesh.face_tags)
    assert scaled.cells is mesh.cells


def test_validate_rejects_bad_index():
    with pytest.raises(MeshError):
        single_triangle_mesh(cells=np.array([[0, 1, 7]]))


def test_validate_rejects_wrong_boundary():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    faces = np.array([[0, 1]])  # two edges missing
    with pytest.raises(MeshError, match="boundary"):
        EmbeddedMesh(verts, cells, faces, np.array([STEKLOV], dtype=object))


def test_validate_rejects_degenerate_cell():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cells = np.array([[0, 1, 2]])
    with pytest.raises(MeshError, match="volume"):
        EmbeddedMesh(
            verts, cells, np.array([[0, 1], [1, 2], [0, 2]]), np.array([STEKLOV] * 3, dtype=object)
        )


def test_validate_rejects_repeated_boundary_face():
    # listed twice, edge 0-1 would count twice in |Sigma| and in B
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    faces = np.array([[0, 1], [1, 2], [0, 2], [1, 0]])
    with pytest.raises(MeshError, match="repeated 1"):
        EmbeddedMesh(verts, np.array([[0, 1, 2]]), faces, np.array([STEKLOV] * 4, dtype=object))


def test_validate_rejects_face_of_wrong_width():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="boundary_faces"):
        EmbeddedMesh(
            verts, np.array([[0, 1, 2]]), np.array([[0, 1, 2]]), np.array([STEKLOV], dtype=object)
        )


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite_vertex(value):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [value, 1.0]])
    with pytest.raises(MeshError, match="non-finite vertex"):
        single_triangle_mesh(vertices=verts)


# vertex -> coordinates set to 1e308 in the h = 0.3 disk: inf cell measures at
# vertices 0 and 22, a NaN Gram determinant at vertex 20
@pytest.mark.parametrize("vertex, axes", [(0, (0,)), (22, (0,)), (20, (0, 1))])
def test_overflowing_cell_measures_are_not_finite(vertex, axes):
    doc = generate_mesh(FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0)).to_document()
    for axis in axes:
        doc["vertices"][vertex][axis] = 1e308
    with pytest.raises(MeshError, match="cell volumes or their total are not finite"):
        EmbeddedMesh.from_document(doc)


def test_document_roundtrip(tmp_path, annulus_mesh):
    path = tmp_path / "mesh.json"
    annulus_mesh.save(path)
    back = EmbeddedMesh.load(path)
    assert np.array_equal(back.vertices, annulus_mesh.vertices)
    assert np.array_equal(back.cells, annulus_mesh.cells)
    assert np.array_equal(back.boundary_faces, annulus_mesh.boundary_faces)
    assert list(back.face_tags) == list(annulus_mesh.face_tags)
    back.validate()


def _nested_metadata_mesh():
    mesh = generate_mesh(FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0))
    metadata = {
        "family": "ball-flat",
        "rings": [[0, 1, 2], [3, 4], []],
        "grading": {"h": [0.3, 0.05], "tags": {"outer": STEKLOV, "seam": None}},
        "scale": 1e-300,
    }
    return EmbeddedMesh(mesh.vertices, mesh.cells, mesh.boundary_faces, mesh.face_tags, metadata)


SAVE_CASES = {
    # criterion 7's disk, the largest mesh that is saved
    "graded-disk": lambda: generate_mesh(
        FamilyDescriptor("ball-flat", h=0.15, n=2, delta=1.0, h_boundary=0.9 / 288)
    ),
    "closed-curve": lambda: generate_mesh(FamilyDescriptor("sphere-boundary", h=0.2, n=2, eps=1.0)),
    "ball-n3": lambda: generate_mesh(FamilyDescriptor("ball-flat", h=0.35, n=3, delta=1.0)),
    "nested-metadata": _nested_metadata_mesh,
}


@pytest.mark.parametrize("case", sorted(SAVE_CASES))
def test_save_writes_the_one_shot_json_text(tmp_path, case):
    mesh = SAVE_CASES[case]()
    path = tmp_path / "mesh.json"
    mesh.save(path)
    text, expected = path.read_text(), json.dumps(mesh.to_document())
    # compared outside the assert: pytest's diff of two megabyte strings takes minutes
    identical = text == expected
    assert identical, f"saved {len(text)} characters where json.dumps gives {len(expected)}"
    back = EmbeddedMesh.load(path)
    for name in ("vertices", "cells", "boundary_faces", "face_tags"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name))
    assert back.metadata == mesh.metadata


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
    with pytest.raises(MeshError, match="tag"):
        single_triangle_mesh(face_tags=np.array(["steklov", "robin", "steklov"], dtype=object))


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
    i, j = np.triu_indices(disk_mesh_coarse.cells.shape[1], 1)
    pts = disk_mesh_coarse.vertices[disk_mesh_coarse.cells]
    lengths = np.linalg.norm(pts[:, i, :] - pts[:, j, :], axis=2)
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


@pytest.mark.parametrize(
    "field, value",
    [("cell", 1.9), ("cell", 0.5), ("cell", math.nan), ("cell", 1e30), ("face", 2.5)],
)
def test_document_rejects_non_integral_index(disk_mesh_coarse, field, value):
    doc = disk_mesh_coarse.to_document()
    if field == "cell":
        doc["cells"][0][1] = value
    else:
        doc["boundary_faces"][0]["indices"][1] = value
    with pytest.raises(MeshError, match="non-integral"):
        EmbeddedMesh.from_document(doc)


def test_document_accepts_integral_floats(disk_mesh_coarse):
    doc = disk_mesh_coarse.to_document()
    doc["cells"] = [[float(v) for v in cell] for cell in doc["cells"]]
    assert np.array_equal(EmbeddedMesh.from_document(doc).cells, disk_mesh_coarse.cells)


def _flat_cells(doc):
    doc["cells"] = [v for cell in doc["cells"] for v in cell]


def _point_cells(doc):  # 0-simplices have no boundary faces
    doc["cells"] = [cell[:1] for cell in doc["cells"]]
    doc["intrinsic_dim"], doc["boundary_faces"] = 0, []


def _face_out_of_range(doc):
    doc["boundary_faces"][0]["indices"][0] = len(doc["vertices"])


def _ambient_dim_field(doc):
    doc["ambient_dim"] = 3


def _intrinsic_dim_field(doc):  # the closed torus lists no faces to reshape to the claim
    doc["intrinsic_dim"] = 1


# message -> (document and the edit that makes loading it fail with the
# message, or a call on the coarse disk that fails with it)
MESH_FAULTS = {
    "cells must be a (C, n+1) array": ("disk", _flat_cells),
    "face_tags and boundary_faces lengths differ": (None, lambda mesh: EmbeddedMesh(
        mesh.vertices, mesh.cells, mesh.boundary_faces, mesh.face_tags[:-1])),
    "intrinsic dim 0 not in [1, 2]": ("disk", _point_cells),
    "boundary face index out of range": ("disk", _face_out_of_range),
    "ambient_dim field disagrees with vertex data": ("disk", _ambient_dim_field),
    "intrinsic_dim field disagrees with cell data": ("torus", _intrinsic_dim_field),
}


@pytest.fixture(scope="module")
def documents(disk_mesh_coarse, torus_mesh):
    return {"disk": disk_mesh_coarse.to_document(), "torus": torus_mesh.to_document()}


@pytest.mark.parametrize("message", sorted(MESH_FAULTS))
def test_mesh_faults_name_themselves(tmp_path, capsys, disk_mesh_coarse, documents, message):
    source, edit = MESH_FAULTS[message]
    if source is None:
        with pytest.raises(MeshError, match=re.escape(message)):
            edit(disk_mesh_coarse)
        return
    doc = json.loads(json.dumps(documents[source]))
    edit(doc)
    with pytest.raises(MeshError, match=re.escape(message)):
        EmbeddedMesh.from_document(doc)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", "--mesh", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition failure: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["spectrum"], "no steklov faces on the mesh"),
     (["certify", "--k", "1", "--i-sigma", "2"], "mesh has no steklov faces")],
)
def test_closed_mesh_has_no_steklov_problem(tmp_path, capsys, documents, argv, message):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(documents["torus"]))
    assert main([argv[0], "--mesh", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_submesh_inherits_tags(annulus_mesh):
    centroids = annulus_mesh.vertices[annulus_mesh.cells].mean(axis=1)
    keep = np.linalg.norm(centroids, axis=1) < 1.5
    inner_half = submesh(annulus_mesh, np.nonzero(keep)[0])
    inner_half.validate()
    tags = set(inner_half.face_tags)
    assert tags == {"steklov", "neumann"}  # original inner circle + new cut


# -- reference: the per-cell dict bookkeeping that the facet table replaced ---


def reference_facet_counts(cells):
    counts = {}
    k = cells.shape[1]
    for cell in cells:
        for drop in range(k):
            key = tuple(sorted(int(v) for i, v in enumerate(cell) if i != drop))
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_boundary_facets(cells):
    return sorted(key for key, c in reference_facet_counts(cells).items() if c == 1)


def reference_tags(desc, mesh):
    """The families' tagging rules, applied one face at a time."""
    faces = [list(f) for f in mesh.boundary_faces]
    if desc.kind == "annulus-flat" and desc.n == 2:
        radius = np.linalg.norm(mesh.vertices, axis=1)
        inner = {i for i, r in enumerate(radius) if abs(r - desc.eps) < 1e-9}
        return [STEKLOV if all(v in inner for v in f) else NEUMANN for f in faces]
    if desc.kind in ("annulus-flat", "product-annulus-circle"):
        radius = np.linalg.norm(mesh.vertices[:, : 3 if desc.kind == "annulus-flat" else 2], axis=1)
        tags = []
        for f in faces:
            rmean = radius[f].mean()
            tags.append(STEKLOV if abs(rmean - desc.eps) < abs(rmean - desc.delta) else NEUMANN)
        return tags
    return [STEKLOV] * len(faces)


FAMILY_CASES = [
    FamilyDescriptor("ball-flat", h=0.2, n=2, delta=1.0),
    FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0, h_boundary=0.05),
    FamilyDescriptor("ball-flat", h=0.35, n=3, delta=1.0),
    FamilyDescriptor("ball-flat", h=0.5, n=3, delta=1.0, h_boundary=0.25),
    FamilyDescriptor("annulus-flat", h=0.2, n=2, eps=1.0, delta=2.0),
    FamilyDescriptor("annulus-flat", h=0.3, n=2, eps=1.0, delta=2.0, h_boundary=0.1),
    FamilyDescriptor("annulus-flat", h=0.45, n=3, eps=1.0, delta=2.0),
    FamilyDescriptor("annulus-flat", h=0.5, n=3, eps=1.0, delta=2.0, h_boundary=0.3),
    FamilyDescriptor("cylinder-surface", h=0.2, radius=1.0, length=1.0),
    FamilyDescriptor("cylinder-surface", h=0.3, radius=1.0, length=1.0, h_boundary=0.05),
    FamilyDescriptor("sphere-boundary", h=0.2, n=2, eps=1.0),
    FamilyDescriptor("sphere-boundary", h=0.3, n=3, eps=1.0),
    FamilyDescriptor("torus-surface", h=0.4, major_radius=2.0, minor_radius=1.0),
    FamilyDescriptor("revolution-closure", h=0.3, n=2, eps=0.5, delta=2.0),
    FamilyDescriptor("revolution-closure", h=0.4, n=2, eps=0.5, delta=2.0, h_boundary=0.1),
    FamilyDescriptor("product-annulus-circle", h=0.35, n=2, eps=0.5, delta=2.0, circle_radius=0.3),
    FamilyDescriptor(
        "product-annulus-circle", h=0.38, n=2, eps=0.5, delta=2.0, circle_radius=0.3, h_boundary=0.2
    ),
]


def _case_id(desc):
    return f"{desc.kind}-n{desc.n}-h{desc.h}" + ("-graded" if desc.h_boundary else "")


@pytest.mark.parametrize("desc", FAMILY_CASES, ids=_case_id)
def test_facet_table_matches_dict_reference(desc):
    mesh = generate_mesh(desc)
    counts = reference_facet_counts(mesh.cells)
    facets, table_counts = facet_table(mesh.cells)
    assert [tuple(f) for f in facets.tolist()] == sorted(counts)
    assert table_counts.tolist() == [counts[key] for key in sorted(counts)]
    assert mesh.boundary_faces.tolist() == [list(f) for f in reference_boundary_facets(mesh.cells)]
    assert list(mesh.face_tags) == reference_tags(desc, mesh)


@pytest.mark.parametrize("desc", [FAMILY_CASES[i] for i in (4, 2, 15)], ids=_case_id)
def test_submesh_matches_dict_reference(desc):
    mesh = generate_mesh(desc)
    old_tags = {
        tuple(sorted(int(v) for v in f)): t for f, t in zip(mesh.boundary_faces, mesh.face_tags)
    }
    rng = np.random.default_rng(0)
    for _ in range(3):
        keep = np.nonzero(rng.random(len(mesh.cells)) < 0.6)[0]
        sub = submesh(mesh, keep)
        remap = {int(v): i for i, v in enumerate(np.unique(mesh.cells[keep]))}
        facets = reference_boundary_facets(mesh.cells[keep])
        assert sub.boundary_faces.tolist() == [[remap[v] for v in f] for f in facets]
        assert list(sub.face_tags) == [old_tags.get(f, NEUMANN) for f in facets]
        assert {STEKLOV, NEUMANN} <= set(sub.face_tags)
