"""Simplicial meshes embedded in Euclidean space.

An EmbeddedMesh is an n-dimensional simplicial complex with vertices in R^m,
n <= m.  Cells are (n+1)-tuples of vertex indices; boundary faces are
n-tuples carrying a "steklov" or "neumann" tag.  Volumes of simplices of any
codimension are computed with the Gram-determinant formula, so meshes of
curves, surfaces and solids go through the same code path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import MeshError

STEKLOV = "steklov"
NEUMANN = "neumann"

MESH_FORMAT_VERSION = 1


def simplex_volume(points) -> float:
    """d-dimensional Hausdorff volume of the simplex spanned by d+1 points in R^m.

    Uses sqrt(det(E E^T))/d! with E the matrix of edge vectors from the first
    vertex.  A single point has volume 1 (0-dimensional counting measure).
    Returns 0 exactly when the simplex is degenerate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of vertex coordinates")
    d = pts.shape[0] - 1
    if d > pts.shape[1]:
        raise ValueError("simplex dimension exceeds ambient dimension")
    if d == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram))
    if det <= 0.0:
        return 0.0
    return math.sqrt(det) / math.factorial(d)


def _batched_volumes(vertices: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Volumes of many simplices at once (rows of `simplices` index `vertices`)."""
    if simplices.shape[0] == 0:
        return np.zeros(0)
    d = simplices.shape[1] - 1
    if d == 0:
        return np.ones(simplices.shape[0])
    pts = vertices[simplices]
    edges = pts[:, 1:, :] - pts[:, :1, :]
    gram = np.einsum("cik,cjk->cij", edges, edges)
    det = np.linalg.det(gram)
    det = np.where(det > 0.0, det, 0.0)
    return np.sqrt(det) / math.factorial(d)


def facet_counts(cells: np.ndarray) -> dict[tuple, int]:
    """Count how many cells contain each (d-1)-facet, keyed by sorted tuple."""
    counts: dict[tuple, int] = {}
    k = cells.shape[1]
    for cell in cells:
        for drop in range(k):
            key = tuple(sorted(int(v) for i, v in enumerate(cell) if i != drop))
            counts[key] = counts.get(key, 0) + 1
    return counts


def boundary_facets(cells: np.ndarray) -> list[tuple]:
    """Facets that belong to exactly one cell, as sorted index tuples."""
    return sorted(key for key, c in facet_counts(cells).items() if c == 1)


@dataclass
class EmbeddedMesh:
    """Simplicial n-dimensional mesh with vertices in R^m and tagged boundary.

    vertices : (N, m) float array
    cells : (C, n+1) int array of n-simplices
    boundary_faces : (F, n) int array of (n-1)-simplices on the boundary
    face_tags : length-F sequence of "steklov" / "neumann"
    metadata : free-form, JSON-serializable (family parameters, seam rings, ...)
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_faces: np.ndarray
    face_tags: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.boundary_faces = np.asarray(self.boundary_faces, dtype=np.int64)
        if self.boundary_faces.size == 0:
            self.boundary_faces = self.boundary_faces.reshape(0, max(self.intrinsic_dim, 1))
        self.face_tags = np.asarray(self.face_tags, dtype=object)
        if self.vertices.ndim != 2:
            raise MeshError("vertices must be an (N, m) array")
        if self.cells.ndim != 2:
            raise MeshError("cells must be a (C, n+1) array")
        if len(self.face_tags) != len(self.boundary_faces):
            raise MeshError("face_tags and boundary_faces lengths differ")

    # -- basic queries ---------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def intrinsic_dim(self) -> int:
        return self.cells.shape[1] - 1

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def cell_volumes(self) -> np.ndarray:
        return _batched_volumes(self.vertices, self.cells)

    def face_volumes(self) -> np.ndarray:
        return _batched_volumes(self.vertices, self.boundary_faces)

    def volume(self) -> float:
        return float(self.cell_volumes().sum())

    def steklov_mask(self) -> np.ndarray:
        return np.array([t == STEKLOV for t in self.face_tags], dtype=bool)

    def steklov_faces(self) -> np.ndarray:
        return self.boundary_faces[self.steklov_mask()]

    def steklov_volume(self) -> float:
        vols = self.face_volumes()
        return float(vols[self.steklov_mask()].sum())

    def steklov_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on Steklov-tagged faces."""
        faces = self.steklov_faces()
        if faces.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(faces)

    def boundary_vertices(self) -> np.ndarray:
        if self.boundary_faces.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(self.boundary_faces)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def edge_lengths(self) -> np.ndarray:
        """Lengths of all cell edges (with repetition across cells)."""
        n1 = self.cells.shape[1]
        pairs = list(itertools.combinations(range(n1), 2))
        pts = self.vertices[self.cells]
        out = [np.linalg.norm(pts[:, i, :] - pts[:, j, :], axis=1) for i, j in pairs]
        return np.concatenate(out)

    def vertex_adjacency(self):
        """Sparse symmetric vertex adjacency built from cell edges."""
        n1 = self.cells.shape[1]
        rows, cols = [], []
        for i, j in itertools.combinations(range(n1), 2):
            rows.append(self.cells[:, i])
            cols.append(self.cells[:, j])
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        data = np.ones(len(r))
        adj = coo_matrix((data, (r, c)), shape=(self.n_vertices, self.n_vertices))
        return (adj + adj.T).tocsr()

    def is_connected(self) -> bool:
        ncomp, _ = connected_components(self.vertex_adjacency(), directed=False)
        return ncomp == 1

    def boundary_components(self) -> int:
        """Number of connected components of the boundary face complex."""
        if self.boundary_faces.size == 0:
            return 0
        faces = self.boundary_faces
        verts = np.unique(faces)
        remap = {int(v): i for i, v in enumerate(verts)}
        rows, cols = [], []
        k = faces.shape[1]
        for face in faces:
            for i, j in itertools.combinations(range(k), 2):
                rows.append(remap[int(face[i])])
                cols.append(remap[int(face[j])])
        if not rows and k == 1:
            # 0-dimensional boundary: every face is its own component
            return len(verts)
        data = np.ones(len(rows))
        adj = coo_matrix((data, (rows, cols)), shape=(len(verts), len(verts)))
        ncomp, _ = connected_components(adj + adj.T, directed=False)
        return int(ncomp)

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise MeshError on the first failure.

        Verified: finite coordinates, index ranges, every boundary face
        belongs to exactly one cell, interior facets to exactly two, and
        every cell has positive volume.
        """
        n = self.intrinsic_dim
        if not (1 <= n <= self.ambient_dim):
            raise MeshError(f"intrinsic dim {n} not in [1, {self.ambient_dim}]")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinates")
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= self.n_vertices):
            raise MeshError("cell index out of range")
        if self.boundary_faces.size and (
            self.boundary_faces.min() < 0 or self.boundary_faces.max() >= self.n_vertices
        ):
            raise MeshError("boundary face index out of range")
        for tag in self.face_tags:
            if tag not in (STEKLOV, NEUMANN):
                raise MeshError(f"unknown face tag {tag!r}")

        counts = facet_counts(self.cells)
        bad = [k for k, c in counts.items() if c > 2]
        if bad:
            raise MeshError(f"facet {bad[0]} shared by more than two cells")
        declared = {tuple(sorted(int(v) for v in f)) for f in self.boundary_faces}
        actual = {k for k, c in counts.items() if c == 1}
        if declared != actual:
            missing = actual - declared
            extra = declared - actual
            raise MeshError(
                f"boundary faces inconsistent with cell facets "
                f"(missing {len(missing)}, extra {len(extra)})"
            )

        vols = self.cell_volumes()
        degenerate = np.nonzero(vols <= 0.0)[0]
        if degenerate.size:
            raise MeshError(f"cell {int(degenerate[0])} has nonpositive volume")

    # -- transforms ------------------------------------------------------

    def scaled(self, t: float) -> "EmbeddedMesh":
        """Homothety by t > 0 about the origin."""
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return EmbeddedMesh(
            self.vertices * t,
            self.cells.copy(),
            self.boundary_faces.copy(),
            self.face_tags.copy(),
            dict(self.metadata),
        )

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "EmbeddedMesh":
        """Apply the rigid motion x -> Q x + b."""
        q = np.asarray(rotation, dtype=float)
        b = np.asarray(translation, dtype=float)
        return EmbeddedMesh(
            self.vertices @ q.T + b,
            self.cells.copy(),
            self.boundary_faces.copy(),
            self.face_tags.copy(),
            dict(self.metadata),
        )

    def submesh(self, cell_indices) -> "EmbeddedMesh":
        """Restriction to a subset of cells.

        Boundary faces inherit their tags where they coincide with original
        boundary faces; faces newly exposed by the cut are tagged neumann
        (the mixed-problem convention for interior interfaces).
        """
        cells = self.cells[np.asarray(cell_indices)]
        used = np.unique(cells)
        remap = -np.ones(self.n_vertices, dtype=np.int64)
        remap[used] = np.arange(len(used))
        old_tags = {
            tuple(sorted(int(v) for v in face)): tag
            for face, tag in zip(self.boundary_faces, self.face_tags)
        }
        faces, tags = [], []
        for facet in boundary_facets(cells):
            faces.append([remap[v] for v in facet])
            tags.append(old_tags.get(facet, NEUMANN))
        return EmbeddedMesh(
            self.vertices[used],
            remap[cells],
            np.array(faces, dtype=np.int64).reshape(len(faces), self.intrinsic_dim),
            np.array(tags, dtype=object),
            dict(self.metadata),
        )

    def with_tags(self, face_tags) -> "EmbeddedMesh":
        """Same mesh with replaced boundary tags (for bracketing experiments)."""
        tags = np.asarray(face_tags, dtype=object)
        if len(tags) != len(self.boundary_faces):
            raise MeshError("tag count mismatch")
        return EmbeddedMesh(
            self.vertices.copy(),
            self.cells.copy(),
            self.boundary_faces.copy(),
            tags,
            dict(self.metadata),
        )

    # -- serialization ---------------------------------------------------

    def to_document(self) -> dict:
        return {
            "version": MESH_FORMAT_VERSION,
            "ambient_dim": self.ambient_dim,
            "intrinsic_dim": self.intrinsic_dim,
            "vertices": self.vertices.tolist(),
            "cells": self.cells.tolist(),
            "boundary_faces": [
                {"indices": [int(v) for v in face], "tag": str(tag)}
                for face, tag in zip(self.boundary_faces, self.face_tags)
            ],
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_document(), fh)

    @classmethod
    def from_document(cls, doc: dict) -> "EmbeddedMesh":
        if doc.get("version") != MESH_FORMAT_VERSION:
            raise MeshError(f"unsupported mesh document version {doc.get('version')!r}")
        faces = doc.get("boundary_faces", [])
        n = int(doc["intrinsic_dim"])
        bf = np.array([f["indices"] for f in faces], dtype=np.int64).reshape(len(faces), n)
        tags = np.array([f["tag"] for f in faces], dtype=object)
        mesh = cls(
            np.array(doc["vertices"], dtype=float),
            np.array(doc["cells"], dtype=np.int64),
            bf,
            tags,
            doc.get("metadata", {}),
        )
        if mesh.ambient_dim != int(doc["ambient_dim"]):
            raise MeshError("ambient_dim field disagrees with vertex data")
        if mesh.intrinsic_dim != n:
            raise MeshError("intrinsic_dim field disagrees with cell data")
        return mesh

    @classmethod
    def load(cls, path) -> "EmbeddedMesh":
        with open(path) as fh:
            return cls.from_document(json.load(fh))
