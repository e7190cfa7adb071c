"""Simplicial meshes embedded in Euclidean space.

An EmbeddedMesh is an n-dimensional simplicial complex with vertices in R^m,
n <= m.  Cells are (n+1)-tuples of vertex indices; boundary faces are
n-tuples carrying a "steklov" or "neumann" tag.  All facet combinatorics
(boundary extraction and validation) go through one facet table, and the
volumes of simplices of any codimension through one batched Gram-determinant
kernel, so meshes of curves, surfaces and solids share a code path.  A mesh
validates itself on construction and is immutable after.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import MeshError, UsageError
from .report import open_output

STEKLOV = "steklov"
NEUMANN = "neumann"

MESH_FORMAT_VERSION = 1


def simplex_grams(vertices: np.ndarray, simplices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge Gram matrices E E^T and volumes of many d-simplices at once.

    Row c of `simplices` indexes the d+1 vertices of one simplex and E holds
    its edge vectors from the first vertex.  The volume is sqrt(det(E E^T))/d!,
    0 exactly when the simplex is degenerate and 1 for a point (0-dimensional
    counting measure).  A determinant that overflows to NaN stays NaN, so the
    caller sees a measure that is not finite rather than a degenerate simplex.
    """
    pts = vertices[simplices]
    edges = pts[:, 1:, :] - pts[:, :1, :]
    gram = np.einsum("cik,cjk->cij", edges, edges)
    with np.errstate(invalid="ignore"):  # an inf Gram entry makes the LU NaN
        det = np.linalg.det(gram)
    return gram, np.sqrt(np.where(det <= 0.0, 0.0, det)) / math.factorial(simplices.shape[1] - 1)


def read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def simplex_volume(points) -> float:
    """d-dimensional Hausdorff volume of the simplex spanned by d+1 points in R^m."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of vertex coordinates")
    if pts.shape[0] - 1 > pts.shape[1]:
        raise ValueError("simplex dimension exceeds ambient dimension")
    return float(simplex_grams(pts, np.arange(len(pts))[None, :])[1][0])


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d integer array in lexicographic order.

    Returns (unique, inverse, counts) with rows == unique[inverse] and
    counts[i] the number of rows equal to unique[i].
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(head) - 1
    return ordered[head], inverse, np.diff(np.flatnonzero(np.append(head, True)))


def facet_table(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (d-1)-facets of the d-simplices `cells`, with the number of cells holding each.

    Facets are rows of sorted vertex ids, in lexicographic order.
    """
    k = cells.shape[1]
    keep = np.nonzero(~np.eye(k, dtype=bool))[1].reshape(k, k - 1)  # row i omits slot i
    facets = np.sort(cells[:, keep], axis=2).reshape(-1, k - 1)
    unique, _, counts = _unique_rows(facets)
    return unique, counts


def boundary_facets(cells: np.ndarray) -> np.ndarray:
    """Facets that belong to exactly one cell, as rows in facet_table order."""
    facets, counts = facet_table(cells)
    return facets[counts == 1]


def _edge_graph(simplices: np.ndarray, size: int):
    """Sparse symmetric adjacency of the simplices' edges on `size` vertices."""
    i, j = np.triu_indices(simplices.shape[1], 1)
    rows, cols = simplices[:, i].ravel(), simplices[:, j].ravel()
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    return (adj + adj.T).tocsr()


def _index_array(rows) -> np.ndarray:
    """int64 array of a document's vertex indices; MeshError on a non-integral one."""
    values = np.array(rows)
    if values.dtype.kind != "i":  # floats, strings, objects: integral values only
        values = values.astype(float)
        if not (np.all(np.abs(values) < 2.0**53) and np.array_equal(np.trunc(values), values)):
            raise MeshError("mesh document has a non-integral vertex index")
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class EmbeddedMesh:
    """Simplicial n-dimensional mesh with vertices in R^m and tagged boundary.

    vertices : (N, m) float array
    cells : (C, n+1) int array of n-simplices
    boundary_faces : (F, n) int array of (n-1)-simplices on the boundary
    face_tags : length-F sequence of "steklov" / "neumann"
    metadata : free-form, JSON-serializable (family parameters, seam rings, ...)

    Immutable: the arrays are read-only once validated, and derived values are kept.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_faces: np.ndarray
    face_tags: np.ndarray
    metadata: dict = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        for name, dtype in [("vertices", float), ("cells", np.int64),
                            ("boundary_faces", np.int64), ("face_tags", object)]:
            given = getattr(self, name)
            array = np.asarray(given, dtype=dtype)
            # freezing below must not reach into a buffer the caller can still write
            shared = array.flags.writeable and (array is given or array.base is not None)
            put(name, array.copy() if shared else array)
        if self.vertices.ndim != 2:
            raise MeshError("vertices must be an (N, m) array")
        if self.cells.ndim != 2:
            raise MeshError("cells must be a (C, n+1) array")
        if self.boundary_faces.size == 0:
            put("boundary_faces", self.boundary_faces.reshape(0, max(self.intrinsic_dim, 1)))
        if len(self.face_tags) != len(self.boundary_faces):
            raise MeshError("face_tags and boundary_faces lengths differ")
        self.validate()
        for array in (self.vertices, self.cells, self.boundary_faces, self.face_tags):
            read_only(array)

    def cached(self, key: str, build):
        """build(mesh), computed on the first request for `key`; callers share it read-only."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

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
        return self.cached("cells", lambda m: read_only(simplex_grams(m.vertices, m.cells)[1]))

    def face_volumes(self) -> np.ndarray:
        return self.cached(
            "faces", lambda m: read_only(simplex_grams(m.vertices, m.boundary_faces)[1])
        )

    def volume(self) -> float:
        return float(self.cell_volumes().sum())

    def steklov_mask(self) -> np.ndarray:
        return self.face_tags == STEKLOV

    def steklov_faces(self) -> np.ndarray:
        return self.boundary_faces[self.steklov_mask()]

    def steklov_volume(self) -> float:
        vols = self.face_volumes()
        return float(vols[self.steklov_mask()].sum())

    def steklov_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on Steklov-tagged faces."""
        return self.cached("steklov_vertices", lambda m: read_only(np.unique(m.steklov_faces())))

    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.boundary_faces)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))

    def is_connected(self) -> bool:
        ncomp, _ = connected_components(_edge_graph(self.cells, self.n_vertices), directed=False)
        return ncomp == 1

    def boundary_components(self) -> int:
        """Number of connected components of the boundary face complex."""
        graph = _edge_graph(self.boundary_faces, self.n_vertices)
        ncomp, _ = connected_components(graph, directed=False)
        # every vertex off the boundary is an isolated node of the graph
        return int(ncomp) - (self.n_vertices - len(self.boundary_vertices()))

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise MeshError on the first failure.

        Runs on construction, and the mesh keeps the cell and face volumes it measures.
        Verified: finite coordinates, index ranges, known tags, every facet in
        at most two cells, the boundary faces listed once each and exactly the
        facets of one cell, every cell of positive volume, and finite cell and
        boundary-face volumes with finite totals.
        """
        n = self.intrinsic_dim
        if not (1 <= n <= self.ambient_dim):
            raise MeshError(f"intrinsic dim {n} not in [1, {self.ambient_dim}]")
        if self.boundary_faces.ndim != 2 or self.boundary_faces.shape[1] != n:
            raise MeshError("boundary_faces must be an (F, n) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinates")
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= self.n_vertices):
            raise MeshError("cell index out of range")
        if self.boundary_faces.size and (
            self.boundary_faces.min() < 0 or self.boundary_faces.max() >= self.n_vertices
        ):
            raise MeshError("boundary face index out of range")
        known = (self.face_tags == STEKLOV) | (self.face_tags == NEUMANN)
        if not known.all():
            raise MeshError(f"unknown face tag {self.face_tags[~known][0]!r}")

        facets, counts = facet_table(self.cells)
        if (counts > 2).any():
            bad = tuple(facets[counts > 2][0].tolist())
            raise MeshError(f"facet {bad} shared by more than two cells")
        declared = np.sort(self.boundary_faces, axis=1)
        distinct, group, _ = _unique_rows(np.concatenate([declared, facets[counts == 1]]))
        listed = np.bincount(group[: len(declared)], minlength=len(distinct))
        free = np.bincount(group[len(declared) :], minlength=len(distinct))
        if (listed != free).any():
            missing, extra, repeated = (listed < free).sum(), (free == 0).sum(), (listed > 1).sum()
            raise MeshError(
                f"boundary faces inconsistent with cell facets "
                f"(missing {missing}, extra {extra}, repeated {repeated})"
            )

        vols = self.cell_volumes()
        degenerate = np.nonzero(vols <= 0.0)[0]
        if degenerate.size:
            raise MeshError(f"cell {int(degenerate[0])} has nonpositive volume")
        for what, measures in (("cell", vols), ("boundary face", self.face_volumes())):
            if not np.isfinite(measures.sum()):  # volumes are >= 0: one total covers each
                raise MeshError(f"{what} volumes or their total are not finite")

    # -- serialization ---------------------------------------------------

    def to_document(self) -> dict:
        return {
            "version": MESH_FORMAT_VERSION,
            "ambient_dim": self.ambient_dim,
            "intrinsic_dim": self.intrinsic_dim,
            "vertices": self.vertices.tolist(),
            "cells": self.cells.tolist(),
            "boundary_faces": [
                {"indices": face, "tag": str(tag)}
                for face, tag in zip(self.boundary_faces.tolist(), self.face_tags)
            ],
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        """Write the document as one json.dumps text; json.dump would run
        CPython's pure-Python encoder instead of its C encoder."""
        with open_output(path) as fh:
            fh.write(json.dumps(self.to_document()))

    @classmethod
    def from_document(cls, doc: dict) -> "EmbeddedMesh":
        """Validated mesh from a parsed document; MeshError if it is malformed."""
        try:
            if doc.get("version") != MESH_FORMAT_VERSION:
                raise MeshError(f"unsupported mesh document version {doc.get('version')!r}")
            faces = doc.get("boundary_faces", [])
            n = int(doc["intrinsic_dim"])
            ambient = int(doc["ambient_dim"])
            vertices = np.array(doc["vertices"], dtype=float)
            cells = _index_array(doc["cells"])
            bf = _index_array([f["indices"] for f in faces]).reshape(len(faces), n)
            tags = np.array([f["tag"] for f in faces], dtype=object)
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MeshError(f"malformed mesh document ({type(exc).__name__}: {exc})") from exc
        mesh = cls(vertices, cells, bf, tags, doc.get("metadata", {}))
        if mesh.ambient_dim != ambient:
            raise MeshError("ambient_dim field disagrees with vertex data")
        if mesh.intrinsic_dim != n:
            raise MeshError("intrinsic_dim field disagrees with cell data")
        return mesh

    @classmethod
    def load(cls, path) -> "EmbeddedMesh":
        """Read a mesh document; UsageError if the file cannot be read."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read mesh file {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise MeshError(f"mesh file {path} is not JSON ({exc})") from exc
        return cls.from_document(doc)
