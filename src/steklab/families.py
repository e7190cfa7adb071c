"""Mesh generators for the built-in manifold families.

Families (kind strings):
  ball-flat                n-ball of radius delta in R^n, n = 2 or 3
  annulus-flat             {eps < |x| < delta} in R^n, n = 2 or 3; the inner
                           sphere is tagged steklov, the outer one neumann
  cylinder-surface         S^1_radius x [0, L] lateral surface in R^3
  sphere-boundary          round sphere S^(n-1)_eps in R^n (closed, no boundary)
  torus-surface            standard torus of revolution in R^3 (closed)
  revolution-closure       the annulus closed up through a half-torus collar
                           and a disk cap; one boundary circle of radius eps
  product-annulus-circle   A(eps, delta) x S^1_R as a 3-manifold in R^4 (n = 2)

All generators place vertices exactly on the family geometry and take the
boundary faces, in facet-table order, from the cells' free facets; every
EmbeddedMesh validates itself on construction.  `h` is the target edge
length; `h_boundary` optionally grades the mesh toward the Steklov boundary
(tangential spacing h_boundary, normal spacing from 9x that), which the
packing pipeline needs when its radius is much smaller than h.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

from .errors import SIZE_BUDGET, ResolutionError, UsageError, check
from .euclidean import unit_sphere_area
from .mesh import NEUMANN, STEKLOV, EmbeddedMesh, boundary_facets

_GRADING_RATIO = 1.3
_MIN_ANGULAR = 8
# Graded meshes keep the tangential spacing at h_boundary but start normal
# steps at 9x that.  With the plain quad split below, every band triangle
# has two vertices on one ring: the tangential gradient of an interpolated
# 1/r-Lipschitz test function is then at most 1/r and the normal one at
# most 1/(9 h_boundary), so the interpolant stays within a few percent of
# the exact Lipschitz bound (isotropic cells would inflate apex-cell
# gradients up to sqrt(2)).
_NORMAL_TO_TANGENT = 9.0


@dataclass(frozen=True)
class FamilyDescriptor:
    """Parameters selecting one member of a family plus mesh density."""

    kind: str
    h: float
    n: int = 2
    eps: Optional[float] = None
    delta: Optional[float] = None
    radius: Optional[float] = None
    length: Optional[float] = None
    circle_radius: Optional[float] = None
    major_radius: Optional[float] = None
    minor_radius: Optional[float] = None
    h_boundary: Optional[float] = None

    def __post_init__(self):
        family = _FAMILIES.get(self.kind)
        if family is None:
            raise UsageError(f"unknown family kind {self.kind!r}")
        for name in ("h", "h_boundary", "radius", "length", "circle_radius", "major_radius",
                     "minor_radius", "delta", "eps"):
            value = getattr(self, name)
            if value is not None or name == "h" or name in family.sizes:
                high = {"eps": self.delta, "minor_radius": self.major_radius}.get(name)
                check(name, value, 0, high, strict=True)
        if family.ns is not None and self.n not in family.ns:
            raise UsageError(
                f"{self.kind} is meshed for n = {', '.join(map(str, family.ns))} only"
            )


@dataclass(frozen=True)
class GeometricSummary:
    """Measured volumes plus analytic injectivity radius where available."""

    volume_m: float
    volume_sigma: float
    isoperimetric_ratio: Optional[float]
    injectivity_radius: Optional[float] = None

    def to_payload(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# helpers


def _angular_count(circumference: float, h: float) -> int:
    return max(_MIN_ANGULAR, int(math.ceil(circumference / h)))


def _require_resolved(radius: float, h: float, label: str) -> None:
    if int(math.ceil(2.0 * math.pi * radius / h)) < _MIN_ANGULAR:
        raise ResolutionError(
            f"h = {h} is too coarse to resolve the {label} of radius {radius} "
            f"(fewer than {_MIN_ANGULAR} boundary vertices)"
        )


def _graded_offsets(length: float, h: float, h_fine: Optional[float]) -> np.ndarray:
    """Node offsets on [0, length], spacing h_fine at 0 growing to h."""
    if h_fine is None or h_fine >= h:
        count = max(1, int(math.ceil(length / h)))
        return np.linspace(0.0, length, count + 1)
    steps = []
    s = h_fine
    total = 0.0
    while total < length:
        steps.append(s)
        total += s
        s = min(h, s * _GRADING_RATIO)
    steps = np.array(steps) * (length / total)
    return np.concatenate([[0.0], np.cumsum(steps)])


def _two_sided_offsets(length: float, h: float, h_fine: Optional[float]) -> np.ndarray:
    """Offsets graded fine at both endpoints of [0, length]."""
    half = _graded_offsets(length / 2.0, h, h_fine)
    back = length - half[::-1]
    return np.concatenate([half, back[1:]])


def _fibonacci_sphere(count: int, radius: float) -> np.ndarray:
    """Roughly uniform points on a sphere via the golden-angle spiral."""
    i = np.arange(count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = golden * i
    return radius * np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _bounded_mesh(points, cells, metadata, steklov=None) -> EmbeddedMesh:
    """Mesh whose boundary faces are the cells' free facets.

    steklov(faces) -> bool per face picks the Steklov faces, the rest are
    tagged neumann; by default every face is Steklov.
    """
    faces = boundary_facets(cells)
    is_steklov = np.ones(len(faces), dtype=bool) if steklov is None else steklov(faces)
    tags = np.where(is_steklov, STEKLOV, NEUMANN).astype(object)
    return EmbeddedMesh(points, cells, faces, tags, metadata)


def _nearer_inner(radius: np.ndarray, eps: float, delta: float):
    """Steklov test: a face is Steklov when its mean radius is nearer eps than delta."""

    def steklov(faces):
        rmean = radius[faces].mean(axis=1)
        return np.abs(rmean - eps) < np.abs(rmean - delta)

    return steklov


def _rings(angles: np.ndarray, radii) -> np.ndarray:
    """(len(radii), len(angles), 2) points of concentric circles."""
    radii = np.asarray(radii, dtype=float)[:, None]
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)


def _band_cells(ring_ids: list[np.ndarray]) -> np.ndarray:
    """Two triangles per quad over a ring lattice (consistent diagonals).

    ring_ids[k] are the vertex ids of ring k, all the same length, and each
    ring wraps around.  Rows run ring by ring, quad by quad: (a, b, c),
    (a, c, d) for the quad a-b-c-d.
    """
    rings = np.asarray(ring_ids, dtype=np.int64)
    j = np.arange(rings.shape[1])
    jn = np.roll(j, -1)
    a, b, c, d = rings[:-1, j], rings[1:, j], rings[1:, jn], rings[:-1, jn]
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# planar building blocks


def _polar_rings(eps: float, delta: float, h: float, h_fine: Optional[float]):
    """Radii and angular count of a structured polar lattice graded fine at radius eps."""
    h_radial = None if h_fine is None else min(h, _NORMAL_TO_TANGENT * h_fine)
    offsets = _graded_offsets(delta - eps, h, h_radial)
    radii = eps + offsets
    ntheta = max(
        _angular_count(2.0 * math.pi * delta, h),
        _angular_count(2.0 * math.pi * eps, h_fine if h_fine else h),
    )
    return radii, ntheta


def _structured_annulus(eps, delta, h, h_fine=None):
    """Structured ring-lattice triangle mesh of the planar annulus.

    Returns (points, triangles, inner_ring_ids, outer_ring_ids, ntheta).
    """
    radii, ntheta = _polar_rings(eps, delta, h, h_fine)
    points = _rings(2.0 * math.pi * np.arange(ntheta) / ntheta, radii).reshape(-1, 2)
    ring_ids = np.arange(len(points)).reshape(len(radii), ntheta)
    return points, _band_cells(ring_ids), ring_ids[0], ring_ids[-1], ntheta


def _delaunay_disk(delta: float, h: float, boundary_count: Optional[int] = None):
    """Ring-based Delaunay triangulation of the disk of radius delta.

    The outer ring has boundary_count points when prescribed (for seam
    matching); ring counts step down smoothly toward the center.
    """
    nr = max(1, int(math.ceil(delta / h)))
    radii = delta * (1.0 - np.arange(nr + 1) / nr)  # decreasing to 0
    pts = []
    prev_count = None
    for k, r in enumerate(radii):
        if r <= 1e-12 * delta:
            pts.append(np.zeros((1, 2)))
            continue
        count = max(6, int(round(2.0 * math.pi * r / h)))
        if k == 0 and boundary_count is not None:
            count = boundary_count
        if prev_count is not None:
            count = max(count, prev_count // 2)  # avoid abrupt fans
        prev_count = count
        stagger = 0.5 * (k % 2)
        angles = 2.0 * math.pi * (np.arange(count) + stagger) / count
        pts.append(np.column_stack([r * np.cos(angles), r * np.sin(angles)]))
    points = np.vstack(pts)
    tris = Delaunay(points).simplices.astype(np.int64)
    first_ring = len(pts[0])
    return points, tris, first_ring


def _structured_disk(delta: float, h: float, h_fine: float):
    """Structured polar disk graded fine at the boundary, fan at the center."""
    offsets = _graded_offsets(delta, h, min(h, _NORMAL_TO_TANGENT * h_fine))
    radii = (delta - offsets)[:-1]  # skip the exact center, fan closes it
    ntheta = _angular_count(2.0 * math.pi * delta, h_fine)
    rings = _rings(2.0 * math.pi * np.arange(ntheta) / ntheta, radii).reshape(-1, 2)
    points = np.vstack([rings, np.zeros((1, 2))])  # the center closes the fan
    ring_ids = np.arange(len(rings)).reshape(len(radii), ntheta)
    inner = ring_ids[-1]
    fan = np.column_stack([inner, np.roll(inner, -1), np.full(ntheta, len(rings))])
    return points, np.vstack([_band_cells(ring_ids), fan]), ring_ids[0]


# ---------------------------------------------------------------------------
# family generators


def _mesh_ball(desc: FamilyDescriptor) -> EmbeddedMesh:
    delta = desc.delta
    _require_resolved(delta, desc.h, "boundary sphere")
    if desc.n == 2:
        if desc.h_boundary is not None and desc.h_boundary < desc.h:
            points, tris, _ = _structured_disk(delta, desc.h, desc.h_boundary)
        else:
            points, tris, _ = _delaunay_disk(delta, desc.h)
        return _bounded_mesh(points, tris, {"family": "ball-flat", "n": 2})
    # n = 3: layered Fibonacci shells plus the center, Delaunay-filled
    offsets = _graded_offsets(delta, desc.h, desc.h_boundary)
    radii = delta - offsets
    layers = [np.zeros((1, 3))]
    for r in radii:
        if r <= 1e-12 * delta:
            continue
        count = max(14, int(round(4.0 * math.pi * r * r / (desc.h * desc.h))))
        layers.append(_fibonacci_sphere(count, r))
    points = np.vstack(layers)
    tets = Delaunay(points).simplices.astype(np.int64)
    return _bounded_mesh(points, tets, {"family": "ball-flat", "n": 3})


def _mesh_annulus(desc: FamilyDescriptor) -> EmbeddedMesh:
    eps, delta = desc.eps, desc.delta
    _require_resolved(eps, desc.h, "inner sphere")
    if desc.n == 2:
        points, tris, inner, outer, _ = _structured_annulus(
            eps, delta, desc.h, desc.h_boundary
        )
        return _bounded_mesh(
            points, tris, {"family": "annulus-flat", "n": 2},
            lambda faces: np.isin(faces, inner).all(axis=1),
        )
    # n = 3: spherical shell; Delaunay fills the hole, drop the hole tets
    offsets = _graded_offsets(delta - eps, desc.h, desc.h_boundary)
    radii = eps + offsets
    gap = radii[1] - radii[0]
    layers = []
    for r in radii:
        count = max(14, int(round(4.0 * math.pi * r * r / (desc.h * desc.h))))
        layers.append(_fibonacci_sphere(count, r))
    points = np.vstack(layers)
    tets = Delaunay(points).simplices.astype(np.int64)
    vertex_r = np.linalg.norm(points, axis=1)
    keep = ~np.all(vertex_r[tets] < eps + 0.5 * gap, axis=1)
    return _bounded_mesh(
        points, tets[keep], {"family": "annulus-flat", "n": 3}, _nearer_inner(vertex_r, eps, delta)
    )


def _mesh_cylinder(desc: FamilyDescriptor) -> EmbeddedMesh:
    rho, length = desc.radius, desc.length
    _require_resolved(rho, desc.h, "boundary circle")
    h_ang = desc.h_boundary if desc.h_boundary else desc.h
    ntheta = _angular_count(2.0 * math.pi * rho, h_ang)
    h_axial = None if desc.h_boundary is None else min(desc.h, _NORMAL_TO_TANGENT * desc.h_boundary)
    zs = _two_sided_offsets(length, desc.h, h_axial)
    circle = _rings(2.0 * math.pi * np.arange(ntheta) / ntheta, [rho])[0]
    points = np.column_stack([np.tile(circle, (len(zs), 1)), np.repeat(zs, ntheta)])
    ring_ids = np.arange(len(points)).reshape(len(zs), ntheta)
    return _bounded_mesh(points, _band_cells(ring_ids), {"family": "cylinder-surface"})


def _mesh_sphere(desc: FamilyDescriptor) -> EmbeddedMesh:
    eps = desc.eps
    _require_resolved(eps, desc.h, "sphere")
    if desc.n == 2:
        ntheta = _angular_count(2.0 * math.pi * eps, desc.h)
        angles = 2.0 * math.pi * np.arange(ntheta) / ntheta
        points = eps * np.column_stack([np.cos(angles), np.sin(angles)])
        cells = np.column_stack([np.arange(ntheta), np.roll(np.arange(ntheta), -1)])
        return _bounded_mesh(points, cells, {"family": "sphere-boundary", "n": 2})
    count = max(50, int(round(4.0 * math.pi * eps * eps / (desc.h * desc.h))))
    points = _fibonacci_sphere(count, eps)
    cells = ConvexHull(points).simplices.astype(np.int64)
    return _bounded_mesh(points, cells, {"family": "sphere-boundary", "n": 3})


def _mesh_torus(desc: FamilyDescriptor) -> EmbeddedMesh:
    big, small = desc.major_radius, desc.minor_radius
    _require_resolved(small, desc.h, "torus tube")
    ntheta = _angular_count(2.0 * math.pi * (big + small), desc.h)
    nphi = _angular_count(2.0 * math.pi * small, desc.h)

    def point(t, p):
        ring = big + small * math.cos(p)
        return (ring * math.cos(t), ring * math.sin(t), small * math.sin(p))

    th = 2.0 * math.pi * np.arange(ntheta) / ntheta
    ph = 2.0 * math.pi * np.arange(nphi) / nphi
    points = np.array([point(t, p) for t in th for p in ph])
    ring_ids = np.arange(len(points)).reshape(ntheta, nphi)
    ring_ids = np.vstack([ring_ids, ring_ids[:1]])  # wrap in the major direction
    return _bounded_mesh(points, _band_cells(ring_ids), {"family": "torus-surface"})


def _mesh_revolution_closure(desc: FamilyDescriptor) -> EmbeddedMesh:
    """Annulus at x3 = -1, half-torus collar, and a disk cap at x3 = +1.

    The parts share their seam circles (radius delta at x3 = -1, +1) by exact
    vertex identification.  The profile is only C^1 across the seams, which
    piecewise-linear elements do not see; seam vertex ids are recorded in the
    mesh metadata.  The single boundary component is the circle of radius eps
    at x3 = -1, tagged steklov.
    """
    eps, delta, h = desc.eps, desc.delta, desc.h
    _require_resolved(eps, h, "inner circle")

    ann_pts, ann_tris, ann_inner, ann_outer, ntheta = _structured_annulus(
        eps, delta, h, desc.h_boundary
    )
    vertices = [np.column_stack([ann_pts, -np.ones(len(ann_pts))])]
    offset = len(ann_pts)
    seam_bottom = ann_outer

    # collar ((delta + cos f) cos t, (delta + cos f) sin t, sin f), f in [-pi/2, pi/2]
    nphi = max(4, int(math.ceil(math.pi / h)))
    angles = 2.0 * math.pi * np.arange(ntheta) / ntheta

    def collar_ring(f):
        r = delta + math.cos(f)
        return np.column_stack(
            [r * np.cos(angles), r * np.sin(angles), np.full(ntheta, math.sin(f))]
        )

    vertices += [collar_ring(-0.5 * math.pi + math.pi * k / nphi) for k in range(1, nphi + 1)]
    ring_ids = [seam_bottom, *(offset + np.arange(nphi * ntheta).reshape(nphi, ntheta))]
    offset += nphi * ntheta
    seam_top = ring_ids[-1]

    # cap: disk of radius delta at x3 = +1, reusing the seam ring
    disk_pts, disk_tris, first_ring = _delaunay_disk(delta, h, boundary_count=ntheta)
    local_to_global = np.empty(len(disk_pts), dtype=np.int64)
    local_to_global[:first_ring] = seam_top
    interior = np.arange(first_ring, len(disk_pts))
    local_to_global[interior] = offset + np.arange(len(interior))
    vertices.append(np.column_stack([disk_pts[interior], np.ones(len(interior))]))

    points = np.vstack(vertices)
    cells = np.vstack([ann_tris, _band_cells(ring_ids), local_to_global[disk_tris]])
    meta = {
        "family": "revolution-closure",
        "n": 2,
        "seam_rings": [
            sorted(int(v) for v in seam_bottom),
            sorted(int(v) for v in seam_top),
        ],
    }
    return _bounded_mesh(points, cells, meta)


def _mesh_product_annulus_circle(desc: FamilyDescriptor) -> EmbeddedMesh:
    """A(eps, delta) x S^1_R as tetrahedra in R^4 (n = 2 cross-section).

    Prisms (triangle x circle segment) split into three tetrahedra by the
    sorted-vertex staircase rule, which is conforming across shared quad
    faces, including around the circle wrap.
    """
    eps, delta, big_r = desc.eps, desc.delta, desc.circle_radius
    _require_resolved(eps, desc.h, "inner sphere")
    ann_pts, ann_tris, inner, outer, _ = _structured_annulus(
        eps, delta, desc.h, desc.h_boundary
    )
    ns = max(_MIN_ANGULAR, int(math.ceil(2.0 * math.pi * big_r / desc.h)))
    thetas = 2.0 * math.pi * np.arange(ns) / ns
    na = len(ann_pts)
    circ = np.column_stack([big_r * np.cos(thetas), big_r * np.sin(thetas)])
    points = np.column_stack([np.tile(ann_pts, (ns, 1)), np.repeat(circ, na, axis=0)])

    # prism over sorted triangle a at slice s: bottom ids s*na + a, top ids
    # (s+1 mod ns)*na + a; the tetrahedra are the three 4-windows of
    # (bottom, top), listed triangle by triangle, slice by slice
    sorted_tris = np.sort(ann_tris, axis=1)[:, None, :]
    slices = np.arange(ns)[None, :, None]
    bottom, top = slices * na + sorted_tris, (slices + 1) % ns * na + sorted_tris
    prisms = np.concatenate([bottom, top], axis=2)
    tets = np.stack([prisms[..., w : w + 4] for w in range(3)], axis=2).reshape(-1, 4)

    planar_r = np.linalg.norm(points[:, :2], axis=1)
    return _bounded_mesh(
        points, tets, {"family": "product-annulus-circle", "n": 2},
        _nearer_inner(planar_r, eps, delta),
    )


@dataclass(frozen=True)
class _Family:
    sizes: tuple  # the descriptor sizes the family needs besides h
    ns: Optional[tuple]  # the values of n it is meshed for; None: n is unused
    dim: Callable[[int], int]  # intrinsic dimension of the mesh, given n
    generate: Callable[[FamilyDescriptor], EmbeddedMesh]


_FAMILIES = {
    "ball-flat": _Family(("delta",), (2, 3), lambda n: n, _mesh_ball),
    "annulus-flat": _Family(("eps", "delta"), (2, 3), lambda n: n, _mesh_annulus),
    "cylinder-surface": _Family(("radius", "length"), None, lambda n: 2, _mesh_cylinder),
    "sphere-boundary": _Family(("eps",), (2, 3), lambda n: n - 1, _mesh_sphere),
    "torus-surface": _Family(("major_radius", "minor_radius"), None, lambda n: 2, _mesh_torus),
    "revolution-closure": _Family(("eps", "delta"), (2,), lambda n: 2, _mesh_revolution_closure),
    "product-annulus-circle": _Family(
        ("eps", "delta", "circle_radius"), (2,), lambda n: 3, _mesh_product_annulus_circle
    ),
}
KINDS = tuple(_FAMILIES)


def generate_mesh(desc: FamilyDescriptor) -> EmbeddedMesh:
    """Build the (validated) mesh for a family descriptor.

    UsageError, before any allocation, if |M| / min(h, h_boundary)^dim exceeds SIZE_BUDGET.
    """
    family = _FAMILIES[desc.kind]
    h_min = min(desc.h, desc.h_boundary or desc.h)
    try:
        predicted = exact_volumes(desc)[0] / h_min ** family.dim(desc.n)
    except (OverflowError, ZeroDivisionError):
        predicted = math.inf
    check("the predicted vertex count", predicted, high=SIZE_BUDGET)
    return family.generate(desc)


# ---------------------------------------------------------------------------
# analytic quantities


def exact_volumes(desc: FamilyDescriptor) -> tuple[float, float]:
    """(volume of M, volume of the Steklov part of the boundary), exact."""
    n = desc.n
    if desc.kind == "ball-flat":
        d = desc.delta
        if n == 2:
            return math.pi * d * d, 2.0 * math.pi * d
        return 4.0 / 3.0 * math.pi * d**3, 4.0 * math.pi * d * d
    if desc.kind == "annulus-flat":
        e, d = desc.eps, desc.delta
        if n == 2:
            return math.pi * (d * d - e * e), 2.0 * math.pi * e
        return 4.0 / 3.0 * math.pi * (d**3 - e**3), 4.0 * math.pi * e * e
    if desc.kind == "cylinder-surface":
        rho, length = desc.radius, desc.length
        return 2.0 * math.pi * rho * length, 4.0 * math.pi * rho
    if desc.kind == "sphere-boundary":
        return unit_sphere_area(n - 1) * desc.eps ** (n - 1), 0.0
    if desc.kind == "torus-surface":
        return 4.0 * math.pi**2 * desc.major_radius * desc.minor_radius, 0.0
    if desc.kind == "revolution-closure":
        e, d = desc.eps, desc.delta
        annulus = math.pi * (d * d - e * e)
        cap = math.pi * d * d
        collar = 2.0 * math.pi * (math.pi * d + 2.0)
        return annulus + cap + collar, 2.0 * math.pi * e
    e, d, big_r = desc.eps, desc.delta, desc.circle_radius  # product-annulus-circle
    circ = 2.0 * math.pi * big_r
    return math.pi * (d * d - e * e) * circ, 2.0 * math.pi * e * circ


def injectivity_radius(desc: FamilyDescriptor) -> Optional[float]:
    """Analytic injectivity radius of the relevant boundary, family cases only.

    sphere-boundary: pi*eps of the sphere itself; product-annulus-circle:
    the boundary is S^(n-1)_eps x S^1_R, so min(pi*eps, pi*R);
    cylinder-surface: boundary circles of the given radius, so pi*radius.
    """
    if desc.kind == "sphere-boundary":
        return math.pi * desc.eps
    if desc.kind == "product-annulus-circle":
        return math.pi * min(desc.eps, desc.circle_radius)
    if desc.kind == "cylinder-surface":
        return math.pi * desc.radius
    return None


def geometric_summary(
    mesh: EmbeddedMesh, desc: Optional[FamilyDescriptor] = None
) -> GeometricSummary:
    """Measured volumes of the mesh; injectivity radius only when desc is given."""
    vol_m = mesh.volume()
    vol_sigma = mesh.steklov_volume()
    n = mesh.intrinsic_dim
    if vol_m <= 0 or vol_sigma <= 0:
        iso = None  # closed mesh: no Steklov boundary, no isoperimetric ratio
    else:
        iso = vol_sigma / vol_m ** ((n - 1) / n)
    inj = injectivity_radius(desc) if desc is not None else None
    return GeometricSummary(vol_m, vol_sigma, iso, inj)
