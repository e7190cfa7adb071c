"""Intersection counting of affine planes with meshed submanifolds.

For an n-dimensional mesh in R^m, planes of codimension n meet it generically
in isolated points.  The supremum of the count over transverse planes is
estimated from below by seeded random sampling with optional hill climbing,
and bounded from above, for algebraic families, by products of polynomial
degrees.  A concentration audit checks that the mesh volume inside random
balls stays below the bound (i/2) |S^q| r^q implied by a finite index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NonTransverseSample, PreconditionError, UsageError, check
from .euclidean import unit_sphere_area
from .mesh import EmbeddedMesh

BARYCENTRIC_TOL = 1e-9
CONDITION_MAX = 1e10
AUDIT_POINTS_PER_CELL = 1000  # barycentric quadrature points per straddling cell

_HILL_CLIMB_ROUNDS = 200
_HILL_CLIMB_ANNEAL_EVERY = 50
_AUDIT_CHUNK = 256  # straddling cells per quadrature GEMM: bounds its (cells, P) block


@dataclass
class AffinePlane:
    """The affine p-plane {x in R^m : normal_rows @ x = offset}.

    normal_rows is a (c, m) matrix with orthonormal rows, c = m - p.
    """

    normal_rows: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.normal_rows = np.atleast_2d(np.asarray(self.normal_rows, dtype=float))
        self.offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        c, m = self.normal_rows.shape
        if c < 1 or c > m:
            raise UsageError("codimension must satisfy 1 <= c <= m")
        if self.offset.shape != (c,):
            raise UsageError("offset length must equal the codimension")
        eye = np.eye(c)  # np.allclose(gram, eye, atol=1e-12) in plain ufuncs; NaN and inf fail
        if not (np.abs(self.normal_rows @ self.normal_rows.T - eye) <= 1e-12 + 1e-5 * eye).all():
            raise UsageError("normal rows must be orthonormal")

    @property
    def codim(self) -> int:
        return self.normal_rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.normal_rows.shape[1]

    def to_payload(self) -> dict:
        return {
            "normal_rows": self.normal_rows.tolist(),
            "offset": self.offset.tolist(),
        }


@dataclass
class IndexEstimate:
    """Certified-by-recount lower estimate of an intersection index."""

    sampled_max: int
    samples: int
    hill_climb_improvements: int
    degeneracy_rejections: int
    witness_plane: Optional[AffinePlane] = None
    degree_upper_bound: Optional[int] = None
    count_histogram: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "sampled_max": self.sampled_max,
            "samples": self.samples,
            "hill_climb_improvements": self.hill_climb_improvements,
            "degeneracy_rejections": self.degeneracy_rejections,
            "degree_upper_bound": self.degree_upper_bound,
            "witness_plane": self.witness_plane.to_payload() if self.witness_plane else None,
            "count_histogram": {str(k): v for k, v in sorted(self.count_histogram.items())},
        }


def plane_mesh_intersections(plane: AffinePlane, mesh: EmbeddedMesh) -> int:
    """Number of transverse intersection points of the plane with the mesh.

    Per cell, solves the affine system {normal_rows (V lam) = offset,
    sum(lam) = 1} and counts a hit when all barycentric coordinates exceed
    BARYCENTRIC_TOL.  A grazing solution (minimum coordinate within
    BARYCENTRIC_TOL of zero) or a system conditioned worse than CONDITION_MAX
    raises NonTransverseSample: the plane does not qualify for the supremum
    and the caller must resample.  Cells are screened first by reducing a
    slot-major (c, n+1, C) gather of the signed distances over its short
    vertex-slot axis.
    """
    if plane.ambient_dim != mesh.ambient_dim:
        raise UsageError("plane and mesh ambient dimensions differ")
    if plane.codim != mesh.intrinsic_dim:
        raise UsageError(
            f"plane codimension {plane.codim} must equal mesh dimension "
            f"{mesh.intrinsic_dim} for point intersections"
        )
    signed = (mesh.vertices @ plane.normal_rows.T - plane.offset).T  # (c, N)
    slack = BARYCENTRIC_TOL * (np.abs(signed).max() + 1.0)
    per_slot = np.take(signed, mesh.cells.T, axis=1)  # (c, n+1, C)
    lo, hi = per_slot.min(axis=1), per_slot.max(axis=1)
    candidates = np.nonzero(np.all((lo <= slack) & (hi >= -slack), axis=0))[0]
    if candidates.size == 0:
        return 0

    k = mesh.intrinsic_dim + 1
    systems = np.empty((len(candidates), k, k))
    systems[:, :-1, :] = per_slot[:, :, candidates].transpose(2, 0, 1)
    systems[:, -1, :] = 1.0
    s = np.linalg.svd(systems, compute_uv=False)  # condition number s[0] / s[-1]
    if not (s[:, 0] <= CONDITION_MAX * s[:, -1]).all():  # NaN and s[-1] == 0 fail too
        raise NonTransverseSample("ill-conditioned plane-cell system")
    try:
        lam = np.linalg.solve(systems, np.eye(k)[None, :, -1:])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NonTransverseSample("singular plane-cell system") from exc
    lam_min = lam.min(axis=1)
    if np.any(np.abs(lam_min) <= BARYCENTRIC_TOL):
        raise NonTransverseSample("intersection point grazes a cell facet")
    return int(np.count_nonzero(lam_min > BARYCENTRIC_TOL))


def _random_plane(rng: np.random.Generator, codim: int, lo, hi) -> AffinePlane:
    """Rotation-invariant plane through a point of the inflated bounding box."""
    m = len(lo)
    rows = rng.standard_normal((codim, m))
    q, _ = np.linalg.qr(rows.T)
    rows = q[:, :codim].T
    center = 0.5 * (lo + hi)
    span = 0.5 * (hi - lo) * 1.2 + 1e-12
    anchor = center + rng.uniform(-1.0, 1.0, size=m) * span
    return AffinePlane(rows, rows @ anchor)


def _perturbed_plane(
    rng: np.random.Generator, plane: AffinePlane, step: float, span: float
) -> AffinePlane:
    rows = plane.normal_rows + step * rng.standard_normal(plane.normal_rows.shape)
    q, _ = np.linalg.qr(rows.T)
    rows = q[:, : plane.codim].T
    offset = rows @ np.linalg.lstsq(plane.normal_rows, plane.offset, rcond=None)[0]
    offset = offset + step * span * rng.standard_normal(plane.codim)
    return AffinePlane(rows, offset)


def estimate_index(
    mesh: EmbeddedMesh,
    samples: int,
    seed: int = 0,
    hill_climb: bool = True,
    degree_bound: Optional[int] = None,
) -> IndexEstimate:
    """Monte Carlo lower estimate of the intersection index of a mesh.

    Draws `samples` transverse planes (Gaussian orientation, offset anchored
    uniformly in a 20%-inflated bounding box), keeps the running maximum,
    then optionally hill-climbs around the best plane with annealed
    perturbations.  Deterministic for a fixed seed.  The reported maximum is
    re-counted on the witness plane before returning.  A PL mesh can exceed
    its smooth surface's index: the h=0.22 torus reaches 6 at seed 15.
    """
    check("samples", samples, 1, integer=True)
    check("seed", seed, 0, integer=True)
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounding_box()
    span = float(np.linalg.norm(hi - lo))
    codim = mesh.intrinsic_dim

    rejections = 0
    max_rejections = samples * 10
    best = -1
    witness = None
    histogram: dict[int, int] = {}
    drawn = 0
    while drawn < samples:
        plane = _random_plane(rng, codim, lo, hi)
        try:
            count = plane_mesh_intersections(plane, mesh)
        except NonTransverseSample:
            rejections += 1
            if rejections > max_rejections:
                raise PreconditionError(
                    "all sampled planes were degenerate; the mesh may be pathological"
                )
            continue
        drawn += 1
        histogram[count] = histogram.get(count, 0) + 1
        if count > best:
            best = count
            witness = plane

    improvements = 0
    if hill_climb and witness is not None:
        step = 0.1
        for round_idx in range(_HILL_CLIMB_ROUNDS):
            if round_idx and round_idx % _HILL_CLIMB_ANNEAL_EVERY == 0:
                step *= 0.5
            candidate = _perturbed_plane(rng, witness, step, span)
            try:
                count = plane_mesh_intersections(candidate, mesh)
            except NonTransverseSample:
                rejections += 1
                continue
            if count > best:
                best = count
                witness = candidate
                improvements += 1

    recount = plane_mesh_intersections(witness, mesh)
    if recount != best:
        raise PreconditionError("witness plane recount disagrees with sampled maximum")
    if degree_bound is not None and best > degree_bound:
        raise PreconditionError(
            f"sampled maximum {best} exceeds the degree bound {degree_bound}"
        )
    return IndexEstimate(
        sampled_max=best,
        samples=samples,
        hill_climb_improvements=improvements,
        degeneracy_rejections=rejections,
        witness_plane=witness,
        degree_upper_bound=degree_bound,
        count_histogram=histogram,
    )


def degree_upper_bound(pieces: Sequence) -> int:
    """Index bound for an algebraic (piecewise) variety from polynomial degrees.

    Each piece is a list of the degrees of its defining polynomials and
    contributes their product; a union contributes the sum of the pieces.
    A flat list of integers is treated as a single piece.
    """
    check("the number of degrees", len(pieces or ()), 1, integer=True)
    if all(isinstance(d, (int, np.integer)) for d in pieces):
        pieces = [list(pieces)]
    total = 0
    for piece in pieces:
        check("the number of degrees in a piece", len(piece), 1, integer=True)
        prod = 1
        for d in piece:
            prod *= int(check("each degree", d, 1, integer=True))
        total += prod
    return total


@dataclass
class ConcentrationReport:
    """Worst observed ratio of ball-local volume to the index-based cap."""

    worst_ratio: float
    worst_center: np.ndarray
    worst_radius: float
    trials: int
    index_bound: int

    def to_payload(self) -> dict:
        return {
            "worst_ratio": float(self.worst_ratio),
            "worst_center": [float(v) for v in self.worst_center],
            "worst_radius": float(self.worst_radius),
            "trials": self.trials,
            "index_bound": self.index_bound,
        }


def concentration_audit(
    mesh: EmbeddedMesh,
    index_bound: int,
    trials: int,
    seed: int = 0,
) -> ConcentrationReport:
    """Monte Carlo audit of |N intersect B(x, r)| <= (i/2) |S^q| r^q.

    Random centers near the mesh and random radii; the mesh volume inside
    each ball is summed exactly over cells entirely inside, and by a fixed
    barycentric quadrature (AUDIT_POINTS_PER_CELL points) over straddling cells.
    A cell not inside straddles when its nearest vertex is within radius +
    2 spread of the center and its centroid within (radius + spread)(1 + 1e-12),
    spread being its largest vertex-to-centroid distance.  The centroid test is
    exact: all of a simplex lies within spread of its centroid, so a dropped
    cell holds no quadrature point of the ball, and the margin absorbs rounding.
    Returns the worst ratio against the cap, which must stay near or below 1
    whenever index_bound really bounds the intersection index.
    """
    check("trials", trials, 1, integer=True)
    check("index_bound", index_bound, 1, integer=True)
    check("seed", seed, 0, integer=True)
    rng = np.random.default_rng(seed)
    q = mesh.intrinsic_dim
    cap_coeff = 0.5 * index_bound * unit_sphere_area(q)

    vols = mesh.cell_volumes()
    slot_pts = mesh.vertices[mesh.cells.T]  # (n+1, C, m): one row of vertices per slot
    centroids = slot_pts.mean(axis=0)  # (C, m)
    spread = np.linalg.norm(slot_pts - centroids, axis=2).max(axis=0)
    vert_sq = (slot_pts**2).sum(axis=2)  # (n+1, C)
    diam = mesh.diameter()
    r_lo = max(np.median(spread) * 2.0, diam * 1e-3)
    r_hi = diam * 0.35

    # one barycentric cloud b reused for every straddling cell: the volume
    # fraction becomes a fixed quadrature, far cheaper than fresh per-cell
    # sampling and equally unbiased over the random centers and radii.  The
    # point V^T b lies at squared distance b^T G b from the center, G the
    # Gram matrix of the cell's vertices about it: one GEMM against b (x) b
    bary_cloud = rng.dirichlet(np.ones(q + 1), size=AUDIT_POINTS_PER_CELL)
    outer = (bary_cloud[:, :, None] * bary_cloud[:, None, :]).reshape(AUDIT_POINTS_PER_CELL, -1).T

    worst = (-np.inf, None, None)
    for trial in range(trials):
        cell = rng.integers(0, slot_pts.shape[1])
        bary = rng.dirichlet(np.ones(q + 1))
        center = bary @ slot_pts[:, cell]
        if trial % 2:
            center = center + 0.1 * diam * rng.standard_normal(mesh.ambient_dim)
        radius = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi))))

        dist_sq = vert_sq - 2.0 * (slot_pts @ center) + float(center @ center)  # (n+1, C)
        dmax = np.sqrt(np.maximum(dist_sq.max(axis=0), 0.0))
        dmin = np.sqrt(np.maximum(dist_sq.min(axis=0), 0.0))
        inside = dmax <= radius
        volume = float(vols[inside].sum())
        straddle = np.nonzero(~inside & (dmin <= radius + 2.0 * spread))[0]
        # the centroid test of the docstring; a cell it drops keeps its zero in
        # the sum, so the summation order and every bit of the volume stay
        reach = (radius + spread[straddle]) * (1.0 + 1e-12)
        near = np.linalg.norm(centroids[straddle] - center, axis=1) <= reach
        rel = slot_pts[:, straddle[near]].transpose(1, 0, 2) - center  # (s, n+1, m)
        grams = np.matmul(rel, rel.transpose(0, 2, 1)).reshape(len(rel), len(outer))
        blocks = np.split(grams, range(_AUDIT_CHUNK, len(rel), _AUDIT_CHUNK))
        hits = np.zeros(straddle.size, dtype=np.int32)
        hits[near] = np.concatenate(
            [(g @ outer <= radius * radius).sum(axis=1, dtype=np.int32) for g in blocks]
        )
        volume += float((vols[straddle] * (hits / AUDIT_POINTS_PER_CELL)).sum())

        ratio = volume / (cap_coeff * radius**q)
        if ratio > worst[0]:
            worst = (ratio, center, radius)

    return ConcentrationReport(
        worst_ratio=worst[0],
        worst_center=worst[1],
        worst_radius=worst[2],
        trials=trials,
        index_bound=index_bound,
    )
