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

from .errors import SIZE_BUDGET, NonTransverseSample, PreconditionError, UsageError, check
from .euclidean import unit_sphere_area
from .mesh import EmbeddedMesh, read_only

BARYCENTRIC_TOL = 1e-9
CONDITION_MAX = 1e10
AUDIT_POINTS_PER_CELL = 1000  # barycentric quadrature points per straddling cell

_HILL_CLIMB_ROUNDS = 200
_HILL_CLIMB_ANNEAL_EVERY = 50
_AUDIT_CHUNK = 256  # straddling cells per quadrature GEMM: bounds its (cells, P) block
_SCREEN_BUDGET = 2**17  # gathered distances per block of sampled planes: 1 MiB


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

    The one-plane case of count_planes; raises its NonTransverseSample, and
    the caller must resample.
    """
    (outcome,) = count_planes([plane], mesh)
    if isinstance(outcome, NonTransverseSample):
        raise outcome
    return outcome


def count_planes(planes: Sequence[AffinePlane], mesh: EmbeddedMesh) -> list:
    """Per plane, its transverse intersection count or a NonTransverseSample.

    Per cell, solves the affine system {normal_rows (V lam) = offset,
    sum(lam) = 1} and counts a hit when all barycentric coordinates exceed
    BARYCENTRIC_TOL.  A NonTransverseSample names the first fault in this
    order among the plane's systems: a condition number above CONDITION_MAX,
    a singular system, a grazing solution (minimum coordinate within
    BARYCENTRIC_TOL of zero).  Cells are
    screened first by reducing a slot-major (planes, n+1, C, c) gather of the
    signed distances over its short vertex-slot axis.  Stacked LAPACK calls
    run per matrix, so no outcome depends on the block it is counted in.
    """
    for plane in planes:
        if plane.ambient_dim != mesh.ambient_dim:
            raise UsageError("plane and mesh ambient dimensions differ")
        if plane.codim != mesh.intrinsic_dim:
            raise UsageError(
                f"plane codimension {plane.codim} must equal mesh dimension "
                f"{mesh.intrinsic_dim} for point intersections"
            )
    signed = np.empty((len(planes), mesh.n_vertices, mesh.intrinsic_dim))  # (P, N, c)
    for plane, out in zip(planes, signed):
        np.subtract(mesh.vertices @ plane.normal_rows.T, plane.offset, out=out)
    slack = BARYCENTRIC_TOL * (np.abs(signed).max(axis=(1, 2)) + 1.0)[:, None, None]
    slots = mesh.cached("slot_cells", lambda m: read_only(np.ascontiguousarray(m.cells.T)))
    per_slot = np.take(signed, slots, axis=1)  # (P, n+1, C, c)
    screen = (per_slot.min(axis=1) <= slack) & (per_slot.max(axis=1) >= -slack)
    near = screen[..., 0]
    for row in range(1, mesh.intrinsic_dim):  # NumPy reduces a short last axis slowly
        near = near & screen[..., row]
    owner, cell = np.divmod(np.flatnonzero(near), len(mesh.cells))
    if cell.size == 0:
        return [0] * len(planes)

    k = mesh.intrinsic_dim + 1
    systems = np.empty((len(cell), k, k))
    systems[:, :-1, :] = per_slot[owner, :, cell].transpose(0, 2, 1)
    systems[:, -1, :] = 1.0
    s = np.linalg.svd(systems, compute_uv=False)  # condition number s[0] / s[-1]
    ok = s[:, 0] <= CONDITION_MAX * s[:, -1]  # NaN and s[-1] == 0 fail too
    try:
        lam_min = np.linalg.solve(systems[ok], np.eye(k)[None, :, -1:])[:, :, 0].min(axis=1)
    except np.linalg.LinAlgError:  # a singular system: count its plane alone
        if len(planes) > 1:
            return [outcome for p in planes for outcome in count_planes([p], mesh)]
        reason = "singular" if ok.all() else "ill-conditioned"
        return [NonTransverseSample(f"{reason} plane-cell system")]
    good = owner[ok]
    outcomes = np.bincount(good[lam_min > BARYCENTRIC_TOL], minlength=len(planes)).tolist()
    for i in good[np.abs(lam_min) <= BARYCENTRIC_TOL].tolist():
        outcomes[i] = NonTransverseSample("intersection point grazes a cell facet")
    for i in owner[~ok].tolist():  # second, so that this reason prevails
        outcomes[i] = NonTransverseSample("ill-conditioned plane-cell system")
    return outcomes


def _random_planes(rng: np.random.Generator, codim: int, lo, hi, count: int) -> list:
    """`count` rotation-invariant planes, each through a point of the inflated
    bounding box; draws from rng exactly as `count` successive single draws."""
    m = len(lo)
    draws = [(rng.standard_normal((codim, m)), rng.uniform(-1.0, 1.0, size=m))
             for _ in range(count)]
    q, _ = np.linalg.qr(np.stack([rows.T for rows, _ in draws]))
    center = 0.5 * (lo + hi)
    span = 0.5 * (hi - lo) * 1.2 + 1e-12
    anchors = [center + unit * span for _, unit in draws]
    return [AffinePlane(q_one.T, q_one.T @ anchor) for q_one, anchor in zip(q, anchors)]


def _perturbed_plane(
    rng: np.random.Generator, plane: AffinePlane, foot: np.ndarray, step: float, span: float
) -> AffinePlane:
    """A perturbation of `plane`, whose least-squares point nearest 0 is `foot`."""
    rows = plane.normal_rows + step * rng.standard_normal(plane.normal_rows.shape)
    q, _ = np.linalg.qr(rows.T)
    rows = q[:, : plane.codim].T
    offset = rows @ foot + step * span * rng.standard_normal(plane.codim)
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
    perturbations.  Deterministic for a fixed seed.  The samples are drawn
    and counted in blocks of at most _SCREEN_BUDGET gathered distances, none
    longer than the samples or rejections still allowed: the same stream and
    payload as one plane at a time.  The reported maximum is re-counted on
    the witness plane before returning.  A PL mesh can exceed its smooth
    surface's index: the h=0.22 torus reaches 6 at seed 15.
    """
    check("samples", samples, 1, SIZE_BUDGET, integer=True)
    check("seed", seed, 0, integer=True)
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounding_box()
    span = float(np.linalg.norm(hi - lo))
    codim = mesh.intrinsic_dim

    rejections = 0
    max_rejections = samples * 10
    block = max(1, _SCREEN_BUDGET // (codim * (codim + 1) * len(mesh.cells)))
    best = -1
    witness = None
    histogram: dict[int, int] = {}
    drawn = 0
    while drawn < samples:
        # no block outlasts the samples still wanted or the rejections still allowed
        size = min(samples - drawn, max_rejections - rejections + 1, block)
        planes = _random_planes(rng, codim, lo, hi, size)
        for plane, count in zip(planes, count_planes(planes, mesh)):
            if isinstance(count, NonTransverseSample):
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
        foot = np.linalg.lstsq(witness.normal_rows, witness.offset, rcond=None)[0]
        for round_idx in range(_HILL_CLIMB_ROUNDS):
            if round_idx and round_idx % _HILL_CLIMB_ANNEAL_EVERY == 0:
                step *= 0.5
            candidate = _perturbed_plane(rng, witness, foot, step, span)
            try:
                count = plane_mesh_intersections(candidate, mesh)
            except NonTransverseSample:
                rejections += 1
                continue
            if count > best:
                best = count
                witness = candidate
                foot = np.linalg.lstsq(witness.normal_rows, witness.offset, rcond=None)[0]
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
    """
    check("the number of pieces", len(pieces), 1, integer=True)
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
    check("trials", trials, 1, SIZE_BUDGET, integer=True)
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
