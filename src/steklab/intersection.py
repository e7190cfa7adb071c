"""Intersection counting of affine planes with meshed submanifolds.

For an n-dimensional mesh in R^m, planes of codimension n meet it generically
in isolated points.  The supremum of the count over transverse planes is
estimated from below by seeded random sampling with optional hill climbing,
and bounded from above, for algebraic families, by products of polynomial
degrees.  A concentration audit checks that the mesh volume inside random
balls stays below the bound (i/2) |S^q| r^q implied by a finite index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import SIZE_BUDGET, NonTransverseSample, PreconditionError, UsageError, check
from .euclidean import unit_sphere_area
from .mesh import EmbeddedMesh, read_only

BARYCENTRIC_TOL = 1e-9
CONDITION_MAX = 1e10
AUDIT_POINTS_PER_CELL = 1000  # barycentric quadrature points per straddling cell

_HILL_CLIMB_ROUNDS = 200
_HILL_CLIMB_ANNEAL_EVERY = 50
_AUDIT_CHUNK = 256  # straddling cells per quadrature GEMM: bounds its (cells, P) block
_SCREEN_BUDGET = 2**18  # words per block of planes, half for its signed distances: 2 MiB
_CULL_ROUNDING = 1e-12  # relative rounding allowance of the patch cull


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
        if not np.isfinite(self.offset).all():
            raise UsageError("plane offset must be finite")
        _check_orthonormal(self.normal_rows)

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
    (outcome,) = count_planes(plane.normal_rows[None], plane.offset[None], mesh)
    if isinstance(outcome, NonTransverseSample):
        raise outcome
    return outcome


class _Patches(NamedTuple):
    slots: np.ndarray  # (n+1, C) the cells' vertices, slot-major, patch after patch
    bounds: np.ndarray  # (patches + 1,) patch p holds columns bounds[p]:bounds[p + 1]
    centers: np.ndarray  # (patches, m)
    radii: np.ndarray  # (patches,) every vertex of a patch's cells lies in its ball
    extent: np.ndarray  # (patches,) |center| + radius, the scale of its rounding


def _patch_table(mesh: EmbeddedMesh) -> _Patches:
    """Cells in the leaf order of a KD-tree on their centroids, built by
    median splits along the widest axis into leaves (patches) of at most
    ceil(sqrt(C)) cells."""
    leaf = math.isqrt(len(mesh.cells) - 1) + 1
    coords = np.ascontiguousarray(mesh.vertices.T)  # (m, N): long inner loops below
    # one (m, C) gather per vertex slot, not an (m, n+1, C) block with
    # temporaries of its size: the build's peak stays near a count's
    centroids = sum(np.take(coords, slot, axis=1) for slot in mesh.cells.T) / mesh.cells.shape[1]
    tree = cKDTree(centroids.T, leafsize=leaf, balanced_tree=True)
    starts, pending = [], [tree.tree]
    while pending:  # depth first, lesser half first: the leaves in index order
        node = pending.pop()
        if node.split_dim < 0:
            starts.append(node.start_idx)
        else:
            pending += [node.greater, node.lesser]
    bounds = np.array(starts + [len(mesh.cells)])
    slots = np.ascontiguousarray(mesh.cells[tree.indices].T)
    corners = [np.take(coords, slot, axis=1) for slot in slots]  # n+1 of (m, C)
    lo = np.min([np.minimum.reduceat(x, starts, axis=1) for x in corners], axis=0)
    hi = np.max([np.maximum.reduceat(x, starts, axis=1) for x in corners], axis=0)
    centers = 0.5 * (lo + hi)  # (m, patches)
    around = np.repeat(centers, np.diff(bounds), axis=1)  # each cell's patch center
    radii = np.max([
        np.maximum.reduceat(np.sqrt(((x - around) ** 2).sum(axis=0)), starts) for x in corners
    ], axis=0)
    centers = np.ascontiguousarray(centers.T)
    extent = np.linalg.norm(centers, axis=1) + radii
    return _Patches(*(read_only(a) for a in (slots, bounds, centers, radii, extent)))


def count_planes(rows: np.ndarray, offsets: np.ndarray, mesh: EmbeddedMesh) -> list:
    """Per plane {x : rows[i] @ x = offsets[i]}, its transverse intersection
    count or a NonTransverseSample; rows is (P, c, m), offsets (P, c).

    Per cell, solves the affine system {rows (V lam) = offset, sum(lam) = 1}
    and counts a hit when all barycentric coordinates exceed BARYCENTRIC_TOL.
    A NonTransverseSample names the first fault in this order among the
    plane's systems: a condition number above CONDITION_MAX, a singular
    system, a grazing solution (minimum coordinate within BARYCENTRIC_TOL of
    zero).  The signed distances of all vertices to every plane come from one
    stacked matmul; a plane's slack is BARYCENTRIC_TOL (max |signed| + 1).
    A patch of cells (_patch_table) is dropped when its ball center lies
    farther than radius + slack from a normal hyperplane, the radius scaled
    by the largest row norm and the reach widened by a rounding allowance
    relative to |offset| + |center| + radius: every vertex of the patch is
    then beyond the slack on one side, so none of its cells passes the
    screen.  On the cells of the surviving patches, a cell is screened in
    when, for every row, its vertices' signed distances reach within the
    slack of zero from both sides; its system is then checked and solved, in
    runs of whole planes whose arrays take at most half of _SCREEN_BUDGET
    (1 MiB) unless one plane alone needs more.  The matmul and the stacked
    LAPACK calls work per plane and per matrix, so no outcome depends on the
    block a plane is counted in.
    """
    count, c, m = rows.shape
    if m != mesh.ambient_dim:
        raise UsageError("plane and mesh ambient dimensions differ")
    if c != mesh.intrinsic_dim:
        raise UsageError(
            f"plane codimension {c} must equal mesh dimension "
            f"{mesh.intrinsic_dim} for point intersections"
        )
    if count == 0:
        return []
    patches = mesh.cached("plane_patches", _patch_table)
    # one stacked matmul: per plane the GEMM (or, for c = 1, gemv) it has alone
    signed = np.empty((count, mesh.n_vertices, c))
    np.matmul(mesh.vertices, rows.transpose(0, 2, 1), out=signed)
    for row in range(c):  # a long inner loop: each row's offset broadcast along the vertices
        signed[:, :, row] -= offsets[:, row, None]
    flat = signed.reshape(count, -1)
    slack = BARYCENTRIC_TOL * (np.maximum(flat.max(axis=1), -flat.min(axis=1)) + 1.0)

    scale = np.sqrt((rows * rows).sum(axis=2).max())  # the largest row norm
    distance = np.abs(patches.centers @ rows.reshape(count * c, m).T - offsets.reshape(-1))
    reach = (
        (scale * patches.radii + _CULL_ROUNDING * patches.extent)[:, None]
        + np.repeat(slack, c) + _CULL_ROUNDING * np.abs(offsets.reshape(-1))
    )
    live = _all_rows((distance <= reach).reshape(len(distance), count, c))  # (patches, P)

    # runs of whole planes, each within half the budget: per (plane, cell)
    # pair a run holds its plane, cell and slack, n+1 vertex rows, (n+1) c
    # signed distances and at most 2c + 1 words of screen temporaries
    ends = np.cumsum(np.diff(patches.bounds) @ live)  # pairs of planes 0..i
    limit = _SCREEN_BUDGET // (2 * ((c + 2) ** 2 + 1))
    outcomes = [0] * count
    start = 0
    while start < count:
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + limit, side="right")))
        _count_run(signed, slack, patches, live, start, stop, outcomes)
        start = stop
    return outcomes


def _all_rows(mask: np.ndarray) -> np.ndarray:
    """mask.all(axis=-1) over a short last axis of plane rows."""
    out = mask[..., 0]
    for row in range(1, mask.shape[-1]):  # NumPy reduces a short last axis slowly
        out = out & mask[..., row]
    return out


def _count_run(signed, slack, patches, live, start, stop, outcomes) -> None:
    """count_planes on the planes start..stop-1 and the cells of their live
    patches: screen, condition check and solve; writes each plane's outcome."""
    plane, patch = np.nonzero(live[:, start:stop].T)  # plane-major
    sizes = np.diff(patches.bounds)[patch]
    owner = np.repeat(plane + start, sizes)
    cell = np.repeat(patches.bounds[patch] - np.cumsum(sizes) + sizes, sizes)
    cell += np.arange(cell.size)  # patch start minus pairs before, plus pair number
    _, n_vertices, c = signed.shape
    at = np.take(patches.slots, cell, axis=1)  # (n+1, pairs): vertices, then rows of signed
    at += owner * n_vertices
    per_slot = np.take(signed.reshape(-1, c), at, axis=0)
    bound = slack[owner][:, None]  # per_slot is (n+1, pairs, c)
    near = _all_rows((per_slot.min(axis=0) <= bound) & (per_slot.max(axis=0) >= -bound))
    owner = owner[near]
    if owner.size == 0:
        return

    k = c + 1
    systems = np.empty((owner.size, k, k))
    systems[:, :-1, :] = per_slot[:, near].transpose(1, 2, 0)
    systems[:, -1, :] = 1.0
    s = np.linalg.svd(systems, compute_uv=False)  # condition number s[0] / s[-1]
    ok = s[:, 0] <= CONDITION_MAX * s[:, -1]  # NaN and s[-1] == 0 fail too
    try:
        lam_min = np.linalg.solve(systems[ok], np.eye(k)[None, :, -1:])[:, :, 0].min(axis=1)
    except np.linalg.LinAlgError:  # a singular system: count its plane alone
        if stop - start > 1:
            for i in range(start, stop):
                _count_run(signed, slack, patches, live, i, i + 1, outcomes)
        else:
            reason = "singular" if ok.all() else "ill-conditioned"
            outcomes[start] = NonTransverseSample(f"{reason} plane-cell system")
        return
    good = owner[ok]
    hits = np.bincount(good[lam_min > BARYCENTRIC_TOL] - start, minlength=stop - start)
    outcomes[start:stop] = hits.tolist()
    for i in good[np.abs(lam_min) <= BARYCENTRIC_TOL].tolist():
        outcomes[i] = NonTransverseSample("intersection point grazes a cell facet")
    for i in owner[~ok].tolist():  # second, so that this reason prevails
        outcomes[i] = NonTransverseSample("ill-conditioned plane-cell system")


def _check_orthonormal(rows: np.ndarray) -> None:
    """Every (c, m) matrix of the (..., c, m) stack has orthonormal rows:
    np.allclose(gram, eye, atol=1e-12) in plain ufuncs; NaN and inf fail."""
    eye = np.eye(rows.shape[-2])
    if not (np.abs(rows @ np.swapaxes(rows, -1, -2) - eye) <= 1e-12 + 1e-5 * eye).all():
        raise UsageError("normal rows must be orthonormal")


def _random_planes(rng: np.random.Generator, codim: int, lo, hi, count: int):
    """`count` rotation-invariant planes as (count, codim, m) rows and
    (count, codim) offsets, each through a point of the inflated bounding
    box; draws from rng exactly as `count` successive single draws."""
    m = len(lo)
    normals = np.empty((count, codim, m))
    units = np.empty((count, m))
    for normal, unit in zip(normals, units):
        rng.standard_normal(out=normal)
        rng.random(out=unit)  # rng.uniform(-1.0, 1.0) is -1.0 + 2.0 * rng.random()
    units *= 2.0
    units -= 1.0
    rows = np.linalg.qr(normals.transpose(0, 2, 1))[0].transpose(0, 2, 1)
    _check_orthonormal(rows)
    anchors = 0.5 * (lo + hi) + units * (0.5 * (hi - lo) * 1.2 + 1e-12)
    return rows, (rows @ anchors[:, :, None])[:, :, 0]


def _perturbed_planes(rows, foot, steps, row_noise, offset_noise, span: float):
    """Perturbations of the plane with normal rows `rows` whose least-squares
    point nearest 0 is `foot`, one per step and row of noise."""
    q = np.linalg.qr((rows + steps[:, None, None] * row_noise).transpose(0, 2, 1))[0]
    perturbed = q.transpose(0, 2, 1)
    _check_orthonormal(perturbed)
    return perturbed, perturbed @ foot + (steps * span)[:, None] * offset_noise


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
    perturbations.  Deterministic for a fixed seed.  Planes are drawn and
    counted in blocks of at most _SCREEN_BUDGET / 2 signed distances
    (1 MiB); no block of samples outlasts the samples or rejections still
    allowed.  The hill climb draws the noise of all its rounds first, in
    round order, builds a block of candidates from the current witness and
    counts them together; after an improvement it rebuilds the rest of the
    block from the new witness and counts it again.  So the stream and the
    payload are those of one plane at a time.  The reported maximum is
    re-counted on the witness plane before returning.  A PL mesh can exceed
    its smooth surface's index: the h=0.22 torus reaches 6 at seed 15.
    """
    check("samples", samples, 1, SIZE_BUDGET, integer=True)
    check("seed", seed, 0, integer=True)
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounding_box()
    span = float(np.linalg.norm(hi - lo))
    codim, m = mesh.intrinsic_dim, mesh.ambient_dim

    rejections = 0
    max_rejections = samples * 10
    block = max(1, _SCREEN_BUDGET // (2 * codim * mesh.n_vertices))
    best = -1
    witness = None  # (rows, offset) of the best plane so far
    histogram: dict[int, int] = {}
    drawn = 0
    while drawn < samples:
        # no block outlasts the samples still wanted or the rejections still allowed
        size = min(samples - drawn, max_rejections - rejections + 1, block)
        rows, offsets = _random_planes(rng, codim, lo, hi, size)
        for plane, count in enumerate(count_planes(rows, offsets, mesh)):
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
                witness = rows[plane], offsets[plane]

    improvements = 0
    if hill_climb:
        rounds = _HILL_CLIMB_ROUNDS
        noise = rng.standard_normal((rounds, codim * (m + 1)))
        row_noise = noise[:, : codim * m].reshape(rounds, codim, m)
        steps = 0.1 * 0.5 ** (np.arange(rounds) // _HILL_CLIMB_ANNEAL_EVERY)
        foot = np.linalg.lstsq(*witness, rcond=None)[0]
        done = 0
        while done < rounds:
            part = slice(done, min(rounds, done + block))
            rows, offsets = _perturbed_planes(
                witness[0], foot, steps[part], row_noise[part], noise[part, codim * m:], span
            )
            for plane, count in enumerate(count_planes(rows, offsets, mesh)):
                done += 1
                if isinstance(count, NonTransverseSample):
                    rejections += 1
                elif count > best:
                    best = count
                    witness = rows[plane], offsets[plane]
                    foot = np.linalg.lstsq(*witness, rcond=None)[0]
                    improvements += 1
                    break  # the rest of the block came from the old witness

    witness = AffinePlane(*witness)
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
    Only the worst ratio is kept, so a trial skips the quadrature once an upper
    bound on its ratio is no larger than the worst so far: every straddling
    cell counted whole, then every one that passes the centroid test.  Each
    bound sums an array of the quadrature's length and order, so NumPy's
    pairwise sum adds it in the same tree, term by term no smaller; rounding
    is monotone, so the bound is never below the ratio and the report is
    bit-identical to integrating every trial.
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
        scale = cap_coeff * radius**q
        if (volume + float(vols[straddle].sum())) / scale <= worst[0]:
            continue  # the bounds of the docstring: this trial cannot be the worst
        # the centroid test of the docstring; a cell it drops keeps its zero in
        # the sum, so the summation order and every bit of the volume stay
        reach = (radius + spread[straddle]) * (1.0 + 1e-12)
        near = np.linalg.norm(centroids[straddle] - center, axis=1) <= reach
        if (volume + float((vols[straddle] * near).sum())) / scale <= worst[0]:
            continue
        rel = slot_pts[:, straddle[near]].transpose(1, 0, 2) - center  # (s, n+1, m)
        grams = np.matmul(rel, rel.transpose(0, 2, 1)).reshape(len(rel), len(outer))
        blocks = np.split(grams, range(_AUDIT_CHUNK, len(rel), _AUDIT_CHUNK))
        hits = np.zeros(straddle.size, dtype=np.int32)
        hits[near] = np.concatenate(
            [(g @ outer <= radius * radius).sum(axis=1, dtype=np.int32) for g in blocks]
        )
        volume += float((vols[straddle] * (hits / AUDIT_POINTS_PER_CELL)).sum())

        ratio = volume / scale
        if ratio > worst[0]:
            worst = (ratio, center, radius)

    return ConcentrationReport(
        worst_ratio=worst[0],
        worst_center=worst[1],
        worst_radius=worst[2],
        trials=trials,
        index_bound=index_bound,
    )
