"""Disjoint boundary sets, distance test functions, and eigenvalue certificates.

The pipeline mirrors the variational argument behind the explicit upper
bounds: put the boundary volume measure on mesh atoms, choose the radius r
from |Sigma|, the boundary intersection index and the covering constant,
build 2k+2 well-separated positive-measure atom sets, turn each into the
test function g(x) = max(0, 1 - d(x, A)/r), and certify sigma_k by the
largest Rayleigh quotient among the k+1 functions with the smallest support
volume.  Every claimed conclusion (measure floor, 3r separation, variational
validity) is checked directly on the output; support disjointness follows from
the checked separation: a point within r of two sets puts them 2r or less apart.

With the literal ambient covering constant 32^m the radius is far below any
practical mesh resolution; the empirical mode replaces it by a covering
constant measured on the boundary atoms so the construction is executable at
desk scale, while the literal constant remains available to the bound
evaluators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .bounds import literal_covering_constant
from .errors import (
    SIZE_BUDGET,
    HypothesisViolation,
    PreconditionError,
    ResolutionError,
    SteklabError,
    UsageError,
    check,
)
from .euclidean import unit_sphere_area
from .mesh import EmbeddedMesh, read_only
from .spectral import (
    SpectralProblem,
    assemble_operators,
    cell_gradient_norms,
    rayleigh_from_operators,
    solve_steklov,
)

# centres per neighbour query: at most 128 x N candidate pairs at any radius
_ROW_BLOCK = 128
# padded pair entries per lock-step covering chunk (centres x L^2)
_COVER_CHUNK = 2**16
# sampled ball centres per empirical covering count
COVERING_SAMPLES = 1000


def _distances(a, b) -> np.ndarray:
    """|a - b| from a and b given one coordinate at a time, summed in cdist's (and norm's) order."""
    total = 0.0
    for a_c, b_c in zip(a, b):
        total = total + (a_c - b_c) ** 2
    return np.sqrt(total)


def _neighbours(tree: cKDTree, points: np.ndarray, r: float):
    """Yield (start, rows, near, dist): near[i] is dist[i] <= r from points[start + rows[i]].

    One block of _ROW_BLOCK points at a time, sorted by row, then tree point.  The
    KD-tree (Bentley 1975) proposes the pairs within r(1 + 1e-9) with their
    distances, and d <= r decides on those distances.
    """
    for start in range(0, len(points), _ROW_BLOCK):
        block = points[start : start + _ROW_BLOCK]
        pairs = cKDTree(block).sparse_distance_matrix(tree, r * (1.0 + 1e-9), output_type="ndarray")
        key = pairs["i"] * tree.n + pairs["j"]
        order = np.argsort(key)
        rows, near = np.divmod(key[order], tree.n)
        dist = pairs["v"][order]
        keep = dist <= r
        yield start, rows[keep], near[keep], dist[keep]


@dataclass(frozen=True)
class ConstantsConfig:
    """How a certificate picks its covering constant.

    c_cover: explicit covering constant; when None it is 32^m (use_empirical
    False) or measured on the boundary atoms (use_empirical True).
    """

    use_empirical: bool = True
    c_cover: Optional[int] = None

    def __post_init__(self):
        if self.c_cover is not None:
            check("c_cover", self.c_cover, 1, integer=True)


@dataclass
class BoundaryMeasure:
    """Boundary volume measure concentrated at the Steklov vertices.

    The atoms are the mesh's Steklov vertices, the vertex set of the spectral
    solve.  Each Steklov face splits its volume equally among its n vertices,
    so the atom weights sum to the Steklov boundary volume exactly.
    """

    vertex_ids: np.ndarray
    positions: np.ndarray
    weights: np.ndarray
    # (probe radius, seed) -> empirical covering count on these atoms
    covering_counts: dict = field(default_factory=dict, repr=False)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.weights)

    @cached_property
    def spacing(self) -> float:
        """Median nearest-neighbour distance among (up to 2000) atoms, measured once."""
        count = min(len(self), 2000)
        nearest = cKDTree(self.positions).query(self.positions[:count], k=2)[0][:, 1]
        return float(np.median(nearest))


def boundary_measure(mesh: EmbeddedMesh) -> BoundaryMeasure:
    """The mesh's boundary measure, built once per mesh with read-only arrays."""
    return mesh.cached("boundary_measure", _boundary_measure)


def _boundary_measure(mesh: EmbeddedMesh) -> BoundaryMeasure:
    faces = mesh.steklov_faces()
    if faces.size == 0:
        raise UsageError("mesh has no steklov faces")
    n = faces.shape[1]
    share = mesh.face_volumes()[mesh.steklov_mask()] / n
    ids = mesh.steklov_vertices()
    weights = np.bincount(faces.ravel(), np.repeat(share, n), mesh.n_vertices)[ids]
    return BoundaryMeasure(ids, read_only(mesh.vertices[ids]), read_only(weights))


def choose_radius(
    total_boundary_volume: float, i_sigma: int, k: int, n: int, c_cover: float
) -> float:
    """The packing radius

        r = (|Sigma| / (2 C^2 |S^(n-1)| i(Sigma) (2k+2)))^(1/(n-1)).
    """
    check("total_boundary_volume", total_boundary_volume, 0, strict=True)
    check("i_sigma", i_sigma, 1, integer=True)
    check("k", k, 1, integer=True)
    check("n", n, 2, integer=True)
    check("c_cover", c_cover, 0, strict=True)
    sphere = unit_sphere_area(n - 1)
    base = total_boundary_volume / (
        2.0 * c_cover**2 * sphere * i_sigma * (2 * k + 2)
    )
    return base ** (1.0 / (n - 1))


def max_ball_measure(measure: BoundaryMeasure, r: float) -> float:
    """sup over atom centers of the measure of the ball B(x, r)."""
    check("r", r, 0, strict=True)
    worst = 0.0
    pos, w = measure.positions, measure.weights
    # in a zero row over all atoms, the pairwise sum adds a dense sweep's terms in its order
    dense = np.zeros((_ROW_BLOCK, len(pos)))
    for _, rows, atoms, _ in _neighbours(cKDTree(pos), pos, r):
        dense[rows, atoms] = w[atoms]
        worst = max(worst, float(dense.sum(axis=1).max()))
        dense[rows, atoms] = 0.0
    return worst


def empirical_covering_constant(positions: np.ndarray, r: float, seed: int = 0) -> int:
    """Covering count of COVERING_SAMPLES sampled r-balls of atoms by r/2-balls.

    Per sampled center, the atoms inside the r-ball are covered greedily by
    r/2-balls centered at atoms, always taking the candidate that covers the
    most uncovered atoms.  Returns the worst count over the samples (an
    upper bound on the optimal covering number of the sampled balls).
    """
    check("r", r, 0, strict=True)
    rng = np.random.default_rng(seed)
    count = len(positions)
    if count <= COVERING_SAMPLES:
        centers = np.arange(count)
    else:
        centers = rng.choice(count, size=COVERING_SAMPLES, replace=False)
    worst = 1
    for _, rows, atoms, _ in _neighbours(cKDTree(positions), positions[centers], r):
        # ball i fills slots 0..sizes[i]-1 of its row, its atoms in index order
        sizes = np.bincount(rows)
        slots = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        padded = np.zeros((len(sizes), sizes.max(), positions.shape[1]))
        padded[rows, slots] = positions[atoms]
        real = np.arange(sizes.max()) < sizes[:, None]
        # greedy covers in lock-step, each chunk padded to its largest ball; a
        # padded slot covers nothing, so np.argmax (first maximum) never takes it
        step = max(1, _COVER_CHUNK // int(sizes.max()) ** 2)
        for s in range(0, len(sizes), step):
            width = sizes[s : s + step].max()
            balls, left = padded[s : s + step, :width], real[s : s + step, :width].copy()
            coords = np.moveaxis(balls, -1, 0)
            pair = (_distances(coords[..., None], coords[:, :, None]) <= r / 2.0) & left[:, :, None]
            used = np.zeros(len(balls), dtype=np.int64)
            while left.any():
                used += left.any(axis=1)
                gains = (pair & left[:, None, :]).sum(axis=2)
                left &= ~pair[np.arange(len(balls)), np.argmax(gains, axis=1)]
            worst = max(worst, int(used.max()))
    return worst


def resolve_covering_constant(
    measure: BoundaryMeasure,
    config: ConstantsConfig,
    ambient_dim: int,
    i_sigma: int,
    k: int,
    n: int,
    seed: int = 0,
) -> tuple[int, float]:
    """Covering constant and matching radius for a certification run.

    The constant is the config's c_cover when given, else 32^m unless the
    config asks for a measured one.  The empirical constant depends on the
    radius, which depends back on the constant, so the measured value at
    radius r(C) must not exceed C itself: the smallest such admissible C >= 2
    is returned together with its radius.
    The measure keeps each count, so a probe radius is measured once per seed.
    """
    if config.c_cover is not None:
        c = int(config.c_cover)
    elif not config.use_empirical:
        c = int(literal_covering_constant(ambient_dim))
    else:
        # covering counts are only meaningful at scales the atom cloud
        # resolves, so probe at least a dozen atom spacings
        floor = 12.0 * measure.spacing
        counts = measure.covering_counts
        for c in range(2, 65):
            probe = max(choose_radius(measure.total, i_sigma, k, n, c), floor)
            key = (probe, seed)
            if key not in counts:
                counts[key] = empirical_covering_constant(measure.positions, *key)
            if counts[key] <= c:
                break
        else:
            raise PreconditionError(
                "no admissible empirical covering constant up to 64; the mesh "
                "boundary may be too irregular"
            )
    return c, choose_radius(measure.total, i_sigma, k, n, c)


@dataclass
class PackingSets:
    """Output of the greedy set construction (the sets-only certificate part)."""

    r: float
    sets: list
    set_measures: np.ndarray
    separation: float
    target_measure: float


def build_packing(
    measure: BoundaryMeasure, r: float, num_sets: int, c_cover: float
) -> PackingSets:
    """Greedy construction of num_sets disjoint atom sets.

    Hypothesis (checked by scanning balls at atom centers): every r-ball
    holds at most total/(4 C^2 K) of the measure.  Each set absorbs one atom
    at a time until it reaches the target measure total/(2 C K), then a 3r moat
    around it becomes unusable.  Every pick takes the nearest usable atom
    within r of the set, popped from a heap of (distance, atom) entries pushed
    whenever an atom's distance falls; when the heap holds none (a new set, or
    a chain that ran out, so a set may be a union of chains) it takes the next
    usable atom of one stable descending-weight order.  Ties go to the first
    index, as np.argmin and np.argmax break them.  The construction reports
    failure with the achieved measures when some set falls short; the
    conclusion (measure floor and pairwise 3r separation) is re-verified
    directly before returning.
    """
    check("r", r, 0, strict=True)
    check("num_sets", num_sets, 1, integer=True)
    total = measure.total
    cap = total / (4.0 * c_cover**2 * num_sets)
    worst_ball = max_ball_measure(measure, r)
    if worst_ball > cap * (1.0 + 1e-12):
        raise HypothesisViolation(
            f"ball measure hypothesis fails: sup mu(B(x, r)) = {worst_ball:.3e} "
            f"exceeds total/(4 C^2 K) = {cap:.3e} at r = {r:.3e}"
        )
    target = total / (2.0 * c_cover * num_sets)
    pos, w = measure.positions, measure.weights
    tree = cKDTree(pos)
    pairs = tree.count_neighbors(tree, 3.0 * r * (1.0 + 1e-9))
    check("the atom pairs within 3r", pairs, high=SIZE_BUDGET)
    # atom j's neighbours within 3r are near[bounds[j]:bounds[j + 1]]
    lists = [(start + rows, a, d) for start, rows, a, d in _neighbours(tree, pos, 3.0 * r)]
    centre, near, near_dist = (np.concatenate(part) for part in zip(*lists))
    bounds = np.searchsorted(centre, np.arange(len(w) + 1))

    heaviest = iter(np.argsort(-w, kind="stable").tolist())
    usable = np.ones(len(w), dtype=bool)
    sets, measures = [], []
    for _ in range(num_sets):
        members, acc, heap = [], 0.0, []
        # exact within 3r of every member, which is all the frontier and moat read
        dist_to_set = np.full(len(w), np.inf)
        while acc < target:
            while heap and not usable[heap[0][1]]:
                heapq.heappop(heap)
            j = heapq.heappop(heap)[1] if heap else next((a for a in heaviest if usable[a]), None)
            if j is None:
                break
            usable[j] = False
            members.append(j)
            acc += float(w[j])
            atoms, d = near[bounds[j] : bounds[j + 1]], near_dist[bounds[j] : bounds[j + 1]]
            lower = d < dist_to_set[atoms]
            dist_to_set[atoms[lower]] = d[lower]
            fresh = lower & (d <= r) & usable[atoms]
            for entry in zip(d[fresh].tolist(), atoms[fresh].tolist()):
                heapq.heappush(heap, entry)
        sets.append(np.array(members, dtype=np.int64))
        measures.append(acc)
        usable &= dist_to_set > 3.0 * r

    measures = np.array(measures)
    if np.any(measures < target * (1.0 - 1e-12)):
        achieved = ", ".join(f"{v:.4e}" for v in measures)
        raise PreconditionError(
            f"greedy packing failed to reach the target measure {target:.4e} "
            f"for every set (achieved: {achieved}); retry with a finer mesh"
        )
    separation = min(
        (float(cdist(pos[a], pos[b]).min()) for i, a in enumerate(sets) for b in sets[i + 1 :]),
        default=np.inf,
    )
    if separation < 3.0 * r * (1.0 - 1e-12):
        raise SteklabError("internal error: moat construction violated 3r separation")
    return PackingSets(r, sets, measures, float(separation), target)


@dataclass
class PackingCertificate:
    """Variational certificate sigma_k <= certified_bound from disjoint tests."""

    k: int
    r: float
    c_cover: int
    i_sigma: int
    atom_sets: list  # mesh vertex ids per set
    set_measures: np.ndarray
    separation: float
    quotients: np.ndarray
    support_volumes: np.ndarray
    selected: np.ndarray
    certified_bound: float
    sigma_k_fem: float
    valid: bool
    total_boundary_volume: float
    lipschitz_slack: float
    test_vectors: list = field(repr=False, default_factory=list)

    def to_payload(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "c_cover": self.c_cover,
            "i_sigma": self.i_sigma,
            "atom_sets": [[int(v) for v in s] for s in self.atom_sets],
            "set_measures": [float(v) for v in self.set_measures],
            "separation": self.separation,
            "rayleigh_quotients": [float(v) for v in self.quotients],
            "support_volumes": [float(v) for v in self.support_volumes],
            "selected": [int(v) for v in self.selected],
            "certified_bound": self.certified_bound,
            "sigma_k_fem": self.sigma_k_fem,
            "valid": self.valid,
            "total_boundary_volume": self.total_boundary_volume,
            "lipschitz_slack": self.lipschitz_slack,
        }


def certify_sigma_k(
    mesh: EmbeddedMesh,
    k: int,
    config: ConstantsConfig,
    i_sigma: int,
    seed: int = 0,
    operators=None,
    fem_sigma_k: Optional[float] = None,
) -> PackingCertificate:
    """Build the packing, its test functions, and the certified sigma_k bound.

    The mesh keeps (K, B), the vertex KD-tree, the measure and its covering
    counts across k, so `operators` is redundant; it stays only until the
    benchmark, which passes it, changes.  `fem_sigma_k` is not: without it each
    k solves at k_max = k, and its sigma_k (and the payload) would move.
    """
    check("k", k, 1, integer=True)
    check("i_sigma", i_sigma, 1, integer=True)
    check("seed", seed, 0, integer=True)
    n = check("the certified mesh's dimension", mesh.intrinsic_dim, 2, integer=True)
    measure = boundary_measure(mesh)
    c_cover, r = resolve_covering_constant(
        measure, config, mesh.ambient_dim, i_sigma, k, n, seed
    )

    # the greedy chain needs neighbours within r
    spacing = measure.spacing
    if r < spacing:
        empirical = config.c_cover is None and config.use_empirical
        raise ResolutionError(
            f"packing radius r = {r:.3e} is below the boundary mesh spacing "
            f"{spacing:.3e}; refine the mesh (h_boundary <= {r:.1e})"
            + ("" if empirical else " or use the empirical covering constant")
        )

    packing = build_packing(measure, r, 2 * k + 2, c_cover)

    # one sweep of all sets' atoms; a vertex within r of a set is > r from the others
    labels = np.concatenate([np.full(len(s), i) for i, s in enumerate(packing.sets)])
    dist, owners = np.full(mesh.n_vertices, np.inf), np.full(mesh.n_vertices, -1)
    tree = mesh.cached("vertex_tree", lambda m: cKDTree(m.vertices))
    atoms = measure.positions[np.concatenate(packing.sets)]
    for start, rows, near, d in _neighbours(tree, atoms, r):
        np.minimum.at(dist, near, d)
        owners[near] = labels[start + rows]
    g = np.maximum(0.0, 1.0 - dist / r)
    owners[g == 0.0] = -1
    vecs = [np.where(owners == i, g, 0.0) for i in range(len(packing.sets))]

    stiffness, mass = operators or assemble_operators(mesh)
    try:
        quotients = np.array([rayleigh_from_operators(stiffness, mass, v) for v in vecs])
    except UsageError:  # g is built here: no boundary energy is an internal fault
        raise SteklabError("internal error: test function has no boundary energy") from None

    cell_owner = owners[mesh.cells]
    cell_max = cell_owner.max(axis=1)
    bridged = ((cell_owner >= 0) & (cell_owner != cell_max[:, None])).any(axis=1)
    if bridged.any():
        raise ResolutionError(
            "mesh cells bridge distinct test supports; refine the mesh near the boundary"
        )

    cvols = mesh.cell_volumes()
    support_volumes = np.array(
        [float(cvols[cell_max == i].sum()) for i in range(len(packing.sets))]
    )
    selected = np.argsort(support_volumes, kind="stable")[: k + 1]
    certified = float(quotients[selected].max())

    if fem_sigma_k is None:
        fem = solve_steklov(SpectralProblem(mesh, k_max=k))
        fem_sigma_k = float(fem.eigenvalues[k])
    valid = fem_sigma_k <= certified * (1.0 + 1e-9) + 1e-8

    # no cell bridges two supports, so one pass gives every cell its own g_i's gradient
    grads = cell_gradient_norms(mesh, np.where(np.isin(owners, selected), g, 0.0))
    slack = float(grads.max()) * r

    return PackingCertificate(
        k=k,
        r=r,
        c_cover=c_cover,
        i_sigma=i_sigma,
        atom_sets=[measure.vertex_ids[s] for s in packing.sets],
        set_measures=packing.set_measures,
        separation=packing.separation,
        quotients=quotients,
        support_volumes=support_volumes,
        selected=selected,
        certified_bound=certified,
        sigma_k_fem=fem_sigma_k,
        valid=valid,
        total_boundary_volume=measure.total,
        lipschitz_slack=slack,
        test_vectors=[vecs[i] for i in selected],
    )
