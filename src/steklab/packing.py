"""Disjoint boundary sets, distance test functions, and eigenvalue certificates.

The pipeline mirrors the variational argument behind the explicit upper
bounds: put the boundary volume measure on mesh atoms, choose the radius r
from |Sigma|, the boundary intersection index and the covering constant,
build 2k+2 well-separated positive-measure atom sets, turn each into the
test function g(x) = max(0, 1 - d(x, A)/r), and certify sigma_k by the
largest Rayleigh quotient among the k+1 functions with the smallest support
volume.  Every claimed conclusion (measure floor, 3r separation, support
disjointness, variational validity) is checked directly on the output.

With the literal ambient covering constant 32^m the radius is far below any
practical mesh resolution; the empirical mode replaces it by a covering
constant measured on the boundary atoms so the construction is executable at
desk scale, while the literal constant remains available to the bound
evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import (
    HypothesisViolation,
    PreconditionError,
    ResolutionError,
    SteklabError,
    UsageError,
    check,
)
from .euclidean import unit_sphere_area
from .mesh import NEUMANN, EmbeddedMesh, read_only
from .spectral import (
    KIND_STEKLOV,
    KIND_STEKLOV_NEUMANN,
    SpectralProblem,
    assemble_operators,
    cell_gradient_norms,
    rayleigh_from_operators,
    solve_steklov,
)

_CHUNK = 512
COVERING_SAMPLES = 1000


def literal_covering_constant(ambient_dim: int) -> int:
    """The admissible ambient covering constant 32^m for R^m."""
    return 32**ambient_dim


@dataclass(frozen=True)
class ConstantsConfig:
    """Covering and volume constants shared by packing and bound evaluation.

    c_cover: explicit covering constant; when None it is 32^m (use_empirical
    False) or measured on the boundary atoms (use_empirical True).
    d_ball: lower-bound constant for the volume of small intrinsic balls of
    the boundary; no explicit value is available, so it defaults to 1 and is
    always reported alongside results that depend on it.
    """

    use_empirical: bool = True
    c_cover: Optional[int] = None
    d_ball: float = 1.0

    def __post_init__(self):
        if self.c_cover is not None:
            check("c_cover", self.c_cover, 1, integer=True)
        check("d_ball", self.d_ball, 0, strict=True)


def covering_constant(config: ConstantsConfig, ambient_dim: int) -> Optional[int]:
    """The covering constant the config fixes: c_cover if given, else 32^m.

    None when the config asks for an empirical constant, which only a
    boundary measure can supply (see resolve_covering_constant).
    """
    if config.c_cover is not None:
        return int(config.c_cover)
    return None if config.use_empirical else literal_covering_constant(ambient_dim)


@dataclass
class BoundaryMeasure:
    """Boundary volume measure concentrated at Steklov-boundary vertices.

    Each Steklov face splits its volume equally among its n vertices, so the
    atom weights sum to the Steklov boundary volume exactly.
    """

    vertex_ids: np.ndarray
    positions: np.ndarray
    weights: np.ndarray
    # (probe radius, samples, seed) -> empirical covering count on these atoms
    covering_counts: dict = field(default_factory=dict, repr=False)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return len(self.weights)

    @cached_property
    def spacing(self) -> float:
        """Median nearest-neighbour distance among (up to 2000) atoms, measured once."""
        sample = self.positions[: min(len(self), 2000)]
        d = cdist(sample, self.positions)
        np.fill_diagonal(d[:, : len(sample)], np.inf)
        return float(np.median(d.min(axis=1)))


def boundary_measure(mesh: EmbeddedMesh) -> BoundaryMeasure:
    """The mesh's boundary measure, built once per mesh with read-only arrays."""
    return mesh.cached("boundary_measure", _boundary_measure)


def _boundary_measure(mesh: EmbeddedMesh) -> BoundaryMeasure:
    faces = mesh.steklov_faces()
    if faces.size == 0:
        raise UsageError("mesh has no steklov faces")
    vols = mesh.face_volumes()[mesh.steklov_mask()]
    share = vols / faces.shape[1]
    weights = np.zeros(mesh.n_vertices)
    np.add.at(weights, faces.ravel(), np.repeat(share, faces.shape[1]))
    ids = np.nonzero(weights > 0)[0]
    return BoundaryMeasure(*map(read_only, (ids, mesh.vertices[ids], weights[ids])))


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
    worst = 0.0
    pos, w = measure.positions, measure.weights
    for start in range(0, len(pos), _CHUNK):
        d = cdist(pos[start : start + _CHUNK], pos)
        worst = max(worst, float(((d <= r) * w).sum(axis=1).max()))
    return worst


def empirical_covering_constant(
    positions: np.ndarray, r: float, samples: int = COVERING_SAMPLES, seed: int = 0
) -> int:
    """Covering count of sampled r-balls of atoms by r/2-balls.

    Per sampled center, the atoms inside the r-ball are covered greedily by
    r/2-balls centered at atoms, always taking the candidate that covers the
    most uncovered atoms.  Returns the worst count over the samples (an
    upper bound on the optimal covering number of the sampled balls).
    """
    rng = np.random.default_rng(seed)
    count = len(positions)
    if count <= samples:
        centers = np.arange(count)
    else:
        centers = rng.choice(count, size=samples, replace=False)
    # the tree only prefilters: membership is the exact norm test below
    candidates = cKDTree(positions).query_ball_point(
        positions[centers], r * (1.0 + 1e-9), return_sorted=True
    )
    worst = 1
    for i, idx in zip(centers, candidates):
        idx = np.asarray(idx)
        ball = positions[idx[np.linalg.norm(positions[idx] - positions[i], axis=1) <= r]]
        pair = cdist(ball, ball) <= r / 2.0
        remaining = np.ones(len(ball), dtype=bool)
        used = 0
        while remaining.any():
            gains = (pair & remaining[None, :]).sum(axis=1)
            j = int(np.argmax(gains))
            remaining &= ~pair[j]
            used += 1
        worst = max(worst, used)
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

    When the config fixes no constant (covering_constant), it is measured.
    The empirical constant depends on the radius, which depends back on the
    constant, so the measured value at radius r(C) must not exceed C itself:
    the smallest such admissible C >= 2 is returned together with its radius.
    The measure keeps each count, so a probe radius is measured once per seed.
    """
    c = covering_constant(config, ambient_dim)
    if c is None:
        # covering counts are only meaningful at scales the atom cloud
        # resolves, so probe at least a dozen atom spacings
        floor = 12.0 * measure.spacing
        counts = measure.covering_counts
        for c in range(2, 65):
            probe = max(choose_radius(measure.total, i_sigma, k, n, c), floor)
            key = (probe, COVERING_SAMPLES, seed)
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
    holds at most total/(4 C^2 K) of the measure.  Each set grows from the
    heaviest unused atom by absorbing nearest atoms within distance r of the
    set until the target measure total/(2 C K) is reached, then a 3r moat
    around it becomes unusable.  The construction reports failure with the
    achieved measures when some set falls short; the conclusion (measure
    floor and pairwise 3r separation) is re-verified directly before
    returning.
    """
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
    usable = np.ones(len(w), dtype=bool)
    sets, measures = [], []
    for _ in range(num_sets):
        if not usable.any():
            measures.append(0.0)
            sets.append(np.zeros(0, dtype=np.int64))
            continue
        seed_atom = int(np.argmax(np.where(usable, w, -np.inf)))
        usable[seed_atom] = False
        members = [seed_atom]
        acc = float(w[seed_atom])
        dist_to_set = np.linalg.norm(pos - pos[seed_atom], axis=1)
        while acc < target:
            frontier = usable & (dist_to_set <= r)
            if not frontier.any():
                # chain exhausted; a set may be a union of chains, so
                # reseed at the heaviest remaining atom
                if not usable.any():
                    break
                j = int(np.argmax(np.where(usable, w, -np.inf)))
            else:
                j = int(np.argmin(np.where(frontier, dist_to_set, np.inf)))
            usable[j] = False
            members.append(j)
            acc += float(w[j])
            dist_to_set = np.minimum(dist_to_set, np.linalg.norm(pos - pos[j], axis=1))
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
    separation = np.inf
    for i in range(num_sets):
        for j in range(i + 1, num_sets):
            separation = min(
                separation, float(cdist(pos[sets[i]], pos[sets[j]]).min())
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
    d_ball: float
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
            "d_ball": self.d_ball,
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


def _distance_to_set(tree: cKDTree, set_positions: np.ndarray, r: float) -> np.ndarray:
    """Distance from each tree point to the set, inf beyond r (where g is 0)."""
    near = np.unique(np.concatenate(tree.query_ball_point(set_positions, r * (1.0 + 1e-9))))
    out = np.full(tree.n, np.inf)
    for start in range(0, len(near), 8 * _CHUNK):
        rows = near[start : start + 8 * _CHUNK]
        out[rows] = cdist(tree.data[rows], set_positions).min(axis=1)
    return out


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

    The mesh keeps (K, B), the measure and its covering counts across k; the now
    redundant `operators` and `fem_sigma_k` stay for the callers that pass them.
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
        raise ResolutionError(
            f"packing radius r = {r:.3e} is below the boundary mesh spacing "
            f"{spacing:.3e}; refine the mesh (h_boundary <= {r:.1e}) or use the "
            f"empirical covering constant"
        )

    packing = build_packing(measure, r, 2 * k + 2, c_cover)

    vecs, quotients, owners = [], [], np.full(mesh.n_vertices, -1, dtype=np.int64)
    stiffness, mass = operators or assemble_operators(mesh)
    tree = cKDTree(mesh.vertices)
    for i, members in enumerate(packing.sets):
        dist = _distance_to_set(tree, measure.positions[members], r)
        g = np.maximum(0.0, 1.0 - dist / r)
        support = np.nonzero(g > 0.0)[0]
        clash = owners[support]
        if np.any(clash >= 0):
            raise ResolutionError(
                "test function supports overlap; the mesh is too coarse for r"
            )
        owners[support] = i
        energy = float(g @ (mass @ g))
        if energy <= 0.0:
            raise SteklabError("internal error: test function has no boundary energy")
        vecs.append(g)
        quotients.append(rayleigh_from_operators(stiffness, mass, g))
    quotients = np.array(quotients)

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
        kind = KIND_STEKLOV_NEUMANN if NEUMANN in set(mesh.face_tags) else KIND_STEKLOV
        fem = solve_steklov(SpectralProblem(mesh, kind, k_max=k))
        fem_sigma_k = float(fem.eigenvalues[k])
    valid = fem_sigma_k <= certified * (1.0 + 1e-9) + 1e-8

    # supports are disjoint and no cell bridges two, so one pass over the sum
    # gives every cell its own function's gradient
    grads = cell_gradient_norms(mesh, np.sum([vecs[i] for i in selected], axis=0))
    slack = float(grads.max()) * r

    return PackingCertificate(
        k=k,
        r=r,
        c_cover=c_cover,
        d_ball=config.d_ball,
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
