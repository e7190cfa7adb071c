import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from steklab import mesh as mesh_module
from steklab import packing, spectral
from steklab.errors import (
    SIZE_BUDGET,
    HypothesisViolation,
    PreconditionError,
    ResolutionError,
    UsageError,
)
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.packing import (
    BoundaryMeasure,
    ConstantsConfig,
    boundary_measure,
    build_packing,
    certify_sigma_k,
    choose_radius,
    covering_constant,
    empirical_covering_constant,
    max_ball_measure,
    literal_covering_constant,
    resolve_covering_constant,
)
from steklab.mesh import EmbeddedMesh, simplex_grams
from steklab.spectral import SpectralProblem, assemble_operators, cell_gradient_norms, solve_steklov


def uniform_circle_measure(count=2000, radius=1.0):
    angles = 2 * math.pi * np.arange(count) / count
    pos = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(count, 2 * math.pi * radius / count)
    return BoundaryMeasure(np.arange(count), pos, weights)


def test_choose_radius_formula():
    # |Sigma| = 2pi, i = 2, k = 1, n = 2, C = 2:
    # r = 2pi / (2 * 4 * 2pi * 2 * 4) = 1/64
    assert choose_radius(2 * math.pi, 2, 1, 2, 2) == pytest.approx(1.0 / 64.0)
    # with the ambient constant 32^3 the 2pi cancels: 1/(2 * 32^6 * 2 * 4)
    got = choose_radius(2 * math.pi, 2, 1, 2, 32**3)
    assert got == pytest.approx(1.0 / (16.0 * 32**6), rel=1e-12)


def test_choose_radius_decreases_in_k():
    values = [choose_radius(2 * math.pi, 2, k, 2, 3) for k in range(1, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.01 * values[0] * 30  # -> 0 like 1/k


def test_choose_radius_dimension_exponent():
    # n = 3: the whole expression enters under a square root
    base = 1.0 / (2 * 9 * (4 * math.pi) * 2 * 4)
    assert choose_radius(1.0, 2, 1, 3, 3) == pytest.approx(math.sqrt(base))


def test_literal_covering_constant():
    assert literal_covering_constant(3) == 32768
    assert literal_covering_constant(2) == 1024


def test_covering_constant_decision():
    assert covering_constant(ConstantsConfig(use_empirical=False), 3) == 32768
    assert covering_constant(ConstantsConfig(use_empirical=False, c_cover=5), 3) == 5
    assert covering_constant(ConstantsConfig(use_empirical=True, c_cover=5), 3) == 5
    assert covering_constant(ConstantsConfig(use_empirical=True), 3) is None  # measured


def test_boundary_measure_totals(annulus_mesh):
    measure = boundary_measure(annulus_mesh)
    assert measure.total == pytest.approx(annulus_mesh.steklov_volume(), rel=1e-10)
    assert np.all(measure.weights > 0)
    radii = np.linalg.norm(measure.positions, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-12)


def test_max_ball_measure_on_uniform_circle():
    measure = uniform_circle_measure()
    got = max_ball_measure(measure, 0.05)
    assert got == pytest.approx(0.1, rel=0.1)  # arc of length ~ 2r


def test_empirical_covering_constant_on_circle():
    measure = uniform_circle_measure()
    c = empirical_covering_constant(measure.positions, 0.2, samples=200, seed=0)
    assert 2 <= c <= 4


def no_tree(*args, **kwargs):
    raise AssertionError("a KD-tree was built before the arguments were checked")


@pytest.mark.parametrize("r", [math.nan, -1.0, 0.0, math.inf])
def test_max_ball_measure_rejects_bad_radius(r, monkeypatch):
    measure = uniform_circle_measure(200)
    monkeypatch.setattr(packing, "cKDTree", no_tree)
    with pytest.raises(UsageError, match="r must be positive"):
        max_ball_measure(measure, r)


@pytest.mark.parametrize("r", [math.nan, -1.0, 0.0, math.inf])
def test_build_packing_rejects_bad_radius(r, monkeypatch):
    measure = uniform_circle_measure(200)
    monkeypatch.setattr(packing, "cKDTree", no_tree)
    with pytest.raises(UsageError, match="r must be positive"):
        build_packing(measure, r, 4, 2)


@pytest.mark.parametrize(
    "r, samples, name",
    [(math.nan, 100, "r"), (-1.0, 100, "r"), (0.0, 100, "r"), (0.1, -3, "samples"),
     (0.1, 0, "samples"), (0.1, 2.5, "samples"), (0.1, SIZE_BUDGET + 1, "samples")],
)
def test_covering_constant_rejects_bad_radius_and_samples(r, samples, name, monkeypatch):
    positions = uniform_circle_measure(200).positions
    monkeypatch.setattr(packing, "cKDTree", no_tree)
    with pytest.raises(UsageError, match=f"^{name} must be"):
        empirical_covering_constant(positions, r, samples=samples)


def test_build_packing_on_uniform_circle():
    measure = uniform_circle_measure()
    r, c_cover, num_sets = 0.04, 2, 4
    packing = build_packing(measure, r, num_sets, c_cover)
    target = measure.total / (2 * c_cover * num_sets)
    assert np.all(packing.set_measures >= target)
    assert packing.separation >= 3 * r
    flat = np.concatenate(packing.sets)
    assert len(flat) == len(set(flat.tolist()))  # disjoint


def test_build_packing_single_set():
    measure = uniform_circle_measure()
    packing = build_packing(measure, 0.04, 1, 2)
    assert packing.set_measures[0] >= measure.total / 4


def test_build_packing_hypothesis_violation():
    # one heavy atom concentrates half the measure in a tiny ball
    measure = uniform_circle_measure(count=200)
    measure.weights[0] = measure.total
    with pytest.raises(HypothesisViolation, match="ball measure"):
        build_packing(measure, 1e-4, 4, 2)


def test_build_packing_failure_reports_measures():
    # tiny radius on a sparse cloud: chaining cannot reach the target
    count = 40
    angles = 2 * math.pi * np.arange(count) / count
    pos = np.column_stack([np.cos(angles), np.sin(angles)])
    measure = BoundaryMeasure(np.arange(count), pos, np.full(count, 2 * math.pi / count))
    with pytest.raises((PreconditionError, HypothesisViolation)):
        build_packing(measure, 1e-5, 4, 2)


@pytest.fixture(scope="module")
def certified_disk():
    mesh = generate_mesh(
        FamilyDescriptor("ball-flat", h=0.2, n=2, delta=1.0, h_boundary=0.9 / 144)
    )
    ops = assemble_operators(mesh)
    config = ConstantsConfig(use_empirical=True)
    cert = certify_sigma_k(mesh, 1, config, i_sigma=2, operators=ops)
    return mesh, cert


def test_certificate_validity(certified_disk):
    _, cert = certified_disk
    assert cert.valid
    assert cert.sigma_k_fem <= cert.certified_bound
    assert cert.certified_bound < math.inf
    assert cert.separation >= 3 * cert.r


def test_certificate_lemma_conclusions(certified_disk):
    _, cert = certified_disk
    target = cert.total_boundary_volume / (2 * cert.c_cover * (2 * cert.k + 2))
    assert np.all(cert.set_measures >= target * (1 - 1e-12))
    assert len(cert.atom_sets) == 2 * cert.k + 2


def test_certificate_supports_disjoint(certified_disk):
    mesh, cert = certified_disk
    supports = [np.nonzero(np.asarray(v) > 0)[0] for v in cert.test_vectors]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert len(np.intersect1d(supports[i], supports[j])) == 0


def test_certificate_lipschitz_bound(certified_disk):
    mesh, cert = certified_disk
    assert cert.lipschitz_slack <= 1.1
    for v in cert.test_vectors:
        grads = cell_gradient_norms(mesh, np.asarray(v))
        assert grads.max() <= 1.1 / cert.r


def test_certificate_scaling_covariance(certified_disk):
    mesh, cert = certified_disk
    scaled = mesh.scaled(2.0)
    config = ConstantsConfig(use_empirical=True)
    cert2 = certify_sigma_k(
        scaled, 1, config, i_sigma=2, fem_sigma_k=cert.sigma_k_fem / 2.0
    )
    assert cert2.r == pytest.approx(2.0 * cert.r, rel=1e-12)
    assert cert2.certified_bound == pytest.approx(cert.certified_bound / 2.0, rel=1e-8)


def test_literal_constants_hit_resolution_guard(certified_disk):
    mesh, _ = certified_disk
    config = ConstantsConfig(use_empirical=False)
    with pytest.raises(ResolutionError, match="radius"):
        certify_sigma_k(mesh, 1, config, i_sigma=2, fem_sigma_k=1.0)


def test_config_validation():
    with pytest.raises(UsageError):
        ConstantsConfig(d_ball=-1.0)
    with pytest.raises(UsageError):
        ConstantsConfig(c_cover=0)


@pytest.mark.parametrize("d_ball", [math.nan, math.inf, -math.inf, 0.0])
def test_config_rejects_non_finite_d_ball(d_ball):
    with pytest.raises(UsageError, match="d_ball"):
        ConstantsConfig(d_ball=d_ball)


@pytest.mark.parametrize("c_cover", [2**53 + 1, 10**400])
def test_config_rejects_covering_beyond_double_precision(c_cover):
    with pytest.raises(UsageError, match="c_cover"):
        ConstantsConfig(c_cover=c_cover)
    assert ConstantsConfig(c_cover=2**53).c_cover == 2**53


# -- the certificate kernels against their direct forms ---------------------------


def reference_covering_constant(positions, r, samples=1000, seed=0):
    """The covering search with each ball taken from distances to every atom."""
    rng = np.random.default_rng(seed)
    count = len(positions)
    if count <= samples:
        centers = np.arange(count)
    else:
        centers = rng.choice(count, size=samples, replace=False)
    worst = 1
    for i in centers:
        d = np.linalg.norm(positions - positions[i], axis=1)
        ball = positions[d <= r]
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


def reference_distance_to_set(vertices, set_positions):
    """Distance from every vertex to the set, measured against every atom."""
    out = np.empty(len(vertices))
    for start in range(0, len(vertices), 4096):
        out[start : start + 4096] = cdist(vertices[start : start + 4096], set_positions).min(axis=1)
    return out


@pytest.mark.parametrize(
    "dim, count, r, samples",
    [
        (2, 1500, 1e-4, 1000),  # below the spacing: singleton balls
        (2, 1500, 0.05, 1000),
        (2, 1500, 0.12, 1000),
        (3, 1200, 0.15, 1000),
        (3, 1200, 0.3, 300),
        (2, 200, 3.0, 200),  # every ball is the whole cloud
        (3, 150, 3.0, 150),
        (2, 0, 0.1, 1000),  # no atoms and one atom: a count of 1
        (3, 1, 0.1, 1000),
    ],
)
def test_covering_constant_matches_direct_balls(dim, count, r, samples):
    positions = np.random.default_rng(dim * 1000 + count).random((count, dim))
    for seed in (0, 11):
        expected = reference_covering_constant(positions, r, samples=samples, seed=seed)
        assert empirical_covering_constant(positions, r, samples=samples, seed=seed) == expected


def test_covering_constant_matches_direct_balls_at_the_probe_radius(graded_measure):
    r = 12 * graded_measure.spacing  # criterion 7's probe radius
    for seed in (0, 11):
        expected = reference_covering_constant(graded_measure.positions, r, seed=seed)
        assert empirical_covering_constant(graded_measure.positions, r, seed=seed) == expected


def test_covering_constant_matches_direct_balls_when_gains_tie():
    # a shuffled 6 x 6 unit lattice with every atom twice, so gains tie: at r = 3
    # the first maximal gain (np.argmax) needs 6 balls, the last would need 5
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
    positions = np.random.default_rng(0).permutation(np.concatenate([grid, grid]))
    for seed in (0, 11):
        assert reference_covering_constant(positions, 3.0, seed=seed) == 6
        assert empirical_covering_constant(positions, 3.0, seed=seed) == 6


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# every ball below holds every atom, yet no call may hold an N^2 pair list:
# at N = 2,011 one (i, j, d) list takes 47 rows of N doubles
def test_ball_measure_memory_stays_within_row_blocks(graded_measure):
    row = 8 * len(graded_measure)
    peak = peak_bytes(lambda: max_ball_measure(graded_measure, 10.0))
    assert peak < 20 * packing._ROW_BLOCK * row  # about 12 blocks of rows


def test_covering_memory_stays_within_row_blocks():
    cloud = np.random.default_rng(2200).random((200, 2))
    peak = peak_bytes(lambda: empirical_covering_constant(cloud, 3.0, samples=200))
    assert peak < 20 * packing._ROW_BLOCK * 8 * 200  # about 13, one ball's pair test included


def reference_spacing(measure):
    """Median nearest-neighbour distance from one cdist over the first 2000 atoms."""
    sample = measure.positions[: min(len(measure), 2000)]
    d = cdist(sample, measure.positions)
    np.fill_diagonal(d[:, : len(sample)], np.inf)
    return float(np.median(d.min(axis=1)))


def reference_max_ball_measure(measure, r):
    """The ball-measure sweep in 512-row blocks."""
    worst = 0.0
    pos, w = measure.positions, measure.weights
    for start in range(0, len(pos), 512):
        d = cdist(pos[start : start + 512], pos)
        worst = max(worst, float(((d <= r) * w).sum(axis=1).max()))
    return worst


def reference_build_packing(measure, r, num_sets, c_cover):
    """The greedy packing with distances to each set swept over every atom."""
    total = measure.total
    cap = total / (4.0 * c_cover**2 * num_sets)
    worst_ball = reference_max_ball_measure(measure, r)
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
    separation = min(
        (float(cdist(pos[a], pos[b]).min()) for i, a in enumerate(sets) for b in sets[i + 1 :]),
        default=np.inf,
    )
    return packing.PackingSets(r, sets, measures, separation, target)


def _packing_outcome(build, measure, r, num_sets, c_cover):
    try:
        got = build(measure, r, num_sets, c_cover)
    except (HypothesisViolation, PreconditionError) as exc:
        return type(exc), str(exc)
    sets = [s.tolist() for s in got.sets]
    return got.r, sets, got.set_measures.tolist(), got.separation, got.target_measure


# criterion 7's graded disk and cylinder (two boundary circles), about 2,011 atoms each
GRADED = {
    "disk": FamilyDescriptor("ball-flat", h=0.15, n=2, delta=1.0, h_boundary=0.9 / 288),
    "cylinder": FamilyDescriptor(
        "cylinder-surface", h=0.15, radius=1.0, length=1.0, h_boundary=0.9 / 144
    ),
}


@pytest.fixture(scope="module", params=sorted(GRADED))
def graded_measure(request):
    return boundary_measure(generate_mesh(GRADED[request.param]))


def test_spacing_and_ball_measures_match_full_sweeps(graded_measure):
    spacing = reference_spacing(graded_measure)
    assert graded_measure.spacing == spacing
    for r in (0.5 * spacing, 1.11 * spacing, 2.22 * spacing, 12 * spacing, 0.5, 10.0):
        assert max_ball_measure(graded_measure, r) == reference_max_ball_measure(graded_measure, r)


# (r in atom spacings, num_sets, c_cover): below the spacing every absorption
# reseeds, and 300 such sets run out of atoms; 1.11-2.22 are criterion 7's
# radii at k = 3..1; 30 spacings breaks the ball-measure hypothesis
@pytest.mark.parametrize(
    "spacings, num_sets, c_cover",
    [(0.5, 4, 3), (0.5, 300, 1), (1.11, 8, 3), (1.2, 150, 1), (1.48, 6, 3), (2.22, 4, 3),
     (5.0, 8, 2), (30.0, 4, 3)],
)
def test_build_packing_matches_full_sweeps(graded_measure, spacings, num_sets, c_cover):
    r = spacings * graded_measure.spacing
    expected = _packing_outcome(reference_build_packing, graded_measure, r, num_sets, c_cover)
    assert _packing_outcome(build_packing, graded_measure, r, num_sets, c_cover) == expected


def fresh_copy(mesh):
    """The same mesh as a new object, so nothing derived from it is cached yet."""
    return EmbeddedMesh(mesh.vertices, mesh.cells, mesh.boundary_faces, mesh.face_tags)


def test_certificate_payload_matches_direct_kernels(certified_disk, monkeypatch):
    mesh, cert = certified_disk
    mesh = fresh_copy(mesh)  # the measure of the fixture's mesh holds its covering count
    monkeypatch.setattr(packing, "empirical_covering_constant", reference_covering_constant)
    monkeypatch.setattr(
        packing, "_distance_to_set", lambda tree, pos, r: reference_distance_to_set(mesh.vertices, pos)
    )
    direct = certify_sigma_k(
        mesh, 1, ConstantsConfig(use_empirical=True), i_sigma=2, fem_sigma_k=cert.sigma_k_fem
    )
    assert direct.to_payload() == cert.to_payload()
    for got, want in zip(cert.test_vectors, direct.test_vectors):
        assert np.array_equal(got, want)
    # the slack taken one selected function at a time
    slack = 0.0
    for v in direct.test_vectors:
        slack = max(slack, float(cell_gradient_norms(mesh, v).max()) * direct.r)
    assert cert.lipschitz_slack == slack


def _probe_radii(measure, k, i_sigma, c_last):
    floor = 12.0 * measure.spacing
    n = measure.positions.shape[1]
    return [max(choose_radius(measure.total, i_sigma, k, n, c), floor) for c in range(2, c_last + 1)]


@pytest.mark.parametrize("graded_disk", [True, False])
def test_covering_search_measures_each_probe_radius_once(graded_disk, monkeypatch, certified_disk):
    if graded_disk:  # every probe sits on the spacing floor
        kept = boundary_measure(certified_disk[0])  # a fresh measure holds no counts yet
        measure = BoundaryMeasure(kept.vertex_ids, kept.positions, kept.weights)
    else:  # a long circle: the first probe lies above the floor, the next on it
        measure = uniform_circle_measure(3000)
    calls = []

    def counted(positions, r, samples=1000, seed=0):
        calls.append(r)
        return empirical_covering_constant(positions, r, samples=samples, seed=seed)

    monkeypatch.setattr(packing, "empirical_covering_constant", counted)
    c, _ = resolve_covering_constant(measure, ConstantsConfig(), 2, 1, 1, 2, seed=3)
    probes = _probe_radii(measure, 1, 1, c)
    assert calls == list(dict.fromkeys(probes))
    if graded_disk:  # C = 2 and C = 3 probe the same radius: one measurement
        assert len(probes) == 2 and len(calls) == 1
    else:
        assert len(calls) == len(probes) == 2


def test_certifying_several_k_computes_the_mesh_geometry_once(monkeypatch):
    # a coarse interior graded finely enough at the boundary to certify k = 1, 2, 3
    mesh = generate_mesh(
        FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0, h_boundary=0.9 / 288)
    )
    assembled, gram_sizes, covering_seeds = [], [], []
    real_assemble = spectral._assemble

    def counted_assemble(m):
        assembled.append(m)
        return real_assemble(m)

    def counted_grams(vertices, simplices):
        gram_sizes.append(simplices.shape)
        return simplex_grams(vertices, simplices)

    def counted_covering(positions, r, samples=1000, seed=0):
        covering_seeds.append(seed)
        return empirical_covering_constant(positions, r, samples=samples, seed=seed)

    monkeypatch.setattr(spectral, "_assemble", counted_assemble)
    monkeypatch.setattr(spectral, "simplex_grams", counted_grams)
    monkeypatch.setattr(mesh_module, "simplex_grams", counted_grams)
    monkeypatch.setattr(packing, "empirical_covering_constant", counted_covering)
    config = ConstantsConfig(use_empirical=True)
    fem = solve_steklov(SpectralProblem(mesh, "steklov", k_max=3))
    for k in (1, 2, 3):
        certify_sigma_k(mesh, k, config, i_sigma=2, fem_sigma_k=float(fem.eigenvalues[k]))
    assert assembled == [mesh]
    # validation measured the cell volumes before counting began; the assembly needs the Grams
    assert gram_sizes.count(mesh.cells.shape) == 1
    assert covering_seeds == [0]
    certify_sigma_k(mesh, 1, config, i_sigma=2, seed=5, fem_sigma_k=float(fem.eigenvalues[1]))
    assert covering_seeds == [0, 5]


def test_certificate_same_with_and_without_reused_operators(certified_disk):
    mesh, _ = certified_disk
    config = ConstantsConfig(use_empirical=True)
    fem = solve_steklov(SpectralProblem(mesh, "steklov", k_max=1))
    reused = certify_sigma_k(
        mesh, 1, config, i_sigma=2, operators=assemble_operators(mesh),
        fem_sigma_k=float(fem.eigenvalues[1]),
    )
    alone = certify_sigma_k(fresh_copy(mesh), 1, config, i_sigma=2)
    assert alone.to_payload() == reused.to_payload()
    for got, want in zip(alone.test_vectors, reused.test_vectors):
        assert np.array_equal(got, want)
