import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklab import intersection
from steklab.cli import main
from steklab.errors import NonTransverseSample, PreconditionError, UsageError
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.euclidean import unit_sphere_area
from steklab.intersection import (
    BARYCENTRIC_TOL,
    CONDITION_MAX,
    AffinePlane,
    _random_planes,
    concentration_audit,
    count_planes,
    degree_upper_bound,
    estimate_index,
    plane_mesh_intersections,
)
from steklab.mesh import EmbeddedMesh


def horizontal_line(offset):
    return AffinePlane(np.array([[0.0, 1.0]]), np.array([float(offset)]))


def _one_random_plane(rng, codim, lo, hi):
    rows, offsets = _random_planes(rng, codim, lo, hi, 1)
    return AffinePlane(rows[0], offsets[0])


def _stacked(planes):
    """A list of planes as the (P, c, m) rows and (P, c) offsets of count_planes."""
    return np.stack([p.normal_rows for p in planes]), np.stack([p.offset for p in planes])


def test_plane_validation():
    with pytest.raises(UsageError, match="orthonormal"):
        AffinePlane(np.array([[1.0, 1.0]]), np.array([0.0]))
    with pytest.raises(UsageError):
        AffinePlane(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
    for rows in (np.zeros((0, 2)), np.eye(3)[:, :2]):  # codimension 0, and 3 in R^2
        with pytest.raises(UsageError, match="codimension must satisfy"):
            AffinePlane(rows, np.zeros(len(rows)))
    for offset in (np.nan, np.inf, -np.inf):
        with pytest.raises(UsageError, match="offset must be finite"):
            AffinePlane(np.array([[0.0, 1.0]]), np.array([offset]))


def test_count_planes_rejects_a_plane_of_another_ambient_dimension(circle_mesh):
    with pytest.raises(UsageError, match="ambient dimensions differ"):
        count_planes(np.array([[[0.0, 0.0, 1.0]]]), np.zeros((1, 1)), circle_mesh)


def test_line_meets_circle_twice(circle_mesh):
    assert plane_mesh_intersections(horizontal_line(0.137), circle_mesh) == 2
    assert plane_mesh_intersections(horizontal_line(-0.731), circle_mesh) == 2


def test_far_line_misses(circle_mesh):
    assert plane_mesh_intersections(horizontal_line(5.0), circle_mesh) == 0


def test_vertex_hit_is_flagged_non_transverse(circle_mesh):
    # the mesh has a vertex exactly on the x-axis
    with pytest.raises(NonTransverseSample):
        plane_mesh_intersections(horizontal_line(0.0), circle_mesh)


def test_codimension_mismatch_rejected():
    sphere = generate_mesh(FamilyDescriptor("sphere-boundary", h=0.3, n=3, eps=1.0))
    line = AffinePlane(np.array([[1.0, 0.0, 0.0]]), np.array([0.1]))
    with pytest.raises(UsageError, match="codim"):
        plane_mesh_intersections(line, sphere)


def test_transverse_counts_on_closed_curve_are_even(circle_mesh):
    rng = np.random.default_rng(10)
    lo, hi = circle_mesh.bounding_box()
    counted = 0
    while counted < 200:
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        offset = rng.uniform(-1.5, 1.5)
        plane = AffinePlane(direction[None, :], np.array([offset]))
        try:
            count = plane_mesh_intersections(plane, circle_mesh)
        except NonTransverseSample:
            continue
        counted += 1
        assert count % 2 == 0


def test_estimate_index_circle(circle_mesh):
    est = estimate_index(circle_mesh, samples=1000, seed=7)
    assert est.sampled_max == 2
    assert est.samples == 1000
    assert sum(est.count_histogram.values()) == 1000


def test_estimate_index_deterministic(circle_mesh):
    a = estimate_index(circle_mesh, samples=200, seed=42)
    b = estimate_index(circle_mesh, samples=200, seed=42)
    assert a.sampled_max == b.sampled_max
    assert a.count_histogram == b.count_histogram
    assert np.array_equal(a.witness_plane.normal_rows, b.witness_plane.normal_rows)
    assert np.array_equal(a.witness_plane.offset, b.witness_plane.offset)


def test_witness_recount_stability(circle_mesh, torus_mesh):
    for mesh, samples in ((circle_mesh, 300), (torus_mesh, 500)):
        est = estimate_index(mesh, samples=samples, seed=1)
        recount = plane_mesh_intersections(est.witness_plane, mesh)
        assert recount == est.sampled_max


def test_torus_reaches_four(torus_mesh):
    est = estimate_index(torus_mesh, samples=3000, seed=11, degree_bound=4)
    assert est.sampled_max == 4
    assert est.degree_upper_bound == 4
    assert set(est.count_histogram) <= {0, 2, 4}


def test_monotone_under_refinement():
    # nested refinement with the same seed schedule never loses intersections
    for kind, params in [
        ("sphere-boundary", dict(n=2, eps=1.0)),
        ("torus-surface", dict(major_radius=2.0, minor_radius=1.0)),
    ]:
        coarse = generate_mesh(FamilyDescriptor(kind, h=0.4, **params))
        fine = generate_mesh(FamilyDescriptor(kind, h=0.2, **params))
        for seed in (0, 1, 2):
            a = estimate_index(coarse, samples=300, seed=seed, hill_climb=False)
            b = estimate_index(fine, samples=300, seed=seed, hill_climb=False)
            assert b.sampled_max >= a.sampled_max


def test_degree_upper_bound_arithmetic():
    assert degree_upper_bound([[1, 2]]) == 2
    assert degree_upper_bound([[4, 2]]) == 8
    assert degree_upper_bound([[1, 2], [1, 2], [4, 2]]) == 12
    assert degree_upper_bound([[3], [5]]) == 8
    with pytest.raises(UsageError):
        degree_upper_bound([])
    with pytest.raises(UsageError):
        degree_upper_bound([[2], []])
    with pytest.raises(UsageError):
        degree_upper_bound([[0, 2]])


def test_sampled_max_never_exceeds_degree_bound(circle_mesh, torus_mesh):
    assert estimate_index(circle_mesh, samples=500, seed=3, degree_bound=2).sampled_max <= 2
    assert estimate_index(torus_mesh, samples=500, seed=3, degree_bound=4).sampled_max <= 4


def test_concentration_audit_circle(circle_mesh):
    report = concentration_audit(circle_mesh, index_bound=2, trials=1500, seed=3)
    assert report.worst_ratio <= 1.0 + 0.05
    assert report.trials == 1500


def test_concentration_audit_flat_disk_piece():
    # a flat disk sitting in R^3: index 1, area inside B(x, r) at most
    # (1/2) |S^2| r^2 = 2 pi r^2, twice the plain pi r^2
    disk = generate_mesh(FamilyDescriptor("ball-flat", h=0.1, n=2, delta=1.0))
    verts3 = np.column_stack([disk.vertices, np.zeros(len(disk.vertices))])
    flat = EmbeddedMesh(verts3, disk.cells, disk.boundary_faces, disk.face_tags)
    report = concentration_audit(flat, index_bound=1, trials=800, seed=5)
    assert report.worst_ratio <= 0.55  # continuum worst case is 1/2


def test_concentration_audit_torus(torus_mesh):
    report = concentration_audit(torus_mesh, index_bound=4, trials=800, seed=5)
    assert report.worst_ratio <= 1.02


def test_estimate_requires_samples(circle_mesh):
    with pytest.raises(UsageError):
        estimate_index(circle_mesh, samples=0)


def test_run_lengths_obey_the_size_budget(circle_mesh):
    with pytest.raises(UsageError, match="samples must be"):
        estimate_index(circle_mesh, samples=10**8)
    with pytest.raises(UsageError, match="trials must be"):
        concentration_audit(circle_mesh, index_bound=2, trials=10**8)


def test_degree_bound_violation_detected(circle_mesh):
    with pytest.raises(PreconditionError, match="degree bound"):
        estimate_index(circle_mesh, samples=300, seed=0, degree_bound=1)


def _rejecting_counter(monkeypatch, rejected):
    """Replace the block plane counter by one that rejects the planes numbered
    (from 0, in draw order) in `rejected`, or every plane when it is None;
    returns the list of plane numbers counted."""
    count = intersection.count_planes
    calls = []

    def counter(rows, offsets, mesh):
        outcomes = []
        for outcome in count(rows, offsets, mesh):
            calls.append(len(calls))
            if rejected is None or calls[-1] in rejected:
                outcome = NonTransverseSample("rejected by the test")
            outcomes.append(outcome)
        return outcomes

    monkeypatch.setattr(intersection, "count_planes", counter)
    return calls


def test_rejected_planes_are_resampled(circle_mesh, monkeypatch):
    samples, rounds = 40, intersection._HILL_CLIMB_ROUNDS
    plain = estimate_index(circle_mesh, samples=samples, seed=3)
    assert plain.degeneracy_rejections == 0
    # the draw makes samples + 3 calls (0 ... 42), the hill climb the next
    # `rounds`; the witness recount, after both, is never rejected
    during_draw, during_climb = {0, 7, 8}, {samples + 3, samples + 50, samples + 2 + rounds}
    calls = _rejecting_counter(monkeypatch, during_draw | during_climb)
    est = estimate_index(circle_mesh, samples=samples, seed=3)
    assert len(calls) == samples + len(during_draw) + rounds + 1
    assert sum(est.count_histogram.values()) == est.samples == samples
    assert est.degeneracy_rejections == len(during_draw | during_climb)
    assert est.sampled_max == 2


def test_all_rejected_planes_are_a_precondition_failure(tmp_path, capsys, circle_mesh,
                                                        monkeypatch):
    calls = _rejecting_counter(monkeypatch, None)
    with pytest.raises(PreconditionError, match="all sampled planes were degenerate"):
        estimate_index(circle_mesh, samples=5)
    assert len(calls) == 5 * 10 + 1  # one rejection past the budget of 10 per sample
    path = tmp_path / "circle.json"
    circle_mesh.save(path)
    assert main(["index", "--mesh", str(path), "--samples", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition failure: all sampled planes were degenerate; the mesh may be pathological\n"
    )


# -- reference agreement -------------------------------------------------------
#
# Test-local copies of the earlier kernels: the plane screen that reduced a
# strided (C, n+1, c) gather along its vertex axis, the audit that held a
# precomputed (C, P, m) cloud, and the Gram-quadrature audit whose straddle
# test had no centroid bound.  The current kernels must reproduce them.


def _strided_count(plane, mesh, bary_tol=BARYCENTRIC_TOL, cond_max=CONDITION_MAX):
    signed = mesh.vertices @ plane.normal_rows.T - plane.offset
    per_cell = signed[mesh.cells]
    slack = bary_tol * (np.abs(signed).max() + 1.0)
    lo = per_cell.min(axis=1)
    hi = per_cell.max(axis=1)
    candidates = np.nonzero(np.all((lo <= slack) & (hi >= -slack), axis=1))[0]
    if candidates.size == 0:
        return 0
    k = mesh.intrinsic_dim + 1
    systems = np.empty((len(candidates), k, k))
    systems[:, :-1, :] = per_cell[candidates].transpose(0, 2, 1)
    systems[:, -1, :] = 1.0
    conds = np.linalg.cond(systems)
    if not np.all(np.isfinite(conds)) or conds.max() > cond_max:
        raise NonTransverseSample("ill-conditioned plane-cell system")
    rhs = np.zeros((len(candidates), k, 1))
    rhs[:, -1, 0] = 1.0
    lam = np.linalg.solve(systems, rhs)[:, :, 0]
    lam_min = lam.min(axis=1)
    if np.any(np.abs(lam_min) <= bary_tol):
        raise NonTransverseSample("intersection point grazes a cell facet")
    return int(np.count_nonzero(lam_min > bary_tol))


def _cloud_audit(mesh, index_bound, trials, seed=0, points_per_cell=1000):
    rng = np.random.default_rng(seed)
    q = mesh.intrinsic_dim
    cap_coeff = 0.5 * index_bound * unit_sphere_area(q)
    cell_pts = mesh.vertices[mesh.cells]
    vols = mesh.cell_volumes()
    centroids = cell_pts.mean(axis=1)
    spread = np.linalg.norm(cell_pts - centroids[:, None, :], axis=2).max(axis=1)
    vert_sq = (cell_pts**2).sum(axis=2)
    diam = mesh.diameter()
    r_lo = max(np.median(spread) * 2.0, diam * 1e-3)
    r_hi = diam * 0.35
    bary_cloud = rng.dirichlet(np.ones(q + 1), size=points_per_cell)
    cloud = np.matmul(bary_cloud[None, :, :], cell_pts)
    cloud_sq = (cloud**2).sum(axis=2)
    worst = (-np.inf, None, None)
    for trial in range(trials):
        cell = rng.integers(0, len(mesh.cells))
        bary = rng.dirichlet(np.ones(q + 1))
        center = bary @ cell_pts[cell]
        if trial % 2:
            center = center + 0.1 * diam * rng.standard_normal(mesh.ambient_dim)
        radius = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi))))
        c_sq = float(center @ center)
        dist_sq = vert_sq - 2.0 * (cell_pts @ center) + c_sq
        dmax = np.sqrt(np.maximum(dist_sq.max(axis=1), 0.0))
        dmin = np.sqrt(np.maximum(dist_sq.min(axis=1), 0.0))
        inside = dmax <= radius
        volume = float(vols[inside].sum())
        straddle = np.nonzero(~inside & (dmin <= radius + 2.0 * spread))[0]
        if straddle.size:
            d_sq = cloud_sq[straddle] - 2.0 * (cloud[straddle] @ center) + c_sq
            frac = (d_sq <= radius * radius).mean(axis=1)
            volume += float((vols[straddle] * frac).sum())
        ratio = volume / (cap_coeff * radius**q)
        if ratio > worst[0]:
            worst = (ratio, center, radius)
    return worst


def _loose_straddle_audit(mesh, index_bound, trials, seed=0):
    """The Gram-quadrature audit that sent every cell with dmin <= r + 2 spread."""
    rng = np.random.default_rng(seed)
    q = mesh.intrinsic_dim
    cap_coeff = 0.5 * index_bound * unit_sphere_area(q)
    vols = mesh.cell_volumes()
    slot_pts = mesh.vertices[mesh.cells.T]
    spread = np.linalg.norm(slot_pts - slot_pts.mean(axis=0), axis=2).max(axis=0)
    vert_sq = (slot_pts**2).sum(axis=2)
    diam = mesh.diameter()
    r_lo = max(np.median(spread) * 2.0, diam * 1e-3)
    r_hi = diam * 0.35
    bary_cloud = rng.dirichlet(np.ones(q + 1), size=1000)
    outer = (bary_cloud[:, :, None] * bary_cloud[:, None, :]).reshape(1000, -1).T
    worst = (-np.inf, None, None)
    for trial in range(trials):
        cell = rng.integers(0, slot_pts.shape[1])
        bary = rng.dirichlet(np.ones(q + 1))
        center = bary @ slot_pts[:, cell]
        if trial % 2:
            center = center + 0.1 * diam * rng.standard_normal(mesh.ambient_dim)
        radius = float(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi))))
        dist_sq = vert_sq - 2.0 * (slot_pts @ center) + float(center @ center)
        dmax = np.sqrt(np.maximum(dist_sq.max(axis=0), 0.0))
        dmin = np.sqrt(np.maximum(dist_sq.min(axis=0), 0.0))
        inside = dmax <= radius
        volume = float(vols[inside].sum())
        straddle = np.nonzero(~inside & (dmin <= radius + 2.0 * spread))[0]
        if straddle.size:
            rel = slot_pts[:, straddle].transpose(1, 0, 2) - center
            grams = np.matmul(rel, rel.transpose(0, 2, 1)).reshape(straddle.size, -1)
            blocks = np.split(grams, range(256, straddle.size, 256))
            hits = [(g @ outer <= radius * radius).sum(axis=1, dtype=np.int32) for g in blocks]
            volume += float((vols[straddle] * (np.concatenate(hits) / 1000)).sum())
        ratio = volume / (cap_coeff * radius**q)
        if ratio > worst[0]:
            worst = (ratio, center, radius)
    return worst


def _strided_block(rows, offsets, mesh):
    """_strided_count as a block counter: per plane, its count or its exception."""
    outcomes = []
    for plane_rows, offset in zip(rows, offsets):
        try:
            outcomes.append(_strided_count(AffinePlane(plane_rows, offset), mesh))
        except NonTransverseSample as exc:
            outcomes.append(exc)
    return outcomes


def _outcome(count_fn, plane, mesh):
    try:
        return count_fn(plane, mesh)
    except NonTransverseSample as exc:
        return f"non-transverse: {exc}"


def _moller_trumbore_hits(plane, mesh):
    """Transverse hits of a line with a triangle mesh in R^3."""
    rows = plane.normal_rows
    origin = rows.T @ plane.offset
    direction = np.cross(rows[0], rows[1])
    tri = mesh.vertices[mesh.cells]
    e1, e2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    p = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, p)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = origin - tri[:, 0]
    u = np.einsum("ij,ij->i", s, p) * inv
    v = np.einsum("j,ij->i", direction, np.cross(s, e1)) * inv
    return int(np.count_nonzero(ok & (u > 0) & (v > 0) & (u + v < 1)))


@pytest.fixture(scope="module")
def coarse_torus():
    return generate_mesh(
        FamilyDescriptor("torus-surface", h=0.3, major_radius=2.0, minor_radius=1.0)
    )


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "torus_mesh"])
def test_slot_screen_matches_strided_reference(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(2024)
    lo, hi = mesh.bounding_box()
    planes = [_one_random_plane(rng, mesh.intrinsic_dim, lo, hi) for _ in range(500)]
    if mesh.ambient_dim == 2:
        planes += [horizontal_line(0.0), horizontal_line(0.137), horizontal_line(5.0)]
    outcomes = [_outcome(plane_mesh_intersections, p, mesh) for p in planes]
    assert outcomes == [_outcome(_strided_count, p, mesh) for p in planes]
    assert {0, 2} <= set(outcomes)
    if mesh.ambient_dim == 2:
        assert outcomes[-3:] == ["non-transverse: intersection point grazes a cell facet", 2, 0]


@pytest.mark.parametrize(
    "mesh_name, seed, degree_bound",
    [("circle_mesh", 7, 2), ("torus_mesh", 15, None)],
)
def test_estimate_payload_matches_strided_reference(
    mesh_name, seed, degree_bound, request, monkeypatch
):
    mesh = request.getfixturevalue(mesh_name)
    current = estimate_index(mesh, samples=1000, seed=seed, degree_bound=degree_bound)
    if mesh_name == "torus_mesh":
        # the PL torus exceeds the smooth torus index: three close transverse
        # hits in the inner saddle, where the smooth torus has one
        assert current.sampled_max == 6
        assert current.count_histogram == {0: 403, 2: 526, 4: 70, 6: 1}
        assert _moller_trumbore_hits(current.witness_plane, mesh) == 6
    monkeypatch.setattr(intersection, "count_planes", _strided_block)
    reference = estimate_index(mesh, samples=1000, seed=seed, degree_bound=degree_bound)
    assert current.to_payload() == reference.to_payload()


@pytest.fixture(scope="module")
def coarse_sphere3():
    return generate_mesh(FamilyDescriptor("sphere-boundary", h=0.3, n=3, eps=1.0))


def _audit_case(mesh_name, bound, trials=300):
    name = f"{mesh_name}-{bound}" + (f"-{trials}-trials" if trials != 300 else "")
    return pytest.param(mesh_name, bound, trials, id=name)


# the references integrate every trial; the audit skips those that cannot
# become the worst: none at one trial, most of 2,000
_PRUNING_CASES = [
    _audit_case("small_ball3", 1),
    _audit_case("coarse_sphere3", 2),
    _audit_case("coarse_torus", 4, trials=1),
    _audit_case("coarse_torus", 4, trials=2000),
]


@pytest.mark.parametrize(
    "mesh_name, bound, trials",
    [_audit_case("circle_mesh", 2), _audit_case("coarse_torus", 4), *_PRUNING_CASES],
)
def test_audit_matches_cloud_reference(mesh_name, bound, trials, request):
    mesh = request.getfixturevalue(mesh_name)
    report = concentration_audit(mesh, bound, trials=trials, seed=3)
    ratio, center, radius = _cloud_audit(mesh, bound, trials=trials, seed=3)
    assert report.worst_ratio == ratio
    assert np.array_equal(report.worst_center, center)
    assert report.worst_radius == radius


@pytest.mark.parametrize(
    "mesh_name, bound, trials",
    [
        _audit_case("circle_mesh", 2),
        _audit_case("coarse_torus", 4),
        _audit_case("revolution_mesh", 6),
        *_PRUNING_CASES,
    ],
)
def test_centroid_straddle_test_drops_only_cells_without_hits(mesh_name, bound, trials, request):
    mesh = request.getfixturevalue(mesh_name)
    report = concentration_audit(mesh, bound, trials=trials, seed=3)
    ratio, center, radius = _loose_straddle_audit(mesh, bound, trials=trials, seed=3)
    assert report.worst_ratio == ratio
    assert np.array_equal(report.worst_center, center)
    assert report.worst_radius == radius


def test_audit_skips_the_quadrature_of_most_trials(coarse_torus, monkeypatch):
    integrated = []
    split = np.split

    def counting_split(*args, **kwargs):  # one call per trial that reaches the quadrature
        integrated.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(np, "split", counting_split)
    concentration_audit(coarse_torus, 4, trials=200, seed=0)
    assert 1 <= len(integrated) < 100


@st.composite
def plane_rows(draw):
    """(c, m) rows: orthonormal, perturbed by 1e-13..1e-3, or holding NaN or +-inf."""
    m = draw(st.integers(1, 4))
    c = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.linalg.qr(rng.standard_normal((m, c)))[0].T
    kind = draw(st.sampled_from(["orthonormal", "perturbed", "nan", "inf", "-inf"]))
    if kind == "perturbed":
        scale = 10.0 ** draw(st.floats(-13.0, -3.0))
        rows = rows + scale * rng.standard_normal(rows.shape)
    elif kind != "orthonormal":
        rows[draw(st.integers(0, c - 1)), draw(st.integers(0, m - 1))] = float(kind)
    return rows


@given(rows=plane_rows())
def test_plane_check_matches_allclose(rows):
    with np.errstate(all="ignore"):
        expected = np.allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)
        try:
            AffinePlane(rows, np.zeros(len(rows)))
            accepted = True
        except UsageError:
            accepted = False
    assert accepted == expected


def _sliver_cell(rng, dim):
    """One cell across the plane {x_1 = ... = x_dim = 0} of R^(dim+1) whose
    plane-cell system has a condition number near CONDITION_MAX: its vertices
    project onto a simplex of width about 1e-12..1e-8 around the origin."""
    width = 10.0 ** rng.uniform(-12.0, -8.0, size=dim + 1)
    if dim == 1:  # a segment crossing a line
        projected = np.array([[-width[0]], [width[1]]])
        vertices = np.column_stack([projected, [0.0, 1.0]])
    else:  # a triangle crossing a line in R^3
        projected = np.array([[-1.0, -width[0]], [1.0, -width[1]], [0.0, width[2]]])
        vertices = np.column_stack([projected, [0.0, 0.0, 1.0]])
    faces = [[0], [1]] if dim == 1 else [[0, 1], [1, 2], [0, 2]]
    mesh = EmbeddedMesh(vertices, [list(range(dim + 1))], faces, ["steklov"] * len(faces))
    plane = AffinePlane(np.eye(dim + 1)[:dim], np.zeros(dim))
    system = np.vstack([projected.T, np.ones(dim + 1)])
    return mesh, plane, system


@pytest.mark.parametrize("dim", [1, 2])
def test_svd_ratio_rejection_matches_condition_number(dim):
    rng = np.random.default_rng(17 + dim)
    decisions = []
    for _ in range(200):
        mesh, plane, system = _sliver_cell(rng, dim)
        cond = np.linalg.cond(system)
        expected_reject = not np.isfinite(cond) or cond > CONDITION_MAX
        try:
            assert plane_mesh_intersections(plane, mesh) == 1
            rejected = False
        except NonTransverseSample as exc:
            assert "ill-conditioned" in str(exc)
            rejected = True
        assert rejected == expected_reject
        decisions.append(rejected)
    assert 20 < sum(decisions) < 180  # both sides of CONDITION_MAX are drawn


def test_audit_memory_does_not_grow_with_cloud(coarse_torus):
    # a per-cell cloud (2,646 cells x 1,000 points x 3 coordinates) takes
    # 63.5 MB alone, and an audit holding one peaked at 148.6 MB here; the
    # blocked Gram quadrature peaks at 2.9 MB
    tracemalloc.start()
    try:
        concentration_audit(coarse_torus, 4, trials=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_pl_torus_six_hit_plane_breaks_degree_bound_four(torus_mesh):
    # seed 15 draws the 6-hit plane pinned in the payload test above
    with pytest.raises(PreconditionError, match="degree bound"):
        estimate_index(torus_mesh, samples=1000, seed=15, degree_bound=4)


# -- plane blocks --------------------------------------------------------------


def _circle_and_sliver(circle_mesh, rng):
    """The circle with a sliver segment beside it, crossing the line x = 5
    with a plane-cell system conditioned far worse than CONDITION_MAX, and a
    segment from (5, 2) to (6, 2) that the line grazes; returns the mesh and
    that line, which must be reported ill-conditioned."""
    while True:
        sliver, plane, system = _sliver_cell(rng, 1)
        if np.linalg.cond(system) > 10 * CONDITION_MAX:
            break
    n = circle_mesh.n_vertices
    mesh = EmbeddedMesh(
        np.vstack([circle_mesh.vertices, sliver.vertices + [5.0, 0.0], [[5.0, 2.0], [6.0, 2.0]]]),
        np.vstack([circle_mesh.cells, sliver.cells + n, [[n + 2, n + 3]]]),
        np.vstack([sliver.boundary_faces + n, [[n + 2], [n + 3]]]),
        [*sliver.face_tags, "steklov", "steklov"],
    )
    return mesh, AffinePlane(plane.normal_rows, plane.offset + 5.0)


def _block_outcomes(planes, mesh):
    return [
        f"non-transverse: {outcome}" if isinstance(outcome, NonTransverseSample) else outcome
        for outcome in count_planes(*_stacked(planes), mesh)
    ]


@pytest.mark.parametrize("size", [1, 2, 7, None])
def test_block_count_matches_strided_reference(size, circle_mesh):
    rng = np.random.default_rng(31)
    mesh, sliver_line = _circle_and_sliver(circle_mesh, rng)
    if size is None:  # the block estimate_index draws on this mesh
        size = intersection._SCREEN_BUDGET // (2 * mesh.n_vertices)
    lo, hi = circle_mesh.bounding_box()
    pool = [_one_random_plane(rng, 1, lo, hi) for _ in range(max(size, 7))]
    odd = [horizontal_line(5.0), horizontal_line(0.0), sliver_line]
    expected = {id(p): _outcome(_strided_count, p, mesh) for p in pool + odd}
    assert [expected[id(p)] for p in odd] == [
        0,
        "non-transverse: intersection point grazes a cell facet",
        "non-transverse: ill-conditioned plane-cell system",
    ]
    assert {0, 2} <= {expected[id(p)] for p in pool[:7]}
    drawn = pool[:size]
    # each odd plane at every position (a sample of them in the largest block),
    # then all three together
    positions = range(size) if size <= 7 else sorted({0, 1, size // 2, size - 2, size - 1})
    blocks = [drawn] + [
        drawn[:i] + [plane] + drawn[i + 1:] for plane in odd for i in positions
    ]
    if size >= len(odd):
        blocks.append([*odd, *drawn[len(odd):]][::-1])
    for block in blocks:
        assert _block_outcomes(block, mesh) == [expected[id(p)] for p in block]
    for plane in drawn[:3] + odd:
        assert _outcome(plane_mesh_intersections, plane, mesh) == expected[id(plane)]


@pytest.mark.parametrize("mesh_name", ["circle_mesh", "torus_mesh"])
def test_empty_block_counts_nothing(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    c, m = mesh.intrinsic_dim, mesh.ambient_dim
    assert count_planes(np.empty((0, c, m)), np.empty((0, c)), mesh) == []


@pytest.mark.parametrize("ambient, codim", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("count", [1, 3, 17])
def test_block_draws_match_single_draws(ambient, codim, count):
    lo, hi = -np.arange(1.0, ambient + 1.0), np.arange(2.0, ambient + 2.0)
    single, stacked = np.random.default_rng(5), np.random.default_rng(5)
    one_by_one = [_random_planes(single, codim, lo, hi, 1) for _ in range(count)]
    rows, offsets = _random_planes(stacked, codim, lo, hi, count)
    assert single.bit_generator.state == stacked.bit_generator.state
    assert rows.shape == (count, codim, ambient) and offsets.shape == (count, codim)
    for (one_rows, one_offsets), block_rows, block_offset in zip(
        one_by_one, rows, offsets, strict=True
    ):
        assert one_rows[0].tobytes() == block_rows.tobytes()
        assert one_offsets[0].tobytes() == block_offset.tobytes()


@pytest.mark.parametrize(
    "mesh_name, samples, seed",
    [("circle_mesh", 300, 3), ("coarse_torus", 100, 5), ("coarse_torus", 1, 6)],
)
def test_estimate_payload_does_not_depend_on_block_size(
    mesh_name, samples, seed, request, monkeypatch
):
    mesh = request.getfixturevalue(mesh_name)
    default = estimate_index(mesh, samples=samples, seed=seed).to_payload()
    if seed == 6:  # two climbs: the rest of a block is rebuilt from the new witness
        assert default["hill_climb_improvements"] == 2
    per_plane = 2 * mesh.intrinsic_dim * mesh.n_vertices  # signed distances: half the budget
    for size in (1, 3, samples, intersection._HILL_CLIMB_ROUNDS):
        monkeypatch.setattr(intersection, "_SCREEN_BUDGET", size * per_plane)
        assert estimate_index(mesh, samples=samples, seed=seed).to_payload() == default


def test_singular_system_is_found_plane_by_plane(circle_mesh, monkeypatch):
    # no system that passes the condition check has come out singular, so a
    # solve that fails on the marked plane's systems stands in for one
    marked = horizontal_line(0.137)
    distances = circle_mesh.vertices[:, 1] - 0.137
    solve = np.linalg.solve

    def failing_solve(systems, rhs):
        if np.isin(systems[:, 0, 0], distances).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(systems, rhs)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    block = [horizontal_line(-0.731), marked, horizontal_line(5.0)]
    assert _block_outcomes(block, circle_mesh) == [
        2, "non-transverse: singular plane-cell system", 0
    ]
    with pytest.raises(NonTransverseSample, match="singular"):
        plane_mesh_intersections(marked, circle_mesh)


# -- patch culling -------------------------------------------------------------


@pytest.fixture(scope="module")
def small_ball3():
    return generate_mesh(FamilyDescriptor("ball-flat", h=0.5, n=3, delta=1.0))


@pytest.mark.parametrize(
    "mesh_name", ["circle_mesh", "torus_mesh", "coarse_torus", "revolution_mesh", "small_ball3"]
)
def test_patch_table_partitions_the_cells_into_balls(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    patches = intersection._patch_table(mesh)
    sizes = np.diff(patches.bounds)
    # every cell in exactly one patch: the patches' columns are the cells
    assert sorted(map(tuple, patches.slots.T)) == sorted(map(tuple, mesh.cells))
    assert patches.bounds[0] == 0 and patches.bounds[-1] == len(mesh.cells)
    assert 1 <= sizes.min() and sizes.max() <= np.ceil(np.sqrt(len(mesh.cells)))
    for center, radius, lo, hi in zip(patches.centers, patches.radii, patches.bounds,
                                      patches.bounds[1:]):
        corners = mesh.vertices[patches.slots[:, lo:hi]]
        assert np.linalg.norm(corners - center, axis=-1).max() <= radius


def _confetti(dim, count=40):
    """`count` disjoint random cells of dimension dim in R^(dim+1): every
    vertex belongs to one cell, so no neighbour shares its grazing."""
    rng = np.random.default_rng(dim)
    anchors = rng.uniform(-2.0, 2.0, size=(count, 1, dim + 1))
    vertices = (anchors + 0.3 * rng.standard_normal((count, dim + 1, dim + 1))).reshape(-1, dim + 1)
    cells = np.arange(count * (dim + 1)).reshape(count, dim + 1)
    faces = cells[:, [[0], [1]]] if dim == 1 else cells[:, [[0, 1], [1, 2], [0, 2]]]
    faces = faces.reshape(-1, dim)
    return EmbeddedMesh(vertices, cells, faces, ["steklov"] * len(faces))


_CULL_MESHES = {
    "circle": lambda: generate_mesh(FamilyDescriptor("sphere-boundary", h=0.2, n=2, eps=1.0)),
    "torus": lambda: generate_mesh(
        FamilyDescriptor("torus-surface", h=0.6, major_radius=2.0, minor_radius=1.0)
    ),
    "disk": lambda: generate_mesh(FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0)),
    "segments": lambda: _confetti(1),
    "triangles": lambda: _confetti(2),
}
# (scale, shift) of the vertices: translated to 1e3 and scaled to 1e-4 as
# well as shifted to where the rounding of a signed distance exceeds the slack
_TRANSFORMS = [(1.0, 0.0), (1e-4, 0.0), (1.0, 1e3), (1e-4, 1e3), (1.0, 1e8), (1.0, 1e10)]


@functools.lru_cache(maxsize=None)
def _cull_mesh(kind, transform):
    base = _CULL_MESHES[kind]() if transform == (1.0, 0.0) else _cull_mesh(kind, (1.0, 0.0))
    scale, shift = transform
    direction = np.array([1.0, 0.5, -0.7])[: base.ambient_dim]
    return EmbeddedMesh(base.vertices * scale + shift * direction, base.cells,
                        base.boundary_faces, base.face_tags)


def _tangent_plane(mesh, patches, p, t, rng):
    """A plane through the farthest vertex of patch p's ball, its first row
    normal to the ball there, moved t slacks outward; its row norms are off
    by up to the 1e-5 in squared norm that AffinePlane accepts, the first
    row's the largest, so its distance to the ball center exceeds the scaled
    radius by the move alone."""
    m, c = mesh.ambient_dim, mesh.intrinsic_dim
    corners = mesh.vertices[patches.slots[:, patches.bounds[p]:patches.bounds[p + 1]]]
    corners = corners.reshape(-1, m)
    vertex = corners[np.argmax(np.linalg.norm(corners - patches.centers[p], axis=1))]
    normals = rng.standard_normal((m, c))
    normals[:, 0] = vertex - patches.centers[p]
    rows = _stretched(np.linalg.qr(normals)[0].T, rng)
    offset = rows @ vertex
    slack = BARYCENTRIC_TOL * (np.abs(mesh.vertices @ rows.T - offset).max() + 1.0)
    offset[0] += np.sign(rows[0] @ (vertex - patches.centers[p])) * t * slack
    return AffinePlane(rows, offset)


def _stretched(rows, rng):
    """Orthonormal rows scaled to squared norms within 1e-5 of 1, the largest first."""
    stretch = np.sort(rng.uniform(-0.99e-5, 0.99e-5, size=len(rows)))[::-1]
    return rows * np.sqrt(1.0 + stretch)[:, None]


@st.composite
def culled_blocks(draw):
    """A transformed mesh and a block of planes: random ones, ones through a
    vertex, and tangent planes (_tangent_plane) within a few slacks of a
    patch ball; a tangent plane within 0.01 slack grazes its vertex."""
    mesh = _cull_mesh(draw(st.sampled_from(sorted(_CULL_MESHES))),
                      draw(st.sampled_from(_TRANSFORMS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, m = mesh.intrinsic_dim, mesh.ambient_dim
    patches = intersection._patch_table(mesh)
    lo, hi = mesh.bounding_box()
    planes = []
    for kind in draw(st.lists(st.sampled_from(["random", "vertex", "tangent"]),
                              min_size=1, max_size=8)):
        if kind == "tangent":
            t = rng.choice([-1.5, -0.01, 0.01, 0.01, 0.5, 1.5])
            planes.append(_tangent_plane(mesh, patches, rng.integers(len(patches.radii)), t, rng))
            continue
        anchor = lo + (hi - lo) * rng.uniform(size=m)
        if kind == "vertex":
            anchor = mesh.vertices[rng.integers(mesh.n_vertices)]
        rows = _stretched(np.linalg.qr(rng.standard_normal((m, c)))[0].T, rng)
        planes.append(AffinePlane(rows, rows @ anchor))
    return mesh, planes


@given(block=culled_blocks())
def test_culled_count_matches_strided_reference(block):
    mesh, planes = block
    assert _block_outcomes(planes, mesh) == [_outcome(_strided_count, p, mesh) for p in planes]


@pytest.mark.parametrize("shift", [0.0, 1e10])
@pytest.mark.parametrize("kind", ["segments", "triangles"])
def test_cull_keeps_a_patch_whose_vertex_grazes_within_the_slack(kind, shift):
    # every vertex of these meshes lies in one cell, so a plane 0.01 slack
    # outside a patch ball at its farthest vertex grazes only that patch.
    # Each plane also comes with its offset moved by up to 6 ulps: at 1e10
    # the rounding of the signed distances exceeds the slack, and only the
    # rounding allowance keeps the patch
    mesh = _cull_mesh(kind, (1.0, shift))
    patches = intersection._patch_table(mesh)
    rng = np.random.default_rng(3)
    planes = []
    for p in range(len(patches.radii)):
        plane = _tangent_plane(mesh, patches, p, 0.01, rng)
        for ulps in range(-6, 7):
            offset = plane.offset.copy()
            offset[0] += ulps * np.spacing(offset[0])
            planes.append(AffinePlane(plane.normal_rows, offset))
    outcomes = _block_outcomes(planes, mesh)
    assert outcomes == [_outcome(_strided_count, p, mesh) for p in planes]
    if shift == 0.0:
        grazing = outcomes.count("non-transverse: intersection point grazes a cell facet")
        assert grazing >= len(planes) // 2
