import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steklab import intersection
from steklab.errors import NonTransverseSample, PreconditionError, UsageError
from steklab.families import FamilyDescriptor, generate_mesh
from steklab.euclidean import unit_sphere_area
from steklab.intersection import (
    BARYCENTRIC_TOL,
    CONDITION_MAX,
    AffinePlane,
    _random_plane,
    concentration_audit,
    degree_upper_bound,
    estimate_index,
    plane_mesh_intersections,
)
from steklab.mesh import EmbeddedMesh


def horizontal_line(offset):
    return AffinePlane(np.array([[0.0, 1.0]]), np.array([float(offset)]))


def test_plane_validation():
    with pytest.raises(UsageError, match="orthonormal"):
        AffinePlane(np.array([[1.0, 1.0]]), np.array([0.0]))
    with pytest.raises(UsageError):
        AffinePlane(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))


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
    assert degree_upper_bound([1, 2]) == 2
    assert degree_upper_bound([4, 2]) == 8
    assert degree_upper_bound([[1, 2], [1, 2], [4, 2]]) == 12
    assert degree_upper_bound([[3], [5]]) == 8
    with pytest.raises(UsageError):
        degree_upper_bound([])
    with pytest.raises(UsageError):
        degree_upper_bound([[2], []])
    with pytest.raises(UsageError):
        degree_upper_bound([0, 2])


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


def test_degree_bound_violation_detected(circle_mesh):
    with pytest.raises(PreconditionError, match="degree bound"):
        estimate_index(circle_mesh, samples=300, seed=0, degree_bound=1)


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
    planes = [_random_plane(rng, mesh.intrinsic_dim, lo, hi) for _ in range(500)]
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
    monkeypatch.setattr(intersection, "plane_mesh_intersections", _strided_count)
    reference = estimate_index(mesh, samples=1000, seed=seed, degree_bound=degree_bound)
    assert current.to_payload() == reference.to_payload()


@pytest.mark.parametrize(
    "mesh_name, bound", [("circle_mesh", 2), ("coarse_torus", 4)]
)
def test_audit_matches_cloud_reference(mesh_name, bound, request):
    mesh = request.getfixturevalue(mesh_name)
    report = concentration_audit(mesh, bound, trials=300, seed=3)
    ratio, center, radius = _cloud_audit(mesh, bound, trials=300, seed=3)
    assert report.worst_ratio == ratio
    assert np.array_equal(report.worst_center, center)
    assert report.worst_radius == radius


@pytest.mark.parametrize(
    "mesh_name, bound", [("circle_mesh", 2), ("coarse_torus", 4), ("revolution_mesh", 6)]
)
def test_centroid_straddle_test_drops_only_cells_without_hits(mesh_name, bound, request):
    mesh = request.getfixturevalue(mesh_name)
    report = concentration_audit(mesh, bound, trials=300, seed=3)
    ratio, center, radius = _loose_straddle_audit(mesh, bound, trials=300, seed=3)
    assert report.worst_ratio == ratio
    assert np.array_equal(report.worst_center, center)
    assert report.worst_radius == radius


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
