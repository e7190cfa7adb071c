import math
import re

import numpy as np
import pytest
from scipy.spatial import QhullError

from steklab import families
from steklab.errors import NumericalError, ResolutionError, UsageError
from steklab.euclidean import unit_sphere_area
from steklab.families import (
    FamilyDescriptor,
    exact_volumes,
    generate_mesh,
    geometric_summary,
    injectivity_radius,
)


def volume_errors(kind, hs, **params):
    errs = []
    for h in hs:
        desc = FamilyDescriptor(kind, h=h, **params)
        mesh = generate_mesh(desc)
        exact, _ = exact_volumes(desc)
        errs.append(abs(mesh.volume() - exact))
    return errs


@pytest.mark.parametrize(
    "kind,params",
    [
        ("ball-flat", dict(n=2, delta=1.0)),
        ("annulus-flat", dict(n=2, eps=1.0, delta=2.0)),
        ("cylinder-surface", dict(radius=1.0, length=1.0)),
        ("sphere-boundary", dict(n=2, eps=1.0)),
    ],
)
def test_volume_second_order_convergence(kind, params):
    errs = volume_errors(kind, [0.2, 0.1, 0.05], **params)
    # O(h^2): each halving should cut the error by roughly 4; accept >= 2.5
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def test_torus_and_revolution_volumes_converge():
    for kind, params in [
        ("torus-surface", dict(major_radius=2.0, minor_radius=1.0)),
        ("revolution-closure", dict(n=2, eps=0.5, delta=2.0)),
    ]:
        errs = volume_errors(kind, [0.4, 0.2, 0.1], **params)
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] > 2.0


def test_cylinder_exact_areas():
    desc = FamilyDescriptor("cylinder-surface", h=0.02, radius=1.0, length=1.0)
    summary = geometric_summary(generate_mesh(desc), desc)
    assert summary.volume_m == pytest.approx(2 * math.pi, rel=2e-3)
    assert summary.volume_sigma == pytest.approx(4 * math.pi, rel=2e-3)


def test_annulus_areas_and_tags():
    desc = FamilyDescriptor("annulus-flat", h=0.05, n=2, eps=1.0, delta=2.0)
    mesh = generate_mesh(desc)
    summary = geometric_summary(mesh, desc)
    assert summary.volume_m == pytest.approx(3 * math.pi, rel=2e-3)
    assert summary.volume_sigma == pytest.approx(2 * math.pi, rel=2e-3)
    # inner faces steklov, outer neumann
    for face, tag in zip(mesh.boundary_faces, mesh.face_tags):
        radius = np.linalg.norm(mesh.vertices[face], axis=1).mean()
        assert tag == ("steklov" if radius < 1.5 else "neumann")


def _radius(x):
    return np.linalg.norm(x, axis=-1)


def _planar_radius(x):
    return np.linalg.norm(x[..., :2], axis=-1)


# every family at every n it is meshed for: its metadata keys beyond "family",
# and the radius function and inner radius that pick its Steklov faces (None:
# every boundary face is Steklov)
_FAMILY_CASES = [
    pytest.param(FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0), ["n"], None, id="disk"),
    pytest.param(FamilyDescriptor("ball-flat", h=0.3, n=2.0, delta=1.0), ["n"], None,
                 id="disk-float-n"),
    pytest.param(FamilyDescriptor("ball-flat", h=0.5, n=3, delta=1.0), ["n"], None, id="ball"),
    pytest.param(FamilyDescriptor("annulus-flat", h=0.2, n=2, eps=1.0, delta=2.0), ["n"],
                 (_radius, 1.0), id="annulus-n2"),
    pytest.param(FamilyDescriptor("annulus-flat", h=0.2, n=2, eps=1.0, delta=2.0, h_boundary=0.05),
                 ["n"], (_radius, 1.0), id="annulus-n2-graded"),
    pytest.param(FamilyDescriptor("annulus-flat", h=0.6, n=3, eps=1.0, delta=2.0), ["n"],
                 (_radius, 1.0), id="annulus-n3"),
    pytest.param(FamilyDescriptor("cylinder-surface", h=0.2, radius=1.0, length=1.0), [], None,
                 id="cylinder"),
    pytest.param(FamilyDescriptor("sphere-boundary", h=0.2, n=2, eps=1.0), ["n"], None,
                 id="circle"),
    pytest.param(FamilyDescriptor("sphere-boundary", h=0.4, n=3, eps=1.0), ["n"], None,
                 id="sphere"),
    pytest.param(FamilyDescriptor("torus-surface", h=0.4, major_radius=2.0, minor_radius=1.0),
                 [], None, id="torus"),
    pytest.param(FamilyDescriptor("revolution-closure", h=0.3, n=2, eps=0.5, delta=2.0),
                 ["n", "seam_rings"], None, id="revolution-closure"),
    pytest.param(FamilyDescriptor("product-annulus-circle", h=0.4, n=2, eps=0.5, delta=2.0,
                                  circle_radius=0.3), ["n"], (_planar_radius, 0.5), id="product"),
]


@pytest.mark.parametrize("desc, keys, inner", _FAMILY_CASES)
def test_generated_metadata_and_steklov_faces(desc, keys, inner):
    mesh = generate_mesh(desc)
    assert list(mesh.metadata) == ["family", *keys]
    assert mesh.metadata["family"] == desc.kind
    if "n" in keys:
        assert mesh.metadata["n"] == desc.n and type(mesh.metadata["n"]) is int
    steklov = np.asarray(mesh.face_tags) == "steklov"
    if inner is None:
        assert steklov.all()
        return
    radius, eps = inner
    on_inner = np.all(np.abs(radius(mesh.vertices[mesh.boundary_faces]) - eps) < 1e-9, axis=1)
    assert on_inner.any() and not on_inner.all()
    assert np.array_equal(steklov, on_inner)


def test_revolution_closure_single_boundary_circle(revolution_mesh):
    assert revolution_mesh.boundary_components() == 1
    bverts = revolution_mesh.boundary_vertices()
    pos = revolution_mesh.vertices[bverts]
    assert np.allclose(np.linalg.norm(pos[:, :2], axis=1), 0.5, atol=1e-12)
    assert np.allclose(pos[:, 2], -1.0, atol=1e-12)


def test_revolution_closure_records_seams(revolution_mesh):
    seams = revolution_mesh.metadata["seam_rings"]
    assert len(seams) == 2
    for seam, height in zip(seams, (-1.0, 1.0)):
        pos = revolution_mesh.vertices[np.array(seam)]
        assert np.allclose(np.linalg.norm(pos[:, :2], axis=1), 2.0, atol=1e-9)
        assert np.allclose(pos[:, 2], height, atol=1e-9)


def test_product_unit_boundary_volume():
    # R chosen so the boundary torus has unit volume: R = eps^(1-n)/(2 pi n omega_n)
    eps, n = 0.2, 2
    big_r = eps ** (1 - n) / (2 * math.pi * n * math.pi)  # omega_2 = pi
    desc = FamilyDescriptor(
        "product-annulus-circle", h=0.08, n=2, eps=eps, delta=1.0, circle_radius=big_r
    )
    mesh = generate_mesh(desc)
    summary = geometric_summary(mesh, desc)
    _, exact_sigma = exact_volumes(desc)
    assert exact_sigma == pytest.approx(1.0, rel=1e-12)
    # chord deficit of the coarse circle factor dominates; convergence to the
    # exact unit volume is covered by the refinement test below
    assert summary.volume_sigma == pytest.approx(1.0, rel=4e-2)


def test_product_volume_converges():
    desc_params = dict(n=2, eps=0.5, delta=1.5, circle_radius=0.4)
    errs = volume_errors("product-annulus-circle", [0.3, 0.15], **desc_params)
    assert errs[0] / errs[1] > 2.5


def test_injectivity_radii():
    sphere = FamilyDescriptor("sphere-boundary", h=0.1, n=2, eps=0.1)
    assert injectivity_radius(sphere) == pytest.approx(0.1 * math.pi)
    product = FamilyDescriptor(
        "product-annulus-circle", h=0.3, n=2, eps=0.1, delta=1.0, circle_radius=1.0
    )
    assert injectivity_radius(product) == pytest.approx(0.1 * math.pi)
    cylinder = FamilyDescriptor("cylinder-surface", h=0.1, radius=0.7, length=1.0)
    assert injectivity_radius(cylinder) == pytest.approx(0.7 * math.pi)
    ball = FamilyDescriptor("ball-flat", h=0.1, n=2, delta=1.0)
    assert injectivity_radius(ball) is None
    assert geometric_summary(generate_mesh(ball), ball).injectivity_radius is None
    # the remaining families have no closed form in the table
    for desc in [
        FamilyDescriptor("annulus-flat", h=0.1, n=3, eps=0.5, delta=1.0),
        FamilyDescriptor("torus-surface", h=0.1, major_radius=2.0, minor_radius=1.0),
        FamilyDescriptor("revolution-closure", h=0.1, eps=0.5, delta=2.0),
    ]:
        assert injectivity_radius(desc) is None


def _reference_volumes(d):
    """The exact volumes written out one kind at a time, independently of the table."""
    n, e, dl = d.n, d.eps, d.delta
    if d.kind == "ball-flat":
        if n == 2:
            return math.pi * dl * dl, 2.0 * math.pi * dl
        return 4.0 / 3.0 * math.pi * dl**3, 4.0 * math.pi * dl * dl
    if d.kind == "annulus-flat":
        if n == 2:
            return math.pi * (dl * dl - e * e), 2.0 * math.pi * e
        return 4.0 / 3.0 * math.pi * (dl**3 - e**3), 4.0 * math.pi * e * e
    if d.kind == "cylinder-surface":
        return 2.0 * math.pi * d.radius * d.length, 4.0 * math.pi * d.radius
    if d.kind == "sphere-boundary":
        return unit_sphere_area(n - 1) * e ** (n - 1), 0.0
    if d.kind == "torus-surface":
        return 4.0 * math.pi**2 * d.major_radius * d.minor_radius, 0.0
    if d.kind == "revolution-closure":
        annulus, cap = math.pi * (dl * dl - e * e), math.pi * dl * dl
        return annulus + cap + 2.0 * math.pi * (math.pi * dl + 2.0), 2.0 * math.pi * e
    circ = 2.0 * math.pi * d.circle_radius  # product-annulus-circle
    return math.pi * (dl * dl - e * e) * circ, 2.0 * math.pi * e * circ


def _reference_injectivity(d):
    if d.kind == "sphere-boundary":
        return math.pi * d.eps
    if d.kind == "product-annulus-circle":
        return math.pi * min(d.eps, d.circle_radius)
    if d.kind == "cylinder-surface":
        return math.pi * d.radius
    return None


def _descriptors():
    """Every kind at every n it is meshed for, on a small grid of sizes."""
    for a, b in [(0.3, 1.7), (1.0, 2.5), (0.7, 0.9)]:
        for n in (2, 3):
            yield FamilyDescriptor("ball-flat", h=0.1, n=n, delta=b)
            yield FamilyDescriptor("annulus-flat", h=0.1, n=n, eps=a, delta=b)
            yield FamilyDescriptor("sphere-boundary", h=0.1, n=n, eps=a)
        yield FamilyDescriptor("cylinder-surface", h=0.1, radius=a, length=b)
        yield FamilyDescriptor("torus-surface", h=0.1, major_radius=b, minor_radius=a)
        yield FamilyDescriptor("revolution-closure", h=0.1, eps=a, delta=b)
        for big_r in (0.5 * a, 2.0 * b):
            yield FamilyDescriptor(
                "product-annulus-circle", h=0.1, eps=a, delta=b, circle_radius=big_r
            )


def test_table_closed_forms_match_the_reference():
    for desc in _descriptors():
        # the flat families take omega_n and |S^(n-1)| from their gamma-function
        # formulas, which may round a few ulp away from the literal constants
        ulps = 2 if desc.kind in ("ball-flat", "annulus-flat") else 0
        for got, want in zip(exact_volumes(desc), _reference_volumes(desc)):
            assert abs(got - want) <= ulps * math.ulp(want), (desc, got, want)
        assert injectivity_radius(desc) == _reference_injectivity(desc)


def test_summary_isoperimetric_ratio(disk_mesh_coarse):
    s = geometric_summary(disk_mesh_coarse)
    assert s.isoperimetric_ratio == pytest.approx(
        s.volume_sigma / s.volume_m**0.5, rel=1e-12
    )


def test_rejects_unresolved_inner_sphere():
    with pytest.raises(ResolutionError, match="fewer than 8"):
        generate_mesh(FamilyDescriptor("annulus-flat", h=0.5, n=2, eps=0.1, delta=2.0))


def test_descriptor_validation():
    with pytest.raises(UsageError):
        FamilyDescriptor("annulus-flat", h=0.1, n=2, eps=2.0, delta=1.0)
    with pytest.raises(UsageError):
        FamilyDescriptor("ball-flat", h=-0.1, n=2, delta=1.0)
    with pytest.raises(UsageError):
        FamilyDescriptor("no-such-family", h=0.1)
    with pytest.raises(UsageError):
        FamilyDescriptor("revolution-closure", h=0.1, n=3, eps=0.5, delta=2.0)
    with pytest.raises(UsageError):
        FamilyDescriptor("ball-flat", h=0.1, n=4, delta=1.0)


def test_ball_3d_and_shell_3d_volumes():
    ball = FamilyDescriptor("ball-flat", h=0.25, n=3, delta=1.0)
    mesh = generate_mesh(ball)
    exact, exact_sigma = exact_volumes(ball)
    assert mesh.volume() == pytest.approx(exact, rel=0.05)
    assert mesh.steklov_volume() == pytest.approx(exact_sigma, rel=0.05)

    shell = FamilyDescriptor("annulus-flat", h=0.3, n=3, eps=1.0, delta=2.0)
    mesh = generate_mesh(shell)
    exact, exact_sigma = exact_volumes(shell)
    assert mesh.volume() == pytest.approx(exact, rel=0.08)
    assert mesh.steklov_volume() == pytest.approx(exact_sigma, rel=0.08)
    assert mesh.boundary_components() == 2


def test_sphere_3d_mesh_closed():
    desc = FamilyDescriptor("sphere-boundary", h=0.2, n=3, eps=1.0)
    mesh = generate_mesh(desc)
    assert len(mesh.boundary_faces) == 0
    assert mesh.volume() == pytest.approx(4 * math.pi, rel=0.03)


def test_all_meshes_validate(torus_mesh, product_mesh, revolution_mesh):
    for mesh in (torus_mesh, product_mesh, revolution_mesh):
        mesh.validate()


@pytest.mark.parametrize("eps,delta", [(0.3, 1.5), (0.5, 2.0), (0.8, 3.0)])
def test_revolution_closure_boundary_component_family(eps, delta):
    mesh = generate_mesh(
        FamilyDescriptor("revolution-closure", h=0.2, n=2, eps=eps, delta=delta)
    )
    assert mesh.boundary_components() == 1


@pytest.mark.parametrize(
    "message, raised",
    [
        ("QH6080 qhull error (qh_memalloc): insufficient memory to allocate 65536 bytes",
         MemoryError),
        ("qhull: did not free 3151472 bytes (1 pieces)", MemoryError),
        ("QH6154 Qhull precision error: Initial simplex is flat", NumericalError),
    ],
    ids=["insufficient-memory", "did-not-free", "precision"],
)
def test_qhull_allocation_failure_is_a_memory_error(monkeypatch, message, raised):
    def failing_delaunay(points):
        raise QhullError(message)

    monkeypatch.setattr(families, "Delaunay", failing_delaunay)
    with pytest.raises(raised, match=re.escape(message.split(":")[0])):
        generate_mesh(FamilyDescriptor("ball-flat", h=0.3, n=2, delta=1.0))
