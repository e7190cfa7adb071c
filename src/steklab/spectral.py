"""Piecewise-linear finite elements for Steklov eigenvalue problems.

The weak problem is driven by two sparse symmetric forms on mesh vertices:
the stiffness K (Dirichlet energy, with per-simplex gradients taken in each
simplex's own tangent plane inside R^m) and the boundary mass B supported on
Steklov-tagged faces.  The eigenvalues are those of (S, B_GG), with S the
Schur complement of K onto the Steklov vertices G (a discrete
Dirichlet-to-Neumann operator), but S is never formed: B vanishes off G, so
the G-block of (K - sigma_s B)^{-1} is (S - sigma_s B_GG)^{-1}, and one sparse
LU of K - sigma_s B at the negative shift sigma_s = -|Sigma|/|M| serves the
whole solve.  That matrix is SPD, so SuperLU factors it in symmetric mode
(X. S. Li, ACM TOMS 31 (2005)): a minimum-degree ordering of A + A^T and
pivots on the diagonal, which fills about a quarter less than its default
column ordering.  A few eigenpairs come from shift-invert Lanczos (Ericsson &
Ruhe, Math. Comp. 1980; ARPACK mode 3), a quarter of the boundary spectrum or
more from a dense eigensolve of that inverted block, which is solved for in
column blocks that keep only the boundary rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu
from scipy.sparse.linalg import norm as spnorm

from .errors import SIZE_BUDGET, NumericalError, UsageError, check
from .mesh import NEUMANN, STEKLOV, EmbeddedMesh, read_only, simplex_grams

KIND_STEKLOV = "steklov"
KIND_STEKLOV_NEUMANN = "steklov-neumann"
DENSE_BLOCK = 128  # right-hand sides per blocked sparse solve: G-block and extensions


@dataclass
class SpectralProblem:
    """The eigenproblem the mesh's face tags pose: steklov-neumann when any face
    is neumann, else steklov.  A kind given explicitly must be that kind."""

    mesh: EmbeddedMesh
    kind: str | None = None
    k_max: int = 1
    tolerance: float = 1e-8

    def __post_init__(self):
        tags = set(self.mesh.face_tags)
        posed = KIND_STEKLOV_NEUMANN if NEUMANN in tags else KIND_STEKLOV
        check("k_max", self.k_max, 1, integer=True)
        check("tolerance", self.tolerance, 0, strict=True)
        if self.kind not in (None, posed):
            raise UsageError(f"kind {self.kind!r} does not match the face tags, "
                             f"which pose {posed!r}")
        self.kind = posed
        if STEKLOV not in tags:
            raise UsageError("no steklov faces on the mesh")


@dataclass
class SpectralResult:
    """Nondecreasing eigenvalues with per-pair residuals and diagnostics."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    dof_interior: int
    dof_boundary: int
    boundary_vertices: np.ndarray
    eigenvectors_boundary: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residuals": [float(v) for v in self.residuals],
            "dof_interior": self.dof_interior,
            "dof_boundary": self.dof_boundary,
            "metadata": self.metadata,
        }


def _shape_derivatives(n: int) -> np.ndarray:
    """Barycentric shape-function derivatives in simplex coordinates, (n, n+1)."""
    mat = np.zeros((n, n + 1))
    mat[:, 0] = -1.0
    mat[:, 1:] = np.eye(n)
    return mat


def assemble_operators(mesh: EmbeddedMesh) -> tuple[csr_matrix, csr_matrix]:
    """Stiffness and Steklov boundary mass on all mesh vertices, assembled once per mesh.

    K is PSD with the constants in its kernel on a connected mesh; B is PSD
    and supported exactly on the Steklov-boundary vertices.  Every caller
    shares the one pair, so its arrays are read-only.
    """
    return mesh.cached("operators", _assemble)


def _sum_local(local: np.ndarray, simplices: np.ndarray, size: int) -> csr_matrix:
    """The size x size CSR sum of the local matrices local[c] on the vertices simplices[c].

    The row and column arrays are written in place in the index dtype scipy
    uses, int32 below 2^31 vertices, so the COO matrix takes them uncopied.
    """
    index = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(local.shape, dtype=index)
    cols = np.empty(local.shape, dtype=index)
    rows[...] = simplices[:, :, None]
    cols[...] = simplices[:, None, :]
    return coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size)).tocsr()


def _assemble(mesh: EmbeddedMesh) -> tuple[csr_matrix, csr_matrix]:
    n = mesh.intrinsic_dim
    nv = mesh.n_vertices
    ginv = np.linalg.inv(simplex_grams(mesh.vertices, mesh.cells)[0])  # nondegenerate cells
    shape = _shape_derivatives(n)
    # K_c[i, j] = sum_ab S[a, i] ginv_c[a, b] S[b, j] through the fixed table of
    # S[a, i] S[b, j]: every product is +-ginv or 0 and the sum runs over (a, b)
    # in the order einsum("ai,cab,bj->cij") takes, so K is bit for bit that form
    table = np.einsum("ai,bj->abij", shape, shape).reshape(n * n, (n + 1) ** 2)
    kloc = np.einsum("cq,qp->cp", ginv.reshape(-1, n * n), table).reshape(-1, n + 1, n + 1)
    del ginv  # before the sparse conversion copies the entries
    kloc *= mesh.cell_volumes()[:, None, None]
    stiffness = _sum_local(kloc, mesh.cells, nv)

    faces = mesh.steklov_faces()
    d = n - 1
    fvols = mesh.face_volumes()[mesh.steklov_mask()]
    template = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    mass = _sum_local(fvols[:, None, None] * template[None, :, :], faces, nv)
    for matrix in (stiffness, mass):
        for array in (matrix.data, matrix.indices, matrix.indptr):
            read_only(array)
    return stiffness, mass


def solve_steklov(problem: SpectralProblem) -> SpectralResult:
    """k_max+1 smallest Steklov eigenvalues from one LU of A = K - sigma_s B.

    A is SPD on a connected mesh because B does not vanish on constants, so
    it is factored in SuperLU's symmetric mode.  Requests with
    k_max+1 < n_G // 4 run shift-invert Lanczos from a fixed start vector;
    larger ones invert the G-block of A^{-1} densely, solving for it
    DENSE_BLOCK columns at a time, and exit 2 when n_G^2 exceeds SIZE_BUDGET.
    Each eigenvector is the trace of u = A^{-1} E_G (sigma - sigma_s) B_GG x,
    the discrete harmonic extension of its trace, so S x = [K u]_G exactly.
    sigma_0 = 0 (constants) is reported, not deflated.  Residuals are the
    backward errors |(K - sigma B) u| / ((|K|_1 + sigma |B|_1) |u|) of the
    sparse pencil, meaningful at sigma_0 too, where |K u| vanishes.  Both
    branches form the extensions and residuals DENSE_BLOCK columns at a time.
    """
    mesh = problem.mesh
    stiffness, mass = assemble_operators(mesh)
    if not mesh.is_connected():
        raise NumericalError("mesh is disconnected; the shifted stiffness is singular")
    gamma = mesh.steklov_vertices()
    n_gamma = len(gamma)
    if n_gamma <= problem.k_max:
        raise UsageError(
            f"k_max = {problem.k_max} requires more than {n_gamma} Steklov vertices"
        )
    shift = -float(mass.sum()) / mesh.volume()
    try:
        lu = splu(
            (stiffness - shift * mass).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"shifted stiffness factorization failed: {exc}") from exc

    def solve_from_gamma(rhs):
        """A^{-1} E_G rhs for a vector or a block of columns."""
        full = np.zeros((mesh.n_vertices,) + rhs.shape[1:])
        full[gamma] = rhs
        return lu.solve(full)

    bmat = mass[gamma][:, gamma]
    want = problem.k_max + 1
    try:
        if want < n_gamma // 4:  # Lanczos
            op = LinearOperator(
                (n_gamma, n_gamma), matvec=lambda y: solve_from_gamma(y)[gamma], dtype=float
            )
            # a fixed start keeps results reproducible; not the constants, which
            # span an eigenspace.  Mode 3 uses A (here bmat) only for its shape.
            v0 = np.random.default_rng(0).standard_normal(n_gamma)
            vals, vecs = eigsh(bmat, k=want, M=bmat, sigma=shift, OPinv=op, tol=0, v0=v0)
        else:
            check("the dense branch's (Steklov vertices)^2", n_gamma**2, high=SIZE_BUDGET)
            a_inv = np.empty((n_gamma, n_gamma))  # the G-block of A^{-1}
            for start in range(0, n_gamma, DENSE_BLOCK):
                # columns start .. start + DENSE_BLOCK of the n_G x n_G identity
                unit = np.eye(n_gamma, min(DENSE_BLOCK, n_gamma - start), -start)
                a_inv[:, start : start + DENSE_BLOCK] = solve_from_gamma(unit)[gamma]
            shifted = np.linalg.inv(a_inv)
            del a_inv  # and the eigensolve overwrites its two temporaries
            vals, vecs = scipy.linalg.eigh(
                shifted, bmat.toarray(), overwrite_a=True, overwrite_b=True
            )
            vals, vecs = vals[:want] + shift, vecs[:, :want]
    except (ArpackError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"boundary eigensolve failed: {exc}") from exc

    scale = float(np.abs(vals).max()) if len(vals) else 1.0
    if vals[0] < -problem.tolerance * max(scale, 1.0):
        raise NumericalError(f"leading eigenvalue {vals[0]} is significantly negative")
    vals = np.maximum(vals, 0.0)

    k_norm, b_norm = spnorm(stiffness, 1), spnorm(mass, 1)
    residuals = np.empty(want)
    traces = np.empty((n_gamma, want))
    for start in range(0, want, DENSE_BLOCK):
        cols = slice(start, start + DENSE_BLOCK)
        extensions = solve_from_gamma((bmat @ vecs[:, cols]) * (vals[cols] - shift))
        misfit = stiffness @ extensions - (mass @ extensions) * vals[cols]
        residuals[cols] = np.linalg.norm(misfit, axis=0) / (
            (k_norm + vals[cols] * b_norm) * np.linalg.norm(extensions, axis=0)
        )
        traces[:, cols] = extensions[gamma]
    if residuals.max() > problem.tolerance:
        raise NumericalError(
            f"eigenpair residual {residuals.max():.3e} exceeds tolerance {problem.tolerance}"
        )
    return SpectralResult(
        eigenvalues=vals,
        residuals=residuals,
        dof_interior=int(mesh.n_vertices - n_gamma),
        dof_boundary=int(n_gamma),
        boundary_vertices=gamma,
        eigenvectors_boundary=traces,
        metadata={"kind": problem.kind, "n_vertices": mesh.n_vertices},
    )


def rayleigh_from_operators(stiffness, mass, values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    den = float(v @ (mass @ v))
    num = float(v @ (stiffness @ v))
    if den <= 0.0 or den < 1e-30 * max(num, 1.0):
        raise UsageError("test function vanishes on the Steklov boundary")
    return num / den


def rayleigh_quotient(mesh: EmbeddedMesh, values: np.ndarray) -> float:
    """Dirichlet energy over Steklov boundary L2 norm of a vertex vector."""
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_vertices,):
        raise UsageError("vertex value vector has the wrong length")
    stiffness, mass = assemble_operators(mesh)
    return rayleigh_from_operators(stiffness, mass, v)


def cell_gradient_norms(mesh: EmbeddedMesh, values: np.ndarray) -> np.ndarray:
    """Per-cell Euclidean norm of the piecewise gradient of a vertex vector.

    Only the cells where the vector does not vanish are measured; the
    gradient on the others is 0.
    """
    v = np.asarray(values, dtype=float)[mesh.cells]
    live = np.flatnonzero(v.any(axis=1))
    gram, _ = simplex_grams(mesh.vertices, mesh.cells[live])
    dv = np.einsum("ai,ci->ca", _shape_derivatives(mesh.intrinsic_dim), v[live])
    sq = np.einsum("ca,cab,cb->c", dv, np.linalg.inv(gram), dv)
    out = np.zeros(len(v))
    out[live] = np.sqrt(np.maximum(sq, 0.0))
    return out
