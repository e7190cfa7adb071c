"""Explicit eigenvalue bounds, their constants, and the experiment drivers.

Two families of upper bounds for Steklov eigenvalues of an n-dimensional
submanifold M of R^m with boundary Sigma are evaluated exactly as displayed
in their derivations:

  volume bound        sigma_k <= Cv * i(Sigma)^(2/(n-1)) |M|
                                 / |Sigma|^((n+1)/(n-1)) * k^(2/(n-1))
  injectivity bound   sigma_k <= Ai * i(M)/r0
                                 + Bi * i(M) (i(Sigma) k / |Sigma|)^(1/(n-1))

with Cv = 4 * 4^(3/(n-1)) C^((n+3)/(n-1)) |S^(n-1)|^(2/(n-1)),
Bi = 4 * 2^(3/(n-1)) T C^((n+1)/(n-1)) |S^(n-1)|^(1/(n-1)) and
Ai = 4^(n/(n-1)) T C, where C is the ambient covering constant (32^m, or an
empirical surrogate), T = Cn / D with Cn = 2^(n-1) |S^n| the doubled-ball
concentration coefficient and D the small-ball volume floor of the boundary.
The isoperimetric form restates the volume bound through
I(M) = |Sigma| / |M|^((n-1)/n).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .closed_forms import (
    annulus_sn_eigenvalue,
    blowup_constant,
    circle_mode_eigenvalue,
    cylinder_steklov_spectrum,
    expand_multiplicities,
    separated_mode_sn_eigenvalue,
    sphere_laplace_spectrum,
    sphere_mode_eigenvalue,
)
from .errors import SIZE_BUDGET, NumericalError, UsageError, check
from .euclidean import unit_ball_volume, unit_sphere_area

COMPARISON_TOLERANCE = 1e-9  # relative slack of evaluate_bounds' sigma_k comparisons
OBSTRUCTION_FIT_TOLERANCE = 0.05  # how far the fitted exponent may fall short


@dataclass(frozen=True)
class BoundConstants:
    n: int
    m: int
    covering: float
    sphere_area: float
    concentration: float
    d_ball: float
    tube_coeff: float
    volume_coeff: float
    tail_coeff: float
    injectivity_coeff: float

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "covering_constant": self.covering,
            "unit_sphere_area_n_minus_1": self.sphere_area,
            "doubled_ball_coeff": self.concentration,
            "d_ball": self.d_ball,
            "tube_coeff": self.tube_coeff,
            "volume_bound_coeff": self.volume_coeff,
            "index_tail_coeff": self.tail_coeff,
            "injectivity_coeff": self.injectivity_coeff,
        }


def literal_covering_constant(ambient_dim: int) -> float:
    """The admissible ambient covering constant 32^m for R^m.

    A double, so any m >= 205 raises OverflowError at once.
    """
    return 32.0**ambient_dim


def constants(
    n: int, m: int, covering: Optional[float] = None, d_ball: float = 1.0
) -> BoundConstants:
    """All bound constants for dimensions (n, m).

    `covering` is the covering constant C, 32^m when None; `d_ball` is the
    small-ball volume floor D of the boundary, which has no explicit value,
    so it defaults to 1 and is always reported.
    """
    check("n", n, 2, integer=True)
    check("m", m, n, integer=True)
    check("d_ball", d_ball, 0, strict=True)
    covering = literal_covering_constant(m) if covering is None else float(covering)
    sphere = unit_sphere_area(n - 1)
    concentration = 2.0 ** (n - 1) * unit_sphere_area(n)
    tube = concentration / d_ball
    e = n - 1
    volume_coeff = 4.0 * 4.0 ** (3.0 / e) * covering ** ((n + 3.0) / e) * sphere ** (2.0 / e)
    tail_coeff = 4.0 * 2.0 ** (3.0 / e) * tube * covering ** ((n + 1.0) / e) * sphere ** (1.0 / e)
    injectivity_coeff = 4.0 ** (n / e) * tube * covering
    return BoundConstants(
        n=n,
        m=m,
        covering=covering,
        sphere_area=sphere,
        concentration=concentration,
        d_ball=d_ball,
        tube_coeff=tube,
        volume_coeff=volume_coeff,
        tail_coeff=tail_coeff,
        injectivity_coeff=injectivity_coeff,
    )


@dataclass(frozen=True)
class BoundInputs:
    """Geometric inputs shared by the bound evaluators."""

    n: int
    m: int
    volume_m: float
    volume_sigma: float
    i_m: int
    i_sigma: int
    k: int
    r_0: Optional[float] = None
    covering: Optional[float] = None
    d_ball: float = 1.0

    def __post_init__(self):
        check("n", self.n, 2, integer=True)
        check("m", self.m, self.n, integer=True)
        for name in ("i_m", "i_sigma", "k"):
            check(name, getattr(self, name), 1, integer=True)
        for name in ("volume_m", "volume_sigma", "r_0", "covering", "d_ball"):
            if getattr(self, name) is not None:
                check(name, getattr(self, name), 0, strict=True)

    def constants(self) -> BoundConstants:
        return constants(self.n, self.m, self.covering, self.d_ball)


def volume_bound(inputs: BoundInputs) -> float:
    """Right-hand side of the volume-form bound at the given k."""
    c = inputs.constants()
    e = inputs.n - 1
    return (
        c.volume_coeff
        * inputs.i_sigma ** (2.0 / e)
        * inputs.volume_m
        / inputs.volume_sigma ** ((inputs.n + 1.0) / e)
        * inputs.k ** (2.0 / e)
    )


def injectivity_bound(inputs: BoundInputs) -> tuple[float, float]:
    """(right-hand side, threshold k0) of the injectivity-radius bound.

    k0 = |Sigma| / (2 C^2 |S^(n-1)| i(Sigma) r0^(n-1)) marks where the
    derivation switches branches; below it the first term dominates.
    """
    if inputs.r_0 is None:
        raise UsageError("the injectivity-radius bound needs r_0")
    c = inputs.constants()
    e = inputs.n - 1
    rhs = c.injectivity_coeff * inputs.i_m / inputs.r_0 + c.tail_coeff * inputs.i_m * (
        inputs.i_sigma * inputs.k / inputs.volume_sigma
    ) ** (1.0 / e)
    k0 = inputs.volume_sigma / (
        2.0 * c.covering**2 * c.sphere_area * inputs.i_sigma * inputs.r_0**e
    )
    return rhs, k0


def isoperimetric_bound(inputs: BoundInputs) -> tuple[float, float]:
    """(|Sigma|^(1/(n-1)), rhs) of the isoperimetric form of the volume bound.

    The inequality sigma_k |Sigma|^(1/(n-1)) <= rhs is an algebraic
    rewriting of the volume bound through I(M) = |Sigma|/|M|^((n-1)/n).
    """
    c = inputs.constants()
    n = inputs.n
    e = n - 1
    iso = inputs.volume_sigma / inputs.volume_m ** (e / n)
    lhs_factor = inputs.volume_sigma ** (1.0 / e)
    rhs = (
        c.volume_coeff
        * inputs.i_sigma ** (2.0 / e)
        / iso ** (n / e)
        * inputs.k ** (2.0 / e)
    )
    return lhs_factor, rhs


@dataclass
class BoundReport:
    inputs: BoundInputs
    constants_used: BoundConstants
    volume_bound_rhs: float
    injectivity_bound_rhs: Optional[float]
    k_threshold: Optional[float]
    isoperimetric_lhs_factor: float
    isoperimetric_rhs: float
    computed_sigma_k: Optional[float]
    satisfied: dict

    def to_payload(self) -> dict:
        return {
            "inputs": {
                "n": self.inputs.n,
                "m": self.inputs.m,
                "volume_m": self.inputs.volume_m,
                "volume_sigma": self.inputs.volume_sigma,
                "i_m": self.inputs.i_m,
                "i_sigma": self.inputs.i_sigma,
                "k": self.inputs.k,
                "r_0": self.inputs.r_0,
            },
            "constants": self.constants_used.to_payload(),
            "volume_bound_rhs": self.volume_bound_rhs,
            "injectivity_bound_rhs": self.injectivity_bound_rhs,
            "k_threshold": self.k_threshold,
            "isoperimetric_lhs_factor": self.isoperimetric_lhs_factor,
            "isoperimetric_rhs": self.isoperimetric_rhs,
            "computed_sigma_k": self.computed_sigma_k,
            "satisfied": self.satisfied,
        }


def evaluate_bounds(inputs: BoundInputs, sigma_k: Optional[float] = None) -> BoundReport:
    """Evaluate every applicable bound; compare against sigma_k when given.

    A comparison holds when sigma_k exceeds its bound by at most
    COMPARISON_TOLERANCE (1 + |sigma_k|).

    NumericalError, naming the bound, when one is not representable in double
    precision.
    """
    if sigma_k is not None:
        check("sigma_k", sigma_k)

    def evaluate(name, bound):
        try:
            return bound(inputs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NumericalError(f"the {name} bound overflows double precision") from exc

    vol_rhs = evaluate("volume", volume_bound)
    inj_rhs = k0 = None
    if inputs.r_0 is not None:
        inj_rhs, k0 = evaluate("injectivity", injectivity_bound)
    lhs_factor, iso_rhs = evaluate("isoperimetric", isoperimetric_bound)
    satisfied = {}
    if sigma_k is not None:
        slack = COMPARISON_TOLERANCE * (1.0 + abs(sigma_k))
        satisfied["volume"] = bool(sigma_k <= vol_rhs + slack)
        satisfied["isoperimetric"] = bool(sigma_k * lhs_factor <= iso_rhs + slack)
        if inj_rhs is not None:
            satisfied["injectivity"] = bool(sigma_k <= inj_rhs + slack)
    return BoundReport(
        inputs=inputs,
        constants_used=inputs.constants(),
        volume_bound_rhs=vol_rhs,
        injectivity_bound_rhs=inj_rhs,
        k_threshold=k0,
        isoperimetric_lhs_factor=lhs_factor,
        isoperimetric_rhs=iso_rhs,
        computed_sigma_k=sigma_k,
        satisfied=satisfied,
    )


# ---------------------------------------------------------------------------
# asymptotics fit


@dataclass(frozen=True)
class AsymptoticsFit:
    exponent: float
    coefficient: float
    reference_exponent: float
    reference_coefficient: float
    k_lo: int
    k_hi: int

    def to_payload(self) -> dict:
        return {
            "fitted_exponent": self.exponent,
            "fitted_coefficient": self.coefficient,
            "reference_exponent": self.reference_exponent,
            "reference_coefficient": self.reference_coefficient,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
        }


def fit_asymptotics(
    eigenvalues: Sequence[float],
    n: int,
    volume_sigma: float,
    k_lo: int = 20,
    k_hi: Optional[int] = None,
) -> AsymptoticsFit:
    """Log-log least-squares fit of sigma_k ~ a k^e over k in [k_lo, k_hi].

    The reference is the eigenvalue growth law
    sigma_k ~ 2 pi (k / (omega_(n-1) |Sigma|))^(1/(n-1)): exponent 1/(n-1)
    and coefficient 2 pi / (omega_(n-1) |Sigma|)^(1/(n-1)).
    """
    values = np.asarray(eigenvalues, dtype=float)
    if k_hi is None:
        k_hi = len(values) - 1
    check("k_lo", k_lo, 5, integer=True)  # small k are dominated by the O(1) term
    check("k_hi", k_hi, k_lo + 1, len(values) - 1, integer=True)
    ks = np.arange(k_lo, k_hi + 1)
    sig = values[k_lo : k_hi + 1]
    if not np.all(sig > 0):
        raise UsageError("nonpositive or NaN eigenvalues inside the fit window")
    slope, intercept = np.polyfit(np.log(ks), np.log(sig), 1)
    e = n - 1
    ref_coeff = 2.0 * math.pi / (unit_ball_volume(n - 1) * volume_sigma) ** (1.0 / e)
    return AsymptoticsFit(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        reference_exponent=1.0 / e,
        reference_coefficient=ref_coeff,
        k_lo=int(k_lo),
        k_hi=int(k_hi),
    )


# ---------------------------------------------------------------------------
# experiment drivers


@dataclass(frozen=True)
class BlowupRow:
    eps: float
    delta: float
    circle_radius: float
    mode_min: float
    argmin_mode: tuple
    reference: float
    satisfied: bool
    annulus_mode1: float
    annulus_mode1_floor: float

    def to_payload(self) -> dict:
        return {**asdict(self), "argmin_mode": list(self.argmin_mode)}


def blowup_experiment(
    n: int,
    epsilons: Sequence[float],
    max_sphere_degree: int = 12,
    max_circle_mode: int = 12,
    resolution: int = 1024,
) -> list[BlowupRow]:
    """Per-mode eigenvalue floor of the thin-boundary product family.

    For each eps: delta = 2/eps, R = eps^(1-n)/(2 pi n omega_n) (unit
    boundary volume), and the separated modes (sphere degree a, circle mode
    b) != (0, 0) are swept.  The per-mode value is nondecreasing in both
    mode eigenvalues, so sweeping degrees up to max_sphere_degree + 1 and
    circle modes up to max_circle_mode + 1 certifies the tail: every
    unswept mode dominates a swept boundary mode.  The row records the
    minimum, the reference floor C/eps, and the closed-form degree-1 radial
    value with its explicit lower bound (n-1)(2^n - 1)/((n-1+2^n) eps).
    """
    chat = blowup_constant(n)
    check("max_sphere_degree", max_sphere_degree, 0, integer=True)
    check("max_circle_mode", max_circle_mode, 0, integer=True)
    check("the mode grid", (max_sphere_degree + 2) * (max_circle_mode + 2), high=SIZE_BUDGET)
    omega = unit_ball_volume(n)
    rows = []
    for eps in epsilons:
        check("each eps", eps, 0, 1, strict=True)
        delta = 2.0 / eps
        circle_r = eps ** (1 - n) / (2.0 * math.pi * n * omega)
        best = math.inf
        argmin = (-1, -1)
        for a in range(max_sphere_degree + 2):
            mu = sphere_mode_eigenvalue(n, a)
            for b in range(max_circle_mode + 2):
                if a == 0 and b == 0:
                    continue
                lam = circle_mode_eigenvalue(circle_r, b)
                value = separated_mode_sn_eigenvalue(
                    n, eps, delta, mu, lam, resolution=resolution
                )
                if value < best:
                    best = value
                    argmin = (a, b)
        reference = chat / eps
        mode1 = annulus_sn_eigenvalue(n, eps, delta, 1)
        floor = (n - 1) * (2**n - 1) / ((n - 1 + 2**n) * eps)
        rows.append(
            BlowupRow(
                eps=eps,
                delta=delta,
                circle_radius=circle_r,
                mode_min=best,
                argmin_mode=argmin,
                reference=reference,
                satisfied=bool(best >= reference),
                annulus_mode1=mode1,
                annulus_mode1_floor=floor,
            )
        )
    return rows


@dataclass(frozen=True)
class ObstructionRow:
    k: int
    length: float
    sigma_2k: float
    volume_m: float
    value: float


@dataclass
class ObstructionResult:
    beta: float
    rows: list
    fitted_exponent: float
    required_exponent: float
    consistent: bool

    def to_payload(self) -> dict:
        return asdict(self)  # asdict converts the rows too


def obstruction_experiment(
    n: int,
    beta: float,
    k_values: Sequence[int],
) -> ObstructionResult:
    """Growth-rate obstruction for volume-weighted eigenvalue bounds.

    On the cylinder over the unit sphere S^(n-1), set L = 1/sqrt(lambda_k)
    with lambda_k the degree-k Laplace eigenvalue; the 2k-th Steklov
    eigenvalue then grows like sqrt(lambda_k), so any bound of the shape
    const * |M|^beta * k^alpha forces alpha >= (1 + beta)/(n - 1).  The
    experiment evaluates sigma_2k exactly, fits the empirical exponent of
    sigma_2k |M|^(-beta) in k, and checks it against (1 + beta)/(n - 1).
    """
    check("n", n, 2, integer=True)
    check("beta", beta, 0)
    if k_values:  # the last k first, so that a long range fails before it is expanded
        check("each k", k_values[-1], 1, SIZE_BUDGET, integer=True)
    # each k expands the sphere spectrum of degrees <= D = k + 6, whose
    # multiplicities sum to C(D+n-1, n-1) + C(D+n-2, n-1); the sum over the
    # ks is checked as they are read, so a long range fails after a few thousand
    ks, total = set(), 0
    for k in k_values:
        k = int(check("each k", k, 1, SIZE_BUDGET, integer=True))
        if k not in ks:
            ks.add(k)
            total += math.comb(k + n + 5, n - 1) + math.comb(k + n + 4, n - 1)
            check("the obstruction's multiplicity total", total, high=SIZE_BUDGET)
    if len(ks) < 2:
        raise UsageError("the obstruction fit needs at least two distinct k")
    ks = sorted(ks)
    cross_section = unit_sphere_area(n - 1)
    rows = []
    for k in ks:
        length = 1.0 / math.sqrt(sphere_mode_eigenvalue(n, k))
        lams = expand_multiplicities(sphere_laplace_spectrum(n, 1.0, k + 6))
        spectrum = cylinder_steklov_spectrum(lams, length, 2 * k + 1)
        sigma = spectrum[2 * k]
        vol_m = cross_section * length
        rows.append(
            ObstructionRow(
                k=k,
                length=length,
                sigma_2k=sigma,
                volume_m=vol_m,
                value=sigma * vol_m ** (-beta),
            )
        )
    logs = np.log([r.value for r in rows])
    slope, _ = np.polyfit(np.log(ks), logs, 1)
    required = (1.0 + beta) / (n - 1)
    return ObstructionResult(
        beta=beta,
        rows=rows,
        fitted_exponent=float(slope),
        required_exponent=required,
        consistent=bool(slope >= required - OBSTRUCTION_FIT_TOLERANCE),
    )
