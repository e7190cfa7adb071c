"""Closed-form and 1D-reduced reference spectra.

These are the ground-truth values the finite element solver is tested
against: mixed Steklov-Neumann modes of round annuli, the Steklov spectrum
of product cylinders, Laplace spectra of round spheres, the Steklov spectrum
of round disks, and a radial solver for the separated modes of
A(eps, delta) x S^1_R.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solveh_banded

from .errors import SIZE_BUDGET, NumericalError, TruncationError, UsageError, check
from .euclidean import unit_ball_volume

# 4-point Gauss-Legendre rule on [0, 1]
_GAUSS_X = (np.array([-0.8611363115940526, -0.3399810435848563,
                      0.3399810435848563, 0.8611363115940526]) + 1.0) / 2.0
_GAUSS_W = np.array([0.3478548451374538, 0.6521451548625461,
                     0.6521451548625461, 0.3478548451374538]) / 2.0


def annulus_sn_eigenvalue(n: int, eps: float, delta: float, mode: int) -> float:
    """First radial eigenvalue of the mixed problem on A(eps, delta) at a
    fixed spherical-harmonic degree `mode`.

    Neumann condition on the outer sphere, Steklov on the inner one.  The
    harmonic ansatz a*rho^k + b*rho^(2-n-k) gives, for k >= 1,

        sigma(k) = (-k eps^(k-1) + k delta^(2k-2+n) eps^(-k+1-n))
                   / (eps^k + (k/(k-2+n)) delta^(2k-2+n) eps^(-k+2-n))

    and sigma(0) = 0 (constants).
    """
    check("n", n, 2, integer=True)
    check("delta", delta, 0, strict=True)
    check("eps", eps, 0, delta, strict=True)
    check("mode", mode, 0, integer=True)
    if mode == 0:
        return 0.0
    k = mode
    grow = delta ** (2 * k - 2 + n)
    num = -k * eps ** (k - 1) + k * grow * eps ** (-k + 1 - n)
    den = eps**k + (k / (k - 2 + n)) * grow * eps ** (-k + 2 - n)
    return num / den


def sphere_laplace_spectrum(n: int, radius: float, max_degree: int) -> list[tuple[float, int]]:
    """Laplace eigenvalues k(k+n-2)/radius^2 of the round sphere S^(n-1).

    Returns (eigenvalue, multiplicity) pairs for degrees 0..max_degree.  For
    n = 2 the sphere is a circle: eigenvalues k^2/radius^2, multiplicity two
    for k >= 1.
    """
    check("n", n, 2, integer=True)
    check("radius", radius, 0, strict=True)
    check("max_degree", max_degree, 0, SIZE_BUDGET, integer=True)
    d = n - 1  # the sphere is d-dimensional
    out = []
    for k in range(max_degree + 1):
        value = sphere_mode_eigenvalue(n, k) / radius**2
        # the degree-k harmonic polynomials in d + 1 variables, exactly
        mult = math.comb(k + d, d) - math.comb(max(k + d - 2, 0), d)
        out.append((value, mult))
    return out


def expand_multiplicities(pairs) -> list[float]:
    pairs = list(pairs)
    check("the multiplicity total", sum(mult for _, mult in pairs), high=SIZE_BUDGET, integer=True)
    return [value for value, mult in pairs for _ in range(mult)]


def cylinder_steklov_spectrum(lambdas, length: float, count: int) -> list[float]:
    """First `count` Steklov eigenvalues of Sigma x [0, L].

    `lambdas` is the nondecreasing initial segment of the Laplace spectrum of
    the cross-section Sigma, with multiplicity, starting at 0.  The Steklov
    spectrum is the multiset {0, 2/L} together with
    sqrt(l) tanh(sqrt(l) L / 2) and sqrt(l) coth(sqrt(l) L / 2) for each
    positive Laplace eigenvalue l.  Raises TruncationError when the supplied
    lambdas cannot certify the requested prefix complete.
    """
    lam = [float(check("each Laplace eigenvalue", v, 0)) for v in lambdas]
    check("count", count, 1, SIZE_BUDGET, integer=True)
    check("length", length, 0, strict=True)
    if not lam or lam[0] != 0.0:
        raise UsageError("the Laplace spectrum must start at 0")
    if any(b < a for a, b in zip(lam, lam[1:])):
        raise UsageError("Laplace eigenvalues must be nondecreasing")

    values = [0.0, 2.0 / length]
    for v in lam:
        if v <= 0.0:
            continue
        root = math.sqrt(v)
        half = root * length / 2.0
        values.append(root * math.tanh(half))
        values.append(root / math.tanh(half))
    values.sort()
    if count > len(values):
        raise TruncationError("not enough Laplace eigenvalues for the requested count")
    # any omitted Laplace eigenvalue exceeds lam[-1], so its branch values
    # are at least the tanh value at lam[-1]; the prefix is certified when
    # that floor does not undercut the current count-th value
    if lam[-1] <= 0.0:
        raise TruncationError("truncation not certified: no positive eigenvalues supplied")
    root = math.sqrt(lam[-1])
    floor = root * math.tanh(root * length / 2.0)
    if floor < values[count - 1]:
        raise TruncationError(
            "truncation not certified: supply more Laplace eigenvalues"
        )
    return values[:count]


def disk_steklov_spectrum(radius: float, count: int) -> list[float]:
    """Steklov spectrum of the round disk: 0, then k/radius twice for k >= 1."""
    check("radius", radius, 0, strict=True)
    check("count", count, 1, SIZE_BUDGET, integer=True)
    values = [0.0]
    k = 1
    while len(values) < count:
        values.extend([k / radius, k / radius])
        k += 1
    return values[:count]


def blowup_constant(n: int) -> float:
    """Coefficient C with sigma_1 >= C/eps for the thin-boundary product family.

    C = min(1/4, (2^(n-2)-1)(n-1)/(4(n-2)), n pi^2 omega_n^2 (2^n - 1)/4,
            (n-1)(2^n - 1)/(n-1+2^n)), where omega_n is the unit-ball volume.
    """
    check("n", n, 3, SIZE_BUDGET, integer=True)  # the blow-up family needs n >= 3
    omega = unit_ball_volume(n)
    terms = (
        0.25,
        (2 ** (n - 2) - 1) * (n - 1) / (4.0 * (n - 2)),
        n * math.pi**2 * omega**2 * (2**n - 1) / 4.0,
        (n - 1) * (2**n - 1) / (n - 1 + 2**n),
    )
    return min(terms)


# ---------------------------------------------------------------------------
# separated radial modes of A(eps, delta) x S^1_R


def _radial_grid(eps: float, delta: float, intervals: int) -> np.ndarray:
    """Geometric grid on [eps, delta] clustered at eps.

    The first interval is at most min(eps/16, 0.1 * mean spacing): the
    radial eigenfunctions vary on scale eps near the Steklov end, and mild
    clustering there cuts the discretization constant by an order of
    magnitude for the higher modes.
    """
    span = delta - eps
    h0 = min(eps / 16.0, 0.1 * span / intervals)
    if h0 * intervals >= span * (1.0 - 1e-12):
        return np.linspace(eps, delta, intervals + 1)

    def total(q):
        # h0 * (q^m - 1) / (q - 1); overflow to inf is fine for bisection
        with np.errstate(over="ignore"):
            return h0 * (np.float64(q) ** intervals - 1.0) / (q - 1.0)

    lo, hi = 1.0 + 1e-15, 1.5
    while total(hi) < span:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < span:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    steps = h0 * q ** np.arange(intervals)
    nodes = eps + np.concatenate([[0.0], np.cumsum(steps)])
    nodes[-1] = delta
    return nodes


def separated_mode_sn_eigenvalue(
    n: int,
    eps: float,
    delta: float,
    mu: float,
    lam: float,
    resolution: int = 2048,
) -> float:
    """Smallest value of the radial quotient

        int_eps^delta (a'(r)^2 r^(n-1) + lam a(r)^2 r^(n-1) + mu a(r)^2 r^(n-3)) dr
        ------------------------------------------------------------------------
                                a(eps)^2 eps^(n-1)

    over radial profiles a, with the natural condition at delta.  This is the
    per-mode mixed Steklov-Neumann eigenvalue of the product family at sphere
    mode mu and circle mode lam; (mu, lam) = (0, 0) gives 0 exactly.

    Discretized with piecewise-linear elements on a geometric grid clustered
    at eps.  Because the boundary form is the rank-one evaluation at eps, the
    minimum equals 1 / (eps^(n-1) * (A^{-1})_00) with A the discrete form.
    """
    check("n", n, 2, integer=True)
    check("delta", delta, 0, strict=True)
    check("eps", eps, 0, delta, strict=True)
    check("mu", mu, 0)
    check("lam", lam, 0)
    check("resolution", resolution, 16, SIZE_BUDGET, integer=True)
    if mu == 0.0 and lam == 0.0:
        return 0.0

    nodes = _radial_grid(eps, delta, resolution)
    h = np.diff(nodes)
    # quadrature points per element, shape (m, 4)
    x = nodes[:-1, None] + h[:, None] * _GAUSS_X[None, :]
    w = h[:, None] * _GAUSS_W[None, :]
    w_grad = x ** (n - 1)
    w_mass = lam * x ** (n - 1) + mu * x ** (n - 3.0)
    phi_right = _GAUSS_X  # hat function rising over the element
    phi_left = 1.0 - _GAUSS_X

    stiff = (w * w_grad).sum(axis=1) / h**2
    m_ll = (w * w_mass * phi_left**2).sum(axis=1)
    m_rr = (w * w_mass * phi_right**2).sum(axis=1)
    m_lr = (w * w_mass * phi_left * phi_right).sum(axis=1)

    size = len(nodes)
    diag = np.zeros(size)
    off = np.zeros(size - 1)
    diag[:-1] += stiff + m_ll
    diag[1:] += stiff + m_rr
    off[:] = -stiff + m_lr

    band = np.zeros((2, size))
    band[0, 1:] = off
    band[1, :] = diag
    rhs = np.zeros(size)
    rhs[0] = 1.0
    try:
        sol = solveh_banded(band, rhs, lower=False)
    except ValueError as exc:  # non-finite entries, or a form not positive definite
        raise NumericalError(f"the radial solve failed ({exc})") from exc
    return float(1.0 / (eps ** (n - 1) * sol[0]))


def circle_mode_eigenvalue(radius: float, j: int) -> float:
    """Laplace eigenvalue j^2/R^2 of the circle of radius R."""
    check("radius", radius, 0, strict=True)
    return (j / radius) ** 2


def sphere_mode_eigenvalue(n: int, k: int) -> float:
    """Laplace eigenvalue k(k+n-2) of the unit sphere S^(n-1)."""
    return float(k * (k + n - 2))
