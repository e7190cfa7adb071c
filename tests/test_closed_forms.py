import math

import numpy as np
import pytest

from steklab.closed_forms import (
    annulus_sn_eigenvalue,
    blowup_constant,
    circle_mode_eigenvalue,
    cylinder_steklov_spectrum,
    disk_steklov_spectrum,
    expand_multiplicities,
    separated_mode_sn_eigenvalue,
    sphere_laplace_spectrum,
    sphere_mode_eigenvalue,
)
from steklab.errors import TruncationError, UsageError
from steklab.euclidean import unit_ball_volume, unit_sphere_area


def circle_lambdas(max_degree):
    return expand_multiplicities(sphere_laplace_spectrum(2, 1.0, max_degree))


def test_euclidean_constants():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    assert unit_sphere_area(1) == pytest.approx(2 * math.pi)
    assert unit_sphere_area(2) == pytest.approx(4 * math.pi)


def test_annulus_mode1_reference_value():
    assert annulus_sn_eigenvalue(2, 1.0, 2.0, 1) == pytest.approx(0.6, rel=1e-14)
    # direct form: (-1 + delta^n eps^-n) / (eps + delta^n eps^(1-n)/(n-1))
    n, e, d = 3, 0.3, 1.7
    direct = (-1 + d**n * e**-n) / (e + d**n * e ** (1 - n) / (n - 1))
    assert annulus_sn_eigenvalue(n, e, d, 1) == pytest.approx(direct, rel=1e-14)


def test_annulus_mode0_and_thin_limit():
    assert annulus_sn_eigenvalue(3, 0.5, 1.0, 0) == 0.0
    thin = annulus_sn_eigenvalue(3, 1.0 - 1e-8, 1.0, 1)
    assert 0 < thin < 1e-6


def test_annulus_wide_lower_bound():
    # at delta = 2/eps the first mode exceeds (n-1)(2^n - 1)/((n-1+2^n) eps)
    for n in (3, 4, 5):
        for eps in np.linspace(0.05, 0.95, 10):
            value = annulus_sn_eigenvalue(n, eps, 2.0 / eps, 1)
            floor = (n - 1) * (2**n - 1) / ((n - 1 + 2**n) * eps)
            assert value >= floor
    assert annulus_sn_eigenvalue(3, 0.1, 20.0, 1) >= 1.4 / 0.1


def test_annulus_positive_for_positive_modes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        eps = float(rng.uniform(0.05, 2.0))
        delta = eps * float(rng.uniform(1.01, 10.0))
        k = int(rng.integers(1, 8))
        assert annulus_sn_eigenvalue(n, eps, delta, k) > 0


def test_sphere_spectrum_low_degrees():
    got = sphere_laplace_spectrum(3, 1.0, 3)
    assert got == [(0.0, 1), (2.0, 3), (6.0, 5), (12.0, 7)]
    circle = sphere_laplace_spectrum(2, 2.0, 2)
    assert circle == [(0.0, 1), (0.25, 2), (1.0, 2)]
    s3 = sphere_laplace_spectrum(4, 1.0, 2)
    assert [m for _, m in s3] == [1, 4, 9]


def test_sphere_multiplicities_are_exact():
    # degree-k harmonics on S^d: (2k + d - 1) (k + d - 2)! / (k! (d - 1)!) for k >= 1
    for n in range(2, 40):
        d = n - 1
        got = [m for _, m in sphere_laplace_spectrum(n, 1.0, 80)]
        expected = [1] + [
            (2 * k + d - 1) * math.factorial(k + d - 2)
            // (math.factorial(k) * math.factorial(d - 1))
            for k in range(1, 81)
        ]
        assert got == expected
    # between 2^52 and 2^53 a product taken in floating point is off by one
    assert sphere_laplace_spectrum(16, 1.0, 72)[72][1] == 8337882141913050


def test_cylinder_reference_list():
    got = cylinder_steklov_spectrum(circle_lambdas(5), 1.0, 6)
    t = math.tanh(0.5)
    expected = [0.0, t, t, 2 * math.tanh(1.0), 2 * math.tanh(1.0), 2.0]
    assert np.allclose(got, expected, rtol=1e-12)
    assert got[1] == pytest.approx(0.462117, abs=1e-6)


def test_cylinder_short_limit():
    length = 1e-4
    got = cylinder_steklov_spectrum(circle_lambdas(3), length, 2)
    assert got[0] == 0.0
    # tanh branch collapses, 2/L blows up and is not among the first two
    assert got[1] == pytest.approx(length / 2, rel=1e-4)


def test_cylinder_long_limit_pairs_coalesce():
    got = cylinder_steklov_spectrum(circle_lambdas(4), 60.0, 10)
    # 0 and 2/L first, then tanh and coth branches meet at sqrt(lambda)
    assert got[1] == pytest.approx(2.0 / 60.0, rel=1e-12)
    assert np.allclose(got[2:6], 1.0, atol=1e-8)
    assert np.allclose(got[6:10], 2.0, atol=1e-8)


def test_cylinder_branch_monotonicity_in_length():
    lengths = np.linspace(0.2, 5.0, 25)
    lam = 4.0
    tanh_vals = [math.sqrt(lam) * math.tanh(math.sqrt(lam) * t / 2) for t in lengths]
    coth_vals = [math.sqrt(lam) / math.tanh(math.sqrt(lam) * t / 2) for t in lengths]
    assert np.all(np.diff(tanh_vals) > 0)
    assert np.all(np.diff(coth_vals) < 0)


def test_cylinder_truncation_not_certified():
    # enough raw values for the count, but the tail floor undercuts it
    with pytest.raises(TruncationError, match="certified"):
        cylinder_steklov_spectrum(circle_lambdas(2), 1.0, 8)
    # not even enough raw values
    with pytest.raises(TruncationError):
        cylinder_steklov_spectrum(circle_lambdas(1), 1.0, 8)
    with pytest.raises(TruncationError):
        cylinder_steklov_spectrum([0.0], 1.0, 2)


def test_cylinder_input_validation():
    with pytest.raises(UsageError):
        cylinder_steklov_spectrum([1.0, 2.0], 1.0, 2)  # must start at 0
    with pytest.raises(UsageError):
        cylinder_steklov_spectrum([0.0, 2.0, 1.0], 1.0, 2)


def test_disk_spectrum():
    assert disk_steklov_spectrum(1.0, 7) == [0.0, 1, 1, 2, 2, 3, 3]
    assert disk_steklov_spectrum(2.0, 3) == [0.0, 0.5, 0.5]


def test_blowup_constant_small_dimensions():
    # n = 3: min(1/4, 1/2, huge, 14/10) = 1/4
    assert blowup_constant(3) == pytest.approx(0.25)
    terms_n3 = (0.25, 0.5, 3 * math.pi**2 * (4 * math.pi / 3) ** 2 * 7 / 4, 14 / 10)
    assert blowup_constant(3) == pytest.approx(min(terms_n3))
    assert blowup_constant(4) == pytest.approx(0.25)
    for n in range(3, 12):
        assert blowup_constant(n) <= 0.25


def test_blowup_constant_requires_n3():
    with pytest.raises(UsageError):
        blowup_constant(2)


def test_separated_mode_zero_mode():
    assert separated_mode_sn_eigenvalue(3, 0.5, 2.0, 0.0, 0.0) == 0.0


def test_separated_mode_reproduces_closed_form_at_2pi_fifths():
    value = separated_mode_sn_eigenvalue(2, 1.0, 2.0, 1.0, 0.0, resolution=4096)
    assert value == pytest.approx(0.6, abs=1e-4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_separated_mode_consistency_with_annulus_modes(n):
    # lam = 0 radial problems must match the harmonic closed form with the
    # stated 10/resolution^2 relative accuracy
    for eps, delta in [(0.5, 2.0), (1.0, 2.0)]:
        for k in range(1, 6):
            mu = sphere_mode_eigenvalue(n, k)
            exact = annulus_sn_eigenvalue(n, eps, delta, k)
            for resolution in (512, 1024):
                got = separated_mode_sn_eigenvalue(n, eps, delta, mu, 0.0, resolution)
                assert abs(got - exact) / exact <= 10.0 / resolution**2


def test_separated_mode_monotone_in_mode_eigenvalues():
    base = separated_mode_sn_eigenvalue(3, 0.2, 10.0, 3.0, 1.0, 512)
    assert separated_mode_sn_eigenvalue(3, 0.2, 10.0, 5.0, 1.0, 512) >= base
    assert separated_mode_sn_eigenvalue(3, 0.2, 10.0, 3.0, 2.0, 512) >= base


def test_mode_eigenvalue_helpers():
    assert circle_mode_eigenvalue(2.0, 3) == pytest.approx(2.25)
    assert sphere_mode_eigenvalue(3, 2) == 6.0
    with pytest.raises(UsageError):
        circle_mode_eigenvalue(-1.0, 1)


def test_sphere_spectrum_radius_scaling():
    assert sphere_laplace_spectrum(3, 2.0, 1)[1][0] == pytest.approx(0.5)
    assert sphere_laplace_spectrum(2, 3.0, 1)[1][0] == pytest.approx(1.0 / 9.0)
