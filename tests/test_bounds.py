import math

import numpy as np
import pytest

from steklab.bounds import (
    BoundInputs,
    blowup_experiment,
    constants,
    evaluate_bounds,
    fit_asymptotics,
    injectivity_bound,
    isoperimetric_bound,
    obstruction_experiment,
    volume_bound,
)
from steklab.closed_forms import (
    cylinder_steklov_spectrum,
    disk_steklov_spectrum,
    expand_multiplicities,
    sphere_laplace_spectrum,
)
from steklab.errors import NumericalError, UsageError
from steklab.packing import ConstantsConfig


def literal_config():
    return ConstantsConfig(use_empirical=False)


def random_inputs(rng, with_r0=True):
    n = int(rng.integers(2, 5))
    m = n + int(rng.integers(0, 3))
    return BoundInputs(
        n=n,
        m=m,
        volume_m=float(rng.uniform(0.1, 50.0)),
        volume_sigma=float(rng.uniform(0.1, 50.0)),
        i_m=int(rng.integers(1, 12)),
        i_sigma=int(rng.integers(1, 12)),
        k=int(rng.integers(1, 40)),
        r_0=float(rng.uniform(0.01, 5.0)) if with_r0 else None,
        config=literal_config(),
    )


def test_covering_constant_values():
    assert constants(2, 3, literal_config()).covering == 32768
    assert constants(2, 2, literal_config()).covering == 1024


def test_empirical_covering_constant_needs_a_mesh():
    empirical = ConstantsConfig(use_empirical=True)
    with pytest.raises(UsageError, match="empirical"):
        constants(2, 2, empirical)
    with pytest.raises(UsageError, match="empirical"):
        evaluate_bounds(BoundInputs(**BASE_INPUTS, config=empirical))
    # a constant measured on a mesh overrides the config
    assert BoundInputs(**BASE_INPUTS, config=empirical, covering=3).constants().covering == 3


def test_volume_coefficient_formula():
    # n = 2, m = 3: 4 * 4^3 * (32^3)^5 * (2 pi)^2
    c = constants(2, 3, literal_config())
    expected = 4 * 4**3 * (32**3) ** 5 * (2 * math.pi) ** 2
    assert c.volume_coeff == pytest.approx(expected, rel=1e-12)


def test_tube_coefficient_at_n2():
    # D = 1: tube coefficient is 2^(n-1) |S^n| = 2 * 4 pi = 8 pi at n = 2
    c = constants(2, 3, literal_config())
    assert c.tube_coeff == pytest.approx(8 * math.pi, rel=1e-12)
    half = constants(2, 3, ConstantsConfig(use_empirical=False, d_ball=2.0))
    assert half.tube_coeff == pytest.approx(4 * math.pi, rel=1e-12)


def test_tail_and_injectivity_coefficients():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(0, 3))
        c = constants(n, m, literal_config())
        e = n - 1
        sphere = c.sphere_area
        assert c.tail_coeff == pytest.approx(
            4 * 2 ** (3 / e) * c.tube_coeff * c.covering ** ((n + 1) / e) * sphere ** (1 / e),
            rel=1e-12,
        )
        assert c.injectivity_coeff == pytest.approx(
            4 ** (n / e) * c.tube_coeff * c.covering, rel=1e-12
        )


def test_volume_bound_dominates_disk_value():
    inputs = BoundInputs(
        n=2, m=2, volume_m=math.pi, volume_sigma=2 * math.pi,
        i_m=1, i_sigma=2, k=1, config=literal_config(),
    )
    assert volume_bound(inputs) >= 1.0


def test_volume_bound_homothety():
    rng = np.random.default_rng(1)
    for _ in range(100):
        inputs = random_inputs(rng, with_r0=False)
        n = inputs.n
        t = float(rng.uniform(0.2, 8.0))
        scaled = BoundInputs(
            n=n, m=inputs.m,
            volume_m=inputs.volume_m * t**n,
            volume_sigma=inputs.volume_sigma * t ** (n - 1),
            i_m=inputs.i_m, i_sigma=inputs.i_sigma, k=inputs.k,
            config=literal_config(),
        )
        assert volume_bound(scaled) == pytest.approx(volume_bound(inputs) / t, rel=1e-12)


def test_injectivity_bound_homothety_and_blowup():
    rng = np.random.default_rng(2)
    for _ in range(100):
        inputs = random_inputs(rng)
        t = float(rng.uniform(0.2, 8.0))
        n = inputs.n
        scaled = BoundInputs(
            n=n, m=inputs.m,
            volume_m=inputs.volume_m * t**n,
            volume_sigma=inputs.volume_sigma * t ** (n - 1),
            i_m=inputs.i_m, i_sigma=inputs.i_sigma, k=inputs.k,
            r_0=inputs.r_0 * t, config=literal_config(),
        )
        a, _ = injectivity_bound(inputs)
        b, _ = injectivity_bound(scaled)
        assert b == pytest.approx(a / t, rel=1e-12)
    # r_0 -> 0 blows up the first term (the k-tail term stays fixed)
    big = BoundInputs(n=2, m=2, volume_m=1, volume_sigma=1, i_m=1, i_sigma=1,
                      k=1, r_0=1.0, config=literal_config())
    rhs_big, _ = injectivity_bound(big)
    small = BoundInputs(n=2, m=2, volume_m=1, volume_sigma=1, i_m=1, i_sigma=1,
                        k=1, r_0=1e-12, config=literal_config())
    rhs_small, _ = injectivity_bound(small)
    assert rhs_small > 1e3 * rhs_big
    assert rhs_small >= small.constants().injectivity_coeff * small.i_m / small.r_0


def test_k_doubles_as_expected_at_n3():
    base = BoundInputs(n=3, m=3, volume_m=1, volume_sigma=1, i_m=1, i_sigma=1,
                       k=5, config=literal_config())
    double = BoundInputs(n=3, m=3, volume_m=1, volume_sigma=1, i_m=1, i_sigma=1,
                         k=10, config=literal_config())
    assert volume_bound(double) == pytest.approx(2 * volume_bound(base), rel=1e-12)


def test_isoperimetric_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        inputs = random_inputs(rng, with_r0=False)
        lhs_factor, rhs = isoperimetric_bound(inputs)
        assert lhs_factor == pytest.approx(
            inputs.volume_sigma ** (1 / (inputs.n - 1)), rel=1e-12
        )
        assert rhs == pytest.approx(lhs_factor * volume_bound(inputs), rel=1e-12)


def test_isoperimetric_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        inputs = random_inputs(rng, with_r0=False)
        n, t = inputs.n, float(rng.uniform(0.3, 4.0))
        scaled = BoundInputs(
            n=n, m=inputs.m,
            volume_m=inputs.volume_m * t**n,
            volume_sigma=inputs.volume_sigma * t ** (n - 1),
            i_m=inputs.i_m, i_sigma=inputs.i_sigma, k=inputs.k,
            config=literal_config(),
        )
        _, rhs_a = isoperimetric_bound(inputs)
        _, rhs_b = isoperimetric_bound(scaled)
        assert rhs_b == pytest.approx(rhs_a, rel=1e-12)


def test_threshold_branch_consistency():
    # at k = k0 the index tail equals the injectivity term exactly: this is
    # how the injectivity coefficient is defined
    rng = np.random.default_rng(5)
    for _ in range(100):
        inputs = random_inputs(rng)
        c = inputs.constants()
        _, k0 = injectivity_bound(inputs)
        e = inputs.n - 1
        tail_at_k0 = c.tail_coeff * inputs.i_m * (
            inputs.i_sigma * k0 / inputs.volume_sigma
        ) ** (1 / e)
        inj_term = c.injectivity_coeff * inputs.i_m / inputs.r_0
        assert tail_at_k0 == pytest.approx(inj_term, rel=1e-12)


def test_injectivity_requires_r0():
    inputs = BoundInputs(n=2, m=2, volume_m=1, volume_sigma=1, i_m=1, i_sigma=1,
                         k=1, config=literal_config())
    with pytest.raises(UsageError, match="r_0"):
        injectivity_bound(inputs)


def test_evaluate_bounds_report():
    inputs = BoundInputs(n=2, m=2, volume_m=math.pi, volume_sigma=2 * math.pi,
                         i_m=1, i_sigma=2, k=1, r_0=math.pi, config=literal_config())
    report = evaluate_bounds(inputs, sigma_k=1.0)
    assert report.satisfied == {"volume": True, "isoperimetric": True, "injectivity": True}
    payload = report.to_payload()
    assert payload["constants"]["covering_constant"] == 1024


BASE_INPUTS = dict(n=2, m=2, volume_m=math.pi, volume_sigma=2 * math.pi, i_m=1, i_sigma=2, k=1)


@pytest.mark.parametrize("name", ["volume_m", "volume_sigma", "r_0", "covering"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_bound_inputs_reject_non_finite_values(name, value):
    with pytest.raises(UsageError, match=name):
        BoundInputs(**{**BASE_INPUTS, name: value})


@pytest.mark.parametrize("name", ["m", "i_m", "i_sigma", "k"])
def test_bound_inputs_reject_integers_beyond_double_precision(name):
    with pytest.raises(UsageError, match="2\\^53"):
        BoundInputs(**{**BASE_INPUTS, name: 10**400})


def test_evaluate_bounds_rejects_non_finite_sigma_k():
    with pytest.raises(UsageError, match="sigma_k"):
        evaluate_bounds(BoundInputs(**BASE_INPUTS), sigma_k=math.nan)


def test_evaluate_bounds_overflow_is_numerical_error():
    # |Sigma|^3 underflows to 0 in the volume bound; a huge m overflows 32^m
    with pytest.raises(NumericalError, match="double precision"):
        evaluate_bounds(BoundInputs(**{**BASE_INPUTS, "volume_sigma": 1e-200}))
    with pytest.raises(NumericalError, match="double precision"):
        evaluate_bounds(BoundInputs(**{**BASE_INPUTS, "m": 10**6}))


def test_fit_asymptotics_disk():
    spectrum = disk_steklov_spectrum(1.0, 202)
    fit = fit_asymptotics(spectrum, 2, 2 * math.pi, 20, 200)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    assert fit.coefficient == pytest.approx(0.5, rel=0.1)
    assert fit.reference_coefficient == pytest.approx(0.5, rel=1e-12)


def test_fit_asymptotics_cylinder():
    lams = expand_multiplicities(sphere_laplace_spectrum(2, 1.0, 140))
    spectrum = cylinder_steklov_spectrum(lams, 1.0, 202)
    fit = fit_asymptotics(spectrum, 2, 4 * math.pi, 20, 200)
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    assert fit.reference_coefficient == pytest.approx(0.25, rel=1e-12)
    assert fit.coefficient == pytest.approx(0.25, rel=0.1)


def test_fit_asymptotics_guards():
    spectrum = disk_steklov_spectrum(1.0, 50)
    with pytest.raises(UsageError):
        fit_asymptotics(spectrum, 2, 2 * math.pi, 2, 40)
    with pytest.raises(UsageError):
        fit_asymptotics(spectrum, 2, 2 * math.pi, 20, 60)


def test_blowup_experiment_rows():
    rows = blowup_experiment(3, [0.4, 0.2], max_sphere_degree=6, max_circle_mode=6,
                             resolution=512)
    for row, eps in zip(rows, (0.4, 0.2)):
        assert row.eps == eps
        assert row.reference == pytest.approx(0.25 / eps)
        assert row.satisfied
        assert row.mode_min >= row.reference
        floor = 2 * 7 / (2 + 8) / eps
        assert row.annulus_mode1 >= floor
        assert row.annulus_mode1_floor == pytest.approx(floor)
    # halving eps at least doubles the floor and keeps the mode minimum rising
    assert rows[1].mode_min >= rows[0].mode_min


def test_blowup_experiment_validation():
    with pytest.raises(UsageError):
        blowup_experiment(2, [0.2])
    with pytest.raises(UsageError):
        blowup_experiment(3, [1.5])


def test_obstruction_exponents_circle():
    ks = range(10, 120)
    flat = obstruction_experiment(2, 0.0, ks)
    assert flat.fitted_exponent == pytest.approx(1.0, abs=0.05)
    assert flat.required_exponent == pytest.approx(1.0)
    assert flat.consistent
    weighted = obstruction_experiment(2, 1.0, ks)
    assert weighted.fitted_exponent == pytest.approx(2.0, abs=0.05)
    assert weighted.required_exponent == pytest.approx(2.0)
    assert weighted.consistent


def test_obstruction_constant_factor():
    result = obstruction_experiment(2, 0.0, range(10, 40))
    for row in result.rows:
        assert row.sigma_2k == pytest.approx(row.k * math.tanh(0.5), rel=1e-9)


def test_injectivity_rhs_scales_like_thin_boundary_floor():
    # unit-volume boundary with r_0 = pi*eps: as eps -> 0 the bound grows
    # like 1/eps, the same rate the thin-boundary family actually exhibits
    # (with the literal covering constant the r_0 term only dominates the
    # fixed k-tail term at very small eps)
    def rhs(eps):
        inputs = BoundInputs(
            n=4, m=6, volume_m=5.0, volume_sigma=1.0, i_m=12, i_sigma=2,
            k=1, r_0=math.pi * eps, config=literal_config(),
        )
        return injectivity_bound(inputs)[0]

    for eps in (1e-18, 1e-19, 1e-20):
        ratio = rhs(eps / 2) / rhs(eps)
        assert 1.99 <= ratio <= 2.0 + 1e-9
    assert rhs(1e-20) > rhs(1.0)


def test_obstruction_total_is_checked_before_any_spectrum(monkeypatch):
    import steklab.bounds as bounds_module

    def never(*args):
        raise AssertionError("a sphere spectrum was built")

    monkeypatch.setattr(bounds_module, "sphere_laplace_spectrum", never)
    # n = 2: the degree-(k+6) spectrum holds 2k + 13 values, so the total
    # passes 10^7 near k = 3,160, long before the range ends
    with pytest.raises(UsageError, match="multiplicity total"):
        obstruction_experiment(2, 0.0, range(10, 10**6 + 1))
    with pytest.raises(UsageError, match="multiplicity total"):
        obstruction_experiment(3, 0.0, [10**4])  # (k + 7)^2 values for one k


def test_obstruction_total_counts_each_k_once():
    once = obstruction_experiment(2, 0.0, range(10, 40))
    assert obstruction_experiment(2, 0.0, [*range(10, 40), *range(10, 40)]) == once
