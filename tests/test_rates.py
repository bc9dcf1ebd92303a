"""Rate-calculus tests.

Frozen expected values were produced by an independent oracle
(scipy.integrate.quad on 1/phi plus scipy.optimize.brentq inversion) before the
module under test existed; the derived numbers are recorded as literals.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergolab.errors import ConfigError, DomainError
from ergolab.rates import (
    LinearPhi,
    LowerRateParams,
    PowerPhi,
    UpperRateParams,
    big_phi,
    big_phi_inv,
    lower_exponent,
    phi_eval,
    rate_r,
    upper_multiplier_w1,
    upper_multiplier_wp,
    upper_multiplier_wp_linear,
)


# ---------------------------------------------------------------------------
# phi_eval
# ---------------------------------------------------------------------------


def test_phi_eval_linear_identity_slope():
    assert phi_eval(LinearPhi(c_hat=1.0), 2.0) == pytest.approx(2.0, abs=0)


def test_phi_eval_power_square_root():
    assert phi_eval(PowerPhi(kappa=0.5, prefactor=1.0), 4.0) == pytest.approx(2.0)


def test_phi_eval_domain_errors():
    with pytest.raises(DomainError):
        phi_eval(LinearPhi(c_hat=1.0), 0.5)
    with pytest.raises(DomainError):
        phi_eval(PowerPhi(kappa=0.5, prefactor=1.0), 0.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        LinearPhi(c_hat=0.0)
    with pytest.raises(ConfigError):
        PowerPhi(kappa=1.0, prefactor=1.0)
    with pytest.raises(ConfigError):
        PowerPhi(kappa=0.5, prefactor=-1.0)


# ---------------------------------------------------------------------------
# big_phi
# ---------------------------------------------------------------------------


def test_big_phi_at_one_is_zero():
    for spec in (
        LinearPhi(c_hat=3.0),
        PowerPhi(kappa=0.25, prefactor=2.0),
    ):
        assert big_phi(spec, 1.0) == 0.0


def test_big_phi_power_quadrature_oracle():
    # oracle: quad(s**-0.5, 1, 4) = 2.0
    assert big_phi(PowerPhi(kappa=0.5, prefactor=1.0), 4.0) == pytest.approx(2.0, rel=1e-12)


def test_big_phi_linear_quadrature_oracle():
    # oracle: quad(1/(2s), 1, e^2) = 1.0
    assert big_phi(LinearPhi(c_hat=2.0), math.e**2) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# big_phi_inv and rate_r
# ---------------------------------------------------------------------------


def test_big_phi_inv_at_zero():
    assert big_phi_inv(PowerPhi(kappa=0.5, prefactor=1.0), 0.0) == 1.0


def test_big_phi_inv_power_oracle():
    assert big_phi_inv(PowerPhi(kappa=0.5, prefactor=1.0), 2.0) == pytest.approx(4.0, rel=1e-9)


def test_big_phi_inv_linear_oracle():
    assert big_phi_inv(LinearPhi(c_hat=1.0), 1.0) == pytest.approx(math.e, rel=1e-9)


def test_big_phi_inv_rejects_negative():
    with pytest.raises(DomainError):
        big_phi_inv(LinearPhi(c_hat=1.0), -0.1)


def test_big_phi_inv_overflow_raises_domain_error():
    # s = exp(c u) is finite at u = 100 but beyond the float range at u = 1000
    assert big_phi_inv(LinearPhi(c_hat=1.0), 100.0) == pytest.approx(math.exp(100.0), rel=1e-12)
    for spec, u in ((LinearPhi(c_hat=1.0), 1000.0), (PowerPhi(kappa=0.9, prefactor=0.4), 1e300),
                    (LinearPhi(c_hat=1.0), math.inf)):
        with pytest.raises(DomainError):
            big_phi_inv(spec, u)


def test_rate_r_power_oracle():
    assert rate_r(PowerPhi(kappa=0.5, prefactor=1.0), 2.0) == pytest.approx(2.0, rel=1e-9)


def test_rate_r_linear_closed_form():
    # r(t) = c*exp(c*t) for Linear(c)
    assert rate_r(LinearPhi(c_hat=1.0), 1.0) == pytest.approx(math.e, rel=1e-9)
    assert rate_r(LinearPhi(c_hat=0.5), 3.0) == pytest.approx(0.5 * math.exp(1.5), rel=1e-9)


def test_rate_r_at_zero_is_phi_of_one():
    spec = PowerPhi(kappa=0.5, prefactor=0.7)
    assert rate_r(spec, 0.0) == pytest.approx(0.7, rel=1e-12)


# ---------------------------------------------------------------------------
# multipliers and exponents
# ---------------------------------------------------------------------------


def test_upper_multiplier_w1_eta_one_is_flat():
    params = UpperRateParams(eta=1.0, p=1.0, phi=PowerPhi(kappa=0.5, prefactor=1.0))
    for t in (0.0, 1.0, 10.0, 250.0):
        assert upper_multiplier_w1(params, t) == 1.0


def test_upper_multiplier_w1_power_oracle():
    params = UpperRateParams(eta=2.0, p=1.0, phi=PowerPhi(kappa=0.5, prefactor=1.0))
    assert upper_multiplier_w1(params, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_upper_multiplier_w1_at_zero():
    params = UpperRateParams(eta=2.0, p=1.0, phi=LinearPhi(c_hat=1.0))
    assert upper_multiplier_w1(params, 0.0) == 1.0


def test_upper_multiplier_wp_all_exponents_vanish():
    params = UpperRateParams(eta=1.0, p=1.0, phi=PowerPhi(kappa=0.5, prefactor=1.0))
    for t in (0.5, 1.0, 7.0):
        assert upper_multiplier_wp(params, t) == 1.0


def test_upper_multiplier_wp_power_oracle():
    # oracle: r(4) = 3 for Power(0.5), so max(1, 4^{-1/2} * 3^{1/4}) = 1.0
    params = UpperRateParams(eta=2.0, p=2.0, phi=PowerPhi(kappa=0.5, prefactor=1.0))
    r4 = rate_r(params.phi, 4.0)
    assert r4 == pytest.approx(3.0, rel=1e-9)
    expected = max(1.0, 4.0 ** (-0.5) * r4 ** (1.0 / 4.0))
    assert upper_multiplier_wp(params, 4.0) == pytest.approx(expected, rel=1e-12)
    assert upper_multiplier_wp(params, 4.0) == 1.0


def test_upper_multiplier_wp_min_branch():
    # eta=3, p=2: min(t^{1/2}, t^{-1/2}) picks the first branch below t=1
    params = UpperRateParams(eta=3.0, p=2.0, phi=PowerPhi(kappa=0.5, prefactor=1.0))
    t = 0.25
    r = rate_r(params.phi, t)
    expected = max(1.0, min(t**0.5, t**-0.5) * r ** (2.0 / 6.0))
    assert upper_multiplier_wp(params, t) == pytest.approx(expected, rel=1e-12)


def test_upper_multiplier_wp_linear():
    assert upper_multiplier_wp_linear(2.0, 2.0, 9.0) == 1.0
    assert upper_multiplier_wp_linear(2.0, 1.0, 3.0) == pytest.approx(3.0)
    assert upper_multiplier_wp_linear(3.0, 2.0, 4.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        upper_multiplier_wp_linear(1.0, 2.0, 3.0)


def test_lower_exponent_frozen_value():
    params = LowerRateParams(theta=3.0, vartheta=1.0, eps_var=0.5, eps_small=0.5, p=1.0)
    assert lower_exponent(params) == pytest.approx(1.0, abs=0)


def test_lower_exponent_backward_recurrence_form():
    # theta = 1+alpha-rho, vartheta = alpha-rho reduces to
    # (alpha-rho-p+eps+eps')/((1-eps-eps')p)
    alpha, rho, eps, epsl, p = 3.0, 0.05, 0.05, 0.45, 1.0
    params = LowerRateParams(
        theta=1.0 + alpha - rho, vartheta=alpha - rho, eps_var=eps, eps_small=epsl, p=p
    )
    expected = (alpha - rho - p + eps + epsl) / ((1.0 - eps - epsl) * p)
    assert lower_exponent(params) == pytest.approx(expected, rel=1e-14)


def test_lower_params_validation():
    # eps + eps_small exhausting theta - vartheta makes the denominator vanish
    with pytest.raises(DomainError):
        LowerRateParams(theta=2.0, vartheta=1.0, eps_var=0.6, eps_small=0.6, p=1.0)
    with pytest.raises(DomainError):
        LowerRateParams(theta=1.0, vartheta=1.0, eps_var=0.1, eps_small=0.1, p=1.0)
    with pytest.raises(DomainError):
        LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.1, eps_small=0.1, p=3.0)


def test_upper_params_validation():
    with pytest.raises(DomainError):
        UpperRateParams(eta=0.5, p=0.5, phi=LinearPhi(c_hat=1.0))
    with pytest.raises(DomainError):
        UpperRateParams(eta=2.0, p=3.0, phi=LinearPhi(c_hat=1.0))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

SPECS = [
    LinearPhi(c_hat=1.0),
    LinearPhi(c_hat=2.5),
    PowerPhi(kappa=0.5, prefactor=1.0),
    PowerPhi(kappa=0.25, prefactor=3.0),
    PowerPhi(kappa=0.9, prefactor=0.4),
    PowerPhi(kappa=0.05, prefactor=0.5),
]


@pytest.mark.parametrize("spec", SPECS)
def test_round_trip_inversion(spec):
    for t in np.geomspace(1.0, 1.0e6, 25):
        u = big_phi(spec, float(t))
        back = big_phi_inv(spec, u)
        assert abs(back - t) <= 1e-8 * t


@pytest.mark.parametrize("spec", SPECS)
def test_big_phi_strictly_increasing(spec):
    ts = np.geomspace(1.0, 1.0e6, 40)
    vals = [big_phi(spec, float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "spec",
    [LinearPhi(c_hat=1.0), LinearPhi(c_hat=0.3), PowerPhi(kappa=0.5, prefactor=1.0), PowerPhi(kappa=0.8, prefactor=2.0)],
)
def test_closed_form_matches_quadrature(spec):
    for t in np.geomspace(1.0, 1.0e6, 13):
        val, _ = quad(lambda s: 1.0 / phi_eval(spec, s), 1.0, float(t), epsrel=1e-12, limit=400)
        closed = big_phi(spec, float(t))
        assert closed == pytest.approx(val, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
def test_rate_r_nondecreasing(spec):
    rng = np.random.default_rng(20260815)
    u_max = big_phi(spec, 1.0e6)
    ts = np.sort(rng.uniform(0.0, u_max, size=40))
    vals = [rate_r(spec, float(t)) for t in ts]
    assert all(b >= a * (1 - 1e-10) for a, b in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.floats(min_value=0.05, max_value=0.95),
    prefactor=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=1.0, max_value=1.0e5),
)
def test_power_round_trip_property(kappa, prefactor, t):
    spec = PowerPhi(kappa=kappa, prefactor=prefactor)
    u = big_phi(spec, t)
    assert abs(big_phi_inv(spec, u) - t) <= 1e-8 * t
