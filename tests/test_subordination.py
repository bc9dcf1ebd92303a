"""Tests for random time changes and the rate-transfer formula.

Closed-form oracles:

* stable subordinator: ``E[exp(-u S(1))] = exp(-u^alpha)``, hence an
  exponential profile transfers to ``exp(-t (p gamma)^alpha / p)``;
* gamma subordinator with shape rate ``a`` and scale rate ``bhat``:
  ``E[exp(-u S(t))] = (1 + u/bhat)^{-a t}``, transferring an exponential
  profile to ``(1 + p gamma/bhat)^{-a t/p}``;
* pure drift: ``S(t) = b_S t`` deterministically, so every transfer is exact.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ergolab import processes
from ergolab.errors import DomainError, NumericalError
from ergolab.subordination import (
    DriftOnly,
    Exponential,
    GammaSub,
    Polynomial,
    StableSub,
    SubordinatorSpec,
    laplace_exponent,
    rate_value,
    sample_subordinator,
    subordinate_rate,
)


# ---------------------------------------------------------------------------
# Spec validation and Laplace exponents
# ---------------------------------------------------------------------------


def test_subordinator_spec_validation():
    with pytest.raises(DomainError):
        StableSub(alpha=1.2)
    with pytest.raises(DomainError):
        StableSub(alpha=0.0)
    with pytest.raises(DomainError):
        GammaSub(a=0.0, b_hat=1.0)
    with pytest.raises(DomainError):
        GammaSub(a=1.0, b_hat=-2.0)
    with pytest.raises(DomainError):
        SubordinatorSpec(kind=DriftOnly(), b_S=-0.5)


def test_rate_function_validation():
    with pytest.raises(DomainError):
        Exponential(gamma=0.0)
    with pytest.raises(DomainError):
        Polynomial(exponent=-1.0)


def test_laplace_exponent_closed_forms():
    spec = SubordinatorSpec(kind=StableSub(alpha=0.5), b_S=0.3)
    assert laplace_exponent(spec, 2.0) == pytest.approx(0.6 + math.sqrt(2.0), rel=1e-15)
    spec = SubordinatorSpec(kind=GammaSub(a=1.5, b_hat=2.0), b_S=0.0)
    assert laplace_exponent(spec, 3.0) == pytest.approx(1.5 * math.log(2.5), rel=1e-15)
    spec = SubordinatorSpec(kind=DriftOnly(), b_S=2.0)
    assert laplace_exponent(spec, 3.0) == pytest.approx(6.0, rel=1e-15)


def test_rate_value_conventions():
    assert rate_value(Exponential(gamma=0.7, scale=3.0), 2.0) == pytest.approx(
        3.0 * math.exp(-1.4), rel=1e-15
    )
    # polynomial profile is scale * (1 + t)^{-exponent}: finite at t = 0
    assert rate_value(Polynomial(exponent=2.0, scale=5.0), 3.0) == pytest.approx(
        5.0 / 16.0, rel=1e-15
    )
    got = rate_value(Polynomial(exponent=1.0), np.array([0.0, 1.0]))
    assert np.allclose(got, [1.0, 0.5])


# ---------------------------------------------------------------------------
# sample_subordinator
# ---------------------------------------------------------------------------


def test_sample_subordinator_drift_only_deterministic():
    spec = SubordinatorSpec(kind=DriftOnly(), b_S=2.0)
    got = sample_subordinator(spec, 3.0, 16, seed=0)
    assert np.all(got == 6.0)


def test_sample_subordinator_stable_laplace_transform():
    spec = SubordinatorSpec(kind=StableSub(alpha=0.5), b_S=0.0)
    s = sample_subordinator(spec, 1.0, 1_000_000, seed=1)
    for u in (0.5, 1.0, 2.0):
        got = np.mean(np.exp(-u * s))
        assert got == pytest.approx(math.exp(-math.sqrt(u)), rel=0.01)


def test_sample_subordinator_gamma_mean():
    spec = SubordinatorSpec(kind=GammaSub(a=2.0, b_hat=1.5), b_S=0.0)
    s = sample_subordinator(spec, 3.0, 100_000, seed=2)
    assert np.mean(s) == pytest.approx(2.0 * 3.0 / 1.5, rel=0.01)


def test_sample_subordinator_drift_floor_and_zero_time():
    spec = SubordinatorSpec(kind=StableSub(alpha=0.7), b_S=1.0)
    s = sample_subordinator(spec, 2.0, 5000, seed=3)
    assert np.all(s >= 2.0)
    assert np.all(sample_subordinator(spec, 0.0, 100, seed=4) == 0.0)


# ---------------------------------------------------------------------------
# subordinate_rate
# ---------------------------------------------------------------------------


def test_subordinate_rate_drift_only_exact():
    spec = SubordinatorSpec(kind=DriftOnly(), b_S=2.0)
    r = Exponential(gamma=0.7, scale=3.0)
    est = subordinate_rate(r, 2.0, spec, 1.5, n_mc=500, seed=0)
    assert est.value == pytest.approx(3.0 * math.exp(-0.7 * 3.0), rel=1e-12)
    assert est.se == 0.0
    assert est.ci_lo == pytest.approx(est.value) and est.ci_hi == pytest.approx(est.value)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("t", [1.0, 2.0])
def test_subordinate_rate_stable_oracle(p, t):
    # (E[e^{-p gamma S(t)}])^{1/p} = e^{-t (p gamma)^alpha / p} for gamma = 1.
    spec = SubordinatorSpec(kind=StableSub(alpha=0.5), b_S=0.0)
    est = subordinate_rate(Exponential(gamma=1.0), p, spec, t, n_mc=200_000, seed=7)
    exact = math.exp(-t * p**0.5 / p)
    assert est.value == pytest.approx(exact, rel=0.02)
    assert est.ci_lo <= exact <= est.ci_hi


def test_subordinate_rate_gamma_oracle():
    # (1 + p gamma / bhat)^{-a t / p} with gamma = 2, a = 1.2, bhat = 3.
    spec = SubordinatorSpec(kind=GammaSub(a=1.2, b_hat=3.0), b_S=0.0)
    est = subordinate_rate(Exponential(gamma=2.0), 2.0, spec, 1.5, n_mc=200_000, seed=8)
    exact = (1.0 + 4.0 / 3.0) ** (-1.2 * 1.5 / 2.0)
    assert est.value == pytest.approx(exact, rel=0.02)


def test_subordinate_rate_p1_is_monte_carlo_mean():
    spec = SubordinatorSpec(kind=GammaSub(a=1.0, b_hat=1.0), b_S=0.0)
    r = Exponential(gamma=0.1, scale=2.0)
    est = subordinate_rate(r, 1.0, spec, 2.0, n_mc=4000, seed=9)
    samples = sample_subordinator(spec, 2.0, 4000, seed=9)
    assert est.value == pytest.approx(float(np.mean(2.0 * np.exp(-0.1 * samples))), rel=1e-14)


def nan_every_thousandth(transform):
    """``transform`` with every thousandth sample of each call NaN."""

    def patched(alpha, skew, u, w):
        out = transform(alpha, skew, u, w)
        out[::1000] = np.nan
        return out

    return patched


def test_subordinate_rate_refuses_a_nan_clock(monkeypatch):
    # a clock sample that is NaN leaves no estimate to make: 100,000 samples
    # in four chunks, each with every thousandth sample NaN
    monkeypatch.setattr(processes, "_cms_transform", nan_every_thousandth(processes._cms_transform))
    spec = SubordinatorSpec(kind=StableSub(alpha=0.01))
    with pytest.raises(NumericalError, match=r"101 of 100000 samples .*alpha=0.01.* NaN"):
        subordinate_rate(Exponential(gamma=0.5), 2.0, spec, 1.0, n_mc=100_000, seed=1)


def test_subordinate_rate_at_a_small_alpha_is_finite():
    # at alpha = 0.01 each of the CMS transform's two powers alone leaves
    # the float range for some draws, and inf * 0 is NaN; their product, taken
    # in log space, is finite or an honest inf.  The estimate is finite, and
    # its mean E r(S_t)^p within five standard errors of exp(-t (p gamma)^alpha)
    spec = SubordinatorSpec(kind=StableSub(alpha=0.01))
    with np.errstate(invalid="raise"):  # no operation gives NaN
        samples = sample_subordinator(spec, 1.0, 100_000, seed=1)
        est = subordinate_rate(Exponential(gamma=0.5), 2.0, spec, 1.0, n_mc=100_000, seed=1)
    assert not np.isnan(samples).any() and np.isinf(samples).any()
    assert math.isfinite(est.value) and 0.0 < est.se < 0.01
    exact = math.exp(-((2.0 * 0.5) ** 0.01) / 2.0)
    assert abs(est.value**2 - exact**2) < 5.0 * est.se


@pytest.mark.parametrize(
    "kind, parent_bytes",
    [(StableSub(alpha=0.5), 40.0), (GammaSub(a=1.2, b_hat=3.0), 24.0), (DriftOnly(), 24.0)],
    ids=["stable", "gamma", "drift_only"],
)
def test_subordinate_rate_memory_per_sample(kind, parent_bytes):
    # the traced peak of one estimate, per clock sample, stays within what
    # the whole-array computation took (stable clock: 40 B at 500,000)
    spec = SubordinatorSpec(kind=kind, b_S=0.25)
    r = Polynomial(exponent=1.5)
    n_mc = 200_000
    subordinate_rate(r, 3.0, spec, 1.0, n_mc=1000, seed=1)
    tracemalloc.start()
    try:
        subordinate_rate(r, 3.0, spec, 1.0, n_mc=n_mc, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n_mc <= parent_bytes
