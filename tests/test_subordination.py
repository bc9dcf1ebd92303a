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
import sys
import threading
import time
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
from ergolab.subordination import _sd_in_place

_C = processes._PASS_CHUNK


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
    # NaN < 0 is False, so a NaN drift needs its own refusal: let through,
    # it would surface as a NumericalError about the clock's draws
    for b_S in (-0.5, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            SubordinatorSpec(kind=DriftOnly(), b_S=b_S)


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
    "r, p, spec",
    [
        (Exponential(gamma=0.5), 2.0, SubordinatorSpec(kind=StableSub(alpha=0.5))),
        (Polynomial(exponent=1.5), 3.0, SubordinatorSpec(kind=GammaSub(a=1.2, b_hat=3.0), b_S=0.25)),
        (Polynomial(exponent=1.5), 3.0, SubordinatorSpec(kind=DriftOnly(), b_S=0.25)),
    ],
    ids=["stable", "gamma", "drift_only"],
)
def test_subordinate_rate_memory_per_sample(r, p, spec):
    # the traced peak of one estimate holds its values, 8 B a sample, and
    # fixed chunk buffers: the clock is drawn a chunk at a time and the
    # moments are taken in place (the stable case is the certify workload's
    # clock and profile; drawn whole, it took 24 B a sample, and gamma 16)
    n_mc = 2**20
    subordinate_rate(r, p, spec, 1.0, n_mc=1000, seed=1)
    tracemalloc.start()
    try:
        subordinate_rate(r, p, spec, 1.0, n_mc=n_mc, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_mc + 4 * 2**20


@pytest.mark.parametrize(
    "kind",
    [
        StableSub(alpha=0.01),
        StableSub(alpha=0.3),
        StableSub(alpha=0.5),
        StableSub(alpha=0.95),
        GammaSub(a=0.4, b_hat=2.0),
        GammaSub(a=3.0, b_hat=2.0),
        DriftOnly(),
    ],
    ids=["stable-0.01", "stable-0.3", "stable-0.5", "stable-0.95", "gamma-0.28", "gamma-2.1", "drift_only"],
)
@pytest.mark.parametrize("n", [1, 7, _C - 1, _C, _C + 1, 3 * _C + 7])
def test_clock_streams_join_to_the_whole_draws(kind, n):
    # each chunk of a clock is drawn from its own stream, _block_rng(seed,
    # chunk), and the chunks join to sample_subordinator's draws bit for
    # bit; chunk 0's stream is default_rng(seed)'s, so a clock of one chunk
    # keeps the bits of one whole draw
    dt, seed = 0.7, 11
    got = sample_subordinator(SubordinatorSpec(kind=kind, b_S=0.25), dt, n, seed)
    want = np.concatenate([
        0.25 * dt + kind.increment(dt, processes._block_rng(seed, i), min(_C, n - lo))
        for i, lo in enumerate(range(0, n, _C))
    ])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    head = 0.25 * dt + kind.increment(dt, np.random.default_rng(seed), min(_C, n))
    assert np.array_equal(got[:_C].view(np.int64), head.view(np.int64))


@pytest.mark.parametrize(
    "r, p, spec",
    [
        (Exponential(gamma=0.5), 2.0, SubordinatorSpec(kind=StableSub(alpha=0.5))),
        (Polynomial(exponent=1.5), 3.0, SubordinatorSpec(kind=GammaSub(a=1.2, b_hat=3.0), b_S=0.25)),
        (Polynomial(exponent=1.5), 3.0, SubordinatorSpec(kind=DriftOnly(), b_S=0.25)),
    ],
    ids=["stable", "gamma", "drift_only"],
)
@pytest.mark.parametrize("n", [2, _C, 3 * _C + 7])  # the estimate takes n >= 2
def test_subordinate_rate_is_the_rate_of_sample_subordinator(r, p, spec, n):
    # the estimate's draws are sample_subordinator's, bit for bit, across
    # chunk edges: its value and standard error are those of r(S_t)^p
    est = subordinate_rate(r, p, spec, 1.5, n_mc=n, seed=5)
    vals = rate_value(r, sample_subordinator(spec, 1.5, n, seed=5)) ** p
    mean = float(np.mean(vals))
    se = 0.0 if np.ptp(vals) == 0.0 else float(np.std(vals, ddof=1)) / math.sqrt(n)
    assert np.float64(est.value).tobytes() == np.float64(mean ** (1.0 / p)).tobytes()
    assert np.float64(est.se).tobytes() == np.float64(se).tobytes()


@pytest.mark.parametrize("helpers", [0, 1, 2])
def test_subordinate_rate_does_not_depend_on_scheduling(monkeypatch, helpers):
    # four callers (two cores), thread switches forced often, each run
    # three clocks of many chunks with 0, 1 or 2 helper threads: every
    # estimate has the bits of one run alone on the calling thread
    n = 5 * _C + 3
    clocks = [
        (Exponential(gamma=0.5), 2.0, SubordinatorSpec(kind=StableSub(alpha=0.5))),
        (Polynomial(exponent=1.5), 3.0, SubordinatorSpec(kind=StableSub(alpha=0.3), b_S=0.25)),
        (Exponential(gamma=0.8), 2.0, SubordinatorSpec(kind=GammaSub(a=1.2, b_hat=3.0))),
    ]
    monkeypatch.setattr(processes, "_PASS_HELPERS", 0)
    want = [subordinate_rate(r, p, spec, 1.0, n_mc=n, seed=3) for r, p, spec in clocks]
    monkeypatch.setattr(processes, "_PASS_HELPERS", helpers)
    before = threading.active_count()
    results, errors = [], []

    def caller():
        try:
            results.append([subordinate_rate(r, p, spec, 1.0, n_mc=n, seed=3)
                            for r, p, spec in clocks])
        except Exception as exc:  # failed by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + 60.0
        for thread in callers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert errors == []
    assert results == [want] * 4  # SubordinatedRate compares its floats exactly
    assert threading.active_count() == before


def test_sd_in_place_keeps_the_bits_of_np_std():
    # 240 seeded arrays of 2 to 2^18 values spanning many decades, squares
    # beyond the float range among them, and constant arrays (whose np.std
    # need not be 0, as their mean may round) through the constant branch
    rng = np.random.default_rng(29)
    for i in range(240):
        n = int(2 ** rng.uniform(1.0, 18.0)) if i % 40 else 2**18
        if i % 8 == 0:
            x = np.full(n, rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-300, 300))
        else:
            span = (5.0, 100.0, 300.0)[i % 3]
            x = rng.uniform(0.0, 1.0, n) * 10 ** rng.uniform(-span, span, n)
        mean = float(np.mean(x))
        with np.errstate(over="ignore"):
            want = 0.0 if np.ptp(x) == 0.0 else float(np.std(x, ddof=1))
            got = _sd_in_place(x.copy(), mean)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (i, n, got, want)
