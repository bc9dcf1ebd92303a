"""Tests for the constructive Wasserstein lower-bound machinery.

Oracles used below:

* backward-recurrence chain with ``alpha = 2``, ``i0 = 4``: the invariant
  measure satisfies ``pi(0) = pi(1) = 16/47``, so the mass above ``s = 1.5``
  is ``15/47`` exactly;
* an exact power tail ``pi(L > s) = s^{-a}``: the qualifying inequality
  ``(s/2)^p pi(L > s) >= 2^p s^{p - vartheta - eps - eps'}`` reduces
  algebraically to ``4^{-p} s^{eps'} >= 1``, i.e. ``s >= 4^{p/eps'}``;
* with ``t(s)`` solving the matching equation, the second term of the bound
  equals ``s^{(p - vartheta - eps - eps')/p}`` and the bound is nonnegative
  for every qualifying ``s``.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from ergolab.errors import DomainError, InsufficientTailError
from ergolab.lowerbound import (
    LowerBoundCurve,
    LowerBoundInstance,
    lower_bound_curve,
)
from ergolab.processes import BackwardRecurrence
from ergolab.rates import LowerRateParams, lower_exponent


def _chain_tail(s):
    return BackwardRecurrence(alpha=2.0, i0=4).tail(s)


def _power_tail(s):
    return s**-2.5


def _instance(tail, params, c=1.0, b=1.0, v0=1.0, lip=1.0):
    return LowerBoundInstance(
        tail=tail,
        lip=lip,
        v0=v0,
        c=c,
        b=b,
        params=params,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_lipschitz_fn_requires_positive_constant():
    params = LowerRateParams(theta=3.0, vartheta=1.5, eps_var=0.25, eps_small=0.25, p=1.0)
    with pytest.raises(DomainError):
        _instance(_power_tail, params, lip=0.0)


def test_instance_requires_positive_drift_and_growth_constants():
    params = LowerRateParams(theta=3.0, vartheta=1.5, eps_var=0.25, eps_small=0.25, p=1.0)
    with pytest.raises(DomainError):
        _instance(_power_tail, params, b=0.0)
    with pytest.raises(DomainError):
        _instance(_power_tail, params, c=-1.0)


# ---------------------------------------------------------------------------
# the chain's tail
# ---------------------------------------------------------------------------


def test_tail_mass_chain_oracle():
    # 1 - pi(0) - pi(1) = 1 - 32/47 = 15/47 for alpha = 2, i0 = 4.
    got = _chain_tail(1.5)
    assert got == pytest.approx(15.0 / 47.0, abs=1e-12)


def test_tail_mass_past_any_table_is_positive():
    # the closed form holds at every level: pi(X > 10^7) ~ C 10^{-14}
    assert 0.0 < _chain_tail(1e7) < 1e-13


# ---------------------------------------------------------------------------
# level selection: the s_n that lower_bound_curve keeps
# ---------------------------------------------------------------------------


def test_select_sn_power_tail_threshold():
    # vartheta + eps = 2.5; qualification reduces to s >= 4^{p/eps'} = 256.
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 1e6, 241)
    inst = _instance(_power_tail, params)
    sel = lower_bound_curve(inst, 20, knots).s
    assert sel.shape == (20,)
    assert np.all(np.diff(sel) > 0)
    assert np.all(sel >= 256.0)
    expected = knots[0.25 * knots**0.25 >= 1.0][:20]
    assert np.allclose(sel, expected, rtol=1e-12)


def test_select_sn_light_tail_raises_with_diagnostics():
    # L = |x| under a standard Gaussian: pi(L > s) = 2 Phi(-s)
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    inst = LowerBoundInstance(
        tail=lambda s: 2.0 * ndtr(-s),
        lip=1.0,
        v0=1.0,
        c=1.0,
        b=1.0,
        params=params,
    )
    with pytest.raises(InsufficientTailError) as err:
        lower_bound_curve(inst, 5, np.geomspace(10.0, 1e4, 50))
    diag = err.value.diagnostics
    assert diag is not None and diag["qualifying"] == 0 and diag["requested"] == 5


def test_select_sn_chain_has_qualifying_points():
    # Tail exponent alpha = 2 with vartheta + eps = 2 (critical moment):
    # the inequality holds from moderate s on.
    # V(x0) = 0.1 keeps the matched times of these levels positive; it
    # plays no part in which levels qualify
    params = LowerRateParams(theta=2.8, vartheta=1.8, eps_var=0.2, eps_small=0.7, p=1.0)
    inst = _instance(_chain_tail, params, v0=0.1)
    grid = np.geomspace(10.0, 1e4, 80)
    sel = lower_bound_curve(inst, 10, grid).s
    assert sel.shape == (10,)
    assert 30.0 < sel[0] < 400.0
    for s in sel:
        lhs = (s / 2.0) ** params.p * inst.tail(s)
        rhs = 2.0**params.p * s ** (
            params.p - params.vartheta - params.eps_var - params.eps_small
        )
        assert lhs >= rhs


def test_select_sn_takes_smallest_qualifying_points():
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 1e6, 241)
    inst = _instance(_power_tail, params)
    three = lower_bound_curve(inst, 3, knots).s
    twenty = lower_bound_curve(inst, 20, knots).s
    assert np.allclose(three, twenty[:3], rtol=0, atol=0)


def test_select_sn_insufficient_grid_raises():
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 300.0, 40)  # only a couple of knots above 256
    inst = _instance(_power_tail, params)
    with pytest.raises(InsufficientTailError):
        lower_bound_curve(inst, 30, knots)


# ---------------------------------------------------------------------------
# lower_bound_curve
# ---------------------------------------------------------------------------


def _heavy_tail_slope_setup():
    # Tail exponent 2.5, qualification threshold 4^{1/0.05} ~ 1.1e12; the grid
    # starts above it and spans seven decades so t spans more than three.
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.05, p=1.0)
    knots = np.geomspace(2e12, 2e19, 140)
    inst = _instance(_power_tail, params)
    return inst, knots, params


def test_lower_bound_curve_nonnegative_and_monotone():
    inst, knots, _ = _heavy_tail_slope_setup()
    curve = lower_bound_curve(inst, 140, s_grid=knots)
    assert isinstance(curve, LowerBoundCurve)
    assert curve.s.shape == curve.t.shape == curve.bound.shape == (140,)
    assert np.all(curve.bound >= 0.0)
    assert np.all(np.diff(curve.bound) <= 1e-12)
    assert np.all(np.diff(curve.t) > 0)


def test_lower_bound_curve_matches_lower_exponent_slope():
    inst, knots, params = _heavy_tail_slope_setup()
    curve = lower_bound_curve(inst, 140, s_grid=knots)
    t_span = curve.t[-1] / curve.t[0]
    assert t_span > 1e3  # three decades
    slope = np.polyfit(np.log(curve.t), np.log(curve.bound), 1)[0]
    expo = lower_exponent(params)
    assert abs(-slope - expo) / expo < 0.05
    product = curve.bound * curve.t**expo
    assert product.min() > 0
    assert product.max() / product.min() < 10.0


def test_lower_bound_curve_matching_time_identity():
    # At t(s) the Lyapunov-side term collapses to s^{(p-vartheta-eps-eps')/p}.
    inst, knots, params = _heavy_tail_slope_setup()
    curve = lower_bound_curve(inst, 25, s_grid=knots)
    delta = params.theta - params.vartheta - params.eps_var - params.eps_small
    second = (
        (2.0 ** (params.theta - params.p) / inst.c) * (inst.b * curve.t + 1.0)
    ) ** (1.0 / params.p) * curve.s ** ((params.p - params.theta) / params.p)
    target = curve.s ** ((params.p - params.vartheta - params.eps_var - params.eps_small) / params.p)
    assert np.allclose(second, target, rtol=1e-10)
    assert np.allclose(curve.s**delta * 2.0 ** (params.p - params.theta) * inst.c,
                       inst.b * curve.t + 1.0, rtol=1e-10)


def test_lower_bound_curve_single_term():
    inst, knots, _ = _heavy_tail_slope_setup()
    curve = lower_bound_curve(inst, 1, s_grid=knots)
    assert curve.s.shape == (1,)
    assert curve.bound[0] >= 0.0
    assert math.isfinite(curve.t[0]) and curve.t[0] > 0


def test_lower_bound_curve_scales_with_lipschitz_constant():
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 1e6, 241)
    one = lower_bound_curve(_instance(_power_tail, params, lip=1.0), 10, s_grid=knots)
    half = lower_bound_curve(_instance(_power_tail, params, lip=2.0), 10, s_grid=knots)
    assert np.allclose(half.bound, 0.5 * one.bound, rtol=1e-12)


def test_lower_bound_curve_negative_matched_time_raises():
    # theta - vartheta - eps - eps' = 1, so t = (c s 2^{p-theta} - V(x0)) / b:
    # every level qualifies below the atom at 100, and s = 2 gives t = -1/2
    params = LowerRateParams(theta=3.0, vartheta=1.5, eps_var=0.25, eps_small=0.25, p=1.0)
    inst = _instance(lambda s: (s < 100.0).astype(float), params)
    with pytest.raises(DomainError):
        lower_bound_curve(inst, 1, s_grid=[2.0, 50.0])
    assert lower_bound_curve(inst, 1, s_grid=[8.0]).t[0] == pytest.approx(1.0, abs=1e-14)
