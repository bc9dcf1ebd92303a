"""Tests for the constructive Wasserstein lower-bound machinery.

Oracles used below:

* backward-recurrence chain with ``alpha = 2``, ``i0 = 4``: the invariant
  measure satisfies ``pi(0) = pi(1) = 16/47``, so the mass above ``s = 1.5``
  is ``15/47`` exactly;
* an exact power tail ``pi(L > s) = s^{-a}`` built from telescoping weights
  on geometric knots: the qualifying inequality
  ``(s/2)^p pi(L > s) >= 2^p s^{p - vartheta - eps - eps'}`` reduces
  algebraically to ``4^{-p} s^{eps'} >= 1``, i.e. ``s >= 4^{p/eps'}``;
* with ``t(s)`` solving the matching equation, the second term of the bound
  equals ``s^{(p - vartheta - eps - eps')/p}`` and the bound is nonnegative
  for every qualifying ``s``.
"""

import csv
import functools
import math

import numpy as np
import pytest

from ergolab.errors import DomainError, InsufficientTailError
from ergolab.lowerbound import (
    LipschitzFn,
    LowerBoundCurve,
    LowerBoundInstance,
    lower_bound_curve,
    select_sn,
    tail_mass,
)
from ergolab.processes import BackwardRecurrence, invariant_exact
from ergolab.rates import LowerRateParams, lower_exponent
from ergolab.wasserstein import EmpiricalMeasure


@functools.lru_cache(maxsize=2)
def _chain_invariant():
    return invariant_exact(BackwardRecurrence(alpha=2.0, i0=4), truncation=600_000)


def _identity_l():
    return LipschitzFn(fn=lambda pts: pts[:, 0], lip=1.0)


def _power_tail_measure(a: float, knots: np.ndarray) -> EmpiricalMeasure:
    """Discrete measure with ``pi(L > s) = s^{-a}`` exactly at ``s = knots``."""
    tails = knots ** (-a)
    w = np.empty_like(knots)
    w[:-1] = tails[:-1] - tails[1:]
    w[-1] = tails[-1]
    points = np.concatenate(([0.5 * knots[0]], knots * (1.0 + 1e-9)))
    weights = np.concatenate(([1.0 - tails[0]], w))
    return EmpiricalMeasure(points=points[:, None], weights=weights)


def _instance(pi, params, c=1.0, b=1.0, v0=1.0, lip=1.0):
    return LowerBoundInstance(
        pi=pi,
        L=LipschitzFn(fn=lambda pts: pts[:, 0], lip=lip),
        lyapunov=lambda x: v0,
        c=c,
        b=b,
        params=params,
        x0=np.array([0.0]),
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_lipschitz_fn_requires_positive_constant():
    with pytest.raises(DomainError):
        LipschitzFn(fn=lambda pts: pts[:, 0], lip=0.0)


def test_instance_requires_positive_drift_and_growth_constants():
    pi = EmpiricalMeasure.from_samples(np.array([1.0]))
    params = LowerRateParams(theta=3.0, vartheta=1.5, eps_var=0.25, eps_small=0.25, p=1.0)
    with pytest.raises(DomainError):
        _instance(pi, params, b=0.0)
    with pytest.raises(DomainError):
        _instance(pi, params, c=-1.0)


# ---------------------------------------------------------------------------
# tail_mass
# ---------------------------------------------------------------------------


def test_tail_mass_at_zero_is_one_without_atom_at_zero():
    pi = EmpiricalMeasure.from_samples(np.array([0.5, 1.5, 2.5, 3.5]))
    assert tail_mass(pi, _identity_l(), 0.0) == 1.0


def test_tail_mass_chain_oracle():
    # 1 - pi(0) - pi(1) = 1 - 32/47 = 15/47 for alpha = 2, i0 = 4.
    pi = _chain_invariant()
    got = tail_mass(pi, _identity_l(), 1.5)
    assert got == pytest.approx(15.0 / 47.0, abs=1e-12)


def test_tail_mass_beyond_truncation_is_zero():
    pi = _chain_invariant()
    assert tail_mass(pi, _identity_l(), 1e7) == 0.0


def test_tail_mass_empirical_fraction():
    pi = EmpiricalMeasure.from_samples(np.array([0.5, 1.5, 2.5, 3.5]))
    assert tail_mass(pi, _identity_l(), 2.0) == pytest.approx(0.5, abs=1e-15)
    # plain callables are accepted in place of the descriptor
    assert tail_mass(pi, lambda pts: pts[:, 0], 2.0) == pytest.approx(0.5, abs=1e-15)


def test_tail_on_grid_same_for_sorted_and_shuffled_support():
    from ergolab.lowerbound import _tail_on_grid

    pi = invariant_exact(BackwardRecurrence(alpha=3.0, i0=5), truncation=8192)
    perm = np.random.default_rng(5).permutation(pi.size)
    shuffled = EmpiricalMeasure(points=pi.points[perm], weights=pi.weights[perm])
    grid = np.array([0.0, 0.5, 1.0, 1.5, 7.0, 100.0, 8192.0, 9000.0])
    sorted_tails = _tail_on_grid(pi, _identity_l(), grid)
    assert np.array_equal(_tail_on_grid(shuffled, _identity_l(), grid), sorted_tails)
    assert sorted_tails[-2:].tolist() == [0.0, 0.0]
    for s, got in zip(grid, sorted_tails):
        assert got == pytest.approx(tail_mass(pi, _identity_l(), s), abs=1e-15)


# ---------------------------------------------------------------------------
# select_sn
# ---------------------------------------------------------------------------


def test_select_sn_power_tail_threshold():
    # vartheta + eps = 2.5; qualification reduces to s >= 4^{p/eps'} = 256.
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 1e6, 241)
    inst = _instance(_power_tail_measure(2.5, knots), params)
    sel = select_sn(inst, 20, knots)
    assert sel.shape == (20,)
    assert np.all(np.diff(sel) > 0)
    assert np.all(sel >= 256.0)
    expected = knots[0.25 * knots**0.25 >= 1.0][:20]
    assert np.allclose(sel, expected, rtol=1e-12)


def test_select_sn_light_tail_raises_with_diagnostics():
    rng = np.random.default_rng(0)
    pi = EmpiricalMeasure.from_samples(rng.normal(size=20000))
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    inst = LowerBoundInstance(
        pi=pi,
        L=LipschitzFn(fn=lambda pts: np.abs(pts[:, 0]), lip=1.0),
        lyapunov=lambda x: 1.0,
        c=1.0,
        b=1.0,
        params=params,
        x0=np.array([0.0]),
    )
    with pytest.raises(InsufficientTailError) as err:
        select_sn(inst, 5, np.geomspace(10.0, 1e4, 50))
    diag = err.value.diagnostics
    assert diag is not None and diag["qualifying"] == 0 and diag["requested"] == 5


def test_select_sn_chain_has_qualifying_points():
    # Tail exponent alpha = 2 with vartheta + eps = 2 (critical moment):
    # the inequality holds from moderate s on.
    params = LowerRateParams(theta=2.8, vartheta=1.8, eps_var=0.2, eps_small=0.7, p=1.0)
    inst = _instance(_chain_invariant(), params)
    grid = np.geomspace(10.0, 1e4, 80)
    sel = select_sn(inst, 10, grid)
    assert sel.shape == (10,)
    assert 30.0 < sel[0] < 400.0
    for s in sel:
        lhs = (s / 2.0) ** params.p * tail_mass(inst.pi, inst.L, s)
        rhs = 2.0**params.p * s ** (
            params.p - params.vartheta - params.eps_var - params.eps_small
        )
        assert lhs >= rhs


def test_select_sn_takes_smallest_qualifying_points():
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 1e6, 241)
    inst = _instance(_power_tail_measure(2.5, knots), params)
    three = select_sn(inst, 3, knots)
    twenty = select_sn(inst, 20, knots)
    assert np.allclose(three, twenty[:3], rtol=0, atol=0)


def test_select_sn_insufficient_grid_raises():
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.25, p=1.0)
    knots = np.geomspace(1.0, 300.0, 40)  # only a couple of knots above 256
    inst = _instance(_power_tail_measure(2.5, knots), params)
    with pytest.raises(InsufficientTailError):
        select_sn(inst, 30, knots)


# ---------------------------------------------------------------------------
# lower_bound_curve
# ---------------------------------------------------------------------------


def _heavy_tail_slope_setup():
    # Tail exponent 2.5, qualification threshold 4^{1/0.05} ~ 1.1e12; the grid
    # starts above it and spans seven decades so t spans more than three.
    params = LowerRateParams(theta=3.0, vartheta=2.0, eps_var=0.5, eps_small=0.05, p=1.0)
    knots = np.geomspace(2e12, 2e19, 140)
    inst = _instance(_power_tail_measure(2.5, knots), params)
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
    pi = _power_tail_measure(2.5, knots)
    one = lower_bound_curve(_instance(pi, params, lip=1.0), 10, s_grid=knots)
    half = lower_bound_curve(_instance(pi, params, lip=2.0), 10, s_grid=knots)
    assert np.allclose(half.bound, 0.5 * one.bound, rtol=1e-12)


def test_lower_bound_curve_negative_matched_time_raises():
    # theta - vartheta - eps - eps' = 1, so t = (c s 2^{p-theta} - V(x0)) / b:
    # every level qualifies below the atom at 100, and s = 2 gives t = -1/2
    params = LowerRateParams(theta=3.0, vartheta=1.5, eps_var=0.25, eps_small=0.25, p=1.0)
    inst = _instance(EmpiricalMeasure.from_samples(np.array([100.0])), params)
    with pytest.raises(DomainError):
        lower_bound_curve(inst, 1, s_grid=[2.0, 50.0])
    assert lower_bound_curve(inst, 1, s_grid=[8.0]).t[0] == pytest.approx(1.0, abs=1e-14)


def test_lower_bound_curve_csv(tmp_path):
    inst, knots, _ = _heavy_tail_slope_setup()
    curve = lower_bound_curve(inst, 5, s_grid=knots)
    out = tmp_path / "curve.csv"
    curve.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "s_n", "t_n", "bound"]
    assert len(rows) == 6
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
    assert float(rows[1][1]) == pytest.approx(curve.s[0], rel=1e-15)
