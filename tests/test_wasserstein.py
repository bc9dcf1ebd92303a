"""Wasserstein estimator tests.

Derived expected values come from enumeration oracles (all couplings of
two-point measures, both permutation matchings) and from using one route as
the oracle for another (w_1d vs the exact LP vs Sinkhorn).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp, ndtri

from ergolab import wasserstein
from ergolab.errors import DomainError, NonConvergenceError, NumericalError, SizeError
from ergolab.wasserstein import (
    EmpiricalMeasure,
    _logsumexp,
    sinkhorn,
    sinkhorn_annealed,
    w2_gaussian,
    w_1d,
    w_exact_lp,
)


def dirac(x):
    return EmpiricalMeasure.from_samples(np.atleast_1d(np.asarray(x, dtype=float)))


def uniform_on(points):
    return EmpiricalMeasure.from_samples(np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# EmpiricalMeasure
# ---------------------------------------------------------------------------


def test_measure_validation():
    with pytest.raises(DomainError):
        EmpiricalMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.7, 0.7]))
    with pytest.raises(DomainError):
        EmpiricalMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([1.5, -0.5]))


def test_measure_shares_read_only_arrays_and_copies_writeable_ones():
    points = np.arange(4.0)[:, None]
    weights = np.full(4, 0.25)
    points.flags.writeable = False
    weights.flags.writeable = False
    shared = EmpiricalMeasure(points=points, weights=weights)
    assert np.shares_memory(shared.points, points)
    assert np.shares_memory(shared.weights, weights)

    points, weights = np.arange(4.0)[:, None], np.full(4, 0.25)
    copied = EmpiricalMeasure(points=points, weights=weights)
    assert not np.shares_memory(copied.points, points)
    assert not np.shares_memory(copied.weights, weights)
    points[0, 0] = weights[0] = -1.0
    assert copied.points[0, 0] == 0.0 and copied.weights[0] == 0.25
    assert not (copied.points.flags.writeable or copied.weights.flags.writeable)


# ---------------------------------------------------------------------------
# w_1d
# ---------------------------------------------------------------------------


def test_w1d_diracs():
    for p in (1.0, 2.0, 3.5):
        assert w_1d(dirac(-1.0), dirac(2.5), p) == pytest.approx(3.5, rel=1e-14)


def test_w1d_two_point_enumeration_oracle():
    # couplings of (1/2)(d0+d2) and (1/2)(d1+d3): matching (0->1, 2->3) costs 1,
    # matching (0->3, 2->1) costs 2; infimum 1
    mu = uniform_on([0.0, 2.0])
    nu = uniform_on([1.0, 3.0])
    assert w_1d(mu, nu, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_w1d_identical_measures():
    mu = uniform_on([0.3, 1.1, -2.0, 5.0])
    assert w_1d(mu, mu, 2.0) == 0.0


def test_w1d_unequal_weights_oracle():
    # mu = 0.75 d0 + 0.25 d1, nu = d0.5: W_1 = 0.75*0.5 + 0.25*0.5 = 0.5
    mu = EmpiricalMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.75, 0.25]))
    nu = dirac(0.5)
    assert w_1d(mu, nu, 1.0) == pytest.approx(0.5, rel=1e-12)
    # p=2: (0.75*0.25 + 0.25*0.25)^{1/2} = 0.5
    assert w_1d(mu, nu, 2.0) == pytest.approx(0.5, rel=1e-12)


def test_w1d_requires_one_dimension():
    mu = EmpiricalMeasure.from_samples(np.zeros((3, 2)))
    with pytest.raises(DomainError):
        w_1d(mu, mu, 1.0)


# ---------------------------------------------------------------------------
# w_exact_lp
# ---------------------------------------------------------------------------


def test_exact_lp_self_distance():
    mu = uniform_on([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    plan = w_exact_lp(mu, mu, 2.0)
    assert plan.cost == pytest.approx(0.0, abs=1e-12)
    assert plan.distance == pytest.approx(0.0, abs=1e-9)


def test_exact_lp_matches_w1d_oracle():
    rng = np.random.default_rng(7)
    for p in (1.0, 2.0, 3.0):
        for _ in range(20):
            k1, k2 = rng.integers(1, 9, size=2)
            mu = EmpiricalMeasure.from_samples(
                rng.normal(size=(k1, 1)), rng.dirichlet(np.ones(k1))
            )
            nu = EmpiricalMeasure.from_samples(
                rng.normal(size=(k2, 1)), rng.dirichlet(np.ones(k2))
            )
            assert w_exact_lp(mu, nu, p).distance == pytest.approx(
                w_1d(mu, nu, p), abs=1e-9
            )


def test_exact_lp_two_matchings_oracle():
    xs = np.array([[0.0, 0.0], [1.0, 0.0]])
    ys = np.array([[0.0, 1.0], [1.0, 1.0]])
    mu, nu = uniform_on(xs), uniform_on(ys)
    # enumerate both permutation matchings by hand
    best = min(
        0.5 * sum(np.linalg.norm(xs[i] - ys[perm[i]]) for i in range(2))
        for perm in itertools.permutations(range(2))
    )
    plan = w_exact_lp(mu, nu, 1.0)
    assert plan.cost == pytest.approx(best, rel=1e-9)
    assert best == pytest.approx(1.0)


def test_exact_lp_marginals_and_cost_consistency():
    rng = np.random.default_rng(21)
    mu = EmpiricalMeasure.from_samples(rng.normal(size=(6, 2)), rng.dirichlet(np.ones(6)))
    nu = EmpiricalMeasure.from_samples(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    plan = w_exact_lp(mu, nu, 2.0)
    assert np.allclose(plan.plan.sum(axis=1), mu.weights, atol=1e-9)
    assert np.allclose(plan.plan.sum(axis=0), nu.weights, atol=1e-9)


def test_exact_lp_size_guard():
    mu = EmpiricalMeasure.from_samples(np.random.default_rng(0).normal(size=(101, 1)))
    with pytest.raises(SizeError):
        w_exact_lp(mu, mu, 2.0)


def test_exact_lp_prunes_zero_weights():
    mu = EmpiricalMeasure(
        points=np.array([[0.0], [50.0]]), weights=np.array([1.0, 0.0])
    )
    nu = dirac(1.0)
    assert w_exact_lp(mu, nu, 1.0).distance == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------


def test_sinkhorn_identical_measures_small_cost():
    rng = np.random.default_rng(3)
    mu = uniform_on(rng.normal(size=(16, 2)))
    res = sinkhorn(mu, mu, p=2.0, epsilon=1e-3, max_iter=20000, tol=1e-10)
    assert res.converged
    assert res.cost <= 1e-3 * math.log(16) + 1e-9


def test_sinkhorn_close_to_exact_lp_on_32_point_clouds():
    rng = np.random.default_rng(11)
    for trial in range(3):
        mu = uniform_on(rng.normal(size=(32, 2)))
        nu = uniform_on(rng.normal(loc=0.7, size=(32, 2)))
        exact = w_exact_lp(mu, nu, 2.0)
        # scale^2 = mean squared pairwise distance between the clouds
        scale2 = float(np.mean(np.sum((mu.points[:, None, :] - nu.points[None, :, :]) ** 2, axis=-1)))
        res = sinkhorn_annealed(mu, nu, p=2.0, epsilon=1e-3 * scale2, max_iter=20000, tol=2e-4)
        assert abs(res.cost - exact.cost) / exact.cost < 0.01


def test_sinkhorn_violation_trace_decreases():
    rng = np.random.default_rng(5)
    mu = uniform_on(rng.normal(size=(12, 2)))
    nu = uniform_on(rng.normal(loc=1.0, size=(10, 2)))
    res = sinkhorn(mu, nu, p=2.0, epsilon=0.05, max_iter=5000, tol=1e-12)
    trace = res.violation_trace
    assert len(trace) >= 3
    for a, b in zip(trace, trace[1:]):
        assert b <= a * (1.0 + 1e-6) + 1e-12


def test_sinkhorn_nonconvergence_keeps_report():
    from ergolab.errors import NonConvergenceError

    rng = np.random.default_rng(9)
    mu = uniform_on(rng.normal(size=(8, 2)))
    nu = uniform_on(rng.normal(loc=3.0, size=(8, 2)))
    with pytest.raises(NonConvergenceError) as exc:
        sinkhorn(mu, nu, p=2.0, epsilon=1e-6, max_iter=3, tol=1e-14)
    report = exc.value.report
    assert report is not None
    assert report.iterations == 3
    assert not report.converged


def test_sinkhorn_size_guard():
    # refused before the 2049 x 2048 cost matrix is formed; max_iter=1 keeps
    # an unguarded run short
    with pytest.raises(SizeError):
        sinkhorn(
            uniform_on(np.arange(2049.0)), uniform_on(np.arange(2048.0)), p=2.0, epsilon=1.0,
            max_iter=1,
        )


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_scipy(axis):
    rng = np.random.default_rng(21)
    for scale in (1.0, 50.0, 1e3):
        m = scale * rng.normal(size=(37, 23))
        assert np.allclose(_logsumexp(m, axis), logsumexp(m, axis=axis), rtol=1e-13, atol=0.0)
    m = rng.normal(size=(6, 5))
    m[[0, 2, 3], [1, 1, 4]] = -np.inf
    m[:, 3] = -np.inf
    m[4, :] = -np.inf
    ours, ref = _logsumexp(m, axis), logsumexp(m, axis=axis)
    assert np.array_equal(np.isneginf(ours), np.isneginf(ref))
    assert np.isneginf(ours).any()
    finite = np.isfinite(ref)
    assert np.allclose(ours[finite], ref[finite], rtol=1e-13, atol=0.0)


def _ou_against_gaussian_quantiles():
    # 128 exact OU(H = -1, a_L = 1) samples at t = 1 from x0 = 2, against the
    # midpoint quantiles of the invariant law N(0, 1/2)
    rng = np.random.default_rng(2024)
    mean, sd = 2.0 * math.exp(-1.0), math.sqrt(0.5 * (1.0 - math.exp(-2.0)))
    samples = mean + sd * rng.standard_normal(128)
    quantiles = ndtri((np.arange(128) + 0.5) / 128) * math.sqrt(0.5)
    return uniform_on(samples), uniform_on(quantiles)


def test_sinkhorn_annealed_bounds_exact_w2_from_above():
    # the reported cost is that of a rounded, exactly feasible plan
    mu, nu = _ou_against_gaussian_quantiles()
    res = sinkhorn_annealed(mu, nu, p=2.0, epsilon=0.08, max_iter=20000, tol=2e-4)
    assert res.cost >= w_1d(mu, nu, 2.0) ** 2


def test_sinkhorn_annealed_pinned_cost_and_iterations(monkeypatch):
    # values computed with scipy.special.logsumexp and a full-plan marginal
    # check; every stage goes through the module's sinkhorn
    mu, nu = _ou_against_gaussian_quantiles()
    stage_iterations = []
    inner = wasserstein.sinkhorn

    def counted(*args, **kwargs):
        try:
            result = inner(*args, **kwargs)
        except NonConvergenceError as exc:
            stage_iterations.append(exc.report.iterations)
            raise
        stage_iterations.append(result.iterations)
        return result

    monkeypatch.setattr(wasserstein, "sinkhorn", counted)
    res = sinkhorn_annealed(mu, nu, p=2.0, epsilon=0.08, max_iter=20000, tol=2e-4)
    assert res.cost == pytest.approx(0.5755425208102791, rel=1e-12, abs=0.0)
    assert res.iterations == 85
    assert stage_iterations == [5, 5, 5, 5, 5, 5, 5, 10, 30, 85]


# ---------------------------------------------------------------------------
# w2_gaussian
# ---------------------------------------------------------------------------


def test_w2_gaussian_identical():
    # floating-point floor of the closed form is sqrt(machine-eps * scale)
    C = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert w2_gaussian(np.zeros(2), C, np.zeros(2), C) == pytest.approx(0.0, abs=1e-6)


def test_w2_gaussian_1d_commuting():
    # ((m1-m2)^2 + (sqrt v1 - sqrt v2)^2)^{1/2}
    val = w2_gaussian(np.array([1.0]), np.array([[4.0]]), np.array([-1.0]), np.array([[1.0]]))
    assert val == pytest.approx(math.sqrt(4.0 + 1.0), rel=1e-12)


def test_w2_gaussian_isotropic_plane():
    val = w2_gaussian(np.zeros(2), np.eye(2), np.zeros(2), 4.0 * np.eye(2))
    assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_w2_gaussian_rejects_non_psd():
    with pytest.raises(NumericalError):
        w2_gaussian(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), np.eye(2))


# ---------------------------------------------------------------------------
# metric properties
# ---------------------------------------------------------------------------


def _random_measure(rng, dim):
    k = int(rng.integers(2, 8))
    return EmpiricalMeasure.from_samples(rng.normal(size=(k, dim)), rng.dirichlet(np.ones(k)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_metric_axioms(dim, p):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10):
        mu, nu, rho = (_random_measure(rng, dim) for _ in range(3))
        d_mn = w_exact_lp(mu, nu, p).distance
        d_nm = w_exact_lp(nu, mu, p).distance
        assert abs(d_mn - d_nm) <= 1e-9
        d_mr = w_exact_lp(mu, rho, p).distance
        d_nr = w_exact_lp(nu, rho, p).distance
        assert d_mr <= d_mn + d_nr + 1e-9
        assert w_exact_lp(mu, mu, p).distance <= 1e-9


def test_wp_monotone_in_p():
    rng = np.random.default_rng(31)
    for _ in range(8):
        mu, nu = _random_measure(rng, 2), _random_measure(rng, 2)
        d1 = w_exact_lp(mu, nu, 1.0).distance
        d2 = w_exact_lp(mu, nu, 2.0).distance
        d3 = w_exact_lp(mu, nu, 3.0).distance
        assert d1 <= d2 + 1e-9
        assert d2 <= d3 + 1e-9


def test_root_cost_difference_bounded_by_lipschitz_times_wp():
    # |(int f^p dmu)^{1/p} - (int f^p dnu)^{1/p}| <= Lip(f) * W_p for f >= 0 Lipschitz
    rng = np.random.default_rng(41)
    for _ in range(20):
        mu = EmpiricalMeasure.from_samples(rng.normal(size=(6, 1)), rng.dirichlet(np.ones(6)))
        nu = EmpiricalMeasure.from_samples(rng.normal(size=(5, 1)), rng.dirichlet(np.ones(5)))
        a, c = rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)

        def f(x):
            return np.abs(a * (np.asarray(x) - c))  # Lipschitz constant a, nonnegative

        for p in (1.0, 2.0, 2.5):
            wp = w_1d(mu, nu, p)
            lhs = abs(
                float(np.sum(mu.weights * f(mu.points[:, 0]) ** p)) ** (1.0 / p)
                - float(np.sum(nu.weights * f(nu.points[:, 0]) ** p)) ** (1.0 / p)
            )
            assert lhs <= a * wp + 1e-9
