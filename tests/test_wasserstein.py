"""Wasserstein estimator tests.

Derived expected values come from enumeration oracles (all couplings of
two-point measures, both permutation matchings) and from using one route as
the oracle for another (w_1d vs the assignment vs Sinkhorn, and all of them
vs the dense transport LP of ``lp_oracle``).
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

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
    w_assignment,
)
from lp_oracle import w_exact_lp


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_refuses_non_finite_points(bad):
    # a non-finite point fails when the measure is built: before, w_1d
    # returned nan and sinkhorn_annealed ran its whole iteration budget
    with pytest.raises(DomainError, match="finite"):
        EmpiricalMeasure(points=np.array([[0.0, 1.0], [bad, 2.0]]), weights=np.full(2, 0.5))
    two_atoms = uniform_on([0.25, 0.75])
    with pytest.raises(DomainError, match="finite"):
        w_1d(EmpiricalMeasure.from_samples([0.0, bad, 1.0]), two_atoms, 1.0)
    with pytest.raises(DomainError, match="finite"):
        sinkhorn_annealed(EmpiricalMeasure.from_samples([0.0, bad, 1.0]), two_atoms, 2.0,
                          epsilon=0.1, max_iter=50)


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
# the LP oracle, lp_oracle.w_exact_lp
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
# w_assignment
# ---------------------------------------------------------------------------


def test_assignment_matches_the_lp_oracle_and_w1d():
    # 200 seeded pairs of uniform clouds of equal size, a fifth of them with
    # runs of duplicate points; in 1-D the quantile coupling is exact too
    rng = np.random.default_rng(30)
    worst_lp = worst_1d = 0.0
    for i in range(200):
        dim, p, n = 1 + i % 3, (1.0, 1.5, 2.0, 3.0)[i % 4], int(rng.integers(2, 101))
        x = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0)
        y = rng.normal(loc=0.5, size=(n, dim))
        if i % 5 == 0:
            x[: n // 2] = x[0]
            y[n // 3 :] = y[-1]
        mu, nu = uniform_on(x), uniform_on(y)
        got = w_assignment(mu, nu, p)
        oracle = w_exact_lp(mu, nu, p).distance
        worst_lp = max(worst_lp, abs(got - oracle) / oracle)
        if dim == 1:
            worst_1d = max(worst_1d, abs(got - w_1d(mu, nu, p)))
    assert worst_lp <= 1e-9
    assert worst_1d <= 1e-12


def test_assignment_self_distance_and_two_matchings():
    mu = uniform_on([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    assert w_assignment(mu, mu, 2.0) == 0.0
    # the two permutation matchings cost 1 and sqrt(2) a pair
    xs = uniform_on([[0.0, 0.0], [1.0, 0.0]])
    ys = uniform_on([[0.0, 1.0], [1.0, 1.0]])
    assert w_assignment(xs, ys, 1.0) == 1.0


def test_assignment_refuses_unequal_sizes_weights_and_the_budget():
    three, two = uniform_on([0.0, 1.0, 2.0]), uniform_on([0.0, 1.0])
    with pytest.raises(DomainError, match="equal size"):
        w_assignment(three, two, 1.0)
    weighted = EmpiricalMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.25, 0.75]))
    for mu, nu in ((weighted, two), (two, weighted)):
        with pytest.raises(DomainError, match="uniform"):
            w_assignment(mu, nu, 1.0)
    # 2,049 points a side is above the 2^22 cells the cost matrix may hold
    wide = uniform_on(np.zeros(2049))
    with pytest.raises(SizeError):
        w_assignment(wide, wide, 1.0)


@pytest.mark.parametrize("p", [0.5, math.nan])
@pytest.mark.parametrize("estimator", ["w_1d", "sinkhorn_annealed", "w_assignment"])
def test_estimators_refuse_p_below_one_or_nan(estimator, p):
    # before, w_1d returned nan at p = nan, and sinkhorn_annealed returned a
    # number at p = 0.5 and ran out its iterations at p = nan
    rng = np.random.default_rng(8)
    mu, nu = uniform_on(rng.normal(size=8)), uniform_on(rng.normal(size=8))
    args = (0.1,) if estimator == "sinkhorn_annealed" else ()
    with pytest.raises(DomainError, match="p must be >= 1"):
        getattr(wasserstein, estimator)(mu, nu, p, *args)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 9, 16, 17])
def test_cost_matrix_matches_the_whole_difference_array_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    mu, nu = uniform_on(rng.normal(size=(300, dim))), uniform_on(rng.normal(size=(257, dim)))
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    distance = np.sqrt(np.sum(diff * diff, axis=-1))
    for p in (1.0, 1.5, 2.0, 3.0):
        assert np.array_equal(wasserstein._cost_matrix(mu, nu, p), distance**p)


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_cost_matrix_peaks_below_twice_its_result(dim):
    # traced peak at 2,048 x 2,048 points, a 32 MiB result: 96, 224 and
    # 544 MiB when the whole (k1, k2, dim) difference array and its square
    # were formed before summing
    n = 2048
    rng = np.random.default_rng(dim)
    mu, nu = uniform_on(rng.normal(size=(n, dim))), uniform_on(rng.normal(size=(n, dim)))
    tracemalloc.start()
    try:
        cost = wasserstein._cost_matrix(mu, nu, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cost.shape == (n, n)
    assert peak <= 2 * cost.nbytes


# ---------------------------------------------------------------------------
# sinkhorn
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("solver", [sinkhorn, sinkhorn_annealed])
def test_sinkhorn_refuses_an_epsilon_that_is_not_positive(solver, epsilon):
    # before, a NaN epsilon passed the check and ran out max_iter iterations
    rng = np.random.default_rng(8)
    mu, nu = uniform_on(rng.normal(size=8)), uniform_on(rng.normal(size=8))
    with pytest.raises(DomainError, match="epsilon must be positive"):
        solver(mu, nu, 2.0, epsilon)


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
    assert res.cost == pytest.approx(0.5753953922273356, rel=1e-12, abs=0.0)
    assert res.iterations == 35
    # the largest cost, 17.16, lies between 0.08 * 3^4 and 0.08 * 3^5
    assert stage_iterations == [5, 5, 5, 5, 15, 35]
    # a coupling's cost, no further above the exact W_2^2 than the 0.03823 of
    # ten stages warm-started with the raw log potential (cost 0.5755425208102791)
    exact = w_1d(mu, nu, 2.0) ** 2
    assert exact <= res.cost <= exact + 0.03823


@pytest.mark.parametrize(
    "epsilon, powers",
    [
        (100.0, [0]),
        (81.0, [0]),
        (27.0, [1, 0]),
        (1.0, [4, 3, 2, 1, 0]),
        (81.0 / 3**9, list(range(9, -1, -1))),
        (81.0 / 3**12, list(range(9, -1, -1))),
    ],
)
def test_sinkhorn_annealed_starts_at_the_cost_scale(monkeypatch, epsilon, powers):
    # the largest cost is 9^2 = 81 = 3^4: the first stage is the smallest
    # epsilon 3^k at or above it, and there are at most _N_STAGES stages
    mu, nu = uniform_on([0.0, 1.0, 3.0]), uniform_on([0.0, 9.0])
    stages = _stage_results(monkeypatch, mu, nu, 2.0, epsilon)
    assert [r.epsilon for r in stages] == [epsilon * 3.0**k for k in powers]


def test_sinkhorn_annealed_on_an_all_zero_cost():
    mu, nu = uniform_on([2.0, 2.0, 2.0]), uniform_on([2.0, 2.0])
    res = sinkhorn_annealed(mu, nu, 2.0, 0.1, max_iter=20000, tol=2e-4)
    assert res.epsilon == 0.1
    assert res.cost == 0.0


def test_sinkhorn_annealed_builds_one_cost_matrix_and_rounds_one_plan(monkeypatch):
    mu, nu = _ou_against_gaussian_quantiles()
    costs, roundings = [], []
    build, round_plan = wasserstein._cost_matrix, wasserstein._round_to_feasible

    def built(*args):
        costs.append(build(*args))
        return costs[-1]

    def rounded(*args):
        roundings.append(args)
        return round_plan(*args)

    monkeypatch.setattr(wasserstein, "_cost_matrix", built)
    monkeypatch.setattr(wasserstein, "_round_to_feasible", rounded)
    stages = _stage_results(monkeypatch, mu, nu, 2.0, 0.08)
    assert len(stages) == 6
    # one matrix for the schedule and every stage, released after the call
    assert len(costs) == 7 and all(c is costs[0] for c in costs)
    assert wasserstein._cost_memo.get() is None
    assert roundings == []
    # the final plan is rounded on the first read of its cost, and only then
    assert stages[-1].cost == pytest.approx(0.5753953922273356, rel=1e-12, abs=0.0)
    assert stages[-1].cost == stages[-1].cost
    assert len(roundings) == 1


def test_sinkhorn_annealed_holds_one_plan_at_a_time():
    # traced peak of one annealed call, its cost read, in bytes per cost
    # cell: the cost matrix, the stage's -C/epsilon and kernel, and two
    # temporaries of its first half-step (40.8 when every stage rounded its
    # plan before -C/epsilon was freed; 48 if a stage's plan outlived it)
    n = 512
    rng = np.random.default_rng(1)
    mu = uniform_on(0.7 + 0.6 * rng.standard_normal(n))
    nu = uniform_on(ndtri((np.arange(n) + 0.5) / n) * math.sqrt(0.5))
    tracemalloc.start()
    try:
        cost = sinkhorn_annealed(mu, nu, 2.0, 0.08, max_iter=20000, tol=2e-4).cost
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(cost)
    assert peak / n**2 <= 36.0
    assert held / n**2 <= 0.1


def _stage_results(monkeypatch, mu, nu, p, epsilon):
    # every stage's SinkhornResult, as sinkhorn_annealed passes through the
    # module's sinkhorn
    stages = []
    inner = wasserstein.sinkhorn

    def recorded(*args, **kwargs):
        try:
            result = inner(*args, **kwargs)
        except NonConvergenceError as exc:
            stages.append(exc.report)
            raise
        stages.append(result)
        return result

    monkeypatch.setattr(wasserstein, "sinkhorn", recorded)
    sinkhorn_annealed(mu, nu, p, epsilon, max_iter=20000, tol=2e-4)
    return stages


def _log_domain_stage(cost, a, b, eps, u):
    # one stage of the log-domain iteration on scipy's logsumexp, the
    # arithmetic the pinned values came from, at max_iter=20000 and tol=2e-4,
    # started from the log potential u: (iterations, rounded cost, u, v)
    max_iter, tol = 20000, 2e-4
    loga, logb = np.log(a), np.log(b)
    mr = -cost / eps
    col = logsumexp(mr + u[:, None], axis=0)
    for it in range(1, max_iter + 1):
        v = logb - col
        row = logsumexp(mr + v[None, :], axis=1)
        u = loga - row
        col = logsumexp(mr + u[:, None], axis=0)
        if it % 5 == 0 or it == max_iter:
            violation = np.abs(np.exp(u + row) - a).sum() + np.abs(np.exp(v + col) - b).sum()
            if violation < tol:
                break
    plan = wasserstein._round_to_feasible(np.exp(mr + u[:, None] + v[None, :]), a, b)
    return it, float(np.sum(plan * cost)), u, v


def _log_domain_annealed(mu, nu, p, epsilon):
    # the annealed log-domain iteration, one _log_domain_stage per stage.  The
    # schedule is written out here: epsilon 3^k, ..., 3 epsilon, epsilon, from
    # the smallest epsilon 3^k (k <= 9) at or above the largest cost, each
    # stage starting from the last one's dual potential epsilon u, so from 3 u
    mu, nu = mu.pruned(), nu.pruned()
    cost = wasserstein._cost_matrix(mu, nu, p)
    k = 0
    while k < 9 and epsilon * 3.0**k < cost.max():
        k += 1
    u = np.zeros(mu.size)
    stages = []
    for j in range(k, -1, -1):
        stages.append(_log_domain_stage(cost, mu.weights, nu.weights, epsilon * 3.0**j, u))
        u = 3.0 * stages[-1][2]
    return stages


def _cloud_pair(kind):
    rng = np.random.default_rng(17)
    if kind == "1d":
        return uniform_on(rng.normal(size=20)), uniform_on(rng.normal(1.0, 0.5, size=16))
    if kind == "2d":
        return uniform_on(rng.normal(size=(20, 2))), uniform_on(rng.normal(0.7, 1.0, size=(16, 2)))
    if kind == "weighted":
        wa, wb = rng.random(20), rng.random(16)
        wa[[1, 17]] = 0.0
        wb[[0, 15]] = 0.0
        return (
            EmpiricalMeasure(points=rng.normal(size=(20, 2)), weights=wa / wa.sum()),
            EmpiricalMeasure(points=rng.normal(0.5, 1.5, size=(16, 2)), weights=wb / wb.sum()),
        )
    # kind == "far": two clouds 20 apart
    return (
        uniform_on(rng.normal(size=(24, 2))),
        uniform_on(rng.normal(size=(20, 2)) + np.array([20.0, 0.0])),
    )


@pytest.mark.parametrize(
    "kind, p, eps_scale",
    [
        ("1d", 1.0, 1e-3),
        ("1d", 2.0, 1e-2),
        ("2d", 1.0, 1e-3),
        ("2d", 2.0, 1e-2),
        ("weighted", 1.0, 1e-2),
        ("weighted", 2.0, 1e-2),
        ("far", 1.0, 1e-4),
        ("far", 2.0, 1e-4),
    ],
)
def test_sinkhorn_annealed_matches_the_log_domain_iteration(monkeypatch, kind, p, eps_scale):
    mu, nu = _cloud_pair(kind)
    # scale^p: the mean pairwise cost between the clouds
    epsilon = eps_scale * float(np.mean(wasserstein._cost_matrix(mu.pruned(), nu.pruned(), p)))
    ours = _stage_results(monkeypatch, mu, nu, p, epsilon)
    ref = _log_domain_annealed(mu, nu, p, epsilon)
    assert [r.iterations for r in ours] == [it for it, _, _, _ in ref]
    for r, (_, cost, u, v) in zip(ours, ref):
        assert r.cost == pytest.approx(cost, rel=1e-10, abs=0.0)
        # relative to the potential's largest entry: entries near 0 carry
        # the same absolute rounding
        assert np.max(np.abs(r.log_u - u)) <= 1e-10 * np.max(np.abs(u))
        assert np.max(np.abs(r.log_v - v)) <= 1e-10 * np.max(np.abs(v))


def test_sinkhorn_far_clouds_take_the_exact_half_step():
    # a cold start at an epsilon 1.5e4 times below the largest cost: the
    # first half-step leaves whole kernel rows below the smallest double, so
    # alpha = a / (K beta) is not finite there and the call must redo its
    # half-steps in the log domain
    mu, nu = _cloud_pair("far")
    cost = wasserstein._cost_matrix(mu, nu, 2.0)
    epsilon = 1e-4 * float(np.mean(cost))
    mr = -cost / epsilon
    v = np.log(nu.weights) - logsumexp(mr, axis=0)
    assert (np.exp(mr + v[None, :]).max(axis=1) == 0.0).any()
    ours = sinkhorn(mu, nu, 2.0, epsilon, max_iter=20000, tol=2e-4)
    assert ours.absorptions > 0
    it, cost_ref, u, v = _log_domain_stage(cost, mu.weights, nu.weights, epsilon, np.zeros(mu.size))
    assert ours.iterations == it
    assert ours.cost == pytest.approx(cost_ref, rel=1e-10, abs=0.0)
    assert np.max(np.abs(ours.log_u - u)) <= 1e-10 * np.max(np.abs(u))
    assert np.max(np.abs(ours.log_v - v)) <= 1e-10 * np.max(np.abs(v))


def test_sinkhorn_pinned_instance_runs_on_the_scaling_path(monkeypatch):
    # no stage of the pinned instance leaves the scaling range: a fallback to
    # the log domain on every half-step would count 2 per iteration
    mu, nu = _ou_against_gaussian_quantiles()
    stages = _stage_results(monkeypatch, mu, nu, 2.0, 0.08)
    assert [r.absorptions for r in stages] == [0] * 6


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
