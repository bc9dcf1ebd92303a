"""Tests for synchronous-coupling experiments and their certificates.

Hand-derived oracles:

* scalar queueing drift ``m, gamma > 0``: the two dissipativity matrices
  reduce to ``(2m, 2 gamma)``, so ``c(2) = 2 min(m, gamma)``;
* 2-D case ``M = I``, ``Gamma = diag(2, 3)``, ``v = e1``, ``Q = I``: the
  second matrix is ``[[4, 1], [1, 2]]`` with smallest eigenvalue
  ``3 - sqrt(2)``, which is below ``2`` (the first matrix's), so
  ``c(2) = 3 - sqrt(2)``;
* a 1-D Ornstein-Uhlenbeck pair coupled through shared noise has difference
  path ``(x - y) e^{-t}`` up to floating-point roundoff, so the fitted decay
  rate equals 1 and the p-moment curve equals ``|x - y| e^{-t}``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ergolab.coupling import (
    CoupledBatch,
    CouplingReport,
    DissipativityParams,
    contraction_estimate,
    find_q,
    prop35_cp,
    synchronous_pair_sim,
)
from ergolab.errors import (
    ConfigError,
    DomainError,
    InsufficientPathsError,
    NotDissipativeError,
)
from ergolab.lyapunov import QuadForm
from ergolab.processes import (
    _BLOCK_SIZE,
    BackwardRecurrence,
    CompoundPoisson,
    DiscreteJumps,
    LangevinTempered,
    LevyMeasureSpec,
    OUJump,
    PiecewiseOU,
    SymmetricStable,
    simulate,
)
from ergolab.rates import FIT_MIN_POINTS, fit_rate
from user_callables import GenericIto


def _queue(M, Gamma, v):
    """The noiseless piecewise-OU spec whose ``M``, ``Gamma`` and ``v`` a
    certificate reads."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return PiecewiseOU(l=np.zeros(M.shape[0]), M=M, Gamma=Gamma, v=v, sigma=None,
                       levy=LevyMeasureSpec())


def _ou_1d(noise=1.0):
    a_l = np.array([[noise]]) if noise else None
    return OUJump(H=np.array([[-1.0]]), levy=LevyMeasureSpec(a_L=a_l))


def _scalar_queue(sigma=0.8, rate=1.0):
    jumps = DiscreteJumps(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
    return PiecewiseOU(
        l=np.array([0.5]),
        M=np.array([[1.0]]),
        Gamma=np.array([[1.0]]),
        v=np.array([1.0]),
        sigma=np.array([[sigma]]),
        levy=LevyMeasureSpec(kind=CompoundPoisson(rate, jumps)),
    )


# ---------------------------------------------------------------------------
# prop35_cp
# ---------------------------------------------------------------------------


def test_prop35_cp_scalar_oracle():
    q = QuadForm(np.array([[1.0]]))
    got = prop35_cp(_queue([[1.5]], [[0.7]], [1.0]), q, 0.0, 2.0)
    assert got == pytest.approx(2.0 * min(1.5, 0.7), abs=1e-14)


def test_prop35_cp_matrix_oracle_2d():
    # M = I, Gamma = diag(2, 3), v = e1: second matrix [[4, 1], [1, 2]],
    # eigenvalues 3 +- sqrt(2); first matrix 2I.  kappa = 3 - sqrt(2).
    q = QuadForm(np.eye(2))
    got = prop35_cp(_queue(np.eye(2), np.diag([2.0, 3.0]), [1.0, 0.0]), q, 0.0, 2.0)
    assert got == pytest.approx(3.0 - math.sqrt(2.0), abs=1e-12)


def test_prop35_cp_linear_in_p_without_diffusion():
    q = QuadForm(np.array([[1.0]]))
    m, g = np.array([[2.0]]), np.array([[1.2]])
    kappa = 2.0 * 1.2
    for p in (1.0, 2.0, 3.5):
        got = prop35_cp(_queue(m, g, [1.0]), q, 0.0, p)
        assert got == pytest.approx(p * kappa / 2.0, abs=1e-14)


def test_prop35_cp_diffusion_penalty():
    # c(3) = (3/2)(2/1 - 2 * 0.25/1) = 2.25 for m = gamma = 1, lip = 0.5.
    q = QuadForm(np.array([[1.0]]))
    got = prop35_cp(_queue([[1.0]], [[1.0]], [1.0]), q, 0.5, 3.0)
    assert got == pytest.approx(2.25, abs=1e-14)


def test_prop35_cp_gamma_zero_not_dissipative():
    q = QuadForm(np.array([[1.0]]))
    with pytest.raises(NotDissipativeError):
        prop35_cp(_queue([[1.0]], [[0.0]], [1.0]), q, 0.0, 2.0)


def test_prop35_cp_indefinite_first_matrix():
    # M is a nonsingular M-matrix with e'M = [1, 0], so the spec takes it;
    # with Q = diag(1, 0.1), MQ + QM has symmetric part [[2, -1.65],
    # [-1.65, 0.6]], whose determinant is -1.5225.
    q = QuadForm(np.diag([1.0, 0.1]))
    spec = _queue([[1.0, -3.0], [0.0, 3.0]], np.eye(2), [1.0, 0.0])
    with pytest.raises(NotDissipativeError, match="MQ \\+ QM"):
        prop35_cp(spec, q, 0.0, 2.0)


def test_prop35_cp_may_return_nonpositive_rate():
    # Large diffusion Lipschitz constant: caller must check the sign.
    q = QuadForm(np.array([[1.0]]))
    got = prop35_cp(_queue([[1.0]], [[1.0]], [1.0]), q, 5.0, 2.0)
    assert got < 0


def test_dissipativity_params_validation_and_envelope():
    q = QuadForm(np.diag([4.0, 1.0]))
    params = DissipativityParams(q=q, p=2.0, c_p=2.0)
    t = np.array([0.0, 1.0])
    env = params.envelope(t, 3.0)
    assert env == pytest.approx([6.0, 6.0 * math.exp(-1.0)], rel=1e-14)
    with pytest.raises(DomainError):
        DissipativityParams(q=q, p=0.5, c_p=1.0)


# ---------------------------------------------------------------------------
# find_q
# ---------------------------------------------------------------------------


def test_find_q_symmetric_case_returns_identity():
    got = find_q(_queue(np.eye(2), np.eye(2), [1.0, 0.0]))
    assert isinstance(got, QuadForm)
    assert np.allclose(got.Q, np.eye(2), atol=1e-12)


def test_find_q_scalar_matches_prop35():
    spec = _queue([[3.0]], [[2.0]], [1.0])
    got = find_q(spec)
    assert isinstance(got, QuadForm)
    c2 = prop35_cp(spec, got, 0.0, 2.0)
    assert c2 == pytest.approx(4.0, abs=1e-12)


def test_find_q_gamma_zero_not_found():
    with pytest.raises(NotDissipativeError, match="no diagonal Q on the grid"):
        find_q(_queue(np.eye(2), np.zeros((2, 2)), [1.0, 0.0]))


@pytest.mark.parametrize("dim", [1, 2])
def test_certificates_refuse_another_family(dim):
    # only a piecewise OU spec has the M, Gamma and v the certificate reads
    spec = LangevinTempered(alpha=0.2, beta=0.1, dim=dim)
    with pytest.raises(ConfigError, match="apply to the piecewise_ou family"):
        find_q(spec)
    with pytest.raises(ConfigError, match="apply to the piecewise_ou family"):
        prop35_cp(spec, QuadForm(np.eye(dim)), 0.0, 2.0)


# ---------------------------------------------------------------------------
# synchronous_pair_sim
# ---------------------------------------------------------------------------


def _stacked(spec, x, y, grid, n_paths, seed, max_step=0.01):
    """The two marginals of the synchronous coupling from ``x`` and ``y``:
    the batches one stacked :func:`simulate` call walks."""
    return simulate(spec, np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]),
                    grid, n_paths, seed, max_step=max_step)


def test_pair_sim_equal_starts_bit_exact():
    grid = np.linspace(0.0, 1.0, 5)
    a, b = _stacked(_ou_1d(), [1.0], [1.0], grid, 64, seed=3)
    assert np.array_equal(a.paths, b.paths)
    pair = synchronous_pair_sim(_ou_1d(), np.array([1.0]), np.array([1.0]), grid, 64, seed=3)
    assert np.all(pair.table == 0.0)


def test_pair_sim_ou_difference_is_deterministic_decay():
    grid = np.linspace(0.0, 3.0, 13)
    a, b = _stacked(_ou_1d(), [2.0], [-1.0], grid, 128, seed=7)
    diff = a.paths[:, :, 0] - b.paths[:, :, 0]
    expected = 3.0 * np.exp(-grid)
    assert np.allclose(diff, expected[None, :], rtol=1e-9, atol=1e-11)
    pair = synchronous_pair_sim(_ou_1d(), np.array([2.0]), np.array([-1.0]), grid, 128, seed=7)
    assert np.array_equal(pair.table, np.abs(diff).T)


def test_pair_sim_marginals_match_simulate_in_law():
    grid = np.array([0.0, 1.0])
    x, y = np.array([2.0]), np.array([-1.0])
    pair = _stacked(_ou_1d(), x, y, grid, 4000, seed=11)
    ind_x = simulate(_ou_1d(), x, grid, 4000, seed=77)
    ind_y = simulate(_ou_1d(), y, grid, 4000, seed=78)
    for got, ref in zip(pair, (ind_x, ind_y)):
        p_val = stats.ks_2samp(got.paths[:, 1, :].ravel(), ref.paths[:, 1, :].ravel()).pvalue
        assert p_val > 0.001


def _network_2d():
    # non-diagonal M and dense sigma, unlike the pinned configs' M = I, so
    # every term of each product carries rounding
    jumps = DiscreteJumps(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]), [0.4, 0.4, 0.2])
    return PiecewiseOU(
        l=np.array([0.2, -0.1]),
        M=np.array([[2.0, -0.5], [-0.8, 1.5]]),
        Gamma=np.diag([0.5, 1.0]),
        v=np.array([0.6, 0.4]),
        sigma=np.array([[0.5, 0.1], [0.2, 0.4]]),
        levy=LevyMeasureSpec(kind=CompoundPoisson(3.0, jumps)),
    )


def _dense_sigma(x):
    t = np.tanh(x)
    return 0.3 * np.eye(3) + 0.1 * t[:, :, None] * t[:, None, :]


_MARGINAL_CASES = {
    "piecewise-ou-2d": (_network_2d(), [3.0, 1.0], [-1.0, -2.0], [0.0, 0.25, 0.5], 300),
    "generic-ito-dense-sigma": (
        GenericIto(b=lambda x: -x * np.abs(x), sigma=_dense_sigma, levy=LevyMeasureSpec(), dim=3),
        [1.0, -0.5, 2.0], [0.0, 0.3, -1.0], [0.0, 0.2, 0.4], 300,
    ),
    "langevin": (LangevinTempered(alpha=0.2, beta=0.1, dim=2), [2.0, 0.5], [-0.3, 0.1],
                 [0.0, 0.2, 0.4], 300),
    "ou-jump-stable": (
        OUJump(H=[[-1.0, 0.4], [-0.3, -2.0]], levy=LevyMeasureSpec(
            kind=SymmetricStable(alpha=1.5), b_L=[0.3, -0.2], a_L=[[1.0, 0.2], [0.2, 0.5]])),
        [2.0, -1.0], [0.5, 0.5], [0.0, 0.3, 0.6], 300,
    ),
    "chain": (BackwardRecurrence(alpha=3.0, i0=5), [4.0], [0.0], [0, 1, 5, 20], 300),
    "across-blocks": (_network_2d(), [3.0, 1.0], [-1.0, -2.0], [0.0, 0.03], _BLOCK_SIZE + 100),
}


@pytest.mark.parametrize("case", list(_MARGINAL_CASES))
def test_pair_sim_marginals_are_simulate_outputs_bit_for_bit(case):
    # the stacked walk the pair runs gives each start's one-start paths, and
    # the pair's table is the norm of their difference
    spec, x, y, grid, n_paths = _MARGINAL_CASES[case]
    a, b = _stacked(spec, x, y, grid, n_paths, seed=13)
    alone_x = simulate(spec, x, grid, n_paths, seed=13)
    alone_y = simulate(spec, y, grid, n_paths, seed=13)
    assert np.array_equal(a.paths, alone_x.paths)
    assert np.array_equal(b.paths, alone_y.paths)
    assert not np.array_equal(a.paths[:, 1], b.paths[:, 1])
    pair = synchronous_pair_sim(spec, x, y, grid, n_paths, seed=13)
    assert np.array_equal(pair.table, np.linalg.norm(a.paths - b.paths, axis=2).T)


def test_pair_sim_queue_difference_deterministic_given_shared_jumps():
    # m = gamma makes the drift globally linear, so the difference follows the
    # noise-free Euler recursion diff <- diff * (1 - dt) regardless of the
    # shared Brownian increments and compound-Poisson jumps.
    spec = _scalar_queue()
    grid = np.array([0.0, 0.5, 1.0])
    a, b = _stacked(spec, [1.8], [0.3], grid, 300, seed=5)
    diff = a.paths[:, :, 0] - b.paths[:, :, 0]
    assert np.ptp(diff, axis=0).max() < 1e-11
    expected = 1.5 * (1.0 - 0.01) ** np.array([0.0, 50.0, 100.0])
    assert np.allclose(diff[0], expected, rtol=1e-11)


def test_coupled_batch_validates_alignment():
    grid = np.linspace(0.0, 1.0, 5)
    pair = synchronous_pair_sim(_ou_1d(), np.array([1.0]), np.array([0.0]), grid, 16, seed=1)
    with pytest.raises(ConfigError):
        CoupledBatch(times=grid[:-1], table=pair.table)
    with pytest.raises(ConfigError):
        CoupledBatch(times=grid, table=pair.table[:, 0])
    # the table is read-only, so an estimate cannot change what the next reads
    with pytest.raises(ValueError):
        pair.table[0, 0] = 1.0
    assert pair.n_paths == 16


def test_separation_table_needs_exactly_two_starts():
    grid = np.linspace(0.0, 1.0, 3)
    for x0 in ([1.0], [[1.0]], [[1.0], [0.0], [2.0]]):
        with pytest.raises(ConfigError, match="two starts"):
            simulate(_ou_1d(), x0, grid, 8, seed=1, separation=True)


# ---------------------------------------------------------------------------
# separations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dim, n_paths", [(1, 500), (2, 500), (3, 500), (9, 500), (2, _BLOCK_SIZE + 100)],
    ids=["1", "2", "3", "9", "2-across-blocks"],
)
def test_separations_match_the_whole_block_norm_bit_for_bit(dim, n_paths):
    # the pair's table, made a grid time and a block at a time, against the
    # norm of the whole difference of the stacked call's two path blocks
    # a state-dependent sigma, so the separations differ path by path
    spec = GenericIto(b=lambda x: -x, sigma=lambda x: 0.3 * np.tanh(x), levy=LevyMeasureSpec(),
                      dim=dim)
    rng = np.random.default_rng(dim)
    x, y = rng.standard_normal(dim), rng.standard_normal(dim)
    grid = np.linspace(0.0, 0.3, 7)
    pair = synchronous_pair_sim(spec, x, y, grid, n_paths, seed=dim, max_step=0.05)
    a, b = _stacked(spec, x, y, grid, n_paths, seed=dim, max_step=0.05)
    whole_block = np.linalg.norm(a.paths - b.paths, axis=2)
    table = pair.separations()
    assert table.shape == (n_paths, 7)
    assert np.array_equal(table, whole_block)
    # each grid time's distances are one contiguous row of the transpose
    assert table.T.flags.c_contiguous
    assert np.unique(table[:, -1]).size > 1


def _whole_block_estimate(separations, times, p, params, n_boot, seed):
    """:func:`contraction_estimate` as it read a copy of the whole-block norm."""
    n = separations.shape[0]
    dist_p = separations.T.copy()
    dist_p **= p
    moment = np.mean(dist_p, axis=1) ** (1.0 / p)
    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, times.shape[0]))
    for b in range(n_boot):
        counts = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
        boot[b] = (np.einsum("i,ti->t", counts, dist_p) / n) ** (1.0 / p)
    se = boot.std(axis=0, ddof=1)
    usable = moment > 10.0 * se
    fitted_rate = math.nan
    if usable.sum() >= FIT_MIN_POINTS:
        fitted_rate = fit_rate(times[usable], moment[usable], "exponential").rate
    envelope = params.envelope(times, float(separations[0, 0]))
    slack = 3.0 * se + 1e-12 * np.maximum(envelope, 1.0)
    return {
        "moment_curve": moment,
        "ci_lo": np.percentile(boot, 2.5, axis=0),
        "ci_hi": np.percentile(boot, 97.5, axis=0),
        "boot_se": se,
        "fitted_rate": fitted_rate,
        "envelope": envelope,
        "violations": int(np.count_nonzero(moment > envelope + slack)),
    }


def _couple_2d_like():
    jumps = DiscreteJumps(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]),
                          np.array([0.4, 0.4, 0.2]))
    return PiecewiseOU(
        l=np.zeros(2), M=np.eye(2), Gamma=0.5 * np.eye(2), v=np.array([0.6, 0.4]),
        sigma=0.5 * np.eye(2), levy=LevyMeasureSpec(kind=CompoundPoisson(1.0, jumps)),
    )


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_contraction_estimate_matches_the_whole_block_estimate(p):
    spec = _couple_2d_like()
    grid = np.linspace(0.0, 3.0, 13)
    x, y = np.array([3.0, 1.0]), np.array([-1.0, -2.0])
    pair = synchronous_pair_sim(spec, x, y, grid, 400, seed=1, max_step=0.05)
    a, b = _stacked(spec, x, y, grid, 400, seed=1, max_step=0.05)
    q = find_q(spec)
    params = DissipativityParams(q=q, p=p, c_p=prop35_cp(spec, q, 0.0, p))
    report = contraction_estimate(pair, p, params=params, n_boot=60, seed=5)
    expected = _whole_block_estimate(np.linalg.norm(a.paths - b.paths, axis=2), grid, p,
                                     params, n_boot=60, seed=5)
    assert np.array_equal(report.times, grid)
    for name, value in expected.items():
        assert np.array_equal(getattr(report, name), value, equal_nan=True), name


def test_contraction_estimate_holds_one_separation_table():
    # traced peaks on a 2-D pair of 50,000 paths x 13 grid times, against the
    # 5.2 MB table.  The whole pair, walk and estimate: the pair's table, one
    # block's walk, then the estimate's table of p-th powers and the
    # bootstrap's per-draw index and count vectors (5.5 times the table when
    # the pair kept both path blocks).  The estimate alone, on that pair: its
    # table of p-th powers and the bootstrap's vectors (6.0 times when the
    # whole-block norm made three block-sized temporaries)
    grid = np.linspace(0.0, 3.0, 13)
    table_bytes = 50_000 * 13 * 8
    tracemalloc.start()
    try:
        pair = synchronous_pair_sim(_couple_2d_like(), np.array([3.0, 1.0]),
                                    np.array([-1.0, -2.0]), grid, 50_000, seed=4,
                                    max_step=0.25)
        report = contraction_estimate(pair, 2.0, n_boot=20, seed=1)
        whole = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        again = contraction_estimate(pair, 2.0, n_boot=20, seed=1)
        alone = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.moment_curve.shape == (13,)
    assert np.array_equal(again.moment_curve, report.moment_curve)
    assert whole <= 2.5 * table_bytes
    assert alone <= 2 * table_bytes


# ---------------------------------------------------------------------------
# contraction_estimate
# ---------------------------------------------------------------------------


def test_contraction_estimate_ou_rate_and_envelope():
    grid = np.linspace(0.0, 3.0, 13)
    pair = synchronous_pair_sim(_ou_1d(), np.array([2.0]), np.array([-1.0]), grid, 200, seed=2)
    q = QuadForm(np.array([[1.0]]))
    c2 = prop35_cp(_queue([[1.0]], [[1.0]], [1.0]), q, 0.0, 2.0)
    report = contraction_estimate(pair, 2.0, params=DissipativityParams(q=q, p=2.0, c_p=c2))
    assert np.allclose(report.moment_curve, 3.0 * np.exp(-grid), rtol=1e-8)
    assert report.moment_curve[0] == pytest.approx(3.0, rel=1e-12)
    assert abs(report.fitted_rate - 1.0) < 0.02
    assert np.allclose(report.envelope, 3.0 * np.exp(-grid), rtol=1e-12)
    assert report.violations == 0


def test_contraction_estimate_fits_through_fit_rate():
    grid = np.linspace(0.0, 3.0, 13)
    pair = synchronous_pair_sim(_ou_1d(), np.array([2.0]), np.array([-1.0]), grid, 200, seed=2)
    report = contraction_estimate(pair, 2.0)
    usable = report.moment_curve > 10.0 * report.boot_se
    assert usable.sum() >= FIT_MIN_POINTS
    fit = fit_rate(grid[usable], report.moment_curve[usable], "exponential")
    assert report.fitted_rate == fit.rate


def test_contraction_estimate_equal_starts_zero_curve():
    grid = np.linspace(0.0, 2.0, 9)
    pair = synchronous_pair_sim(_ou_1d(), np.array([1.0]), np.array([1.0]), grid, 150, seed=4)
    report = contraction_estimate(pair, 2.0)
    assert np.all(report.moment_curve == 0.0)
    assert math.isnan(report.fitted_rate)
    assert report.envelope is None
    assert report.violations == 0


def test_contraction_estimate_requires_paths():
    grid = np.linspace(0.0, 1.0, 5)
    pair = synchronous_pair_sim(_ou_1d(), np.array([1.0]), np.array([0.0]), grid, 50, seed=6)
    with pytest.raises(InsufficientPathsError):
        contraction_estimate(pair, 2.0)


def test_contraction_estimate_queueing_network_meets_prop35_rate():
    jumps = DiscreteJumps(np.array([[0.4, 0.0], [-0.4, 0.0]]), np.array([0.5, 0.5]))
    spec = PiecewiseOU(
        l=np.array([0.2, 0.2]),
        M=np.eye(2),
        Gamma=np.eye(2),
        v=np.array([1.0, 0.0]),
        sigma=0.5 * np.eye(2),
        levy=LevyMeasureSpec(kind=CompoundPoisson(1.0, jumps)),
    )
    grid = np.linspace(0.0, 2.0, 9)
    x, y = np.array([2.0, 1.0]), np.array([-1.0, 0.5])
    pair = synchronous_pair_sim(spec, x, y, grid, 256, seed=9)
    q = find_q(spec)
    assert isinstance(q, QuadForm)
    c2 = prop35_cp(spec, q, 0.0, 2.0)
    assert c2 == pytest.approx(2.0, abs=1e-12)
    report = contraction_estimate(pair, 2.0, params=DissipativityParams(q=q, p=2.0, c_p=c2))
    assert report.fitted_rate >= c2 / 2.0 - 1e-9
    assert report.fitted_rate < 1.02
    assert report.violations == 0
    sep0 = float(np.linalg.norm(x - y))
    assert np.allclose(report.envelope, sep0 * np.exp(-grid), rtol=1e-12)


def test_contraction_estimate_bootstrap_brackets_moment():
    # Multiplicative noise makes the difference genuinely random.
    spec = GenericIto(b=lambda x: -x, sigma=lambda x: 0.3 * x, levy=LevyMeasureSpec(), dim=1)
    grid = np.linspace(0.0, 2.0, 9)
    pair = synchronous_pair_sim(spec, np.array([2.0]), np.array([1.0]), grid, 400, seed=12)
    report = contraction_estimate(pair, 2.0, n_boot=300, seed=1)
    assert np.all(report.ci_lo <= report.moment_curve + 1e-12)
    assert np.all(report.moment_curve <= report.ci_hi + 1e-12)
    assert np.all(report.ci_hi[1:] > report.ci_lo[1:])
    assert 0.8 < report.fitted_rate < 1.1


def test_contraction_estimate_needs_two_bootstrap_draws():
    grid = np.linspace(0.0, 1.0, 5)
    pair = synchronous_pair_sim(_ou_1d(), np.array([2.0]), np.array([-1.0]), grid, 100, seed=4)
    for n_boot in (0, 1):
        with pytest.raises(DomainError, match="n_boot"):
            contraction_estimate(pair, 2.0, n_boot=n_boot)
    assert np.all(np.isfinite(contraction_estimate(pair, 2.0, n_boot=2).boot_se))


def test_contraction_estimate_deterministic_given_seed():
    spec = GenericIto(b=lambda x: -x, sigma=lambda x: 0.3 * x, levy=LevyMeasureSpec(), dim=1)
    grid = np.linspace(0.0, 1.0, 5)
    pair = synchronous_pair_sim(spec, np.array([2.0]), np.array([1.0]), grid, 150, seed=3)
    a = contraction_estimate(pair, 2.0, n_boot=100, seed=21)
    b = contraction_estimate(pair, 2.0, n_boot=100, seed=21)
    assert np.array_equal(a.ci_lo, b.ci_lo) and np.array_equal(a.ci_hi, b.ci_hi)
    # the 5 moments span less than one e-fold, which fit_rate refuses
    assert np.array_equal(a.fitted_rate, b.fitted_rate, equal_nan=True)
    assert math.isnan(a.fitted_rate)
