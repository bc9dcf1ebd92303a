"""Tests for process specifications, simulation, and exact reference objects."""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.stats import kstest

from ergolab.errors import BlowUpError, ConfigError, DomainError
from ergolab.processes import (
    BackwardRecurrence,
    CompoundPoisson,
    DiscreteJumps,
    GaussianLaw,
    LangevinTempered,
    LevyMeasureSpec,
    NoJumps,
    OUJump,
    PiecewiseOU,
    StableSubordinatorMeasure,
    SymmetricStable,
    _DRAW_DEPTH,
    _PASS_CHUNK,
    _block_rng,
    _cms,
    _cms_draws,
    _cms_streams,
    _cms_transform,
    _drawn_ahead,
    _expm,
    _in_chunks,
    _normal_quantile,
    _up_thresholds,
    langevin_coeffs,
    langevin_density,
    ou_exact_transition,
    sigma_at,
    simulate,
    standard_one_sided_stable,
    step_plan,
)
from user_callables import GenericIto


# ---------------------------------------------------------------------------
# specification validation
# ---------------------------------------------------------------------------


def test_levy_measure_validation():
    with pytest.raises(ConfigError):
        LevyMeasureSpec(a_L=np.array([[1.0, 0.5], [0.2, 1.0]]))  # not symmetric
    with pytest.raises(ConfigError):
        LevyMeasureSpec(a_L=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    with pytest.raises(ConfigError):
        DiscreteJumps(atoms=np.array([1.0, -1.0]), probs=np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        CompoundPoisson(rate=0.0, jump_dist=DiscreteJumps([1.0], [1.0]))
    with pytest.raises(ConfigError):
        SymmetricStable(alpha=2.0)
    with pytest.raises(ConfigError):
        StableSubordinatorMeasure(alpha=1.0)


def test_process_specs_state_their_facts():
    ou = OUJump(H=[[-2.0]], levy=LevyMeasureSpec(a_L=[[1.0]]))
    assert (ou.dim, ou.discrete_time, ou.invariant) == (1, False, GaussianLaw(0.5))
    jumpy = OUJump(H=[[-2.0]], levy=LevyMeasureSpec(kind=SymmetricStable(1.5), a_L=[[1.0]]))
    assert jumpy.invariant is None
    chain = BackwardRecurrence(alpha=3.0, i0=5)
    assert (chain.dim, chain.discrete_time, chain.invariant) == (1, True, chain)
    lang = LangevinTempered(alpha=0.2, beta=0.1, dim=2)
    assert (lang.dim, lang.discrete_time, lang.invariant) == (2, False, None)
    x = np.array([[2.0, 0.5], [0.1, -0.2]])
    b, sig = langevin_coeffs(lang, x)
    assert np.array_equal(lang.drift(x), b) and np.array_equal(lang.sigma(x), sig)
    pw = PiecewiseOU(
        l=[1.0, 0.0], M=np.eye(2), Gamma=np.eye(2), v=[0.5, 0.5],
        sigma=None, levy=LevyMeasureSpec(),
    )
    assert pw.dim == 2
    assert np.array_equal(pw.drift(x), [pw.drift(row) for row in x])
    assert np.allclose(ou.drift(np.array([[3.0]])), [[-6.0]])
    # only the chain's law states its tail in closed form
    assert chain.invariant.tail(np.array([-1.0, 4.5])) == pytest.approx(
        [1.0, chain.mass(np.arange(5, 100_000)).sum()], rel=1e-4
    )
    assert ou.invariant.tail is None and pw.invariant is None


def test_piecewise_ou_validation():
    levy = LevyMeasureSpec()
    ok = dict(
        l=np.zeros(2),
        M=np.eye(2),
        Gamma=np.eye(2),
        v=np.array([1.0, 0.0]),
        sigma=None,
        levy=levy,
    )
    PiecewiseOU(**ok)
    with pytest.raises(ConfigError):  # control off the simplex
        PiecewiseOU(**{**ok, "v": np.array([0.5, 0.1])})
    with pytest.raises(ConfigError):  # nor is a NaN entry on it
        PiecewiseOU(**{**ok, "v": np.array([np.nan, 1.0])})
    with pytest.raises(ConfigError):  # positive off-diagonal: not an M-matrix
        PiecewiseOU(**{**ok, "M": np.array([[1.0, 0.5], [0.0, 1.0]])})
    with pytest.raises(ConfigError):  # eigenvalue in the left half-plane
        PiecewiseOU(**{**ok, "M": np.array([[-1.0, 0.0], [0.0, 1.0]])})
    with pytest.raises(ConfigError):  # e'M has a negative component
        PiecewiseOU(**{**ok, "M": np.array([[1.0, -2.0], [0.0, 1.0]])})
    with pytest.raises(ConfigError):  # Gamma not nonnegative diagonal
        PiecewiseOU(**{**ok, "Gamma": np.array([[1.0, 0.2], [0.2, 1.0]])})


def test_process_parts_must_match_the_dimension():
    # each part sized for another dimension than the 2-D process is refused
    # when the spec is built, by the family or, for the Lévy part, by the
    # one check both families call
    pw = dict(l=np.zeros(2), M=np.eye(2), Gamma=np.eye(2), v=[0.5, 0.5], sigma=None,
              levy=LevyMeasureSpec())
    cases = [
        ("v", {"v": [1.0]}),
        ("sigma", {"sigma": [[0.5]]}),
        ("sigma", {"sigma": np.eye(3)}),
    ]
    bad_levies = [
        ("b_L", LevyMeasureSpec(b_L=[1.0, 1.0, 1.0])),
        ("b_L", LevyMeasureSpec(b_L=[1.0])),
        ("a_L", LevyMeasureSpec(a_L=[[1.0]])),
        ("jumps", LevyMeasureSpec(kind=CompoundPoisson(1.0, DiscreteJumps([1, -1], [0.5, 0.5])))),
        ("jumps", LevyMeasureSpec(kind=StableSubordinatorMeasure(alpha=0.5))),
    ]
    for part, change in cases + [(part, {"levy": levy}) for part, levy in bad_levies]:
        with pytest.raises(ConfigError, match=part):
            PiecewiseOU(**{**pw, **change})
    for part, levy in bad_levies:
        with pytest.raises(ConfigError, match=part):
            OUJump(H=-np.eye(2), levy=levy)
    # parts of the right size, and jumps that fit any dimension, are accepted
    fits = LevyMeasureSpec(kind=SymmetricStable(alpha=1.5), b_L=[1.0, 0.0], a_L=np.eye(2))
    OUJump(H=-np.eye(2), levy=fits)
    PiecewiseOU(**{**pw, "sigma": np.eye(2), "levy": fits})


def test_backward_recurrence_validation_and_up_prob():
    with pytest.raises(ConfigError):
        BackwardRecurrence(alpha=1.0, i0=4)
    with pytest.raises(ConfigError):
        BackwardRecurrence(alpha=2.0, i0=3)  # needs i0 > 1 + alpha
    spec = BackwardRecurrence(alpha=2.0, i0=4)
    assert spec.up_prob(np.array([0.0]))[0] == 1.0
    assert spec.up_prob(np.array([2.0]))[0] == 0.5
    assert spec.up_prob(np.array([10.0]))[0] == pytest.approx(0.7)


def test_langevin_validation():
    with pytest.raises(ConfigError):
        LangevinTempered(alpha=0.6, beta=0.0, dim=2)  # alpha >= 1/n
    with pytest.raises(ConfigError):
        LangevinTempered(alpha=0.25, beta=0.9, dim=1)  # beta above the cap


# ---------------------------------------------------------------------------
# stable sampling
# ---------------------------------------------------------------------------


def test_stable_alpha2_is_gaussian_variance():
    x = 0.7 * _cms(2.0, 0.0, _block_rng(11, 0), 1_000_000)
    assert np.var(x) == pytest.approx(2 * 0.7**2, rel=0.02)
    assert np.mean(x) == pytest.approx(0.0, abs=0.01)


def test_stable_alpha1_is_cauchy():
    x = _cms(1.0, 0.0, _block_rng(7, 0), 1_000_000)
    stat = kstest(x, "cauchy").statistic
    assert stat < 0.005


def test_stable_one_sided_positive():
    x = _cms(0.5, 1.0, _block_rng(3, 0), 100_000)
    assert np.all(x > 0)


def test_standard_one_sided_stable_laplace_transform():
    rng = np.random.Generator(np.random.Philox(99))
    s = standard_one_sided_stable(0.5, rng, 1_000_000)
    for u in (0.5, 1.0, 2.0):
        emp = np.mean(np.exp(-u * s))
        assert emp == pytest.approx(math.exp(-(u**0.5)), rel=0.01)


# ---------------------------------------------------------------------------
# exact invariant distribution of the backward recurrence chain
# ---------------------------------------------------------------------------


def test_invariant_exact_frozen_values():
    # independent series oracle (exact rational summation) for alpha=2, i0=4:
    # normalizer c = 15/16, so pi(0) = pi(1) = 16/47, pi(2) = 8/47,
    # pi(3) = 4/47, pi(4) = 2/47, pi(5) = 1/94
    spec = BackwardRecurrence(alpha=2.0, i0=4)
    states, w = spec.invariant.atoms()
    assert w[0] == pytest.approx(16 / 47, abs=1e-12)
    assert w[1] == pytest.approx(16 / 47, abs=1e-12)
    assert w[2] == pytest.approx(8 / 47, abs=1e-12)
    assert w[3] == pytest.approx(4 / 47, abs=1e-12)
    assert w[4] == pytest.approx(2 / 47, abs=1e-12)
    assert w[5] == pytest.approx(1 / 94, abs=1e-12)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w[1] / w[0] == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(states[:3, 0], [0.0, 1.0, 2.0])


def test_chain_table_ends_where_its_tail_falls_below_1e12():
    # the table holds states 0 .. n, n the first 1024 * 2^k whose tail is at
    # most 1e-12, whatever quantile count it is asked for
    for alpha, i0 in [(3.0, 5), (2.0, 4), (1.5, 3)]:
        law = BackwardRecurrence(alpha=alpha, i0=i0).invariant
        n = law.size(64) - 1
        assert n > 1024 and n == 1024 * 2 ** round(math.log2(n / 1024))
        assert law.tail(n) <= 1e-12 < law.tail(n // 2)
        assert law.size() == law.size(2**20) == n + 1
    states, w = BackwardRecurrence(alpha=3.0, i0=5).invariant.atoms()
    assert states.shape == (8193, 1) and states[-1, 0] == 8192.0 and w.shape == (8193,)


@pytest.mark.parametrize("alpha, i0", [(3.0, 5), (2.5, 4), (2.0, 4), (1.5, 3)])
def test_backward_recurrence_closed_form_matches_mpmath(alpha, i0):
    # 40-digit oracle: u_k = prod_{j<k} p_j multiplied out below k = 40, and
    # the Gamma ratios beyond; the tail sum_{k>=n} u_k is checked to telescope
    # to the masses before the closed form is compared with it
    spec = BackwardRecurrence(alpha=alpha, i0=i0)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        scale = mpmath.mpf(2) ** (1 - i0) * mpmath.gamma(i0) / mpmath.gamma(i0 - 1 - a)

        def u(k):
            if k < 40:
                ps = [mpmath.mpf(1) / 2 if j < i0 else 1 - (1 + a) / j for j in range(1, k)]
                return mpmath.fprod([mpmath.mpf(1)] + ps)
            return scale * mpmath.gamma(k - 1 - a) / mpmath.gamma(k)

        def upper(n):
            m = max(n, i0)
            head = mpmath.fsum(u(k) for k in range(max(n, 0), m))
            return head + scale * mpmath.gamma(m - 1 - a) / (a * mpmath.gamma(m - 1))

        for n in (i0, 39, 40, 10**6):
            assert abs(upper(n) - upper(n + 1) - u(n)) <= mpmath.mpf(10) ** -30 * u(n)
        z = upper(0)
        assert abs(1.0 / float(spec.mass(0)) - z) <= 1e-13 * z
        states = [0, 1, 2, i0 - 1, i0, i0 + 1, 39, 40, 10**3, 10**6, 10**9]
        for k, got in zip(states, spec.mass(states)):
            want = u(k) / z
            assert abs(got - want) <= 1e-13 * want
        levels = [-0.5] + [0.5 * j for j in range(2 * i0 + 2)]
        levels += np.geomspace(i0 + 1, 1e9, 30).tolist()
        for s, got in zip(levels, spec.tail(np.array(levels))):
            want = upper(math.floor(s) + 1) / z
            assert abs(got - want) <= 1e-13 * want


def test_backward_recurrence_far_levels_are_zero_without_overflow_warnings():
    # past ~1e77 the Gamma ratio overflows to inf, and the mass and tail it
    # divides (both below 1e-600 at alpha = 3) come out an honest 0
    spec = BackwardRecurrence(alpha=3.0, i0=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e200, 1e308):
            assert spec.tail(s) == 0.0 and spec.mass(s) == 0.0
        assert np.array_equal(spec.tail(np.array([1e200, 1e308])), [0.0, 0.0])


def test_backward_recurrence_tail_constant():
    # pi(X > s) ~ C s^{-alpha} with C = 0.169 at alpha = 3, i0 = 5
    spec = BackwardRecurrence(alpha=3.0, i0=5)
    assert abs(1e18 * spec.tail(1e6) - 0.169) <= 1e-3


def test_backward_recurrence_masses_halve_below_i0():
    # u_k = prod_{j<k} p_j: 1, p_1, p_1 p_2, ... with p_j = 1/2 below i0
    spec = BackwardRecurrence(alpha=2.0, i0=4)
    m = spec.mass(np.arange(1, 6))
    assert np.array_equal(m / m[0], [1.0, 0.5, 0.25, 0.125, 0.125 * (1.0 - 3.0 / 4.0)])
    assert spec.mass(0) == m[0]


# ---------------------------------------------------------------------------
# OU transition law
# ---------------------------------------------------------------------------


def test_ou_exact_transition_t0():
    mean, cov = ou_exact_transition(np.array([[-1.0]]), np.array([[2.0]]), 0.0, [3.0])
    assert mean[0] == 3.0
    assert cov[0, 0] == 0.0


def test_ou_exact_transition_1d_limit():
    # dX = -X dt + sqrt(2) dB has stationary variance 1
    mean, cov = ou_exact_transition([[-1.0]], [[2.0]], 40.0, [5.0])
    assert abs(mean[0]) < 1e-12
    assert cov[0, 0] == pytest.approx(1.0, abs=1e-12)
    _, cov_t = ou_exact_transition([[-1.0]], [[2.0]], 0.7, [5.0])
    assert cov_t[0, 0] == pytest.approx(1.0 - math.exp(-1.4), abs=1e-12)


def test_ou_exact_transition_matches_quadrature():
    h = np.array([[-1.0, 0.5], [0.0, -2.0]])
    a = np.array([[1.0, 0.3], [0.3, 2.0]])
    t = 0.7
    _, cov = ou_exact_transition(h, a, t, [0.0, 0.0])

    def integrand(s, i, j):
        e = expm(h * s)
        return (e @ a @ e.T)[i, j]

    for i in range(2):
        for j in range(2):
            ref, _ = quad(integrand, 0.0, t, args=(i, j), epsabs=1e-12, epsrel=1e-12)
            assert cov[i, j] == pytest.approx(ref, abs=1e-8)


def test_expm_is_np_exp_on_1x1_and_scipy_beyond():
    # the 1 x 1 exponential every 1-D OU step takes, bit for bit scipy's
    rng = np.random.default_rng(8)
    for v in np.concatenate([rng.normal(0.0, 30.0, 500), rng.uniform(-700.0, 700.0, 500),
                             -1e-3 * rng.exponential(1.0, 500), [0.0, -0.0, 1e-300]]):
        assert _expm(np.array([[v]])).tobytes() == expm(np.array([[v]])).tobytes()
    h = np.array([[-1.0, 0.5], [0.0, -2.0]])
    assert _expm(h).tobytes() == expm(h).tobytes()


def test_normal_quantile_matches_ndtri():
    from scipy.special import ndtri

    # the reference's quantile midpoints, and far tails on both sides
    for k in (128, 4096, 2**20):
        p = (np.arange(k) + 0.5) / k
        np.testing.assert_allclose(_normal_quantile(p), ndtri(p), rtol=2e-15, atol=0)
    tails = np.array([1e-300, 1e-20, 1.0 - 1e-16])
    np.testing.assert_allclose(_normal_quantile(tails), ndtri(tails), rtol=2e-15, atol=0)


def test_ou_simulated_mean_within_mc_band():
    spec = OUJump(H=np.array([[-1.0]]), levy=LevyMeasureSpec(a_L=np.array([[2.0]])))
    batch = simulate(spec, x0=[2.0], t_grid=[0.0, 1.0], n_paths=4000, seed=21, max_step=0.05)
    xs = batch.paths[:, 1, 0]
    mean, cov = ou_exact_transition([[-1.0]], [[2.0]], 1.0, [2.0])
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - mean[0]) < 3 * se
    assert xs.var(ddof=1) == pytest.approx(cov[0, 0], rel=0.1)


# ---------------------------------------------------------------------------
# piecewise drift
# ---------------------------------------------------------------------------


def _queue_drift(l, m, g, v, x):
    """The drift of the noiseless piecewise-OU spec with these parts."""
    return PiecewiseOU(l=l, M=m, Gamma=g, v=v, sigma=None, levy=LevyMeasureSpec()).drift(x)


def test_piecewise_ou_drift_frozen_examples():
    # all-ones state with l = 0, M = Gamma = I, v = e1 gives -x
    b = _queue_drift(np.zeros(2), np.eye(2), np.eye(2), [1.0, 0.0], [1.0, 1.0])
    assert np.allclose(b, [-1.0, -1.0], atol=1e-15)
    # nonpositive total: plain OU drift l - Mx
    l = np.array([0.3, 0.4])
    m = np.array([[2.0, -1.0], [-0.5, 3.0]])
    x = np.array([-1.0, -0.5])
    b2 = _queue_drift(l, m, np.eye(2), [0.5, 0.5], x)
    assert np.allclose(b2, l - m @ x, atol=1e-15)
    # at the origin the drift is l
    b3 = _queue_drift(l, m, np.eye(2), [0.5, 0.5], np.zeros(2))
    assert np.allclose(b3, l, atol=1e-15)


def test_piecewise_ou_drift_batch_matches_single():
    rng = np.random.default_rng(5)
    l = rng.normal(size=3)
    m = np.eye(3) * 2.0
    g = np.diag([0.5, 1.0, 1.5])
    v = np.array([0.2, 0.3, 0.5])
    xs = rng.normal(size=(40, 3))
    batch = _queue_drift(l, m, g, v, xs)
    for i in range(40):
        assert np.allclose(batch[i], _queue_drift(l, m, g, v, xs[i]), atol=1e-14)


def test_piecewise_ou_drift_global_lipschitz():
    rng = np.random.default_rng(17)
    m = np.array([[2.0, -0.3], [-0.4, 3.0]])
    g = np.diag([0.5, 2.0])
    v = np.array([0.7, 0.3])
    k_const = np.linalg.norm(m, 2) + np.linalg.norm(
        (m - g) @ np.outer(v, np.ones(2)), 2
    )
    for _ in range(200):
        x, y = rng.normal(scale=5.0, size=(2, 2))
        dx = _queue_drift(np.zeros(2), m, g, v, x) - _queue_drift(
            np.zeros(2), m, g, v, y
        )
        assert np.linalg.norm(dx) <= k_const * np.linalg.norm(x - y) + 1e-9


# ---------------------------------------------------------------------------
# Langevin coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha, n", [(0.25, 1), (0.3, 2), (0.3, 3)], ids=["1d", "2d", "3d"])
def test_langevin_density_normalized(alpha, n):
    # the radial mass omega_n int_0^inf pi(r e_1) r^(n-1) dr, by mpmath on the
    # density's values; beyond r = 1, r = v^-k with k = 1 / (1/alpha - n)
    # makes the integrand c k, so the tail is integrated on [0, 1] too
    spec = LangevinTempered(alpha=alpha, beta=0.0, dim=n)
    e1 = np.eye(n)[0]

    def radial(r):
        return float(langevin_density(spec, [float(r) * e1])[0]) * r ** (n - 1)

    k = 1 / (1 / mpmath.mpf(alpha) - n)
    inner = mpmath.quad(radial, [0, 1])
    outer = mpmath.quad(lambda v: radial(v**-k) * k * v ** (-k - 1), [0, 1])
    omega = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
    assert float(omega * (inner + outer)) == pytest.approx(1.0, abs=1e-12)


def test_langevin_drift_zero_at_beta_half():
    spec = LangevinTempered(alpha=0.2, beta=0.5, dim=1)
    xs = np.linspace(-4.0, 4.0, 33)[:, None]
    b, _ = langevin_coeffs(spec, xs)
    assert np.max(np.abs(b)) < 1e-14


def test_langevin_drift_outside_ball_formula():
    # for beta = 0 the drift is (1/2) grad log pi = -(1/(2 alpha)) x / |x|^2
    spec = LangevinTempered(alpha=0.25, beta=0.0, dim=1)
    b, sig = langevin_coeffs(spec, np.array([2.0]))
    assert b[0] == pytest.approx(-(1.0 / (2 * 0.25)) / 2.0, abs=1e-14)
    assert sig[0] == pytest.approx(1.0, abs=1e-14)  # sigma = pi^0 = 1


def test_langevin_sigma_symmetric():
    spec = LangevinTempered(alpha=0.2, beta=0.3, dim=1)
    xs = np.array([[0.3], [0.9], [1.5], [4.0]])
    _, s_pos = langevin_coeffs(spec, xs)
    _, s_neg = langevin_coeffs(spec, -xs)
    assert np.allclose(s_pos, s_neg, atol=1e-14)


def test_sigma_at_gives_each_row_its_matrix():
    # a constant, Langevin's (m, n) diagonals and a GenericIto's (m, n, n)
    # matrices; sigma sigma' of the batch equals the per-row product bit for bit
    x = np.array([[0.3, -1.2], [2.5, 0.4], [-7.0, 3.0]])
    const = np.array([[0.5, 0.0], [0.2, 1.5]])
    langevin = LangevinTempered(alpha=0.2, beta=0.3, dim=2)
    ito = GenericIto(
        b=None, sigma=lambda y: y[:, :, None] * y[:, None, :] + np.eye(2),
        levy=LevyMeasureSpec(), dim=2,
    )
    cases = [
        (const, [const] * 3),
        (langevin.sigma, [np.diag(d) for d in langevin_coeffs(langevin, x)[1]]),
        (ito.sigma, [np.outer(r, r) + np.eye(2) for r in x]),
    ]
    for sigma, expected in cases:
        s = sigma_at(sigma, x)
        assert s.shape == (3, 2, 2)
        assert np.array_equal(s, np.array(expected))
        assert np.array_equal(s @ np.swapaxes(s, 1, 2), np.array([r @ r.T for r in s]))


def test_langevin_density_c2_at_ball_boundary():
    spec = LangevinTempered(alpha=0.25, beta=0.0, dim=1)
    h = 1e-5
    inner = langevin_density(spec, [[1.0 - h]])[0]
    outer = langevin_density(spec, [[1.0 + h]])[0]
    mid = langevin_density(spec, [[1.0]])[0]
    # continuity and matching first derivative across |x| = 1
    assert inner == pytest.approx(mid * (1 - h) ** (-4), rel=1e-6)
    assert outer == pytest.approx(mid * (1 + h) ** (-4), rel=1e-6)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulate_deterministic_given_seed():
    spec = GenericIto(
        b=lambda x: -x,
        sigma=np.array([[1.0]]),
        levy=LevyMeasureSpec(),
        dim=1,
    )
    a = simulate(spec, [1.0], [0.0, 0.5, 1.0], n_paths=64, seed=42, max_step=0.05)
    b = simulate(spec, [1.0], [0.0, 0.5, 1.0], n_paths=64, seed=42, max_step=0.05)
    c = simulate(spec, [1.0], [0.0, 0.5, 1.0], n_paths=64, seed=43, max_step=0.05)
    assert np.array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)


def test_simulate_initial_condition_and_grid_checks():
    spec = OUJump(H=np.array([[-1.0]]), levy=LevyMeasureSpec())
    batch = simulate(spec, [3.0], [0.0, 1.0], n_paths=5, seed=0)
    assert np.all(batch.paths[:, 0, 0] == 3.0)
    with pytest.raises(ConfigError):
        simulate(spec, [3.0], [1.0, 0.5], n_paths=5, seed=0)
    with pytest.raises(ConfigError):
        simulate(spec, [3.0], [0.0, 1.0], n_paths=0, seed=0)


def test_simulate_linear_ode_exact():
    # no noise: OUJump integrates the drift exactly, so X(t) = x0 e^{-t}
    spec = OUJump(H=np.array([[-1.0]]), levy=LevyMeasureSpec())
    batch = simulate(spec, [2.0], [0.0, 0.5, 1.0, 2.0], n_paths=3, seed=1)
    for k, t in enumerate([0.0, 0.5, 1.0, 2.0]):
        assert batch.paths[:, k, 0] == pytest.approx(2.0 * math.exp(-t), abs=1e-12)


def test_simulate_piecewise_single_euler_step_exact():
    l = np.array([0.3, 0.4])
    m = np.array([[2.0, -1.0], [-0.5, 3.0]])
    g = np.diag([1.0, 1.0])
    v = np.array([0.5, 0.5])
    spec = PiecewiseOU(
        l=l, M=m, Gamma=g, v=v, sigma=None, levy=LevyMeasureSpec()
    )
    x0 = np.array([1.0, -0.2])
    batch = simulate(spec, x0, [0.0, 0.01], n_paths=2, seed=9, max_step=0.01)
    expected = x0 + _queue_drift(l, m, g, v, x0) * 0.01
    assert np.array_equal(batch.paths[0, 1], expected)


def test_simulate_euler_weak_error_halves():
    # mean error of the explicit Euler scheme for dX = -X dt at t = 1
    spec = GenericIto(b=lambda x: -x, sigma=None, levy=LevyMeasureSpec(), dim=1)
    exact = math.exp(-1.0)
    errs = []
    for dt in (0.1, 0.05):
        batch = simulate(spec, [1.0], [0.0, 1.0], n_paths=1, seed=0, max_step=dt)
        errs.append(abs(batch.paths[0, 1, 0] - exact))
    assert 1.6 <= errs[0] / errs[1] <= 2.4

    # variance: the sampled Euler variance matches the exact Euler recursion,
    # whose error against the true OU variance also halves with dt
    spec_noise = GenericIto(
        b=lambda x: -x, sigma=np.array([[1.0]]), levy=LevyMeasureSpec(), dim=1
    )
    v_true = (1.0 - math.exp(-2.0)) / 2.0
    v_rec = {}
    for dt in (0.1, 0.05):
        v = 0.0
        for _ in range(round(1.0 / dt)):
            v = (1.0 - dt) ** 2 * v + dt
        v_rec[dt] = v
    ratio = abs(v_rec[0.1] - v_true) / abs(v_rec[0.05] - v_true)
    assert 1.6 <= ratio <= 2.4
    batch = simulate(spec_noise, [0.0], [0.0, 1.0], n_paths=200_000, seed=5, max_step=0.1)
    sample_var = batch.paths[:, 1, 0].var(ddof=1)
    se = v_rec[0.1] * math.sqrt(2.0 / 200_000)
    assert abs(sample_var - v_rec[0.1]) < 4 * se


def test_simulate_compound_poisson_rate():
    # pure CP with unit jumps: X(t) is Poisson(rate * t)
    levy = LevyMeasureSpec(
        kind=CompoundPoisson(rate=2.0, jump_dist=DiscreteJumps([1.0], [1.0]))
    )
    spec = GenericIto(b=None, sigma=None, levy=levy, dim=1)
    batch = simulate(spec, [0.0], [0.0, 1.0], n_paths=20_000, seed=8, max_step=0.05)
    xs = batch.paths[:, 1, 0]
    assert xs.mean() == pytest.approx(2.0, rel=0.05)
    assert xs.var(ddof=1) == pytest.approx(2.0, rel=0.05)
    assert np.all(xs == np.round(xs))


@pytest.mark.parametrize("rate_dt, seed", [(0.01, 3), (1.5, 4)])
def test_compound_poisson_increment_follows_the_compound_poisson_law(rate_dt, seed):
    # unit marks on three axes, so a row's jumps are its count of each mark:
    # every path's count is Poisson(rate dt), by its moments and a chi^2 test
    # of its histogram, and the marks follow probs
    from scipy.stats import chi2, poisson

    probs = np.array([0.5, 0.3, 0.2])
    kind = CompoundPoisson(rate=rate_dt / 0.1, jump_dist=DiscreteJumps(np.eye(3), probs))
    m = 200_000
    rows, jumps = kind.increment(3, 0.1, _block_rng(seed, 0), m)
    assert rows.min() >= 0 and rows.max() < m
    assert np.all(np.diff(rows) > 0)  # sorted, so no row repeats
    assert np.array_equal(jumps, np.round(jumps)) and jumps.sum(axis=1).min() >= 1
    counts = np.zeros(m)
    counts[rows] = jumps.sum(axis=1)
    # within four standard errors: Var(mean) = mu / m, Var(s^2) ~ (mu + 2 mu^2) / m
    assert abs(counts.mean() - rate_dt) < 4.0 * math.sqrt(rate_dt / m)
    assert abs(counts.var(ddof=1) - rate_dt) < 4.0 * math.sqrt((rate_dt + 2 * rate_dt**2) / m)
    # bins 0, 1, ..., top - 1 and "top or more", each expecting at least 5
    top = int(np.flatnonzero(m * poisson.pmf(np.arange(40), rate_dt) >= 5.0)[-1])
    observed = np.bincount(np.minimum(counts, top).astype(int), minlength=top + 1)
    expected = m * np.append(poisson.pmf(np.arange(top), rate_dt), poisson.sf(top - 1, rate_dt))
    assert chi2.sf(((observed - expected) ** 2 / expected).sum(), top) > 1e-3
    marks = jumps.sum(axis=0)
    total = marks.sum()
    assert np.all(np.abs(marks - total * probs) < 4.0 * np.sqrt(total * probs * (1 - probs)))


def test_simulate_subordinator_paths_nondecreasing():
    levy = LevyMeasureSpec(kind=StableSubordinatorMeasure(alpha=0.5))
    spec = GenericIto(b=None, sigma=None, levy=levy, dim=1)
    batch = simulate(spec, [0.0], [0.0, 0.5, 1.0], n_paths=500, seed=4, max_step=0.02)
    diffs = np.diff(batch.paths[:, :, 0], axis=1)
    assert np.all(diffs >= 0)


def test_simulate_stable_increment_scaling():
    # pure symmetric stable flight at alpha = 2 reduces to Brownian motion
    levy = LevyMeasureSpec(kind=SymmetricStable(alpha=1.99999999, scale=1.0))
    spec = GenericIto(b=None, sigma=None, levy=levy, dim=1)
    batch = simulate(spec, [0.0], [0.0, 1.0], n_paths=50_000, seed=6, max_step=0.05)
    xs = batch.paths[:, 1, 0]
    assert xs.var(ddof=1) == pytest.approx(2.0, rel=0.05)


def test_simulate_blowup_guard():
    spec = GenericIto(b=lambda x: x**3, sigma=None, levy=LevyMeasureSpec(), dim=1)
    with pytest.raises(BlowUpError):
        simulate(spec, [10.0], [0.0, 1.0], n_paths=2, seed=0, max_step=0.01)


def test_step_plan_counts_the_steps_the_walkers_take():
    ou = OUJump(H=np.array([[-1.0]]), levy=LevyMeasureSpec())
    # x0 at the first grid time, then ceil(span / max_step) substeps per interval
    assert np.array_equal(step_plan(ou, [0.5, 1.0, 1.05, 3.0], 0.1), [0.0, 5.0, 1.0, 20.0])
    with pytest.raises(ConfigError):
        step_plan(ou, [0.0, 1.0], 0.0)
    # the chain counts its steps from 0, the grid times
    chain = BackwardRecurrence(alpha=2.0, i0=4)
    assert np.array_equal(step_plan(chain, [3, 4, 10], 0.01), [3.0, 1.0, 6.0])
    # a time that is not a nonnegative integer is refused, by the plan and so
    # by the walk that follows it
    for bad in ([0.0, 0.5, 1.0], [-1.0, 2.0], [1.0, 3.0 + 1e-12]):
        with pytest.raises(ConfigError):
            step_plan(chain, bad, 0.01)
    with pytest.raises(ConfigError):
        simulate(chain, [8.0], [0.0, 0.5, 1.0], n_paths=2, seed=0)


def test_simulate_backward_recurrence_first_step_up():
    spec = BackwardRecurrence(alpha=2.0, i0=4)
    batch = simulate(spec, [0.0], [0, 1], n_paths=50, seed=12)
    assert np.all(batch.paths[:, 1, 0] == 1.0)  # p_0 = 1


@pytest.mark.parametrize(
    "alpha, i0, x0, seed",
    [(3.0, 5, 0, 1), (2.0, 4, 0, 12), (1.5, 3, 7, 5), (3.0, 5, 40, 3), (2.5, 8, 3, 99)],
)
def test_backward_recurrence_stepper_matches_float_recursion(alpha, i0, x0, seed):
    # the recursion as a float state: up with probability p_x, else back to 0,
    # one uniform per path and step from the same block stream
    from ergolab.processes import _BLOCK_SIZE, _block_rng

    spec = BackwardRecurrence(alpha=alpha, i0=i0)
    grid = [0, 1, 2, 5, 17, 60, 150]
    n_paths = _BLOCK_SIZE + 300  # two blocks, the second one short
    batch = simulate(spec, [float(x0)], grid, n_paths=n_paths, seed=seed)
    for block, lo in enumerate(range(0, n_paths, _BLOCK_SIZE)):
        hi = min(lo + _BLOCK_SIZE, n_paths)
        rng = _block_rng(seed, block)
        x = np.full(hi - lo, float(x0))
        expected = [x.copy()]
        for step in range(1, grid[-1] + 1):
            u = rng.uniform(0.0, 1.0, hi - lo)
            x = np.where(u < spec.up_prob(x), x + 1.0, 0.0)
            if step in grid:
                expected.append(x.copy())
        assert np.array_equal(batch.paths[lo:hi, :, 0], np.stack(expected, axis=1))


_PIN_GRID = [0.0, 0.1, 0.35, 1.0]


def _pinned_walks():
    # (spec, x0, t_grid, n_paths, seed, max_step, sha256 of the paths) for
    # each walker: a 2-D piecewise OU with non-diagonal M, dense sigma, both
    # Lévy Gaussian parts and compound-Poisson jumps from a stack of starts;
    # a 2-D OU with a_L, b_L and isotropic stable jumps; a Langevin spec
    # (callable sigma); the chain from a stack of starts over two blocks
    from ergolab.processes import _BLOCK_SIZE

    piecewise = PiecewiseOU(
        l=[0.5, -0.2],
        M=[[1.2, -0.3], [-0.4, 1.0]],
        Gamma=[[0.5, 0.0], [0.0, 0.8]],
        v=[0.3, 0.7],
        sigma=[[0.5, 0.1], [0.2, 0.4]],
        levy=LevyMeasureSpec(
            kind=CompoundPoisson(
                rate=2.0,
                jump_dist=DiscreteJumps([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]], [0.4, 0.4, 0.2]),
            ),
            b_L=[0.1, -0.1],
            a_L=[[0.2, 0.05], [0.05, 0.1]],
        ),
    )
    ou = OUJump(
        H=[[-1.0, 0.3], [0.2, -0.8]],
        levy=LevyMeasureSpec(
            kind=SymmetricStable(alpha=1.5, scale=0.5),
            b_L=[0.2, -0.1],
            a_L=[[0.3, 0.1], [0.1, 0.2]],
        ),
    )
    return {
        "piecewise_ou": (
            piecewise, [[3.0, 1.0], [-1.0, -2.0]], _PIN_GRID, 300, 7, 0.05,
            "223377d0354e60457152d47a8687d9b7b787a903a4b2b86c873eb8efa2e346d9",
        ),
        "ou_jump": (
            ou, [1.0, -1.0], _PIN_GRID, 300, 8, 0.05,
            "2b75ba091611dcb86b8757a8366330494018031c74700f7d110c19e8538b9339",
        ),
        "langevin": (
            LangevinTempered(alpha=0.3, beta=0.25, dim=2), [[0.5, 0.2], [2.0, -1.0]],
            _PIN_GRID, 300, 9, 0.05,
            "e75f8d41c72a550fbae077d5a0e8081395aa854ab3e8c8a0339426f5d482cfbe",
        ),
        "chain": (
            BackwardRecurrence(alpha=3.0, i0=5), [[0.0], [7.0]], [0, 1, 5, 40],
            _BLOCK_SIZE + 300, 3, 0.01,
            "d5f6eaf39df0d073bfb0dc4ec8b6bbbf3ccb07022f09e25015855d4ad96275b3",
        ),
    }


@pytest.mark.parametrize("family", ["piecewise_ou", "ou_jump", "langevin", "chain"])
def test_walker_outputs_are_pinned(family):
    # every walker's paths, bit for bit: the digests of the paths as the
    # walkers drew and stepped them one substep after another on one thread
    spec, x0, grid, n_paths, seed, max_step, digest = _pinned_walks()[family]
    out = simulate(spec, x0, grid, n_paths=n_paths, seed=seed, max_step=max_step)
    batches = out if isinstance(out, tuple) else (out,)
    sha = hashlib.sha256(b"".join(batch.paths.tobytes() for batch in batches))
    assert sha.hexdigest() == digest


def test_simulate_leaves_no_thread_behind(monkeypatch):
    spec = _pinned_walks()["piecewise_ou"][0]
    before = threading.active_count()
    simulate(spec, [1.0, 0.0], [0.0, 0.5, 1.0], n_paths=50, seed=0, max_step=0.05)
    assert threading.active_count() == before
    # a blow-up in the middle of a walk stops and joins the worker
    blowup = GenericIto(b=lambda x: x**3, sigma=np.eye(1), levy=LevyMeasureSpec(), dim=1)
    with pytest.raises(BlowUpError):
        simulate(blowup, [10.0], [0.0, 1.0], n_paths=2, seed=0, max_step=0.01)
    assert threading.active_count() == before

    # an error raised while drawing reaches the caller as its own type
    class Refused(RuntimeError):
        pass

    drawn = []

    def increment(self, dim, dt, rng, m):
        drawn.append(threading.current_thread())
        if len(drawn) == 3:
            raise Refused("no jumps today")
        return slice(0, 0), np.empty((0, dim))

    monkeypatch.setattr(CompoundPoisson, "increment", increment)
    with pytest.raises(Refused, match="no jumps today"):
        simulate(spec, [1.0, 0.0], [0.0, 0.5, 1.0], n_paths=50, seed=0, max_step=0.05)
    assert threading.active_count() == before
    assert threading.main_thread() not in drawn


def test_draws_run_at_most_the_draw_depth_ahead_of_the_walk():
    # a slow consumer gives the worker time to run as far ahead as it may:
    # it never has more than _DRAW_DEPTH items beyond the one being used
    made = []

    def draws():
        for i in range(30):
            made.append(i)
            yield i

    before = threading.active_count()
    drawn = _drawn_ahead(draws())
    for i, item in enumerate(drawn):
        time.sleep(0.005)
        assert item == i
        assert len(made) <= i + 1 + _DRAW_DEPTH
        if i == 20:
            break
    drawn.close()
    assert threading.active_count() == before
    assert len(made) <= 21 + _DRAW_DEPTH  # nothing is drawn after the close


def test_walks_closed_early_or_run_side_by_side_keep_their_streams():
    # four callers (two cores) walk at once, each closing some walks after a
    # few steps, with thread switches forced often: every worker is joined
    # and every full walk keeps its pinned bits
    spec, x0, grid, n_paths, seed, max_step, digest = _pinned_walks()["piecewise_ou"]
    chain = BackwardRecurrence(alpha=3.0, i0=5)
    before = threading.active_count()
    results, errors = [], []

    def caller(index):
        try:
            # many more draws than the handoff holds, so a closed walk's
            # worker is mostly blocked on a full queue
            walks = [chain.walker(np.array([[0.0]]), np.arange(0.0, 200.0), 0.01),
                     spec.walker(np.array(x0), np.array(grid), 0.001)]
            for round_ in range(3):
                for walk in walks:
                    states = walk(4096 + index, _block_rng(index, round_))
                    for _ in range(round_ + 1):
                        next(states)
                    states.close()
            out = simulate(spec, x0, grid, n_paths=n_paths, seed=seed, max_step=max_step)
            results.append(hashlib.sha256(b"".join(b.paths.tobytes() for b in out)).hexdigest())
        except Exception as exc:  # failed by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(4)]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + 60.0
        for thread in callers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert errors == []
    assert results == [digest] * 4
    assert threading.active_count() == before


def test_langevin_walk_computes_its_coefficients_once_per_substep(monkeypatch):
    # 100 substeps of a 2-D walk: one langevin_coeffs call each, and the
    # paths of the walk that called it for the drift and again for sigma
    import ergolab.processes as processes

    calls = []
    coeffs = processes.langevin_coeffs
    monkeypatch.setattr(processes, "langevin_coeffs",
                        lambda spec, x: calls.append(1) or coeffs(spec, x))
    out = simulate(LangevinTempered(alpha=0.3, beta=0.25, dim=2), [0.5, 0.2], [0.0, 1.0],
                   n_paths=64, seed=5, max_step=0.01)
    assert len(calls) == 100
    assert hashlib.sha256(out.paths.tobytes()).hexdigest() == (
        "aa2f861664ebc6fcca068e930d239c73ee78e0f1efa0d9a95169f0f1f043b492"
    )


def _cms_one_expression(alpha, skew, rng, size):
    # the CMS sampler as one expression, draws and transform together, its
    # two powers taken as one exp of their summed logs
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.exponential(1.0, size)
    if alpha == 1.0:
        if skew == 0.0:
            return np.tan(u)
        half_pi = math.pi / 2.0
        return (2.0 / math.pi) * (
            (half_pi + skew * u) * np.tan(u)
            - skew * np.log((half_pi * w * np.cos(u)) / (half_pi + skew * u))
        )
    t = math.tan(math.pi * alpha / 2.0)
    b = math.atan(skew * t) / alpha
    s = (1.0 + skew * skew * t * t) ** (1.0 / (2.0 * alpha))
    a = alpha * (u + b)
    return (
        s
        * np.sin(a)
        * np.exp(
            (1.0 - alpha) / alpha * (np.log(np.cos(u - a)) - np.log(w))
            - np.log(np.cos(u)) / alpha
        )
    )


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("skew", [0.0, 1.0])
def test_stable_draws_split_into_draws_and_chunked_transform_keep_their_bits(alpha, skew):
    # the split sampler, and its transform run chunk by chunk on two
    # threads from draws streamed chunk by chunk, give the one-expression
    # sampler's bits at every chunk edge
    for n in (1, 7, _PASS_CHUNK - 1, _PASS_CHUNK, _PASS_CHUNK + 1, 3 * _PASS_CHUNK + 7):
        for shape in ((n,), (n, 1), (n, 3)):
            want = _cms_one_expression(alpha, skew, _block_rng(n, 1), shape).view(np.int64)
            assert np.array_equal(_cms(alpha, skew, _block_rng(n, 1), shape).view(np.int64), want)
            size = math.prod(shape)
            got = np.empty(size)

            def fill(lo, hi, drawn):
                got[lo:hi] = _cms_transform(alpha, skew, *drawn)

            _in_chunks(size, _cms_streams(_block_rng(n, 1), size), fill)
            assert np.array_equal(got.reshape(shape).view(np.int64), want)


def _no_draws(k):
    return ()


def test_chunked_pass_raises_what_a_chunk_raised_and_leaves_no_thread():
    before = threading.active_count()
    n = 3 * _PASS_CHUNK + 7
    seen = []
    assert _in_chunks(n, _no_draws, lambda lo, hi, drawn: seen.append((lo, hi))) is None
    assert sorted(seen) == [(lo, min(lo + _PASS_CHUNK, n)) for lo in range(0, n, _PASS_CHUNK)]
    assert threading.active_count() == before
    # every chunk, the helper's too, runs under the caller's numpy error handling
    states = []
    with np.errstate(over="raise"):
        _in_chunks(n, lambda k: states.append(np.geterr()["over"]),
                   lambda lo, hi, drawn: states.append(np.geterr()["over"]))
    assert states == ["raise"] * 8
    # one chunk runs inline, on the calling thread
    inline = []
    _in_chunks(_PASS_CHUNK, lambda k: inline.append(threading.current_thread()),
               lambda lo, hi, drawn: inline.append(threading.current_thread()))
    assert inline == [threading.current_thread()] * 2

    class Refused(RuntimeError):
        pass

    # the caller holds its first chunk until the helper has failed on one
    helper_failed = threading.Event()

    def fill(lo, hi, drawn):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(timeout=30.0)
            return
        helper_failed.set()
        raise Refused(f"chunk at {lo}")

    with pytest.raises(Refused, match="chunk at"):
        _in_chunks(n, _no_draws, fill)
    assert threading.active_count() == before

    # a chunk failing on the calling thread stops and joins the helper too;
    # the helper holds its first chunk until the caller has failed on one
    caller_failed = threading.Event()
    helper_chunks = []

    def fill_main_fails(lo, hi, drawn):
        if threading.current_thread() is threading.main_thread():
            caller_failed.set()
            raise Refused("caller's chunk")
        helper_chunks.append(lo)
        assert caller_failed.wait(timeout=30.0)

    with pytest.raises(Refused, match="caller's chunk"):
        _in_chunks(n, _no_draws, fill_main_fails)
    assert threading.active_count() == before
    assert len(helper_chunks) <= 1  # no chunk is begun after one has raised

    # a chunk failing on a helper stops the caller too: each holds its first
    # chunk until the other has begun one, the helper fails on its own, and
    # the caller, done with its chunk, begins no other
    caller_began, helper_raised = threading.Event(), threading.Event()
    begun = []

    def fill_helper_fails(lo, hi, drawn):
        begun.append(lo)
        if threading.current_thread() is threading.main_thread():
            caller_began.set()
            assert helper_raised.wait(timeout=30.0)
            time.sleep(0.2)  # lets the helper's exception leave its chunk
            return
        assert caller_began.wait(timeout=30.0)
        helper_raised.set()
        raise Refused("helper's chunk")

    with pytest.raises(Refused, match="helper's chunk"):
        _in_chunks(n, _no_draws, fill_helper_fails)
    assert threading.active_count() == before
    assert len(begun) == 2  # one chunk each; none is begun after one has raised


def test_chunked_passes_run_side_by_side_cover_every_chunk_once():
    # four callers (two cores) each run a pass with its own helper, with
    # thread switches forced often: every chunk is taken exactly once and
    # every pass keeps the bits of the whole-array transform
    n = 5 * _PASS_CHUNK + 3
    want = _cms_transform(0.7, 1.0, *_cms_draws(_block_rng(21, 0), n)).view(np.int64)
    before = threading.active_count()
    results, errors = [], []

    def caller():
        try:
            got, taken = np.empty(n), []

            def fill(lo, hi, drawn):
                taken.append(lo)
                got[lo:hi] = _cms_transform(0.7, 1.0, *drawn)

            for _ in range(3):
                taken.clear()
                _in_chunks(n, _cms_streams(_block_rng(21, 0), n), fill)
                results.append((sorted(taken), np.array_equal(got.view(np.int64), want)))
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
    assert results == [(list(range(0, n, _PASS_CHUNK)), True)] * 12
    assert threading.active_count() == before


def test_chunked_pass_raises_what_a_take_raised_and_takes_no_later_chunk():
    # a take failing on the third chunk fails the pass with its own
    # exception and lets go of the lock, so the pass returns (on a thread
    # joined with a timeout); no later chunk is taken, and no thread is left
    class Exhausted(RuntimeError):
        pass

    n = 5 * _PASS_CHUNK + 3
    before = threading.active_count()
    takes, filled, raised = [], [], []

    def take(k):
        takes.append(k)
        if len(takes) == 3:
            raise Exhausted("third take")
        return ()

    def call():
        try:
            _in_chunks(n, take, lambda lo, hi, drawn: filled.append(lo))
        except Exhausted as exc:
            raised.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert [str(exc) for exc in raised] == ["third take"]
    assert takes == [_PASS_CHUNK] * 3
    assert sorted(filled) == [0, _PASS_CHUNK]
    assert threading.active_count() == before


def test_chunked_passes_side_by_side_take_their_own_chunks_in_order():
    # four callers (two cores) of four lengths, each drawing from its own
    # stream of indices, with thread switches forced often: each caller's
    # takes come in chunk order and each chunk is filled with its own draws
    lengths = (2 * _PASS_CHUNK + 1, 3 * _PASS_CHUNK + 7, 4 * _PASS_CHUNK, 5 * _PASS_CHUNK + 3)
    before = threading.active_count()
    results, errors = {}, []

    def caller(n):
        try:
            taken, got = [], np.empty(n, dtype=np.int64)

            def take(k):
                start = sum(taken)
                taken.append(k)
                return (np.arange(start, start + k),)

            def fill(lo, hi, drawn):
                got[lo:hi] = drawn[0]

            for _ in range(3):
                taken.clear()
                got[:] = -1
                _in_chunks(n, take, fill)
                results.setdefault(n, []).append((list(taken), np.array_equal(got, np.arange(n))))
        except Exception as exc:  # failed by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(n,), daemon=True) for n in lengths]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + 60.0
        for thread in callers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert errors == []
    for n in lengths:
        sizes = [min(_PASS_CHUNK, n - lo) for lo in range(0, n, _PASS_CHUNK)]
        assert results[n] == [(sizes, True)] * 3
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [0, 1, 12, 2**40 + 3])
@pytest.mark.parametrize("n", [1, 7, 1000, 2**15 + 1])
def test_random_is_the_raw_philox_word_shifted_and_scaled(seed, n):
    # numpy forms random() from one raw 64-bit word the same way for every
    # bit generator, so the chain walk's thresholds do not depend on the
    # family its blocks draw from: Philox here, PCG64 in the test below
    uniforms = np.random.Generator(np.random.Philox(seed)).random(n)
    words = np.random.Philox(seed).random_raw(n)
    assert np.array_equal(uniforms, (words >> np.uint64(11)) * 2.0**-53)


@pytest.mark.parametrize("seed, block", [(0, 0), (3, 1), (2**40 + 3, 7)])
@pytest.mark.parametrize("n", [1, 7, 2**15 + 1])
def test_random_is_the_raw_block_word_shifted_and_scaled(seed, block, n):
    # the chain walk compares raw words against thresholds because numpy's
    # random() is (r >> 11) 2^-53 of one 64-bit word of the block generator
    uniforms = _block_rng(seed, block).random(n)
    words = _block_rng(seed, block).bit_generator.random_raw(n)
    assert np.array_equal(uniforms, (words >> np.uint64(11)) * 2.0**-53)


def test_up_thresholds_agree_with_the_uniform_test_at_the_boundary():
    # every distinct up-probability of a few chains up to state i0 + 2, the
    # largest probabilities, and the floats beside each: the words on either
    # side of the threshold go up exactly when their uniform is below p
    ps = {1.0, 1.0 - 2.0**-53}
    for alpha, i0 in [(3.0, 5), (2.0, 4), (1.5, 3), (2.5, 8), (1.01, 3)]:
        ps.update(BackwardRecurrence(alpha=alpha, i0=i0).up_prob(np.arange(i0 + 3.0)).tolist())
    ps |= {float(np.nextafter(p, toward)) for p in ps for toward in (0.0, 2.0)}
    ps = np.array(sorted(p for p in ps if 0.0 < p <= 1.0))
    thresholds = _up_thresholds(ps)
    assert thresholds.dtype == np.uint64
    for p, threshold in zip(ps.tolist(), thresholds.tolist()):
        for r in (0, threshold, threshold + 1):
            if r < 2**64:  # at p = 1 the threshold is the largest word
                assert (np.uint64(r) <= np.uint64(threshold)) == ((r >> 11) * 2.0**-53 < p), (p, r)
    assert _up_thresholds(np.array([1.0])).tolist() == [2**64 - 1]


def test_chain_walk_goes_up_on_the_threshold_word_and_resets_above_it():
    # every draw of path 0 is the threshold of p = 1/2 (uniform just below
    # 1/2), and of path 1 the word above it (uniform 1/2): path 0 climbs
    # through the p = 1/2 states and resets at i0 = 5 (p = 0.2), path 1
    # resets at every state past 0
    threshold = int(_up_thresholds(np.array([0.5]))[0])
    words = np.array([threshold, threshold + 1], dtype=np.uint64)

    class Words:
        def random_raw(self, size):
            return np.broadcast_to(words, size).copy()

    class Stream:
        bit_generator = Words()

    spec = BackwardRecurrence(alpha=3.0, i0=5)
    walk = spec.walker(np.array([[0.0]]), np.arange(13.0), 0.01)(2, Stream())
    states = np.array([next(walk)[0, :, 0] for _ in range(13)])
    assert states[:, 0].tolist() == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0]
    assert states[:, 1].tolist() == [0, 1] * 6 + [0]


def test_chain_walker_table_memory_per_value():
    # the traced peak of building a walk to a horizon of 10^6 steps from two
    # starts, per table value: 26 B when the up-probabilities were computed
    # for the whole table at once
    spec = BackwardRecurrence(alpha=3.0, i0=5)
    x0, times = np.array([[0.0], [7.0]]), np.array([0.0, 10.0, 1e6])
    values = 3 * (1_000_000 + 1)
    tracemalloc.start()
    try:
        spec.walker(x0, times, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / values <= 26.0


def test_backward_recurrence_refuses_non_integer_starts():
    spec = BackwardRecurrence(alpha=3.0, i0=5)
    for bad in ([-1.0], [2.5], [math.nan], [math.inf], [2.0**60]):
        with pytest.raises(ConfigError):
            simulate(spec, bad, [0, 1], n_paths=2, seed=0)
    batch = simulate(spec, [12.0], [0, 1], n_paths=4, seed=0)
    assert np.all(batch.paths[:, 0, 0] == 12.0)


def test_backward_recurrence_occupation_matches_invariant():
    spec = BackwardRecurrence(alpha=2.0, i0=4)
    n_paths, burn, horizon = 400, 200, 5200
    batch = simulate(spec, [0.0], list(range(0, horizon + 1)), n_paths=n_paths, seed=77)
    states = batch.paths[:, burn:, 0].ravel().astype(int)
    _, w = spec.invariant.atoms()
    counts = np.bincount(states, minlength=w.shape[0])
    emp = counts / counts.sum()
    tv = 0.5 * np.sum(np.abs(emp[: w.shape[0]] - w))
    assert tv < 0.01
