"""Tests for Lyapunov functions, generator evaluation, and drift checks."""

import math

import mpmath as mp
import numpy as np
import pytest

from ergolab import lyapunov
from ergolab.errors import ConfigError, IntegrabilityError
from ergolab.lyapunov import (
    DriftReport,
    ExpNorm,
    PolyNorm,
    PolyNormPlusOne,
    QuadForm,
    chi_q,
    chi_q_grad,
    chi_q_hess,
    drift_check,
    generator_apply,
)
from ergolab.processes import (
    BackwardRecurrence,
    CompoundPoisson,
    DiscreteJumps,
    LangevinTempered,
    LevyMeasureSpec,
    OUJump,
    PiecewiseOU,
    StableSubordinatorMeasure,
    SymmetricStable,
    langevin_coeffs,
)
from ergolab.rates import LinearPhi
from user_callables import CustomFn, GenericIto


def levy_only(dim=1, **levy):
    """A process with no drift and no sigma, driven by ``LevyMeasureSpec(**levy)``."""
    return GenericIto(b=None, sigma=None, levy=LevyMeasureSpec(**levy), dim=dim)


def quadratic_fn():
    return CustomFn(
        value_fn=lambda x: float(x[0] ** 2),
        grad_fn=lambda x: np.array([2.0 * x[0]]),
        hess_fn=lambda x: np.array([[2.0]]),
        growth=("poly", 2.0),
    )


def q_norm(qf, x):
    """``|x|_Q = sqrt(<x, Qx>)``."""
    return math.sqrt(float(x @ qf.Q @ x))


def cosine_fn(u):
    u = np.asarray(u, dtype=float)
    return CustomFn(
        value_fn=lambda x: math.cos(float(u @ x)),
        grad_fn=lambda x: -math.sin(float(u @ x)) * u,
        hess_fn=lambda x: -math.cos(float(u @ x)) * np.outer(u, u),
        growth=("poly", 0.0),
    )


# ---------------------------------------------------------------------------
# QuadForm and chi_Q
# ---------------------------------------------------------------------------


def test_quadform_validation_and_eigens():
    with pytest.raises(ConfigError):
        QuadForm(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ConfigError):
        QuadForm(np.array([[1.0, 2.0], [2.0, 1.0]]))
    qf = QuadForm(np.array([[2.0, 0.0], [0.0, 0.5]]))
    assert qf.lam_min == pytest.approx(0.5)
    assert qf.lam_max == pytest.approx(2.0)


def test_chi_q_equals_norm_outside_ball():
    qf = QuadForm(np.array([[2.0, 0.3], [0.3, 1.0]]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=2)
        x = x / np.linalg.norm(x) * rng.uniform(1.0, 8.0)
        assert chi_q(qf, x) == pytest.approx(q_norm(qf, x), abs=1e-14)


def test_chi_q_symmetric_positive_smooth():
    qf = QuadForm(np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert chi_q(qf, np.zeros(2)) > 0
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(40, 2))
    assert np.allclose(chi_q(qf, xs), chi_q(qf, -xs), atol=1e-14)
    # C2 junction: gradient and hessian continuous across |x|_Q = sqrt(lam_min)
    w0 = math.sqrt(qf.lam_min)
    direction = np.array([0.3, 1.0])
    direction /= q_norm(qf, direction)
    for eps in (1e-7,):
        lo = (w0 - eps) * direction
        hi = (w0 + eps) * direction
        assert np.allclose(chi_q_grad(qf, lo), chi_q_grad(qf, hi), atol=1e-5)
        assert np.allclose(chi_q_hess(qf, lo), chi_q_hess(qf, hi), atol=1e-4)


def test_chi_q_midpoint_convexity():
    base = np.array([[3.0, 0.8], [0.8, 0.6]])
    qf = QuadForm(base)
    rng = np.random.default_rng(3)
    a = rng.normal(scale=3.0, size=(300, 2))
    b = rng.normal(scale=3.0, size=(300, 2))
    mid = chi_q(qf, 0.5 * (a + b))
    assert np.all(mid <= 0.5 * (chi_q(qf, a) + chi_q(qf, b)) + 1e-12)
    # convex at every scale, to rounding relative to the values; segments at
    # the fixed scale above and at the form's own, which crosses the interior
    # blend |x|_Q < sqrt(lam_min)
    for q in (np.array([[1.0]]), base):
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e9, 1e13, 1e15):
            qf = QuadForm(scale * q)
            dim = q.shape[0]
            for spread in (3.0, 3.0 / math.sqrt(scale)):
                a = rng.normal(scale=spread, size=(300, dim))
                b = rng.normal(scale=spread, size=(300, dim))
                ends = 0.5 * (chi_q(qf, a) + chi_q(qf, b))
                assert np.all(chi_q(qf, 0.5 * (a + b)) <= ends * (1.0 + 1e-12))


@pytest.mark.parametrize("radius", [0.2, 0.9, 1.1, 10.0])
def test_lyapunov_fd_derivatives(radius):
    qf = QuadForm(np.array([[2.0, 0.3], [0.3, 1.0]]))
    direction = np.array([math.cos(0.7), math.sin(0.7)])
    x = radius * direction
    for fn in (PolyNorm(qf, 2.5), PolyNormPlusOne(qf, 1.5), ExpNorm(qf, 0.4)):
        h = 1e-6 * max(1.0, radius)
        g_fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            g_fd[i] = (fn.value(x + e) - fn.value(x - e)) / (2 * h)
        assert np.allclose(fn.grad(x), g_fd, rtol=1e-5, atol=1e-7)
        h2 = 1e-4 * max(1.0, radius)
        hess_fd = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i] = h2
                ej[j] = h2
                hess_fd[i, j] = (
                    fn.value(x + ei + ej)
                    - fn.value(x + ei - ej)
                    - fn.value(x - ei + ej)
                    + fn.value(x - ei - ej)
                ) / (4 * h2 * h2)
        assert np.allclose(fn.hess(x), hess_fd, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("family", ["poly", "poly_plus_one", "exp"])
def test_batched_derivatives_equal_per_point_calls(family):
    qf = QuadForm(np.array([[2.0, 0.3], [0.3, 1.0]]))
    fn = {"poly": PolyNorm(qf, 2.5), "poly_plus_one": PolyNormPlusOne(qf, 1.5),
          "exp": ExpNorm(qf, 0.4)}[family]
    rng = np.random.default_rng(4)
    xs = np.concatenate([0.4 * rng.normal(size=(20, 2)), 3.0 * rng.normal(size=(20, 2))])
    # both sides of the blend sphere |x|_Q = sqrt(lam_min)
    inside = np.array([q_norm(qf, x) for x in xs]) < math.sqrt(qf.lam_min)
    assert 5 <= inside.sum() <= 35
    assert np.array_equal(fn.value(xs), [fn.value(x) for x in xs])
    assert np.array_equal(fn.grad(xs), [fn.grad(x) for x in xs])
    assert np.array_equal(fn.hess(xs), [fn.hess(x) for x in xs])
    assert fn.grad(xs[0]).shape == (2,) and fn.hess(xs[0]).shape == (2, 2)
    assert isinstance(fn.value(xs[0]), float)


def test_custom_fn_fd_fallback():
    fn = CustomFn(value_fn=lambda x: math.sin(x[0]) + x[1] ** 2)
    x = np.array([0.4, -0.8])
    assert np.allclose(fn.grad(x), [math.cos(0.4), -1.6], rtol=1e-4, atol=1e-6)
    assert np.allclose(
        fn.hess(x), [[-math.sin(0.4), 0.0], [0.0, 2.0]], rtol=1e-3, atol=1e-4
    )


# ---------------------------------------------------------------------------
# generator evaluation: frozen values and oracles
# ---------------------------------------------------------------------------


def test_generator_constant_drift_frozen():
    res = generator_apply(levy_only(b_L=[1.0]), quadratic_fn(), np.array([3.0]))
    assert res.value == pytest.approx(6.0, abs=1e-12)
    assert res.error == 0.0


def test_generator_pure_diffusion_frozen():
    res = generator_apply(levy_only(a_L=[[2.0]]), quadratic_fn(), np.array([1.0]))
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_generator_cp_discrete_frozen():
    spec = levy_only(kind=CompoundPoisson(rate=2.0, jump_dist=DiscreteJumps([2.0], [1.0])))
    res = generator_apply(spec, quadratic_fn(), np.array([1.0]))
    # raw difference: 2 * (9 - 1) = 16
    assert res.value == pytest.approx(16.0, abs=1e-12)
    assert res.error == 0.0
    # a jump inside the unit ball is not compensated either: 2 * (2.25 - 1) = 2.5
    small = levy_only(kind=CompoundPoisson(rate=2.0, jump_dist=DiscreteJumps([0.5], [1.0])))
    res_small = generator_apply(small, quadratic_fn(), np.array([1.0]))
    assert res_small.value == pytest.approx(2.5, abs=1e-12)


def test_generator_annihilates_constants():
    const = CustomFn(
        value_fn=lambda x: 5.0,
        grad_fn=lambda x: np.zeros_like(x),
        hess_fn=lambda x: np.zeros((x.shape[0], x.shape[0])),
        growth=("poly", 0.0),
    )
    specs = [
        levy_only(b_L=[1.3], a_L=[[0.7]]),
        levy_only(
            kind=CompoundPoisson(rate=2.0, jump_dist=DiscreteJumps([0.5, -1.5], [0.5, 0.5]))
        ),
        levy_only(kind=SymmetricStable(alpha=1.2)),
        levy_only(kind=StableSubordinatorMeasure(alpha=0.5)),
    ]
    for spec in specs:
        res = generator_apply(spec, const, np.array([0.7]))
        assert abs(res.value) <= 1e-12


def test_generator_linear_drift_closed_form():
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    qf = QuadForm(q)
    h = np.array([[-1.0, 0.3], [0.0, -2.0]])
    a = np.array([[0.5, 0.1], [0.1, 1.5]])
    spec = OUJump(H=h, levy=LevyMeasureSpec(a_L=a))
    fn = PolyNorm(qf, 2.0)
    for r in (1.2, 3.0, 7.5):
        x = r * np.array([math.cos(1.1), math.sin(1.1)])
        res = generator_apply(spec, fn, x)
        expected = float(x @ (h.T @ q + q @ h) @ x) + float(np.trace(a @ q))
        assert res.value == pytest.approx(expected, abs=1e-8)


def gaussian_fn():
    return CustomFn(
        value_fn=lambda x: math.exp(-float(x[0]) ** 2),
        grad_fn=lambda x: np.array([-2.0 * x[0] * math.exp(-float(x[0]) ** 2)]),
        hess_fn=lambda x: np.array(
            [[(4.0 * float(x[0]) ** 2 - 2.0) * math.exp(-float(x[0]) ** 2)]]
        ),
        growth=("poly", 0.0),
    )


@pytest.mark.parametrize("alpha", [0.6, 1.2, 1.7])
def test_generator_stable_1d_fourier_oracle(alpha):
    # for f(z) = exp(-z^2) the jump generator acts through the Fourier symbol:
    # L f(x) = -(s^alpha / sqrt(pi)) int_0^inf u^alpha exp(-u^2/4) cos(ux) du
    from scipy.integrate import quad

    scale = 0.8
    spec = levy_only(kind=SymmetricStable(alpha=alpha, scale=scale))
    x = np.array([0.5])
    res = generator_apply(spec, gaussian_fn(), x)
    oracle, _ = quad(
        lambda u: u**alpha * math.exp(-u * u / 4.0) * math.cos(u * 0.5),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    expected = -(scale**alpha) / math.sqrt(math.pi) * oracle
    assert res.value == pytest.approx(expected, abs=1e-6)
    assert abs(res.value - expected) <= res.error


def test_generator_stable_1d_cos_spectral_oracle():
    # fast-decaying tail case: cos(u x) is an eigenfunction with value -|s u|^alpha
    alpha, scale = 1.7, 0.8
    spec = levy_only(kind=SymmetricStable(alpha=alpha, scale=scale))
    for u in (0.7, 1.3):
        fn = cosine_fn([u])
        res = generator_apply(spec, fn, np.array([0.5]))
        expected = -((scale * u) ** alpha) * math.cos(u * 0.5)
        assert res.value == pytest.approx(expected, abs=1e-6)
        assert abs(res.value - expected) <= res.error


def test_generator_stable_independent_axes_oracle():
    # independent per-coordinate stable parts add their 1-D symbols
    alpha, scale = 1.4, 1.0
    spec = levy_only(
        dim=2, kind=SymmetricStable(alpha=alpha, scale=scale, structure="independent")
    )
    u = np.array([0.9, 0.4])
    fn = cosine_fn(u)
    x = np.array([0.3, -0.6])
    res = generator_apply(spec, fn, x)
    expected = -((abs(u[0]) ** alpha + abs(u[1]) ** alpha)) * math.cos(float(u @ x))
    assert res.value == pytest.approx(expected, abs=1e-6)
    assert abs(res.value - expected) <= res.error


def test_generator_stable_isotropic_mc_oracle():
    alpha = 1.3
    spec = levy_only(dim=2, kind=SymmetricStable(alpha=alpha, scale=1.0))
    u = np.array([0.8, 0.5])
    fn = cosine_fn(u)
    x = np.array([0.2, 0.4])
    res = generator_apply(spec, fn, x, jump_mc_samples=60_000, seed=2)
    expected = -(float(np.linalg.norm(u)) ** alpha) * math.cos(float(u @ x))
    assert res.error > 0
    assert res.value == pytest.approx(expected, abs=max(6 * res.error, 0.01))


def test_generator_subordinator_laplace_oracle():
    # one-sided stable measure acts on exp(-x) as multiplication by -u^alpha, u = 1
    alpha = 0.5
    spec = levy_only(kind=StableSubordinatorMeasure(alpha=alpha))
    fn = CustomFn(
        value_fn=lambda x: math.exp(-float(x[0])),
        grad_fn=lambda x: np.array([-math.exp(-float(x[0]))]),
        hess_fn=lambda x: np.array([[math.exp(-float(x[0]))]]),
        growth=("poly", 0.0),
    )
    x = np.array([0.3])
    res = generator_apply(spec, fn, x)
    assert res.value == pytest.approx(-math.exp(-0.3), abs=1e-6)
    assert abs(res.value + math.exp(-0.3)) <= res.error


_CERTIFY_V = PolyNormPlusOne(QuadForm(np.eye(1)), 0.5)
_STABLE_2D_V = PolyNormPlusOne(QuadForm(np.array([[2.0, 0.3], [0.3, 1.0]])), 0.8)
# 35 points: a many-row BLAS product rounds some of these rows unlike a one-row call
_GRID_2D = [[a, b] for a in np.linspace(-3.0, 3.0, 7) for b in np.linspace(-2.1, 1.7, 5)]
_NETWORK_2D = PiecewiseOU(
    l=[0.2, -0.1], M=[[2.0, -0.5], [-0.8, 1.5]], Gamma=np.diag([0.5, 1.0]),
    v=[0.6, 0.4], sigma=[[0.5, 0.1], [0.2, 0.4]],
    levy=LevyMeasureSpec(),
)


@pytest.mark.parametrize(
    "spec, fn, grid, samples",
    [
        # 1-D stable quadrature, with points whose Taylor region and panels meet the blend sphere
        (OUJump(H=[[-1.0]], levy=LevyMeasureSpec(kind=SymmetricStable(alpha=1.5))),
         _CERTIFY_V, [[-20.0], [0.0], [0.7], [1.5], [2.5]], 20_000),
        # isotropic-stable Monte Carlo, one RNG block per point
        (levy_only(dim=2, kind=SymmetricStable(alpha=1.3)),
         _STABLE_2D_V, [[0.1, 0.2], [1.0, -2.0], [3.0, 0.5]], 2000),
        # finite atoms
        (levy_only(dim=2, a_L=np.eye(2), kind=CompoundPoisson(
            rate=1.5, jump_dist=DiscreteJumps([[0.5, 0.0], [-0.3, 1.2]], [0.5, 0.5]))),
         _STABLE_2D_V, [[0.1, 0.2], [1.0, -2.0]], 20_000),
        # one-sided subordinator quadrature
        (levy_only(kind=StableSubordinatorMeasure(alpha=0.5)),
         PolyNormPlusOne(QuadForm(np.eye(1)), 0.3), [[-4.0], [0.3], [6.0]], 20_000),
        # 2-D drifts with off-diagonal coefficients: each row's drift is formed alone
        (OUJump(H=[[-1.0, 0.4], [-0.3, -2.0]], levy=LevyMeasureSpec(a_L=np.eye(2))),
         _STABLE_2D_V, _GRID_2D, 2000),
        (_NETWORK_2D, _STABLE_2D_V, _GRID_2D, 2000),
    ],
    ids=["stable-quadrature", "isotropic-mc", "atoms", "subordinator", "ou-2d-drift",
         "piecewise-ou-2d-drift"],
)
def test_batched_generator_equals_per_point_calls(spec, fn, grid, samples):
    grid = np.array(grid)
    batch = generator_apply(spec, fn, grid, jump_mc_samples=samples, seed=7)
    assert batch.value.shape == batch.error.shape == (grid.shape[0],)
    for i, x in enumerate(grid):
        single = generator_apply(spec, fn, x, jump_mc_samples=samples, seed=7, point_index=i)
        assert isinstance(single.value, float)
        assert batch.value[i] == single.value
        # a batch may add zero-width panels, which regroup the rounding of the
        # pair difference, so the error estimates agree to leading digits
        assert batch.error[i] == pytest.approx(single.error, rel=1e-3)


# L = J for V = 1 + chi^(1/2), alpha = 1.5, unit scale (the certify workload's
# jump part), computed with mpmath at 60 digits by tanh-sinh quadrature of the
# second difference, split at |x +- r| = 1 and evaluated with enough extra
# digits near r = 0 that nothing cancels
_CERTIFY_JUMP = {
    0.0: 1.019217939426983043645112,
    0.7: 0.3512488517416443294824049,
    1.5: 0.0241424583650755440999813,
    2.5: 0.006195546766115138273163112,
    20.0: 0.00003290643552369749132431715,
}


def test_certify_jump_integral_within_its_reported_error():
    xs = np.array(list(_CERTIFY_JUMP))
    res = generator_apply(levy_only(kind=SymmetricStable(alpha=1.5)), _CERTIFY_V, xs[:, None])
    exact = np.array(list(_CERTIFY_JUMP.values()))
    assert np.all(np.abs(res.value - exact) <= res.error)
    assert np.all(res.error < 1e-12)


# the far tail int_R^inf D(r) r^{-1-alpha} dr beyond R = 2^16, the smallest
# reach, which keeps |x +- r d| >= 3 (1 + |x|) for |x| up to 1e3
_FAR_REACH = 2.0**16
_FAR_POINTS = {
    1: (QuadForm(np.eye(1)), [[0.3], [-7.0], [1e3]]),
    2: (QuadForm(np.array([[2.0, 0.3], [0.3, 1.0]])), [[0.2, -0.1], [-700.0, 700.0]]),
}


def _far_tail_oracle(fn, x, d, signs, alpha):
    """The far tail of ``V = offset + |y|_Q^theta`` along ``d`` at ``x``, in 20
    digits: with ``r = R/w`` and ``w = v^{1/(alpha - theta)}`` it is
    ``R^{-alpha} / (alpha - theta) int_0^1 D(R/w) w^theta dv``, whose
    integrand is bounded; V(x) is the library's double."""
    theta, q = fn.growth[1], fn.qf.Q
    with mp.workdps(20):
        a, b, c = (mp.mpf(float(u @ q @ v)) for u, v in ((d, d), (x, d), (x, x)))
        reach, alpha_, theta_ = mp.mpf(_FAR_REACH), mp.mpf(alpha), mp.mpf(theta)
        centre = mp.mpf(float(fn.value(x))) - fn.offset
        k = 1 / (alpha_ - theta_)

        def scaled_difference(v):  # D(R/w) w^theta
            w = v**k
            landed = sum((a * reach**2 + 2 * s * b * reach * w + c * w * w) ** (theta_ / 2)
                         for s in signs)
            return landed - len(signs) * centre * w**theta_

        return float(reach**-alpha_ * k * mp.quad(scaled_difference, [0, 1]))


@pytest.mark.parametrize(
    "alpha, signs",
    [(0.6, (1.0, -1.0)), (1.2, (1.0, -1.0)), (1.5, (1.0, -1.0)), (1.9, (1.0, -1.0)),
     (0.3, (1.0,)), (0.7, (1.0,))],
    ids=["stable-0.6", "stable-1.2", "stable-1.5", "stable-1.9", "subordinator-0.3",
         "subordinator-0.7"],
)
@pytest.mark.parametrize("dim", [1, 2])
def test_far_tail_pair_within_its_error_of_an_mpmath_oracle(alpha, signs, dim):
    # the batched Gauss–Jacobi pair of lyapunov.quad, per axis, for growth
    # orders up to just below alpha, with and without a constant term
    qf, points = _FAR_POINTS[dim]
    x = np.array(points)
    for theta in (0.05 * alpha, 0.5 * alpha, 0.97 * alpha):
        for d in np.eye(dim):
            exact = [_far_tail_oracle(PolyNorm(qf, theta), xi, d, signs, alpha) for xi in x]
            for fn in (PolyNorm(qf, theta), PolyNormPlusOne(qf, theta)):
                value, error = lyapunov.quad(fn, x, d, signs, alpha, np.full(len(x), _FAR_REACH))
                # the pair agrees, so no point falls back to the far tail's bound
                assert np.all(error <= np.maximum(1e-12, 1e-10 * np.abs(value)))
                assert np.all(np.abs(value - exact) <= error)


@pytest.mark.parametrize("n", [16, 32, 128, 256])
@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.5])
def test_jacobi_rules_match_eigenvectors_and_integrate_moments(beta, n):
    from scipy.linalg import eigh_tridiagonal

    t, w = lyapunov._jacobi01(n, beta)
    # the eigenvector-built rule of the same Jacobi matrix: a node's error is
    # a rounding of the matrix, and a weight near an endpoint moves by up to
    # n^2 times that, relative
    k = np.arange(1, n)
    s = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))])
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = eigh_tridiagonal(diag, off)
    eps = np.finfo(float).eps
    assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 2 * eps
    np.testing.assert_allclose(w, v[0] ** 2 / (beta + 1.0), rtol=n * n * eps, atol=0)
    # exact for r^j, j < 2n: int_0^1 r^(beta + j) dr = 1 / (beta + j + 1)
    j = np.arange(2 * n)
    moments = (w * t ** j[:, None]).sum(axis=1)
    np.testing.assert_allclose(moments * (beta + j + 1.0), 1.0, rtol=1e-13, atol=0)
    # and int_0^1 r^beta cos(3 r) dr, in 30 digits, with r = u^(1 / (beta + 1))
    with mp.workdps(30):
        power = 1 / (mp.mpf(beta) + 1)
        exact = power * mp.quad(lambda u: mp.cos(3 * u**power), [0, 1])
    assert float(w @ np.cos(3.0 * t)) == pytest.approx(float(exact), rel=1e-13)


def test_certify_far_tails_resolve_by_their_pair(monkeypatch):
    # the certify workload's 17-point drift check: every far tail's pair
    # agrees, so none takes the far tail's bound
    far_quad, tails = lyapunov.quad, []

    def recorded(*args):
        tails.append(far_quad(*args))
        return tails[-1]

    monkeypatch.setattr(lyapunov, "quad", recorded)
    spec = OUJump(H=[[-1.0]], levy=LevyMeasureSpec(kind=SymmetricStable(alpha=1.5)))
    grid = np.linspace(-20.0, 20.0, 17)
    report = drift_check(spec, _CERTIFY_V, LinearPhi(c_hat=0.2), grid, ball_radius=3.0)
    [(value, error)] = tails
    assert value.shape == (17,)
    assert np.all(error <= np.maximum(1e-12, 1e-10 * np.abs(value)))
    assert report.worst_margin == 0.0


def test_oscillating_far_tail_within_its_bound_of_an_exact_oracle():
    # cos(u x) keeps oscillating beyond R, so the pair disagrees (at u = 0.7
    # by less than it misses) and the error bounds the whole tail.  Exactly,
    # the tail is 2 cos(u x) (Re[(-iu)^alpha Gamma(-alpha, -iuR)] - R^-alpha / alpha)
    alpha, reach, x = 1.7, 2.0**16, 0.5
    for u in (0.7, 1.3):
        with mp.workdps(40):
            a, uu, rr = mp.mpf(alpha), mp.mpf(u), mp.mpf(reach)
            spread = mp.re((-1j * uu) ** a * mp.gammainc(-a, -1j * uu * rr))
            exact = float(2 * mp.cos(uu * mp.mpf(x)) * (spread - rr**-a / a))
        value, error = lyapunov.quad(
            cosine_fn([u]), np.array([[x]]), np.ones(1), (1.0, -1.0), alpha, np.array([reach])
        )
        assert abs(value[0] - exact) <= error[0], u


def test_generator_integrability_gates():
    stable = levy_only(kind=SymmetricStable(alpha=1.5))
    qf = QuadForm(np.eye(1))
    with pytest.raises(IntegrabilityError):  # theta = 2 >= alpha
        generator_apply(stable, PolyNorm(qf, 2.0), np.array([2.0]))
    with pytest.raises(IntegrabilityError):  # exponential growth vs stable tails
        generator_apply(stable, ExpNorm(qf, 0.3), np.array([2.0]))
    with pytest.raises(IntegrabilityError):  # undeclared growth
        generator_apply(stable, CustomFn(value_fn=lambda x: 1.0), np.array([2.0]))
    # the subordinator's threshold is its own alpha: theta = alpha is refused
    subordinator = levy_only(kind=StableSubordinatorMeasure(alpha=0.5))
    with pytest.raises(IntegrabilityError):
        generator_apply(subordinator, PolyNormPlusOne(qf, 0.5), np.array([2.0]))
    with pytest.raises(IntegrabilityError):
        generator_apply(subordinator, ExpNorm(qf, 0.3), np.array([2.0]))
    assert math.isfinite(generator_apply(subordinator, PolyNormPlusOne(qf, 0.3), 2.0).value)


def test_generator_poly_below_alpha_allowed():
    stable = levy_only(kind=SymmetricStable(alpha=1.5))
    qf = QuadForm(np.eye(1))
    res = generator_apply(stable, PolyNorm(qf, 1.2), np.array([3.0]))
    assert math.isfinite(res.value)


def test_generator_refuses_a_discrete_time_process():
    with pytest.raises(ConfigError):
        generator_apply(
            BackwardRecurrence(alpha=3.0, i0=5), PolyNormPlusOne(QuadForm(np.eye(1)), 1.0), [1.0]
        )


def test_langevin_generator_computes_its_coefficients_once(monkeypatch):
    # a batch's generator reads the drift and sigma the walk steps: one
    # langevin_coeffs call for both, and L V = <b, grad V> + 1/2 tr(s s' hess V)
    import ergolab.processes as processes

    spec = LangevinTempered(alpha=0.3, beta=0.25, dim=2)
    fn = PolyNormPlusOne(QuadForm(np.eye(2)), 1.5)
    x = np.array([[0.5, 0.2], [2.0, -1.0], [0.0, 3.0]])
    b, sig = langevin_coeffs(spec, x)
    expected = np.sum(b * fn.grad(x), axis=1) + 0.5 * np.einsum(
        "mi,mii->m", sig * sig, fn.hess(x)
    )
    calls = []
    coeffs = processes.langevin_coeffs
    monkeypatch.setattr(processes, "langevin_coeffs",
                        lambda spec, x: calls.append(1) or coeffs(spec, x))
    res = generator_apply(spec, fn, x)
    assert len(calls) == 1
    assert np.allclose(res.value, expected, rtol=1e-13, atol=0.0)
    assert np.all(res.error == 0.0)


# ---------------------------------------------------------------------------
# drift check
# ---------------------------------------------------------------------------


def test_drift_check_ou_report():
    # 1-D OU: b = -x, a = 2; V = 1 + chi^2; phi(t) = 0.5 t
    qf = QuadForm(np.eye(1))
    spec = OUJump(H=[[-1.0]], levy=LevyMeasureSpec(a_L=[[2.0]]))
    fn = PolyNormPlusOne(qf, 2.0)
    phi = LinearPhi(c_hat=0.5)
    grid = np.concatenate([-np.linspace(0.5, 5.0, 10)[::-1], np.linspace(0.5, 5.0, 10)])
    report = drift_check(spec, fn, phi, grid, ball_radius=2.0)
    assert report.grid.shape == (20, 1)
    # consistency of the reported arrays
    assert np.allclose(report.margin, report.rhs - report.lhs, atol=1e-12)
    assert report.worst_margin == pytest.approx(float(np.min(report.margin)))
    # b is the smallest constant covering phi(V) + LV inside the ball
    inside = np.abs(report.grid[:, 0]) <= 2.0
    assert report.b == pytest.approx(float(np.max(report.phi_values[inside] + report.lhs[inside])))
    assert np.all(report.margin[inside] >= -1e-12)
    # outside the ball the OU drift dominates: margins stay nonnegative
    assert report.worst_margin >= -1e-12
    # V >= 1 everywhere and phi evaluated there
    assert np.all(report.lyapunov_values >= 1.0)


def test_drift_check_margin_is_exactly_zero_where_b_is_set():
    # b = phi + LV at the only point; (b - phi) - LV rounds to -4.4e-16 for
    # this pair, b - (phi + LV) is exactly 0
    phi_v, lv = 1.3474668754545474, 2.844713819298782
    fn = CustomFn(
        value_fn=lambda x: phi_v,
        grad_fn=lambda x: np.array([1.0]),
        hess_fn=lambda x: np.zeros((1, 1)),
        growth=("poly", 0.0),
    )
    report = drift_check(levy_only(b_L=[lv]), fn, LinearPhi(1.0), [0.0], ball_radius=1.0)
    assert report.phi_values[0] == phi_v and report.lhs[0] == lv
    assert report.margin[0] == 0.0
    assert report.worst_margin == 0.0


def test_drift_check_flags_failing_condition():
    # outward drift b = +x cannot satisfy the inequality far from the origin
    qf = QuadForm(np.eye(1))
    spec = OUJump(H=[[1.0]], levy=LevyMeasureSpec(a_L=[[1.0]]))
    fn = PolyNormPlusOne(qf, 2.0)
    report = drift_check(spec, fn, LinearPhi(0.5), np.linspace(1.5, 6.0, 8), ball_radius=1.0)
    assert report.worst_margin < 0
