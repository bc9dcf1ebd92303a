"""End-to-end acceptance gate.

Each test exercises one published capability of the package at its stated
tolerance and runtime budget.  ``pytest tests/test_acceptance.py -v`` prints
one PASSED/FAILED line per criterion; run with ``-s`` to also see the
measured numbers behind each verdict (every test ends by printing a
``criterion N (...): PASS`` line with its key measurements).
"""

import filecmp
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq

from ergolab.cli import fit_rate, parse_experiment_config, run_experiment
from ergolab.coupling import (
    DissipativityParams,
    contraction_estimate,
    find_q,
    prop35_cp,
    synchronous_pair_sim,
)
from ergolab.lowerbound import LowerBoundInstance, lower_bound_curve
from ergolab.lyapunov import (
    ExpNorm,
    PolyNorm,
    PolyNormPlusOne,
    QuadForm,
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
    simulate,
)
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
)
from ergolab.subordination import (
    Exponential,
    StableSub,
    SubordinatorSpec,
    subordinate_rate,
)
from ergolab.wasserstein import (
    EmpiricalMeasure,
    sinkhorn_annealed,
    w_1d,
    w_assignment,
)
from lp_oracle import w_exact_lp
from user_callables import CustomFn


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num} ({name}): PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. optimal-transport correctness
# ---------------------------------------------------------------------------


def _random_measure(rng, dim, max_support=10):
    n = int(rng.integers(1, max_support + 1))
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0)
    w = rng.uniform(0.1, 1.0, size=n)
    return EmpiricalMeasure(points=pts, weights=w / w.sum())


def _uniform_cloud(rng, n, loc=0.0):
    pts = rng.normal(loc=loc, size=(n, 2))
    return EmpiricalMeasure(points=pts, weights=np.full(n, 1.0 / n))


def test_criterion_01_ot_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ps = [1.0, 1.5, 2.0, 3.0]
    worst_pair = 0.0  # 1-D quantile coupling vs exact LP
    worst_axiom = 0.0  # symmetry and triangle defects (distance scale)
    worst_identity = 0.0  # self-transport cost (the LP's native objective scale)
    for i in range(200):
        dim = 1 if i < 100 else 2
        p = ps[i % 4]
        mu = _random_measure(rng, dim)
        nu = _random_measure(rng, dim)
        rho = _random_measure(rng, dim)
        d_mn = w_exact_lp(mu, nu, p).distance
        d_nm = w_exact_lp(nu, mu, p).distance
        d_mr = w_exact_lp(mu, rho, p).distance
        d_rn = w_exact_lp(rho, nu, p).distance
        if dim == 1:
            worst_pair = max(worst_pair, abs(w_1d(mu, nu, p) - d_mn))
            assert w_1d(mu, mu, p) == 0.0
        worst_identity = max(worst_identity, w_exact_lp(mu, mu, p).distance ** p)
        worst_axiom = max(worst_axiom, abs(d_mn - d_nm), d_mn - (d_mr + d_rn))
    assert worst_pair <= 1e-9
    assert worst_axiom <= 1e-9
    # the solver certifies optimality on the cost; a p-th root would amplify
    # its ~1e-9 residual into the milli-range on degenerate self instances
    assert worst_identity <= 1e-8
    # uniform clouds of equal size: the library's assignment against the LP
    # oracle, and Sinkhorn against the assignment
    worst_sink = worst_assign = 0.0
    for _ in range(3):
        mu = _uniform_cloud(rng, 32)
        nu = _uniform_cloud(rng, 32, loc=0.7)
        exact_cost = w_assignment(mu, nu, 2.0) ** 2
        oracle_cost = w_exact_lp(mu, nu, 2.0).cost
        worst_assign = max(worst_assign, abs(exact_cost - oracle_cost) / oracle_cost)
        scale2 = float(
            np.mean(np.sum((mu.points[:, None, :] - nu.points[None, :, :]) ** 2, axis=-1))
        )
        res = sinkhorn_annealed(mu, nu, p=2.0, epsilon=1e-3 * scale2, max_iter=20000, tol=2e-4)
        worst_sink = max(worst_sink, abs(res.cost - exact_cost) / exact_cost)
    assert worst_assign <= 1e-9
    assert worst_sink < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        1,
        "OT correctness",
        f"200 instances: |w_1d - LP| <= {worst_pair:.2e}, symmetry/triangle defect <= "
        f"{worst_axiom:.2e}, self-cost <= {worst_identity:.2e}; assignment vs LP rel err "
        f"<= {worst_assign:.2e}; sinkhorn vs assignment rel err <= {worst_sink:.2%}; "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. rate calculus: closed forms vs quadrature + inversion
# ---------------------------------------------------------------------------


def _phi_quadrature(spec, s):
    """Independent route to Phi(s): piecewise quadrature on a geometric partition."""
    if s == 1.0:
        return 0.0
    edges = np.geomspace(1.0, s, max(2, int(10 * math.log10(s)) + 2))
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        val, _ = quad(lambda u: 1.0 / phi_eval(spec, u), a, b, epsabs=0.0, epsrel=1e-13, limit=100)
        total += val
    return total


def _pipeline_rate(spec, t, s_hi):
    """Independent route to r(t): root-find the quadrature Phi, then evaluate phi."""
    s = brentq(lambda s: _phi_quadrature(spec, s) - t, 1.0, s_hi, rtol=8.9e-16)
    return phi_eval(spec, s)


def test_criterion_02_rate_calculus():
    start = time.perf_counter()
    ts = np.geomspace(1.0, 1e6, 40)
    worst_rate = 0.0
    worst_round = 0.0

    for kappa, c in ((0.5, 2.0), (0.25, 0.7)):
        spec = PowerPhi(kappa=kappa, prefactor=c)
        for t in ts:
            closed = c * (1.0 + (1.0 - kappa) * c * t) ** (kappa / (1.0 - kappa))
            s_true = (1.0 + (1.0 - kappa) * c * t) ** (1.0 / (1.0 - kappa))
            lib = rate_r(spec, t)
            pipe = _pipeline_rate(spec, t, 4.0 * s_true + 10.0)
            worst_rate = max(
                worst_rate,
                abs(lib - closed) / closed,
                abs(pipe - closed) / closed,
                abs(lib - pipe) / closed,
            )
            rt = big_phi_inv(spec, big_phi(spec, t))
            worst_round = max(worst_round, abs(rt - t) / t)

    # linear phi over the full range: r(t) = c e^{c t}; a small slope keeps
    # Phi^{-1}(t) in floating-point range out to t = 1e6
    spec = LinearPhi(c_hat=1e-5)
    for t in ts:
        closed = 1e-5 * math.exp(1e-5 * t)
        lib = rate_r(spec, t)
        pipe = _pipeline_rate(spec, t, 4.0 * math.exp(1e-5 * t) + 10.0)
        worst_rate = max(
            worst_rate,
            abs(lib - closed) / closed,
            abs(pipe - closed) / closed,
            abs(lib - pipe) / closed,
        )
        rt = big_phi_inv(spec, big_phi(spec, t))
        worst_round = max(worst_round, abs(rt - t) / t)

    # unit slope: the inversion bracket grows like e^t, so match rates on
    # moderate t and round-trip Phi across the full range
    spec = LinearPhi(c_hat=1.0)
    for t in np.linspace(1.0, 40.0, 12):
        closed = math.exp(t)
        worst_rate = max(worst_rate, abs(rate_r(spec, t) - closed) / closed)
    for t in ts:
        rt = big_phi_inv(spec, big_phi(spec, t))
        worst_round = max(worst_round, abs(rt - t) / t)

    assert worst_rate <= 1e-8
    assert worst_round <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        2,
        "rate calculus",
        f"closed vs quadrature+inversion rel err <= {worst_rate:.2e}; "
        f"round-trip rel err <= {worst_round:.2e}; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. Ornstein-Uhlenbeck exponential ergodicity
# ---------------------------------------------------------------------------


def test_criterion_03_ou_exponential_ergodicity():
    start = time.perf_counter()
    spec = OUJump(H=np.array([[-1.0]]), levy=LevyMeasureSpec(a_L=np.array([[1.0]])))
    t_grid = np.arange(1, 9) * 0.5
    batch = simulate(
        spec, np.array([2.0]), np.concatenate(([0.0], t_grid)), 100_000, 12, max_step=0.5
    )
    k = 200_000
    sigma_inf = math.sqrt(0.5)
    reference = EmpiricalMeasure(
        points=stats.norm.ppf((np.arange(k) + 0.5) / k, scale=sigma_inf)[:, None],
        weights=np.full(k, 1.0 / k),
    )
    empirical = np.array(
        [
            w_1d(EmpiricalMeasure.from_samples(batch.paths[:, j + 1, :]), reference, 2.0)
            for j in range(t_grid.size)
        ]
    )
    closed = np.array(
        [
            math.sqrt(
                (2.0 * math.exp(-t)) ** 2
                + (math.sqrt(0.5 * (1.0 - math.exp(-2.0 * t))) - sigma_inf) ** 2
            )
            for t in t_grid
        ]
    )
    rel = np.abs(empirical - closed) / closed
    assert np.all(rel < 0.05)
    fit = fit_rate(t_grid, empirical, "exponential")
    assert 0.95 <= fit.rate <= 1.05
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        3,
        "OU exponential ergodicity",
        f"pointwise rel err <= {rel.max():.2%} (gate 5%); fitted rate "
        f"{fit.rate:.4f} in [0.95, 1.05]; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. synchronous coupling vs dissipativity envelope
# ---------------------------------------------------------------------------


def test_criterion_04_synchronous_coupling():
    start = time.perf_counter()
    M = np.array([[1.0]])
    Gamma = np.array([[1.0]])
    v = np.array([1.0])
    jumps = CompoundPoisson(
        rate=1.0,
        jump_dist=DiscreteJumps(atoms=np.array([[1.0], [-1.0]]), probs=np.array([0.5, 0.5])),
    )
    spec = PiecewiseOU(
        l=np.array([0.0]),
        M=M,
        Gamma=Gamma,
        v=v,
        sigma=np.array([[1.0]]),
        levy=LevyMeasureSpec(kind=jumps),
    )
    q = find_q(spec)
    assert isinstance(q, QuadForm)
    c2 = prop35_cp(spec, q, 0.0, 2.0)  # constant sigma: Lip(sqrt(Q) sigma) = 0
    assert c2 > 0
    pairs = synchronous_pair_sim(
        spec, np.array([2.0]), np.array([-1.0]), np.linspace(0.0, 3.0, 13), 2000, 7, max_step=0.01
    )
    report = contraction_estimate(
        pairs, 2.0, params=DissipativityParams(q=q, p=2.0, c_p=c2), n_boot=200, seed=1
    )
    assert report.violations == 0
    assert np.all(report.moment_curve <= report.envelope + 3.0 * report.boot_se)
    assert report.fitted_rate >= c2 / 2.0 - 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        4,
        "synchronous coupling",
        f"c(2) = {c2:.4g}; 0 envelope violations at 3 bootstrap SE over "
        f"{report.times.size} grid times; fitted rate {report.fitted_rate:.4f} >= "
        f"{c2 / 2 - 0.05:.2f}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5 & 9. subexponential bracket for the backward recurrence chain, and
#        byte-level determinism of the same experiment
# ---------------------------------------------------------------------------

CHAIN_GRID = [
    1.0, 2.0, 3.0, 4.0, 5.0,
    10.0, 18.0, 32.0, 56.0, 100.0, 178.0, 316.0, 562.0, 1000.0,
    1778.0, 3162.0, 5623.0, 10000.0,
]

CHAIN_PARAMS = LowerRateParams(theta=3.95, vartheta=2.95, eps_var=0.05, eps_small=0.45, p=1.0)


def _chain_config():
    return {
        "process": {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
        "x0": [0.0],
        "t_grid": list(CHAIN_GRID),
        "n_paths": 100_000,
        "seed": 20260815,
        "distance": {"kind": "w1d"},
        "p": 1.0,
        "reference": {"kind": "exact_invariant"},
        "rate_model": "polynomial",
    }


def _read_curve(path):
    rows = path.read_text().strip().splitlines()[1:]
    times = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    return times, vals


@pytest.fixture(scope="module")
def chain_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain-first")
    start = time.perf_counter()
    cfg = parse_experiment_config(_chain_config())
    fit = run_experiment(cfg, out_dir=out)
    elapsed = time.perf_counter() - start
    times, vals = _read_curve(out / "distances.csv")
    return cfg, fit, out, times, vals, elapsed


def _exact_drift_constant(spec, v_of, horizon=1000):
    """max_i (P V - V)(i): one step either climbs to i+1 or resets to 0."""
    best = -math.inf
    for i in range(horizon + 1):
        up = float(spec.up_prob(np.array(float(i))))
        best = max(best, up * v_of(i + 1) + (1.0 - up) * v_of(0) - v_of(i))
    return best


def test_criterion_05_subexponential_bracket(chain_experiment):
    cfg, fit, out, times, vals, sim_elapsed = chain_experiment
    start = time.perf_counter()
    spec = BackwardRecurrence(3.0, 5)

    # (a) upper envelope: V = 1 + i^2 and phi(v) = sqrt(v) give a unit
    # profile exponent, so the multiplier is identically 1 and the envelope
    # is the best constant over the log-grid portion of the curve
    upper = UpperRateParams(eta=1.0, p=1.0, phi=PowerPhi(kappa=0.5, prefactor=1.0))
    log_mask = times >= 10.0
    mult = np.array([upper_multiplier_w1(upper, t) for t in times[log_mask]])
    c_fit = float(np.max(vals[log_mask] * mult))
    assert np.all(vals[log_mask] <= c_fit / mult + 1e-15)

    # (b) explicit lower bounds at the constructed times: the level-to-time
    # map is inverted so the matched times land exactly on the small integer
    # grid points, and the invariant tail is exact at every level
    theta = CHAIN_PARAMS.theta
    v_scalar = lambda i: 1.0 + float(i) ** theta
    b = _exact_drift_constant(spec, v_scalar)
    assert b > 0
    delta = theta - CHAIN_PARAMS.vartheta - CHAIN_PARAMS.eps_var - CHAIN_PARAMS.eps_small
    levels = np.array(
        [((b * k + v_scalar(0)) * 2.0 ** (theta - 1.0)) ** (1.0 / delta) for k in (1, 2, 3, 4, 5)]
    )
    instance = LowerBoundInstance(
        tail=spec.tail,
        lip=1.0,
        v0=v_scalar(0),
        c=1.0,
        b=b,
        params=CHAIN_PARAMS,
    )
    curve = lower_bound_curve(instance, 5, s_grid=levels)
    matched = np.rint(curve.t)
    assert np.max(np.abs(curve.t - matched)) < 1e-9
    assert np.array_equal(matched, np.arange(1.0, 6.0))
    assert np.all(curve.bound > 0)
    idx = np.searchsorted(times, matched)
    assert np.all(vals[idx] >= curve.bound)

    # fitted log-log slope over the log grid lies between the envelope
    # exponent (0) and the lower-bound exponent, with 15% slack
    lo_exp = lower_exponent(CHAIN_PARAMS)
    slope = float(np.polyfit(np.log(times[log_mask]), np.log(vals[log_mask]), 1)[0])
    assert -1.15 * lo_exp <= slope <= 0.0

    elapsed = sim_elapsed + time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        5,
        "subexponential bracket",
        f"upper envelope C = {c_fit:.4g} holds on the log grid; lower bounds "
        f"at t = 1..5 all positive and below the measured curve; slope "
        f"{slope:.3f} in [{-1.15 * lo_exp:.2f}, 0]; {elapsed:.1f}s",
    )


def test_criterion_09_determinism(chain_experiment, tmp_path):
    cfg, fit, out, _, _, _ = chain_experiment
    fit2 = run_experiment(cfg, out_dir=tmp_path)
    assert filecmp.cmp(out / "distances.csv", tmp_path / "distances.csv", shallow=False)
    assert fit2.rate == fit.rate and fit2.intercept == fit.intercept
    _report(
        9,
        "determinism",
        "two runs of the chain experiment with equal seeds produced "
        "byte-identical distances.csv",
    )


# ---------------------------------------------------------------------------
# 6. drift-condition checker on the tempered Langevin diffusion
# ---------------------------------------------------------------------------


def test_criterion_06_drift_checker():
    start = time.perf_counter()
    spec = LangevinTempered(alpha=0.2, beta=0.0, dim=1)
    fn = PolyNormPlusOne(QuadForm(np.eye(1)), 3.0)
    # L V = -4.5 |x| + O(1/x) for this drift, i.e. ~ -4.5 V^{1/3}
    phi = PowerPhi(kappa=1.0 / 3.0, prefactor=4.0)
    radius = 5.0
    grid = np.linspace(-50.0, 50.0, 101)
    report = drift_check(spec, fn, phi, grid, ball_radius=radius)
    outside = np.abs(report.grid[:, 0]) > radius
    assert outside.sum() >= 80
    worst_outside = float(report.margin[outside].min())
    assert worst_outside >= 0.0
    assert radius <= 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        6,
        "drift checker",
        f"margins nonnegative on [-50,50] outside |x| <= r = {radius:g} "
        f"(min margin {worst_outside:.3f}); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. subordination transfer
# ---------------------------------------------------------------------------


def test_criterion_07_subordination():
    start = time.perf_counter()
    rate = Exponential(gamma=1.0)
    clock = SubordinatorSpec(kind=StableSub(alpha=0.5))
    worst = 0.0
    for p in (1.0, 2.0):
        for i, t in enumerate((1.0, 2.0, 4.0)):
            est = subordinate_rate(rate, p, clock, t, 1_000_000, seed=1000 + 10 * int(p) + i)
            target = math.exp(-t * (p * 1.0) ** 0.5 / p)
            worst = max(worst, abs(est.value - target) / target)
    assert worst < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        7,
        "subordination",
        f"Monte Carlo transferred rate within {worst:.2%} of the closed form "
        f"for p in {{1,2}}, t in {{1,2,4}} (gate 2%); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. generator sanity
# ---------------------------------------------------------------------------


def test_criterion_08_generator_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(8)

    # L(constant) = 0 with drift, diffusion, and jumps all active
    jumps = CompoundPoisson(
        rate=2.0,
        jump_dist=DiscreteJumps(
            atoms=np.array([[0.5, 0.0], [-0.3, 0.2]]), probs=np.array([0.4, 0.6])
        ),
    )
    spec = OUJump(H=-np.eye(2), levy=LevyMeasureSpec(kind=jumps, a_L=np.eye(2)))
    const = CustomFn(value_fn=lambda x: 7.25)
    worst_const = max(
        abs(generator_apply(spec, const, x)[0]) for x in rng.normal(size=(12, 2))
    )
    assert worst_const <= 1e-12

    # linear drift + quadratic V: L V = 2 (Hx)'Qx + tr(A Q) wherever V is
    # exactly the quadratic form (outside the interior blend region)
    H = rng.normal(size=(2, 2))
    a_half = rng.normal(size=(2, 2))
    A = a_half @ a_half.T
    Qm = np.array([[2.0, 0.3], [0.3, 1.0]])
    qf = QuadForm(Qm)
    lin_spec = OUJump(H=H, levy=LevyMeasureSpec(a_L=A))
    v_quad = PolyNorm(qf, 2.0)
    pts = rng.normal(size=(30, 2)) * 3.0
    pts = pts[np.einsum("mi,ij,mj->m", pts, Qm, pts) >= qf.lam_min * 1.05][:12]
    assert len(pts) >= 8
    worst_quad = 0.0
    for x in pts:
        closed = 2.0 * (H @ x) @ (Qm @ x) + float(np.trace(A @ Qm))
        numeric = generator_apply(lin_spec, v_quad, x)[0]
        worst_quad = max(worst_quad, abs(numeric - closed) / (1.0 + abs(closed)))
    assert worst_quad <= 1e-8

    # finite-difference gradient/Hessian agreement across the Lyapunov library
    def fd_grad(f, x, h=1e-6):
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        return g

    def fd_hess(f, x, h=1e-4):
        n = x.size
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                ei = np.zeros_like(x)
                ej = np.zeros_like(x)
                ei[i] = h
                ej[j] = h
                out[i, j] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h * h)
        return out

    library = [
        PolyNorm(qf, 2.5),
        PolyNormPlusOne(qf, 3.0),
        ExpNorm(qf, 0.4),
        CustomFn(
            value_fn=lambda x: float(np.cosh(0.5 * x[0]) + x[1] ** 4),
            grad_fn=lambda x: np.array([0.5 * np.sinh(0.5 * x[0]), 4.0 * x[1] ** 3]),
            hess_fn=lambda x: np.diag([0.25 * np.cosh(0.5 * x[0]), 12.0 * x[1] ** 2]),
        ),
    ]
    worst_fd = 0.0
    for fn in library:
        for x in rng.normal(size=(6, 2)) * 2.0 + 0.5:
            g = np.asarray(fn.grad(x))
            hess = np.atleast_2d(fn.hess(x))
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(g - fd_grad(fn.value, x.copy())))) / (1.0 + float(np.max(np.abs(g)))),
                float(np.max(np.abs(hess - fd_hess(fn.value, x.copy()))))
                / (1.0 + float(np.max(np.abs(hess)))),
            )
    assert worst_fd <= 1e-5

    elapsed = time.perf_counter() - start
    _report(
        8,
        "generator sanity",
        f"L(const) <= {worst_const:.1e}; quadratic closed form rel err <= "
        f"{worst_quad:.1e}; FD derivative agreement <= {worst_fd:.1e}; {elapsed:.1f}s",
    )
