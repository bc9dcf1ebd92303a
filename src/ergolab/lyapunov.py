"""Lyapunov functions, generator evaluation, and drift-condition checks.

The central objects:

* :class:`QuadForm` — a symmetric positive-definite matrix ``Q`` with the
  induced norm ``|x|_Q = sqrt(<x, Qx>)``;
* :func:`chi_q` — a smooth nonnegative symmetric convex function equal to
  ``|x|_Q`` outside the unit ball (a quadratic-in-``<x,Qx>`` blend inside);
* Lyapunov function families built on it: :class:`PolyNorm` (``chi^theta``),
  :class:`PolyNormPlusOne` (``1 + chi^theta``), :class:`ExpNorm`
  (``exp(zeta chi)``), and :class:`CustomFn`;
* :class:`GeneratorSpec` / :func:`generator_apply` — evaluate
  ``L f(x) = <b, grad f> + 1/2 tr(a hess f) + integral of the compensated
  difference against the jump measure``, with the compensation convention
  selected by ``jump_compensation``:

  - ``"ball"``: ``f(x+y) - f(x) - 1_{|y|<1} <y, grad f(x)>`` (the standard
    generator of the simulated process),
  - ``"full"``: ``f(x+y) - f(x) - <y, grad f(x)>`` everywhere,
  - ``"none"``: ``f(x+y) - f(x)`` (finite-variation jump parts only);

* :func:`drift_check` — pointwise certification of
  ``L V <= b 1_{ball} - phi(V)`` on a grid, reported as a
  :class:`DriftReport`;
* :func:`exp_jump_bound_check` — the worst jump-part ratio
  ``J[exp(zeta chi_Q)] / exp(zeta chi_Q)`` over a grid, normalized by
  ``zeta^{3/2}``.

Jump integrals are evaluated exactly for finite-support compound-Poisson
measures, by deterministic quadrature for one-dimensional stable and
subordinator measures (Taylor-remainder form near the origin, so no
catastrophic cancellation), and by Monte Carlo with a reported standard error
otherwise. For symmetric measures the ball/full/none conventions coincide in
value whenever each is defined; they differ in their integrability
requirements, which are enforced.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Literal, Union

import numpy as np
from scipy.integrate import quad

from .errors import ConfigError, DomainError, IntegrabilityError
from .processes import (
    CompoundPoisson,
    DiscreteJumps,
    LevyMeasureSpec,
    NoJumps,
    StableSubordinatorMeasure,
    SymmetricStable,
    _block_rng,
)
from .rates import PhiSpec, phi_eval

__all__ = [
    "QuadForm",
    "chi_q",
    "chi_q_grad",
    "chi_q_hess",
    "PolyNorm",
    "PolyNormPlusOne",
    "ExpNorm",
    "CustomFn",
    "LyapunovFn",
    "GeneratorSpec",
    "GeneratorResult",
    "generator_apply",
    "DriftReport",
    "drift_check",
    "exp_jump_bound_check",
]


# ---------------------------------------------------------------------------
# quadratic forms and the smoothed Q-norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadForm:
    """Symmetric positive-definite matrix with cached extreme eigenvalues."""

    Q: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.array(self.Q, dtype=float))
        if q.shape[0] != q.shape[1]:
            raise ConfigError("Q must be square")
        if np.max(np.abs(q - q.T)) > 1e-12:
            raise ConfigError("Q must be symmetric to 1e-12")
        vals = np.linalg.eigvalsh(q)
        if vals[0] <= 0:
            raise ConfigError(f"Q must be positive definite; min eigenvalue {vals[0]:.3e}")
        q.flags.writeable = False
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "_lam_min", float(vals[0]))
        object.__setattr__(self, "_lam_max", float(vals[-1]))
        _verify_chi_convexity(self)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def lam_min(self) -> float:
        return self._lam_min

    @property
    def lam_max(self) -> float:
        return self._lam_max

    def norm(self, x) -> np.ndarray | float:
        """``|x|_Q`` for a point ``(n,)`` or batch ``(m, n)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return math.sqrt(float(x @ self.Q @ x))
        return np.sqrt(np.einsum("mi,ij,mj->m", x, self.Q, x))


def _blend_coeffs(qf: QuadForm):
    """Coefficients of the interior blend ``a0 + a1 s + a2 s^2`` in ``s = <x,Qx>``.

    The blend applies on ``{|x|_Q < w0}`` with ``w0 = sqrt(lam_min)``, a region
    contained in the unit ball, and matches ``sqrt(s)`` to second order at
    ``s = w0^2``; the resulting function is convex for every PD ``Q``.
    """
    w0 = math.sqrt(qf.lam_min)
    return w0, 0.375 * w0, 0.75 / w0, -0.125 / w0**3


def chi_q(qf: QuadForm, x) -> np.ndarray | float:
    """Smooth nonnegative symmetric convex function equal to ``|x|_Q`` for ``|x| >= 1``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    s = np.einsum("mi,ij,mj->m", xb, qf.Q, xb)
    w0, a0, a1, a2 = _blend_coeffs(qf)
    inner = a0 + a1 * s + a2 * s * s
    outer = np.sqrt(np.maximum(s, w0**2))
    out = np.where(s >= w0**2, outer, inner)
    return float(out[0]) if single else out


def chi_q_grad(qf: QuadForm, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    s = float(x @ qf.Q @ x)
    w0, _, a1, a2 = _blend_coeffs(qf)
    qx = qf.Q @ x
    if s >= w0**2:
        return qx / math.sqrt(s)
    return (a1 + 2.0 * a2 * s) * 2.0 * qx


def chi_q_hess(qf: QuadForm, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    s = float(x @ qf.Q @ x)
    w0, _, a1, a2 = _blend_coeffs(qf)
    qx = qf.Q @ x
    if s >= w0**2:
        w = math.sqrt(s)
        return qf.Q / w - np.outer(qx, qx) / w**3
    return 2.0 * (a1 + 2.0 * a2 * s) * qf.Q + 8.0 * a2 * np.outer(qx, qx)


def _verify_chi_convexity(qf: QuadForm, n_segments: int = 128) -> None:
    """Numerical midpoint-convexity check of chi_Q on random segments."""
    rng = _block_rng(0xC0, qf.dim)
    a = rng.normal(scale=2.0, size=(n_segments, qf.dim))
    b = rng.normal(scale=2.0, size=(n_segments, qf.dim))
    mid = chi_q(qf, 0.5 * (a + b))
    ends = 0.5 * (chi_q(qf, a) + chi_q(qf, b))
    gap = float(np.max(mid - ends))
    if gap > 1e-9:
        raise ConfigError(f"chi_Q convexity check failed: midpoint excess {gap:.3e}")


# ---------------------------------------------------------------------------
# Lyapunov function families
# ---------------------------------------------------------------------------


Growth = Union[tuple, None]  # ("poly", order) | ("exp", rate) | None


class _NormFn:
    """``V = g(chi_Q(x))``: a family states ``outer(c) = (g(c), g'(c), g''(c))``
    and the chain rule gives the value, the gradient and the Hessian."""

    def value(self, x):
        return self.outer(chi_q(self.qf, x))[0]

    def grad(self, x):
        return self.outer(chi_q(self.qf, x))[1] * chi_q_grad(self.qf, x)

    def hess(self, x):
        _, d1, d2 = self.outer(chi_q(self.qf, x))
        g = chi_q_grad(self.qf, x)
        return d2 * np.outer(g, g) + d1 * chi_q_hess(self.qf, x)


@dataclass(frozen=True, eq=False)
class PolyNorm(_NormFn):
    """``V = chi_Q(x)^theta``."""

    qf: QuadForm
    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ConfigError("theta must be positive")

    @property
    def growth(self) -> Growth:
        return ("poly", self.theta)

    def outer(self, c):
        t = self.theta
        return c**t, t * c ** (t - 1.0), t * (t - 1.0) * c ** (t - 2.0)


@dataclass(frozen=True, eq=False)
class PolyNormPlusOne(PolyNorm):
    """``V = 1 + chi_Q(x)^theta`` (always >= 1, suitable for drift checks)."""

    def outer(self, c):
        g, d1, d2 = super().outer(c)
        return 1.0 + g, d1, d2


@dataclass(frozen=True, eq=False)
class ExpNorm(_NormFn):
    """``V = exp(zeta chi_Q(x))``."""

    qf: QuadForm
    zeta: float

    def __post_init__(self):
        if not self.zeta > 0:
            raise ConfigError("zeta must be positive")

    @property
    def growth(self) -> Growth:
        # |chi(x)| <= sqrt(lam_max) |x| + chi(0), so the exponential rate in |x|
        return ("exp", self.zeta * math.sqrt(self.qf.lam_max))

    def outer(self, c):
        v = np.exp(self.zeta * c)
        return v, self.zeta * v, self.zeta**2 * v


@dataclass(frozen=True)
class CustomFn:
    """User-supplied function with optional analytic derivatives and growth class."""

    value_fn: Callable
    grad_fn: Callable | None = None
    hess_fn: Callable | None = None
    growth: Growth = None

    def __post_init__(self):
        if not callable(self.value_fn):
            raise ConfigError("value_fn must be callable")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([float(self.value_fn(row)) for row in x])
        return float(self.value_fn(x))

    def grad(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(x), dtype=float).ravel()
        return _fd_grad(self.value_fn, x)

    def hess(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if self.hess_fn is not None:
            return np.atleast_2d(np.asarray(self.hess_fn(x), dtype=float))
        return _fd_hess(self.value_fn, x)


LyapunovFn = Union[PolyNorm, PolyNormPlusOne, ExpNorm, CustomFn]


def _fd_grad(f, x, h=1e-6):
    n = x.shape[0]
    g = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h * max(1.0, abs(x[i]))
        g[i] = (float(f(x + e)) - float(f(x - e))) / (2.0 * e[i])
    return g


def _fd_hess(f, x, h=1e-4):
    n = x.shape[0]
    out = np.empty((n, n))
    steps = [h * max(1.0, abs(x[i])) for i in range(n)]
    f0 = float(f(x))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        out[i, i] = (float(f(x + ei)) - 2.0 * f0 + float(f(x - ei))) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            mixed = (
                float(f(x + ei + ej))
                - float(f(x + ei - ej))
                - float(f(x - ei + ej))
                + float(f(x - ei - ej))
            ) / (4.0 * steps[i] * steps[j])
            out[i, j] = out[j, i] = mixed
    return out


# ---------------------------------------------------------------------------
# generator specification and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Coefficients of ``L``: drift ``b(x)``, diffusion matrix ``a(x)``, jump measure.

    ``b`` may be a callable, a constant vector, or None; ``a`` a callable, a
    constant PSD matrix, or None. The Lévy spec contributes its own ``b_L``
    and ``a_L`` additively.
    """

    b: Callable | np.ndarray | None = None
    a: Callable | np.ndarray | None = None
    levy: LevyMeasureSpec = LevyMeasureSpec()
    jump_compensation: Literal["ball", "full", "none"] = "ball"

    def __post_init__(self):
        if self.jump_compensation not in ("ball", "full", "none"):
            raise ConfigError(f"unknown jump_compensation {self.jump_compensation!r}")


class GeneratorResult(tuple):
    """(value, error) pair with named access."""

    def __new__(cls, value: float, error: float):
        return super().__new__(cls, (float(value), float(error)))

    @property
    def value(self) -> float:
        return self[0]

    @property
    def error(self) -> float:
        return self[1]


def _eval_coeff(c, x, default=None):
    if c is None:
        return default
    if callable(c):
        return np.asarray(c(x), dtype=float)
    return np.asarray(c, dtype=float)


def _check_growth(tc, fn) -> None:
    """The function's declared growth must integrate against moment classes ``tc``."""
    growth = getattr(fn, "growth", None)
    if growth is None:
        raise IntegrabilityError(
            "cannot verify jump integrability: declare the function's growth class"
        )
    if growth[0] == "poly":
        order = growth[1]
        if order > tc.theta_sup or (order == tc.theta_sup and not math.isinf(order)):
            raise IntegrabilityError(
                f"polynomial growth {order} exceeds the jump moment class "
                f"theta_sup = {tc.theta_sup}"
            )
    elif growth[0] == "exp":
        if tc.exp_rate is None or growth[1] > tc.exp_rate:
            raise IntegrabilityError(
                f"exponential growth rate {growth[1]} not integrable against the "
                f"jump measure (exp_rate = {tc.exp_rate})"
            )
    else:
        raise ConfigError(f"unknown growth class {growth!r}")


def _jump_cp_discrete(kind: CompoundPoisson, fn, x, grad, compensation) -> GeneratorResult:
    jd = kind.jump_dist
    if jd.atoms.shape[1] != x.shape[0]:
        raise ConfigError(
            f"jump dimension {jd.atoms.shape[1]} does not match state dimension {x.shape[0]}"
        )
    total = 0.0
    for atom, p in zip(jd.atoms, jd.probs):
        y = atom
        diff = float(fn.value(x + y)) - float(fn.value(x))
        if compensation == "full" or (compensation == "ball" and np.linalg.norm(y) < 1.0):
            diff -= float(y @ grad)
        total += p * diff
    return GeneratorResult(kind.rate * total, 0.0)


def _jump_cp_sampler(kind, fn, x, grad, compensation, m, rng) -> GeneratorResult:
    ys = kind.jump_dist.sample(rng, m)
    vals = np.array([float(fn.value(x + y)) for y in ys]) - float(fn.value(x))
    if compensation == "full":
        vals -= ys @ grad
    elif compensation == "ball":
        inside = np.linalg.norm(ys, axis=1) < 1.0
        vals -= inside * (ys @ grad)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(m)) if m > 1 else math.inf
    return GeneratorResult(kind.rate * mean, kind.rate * se)


def _c_alpha_1d(alpha: float) -> float:
    """Density constant of the 1-D symmetric stable Lévy measure with unit scale."""
    return math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


def _second_diff_axis(fn, x, direction, r):
    return (
        float(fn.value(x + r * direction))
        + float(fn.value(x - r * direction))
        - 2.0 * float(fn.value(x))
    )


def _outer_tail_quad(integrand, max_blocks: int = 200) -> tuple[float, float]:
    """``int_1^inf`` of an algebraically decaying (possibly oscillatory)
    integrand via doubling blocks; stops after two consecutive negligible
    blocks, charging any unresolved remainder to the error estimate."""
    import warnings

    from scipy.integrate import IntegrationWarning

    total, err = 0.0, 0.0
    lo = 1.0
    tiny_run = 0
    v = 0.0
    for _ in range(max_blocks):
        hi = 2.0 * lo
        with warnings.catch_warnings():
            # under-resolved oscillatory blocks surface through the error
            # estimate, which the caller reports
            warnings.simplefilter("ignore", IntegrationWarning)
            v, e = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        total += v
        err += e
        tiny_run = tiny_run + 1 if abs(v) < 1e-13 else 0
        if tiny_run >= 2:
            break
        lo = hi
    else:
        err += abs(v)
    return total, err


def _split_quad(curvature, difference, alpha) -> tuple[float, float]:
    """``int_0^inf difference(r) r^{-1-alpha} dr``, split at ``r = 1``.

    Below 1 the difference is integrated in Taylor-remainder form,
    ``r^2 int_0^1 (1-t) curvature(t r) dt``, so nothing cancels near 0.
    """
    # substitution r = v^{1/(2-alpha)} turns int_0^1 r^{1-alpha} T(r) dr into
    # the smooth integral p * int_0^1 T(v^p) dv, p = 1/(2-alpha)
    p_sub = 1.0 / (2.0 - alpha)

    def inner_integrand(v):
        r = v**p_sub
        t_int, _ = quad(lambda t: (1.0 - t) * curvature(t * r), 0.0, 1.0, epsabs=1e-11, epsrel=1e-10)
        return p_sub * t_int

    i_in, e_in = quad(inner_integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=100)
    i_out, e_out = _outer_tail_quad(lambda r: difference(r) * r ** (-1.0 - alpha))
    return i_in + i_out, e_in + e_out


def _quad_symmetric_axis(fn, x, direction, alpha) -> tuple[float, float]:
    """``int_0^inf [f(x+r d) + f(x-r d) - 2 f(x)] r^{-1-alpha} dr`` by split quadrature."""

    def hess_pair(s):
        hp = fn.hess(x + s * direction)
        hm = fn.hess(x - s * direction)
        return float(direction @ (hp + hm) @ direction)

    return _split_quad(hess_pair, lambda r: _second_diff_axis(fn, x, direction, r), alpha)


def _jump_stable_1d_axes(kind: SymmetricStable, fn, x) -> GeneratorResult:
    """Deterministic quadrature: 1-D measures along each coordinate axis."""
    c = kind.scale**kind.alpha * _c_alpha_1d(kind.alpha)
    n = x.shape[0]
    total, err = 0.0, 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v, ev = _quad_symmetric_axis(fn, x, e, kind.alpha)
        total += v
        err += ev
    return GeneratorResult(c * total, c * err)


def _isotropic_stable_constant(alpha: float, n: int) -> float:
    """``A`` with ``nu(dy) = A |y|^{-n-alpha} dy`` giving char exponent ``|u|^alpha``."""
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((n + alpha) / 2.0)
        / (math.pi ** (n / 2.0) * math.gamma(1.0 - alpha / 2.0))
    )


def _jump_stable_isotropic_mc(kind: SymmetricStable, fn, x, m, rng) -> GeneratorResult:
    n = x.shape[0]
    alpha = kind.alpha
    a_const = _isotropic_stable_constant(alpha, n)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    scale_fac = kind.scale**alpha * a_const * omega
    theta = rng.standard_normal((m, n))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    # inner part: R ~ (2-alpha) r^{1-alpha} on (0,1), T ~ 2(1-t) on (0,1)
    r_in = rng.uniform(0.0, 1.0, m) ** (1.0 / (2.0 - alpha))
    t_in = 1.0 - np.sqrt(rng.uniform(0.0, 1.0, m))
    # outer part: R ~ alpha r^{-1-alpha} on (1, inf)
    r_out = rng.uniform(0.0, 1.0, m) ** (-1.0 / alpha)
    vals = np.empty(m)
    for j in range(m):
        d = theta[j]
        hp = fn.hess(x + t_in[j] * r_in[j] * d)
        hm = fn.hess(x - t_in[j] * r_in[j] * d)
        q_bar = 0.5 * float(d @ (hp + hm) @ d)
        inner = q_bar / (2.0 * (2.0 - alpha))
        outer = 0.5 * _second_diff_axis(fn, x, d, r_out[j]) / alpha
        vals[j] = inner + outer
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(m)) if m > 1 else math.inf
    return GeneratorResult(scale_fac * mean, scale_fac * se)


def _jump_subordinator(kind: StableSubordinatorMeasure, fn, x, grad, compensation) -> GeneratorResult:
    alpha = kind.alpha
    a_const = alpha / math.gamma(1.0 - alpha)  # Laplace exponent u^alpha
    e = np.ones_like(x) if x.shape[0] == 1 else None
    if e is None:
        raise ConfigError("subordinator jump measures are one-dimensional")

    integral, err = _split_quad(
        lambda s: float(fn.hess(x + s * e)[0, 0]),
        lambda y: float(fn.value(x + y * e)) - float(fn.value(x)),
        alpha,
    )
    value = a_const * integral
    if compensation == "none":
        # shift from ball-compensated to raw differences:
        # + grad . int_0^1 y nu(dy) = grad * A / (1 - alpha)
        value += a_const * float(grad[0]) / (1.0 - alpha)
    return GeneratorResult(value, a_const * err)


def _jump_part(gen: GeneratorSpec, fn, x, grad, m, rng) -> GeneratorResult:
    """The jump integral of ``fn`` at ``x``, after checking it is defined for this kind."""
    kind = gen.levy.kind
    comp = gen.jump_compensation
    if isinstance(kind, NoJumps):
        return GeneratorResult(0.0, 0.0)
    if isinstance(kind, CompoundPoisson) and isinstance(kind.jump_dist, DiscreteJumps):
        # finite measure, bounded jumps: every growth integrates
        return _jump_cp_discrete(kind, fn, x, grad, comp)
    _check_growth(kind.theta_class(), fn)
    if isinstance(kind, CompoundPoisson):
        return _jump_cp_sampler(kind, fn, x, grad, comp, m, rng)
    if isinstance(kind, SymmetricStable):
        if comp == "none" and kind.alpha >= 1.0:
            raise IntegrabilityError("uncompensated stable jump integrals require alpha < 1")
        # for symmetric measures the compensation conventions agree in value
        # wherever defined (the linear term vanishes by symmetry)
        if x.shape[0] == 1 or kind.structure == "independent":
            return _jump_stable_1d_axes(kind, fn, x)
        return _jump_stable_isotropic_mc(kind, fn, x, m, rng)
    if isinstance(kind, StableSubordinatorMeasure):
        if comp == "full":
            raise IntegrabilityError(
                "full compensation diverges for one-sided subordinator measures"
            )
        return _jump_subordinator(kind, fn, x, grad, comp)
    raise ConfigError(f"unknown jump kind {kind!r}")


def generator_apply(
    gen: GeneratorSpec,
    fn: LyapunovFn,
    x,
    jump_mc_samples: int = 20_000,
    seed: int = 0,
    point_index: int = 0,
) -> GeneratorResult:
    """Evaluate ``L fn`` at a single state ``x``; returns (value, error estimate).

    The error is zero for exact finite sums, the quadrature error estimate for
    the deterministic 1-D jump integrals, and a Monte Carlo standard error
    otherwise (RNG keyed on ``(seed, point_index)``).
    """
    x = np.asarray(x, dtype=float).ravel()
    grad = np.asarray(fn.grad(x), dtype=float).ravel()
    value = 0.0
    b = _eval_coeff(gen.b, x)
    if b is not None:
        value += float(b.ravel() @ grad)
    if gen.levy.b_L is not None:
        value += float(gen.levy.b_L @ grad)
    a = _eval_coeff(gen.a, x)
    a_total = None
    if a is not None:
        a_total = np.atleast_2d(a)
    if gen.levy.a_L is not None:
        a_total = gen.levy.a_L if a_total is None else a_total + gen.levy.a_L
    if a_total is not None and np.any(a_total):
        hess = np.atleast_2d(np.asarray(fn.hess(x), dtype=float))
        value += 0.5 * float(np.trace(a_total @ hess))
    rng = _block_rng(seed, point_index)
    jump = _jump_part(gen, fn, x, grad, jump_mc_samples, rng)
    return GeneratorResult(value + jump.value, jump.error)


# ---------------------------------------------------------------------------
# drift-condition certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Pointwise audit of ``L V <= b 1_{|x| <= r} - phi(V)`` on a grid.

    ``lhs = L V``; ``rhs = b 1_ball - phi(V)``; ``margin = rhs - lhs``; ``b``
    is the smallest constant making the margin nonnegative at every grid point
    inside the closed ball of radius ``ball_radius``.
    """

    grid: np.ndarray
    lyapunov_values: np.ndarray
    lhs: np.ndarray
    phi_values: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    errors: np.ndarray
    ball_radius: float
    b: float
    worst_margin: float

    def to_csv(self, path) -> None:
        n = self.grid.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"x{i + 1}" for i in range(n)]
                + ["lyapunov_value", "generator_value", "phi_of_v", "margin"]
            )
            for i in range(self.grid.shape[0]):
                writer.writerow(
                    [repr(float(v)) for v in self.grid[i]]
                    + [
                        repr(float(self.lyapunov_values[i])),
                        repr(float(self.lhs[i])),
                        repr(float(self.phi_values[i])),
                        repr(float(self.margin[i])),
                    ]
                )


def drift_check(
    gen: GeneratorSpec,
    fn: LyapunovFn,
    phi: PhiSpec,
    grid,
    ball_radius: float,
    jump_mc_samples: int = 20_000,
    seed: int = 0,
) -> DriftReport:
    """Certify the drift inequality pointwise on a grid of states."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:  # a flat list of scalars for a 1-D process
        grid = grid[:, None]
    if not ball_radius >= 0:
        raise ConfigError("ball_radius must be nonnegative")
    m = grid.shape[0]
    v_vals = np.empty(m)
    lhs = np.empty(m)
    phi_vals = np.empty(m)
    errs = np.empty(m)
    for i in range(m):
        x = grid[i]
        v_vals[i] = float(fn.value(x))
        res = generator_apply(
            gen, fn, x, jump_mc_samples=jump_mc_samples, seed=seed, point_index=i
        )
        lhs[i] = res.value
        errs[i] = res.error
        phi_vals[i] = phi_eval(phi, v_vals[i])
    inside = np.linalg.norm(grid, axis=1) <= ball_radius
    need = phi_vals + lhs
    b = float(np.max(need[inside])) if np.any(inside) else 0.0
    rhs = np.where(inside, b, 0.0) - phi_vals
    margin = rhs - lhs
    return DriftReport(
        grid=grid,
        lyapunov_values=v_vals,
        lhs=lhs,
        phi_values=phi_vals,
        rhs=rhs,
        margin=margin,
        errors=errs,
        ball_radius=float(ball_radius),
        b=b,
        worst_margin=float(np.min(margin)),
    )


# ---------------------------------------------------------------------------
# exponential-norm jump bound
# ---------------------------------------------------------------------------


def exp_jump_bound_check(
    levy: LevyMeasureSpec,
    Q,
    zeta: float,
    theta: float,
    grid,
    jump_mc_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Worst fully compensated jump ratio for ``V = exp(zeta chi_Q)``.

    Evaluates ``J[V](x) / V(x)`` over the grid with the fully compensated
    difference ``f(x+y) - f(x) - <y, grad f(x)>`` and returns the worst value
    divided by ``zeta^{3/2}``. Requires ``zeta in (0, theta / (2 sqrt(|Q|)))``
    and exponential integrability of the jump measure at rate ``theta``.
    """
    qf = Q if isinstance(Q, QuadForm) else QuadForm(np.asarray(Q, dtype=float))
    bound = 0.5 * theta / math.sqrt(qf.lam_max)
    if not (0.0 < zeta < bound):
        raise DomainError(
            f"zeta must lie in (0, {bound:.6g}) = (0, theta |Q|^(-1/2) / 2), got {zeta}"
        )
    tc = levy.theta_class()
    if tc.exp_rate is None or tc.exp_rate < theta:
        raise IntegrabilityError(
            f"jump measure lacks exponential moments at rate theta = {theta}"
        )
    fn = ExpNorm(qf, zeta)
    gen = GeneratorSpec(b=None, a=None, levy=levy, jump_compensation="full")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    worst = -math.inf
    for i in range(grid.shape[0]):
        x = grid[i]
        res = generator_apply(
            gen, fn, x, jump_mc_samples=jump_mc_samples, seed=seed, point_index=i
        )
        ratio = res.value / float(fn.value(x))
        worst = max(worst, ratio)
    return worst / zeta**1.5
