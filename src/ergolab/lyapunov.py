"""Lyapunov functions, generator evaluation, and drift-condition checks.

The central objects:

* :class:`QuadForm` — a symmetric positive-definite matrix ``Q`` with the
  induced norm ``|x|_Q = sqrt(<x, Qx>)``;
* :func:`chi_q` — a smooth nonnegative symmetric convex function equal to
  ``|x|_Q`` outside the unit ball (a quadratic-in-``<x,Qx>`` blend inside);
* Lyapunov function families built on it: :class:`PolyNorm` (``chi^theta``),
  :class:`PolyNormPlusOne` (``1 + chi^theta``) and :class:`ExpNorm`
  (``exp(zeta chi)``);
* :func:`generator_apply` — evaluate
  ``L f(x) = <b, grad f> + 1/2 tr(a hess f) + J f(x)`` at a point or, in one
  pass, at every row of a batch (the families' ``value``, ``grad`` and
  ``hess`` take either).  ``L`` is read off the continuous-time process spec
  :func:`ergolab.processes.simulate` runs: the ``drift`` and ``sigma`` its
  ``coeffs`` hands the walk, and its ``levy``, whose jumps enter
  uncompensated: for compound-Poisson and subordinator jumps ``J f(x)``
  integrates the raw difference
  ``f(x+y) - f(x)``, and for symmetric stable jumps the symmetric principal
  value of the same difference;
* :func:`drift_check` — pointwise certification of
  ``L V <= b 1_{ball} - phi(V)`` on a grid, reported as a
  :class:`DriftReport` with the error estimate of each ``L V``; the margin
  ``b 1_{ball} - (phi(V) + L V)`` is one subtraction, so the point that sets
  ``b`` has margin exactly 0.

Jump integrals are evaluated exactly for finite-support compound-Poisson
measures (error 0), and by Monte Carlo with a reported standard error for
isotropic stable jumps in dimension >= 2 (one batched call per grid point,
its RNG keyed on the point's index). For one-dimensional (or per-axis)
stable and subordinator measures, ``int_0^inf D(r) r^{-1-alpha} dr`` is
evaluated for all grid points at once by fixed rules, each run with n and 2n
nodes, whose difference is its error:

- ``r < 1``: the Taylor-remainder form ``r^2 int_0^1 (1-t) C(t r) dt`` of the
  difference (so nothing cancels near 0), by a Gauss–Jacobi (weight
  ``r^{1-alpha}``) × Gauss–Legendre tensor rule in one Hessian call;
- ``[1, R]``: doubling blocks of composite Gauss–Legendre panels, whose
  panels double until the block's pair agrees;
- ``r > R``: ``r = R/w`` and, for all grid points in one call of
  :func:`quad`, a Gauss–Jacobi pair (128 against 256 nodes) for the weight
  ``w^{alpha-theta-1}``, which takes up the algebraic endpoint singularity of
  a spread growing like ``r^theta``.  A point whose pair disagrees (a
  spread that keeps oscillating beyond ``R``) keeps the pair's value, with
  a bound on the whole far tail as its error.

Both fixed rules cut their panels where ``x +- r d`` crosses the sphere on
which ``chi_Q`` is only C^2, so each panel integrates a smooth function. The
subordinator's Taylor form on ``r < 1`` leaves out ``r f'(x)``, which is added
back in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, DomainError, IntegrabilityError, NumericalError
from .processes import (
    CompoundPoisson,
    LevyMeasureSpec,
    NoJumps,
    ProcessSpec,
    StableSubordinatorMeasure,
    SymmetricStable,
    _block_rng,
    sigma_at,
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
    "LyapunovFn",
    "GeneratorResult",
    "generator_apply",
    "DriftReport",
    "drift_check",
    "jump_nodes",
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

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def lam_min(self) -> float:
        return self._lam_min

    @property
    def lam_max(self) -> float:
        return self._lam_max


def _blend_coeffs(qf: QuadForm):
    """Coefficients of the interior blend ``a0 + a1 s + a2 s^2`` in ``s = <x,Qx>``.

    The blend applies on ``{|x|_Q < w0}`` with ``w0 = sqrt(lam_min)``, a region
    contained in the unit ball, and matches ``sqrt(s)`` to second order at
    ``s = w0^2``; the resulting function is convex for every PD ``Q``.
    """
    w0 = math.sqrt(qf.lam_min)
    return w0, 0.375 * w0, 0.75 / w0, -0.125 / w0**3


def _batch(x) -> tuple[np.ndarray, bool]:
    """A point ``(n,)`` or a batch ``(m, n)`` as a batch, and whether it was a point."""
    x = np.asarray(x, dtype=float)
    single = x.ndim < 2
    return (x.reshape(1, -1) if single else x), single


def _blend_terms(qf: QuadForm, x):
    """``(Q x, s = <x, Qx>, s >= w0^2)`` per row of a batch, each row's sums
    formed alone, so a row's result does not depend on the batch."""
    qx = np.sum(qf.Q * x[:, None, :], axis=2)
    s = np.sum(x * qx, axis=1)
    return qx, s, s >= _blend_coeffs(qf)[0] ** 2


def chi_q(qf: QuadForm, x) -> np.ndarray | float:
    """Smooth nonnegative symmetric convex function equal to ``|x|_Q`` for ``|x| >= 1``."""
    xb, single = _batch(x)
    _, a0, a1, a2 = _blend_coeffs(qf)
    _, s, outside = _blend_terms(qf, xb)
    out = np.where(outside, np.sqrt(np.where(outside, s, 1.0)), a0 + a1 * s + a2 * s * s)
    return float(out[0]) if single else out


def chi_q_grad(qf: QuadForm, x) -> np.ndarray:
    """Gradient of :func:`chi_q` at a point ``(n,)`` or per row of a batch ``(m, n)``."""
    xb, single = _batch(x)
    _, _, a1, a2 = _blend_coeffs(qf)
    qx, s, outside = _blend_terms(qf, xb)
    s, outside = s[:, None], outside[:, None]
    out = np.where(outside, qx / np.sqrt(np.where(outside, s, 1.0)), (a1 + 2.0 * a2 * s) * 2.0 * qx)
    return out[0] if single else out


def chi_q_hess(qf: QuadForm, x) -> np.ndarray:
    """Hessian of :func:`chi_q` at a point ``(n, n)`` or per row ``(m, n, n)``."""
    xb, single = _batch(x)
    _, _, a1, a2 = _blend_coeffs(qf)
    qx, s, outside = _blend_terms(qf, xb)
    qq = qx[:, :, None] * qx[:, None, :]
    s, outside = s[:, None, None], outside[:, None, None]
    w = np.sqrt(np.where(outside, s, 1.0))
    out = np.where(
        outside, qf.Q / w - qq / w**3, 2.0 * (a1 + 2.0 * a2 * s) * qf.Q + 8.0 * a2 * qq
    )
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Lyapunov function families
# ---------------------------------------------------------------------------


Growth = Union[tuple, None]  # ("poly", order) | ("exp", rate) | None


class _NormFn:
    """``V = g(chi_Q(x))``: a family states ``outer(c) = (g(c), g'(c), g''(c))``
    and the chain rule gives the value, the gradient and the Hessian, at a
    point ``(n,)`` or per row of a batch ``(m, n)``.  ``offset`` is the
    constant term of ``g``, which the jump integral's far tail integrates in
    closed form."""

    offset = 0.0

    def value(self, x):
        xb, single = _batch(x)
        v = self.outer(chi_q(self.qf, xb))[0]
        return float(v[0]) if single else v

    def grad(self, x):
        xb, single = _batch(x)
        g = self.outer(chi_q(self.qf, xb))[1][:, None] * chi_q_grad(self.qf, xb)
        return g[0] if single else g

    def hess(self, x):
        xb, single = _batch(x)
        _, d1, d2 = self.outer(chi_q(self.qf, xb))
        g = chi_q_grad(self.qf, xb)
        h = d2[:, None, None] * (g[:, :, None] * g[:, None, :]) + d1[:, None, None] * chi_q_hess(
            self.qf, xb
        )
        return h[0] if single else h

    def kinks(self, x, d):
        """Radii ``r > 0`` at which ``x + r d`` or ``x - r d`` crosses the blend
        sphere ``|y|_Q = w0``, where chi_Q is only C^2: ``(m, 4)``, NaN where none."""
        qx, s, _ = _blend_terms(self.qf, _batch(x)[0])
        a = float(d @ self.qf.Q @ d)
        b = qx @ d
        disc = b * b - a * (s - _blend_coeffs(self.qf)[0] ** 2)
        root = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        r = np.stack([-b - root, -b + root, b - root, b + root], axis=1) / a
        return np.where(r > 0.0, r, np.nan)


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
        return self.offset + c**t, t * c ** (t - 1.0), t * (t - 1.0) * c ** (t - 2.0)


@dataclass(frozen=True, eq=False)
class PolyNormPlusOne(PolyNorm):
    """``V = 1 + chi_Q(x)^theta`` (always >= 1, suitable for drift checks)."""

    offset = 1.0


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


LyapunovFn = Union[PolyNorm, PolyNormPlusOne, ExpNorm]


# ---------------------------------------------------------------------------
# generator evaluation
# ---------------------------------------------------------------------------


class GeneratorResult(NamedTuple):
    """(value, error): floats for a point, ``(m,)`` arrays for a batch."""

    value: float | np.ndarray
    error: float | np.ndarray


def _check_growth(alpha: float, fn) -> None:
    """The function's declared growth must integrate against an ``alpha``-stable
    tail: polynomial of order below ``alpha``, never exponential."""
    growth = fn.growth
    if growth is None:
        raise IntegrabilityError(
            "cannot verify jump integrability: declare the function's growth class"
        )
    if growth[0] == "poly":
        if growth[1] >= alpha:
            raise IntegrabilityError(
                f"polynomial growth {growth[1]} is not below the jump measure's "
                f"stable index alpha = {alpha}"
            )
    elif growth[0] == "exp":
        raise IntegrabilityError(
            f"exponential growth {growth[1]} is not integrable against stable jumps"
        )
    else:
        raise ConfigError(f"unknown growth class {growth!r}")


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    m = vals.shape[0]
    se = float(np.std(vals, ddof=1) / math.sqrt(m)) if m > 1 else math.inf
    return float(np.mean(vals)), se


def _jump_cp_discrete(kind: CompoundPoisson, fn, x):
    atoms, probs = kind.jump_dist.atoms, kind.jump_dist.probs
    m, n = x.shape
    landed = fn.value((x[:, None, :] + atoms).reshape(-1, n)).reshape(m, -1)
    diff = landed - fn.value(x)[:, None]
    return kind.rate * (diff @ probs), np.zeros(m)


def _c_alpha_1d(alpha: float) -> float:
    """Density constant of the 1-D symmetric stable Lévy measure with unit scale."""
    return math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


# The deterministic jump integrals.  The fixed rules come in pairs, n against
# 2n nodes, and the pair's difference is the reported error.
_TENSOR_NODES = 16  # per axis of the Taylor-remainder tensor rule
_TENSOR_ROWS = 5 * _TENSOR_NODES**2  # both rules' nodes per sign, with no kink cut
_PANEL_NODES = 16  # per panel of a doubling block
_MAX_PANELS = 64  # uniform panels per block; past that a block keeps its pair error
_BLOCK_EPSABS, _BLOCK_EPSREL = 1e-12, 1e-10  # a block's pair agrees within these
_MIN_BLOCKS = 16  # the panels cover [1, R] with R >= 2^16, and at least 4 (1 + |x|)
_FAR_NODES = 128  # the far tail's Gauss–Jacobi pair: 128 against 256 nodes
_BATCH_ROWS = 1 << 18  # function evaluations per batched call, which bounds memory
_ROUNDING = 256 * np.finfo(float).eps  # rounding charged per unit of sum |weight * value|


@functools.cache
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [0, 1] (read-only, shared)."""
    t, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _along(fn, d, signs):
    """Curvature ``sum_s d' H(x + s r d) d`` and spread ``sum_s f(x + s r d)``
    of ``fn`` along ``d``, over the signs, at radii ``r`` ``(b, k)`` from each
    of the points ``x`` ``(b, n)``."""
    signs = np.asarray(signs, dtype=float)

    def points(x, r):
        steps = (signs[:, None] * r[:, None, :])[..., None] * d
        return (x[:, None, None, :] + steps).reshape(-1, x.shape[1])

    def curvature(x, r):
        h = fn.hess(points(x, r))
        return np.einsum("i,rij,j->r", d, h, d).reshape(r.shape[0], len(signs), -1).sum(axis=1)

    def spread(x, r):
        f = fn.value(points(x, r))
        return f.reshape(r.shape[0], len(signs), -1).sum(axis=1)

    return curvature, spread


@functools.cache
def _jacobi01(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi nodes and weights on [0, 1] for the weight ``r^beta``,
    ``beta > -1`` (read-only, shared), by Golub–Welsch (1969) with no
    eigenvector formed.  The nodes are the eigenvalues of the Jacobi
    recurrence matrix on [-1, 1], polished by one Newton step on ``p_n``, and
    a node's weight is ``1 / (beta + 1)`` over its sum of the squared
    orthonormal polynomials ``p_0 .. p_{n-1}``, carried to the polished node
    to first order; the matrix's three-term recurrence gives the ``p_j`` and
    their derivatives.  (Near an endpoint that sum moves by ``n^2`` times a
    node's error, relative, so unpolished nodes would cost the weights up to
    1e-11 there.  scipy's ``roots_jacobi`` is off by up to 1e-7 in a moment
    at 256 nodes as beta nears -1; these rules stay within 1e-13.)"""
    k = np.arange(1, n)
    s = 2.0 * k + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))])
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    # off_j p_{j+1} = (x - diag_j) p_j - off_{j-1} p_{j-1} from p_0 = 1, with
    # p_n scaled by 1 (only its zeros are used); pair holds p_j and p_j', and
    # sums the sums over j < n of p_j^2 and p_j p_j'
    lower, scale = np.append(0.0, off), np.append(1.0 / off, 1.0)
    prev, pair = np.zeros((2, n)), np.array([np.ones(n), np.zeros(n)])
    sums = np.zeros((2, n))
    for j in range(n):
        sums += pair[0] * pair
        nxt = (x - diag[j]) * pair - lower[j] * prev
        nxt[1] += pair[0]
        prev, pair = pair, nxt * scale[j]
    step = pair[0] / pair[1]
    t = 0.5 * (x - step + 1.0)
    w = 1.0 / ((beta + 1.0) * (sums[0] - 2.0 * sums[1] * step))
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _panels(lo, hi, cuts, t):
    """Nodes ``(..., P, k)`` and widths ``(..., P, 1)`` of the ``P = K + 1``
    panels that cut ``[lo, hi]`` ``(..., 1)`` at ``cuts`` ``(..., K)``, from the
    nodes ``t`` on [0, 1] (one row per panel, or shared).  A cut outside the
    interval, or NaN, gives a zero-width panel."""
    cuts = np.fmax(np.fmin(cuts, hi), lo)
    edges = np.sort(np.concatenate([lo, cuts, hi], axis=-1), axis=-1)
    width = np.diff(edges, axis=-1)[..., None]
    return edges[..., :-1, None] + width * t, width


def _cuts_inside(kinks, lo, hi):
    """Per row, the kinks strictly inside ``(lo, hi)``, then NaN, without the
    columns that hold none."""
    cuts = np.sort(np.where((kinks > lo) & (kinks < hi), kinks, np.nan), axis=1)
    return cuts[:, ~np.all(np.isnan(cuts), axis=0)]


def _pair_sum(coarse, fine):
    """Row sums of the coarse and fine rules' terms: the fine value, the pair's
    difference, and a rounding allowance for the fine sum."""
    axes = tuple(range(1, fine.ndim))
    value = np.sum(fine, axis=axes)
    rounding = _ROUNDING * np.sum(np.abs(fine), axis=axes)
    return value, np.abs(value - np.sum(coarse, axis=axes)), rounding


def _taylor_part(curvature, x, cuts, alpha):
    """``int_0^1 D(r) r^{-1-alpha} dr`` with ``D(r) = r^2 int_0^1 (1-t) C(t r) dt``,
    so nothing cancels near 0: ``int_0^1 r^{1-alpha} int_0^1 (1-t) C(t r) dt dr``,
    by the n and 2n tensor rules in one curvature call.  The r-axis is cut at
    the kinks of C in (0, 1), ``cuts`` ``(b, K)``, with Gauss–Jacobi for the
    weight ``r^{1-alpha}`` on the first panel and Gauss–Legendre on the others;
    at each r node the t-axis is cut where ``t r`` meets a kink, so every
    panel is smooth."""
    b = x.shape[0]
    first = np.arange(cuts.shape[1] + 1)[:, None] == 0
    rules = []
    for n in (_TENSOR_NODES, 2 * _TENSOR_NODES):
        rho, w_rho = _jacobi01(n, 1.0 - alpha)
        t, w_t = _gauss01(n)
        r, width = _panels(np.zeros((b, 1)), np.ones((b, 1)), cuts, np.where(first, rho, t))
        w_r = np.where(first, width ** (2.0 - alpha) * w_rho, width * w_t * r ** (1.0 - alpha))
        r, w_r = r.reshape(b, -1, 1, 1), w_r.reshape(b, -1, 1, 1)
        ends = np.ones(r.shape[:2] + (1,))
        tt, t_width = _panels(0.0 * ends, ends, cuts[:, None, :] / r[..., 0], t)
        rules.append(((r * tt).reshape(b, -1), (w_r * t_width * w_t * (1.0 - tt)).reshape(b, -1)))
    k = rules[0][0].shape[1]
    c = curvature(x, np.concatenate([rules[0][0], rules[1][0]], axis=1))
    value, pair, rounding = _pair_sum(c[:, :k] * rules[0][1], c[:, k:] * rules[1][1])
    return value, pair + rounding


def _panel_part(spread, x, centre, kinks, alpha, blocks):
    """``int_1^R D(r) r^{-1-alpha} dr``, ``D = spread - centre``, ``R = 2^blocks``
    per point, over the doubling blocks ``[2^j, 2^{j+1}]``.  Each block is cut
    into uniform panels and at the kinks inside it, so every panel is smooth;
    its panels double until the n and 2n Gauss–Legendre sums agree (or
    ``_MAX_PANELS`` is reached)."""
    rows = np.repeat(np.arange(x.shape[0]), blocks)
    lo = 2.0 ** (np.arange(rows.size) - np.repeat(np.cumsum(blocks) - blocks, blocks))[:, None]
    hi = 2.0 * lo
    inner = _cuts_inside(kinks[rows], lo, hi)
    t_n, w_n = _gauss01(_PANEL_NODES)
    t_2n, w_2n = _gauss01(2 * _PANEL_NODES)
    t = np.concatenate([t_n, t_2n])
    value, error = np.empty(rows.size), np.empty(rows.size)
    todo, panels = np.arange(rows.size), 1
    while todo.size:
        uniform = lo[todo] + (hi[todo] - lo[todo]) * (np.arange(1, panels) / panels)
        cuts = np.concatenate([uniform, inner[todo]], axis=1)
        r, width = _panels(lo[todo], hi[todo], cuts, t)
        at = rows[todo]
        f = spread(x[at], r.reshape(todo.size, -1)).reshape(r.shape)
        f = (f - centre[at, None, None]) * width * r ** (-1.0 - alpha)
        fine, pair, rounding = _pair_sum(f[..., :_PANEL_NODES] * w_n, f[..., _PANEL_NODES:] * w_2n)
        value[todo], error[todo] = fine, pair + rounding
        if panels >= _MAX_PANELS:
            break
        agreed = pair <= np.maximum(_BLOCK_EPSABS, _BLOCK_EPSREL * np.abs(fine))
        todo, panels = todo[~agreed], 2 * panels
    n = x.shape[0]
    return np.bincount(rows, value, minlength=n), np.bincount(rows, error, minlength=n)


def quad(fn, x, d, signs, alpha, reach) -> tuple[np.ndarray, np.ndarray]:
    """The far tail ``int_R^inf D(r) r^{-1-alpha} dr``, ``D(r) = sum_s f(x + s r
    d) - len(signs) f(x)``, and its error, for every point of ``x`` ``(m, n)``
    with its ``R = reach`` ``(m,)``.

    With ``r = R/w`` the tail is ``R^{-alpha} (int_0^1 S(R/w) w^{alpha-1} dw
    - C / alpha)``, where ``S`` is the spread less the family's constant
    term in each ``f`` and ``C`` the centre less the same; the constant
    cancels in ``D``.  A spread growing like ``r^theta`` (``fn.growth``,
    ``theta < alpha``) makes ``g = S(R/w) w^theta`` smooth on [0, 1], so the
    Gauss–Jacobi pair for the weight ``w^{alpha-theta-1}`` integrates it; no
    kink lies beyond ``R >= 4 (1 + |x|)``.  The error is the pair's
    difference plus a rounding allowance.  A point whose pair differs by
    more than a doubling block's tolerance (a spread that keeps oscillating)
    keeps the pair's value, and its error is ``|value|`` plus a bound on the
    whole tail, ``R^{-alpha} (max |g| / (alpha - theta) + |C| / alpha)``
    with the maximum over the pair's nodes, since ``int_0^1
    w^{alpha-theta-1} dw = 1 / (alpha - theta)``."""
    _, spread = _along(fn, d, signs)
    centre = len(signs) * fn.value(x)
    theta, constant = fn.growth[1], len(signs) * fn.offset
    t_n, w_n = _jacobi01(_FAR_NODES, alpha - theta - 1.0)
    t_2n, w_2n = _jacobi01(2 * _FAR_NODES, alpha - theta - 1.0)
    w = np.concatenate([t_n, t_2n])
    value, error, bound = np.empty((3, x.shape[0]))
    chunk = max(1, _BATCH_ROWS // (len(signs) * w.size))
    for lo in range(0, x.shape[0], chunk):
        part = slice(lo, lo + chunk)
        g = (spread(x[part], reach[part, None] / w) - constant) * w**theta
        fine, pair, rounding = _pair_sum(g[:, :_FAR_NODES] * w_n, g[:, _FAR_NODES:] * w_2n)
        rest = (centre[part] - constant) / alpha
        value[part] = fine - rest
        error[part] = pair + rounding + _ROUNDING * np.abs(rest)
        bound[part] = np.max(np.abs(g), axis=1) / (alpha - theta) + np.abs(rest)
    scale = reach**-alpha
    value, error = scale * value, scale * error
    unresolved = ~(error <= np.maximum(_BLOCK_EPSABS, _BLOCK_EPSREL * np.abs(value)))
    error[unresolved] = (np.abs(value) + scale * bound)[unresolved]
    return value, error


def _split_quad(fn, x, d, signs, alpha) -> tuple[np.ndarray, np.ndarray]:
    """``int_0^inf D(r) r^{-1-alpha} dr`` and its error, for every point of
    ``x`` ``(m, n)``, with ``D(r) = sum_s f(x + s r d) - len(signs) f(x)``:
    the Taylor-remainder tensor rule on ``(0, 1)``, Gauss–Legendre panels on
    ``[1, R]`` and one :func:`quad` call for every point beyond ``R``.
    ``R`` depends on the point alone, so a point's value does not depend on
    the rest of the batch."""
    curvature, spread = _along(fn, d, signs)
    centre = len(signs) * fn.value(x)
    kinks = fn.kinks(x, d)
    cuts = _cuts_inside(kinks, 0.0, 1.0)
    reach = 4.0 * (1.0 + np.linalg.norm(x, axis=1))
    blocks = np.maximum(_MIN_BLOCKS, np.ceil(np.log2(reach))).astype(int)
    value, error = np.empty(x.shape[0]), np.empty(x.shape[0])
    rows = len(signs) * (cuts.shape[1] + 1) ** 2 * _TENSOR_ROWS
    chunk = max(1, _BATCH_ROWS // rows)
    for lo in range(0, x.shape[0], chunk):
        part = slice(lo, lo + chunk)
        near, near_err = _taylor_part(curvature, x[part], cuts[part], alpha)
        mid, mid_err = _panel_part(spread, x[part], centre[part], kinks[part], alpha, blocks[part])
        value[part], error[part] = near + mid, near_err + mid_err
    far, far_err = quad(fn, x, d, signs, alpha, 2.0**blocks)
    return value + far, error + far_err


def _jump_stable_1d_axes(kind: SymmetricStable, fn, x):
    """Deterministic quadrature: 1-D measures along each coordinate axis."""
    c = kind.scale**kind.alpha * _c_alpha_1d(kind.alpha)
    total, err = 0.0, 0.0
    for d in np.eye(x.shape[1]):
        v, ev = _split_quad(fn, x, d, (1.0, -1.0), kind.alpha)
        total = total + v
        err = err + ev
    return c * total, c * err


def _isotropic_stable_constant(alpha: float, n: int) -> float:
    """``A`` with ``nu(dy) = A |y|^{-n-alpha} dy`` giving char exponent ``|u|^alpha``."""
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((n + alpha) / 2.0)
        / (math.pi ** (n / 2.0) * math.gamma(1.0 - alpha / 2.0))
    )


def _jump_stable_isotropic_mc(kind: SymmetricStable, fn, x, m, rng):
    n = x.shape[1]
    alpha = kind.alpha
    a_const = _isotropic_stable_constant(alpha, n)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    scale_fac = kind.scale**alpha * a_const * omega
    out = np.empty((2, x.shape[0]))
    for i, xi in enumerate(x):
        g = rng(i)
        theta = g.standard_normal((m, n))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        # inner part: R ~ (2-alpha) r^{1-alpha} on (0,1), T ~ 2(1-t) on (0,1)
        r_in = g.uniform(0.0, 1.0, m) ** (1.0 / (2.0 - alpha))
        t_in = 1.0 - np.sqrt(g.uniform(0.0, 1.0, m))
        # outer part: R ~ alpha r^{-1-alpha} on (1, inf)
        r_out = g.uniform(0.0, 1.0, m) ** (-1.0 / alpha)
        s = (t_in * r_in)[:, None] * theta
        h = fn.hess(np.concatenate([xi + s, xi - s]))
        q_bar = 0.5 * np.einsum("mi,mij,mj->m", theta, h[:m] + h[m:], theta)
        y = r_out[:, None] * theta
        f = fn.value(np.concatenate([xi + y, xi - y]))
        second_diff = f[:m] + f[m:] - 2.0 * float(fn.value(xi))
        out[:, i] = _mean_se(q_bar / (2.0 * (2.0 - alpha)) + 0.5 * second_diff / alpha)
    return scale_fac * out[0], scale_fac * out[1]


def _jump_subordinator(kind: StableSubordinatorMeasure, fn, x, grad):
    """Raw differences: the quadrature's Taylor form on ``r < 1`` leaves out
    ``f'(x) int_0^1 r nu(dr) = f'(x) A / (1 - alpha)``, added back here."""
    alpha = kind.alpha
    a_const = alpha / math.gamma(1.0 - alpha)  # Laplace exponent u^alpha
    integral, err = _split_quad(fn, x, np.ones(1), (1.0,), alpha)
    value = a_const * integral + a_const * grad[:, 0] / (1.0 - alpha)
    return value, a_const * err


def _isotropic_mc(kind, dim: int) -> bool:
    """Whether a symmetric-stable integral is estimated by Monte Carlo."""
    return dim > 1 and kind.structure == "isotropic"


def _jump_part(kind, fn, x, grad, m, rng):
    """The jump integral of ``fn`` and its error at every row of ``x``, after
    checking that the integral is defined for this kind."""
    if isinstance(kind, NoJumps):
        return np.zeros(x.shape[0]), np.zeros(x.shape[0])
    if isinstance(kind, CompoundPoisson):
        # finite measure, bounded jumps: every growth integrates
        return _jump_cp_discrete(kind, fn, x)
    _check_growth(kind.alpha, fn)
    if isinstance(kind, SymmetricStable):
        if _isotropic_mc(kind, x.shape[1]):
            return _jump_stable_isotropic_mc(kind, fn, x, m, rng)
        return _jump_stable_1d_axes(kind, fn, x)
    if isinstance(kind, StableSubordinatorMeasure):
        return _jump_subordinator(kind, fn, x, grad)
    raise ConfigError(f"unknown jump kind {kind!r}")


def jump_nodes(levy: LevyMeasureSpec, dim: int, jump_mc_samples: int) -> int:
    """Function evaluations per grid point that the jump integral makes, for
    size budgets: the atoms, the Monte Carlo samples, or the Taylor-remainder
    tensor rules' nodes on each axis (the panels and the far tail add a few
    thousand more); 0 without jumps."""
    kind = levy.kind
    if isinstance(kind, NoJumps):
        return 0
    if isinstance(kind, CompoundPoisson):
        return kind.jump_dist.atoms.shape[0]
    if isinstance(kind, SymmetricStable) and _isotropic_mc(kind, dim):
        return jump_mc_samples
    axes = dim if isinstance(kind, SymmetricStable) else 1
    return axes * 2 * _TENSOR_ROWS


def generator_apply(
    spec: ProcessSpec,
    fn: LyapunovFn,
    x,
    jump_mc_samples: int = 20_000,
    seed: int = 0,
    point_index: int = 0,
) -> GeneratorResult:
    """Evaluate ``L fn`` at a state ``x`` ``(n,)``, or at every row of a batch
    ``(m, n)`` in one pass, for the generator ``L`` of the continuous-time
    ``spec``; returns (value, error estimate), floats for a state and ``(m,)``
    arrays for a batch.

    The error is zero for exact finite sums. For the deterministic 1-D jump
    integrals it is the difference of each fixed rule pair (n against 2n
    nodes) with a rounding allowance; where the far tail's pair disagrees,
    the far tail's error is its value's size plus a bound on the whole far
    tail (see :func:`quad`).
    Otherwise it is a Monte Carlo standard error; row ``i`` draws from the
    RNG keyed on ``(seed, point_index + i)``, so its draws do not depend on
    the batch.
    """
    if spec.discrete_time:
        raise ConfigError(
            f"the generator needs a continuous-time process, got {type(spec).__name__}"
        )
    xb, single = _batch(x)
    levy = spec.levy
    grad = fn.grad(xb)
    # the walk's own coefficients, drift called before sigma as a substep does
    drift, sigma = spec.coeffs(xb.shape[0])
    value = np.zeros(xb.shape[0])
    value += np.sum(drift(xb) * grad, axis=-1)
    if levy.b_L is not None:
        value += grad @ levy.b_L
    s = None if sigma is None else sigma_at(sigma, xb)
    a_total = None if s is None else s @ np.swapaxes(s, 1, 2)
    if levy.a_L is not None:
        a_total = levy.a_L if a_total is None else a_total + levy.a_L
    if a_total is not None and np.any(a_total):
        value += 0.5 * np.sum(a_total * np.swapaxes(fn.hess(xb), 1, 2), axis=(1, 2))
    jump, error = _jump_part(
        levy.kind, fn, xb, grad, jump_mc_samples, lambda i: _block_rng(seed, point_index + i)
    )
    value = value + jump
    if single:
        return GeneratorResult(float(value[0]), float(error[0]))
    return GeneratorResult(value, error)


# ---------------------------------------------------------------------------
# drift-condition certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Pointwise audit of ``L V <= b 1_{|x| <= r} - phi(V)`` on a grid.

    ``lhs = L V``; ``rhs = b 1_ball - phi(V)``; ``margin = rhs - lhs``,
    computed as ``b 1_ball - (phi(V) + L V)``; ``b`` is the smallest constant
    making the margin nonnegative at every grid point inside the closed ball
    of radius ``ball_radius``. ``errors`` holds the error estimate of each
    ``L V`` (see :func:`generator_apply`).
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


def drift_check(
    spec: ProcessSpec,
    fn: LyapunovFn,
    phi: PhiSpec,
    grid,
    ball_radius: float,
    jump_mc_samples: int = 20_000,
    seed: int = 0,
) -> DriftReport:
    """Certify the drift inequality for the generator of the continuous-time
    ``spec`` pointwise on a grid of states.

    A grid point where ``V`` overflows is refused (DomainError) before the
    generator is evaluated; one where ``L V`` or ``phi(V)`` is not finite
    raises NumericalError.  Either message names the first such point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:  # a flat list of scalars for a 1-D process
        grid = grid[:, None]
    if not ball_radius >= 0:
        raise ConfigError("ball_radius must be nonnegative")
    v_vals = np.asarray(fn.value(grid), dtype=float)
    if not np.all(np.isfinite(v_vals)):
        i = np.argmin(np.isfinite(v_vals))
        raise DomainError(f"V = {v_vals[i]} is not finite at grid point {grid[i].tolist()}")
    lhs, errs = generator_apply(spec, fn, grid, jump_mc_samples=jump_mc_samples, seed=seed)
    phi_vals = np.array([phi_eval(phi, v) for v in v_vals])
    finite = np.isfinite(lhs) & np.isfinite(phi_vals)
    if not np.all(finite):
        i = np.argmin(finite)
        raise NumericalError(
            f"L V = {lhs[i]} and phi(V) = {phi_vals[i]} at grid point {grid[i].tolist()}:"
            " both must be finite"
        )
    inside = np.linalg.norm(grid, axis=1) <= ball_radius
    need = phi_vals + lhs
    b = float(np.max(need[inside])) if np.any(inside) else 0.0
    covered = np.where(inside, b, 0.0)
    rhs = covered - phi_vals
    # one subtraction, so the point that sets b has margin exactly 0
    margin = covered - need
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
