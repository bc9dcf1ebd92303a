"""Simulatable Markov process families and their exact reference objects.

The module couples two layers:

* specification types — immutable descriptions of a driving Lévy process
  (:class:`LevyMeasureSpec`: drift, Gaussian part, jump measure kind) and of a
  process (:class:`LangevinTempered`, :class:`OUJump`, :class:`PiecewiseOU`,
  :class:`NonlinearSS`, :class:`BackwardRecurrence`, :class:`GenericIto`), each
  a :class:`ProcessSpec` that states the facts its callers need;
* numerics — :func:`simulate` (one block loop over the family's
  ``walker``: Euler–Maruyama with exact-in-law noise increments per step;
  exact recursion for the discrete-time kinds),
  :func:`sample_stable` (Chambers–Mallows–Stuck), :func:`invariant_exact`
  (backward recurrence chain), :func:`ou_exact_transition` (Gaussian marginal
  of a linear SDE), :func:`piecewise_drift`, and :func:`langevin_coeffs`.

Conventions
-----------
* A ``SymmetricStable(alpha, scale)`` measure has Lévy density
  ``scale^alpha * c_alpha |y|^{-1-alpha}`` with ``c_alpha`` normalized so the
  characteristic exponent is ``|scale * u|^alpha``; step increments over ``dt``
  are then exactly ``dt^{1/alpha} * scale * S`` with ``S`` standard stable.
* ``simulate`` is deterministic given (spec, seed, grid, n_paths): paths are
  sharded into fixed-size blocks, each driven by its own counter-based
  substream keyed on (master seed, block index).
* A discrete-time family's walk holds whatever state suits it
  (``BackwardRecurrence``: an integer index into a table of ``p_i``) and
  hands back float states only at the grid's step counts.
* ``OUJump`` integrates the linear drift and the Gaussian part exactly per
  step (the marginal law of the continuous part is exact on the grid); jump
  increments are added at step ends like for every other continuous kind.
* User-supplied coefficient callables must be batch-aware: they receive an
  ``(m, n)`` array of states and return ``(m, n)`` (drift), ``(m, n, n)`` or a
  constant matrix (diffusion).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Literal, Union

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from .errors import BlowUpError, ConfigError, DomainError

__all__ = [
    "NoJumps",
    "DiscreteJumps",
    "SamplerJumps",
    "CompoundPoisson",
    "SymmetricStable",
    "StableSubordinatorMeasure",
    "LevyMeasureSpec",
    "ThetaClass",
    "ConstantControl",
    "MarkovControl",
    "LangevinTempered",
    "OUJump",
    "PiecewiseOU",
    "NonlinearSS",
    "BackwardRecurrence",
    "GenericIto",
    "ProcessSpec",
    "TrajectoryBatch",
    "simulate",
    "sample_stable",
    "standard_one_sided_stable",
    "invariant_exact",
    "ou_exact_transition",
    "piecewise_drift",
    "langevin_coeffs",
    "sigma_matrix",
]

_BLOWUP_GUARD = 1e12
_BLOCK_SIZE = 16384


# ---------------------------------------------------------------------------
# Lévy measure specifications
# ---------------------------------------------------------------------------
#
# Every jump kind answers ``theta_class()`` (its moment classes) and
# ``increment(dim, dt, rng, m)`` (exact-in-law jump increments of ``m`` paths
# over one step of length ``dt``, or None when there are no jumps).


@dataclass(frozen=True)
class ThetaClass:
    """Moment classes of a jump measure: polynomial supremum and exponential rate."""

    theta_sup: float
    exp_rate: float | None


@dataclass(frozen=True)
class NoJumps:
    """Empty jump measure."""

    def theta_class(self) -> ThetaClass:
        return ThetaClass(theta_sup=math.inf, exp_rate=math.inf)

    def increment(self, dim: int, dt: float, rng, m: int) -> None:
        return None


@dataclass(frozen=True, eq=False)
class DiscreteJumps:
    """Finite-support jump distribution: atoms (k,) or (k, n) with probabilities."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        probs = np.array(self.probs, dtype=float).ravel()
        if atoms.shape[0] != probs.shape[0] or atoms.shape[0] == 0:
            raise ConfigError("atoms and probs must have equal positive length")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ConfigError("probs must be a probability vector")
        atoms.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def theta_class(self) -> ThetaClass:
        return ThetaClass(theta_sup=math.inf, exp_rate=math.inf)

    def sample(self, rng, size: int) -> np.ndarray:
        picks = rng.choice(self.atoms.shape[0], size=size, p=self.probs)
        return self.atoms[picks]


@dataclass(frozen=True)
class SamplerJumps:
    """Sampler-backed jump distribution with declared moment classes.

    ``sampler(rng, size)`` must return a ``(size, dim)`` array. ``theta_sup``
    declares the supremum of finite absolute moments; ``exp_rate`` the largest
    ``theta`` with ``E[exp(theta |Y|)] < oo`` (None if no exponential moments).
    """

    sampler: Callable[[np.random.Generator, int], np.ndarray]
    dim: int = 1
    theta_sup: float = math.inf
    exp_rate: float | None = None

    def __post_init__(self):
        if not callable(self.sampler):
            raise ConfigError("sampler must be callable")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")

    def theta_class(self) -> ThetaClass:
        return ThetaClass(theta_sup=self.theta_sup, exp_rate=self.exp_rate)

    def sample(self, rng, size: int) -> np.ndarray:
        jumps = np.asarray(self.sampler(rng, size), dtype=float)
        return jumps[:, None] if jumps.ndim == 1 else jumps


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson jump part: rate * jump distribution."""

    rate: float
    jump_dist: Union[DiscreteJumps, SamplerJumps]

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ConfigError(f"rate must be positive, got {self.rate}")

    def theta_class(self) -> ThetaClass:
        return self.jump_dist.theta_class()

    def increment(self, dim: int, dt: float, rng, m: int) -> np.ndarray:
        counts = rng.poisson(self.rate * dt, m)
        total = int(counts.sum())
        inc = np.zeros((m, dim))
        if total > 0:
            jumps = self.jump_dist.sample(rng, total)
            idx = np.repeat(np.arange(m), counts)
            np.add.at(inc, idx, jumps)
        return inc


@dataclass(frozen=True)
class SymmetricStable:
    """Symmetric alpha-stable jump part, isotropic or per-coordinate."""

    alpha: float
    scale: float = 1.0
    structure: Literal["isotropic", "independent"] = "isotropic"

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ConfigError(f"alpha must lie in (0,2), got {self.alpha}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.structure not in ("isotropic", "independent"):
            raise ConfigError(f"unknown structure {self.structure!r}")

    def theta_class(self) -> ThetaClass:
        return ThetaClass(theta_sup=self.alpha, exp_rate=None)

    def increment(self, dim: int, dt: float, rng, m: int) -> np.ndarray:
        amp = dt ** (1.0 / self.alpha) * self.scale
        if dim == 1 or self.structure == "independent":
            return amp * _cms(self.alpha, 0.0, rng, (m, dim))
        # isotropic: Gaussian subordinated by a one-sided (alpha/2)-stable factor
        lam = standard_one_sided_stable(self.alpha / 2.0, rng, (m, 1))
        z = rng.standard_normal((m, dim))
        return amp * np.sqrt(2.0 * lam) * z


@dataclass(frozen=True)
class StableSubordinatorMeasure:
    """One-sided alpha-stable jump measure (increments positive), alpha in (0,1)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0,1), got {self.alpha}")

    def theta_class(self) -> ThetaClass:
        return ThetaClass(theta_sup=self.alpha, exp_rate=None)

    def increment(self, dim: int, dt: float, rng, m: int) -> np.ndarray:
        if dim != 1:
            raise ConfigError("subordinator jump measures are one-dimensional")
        amp = dt ** (1.0 / self.alpha)
        return amp * standard_one_sided_stable(self.alpha, rng, (m, 1))


JumpKind = Union[NoJumps, CompoundPoisson, SymmetricStable, StableSubordinatorMeasure]


@dataclass(frozen=True, eq=False)
class LevyMeasureSpec:
    """Driving Lévy process: drift ``b_L``, Gaussian ``a_L``, jump part ``kind``."""

    kind: JumpKind = NoJumps()
    b_L: np.ndarray | None = None
    a_L: np.ndarray | None = None

    def __post_init__(self):
        if self.b_L is not None:
            b = np.array(self.b_L, dtype=float).ravel()
            b.flags.writeable = False
            object.__setattr__(self, "b_L", b)
        if self.a_L is not None:
            a = np.atleast_2d(np.array(self.a_L, dtype=float))
            if not np.allclose(a, a.T, atol=1e-12):
                raise ConfigError("a_L must be symmetric")
            if np.linalg.eigvalsh(a)[0] < -1e-12:
                raise ConfigError("a_L must be PSD")
            a.flags.writeable = False
            object.__setattr__(self, "a_L", a)

    def theta_class(self) -> ThetaClass:
        return self.kind.theta_class()


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstantControl:
    """Fixed allocation vector on the simplex."""

    v: np.ndarray

    def __post_init__(self):
        v = np.array(self.v, dtype=float).ravel()
        if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
            raise ConfigError("control vector must lie on the probability simplex")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    def value(self, x):
        return self.v


@dataclass(frozen=True)
class MarkovControl:
    """State-dependent allocation ``v(x)``; only locally Lipschitz maps accepted."""

    fn: Callable[[np.ndarray], np.ndarray]
    locally_lipschitz: bool = True

    def __post_init__(self):
        if not callable(self.fn):
            raise ConfigError("control fn must be callable")
        if not self.locally_lipschitz:
            raise ConfigError(
                "merely measurable Markov controls are rejected: strong-solution "
                "simulation requires a locally Lipschitz control"
            )

    def value(self, x):
        return np.asarray(self.fn(x), dtype=float)


class ProcessSpec:
    """Facts every process family gives its callers, so none checks its type.

    ``dim``; ``check_start(x0)``, which refuses a start state the process
    cannot take; ``discrete_time`` (True: integer times); ``walker(x0,
    times, max_step)``, which returns ``walk(m, rng)``, a generator of the
    ``(m, dim)`` states of ``m`` paths from ``x0`` at each grid time (the
    first grid time carries ``x0`` in continuous time; in discrete time the
    times count steps from 0); for continuous time ``levy``, a batched
    ``drift(x)`` and ``sigma`` (None, a constant matrix or a batched
    callable), from which :meth:`advance` builds the substep; and
    ``exact_invariant()``: ``"chain"`` (see :func:`invariant_exact`),
    ``"gaussian"`` (centred, ``invariant_sd()``) or None.
    """

    discrete_time: ClassVar[bool] = False

    def check_start(self, x0) -> None:
        if np.size(x0) != self.dim:
            raise ConfigError(
                f"x0 has {np.size(x0)} coordinates but the process has dimension {self.dim}"
            )

    def exact_invariant(self) -> str | None:
        return None

    def walker(self, x0, times, max_step):
        """Continuous time: ``ceil(span / max_step)`` equal substeps per grid
        interval, each the continuous part's :meth:`advance` plus the jump
        increment, with the blow-up guard after every substep."""
        if not max_step > 0:
            raise ConfigError("max_step must be positive")
        plans = []
        for span in np.diff(times):
            n_sub = max(1, int(math.ceil(span / max_step - 1e-12)))
            plans.append((n_sub, span / n_sub))
        step = self.advance({dt for _, dt in plans})
        jumps, dim = self.levy.kind, self.dim

        def walk(m, rng):
            x = np.broadcast_to(x0, (m, dim)).copy()
            yield x
            for n_sub, dt in plans:
                for _ in range(n_sub):
                    x = step(x, dt, rng)
                    jump = jumps.increment(dim, dt, rng, m)
                    if jump is not None:
                        x = x + jump
                    _check_blowup(x)
                yield x

        return walk

    def advance(self, dts):
        """``step(x, dt, rng)`` for one substep of the continuous part:
        Euler–Maruyama in the drift, ``sigma`` and the Gaussian Lévy part."""
        drift, sigma, levy = self.drift, self.sigma, self.levy
        sqrt_al = None
        if levy.a_L is not None and np.any(levy.a_L):
            sqrt_al = _psd_sqrt_matrix(levy.a_L)

        def step(x, dt, rng):
            inc = drift(x) * dt
            if levy.b_L is not None:
                inc = inc + levy.b_L[None, :] * dt
            if sigma is not None:
                z = rng.standard_normal(x.shape)
                inc = inc + _sigma_apply(sigma, x, z) * math.sqrt(dt)
            if sqrt_al is not None:
                z2 = rng.standard_normal(x.shape)
                inc = inc + (z2 @ sqrt_al.T) * math.sqrt(dt)
            return x + inc

        return step


@dataclass(frozen=True)
class LangevinTempered(ProcessSpec):
    """Langevin diffusion with heavy-tailed target ``pi(x) = c |x|^{-1/alpha}``
    outside the unit ball and a C2 radial interior blend; ``sigma = pi^{-beta} I``.
    """

    levy: ClassVar[LevyMeasureSpec] = LevyMeasureSpec()

    alpha: float
    beta: float
    dim: int = 1

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ConfigError("dim must be >= 1")
        if not (0.0 < self.alpha < 1.0 / n):
            raise ConfigError(f"alpha must lie in (0, 1/n) = (0, {1.0 / n}), got {self.alpha}")
        hi = (1.0 + self.alpha * (2.0 - n)) / 2.0
        if not (0.0 <= self.beta <= hi):
            raise ConfigError(f"beta must lie in [0, {hi}], got {self.beta}")

    def drift(self, x):
        return langevin_coeffs(self, x)[0]

    def sigma(self, x):
        return langevin_coeffs(self, x)[1]


@dataclass(frozen=True, eq=False)
class OUJump(ProcessSpec):
    """Linear drift ``Hx`` driven by a Lévy process; the Gaussian part is ``a_L``."""

    sigma: ClassVar[None] = None

    H: np.ndarray
    levy: LevyMeasureSpec

    def __post_init__(self):
        h = np.atleast_2d(np.array(self.H, dtype=float))
        if h.shape[0] != h.shape[1]:
            raise ConfigError("H must be square")
        h.flags.writeable = False
        object.__setattr__(self, "H", h)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def drift(self, x):
        return x @ self.H.T

    def advance(self, dts):
        """Exact integration of the linear drift and the Gaussian part per substep."""
        terms = {dt: _ou_step_terms(self, dt) for dt in dts}

        def step(x, dt, rng):
            prop, drift_term, noise_sqrt = terms[dt]
            x = x @ prop.T + drift_term[None, :]
            if noise_sqrt is not None:
                x = x + rng.standard_normal(x.shape) @ noise_sqrt.T
            return x

        return step

    def invariant_sd(self) -> float | None:
        """Standard deviation of the invariant law when it is a centred scalar Gaussian."""
        levy = self.levy
        if self.H.shape != (1, 1) or levy.kind != NoJumps() or levy.a_L is None:
            return None
        if levy.b_L is not None and np.any(levy.b_L != 0.0):
            return None
        h = float(self.H[0, 0])
        a = float(levy.a_L[0, 0])
        if h >= 0 or a <= 0:
            return None
        return math.sqrt(a / (2.0 * -h))

    def exact_invariant(self) -> str | None:
        return None if self.invariant_sd() is None else "gaussian"


@dataclass(frozen=True, eq=False)
class PiecewiseOU(ProcessSpec):
    """Piecewise linear drift ``l - M(x - <e,x>^+ v) - <e,x>^+ Gamma v`` plus noise."""

    l: np.ndarray
    M: np.ndarray
    Gamma: np.ndarray
    control: Union[ConstantControl, MarkovControl]
    sigma: np.ndarray | Callable[[np.ndarray], np.ndarray] | None
    levy: LevyMeasureSpec

    def __post_init__(self):
        l = np.array(self.l, dtype=float).ravel()
        m = np.atleast_2d(np.array(self.M, dtype=float))
        g = np.atleast_2d(np.array(self.Gamma, dtype=float))
        n = l.shape[0]
        if m.shape != (n, n) or g.shape != (n, n):
            raise ConfigError("M and Gamma must be n x n")
        off = m - np.diag(np.diag(m))
        if np.any(off > 1e-12):
            raise ConfigError("M must be an M-matrix: off-diagonal entries <= 0")
        if np.min(np.real(np.linalg.eigvals(m))) <= 0:
            raise ConfigError("M must be a nonsingular M-matrix: eigenvalues in the right half-plane")
        if np.any(np.ones(n) @ m < -1e-12):
            raise ConfigError("e'M must be componentwise nonnegative")
        if np.any(g != np.diag(np.diag(g))) or np.any(np.diag(g) < 0):
            raise ConfigError("Gamma must be a nonnegative diagonal matrix")
        sigma = self.sigma
        if sigma is not None and not callable(sigma):
            sigma = np.atleast_2d(np.array(sigma, dtype=float))
            sigma.flags.writeable = False
        for name, val in (("l", l), ("M", m), ("Gamma", g)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    def drift(self, x):
        return piecewise_drift(self.l, self.M, self.Gamma, self.control.value(x), x)


@dataclass(frozen=True)
class NonlinearSS(ProcessSpec):
    """Discrete-time recursion ``X_{k+1} = F(X_k) + W_{k+1}`` with growth metadata."""

    discrete_time: ClassVar[bool] = True

    F: Callable[[np.ndarray], np.ndarray]
    noise: Callable[[np.random.Generator, int], np.ndarray]
    c_bar: float
    c_tilde: float
    eps_bar: float
    r_bar: float
    dim: int = 1

    def __post_init__(self):
        if not callable(self.F) or not callable(self.noise):
            raise ConfigError("F and noise must be callable")
        for name in ("c_bar", "c_tilde", "eps_bar", "r_bar"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"growth constant {name} must be positive")

    def walker(self, x0, times, max_step):
        def step(x, rng):
            w = np.asarray(self.noise(rng, x.shape[0]), dtype=float)
            if w.ndim == 1:
                w = w[:, None]
            x = np.asarray(self.F(x), dtype=float) + w
            _check_blowup(x)
            return x

        return _integer_walker(
            _integer_steps(times), lambda m: np.broadcast_to(x0, (m, self.dim)).copy(), step
        )


@dataclass(frozen=True)
class BackwardRecurrence(ProcessSpec):
    """Chain on the nonnegative integers: up with probability ``p_i``, else reset to 0.

    ``p_0 = 1``; ``p_i = 1/2`` for ``1 <= i < i0``; ``p_i = 1 - (1+alpha)/i``
    for ``i >= i0`` (reset probability ``(1+alpha)/i``), which produces the
    polynomial invariant tail ``pi(i) ~ C i^{-(1+alpha)}``.
    """

    discrete_time: ClassVar[bool] = True
    dim: ClassVar[int] = 1

    alpha: float
    i0: int

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ConfigError(f"alpha must exceed 1, got {self.alpha}")
        if not (isinstance(self.i0, (int, np.integer)) and self.i0 > 1 + self.alpha):
            raise ConfigError(f"i0 must be an integer > 1 + alpha, got {self.i0}")

    def up_prob(self, i: np.ndarray) -> np.ndarray:
        i = np.asarray(i, dtype=float)
        return np.where(
            i == 0,
            1.0,
            np.where(i < self.i0, 0.5, 1.0 - (1.0 + self.alpha) / np.maximum(i, 1.0)),
        )

    def check_start(self, x0) -> None:
        super().check_start(x0)
        x = float(np.ravel(x0)[0])
        if not (0.0 <= x <= 2.0**53 and x == math.floor(x)):
            raise ConfigError(f"the chain starts at a nonnegative integer state, got x0 = {x!r}")

    def walker(self, x0, times, max_step):
        """Integer walk over a table of ``p_i``: index ``k <= n`` is state ``k``
        (reached after a reset), index ``n + 1 + k`` is state ``x0 + k`` (no
        reset yet), ``n`` the horizon.  One uniform per path and step."""
        steps = _integer_steps(times)
        n = steps[-1]
        start = int(x0[0])
        table = self.up_prob(
            np.concatenate((np.arange(n + 1.0), np.arange(start, start + n + 1.0)))
        )

        def step(k, rng):
            up = rng.random(k.shape[0]) < table[k]
            k += 1
            k *= up
            return k

        def observe(k):
            return np.where(k > n, k + (start - n - 1), k)[:, None]

        return _integer_walker(steps, lambda m: np.full(m, n + 1), step, observe)

    def exact_invariant(self) -> str | None:
        return "chain"


@dataclass(frozen=True)
class GenericIto(ProcessSpec):
    """User-specified drift/diffusion plus a driving Lévy spec."""

    b: Callable[[np.ndarray], np.ndarray] | None
    sigma: np.ndarray | Callable[[np.ndarray], np.ndarray] | None
    levy: LevyMeasureSpec
    dim: int = 1

    def drift(self, x):
        if self.b is None:
            return np.zeros_like(x)
        return np.asarray(self.b(x), dtype=float)


# ---------------------------------------------------------------------------
# Stable sampling (Chambers–Mallows–Stuck)
# ---------------------------------------------------------------------------


def _cms(alpha: float, skew: float, rng: np.random.Generator, size) -> np.ndarray:
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
    return (
        s
        * np.sin(alpha * (u + b))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_stable(alpha: float, skew: float, scale: float, n: int, seed: int) -> np.ndarray:
    """Stable samples via the Chambers–Mallows–Stuck transform.

    ``alpha = 2`` degenerates to a centered Gaussian with variance
    ``2 * scale**2``; ``alpha = 1, skew = 0`` is Cauchy; ``alpha < 1, skew = 1``
    is spectrally positive (all samples positive).
    """
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0,2], got {alpha}")
    if not -1.0 <= skew <= 1.0:
        raise DomainError(f"skew must lie in [-1,1], got {skew}")
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    return scale * _cms(alpha, skew, _block_rng(seed, 0), int(n))


def standard_one_sided_stable(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """One-sided stable with Laplace transform ``E[exp(-u S)] = exp(-u^alpha)``.

    The raw CMS draw with ``skew = 1`` has Laplace exponent
    ``u^alpha / cos(pi alpha / 2)``; rescaling by ``cos(pi alpha/2)^{1/alpha}``
    normalizes it away.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    return math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha) * _cms(alpha, 1.0, rng, size)


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------

# Element budgets of the arrays a config asks for.  A config that would
# exceed one is refused with SizeError when it is read (exit 2), before
# anything is allocated, instead of failing for lack of memory.
CSV_MAX_VALUES = 2_000_000  # trajectory CSV: paths x grid times x dimension
PATH_MAX_VALUES = 50_000_000  # experiment path block: paths x grid times x dimension
BOOT_MAX_VALUES = 10_000_000  # couple bootstrap table: n_boot x grid times
LEVEL_MAX_POINTS = 1_000_000  # lower s_grid levels


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Simulated paths: ``paths[i, k, :]`` is path ``i`` at ``times[k]``."""

    times: np.ndarray
    paths: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.paths, dtype=float)
        if p.ndim != 3 or p.shape[1] != t.shape[0]:
            raise ConfigError("paths must be (n_paths, n_times, dim) matching times")
        t.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "paths", p)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]

    def marginal(self, k: int) -> np.ndarray:
        """States of all paths at grid index ``k`` (shape n_paths x dim)."""
        return self.paths[:, k, :]

    def to_csv(self, path) -> None:
        import csv as _csv

        if self.paths.size > CSV_MAX_VALUES:
            raise ConfigError(
                f"CSV export holds at most {CSV_MAX_VALUES:,} values, got {self.paths.size:,}"
            )
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["path", "time"] + [f"x{i + 1}" for i in range(self.dim)])
            for i in range(self.n_paths):
                for k, t in enumerate(self.times):
                    writer.writerow(
                        [i, repr(float(t))] + [repr(float(v)) for v in self.paths[i, k]]
                    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=[int(seed), int(block)]))
    )


def _psd_sqrt_matrix(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _sigma_apply(sigma, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Return sigma(x) @ z per path for constant or state-dependent sigma."""
    if callable(sigma):
        mat = np.asarray(sigma(x), dtype=float)
        if mat.ndim == 2:  # diagonal-free shorthand: per-path scalar rows
            return mat * z
        return np.einsum("pij,pj->pi", mat, z)
    return z @ np.asarray(sigma, dtype=float).T


def sigma_matrix(sigma, x) -> np.ndarray:
    """A spec's ``sigma`` at one state ``x`` as an ``(n, n)`` matrix.

    ``sigma`` is a constant matrix or a batched callable returning
    ``(m, n, n)`` matrices or ``(m, n)`` diagonals.
    """
    if not callable(sigma):
        return np.asarray(sigma, dtype=float)
    out = np.asarray(sigma(np.asarray(x, dtype=float)[None, :]), dtype=float)[0]
    return out if out.ndim == 2 else np.diag(out)


def _check_blowup(x: np.ndarray) -> None:
    worst = float(np.max(np.abs(x))) if x.size else 0.0
    if not math.isfinite(worst) or worst > _BLOWUP_GUARD:
        raise BlowUpError(f"state magnitude {worst:.3e} exceeded the overflow guard 1e12")


def _integer_steps(times) -> list:
    """Grid times as step counts from 0; discrete time needs nonnegative integers."""
    steps = np.rint(times).astype(int)
    if np.any(np.abs(times - steps) > 1e-9) or steps[0] < 0:
        raise ConfigError("discrete-time specs require nonnegative integer grid times")
    return list(steps)


def _integer_walker(steps, first, step, observe=lambda state: state):
    """``walk(m, rng)`` of a discrete-time family: from ``first(m)``, one
    ``step(state, rng)`` per unit of time, ``observe(state)`` at each count in ``steps``."""

    def walk(m, rng):
        state = first(m)
        done = 0
        for stop in steps:
            for _ in range(stop - done):
                state = step(state, rng)
            done = stop
            yield observe(state)

    return walk


def _ou_step_terms(spec: OUJump, dt: float):
    h = spec.H
    n = h.shape[0]
    prop = expm(h * dt)
    levy = spec.levy
    drift_term = np.zeros(n)
    if levy.b_L is not None:
        # int_0^dt e^{Hs} b_L ds via the augmented exponential
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = h * dt
        aug[:n, n] = levy.b_L * dt
        drift_term = expm(aug)[:n, n]
    noise_sqrt = None
    if levy.a_L is not None and np.any(levy.a_L):
        cov = _ou_covariance(h, levy.a_L, dt)
        noise_sqrt = _psd_sqrt_matrix(cov)
    return prop, drift_term, noise_sqrt


def simulate(
    spec: ProcessSpec,
    x0,
    t_grid,
    n_paths: int,
    seed: int,
    max_step: float = 0.01,
) -> TrajectoryBatch:
    """Simulate ``n_paths`` trajectories observed on ``t_grid``.

    Continuous kinds use Euler–Maruyama with exact-in-law noise increments per
    substep (substep length at most ``max_step``); ``OUJump`` integrates its
    linear drift and Gaussian part exactly per substep. ``BackwardRecurrence``
    and ``NonlinearSS`` are exact recursions on integer times. The first grid
    point carries the initial condition, which ``spec.check_start`` vets.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
        raise ConfigError("t_grid must be a strictly increasing 1-D grid")
    if n_paths < 1:
        raise ConfigError("n_paths must be positive")
    spec.check_start(x0)
    walk = spec.walker(np.asarray(x0, dtype=float).ravel(), t, max_step)
    paths = np.empty((n_paths, t.size, spec.dim))
    for block, lo in enumerate(range(0, n_paths, _BLOCK_SIZE)):
        hi = min(lo + _BLOCK_SIZE, n_paths)
        for k, x in enumerate(walk(hi - lo, _block_rng(seed, block))):
            paths[lo:hi, k] = x
    return TrajectoryBatch(times=t, paths=paths)


# ---------------------------------------------------------------------------
# Exact objects
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _recurrence_series(spec: BackwardRecurrence, n_terms: int):
    """Unnormalized masses u_i = prod_{j=1}^{i-1} p_j for i >= 1 (u_1 = 1).

    Built in one array, ``u[i-1]`` for state ``i``, and returned read-only:
    the last series is cached, so truncations that need the same number of
    terms share it.
    """
    u = np.arange(n_terms, dtype=float)
    p = u[1:]  # p[j-1] = p_j, formed in place from j
    np.divide(1.0 + spec.alpha, p, out=p)
    np.subtract(1.0, p, out=p)
    p[: spec.i0 - 1] = 0.5
    u[0] = 1.0
    np.multiply.accumulate(p, out=p)
    u.flags.writeable = False
    return u


def invariant_exact(spec: BackwardRecurrence, truncation: int):
    """Exact invariant distribution on {0, ..., truncation}, renormalized.

    Raises :class:`ConfigError` when the truncated tail mass exceeds 1e-12 of
    the total.
    """
    from .wasserstein import EmpiricalMeasure

    if truncation < 2:
        raise ConfigError("truncation must be at least 2")
    n_terms = max(4 * truncation, 2_000_000)
    u = _recurrence_series(spec, n_terms)
    # c = sum_{m>=1} prod_{j=1}^m p_j; since u[i-1] = prod_{j=1}^{i-1} p_j the
    # series terms are u[1], u[2], ...
    series_terms = u[1:]
    c_partial = float(series_terms.sum())
    # tail completion: terms decay like C m^{-(1+alpha)}; complete with the
    # Euler-Maclaurin head of sum_{m > N} C m^{-(1+alpha)}
    last = float(series_terms[-1])
    n_last = float(n_terms - 1)
    s = 1.0 + spec.alpha
    coef = last * n_last**s
    tail = coef * (n_last ** (1.0 - s) / (s - 1.0) - n_last ** (-s) / 2.0)
    c = c_partial + tail
    norm = 2.0 + c
    masses = np.empty(truncation + 1)
    masses[0] = 1.0
    masses[1] = 1.0
    masses[2 : truncation + 1] = u[1:truncation]
    # mass beyond the truncation: exact partial sum plus the same completion
    tail_mass = (float(u[truncation:].sum()) + tail) / norm
    if tail_mass > 1e-12:
        raise ConfigError(
            f"truncation {truncation} leaves tail mass ~{tail_mass:.2e} > 1e-12"
        )
    masses /= norm
    masses /= masses.sum()
    points = np.arange(truncation + 1, dtype=float)[:, None]
    # frozen here, the measure shares both arrays instead of copying them
    masses.flags.writeable = False
    points.flags.writeable = False
    return EmpiricalMeasure(points=points, weights=masses)


def _ou_covariance(h: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    n = h.shape[0]
    if n == 1:
        hh = float(h[0, 0])
        aa = float(a[0, 0])
        if abs(hh) < 1e-300:
            return np.array([[aa * t]])
        return np.array([[aa * (math.exp(2.0 * hh * t) - 1.0) / (2.0 * hh)]])
    # Van Loan block-exponential: exp(t [[-H, a], [0, H']]) yields
    # C(t) = F22' F12 with the blocks below
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -h
    blk[:n, n:] = a
    blk[n:, n:] = h.T
    f = expm(blk * t)
    return f[n:, n:].T @ f[:n, n:]


def ou_exact_transition(H, a_L, t: float, x0):
    """Gaussian marginal of ``dX = HX dt + sqrt(a_L) dB``: mean and covariance."""
    h = np.atleast_2d(np.asarray(H, dtype=float))
    a = np.atleast_2d(np.asarray(a_L, dtype=float))
    x0 = np.asarray(x0, dtype=float).ravel()
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return x0.copy(), np.zeros_like(a)
    mean = expm(h * t) @ x0
    cov = _ou_covariance(h, a, t)
    return mean, cov


def piecewise_drift(l, M, Gamma, v, x) -> np.ndarray:
    """``l - M(x - <e,x>^+ v) - <e,x>^+ Gamma v`` for one state or a batch.

    ``v`` is one allocation ``(n,)`` or one per state ``(m, n)``.
    """
    l = np.asarray(l, dtype=float).ravel()
    m = np.atleast_2d(np.asarray(M, dtype=float))
    g = np.atleast_2d(np.asarray(Gamma, dtype=float))
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    s = np.clip(xb.sum(axis=1), 0.0, None)[:, None]
    out = l - (xb - s * v) @ m.T - s * (v @ g.T)
    return out[0] if single else out


def _langevin_blend_coeffs(alpha: float):
    # interior radial profile q(u), u = |x|^2: the polynomial matching
    # u^{-1/(2 alpha)} at u = 1 to second order; positive on [0, 1]
    k = 1.0 / (2.0 * alpha)
    return k, k * (k + 1.0)


@functools.lru_cache(maxsize=32)
def _langevin_norm_const(spec: LangevinTempered) -> float:
    n = spec.dim
    k, kk = _langevin_blend_coeffs(spec.alpha)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    i_ext = omega / (1.0 / spec.alpha - n)

    def q(u):
        return 1.0 - k * (u - 1.0) + 0.5 * kk * (u - 1.0) ** 2

    i_int, _ = quad(lambda r: q(r * r) * r ** (n - 1), 0.0, 1.0, epsrel=1e-12)
    return 1.0 / (i_ext + omega * i_int)


def langevin_density(spec: LangevinTempered, x) -> np.ndarray:
    """Invariant density: ``c |x|^{-1/alpha}`` outside the unit ball, C2 blend inside."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    c = _langevin_norm_const(spec)
    r2 = np.sum(x * x, axis=1)
    k, kk = _langevin_blend_coeffs(spec.alpha)
    inner = 1.0 - k * (r2 - 1.0) + 0.5 * kk * (r2 - 1.0) ** 2
    # clamp before the power: the outer branch is only consulted for r2 >= 1
    outer = np.power(np.maximum(r2, 1.0), -1.0 / (2.0 * spec.alpha))
    return c * np.where(r2 >= 1.0, outer, inner)


def langevin_coeffs(spec: LangevinTempered, x):
    """Drift and diffusion of the Langevin spec: ``b = (1-2 beta)/2 * pi^{-2 beta} grad log pi``,
    ``sigma = pi^{-beta} I`` (returned per point as a scalar multiplier array)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    r2 = np.sum(xb * xb, axis=1)
    k, kk = _langevin_blend_coeffs(spec.alpha)
    pi_vals = langevin_density(spec, xb)
    # grad log pi: outside -(1/alpha) x/|x|^2; inside q'(u) 2x / q(u)
    q = 1.0 - k * (r2 - 1.0) + 0.5 * kk * (r2 - 1.0) ** 2
    qp = -k + kk * (r2 - 1.0)
    inner_factor = 2.0 * qp / q
    outer_factor = -(1.0 / spec.alpha) / np.maximum(r2, 1.0)
    factor = np.where(r2 >= 1.0, outer_factor, inner_factor)
    grad_log = factor[:, None] * xb
    b = 0.5 * (1.0 - 2.0 * spec.beta) * (pi_vals ** (-2.0 * spec.beta))[:, None] * grad_log
    sig = (pi_vals ** (-spec.beta))[:, None] * np.ones_like(xb)
    if single:
        return b[0], sig[0]
    return b, sig
