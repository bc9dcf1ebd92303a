"""Random time changes of Markov processes and the rate-transfer formula.

A subordinator ``S`` is a nondecreasing Lévy process; replacing ``t`` by
``S(t)`` turns a process ``X`` into ``X^psi(t) = X(S(t))`` whose semigroup is
subordinate in the Bochner sense.  Ergodicity survives the time change: if
``W_p(delta_x P_t, pi) <= c(x) r(t)`` then the subordinate process satisfies
the same bound with the transferred profile

``r_psi(t) = (E[ r(S(t))^p ])^{1/p}``.

This module provides exact-in-law subordinator sampling (stable, gamma, and
pure drift, each with a closed-form Laplace exponent) and Monte Carlo
evaluation of ``r_psi`` with confidence intervals, for exponential and
polynomial profiles ``r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .processes import _block_rng, _in_chunks, standard_one_sided_stable

__all__ = [
    "DriftOnly",
    "Exponential",
    "GammaSub",
    "Polynomial",
    "RateFunction",
    "StableSub",
    "SubordinatedRate",
    "SubordinatorSpec",
    "laplace_exponent",
    "rate_value",
    "sample_subordinator",
    "subordinate_rate",
]


# ---------------------------------------------------------------------------
# Subordinator specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableSub:
    """One-sided stable subordinator, Laplace exponent ``u^alpha``."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"stable subordinator needs alpha in (0, 1), got {self.alpha}")

    def laplace_exponent(self, u):
        return u**self.alpha

    def increment(self, dt: float, rng, n: int) -> np.ndarray:
        return dt ** (1.0 / self.alpha) * standard_one_sided_stable(self.alpha, rng, n)


@dataclass(frozen=True)
class GammaSub:
    """Gamma subordinator, Laplace exponent ``a log(1 + u/b_hat)``."""

    a: float
    b_hat: float

    def __post_init__(self):
        if not (self.a > 0 and self.b_hat > 0):
            raise DomainError("gamma subordinator needs a > 0 and b_hat > 0")

    def laplace_exponent(self, u):
        return self.a * np.log1p(u / self.b_hat)

    def increment(self, dt: float, rng, n: int) -> np.ndarray:
        return rng.gamma(self.a * dt, 1.0 / self.b_hat, n)


@dataclass(frozen=True)
class DriftOnly:
    """Deterministic clock ``S(t) = b_S t`` (drift supplied by the spec)."""

    def laplace_exponent(self, u):
        return 0.0

    def increment(self, dt: float, rng, n: int) -> np.ndarray:
        return np.zeros(n)


# a clock kind states the jump part of its clock, ``laplace_exponent(u)``, and
# ``increment(dt, rng, n)``, ``n`` exact-in-law increments over ``dt > 0``
SubordinatorKind = Union[StableSub, GammaSub, DriftOnly]


@dataclass(frozen=True)
class SubordinatorSpec:
    """A subordinator kind plus a finite, nonnegative deterministic drift ``b_S``."""

    kind: SubordinatorKind
    b_S: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, (StableSub, GammaSub, DriftOnly)):
            raise ConfigError(f"unknown subordinator kind {self.kind!r}")
        if not (0.0 <= self.b_S < math.inf):
            raise DomainError(f"subordinator drift must be finite and nonnegative, got {self.b_S}")


def laplace_exponent(spec: SubordinatorSpec, u) -> float | np.ndarray:
    """Closed-form ``psi(u)`` with ``E[exp(-u S(t))] = exp(-t psi(u))``."""
    u = np.asarray(u, dtype=float)
    out = spec.b_S * u + spec.kind.laplace_exponent(u)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Rate profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """``r(t) = scale * exp(-gamma t)``."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0 and self.scale > 0):
            raise DomainError("exponential profile needs gamma > 0 and scale > 0")

    def value(self, t: np.ndarray) -> np.ndarray:
        return self.scale * np.exp(-self.gamma * t)


@dataclass(frozen=True)
class Polynomial:
    """``r(t) = scale * (1 + t)^{-exponent}`` (finite at ``t = 0``)."""

    exponent: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.exponent > 0 and self.scale > 0):
            raise DomainError("polynomial profile needs exponent > 0 and scale > 0")

    def value(self, t: np.ndarray) -> np.ndarray:
        return self.scale * (1.0 + t) ** (-self.exponent)


# a profile states its ``value(t)`` at an array of times
RateFunction = Union[Exponential, Polynomial]


def rate_value(r: RateFunction, t) -> float | np.ndarray:
    """Evaluate the profile at scalar or array times."""
    out = r.value(np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _check_clock(t: float, n: int) -> None:
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if n < 1:
        raise DomainError(f"sample count must be positive, got {n}")


def _clock_values(spec: SubordinatorSpec, t: float, n: int, seed: int, value) -> np.ndarray:
    """The elementwise ``value(s)`` of ``n`` samples ``s`` of ``S(t)``, a
    chunk at a time: chunk ``i`` (see :func:`ergolab.processes._in_chunks`)
    is drawn from its own stream ``_block_rng(seed, i)`` and written into
    its slice of the result, so the values do not depend on which thread
    draws which chunk.  Chunk 0's stream is ``default_rng(seed)``'s."""
    clock = DriftOnly() if t == 0.0 else spec.kind  # S(0) = 0
    shift = spec.b_S * t
    out = np.empty(n)

    def fill(chunk, lo, hi):
        out[lo:hi] = value(shift + clock.increment(t, _block_rng(seed, chunk), hi - lo))

    _in_chunks(n, fill)
    return out


def sample_subordinator(spec: SubordinatorSpec, t: float, n: int, seed: int) -> np.ndarray:
    """``n`` exact-in-law samples of ``S(t)``; always ``>= b_S t``."""
    _check_clock(t, n)
    return _clock_values(spec, float(t), n, seed, lambda s: s)


# ---------------------------------------------------------------------------
# Rate transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubordinatedRate:
    """Monte Carlo estimate of ``r_psi(t)`` with a 95% confidence interval.

    ``se`` is the standard error of the underlying ``p``-th moment mean (zero
    for deterministic clocks); the interval is transformed through the
    ``p``-th root.
    """

    value: float
    ci_lo: float
    ci_hi: float
    se: float
    n_mc: int


def subordinate_rate(
    r: RateFunction, p: float, spec: SubordinatorSpec, t: float, n_mc: int, seed: int
) -> SubordinatedRate:
    """Estimate ``r_psi(t) = (E[r(S(t))^p])^{1/p}`` by Monte Carlo.

    The clock's draws are those of :func:`sample_subordinator` with the same
    seed, bit for bit: each chunk of them is drawn from its own stream where
    it is used and taken to ``r(S(t))^p`` on two threads (see
    :func:`_clock_values`), and the moments are then taken in place, so one
    estimate holds about 8 B a sample.  Raises NumericalError when a clock
    sample is NaN, as a stable clock of very small ``alpha`` gives when both
    factors of its transform leave the float range.
    """
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if n_mc < 2:
        raise DomainError("need at least two Monte Carlo samples")
    _check_clock(t, n_mc)
    t = float(t)
    vals = _clock_values(spec, t, n_mc, seed, lambda s: r.value(s) ** p)
    mean = float(np.mean(vals))
    if math.isnan(mean):  # the values are >= 0, so only a NaN sample makes it NaN
        raise NumericalError(
            f"{int(np.count_nonzero(np.isnan(vals)))} of {n_mc} samples of the "
            f"{spec.kind} clock at t = {t:g} are NaN: its draws left the float range"
        )
    se = _sd_in_place(vals, mean) / math.sqrt(n_mc)
    lo = max(mean - 1.96 * se, 0.0)
    hi = mean + 1.96 * se
    return SubordinatedRate(
        value=mean ** (1.0 / p),
        ci_lo=lo ** (1.0 / p),
        ci_hi=hi ** (1.0 / p),
        se=se,
        n_mc=n_mc,
    )


def _sd_in_place(x: np.ndarray, mean: float) -> float:
    """``np.std(x, ddof=1)`` of a 1-D float ``x`` of mean ``mean``, or 0 where
    ``x`` is constant; taken by ``np.std``'s own steps, and so with its bits,
    over ``x`` in place instead of a copy of it."""
    if np.ptp(x) == 0.0:
        return 0.0
    x -= mean
    np.square(x, out=x)
    return math.sqrt(float(np.sum(x)) / (x.size - 1))
