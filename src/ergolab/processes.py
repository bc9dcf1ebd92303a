"""Simulatable Markov process families and their exact reference objects.

The module couples two layers:

* specification types — immutable descriptions of a driving Lévy process
  (:class:`LevyMeasureSpec`: drift, Gaussian part, jump measure kind) and of a
  process (:class:`LangevinTempered`, :class:`OUJump`, :class:`PiecewiseOU`,
  :class:`BackwardRecurrence`), each a :class:`ProcessSpec` that states the
  facts its callers need (``BackwardRecurrence`` also its invariant masses
  and tails in closed form) and refuses, when it is built, a part sized for
  another dimension;
* numerics — :func:`simulate` (one block loop over the family's
  ``walker``: Euler–Maruyama with exact-in-law noise increments per step,
  stable increments by Chambers–Mallows–Stuck; exact recursion for the
  discrete-time chain), :func:`step_plan` (the steps a path takes, which
  the walkers follow and the config budgets), :func:`invariant_exact` (the
  chain's closed-form law tabulated), :func:`ou_exact_transition` (Gaussian
  marginal of a linear SDE) and :func:`langevin_coeffs`.

Conventions
-----------
* A ``SymmetricStable(alpha, scale)`` measure has Lévy density
  ``scale^alpha * c_alpha |y|^{-1-alpha}`` with ``c_alpha`` normalized so the
  characteristic exponent is ``|scale * u|^alpha``; step increments over ``dt``
  are then exactly ``dt^{1/alpha} * scale * S`` with ``S`` standard stable.
* Jumps enter uncompensated: a compound-Poisson step adds the raw jumps and
  a subordinator step its raw positive increment, so ``b_L`` is the drift the
  paths follow (the generator :mod:`ergolab.lyapunov` certifies is this one).
* ``simulate`` is deterministic given (spec, seed, grid, n_paths): paths are
  sharded into fixed-size blocks, each driven by its own counter-based
  substream keyed on (master seed, block index).  A walk's draws read no
  state, so one worker thread per block makes them, in the order a walk
  that drew as it went would, a few steps ahead of the arithmetic, which
  (with every drift, ``sigma`` and user callable) stays on the calling
  thread.
* ``x0`` is one start ``(dim,)`` or a stack of starts ``(k, dim)``, and a walk
  moves the stack as one ``(k, m, dim)`` state.  Every draw is made once per
  path, as ``(m, dim)`` (``(m,)`` for the chain's raw words), and applied to
  all ``k`` starts, so the stack is a synchronous coupling.  A row of the state
  is computed alone (matrix products are summed left to right over the
  columns, not by BLAS), so each start's paths are bit for bit those of a
  one-start :func:`simulate` with the same seed.
* A discrete-time family's walk holds whatever state suits it
  (``BackwardRecurrence``: an integer index into a table of thresholds,
  which each step's raw 64-bit draw is tested against) and
  hands back float states only at the grid's step counts.
* ``OUJump`` integrates the linear drift and the Gaussian part exactly per
  step (the marginal law of the continuous part is exact on the grid); jump
  increments are added at step ends like for every other continuous kind.
* User-supplied coefficient callables must be batch-aware: they receive an
  ``(m, n)`` array of states (a stack's rows as one batch) and return
  ``(m, n)`` (drift), or ``(m, n, n)`` or ``(m, n)`` diagonals (diffusion,
  also a constant matrix; see :func:`sigma_at`).  One that computes each row
  alone keeps a stacked start's paths equal to its one-start run.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, Literal, Union

import numpy as np
from scipy.linalg import expm

from .errors import BlowUpError, ConfigError, DomainError

__all__ = [
    "NoJumps",
    "DiscreteJumps",
    "CompoundPoisson",
    "SymmetricStable",
    "StableSubordinatorMeasure",
    "LevyMeasureSpec",
    "LangevinTempered",
    "OUJump",
    "PiecewiseOU",
    "BackwardRecurrence",
    "ProcessSpec",
    "TrajectoryBatch",
    "simulate",
    "step_plan",
    "standard_one_sided_stable",
    "invariant_exact",
    "ou_exact_transition",
    "langevin_coeffs",
    "sigma_at",
]

_BLOWUP_GUARD = 1e12
# Tail mass a tabulated chain law may leave out (see :func:`invariant_exact`).
TABLE_TAIL = 1e-12
_BLOCK_SIZE = 16384
# A walk's draws are made on a worker thread at most this many substeps (the
# chain: chunks of at most _CHUNK_VALUES raw words) ahead of its arithmetic.
_DRAW_DEPTH = 2
_CHUNK_VALUES = 2**15
# An elementwise pass over more values than _PASS_CHUNK (a clock's Monte
# Carlo) runs in chunks of that many, on the calling thread and
# _PASS_HELPERS helper threads (see _in_chunks).
_PASS_CHUNK = 2**15
_PASS_HELPERS = 1


# ---------------------------------------------------------------------------
# Lévy measure specifications
# ---------------------------------------------------------------------------
#
# Every jump kind answers ``increment(dim, dt, rng, m)``, the exact-in-law
# jump increments of ``m`` paths over one step of length ``dt`` as ``(rows,
# jumps)``: ``jumps`` ``(len, dim)`` are the increments of the paths ``rows``
# picks (a slice or an index array without repeats), and every other path's
# increment is 0, so a walk adds ``jumps`` to ``x[..., rows, :]`` alone.  A
# kind also states ``dim``, the dimension its jumps live in, or None when
# they fit any.


@dataclass(frozen=True)
class NoJumps:
    """Empty jump measure."""

    dim: ClassVar[None] = None

    def increment(self, dim: int, dt: float, rng, m: int):
        return slice(0, 0), np.empty((0, dim))


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

    def sample(self, rng, size: int) -> np.ndarray:
        picks = rng.choice(self.atoms.shape[0], size=size, p=self.probs)
        return self.atoms[picks]


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson jump part: rate * jump distribution."""

    rate: float
    jump_dist: DiscreteJumps

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ConfigError(f"rate must be positive, got {self.rate}")

    @property
    def dim(self) -> int:
        return self.jump_dist.dim

    def increment(self, dim: int, dt: float, rng, m: int):
        """Only the paths that jump: their rows, and each one's jumps summed
        from 0 in the order they were drawn."""
        counts = rng.poisson(self.rate * dt, m)
        rows = np.flatnonzero(counts > 0)  # nonzero of a bool mask: 4x faster than of int64
        inc = np.zeros((rows.size, dim))
        if rows.size:
            counts = counts[rows]
            jumps = self.jump_dist.sample(rng, int(counts.sum()))
            np.add.at(inc, np.repeat(np.arange(rows.size), counts), jumps)
        return rows, inc


@dataclass(frozen=True)
class SymmetricStable:
    """Symmetric alpha-stable jump part, isotropic or per-coordinate."""

    alpha: float
    scale: float = 1.0
    structure: Literal["isotropic", "independent"] = "isotropic"
    dim: ClassVar[None] = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ConfigError(f"alpha must lie in (0,2), got {self.alpha}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.structure not in ("isotropic", "independent"):
            raise ConfigError(f"unknown structure {self.structure!r}")

    def increment(self, dim: int, dt: float, rng, m: int):
        amp = dt ** (1.0 / self.alpha) * self.scale
        if dim == 1 or self.structure == "independent":
            return slice(None), amp * _cms(self.alpha, 0.0, rng, (m, dim))
        # isotropic: Gaussian subordinated by a one-sided (alpha/2)-stable factor
        lam = standard_one_sided_stable(self.alpha / 2.0, rng, (m, 1))
        z = rng.standard_normal((m, dim))
        return slice(None), amp * np.sqrt(2.0 * lam) * z


@dataclass(frozen=True)
class StableSubordinatorMeasure:
    """One-sided alpha-stable jump measure (increments positive), alpha in (0,1)."""

    alpha: float
    dim: ClassVar[int] = 1

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0,1), got {self.alpha}")

    def increment(self, dim: int, dt: float, rng, m: int):
        amp = dt ** (1.0 / self.alpha)
        return slice(None), amp * standard_one_sided_stable(self.alpha, rng, (m, 1))


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

    def check_dim(self, dim: int) -> None:
        """Refuse a part sized for another dimension than the process's ``dim``."""
        if self.b_L is not None and self.b_L.shape != (dim,):
            raise ConfigError(
                f"levy.b_L has {self.b_L.size} entries but the process has dimension {dim}"
            )
        if self.a_L is not None and self.a_L.shape != (dim, dim):
            raise ConfigError(
                f"levy.a_L has shape {self.a_L.shape} but the process has dimension {dim}"
            )
        if self.kind.dim not in (None, dim):
            raise ConfigError(
                f"levy.jumps are {self.kind.dim}-dimensional but the process has dimension {dim}"
            )


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


class ProcessSpec:
    """Facts every process family gives its callers, so none checks its type.

    ``dim``; ``check_start(x0)``, which refuses a start state the process
    cannot take; ``discrete_time`` (True: integer times); ``walker(x0,
    times, max_step)``, which takes a stack of starts ``x0`` ``(k, dim)`` and
    returns ``walk(m, rng)``, a generator of the ``(k, m, dim)`` states of
    ``m`` paths from each start at each grid time, every start driven by the
    same draws (the first grid time carries ``x0`` in continuous time; in
    discrete time the times count steps from 0; a yielded state holds until
    the next is asked for); for continuous time
    ``levy``, a batched
    ``drift(x)`` and ``sigma`` (None, a constant matrix or a batched
    callable), and :meth:`coeffs`, the form of the two that both
    :meth:`advance`'s substep and :func:`ergolab.lyapunov.generator_apply`'s
    generator evaluate, so the generator a drift check certifies is built
    from the functions the walk steps; and
    ``exact_invariant()``: ``"chain"`` (see :func:`invariant_exact`),
    ``"gaussian"`` (centred, ``invariant_sd()``) or None; and ``tail(s)``,
    the invariant tail ``pi(X > s)`` in closed form at every real level, or
    None where none is known.  A family refuses,
    when it is built, a part sized for another dimension, the Lévy part
    through :meth:`LevyMeasureSpec.check_dim`.
    """

    discrete_time: ClassVar[bool] = False
    tail = None

    def check_start(self, x0) -> None:
        if np.size(x0) != self.dim:
            raise ConfigError(
                f"x0 has {np.size(x0)} coordinates but the process has dimension {self.dim}"
            )

    def exact_invariant(self) -> str | None:
        return None

    def walker(self, x0, times, max_step):
        """Continuous time: the :func:`step_plan`'s equal substeps per grid
        interval, each the continuous part's :meth:`advance` plus the jump
        increment, added to the paths that jump only, with the blow-up
        guard after every substep.  A substep's
        draws (its :meth:`advance` noise, then the jump increment, which
        reads no state) are made on one worker thread, ahead of the
        arithmetic (see :func:`_drawn_ahead`); the state is updated in place,
        so a yielded state holds until the next is asked for."""
        counts = step_plan(self, times, max_step)[1:]
        plans = [(int(n_sub), span / n_sub) for n_sub, span in zip(counts, np.diff(times))]
        draw, stepper = self.advance({dt for _, dt in plans})
        jumps, dim = self.levy.kind, self.dim

        def draws(m, rng):
            for n_sub, dt in plans:
                for _ in range(n_sub):
                    yield draw(dt, rng, m), jumps.increment(dim, dt, rng, m)

        def walk(m, rng):
            x = np.repeat(x0[:, None, :], m, axis=1)
            yield x
            step = stepper(x.shape)
            drawn = _drawn_ahead(draws(m, rng))
            try:
                for n_sub, dt in plans:
                    for _ in range(n_sub):
                        noise, (rows, jumps) = next(drawn)
                        step(x, dt, noise)
                        x[:, rows] += jumps
                        _check_blowup(x)
                    yield x
            finally:
                drawn.close()

        return walk

    def advance(self, dts):
        """``(draw, stepper)`` for one substep of the continuous part.
        ``draw(dt, rng, m)`` makes the substep's noise without reading the
        state: the Brownian draw and the Gaussian Lévy part's, each ``(m,
        dim)`` or None.  ``stepper(shape)`` gives ``step(x, dt, noise)``,
        which moves a ``(k, m, dim)`` state ``x`` in place by
        Euler–Maruyama in the drift, ``sigma`` and the Gaussian Lévy part,
        each draw shared by the ``k`` starts, through work buffers made once
        for that shape."""
        sigma, levy, dim = self.sigma, self.levy, self.dim
        sqrt_al = None
        if levy.a_L is not None and np.any(levy.a_L):
            sqrt_al = _psd_sqrt_matrix(levy.a_L)

        def draw(dt, rng, m):
            z = None if sigma is None else rng.standard_normal((m, dim))
            z2 = None if sqrt_al is None else rng.standard_normal((m, dim))
            return z, z2

        def stepper(shape):
            drift, walk_sigma = self.coeffs(shape[0] * shape[1])
            inc_rows = np.empty((shape[0] * shape[1], dim))
            term_buf = np.empty(shape[1:])

            def step(x, dt, noise):
                z, z2 = noise
                inc = np.multiply(drift(x.reshape(-1, dim)), dt, out=inc_rows).reshape(shape)
                if levy.b_L is not None:
                    inc += levy.b_L * dt
                if z is not None:
                    term = _sigma_apply(walk_sigma, x, z, term_buf)
                    term *= math.sqrt(dt)
                    inc += term
                if z2 is not None:
                    term = np.matmul(z2, sqrt_al.T, out=term_buf)
                    term *= math.sqrt(dt)
                    inc += term
                x += inc

            return step

        return draw, stepper

    def coeffs(self, rows):
        """``(drift, sigma)`` for ``(rows, dim)`` states, as a walk's substep
        and the generator use them: each calls ``drift`` and then a callable
        ``sigma`` at the same state.  A family may rely on that order: it
        may hand back a drift that reuses one buffer, which holds until the
        next call, or a ``sigma`` that returns what the drift call computed
        with it."""
        return self.drift, self.sigma


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

    def coeffs(self, rows):
        """One :func:`langevin_coeffs` call for both: ``sigma`` returns the
        diffusion that the drift call computed at the same state."""
        held = {}

        def drift(x):
            b, held["sigma"] = langevin_coeffs(self, x)
            return b

        return drift, lambda x: held["sigma"]


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
        self.levy.check_dim(h.shape[0])
        h.flags.writeable = False
        object.__setattr__(self, "H", h)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def drift(self, x):
        return _rows_times(self.H, x)

    def advance(self, dts):
        """Exact integration of the linear drift and the Gaussian part per
        substep: ``draw`` makes the Gaussian part's ``(m, dim)`` draw (None
        without ``a_L``), and ``step`` moves the state in place, as in
        :meth:`ProcessSpec.advance`."""
        terms = {dt: _ou_step_terms(self, dt) for dt in dts}
        noisy = self.levy.a_L is not None and np.any(self.levy.a_L)

        def draw(dt, rng, m):
            return rng.standard_normal((m, self.dim)) if noisy else None

        def step(x, dt, z):
            prop, drift_term, noise_sqrt = terms[dt]
            np.add(_rows_times(prop, x), drift_term, out=x)
            if z is not None:
                x += z @ noise_sqrt.T

        return draw, lambda shape: step

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
    """Piecewise linear drift ``l - M(x - <e,x>^+ v) - <e,x>^+ Gamma v`` plus noise,
    under the constant control ``v``, an allocation on the probability simplex."""

    l: np.ndarray
    M: np.ndarray
    Gamma: np.ndarray
    v: np.ndarray
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
        v = np.array(self.v, dtype=float).ravel()
        if v.shape != (n,):
            raise ConfigError(f"v has {v.size} entries but the process has dimension {n}")
        if not (np.all(v >= 0) and abs(v.sum() - 1.0) <= 1e-12):  # NaN fails too
            raise ConfigError("control vector v must lie on the probability simplex")
        sigma = self.sigma
        if sigma is not None and not callable(sigma):
            sigma = np.atleast_2d(np.array(sigma, dtype=float))
            if sigma.shape != (n, n):
                raise ConfigError(
                    f"sigma has shape {sigma.shape} but the process has dimension {n}"
                )
            sigma.flags.writeable = False
        self.levy.check_dim(n)
        for name, val in (("l", l), ("M", m), ("Gamma", g), ("v", v)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_g_v", _rows_times(g, v))

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    def drift(self, x):
        """The drift at one state ``(n,)`` or a batch ``(..., n)``.  Formed
        column by column, each sum left to right, so a state's drift is the
        same bits in any batch and no ``(m, 1) x (n,)`` broadcast is made."""
        x = np.asarray(x, dtype=float)
        work = np.empty((self.dim + 2,) + x.shape[:-1])
        return _piecewise_ou_drift_into(self.l, self.M, self._g_v, self.v, x, work,
                                        np.empty(x.shape))

    def coeffs(self, rows):
        """The drift written into buffers made once per walk (or generator)."""
        work = np.empty((self.dim + 2, rows))
        out = np.empty((rows, self.dim))
        drift = functools.partial(_piecewise_ou_drift_into, self.l, self.M, self._g_v, self.v,
                                  work=work, out=out)
        return drift, self.sigma


# B_2k / (2k (2k - 1)), k = 1..7: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _gamma_ratio(x, m: float) -> np.ndarray:
    """``Gamma(x + m) / Gamma(x)`` for ``x > 0`` and ``m >= 0``, to about 1e-15.

    scipy's ``poch`` takes a difference of ``gammaln`` values below
    ``x = 1e4`` and loses up to 3e-11 there for a fractional ``m``.  Here
    ``x`` is raised to 10 or more by ``Gamma(x + 1) = x Gamma(x)``, and the
    ratio is ``(x + m)^m`` times the exponential of what is left of the two
    Stirling series, ``(x - 1/2) log1p(m/x) - m + sum_k c_k ((x + m)^{1-2k}
    - x^{1-2k})``, which is small, so nothing cancels.
    """
    x = np.asarray(x, dtype=float)
    factor = np.ones_like(x)
    for _ in range(10):
        low = x < 10.0
        factor = np.where(low, factor * x / (x + m), factor)
        x = np.where(low, x + 1.0, x)
    y = x + m
    rest = (x - 0.5) * np.log1p(m / x) - m
    for k, c in enumerate(_STIRLING, start=1):
        rest += c * (y ** (1 - 2 * k) - x ** (1 - 2 * k))
    return factor * y**m * np.exp(rest)


@dataclass(frozen=True)
class BackwardRecurrence(ProcessSpec):
    """Chain on the nonnegative integers: up with probability ``p_i``, else reset to 0.

    ``p_0 = 1``; ``p_i = 1/2`` for ``1 <= i < i0``; ``p_i = 1 - (1+alpha)/i``
    for ``i >= i0`` (reset probability ``(1+alpha)/i``), which produces the
    polynomial invariant tail ``pi(i) ~ C i^{-(1+alpha)}``.

    The invariant law is in closed form.  ``pi(k)`` is ``u_k / Z`` with
    ``u_0 = 1`` and ``u_k = prod_{j<k} p_j``: ``2^{-(k-1)}`` for
    ``1 <= k <= i0``, and beyond ``i0`` the product telescopes,
    ``u_k = 2^{-(i0-1)} Gamma(i0) Gamma(k-1-alpha) / (Gamma(i0-1-alpha) Gamma(k))``,
    as does its tail, ``sum_{k>=n} u_k = 2^{-(i0-1)} Gamma(i0) Gamma(n-1-alpha)
    / (Gamma(i0-1-alpha) alpha Gamma(n-1))`` for ``n >= i0``.  Each Gamma
    ratio is one :func:`_gamma_ratio`.
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

    def mass(self, k) -> np.ndarray:
        """``pi(k)`` at the integer states ``k``."""
        k = np.asarray(k, dtype=float)
        far = np.maximum(k, self.i0) - 1.0 - self.alpha
        u = np.where(
            k <= self.i0,
            2.0 ** (1.0 - np.maximum(k, 1.0)),
            self._scale() / _gamma_ratio(far, 1.0 + self.alpha),
        )
        return u / self._upper(0.0)

    def tail(self, s) -> np.ndarray:
        """``pi(X > s)`` at every real level ``s``."""
        return self._upper(np.floor(s) + 1.0) / self._upper(0.0)

    def table_truncation(self) -> int:
        """The last state of the reference table: the first ``1024 * 2^k``
        whose tail is at most ``TABLE_TAIL``.  The tail falls like
        ``s^{-alpha}`` with ``alpha > 1``, so the doubling ends."""
        n = 1024
        while self.tail(n) > TABLE_TAIL:
            n *= 2
        return n

    def _scale(self) -> float:
        # u_k Gamma(k) / Gamma(k-1-alpha) for k >= i0
        return 2.0 ** (1 - self.i0) * _gamma_ratio(self.i0 - 1.0 - self.alpha, 1.0 + self.alpha)

    def _upper(self, n) -> np.ndarray:
        """``sum_{k>=n} u_k`` at integer ``n``: the closed-form sum from
        ``max(n, i0)`` on, the geometric states ``max(n, 1) .. i0-1`` and
        ``u_0``."""
        n = np.asarray(n, dtype=float)
        far = self._scale() / (
            self.alpha * _gamma_ratio(np.maximum(n, self.i0) - 1.0 - self.alpha, self.alpha)
        )
        head = 2.0 ** (2.0 - np.clip(n, 1.0, self.i0)) - 2.0 ** (2 - self.i0)
        return far + head + (n <= 0)

    def check_start(self, x0) -> None:
        super().check_start(x0)
        x = float(np.ravel(x0)[0])
        if not (0.0 <= x <= 2.0**53 and x == math.floor(x)):
            raise ConfigError(f"the chain starts at a nonnegative integer state, got x0 = {x!r}")

    def walker(self, x0, times, max_step):
        """Integer walk over a table of up-thresholds, ``n`` the horizon:
        index ``i <= n`` is state ``i`` (reached after a reset), and index
        ``(j + 1)(n + 1) + i`` is state ``x0[j] + i`` (start ``j``, no reset
        yet).  One raw 64-bit Philox word ``r`` per path and step, shared by
        all starts, drawn on one worker thread ahead of the walk (see
        :func:`_drawn_ahead`); the path goes up when ``r <= table[k]``.
        numpy's uniform is ``u = (r >> 11) 2^-53``, and ``u < p`` exactly
        when ``r <= ceil(p 2^53) 2^11 - 1``, the table's entry (see
        :func:`_up_thresholds`), so the paths are those of a walk that
        draws ``rng.random`` and tests ``u < p``.  The table is built one
        start's stretch at a time, so no float table of its size is made."""
        counts = [int(c) for c in step_plan(self, times, max_step)]
        n = sum(counts)
        starts = x0[:, 0].astype(np.int64)
        base = (n + 1) * np.arange(1, starts.size + 1)
        table = np.empty((starts.size + 1, n + 1), dtype=np.uint64)
        for row, start in zip(table, itertools.chain([0], starts)):
            row[:] = _up_thresholds(self.up_prob(np.arange(start, start + n + 1.0)))
        table = table.ravel()
        shift = (starts - base)[:, None]

        def draws(m, rng):
            # the n words of each path, drawn in chunks of whole steps: a
            # (rows, m) draw is the stream of rows (m,) draws
            rows = max(1, _CHUNK_VALUES // m)
            for done in range(0, n, rows):
                yield rng.bit_generator.random_raw((min(rows, n - done), m))

        def walk(m, rng):
            k = np.repeat(base[:, None], m, axis=1)
            chunks = _drawn_ahead(draws(m, rng))
            words = itertools.chain.from_iterable(chunks)
            try:
                for count in counts:
                    for r in itertools.islice(words, count):
                        up = r <= table[k]
                        k += 1
                        k *= up
                    yield np.where(k > n, k + shift, k)[..., None]
            finally:
                chunks.close()

        return walk

    def exact_invariant(self) -> str | None:
        return "chain"


def _up_thresholds(p: np.ndarray) -> np.ndarray:
    """``ceil(p 2^53) 2^11 - 1`` as ``uint64``, for up-probabilities ``p`` in
    ``(0, 1]``: the largest raw Philox word whose uniform ``(r >> 11)
    2^-53`` is below ``p`` (``2^64 - 1`` at ``p = 1``, always up).  Scaling
    by ``2^53`` and taking ``ceil`` are exact, and ``p > 0`` keeps the
    ceiling at least 1, so the shift does not wrap."""
    words = np.ceil(np.ldexp(p, 53)).astype(np.uint64)
    words -= np.uint64(1)
    words <<= np.uint64(11)
    words |= np.uint64(2**11 - 1)
    return words


# ---------------------------------------------------------------------------
# Stable sampling (Chambers–Mallows–Stuck)
# ---------------------------------------------------------------------------


def _cms_draws(rng: np.random.Generator, size):
    """The draws of :func:`_cms`, in stream order: every uniform angle,
    then every standard exponential."""
    return rng.uniform(-math.pi / 2.0, math.pi / 2.0, size), rng.exponential(1.0, size)


def _cms_transform(alpha: float, skew: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The CMS map of the angles ``u`` and exponentials ``w``, elementwise."""
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


def _one_sided_transform(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`standard_one_sided_stable` of the draws :func:`_cms_draws` made."""
    return math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha) * _cms_transform(alpha, 1.0, u, w)


def _cms(alpha: float, skew: float, rng: np.random.Generator, size) -> np.ndarray:
    return _cms_transform(alpha, skew, *_cms_draws(rng, size))


def standard_one_sided_stable(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """One-sided stable with Laplace transform ``E[exp(-u S)] = exp(-u^alpha)``.

    The raw CMS draw with ``skew = 1`` has Laplace exponent
    ``u^alpha / cos(pi alpha / 2)``; rescaling by ``cos(pi alpha/2)^{1/alpha}``
    normalizes it away.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    return _one_sided_transform(alpha, *_cms_draws(rng, size))


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
QUANTILE_MAX_POINTS = 10_000_000  # experiment exact-invariant reference atoms
# subordinate n_mc, clock samples per time; one estimate peaks near 24 B a
# sample (stable clock; 16 B gamma or drift only), about 240 MB at the budget
CLOCK_MAX_SAMPLES = 10_000_000
DRIFT_MAX_NODES = 50_000_000  # driftcheck grid points x (1 + jump nodes per point)
JUMP_MC_MAX_VALUES = 4_000_000  # driftcheck jump_mc_samples x dimension^2, one point's batch
# Work budgets of one simulation, from its step_plan: a config over one is
# refused the same way.  Five times criterion 5's 10^5 paths x 10^4 steps.
PATH_MAX_STEPS = 5_000_000_000  # paths x steps
STEP_TABLE_MAX_VALUES = 20_000_000  # a discrete horizon n's step table, (starts + 1)(n + 1) words


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


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=[int(seed), int(block)]))
    )


def _drawn_ahead(draws):
    """Yield the items of the generator ``draws``, none of them None, run on
    one worker thread up to ``_DRAW_DEPTH`` items ahead of the caller.

    A walk's draws read no state, so its worker makes them while the caller
    does the arithmetic that uses them; only the worker touches the block's
    ``Generator``, and the draws come out in the order they were made, so
    the paths are those of a walk that draws as it goes.  When this
    generator ends, is closed or raises, the worker stops and is joined;
    an exception raised on the worker is raised here.
    """
    worker = ThreadPoolExecutor(1, thread_name_prefix="ergolab-draws")
    try:
        # one worker runs the calls in the order they were submitted
        pending = deque(worker.submit(next, draws, None) for _ in range(_DRAW_DEPTH))
        while (item := pending.popleft().result()) is not None:
            pending.append(worker.submit(next, draws, None))
            yield item
    finally:
        worker.shutdown(cancel_futures=True)


def _in_chunks(n: int, fill) -> None:
    """Call ``fill(lo, hi)`` once for each chunk ``[lo, hi)`` of ``range(n)``,
    ``_PASS_CHUNK`` long but the last.

    ``n`` up to one chunk runs inline, with no thread.  A longer range is
    shared by the calling thread and ``_PASS_HELPERS`` helper threads, each
    taking the next chunk when it is done with one; numpy lets go of the
    GIL in its elementwise loops, so the chunks are computed side by side.
    A ``fill`` that writes only its chunk's slice, from values computed
    elementwise, gives the same bits whoever runs it; every chunk runs
    under the caller's numpy error handling.  When this returns
    or raises, every helper has stopped and been joined; an exception
    raised in a helper's chunk is raised here, and no chunk is begun after
    one has raised.
    """
    if n <= _PASS_CHUNK:
        fill(0, n)
        return
    failed = []
    errors = np.geterr()  # a new thread starts from numpy's default error handling

    def run(lo):
        if failed:
            return
        try:
            with np.errstate(**errors):
                fill(lo, min(lo + _PASS_CHUNK, n))
        except BaseException:
            failed.append(lo)
            raise

    helpers = ThreadPoolExecutor(_PASS_HELPERS, thread_name_prefix="ergolab-pass")
    try:
        chunks = {lo: helpers.submit(run, lo) for lo in range(0, n, _PASS_CHUNK)}
        # a chunk can be cancelled only before a helper begins it, so whoever
        # cancels it runs it
        for lo, chunk in chunks.items():
            if chunk.cancel():
                run(lo)
    finally:
        helpers.shutdown(cancel_futures=True)
    for chunk in chunks.values():
        if not chunk.cancelled():
            chunk.result()


def _psd_sqrt_matrix(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _sigma_apply(sigma, x: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sigma(x) @ z`` per path of a ``(k, m, n)`` state, for a constant
    ``sigma`` (written into ``out``, ``z.shape``) or a batched callable;
    ``z`` ``(m, n)`` is shared by the ``k`` starts."""
    if callable(sigma):
        mat = np.asarray(sigma(x.reshape(-1, x.shape[-1])), dtype=float)
        mat = mat.reshape(x.shape[:-1] + mat.shape[1:])
        if mat.ndim == x.ndim:  # diagonal-free shorthand: per-path scalar rows
            return mat * z
        return np.einsum("...ij,...j->...i", mat, z)
    return np.matmul(z, np.asarray(sigma, dtype=float).T, out=out)


def _rows_times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x @ a.T`` for rows ``x`` ``(..., n)`` and a matrix ``a``, each entry
    summed left to right over the columns: a row's value never depends on
    the rows beside it, as a BLAS product's can."""
    cols = [x[..., j] for j in range(x.shape[-1])]
    out = np.empty(x.shape[:-1] + a.shape[:1])
    tmp = np.empty(x.shape[:-1])
    for i, row in enumerate(a):
        _row_sum_into(row, cols, out[..., i], tmp)
    return out


def _row_sum_into(row, cols, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out = row[0] cols[0] + row[1] cols[1] + ...``, summed left to right
    in place (``tmp`` is scratch), so no temporary column is allocated."""
    np.multiply(row[0], cols[0], out=out)
    for a_j, col in zip(row[1:], cols[1:]):
        out += np.multiply(a_j, col, out=tmp)
    return out


def sigma_at(sigma, x) -> np.ndarray:
    """A spec's ``sigma`` at each row of ``x`` ``(m, n)`` as ``(m, n, n)``
    matrices: a constant matrix repeated, or a batched callable's ``(m, n, n)``
    matrices or ``(m, n)`` diagonals."""
    if not callable(sigma):
        mat = np.asarray(sigma, dtype=float)
        return np.broadcast_to(mat, (x.shape[0],) + mat.shape)
    out = np.asarray(sigma(x), dtype=float)
    if out.ndim == 3:
        return out
    diag = np.zeros(out.shape + out.shape[-1:])
    axis = np.arange(out.shape[1])
    diag[:, axis, axis] = out
    return diag


def _check_blowup(x: np.ndarray) -> None:
    worst = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not math.isfinite(worst) or worst > _BLOWUP_GUARD:
        raise BlowUpError(f"state magnitude {worst:.3e} exceeded the overflow guard 1e12")


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


def step_plan(spec: ProcessSpec, times, max_step) -> np.ndarray:
    """The steps a path of ``spec`` takes to each grid time from the one
    before, as whole-number floats.  Discrete time: the grid times count the
    steps from 0, and times that are not nonnegative integers are refused.
    Continuous time: ``ceil(span / max_step)`` equal substeps per interval,
    and 0 to the first grid time, which carries ``x0``.  The walkers follow
    this plan, and a config whose paths times its sum is above a budget is
    refused, both when the config is read."""
    times = np.asarray(times, dtype=float)
    if spec.discrete_time:
        if np.any(times != np.floor(times)) or np.any(times < 0):
            raise ConfigError("discrete-time specs require nonnegative integer grid times")
        return np.diff(times, prepend=0.0)
    if not max_step > 0:
        raise ConfigError("max_step must be positive")
    substeps = np.maximum(1.0, np.ceil(np.diff(times) / max_step - 1e-12))
    return np.concatenate(([0.0], substeps))


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
    is an exact recursion on integer times. The first grid point carries the
    initial condition, which ``spec.check_start`` vets.

    ``x0`` is one start, which gives one :class:`TrajectoryBatch`, or a
    stack of starts ``(k, dim)``, which gives a tuple of ``k`` batches
    walked as one block: one noise stream drives every start, path by path,
    and each batch is bit for bit the one-start call's.

    Each block's draws are made on one worker thread, a few steps ahead of
    the arithmetic that uses them and in the same order, so the paths are
    those of a walk that draws as it goes.  The worker is joined before
    the block's walk returns or raises (:class:`BlowUpError` included),
    and an error raised while drawing reaches the caller with its own type.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
        raise ConfigError("t_grid must be a strictly increasing 1-D grid")
    if n_paths < 1:
        raise ConfigError("n_paths must be positive")
    stacked = np.ndim(x0) == 2
    starts = list(x0) if stacked else [x0]
    for start in starts:
        spec.check_start(start)
    starts = np.stack([np.asarray(start, dtype=float).ravel() for start in starts])
    walk = spec.walker(starts, t, max_step)
    paths = np.empty((len(starts), n_paths, t.size, spec.dim))
    for block, lo in enumerate(range(0, n_paths, _BLOCK_SIZE)):
        hi = min(lo + _BLOCK_SIZE, n_paths)
        for k, x in enumerate(walk(hi - lo, _block_rng(seed, block))):
            paths[:, lo:hi, k] = x
    batches = tuple(TrajectoryBatch(times=t, paths=p) for p in paths)
    return batches if stacked else batches[0]


# ---------------------------------------------------------------------------
# Exact objects
# ---------------------------------------------------------------------------


def invariant_exact(spec: BackwardRecurrence, truncation: int):
    """The chain's invariant law tabulated on {0, ..., truncation}, renormalized.

    Raises :class:`ConfigError` when the tail ``pi(X > truncation)`` left out
    exceeds ``TABLE_TAIL``.
    """
    from .wasserstein import EmpiricalMeasure

    if truncation < 2:
        raise ConfigError("truncation must be at least 2")
    tail = spec.tail(truncation)
    if tail > TABLE_TAIL:
        raise ConfigError(f"truncation {truncation} leaves tail mass ~{tail:.2e} > {TABLE_TAIL}")
    points = np.arange(truncation + 1, dtype=float)[:, None]
    masses = spec.mass(points[:, 0])
    masses /= masses.sum()
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


def _piecewise_ou_drift_into(l, m, g_v, v, x, work, out) -> np.ndarray:
    """:meth:`PiecewiseOU.drift` of ``x`` ``(..., n)`` written into ``out``,
    with ``g_v = Gamma v`` and ``work`` ``(n + 2,) + x.shape[:-1]`` as
    scratch: ``<e,x>^+``, a spare column and the shifted columns."""
    n = x.shape[-1]
    cols = [x[..., j] for j in range(n)]
    s, tmp = work[0, ...], work[1, ...]
    shifted = [work[2 + j, ...] for j in range(n)]
    np.copyto(s, cols[0])
    for col in cols[1:]:
        s += col
    np.clip(s, 0.0, None, out=s)
    for j, col in enumerate(cols):
        np.subtract(col, np.multiply(s, v[j], out=tmp), out=shifted[j])
    for i, row in enumerate(m):
        # out_i = l_i - (m_i0 y_0 + m_i1 y_1 + ...) - s (G v)_i, formed in place
        o = _row_sum_into(row, shifted, out[..., i], tmp)
        np.subtract(l[i], o, out=o)
        o -= np.multiply(s, g_v[i], out=tmp)
    return out


def _langevin_blend(alpha: float, u):
    """The interior radial profile ``q(u)``, ``u = |x|^2``, and ``q'(u) /
    q(u)``: ``q`` is the quadratic matching ``u^{-1/(2 alpha)}`` at ``u = 1``
    to second order, positive for every ``u``."""
    k = 1.0 / (2.0 * alpha)
    kk = k * (k + 1.0)
    q = 1.0 - k * (u - 1.0) + 0.5 * kk * (u - 1.0) ** 2
    return q, (-k + kk * (u - 1.0)) / q


@functools.lru_cache(maxsize=32)
def _langevin_norm_const(spec: LangevinTempered) -> float:
    # imported on first use, so a run without a Langevin constant starts without scipy.integrate
    from scipy.integrate import quad

    n = spec.dim
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    i_ext = omega / (1.0 / spec.alpha - n)
    i_int, _ = quad(
        lambda r: _langevin_blend(spec.alpha, r * r)[0] * r ** (n - 1), 0.0, 1.0, epsrel=1e-12
    )
    return 1.0 / (i_ext + omega * i_int)


def _langevin_pi(spec: LangevinTempered, r2: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The density at squared radii ``r2``, with ``q`` the blend at ``r2``."""
    # clamp before the power: the outer branch is only consulted for r2 >= 1
    outer = np.power(np.maximum(r2, 1.0), -1.0 / (2.0 * spec.alpha))
    return _langevin_norm_const(spec) * np.where(r2 >= 1.0, outer, q)


def langevin_density(spec: LangevinTempered, x) -> np.ndarray:
    """Invariant density: ``c |x|^{-1/alpha}`` outside the unit ball, C2 blend inside."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r2 = np.sum(x * x, axis=1)
    return _langevin_pi(spec, r2, _langevin_blend(spec.alpha, r2)[0])


def langevin_coeffs(spec: LangevinTempered, x):
    """Drift and diffusion of the Langevin spec: ``b = (1-2 beta)/2 * pi^{-2 beta} grad log pi``,
    ``sigma = pi^{-beta} I`` (returned per point as a scalar multiplier array)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    r2 = np.sum(xb * xb, axis=1)
    q, q_ratio = _langevin_blend(spec.alpha, r2)
    pi_vals = _langevin_pi(spec, r2, q)
    # grad log pi: outside -(1/alpha) x/|x|^2; inside 2x q'(u) / q(u)
    outer_factor = -(1.0 / spec.alpha) / np.maximum(r2, 1.0)
    factor = np.where(r2 >= 1.0, outer_factor, 2.0 * q_ratio)
    grad_log = factor[:, None] * xb
    b = 0.5 * (1.0 - 2.0 * spec.beta) * (pi_vals ** (-2.0 * spec.beta))[:, None] * grad_log
    sig = (pi_vals ** (-spec.beta))[:, None] * np.ones_like(xb)
    if single:
        return b[0], sig[0]
    return b, sig
