"""Synchronous-coupling contraction experiments and their certificates.

Two processes started from ``x`` and ``y`` are driven by the *same* noise
realization (identical Brownian increments and identical jump events per
path).  When the coefficients are uniformly dissipative the difference
contracts at an explicit exponential rate, which bounds the Wasserstein
distance between the two time-``t`` laws:

``W_p(delta_x P_t, delta_y P_t) <= (lam_max/lam_min)^{1/2} |x-y| e^{-c(p) t / p}``.

This module provides

* :func:`synchronous_pair_sim` — the shared-noise pair simulation;
* :func:`contraction_estimate` — empirical moment curves of the pair
  difference, with bootstrap confidence bands, a ``fit_rate`` decay fit and
  the analytic envelope comparison (:func:`check_estimate` refuses what it
  cannot estimate from before anything is simulated);
* :func:`prop35_cp` / :func:`find_q` — the closed-form contraction constant
  ``c(p)`` of a :class:`~ergolab.processes.PiecewiseOU` spec, read off its
  ``M``, ``Gamma`` and ``v`` (a spec of another family is refused), and a
  diagonal grid search for a quadratic form that certifies it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, DegenerateDataError, DomainError, InsufficientPathsError, NotDissipativeError
)
from .lyapunov import QuadForm
from .processes import PiecewiseOU, simulate
from .rates import FIT_MIN_POINTS, fit_rate

__all__ = [
    "CoupledBatch",
    "CouplingReport",
    "DissipativityParams",
    "check_estimate",
    "contraction_estimate",
    "find_q",
    "prop35_cp",
    "synchronous_pair_sim",
]


# ---------------------------------------------------------------------------
# Coupled pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoupledBatch:
    """The separations of two paths driven by the same noise, path by path:
    ``table[k, i]`` is ``|X^x_t - X^y_t|`` of path ``i`` at ``t = times[k]``.
    The table is contiguous and read-only, one grid time a row."""

    times: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        table = np.ascontiguousarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] != t.shape[0]:
            raise ConfigError("the separation table must be (n_times, n_paths) matching times")
        t.flags.writeable = False
        table.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "table", table)

    @property
    def n_paths(self) -> int:
        return self.table.shape[1]

    def separations(self) -> np.ndarray:
        """Euclidean distance between the components, shape (n_paths, n_times):
        the transpose of the contiguous table."""
        return self.table.T


def synchronous_pair_sim(
    spec, x, y, t_grid, n_paths: int, seed: int, max_step: float = 0.01
) -> CoupledBatch:
    """Simulate the synchronous coupling started from ``x`` and ``y``.

    One :func:`simulate` call walks the stack of the two starts as one
    ``(2, m, dim)`` state: every per-path draw (Brownian increment, jump
    count and marks, stable draw, chain word) is made once and applied
    to both components.  The call keeps only each path's separation at
    each grid time, never the paths.  Each row of the state is computed
    alone, so each marginal is bit for bit the :func:`simulate` output from
    its own start with the same seed, provided the spec's callables compute
    each row alone, as the built-in families do, and the table is the norm
    of those outputs' difference.
    """
    for start in (x, y):
        spec.check_start(start)
    starts = np.stack([np.asarray(start, dtype=float).ravel() for start in (x, y)])
    table = simulate(spec, starts, t_grid, n_paths, seed, max_step=max_step, separation=True)
    return CoupledBatch(times=t_grid, table=table)


# ---------------------------------------------------------------------------
# Contraction constants (piecewise-linear queueing drifts)
# ---------------------------------------------------------------------------


def _dissipativity_matrices(spec: PiecewiseOU, Q):
    """Symmetric parts of ``MQ + QM`` and ``(M - ev'(M-G))Q + Q(M - (M-G)ve')``;
    a spec of another family, which has no ``M``, ``Gamma`` and ``v``, is
    refused with ConfigError."""
    if not isinstance(spec, PiecewiseOU):
        raise ConfigError("contraction certificates apply to the piecewise_ou family")
    m, g, v = spec.M, spec.Gamma, spec.v
    e = np.ones(spec.dim)
    first = m @ Q + Q @ m
    right = m - (m - g) @ np.outer(v, e)
    left = m - np.outer(e, v) @ (m - g)
    second = left @ Q + Q @ right
    return 0.5 * (first + first.T), 0.5 * (second + second.T)


def prop35_cp(spec: PiecewiseOU, Q: QuadForm, lip_sqrtQ_sigma: float, p: float) -> float:
    """Contraction constant ``c(p)`` for the piecewise-linear drift of ``spec``.

    ``kappa`` is the smallest eigenvalue over the two dissipativity matrices
    (both must be positive definite), and

    ``c(p) = (p/2) (kappa / lam_max(Q) - (p-1) lip^2 / lam_min(Q))``,

    where ``lip`` bounds the Lipschitz constant of ``sqrt(Q) sigma(x)`` in
    Hilbert-Schmidt norm.  The returned value may be nonpositive when the
    diffusion penalty dominates; callers must verify ``c(p) > 0`` before
    using it as a decay rate.
    """
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if lip_sqrtQ_sigma < 0:
        raise DomainError("Lipschitz constant must be nonnegative")
    s1, s2 = _dissipativity_matrices(spec, Q.Q)
    kappa = math.inf
    for name, mat in (("MQ + QM", s1), ("coupled-drift matrix", s2)):
        low = float(np.linalg.eigvalsh(mat)[0])
        if low <= 1e-12:
            raise NotDissipativeError(
                f"{name} is not positive definite (smallest eigenvalue {low:.3e})"
            )
        kappa = min(kappa, low)
    return (p / 2.0) * (
        kappa / Q.lam_max - (p - 1.0) * lip_sqrtQ_sigma**2 / Q.lam_min
    )


# the values find_q tries for each diagonal entry of Q after the first
_DIAGONAL_AXIS = np.logspace(-1.0, 1.0, 9)


def find_q(spec: PiecewiseOU) -> QuadForm:
    """Search diagonal quadratic forms for one certifying the dissipativity
    of ``spec`` (whose ``M`` the spec has already checked is a nonsingular
    M-matrix).

    The objective ``kappa / lam_max(Q)`` is invariant under scaling of ``Q``,
    so the first diagonal entry is pinned to 1 and the remaining entries run
    over the 9-point log grid from 0.1 to 10.  Returns the best valid
    :class:`QuadForm`; raises :class:`NotDissipativeError` when no candidate
    makes both matrices positive definite.
    """
    best_ratio = -math.inf
    best_diag = None
    for tail in itertools.product(_DIAGONAL_AXIS, repeat=spec.dim - 1):
        diag = np.array((1.0,) + tail)
        s1, s2 = _dissipativity_matrices(spec, np.diag(diag))
        kappa = min(float(np.linalg.eigvalsh(s1)[0]), float(np.linalg.eigvalsh(s2)[0]))
        if kappa <= 1e-10:
            continue
        ratio = kappa / float(diag.max())
        if ratio > best_ratio:
            best_ratio = ratio
            best_diag = diag
    if best_diag is None:
        raise NotDissipativeError(
            "no diagonal quadratic form certifies dissipativity: no diagonal Q on the "
            "grid makes both dissipativity matrices positive definite"
        )
    return QuadForm(np.diag(best_diag))


# ---------------------------------------------------------------------------
# Empirical contraction reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DissipativityParams:
    """Quadratic form, moment order, and contraction constant ``c(p)``."""

    q: QuadForm
    p: float
    c_p: float

    def __post_init__(self):
        if not self.p >= 1:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if not math.isfinite(self.c_p):
            raise DomainError("c_p must be finite")

    def envelope(self, times, separation: float) -> np.ndarray:
        """``(lam_max/lam_min)^{1/2} * separation * exp(-c_p t / p)``."""
        t = np.asarray(times, dtype=float)
        cond = math.sqrt(self.q.lam_max / self.q.lam_min)
        return cond * separation * np.exp(-self.c_p * t / self.p)


@dataclass(frozen=True, eq=False)
class CouplingReport:
    """Empirical pair-moment curve with bootstrap bands and rate fit.

    ``fitted_rate`` is the decay rate (positive for contraction) that
    :func:`~ergolab.rates.fit_rate` fits, as an exponential, to the moments
    above ten bootstrap standard errors; ``nan`` where it refuses them
    (fewer than ``FIT_MIN_POINTS``, or under one e-fold).  ``violations``
    counts grid times where the moment exceeds the analytic envelope by more
    than three bootstrap standard errors.
    """

    times: np.ndarray
    moment_curve: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    boot_se: np.ndarray
    fitted_rate: float
    envelope: np.ndarray | None
    violations: int


def check_estimate(p: float, n_boot: int, n_paths: int) -> None:
    """Refuse what :func:`contraction_estimate` cannot estimate from: a moment
    order ``p < 1``, fewer than 2 bootstrap draws or fewer than 100 paths."""
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if n_boot < 2:
        raise DomainError(f"n_boot must be >= 2 for a bootstrap standard error, got {n_boot}")
    if n_paths < 100:
        raise InsufficientPathsError(f"need at least 100 coupled paths, got {n_paths}")


def contraction_estimate(
    pairs: CoupledBatch,
    p: float,
    params: DissipativityParams | None = None,
    n_boot: int = 200,
    seed: int = 0,
) -> CouplingReport:
    """Estimate the contraction of a synchronously coupled pair.

    Computes the empirical curve ``(E |X^x_t - X^y_t|^p)^{1/p}`` with a
    path-resampling bootstrap confidence band, fits an exponential decay rate
    with :func:`~ergolab.rates.fit_rate` (plateau times below ten times the
    Monte Carlo noise floor are excluded), and, when ``params`` is supplied,
    compares the curve against the analytic envelope anchored at the initial
    separation.
    """
    n = pairs.n_paths
    check_estimate(p, n_boot, n)
    times = pairs.times
    # (n_times, n): each grid time's distances one contiguous row, raised to
    # p in a table of its own, so a second estimate reads the same pair
    dist_p = pairs.separations().T
    sep0 = float(dist_p[0, 0])
    dist_p = dist_p ** p
    moment = np.mean(dist_p, axis=1) ** (1.0 / p)

    # a draw's resample mean is its per-path counts against each row of
    # dist_p; einsum (not BLAS) sums it in a fixed order at any thread count
    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, times.shape[0]))
    for b in range(n_boot):
        counts = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
        boot[b] = (np.einsum("i,ti->t", counts, dist_p) / n) ** (1.0 / p)
    se = boot.std(axis=0, ddof=1)
    ci_lo = np.percentile(boot, 2.5, axis=0)
    ci_hi = np.percentile(boot, 97.5, axis=0)

    usable = moment > 10.0 * se  # se >= 0, so every usable moment is positive
    fitted_rate = math.nan
    if usable.sum() >= FIT_MIN_POINTS:
        try:
            fitted_rate = fit_rate(times[usable], moment[usable], "exponential").rate
        except DegenerateDataError:  # less than one e-fold
            pass

    envelope = None
    violations = 0
    if params is not None:
        envelope = params.envelope(times, sep0)
        slack = 3.0 * se + 1e-12 * np.maximum(envelope, 1.0)
        violations = int(np.count_nonzero(moment > envelope + slack))
    return CouplingReport(
        times=times,
        moment_curve=moment,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        boot_se=se,
        fitted_rate=fitted_rate,
        envelope=envelope,
        violations=violations,
    )
