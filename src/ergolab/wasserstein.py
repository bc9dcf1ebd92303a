"""Empirical and exact L^p-Wasserstein distances on weighted point clouds.

Three independent routes to the same number are kept deliberately separate:

* :func:`w_1d` — exact 1-D distance by quantile coupling on the merged CDF
  breakpoints (no optimization, pure order statistics);
* :func:`w_assignment` — exact distance between two uniform measures of
  equal size, whose optimal plans include a permutation (Birkhoff–von
  Neumann), found on the cost matrix by ``linear_sum_assignment``;
* :func:`sinkhorn` — entropic regularization by the stabilized scaling
  iteration (Schmitzer 2019): two matrix-vector products an iteration on a
  kernel that absorbs the log potentials, with a half-step redone in the log
  domain whenever a scaling leaves a fixed range.  It reports the cost of
  the rounded, exactly feasible plan together with epsilon and the
  marginal-violation trace.  That plan is a coupling, so the cost bounds
  ``W_p^p`` from above.  :func:`sinkhorn_annealed` reaches a small epsilon
  through stages ``epsilon * 3^k, ..., 3 epsilon, epsilon`` that start at the
  scale of the largest cost, each warm-started from the last stage's dual
  potentials.

:func:`w2_gaussian` supplies the closed-form Gaussian distance used as an
oracle by the experiment layer.

All operations are pure; measures are immutable after construction.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError, NumericalError, SizeError

__all__ = [
    "EmpiricalMeasure",
    "SinkhornResult",
    "w_1d",
    "w_assignment",
    "sinkhorn",
    "sinkhorn_annealed",
    "w2_gaussian",
]

_WEIGHT_TOL = 1e-12
# cost-matrix cells (support sizes k1 x k2) both solvers accept, 2,048 points
# a side: Sinkhorn holds a few k1 x k2 float arrays (about 40 bytes a cell at
# the peak of a kernel rebuild), the assignment the cost matrix
_COST_MAX_CELLS = 2**22
# annealing schedule of sinkhorn_annealed: epsilon times 3^k, ..., 3, 1, with
# epsilon 3^k the smallest at or above the largest cost and k < _N_STAGES
_N_STAGES = 10
_STAGE_FACTOR = 3.0
# the cost matrix a running sinkhorn_annealed call built for all its stages,
# as (mu, nu, p, cost), in the context (thread) that runs it; None otherwise
_cost_memo: ContextVar[tuple | None] = ContextVar("_cost_memo", default=None)
# a scaling that leaves [e^-tau, e^tau] (or is not finite) sends its
# half-step back to the log domain, which absorbs it into the kernel; so a
# kernel entry stays within e^(2 tau) = e^100 of its plan entry, far inside
# the range of a double
_SCALING_TAU = 50.0


def _frozen(a) -> np.ndarray:
    """``a`` itself when it is already a read-only float array, else a read-only copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted point cloud: ``points`` is k x n, ``weights`` sums to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _frozen(self.points)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DomainError(f"points must be a nonempty k x n array, got shape {pts.shape}")
        # min and max carry any nan or inf, with no temporary the size of pts
        if pts.size and not (math.isfinite(pts.min()) and math.isfinite(pts.max())):
            raise DomainError("points must be finite")
        w = _frozen(np.ravel(self.weights))
        if w.shape[0] != pts.shape[0]:
            raise DomainError("weights length must match number of points")
        if np.any(w < 0.0):
            raise DomainError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_samples(cls, samples, weights=None) -> "EmpiricalMeasure":
        pts = np.asarray(samples, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if weights is None:
            weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(points=pts, weights=np.asarray(weights, dtype=float))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def pruned(self) -> "EmpiricalMeasure":
        """Drop zero-weight atoms (renormalization is a no-op by construction)."""
        keep = self.weights > 0.0
        if keep.all():
            return self
        return EmpiricalMeasure(points=self.points[keep], weights=self.weights[keep])


def _check_p(p: float) -> None:
    """Refuse an exponent that is not ``>= 1`` (NaN included)."""
    if not p >= 1.0:
        raise DomainError(f"p must be >= 1, got {p}")


def _within_cost_budget(k1: int, k2: int) -> None:
    if k1 * k2 > _COST_MAX_CELLS:
        raise SizeError(f"instance size {k1}x{k2} exceeds the guard {_COST_MAX_CELLS}")


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> np.ndarray:
    memo = _cost_memo.get()
    if memo is not None and memo[0] is mu and memo[1] is nu and memo[2] == p:
        return memo[3]
    if mu.dim != nu.dim:
        raise DomainError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    x, y = mu.points, nu.points
    cost = np.empty((x.shape[0], y.shape[0]))
    # a block of rows at a time, each block's (rows, k2, dim) differences at
    # most a quarter of the result: with the next block's made before the last
    # one is freed, the peak is 1.5 times the result.  Each cell is numpy's
    # own sum over its dim coordinates, so its bits do not depend on the blocks.
    rows = max(1, x.shape[0] // (4 * mu.dim))
    for start in range(0, x.shape[0], rows):
        diff = x[start:start + rows, None, :] - y[None, :, :]
        diff *= diff
        np.sum(diff, axis=-1, out=cost[start:start + rows])
    np.sqrt(cost, out=cost)
    cost **= p
    return cost


def w_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
    """Exact 1-D W_p by quantile coupling on the merged CDF breakpoints."""
    if mu.dim != 1 or nu.dim != 1:
        raise DomainError("w_1d requires one-dimensional measures")
    _check_p(p)
    mu, nu = mu.pruned(), nu.pruned()
    ox = np.argsort(mu.points[:, 0], kind="stable")
    oy = np.argsort(nu.points[:, 0], kind="stable")
    xs, wx = mu.points[ox, 0], mu.weights[ox]
    ys, wy = nu.points[oy, 0], nu.weights[oy]
    cx, cy = np.cumsum(wx), np.cumsum(wy)
    cx[-1] = cy[-1] = 1.0
    breaks = np.union1d(cx, cy)
    lengths = np.diff(np.concatenate([[0.0], breaks]))
    # the quantile on (breaks[k-1], breaks[k]] is the first atom whose CDF
    # reaches breaks[k]
    qx = xs[np.minimum(np.searchsorted(cx, breaks, side="left"), len(xs) - 1)]
    qy = ys[np.minimum(np.searchsorted(cy, breaks, side="left"), len(ys) - 1)]
    gaps = np.abs(qx - qy)
    if p == 1.0:
        return float(np.sum(lengths * gaps))
    return float(np.sum(lengths * gaps**p) ** (1.0 / p))


def w_assignment(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
    """Exact W_p between two uniform measures of equal size ``n``.

    Some optimal plan between them is a permutation matrix over ``n``
    (Birkhoff–von Neumann), so ``W_p^p`` is the mean cost of an optimal
    assignment, which ``linear_sum_assignment`` finds on the cost matrix
    (Crouse, IEEE TAES 2016).  Measures of unequal size or unequal weights
    are refused."""
    # imported on first use, so a run without exact_lp starts without scipy.optimize
    from scipy.optimize import linear_sum_assignment

    _check_p(p)
    if mu.size != nu.size:
        raise DomainError(
            f"the assignment pairs measures of equal size, got {mu.size} and {nu.size}"
        )
    for m in (mu, nu):
        if m.weights.min() != m.weights.max():
            raise DomainError("the assignment pairs uniform measures, got unequal weights")
    _within_cost_budget(mu.size, nu.size)
    cost = _cost_matrix(mu, nu, p)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean() ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class SinkhornResult:
    """Entropic OT output: raw cost (no entropy term), with epsilon recorded.

    ``cost`` is that of the final plan rounded onto the transport polytope.
    The rounding runs when ``cost`` is first read, which then drops the
    unrounded plan; a stage whose cost nobody reads is never rounded.
    """

    epsilon: float
    p: float
    iterations: int
    marginal_violation: float
    violation_trace: tuple[float, ...]
    log_u: np.ndarray
    log_v: np.ndarray
    converged: bool
    absorptions: int
    # (unrounded plan, cost matrix, a, b) until ``cost`` is first read
    _unrounded: tuple | None = field(default=None, repr=False)

    @functools.cached_property
    def cost(self) -> float:
        plan, cost, a, b = self._unrounded
        object.__setattr__(self, "_unrounded", None)
        return float(np.sum(_round_to_feasible(plan, a, b) * cost))


def _round_to_feasible(plan, a, b):
    # repair residual marginal violations: scale rows then columns down to
    # their targets and dump the leftover mass on a rank-one correction (the
    # standard rounding onto the transport polytope)
    row = plan.sum(axis=1)
    plan = plan * np.minimum(a / np.where(row > 0, row, 1.0), 1.0)[:, None]
    col = plan.sum(axis=0)
    plan = plan * np.minimum(b / np.where(col > 0, col, 1.0), 1.0)[None, :]
    err_r = a - plan.sum(axis=1)
    err_c = b - plan.sum(axis=0)
    total = err_r.sum()
    if total > 0.0:
        plan = plan + np.outer(err_r, err_c) / total
    return plan


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(m)))`` along ``axis``, shifted by each slice's maximum
    (by 0 where that maximum is not finite, as ``scipy.special.logsumexp``)."""
    top = m.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    shifted = m - top
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(shifted, out=shifted).sum(axis=axis))
    return out + top.reshape(out.shape)


def _bounded(scaling: np.ndarray) -> bool:
    """Every entry of ``scaling`` lies in ``[e^-tau, e^tau]`` (false on NaN)."""
    bound = math.exp(_SCALING_TAU)
    return bool(1.0 / bound <= scaling.min() and scaling.max() <= bound)


def _kernel(mr, u, v):
    """The Gibbs kernel with the log potentials absorbed, ``exp(mr + u_i + v_j)``."""
    kernel = np.add(mr, u[:, None])
    kernel += v[None, :]
    return np.exp(kernel, out=kernel)


def _sinkhorn_raw(cost, loga, logb, epsilon, max_iter, tol, warm=None):
    mr = -cost / epsilon
    a, b = np.exp(loga), np.exp(logb)
    u = np.zeros_like(loga) if warm is None else warm[0].copy()
    # the potentials are u + log(alpha), v + log(beta): (u, v) sit in the
    # kernel and each half-step updates a scaling by one matrix-vector
    # product, an einsum, which sums in a fixed order (a threaded BLAS gemv
    # splits its sums by the thread count).  The first v-update is exact, so
    # the kernel's columns hold the b_j whatever the warm start
    v = logb - _logsumexp(mr + u[:, None], axis=0)
    kernel = _kernel(mr, u, v)
    alpha, beta = np.ones_like(a), np.ones_like(b)
    col = None
    absorptions = 0
    trace: list[float] = []
    violation = math.inf
    it = 0
    with np.errstate(divide="ignore", over="ignore"):
        for it in range(1, max_iter + 1):
            if col is not None:
                beta = b / col
                if not _bounded(beta):
                    # a column mass left the range: redo the half-step
                    # exactly and absorb it into the kernel
                    u += np.log(alpha)
                    v = logb - _logsumexp(mr + u[:, None], axis=0)
                    kernel = _kernel(mr, u, v)
                    alpha, beta = np.ones_like(a), np.ones_like(b)
                    absorptions += 1
            row = np.einsum("ij,j->i", kernel, beta)
            alpha = a / row
            if not _bounded(alpha):
                v += np.log(beta)
                log_row = _logsumexp(mr + v[None, :], axis=1)
                u = loga - log_row
                kernel = _kernel(mr, u, v)
                alpha, beta = np.ones_like(a), np.ones_like(b)
                absorptions += 1
                # the plan's row sums, as the log-domain half-step gives them
                row_mass = np.exp(u + log_row)
            else:
                row_mass = alpha * row
            # the plan's column sums are beta * col, with the col that the
            # next v-update needs anyway
            col = np.einsum("i,ij->j", alpha, kernel)
            if it % 5 == 0 or it == max_iter:
                violation = float(np.abs(row_mass - a).sum() + np.abs(beta * col - b).sum())
                trace.append(violation)
                if violation < tol:
                    break
    # the unrounded plan
    kernel *= alpha[:, None]
    kernel *= beta[None, :]
    return (kernel, a, b), u + np.log(alpha), v + np.log(beta), it, violation, trace, absorptions


def sinkhorn(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    p: float,
    epsilon: float,
    max_iter: int = 10_000,
    tol: float = 1e-9,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> SinkhornResult:
    """Stabilized Sinkhorn for cost ``d^p``; stops on marginal L1 violation < tol.

    Each iteration updates the scalings ``beta = b / (K^T alpha)`` and
    ``alpha = a / (K beta)`` on the kernel ``K = exp(-C/epsilon + u_i + v_j)``.
    The first half-step, and any half-step whose scaling leaves
    ``[e^-tau, e^tau]`` or is not finite, is taken exactly in the log domain
    and absorbed into ``(u, v)``; ``absorptions`` counts the latter, each a
    kernel rebuild.  ``log_u``/``log_v`` are the full log potentials, the
    form ``warm_start`` takes.

    The reported cost is evaluated on the final plan after rounding it onto
    the transport polytope (rows/columns scaled to their targets, residual on
    a rank-one correction), so it is the cost of an exactly feasible coupling
    and bounds ``W_p^p`` from above; the violation fields diagnose the
    unrounded iterate, checked every 5 iterations. Raises
    :class:`NonConvergenceError` after ``max_iter`` with the partial result
    attached as ``report``.
    """
    mu_p, nu_p = _sinkhorn_supports(mu, nu, p, epsilon)
    cost = _cost_matrix(mu_p, nu_p, p)
    loga = np.log(mu_p.weights)
    logb = np.log(nu_p.weights)
    (plan, a, b), u, v, it, violation, trace, absorptions = _sinkhorn_raw(
        cost, loga, logb, epsilon, max_iter, tol, warm=warm_start
    )
    result = SinkhornResult(
        epsilon=epsilon,
        p=p,
        iterations=it,
        marginal_violation=violation,
        violation_trace=tuple(trace),
        log_u=u,
        log_v=v,
        converged=violation < tol,
        absorptions=absorptions,
        _unrounded=(plan, cost, a, b),
    )
    if not result.converged:
        raise NonConvergenceError(
            f"sinkhorn did not reach tol={tol} in {max_iter} iterations "
            f"(violation {violation:.3e})",
            report=result,
        )
    return result


def _sinkhorn_supports(mu, nu, p, epsilon):
    """The pruned measures, once p, epsilon and the instance size are accepted."""
    _check_p(p)
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    mu_p, nu_p = mu.pruned(), nu.pruned()
    _within_cost_budget(mu_p.size, nu_p.size)
    return mu_p, nu_p


def _next_warm_start(mu, nu, p, epsilon, max_iter, tol, warm):
    """One intermediate stage at ``epsilon``: its dual potentials ``epsilon u``,
    ``epsilon v`` as log potentials of the next stage, at ``epsilon / _STAGE_FACTOR``.

    Only the potentials leave this frame, so no stage's plan outlives it."""
    try:
        stage = sinkhorn(mu, nu, p, epsilon, max_iter=max_iter, tol=tol, warm_start=warm)
    except NonConvergenceError as exc:
        stage = exc.report
    return stage.log_u * _STAGE_FACTOR, stage.log_v * _STAGE_FACTOR


def sinkhorn_annealed(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    p: float,
    epsilon: float,
    max_iter: int = 10_000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Sinkhorn with a geometric epsilon schedule, warm-starting the potentials.

    Stages run at ``epsilon * _STAGE_FACTOR^k, ..., epsilon``, where
    ``epsilon * _STAGE_FACTOR^k`` is the smallest such value at or above the
    largest cost entry, and ``k < _N_STAGES``: one stage when ``epsilon`` is
    already at the cost's scale, ``_N_STAGES`` when it is ``_STAGE_FACTOR^9``
    or more below it.  Each stage starts from the last one's dual potentials
    ``epsilon u``, ``epsilon v``, that is its log potentials times
    ``_STAGE_FACTOR``; only the final stage must converge.  Every stage is one
    call of :func:`sinkhorn`, on one cost matrix built for all of them, and
    only the final stage's plan is rounded.
    """
    mu, nu = _sinkhorn_supports(mu, nu, p, epsilon)
    cost = _cost_matrix(mu, nu, p)
    top = float(cost.max())
    k = 0
    while k < _N_STAGES - 1 and epsilon * _STAGE_FACTOR**k < top:
        k += 1
    token = _cost_memo.set((mu, nu, p, cost))
    try:
        warm = None
        for stage in range(k, 0, -1):
            warm = _next_warm_start(
                mu, nu, p, epsilon * _STAGE_FACTOR**stage, max_iter, tol, warm
            )
        return sinkhorn(mu, nu, p, epsilon, max_iter=max_iter, tol=tol, warm_start=warm)
    finally:
        _cost_memo.reset(token)


def _psd_sqrt(mat: np.ndarray, label: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    sym_gap = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if sym_gap > 1e-10 * (1.0 + float(np.max(np.abs(mat)))):
        raise NumericalError(f"{label} is not symmetric (gap {sym_gap:.3e})")
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    floor = -1e-10 * max(1.0, float(vals[-1]))
    if vals[0] < floor:
        raise NumericalError(f"{label} is not PSD (min eigenvalue {vals[0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def w2_gaussian(m1, c1, m2, c2) -> float:
    """Closed-form W_2 between Gaussians (Bures metric on covariances)."""
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    c1 = np.atleast_2d(np.asarray(c1, dtype=float))
    c2 = np.atleast_2d(np.asarray(c2, dtype=float))
    root2 = _psd_sqrt(c2, "C2")
    inner = _psd_sqrt(root2 @ c1 @ root2, "C2^{1/2} C1 C2^{1/2}")
    gap2 = float(np.sum((m1 - m2) ** 2) + np.trace(c1) + np.trace(c2) - 2.0 * np.trace(inner))
    return math.sqrt(max(gap2, 0.0))
