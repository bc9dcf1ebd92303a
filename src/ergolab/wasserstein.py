"""Empirical and exact L^p-Wasserstein distances on weighted point clouds.

Three independent routes to the same number are kept deliberately separate:

* :func:`w_1d` — exact 1-D distance by quantile coupling on the merged CDF
  breakpoints (no optimization, pure order statistics);
* :func:`w_exact_lp` — exact optimal plan on the bipartite transport polytope
  (simplex on the flattened LP), desk-scale guarded;
* :func:`sinkhorn` — log-domain entropic regularization (Schmitzer 2019),
  reporting the cost of the rounded, exactly feasible plan together with
  epsilon and the marginal-violation trace.  That plan is a coupling, so the
  cost bounds ``W_p^p`` from above.

:func:`w2_gaussian` supplies the closed-form Gaussian distance used as an
oracle by the experiment layer.

All operations are pure; measures are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DomainError, NonConvergenceError, NumericalError, SizeError

__all__ = [
    "EmpiricalMeasure",
    "TransportPlan",
    "SinkhornResult",
    "w_1d",
    "w_exact_lp",
    "sinkhorn",
    "sinkhorn_annealed",
    "w2_gaussian",
]

_WEIGHT_TOL = 1e-12
_MARGINAL_TOL = 1e-9
# cost-matrix cells (support sizes k1 x k2) each solver accepts: the LP holds
# a dense (k1 + k2 - 1) x k1 k2 constraint matrix, Sinkhorn a few k1 x k2
# float arrays (about 40 bytes a cell)
_LP_SIZE_GUARD = 10_000
_SINKHORN_SIZE_GUARD = 2**22
# annealing schedule of sinkhorn_annealed: epsilon times 3^9, 3^8, ..., 1
_N_STAGES = 10
_STAGE_FACTOR = 3.0


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


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal coupling between two empirical measures for cost ``d^p``."""

    source: EmpiricalMeasure
    target: EmpiricalMeasure
    plan: np.ndarray
    cost: float
    p: float

    def __post_init__(self):
        plan = np.asarray(self.plan, dtype=float)
        if np.any(plan < -_MARGINAL_TOL):
            raise NumericalError("transport plan has negative entries")
        if not np.allclose(plan.sum(axis=1), self.source.weights, atol=_MARGINAL_TOL):
            raise NumericalError("row marginals do not match the source weights")
        if not np.allclose(plan.sum(axis=0), self.target.weights, atol=_MARGINAL_TOL):
            raise NumericalError("column marginals do not match the target weights")
        expected = float(np.sum(plan * _cost_matrix(self.source, self.target, self.p)))
        if not math.isclose(expected, self.cost, rel_tol=1e-9, abs_tol=1e-12):
            raise NumericalError("stored cost disagrees with plan * d^p")
        plan.flags.writeable = False
        object.__setattr__(self, "plan", plan)

    @property
    def distance(self) -> float:
        return max(self.cost, 0.0) ** (1.0 / self.p)


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> np.ndarray:
    if mu.dim != nu.dim:
        raise DomainError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return d**p


def w_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
    """Exact 1-D W_p by quantile coupling on the merged CDF breakpoints."""
    if mu.dim != 1 or nu.dim != 1:
        raise DomainError("w_1d requires one-dimensional measures")
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
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


def w_exact_lp(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> TransportPlan:
    """Exact optimal transport plan for cost ``d^p`` (size-guarded LP)."""
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    mu_p, nu_p = mu.pruned(), nu.pruned()
    k1, k2 = mu_p.size, nu_p.size
    if k1 * k2 > _LP_SIZE_GUARD:
        raise SizeError(f"instance size {k1}x{k2} exceeds the guard {_LP_SIZE_GUARD}")
    cost = _cost_matrix(mu_p, nu_p, p)
    # equality constraints: row sums and column sums (one column constraint is
    # redundant and dropped for numerical rank)
    a_rows = np.zeros((k1, k1 * k2))
    for i in range(k1):
        a_rows[i, i * k2 : (i + 1) * k2] = 1.0
    a_cols = np.zeros((k2 - 1, k1 * k2))
    for j in range(k2 - 1):
        a_cols[j, j::k2] = 1.0
    a_eq = np.vstack([a_rows, a_cols])
    b_eq = np.concatenate([mu_p.weights, nu_p.weights[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if not res.success:
        raise NumericalError(f"transport LP failed: {res.message}")
    plan_small = np.clip(res.x.reshape(k1, k2), 0.0, None)
    # renormalize away solver round-off so marginals match to tolerance
    plan_small *= 1.0 / plan_small.sum() if plan_small.sum() > 0 else 1.0
    total_cost = float(np.sum(plan_small * cost))
    # re-embed into the original (unpruned) index sets
    plan = np.zeros((mu.size, nu.size))
    idx_mu = np.flatnonzero(mu.weights > 0.0)
    idx_nu = np.flatnonzero(nu.weights > 0.0)
    plan[np.ix_(idx_mu, idx_nu)] = plan_small
    return TransportPlan(source=mu, target=nu, plan=plan, cost=total_cost, p=p)


@dataclass(frozen=True, eq=False)
class SinkhornResult:
    """Entropic OT output: raw cost (no entropy term), with epsilon recorded."""

    cost: float
    epsilon: float
    p: float
    iterations: int
    marginal_violation: float
    violation_trace: tuple[float, ...]
    log_u: np.ndarray
    log_v: np.ndarray
    converged: bool


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
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(m - top).sum(axis=axis))
    return out + top.reshape(out.shape)


def _sinkhorn_raw(cost, loga, logb, epsilon, max_iter, tol, warm=None):
    mr = -cost / epsilon
    a, b = np.exp(loga), np.exp(logb)
    u = np.zeros_like(loga) if warm is None else warm[0].copy()
    v = np.zeros_like(logb) if warm is None else warm[1].copy()
    trace: list[float] = []
    violation = math.inf
    it = 0
    # each half-step fixes one marginal; after the u-update the plan's column
    # sums are exp(v + col), with the col that the next v-update needs anyway
    col = _logsumexp(mr + u[:, None], axis=0)
    for it in range(1, max_iter + 1):
        v = logb - col
        row = _logsumexp(mr + v[None, :], axis=1)
        u = loga - row
        col = _logsumexp(mr + u[:, None], axis=0)
        if it % 5 == 0 or it == max_iter:
            violation = float(
                np.abs(np.exp(u + row) - a).sum() + np.abs(np.exp(v + col) - b).sum()
            )
            trace.append(violation)
            if violation < tol:
                break
    plan = _round_to_feasible(np.exp(mr + u[:, None] + v[None, :]), a, b)
    raw_cost = float(np.sum(plan * cost))
    return raw_cost, u, v, it, violation, trace


def sinkhorn(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    p: float,
    epsilon: float,
    max_iter: int = 10_000,
    tol: float = 1e-9,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> SinkhornResult:
    """Log-domain Sinkhorn for cost ``d^p``; stops on marginal L1 violation < tol.

    The reported cost is evaluated on the final plan after rounding it onto
    the transport polytope (rows/columns scaled to their targets, residual on
    a rank-one correction), so it is the cost of an exactly feasible coupling
    and bounds ``W_p^p`` from above; the violation fields diagnose the
    unrounded iterate, checked every 5 iterations. Raises
    :class:`NonConvergenceError` after ``max_iter`` with the partial result
    attached as ``report``.
    """
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    mu_p, nu_p = mu.pruned(), nu.pruned()
    if mu_p.size * nu_p.size > _SINKHORN_SIZE_GUARD:
        raise SizeError(
            f"instance size {mu_p.size}x{nu_p.size} exceeds the guard {_SINKHORN_SIZE_GUARD}"
        )
    cost = _cost_matrix(mu_p, nu_p, p)
    loga = np.log(mu_p.weights)
    logb = np.log(nu_p.weights)
    raw_cost, u, v, it, violation, trace = _sinkhorn_raw(
        cost, loga, logb, epsilon, max_iter, tol, warm=warm_start
    )
    result = SinkhornResult(
        cost=raw_cost,
        epsilon=epsilon,
        p=p,
        iterations=it,
        marginal_violation=violation,
        violation_trace=tuple(trace),
        log_u=u,
        log_v=v,
        converged=violation < tol,
    )
    if not result.converged:
        raise NonConvergenceError(
            f"sinkhorn did not reach tol={tol} in {max_iter} iterations "
            f"(violation {violation:.3e})",
            report=result,
        )
    return result


def sinkhorn_annealed(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    p: float,
    epsilon: float,
    max_iter: int = 10_000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Sinkhorn with a geometric epsilon schedule, warm-starting the potentials.

    Stages run at ``epsilon * _STAGE_FACTOR^(_N_STAGES-1), ..., epsilon``; only
    the final stage must converge.
    """
    warm = None
    result = None
    for stage in range(_N_STAGES):
        eps_stage = epsilon * _STAGE_FACTOR ** (_N_STAGES - 1 - stage)
        try:
            result = sinkhorn(
                mu, nu, p, eps_stage, max_iter=max_iter, tol=tol, warm_start=warm
            )
        except NonConvergenceError as exc:
            if stage < _N_STAGES - 1:
                result = exc.report
            else:
                raise
        warm = (result.log_u, result.log_v)
    return result


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
