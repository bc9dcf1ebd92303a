"""The dense transport linear program, an exact oracle for weighted measures.

The library's exact solver, :func:`ergolab.wasserstein.w_assignment`, pairs
uniform measures of equal size only.  The tests check it, and the metric
properties of ``W_p`` on weighted clouds, against the optimal plan of the
full transport polytope: :func:`w_exact_lp` flattens it into one LP with a
dense ``(k1 + k2 - 1) x k1 k2`` constraint matrix, solved by HiGHS, and
:class:`TransportPlan` checks the plan's sign, marginals and cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ergolab.errors import DomainError, NumericalError, SizeError
from ergolab.wasserstein import EmpiricalMeasure, _cost_matrix

_MARGINAL_TOL = 1e-9
# the dense constraint matrix grows as (k1 + k2 - 1) k1 k2
_LP_SIZE_GUARD = 10_000


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


def w_exact_lp(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> TransportPlan:
    """Exact optimal transport plan for cost ``d^p`` (size-guarded LP)."""
    from scipy.optimize import linprog

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
