"""Constructive Wasserstein lower bounds from Lyapunov growth and tail mass.

The procedure turns two pieces of information about an ergodic process —

* heavy tails of the invariant measure: ``pi(L > s)`` decays slowly for a
  Lipschitz observable ``L``, and
* at most linear growth of the Lyapunov moment along the flow:
  ``E V(X_t) <= b t + V(x0)`` with ``V >= c L^theta`` and
  ``phi(V) >= c L^vartheta`` —

into explicit times ``t_n`` and explicit positive lower bounds on
``W_p(delta_{x0} P_{t_n}, pi)``.  The mechanism: the truncated observable
``f_s = (L - s/2)^+`` has ``p``-th moment at least ``(s/2)^p pi(L > s)``
under ``pi`` but at most ``(2^{theta-p}/c) s^{p-theta} (b t + V(x0))``
under the time-``t`` law, and the difference of the two ``p``-th roots is a
``1/Lip(L)`` multiple of a Wasserstein lower bound.  Qualifying levels
``s_n`` are found by grid search on the inequality

``(s/2)^p pi(L > s) >= 2^p s^{p - vartheta - eps - eps'}``,

and ``t_n`` solves the matching equation
``s^{theta - vartheta - eps - eps'} = (2^{theta-p}/c)(b t + V(x0))``.  Of
``V`` the construction reads only ``V(x0)``, so an instance carries that one
number.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, InsufficientTailError
from .rates import LowerRateParams

__all__ = [
    "LowerBoundCurve",
    "LowerBoundInstance",
    "lower_bound_curve",
]


@dataclass(frozen=True)
class LowerBoundInstance:
    """Everything the lower-bound construction needs.

    ``tail`` maps an array of levels ``s`` to the invariant tail
    ``pi(L > s)`` of the observable ``L`` (read at the grid levels only, so
    an exact tail such as the chain's closed form holds at any level), and
    ``lip`` is ``L``'s Lipschitz constant.  ``v0`` is ``V(x0)``, the
    Lyapunov function at the start, the only value of ``V`` the
    construction reads.  The growth constants assert ``V >= c L^theta`` and
    ``phi(V) >= c L^vartheta`` with the exponents carried by ``params``;
    ``b`` is the constant in the moment bound ``E V(X_t) <= b t + V(x0)``.
    The premise that ``L^{vartheta + eps}`` is not ``pi``-integrable is a
    declared modeling assertion — only the finite grid inequality is ever
    verified.
    """

    tail: Callable[[np.ndarray], np.ndarray]
    lip: float
    v0: float
    c: float
    b: float
    params: LowerRateParams

    def __post_init__(self):
        if not callable(self.tail):
            raise ConfigError("tail must be callable on an array of levels")
        if not self.lip > 0:
            raise DomainError(f"Lipschitz constant must be positive, got {self.lip}")
        if not self.c > 0:
            raise DomainError(f"growth constant c must be positive, got {self.c}")
        if not self.b > 0:
            raise DomainError(f"drift constant b must be positive, got {self.b}")


def _select(inst: LowerBoundInstance, n_terms: int, s_grid) -> tuple[np.ndarray, np.ndarray]:
    """The smallest ``n_terms`` qualifying grid levels and their tails
    ``pi(L > s)`` (see :func:`lower_bound_curve`)."""
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    grid = np.unique(np.asarray(s_grid, dtype=float).ravel())
    if grid.size == 0 or np.any(grid <= 0):
        raise DomainError("s_grid must contain positive levels")
    par = inst.params
    tails = np.asarray(inst.tail(grid), dtype=float)
    lhs = (grid / 2.0) ** par.p * tails
    rhs = 2.0**par.p * grid ** (par.p - par.vartheta - par.eps_var - par.eps_small)
    qual = np.flatnonzero(lhs >= rhs)
    if qual.size < n_terms:
        ratio = lhs / rhs
        best = int(np.argmax(ratio))
        raise InsufficientTailError(
            f"only {qual.size} of {grid.size} grid levels satisfy the tail "
            f"inequality; {n_terms} were requested (best ratio "
            f"{ratio[best]:.3e} at s = {grid[best]:.6g})",
            diagnostics={
                "requested": int(n_terms),
                "qualifying": int(qual.size),
                "grid_size": int(grid.size),
                "best_ratio": float(ratio[best]),
                "best_s": float(grid[best]),
            },
        )
    chosen = qual[:n_terms]
    return grid[chosen], tails[chosen]


@dataclass(frozen=True, eq=False)
class LowerBoundCurve:
    """Qualifying levels with matched times and explicit lower bounds."""

    s: np.ndarray
    t: np.ndarray
    bound: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "s_n", "t_n", "bound"])
            for k in range(self.s.shape[0]):
                writer.writerow(
                    [k + 1, f"{self.s[k]:.17g}", f"{self.t[k]:.17g}", f"{self.bound[k]:.17g}"]
                )


def lower_bound_curve(inst: LowerBoundInstance, n_terms: int, s_grid) -> LowerBoundCurve:
    """Explicit finite-``n`` Wasserstein lower bounds.

    Levels qualify on the tails ``inst.tail`` gives at the grid, and the
    smallest ``n_terms`` of them are kept (:class:`InsufficientTailError`,
    with the best ratio reached in its diagnostics, when fewer qualify).
    For each the bound is the difference of the two ``p``-th roots divided
    by ``Lip(L)``:

    ``bound = (1/Lip) [ ((s/2)^p pi(L > s))^{1/p}
    - ((2^{theta-p}/c)(b t + V(x0)))^{1/p} s^{(p-theta)/p} ]``,

    which the qualification inequality keeps at least
    ``s^{(p-vartheta-eps-eps')/p} / Lip`` — strictly positive.  Reported as
    explicit finite-``n`` values rather than a single asymptotic constant.
    """
    s, tails = _select(inst, n_terms, s_grid)
    par = inst.params
    v0 = inst.v0
    delta = par.theta - par.vartheta - par.eps_var - par.eps_small
    t = (inst.c * s**delta * 2.0 ** (par.p - par.theta) - v0) / inst.b
    if np.any(t < 0):
        raise DomainError(
            "matched times are negative for the smallest qualifying levels; "
            "start the grid at larger s"
        )
    first = ((s / 2.0) ** par.p * tails) ** (1.0 / par.p)
    second = ((2.0 ** (par.theta - par.p) / inst.c) * (inst.b * t + v0)) ** (
        1.0 / par.p
    ) * s ** ((par.p - par.theta) / par.p)
    bound = (first - second) / inst.lip
    return LowerBoundCurve(s=s, t=t, bound=bound)
