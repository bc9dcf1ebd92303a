"""A process and a Lyapunov function built from arbitrary callables.

No config can describe either, so the library does not hold them; the tests
use them to put a known drift, diffusion or test function in front of the
simulator, the generator and the coupling:

* :class:`GenericIto` — a batched drift ``b`` (None for zero) and ``sigma``
  (a constant matrix, a batched callable or None) plus a driving Lévy spec;
* :class:`CustomFn` — a function with optional analytic derivatives (central
  finite differences otherwise) and an optional growth class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ergolab.errors import ConfigError
from ergolab.processes import LevyMeasureSpec, ProcessSpec


@dataclass(frozen=True)
class GenericIto(ProcessSpec):
    """User-specified coefficients plus a driving Lévy spec: a batched drift
    ``b`` (None for zero) and ``sigma`` (see the notes of
    :mod:`ergolab.processes`), which the simulator steps and a drift check
    reads as its generator."""

    b: Callable[[np.ndarray], np.ndarray] | None
    sigma: np.ndarray | Callable[[np.ndarray], np.ndarray] | None
    levy: LevyMeasureSpec
    dim: int = 1

    def __post_init__(self):
        self.levy.check_dim(self.dim)

    def drift(self, x):
        if self.b is None:
            return np.zeros_like(x)
        return np.asarray(self.b(x), dtype=float)


@dataclass(frozen=True)
class CustomFn:
    """User-supplied function with optional analytic derivatives and growth class."""

    value_fn: Callable
    grad_fn: Callable | None = None
    hess_fn: Callable | None = None
    growth: tuple | None = None
    offset = 0.0  # no constant term split off in the jump integral's far tail

    def __post_init__(self):
        if not callable(self.value_fn):
            raise ConfigError("value_fn must be callable")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([float(self.value_fn(row)) for row in x])
        return float(self.value_fn(x))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([self.grad(row) for row in x]).reshape(x.shape)
        x = x.ravel()
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(x), dtype=float).ravel()
        return _fd_grad(self.value_fn, x)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.array([self.hess(row) for row in x]).reshape(x.shape + x.shape[-1:])
        x = x.ravel()
        if self.hess_fn is not None:
            return np.atleast_2d(np.asarray(self.hess_fn(x), dtype=float))
        return _fd_hess(self.value_fn, x)

    def kinks(self, x, d):
        """No known points of reduced smoothness: ``(m, 0)``."""
        return np.empty((np.atleast_2d(x).shape[0], 0))


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
