"""Rate calculus for subexponential convergence bounds, and the one rate fitter.

The central object is a nondecreasing, concave rate-generating function
``phi : [1, oo) -> (0, oo)``. From it we derive

* ``Phi(t) = int_1^t ds / phi(s)``  (strictly increasing, ``Phi(1) = 0``),
* its inverse ``Phi^{-1}``,
* the rate function ``r(t) = phi(Phi^{-1}(t))``,

and the multiplier families that turn a Lyapunov drift certificate into a decay
bound for Wasserstein distances:

* ``upper_multiplier_w1``:   ``1 ∨ r(t)^{(eta-1)/eta}``,
* ``upper_multiplier_wp``:   ``1 ∨ [ (t^{(eta-p)/p} ∧ t^{(1-p)/p}) · r(t)^{(eta-1)/(p eta)} ]``,
* ``upper_multiplier_wp_linear`` (linear ``phi``, exponential regime): ``1 ∨ t^{eta/p-1}``,

together with ``lower_exponent``, the polynomial decay exponent
``(vartheta - p + eps + eps') / ((theta - vartheta - eps - eps') p)`` of the
matching lower bound along a constructed time sequence.

Multipliers are returned as guaranteed *growth* factors: a bound of the form
``multiplier(t) * W_p <= C * V(x)`` keeps the free constant ``C`` explicit at
the experiment layer.

Conventions
-----------
* ``phi`` specs are immutable; all operations are pure functions, safe under
  concurrent use.
* Each ``phi`` family states ``Phi`` and ``Phi^{-1}`` in closed form:
  ``LinearPhi`` has ``Phi^{-1}(u) = exp(c_hat u)`` and ``PowerPhi``
  ``Phi^{-1}(u) = (1 + (1 - kappa) prefactor u)^{1/(1 - kappa)}``.  An
  inverse beyond the float range raises ``DomainError``.

Public API
----------
``LinearPhi``, ``PowerPhi``, ``PhiSpec``,
``UpperRateParams``, ``LowerRateParams``,
``phi_eval``, ``big_phi``, ``big_phi_inv``, ``rate_r``,
``upper_multiplier_w1``, ``upper_multiplier_wp``, ``upper_multiplier_wp_linear``,
``lower_exponent``, ``RateFit``, ``fit_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError

__all__ = [
    "LinearPhi",
    "PowerPhi",
    "PhiSpec",
    "UpperRateParams",
    "LowerRateParams",
    "phi_eval",
    "big_phi",
    "big_phi_inv",
    "rate_r",
    "upper_multiplier_w1",
    "upper_multiplier_wp",
    "upper_multiplier_wp_linear",
    "lower_exponent",
    "RateFit",
    "fit_rate",
]

# A ``phi`` family states ``value(t)`` and ``big_phi(t)`` for ``t >= 1`` and
# ``big_phi_inv(u)`` for ``u > 0``, each in closed form.


@dataclass(frozen=True)
class LinearPhi:
    """``phi(t) = c_hat * t`` with ``c_hat > 0`` (exponential regime)."""

    c_hat: float

    def __post_init__(self):
        if not (self.c_hat > 0.0 and math.isfinite(self.c_hat)):
            raise ConfigError(f"c_hat must be positive and finite, got {self.c_hat}")

    def value(self, t: float) -> float:
        return self.c_hat * t

    def big_phi(self, t: float) -> float:
        return math.log(t) / self.c_hat

    def big_phi_inv(self, u: float) -> float:
        return math.exp(self.c_hat * u)


@dataclass(frozen=True)
class PowerPhi:
    """``phi(t) = prefactor * t^kappa`` with ``kappa in (0,1)``, ``prefactor > 0``."""

    kappa: float
    prefactor: float

    def __post_init__(self):
        if not (0.0 < self.kappa < 1.0):
            raise ConfigError(f"kappa must lie in (0,1), got {self.kappa}")
        if not (self.prefactor > 0.0 and math.isfinite(self.prefactor)):
            raise ConfigError(f"prefactor must be positive and finite, got {self.prefactor}")

    def value(self, t: float) -> float:
        return self.prefactor * t**self.kappa

    def big_phi(self, t: float) -> float:
        return (t ** (1.0 - self.kappa) - 1.0) / ((1.0 - self.kappa) * self.prefactor)

    def big_phi_inv(self, u: float) -> float:
        return (1.0 + (1.0 - self.kappa) * self.prefactor * u) ** (1.0 / (1.0 - self.kappa))


PhiSpec = Union[LinearPhi, PowerPhi]


@dataclass(frozen=True)
class UpperRateParams:
    """Parameters of the upper-bound multipliers: ``eta >= 1``, ``p in [1, eta]``."""

    eta: float
    p: float
    phi: PhiSpec

    def __post_init__(self):
        if not self.eta >= 1.0:
            raise DomainError(f"eta must be >= 1, got {self.eta}")
        if not (1.0 <= self.p <= self.eta):
            raise DomainError(f"p must lie in [1, eta] = [1, {self.eta}], got {self.p}")


@dataclass(frozen=True)
class LowerRateParams:
    """Exponent bookkeeping for the lower bound.

    Requires ``theta > vartheta >= 1``, ``eps_var in (0, theta - vartheta)``,
    ``eps_small in (0, theta - vartheta - eps_var)``, and ``p in [1, vartheta]``.
    """

    theta: float
    vartheta: float
    eps_var: float
    eps_small: float
    p: float

    def __post_init__(self):
        if not self.vartheta >= 1.0:
            raise DomainError(f"vartheta must be >= 1, got {self.vartheta}")
        if not self.theta > self.vartheta:
            raise DomainError(f"theta must exceed vartheta, got {self.theta} <= {self.vartheta}")
        if not (0.0 < self.eps_var < self.theta - self.vartheta):
            raise DomainError("eps_var must lie in (0, theta - vartheta)")
        if not (0.0 < self.eps_small < self.theta - self.vartheta - self.eps_var):
            raise DomainError("eps_small must lie in (0, theta - vartheta - eps_var)")
        if not (1.0 <= self.p <= self.vartheta):
            raise DomainError(f"p must lie in [1, vartheta], got {self.p}")


def phi_eval(spec: PhiSpec, t: float) -> float:
    """Evaluate ``phi(t)`` for ``t >= 1``."""
    t = float(t)
    if t < 1.0:
        raise DomainError(f"phi is defined on [1, oo), got t={t}")
    return spec.value(t)


def big_phi(spec: PhiSpec, t: float) -> float:
    """``Phi(t) = int_1^t ds / phi(s)``, in closed form."""
    t = float(t)
    if t < 1.0:
        raise DomainError(f"Phi is defined on [1, oo), got t={t}")
    return spec.big_phi(t)


def big_phi_inv(spec: PhiSpec, u: float) -> float:
    """``Phi^{-1}(u)``, the ``s >= 1`` with ``Phi(s) = u``, in closed form.

    Raises ``DomainError`` if ``u`` is negative or the inverse overflows a float.
    """
    u = float(u)
    if not u >= 0.0:
        raise DomainError(f"Phi^-1 is defined on [0, oo), got u={u}")
    if u == 0.0:
        return 1.0
    try:
        s = spec.big_phi_inv(u)
    except OverflowError:
        s = math.inf
    if not math.isfinite(s):
        raise DomainError(f"Phi^-1({u}) overflows a float")
    return s


def rate_r(spec: PhiSpec, t: float) -> float:
    """``r(t) = phi(Phi^{-1}(t))`` for ``t >= 0``; nondecreasing."""
    t = float(t)
    if t < 0.0:
        raise DomainError(f"r is defined on [0, oo), got t={t}")
    return phi_eval(spec, big_phi_inv(spec, t))


def upper_multiplier_w1(params: UpperRateParams, t: float) -> float:
    """``1 ∨ r(t)^{(eta-1)/eta}``, the guaranteed W_1 growth factor."""
    expo = (params.eta - 1.0) / params.eta
    if expo == 0.0:
        return 1.0
    return max(1.0, rate_r(params.phi, t) ** expo)


def _pow(t: float, a: float) -> float:
    # t**a with the t=0 conventions 0^0 = 1 and 0^{a<0} = +inf
    if t == 0.0:
        if a > 0.0:
            return 0.0
        if a == 0.0:
            return 1.0
        return math.inf
    return t**a


def upper_multiplier_wp(params: UpperRateParams, t: float) -> float:
    """``1 ∨ [ (t^{(eta-p)/p} ∧ t^{(1-p)/p}) · r(t)^{(eta-1)/(p eta)} ]``.

    For linear ``phi`` (exponential regime) use ``upper_multiplier_wp_linear``.
    """
    t = float(t)
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    eta, p = params.eta, params.p
    branch = min(_pow(t, (eta - p) / p), _pow(t, (1.0 - p) / p))
    r_expo = (eta - 1.0) / (p * eta)
    r_factor = 1.0 if r_expo == 0.0 else rate_r(params.phi, t) ** r_expo
    return max(1.0, branch * r_factor)


def upper_multiplier_wp_linear(eta: float, p: float, t: float) -> float:
    """``1 ∨ t^{eta/p - 1}`` (linear ``phi``, exponential regime)."""
    if not (1.0 <= p <= eta):
        raise DomainError(f"need 1 <= p <= eta, got p={p}, eta={eta}")
    t = float(t)
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    return max(1.0, _pow(t, eta / p - 1.0))


def lower_exponent(params: LowerRateParams) -> float:
    """Decay exponent of the lower bound, ``(vartheta-p+eps+eps')/((theta-vartheta-eps-eps')p)``."""
    denom = (params.theta - params.vartheta - params.eps_var - params.eps_small) * params.p
    if denom <= 0.0:
        raise DomainError(f"nonpositive denominator {denom} in lower exponent")
    return (params.vartheta - params.p + params.eps_var + params.eps_small) / denom


# the fewest points fit_rate fits a rate to
FIT_MIN_POINTS = 4


@dataclass(frozen=True, eq=False)
class RateFit:
    """Least-squares decay fit."""

    model: str
    rate: float
    intercept: float
    r_squared: float
    residuals: np.ndarray


# the checks fit_rate makes of its inputs; the CLI reads config arrays with them
def _array(value, label: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{label} must hold numbers, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{label} must hold finite numbers")
    return arr


def _vector(value, label: str) -> np.ndarray:
    arr = _array(value, label)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{label} must be a flat non-empty list of numbers")
    return arr


def fit_rate(times, values, model) -> RateFit:
    """Fit ``values ~ intercept * t^rate`` or ``intercept * exp(-rate t)``.

    Least squares in the transformed domain (log-log for ``polynomial``,
    semi-log for ``exponential``).  Requires at least ``FIT_MIN_POINTS``
    strictly positive finite values; raises :class:`DegenerateDataError`
    when the values span less than one decade (polynomial) or one e-fold
    (exponential), since the data then cannot identify the model against a
    constant.  An intercept beyond the float range is ``inf``.
    """
    if model not in ("polynomial", "exponential"):
        raise ConfigError(f"unknown rate model {model!r}")
    t = _vector(times, "times")
    v = _vector(values, "values")
    if t.shape != v.shape:
        raise DomainError(f"times and values disagree in length: {t.shape} vs {v.shape}")
    if t.size < FIT_MIN_POINTS:
        raise DomainError(f"need at least {FIT_MIN_POINTS} points to fit a rate, got {t.size}")
    if np.any(v <= 0):
        raise DomainError("values must be strictly positive")
    if np.any(np.diff(t) <= 0):
        raise DomainError("times must be strictly increasing")
    with np.errstate(over="ignore"):  # values wider than the float range span inf
        span = float(v.max() / v.min())
    if model == "polynomial":
        if np.any(t <= 0):
            raise DomainError("polynomial fits need strictly positive times")
        if span < 10.0:
            raise DegenerateDataError(
                f"values span a factor of {span:.3g} < 10; a power law is not "
                "identifiable over less than a decade"
            )
        x = np.log(t)
    else:
        if span < math.e:
            raise DegenerateDataError(
                f"values span a factor of {span:.3g} < e; an exponential is not "
                "identifiable over less than one e-fold"
            )
        x = t
    y = np.log(v)
    # the fit runs in x / 2^e, |x| < 2^e: an exact scaling, under which polyfit's
    # column-normalised system and so the slope are unchanged bit for bit,
    # while squares of times past 1e154 no longer overflow
    e = int(np.frexp(np.abs(x).max())[1])
    slope, c0 = np.polyfit(np.ldexp(x, -e), y, 1)
    slope = np.ldexp(slope, -e)
    resid = y - (slope * x + c0)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    r2 = min(1.0, max(0.0, r2))
    rate = float(slope) if model == "polynomial" else float(-slope)
    with np.errstate(over="ignore"):
        intercept = float(np.exp(c0))
    return RateFit(
        model=model,
        rate=rate,
        intercept=intercept,
        r_squared=r2,
        residuals=resid,
    )
