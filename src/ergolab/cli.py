"""Experiment driver and command-line interface.

The centerpiece is :func:`run_experiment`: given a JSON-serializable
configuration it simulates a process, measures the Wasserstein distance of
the time-t marginal empirical measure to a reference measure along a time
grid, fits a decay-rate model, and writes the curve plus a machine-readable
summary to disk.  Every random ingredient is derived from the single config
seed, so identical configurations produce byte-identical CSV outputs.

The reference measure is either the exact invariant law (available for the
backward recurrence chain and the scalar Gaussian Ornstein-Uhlenbeck case)
or the empirical measure of an independent long simulation.  Either way a
distance curve bottoms out at a sampling noise floor; the driver therefore
measures that floor directly — as the distance between two independently
generated references — and prints it alongside every fit.

The :func:`main` entry point exposes thin subcommand bindings over the
library modules (``simulate``, ``wdist``, ``driftcheck``, ``couple``,
``lower``, ``subordinate``, ``ratefit``).  Exit codes: 0 on success, 2 for
configuration/validation errors, 3 for numerical or data failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
from scipy import special

from .coupling import (
    DissipativityParams,
    NotFound,
    check_estimate,
    contraction_estimate,
    find_q,
    prop35_cp,
    synchronous_pair_sim,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    ErgoLabError,
    InsufficientPathsError,
    NotDissipativeError,
    SizeError,
)
from .lowerbound import LowerBoundInstance, lower_bound_curve
from .lyapunov import (
    ExpNorm,
    PolyNorm,
    PolyNormPlusOne,
    QuadForm,
    drift_check,
    jump_nodes,
)
from .processes import (
    BackwardRecurrence,
    CompoundPoisson,
    DiscreteJumps,
    LangevinTempered,
    LevyMeasureSpec,
    NoJumps,
    OUJump,
    PiecewiseOU,
    StableSubordinatorMeasure,
    BOOT_MAX_VALUES,
    CLOCK_MAX_SAMPLES,
    CSV_MAX_VALUES,
    DRIFT_MAX_NODES,
    JUMP_MC_MAX_VALUES,
    LEVEL_MAX_POINTS,
    PATH_MAX_STEPS,
    PATH_MAX_VALUES,
    QUANTILE_MAX_POINTS,
    STEP_TABLE_MAX_VALUES,
    SymmetricStable,
    invariant_exact,
    simulate,
    step_plan,
)
from .rates import LinearPhi, LowerRateParams, PowerPhi
from .subordination import (
    DriftOnly,
    Exponential,
    GammaSub,
    Polynomial,
    StableSub,
    SubordinatorSpec,
    subordinate_rate,
)
from .wasserstein import (
    _LP_SIZE_GUARD,
    _SINKHORN_SIZE_GUARD,
    EmpiricalMeasure,
    sinkhorn_annealed,
    w_1d,
    w_exact_lp,
)

__all__ = [
    "W1D",
    "ExactLP",
    "Sinkhorn",
    "ExactInvariant",
    "LongRunEmpirical",
    "ExperimentConfig",
    "RateFit",
    "fit_rate",
    "parse_experiment_config",
    "config_to_dict",
    "config_hash",
    "run_experiment",
    "main",
]

def _within(count: float, budget: int, what: str) -> None:
    """Refuse, with SizeError, an array of ``count`` elements above ``budget``."""
    if count > budget:
        raise SizeError(f"{what} would hold {count:,.0f} elements, above the budget of {budget:,}")


def _within_plan(spec, times, max_step: float, n_paths: int, starts: int = 1) -> None:
    """Refuse a simulation of ``n_paths`` paths from each of ``starts``
    starts whose :func:`step_plan` is above the path-step budget, or whose
    discrete horizon's step table is above its element budget."""
    steps = float(np.sum(step_plan(spec, times, max_step)))
    _within(starts * n_paths * steps, PATH_MAX_STEPS, "the step plan (paths x steps)")
    if spec.discrete_time:
        _within((starts + 1.0) * (steps + 1.0), STEP_TABLE_MAX_VALUES, "the step table")


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


# A distance kind states ``max_cells``, the largest cost matrix (support
# sizes multiplied) it accepts, or None when it forms none, and ``max_dim``,
# the largest dimension of the measures it compares, or None for any.


@dataclass(frozen=True)
class W1D:
    """Exact ``W_p`` between one-dimensional measures (quantile coupling)."""

    max_cells: ClassVar[int | None] = None
    max_dim: ClassVar[int | None] = 1

    def distance(self, mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
        return w_1d(mu, nu, p)


@dataclass(frozen=True)
class ExactLP:
    """Exact ``W_p`` from the transport linear program."""

    max_cells: ClassVar[int | None] = _LP_SIZE_GUARD
    max_dim: ClassVar[int | None] = None

    def distance(self, mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
        return w_exact_lp(mu, nu, p).distance


@dataclass(frozen=True)
class Sinkhorn:
    """Annealed entropic ``W_p`` down to the regularization ``epsilon``."""

    epsilon: float
    max_cells: ClassVar[int | None] = _SINKHORN_SIZE_GUARD
    max_dim: ClassVar[int | None] = None

    def __post_init__(self):
        if not (isinstance(self.epsilon, (int, float)) and self.epsilon > 0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")

    def distance(self, mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> float:
        res = sinkhorn_annealed(mu, nu, p, self.epsilon, max_iter=20000, tol=2e-4)
        return float(res.cost ** (1.0 / p))


# A reference kind builds the target measure of an experiment, ``measure(cfg)``,
# and ``redraw(cfg, ref)``, an independent sample of it.  The distance between
# the two is the noise floor: the value at which a perfectly converged curve
# bottoms out.  ``atoms(cfg)`` is the size of the measure, known when the
# config is read; ``sim_grid`` the time grid each of the two simulates, or None.


@dataclass(frozen=True)
class ExactInvariant:
    """The exact invariant law: the chain's tabulated law, or a quantile-midpoint
    discretization of the invariant Gaussian of a scalar linear diffusion."""

    quantile_points: int = 65536
    needs_invariant: ClassVar[bool] = True
    sim_grid: ClassVar[None] = None

    def __post_init__(self):
        if not (isinstance(self.quantile_points, int) and self.quantile_points >= 2):
            raise DomainError(
                f"quantile_points must be an integer >= 2, got {self.quantile_points}"
            )
        _within(self.quantile_points, QUANTILE_MAX_POINTS, "reference.quantile_points")

    def atoms(self, cfg: ExperimentConfig) -> int:
        if cfg.process.exact_invariant() != "chain":
            return self.quantile_points
        atoms = cfg.process.table_truncation() + 1
        _within(atoms, QUANTILE_MAX_POINTS, "the chain's reference table")
        return atoms

    def measure(self, cfg: ExperimentConfig) -> EmpiricalMeasure:
        if cfg.process.exact_invariant() == "chain":
            return invariant_exact(cfg.process, cfg.process.table_truncation())
        # midpoint quantiles of the centred Gaussian invariant law
        k = self.quantile_points
        quantiles = special.ndtri((np.arange(k) + 0.5) / k) * cfg.process.invariant_sd()
        return EmpiricalMeasure(points=quantiles[:, None], weights=np.full(k, 1.0 / k))

    def redraw(self, cfg: ExperimentConfig, ref: EmpiricalMeasure) -> EmpiricalMeasure:
        """An ``n_paths``-sample draw from the law itself."""
        rng = np.random.default_rng(_derive_seed(cfg.seed, "noise-floor"))
        idx = rng.choice(ref.points.shape[0], size=cfg.n_paths, p=ref.weights)
        return EmpiricalMeasure.from_samples(ref.points[idx])


@dataclass(frozen=True)
class LongRunEmpirical:
    """The terminal empirical measure of an independent simulation run to ``t_burn``."""

    t_burn: float
    needs_invariant: ClassVar[bool] = False

    def __post_init__(self):
        if not self.t_burn > 0:
            raise DomainError(f"t_burn must be positive, got {self.t_burn}")

    def atoms(self, cfg: ExperimentConfig) -> int:
        return cfg.n_paths

    @property
    def sim_grid(self) -> tuple:
        return (0.0, self.t_burn)

    def measure(self, cfg: ExperimentConfig, tag: str = "reference") -> EmpiricalMeasure:
        batch = simulate(
            cfg.process,
            np.array(cfg.x0),
            np.array(self.sim_grid),
            cfg.n_paths,
            _derive_seed(cfg.seed, tag),
            max_step=cfg.max_step,
        )
        return EmpiricalMeasure.from_samples(batch.paths[:, -1, :])

    def redraw(self, cfg: ExperimentConfig, ref: EmpiricalMeasure) -> EmpiricalMeasure:
        """A second long simulation, from its own seed."""
        return self.measure(cfg, "noise-floor")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully resolved experiment description (see :func:`parse_experiment_config`).

    ``t_grid`` may be given as a list or as a start/stop/points object, whose
    default spacing follows ``rate_model`` (geometric for a polynomial fit).
    """

    process: object
    x0: tuple
    t_grid: tuple
    n_paths: int
    seed: int
    distance: W1D | ExactLP | Sinkhorn
    p: float
    reference: ExactInvariant | LongRunEmpirical
    rate_model: str
    outputs: str | None = None
    bracket: tuple | None = None
    bracket_params: dict | None = None
    max_step: float = 0.01

    def __post_init__(self):
        if self.rate_model not in ("polynomial", "exponential"):
            raise ConfigError(f"unknown rate model {self.rate_model!r}")
        default_kind = "geometric" if self.rate_model == "polynomial" else "arithmetic"
        t_grid = _resolve_grid(self.t_grid, default_kind)
        if self.rate_model == "polynomial" and np.any(t_grid <= 0):
            raise ConfigError("a polynomial rate model requires strictly positive grid times")
        object.__setattr__(self, "t_grid", tuple(float(v) for v in t_grid))
        self.process.check_start(self.x0)
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not self.p >= 1.0:
            raise DomainError(f"p must be >= 1, got {self.p}")
        if self.reference.needs_invariant and self.process.exact_invariant() is None:
            raise ConfigError(
                "reference 'exact_invariant' requires a process with a known invariant "
                "law (backward recurrence chain, or scalar Gaussian linear diffusion); "
                "use 'long_run_empirical' instead"
            )
        # the simulated block also holds t = 0 when the grid starts later
        _within(
            self.n_paths * (len(t_grid) + 1) * self.process.dim, PATH_MAX_VALUES, "the path block"
        )
        max_dim = self.distance.max_dim
        if max_dim is not None and self.process.dim > max_dim:
            raise ConfigError(
                f"distance {_to_json(self.distance)['kind']!r} compares measures of dimension "
                f"at most {max_dim}, but the process has dimension {self.process.dim}"
            )
        atoms = self.reference.atoms(self)
        if self.distance.max_cells is not None:
            _within(self.n_paths * atoms, self.distance.max_cells, "the cost matrix")
        if self.bracket_params is not None and self.bracket is None:
            raise ConfigError("bracket_params supplied without a bracket")
        if not self.max_step > 0:
            raise DomainError(f"max_step must be positive, got {self.max_step}")
        _within_plan(self.process, _curve_grid(t_grid), self.max_step, self.n_paths)
        if self.reference.sim_grid is not None:
            _within_plan(self.process, self.reference.sim_grid, self.max_step, self.n_paths)


@dataclass(frozen=True, eq=False)
class RateFit:
    """Least-squares decay fit with optional theoretical exponent bracket."""

    model: str
    rate: float
    intercept: float
    r_squared: float
    residuals: np.ndarray
    bracket: tuple | None = None
    bracket_params: dict | None = None


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def fit_rate(times, values, model, bracket=None, bracket_params=None) -> RateFit:
    """Fit ``values ~ intercept * t^rate`` or ``intercept * exp(-rate t)``.

    Least squares in the transformed domain (log-log for ``polynomial``,
    semi-log for ``exponential``).  Requires at least four strictly positive
    finite values; raises :class:`DegenerateDataError` when the values span
    less than one decade (polynomial) or one e-fold (exponential), since the
    data then cannot identify the model against a constant.
    """
    if model not in ("polynomial", "exponential"):
        raise ConfigError(f"unknown rate model {model!r}")
    if bracket is None and bracket_params is not None:
        raise ConfigError("bracket_params supplied without a bracket")
    if bracket is not None:
        bracket = _bracket(bracket, "bracket")
    t = _array(times, "times").ravel()
    v = _array(values, "values").ravel()
    if t.shape != v.shape:
        raise DomainError(f"times and values disagree in length: {t.shape} vs {v.shape}")
    if t.size < 4:
        raise DomainError(f"need at least 4 points to fit a rate, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise DomainError("times and values must be finite")
    if np.any(v <= 0):
        raise DomainError("values must be strictly positive")
    if np.any(np.diff(t) <= 0):
        raise DomainError("times must be strictly increasing")
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
    slope, c0 = np.polyfit(x, y, 1)
    resid = y - (slope * x + c0)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    r2 = min(1.0, max(0.0, r2))
    rate = float(slope) if model == "polynomial" else float(-slope)
    return RateFit(
        model=model,
        rate=rate,
        intercept=float(np.exp(c0)),
        r_squared=r2,
        residuals=resid,
        bracket=bracket,
        bracket_params=bracket_params,
    )


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _require_keys(data: dict, required: set, optional: set, label: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(data).__name__}")
    keys = set(data)
    missing = required - keys
    if missing:
        raise ConfigError(f"{label} is missing required keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{label} has unknown keys: {sorted(unknown)}")


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _as_float(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    return float(value)


def _array(value, label: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must hold numbers, got {value!r}") from None


def _vector(value, label: str) -> np.ndarray:
    arr = _array(value, label)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{label} must be a flat non-empty list of numbers")
    return arr


def _matrix(value, label: str) -> np.ndarray:
    arr = _array(value, label)
    if arr.ndim != 2:
        raise ConfigError(f"{label} must be a nested list forming a matrix")
    return arr


def _bracket(value, label: str) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{label} must be a [lower_exponent, upper_exponent] pair")
    lo, hi = _as_float(value[0], f"{label}[0]"), _as_float(value[1], f"{label}[1]")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"{label} must be an ordered finite pair, got {value}")
    return (lo, hi)


def _resolve_grid(obj, default_kind: str) -> np.ndarray:
    """A time grid given either explicitly or as start/stop/points."""
    if isinstance(obj, dict):
        _require_keys(obj, {"start", "stop", "points"}, {"kind"}, "t_grid")
        start = _as_float(obj["start"], "t_grid.start")
        stop = _as_float(obj["stop"], "t_grid.stop")
        points = _as_int(obj["points"], "t_grid.points")
        kind = obj.get("kind", default_kind)
        if kind not in ("geometric", "arithmetic"):
            raise ConfigError(f"unknown grid kind {kind!r}")
        if points < 2:
            raise DomainError(f"t_grid.points must be >= 2, got {points}")
        if not start < stop:
            raise DomainError(f"t_grid needs start < stop, got [{start}, {stop}]")
        if kind == "geometric":
            if not start > 0:
                raise DomainError("a geometric grid needs a positive start")
            return np.geomspace(start, stop, points)
        return np.linspace(start, stop, points)
    grid = _vector(obj, "t_grid")
    if np.any(grid < 0):
        raise DomainError("grid times must be nonnegative")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise DomainError("grid times must be strictly increasing")
    return grid


# ---------------------------------------------------------------------------
# tagged JSON objects: one schema table, one parse, one serialise
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    """One JSON key: ``read(value, label)`` gives the constructor argument and
    the dotted path ``attr`` (default: the name) reads it back off the object.
    A key with a ``default`` is optional; JSON ``null`` selects the default."""

    name: str
    read: object
    default: object = _REQUIRED
    attr: str = ""


@dataclass(frozen=True)
class _Entry:
    """A class and its JSON keys, listed in constructor order; ``build``
    replaces the constructor when the JSON is flatter than the object."""

    cls: type
    keys: tuple = ()
    build: object = None


def _nested(group: str):
    return lambda value, label: _from_json(group, value, label)


def _as_str(value, label: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{label} must be a string, got {value!r}")
    return value


def _as_object(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{label} must be an object")
    return value


_ALPHA = _Key("alpha", _as_float)
_SCALE = _Key("scale", _as_float, default=1.0)
_LEVY = _Key("levy", _nested("levy"), default=LevyMeasureSpec())
# Q defaults to the identity of the process dimension, which the caller passes
_Q = _Key("Q", lambda v, label: QuadForm(_array(v, label)), default=None, attr="qf.Q")

# group -> (tag key or None, {tag: entry}); the canonical JSON form of an
# object lists every key of its entry, optional ones included
_SCHEMA = {
    "process": ("family", {
        "ou_jump": _Entry(OUJump, (_Key("H", _matrix), _LEVY)),
        "piecewise_ou": _Entry(PiecewiseOU, (
            _Key("l", _vector),
            _Key("M", _matrix),
            _Key("Gamma", _matrix),
            _Key("v", _vector),
            _Key("sigma", _matrix, default=None),
            _LEVY,
        )),
        "backward_recurrence": _Entry(BackwardRecurrence, (_ALPHA, _Key("i0", _as_int))),
        "langevin": _Entry(
            LangevinTempered, (_ALPHA, _Key("beta", _as_float), _Key("dim", _as_int, default=1))
        ),
    }),
    "levy": (None, {
        None: _Entry(LevyMeasureSpec, (
            _Key("jumps", _nested("jumps"), default=NoJumps(), attr="kind"),
            _Key("b_L", _vector, default=None),
            _Key("a_L", _matrix, default=None),
        )),
    }),
    "jumps": ("kind", {
        "none": _Entry(NoJumps),
        "compound_poisson": _Entry(
            CompoundPoisson,
            (
                _Key("rate", _as_float),
                _Key("atoms", _array, attr="jump_dist.atoms"),
                _Key("probs", _array, attr="jump_dist.probs"),
            ),
            build=lambda rate, atoms, probs: CompoundPoisson(rate, DiscreteJumps(atoms, probs)),
        ),
        "symmetric_stable": _Entry(SymmetricStable, (
            _ALPHA,
            _Key("scale", _as_float, default=1.0),
            _Key("structure", _as_str, default="isotropic"),
        )),
        "stable_subordinator": _Entry(StableSubordinatorMeasure, (_ALPHA,)),
    }),
    "lyapunov": ("family", {
        "poly": _Entry(PolyNorm, (_Q, _Key("theta", _as_float))),
        "poly_plus_one": _Entry(PolyNormPlusOne, (_Q, _Key("theta", _as_float))),
        "exp": _Entry(ExpNorm, (_Q, _Key("zeta", _as_float))),
    }),
    "phi": ("family", {
        "power": _Entry(
            PowerPhi, (_Key("kappa", _as_float), _Key("prefactor", _as_float, default=1.0))
        ),
        "linear": _Entry(LinearPhi, (_Key("c_hat", _as_float),)),
    }),
    "rate": ("kind", {
        "exponential": _Entry(Exponential, (_Key("gamma", _as_float), _SCALE)),
        "polynomial": _Entry(Polynomial, (_Key("exponent", _as_float), _SCALE)),
    }),
    "distance": ("kind", {
        "w1d": _Entry(W1D),
        "exact_lp": _Entry(ExactLP),
        "sinkhorn": _Entry(Sinkhorn, (_Key("epsilon", _as_float),)),
    }),
    "reference": ("kind", {
        "exact_invariant": _Entry(
            ExactInvariant, (_Key("quantile_points", _as_int, default=65536),)
        ),
        "long_run_empirical": _Entry(LongRunEmpirical, (_Key("t_burn", _as_float),)),
    }),
    "experiment config": (None, {
        None: _Entry(ExperimentConfig, (
            _Key("process", _nested("process")),
            _Key("x0", lambda v, label: tuple(float(x) for x in _vector(v, label))),
            # resolved by ExperimentConfig: its default spacing follows rate_model
            _Key("t_grid", lambda v, label: v),
            _Key("n_paths", _as_int),
            _Key("seed", _as_int),
            _Key("distance", _nested("distance")),
            _Key("p", _as_float),
            _Key("reference", _nested("reference")),
            _Key("rate_model", _as_str),
            _Key("outputs", _as_str, default=None),
            _Key("bracket", _bracket, default=None),
            _Key("bracket_params", _as_object, default=None),
            _Key("max_step", _as_float, default=0.01),
        )),
    }),
    "lower params": (None, {
        None: _Entry(LowerRateParams, tuple(
            _Key(name, _as_float) for name in ("theta", "vartheta", "eps_var", "eps_small", "p")
        )),
    }),
    "subordinator": ("kind", {
        "stable": _Entry(StableSub, (_ALPHA,)),
        "gamma": _Entry(GammaSub, (_Key("a", _as_float), _Key("b_hat", _as_float))),
        "drift_only": _Entry(DriftOnly),
    }),
}
_GROUP_OF = {
    entry.cls: (group, tag)
    for group, (_, entries) in _SCHEMA.items()
    for tag, entry in entries.items()
}


def _from_json(group: str, data, label: str | None = None, **defaults):
    """Build the object a JSON value of ``group`` describes.

    ``defaults`` override the table's default of an optional key where it
    depends on context (the identity ``Q`` of the process dimension).
    """
    tag_key, entries = _SCHEMA[group]
    label = label or group
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(data).__name__}")
    if tag_key is not None and tag_key not in data:
        raise ConfigError(f"{label} must be an object with a {tag_key!r} key")
    tag = None if tag_key is None else data[tag_key]
    if tag not in entries:
        raise ConfigError(f"unknown {label} {tag_key} {tag!r}")
    entry = entries[tag]
    required = {key.name for key in entry.keys if key.default is _REQUIRED}
    optional = {key.name for key in entry.keys} - required
    if tag_key is not None:
        required.add(tag_key)
    _require_keys(data, required, optional, label)
    args = []
    for key in entry.keys:
        value = data.get(key.name)
        if value is None and key.default is not _REQUIRED:
            args.append(defaults.get(key.name, key.default))
        else:
            args.append(key.read(value, f"{label}.{key.name}"))
    return (entry.build or entry.cls)(*args)


def _to_json(obj) -> dict:
    """The canonical JSON form of an object in the schema table."""
    if type(obj) not in _GROUP_OF:
        raise ConfigError(f"{type(obj).__name__} is not serializable")
    group, tag = _GROUP_OF[type(obj)]
    tag_key, entries = _SCHEMA[group]
    out = {}
    if tag_key is not None:
        out[tag_key] = tag
    for key in entries[tag].keys:
        try:
            value = operator.attrgetter(key.attr or key.name)(obj)
        except AttributeError:
            raise ConfigError(f"{type(obj).__name__} has no serializable {key.name!r}") from None
        if isinstance(value, (np.ndarray, tuple, list)):
            value = np.asarray(value).tolist()
        elif callable(value):
            raise ConfigError(f"{type(obj).__name__}.{key.name} is a function; not serializable")
        elif not isinstance(value, (str, int, float, dict, type(None))):
            value = _to_json(value)  # refuses a class outside the table
        out[key.name] = value
    return out


def parse_process(data: dict):
    """Build a process specification from its JSON form."""
    return _from_json("process", data)


# ---------------------------------------------------------------------------
# experiment config parsing
# ---------------------------------------------------------------------------


def parse_experiment_config(data: dict) -> ExperimentConfig:
    """Validate a JSON experiment description into an :class:`ExperimentConfig`."""
    return _from_json("experiment config", data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The canonical JSON form: parse -> serialize -> parse is the identity."""
    return _to_json(cfg)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experiment content (the output destination is excluded)."""
    payload = config_to_dict(cfg)
    payload.pop("outputs")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}|{tag}".encode()).hexdigest()
    return int(digest[:16], 16)


def _curve_grid(t_grid) -> np.ndarray:
    """The grid a curve simulates: ``t_grid``, from ``t = 0``."""
    grid = np.array(t_grid, dtype=float)
    return np.concatenate(([0.0], grid)) if grid[0] > 0.0 else grid


def _measure_curve(cfg: ExperimentConfig, ref: EmpiricalMeasure) -> np.ndarray:
    grid = _curve_grid(cfg.t_grid)
    offset = grid.size - len(cfg.t_grid)
    batch = simulate(
        cfg.process,
        np.array(cfg.x0),
        grid,
        cfg.n_paths,
        cfg.seed,
        max_step=cfg.max_step,
    )
    dists = np.empty(len(cfg.t_grid))
    for j in range(len(cfg.t_grid)):
        emp = EmpiricalMeasure.from_samples(batch.paths[:, j + offset, :])
        dists[j] = cfg.distance.distance(emp, ref, cfg.p)
    return dists


def _experiment_curve(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, float]:
    ref = cfg.reference.measure(cfg)
    floor = cfg.distance.distance(cfg.reference.redraw(cfg, ref), ref, cfg.p)
    dists = _measure_curve(cfg, ref)
    return np.array(cfg.t_grid), dists, floor


def _write_distances(path: Path, times: np.ndarray, dists: np.ndarray) -> None:
    lines = ["time,distance"]
    lines += [f"{t:.17g},{d:.17g}" for t, d in zip(times, dists)]
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> RateFit:
    """Measure a distance-to-reference curve, fit its decay, write artifacts.

    Writes ``distances.csv`` (before fitting, so the measured curve survives
    a failed fit) and ``summary.json`` into ``out_dir`` (or ``cfg.outputs``);
    identical configurations produce byte-identical CSVs.  Returns the
    :class:`RateFit`; the noise floor is printed and recorded in the summary.
    """
    start = time.perf_counter()
    times, dists, floor = _experiment_curve(cfg)
    target = out_dir if out_dir is not None else cfg.outputs
    out = None
    if target is not None:
        out = Path(target)
        out.mkdir(parents=True, exist_ok=True)
        _write_distances(out / "distances.csv", times, dists)
    print(f"noise floor ({_to_json(cfg.reference)['kind']}, p={cfg.p:g}) = {floor:.6g}")
    fit = fit_rate(times, dists, cfg.rate_model, bracket=cfg.bracket, bracket_params=cfg.bracket_params)
    print(
        f"fit[{fit.model}] rate = {fit.rate:.6g}  intercept = {fit.intercept:.6g}  "
        f"r2 = {fit.r_squared:.6g}"
    )
    if out is not None:
        summary = {
            "config_hash": config_hash(cfg),
            "fit": {
                "model": fit.model,
                "rate": fit.rate,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
            },
            "bracket": None
            if fit.bracket is None
            else {
                "lower_exponent": fit.bracket[0],
                "upper_exponent": fit.bracket[1],
                "params": fit.bracket_params,
            },
            "noise_floor": floor,
            "runtime_s": time.perf_counter() - start,
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return fit


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def _override_seed(data: dict, seed) -> dict:
    if seed is None:
        return data
    merged = dict(data)
    merged["seed"] = seed
    return merged


def _cmd_simulate(data: dict, out: Path, seed) -> int:
    data = _override_seed(data, seed)
    _require_keys(
        data, {"process", "x0", "t_grid", "n_paths", "seed"}, {"max_step"}, "simulate config"
    )
    spec = parse_process(data["process"])
    grid = _resolve_grid(data["t_grid"], "arithmetic")
    n_paths = _as_int(data["n_paths"], "n_paths")
    _within(n_paths * grid.size * spec.dim, CSV_MAX_VALUES, "the trajectory CSV")
    max_step = _as_float(data.get("max_step", 0.01), "max_step")
    _within_plan(spec, grid, max_step, n_paths)
    batch = simulate(
        spec,
        _vector(data["x0"], "x0"),
        grid,
        n_paths,
        _as_int(data["seed"], "seed"),
        max_step=max_step,
    )
    dest = out / "trajectories.csv"
    batch.to_csv(dest)
    print(f"simulated {n_paths} paths at {grid.size} grid times -> {dest}")
    return 0


def _cmd_wdist(data: dict, out: Path, seed) -> int:
    data = _override_seed(data, seed)
    payload = dict(data)
    payload.setdefault("rate_model", "exponential")
    cfg = parse_experiment_config(payload)
    times, dists, floor = _experiment_curve(cfg)
    _write_distances(out / "wdist.csv", times, dists)
    for t, d in zip(times, dists):
        print(f"t = {t:g}: distance = {d:.6g}")
    print(f"noise floor ({_to_json(cfg.reference)['kind']}, p={cfg.p:g}) = {floor:.6g}")
    return 0


def _cmd_ratefit(data: dict, out: Path, seed) -> int:
    _require_keys(
        data, {"times", "values", "model"}, {"bracket", "bracket_params"}, "ratefit config"
    )
    params = data.get("bracket_params")
    fit = fit_rate(
        data["times"],
        data["values"],
        data["model"],
        bracket=data.get("bracket"),
        bracket_params=None if params is None else _as_object(params, "bracket_params"),
    )
    result = {
        "model": fit.model,
        "rate": fit.rate,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "bracket": None if fit.bracket is None else list(fit.bracket),
        "bracket_params": fit.bracket_params,
    }
    (out / "ratefit.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(
        f"fit[{fit.model}] rate = {fit.rate:.6g}  intercept = {fit.intercept:.6g}  "
        f"r2 = {fit.r_squared:.6g}"
    )
    print("noise floor: not applicable (externally supplied values)")
    return 0


def _cmd_driftcheck(data: dict, out: Path, seed) -> int:
    data = _override_seed(data, seed)
    _require_keys(
        data,
        {"process", "lyapunov", "phi", "grid", "ball_radius"},
        {"jump_mc_samples", "seed"},
        "driftcheck config",
    )
    spec = parse_process(data["process"])
    # a chain has no levy part for the jump budget below to read
    if spec.discrete_time:
        raise ConfigError(f"driftcheck needs a continuous-time process, got {type(spec).__name__}")
    fn = _from_json("lyapunov", data["lyapunov"], Q=QuadForm(np.eye(spec.dim)))
    phi = _from_json("phi", data["phi"])
    samples = _as_int(data.get("jump_mc_samples", 20000), "jump_mc_samples")
    if samples < 1:
        raise DomainError(f"jump_mc_samples must be >= 1, got {samples}")
    _within(samples * spec.dim**2, JUMP_MC_MAX_VALUES, "one grid point's Monte Carlo batch")
    grid_obj = data["grid"]
    if isinstance(grid_obj, dict):
        _require_keys(grid_obj, {"lo", "hi", "points"}, set(), "grid")
        points = _as_int(grid_obj["points"], "grid.points")
        if points < 1:
            raise DomainError(f"grid.points must be >= 1, got {points}")
    else:
        grid = _array(grid_obj, "grid")
        if grid.size == 0:
            raise DomainError("grid must hold at least one point")
        points = grid.shape[0]
    nodes = points * (1 + jump_nodes(spec.levy, spec.dim, samples))
    _within(nodes, DRIFT_MAX_NODES, "the drift check's grid points x jump nodes")
    if isinstance(grid_obj, dict):
        grid = np.linspace(
            _as_float(grid_obj["lo"], "grid.lo"), _as_float(grid_obj["hi"], "grid.hi"), points
        )
    coords = grid[:, None] if grid.ndim == 1 else grid
    if coords.ndim != 2 or coords.shape[1] != spec.dim:
        raise ConfigError(
            f"grid points must have {spec.dim} coordinates, the process dimension"
        )
    report = drift_check(
        spec,
        fn,
        phi,
        grid,
        ball_radius=_as_float(data["ball_radius"], "ball_radius"),
        jump_mc_samples=samples,
        seed=_as_int(data.get("seed", 0), "seed"),
    )
    report.to_csv(out / "driftcheck.csv")
    print(
        f"b = {report.b:.6g}; worst margin = {report.worst_margin:.6g} "
        f"({'certified' if report.worst_margin >= 0 else 'violated'})"
    )
    return 0


def _cmd_couple(data: dict, out: Path, seed) -> int:
    data = _override_seed(data, seed)
    _require_keys(
        data,
        {"process", "x", "y", "t_grid", "n_paths", "seed", "p"},
        {"max_step", "n_boot", "certificate"},
        "couple config",
    )
    spec = parse_process(data["process"])
    p = _as_float(data["p"], "p")
    run_seed = _as_int(data["seed"], "seed")
    grid = _resolve_grid(data["t_grid"], "arithmetic")
    n_paths = _as_int(data["n_paths"], "n_paths")
    n_boot = _as_int(data.get("n_boot", 200), "n_boot")
    check_estimate(p, n_boot, n_paths)
    max_step = _as_float(data.get("max_step", 0.01), "max_step")
    _within(2 * n_paths * grid.size * spec.dim, PATH_MAX_VALUES, "the coupled path blocks")
    _within_plan(spec, grid, max_step, n_paths, starts=2)
    _within(n_boot * grid.size, BOOT_MAX_VALUES, "the bootstrap table")
    params = None
    cert = data.get("certificate")
    if cert is not None:
        if not isinstance(spec, PiecewiseOU):
            raise ConfigError("contraction certificates apply to the piecewise_ou family")
        _require_keys(cert, {"lip_sqrtq_sigma"}, {"Q"}, "certificate")
        if "Q" in cert:
            q = QuadForm(_matrix(cert["Q"], "certificate.Q"))
            if q.dim != spec.dim:
                raise ConfigError(
                    f"certificate.Q is {q.dim} x {q.dim} but the process has dimension "
                    f"{spec.dim}"
                )
        else:
            q = find_q(spec.M, spec.Gamma, spec.v)
            if isinstance(q, NotFound):
                raise NotDissipativeError(
                    f"no diagonal quadratic form certifies dissipativity: {q.reason}"
                )
        c_p = prop35_cp(
            spec.M,
            spec.Gamma,
            spec.v,
            q,
            _as_float(cert["lip_sqrtq_sigma"], "lip_sqrtq_sigma"),
            p,
        )
        if c_p <= 0:
            raise NotDissipativeError(
                f"certificate constant c(p) = {c_p:.6g} is not positive; the "
                "synchronous coupling has no guaranteed contraction at this order"
            )
        params = DissipativityParams(q=q, p=p, c_p=c_p)
        print(f"c(p) = {c_p:.6g} at p = {p:g}")
    pairs = synchronous_pair_sim(
        spec,
        _vector(data["x"], "x"),
        _vector(data["y"], "y"),
        grid,
        n_paths,
        run_seed,
        max_step=max_step,
    )
    report = contraction_estimate(
        pairs,
        p,
        params=params,
        n_boot=n_boot,
        seed=_derive_seed(run_seed, "bootstrap"),
    )
    report.to_csv(out / "couple.csv")
    print(
        f"fitted decay rate = {report.fitted_rate:.6g}; envelope violations = "
        f"{report.violations}"
    )
    return 0


def _cmd_lower(data: dict, out: Path, seed) -> int:
    _require_keys(
        data,
        {"process", "params", "c", "b", "x0", "n_terms", "s_grid"},
        {"truncation", "lipschitz", "lyapunov_exponent"},
        "lower config",
    )
    spec = parse_process(data["process"])
    if not isinstance(spec, BackwardRecurrence):
        raise ConfigError("the lower-bound construction applies to backward_recurrence")
    x0 = _vector(data["x0"], "x0")
    spec.check_start(x0)
    s_obj = data["s_grid"]
    if isinstance(s_obj, dict):
        _require_keys(s_obj, {"min", "max", "points"}, set(), "s_grid")
        lo = _as_float(s_obj["min"], "s_grid.min")
        hi = _as_float(s_obj["max"], "s_grid.max")
        points = _as_int(s_obj["points"], "s_grid.points")
        if not (0 < lo < math.inf and 0 < hi < math.inf):
            raise DomainError(f"s_grid levels must be positive and finite, got [{lo}, {hi}]")
        if points < 1:
            raise DomainError(f"s_grid.points must be >= 1, got {points}")
        _within(points, LEVEL_MAX_POINTS, "s_grid")
        s_grid = np.geomspace(lo, hi, points)
    else:
        s_grid = _vector(s_obj, "s_grid")
    # the tails are exact at every level; ``truncation`` once sized a table
    # they were read from, and is still accepted, but has no effect
    trunc = data.get("truncation", "auto")
    if trunc != "auto" and _as_int(trunc, "truncation") < 1:
        raise DomainError(f"truncation must be 'auto' or a positive integer, got {trunc}")
    params = _from_json("lower params", data["params"])
    theta_v = _as_float(data.get("lyapunov_exponent", params.theta), "lyapunov_exponent")
    lip = _as_float(data.get("lipschitz", 1.0), "lipschitz")
    inst = LowerBoundInstance(
        tail=spec.tail,
        lip=lip,
        v0=1.0 + abs(float(x0[0])) ** theta_v,  # V(x) = 1 + |x|^theta_v at the start
        c=_as_float(data["c"], "c"),
        b=_as_float(data["b"], "b"),
        params=params,
    )
    curve = lower_bound_curve(inst, _as_int(data["n_terms"], "n_terms"), s_grid=s_grid)
    curve.to_csv(out / "lower.csv")
    print(
        f"{curve.s.size} qualifying levels; matched times in "
        f"[{curve.t.min():.6g}, {curve.t.max():.6g}]"
    )
    return 0


def _cmd_subordinate(data: dict, out: Path, seed) -> int:
    data = _override_seed(data, seed)
    _require_keys(
        data, {"rate", "p", "subordinator", "t", "n_mc", "seed"}, {"b_s"}, "subordinate config"
    )
    r = _from_json("rate", data["rate"])
    kind = _from_json("subordinator", data["subordinator"])
    spec = SubordinatorSpec(kind=kind, b_S=_as_float(data.get("b_s", 0.0), "b_s"))
    p = _as_float(data["p"], "p")
    n_mc = _as_int(data["n_mc"], "n_mc")
    _within(n_mc, CLOCK_MAX_SAMPLES, "n_mc")
    run_seed = _as_int(data["seed"], "seed")
    times = _vector(data["t"], "t")
    lines = ["t,value,ci_lo,ci_hi,se"]
    for k, t in enumerate(times):
        est = subordinate_rate(r, p, spec, float(t), n_mc, _derive_seed(run_seed, f"subordinate-{k}"))
        lines.append(
            f"{t:.17g},{est.value:.17g},{est.ci_lo:.17g},{est.ci_hi:.17g},{est.se:.17g}"
        )
        print(f"t = {t:g}: r_psi = {est.value:.6g}  [{est.ci_lo:.6g}, {est.ci_hi:.6g}]")
    (out / "subordinate.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_experiment(data: dict, out: Path, seed) -> int:
    data = _override_seed(data, seed)
    cfg = parse_experiment_config(data)
    run_experiment(cfg, out_dir=out)
    return 0


_HANDLERS = {
    "simulate": (_cmd_simulate, "simulate trajectories and write them as CSV"),
    "wdist": (_cmd_wdist, "measure a distance-to-reference curve (no fit)"),
    "experiment": (_cmd_experiment, "full experiment: curve, fit, summary"),
    "driftcheck": (_cmd_driftcheck, "certify a drift inequality on a grid"),
    "couple": (_cmd_couple, "synchronous-coupling contraction estimate"),
    "lower": (_cmd_lower, "explicit Wasserstein lower-bound curve"),
    "subordinate": (_cmd_subordinate, "Monte Carlo time-changed rate profile"),
    "ratefit": (_cmd_ratefit, "fit a decay model to external (t, value) data"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Numerical laboratory for Markov-process convergence rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _HANDLERS.items():
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--config", required=True, help="path to a JSON configuration file")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out-dir", default=".", help="directory for output artifacts")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, _ = _HANDLERS[args.command]
    try:
        data = _load_config(args.config)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return handler(data, out, args.seed)
    except (ConfigError, DomainError, SizeError, InsufficientPathsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ErgoLabError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
