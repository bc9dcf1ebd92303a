"""Tests for the experiment driver and command-line interface."""

import dataclasses
import filecmp
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ergolab.cli import (
    _SCHEMA,
    ExactLP,
    ExperimentConfig,
    RateFit,
    Sinkhorn,
    W1D,
    _chain_invariant,
    config_hash,
    config_to_dict,
    fit_rate,
    main,
    parse_experiment_config,
    run_experiment,
)
from ergolab.errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    SizeError,
)
from ergolab.processes import BackwardRecurrence, invariant_exact
from ergolab.wasserstein import EmpiricalMeasure


# ---------------------------------------------------------------------------
# fit_rate
# ---------------------------------------------------------------------------


def test_fit_rate_power_law_exact():
    times = np.geomspace(1.0, 100.0, 8)
    values = times**-2.0
    fit = fit_rate(times, values, "polynomial")
    assert abs(fit.rate - (-2.0)) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert fit.r_squared == 1.0
    assert np.max(np.abs(fit.residuals)) < 1e-12
    assert fit.model == "polynomial"
    assert fit.bracket is None


def test_fit_rate_exponential_exact():
    times = np.linspace(0.0, 6.0, 7)
    values = 3.0 * np.exp(-0.7 * times)
    fit = fit_rate(times, values, "exponential")
    assert abs(fit.rate - 0.7) < 1e-12
    assert abs(fit.intercept - 3.0) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_rate_noisy_power_law_within_tenth():
    rng = np.random.default_rng(3)
    times = np.geomspace(1.0, 1e3, 40)
    values = 2.0 * times**-1.3 * (1.0 + 0.1 * rng.standard_normal(40))
    fit = fit_rate(times, values, "polynomial")
    assert abs(fit.rate - (-1.3)) <= 0.1
    assert fit.r_squared > 0.9
    assert fit.residuals.shape == (40,)


def test_fit_rate_degenerate_span_polynomial():
    times = np.geomspace(1.0, 100.0, 8)
    values = 3.0 * (1.0 + 0.05 * np.linspace(0.0, 1.0, 8))
    with pytest.raises(DegenerateDataError):
        fit_rate(times, values, "polynomial")


def test_fit_rate_degenerate_span_exponential():
    times = np.linspace(0.0, 6.0, 7)
    values = 2.0 * np.exp(-0.05 * times)  # spans less than one e-fold
    with pytest.raises(DegenerateDataError):
        fit_rate(times, values, "exponential")


def test_fit_rate_rejects_bad_inputs():
    good_t = np.array([1.0, 2.0, 4.0, 8.0])
    good_v = np.array([8.0, 4.0, 2.0, 1.0])
    with pytest.raises(DomainError):
        fit_rate(good_t[:3], good_v[:3], "polynomial")
    with pytest.raises(DomainError):
        fit_rate(good_t, np.array([8.0, 4.0, 0.0, 1.0]), "polynomial")
    with pytest.raises(DomainError):
        fit_rate(good_t, np.array([8.0, 4.0, np.nan, 1.0]), "polynomial")
    with pytest.raises(DomainError):
        fit_rate(np.array([0.0, 2.0, 4.0, 8.0]), good_v, "polynomial")
    with pytest.raises(DomainError):
        fit_rate(np.array([1.0, 2.0, 2.0, 8.0]), good_v, "polynomial")
    with pytest.raises(ConfigError):
        fit_rate(good_t, good_v, "loglinear")


def test_fit_rate_r_squared_always_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        times = np.sort(rng.uniform(0.5, 50.0, n))
        times += np.arange(n) * 1e-6  # ensure strictly increasing
        values = rng.uniform(0.05, 80.0, n)
        span = values.max() / values.min()
        model = "polynomial" if span >= 10.0 else "exponential"
        if model == "exponential" and span < math.e:
            continue
        fit = fit_rate(times, values, model)
        assert 0.0 <= fit.r_squared <= 1.0


def test_fit_rate_records_bracket():
    times = np.geomspace(1.0, 100.0, 6)
    values = times**-2.0
    params = {"theta": 3.95, "vartheta": 2.95, "p": 1.0}
    fit = fit_rate(times, values, "polynomial", bracket=(0.0, 4.9), bracket_params=params)
    assert fit.bracket == (0.0, 4.9)
    assert fit.bracket_params == params
    with pytest.raises(DomainError):
        fit_rate(times, values, "polynomial", bracket=(5.0, 1.0))
    with pytest.raises(ConfigError):
        fit_rate(times, values, "polynomial", bracket_params=params)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def _zero_noise_config(**overrides):
    cfg = {
        "process": {
            "family": "piecewise_ou",
            "l": [-1.0],
            "M": [[1.0]],
            "Gamma": [[0.0]],
            "v": [1.0],
            "sigma": None,
            "levy": {},
        },
        "x0": [-3.0],
        "t_grid": {"start": 0.25, "stop": 4.0, "points": 16},
        "n_paths": 64,
        "seed": 5,
        "distance": {"kind": "w1d"},
        "p": 1.0,
        "reference": {"kind": "long_run_empirical", "t_burn": 20.0},
        "rate_model": "exponential",
    }
    cfg.update(overrides)
    return cfg


def _ou_config(**overrides):
    cfg = {
        "process": {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}},
        "x0": [2.0],
        "t_grid": {"start": 0.5, "stop": 4.0, "points": 8},
        "n_paths": 20000,
        "seed": 11,
        "distance": {"kind": "w1d"},
        "p": 2.0,
        "reference": {"kind": "exact_invariant", "quantile_points": 20000},
        "rate_model": "exponential",
        "max_step": 0.25,
    }
    cfg.update(overrides)
    return cfg


def test_config_round_trip_is_idempotent():
    cfg = parse_experiment_config(_zero_noise_config())
    first = config_to_dict(cfg)
    second = config_to_dict(parse_experiment_config(first))
    assert first == second
    # the grid dict is resolved into an explicit list of times
    assert isinstance(first["t_grid"], list)
    assert len(first["t_grid"]) == 16


def test_grid_kind_follows_rate_model():
    cfg = parse_experiment_config(_zero_noise_config())
    np.testing.assert_allclose(cfg.t_grid, np.linspace(0.25, 4.0, 16))
    chain = parse_experiment_config(
        {
            "process": {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
            "x0": [0.0],
            "t_grid": {"start": 10.0, "stop": 1000.0, "points": 5},
            "n_paths": 500,
            "seed": 1,
            "distance": {"kind": "w1d"},
            "p": 1.0,
            "reference": {"kind": "exact_invariant"},
            "rate_model": "polynomial",
        }
    )
    np.testing.assert_allclose(chain.t_grid, np.geomspace(10.0, 1000.0, 5))
    explicit = parse_experiment_config(
        _zero_noise_config(t_grid={"start": 1.0, "stop": 4.0, "points": 3, "kind": "geometric"})
    )
    np.testing.assert_allclose(explicit.t_grid, np.geomspace(1.0, 4.0, 3))


def test_config_schema_errors():
    with pytest.raises(ConfigError):
        parse_experiment_config(_zero_noise_config(process={"family": "mystery"}))
    bad = _zero_noise_config()
    del bad["n_paths"]
    with pytest.raises(ConfigError):
        parse_experiment_config(bad)
    with pytest.raises(ConfigError):
        parse_experiment_config(_zero_noise_config(unexpected=1))
    with pytest.raises(ConfigError):
        parse_experiment_config(_zero_noise_config(distance={"kind": "sinkhorn"}))
    with pytest.raises(ConfigError):
        parse_experiment_config(_zero_noise_config(distance={"kind": "swd"}))
    with pytest.raises(ConfigError):
        parse_experiment_config(_zero_noise_config(rate_model="spline"))
    # exact invariant reference is only available when a closed form exists
    with pytest.raises(ConfigError):
        parse_experiment_config(
            _zero_noise_config(reference={"kind": "exact_invariant"})
        )
    # a polynomial fit needs strictly positive times
    with pytest.raises(ConfigError):
        parse_experiment_config(
            _zero_noise_config(
                t_grid=[0.0, 1.0, 2.0, 3.0], rate_model="polynomial",
                reference={"kind": "long_run_empirical", "t_burn": 5.0},
            )
        )


def test_config_domain_errors():
    with pytest.raises(DomainError):
        parse_experiment_config(_zero_noise_config(p=0.5))
    with pytest.raises(DomainError):
        parse_experiment_config(_zero_noise_config(n_paths=0))
    with pytest.raises(DomainError):
        parse_experiment_config(
            _zero_noise_config(reference={"kind": "long_run_empirical", "t_burn": -1.0})
        )
    with pytest.raises(DomainError):
        parse_experiment_config(_zero_noise_config(t_grid=[2.0, 1.0, 3.0, 4.0]))
    with pytest.raises(DomainError):
        parse_experiment_config(
            _zero_noise_config(distance={"kind": "sinkhorn", "epsilon": -0.1})
        )


def test_config_hash_is_stable_and_seed_sensitive():
    cfg = parse_experiment_config(_zero_noise_config())
    again = parse_experiment_config(config_to_dict(cfg))
    assert config_hash(cfg) == config_hash(again)
    other = parse_experiment_config(_zero_noise_config(seed=6))
    assert config_hash(cfg) != config_hash(other)


def _family_config(process, **overrides):
    cfg = {
        "process": process,
        "x0": [0.5],
        "t_grid": [0.5, 1.0, 2.0, 4.0],
        "n_paths": 64,
        "seed": 3,
        "distance": {"kind": "w1d"},
        "p": 1.0,
        "reference": {"kind": "long_run_empirical", "t_burn": 10.0},
        "rate_model": "exponential",
    }
    cfg.update(overrides)
    return cfg


# one config per process family and jump kind, with its config_hash as the
# hand-written parser and serialiser computed it
FAMILY_CONFIGS = {
    "ou_jump-none": (
        _family_config(
            {"family": "ou_jump", "H": [[-1.0]],
             "levy": {"a_L": [[1.0]], "jumps": {"kind": "none"}}},
            reference={"kind": "exact_invariant", "quantile_points": 128},
        ),
        "c72db10a701bf84f",
    ),
    "ou_jump-compound_poisson-2d": (
        _family_config(
            {"family": "ou_jump", "H": [[-1.0, 0.2], [0.0, -2.0]],
             "levy": {"jumps": {"kind": "compound_poisson", "rate": 1.5,
                                "atoms": [[1.0, 0.0], [0.0, -1.0]], "probs": [0.25, 0.75]}}},
            x0=[0.5, -0.5], distance={"kind": "exact_lp"},
        ),
        "f7e75710895f7d4d",
    ),
    "ou_jump-symmetric_stable": (
        _family_config(
            {"family": "ou_jump", "H": [[-1.0]],
             "levy": {"jumps": {"kind": "symmetric_stable", "alpha": 1.5, "scale": 0.5,
                                "structure": "independent"}}},
        ),
        "15ccd61d4654c4b9",
    ),
    "ou_jump-stable_subordinator": (
        _family_config(
            {"family": "ou_jump", "H": [[-2.0]],
             "levy": {"b_L": [-0.5], "jumps": {"kind": "stable_subordinator", "alpha": 0.5}}},
        ),
        "5e7ac254e166f3fb",
    ),
    "piecewise_ou": (
        _family_config(
            {"family": "piecewise_ou", "l": [0.5, -0.5], "M": [[1.0, 0.0], [-0.5, 1.0]],
             "Gamma": [[0.5, 0.0], [0.0, 0.25]], "v": [0.6, 0.4],
             "sigma": [[0.3, 0.0], [0.1, 0.2]], "levy": {"b_L": [0.1, 0.0]}},
            x0=[1.0, 2.0], distance={"kind": "exact_lp"},
        ),
        "6661f5a310d1d4b8",
    ),
    "backward_recurrence": (
        _family_config(
            {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
            x0=[0.0], t_grid=[1.0, 10.0, 100.0, 1000.0],
            reference={"kind": "exact_invariant"}, rate_model="polynomial",
        ),
        "142deba25d65a4d8",
    ),
    "langevin-2d": (
        _family_config(
            {"family": "langevin", "alpha": 0.2, "beta": 0.1, "dim": 2},
            x0=[1.0, -1.0], distance={"kind": "sinkhorn", "epsilon": 0.05}, p=2.0,
        ),
        "5d6477c04b7df4d0",
    ),
}


@pytest.mark.parametrize("name", list(FAMILY_CONFIGS))
def test_config_round_trip_per_family(name):
    data, pinned_hash = FAMILY_CONFIGS[name]
    cfg = parse_experiment_config(data)
    first = config_to_dict(cfg)
    again = parse_experiment_config(first)
    assert config_to_dict(again) == first
    assert config_hash(cfg) == config_hash(again) == pinned_hash


def test_schema_keys_follow_constructor_order():
    # the generic parse passes the keys of an entry positionally
    for _, entries in _SCHEMA.values():
        for entry in entries.values():
            if entry.build is None:
                names = [f.name for f in dataclasses.fields(entry.cls)]
                keys = [(key.attr or key.name).split(".")[0] for key in entry.keys]
                assert names[: len(keys)] == keys, entry.cls.__name__


def test_config_to_dict_refuses_specs_json_cannot_hold():
    from ergolab.processes import GenericIto, LevyMeasureSpec, MarkovControl, PiecewiseOU

    base = parse_experiment_config(_zero_noise_config())
    pw = base.process
    markov = PiecewiseOU(pw.l, pw.M, pw.Gamma, MarkovControl(lambda x: np.ones_like(x)),
                         None, pw.levy)
    state_sigma = PiecewiseOU(pw.l, pw.M, pw.Gamma, pw.control, lambda x: x, pw.levy)
    generic = GenericIto(b=None, sigma=None, levy=LevyMeasureSpec())
    for spec in (markov, state_sigma, generic):
        with pytest.raises(ConfigError):
            config_to_dict(dataclasses.replace(base, process=spec))


def test_config_schema_names_the_bad_key():
    bad = _zero_noise_config()
    bad["process"]["levy"] = {"jumps": {"kind": "symmetric_stable", "alpha": "wide"}}
    with pytest.raises(ConfigError, match=r"process\.levy\.jumps\.alpha"):
        parse_experiment_config(bad)
    bad["process"]["levy"] = {"jumps": {"kind": "stable_subordinator", "alpha": 0.5, "scale": 1}}
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_experiment_config(bad)


# ---------------------------------------------------------------------------
# distance dispatch
# ---------------------------------------------------------------------------


def test_distance_kinds_agree_in_one_dimension():
    rng = np.random.default_rng(12)
    mu = EmpiricalMeasure.from_samples(rng.normal(0.0, 1.0, 30))
    nu = EmpiricalMeasure.from_samples(rng.normal(0.5, 1.3, 30))
    d_quant = W1D().distance(mu, nu, 2.0)
    d_lp = ExactLP().distance(mu, nu, 2.0)
    assert abs(d_quant - d_lp) < 1e-9
    scale = max(np.ptp(mu.points), np.ptp(nu.points))
    d_sink = Sinkhorn(epsilon=1e-3 * scale**2).distance(mu, nu, 2.0)
    assert abs(d_sink - d_lp) / d_lp < 0.02


def test_kinds_state_their_facts():
    from scipy import special

    from ergolab.cli import ExactInvariant, LongRunEmpirical, _derive_seed
    from ergolab.processes import simulate, standard_one_sided_stable
    from ergolab.rates import LinearPhi, PowerPhi, TabulatedPhi
    from ergolab.subordination import (
        Custom, DriftOnly, Exponential, GammaSub, Polynomial, StableSub,
    )
    from ergolab.wasserstein import sinkhorn_annealed, w_1d, w_exact_lp

    # phi families: value, Phi, and the top of the range Phi^-1 bisects
    lin, power = LinearPhi(c_hat=0.5), PowerPhi(kappa=0.5, prefactor=2.0)
    tab = TabulatedPhi(grid=(1.0, 2.0, 4.0), values=(1.0, 1.5, 2.0))
    assert lin.value(3.0) == 0.5 * 3.0 and lin.big_phi(3.0) == math.log(3.0) / 0.5
    assert power.value(4.0) == 2.0 * 4.0**0.5
    assert power.big_phi(4.0) == (4.0**0.5 - 1.0) / (0.5 * 2.0)
    assert tab.value(3.0) == 1.75
    # int_1^2 ds / (1 + (s - 1)/2) = 2 log(3/2)
    assert tab.big_phi(2.0) == pytest.approx(2.0 * math.log(1.5), rel=1e-10)
    assert lin.inverse_bracket(lin.big_phi(5.0), 1e-10) == 8.0  # first 2^k past Phi^-1(u)
    assert tab.inverse_bracket(tab.big_phi(3.0), 1e-10) == 4.0  # the last node
    with pytest.raises(DomainError):
        tab.inverse_bracket(tab.big_phi(4.0) + 1.0, 1e-10)

    # subordinator kinds: Laplace exponent, increment draw, typical increment
    u, dt = np.array([0.5, 2.0]), 0.25
    stable, gamma, drift = StableSub(alpha=0.5), GammaSub(a=1.5, b_hat=2.0), DriftOnly()
    np.testing.assert_array_equal(stable.laplace_exponent(u), u**0.5)
    np.testing.assert_array_equal(gamma.laplace_exponent(u), 1.5 * np.log1p(u / 2.0))
    assert drift.laplace_exponent(u) == 0.0
    np.testing.assert_array_equal(
        stable.increment(dt, np.random.default_rng(3), 5),
        dt**2.0 * standard_one_sided_stable(0.5, np.random.default_rng(3), 5),
    )
    np.testing.assert_array_equal(
        gamma.increment(dt, np.random.default_rng(3), 5),
        np.random.default_rng(3).gamma(1.5 * dt, 1.0 / 2.0, 5),
    )
    np.testing.assert_array_equal(drift.increment(dt, np.random.default_rng(3), 5), np.zeros(5))
    assert stable.typical_increment(dt) == dt**2.0
    assert gamma.typical_increment(dt) == 1.5 * dt / 2.0
    assert drift.typical_increment(dt) == 0.0

    # rate profiles
    t = np.array([0.0, 1.5])
    np.testing.assert_array_equal(Exponential(gamma=0.7, scale=3.0).value(t), 3.0 * np.exp(-0.7 * t))
    np.testing.assert_array_equal(Polynomial(exponent=2.0, scale=5.0).value(t), 5.0 * (1.0 + t) ** -2.0)
    np.testing.assert_array_equal(Custom(fn=lambda s: 1.0 / (1.0 + s)).value(t), 1.0 / (1.0 + t))

    # distance kinds
    rng = np.random.default_rng(4)
    mu = EmpiricalMeasure.from_samples(rng.normal(0.0, 1.0, 16))
    nu = EmpiricalMeasure.from_samples(rng.normal(0.5, 1.0, 16))
    assert W1D().distance(mu, nu, 2.0) == w_1d(mu, nu, 2.0)
    assert ExactLP().distance(mu, nu, 2.0) == w_exact_lp(mu, nu, 2.0).distance
    res = sinkhorn_annealed(mu, nu, 2.0, 0.05, max_iter=20000, tol=2e-4)
    assert Sinkhorn(epsilon=0.05).distance(mu, nu, 2.0) == float(res.cost ** 0.5)

    # reference kinds: the measure and its independent redraw
    cfg = parse_experiment_config(
        _ou_config(n_paths=12, reference={"kind": "exact_invariant", "quantile_points": 64})
    )
    assert isinstance(cfg.reference, ExactInvariant) and cfg.reference.needs_invariant
    ref = cfg.reference.measure(cfg)
    quantiles = special.ndtri((np.arange(64) + 0.5) / 64) * cfg.process.invariant_sd()
    np.testing.assert_array_equal(ref.points[:, 0], quantiles)
    idx = np.random.default_rng(_derive_seed(cfg.seed, "noise-floor")).choice(
        64, size=12, p=ref.weights
    )
    np.testing.assert_array_equal(cfg.reference.redraw(cfg, ref).points, ref.points[idx])
    cfg = parse_experiment_config(
        _ou_config(n_paths=12, reference={"kind": "long_run_empirical", "t_burn": 1.0})
    )
    assert isinstance(cfg.reference, LongRunEmpirical) and not cfg.reference.needs_invariant
    ref = cfg.reference.measure(cfg)
    for got, tag in ((ref, "reference"), (cfg.reference.redraw(cfg, ref), "noise-floor")):
        seed = _derive_seed(cfg.seed, tag)
        batch = simulate(cfg.process, np.array(cfg.x0), np.array([0.0, 1.0]), 12, seed,
                         max_step=cfg.max_step)
        np.testing.assert_array_equal(got.points, batch.paths[:, -1, :])


def test_config_replace_checks_ranges():
    cfg = parse_experiment_config(_zero_noise_config())
    for bad in ({"n_paths": 0}, {"p": 0.5}, {"max_step": 0.0}):
        with pytest.raises(DomainError):
            dataclasses.replace(cfg, **bad)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_run_experiment_zero_noise_contraction(tmp_path, capsys):
    cfg = parse_experiment_config(_zero_noise_config())
    out1 = tmp_path / "run1"
    fit = run_experiment(cfg, out_dir=out1)
    captured = capsys.readouterr()
    assert "noise floor" in captured.out

    dt = 0.25 / 25
    expected_rate = -math.log(1.0 - dt) / dt
    assert abs(fit.rate - expected_rate) < 1e-6
    assert abs(fit.intercept - 2.0) < 1e-5
    assert fit.r_squared >= 1.0 - 1e-12

    rows = (out1 / "distances.csv").read_text().strip().splitlines()
    assert rows[0] == "time,distance"
    assert len(rows) == 17
    dists = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(dists) < 0.0)

    summary = json.loads((out1 / "summary.json").read_text())
    assert set(summary) == {"config_hash", "fit", "bracket", "noise_floor", "runtime_s"}
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["bracket"] is None
    # both long runs of a noiseless contraction hit the same point exactly
    assert summary["noise_floor"] == 0.0
    assert summary["fit"]["rate"] == fit.rate

    out2 = tmp_path / "run2"
    run_experiment(cfg, out_dir=out2)
    assert filecmp.cmp(out1 / "distances.csv", out2 / "distances.csv", shallow=False)


def test_run_experiment_ou_matches_gaussian_curve(tmp_path):
    cfg = parse_experiment_config(_ou_config())
    out = tmp_path / "ou"
    fit = run_experiment(cfg, out_dir=out)
    assert 0.9 <= fit.rate <= 1.08

    rows = (out / "distances.csv").read_text().strip().splitlines()[1:]
    times = np.array([float(r.split(",")[0]) for r in rows])
    dists = np.array([float(r.split(",")[1]) for r in rows])
    sig_inf = math.sqrt(0.5)
    closed = np.sqrt(
        (2.0 * np.exp(-times)) ** 2
        + (np.sqrt(0.5 * (1.0 - np.exp(-2.0 * times))) - sig_inf) ** 2
    )
    mask = times <= 3.0
    rel = np.abs(dists[mask] - closed[mask]) / closed[mask]
    assert np.max(rel) < 0.10

    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["noise_floor"] < 0.03


def test_run_experiment_chain_records_bracket(tmp_path):
    cfg = parse_experiment_config(
        {
            "process": {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
            "x0": [0.0],
            "t_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 32.0, 100.0],
            "n_paths": 3000,
            "seed": 4,
            "distance": {"kind": "w1d"},
            "p": 1.0,
            "reference": {"kind": "exact_invariant"},
            "rate_model": "polynomial",
            "bracket": [0.0, 4.9],
            "bracket_params": {"theta": 3.95, "vartheta": 2.95},
        }
    )
    out = tmp_path / "chain"
    fit = run_experiment(cfg, out_dir=out)
    assert -3.0 < fit.rate < -0.3
    assert fit.bracket == (0.0, 4.9)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bracket"]["lower_exponent"] == 0.0
    assert summary["bracket"]["upper_exponent"] == 4.9
    assert summary["bracket"]["params"] == {"theta": 3.95, "vartheta": 2.95}
    assert summary["noise_floor"] > 0.0


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_ratefit_roundtrip(tmp_path, capsys):
    times = np.geomspace(1.0, 100.0, 8)
    cfg = _write(
        tmp_path / "fit.json",
        {"times": times.tolist(), "values": (times**-2.0).tolist(), "model": "polynomial"},
    )
    assert main(["ratefit", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "rate" in captured.out
    assert "noise floor: not applicable" in captured.out
    result = json.loads((tmp_path / "ratefit.json").read_text())
    assert abs(result["rate"] - (-2.0)) < 1e-12
    assert result["model"] == "polynomial"


def test_cli_exit_codes(tmp_path):
    # validation failures exit 2
    assert main(["ratefit", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ratefit", "--config", str(bad)]) == 2
    sim_cfg = _write(
        tmp_path / "sim.json",
        {
            "process": {"family": "mystery"},
            "x0": [0.0],
            "t_grid": [0.0, 1.0],
            "n_paths": 2,
            "seed": 1,
        },
    )
    assert main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path)]) == 2
    # numerical / data failures exit 3
    degenerate = _write(
        tmp_path / "deg.json",
        {
            "times": [1.0, 2.0, 4.0, 8.0],
            "values": [1.0, 1.01, 0.99, 1.02],
            "model": "polynomial",
        },
    )
    assert main(["ratefit", "--config", degenerate, "--out-dir", str(tmp_path)]) == 3


_OU_1D = {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}}
_OU_2D = {"family": "ou_jump", "H": [[-1.0, 0.0], [0.0, -1.0]],
          "levy": {"a_L": [[1.0, 0.0], [0.0, 1.0]]}}
_SIMULATE = {"process": _OU_1D, "x0": [1.0], "t_grid": [0.0, 1.0], "n_paths": 4, "seed": 1}
_COUPLE = {"process": _OU_1D, "x": [1.0], "y": [0.0], "t_grid": [0.0, 1.0], "n_paths": 100,
           "seed": 1, "p": 2.0, "n_boot": 10}
_DRIFTCHECK = {
    "process": {"family": "langevin", "alpha": 0.2, "beta": 0.0, "dim": 1},
    "lyapunov": {"family": "poly_plus_one", "theta": 1.5},
    "phi": {"family": "power", "kappa": 0.5},
    "grid": [5.0, 10.0],
    "ball_radius": 2.0,
}
_CHAIN = {"family": "backward_recurrence", "alpha": 3.0, "i0": 5}


def _chain_config(**overrides):
    cfg = {
        "process": _CHAIN,
        "x0": [0.0],
        "t_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 32.0, 100.0, 316.0, 1000.0],
        "n_paths": 512,
        "seed": 11,
        "distance": {"kind": "w1d"},
        "p": 1.0,
        "reference": {"kind": "exact_invariant"},
        "rate_model": "polynomial",
    }
    cfg.update(overrides)
    return cfg


def _lower_config(**overrides):
    payload = {
        "process": {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
        "params": {
            "theta": 3.95,
            "vartheta": 2.95,
            "eps_var": 0.05,
            "eps_small": 0.45,
            "p": 1.0,
        },
        "c": 1.0,
        "b": 50.0,
        "x0": [0.0],
        "n_terms": 3,
        "s_grid": {"min": 1e4, "max": 1e5, "points": 200},
    }
    payload.update(overrides)
    return payload


_PIECEWISE_2D = {"family": "piecewise_ou", "l": [1.0, 1.0], "M": [[1.0, 0.0], [0.0, 1.0]],
                 "Gamma": [[1.0, 0.0], [0.0, 1.0]], "v": [0.5, 0.5],
                 "sigma": [[0.5, 0.0], [0.0, 0.5]], "levy": {}}
_RATEFIT = {"times": [1.0, 2.0, 4.0, 8.0], "values": [1.0, 0.25, 0.0625, 0.015625],
            "model": "polynomial"}
_SUBORDINATE = {"rate": {"kind": "exponential", "gamma": 1.0}, "p": 1.0,
                "subordinator": {"kind": "gamma", "a": 1.0, "b_hat": 1.0}, "t": [1.0],
                "n_mc": 10, "seed": 1}

MALFORMED = {
    "simulate-x0-text": ("simulate", {**_SIMULATE, "x0": ["a"]}),
    "simulate-x0-too-long": ("simulate", {**_SIMULATE, "x0": [1.0, 2.0]}),
    "simulate-x0-too-short": ("simulate", {**_SIMULATE, "process": _OU_2D}),
    "experiment-x0-too-long": (
        "experiment",
        _ou_config(x0=[1.0, 2.0], n_paths=8, reference={"kind": "exact_invariant",
                                                         "quantile_points": 16}),
    ),
    "couple-x-too-long": ("couple", {**_COUPLE, "x": [1.0, 2.0]}),
    "couple-y-too-short": ("couple", {**_COUPLE, "process": _OU_2D, "x": [1.0, 0.0]}),
    "subordinate-t-text": ("subordinate", {**_SUBORDINATE, "t": ["x"]}),
    "driftcheck-grid-text": ("driftcheck", {**_DRIFTCHECK, "grid": ["a"]}),
    "driftcheck-grid-no-points": (
        "driftcheck", {**_DRIFTCHECK, "grid": {"lo": 1.0, "hi": 2.0, "points": 0}}
    ),
    "ratefit-times-text": ("ratefit", {**_RATEFIT, "times": ["a", 2.0, 4.0, 8.0]}),
    "ratefit-bracket-short": ("ratefit", {**_RATEFIT, "bracket": [1]}),
    "simulate-chain-x0-negative": ("simulate", {**_SIMULATE, "process": _CHAIN, "x0": [-1.0]}),
    "experiment-chain-x0-fraction": (
        "experiment", _chain_config(x0=[2.5], n_paths=64, t_grid=[1.0, 2.0, 4.0, 8.0, 16.0])
    ),
    "lower-chain-x0-negative": ("lower", _lower_config(x0=[-1.0])),
    "driftcheck-grid-1d-on-2d": (
        "driftcheck",
        {**_DRIFTCHECK, "process": {"family": "langevin", "alpha": 0.2, "beta": 0.0, "dim": 2}},
    ),
    "couple-certificate-q-1x1-on-2d": (
        "couple",
        {**_COUPLE, "process": _PIECEWISE_2D, "x": [1.0, 0.0], "y": [0.0, 1.0],
         "certificate": {"lip_sqrtq_sigma": 0.0, "Q": [[1.0]]}},
    ),
    "lower-s-grid-min-zero": (
        "lower", _lower_config(s_grid={"min": 0.0, "max": 1e4, "points": 5})
    ),
    "lower-s-grid-points-negative": (
        "lower", _lower_config(s_grid={"min": 1e4, "max": 1e5, "points": -1})
    ),
    "couple-n-boot-zero": ("couple", {**_COUPLE, "n_boot": 0}),
    "couple-n-boot-one": ("couple", {**_COUPLE, "n_boot": 1}),
    "couple-n-boot-huge": ("couple", {**_COUPLE, "n_boot": 10**12}),
    "lower-s-grid-points-huge": (
        "lower", _lower_config(s_grid={"min": 1e4, "max": 1e5, "points": 10**12})
    ),
    "experiment-n-paths-huge": (
        "experiment",
        _ou_config(n_paths=10**12, reference={"kind": "exact_invariant", "quantile_points": 16}),
    ),
    # 20,000 paths against the default 65,536 quantiles
    "experiment-sinkhorn-cost-matrix-too-large": (
        "experiment",
        _ou_config(distance={"kind": "sinkhorn", "epsilon": 0.1},
                   reference={"kind": "exact_invariant"}),
    ),
    "experiment-exact-lp-cost-matrix-too-large": (
        "experiment",
        _ou_config(n_paths=200, distance={"kind": "exact_lp"},
                   reference={"kind": "exact_invariant", "quantile_points": 64}),
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_cli_malformed_values_exit_2(name, tmp_path, capsys):
    command, payload = MALFORMED[name]
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_refuses_a_cost_matrix_above_the_budget():
    # cells are n_paths x the reference's atoms: quantile_points, or n_paths
    # for a long-run reference; the largest that fits still parses
    cases = [
        ({"kind": "sinkhorn", "epsilon": 0.1}, 2048,
         {"kind": "exact_invariant", "quantile_points": 2048}),
        ({"kind": "sinkhorn", "epsilon": 0.1}, 2048,
         {"kind": "long_run_empirical", "t_burn": 1.0}),
        ({"kind": "exact_lp"}, 100, {"kind": "exact_invariant", "quantile_points": 100}),
        ({"kind": "exact_lp"}, 100, {"kind": "long_run_empirical", "t_burn": 1.0}),
    ]
    for distance, n_paths, reference in cases:
        parse_experiment_config(
            _ou_config(distance=distance, n_paths=n_paths, reference=reference)
        )
        with pytest.raises(SizeError):
            parse_experiment_config(
                _ou_config(distance=distance, n_paths=n_paths + 1, reference=reference)
            )
    # w1d forms no cost matrix
    parse_experiment_config(_ou_config(n_paths=10**5, reference={"kind": "exact_invariant"}))


def test_cli_simulate_writes_deterministic_csv(tmp_path):
    cfg = _write(
        tmp_path / "sim.json",
        {
            "process": {
                "family": "piecewise_ou",
                "l": [-1.0],
                "M": [[1.0]],
                "Gamma": [[0.0]],
                "v": [1.0],
                "sigma": None,
                "levy": {},
            },
            "x0": [-3.0],
            "t_grid": [0.0, 1.0, 2.0],
            "n_paths": 4,
            "seed": 1,
            "max_step": 0.05,
        },
    )
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert main(["simulate", "--config", cfg, "--out-dir", str(d1)]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", str(d2)]) == 0
    lines = (d1 / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0].startswith("path,time")
    assert len(lines) == 1 + 4 * 3
    assert filecmp.cmp(d1 / "trajectories.csv", d2 / "trajectories.csv", shallow=False)


def test_cli_simulate_refuses_csv_cap_before_simulating(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulate must not run for a batch the CSV cannot hold")

    monkeypatch.setattr("ergolab.cli.simulate", never)
    cfg = _write(
        tmp_path / "big.json",
        {
            "process": {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}},
            "x0": [0.0],
            "t_grid": {"start": 0.0, "stop": 1.0, "points": 1001},
            "n_paths": 2000,
            "seed": 1,
        },
    )
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "trajectories.csv").exists()


def test_cli_wdist_seed_override(tmp_path, capsys):
    payload = _ou_config(
        n_paths=300,
        t_grid=[0.5, 1.0, 1.5, 2.0],
        reference={"kind": "exact_invariant", "quantile_points": 256},
    )
    del payload["rate_model"]  # optional for wdist
    cfg = _write(tmp_path / "w.json", payload)
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (d1, d2, d3):
        d.mkdir()
    assert main(["wdist", "--config", cfg, "--out-dir", str(d1)]) == 0
    assert "noise floor" in capsys.readouterr().out
    assert main(["wdist", "--config", cfg, "--out-dir", str(d2)]) == 0
    assert filecmp.cmp(d1 / "wdist.csv", d2 / "wdist.csv", shallow=False)
    assert main(["wdist", "--config", cfg, "--seed", "123", "--out-dir", str(d3)]) == 0
    assert (d1 / "wdist.csv").read_bytes() != (d3 / "wdist.csv").read_bytes()
    rows = (d1 / "wdist.csv").read_text().strip().splitlines()
    assert rows[0] == "time,distance"
    assert len(rows) == 5


def test_cli_driftcheck(tmp_path, capsys):
    cfg = _write(
        tmp_path / "drift.json",
        {
            "process": {"family": "langevin", "alpha": 0.2, "beta": 0.0, "dim": 1},
            "lyapunov": {"family": "poly_plus_one", "theta": 1.5},
            "phi": {"family": "power", "kappa": 0.3333333333333333, "prefactor": 0.5},
            "grid": {"lo": -30.0, "hi": 30.0, "points": 31},
            "ball_radius": 2.0,
        },
    )
    assert main(["driftcheck", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "worst margin" in out
    rows = (tmp_path / "driftcheck.csv").read_text().strip().splitlines()
    assert len(rows) == 32


def test_cli_driftcheck_piecewise_ou(tmp_path, capsys):
    # the generator comes from the spec: drift, sigma sigma' and the jumps
    cfg = _write(
        tmp_path / "drift.json",
        {
            "process": {
                "family": "piecewise_ou",
                "l": [0.0],
                "M": [[1.0]],
                "Gamma": [[1.0]],
                "v": [1.0],
                "sigma": [[0.5]],
                "levy": {
                    "jumps": {
                        "kind": "compound_poisson",
                        "rate": 1.0,
                        "atoms": [[1.0], [-1.0]],
                        "probs": [0.5, 0.5],
                    }
                },
            },
            "lyapunov": {"family": "poly_plus_one", "theta": 2.0},
            "phi": {"family": "linear", "c_hat": 1.0},
            "grid": [-20.0, -5.0, 0.0, 5.0, 20.0],
            "ball_radius": 3.0,
        },
    )
    assert main(["driftcheck", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert "certified" in capsys.readouterr().out
    rows = [r.split(",") for r in (tmp_path / "driftcheck.csv").read_text().strip().splitlines()]
    # L(1 + x^2) = -2x^2 + sigma^2 + rate * E[Y^2] = 1.25 - 2x^2 with chi_Q(x) = |x|
    # outside the unit ball
    assert float(rows[5][2]) == pytest.approx(1.25 - 2.0 * 400.0, rel=1e-12)
    chain = _write(
        tmp_path / "chain.json",
        {
            "process": {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
            "lyapunov": {"family": "poly_plus_one", "theta": 2.0},
            "phi": {"family": "linear", "c_hat": 1.0},
            "grid": [0.0, 1.0],
            "ball_radius": 3.0,
        },
    )
    assert main(["driftcheck", "--config", chain, "--out-dir", str(tmp_path)]) == 2


def test_cli_couple_reports_contraction(tmp_path, capsys):
    base = {
        "process": {
            "family": "piecewise_ou",
            "l": [1.0],
            "M": [[1.0]],
            "Gamma": [[1.0]],
            "v": [1.0],
            "sigma": [[0.5]],
            "levy": {
                "jumps": {
                    "kind": "compound_poisson",
                    "rate": 1.0,
                    "atoms": [[1.0], [-1.0]],
                    "probs": [0.5, 0.5],
                }
            },
        },
        "x": [4.0],
        "y": [-2.0],
        "t_grid": [0.0, 0.5, 1.0],
        "n_paths": 120,
        "seed": 2,
        "p": 2.0,
        "max_step": 0.05,
        "certificate": {"lip_sqrtq_sigma": 0.0},
    }
    cfg = _write(tmp_path / "couple.json", base)
    assert main(["couple", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "c(p)" in out
    rows = (tmp_path / "couple.csv").read_text().strip().splitlines()
    assert rows[0] == "time,moment,ci_lo,ci_hi,envelope"
    assert len(rows) == 4
    # a huge sigma Lipschitz bound destroys the certificate: exit 3
    base["certificate"] = {"lip_sqrtq_sigma": 50.0}
    cfg_bad = _write(tmp_path / "couple_bad.json", base)
    assert main(["couple", "--config", cfg_bad, "--out-dir", str(tmp_path)]) == 3


def test_cli_lower_bound_curve(tmp_path):
    payload = {
        "process": {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
        "truncation": 65536,
        "params": {
            "theta": 3.95,
            "vartheta": 2.95,
            "eps_var": 0.05,
            "eps_small": 0.45,
            "p": 1.0,
        },
        "c": 1.0,
        "b": 50.0,
        "x0": [0.0],
        "n_terms": 3,
        "s_grid": {"min": 1e4, "max": 1e6, "points": 200},
    }
    cfg = _write(tmp_path / "lower.json", payload)
    assert main(["lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "lower.csv").read_text().strip().splitlines()
    assert rows[0] == "n,s_n,t_n,bound"
    assert len(rows) == 4
    bounds = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(b > 0.0 for b in bounds)
    # a grid of tiny levels fails the tail inequality: exit 3
    payload["s_grid"] = {"min": 2.0, "max": 10.0, "points": 5}
    cfg_bad = _write(tmp_path / "lower_bad.json", payload)
    assert main(["lower", "--config", cfg_bad, "--out-dir", str(tmp_path)]) == 3


def test_cli_lower_auto_truncation_reaches_the_levels(tmp_path):
    auto, explicit = tmp_path / "auto", tmp_path / "explicit"
    auto.mkdir(), explicit.mkdir()
    cfg = _write(tmp_path / "auto.json", _lower_config(truncation="auto"))
    assert main(["lower", "--config", cfg, "--out-dir", str(auto)]) == 0
    # levels up to 1e5: the doubling starts at 2^17 = 131072, where the tail test passes
    cfg = _write(tmp_path / "explicit.json", _lower_config(truncation=131072))
    assert main(["lower", "--config", cfg, "--out-dir", str(explicit)]) == 0
    assert (auto / "lower.csv").read_bytes() == (explicit / "lower.csv").read_bytes()
    # levels beyond 2^22 states would need a larger table than the cap allows
    cfg = _write(tmp_path / "far.json", _lower_config(s_grid=[1e4, 1e7]))
    assert main(["lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 2


def test_cli_lower_refuses_truncation_above_the_cap(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("invariant_exact must not run for a truncation above the cap")

    monkeypatch.setattr("ergolab.cli.invariant_exact", never)
    cfg = _write(tmp_path / "huge.json", _lower_config(truncation=2**30))
    assert main(["lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "lower.csv").exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_chain_outputs_are_pinned(tmp_path):
    # digests of the artifacts as the float-state recursion and the
    # per-truncation series computed them
    cfg = _write(tmp_path / "experiment.json", _chain_config())
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "distances.csv") == (
        "f11f9c76c9a867af11fc53e28c1527ef7643e8a762461f2b604b6df94688f658"
    )
    cfg = _write(tmp_path / "lower.json", _lower_config(truncation=65536))
    assert main(["lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "lower.csv") == (
        "256a5c219fcc36f26c42cd74be055b559e0073a3c4278d2b4645ccd09e364adc"
    )


def test_chain_invariant_doubles_to_the_first_passing_truncation():
    spec = BackwardRecurrence(alpha=3.0, i0=5)
    # 1024, 2048 and 4096 leave too much tail mass for alpha = 3
    law, direct = _chain_invariant(spec), invariant_exact(spec, 8192)
    assert np.array_equal(law.points, direct.points)
    assert np.array_equal(law.weights, direct.weights)


def test_cli_subordinate(tmp_path):
    cfg = _write(
        tmp_path / "sub.json",
        {
            "rate": {"kind": "exponential", "gamma": 1.0},
            "p": 1.0,
            "subordinator": {"kind": "stable", "alpha": 0.5},
            "t": [1.0, 2.0],
            "n_mc": 2000,
            "seed": 7,
        },
    )
    assert main(["subordinate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "subordinate.csv").read_text().strip().splitlines()
    assert rows[0] == "t,value,ci_lo,ci_hi,se"
    assert len(rows) == 3
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    # E[e^{-S_t}] = e^{-t * 1^(1/2)} = e^{-t} under a 1/2-stable clock
    for t, v in zip([1.0, 2.0], vals):
        assert abs(v - math.exp(-t)) / math.exp(-t) < 0.1


def test_cli_module_entry_point(tmp_path):
    times = np.linspace(0.0, 5.0, 6)
    cfg = _write(
        tmp_path / "fit.json",
        {
            "times": times.tolist(),
            "values": (4.0 * np.exp(-1.1 * times)).tolist(),
            "model": "exponential",
        },
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab", "ratefit", "--config", cfg, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "ratefit.json").read_text())
    assert abs(result["rate"] - 1.1) < 1e-10
