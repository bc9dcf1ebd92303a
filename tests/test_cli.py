"""Tests for the experiment driver and command-line interface."""

import dataclasses
import filecmp
import hashlib
import json
import math
import shutil
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from ergolab import cli, rates
from ergolab.cli import (
    _HANDLERS,
    _REQUIRED,
    _SCHEMA,
    ExactLP,
    ExperimentConfig,
    RateFit,
    Sinkhorn,
    W1D,
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
    with pytest.raises(ConfigError):
        fit_rate(good_t.reshape(2, 2), good_v.reshape(2, 2), "polynomial")


def test_cli_fits_with_the_rates_fitter():
    # one fitter: the benchmark's tracer and the tests hook it by this name
    assert cli.fit_rate is rates.fit_rate
    assert cli.RateFit is rates.RateFit


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
    polynomial = parse_experiment_config(
        _ou_config(t_grid={"start": 10.0, "stop": 1000.0, "points": 5}, rate_model="polynomial")
    )
    np.testing.assert_allclose(polynomial.t_grid, np.geomspace(10.0, 1000.0, 5))
    explicit = parse_experiment_config(
        _zero_noise_config(t_grid={"start": 1.0, "stop": 4.0, "points": 4, "kind": "geometric"})
    )
    np.testing.assert_allclose(explicit.t_grid, np.geomspace(1.0, 4.0, 4))


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


# one config per process family and jump kind, with its config_hash: the
# sha256 of the canonical form the hand-written parser and serialiser gave,
# less the since-deleted keys outputs, bracket and bracket_params
FAMILY_CONFIGS = {
    "ou_jump-none": (
        _family_config(
            {"family": "ou_jump", "H": [[-1.0]],
             "levy": {"a_L": [[1.0]], "jumps": {"kind": "none"}}},
            reference={"kind": "exact_invariant", "quantile_points": 128},
        ),
        "680276d1a55cfd66",
    ),
    "ou_jump-compound_poisson-2d": (
        _family_config(
            {"family": "ou_jump", "H": [[-1.0, 0.2], [0.0, -2.0]],
             "levy": {"jumps": {"kind": "compound_poisson", "rate": 1.5,
                                "atoms": [[1.0, 0.0], [0.0, -1.0]], "probs": [0.25, 0.75]}}},
            x0=[0.5, -0.5], distance={"kind": "exact_lp"},
        ),
        "6c1b23e6226bf2e1",
    ),
    "ou_jump-symmetric_stable": (
        _family_config(
            {"family": "ou_jump", "H": [[-1.0]],
             "levy": {"jumps": {"kind": "symmetric_stable", "alpha": 1.5, "scale": 0.5,
                                "structure": "independent"}}},
        ),
        "7c59d249732a747b",
    ),
    "ou_jump-stable_subordinator": (
        _family_config(
            {"family": "ou_jump", "H": [[-2.0]],
             "levy": {"b_L": [-0.5], "jumps": {"kind": "stable_subordinator", "alpha": 0.5}}},
        ),
        "31b811e97a9cc94c",
    ),
    "piecewise_ou": (
        _family_config(
            {"family": "piecewise_ou", "l": [0.5, -0.5], "M": [[1.0, 0.0], [-0.5, 1.0]],
             "Gamma": [[0.5, 0.0], [0.0, 0.25]], "v": [0.6, 0.4],
             "sigma": [[0.3, 0.0], [0.1, 0.2]], "levy": {"b_L": [0.1, 0.0]}},
            x0=[1.0, 2.0], distance={"kind": "exact_lp"},
        ),
        "81d166a18486ea21",
    ),
    "backward_recurrence": (
        _family_config(
            {"family": "backward_recurrence", "alpha": 3.0, "i0": 5},
            x0=[0.0], t_grid=[1.0, 10.0, 100.0, 1000.0],
            reference={"kind": "exact_invariant"}, rate_model="polynomial",
        ),
        "728f8da8a43aa821",
    ),
    "langevin-2d": (
        _family_config(
            {"family": "langevin", "alpha": 0.2, "beta": 0.1, "dim": 2},
            x0=[1.0, -1.0], distance={"kind": "sinkhorn", "epsilon": 0.05}, p=2.0,
        ),
        "ec9bb2908c064e57",
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
    # the generic parse passes the keys of an entry positionally; an entry
    # with no class reads into a record by key name, so has no order to keep
    for _, entries in _SCHEMA.values():
        for entry in entries.values():
            if entry.cls is not None and entry.build is None:
                names = [f.name for f in dataclasses.fields(entry.cls)]
                keys = [(key.attr or key.name).split(".")[0] for key in entry.keys]
                assert names[: len(keys)] == keys, entry.cls.__name__


def test_config_to_dict_refuses_specs_json_cannot_hold():
    from ergolab.processes import LevyMeasureSpec, PiecewiseOU
    from user_callables import GenericIto

    base = parse_experiment_config(_zero_noise_config())
    pw = base.process
    state_sigma = PiecewiseOU(pw.l, pw.M, pw.Gamma, pw.v, lambda x: x, pw.levy)
    generic = GenericIto(b=None, sigma=None, levy=LevyMeasureSpec())
    for spec in (state_sigma, generic):
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
    from ergolab.cli import ExactInvariant, LongRunEmpirical, _derive_seed
    from ergolab.processes import _normal_quantile, simulate, standard_one_sided_stable
    from ergolab.rates import LinearPhi, PowerPhi
    from ergolab.subordination import DriftOnly, Exponential, GammaSub, Polynomial, StableSub
    from ergolab.wasserstein import sinkhorn_annealed, w_1d, w_assignment

    # phi families: value, Phi, and Phi^-1 in closed form
    lin, power = LinearPhi(c_hat=0.5), PowerPhi(kappa=0.5, prefactor=2.0)
    assert lin.value(3.0) == 0.5 * 3.0 and lin.big_phi(3.0) == math.log(3.0) / 0.5
    assert power.value(4.0) == 2.0 * 4.0**0.5
    assert power.big_phi(4.0) == (4.0**0.5 - 1.0) / (0.5 * 2.0)
    for phi in (lin, power):
        for t in (1.5, 3.0, 1e4):
            assert phi.big_phi_inv(phi.big_phi(t)) == pytest.approx(t, rel=1e-12)

    # subordinator kinds: Laplace exponent and increment draw
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

    # rate profiles
    t = np.array([0.0, 1.5])
    np.testing.assert_array_equal(Exponential(gamma=0.7, scale=3.0).value(t), 3.0 * np.exp(-0.7 * t))
    np.testing.assert_array_equal(Polynomial(exponent=2.0, scale=5.0).value(t), 5.0 * (1.0 + t) ** -2.0)

    # distance kinds
    rng = np.random.default_rng(4)
    mu = EmpiricalMeasure.from_samples(rng.normal(0.0, 1.0, 16))
    nu = EmpiricalMeasure.from_samples(rng.normal(0.5, 1.0, 16))
    assert W1D().distance(mu, nu, 2.0) == w_1d(mu, nu, 2.0)
    assert ExactLP().distance(mu, nu, 2.0) == w_assignment(mu, nu, 2.0)
    assert [kind.equal_sizes for kind in (W1D, ExactLP, Sinkhorn)] == [False, True, False]
    res = sinkhorn_annealed(mu, nu, 2.0, 0.05, max_iter=20000, tol=2e-4)
    assert Sinkhorn(epsilon=0.05).distance(mu, nu, 2.0) == float(res.cost ** 0.5)

    # reference kinds: the atom count, the measure and its independent redraw
    for kind in (ExactInvariant, LongRunEmpirical):
        fields = {field.name for field in dataclasses.fields(kind)}
        public = {name for name in vars(kind) if not name.startswith("_")} - fields
        assert public == {"atoms", "measure", "redraw"}
    cfg = parse_experiment_config(
        _ou_config(n_paths=12, reference={"kind": "exact_invariant", "quantile_points": 64})
    )
    assert isinstance(cfg.reference, ExactInvariant) and cfg.reference.atoms(cfg) == 64
    ref = cfg.reference.measure(cfg)
    quantiles = _normal_quantile((np.arange(64) + 0.5) / 64) * cfg.process.invariant.sd
    np.testing.assert_array_equal(ref.points[:, 0], quantiles)
    idx = np.random.default_rng(_derive_seed(cfg.seed, "noise-floor")).choice(
        64, size=12, p=ref.weights
    )
    np.testing.assert_array_equal(cfg.reference.redraw(cfg, ref).points, ref.points[idx])
    cfg = parse_experiment_config(
        _ou_config(n_paths=12, reference={"kind": "long_run_empirical", "t_burn": 1.0})
    )
    assert isinstance(cfg.reference, LongRunEmpirical) and cfg.reference.atoms(cfg) == 12
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
    assert set(summary) == {"config_hash", "fit", "noise_floor", "runtime_s"}
    assert summary["config_hash"] == config_hash(cfg)
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


def test_run_experiment_chain_rate_range_and_noise_floor(tmp_path):
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
        }
    )
    out = tmp_path / "chain"
    fit = run_experiment(cfg, out_dir=out)
    assert -3.0 < fit.rate < -0.3
    summary = json.loads((out / "summary.json").read_text())
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


def test_cli_ratefit_overflowing_intercept_is_strict_json_null(tmp_path, capsys):
    times = [1000.0, 1001.0, 1002.0, 1003.0]
    values = [math.exp(-(t - 1000.0)) for t in times]
    cfg = _write(tmp_path / "fit.json", {"times": times, "values": values, "model": "exponential"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ratefit", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "intercept = inf" in captured.out

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    result = json.loads((tmp_path / "ratefit.json").read_text(), parse_constant=refuse)
    assert result["intercept"] is None
    assert abs(result["rate"] - 1.0) < 1e-12


def test_cli_ratefit_huge_times_fit_without_overflow(tmp_path, capsys):
    # squares of these times overflow; the values fall 200 decades over 3e200
    times = [1e200, 2e200, 3e200, 4e200]
    values = np.geomspace(1e-100, 1e-300, 4).tolist()
    cfg = _write(tmp_path / "fit.json", {"times": times, "values": values, "model": "exponential"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ratefit", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads((tmp_path / "ratefit.json").read_text())
    assert result["rate"] == pytest.approx(200.0 * math.log(10.0) / 3e200, rel=1e-12)
    assert result["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_cli_ratefit_values_wider_than_the_float_range_fit_without_overflow(tmp_path, capsys):
    # the largest value over the smallest is past the float range: the span
    # is inf, which passes the decade check, and the fit is a line in log-log
    times = [1.0, 2.0, 4.0, 8.0]
    values = [1e308, 1e300, 1e200, 1e-300]
    cfg = _write(tmp_path / "fit.json", {"times": times, "values": values, "model": "polynomial"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ratefit", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    result = json.loads((tmp_path / "ratefit.json").read_text())
    slope, _ = np.polyfit(np.log(times), np.log(values), 1)
    assert result["rate"] == pytest.approx(slope, rel=1e-12)


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
_STABLE_2D = {"family": "ou_jump", "H": [[-1.0, 0.0], [0.0, -1.0]],
              "levy": {"jumps": {"kind": "symmetric_stable", "alpha": 1.5}}}


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
    "driftcheck-grid-scalar": ("driftcheck", {**_DRIFTCHECK, "grid": 5.0}),
    "driftcheck-grid-no-points": (
        "driftcheck", {**_DRIFTCHECK, "grid": {"lo": 1.0, "hi": 2.0, "points": 0}}
    ),
    "ratefit-times-text": ("ratefit", {**_RATEFIT, "times": ["a", 2.0, 4.0, 8.0]}),
    # nested lists, which a flattening read would fit as four points
    "ratefit-times-values-nested": (
        "ratefit",
        {**_RATEFIT, "times": [[1.0, 2.0], [3.0, 4.0]], "values": [[1.0, 0.1], [0.01, 0.001]]},
    ),
    "ratefit-values-nested": (
        "ratefit", {**_RATEFIT, "values": [[1.0, 0.25], [0.0625, 0.015625]]}
    ),
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
    # 2,049 points a side against 2^22 cells
    "experiment-exact-lp-cost-matrix-too-large": (
        "experiment",
        _ou_config(n_paths=2049, distance={"kind": "exact_lp"},
                   reference={"kind": "exact_invariant", "quantile_points": 2049}),
    ),
    "experiment-quantile-points-huge": (
        "experiment",
        _ou_config(n_paths=8, reference={"kind": "exact_invariant", "quantile_points": 10**12}),
    ),
    "driftcheck-grid-points-huge": (
        "driftcheck", {**_DRIFTCHECK, "grid": {"lo": 1.0, "hi": 2.0, "points": 10**12}}
    ),
    "driftcheck-jump-mc-samples-huge": (
        "driftcheck",
        {**_DRIFTCHECK, "process": _STABLE_2D,
         "lyapunov": {"family": "poly_plus_one", "theta": 0.5},
         "grid": [[1.0, 2.0]], "jump_mc_samples": 10**12},
    ),
    # one point, so only the per-point batch, 1,000,001 x 2^2 values, is over its budget
    "driftcheck-jump-mc-samples-over-batch-budget": (
        "driftcheck",
        {**_DRIFTCHECK, "process": _STABLE_2D,
         "lyapunov": {"family": "poly_plus_one", "theta": 0.5},
         "grid": [[1.0, 2.0]], "jump_mc_samples": 1_000_001},
    ),
    "subordinate-n-mc-huge": ("subordinate", {**_SUBORDINATE, "n_mc": 10**12}),
    "ratefit-bracket-params-number": (
        "ratefit", {**_RATEFIT, "bracket": [-3, -1], "bracket_params": 5}
    ),
    # a part sized for another dimension than the 2-D process's
    "simulate-piecewise-v-1d-on-2d": (
        "simulate", {**_SIMULATE, "process": {**_PIECEWISE_2D, "v": [1.0]}, "x0": [1.0, 0.0]}
    ),
    "simulate-piecewise-sigma-1x1-on-2d": (
        "simulate",
        {**_SIMULATE, "process": {**_PIECEWISE_2D, "sigma": [[0.5]]}, "x0": [1.0, 0.0]},
    ),
    "simulate-piecewise-b-l-3d-on-2d": (
        "simulate",
        {**_SIMULATE, "process": {**_PIECEWISE_2D, "levy": {"b_L": [1.0, 1.0, 1.0]}},
         "x0": [1.0, 0.0]},
    ),
    "simulate-piecewise-a-l-1x1-on-2d": (
        "simulate",
        {**_SIMULATE, "process": {**_PIECEWISE_2D, "levy": {"a_L": [[1.0]]}}, "x0": [1.0, 0.0]},
    ),
    "simulate-ou-a-l-1x1-on-2d": (
        "simulate", {**_SIMULATE, "process": {**_OU_2D, "levy": {"a_L": [[1.0]]}}, "x0": [1.0, 0.0]}
    ),
    "simulate-ou-b-l-1d-on-2d": (
        "simulate", {**_SIMULATE, "process": {**_OU_2D, "levy": {"b_L": [1.0]}}, "x0": [1.0, 0.0]}
    ),
    "simulate-ou-atoms-1d-on-2d": (
        "simulate",
        {**_SIMULATE, "x0": [1.0, 0.0], "process": {**_OU_2D, "levy": {"jumps": {
            "kind": "compound_poisson", "rate": 1.0, "atoms": [[1.0], [-1.0]],
            "probs": [0.5, 0.5]}}}},
    ),
    # non-finite numbers, refused when the config is read
    "experiment-t-grid-nan": (
        "experiment",
        _ou_config(t_grid=[0.5, math.nan, 2.0], n_paths=8,
                   reference={"kind": "exact_invariant", "quantile_points": 16}),
    ),
    "simulate-compound-poisson-probs-nan": (
        "simulate",
        {**_SIMULATE, "process": {**_OU_1D, "levy": {"jumps": {
            "kind": "compound_poisson", "rate": 1.0, "atoms": [[1.0]], "probs": [math.nan]}}}},
    ),
    "couple-p-infinite": ("couple", {**_COUPLE, "p": math.inf}),
    "lower-lyapunov-exponent-nan": ("lower", _lower_config(lyapunov_exponent=math.nan)),
    "driftcheck-grid-lo-nan": (
        "driftcheck", {**_DRIFTCHECK, "grid": {"lo": math.nan, "hi": 2.0, "points": 3}}
    ),
    "subordinate-t-nan": ("subordinate", {**_SUBORDINATE, "t": [math.nan]}),
    # integers past the float range
    "subordinate-p-int-huge": ("subordinate", {**_SUBORDINATE, "p": 10**400}),
    "subordinate-t-int-huge": ("subordinate", {**_SUBORDINATE, "t": [10**400]}),
    "driftcheck-q-2x2-on-1d": (
        "driftcheck",
        {**_DRIFTCHECK, "process": _OU_1D,
         "lyapunov": {"family": "poly_plus_one", "theta": 1.0, "Q": [[2.0, 0.0], [0.0, 2.0]]}},
    ),
    # refused before the grid's 10^12 times are built
    "simulate-t-grid-points-huge": (
        "simulate", {**_SIMULATE, "t_grid": {"start": 0.0, "stop": 1.0, "points": 10**12}}
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_cli_malformed_values_exit_2(name, tmp_path, capsys):
    command, payload = MALFORMED[name]
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


# step plans above their budgets, refused before anything is simulated
MALFORMED_PLANS = {
    # 8 x 10^12 chain steps, and 10^12 for one path
    "experiment-chain-horizon-huge": (
        "experiment", _chain_config(n_paths=8, t_grid=[1.0, 1e12])
    ),
    "simulate-chain-horizon-huge": (
        "simulate", {**_SIMULATE, "process": _CHAIN, "x0": [0.0], "t_grid": [0.0, 1e12]}
    ),
    # 10^9 steps fit the path-step budget, but not their 2 x 10^9-float step table
    "simulate-chain-step-table-too-large": (
        "simulate",
        {**_SIMULATE, "process": _CHAIN, "x0": [0.0], "t_grid": [0.0, 1e9], "n_paths": 1},
    ),
    # a polynomial rate model's default geometric grid has non-integer times,
    # which the chain's step plan refuses
    "experiment-chain-geometric-grid": (
        "experiment", _chain_config(t_grid={"start": 10, "stop": 1000, "points": 5})
    ),
    # 8 x 10^12 substeps per path on an 8-unit grid
    "experiment-max-step-tiny": (
        "experiment",
        _ou_config(n_paths=8, t_grid=[1.0, 2.0, 4.0, 8.0], max_step=1e-12,
                   reference={"kind": "exact_invariant", "quantile_points": 16}),
    ),
    "couple-max-step-tiny": ("couple", {**_COUPLE, "max_step": 1e-12}),
    # the curve's 2 x 10^8 path steps fit; the reference's 10^12 do not
    "experiment-long-run-reference-max-step-tiny": (
        "experiment",
        _ou_config(n_paths=100, t_grid=[0.5, 1.0, 1.5, 2.0], max_step=1e-6,
                   reference={"kind": "long_run_empirical", "t_burn": 1e4}),
    ),
    # configs the estimate or the distance cannot use, refused before the
    # paths are simulated rather than after
    "couple-p-below-one": ("couple", {**_COUPLE, "p": 0.5}),
    "couple-n-boot-one-before-simulating": ("couple", {**_COUPLE, "n_boot": 1}),
    "couple-n-paths-below-100": ("couple", {**_COUPLE, "n_paths": 99}),
    "experiment-w1d-on-2d": (
        "experiment",
        _ou_config(process=_OU_2D, x0=[1.0, 0.0], n_paths=100,
                   reference={"kind": "long_run_empirical", "t_burn": 1.0}),
    ),
    "experiment-no-fit-w1d-on-2d": (
        "experiment",
        _ou_config(process=_OU_2D, x0=[1.0, 0.0], n_paths=100, rate_model=None,
                   reference={"kind": "long_run_empirical", "t_burn": 1.0}),
    ),
    # the pair starts at the first grid time, a certificate's envelope at t = 0
    "couple-grid-starts-after-zero": (
        "couple",
        {**_COUPLE, "process": _PIECEWISE_2D, "x": [1.0, 0.0], "y": [0.0, 1.0],
         "t_grid": {"start": 1.0, "stop": 4.0, "points": 7},
         "certificate": {"lip_sqrtq_sigma": 0.0}},
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED_PLANS))
def test_cli_step_plan_above_budget_exits_2(name, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a step plan out of bounds must be refused before anything is built")

    monkeypatch.setattr("ergolab.cli.simulate", never)
    monkeypatch.setattr("ergolab.coupling.simulate", never)
    monkeypatch.setattr("ergolab.cli.invariant_exact", never)
    command, payload = MALFORMED_PLANS[name]
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


# one accepted config per subcommand
COMMAND_CONFIGS = {
    "simulate": _SIMULATE,
    "experiment": _ou_config(
        n_paths=64, reference={"kind": "exact_invariant", "quantile_points": 64}
    ),
    "driftcheck": _DRIFTCHECK,
    "couple": _COUPLE,
    "lower": _lower_config(),
    "subordinate": _SUBORDINATE,
    "ratefit": _RATEFIT,
}


def test_every_subcommand_reads_its_config_through_a_schema_group(tmp_path, capsys):
    assert set(COMMAND_CONFIGS) == set(_HANDLERS)
    for command, (_, group, _) in _HANDLERS.items():
        tag_key, entries = _SCHEMA[group]
        assert tag_key is None
        assert set(COMMAND_CONFIGS[command]) <= {key.name for key in entries[None].keys}
        cfg = _write(tmp_path / "cfg.json", {**COMMAND_CONFIGS[command], "unlisted": 1})
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"{group} has unknown keys: ['unlisted']" in capsys.readouterr().err


def _run_outputs(command, payload, tmp_path, capsys):
    """Exit code, stdout and artifacts of one run (summary.json without its runtime)."""
    out = tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    code = main([command, "--config", _write(tmp_path / "cfg.json", payload), "--out-dir", str(out)])
    artifacts = {}
    for path in sorted(out.iterdir()):
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            summary.pop("runtime_s")
            artifacts[path.name] = summary
        else:
            artifacts[path.name] = path.read_bytes()
    return code, capsys.readouterr().out, artifacts


# keys the schema no longer has: a config that still holds one is refused by name
DELETED_KEYS = {
    "experiment-bracket": ("experiment", "bracket", [0.0, 4.9]),
    "experiment-bracket-params": ("experiment", "bracket_params", {"theta": 3.95}),
    "experiment-outputs": ("experiment", "outputs", "out"),
    "ratefit-bracket-params": ("ratefit", "bracket_params", {"theta": 3.95}),
    # the observable of the chain's bound is X itself, whose Lipschitz constant is 1
    "lower-lipschitz": ("lower", "lipschitz", 0.1),
}


@pytest.mark.parametrize("name", list(DELETED_KEYS))
def test_deleted_key_exits_2_and_is_named(name, tmp_path, capsys):
    command, key, value = DELETED_KEYS[name]
    cfg = _write(tmp_path / "cfg.json", {**COMMAND_CONFIGS[command], key: value})
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert f"has unknown keys: [{key!r}]" in capsys.readouterr().err


def test_seed_flag_only_where_the_config_has_a_seed(tmp_path, capsys):
    # lower and ratefit have no seed, so they take no --seed either
    seedless = set()
    for command, (_, group, _) in _HANDLERS.items():
        has_seed = "seed" in {key.name for key in _SCHEMA[group][1][None].keys}
        cfg = _write(tmp_path / "cfg.json", COMMAND_CONFIGS[command])
        code = main([command, "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        if has_seed:
            assert code == 0, command
        else:
            seedless.add(command)
            assert code == 2, command
            assert "unrecognized arguments: --seed 1" in err
    assert seedless == {"lower", "ratefit"}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_null_selects_the_default_of_every_optional_key(command, tmp_path, capsys):
    _, group, _ = _HANDLERS[command]
    keys = _SCHEMA[group][1][None].keys
    optional = [key.name for key in keys if key.default is not _REQUIRED]
    assert optional or command == "ratefit"  # every ratefit key is required
    base = {k: v for k, v in COMMAND_CONFIGS[command].items() if k not in optional}
    absent = _run_outputs(command, base, tmp_path, capsys)
    assert absent[0] == 0
    for name in optional:
        assert _run_outputs(command, {**base, name: None}, tmp_path, capsys) == absent, name


def test_config_refuses_a_cost_matrix_above_the_budget():
    # cells are n_paths x the reference's atoms: quantile_points, or n_paths
    # for a long-run reference; 2,048 points a side fits 2^22 cells and
    # parses, 2,049 does not (exact_lp pairs equal sizes, so both grow)
    sinkhorn, exact_lp = {"kind": "sinkhorn", "epsilon": 0.1}, {"kind": "exact_lp"}
    for distance in (sinkhorn, exact_lp):
        for n in (2048, 2049):
            for reference in ({"kind": "exact_invariant", "quantile_points": n},
                              {"kind": "long_run_empirical", "t_burn": 1.0}):
                payload = _ou_config(distance=distance, n_paths=n, reference=reference)
                if n == 2048:
                    parse_experiment_config(payload)
                else:
                    with pytest.raises(SizeError):
                        parse_experiment_config(payload)
    with pytest.raises(SizeError):
        parse_experiment_config(_ou_config(
            distance=sinkhorn, n_paths=2049,
            reference={"kind": "exact_invariant", "quantile_points": 2048},
        ))
    # the chain's table holds 8,193 states at alpha = 3, i0 = 5: 511 x 8,193 <= 2^22
    sinkhorn = {"kind": "sinkhorn", "epsilon": 0.1}
    parse_experiment_config(_chain_config(distance=sinkhorn, n_paths=511))
    with pytest.raises(SizeError):
        parse_experiment_config(_chain_config(distance=sinkhorn, n_paths=512))
    # w1d forms no cost matrix
    parse_experiment_config(_ou_config(n_paths=10**5, reference={"kind": "exact_invariant"}))


def test_couple_budgets_its_two_separation_tables_whatever_the_dimension(
    tmp_path, capsys, monkeypatch
):
    # the pair holds an n_paths x grid-times table of separations and the
    # estimate a second, of their p-th powers, in any dimension: 2 x 13 x
    # 1,923,076 values fit the 50,000,000-value budget (a 2-D pair's path
    # blocks would hold twice that), and one path more, a table of
    # 25,000,001 values, exits 2 before anything is simulated
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr("ergolab.coupling.simulate", reached)
    payload = {**_COUPLE, "process": _PIECEWISE_2D, "x": [1.0, 0.0], "y": [0.0, 1.0],
               "t_grid": [0.25 * k for k in range(13)], "max_step": 0.25}
    cfg = _write(tmp_path / "at.json", {**payload, "n_paths": 1_923_076})
    with pytest.raises(Reached):
        main(["couple", "--config", cfg, "--out-dir", str(tmp_path)])
    cfg = _write(tmp_path / "over.json", {**payload, "n_paths": 1_923_077})
    assert main(["couple", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "the two separation tables would hold 50,000,002 elements" in capsys.readouterr().err


def test_cli_chain_reference_above_budget_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    # at alpha = 1.5 the tail falls below 1e-12 only past 1.6e7 states, above
    # the 10^7 reference atoms; the table size is known when the config is read
    def never(*args, **kwargs):
        raise AssertionError("an oversized reference must be refused before anything is built")

    monkeypatch.setattr("ergolab.cli.simulate", never)
    monkeypatch.setattr("ergolab.cli.invariant_exact", never)
    payload = _chain_config(process={"family": "backward_recurrence", "alpha": 1.5, "i0": 3})
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "reference table" in capsys.readouterr().err


def test_exact_lp_refuses_unequal_sizes_when_the_config_is_read(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("unequal sizes must be refused before anything is built")

    monkeypatch.setattr("ergolab.cli.simulate", never)
    monkeypatch.setattr("ergolab.cli.invariant_exact", never)
    payload = _ou_config(n_paths=16, distance={"kind": "exact_lp"},
                         reference={"kind": "exact_invariant", "quantile_points": 32})
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "pairs measures of equal size" in err and "16" in err and "32" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_exact_lp_refuses_a_weighted_chain_reference_before_walking(tmp_path, capsys, monkeypatch):
    # alpha = 4, i0 = 6 tabulates 1,025 states, so 1,025 paths match its size
    # but not its weights; the noise floor meets them first, before any walk
    def never(*args, **kwargs):
        raise AssertionError("a weighted reference must be refused before any path is walked")

    monkeypatch.setattr("ergolab.cli.simulate", never)
    chain = {"family": "backward_recurrence", "alpha": 4.0, "i0": 6}
    payload = _chain_config(process=chain, n_paths=1025, distance={"kind": "exact_lp"})
    parsed = parse_experiment_config(payload)
    assert parsed.reference.atoms(parsed) == 1025
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "uniform" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


# the tiny ou-sinkhorn workload: 16 paths on 16 Gaussian quantiles, seed 1
_OU_TINY = _ou_config(
    t_grid=np.linspace(0.5, 3.0, 6).tolist(), n_paths=16, seed=1,
    reference={"kind": "exact_invariant", "quantile_points": 16}, max_step=0.5,
)


def test_sinkhorn_never_undercuts_exact_lp_on_the_same_samples(tmp_path, capsys):
    # Sinkhorn's value is the cost of a feasible plan, so it bounds the
    # exact distance of the same samples from above, at every grid time and
    # for the noise floor
    runs = {}
    for name, distance in (("sinkhorn", {"kind": "sinkhorn", "epsilon": 0.1}),
                           ("exact", {"kind": "exact_lp"})):
        out = tmp_path / name
        cfg = _write(tmp_path / f"{name}.json", {**_OU_TINY, "distance": distance})
        assert main(["experiment", "--config", cfg, "--out-dir", str(out)]) == 0
        rows = np.loadtxt(out / "distances.csv", delimiter=",", skiprows=1)
        floor = json.loads((out / "summary.json").read_text())["noise_floor"]
        runs[name] = np.append(rows[:, 1], floor)
    capsys.readouterr()
    exact = runs["exact"]
    assert exact.size == 7 and np.all(exact > 0.0)
    assert np.all(runs["sinkhorn"] >= exact - 1e-9 * np.maximum(1.0, exact))


# a 2-D piecewise OU network measured by the assignment against a long run
_PIECEWISE_EXPERIMENT = {
    "process": _PIECEWISE_2D,
    "x0": [2.0, -1.0],
    "t_grid": [0.5, 1.0, 2.0, 4.0],
    "seed": 5,
    "distance": {"kind": "exact_lp"},
    "p": 2.0,
    "reference": {"kind": "long_run_empirical", "t_burn": 8.0},
    "max_step": 0.05,
}


def test_two_dimensional_exact_lp_experiment_runs_at_512_paths(tmp_path, capsys):
    # 512^2 cost-matrix cells, above the 10^4 the dense LP took
    cfg = _write(tmp_path / "cfg.json", {**_PIECEWISE_EXPERIMENT, "n_paths": 512})
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "distances.csv", delimiter=",", skiprows=1)
    assert rows.shape == (4, 2) and np.all(np.isfinite(rows[:, 1]))
    # the curve falls from the start towards the long run
    assert rows[0, 1] > rows[-1, 1]
    assert "noise floor" in capsys.readouterr().out


def test_two_dimensional_exact_lp_experiment_matches_the_lp_oracle(tmp_path, monkeypatch):
    from lp_oracle import w_exact_lp

    solve, pairs = cli.w_assignment, []

    def recorded(mu, nu, p):
        value = solve(mu, nu, p)
        pairs.append((value, w_exact_lp(mu, nu, p).distance))
        return value

    monkeypatch.setattr("ergolab.cli.w_assignment", recorded)
    cfg = parse_experiment_config({**_PIECEWISE_EXPERIMENT, "n_paths": 64})
    run_experiment(cfg, tmp_path)
    # the noise floor and one distance a grid time
    assert len(pairs) == 5
    for got, oracle in pairs:
        assert abs(got - oracle) <= 1e-9 * oracle


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


def test_cli_experiment_refuses_a_grid_too_short_to_fit(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a grid too short to fit must be refused before simulating")

    monkeypatch.setattr("ergolab.cli.simulate", never)
    payload = {
        "process": {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}},
        "x0": [2.0],
        "t_grid": [0.5, 1.0, 1.5],
        "n_paths": 64,
        "seed": 1,
        "distance": {"kind": "w1d"},
        "p": 2.0,
        "reference": {"kind": "exact_invariant", "quantile_points": 64},
        "rate_model": "exponential",
    }
    cfg = _write(tmp_path / "short.json", payload)
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "needs >= 4 grid times, got 3" in capsys.readouterr().err
    assert not (tmp_path / "distances.csv").exists()


def test_cli_experiment_without_rate_model(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an experiment without a rate_model fits nothing")

    monkeypatch.setattr("ergolab.cli.fit_rate", never)
    payload = _ou_config(
        n_paths=300,
        t_grid=[0.5, 1.0, 1.5, 2.0],
        reference={"kind": "exact_invariant", "quantile_points": 256},
    )
    del payload["rate_model"]  # optional: the curve is measured, not fitted
    cfg = _write(tmp_path / "w.json", payload)
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["experiment", "--config", cfg, "--out-dir", str(d1)]) == 0
    out = capsys.readouterr().out
    assert "noise floor" in out
    assert "fit[" not in out
    assert json.loads((d1 / "summary.json").read_text())["fit"] is None
    assert main(["experiment", "--config", cfg, "--out-dir", str(d2)]) == 0
    assert filecmp.cmp(d1 / "distances.csv", d2 / "distances.csv", shallow=False)
    assert main(["experiment", "--config", cfg, "--seed", "123", "--out-dir", str(d3)]) == 0
    assert (d1 / "distances.csv").read_bytes() != (d3 / "distances.csv").read_bytes()
    rows = (d1 / "distances.csv").read_text().strip().splitlines()
    assert rows[0] == "time,distance"
    assert len(rows) == 5
    # the bytes of the curve, as the block streams draw it
    assert _sha256(d1 / "distances.csv") == (
        "c753f7d7e8a7f5562d9ecae62bcd0ec1900f7c21cc0047b84c117ab7643f7db4"
    )


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
    assert "worst margin = " in out and "outside ball" not in out
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
    # finite atoms: an exact sum, so a zero error
    assert rows[0][-1] == "error"
    assert all(float(row[5]) == 0.0 for row in rows[1:])
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


def test_cli_driftcheck_certifies_the_simulated_generator(tmp_path, capsys):
    # the simulator adds raw jumps, so L V(3) = -2 x^2 + rate (V(3.5) - V(3))
    # = -18 + 2 (3.5^2 - 3^2) = -11.5, and phi(V) + L V = 15 - 11.5 > 0
    cfg = _write(
        tmp_path / "drift.json",
        {
            "process": {"family": "ou_jump", "H": [[-1.0]],
                        "levy": {"jumps": {"kind": "compound_poisson", "rate": 2.0,
                                           "atoms": [0.5], "probs": [1.0]}}},
            "lyapunov": {"family": "poly_plus_one", "theta": 2.0},
            "phi": {"family": "linear", "c_hat": 1.5},
            "grid": [3.0],
            "ball_radius": 1.0,
        },
    )
    assert main(["driftcheck", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert "(violated)" in capsys.readouterr().out
    rows = [r.split(",") for r in (tmp_path / "driftcheck.csv").read_text().strip().splitlines()]
    assert rows[0][2] == "generator_value"
    assert float(rows[1][2]) == pytest.approx(-11.5, abs=1e-12)
    assert float(rows[1][4]) == pytest.approx(-3.5, abs=1e-12)


def test_cli_driftcheck_records_an_error_per_margin(tmp_path):
    stable = {"family": "ou_jump", "H": [[-1.0]],
              "levy": {"jumps": {"kind": "symmetric_stable", "alpha": 1.5}}}
    base = {"lyapunov": {"family": "poly_plus_one", "theta": 0.5},
            "phi": {"family": "linear", "c_hat": 0.2}, "ball_radius": 3.0}
    cases = {
        # deterministic quadrature: the rule pairs' differences, far tail included
        "quadrature": {**base, "process": stable, "grid": [-20.0, 0.0, 2.5]},
        # isotropic Monte Carlo: the standard error
        "mc": {**base, "process": _STABLE_2D, "grid": [[0.0, 0.5], [4.0, 1.0]],
               "jump_mc_samples": 2000, "seed": 3},
    }
    errors = {}
    for name, payload in cases.items():
        out = tmp_path / name
        out.mkdir()
        cfg = _write(out / "drift.json", payload)
        assert main(["driftcheck", "--config", cfg, "--out-dir", str(out)]) == 0
        rows = [r.split(",") for r in (out / "driftcheck.csv").read_text().strip().splitlines()]
        dim = 2 if name == "mc" else 1
        assert rows[0][dim:] == ["lyapunov_value", "generator_value", "phi_of_v", "margin", "error"]
        errors[name] = [float(row[dim + 4]) for row in rows[1:]]
    assert all(0.0 < e < 1e-12 for e in errors["quadrature"])
    assert all(1e-4 < e < 1.0 for e in errors["mc"])


_OU_1D = {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}}


@pytest.mark.parametrize(
    "process, lyapunov, grid, code, message",
    [
        # V = e^709 is finite, L V = -709 e^709 is not
        (_OU_1D, {"family": "exp", "zeta": 1.0}, [1.0, 709.0], 3,
         "L V = -inf and phi(V) = 4.1"),
        # 1 + |x|^2 overflows at 1e200
        (_OU_1D, {"family": "poly_plus_one", "theta": 2.0}, [1.0, 1e200], 2, "V = inf"),
        # chi_Q's quadratic form overflows too, before the quadrature sizes
        # its doubling blocks from |x|
        ({**_OU_1D, "levy": {"a_L": [[1.0]],
                             "jumps": {"kind": "symmetric_stable", "alpha": 1.5}}},
         {"family": "poly_plus_one", "theta": 1.0}, [1e200], 2, "V = inf"),
    ],
    ids=["exp-generator-overflows", "poly-value-overflows", "stable-value-overflows"],
)
def test_cli_driftcheck_refuses_values_that_overflow(
    tmp_path, capsys, process, lyapunov, grid, code, message
):
    cfg = _write(
        tmp_path / "drift.json",
        {"process": process, "lyapunov": lyapunov, "phi": {"family": "linear", "c_hat": 0.5},
         "grid": grid, "ball_radius": 1.0},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["driftcheck", "--config", cfg, "--out-dir", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict is printed
    assert message in captured.err
    assert f"at grid point [{grid[-1]!r}]" in captured.err
    assert not (tmp_path / "driftcheck.csv").exists()


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


def _mp_lower_bounds(payload, rows):
    """50-digit bounds at the levels and times of ``rows``, from the chain's
    invariant tail in closed form (the sum of Gamma ratios telescopes)."""
    with mpmath.workdps(50):
        a, i0 = mpmath.mpf(payload["process"]["alpha"]), payload["process"]["i0"]
        par = {k: mpmath.mpf(v) for k, v in payload["params"].items()}
        scale = mpmath.mpf(2) ** (1 - i0) * mpmath.gamma(i0) / mpmath.gamma(i0 - 1 - a)

        def upper(n):  # sum_{k >= n} u_k for n >= i0
            return scale * mpmath.gamma(n - 1 - a) / (a * mpmath.gamma(n - 1))

        z = 1 + mpmath.fsum(mpmath.mpf(2) ** (1 - k) for k in range(1, i0)) + upper(i0)
        bounds = []
        for row in rows:
            s, t = mpmath.mpf(row[1]), mpmath.mpf(row[2])
            tail = upper(mpmath.floor(s) + 1) / z
            p, theta = par["p"], par["theta"]
            # V(x0) = 1 + 0^theta = 1 at x0 = 0
            second = ((2 ** (theta - p) / payload["c"]) * (payload["b"] * t + 1)) ** (1 / p)
            bounds.append(((s / 2) ** p * tail) ** (1 / p) - second * s ** ((p - theta) / p))
        return bounds


def test_cli_lower_auto_truncation_reaches_the_levels(tmp_path):
    # the tails are exact at every level, so levels up to 10^9 are reached,
    # and ``truncation`` is accepted but changes nothing
    far = _lower_config(s_grid=[1e4, 1e7, 1e9])
    outputs = []
    for truncation in ("auto", 65536, 2**22):
        out = tmp_path / str(truncation)
        out.mkdir()
        cfg = _write(out / "lower.json", {**far, "truncation": truncation})
        assert main(["lower", "--config", cfg, "--out-dir", str(out)]) == 0
        outputs.append((out / "lower.csv").read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    rows = [r.split(",") for r in outputs[0].decode().strip().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [1e4, 1e7, 1e9]
    for row, want in zip(rows, _mp_lower_bounds(far, rows)):
        assert abs(float(row[3]) - want) <= 1e-13 * abs(want)
    # anything but "auto" or a positive integer is still refused
    for bad in ("big", 1.5, 0, -4):
        cfg = _write(tmp_path / "bad.json", _lower_config(truncation=bad))
        assert main(["lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 2


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_chain_outputs_are_pinned(tmp_path):
    # digests of the artifacts as the float-state recursion and the
    # closed-form invariant law computed them; the lower.csv bounds agree
    # with 50-digit mpmath to 1e-15 (a 65536-state table cut 0.4 % off them)
    cfg = _write(tmp_path / "experiment.json", _chain_config())
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "distances.csv") == (
        "34c334bb4795012e55cfdfd60ef1154ba9dad7f78d44c83c1d42ab68ba30c33b"
    )
    cfg = _write(tmp_path / "lower.json", _lower_config(truncation=65536))
    assert main(["lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "lower.csv") == (
        "a8b615d2cdc22d23bc2132ca18bc3100584b9b0ea25ca6dc7300594e4ac192df"
    )


_CERTIFY_DRIFTCHECK = {
    "process": {"family": "ou_jump", "H": [[-1.0]],
                "levy": {"jumps": {"kind": "symmetric_stable", "alpha": 1.5}}},
    "lyapunov": {"family": "poly_plus_one", "theta": 0.5},
    "phi": {"family": "linear", "c_hat": 0.2},
    "grid": {"lo": -20.0, "hi": 20.0, "points": 5},
    "ball_radius": 3.0,
    "seed": 1,
}
_CERTIFY_SUBORDINATE = {
    "rate": {"kind": "exponential", "gamma": 0.5},
    "p": 2.0,
    "subordinator": {"kind": "stable", "alpha": 0.5},
    "t": [0.5, 1.0, 2.0],
    "n_mc": 2000,
    "seed": 1,
}
_COUPLE_2D = {
    "process": {
        "family": "piecewise_ou",
        "l": [0.0, 0.0],
        "M": [[1.0, 0.0], [0.0, 1.0]],
        "Gamma": [[0.5, 0.0], [0.0, 0.5]],
        "v": [0.6, 0.4],
        "sigma": [[0.5, 0.0], [0.0, 0.5]],
        "levy": {"jumps": {"kind": "compound_poisson", "rate": 1.0,
                           "atoms": [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]],
                           "probs": [0.4, 0.4, 0.2]}},
    },
    "x": [3.0, 1.0],
    "y": [-1.0, -2.0],
    "t_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
    "n_paths": 128,
    "seed": 1,
    "p": 2.0,
    "max_step": 0.05,
    "n_boot": 20,
    "certificate": {"lip_sqrtq_sigma": 0.0},
}


@pytest.mark.parametrize(
    "command, payload, artifact, digest",
    [
        ("driftcheck", _CERTIFY_DRIFTCHECK, "driftcheck.csv",
         "d052205ee84002cb39d21864b30ab898b0d2bd8b9b284e22ee75536b5066ca32"),
        ("subordinate", _CERTIFY_SUBORDINATE, "subordinate.csv",
         "eb87b32dd750d308ebade317c803f0310cccf1b1baa535292d7767d66acab8f7"),
        ("couple", _COUPLE_2D, "couple.csv",
         "9e59733477da151ae9003dbc305ffa0017df1e9215676b04749247225e1d0246"),
    ],
    ids=["driftcheck", "subordinate", "couple"],
)
def test_cli_certify_and_couple_outputs_are_pinned(tmp_path, command, payload, artifact, digest):
    # digests of a small certify-style drift check and clock, and of a small
    # 2-D coupling with compound-Poisson jumps (its bootstrap means summed
    # as per-path counts against the moments, by einsum)
    cfg = _write(tmp_path / f"{command}.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / artifact) == digest


def test_cli_couple_rate_is_nan_where_fit_rate_refuses(tmp_path, capsys):
    # two grid times are fewer than fit_rate fits a rate to; the curve is
    # still measured and written, with its pinned digest
    payload = {
        "process": {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}},
        "x": [1.0],
        "y": [-1.0],
        "t_grid": [0.0, 0.5],
        "n_paths": 200,
        "seed": 1,
        "p": 2.0,
    }
    cfg = _write(tmp_path / "couple.json", payload)
    assert main(["couple", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert "fitted decay rate = nan;" in capsys.readouterr().out
    digest = "eb442472a9b75ccc9c8681df9ca5dfb4f9ca90286a7b631c0989fa447f827495"
    assert _sha256(tmp_path / "couple.csv") == digest


def _traj_columns(calls):
    (_, batch), = calls
    n, k, dim = batch.paths.shape
    return (["path", "time"] + [f"x{i + 1}" for i in range(dim)],
            [np.repeat(np.arange(n), k), np.tile(batch.times, n),
             *batch.paths.reshape(n * k, dim).T])


def _curve_columns(calls):
    ((cfg, _), dists), = calls
    return ["time", "distance"], [cfg.t_grid, dists]


def _drift_columns(calls):
    (_, r), = calls
    return ([f"x{i + 1}" for i in range(r.grid.shape[1])]
            + ["lyapunov_value", "generator_value", "phi_of_v", "margin", "error"],
            [*r.grid.T, r.lyapunov_values, r.lhs, r.phi_values, r.margin, r.errors])


def _couple_columns(calls):
    (_, r), = calls
    env = [None] * r.times.size if r.envelope is None else r.envelope
    return (["time", "moment", "ci_lo", "ci_hi", "envelope"],
            [r.times, r.moment_curve, r.ci_lo, r.ci_hi, env])


def _lower_columns(calls):
    (_, c), = calls
    return ["n", "s_n", "t_n", "bound"], [np.arange(1, c.s.size + 1), c.s, c.t, c.bound]


def _subordinate_columns(calls):
    return (["t", "value", "ci_lo", "ci_hi", "se"],
            [[args[3] for args, _ in calls]]
            + [[getattr(est, name) for _, est in calls]
               for name in ("value", "ci_lo", "ci_hi", "se")])


# artifact -> (command, config, the cli name whose calls the file records,
# the header and columns those calls returned)
ARTIFACT_CASES = {
    "trajectories": ("simulate", {**_SIMULATE, "process": _OU_2D, "x0": [1.0, -0.5],
                                  "t_grid": [0.0, 0.3, 1.0]}, "simulate", _traj_columns),
    "distances": ("experiment", _ou_config(
        n_paths=64, reference={"kind": "exact_invariant", "quantile_points": 64}),
        "_measure_curve", _curve_columns),
    "driftcheck": ("driftcheck", {
        "process": _STABLE_2D, "lyapunov": {"family": "poly_plus_one", "theta": 0.5},
        "phi": {"family": "linear", "c_hat": 0.2}, "ball_radius": 3.0,
        "grid": [[0.0, 0.5], [4.0, 1.0], [-2.0, 0.0]], "jump_mc_samples": 2000, "seed": 3,
    }, "drift_check", _drift_columns),
    "couple-certified": ("couple", _COUPLE_2D, "contraction_estimate", _couple_columns),
    "couple-uncertified": ("couple", _COUPLE, "contraction_estimate", _couple_columns),
    "lower": ("lower", _lower_config(), "lower_bound_curve", _lower_columns),
    "subordinate": ("subordinate", _CERTIFY_SUBORDINATE, "subordinate_rate",
                    _subordinate_columns),
}
_ARTIFACT_OF = {"simulate": "trajectories.csv", "experiment": "distances.csv",
                "driftcheck": "driftcheck.csv", "couple": "couple.csv", "lower": "lower.csv",
                "subordinate": "subordinate.csv"}


@pytest.mark.parametrize("case", list(ARTIFACT_CASES))
def test_cli_artifacts_hold_the_library_values(case, tmp_path, monkeypatch):
    # every CSV: its header, one line per row, each ending in a bare newline,
    # integers as themselves, floats that read back to the very double the
    # library returned, and an empty envelope cell exactly without a certificate
    command, payload, name, columns_of = ARTIFACT_CASES[case]
    calls, original = [], getattr(cli, name)

    def record(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, record)
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    data = (tmp_path / _ARTIFACT_OF[command]).read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().splitlines()
    header, columns = columns_of(calls)
    rows = list(zip(*columns))
    assert lines[0] == ",".join(header)
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, value in zip(cells, row):
            if value is None:
                assert cell == ""
            elif isinstance(value, (int, np.integer)):
                assert cell == str(value)
            else:
                assert float(cell).hex() == float(value).hex()
    if command == "couple":
        assert all(line.endswith(",") == ("certificate" not in payload) for line in lines[1:])


def _write_csv_row_by_row(path, header, columns):
    # the reference writer, one call a cell: the bytes _write_csv must give
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(value)
        return f"{value:.17g}"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in zip(*columns))


@pytest.mark.parametrize("n", [0, 1, 9, cli._CSV_ROWS, 2 * cli._CSV_ROWS + 5])
def test_write_csv_formats_whole_columns_to_the_row_by_row_bytes(tmp_path, n):
    # float, integer and mixed columns, as arrays, flat views, ranges, lists
    # and tuples, with nan, infinities, -0.0, subnormals, None, numpy scalars
    # and an integer beyond 2^53, over row blocks cut at every edge
    rng = np.random.default_rng(5)
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1 / 3, 2.0**60]
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[: len(special)] = special[:n]
    mixed = [None, 1, 2.5, np.float64(-0.0), np.int64(-7), math.nan, 10**20, math.inf]
    columns = [
        np.arange(n),
        floats,
        np.broadcast_to(floats[::-1], (2, n))[1].flat,
        range(3, n + 3),
        [mixed[i % len(mixed)] for i in range(n)],
        tuple(np.arange(n, dtype=np.uint8)),
        [None] * n,
    ]
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(tmp_path / "whole.csv", header, columns)
    _write_csv_row_by_row(tmp_path / "cells.csv", header, columns)
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_trajectories_csv_is_the_row_by_row_bytes_across_blocks(tmp_path, monkeypatch):
    # 150 paths x 120 grid times in 2-D, 18,000 rows over two row blocks, on a
    # grid whose times need all 17 digits: the grid times spelled once give
    # the bytes of the writer that formats every cell
    calls, original = [], cli.simulate

    def record(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "simulate", record)
    grid = np.linspace(0.0, 7.0, 120) / 3.0
    payload = {**_SIMULATE, "process": _OU_2D, "x0": [1.0, -0.5], "t_grid": grid.tolist(),
               "n_paths": 150, "max_step": 0.1}
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    header, columns = _traj_columns(calls)
    assert len(columns[0]) == 18_000 > cli._CSV_ROWS
    _write_csv_row_by_row(tmp_path / "cells.csv", header, columns)
    assert (tmp_path / "trajectories.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


_CLOCKS_MULTI_CHUNK = {
    "stable-polynomial": {
        "rate": {"kind": "polynomial", "exponent": 1.5, "scale": 2.0}, "p": 3.0,
        "subordinator": {"kind": "stable", "alpha": 0.3}, "b_s": 0.25,
        "t": [0.0, 0.5, 2.0], "n_mc": 200007, "seed": 11,
    },
    "certify": {**_CERTIFY_SUBORDINATE, "t": [0.5, 1.0, 2.0, 4.0], "n_mc": 500000},
    "gamma": {
        "rate": {"kind": "exponential", "gamma": 0.8, "scale": 1.5}, "p": 2.0,
        "subordinator": {"kind": "gamma", "a": 1.2, "b_hat": 3.0}, "b_s": 0.1,
        "t": [0.5, 3.0], "n_mc": 150001, "seed": 12,
    },
    "drift_only": {
        "rate": {"kind": "polynomial", "exponent": 2.0}, "p": 1.5,
        "subordinator": {"kind": "drift_only"}, "b_s": 1.5,
        "t": [0.0, 1.0, 4.0], "n_mc": 100003, "seed": 13,
    },
}


@pytest.mark.parametrize(
    "name, digest",
    [
        ("stable-polynomial", "923dcaf3388650fef15aa894c939f3466ae1bc6d7131853d0360a924cefbbcca"),
        ("certify", "11aacc361c598d8ef3626d09f8b52359aad303041fbcc51d7421c752ab8dfbc2"),
        ("gamma", "1a0bdaff045b2f7609996b7bbae35a4891cdb10f3f39c5626822d4379661d89c"),
        ("drift_only", "d6e6f253ca51082b0a6c130727644f538ce2f95811934a7a3fda8f3e44d2ffb3"),
    ],
)
def test_cli_subordinate_multi_chunk_outputs_are_pinned(tmp_path, name, digest):
    # digests of clocks of many chunks, as the whole-array computation gave
    # them: the chunked pass on two threads keeps every bit
    cfg = _write(tmp_path / "subordinate.json", _CLOCKS_MULTI_CHUNK[name])
    assert main(["subordinate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "subordinate.csv") == digest


def test_cli_subordinate_nan_clock_exits_3(tmp_path, capsys, monkeypatch):
    # a transform that gives NaN samples (every thousandth one here) leaves
    # no estimate: exit 3, naming the count, and no subordinate.csv
    from ergolab import processes

    transform = processes._cms_transform

    def nan_every_thousandth(alpha, skew, u, w):
        out = transform(alpha, skew, u, w)
        out[::1000] = np.nan
        return out

    monkeypatch.setattr(processes, "_cms_transform", nan_every_thousandth)
    cfg = _write(tmp_path / "subordinate.json", {
        **_CERTIFY_SUBORDINATE, "subordinator": {"kind": "stable", "alpha": 0.01},
        "t": [1.0], "n_mc": 100000,
    })
    assert main(["subordinate", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert "101 of 100000 samples" in capsys.readouterr().err
    assert not (tmp_path / "subordinate.csv").exists()


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


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("lower", _lower_config(process=_OU_1D),
         "the lower-bound construction applies to backward_recurrence"),
        ("couple", {**_COUPLE, "certificate": {"lip_sqrtq_sigma": 0.0}},
         "contraction certificates apply to the piecewise_ou family"),
    ],
    ids=["lower-without-tail", "couple-certificate-not-piecewise-ou"],
)
def test_cli_refuses_a_family_without_the_facts_it_reads(
    command, payload, message, tmp_path, capsys, monkeypatch
):
    # the handler reads the spec's facts, not its class, and refuses before
    # anything is simulated or computed
    def never(*args, **kwargs):
        raise AssertionError("a family without the facts must be refused first")

    for name in ("ergolab.coupling.simulate", "ergolab.cli.lower_bound_curve"):
        monkeypatch.setattr(name, never)
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_cli_couple_certificate_without_a_diagonal_q_exits_3(tmp_path, capsys):
    # with Gamma = 0 the coupled-drift matrix S has v'Sv = 0 for every Q, so
    # the search refuses, with its reason, before anything is simulated
    process = {**_PIECEWISE_2D, "Gamma": [[0.0, 0.0], [0.0, 0.0]]}
    payload = {**_COUPLE, "process": process, "x": [1.0, 0.0], "y": [0.0, 1.0],
               "certificate": {"lip_sqrtq_sigma": 0.0}}
    cfg = _write(tmp_path / "couple.json", payload)
    assert main(["couple", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no diagonal quadratic form certifies dissipativity: no diagonal Q on the "
        "grid makes both dissipativity matrices positive definite\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "couple.csv").exists()


def test_cli_module_entry_point(tmp_path, src_env):
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
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "ratefit.json").read_text())
    assert abs(result["rate"] - 1.1) < 1e-10
