"""The benchmark's ``chain`` and ``ou-sinkhorn`` experiments at full size, at
seeds 1 and 3, pinned byte for byte: each run's ``distances.csv`` digest and
its ``summary.json`` noise floor.  The chain's reference is its tabulated
invariant law and ou-sinkhorn's the Gaussian's quantile midpoints measured
by annealed Sinkhorn, so both reference builds and the Sinkhorn curve are
held to the digits they wrote before."""

import hashlib
import json

import pytest
from test_benchmark_hooks import _load

from ergolab.cli import main

PINS = [
    ("chain", 1, "c82e42d78b5b1912477382d598936eb03fe3413937f8fce4d014c4b96a20e86b",
     0.023520022622392),
    ("chain", 3, "f29bb555c01c3240284efe4c8b882b06fd008a851817f879f5e260a6ba868039",
     0.03440535029933928),
    ("ou-sinkhorn", 1, "ee46fe0cbbc4496b26267ca3a426eff2d9281156e50f18098f98bbe9dad61057",
     0.24131759728239266),
    ("ou-sinkhorn", 3, "f1614f3c67cd095369020b550003620506c42818c514d958cc5933f9f2ae86cf",
     0.21388703273710089),
]


@pytest.mark.parametrize("name, seed, digest, floor", PINS, ids=[f"{p[0]}-{p[1]}" for p in PINS])
def test_experiment_curve_and_noise_floor_pinned(tmp_path, name, seed, digest, floor):
    config = _load("workloads").build(name, seed, "full").configs["experiment.json"]
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "distances.csv").read_bytes()).hexdigest() == digest
    assert json.loads((tmp_path / "summary.json").read_text())["noise_floor"] == floor
