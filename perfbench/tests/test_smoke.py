"""Smoke test: every workload once at tiny sizes, traced and untraced.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that work counts repeat exactly between two runs of the same seed, that the
layer self times add up to the traced run time, that benchmark artifacts
match the same configs run through ``python -m ergolab`` directly, and that
the runner refuses a directory without the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc, None


def _assert_named(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_and_direct_cli_artifacts(workload, tmp_path):
    proc, result = _bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    _assert_named(result, SPEC["end_to_end"])
    assert result["metrics"]["run_s"]["value"] > 0 and result["metrics"]["setup_s"]["value"] > 0

    run_dir = ROOT / ".perfbench-runs" / f"{workload}-seed{SEED}-trace0"
    record = json.loads((run_dir / "record.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, config in workloads.build(workload, SEED, "tiny").steps:
        subprocess.run(
            [sys.executable, "-m", "ergolab", command, "--config", str(run_dir / "configs" / config),
             "--out-dir", str(tmp_path)],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
        )
    direct = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert set(direct) == set(record["artifacts"])
    for name, digest in direct.items():
        if name != "summary.json":  # records its own runtime
            assert record["artifacts"][name] == digest, name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_layer_metrics_and_repeatable_counts(workload):
    runs = []
    for _ in range(2):
        proc, result = _bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        _assert_named(result, SPEC["per_layer"])
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    for name in COUNT_METRICS:
        assert runs[0][name] == runs[1][name], name
    for values in runs:
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert total == pytest.approx(values["trace.run_s"], rel=1e-9, abs=1e-12)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = _bench("chain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
