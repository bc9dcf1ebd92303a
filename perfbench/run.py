"""ergolab benchmark: seeded CLI workloads, oracle-checked timings, layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run is a closed loop with a single client: it starts a fresh interpreter
(``probe.py``) for one operation, waits for it, checks its artifacts against
the workload's oracle, and starts the next one until ``--seconds`` have
passed.  Every operation of a run uses the same seeded configs, so their
artifacts must be byte-identical.  ``--trace 0`` reports the end-to-end
metrics (times of the fastest operation, see README.md); ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of the fastest traced operation.  The last line of stdout is one JSON
object; the run record (versions, sizes, artifact digests, every operation)
is written to ``.perfbench-runs/<workload>-seed<n>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, layer_metrics  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    **LAYER_METRICS,
    "wasserstein.sinkhorn_excess": "W_p",
    "cli.artifact_bytes": "B",
    "trace.overhead_s": "s",
}
BLAS_THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
BLAS_THREADS = "1"
MIN_OPS = 3
# a run must finish well inside the 180 s a caller allows it
HARD_LIMIT_S = 165.0
RUNS_DIR = ".perfbench-runs"
NONDETERMINISTIC_ARTIFACTS = {"summary.json"}  # carries a runtime


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "ergolab").rglob("*.py")))


class Run:
    """One workload at one seed: configs on disk, operations, and their results."""

    def __init__(self, root: Path, name: str, seed: int, seconds: float, trace: bool, scale: str):
        self.root, self.seconds, self.trace = root, seconds, trace
        self.wl = workloads.build(name, seed, scale)
        self.seed, self.scale = seed, scale
        self.dir = root / RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "configs").mkdir(parents=True)
        self.configs = {}
        for fname, cfg in self.wl.configs.items():
            path = self.dir / "configs" / fname
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.configs[fname] = path
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in BLAS_THREAD_VARS:
            self.env[var] = BLAS_THREADS
        self.shared: dict = {}
        self.ops: list[dict] = []
        self.first_digests: dict | None = None

    # -- processes ----------------------------------------------------------

    def _spawn(self, argv: list, out_dir: Path, timeout: float) -> tuple[int | None, float]:
        with open(out_dir / "stdout.txt", "w") as out, open(out_dir / "stderr.txt", "w") as err:
            spawned = _now()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                code = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        return code, spawned

    def _probe(self, op_dir: Path, traced: bool, timeout: float, setup_only: bool = False) -> dict:
        artifacts = op_dir / "artifacts"
        artifacts.mkdir(parents=True)
        plan = {
            "steps": [[cmd, str(self.configs[cfg])] for cmd, cfg in self.wl.steps],
            "out_dir": str(artifacts),
            "result": str(op_dir / "result.json"),
            "spans": str(op_dir / "spans.json"),
            "trace": traced,
            "setup_only": setup_only,
        }
        (op_dir / "plan.json").write_text(json.dumps(plan))
        code, spawned = self._spawn(
            [sys.executable, str(HERE / "probe.py"), str(op_dir / "plan.json")], op_dir, timeout
        )
        op = {"traced": traced, "exit": code, "errors": []}
        result_path = op_dir / "result.json"
        if code != 0 or not result_path.exists():
            tail = (op_dir / "stderr.txt").read_text()[-400:]
            op["errors"].append(f"probe exited with {code}: {tail}")
            return op
        result = json.loads(result_path.read_text())
        if setup_only:
            return op
        op["setup_s"] = result["ready"] - spawned
        src = str(self.root / "src")
        if not result["ergolab_file"].startswith(src):
            op["errors"].append(f"imported ergolab from {result['ergolab_file']}, not {src}")
        op["run_s"] = result["run_s"]
        op["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        op["steps"] = result["steps"]
        for step in result["steps"]:
            if step["code"] != 0:
                op["errors"].append(f"{step['command']} exited with {step['code']}")
        return op

    def _samples(self) -> None:
        """Write the ou-sinkhorn paths through the CLI's simulate command."""
        if "samples.json" not in self.configs:
            return
        out = self.dir / "samples"
        out.mkdir()
        argv = [sys.executable, "-m", "ergolab", "simulate", "--config",
                str(self.configs["samples.json"]), "--out-dir", str(out)]
        code, _ = self._spawn(argv, out, 120.0)
        if code != 0:
            raise RuntimeError(f"simulate for the oracle exited with {code}")
        self.shared["samples_dir"] = out

    # -- one operation ------------------------------------------------------

    def _check(self, op: dict, op_dir: Path) -> None:
        artifacts = op_dir / "artifacts"
        digests = {p.name: _sha256(p) for p in sorted(artifacts.iterdir())}
        op["artifacts"] = digests
        op["artifact_bytes"] = sum(p.stat().st_size for p in artifacts.iterdir())
        stable = {k: v for k, v in digests.items() if k not in NONDETERMINISTIC_ARTIFACTS}
        if self.first_digests is None:
            self.first_digests = stable
        elif stable != self.first_digests:
            op["errors"].append("artifacts differ from the first run with the same seed")
        stdout = (op_dir / "stdout.txt").read_text()
        op["errors"] += workloads.check(self.wl, artifacts, stdout, self.shared)

    def run(self) -> None:
        start = _now()
        self._samples()
        warm = self.dir / "warmup"
        warm_op = self._probe(warm, False, HARD_LIMIT_S, setup_only=True)
        if warm_op["errors"]:
            raise RuntimeError(f"warm-up failed: {warm_op['errors']}")
        shutil.rmtree(warm)
        loop_start = _now()
        walls: list[float] = []
        min_ops = MIN_OPS + 1 if self.trace else MIN_OPS
        while True:
            index = len(self.ops)
            traced = self.trace and index % 2 == 1
            op_dir = self.dir / f"op{index}"
            began = _now()
            op = self._probe(op_dir, traced, HARD_LIMIT_S - (began - start))
            if not op["errors"]:
                self._check(op, op_dir)
            if traced and (op_dir / "spans.json").exists():
                exported = json.loads((op_dir / "spans.json").read_text())
                op["layers"] = layer_metrics(exported)
                op["missing_hooks"] = exported["missing"]
                op["layers"]["cli.artifact_bytes"] = op.get("artifact_bytes", 0)
            self.ops.append(op)
            shutil.rmtree(op_dir)
            walls.append(_now() - began)
            elapsed, typical = _now() - loop_start, statistics.median(walls)
            if _now() - start + typical > HARD_LIMIT_S:
                break
            if len(self.ops) >= min_ops and elapsed + typical > self.seconds:
                break
        samples = self.dir / "samples"
        if samples.exists():
            shutil.rmtree(samples)

    # -- results ------------------------------------------------------------

    def failed(self) -> int:
        return sum(1 for op in self.ops if op["errors"])

    @staticmethod
    def _values(key: str, ops: list[dict]) -> list[float]:
        return [op[key] for op in ops if key in op] or [0.0]

    def end_to_end(self) -> dict:
        plain = [op for op in self.ops if not op["traced"]]
        return {
            "run_s": min(self._values("run_s", plain)),
            "setup_s": min(self._values("setup_s", self.ops)),
            "peak_rss_mb": statistics.median(self._values("peak_rss_mb", plain)),
            "ok_frac": (len(self.ops) - self.failed()) / len(self.ops),
        }

    def missing_hooks(self) -> list[str]:
        return sorted({hook for op in self.ops for hook in op.get("missing_hooks", [])})

    def per_layer(self) -> tuple[dict, list[str]]:
        traced = [op for op in self.ops if op["traced"] and "layers" in op]
        if not traced:
            return {name: 0.0 for name in PER_LAYER}, ["no traced operation completed"]
        errors = []
        for name in COUNT_METRICS:
            if len({op["layers"][name] for op in traced}) != 1:
                errors.append(f"count {name} differs between runs of the same inputs")
        # every time comes from one operation, the fastest traced one, so
        # the layer self times add up to its trace.run_s
        values = dict(min(traced, key=lambda op: op["layers"]["trace.run_s"])["layers"])
        values["wasserstein.sinkhorn_excess"] = self.shared.get("sinkhorn_excess", 0.0)
        plain = [op for op in self.ops if not op["traced"]]
        values["trace.overhead_s"] = min(self._values("run_s", traced)) - min(self._values("run_s", plain))
        return {name: values[name] for name in PER_LAYER}, errors

    def record(self, metrics: dict, errors: list[str]) -> dict:
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "scale": self.scale,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "blas_threads": {var: BLAS_THREADS for var in BLAS_THREAD_VARS},
            "sizes": self.wl.sizes,
            "steps": [f"ergolab {cmd} --config {cfg}" for cmd, cfg in self.wl.steps],
            "artifacts": next((op["artifacts"] for op in self.ops if "artifacts" in op), {}),
            "src_ergolab_lines": _source_lines(self.root),
            "missing_hooks": self.missing_hooks(),
            "metrics": metrics,
            "errors": errors,
            "ops": self.ops,
        }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Run one workload and return its result object (and write its record)."""
    run = Run(root, name, seed, seconds, trace, scale)
    errors: list[str] = []
    try:
        run.run()
    except RuntimeError as exc:
        errors.append(str(exc))
    if not run.ops:
        errors.append("no operation completed")
        metrics = {}
    elif trace:
        metrics, count_errors = run.per_layer()
        errors += count_errors
    else:
        metrics = run.end_to_end()
    for index, op in enumerate(run.ops):
        errors += [f"op{index}: {e}" for e in op["errors"]]
    record = run.record(metrics, errors)
    (run.dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not errors and bool(run.ops),
        "attempted": max(len(run.ops), 1),
        "failed": run.failed() if run.ops else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "errors": errors,
        "missing_hooks": run.missing_hooks(),
        "record": str(run.dir / "record.json"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ergolab" / "cli.py").is_file():
        print(f"error: {root} is not an ergolab checkout (no src/ergolab/cli.py)", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.scale)
        results[name] = res
        print(f"[{name}] seed={args.seed} ops={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']} record={res['record']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for err in res["errors"]:
            print(f"  error: {err}")
        for hook in res["missing_hooks"]:
            print(f"  warning: {hook} no longer exists; its spans are not recorded")
    if len(results) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
