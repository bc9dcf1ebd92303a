"""One benchmark operation in a fresh interpreter.

Run by ``run.py`` as ``python3 probe.py <plan.json>``.  The plan names the
CLI steps, the artifact directory, where to write results and whether to
trace.  The probe imports ``ergolab`` (from the ``PYTHONPATH`` the runner
sets), reads the step configs, stamps the moment it is ready, then calls
``ergolab.cli.main`` once per step and times each call.  It writes the timings to the plan's result path (and the
spans to its spans path when tracing); the CLI's own stdout goes wherever
the runner pointed this process's stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    # system-wide clock, comparable with the runner's spawn stamp
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    out, result_path = plan["out_dir"], Path(plan["result"])

    import ergolab.cli
    import ergolab.coupling  # noqa: F401  (every layer is loaded before "ready")
    import ergolab.lowerbound  # noqa: F401
    import ergolab.lyapunov  # noqa: F401
    import ergolab.processes  # noqa: F401
    import ergolab.rates  # noqa: F401
    import ergolab.subordination  # noqa: F401
    import ergolab.wasserstein  # noqa: F401

    for _, config in plan["steps"]:
        json.loads(Path(config).read_text())
    ready = _now()
    if plan.get("setup_only"):
        result_path.write_text(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    steps = []
    for command, config in plan["steps"]:
        argv = [command, "--config", config, "--out-dir", out]
        start = time.perf_counter()
        code = ergolab.cli.main(argv)
        steps.append({"command": command, "code": code, "s": time.perf_counter() - start})
        sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        Path(plan["spans"]).write_text(json.dumps(tracer.export()))
    result = {
        "ready": ready,
        "steps": steps,
        "run_s": sum(step["s"] for step in steps),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ergolab_file": ergolab.cli.__file__,
    }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
