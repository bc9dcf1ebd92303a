"""A run starts without the scipy subpackages it does not use.

Every layer of ``ergolab`` loads ``scipy.special`` and ``scipy.linalg`` only;
``scipy.integrate`` (QAGS) and ``scipy.optimize`` (``linprog``) are imported
inside the functions that call them.  A stray top-level import would undo
that without failing anything else, so a fresh interpreter checks it here."""

import json
import subprocess
import sys

MODULES = ["cli", "coupling", "lowerbound", "lyapunov", "processes", "rates",
           "subordination", "wasserstein"]
DEFERRED = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial",
            "scipy.fft", "scipy.constants"]

# a certify-style drift check (stable jumps, so a quadrature far tail) and clock
_DRIFTCHECK = {
    "process": {"family": "ou_jump", "H": [[-1.0]],
                "levy": {"jumps": {"kind": "symmetric_stable", "alpha": 1.5}}},
    "lyapunov": {"family": "poly_plus_one", "theta": 0.5},
    "phi": {"family": "linear", "c_hat": 0.2},
    "grid": {"lo": -20.0, "hi": 20.0, "points": 5},
    "ball_radius": 3.0,
    "seed": 1,
}
_SUBORDINATE = {
    "rate": {"kind": "exponential", "gamma": 0.5},
    "p": 2.0,
    "subordinator": {"kind": "stable", "alpha": 0.5},
    "t": [0.5, 1.0, 2.0],
    "n_mc": 2000,
    "seed": 1,
}

_SCRIPT = """
import json, sys
for name in {modules}:
    __import__("ergolab." + name)
print(json.dumps(sorted(m for m in {deferred} if m in sys.modules)))
import ergolab.cli
for command in ("driftcheck", "subordinate"):
    argv = [command, "--config", sys.argv[1] + "/" + command + ".json", "--out-dir", sys.argv[1]]
    assert ergolab.cli.main(argv) == 0
print(json.dumps(sorted(m for m in {deferred} if m in sys.modules)))
"""


def test_runs_start_and_certify_without_integrate_or_optimize(tmp_path, src_env):
    (tmp_path / "driftcheck.json").write_text(json.dumps(_DRIFTCHECK))
    (tmp_path / "subordinate.json").write_text(json.dumps(_SUBORDINATE))
    script = _SCRIPT.format(modules=MODULES, deferred=DEFERRED)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[0]) == []  # nothing deferred is loaded at start
    assert "far tail: 0 of 5 points by QAGS" in lines
    # the drift check's far tail needed no QAGS, so nothing deferred loaded
    assert json.loads(lines[-1]) == []
