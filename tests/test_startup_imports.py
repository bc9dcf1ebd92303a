"""A run starts on numpy alone.

No ``ergolab`` module imports scipy at module level.  The two paths that need
it (an OU exponential of a matrix larger than 1 x 1, and ``exact_lp``'s
``linear_sum_assignment``) import it on first use; none imports
``scipy.integrate``.  The
numpy submodules that numpy loads lazily (``numpy.random``, ``numpy.ma``,
``numpy.polynomial``) are loaded when ``ergolab`` is imported, not midway
through a run.  A stray top-level import, or a new lazy load inside a
workload's steps, would undo that without failing anything else, so a fresh
interpreter checks it here."""

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
# a Langevin walk, whose density constant is in closed form
_LANGEVIN = {
    "process": {"family": "langevin", "alpha": 0.3, "beta": 0.25, "dim": 2},
    "x0": [1.0, -0.5], "t_grid": [0.0, 0.5, 1.0], "n_paths": 8, "seed": 1, "max_step": 0.05,
}
_CHAIN = {"family": "backward_recurrence", "alpha": 3.0, "i0": 5}

# small versions of the steps of the benchmark's four workloads, in order
WORKLOAD_STEPS = [
    ("experiment", "chain", {
        "process": _CHAIN, "x0": [0.0], "t_grid": [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 32.0, 100.0],
        "n_paths": 256, "seed": 1, "distance": {"kind": "w1d"}, "p": 1.0,
        "reference": {"kind": "exact_invariant"}, "rate_model": "polynomial",
    }),
    ("lower", "lower", {
        "process": _CHAIN,
        "params": {"theta": 3.95, "vartheta": 2.95, "eps_var": 0.05, "eps_small": 0.45, "p": 1.0},
        "c": 1.0, "b": 50.0, "x0": [0.0], "n_terms": 3,
        "s_grid": {"min": 1e4, "max": 1e5, "points": 20},
    }),
    ("experiment", "ou-sinkhorn", {
        "process": {"family": "ou_jump", "H": [[-1.0]], "levy": {"a_L": [[1.0]]}},
        "x0": [2.0], "t_grid": {"start": 0.5, "stop": 3.0, "points": 6}, "n_paths": 16,
        "seed": 1, "distance": {"kind": "sinkhorn", "epsilon": 0.1}, "p": 2.0,
        "reference": {"kind": "exact_invariant", "quantile_points": 16},
        "rate_model": "exponential", "max_step": 0.5,
    }),
    ("couple", "couple-2d", {
        "process": {
            "family": "piecewise_ou", "l": [0.0, 0.0], "M": [[1.0, 0.0], [0.0, 1.0]],
            "Gamma": [[0.5, 0.0], [0.0, 0.5]], "v": [0.6, 0.4],
            "sigma": [[0.5, 0.0], [0.0, 0.5]],
            "levy": {"jumps": {"kind": "compound_poisson", "rate": 1.0,
                               "atoms": [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]],
                               "probs": [0.4, 0.4, 0.2]}},
        },
        "x": [3.0, 1.0], "y": [-1.0, -2.0], "t_grid": [0.0, 0.5, 1.0, 1.5, 2.0],
        "n_paths": 400, "seed": 1, "p": 2.0, "max_step": 0.01, "n_boot": 50,
        "certificate": {"lip_sqrtq_sigma": 0.0},
    }),
    ("driftcheck", "driftcheck", _DRIFTCHECK),
    ("subordinate", "subordinate", _SUBORDINATE),
]

_SCRIPT = """
import json, sys
for name in {modules}:
    __import__("ergolab." + name)
print(json.dumps(sorted(m for m in {deferred} if m in sys.modules)))
import ergolab.cli
for command in ("driftcheck", "subordinate", "simulate"):
    argv = [command, "--config", sys.argv[1] + "/" + command + ".json", "--out-dir", sys.argv[1]]
    assert ergolab.cli.main(argv) == 0
print(json.dumps(sorted(m for m in {deferred} if m in sys.modules)))
"""

# the scipy and numpy submodules loaded after the imports, and those each
# step adds, as the last line
_STEPS_SCRIPT = """
import json, sys

def watched():
    return {{m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.")}}

for name in {modules}:
    __import__("ergolab." + name)
loaded = watched()
import ergolab.cli
added = {{}}
for command, name in json.loads(sys.argv[2]):
    argv = [command, "--config", sys.argv[1] + "/" + name + ".json", "--out-dir",
            sys.argv[1] + "/" + name]
    assert ergolab.cli.main(argv) == 0, name
    added[name] = sorted(watched() - loaded)
print(json.dumps({{"scipy": sorted(m for m in loaded if m.startswith("scipy")), "added": added}}))
"""


def test_runs_start_and_certify_without_integrate_or_optimize(tmp_path, src_env):
    (tmp_path / "driftcheck.json").write_text(json.dumps(_DRIFTCHECK))
    (tmp_path / "subordinate.json").write_text(json.dumps(_SUBORDINATE))
    (tmp_path / "simulate.json").write_text(json.dumps(_LANGEVIN))
    script = _SCRIPT.format(modules=MODULES, deferred=DEFERRED)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[0]) == []  # nothing deferred is loaded at start
    # neither the drift check's far tail nor the Langevin walk loads anything deferred
    assert json.loads(lines[-1]) == []


def test_imports_and_workload_steps_load_no_scipy_or_numpy_submodule(tmp_path, src_env):
    for _, name, config in WORKLOAD_STEPS:
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    steps = json.dumps([[command, name] for command, name, _ in WORKLOAD_STEPS])
    script = _STEPS_SCRIPT.format(modules=MODULES)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), steps],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["scipy"] == []  # importing all eight modules loads no scipy module
    assert report["added"] == {name: [] for _, name, _ in WORKLOAD_STEPS}
