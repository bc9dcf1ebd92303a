"""The benchmark's tracer (``perfbench/tracer.py``) wraps ergolab functions by
module attribute name; a rename or move would silently drop a layer from its
per-layer trace.  These check that every hook still finds its target, and
that the benchmark's workloads still call every hooked function."""

import importlib.util
import json
import sys
from pathlib import Path

import ergolab.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook():
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_tiny_workloads_record_every_hooked_span(tmp_path):
    tracer_module, workloads = _load("tracer"), _load("workloads")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for name in workloads.NAMES:
            wl = workloads.build(name, 1, "tiny")
            out = tmp_path / name
            out.mkdir()
            for fname, cfg in wl.configs.items():
                (out / fname).write_text(json.dumps(cfg))
            for command, fname in wl.steps:
                # looked up on the module, as the benchmark does, to reach the wrapper
                argv = [command, "--config", str(out / fname), "--out-dir", str(out)]
                assert ergolab.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    spans = tracer.export()["spans"]
    recorded = {span[0] for span in spans}
    hooked = {hook[2] for hook in tracer_module.HOOKS}
    assert len(hooked) == 20
    assert hooked - recorded == set()
    parents = [spans[span[4]][0] for span in spans
               if span[0] == "processes.simulate" and span[4] is not None]
    assert "coupling.synchronous_pair_sim" in parents
    # the coupled pair walks both starts in one simulate call
    assert parents.count("coupling.synchronous_pair_sim") == 1
