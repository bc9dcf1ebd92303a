"""The benchmark's tracer (``perfbench/tracer.py``) wraps ergolab functions by
module attribute name; a rename or move would silently drop a layer from its
per-layer trace.  This checks that every hook still finds its target."""

import importlib.util
from pathlib import Path


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hook():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
