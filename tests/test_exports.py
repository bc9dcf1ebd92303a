"""Every name a module exports in ``__all__`` must exist on it, so a stale
export left behind by a deletion fails here rather than in a user's
``from ergolab.<module> import *``."""

import importlib
import pkgutil

import pytest

import ergolab

# ``__main__`` runs the command line when imported
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(ergolab.__path__) if info.name != "__main__"
)


def test_the_library_modules_are_found():
    assert {"cli", "coupling", "lowerbound", "lyapunov", "processes", "rates",
            "subordination", "wasserstein"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ergolab.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
