"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env():
    """The environment of a subprocess that imports ``ergolab`` from this
    checkout's ``src``, whether or not the package is installed: pytest's
    ``pythonpath`` setting reaches only its own interpreter."""
    return {**os.environ, "PYTHONPATH": str(SRC)}
