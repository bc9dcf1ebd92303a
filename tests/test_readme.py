"""The README's command examples run as written, so a renamed or removed
config key fails here instead of leaving the documentation stale."""

import json
import re
from pathlib import Path

import pytest

from ergolab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
ARTIFACTS = {
    "experiment": "distances.csv",
    "driftcheck": "driftcheck.csv",
    "subordinate": "subordinate.csv",
}


def _examples() -> dict:
    """Each ```json block that holds one config, keyed by the subcommand named
    in bold (``**`name`**``) most recently before it."""
    text = README.read_text()
    examples = {}
    for block in re.finditer(r"```json\n(.*?)```", text, re.S):
        try:
            config = json.loads(block.group(1))
        except json.JSONDecodeError:  # the process description lists several objects
            continue
        command = re.findall(r"\*\*`(\w+)`\*\*", text[: block.start()])[-1]
        examples[command] = config
    return examples


def test_every_command_example_is_found():
    assert set(_examples()) == set(ARTIFACTS)


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_readme_example_runs(command, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_examples()[command]))
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / ARTIFACTS[command]).is_file()
