"""The README's command examples run as written, and its process objects
parse, so a renamed or removed config key fails here instead of leaving the
documentation stale."""

import json
import re
from pathlib import Path

import pytest

from ergolab.cli import _HANDLERS, _SCHEMA, main, parse_process

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


def _process_objects() -> list:
    """The objects of the json block under "Process description", which
    lists several, one after another."""
    text = README.read_text()
    section = text[text.index("### Process description"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    decoder, objects, at = json.JSONDecoder(), [], 0
    while block[at:].strip():
        at = len(block) - len(block[at:].lstrip())
        obj, at = decoder.raw_decode(block, at)
        objects.append(obj)
    return objects


def test_process_description_parses_and_covers_every_family():
    objects = _process_objects()
    for obj in objects:
        parse_process(obj)
    assert sorted(obj["family"] for obj in objects) == sorted(_SCHEMA["process"][1])


def test_subcommand_headings_are_the_subcommands():
    text = README.read_text()
    start = text.index("### Subcommands")
    section = text[start:text.index("\n## ", start)]
    headings = re.findall(r"^\*\*`(\w+)`\*\*", section, re.M)
    assert sorted(headings) == sorted(_HANDLERS)


def test_every_command_example_is_found():
    assert set(_examples()) == set(ARTIFACTS)


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_readme_example_runs(command, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_examples()[command]))
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / ARTIFACTS[command]).is_file()
