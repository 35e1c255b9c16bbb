"""The command-line examples of README.md, run against the code.

The scenario is the JSON block of README's "Command line" section; each
``$ condrisk ...`` line of its text blocks runs through ``cli.main`` in a
directory holding that scenario as ``scenario.json``, and the printed lines
must equal the lines shown under it, up to a ``...`` line where the example
is cut short.
"""

import re
import shlex
from pathlib import Path

import pytest

from condrisk import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def command_line_section():
    text = README.read_text()
    start = text.index("## Command line")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else None]


def scenario_json():
    (block,) = re.findall(r"```json\n(.*?)```", command_line_section(), re.S)
    return block


def examples():
    """(argv, expected lines, cut short) for every ``$ condrisk`` line."""
    out = []
    for block in re.findall(r"```text\n(.*?)```", command_line_section(), re.S):
        for chunk in re.split(r"\n\s*\n", block.strip()):
            first, *shown = chunk.splitlines()
            assert first.startswith("$ condrisk "), first
            cut = "..." in shown
            out.append((shlex.split(first)[2:], shown[: shown.index("...")] if cut else shown, cut))
    return out


def test_the_section_has_examples():
    assert len(examples()) >= 3


def example_id(v):
    return " ".join(v) if isinstance(v, list) else ""


@pytest.mark.parametrize("argv, shown, cut", examples(), ids=example_id)
def test_readme_example_prints_what_it_shows(argv, shown, cut, tmp_path, monkeypatch, capsys):
    (tmp_path / "scenario.json").write_text(scenario_json())
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    printed = captured.out.splitlines()
    assert (printed[: len(shown)] if cut else printed) == shown
