"""The examples of README.md, run against the code.

The scenario is the JSON block of README's "Command line" section; each
``$ condrisk ...`` line of its text blocks runs through ``cli.main`` in a
directory holding that scenario as ``scenario.json``, and the printed lines
must equal the lines shown under it, up to a ``...`` line where the example
is cut short.  The Python block of the "Library tour" runs as a script, and
each ``print`` must print the numbers its comment shows.
"""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from condrisk import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    text = README.read_text()
    start = text.index(f"## {title}")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else None]


def command_line_section():
    return section("Command line")


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


# each test is named by its command line alone, so new output keeps the name
@pytest.mark.parametrize("argv, shown, cut", [pytest.param(*e, id=" ".join(e[0])) for e in examples()])
def test_readme_example_prints_what_it_shows(argv, shown, cut, tmp_path, monkeypatch, capsys):
    (tmp_path / "scenario.json").write_text(scenario_json())
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    printed = captured.out.splitlines()
    assert (printed[: len(shown)] if cut else printed) == shown


def test_library_tour_prints_what_its_comments_show(capsys):
    (script,) = re.findall(r"```python\n(.*?)```", section("Library tour"), re.S)
    names = {}
    exec(compile(script, "README.md", "exec"), names)
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1] for line in script.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) >= 4
    for out, comment in zip(printed, comments):
        shown = re.match(r"\s*\[(.*?)\]", comment).group(1).split()
        np.testing.assert_allclose(
            np.array(out.strip("[]").split(), dtype=float),
            np.array(shown, dtype=float),
            rtol=1e-7, atol=1e-15, err_msg=comment,
        )
        # an attribute a comment names, such as primal.multiplier, exists
        for obj, attr in re.findall(r"\b(\w+)\.(\w+)", comment):
            if obj in names:
                assert hasattr(names[obj], attr), comment
