"""The package namespace: every public name declared once, by its module;
and the package runs on numpy alone."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import condrisk
from condrisk import divergence, dual, niveloid, oce, probspace


def test_all_is_the_modules_lists_in_order():
    modules = (probspace, divergence, oce, dual, niveloid)
    expected = [name for m in modules for name in m.__all__]
    expected += ["SolverError", "UnboundedObjective", "__version__"]
    assert condrisk.__all__ == expected


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(set(condrisk.__all__)) == len(condrisk.__all__)
    for name in condrisk.__all__:
        assert getattr(condrisk, name) is not None, name
    for m in (probspace, divergence, oce, dual, niveloid):
        for name in m.__all__:
            assert getattr(condrisk, name) is getattr(m, name), name


def test_runs_without_scipy(tmp_path):
    """With every scipy import made to fail, the package imports and the KL
    commands run; scipy is needed only by the tests' oracles."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "states": [{"name": "a", "prob": 0.25}, {"name": "b", "prob": 0.25}, {"name": "c", "prob": 0.5}],
                "atoms": [["a", "b"], ["c"]],
                "positions": {"x": [0.0, 1.0, 0.5], "tilt": [0.35, 0.15, 0.5]},
            }
        )
    )
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None
        import condrisk
        import condrisk.cli as cli
        for argv in (
            ["oce", {str(scenario)!r}, "--position", "x"],
            ["dual", {str(scenario)!r}, "--position", "x"],
            ["gap", {str(scenario)!r}, "--position", "x"],
            ["divergence", {str(scenario)!r}, "--measure", "tilt"],
        ):
            code = cli.main(argv + ["--divergence", "kl"])
            assert code == 0, (argv, code)
        """
    )
    src = str(Path(condrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
