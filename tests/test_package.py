"""The package namespace: every public name declared once, by its module;
the package runs on numpy alone; and the benchmark's tracer still finds the
functions it wraps by name."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import condrisk
from condrisk import divergence, dual, niveloid, oce, probspace, scalar_opt

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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


def test_benchmark_tracer_counts_every_layer_and_uninstalls():
    """``benchmarks/tracing.py`` wraps condrisk's functions by name: a rename
    would leave its counts at zero, which its own checks catch only at
    full size."""
    spec = importlib.util.spec_from_file_location("condrisk_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    primal, section = oce.oce_primal, scalar_opt.golden_section_max
    rng = np.random.default_rng(0)
    p = rng.uniform(0.5, 1.5, 12)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up through the package, where the tracer put its wrappers
        space = condrisk.FiniteProbabilitySpace([f"s{i}" for i in range(12)], p / p.sum())
        g = condrisk.Partition([list(range(0, 5)), list(range(5, 12))])
        x = condrisk.RandomVariable(rng.normal(size=12))
        # power:3 is searched; chi2 and power:2 solve without a slope call
        power3 = condrisk.builtin_generator("power:3")
        condrisk.oce_primal(space, g, power3, x)
        condrisk.niveloidify(space, g, condrisk.iphi_operator(space, g, power3), x)
        totals = tracer.take()
    finally:
        tracer.uninstall()
    for metric in ("scalar_opt.search_calls", "divergence.slope_calls", "niveloid.op_evals"):
        assert totals[metric] > 0, metric
    assert condrisk.oce.oce_primal is primal and condrisk.oce_primal is primal
    assert condrisk.scalar_opt.golden_section_max is section
