"""The closed-form multiplier of the built-in KL generator.

For KL the mean-one condition E[exp(lambda - x) | A] = 1 solves to
lambda = -log E[exp(-x) | A], and the certainty equivalent equals lambda.
``builtin_generator("kl")`` carries that root as ``mean_one_root``, so its
solves take no search steps.  It is checked here against the search it
replaced (the same generator without the closed form), against scipy's
``logsumexp``, and through the CLI on a payoff range whose float spacing
exceeds the default tolerance.

Bounds, fixed from the worst cases measured on these instances, with
payoff ranges 1e-300 to 1e6 and offsets up to 1e15 among them; a unit is
spacing(max_A |x|) + eps:
- against the search at tol 1e-10, multipliers and values differ by at
  most tol + 0.99 units (the search's root is centred at max_A x and
  rounds when moved back); the bound is tol + 2 units;
- against ``logsumexp``, by at most 5.0 units; the bound is 8 units.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from condrisk import (
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    builtin_generator,
    cli,
    duality_gap,
    oce_dual,
    oce_primal,
)
from conftest import random_instance, searched_generator

TOL = 1e-10
ULPS = 8.0
EPS = np.finfo(float).eps


def reference(space, g, x):
    """-log E[exp(-x) | A] per atom by scipy, and the scale of each atom's payoffs."""
    ref, scale = [], []
    for idx in g.index_arrays():
        p = space.probs[idx]
        ref.append(-logsumexp(-x.values[idx], b=p / p.sum()))
        scale.append(np.abs(x.values[idx]).max())
    return np.array(ref), np.spacing(np.array(scale)) + EPS


def scaled_instance(rng, width, offset):
    """Up to 4 atoms of 2-30 states, payoffs offset + width * U(0, 1)."""
    n = int(rng.integers(2, 31))
    p = rng.uniform(0.1, 1.0, n)
    space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], p / p.sum())
    k = int(rng.integers(1, min(4, n) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    g = Partition(np.split(rng.permutation(n), cuts))
    return space, g, RandomVariable(offset + width * rng.uniform(0.0, 1.0, n))


def check(space, g, x):
    kl = builtin_generator("kl")
    primal, dual = oce_primal(space, g, kl, x), oce_dual(space, g, kl, x)
    searched = oce_primal(space, g, searched_generator("kl"), x)
    # one multiplier for primal, dual and gap, to the last bit
    np.testing.assert_array_equal(primal.multiplier.values, dual.multiplier.values)
    np.testing.assert_array_equal(
        duality_gap(space, g, kl, x).multiplier.values, primal.multiplier.values
    )
    # no search: nothing stepped, no bracket left
    assert primal.iterations == dual.iterations == (0,) * g.num_atoms
    assert not primal.residuals.any() and not dual.residuals.any()
    ref, unit = reference(space, g, x)
    # the search's root is centred at max_A x: moving it back rounds to
    # the float spacing there
    assert np.all(np.abs(primal.multiplier.values - searched.multiplier.values) <= TOL + 2.0 * unit)
    assert np.all(np.abs(primal.value.values - searched.value.values) <= TOL + 2.0 * unit)
    assert np.all(np.abs(primal.multiplier.values - ref) <= ULPS * unit)
    assert np.all(np.abs(primal.value.values - ref) <= ULPS * unit)
    assert np.all(np.abs(dual.value.values - ref) <= ULPS * unit)


def test_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        check(*random_instance(rng, max_states=40, max_atoms=8))


@pytest.mark.parametrize("exponent", [-300, -200, -100, -30, -16, -8, -1, 0, 1, 2, 3, 6])
def test_extreme_scales(exponent):
    rng = np.random.default_rng(1000 + exponent)
    for offset in (0.0, 1.0, -1.0, 1e3, -1e3, 1e8, -1e8, 1e15, -1e15):
        for _ in range(4):
            check(*scaled_instance(rng, 10.0**exponent, offset))


def test_cli_solves_a_range_past_the_float_spacing_of_the_tolerance(tmp_path, capsys):
    # near 1e6 floats are 1.16e-10 apart, more than the default tol 1e-10:
    # a search cannot close its bracket there, the closed form needs none
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "states": [{"name": "lo", "prob": 0.5}, {"name": "hi", "prob": 0.5}],
        "atoms": [["lo", "hi"]],
        "positions": {"payoff": [0.0, 1e6]},
    }))
    for command in ("oce", "dual"):
        code = cli.main([command, str(path), "--position", "payoff", "--divergence", "kl",
                         "--format", "json"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0
        assert (row["residual"], row["iterations"]) == (0.0, 0)
        assert abs(row["value"] - math.log(2.0)) <= 1e-15
