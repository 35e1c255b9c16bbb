"""The Newton multiplier of the built-in chi2 and power:2 generators.

For both, phi_star'(m) = max(0, 1 + c m) with c = 1/2 (chi2) and c = 1
(power:2), so the mean-one condition is a convex piecewise-linear equation
in the multiplier, which ``mean_one_root`` solves by Newton's method.  It is
checked here against an exact rational root (``oracles.piecewise_linear_root``),
against the search it replaced (the same generators without the root), and
through the CLI on a payoff range whose float spacing exceeds the default
tolerance.  The instances are item 1's of the roadmap (10^4 states in 10^3
atoms, where the active set shrinks on almost every atom), atoms larger than
a block, and payoff ranges 1e-300 to 1e6 at offsets up to 1e15.

Bounds, fixed from the worst cases measured on these instances; a unit is
spacing(max_A |x|) + eps:
- against the exact root, multipliers differ by at most 2.67 units and
  values by 1.25; the bounds are 4 and 2 units;
- against the search at tol 1e-10, multipliers differ by at most
  tol + 0.14 units and values by 1.33 units; the bounds are tol + 2 and
  2 units;
- primal and dual values differ by at most 5.0 units; the bound is 8;
- an atom solved alone and inside its block differs by at most 4.8 units
  in the multiplier and 1.6 in the value; the bounds are 8 and 3 units.
"""

import json

import numpy as np
import pytest

from condrisk import (
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    builtin_generator,
    check_density,
    cli,
    duality_gap,
    oce_dual,
    oce_primal,
)
from condrisk.probspace import BLOCK_STATES
from conftest import random_instance, searched_generator
from oracles import piecewise_linear_root
from test_kl_closed_form import scaled_instance

NEWTON = {"chi2": 0.5, "power:2": 1.0}
TOL = 1e-10
EPS = np.finfo(float).eps


def units(g, x):
    """spacing(max_A |x|) + eps per atom."""
    return np.array([np.spacing(np.abs(x.values[idx]).max()) for idx in g.index_arrays()]) + EPS


def item1_instance():
    """10^4 states in 10^3 atoms of 10, 3 N(0, 1) payoffs, Dirichlet probabilities."""
    rng = np.random.default_rng(1)
    x = 3.0 * rng.normal(size=10_000)
    p = rng.dirichlet(np.ones(10_000))
    space = FiniteProbabilitySpace([f"s{i}" for i in range(10_000)], p)
    return space, Partition(np.arange(10_000).reshape(1000, 10)), RandomVariable(x)


def large_atoms():
    """One-atom blocks of more than BLOCK_STATES states, and a few small atoms."""
    rng = np.random.default_rng(2)
    sizes = [BLOCK_STATES + 1, 3, 2 * BLOCK_STATES + 77, 40]
    n = sum(sizes)
    p = rng.uniform(0.1, 1.0, n)
    space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], p / p.sum())
    g = Partition(np.split(rng.permutation(n), np.cumsum(sizes)[:-1]))
    return space, g, RandomVariable(3.0 * rng.normal(size=n))


def check(space, g, x, name):
    """The Newton root against the search, and its primal, dual and gap."""
    gen = builtin_generator(name)
    primal, dual = oce_primal(space, g, gen, x), oce_dual(space, g, gen, x)
    searched = oce_primal(space, g, searched_generator(name), x)
    # one multiplier for primal, dual and gap, to the last bit
    np.testing.assert_array_equal(primal.multiplier.values, dual.multiplier.values)
    np.testing.assert_array_equal(
        duality_gap(space, g, gen, x).multiplier.values, primal.multiplier.values
    )
    # no search: nothing stepped, no bracket left
    assert primal.iterations == dual.iterations == (0,) * g.num_atoms
    assert not primal.residuals.any() and not dual.residuals.any()
    unit = units(g, x)
    assert np.all(np.abs(primal.multiplier.values - searched.multiplier.values) <= TOL + 2.0 * unit)
    assert np.all(np.abs(primal.value.values - searched.value.values) <= 2.0 * unit)
    assert np.all(np.abs(primal.value.values - dual.value.values) <= 8.0 * unit)
    # a feasible dual density: nonnegative, conditional mean one within MASS_TOL
    assert np.all(dual.density.values >= 0.0)
    check_density(space, g, dual.density)
    return dual


def check_exact(space, g, x, name):
    primal = oce_primal(space, g, builtin_generator(name), x)
    unit = units(g, x)
    for i, idx in enumerate(g.index_arrays()):
        a, value = piecewise_linear_root(NEWTON[name], space.probs[idx], x.values[idx])
        assert abs(primal.multiplier.values[i] - float(a)) <= 4.0 * unit[i]
        assert abs(primal.value.values[i] - float(value)) <= 2.0 * unit[i]


@pytest.mark.parametrize("name", sorted(NEWTON))
def test_random_instances_match_the_exact_root(name):
    rng = np.random.default_rng(0)
    for _ in range(100):
        instance = random_instance(rng, max_states=40, max_atoms=8)
        check_exact(*instance, name)
        check(*instance, name)


@pytest.mark.parametrize("name", sorted(NEWTON))
@pytest.mark.parametrize("exponent", [-300, -200, -100, -30, -16, -8, -1, 0, 1, 2, 3, 6])
def test_extreme_scales(name, exponent):
    rng = np.random.default_rng(1000 + exponent)
    for offset in (0.0, 1.0, -1.0, 1e3, -1e3, 1e8, -1e8, 1e15, -1e15):
        for _ in range(4):
            instance = scaled_instance(rng, 10.0**exponent, offset)
            check_exact(*instance, name)
            check(*instance, name)


@pytest.mark.parametrize("name", sorted(NEWTON))
def test_item1_instance_where_the_active_set_shrinks(name):
    space, g, x = item1_instance()
    dual = check(space, g, x, name)
    # most atoms end with states of zero density: Newton left them behind
    zeros = [np.any(dual.density.values[idx] == 0.0) for idx in g.index_arrays()]
    assert sum(zeros) > 900


@pytest.mark.parametrize("name", sorted(NEWTON))
def test_atoms_larger_than_a_block(name):
    space, g, x = large_atoms()
    assert any(b.starts.size == 1 and b.idx.size > BLOCK_STATES for b in g._blocks)
    check(space, g, x, name)


@pytest.mark.parametrize("name", sorted(NEWTON))
def test_an_atom_alone_matches_its_block(name):
    # an atom that stops is frozen, so inside a block it takes the passes it
    # would alone; only the rounding of the sums differs
    space, g, x = item1_instance()
    gen = builtin_generator(name)
    together = oce_primal(space, g, gen, x)
    unit = units(g, x)
    for i, idx in enumerate(g.index_arrays()):
        p = space.probs[idx]
        alone_space = FiniteProbabilitySpace([f"s{j}" for j in range(idx.size)], p / p.sum())
        alone = oce_primal(
            alone_space, Partition.trivial(idx.size), gen, RandomVariable(x.values[idx])
        )
        assert abs(alone.multiplier.values[0] - together.multiplier.values[i]) <= 8.0 * unit[i]
        assert abs(alone.value.values[0] - together.value.values[i]) <= 3.0 * unit[i]


def test_only_the_piecewise_linear_generators_carry_the_root():
    assert builtin_generator("chi2").mean_one_root is not None
    assert builtin_generator("power:2").mean_one_root is not None
    assert builtin_generator("power:2.0").mean_one_root is not None
    for spec in ("power:1.01", "power:1.5", "power:3", "power:50"):
        assert builtin_generator(spec).mean_one_root is None


def test_cli_solves_a_range_past_the_float_spacing_of_the_tolerance(tmp_path, capsys):
    # near 1e6 floats are 1.16e-10 apart, more than the default tol 1e-10:
    # Newton needs no bracket, while a search cannot close one there
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "states": [{"name": "lo", "prob": 0.5}, {"name": "hi", "prob": 0.5}],
        "atoms": [["lo", "hi"]],
        "positions": {"payoff": [0.0, 1e6]},
    }))

    def run(command, divergence):
        code = cli.main([command, str(path), "--position", "payoff", "--divergence", divergence,
                         "--format", "json"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        return code, row

    for command in ("oce", "dual"):
        for divergence, value in (("chi2", 1.0), ("power:2", 0.5)):
            code, row = run(command, divergence)
            assert code == 0
            assert (row["value"], row["residual"], row["iterations"]) == (value, 0.0, 0)
        # the searched generators still exit 3 here: roadmap item 1
        for divergence in ("power:1.01", "power:3"):
            code, row = run(command, divergence)
            assert code == 3
            assert row["residual"] > TOL
