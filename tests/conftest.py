"""Shared instance generators for the test suite.

Everything is driven by explicitly seeded numpy generators so every test is
reproducible run to run; tests that count random instances rely on that.
"""

import dataclasses

import numpy as np
import pytest

from condrisk import (
    ConditionalDensity,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    builtin_generator,
    density_to_measure,
)

BUILTIN_NAMES = ("kl", "chi2", "power:2", "power:3")


def searched_generator(name):
    """The built-in generator ``name`` without a closed-form multiplier, so the solvers search it."""
    return dataclasses.replace(builtin_generator(name), mean_one_root=None)


def random_instance(rng, max_states=12, max_atoms=4, lo=-5.0, hi=5.0, min_states=2):
    """Random space + partition + position with the advertised size bounds."""
    n = int(rng.integers(min_states, max_states + 1))
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probs)
    k = int(rng.integers(1, min(max_atoms, n) + 1))
    perm = rng.permutation(n)
    if k > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    else:
        cuts = np.array([], dtype=int)
    bounds = [0] + [int(c) for c in cuts] + [n]
    atoms = [perm[bounds[j] : bounds[j + 1]].tolist() for j in range(k)]
    g = Partition(atoms)
    x = RandomVariable(rng.uniform(lo, hi, n))
    return space, g, x


def random_density(rng, space, g, low=0.05, high=3.0):
    """Strictly positive density with conditional mean exactly one per atom."""
    raw = rng.uniform(low, high, space.num_states)
    vals = raw.copy()
    for idx in g.index_arrays():
        p = space.probs[idx]
        vals[idx] *= float(p.sum()) / float(p @ raw[idx])
    return ConditionalDensity(vals)


def random_measure(rng, space, g, low=0.05, high=3.0):
    return density_to_measure(space, g, random_density(rng, space, g, low, high))


def random_atom_vector(rng, g, lo=-2.0, hi=2.0):
    from condrisk import ConditionalValue

    return ConditionalValue(rng.uniform(lo, hi, g.num_atoms))


@pytest.fixture
def builtin_gens():
    return {name: builtin_generator(name) for name in BUILTIN_NAMES}
