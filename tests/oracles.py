"""Grid oracles for the dual solver and the translation completion.

They sweep grids instead of solving first-order conditions, so they share
no search with the library and can check it.  Both refuse atoms or spaces
of more than 3 states, where the grids are small enough to sweep.

* :func:`dual_bruteforce` minimizes the dual objective of
  :func:`condrisk.oce_dual` over a barycentric grid of each atom's
  simplex of conditional measures;
* :func:`niveloidify_bruteforce` sweeps G-measurable shifts jointly with
  positions dominated by x for the supremum :func:`condrisk.niveloidify`
  computes.
"""

from __future__ import annotations

import itertools

import numpy as np

from condrisk import (
    ConditionalOperator,
    ConditionalValue,
    DivergenceGenerator,
    FiniteProbabilitySpace,
    NotDominatedError,
    Partition,
    RandomVariable,
    embed,
)
from condrisk.niveloid import _eval
from condrisk.probspace import _check_pair, _check_rv

# niveloidify_bruteforce: the shift grids reach BRUTEFORCE_PAD beyond each
# atom's range of x, the position grids BRUTEFORCE_DEPTH below x
BRUTEFORCE_PAD = 1.0
BRUTEFORCE_DEPTH = 2.0


def dual_bruteforce(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    grid_n: int = 100,
) -> ConditionalValue:
    """Grid minimum of the dual objective over the feasible simplex.

    Test oracle, deliberately independent of the KKT solver: on each atom
    the feasible conditional measures form a simplex, which is swept with a
    barycentric grid of resolution 1/grid_n.  Only meant for tiny atoms;
    atoms with more than 3 states or a grid coarser than 100 are refused.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    grid_n = int(grid_n)
    if grid_n < 100:
        raise ValueError(f"grid_n must be at least 100 to be trustworthy, got {grid_n}")
    out = np.empty(g.num_atoms)
    for i, idx in enumerate(g.index_arrays()):
        k = len(idx)
        if k > 3:
            raise ValueError(f"atom A{i} has {k} states; the brute-force grid handles at most 3")
        w = space.probs[idx]
        w = w / w.sum()
        xa = x.values[idx]
        if k == 1:
            q = np.array([[1.0]])
        elif k == 2:
            steps = np.arange(grid_n + 1) / grid_n
            q = np.stack([steps, 1.0 - steps], axis=1)
        else:
            ii, jj = np.meshgrid(np.arange(grid_n + 1), np.arange(grid_n + 1), indexing="ij")
            keep = ii + jj <= grid_n
            q = np.stack([ii[keep], jj[keep], grid_n - ii[keep] - jj[keep]], axis=1) / grid_n
        # q rows are conditional measure weights; densities are q / w
        obj = q @ xa + (w * np.asarray(gen.phi(q / w), dtype=float)).sum(axis=1)
        out[i] = float(obj.min())
    return ConditionalValue(out)


def niveloidify_bruteforce(
    space: FiniteProbabilitySpace,
    g: Partition,
    op: ConditionalOperator,
    x: RandomVariable,
    grid: int = 9,
    *,
    order: str = "y_then_a",
) -> ConditionalValue:
    """Grid supremum of the translation completion; oracle for tiny spaces.

    Sweeps G-measurable shifts a (per-atom grids over [min_A x - BRUTEFORCE_PAD,
    max_A x + BRUTEFORCE_PAD]) jointly with positions dominated by x.  The two
    equivalent nestings of the defining supremum are both available:

    * ``"y_then_a"``: sup over y <= x (per-state grids reaching
      ``BRUTEFORCE_DEPTH`` below x) of sup over a of a + op(y - a);
    * ``"a_then_y"``: sup over a of sup over y <= x - a of a + op(y).

    Any declared flags are ignored: this is the oracle one runs when the
    operator's shape is in doubt, so it must not lean on it.  Cost is
    grid**(num_states + num_atoms) operator calls; spaces with more than 3
    states are refused.  If the grid supremum is still climbing at either
    end of the shift range the operator is flagged as not dominated (shrink
    the shift toward -inf or +inf and the completion diverges).
    """
    _check_pair(space, g)
    _check_rv(space, x)
    if space.num_states > 3:
        raise ValueError(f"brute force handles at most 3 states, got {space.num_states}")
    grid = int(grid)
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points per axis, got {grid}")
    if order not in ("y_then_a", "a_then_y"):
        raise ValueError(f"order must be 'y_then_a' or 'a_then_y', got {order!r}")
    index_arrays = g.index_arrays()
    a_grids = [
        np.linspace(
            x.values[idx].min() - BRUTEFORCE_PAD, x.values[idx].max() + BRUTEFORCE_PAD, grid
        )
        for idx in index_arrays
    ]
    best = np.full(g.num_atoms, -np.inf)
    # per atom, the best value seen at each level of that atom's shift grid,
    # used afterwards to detect a supremum still climbing at the boundary
    by_level = np.full((g.num_atoms, grid), -np.inf)
    for levels in itertools.product(range(grid), repeat=g.num_atoms):
        a_atoms = np.array([a_grids[i][levels[i]] for i in range(g.num_atoms)])
        a_states = embed(g, ConditionalValue(a_atoms)).values
        if order == "y_then_a":
            tops = x.values
        else:
            tops = x.values - a_states
        axes = [np.linspace(top - BRUTEFORCE_DEPTH, top, grid) for top in tops]
        for combo in itertools.product(*axes):
            y = np.asarray(combo)
            z = y - a_states if order == "y_then_a" else y
            vals = a_atoms + _eval(op, g, RandomVariable(z))
            best = np.maximum(best, vals)
            for i in range(g.num_atoms):
                if vals[i] > by_level[i, levels[i]]:
                    by_level[i, levels[i]] = vals[i]
    def still_climbing(i, end, inward):
        slack = 1e-9 * (1.0 + abs(by_level[i, end]))
        return by_level[i, end] >= best[i] and by_level[i, end] > by_level[i, inward] + slack

    climbing = [
        i
        for i in range(g.num_atoms)
        if still_climbing(i, -1, -2) or still_climbing(i, 0, 1)
    ]
    if climbing:
        raise NotDominatedError(
            f"operator {op.name!r} looks not dominated: the grid supremum is still "
            f"climbing at an end of the shift range on atoms {climbing}",
            climbing,
        )
    return ConditionalValue(best)
