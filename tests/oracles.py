"""Test oracles: grid searches for the dual solver and the translation
completion, and the scenario parser as a plain per-entry loop.

The grid oracles sweep grids instead of solving first-order conditions, so
they share no search with the library and can check it.  Both refuse atoms
or spaces of more than 3 states, where the grids are small enough to sweep.

* :func:`dual_bruteforce` minimizes the dual objective of
  :func:`condrisk.oce_dual` over a barycentric grid of each atom's
  simplex of conditional measures;
* :func:`niveloidify_bruteforce` sweeps G-measurable shifts jointly with
  positions dominated by x for the supremum :func:`condrisk.niveloidify`
  computes;
* :func:`piecewise_linear_root` finds the multiplier and value of the
  ``chi2`` and ``power:2`` certainty equivalents in exact rational
  arithmetic, by locating the root among the kinks of the slope;
* :func:`parse_scenario_reference` checks a scenario entry by entry, in
  document order, for :func:`condrisk.cli.parse_scenario`.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

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
from condrisk.cli import Scenario, ScenarioError
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
    grid**num_atoms operator calls, each on the grid**num_states positions
    of the y-grid, one per row; spaces with more than 3 states are
    refused.  If the grid supremum is still climbing at either
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
        # the whole y-grid, grid**num_states positions, in one operator call
        axes = [np.linspace(top - BRUTEFORCE_DEPTH, top, grid) for top in tops]
        y = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, space.num_states)
        z = y - a_states if order == "y_then_a" else y
        vals = (a_atoms + _eval(op, g, z)).max(axis=0)
        best = np.maximum(best, vals)
        at = (np.arange(g.num_atoms), levels)
        by_level[at] = np.maximum(by_level[at], vals)

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


def piecewise_linear_root(c, probs, x):
    """The multiplier a and the value a - E[phi_star(a - x)] of one atom, exactly.

    For phi_star'(m) = max(0, 1 + c m) (c = 1/2 for chi2, 1 for power:2),
    so phi_star(m) = m + c m^2 / 2 above the kink -1/c and -1/(2c) below.
    The slope g(a) = E[phi_star'(a - x)] is piecewise linear with kinks at
    x_s - 1/c and reaches 1 by max x; the root is interpolated on the first
    piece whose right end has g >= 1.  Returns two Fractions, computed from
    the floats given, not rounded until the caller converts them.
    """
    c = Fraction(c)
    p = [Fraction(v) for v in probs]
    xs = [Fraction(v) for v in x]
    total = sum(p)

    def slope(a):
        return sum(pi * max(Fraction(0), 1 + c * (a - xi)) for pi, xi in zip(p, xs)) / total

    def star(m):
        return m + c * m * m / 2 if m >= -1 / c else -1 / (2 * c)

    lo = min(xs) - 1 / c  # g = 0 here
    for hi in sorted({xi - 1 / c for xi in xs} | {max(xs)}):
        if slope(hi) >= 1:
            break
        lo = hi
    a = lo + (1 - slope(lo)) * (hi - lo) / (slope(hi) - slope(lo))
    return a, a - sum(pi * star(a - xi) for pi, xi in zip(p, xs)) / total


def _float(v) -> float:
    """float(v), with an integer beyond float range read as the literal 1e400
    (or -1e400) reads: an infinity, which the finiteness checks then reject."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def parse_scenario_reference(raw) -> Scenario:
    """The scenario parser as one loop over the entries, checking each in turn.

    Test oracle for :func:`condrisk.cli.parse_scenario`, which types whole
    lists at once and runs per-entry loops only to name the first offending
    entry: both must give bit-equal scenarios or the same error text.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    states = raw.get("states")
    if not isinstance(states, list) or not states:
        raise ScenarioError("'states' must be a nonempty list of {name, prob} objects")
    names = []
    probs = []
    for pos, entry in enumerate(states):
        if not isinstance(entry, dict) or "name" not in entry or "prob" not in entry:
            raise ScenarioError(f"states[{pos}] must be an object with 'name' and 'prob'")
        name = entry["name"]
        prob = entry["prob"]
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"states[{pos}].name must be a nonempty string")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise ScenarioError(f"states[{pos}].prob must be a number, got {prob!r}")
        names.append(name)
        probs.append(_float(prob))
    if len(set(names)) != len(names):
        dupes = sorted(n for n, k in collections.Counter(names).items() if k > 1)
        raise ScenarioError(f"duplicate state names: {dupes}")
    try:
        space = FiniteProbabilitySpace(names, probs)
    except ValueError as e:
        raise ScenarioError(f"bad state probabilities: {e}") from None

    atoms_raw = raw.get("atoms")
    if not isinstance(atoms_raw, list) or not atoms_raw:
        raise ScenarioError("'atoms' must be a nonempty list of state-name lists")
    index = {n: i for i, n in enumerate(names)}
    atoms = []
    for pos, atom in enumerate(atoms_raw):
        if not isinstance(atom, list) or not atom:
            raise ScenarioError(f"atoms[{pos}] must be a nonempty list of state names")
        members = []
        for member in atom:
            if not isinstance(member, str) or member not in index:
                raise ScenarioError(f"atoms[{pos}] names unknown state {member!r}")
            members.append(index[member])
        atoms.append(members)
    try:
        partition = Partition(atoms)
    except ValueError as e:
        raise ScenarioError(f"bad atoms: {e}") from None
    if partition.num_states != space.num_states:
        raise ScenarioError(
            f"bad atoms: they cover {partition.num_states} of {space.num_states} states; "
            "every state must appear in exactly one atom"
        )

    positions_raw = raw.get("positions", {})
    if not isinstance(positions_raw, dict):
        raise ScenarioError("'positions' must be an object mapping labels to value lists")
    positions = {}
    for label, values in positions_raw.items():
        if not isinstance(values, list) or len(values) != len(names):
            raise ScenarioError(
                f"position {label!r} must list one value per state ({len(names)} values)"
            )
        for j, v in enumerate(values):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ScenarioError(f"position {label!r} entry {j} must be a number, got {v!r}")
        try:
            positions[label] = RandomVariable([_float(v) for v in values])
        except ValueError as e:
            raise ScenarioError(f"position {label!r}: {e}") from None
    return Scenario(space=space, partition=partition, positions=positions, raw=raw)
