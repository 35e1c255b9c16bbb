"""Niveloids: translation-invariant monotone conditional operators.

A niveloid assigns to every random variable a G-measurable value, is
monotone, and is translation invariant: adding a G-measurable constant to
the input adds the same constant to the output.  Monotone concave operators
that lack translation invariance (the base functional -E[phi_star(-x)|G] is
the canonical example) can be completed into one:

    niveloidify(I)(x) = sup_a ( a + I(x - a) ),   a ranging over
                                                  G-measurable constants.

The completion is the smallest niveloid dominating I wherever domination is
possible at all; when no niveloid dominates I (a constant operator, say) the
supremum is +inf and the solver raises :class:`NotDominatedError` instead of
inventing a number.

Concavity with G-measurable weights implies the computation is local: the
value on an atom depends on the input only through its restriction to that
atom.  That is what lets every routine here work atom by atom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergence import ConditionalDensity, DivergenceGenerator, check_density
from .oce import entropic_risk, i_phi
from .probspace import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    cond_expectation,
    cond_sup_norm,
    embed,
    _check_pair,
    _check_rv,
    _per_atom,
)
from .scalar_opt import (
    SolverError,
    UnboundedObjective,
    expand_bracket_max,
    golden_section_max,
)

__all__ = [
    "ConditionalOperator",
    "NotDominatedError",
    "AxiomCheck",
    "NiveloidAxiomReport",
    "niveloidify",
    "niveloidify_bruteforce",
    "penalty",
    "check_niveloid_axioms",
    "expectation_operator",
    "entropic_operator",
    "iphi_operator",
    "atom_min_operator",
    "squared_expectation_operator",
]

# bracket expansion past CEILING means the supremum being searched is +inf
CEILING = 1e6

# penalty: at most PENALTY_SWEEPS coordinate-ascent sweeps, each coordinate
# maximized to PENALTY_XTOL
PENALTY_SWEEPS = 500
PENALTY_XTOL = 1e-10

# niveloidify_bruteforce: the shift grids reach BRUTEFORCE_PAD beyond each
# atom's range of x, the position grids BRUTEFORCE_DEPTH below x
BRUTEFORCE_PAD = 1.0
BRUTEFORCE_DEPTH = 2.0


@dataclass(frozen=True)
class ConditionalOperator:
    """Map from random variables to G-measurable values, with declared shape.

    ``evaluate`` must be deterministic.  The flags are declarations by the
    caller, not inferences; :func:`check_niveloid_axioms` is the tool for
    testing whether they (and the niveloid axioms) actually hold.  Locality
    needs no flag of its own: ``concave`` carries it (see the module notes).
    """

    evaluate: Callable[[RandomVariable], ConditionalValue]
    monotone: bool = False
    concave: bool = False
    name: str = ""


class NotDominatedError(SolverError):
    """No niveloid dominates the operator: its completion is +inf somewhere."""

    def __init__(self, message: str, atoms):
        super().__init__(message)
        self.atoms = tuple(atoms)


def _eval(op: ConditionalOperator, g: Partition, x: RandomVariable) -> np.ndarray:
    out = op.evaluate(x)
    if not isinstance(out, ConditionalValue) or len(out) != g.num_atoms:
        raise ValueError(
            f"operator {op.name!r} must return a ConditionalValue with one entry per atom"
        )
    return out.values


def niveloidify(
    space: FiniteProbabilitySpace,
    g: Partition,
    op: ConditionalOperator,
    x: RandomVariable,
    tol: float = 1e-10,
) -> ConditionalValue:
    """Translation completion sup_a ( a + op(x - a) ), atom by atom.

    Requires the monotone and concave flags: monotonicity collapses the
    completion to a scalar search over the shift a, and concavity both makes
    that search concave and localizes the value to each atom.  The initial
    shift bracket [min_A x - 1, max_A x + 1] is doubled outward as needed;
    sustained growth past ``CEILING`` means the supremum is +inf and raises
    :class:`NotDominatedError` naming the offending atoms.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    if not (op.monotone and op.concave):
        raise ValueError(
            f"niveloidify needs an operator declared monotone and concave; "
            f"{op.name!r} declares monotone={op.monotone}, concave={op.concave}"
        )
    values = np.empty(g.num_atoms)
    unbounded = []
    for i, idx in enumerate(g.index_arrays()):
        xa = x.values[idx]

        def shifted_gain(c):
            z = x.values.copy()
            z[idx] -= c
            return c + float(_eval(op, g, RandomVariable(z))[i])

        lo, hi = float(xa.min()) - 1.0, float(xa.max()) + 1.0
        try:
            lo, hi = expand_bracket_max(shifted_gain, lo, hi, ceiling=CEILING)
        except UnboundedObjective:
            unbounded.append(i)
            continue
        peak = golden_section_max(shifted_gain, lo, hi, xtol=tol)
        values[i] = peak.value
    if unbounded:
        raise NotDominatedError(
            f"operator {op.name!r} is not dominated by any niveloid: the completion "
            f"grew past {CEILING:g} on atoms {unbounded}",
            unbounded,
        )
    return ConditionalValue(values)


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


def penalty(
    space: FiniteProbabilitySpace,
    g: Partition,
    op: ConditionalOperator,
    y: ConditionalDensity,
) -> ConditionalValue:
    """Convex-duality penalty sup_z ( op(z) - E[z y | G] ), per atom.

    Computed by cyclic coordinate ascent over the states of each atom, at
    most ``PENALTY_SWEEPS`` sweeps, each coordinate maximized to
    ``PENALTY_XTOL`` by a bracketed golden-section search.  A finite
    result is a lower bound on the true penalty that is exact for
    coordinate-wise separable operators; sweeps stop early once a full pass
    improves the objective by less than 1e-12.  An atom is ``inf`` once a
    coordinate's objective still grows past ``CEILING`` (see
    :func:`condrisk.scalar_opt.expand_bracket_max`), and its ascent stops
    there.  That is how a density the operator does not price shows, as
    with a shifted expectation and y != 1, where the objective grows
    linearly.  It is a reading of growth, not a proof of divergence: an
    objective that approaches a finite supremum as slowly as 1/c still
    improves at ``CEILING`` and reads ``inf`` too.
    """
    _check_pair(space, g)
    check_density(space, g, y)
    out = np.empty(g.num_atoms)
    for i, idx in enumerate(g.index_arrays()):
        w = space.probs[idx]
        w = w / w.sum()
        ya = y.values[idx]
        z = np.zeros(space.num_states)

        def objective_at(zvec):
            return float(_eval(op, g, RandomVariable(zvec))[i]) - float(w @ (zvec[idx] * ya))

        current = objective_at(z)
        for _ in range(PENALTY_SWEEPS):
            before = current
            for s in idx:

                def along(c):
                    trial = z.copy()
                    trial[s] = c
                    return objective_at(trial)

                try:
                    lo, hi = expand_bracket_max(along, z[s] - 1.0, z[s] + 1.0, ceiling=CEILING)
                except UnboundedObjective:
                    current = np.inf
                    break
                peak = golden_section_max(along, lo, hi, xtol=PENALTY_XTOL)
                if peak.value > current:
                    z[s] = peak.x
                    current = peak.value
            if current == np.inf or current - before <= 1e-12:
                break
        out[i] = current
    return ConditionalValue.unbounded(out)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of sampling one axiom: worst violation and a witness if any."""

    name: str
    passed: bool
    max_violation: float
    counterexample: Optional[dict]


@dataclass(frozen=True)
class NiveloidAxiomReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.name}: {status} (max violation {c.max_violation:.3e})")
        return "\n".join(lines)


def check_niveloid_axioms(
    space: FiniteProbabilitySpace,
    g: Partition,
    op: ConditionalOperator,
    samples: int = 100,
    *,
    tol: float = 1e-9,
    seed: int = 0,
) -> NiveloidAxiomReport:
    """Sample the niveloid axioms and report violations with witnesses.

    Checked on random inputs: translation invariance under G-measurable
    shifts, monotonicity, concavity with G-measurable weights, locality and
    regularity on G-measurable sets, and nonexpansiveness (1-Lipschitz) in
    the conditional sup norm.  ``tol`` should be the identity tolerance for
    closed-form operators and about twice the solver tolerance when the
    operator itself is computed by a solver.
    """
    _check_pair(space, g)
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    n, k = space.num_states, g.num_atoms

    worst = {name: 0.0 for name in (
        "translation_invariance", "monotonicity", "concavity",
        "locality", "regularity", "lipschitz",
    )}
    witness = {name: None for name in worst}

    def record(name, violation, data):
        if violation > worst[name]:
            worst[name] = violation
            if violation > tol:
                witness[name] = data

    for _ in range(samples):
        x = RandomVariable(rng.uniform(-3.0, 3.0, n))
        yv = RandomVariable(x.values - rng.uniform(0.0, 2.0, n))
        other = RandomVariable(rng.uniform(-3.0, 3.0, n))
        a = ConditionalValue(rng.uniform(-2.0, 2.0, k))
        lam = ConditionalValue(rng.uniform(0.0, 1.0, k))
        mask_bits = rng.integers(0, 2, k)
        ind = ConditionalValue(mask_bits.astype(float))

        fx = _eval(op, g, x)
        fy = _eval(op, g, yv)
        fo = _eval(op, g, other)

        shifted = _eval(op, g, x + embed(g, a))
        record(
            "translation_invariance",
            float(np.max(np.abs(shifted - (fx + a.values)))),
            {"x": x.values.tolist(), "a": a.values.tolist()},
        )

        record(
            "monotonicity",
            float(np.max(fy - fx)),
            {"x": x.values.tolist(), "y": yv.values.tolist()},
        )

        mix = embed(g, lam) * x + embed(g, ConditionalValue(1.0 - lam.values)) * other
        record(
            "concavity",
            float(np.max(lam.values * fx + (1.0 - lam.values) * fo - _eval(op, g, mix))),
            {"x": x.values.tolist(), "y": other.values.tolist(), "lam": lam.values.tolist()},
        )

        ind_states = embed(g, ind)
        masked = _eval(op, g, ind_states * x)
        on = mask_bits.astype(bool)
        if on.any():
            record(
                "locality",
                float(np.max(np.abs(masked[on] - fx[on]))),
                {"x": x.values.tolist(), "set_atoms": np.nonzero(on)[0].tolist()},
            )
        spliced = ind_states * x + (1.0 - ind_states) * other
        glued = np.where(on, fx, fo)
        record(
            "regularity",
            float(np.max(np.abs(_eval(op, g, spliced) - glued))),
            {"x": x.values.tolist(), "y": other.values.tolist(),
             "set_atoms": np.nonzero(on)[0].tolist()},
        )

        gap = cond_sup_norm(space, g, x - other).values
        record(
            "lipschitz",
            float(np.max(np.abs(fx - fo) - gap)),
            {"x": x.values.tolist(), "y": other.values.tolist()},
        )

    checks = tuple(
        AxiomCheck(name, worst[name] <= tol, worst[name], witness[name]) for name in worst
    )
    return NiveloidAxiomReport(checks)


# ---------------------------------------------------------------------------
# stock operators


def expectation_operator(space: FiniteProbabilitySpace, g: Partition) -> ConditionalOperator:
    """Conditional expectation; the risk-neutral niveloid."""
    return ConditionalOperator(
        evaluate=lambda x: cond_expectation(space, g, x),
        monotone=True,
        concave=True,
        name="expectation",
    )


def entropic_operator(space: FiniteProbabilitySpace, g: Partition) -> ConditionalOperator:
    """Conditional entropic risk -log E[exp(-x) | G]; a strict niveloid."""
    return ConditionalOperator(
        evaluate=lambda x: entropic_risk(space, g, x),
        monotone=True,
        concave=True,
        name="entropic",
    )


def iphi_operator(
    space: FiniteProbabilitySpace, g: Partition, gen: DivergenceGenerator
) -> ConditionalOperator:
    """Base functional -E[phi_star(-x) | G]: monotone and concave but not
    translation invariant, hence the canonical niveloidify input."""
    return ConditionalOperator(
        evaluate=lambda x: i_phi(space, g, gen, x),
        monotone=True,
        concave=True,
        name=f"iphi:{gen.name}",
    )


def atom_min_operator(space: FiniteProbabilitySpace, g: Partition) -> ConditionalOperator:
    """Per-atom worst case min_A x; the most conservative niveloid."""

    def evaluate(x: RandomVariable) -> ConditionalValue:
        _check_rv(space, x)
        return ConditionalValue(_per_atom(g, lambda b: b.min(x.values[b.idx])))

    return ConditionalOperator(
        evaluate=evaluate, monotone=True, concave=True, name="min"
    )


def squared_expectation_operator(
    space: FiniteProbabilitySpace, g: Partition
) -> ConditionalOperator:
    """E[x | G] squared: deliberately breaks translation invariance and
    monotonicity, kept as the stock counterexample for the axiom checker."""

    def evaluate(x: RandomVariable) -> ConditionalValue:
        return ConditionalValue(cond_expectation(space, g, x).values ** 2)

    return ConditionalOperator(
        evaluate=evaluate, monotone=False, concave=False, name="sq-expectation"
    )
