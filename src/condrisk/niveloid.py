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
atom.  That is what lets the searches here step every atom's own problem
with one operator call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergence import ConditionalDensity, DivergenceGenerator, check_density
from .oce import _check_tol, entropic_risk, i_phi
from .probspace import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    atom_masses,
    cond_expectation,
    cond_sup_norm,
    embed,
    _check_pair,
    _check_rv,
    _per_atom,
)
from .scalar_opt import SolverError, expand_bracket_max, golden_section_max

__all__ = [
    "ConditionalOperator",
    "NotDominatedError",
    "AxiomCheck",
    "NiveloidAxiomReport",
    "niveloidify",
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


@dataclass(frozen=True)
class ConditionalOperator:
    """Map from random variables to G-measurable values, with declared shape.

    ``evaluate`` must be deterministic.  The flags are declarations by the
    caller, not inferences; :func:`check_niveloid_axioms` is the tool for
    testing whether they (and the niveloid axioms) actually hold.  Locality
    needs no flag of its own: ``concave`` carries it (see the module notes),
    and :func:`niveloidify` and :func:`penalty` rely on it to search all
    atoms at once, one ``evaluate`` call per step.
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
    """Translation completion sup_a ( a + op(x - a) ), searched on all atoms at once.

    Requires the monotone and concave flags: monotonicity collapses the
    completion to a search over the shift a, and concavity both makes that
    search concave and localizes the value to each atom, so one operator
    call at x - a, a shifting every atom, serves every atom's search step.
    The initial shift brackets [min_A x - 1, max_A x + 1] are doubled
    outward as needed; sustained growth past ``CEILING`` means the supremum
    is +inf and raises :class:`NotDominatedError` naming the offending
    atoms.  ``tol`` is the width to which each shift is searched.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    tol = _check_tol(tol)
    if not (op.monotone and op.concave):
        raise ValueError(
            f"niveloidify needs an operator declared monotone and concave; "
            f"{op.name!r} declares monotone={op.monotone}, concave={op.concave}"
        )

    def shifted_gain(c):
        return c + _eval(op, g, x - embed(g, ConditionalValue(c)))

    lo = _per_atom(g, lambda b: b.min(x.values[b.idx])) - 1.0
    hi = _per_atom(g, lambda b: b.max(x.values[b.idx])) + 1.0
    lo, hi = expand_bracket_max(shifted_gain, lo, hi, ceiling=CEILING)
    peak = golden_section_max(shifted_gain, lo, hi, xtol=tol)
    unbounded = np.flatnonzero(np.isinf(peak.value)).tolist()
    if unbounded:
        raise NotDominatedError(
            f"operator {op.name!r} is not dominated by any niveloid: the completion "
            f"grew past {CEILING:g} on atoms {unbounded}",
            unbounded,
        )
    return ConditionalValue(peak.value)


def penalty(
    space: FiniteProbabilitySpace,
    g: Partition,
    op: ConditionalOperator,
    y: ConditionalDensity,
) -> ConditionalValue:
    """Convex-duality penalty sup_z ( op(z) - E[z y | G] ), per atom.

    Computed by cyclic coordinate ascent over the states of each atom, at
    most ``PENALTY_SWEEPS`` sweeps, each coordinate maximized to
    ``PENALTY_XTOL`` by a bracketed golden-section search.  The j-th states
    of all atoms still climbing are searched together, one operator call
    per step, which relies on the locality that ``concave`` carries (see
    the module notes), so the operator must declare it.  A finite result is
    a lower bound on the true penalty that is exact for coordinate-wise
    separable operators; an atom stops climbing once a full sweep improves
    it by less than 1e-12.  An atom is ``inf`` once a coordinate's
    objective still grows past ``CEILING`` (see
    :func:`condrisk.scalar_opt.expand_bracket_max`), and its ascent stops
    there.  That is how a density the operator does not price shows, as
    with a shifted expectation and y != 1, where the objective grows
    linearly.  It is a reading of growth, not a proof of divergence: an
    objective that approaches a finite supremum as slowly as 1/c still
    improves at ``CEILING`` and reads ``inf`` too.
    """
    _check_pair(space, g)
    check_density(space, g, y)
    if not op.concave:
        raise ValueError(
            f"penalty needs an operator declared concave; "
            f"{op.name!r} declares concave={op.concave}"
        )
    # E[z y | A] is sum_s wy_s z_s over the states of A
    wy = space.probs * y.values / embed(g, ConditionalValue(atom_masses(space, g))).values
    starts = np.cumsum(g._sizes) - g._sizes
    z = np.zeros(space.num_states)
    current = _eval(op, g, RandomVariable(z)).copy()
    climbing = np.ones(g.num_atoms, dtype=bool)
    for _ in range(PENALTY_SWEEPS):
        before = current.copy()
        for j in range(int(g._sizes.max())):
            atoms = np.flatnonzero(climbing & (g._sizes > j))
            if not atoms.size:
                break
            s = g._order[starts[atoms] + j]
            # E[z y | A] without the term of the coordinate being searched
            rest = _per_atom(g, lambda b: b.dot(wy[b.idx], z[b.idx]))[atoms] - wy[s] * z[s]

            def along(c):
                trial = z.copy()
                trial[s] = c
                return _eval(op, g, RandomVariable(trial))[atoms] - (rest + wy[s] * c)

            lo, hi = expand_bracket_max(along, z[s] - 1.0, z[s] + 1.0, ceiling=CEILING)
            peak = golden_section_max(along, lo, hi, xtol=PENALTY_XTOL)
            up = peak.value > current[atoms]
            current[atoms[up]] = peak.value[up]
            grew = np.isinf(peak.value)
            z[s[up & ~grew]] = peak.x[up & ~grew]
            climbing[atoms[grew]] = False
        with np.errstate(invalid="ignore"):  # inf - inf where an atom grew a sweep ago
            climbing &= current - before > 1e-12
        if not climbing.any():
            break
    return ConditionalValue.unbounded(current)


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
    operator itself is computed by a solver; it must be finite and >= 0.
    """
    _check_pair(space, g)
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
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
