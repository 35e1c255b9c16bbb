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
with one operator call.  An operator evaluates a batch of positions, one
per row, so that call also carries all ``PROBES`` points of a step of the
section search (:func:`condrisk.scalar_opt.golden_section_max`):
:func:`niveloidify` and each line search of :func:`penalty` make one call
per search step (the section search starts from the values at the bracket
ends that the bracket expansion has computed), and
:func:`check_niveloid_axioms` seven per batch of samples.  The line
searches of :func:`penalty` are loose in its early sweeps and start from
brackets sized by each coordinate's last move, so that few of its steps
go to precision the next sweep would undo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergence import ConditionalDensity, DivergenceGenerator, check_density
from .oce import DEFAULT_TOL, _check_tol, _entropic, _i_phi
from .probspace import (
    BLOCK_STATES,
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    atom_masses,
    _check_pair,
    _check_rv,
    _cond_max,
    _cond_mean,
    _per_atom,
    _spread,
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

# penalty: at most PENALTY_SWEEPS coordinate-ascent sweeps; the final ones
# maximize each coordinate to PENALTY_XTOL, earlier ones more loosely
PENALTY_SWEEPS = 500
PENALTY_XTOL = 1e-10


@dataclass(frozen=True)
class ConditionalOperator:
    """Map from positions to G-measurable values, with declared shape.

    ``evaluate`` maps an (m, n) array of positions, one per row over the n
    states, to an (m, k) array whose row i holds the k per-atom values of
    position i.  Rows are independent, so an operator written for one
    position works row by row::

        def capped(z):  # min(E[z | G], 0)
            return np.array([
                np.minimum(cond_expectation(space, g, RandomVariable(row)).values, 0.0)
                for row in z
            ])

        op = ConditionalOperator(capped, monotone=True, concave=True, name="capped")

    The stock operators reduce all rows at once on the partition's blocks.
    ``evaluate`` must be deterministic and its values finite.  The flags are
    declarations by the caller, not inferences; :func:`check_niveloid_axioms`
    is the tool for testing whether they (and the niveloid axioms) actually
    hold.  Locality needs no flag of its own: ``concave`` carries it (see
    the module notes), and :func:`niveloidify` and :func:`penalty` rely on
    it to search all atoms at once, one ``evaluate`` call per step.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    monotone: bool = False
    concave: bool = False
    name: str = ""


class NotDominatedError(SolverError):
    """No niveloid dominates the operator: its completion is +inf somewhere."""

    def __init__(self, message: str, atoms):
        super().__init__(message)
        self.atoms = tuple(atoms)


def _eval(op: ConditionalOperator, g: Partition, z: np.ndarray) -> np.ndarray:
    """``op`` at the positions z, of shape (..., n): checked values of shape (..., k)."""
    rows = np.reshape(z, (-1, g.num_states))
    out = op.evaluate(rows)
    if not isinstance(out, np.ndarray) or out.shape != (rows.shape[0], g.num_atoms):
        raise ValueError(
            f"operator {op.name!r} must return an array with one entry per atom "
            f"for each of its {rows.shape[0]} positions"
        )
    if not np.isfinite(out).all():
        raise ValueError(f"operator {op.name!r} must return finite values, got {out!r}")
    return out.reshape(z.shape[:-1] + (g.num_atoms,))


def niveloidify(
    space: FiniteProbabilitySpace,
    g: Partition,
    op: ConditionalOperator,
    x: RandomVariable,
    tol: float = DEFAULT_TOL,
) -> ConditionalValue:
    """Translation completion sup_a ( a + op(x - a) ), searched on all atoms at once.

    Requires the monotone and concave flags: monotonicity collapses the
    completion to a search over the shift a, and concavity both makes that
    search concave and localizes the value to each atom, so one operator
    call on the positions x - a, each a shifting every atom by one of the
    section search's probes, serves every atom's search step.
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
        # c holds one shift per atom on its last axis, a row per probe
        return c + _eval(op, g, x.values - _spread(g, c))

    lo = _per_atom(g, lambda b: b.min(x.values[b.idx])) - 1.0
    hi = _per_atom(g, lambda b: b.max(x.values[b.idx])) + 1.0
    bracket = expand_bracket_max(shifted_gain, lo, hi, ceiling=CEILING)
    peak = golden_section_max(shifted_gain, *bracket, xtol=tol)
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
    most ``PENALTY_SWEEPS`` sweeps, each coordinate maximized by a
    bracketed section search.  The j-th states of all atoms still climbing
    are searched together, one operator call per step on the trial vectors
    of all probes, which relies on the locality that ``concave`` carries
    (see the module notes), so the operator must declare it.

    The sweeps go from loose to tight.  Near a smooth maximum the value's
    error is quadratic in the coordinate's, so the first sweep searches to
    a width of 1e-3 and each later one to 1e-3 times the square root of the
    largest gain of the sweep before, never wider than the last width nor
    narrower than ``PENALTY_XTOL``, which is the width of the final sweeps.
    A loose sweep that gains at most 1e-12 goes straight to
    ``PENALTY_XTOL``, and an atom stops climbing once a sweep at
    ``PENALTY_XTOL`` improves it by less than 1e-12.  Each coordinate's
    bracket is warm: it is centred on the coordinate, with a radius of 1
    at first and then four times the coordinate's last move, kept within
    [8 x width, 1].  A bracket that misses the maximum still grows (see
    :func:`condrisk.scalar_opt.expand_bracket_max`); the cap at 1 keeps a
    flat direction, such as the one state of a one-state atom, from
    drifting with its radius towards ``CEILING``.

    A finite result is a lower bound on the true penalty that is exact for
    coordinate-wise separable operators.  An atom is ``inf`` once a
    coordinate's objective still grows past ``CEILING``, and its ascent
    stops there; the atoms are then named in a warning on the ``condrisk``
    logger.  That is how a density the operator does not price shows, as
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
    wy = space.probs * y.values / _spread(g, atom_masses(space, g))
    starts = np.cumsum(g._sizes) - g._sizes
    z = np.zeros(space.num_states)
    radius = np.ones(space.num_states)
    current = _eval(op, g, z).copy()
    climbing = np.ones(g.num_atoms, dtype=bool)
    xtol = 1e-3
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
                # z with coordinate s set to each row of c: one trial vector per probe
                trial = np.empty(c.shape[:-1] + z.shape)
                trial[...] = z
                trial[..., s] = c
                return _eval(op, g, trial)[..., atoms] - (rest + wy[s] * c)

            bracket = expand_bracket_max(along, z[s] - radius[s], z[s] + radius[s], ceiling=CEILING)
            peak = golden_section_max(along, *bracket, xtol=xtol)
            up = peak.value > current[atoms]
            current[atoms[up]] = peak.value[up]
            grew = np.isinf(peak.value)
            # a search that finds no better point moves its coordinate by 0;
            # the next bracket's radius is capped at 1, so that a flat
            # direction cannot drift with a radius that grows on every move
            moved = np.where(up & ~grew, peak.x, z[s])
            radius[s] = np.clip(4.0 * np.abs(moved - z[s]), 8.0 * xtol, 1.0)
            z[s] = moved
            climbing[atoms[grew]] = False
        with np.errstate(invalid="ignore"):  # inf - inf where an atom grew a sweep ago
            gain = np.where(climbing, current - before, 0.0)
        # only a sweep at full precision may stop an atom; a loose one sets
        # the next sweep's width from its largest gain
        if xtol == PENALTY_XTOL:
            climbing &= gain > 1e-12
        elif gain.max() <= 1e-12:
            xtol = PENALTY_XTOL
        else:
            xtol = max(PENALTY_XTOL, min(xtol, 1e-3 * np.sqrt(gain.max())))
        if not climbing.any():
            break
    unbounded = np.flatnonzero(np.isinf(current)).tolist()
    if unbounded:
        # imported here, so that a program that never sees an inf penalty
        # does not pay the import, 0.4 to 0.7 MB of the niveloid benchmark's peak RSS
        import logging

        logging.getLogger("condrisk").warning(
            "penalty reads +inf on atoms %s: a coordinate's objective grew past "
            "CEILING = %g, which is a reading of growth, not a proof of divergence",
            unbounded, CEILING,
        )
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

    def record(name, violations, data):
        # the first sample of a batch's largest violation, as a loop over
        # the samples would keep it; its witness is built only when kept
        i = int(np.argmax(violations))
        if violations[i] > worst[name]:
            worst[name] = float(violations[i])
            if worst[name] > tol:
                witness[name] = data(i)

    # samples are drawn one after another, as a loop over them draws them,
    # and evaluated in batches, seven operator calls a batch; a batch keeps
    # about eight arrays of its positions alive at once, together within
    # BLOCK_STATES states, so the check's memory does not grow with samples
    batch = max(1, BLOCK_STATES // (8 * n))
    for first in range(0, samples, batch):
        m = min(batch, samples - first)
        x, yv, other = np.empty((3, m, n))
        a, lam = np.empty((2, m, k))
        on = np.empty((m, k), dtype=bool)
        for i in range(m):
            x[i] = rng.uniform(-3.0, 3.0, n)
            yv[i] = x[i] - rng.uniform(0.0, 2.0, n)
            other[i] = rng.uniform(-3.0, 3.0, n)
            a[i] = rng.uniform(-2.0, 2.0, k)
            lam[i] = rng.uniform(0.0, 1.0, k)
            on[i] = rng.integers(0, 2, k)
        fx, fy, fo = _eval(op, g, x), _eval(op, g, yv), _eval(op, g, other)

        shifted = _eval(op, g, x + _spread(g, a))
        record(
            "translation_invariance",
            np.abs(shifted - (fx + a)).max(axis=1),
            lambda i: {"x": x[i].tolist(), "a": a[i].tolist()},
        )

        record(
            "monotonicity",
            (fy - fx).max(axis=1),
            lambda i: {"x": x[i].tolist(), "y": yv[i].tolist()},
        )

        mix = _spread(g, lam) * x + _spread(g, 1.0 - lam) * other
        record(
            "concavity",
            (lam * fx + (1.0 - lam) * fo - _eval(op, g, mix)).max(axis=1),
            lambda i: {"x": x[i].tolist(), "y": other[i].tolist(), "lam": lam[i].tolist()},
        )

        ind_states = _spread(g, on.astype(float))
        masked = _eval(op, g, ind_states * x)
        # a sample with no atom in the set has nothing to check: -inf
        record(
            "locality",
            np.where(on, np.abs(masked - fx), -np.inf).max(axis=1),
            lambda i: {"x": x[i].tolist(), "set_atoms": np.flatnonzero(on[i]).tolist()},
        )
        spliced = ind_states * x + (1.0 - ind_states) * other
        glued = np.where(on, fx, fo)
        record(
            "regularity",
            np.abs(_eval(op, g, spliced) - glued).max(axis=1),
            lambda i: {"x": x[i].tolist(), "y": other[i].tolist(),
                       "set_atoms": np.flatnonzero(on[i]).tolist()},
        )

        gap = _cond_max(g, np.abs(x - other))
        record(
            "lipschitz",
            (np.abs(fx - fo) - gap).max(axis=1),
            lambda i: {"x": x[i].tolist(), "y": other[i].tolist()},
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
        evaluate=lambda z: _cond_mean(g, space.probs, z),
        monotone=True,
        concave=True,
        name="expectation",
    )


def entropic_operator(space: FiniteProbabilitySpace, g: Partition) -> ConditionalOperator:
    """Conditional entropic risk -log E[exp(-x) | G]; a strict niveloid."""
    return ConditionalOperator(
        evaluate=lambda z: _entropic(space, g, z),
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
        evaluate=lambda z: _i_phi(space, g, gen, z),
        monotone=True,
        concave=True,
        name=f"iphi:{gen.name}",
    )


def atom_min_operator(space: FiniteProbabilitySpace, g: Partition) -> ConditionalOperator:
    """Per-atom worst case min_A x; the most conservative niveloid."""
    return ConditionalOperator(
        evaluate=lambda z: _per_atom(g, lambda b: b.min(b.take(z))),
        monotone=True,
        concave=True,
        name="min",
    )


def squared_expectation_operator(
    space: FiniteProbabilitySpace, g: Partition
) -> ConditionalOperator:
    """E[x | G] squared: deliberately breaks translation invariance and
    monotonicity, kept as the stock counterexample for the axiom checker."""
    return ConditionalOperator(
        evaluate=lambda z: _cond_mean(g, space.probs, z) ** 2,
        monotone=False,
        concave=False,
        name="sq-expectation",
    )
