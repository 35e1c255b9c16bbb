"""Conditional optimized certainty equivalents, dual (measure) side.

The dual representation prices a position x by penalized expectation over
all measures nu that agree with the base measure on the partition:

    inf_nu ( E_nu[x | G] + D_phi(nu || mu)[A] ),

one infimum per atom A.  Writing the measure through its density y = dnu/dmu
turns each atom into the convex program

    minimize  sum_s w_s (x_s y_s + phi(y_s))   over  y >= 0, sum_s w_s y_s = 1

with w the conditional state probabilities.  Its KKT conditions say
y_s = phi_star'(lambda - x_s) for a scalar multiplier lambda, and the
feasibility map lambda -> sum_s w_s phi_star'(lambda - x_s) is nondecreasing
with value <= 1 at min_A x and >= 1 at max_A x.  That map minus one is the
derivative of the primal objective, so the multiplier is the primal
maximizer, taken from the one search in :mod:`condrisk.oce`.  By conjugate
duality the optimal value coincides with the primal certainty equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import ConditionalDensity, DivergenceGenerator
from .oce import _atom_searches, _oce_value
from .probspace import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
)
from .scalar_opt import SolverError

__all__ = ["DualSolution", "oce_dual", "duality_gap"]


@dataclass(frozen=True)
class DualSolution:
    """Per-atom dual values, the minimizing density, and diagnostics.

    ``optimal_density`` is renormalized atom by atom so it satisfies the
    conditional mean-one constraint exactly; ``multiplier`` is the KKT
    multiplier, the primal maximizer itself.  ``residuals`` holds the final
    search bracket widths.
    """

    value: ConditionalValue
    optimal_density: ConditionalDensity
    multiplier: ConditionalValue
    iterations: tuple
    residuals: np.ndarray


def oce_dual(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    tol: float = 1e-10,
) -> DualSolution:
    """Minimize the penalized expectation atom by atom.

    The multiplier comes from the search shared with :func:`oce_primal`;
    the density phi_star'(lambda - x) and the value follow from it.  A
    single-state atom admits only the base measure, so there y = 1 and the
    value is x at that state.
    """
    values, lam, iters, residuals = [], [], [], []
    density = np.empty(space.num_states)
    for b, w, xa, c, (shift, width, steps) in _atom_searches(space, g, gen, x, tol):
        # lambda - x in the centred coordinates of the search
        y = np.asarray(gen.phi_star_prime(b.spread(shift) - (xa - b.spread(c))), dtype=float)
        mean = b.dot(w, y)
        bad = np.flatnonzero(~(mean > 0.0) | ~np.isfinite(mean))
        if bad.size:
            raise SolverError(
                f"atom A{b.atoms.start + int(bad[0])}: candidate density has conditional mean "
                f"{float(mean[bad[0]])!r}; the conjugate derivative looks invalid"
            )
        y = y / b.spread(mean)
        density[b.idx] = y
        values.append(b.dot(w, xa * y + np.asarray(gen.phi(y), dtype=float)))
        lam.append(c + shift)
        residuals.append(width)
        iters.append(steps)
    return DualSolution(
        value=ConditionalValue(np.concatenate(values)),
        optimal_density=ConditionalDensity(density),
        multiplier=ConditionalValue(np.concatenate(lam)),
        iterations=tuple(np.concatenate(iters).tolist()),
        residuals=np.concatenate(residuals),
    )


def _gap_and_dual(space, g, gen, x, tol):
    """|primal - dual| per atom, both at the multiplier of one dual solve, and that solve."""
    dual = oce_dual(space, g, gen, x, tol=tol)
    primal = _oce_value(space, g, gen, x, dual.multiplier.values)
    return np.abs(primal - dual.value.values), dual


def duality_gap(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    tol: float = 1e-10,
) -> ConditionalValue:
    """Absolute difference between primal and dual values, per atom.

    Both values are evaluated at the one multiplier lambda of
    :func:`oce_dual`, so strong duality makes the true gap zero and what
    this measures is the floating-point error of the conjugate identity
    phi(y) + phi_star(m) = m y at m = lambda - x, y = phi_star'(m), together
    with the renormalization of y.  It is a self-check of the value and
    density formulas, not of the search; the independent oracles are
    :func:`condrisk.oce.entropic_risk` and the simplex grid of the test
    suite (``tests/oracles.py``).
    """
    return ConditionalValue(_gap_and_dual(space, g, gen, x, tol)[0])

