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
:func:`oce_dual` and :func:`duality_gap` return the primal's result type,
:class:`~condrisk.oce.OceSolution`: the dual value and the density, or
|primal - dual|, at the search's multiplier.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .divergence import DivergenceGenerator
from .oce import DEFAULT_TOL, OceSolution, _block_value, _solve
from .probspace import FiniteProbabilitySpace, Partition, RandomVariable
from .scalar_opt import SolverError

__all__ = ["oce_dual", "duality_gap"]


def _block_dual(gen, b, w, xa, c, t, density=None) -> np.ndarray:
    """The penalized expectation E[x y + phi(y) | A] at the density
    y = phi_star'(c + t - x), renormalized to conditional mean one, per atom
    of a block; y is also written into ``density`` when one is given."""
    # lambda - x in the centred coordinates of the search
    y = np.asarray(gen.phi_star_prime(b.spread(t) - (xa - b.spread(c))), dtype=float)
    mean = b.dot(w, y)
    bad = np.flatnonzero(~(mean > 0.0) | ~np.isfinite(mean))
    if bad.size:
        raise SolverError(
            f"atom A{b.atoms.start + int(bad[0])}: candidate density has conditional mean "
            f"{float(mean[bad[0]])!r}; the conjugate derivative looks invalid"
        )
    y = y / b.spread(mean)
    if density is not None:
        density[b.idx] = y
    return b.dot(w, xa * y + np.asarray(gen.phi(y), dtype=float))


def _block_gap(gen, b, w, xa, c, t) -> np.ndarray:
    """|primal - dual| per atom of a block, both at the multiplier c + t."""
    return np.abs(_block_value(gen, b, w, xa, c, t) - _block_dual(gen, b, w, xa, c, t))


def oce_dual(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    tol: float = DEFAULT_TOL,
) -> OceSolution:
    """Minimize the penalized expectation atom by atom.

    The multiplier comes from the search shared with :func:`oce_primal`;
    the density phi_star'(lambda - x) and the value follow from it.  A
    single-state atom admits only the base measure, so there y = 1 and the
    value is x at that state.
    """
    density = np.empty(space.num_states)
    return _solve(space, g, gen, x, tol, partial(_block_dual, density=density), density)


def duality_gap(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    tol: float = DEFAULT_TOL,
) -> OceSolution:
    """Absolute difference between primal and dual values, per atom.

    The result's ``value`` is |primal - dual|, with the search's
    ``multiplier``, ``residuals`` and ``iterations``.  Both values are
    evaluated at the one multiplier lambda of the shared search, by the block
    formulas of :func:`oce_primal` and :func:`oce_dual`, so strong duality
    makes the true gap zero and what this measures is the floating-point
    error of the conjugate identity phi(y) + phi_star(m) = m y at
    m = lambda - x, y = phi_star'(m), together with the renormalization of y.
    It is a self-check of the value and density formulas, not of the search;
    the independent oracles are :func:`condrisk.oce.entropic_risk` and the
    simplex grid of the test suite (``tests/oracles.py``).
    """
    return _solve(space, g, gen, x, tol, _block_gap)
