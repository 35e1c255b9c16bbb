"""Conditional optimized certainty equivalents, primal side.

For a divergence generator phi with conjugate phi_star, the conditional
optimized certainty equivalent of a position x on an atom A is

    sup_a ( a - E[phi_star(a - x) | A] ),

maximized over scalars a (one per atom; jointly a G-measurable shift).  The
objective is concave with nonincreasing derivative 1 - E[phi_star'(a - x)|A],
and since phi_star' is nondecreasing with slope value 1 at the origin the
maximizer always lies in [min_A x, max_A x].  The solver finds the root of
that derivative with :func:`condrisk.scalar_opt.bisect_nondecreasing`, whose
ITP rule (regula falsi, truncated and projected) brings the bracket below
tol within one step beyond bisection's ceil(log2(range / tol)), all atoms of
a partition block at once; the search also waits for the slope residual to
fall below tol, which adds steps where the root lies near a kink of
phi_star'.  Every generator carries phi_star' (synthesized from phi
when not given), so every generator can be searched.  A generator whose
``mean_one_root`` gives the root in closed form is not: for the built-in
KL, E[exp(a - x) | A] = 1 solves to a = -log E[exp(-x) | A], the
log-sum-exp of :func:`entropic_risk` (Ben-Tal & Teboulle, Math. Finance
17(3), 2007).  The maximizer is also the dual KKT multiplier, so this is
the package's only multiplier solve:
:func:`oce_primal`, :func:`condrisk.dual.oce_dual` and
:func:`condrisk.dual.duality_gap` each run it once per block and evaluate
their own value at it, and all three return it in one result type,
:class:`OceSolution`, as ``multiplier`` (the dual's result also holds the
density).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import ConditionalDensity, DivergenceGenerator, _neg_log_mean_exp
from .probspace import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    _check_pair,
    _check_rv,
    _cond_mean,
    _per_atom,
)
from .scalar_opt import bisect_nondecreasing

__all__ = ["OceSolution", "oce_primal", "i_phi", "entropic_risk"]

# the solver tolerance wherever none is given, in the library and the CLI
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class OceSolution:
    """Per-atom values at the multiplier of one search, with its diagnostics.

    ``multiplier[A]`` is the maximizing shift of the primal objective, which
    is also the KKT multiplier of the dual program.  ``value[A]`` is what the
    solve evaluates there: the certainty equivalent for :func:`oce_primal`,
    the penalized expectation for :func:`condrisk.dual.oce_dual`, and
    |primal - dual| for :func:`condrisk.dual.duality_gap`.
    ``residuals[A]`` is the final bracket width of the search, which runs in
    coordinates centred at max_A x: a bound on how far ``multiplier[A]`` can
    sit from the true maximizer, up to the rounding of moving it back.  A
    closed-form root (built-in KL) and a single-state atom leave no bracket:
    0.0, with ``iterations[A]`` 0.
    ``density`` is the dual's minimizing density, renormalized atom by atom
    to conditional mean one, and None where the solve does not compute it.
    """

    value: ConditionalValue
    multiplier: ConditionalValue
    iterations: tuple
    residuals: np.ndarray
    density: Optional[ConditionalDensity] = None


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (tol > 0.0) or not np.isfinite(tol):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return tol


def _solve(space, g, gen, x, tol, evaluate, density=None) -> OceSolution:
    """The search for the maximizer a = c + t of a - E[phi_star(a - x) | A],
    valued by ``evaluate`` at it, block by block.

    Each atom is searched on x - c over [min_A x - c, 0] with c = max_A x.
    By cash additivity that is the same problem, but float spacing near t
    scales with |t| instead of |max_A x|: a root just below a large max_A x
    can fall between two floats (power:50 on x = [0, 1e6] did).  The atoms
    of a block are searched together, with one phi_star' call over the
    block's states per step; each atom takes the steps a search of that atom
    alone would.  A generator's ``mean_one_root`` replaces the search by one call
    per block on the same centred payoffs, its root clipped to the bracket.
    ``evaluate(gen, b, w, xa, c, t)`` gets the block, its conditional
    weights w and payoffs (block-ordered), c and t, and gives the block's
    values; ``density``, a state vector it fills, becomes the result's.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    tol = _check_tol(tol)
    values, lam, residuals, iters = [], [], [], []
    for b in g._blocks:
        p = space.probs[b.idx]
        w = p / b.spread(b.sum(p))
        xa = x.values[b.idx]
        c = b.max(xa)

        def slope_gap(t):
            # primal stationarity and the dual mean-one condition at once
            y = np.asarray(gen.phi_star_prime(b.spread(t) - xc), dtype=float)
            return b.dot(w, y) - 1.0

        # a slope that overflows to +inf lies above 1, which the search
        # handles; one errstate per block, since entering it costs more
        # than a step's bookkeeping
        with np.errstate(over="ignore"):
            xc = xa - b.spread(c)
            lo = b.min(xc)
            bad = np.flatnonzero(np.isinf(lo))
            if bad.size:
                raise ValueError(
                    f"atom A{b.atoms.start + int(bad[0])}: the payoff range max - min "
                    "overflows a float"
                )
            if gen.mean_one_root is None:
                r = bisect_nondecreasing(slope_gap, lo, np.zeros_like(lo), xtol=tol, ftol=tol)
                t, width, steps = r.x, r.bracket_width, r.iterations
            else:
                # the root in closed form, kept in the search's bracket [lo, 0]
                t = np.minimum(np.maximum(gen.mean_one_root(b, w, xc), lo), 0.0)
                width, steps = np.zeros_like(lo), np.zeros(lo.shape, dtype=int)
        values.append(evaluate(gen, b, w, xa, c, t))
        lam.append(c + t)
        residuals.append(width)
        iters.append(steps)
    return OceSolution(
        value=ConditionalValue(np.concatenate(values)),
        multiplier=ConditionalValue(np.concatenate(lam)),
        iterations=tuple(np.concatenate(iters).tolist()),
        residuals=np.concatenate(residuals),
        density=None if density is None else ConditionalDensity(density),
    )


def _block_value(gen, b, w, xa, c, t) -> np.ndarray:
    """The primal objective a - E[phi_star(a - x) | A] at a = c + t, per atom of a block.

    phi_star is evaluated once over the block and averaged by the block's
    segmented dot, the reduction of every other conditional expectation.
    """
    a = c + t
    return a - b.dot(w, np.asarray(gen.phi_star(b.spread(a) - xa), dtype=float))


def oce_primal(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    tol: float = DEFAULT_TOL,
) -> OceSolution:
    """Maximize a - E[phi_star(a - x) | G] atom by atom.

    The per-atom problems are independent (the computation is local to each
    atom); the atoms of a block are searched together, each by
    the same steps as alone, so the result does not depend on how atoms are
    grouped beyond the rounding of the per-atom sums.  No density is
    computed.
    """
    return _solve(space, g, gen, x, tol, _block_value)


def i_phi(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
) -> ConditionalValue:
    """Base concave functional -E[phi_star(-x) | G].

    This is the a = 0 slice of the certainty-equivalent objective; its
    translation completion is exactly :func:`oce_primal` (see the niveloid
    module).  It is concave, monotone, and never exceeds E[x | G].
    """
    _check_pair(space, g)
    _check_rv(space, x)
    return ConditionalValue(_i_phi(space, g, gen, x.values))


def _i_phi(space, g, gen, v: np.ndarray) -> np.ndarray:
    """-E[phi_star(-v) | G] for each row of v."""
    return -_cond_mean(g, space.probs, np.asarray(gen.phi_star(-v), dtype=float))


def entropic_risk(
    space: FiniteProbabilitySpace, g: Partition, x: RandomVariable
) -> ConditionalValue:
    """Conditional entropic risk -log E[exp(-x) | G], per atom.

    Closed form of the certainty equivalent for the relative-entropy
    generator; evaluated as a segmented log-sum-exp shifted by each atom's
    min of x, so large positions cannot overflow.  A shifted term that
    overflows to -inf contributes exp(-inf) = 0, the exact limit.  The same
    log-sum-exp gives the multiplier of built-in "kl" in :func:`oce_primal`.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    return ConditionalValue(_entropic(space, g, x.values))


def _entropic(space, g, v: np.ndarray) -> np.ndarray:
    """-log E[exp(-v) | G] for each row of v."""
    return _per_atom(g, lambda b: _neg_log_mean_exp(b, space.probs[b.idx], b.take(v)))
