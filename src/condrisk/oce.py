"""Conditional optimized certainty equivalents, primal side.

For a divergence generator phi with conjugate phi_star, the conditional
optimized certainty equivalent of a position x on an atom A is

    sup_a ( a - E[phi_star(a - x) | A] ),

maximized over scalars a (one per atom; jointly a G-measurable shift).  The
objective is concave with nonincreasing derivative 1 - E[phi_star'(a - x)|A],
and since phi_star' is nondecreasing with slope value 1 at the origin the
maximizer always lies in [min_A x, max_A x].  The solver bisects on that
derivative; generators carrying no conjugate derivative fall back to a
golden-section search on the objective itself.  The maximizer is also the
dual KKT multiplier, so this search is the package's only multiplier solve:
:func:`oce_primal` and :func:`condrisk.dual.oce_dual` both derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .divergence import DivergenceGenerator
from .probspace import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    _check_pair,
    _check_rv,
)
from .scalar_opt import bisect_nondecreasing, golden_section_max

__all__ = ["OceSolution", "oce_primal", "i_phi", "entropic_risk"]


@dataclass(frozen=True)
class OceSolution:
    """Per-atom certainty equivalents with solver diagnostics.

    ``value[A]`` equals the objective evaluated at ``optimal_a[A]``;
    ``residuals[A]`` is the final bracket width of the search, which runs in
    coordinates centred at max_A x: a bound on how far ``optimal_a[A]`` can
    sit from the true maximizer, up to the rounding of moving it back.
    """

    value: ConditionalValue
    optimal_a: ConditionalValue
    iterations: tuple
    residuals: np.ndarray


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (tol > 0.0) or not np.isfinite(tol):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return tol


def _atom_searches(space, g, gen, x, tol):
    """Per atom, the search for the maximizer a = c + a' of a - E[phi_star(a - x) | A].

    Each atom is searched on x - c over [min_A x - c, 0] with c = max_A x.
    By cash additivity that is the same problem, but float spacing near a'
    scales with |a'| instead of |max_A x|: a root just below a large max_A x
    can fall between two floats (power:50 on x = [0, 1e6] did).  Yields, in
    atom order, the state indices, the conditional weights w, the payoffs,
    c and the search result for a', so callers reuse the gathered atom.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    tol = _check_tol(tol)
    for idx in g.index_arrays():
        w = space.probs[idx]
        w = w / w.sum()
        xa = x.values[idx]
        c = float(xa.max())
        xc = xa - c
        lo = float(xc.min())
        if gen.phi_star_prime is not None:

            def slope_gap(t):
                # primal stationarity and the dual mean-one condition at once
                return float(w @ np.asarray(gen.phi_star_prime(t - xc), dtype=float)) - 1.0

            found = bisect_nondecreasing(slope_gap, lo, 0.0, xtol=tol, ftol=tol)
        else:

            def objective(t):
                return t - float(w @ np.asarray(gen.phi_star(t - xc), dtype=float))

            found = golden_section_max(objective, lo, 0.0, xtol=tol)
        yield idx, w, xa, c, found


def _objective(gen, w, xa, a: float) -> float:
    """The primal objective a - E[phi_star(a - x) | A] on one atom."""
    return a - float(w @ np.asarray(gen.phi_star(a - xa), dtype=float))


def _oce_value(space, g, gen, x, a) -> np.ndarray:
    """The primal objective at one shift per atom."""
    out = np.empty(g.num_atoms)
    for i, idx in enumerate(g.index_arrays()):
        p = space.probs[idx]
        out[i] = _objective(gen, p / p.sum(), x.values[idx], a[i])
    return out


def oce_primal(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    x: RandomVariable,
    tol: float = 1e-10,
) -> OceSolution:
    """Maximize a - E[phi_star(a - x) | G] atom by atom.

    The per-atom problems are independent (the computation is local to each
    atom); they are solved serially and in atom order for determinism.
    """
    values = np.empty(g.num_atoms)
    arg = np.empty(g.num_atoms)
    residuals = np.empty(g.num_atoms)
    iters = []
    for i, (_, w, xa, c, found) in enumerate(_atom_searches(space, g, gen, x, tol)):
        arg[i] = c + found.x
        values[i] = _objective(gen, w, xa, arg[i])
        residuals[i] = found.bracket_width
        iters.append(found.iterations)
    return OceSolution(
        value=ConditionalValue(values),
        optimal_a=ConditionalValue(arg),
        iterations=tuple(iters),
        residuals=residuals,
    )


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
    star = np.asarray(gen.phi_star(-x.values), dtype=float)
    out = np.empty(g.num_atoms)
    for i, idx in enumerate(g.index_arrays()):
        p = space.probs[idx]
        out[i] = -float(p @ star[idx]) / float(p.sum())
    return ConditionalValue(out)


def entropic_risk(
    space: FiniteProbabilitySpace, g: Partition, x: RandomVariable
) -> ConditionalValue:
    """Conditional entropic risk -log E[exp(-x) | G], per atom.

    Closed form of the certainty equivalent for the relative-entropy
    generator; evaluated with a max-shifted log-sum-exp so large positions
    cannot overflow.
    """
    _check_pair(space, g)
    _check_rv(space, x)
    out = np.empty(g.num_atoms)
    for i, idx in enumerate(g.index_arrays()):
        w = space.probs[idx]
        w = w / w.sum()
        out[i] = -float(logsumexp(-x.values[idx], b=w))
    return ConditionalValue(out)
