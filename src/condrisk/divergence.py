"""Divergence generators and conditional phi-divergences.

A divergence generator is a continuous, strictly convex function phi >= 0 on
[0, inf) with phi(1) = 0 and superlinear growth.  Its convex conjugate

    phi_star(m) = sup_{t >= 0} (m t - phi(t))

is increasing and convex with phi_star(0) = 0 and slope 1 at the origin.
Given a measure nu that agrees with the base measure mu on a partition G and
is absolutely continuous with respect to it, the conditional divergence on an
atom A is

    D[A] = sum_{s in A} (p_s / mu(A)) * phi(nu_s / p_s),

the conditional expectation of phi composed with the density dnu/dmu.  The
variational (Donsker-Varadhan style) form replaces D by a supremum of
E_nu[z | G] - E_mu[phi_star(z) | G] over random variables z; this module also
builds the argument attaining that supremum.

Built-in generators: relative entropy ("kl"), Pearson chi-square ("chi2") and
the power family ("power:<alpha>", alpha > 1).  Their closed-form conjugates
are cross-checked against :func:`numeric_conjugate` in the test suite.  KL's
phi computes t log t as t * log(t) with the log taken at 1 where t = 0, so
0 log 0 = 0 with numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .probspace import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    _as_float_vector,
    _check_pair,
    _check_rv,
    _cond_mean,
    _per_atom,
    atom_masses,
)
from .scalar_opt import UnboundedObjective, expand_bracket_max, golden_section_max

__all__ = [
    "DivergenceGenerator",
    "ConditionalDensity",
    "EquivalentConditionalMeasure",
    "builtin_generator",
    "validate_generator",
    "numeric_conjugate",
    "check_density",
    "check_measure",
    "density_to_measure",
    "measure_to_density",
    "cond_divergence",
    "cond_expectation_under",
    "donsker_varadhan_value",
    "dv_optimal_argument",
]

# mass bookkeeping tolerance for densities and measures
MASS_TOL = 1e-10

# expansion ceiling for the conjugate search; reaching it means the
# integrand m*t - phi(t) is still growing, i.e. phi fails superlinearity
T_CAP = 1e12

# the spot checks of validate_generator: phi's contract on CHECK_T_GRID and
# its growth up to CHECK_T_MAX, the conjugate on CHECK_M_GRID within CONJ_TOL
CHECK_T_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 41)])
CHECK_T_MAX = 1e6
CHECK_M_GRID = np.linspace(-5.0, 5.0, 21)
CONJ_TOL = 1e-8


@dataclass(frozen=True)
class DivergenceGenerator:
    """Generator phi together with its conjugate calculus.

    ``phi``, ``phi_star`` and ``phi_star_prime`` act elementwise on scalars
    or numpy arrays of any shape: the niveloid operators and the numeric
    conjugate's search pass two-dimensional batches.  ``phi_star_prime`` is
    the nondecreasing right derivative of the conjugate (equivalently the
    argmax t of m t - phi(t)); it is what the certainty-equivalent solvers
    search on.  Either conjugate function that
    is omitted or None is synthesized from phi by one direct maximization of
    m t - phi(t) over all the arguments of a call: ``phi_star`` as the
    maximum (raising :class:`condrisk.scalar_opt.UnboundedObjective` where it
    is unbounded) and ``phi_star_prime`` as the maximizing t.  So
    ``DivergenceGenerator(name, phi)`` is a complete generator.
    ``phi_prime`` is the right derivative of phi on (0, inf) and may be None
    for generators defined only through phi.

    ``mean_one_root``, when given, replaces the multiplier search by an
    exact root: ``mean_one_root(b, w, v)`` takes a partition block and
    block-ordered weights w and payoffs v <= 0, and returns per atom the t
    solving E_w[phi_star'(t - v) | A] = 1: in closed form for the built-in
    "kl", by Newton's method for "chi2" and "power:2".  Others are searched.
    """

    name: str
    phi: Callable
    phi_star: Optional[Callable] = None
    phi_star_prime: Optional[Callable] = None
    phi_prime: Optional[Callable] = None
    mean_one_root: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "phi_star", self.phi_star or partial(_conjugate, self.phi))
        object.__setattr__(self, "phi_star_prime", self.phi_star_prime or partial(_numeric_argmax, self.phi))


def _kl_phi(t):
    """t log t - t + 1, with 0 log 0 = 0 (and NaN below 0, outside the domain)."""
    t = np.asarray(t, dtype=float)
    return t * np.log(np.where(t == 0.0, 1.0, t)) - t + 1.0


def _neg_log_mean_exp(b, p, v) -> np.ndarray:
    """-log E_p[exp(-v) | A] per atom of a block, for weights p and rows v in block order.

    A segmented log-sum-exp shifted by each atom's min of v, so no term
    overflows; a shifted term that overflows to -inf contributes
    exp(-inf) = 0, the exact limit.  It is the entropic risk of v, and the
    t at which exp(t - v) has conditional mean one: KL's multiplier.
    """
    lo = b.min(v)
    with np.errstate(over="ignore"):
        shifted = b.spread(lo) - v
    return lo - np.log(b.dot(p, np.exp(shifted)) / b.sum(p))


def _newton_mean_one_root(c, b, w, v) -> np.ndarray:
    """The t with E_w[max(0, 1 + c (t - v)) | A] = 1 per atom of a block, for payoffs v <= 0.

    The slope is convex and piecewise linear in t and at least 1 at t = 0,
    so Newton's method from t = 0 never passes the root.  With S the states
    where 1 + c (t - v) > 0, each pass solves the tangent,
    t = (1 - W) / (c W) + E_w[v 1_S] / W with W = E_w[1_S], and t falls
    until S stops shrinking: at most one pass per state.  An atom whose t
    no longer falls is frozen, so it takes the passes it would alone.  This
    is Newton's method for the continuous quadratic knapsack (Cominetti,
    Mascarenhas & Silva, Math. Program. Comput. 6, 2014); for chi2 the
    density is a weighted simplex projection (Condat, Math. Program. 158,
    2016).
    """
    t = np.zeros(b.starts.size)
    live = np.ones(t.size, dtype=bool)
    # an empty S (t far below the root by rounding) gives NaN or inf: not a fall
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(v.size + 1):
            ws = w * (v < b.spread(t + 1.0 / c))
            mass = b.sum(ws)
            step = (1.0 - mass) / (c * mass) + b.dot(ws, v) / mass
            live &= step < t
            if not live.any():
                break
            t = np.where(live, step, t)
    return t


def _kl_generator() -> DivergenceGenerator:
    return DivergenceGenerator(
        name="kl",
        phi=_kl_phi,
        phi_star=np.expm1,
        phi_star_prime=np.exp,
        phi_prime=np.log,
        mean_one_root=_neg_log_mean_exp,
    )


def _chi2_generator() -> DivergenceGenerator:
    def phi_star(m):
        m = np.asarray(m, dtype=float)
        return np.where(m >= -2.0, m + 0.25 * m * m, -1.0)

    return DivergenceGenerator(
        name="chi2",
        phi=lambda t: (np.asarray(t, dtype=float) - 1.0) ** 2,
        phi_star=phi_star,
        phi_star_prime=lambda m: np.maximum(0.0, 1.0 + 0.5 * np.asarray(m, dtype=float)),
        phi_prime=lambda t: 2.0 * (np.asarray(t, dtype=float) - 1.0),
        mean_one_root=partial(_newton_mean_one_root, 0.5),
    )


def _power_generator(alpha: float) -> DivergenceGenerator:
    """Power family phi(t) = (t^a - a t + a - 1) / (a (a - 1)) for a > 1.

    The conjugate is ((1 + (a-1) m)_+^(a/(a-1)) - 1) / a, constant at -1/a
    below the kink m = -1/(a-1) where the maximizing t hits zero.
    """
    a = float(alpha)
    if not np.isfinite(a) or a <= 1.0:
        raise ValueError(f"power generator needs alpha > 1, got {alpha!r}")
    q = a / (a - 1.0)

    def phi(t):
        t = np.asarray(t, dtype=float)
        return (t**a - a * t + a - 1.0) / (a * (a - 1.0))

    def phi_star(m):
        u = np.maximum(0.0, 1.0 + (a - 1.0) * np.asarray(m, dtype=float))
        return (u**q - 1.0) / a

    def phi_star_prime(m):
        u = np.maximum(0.0, 1.0 + (a - 1.0) * np.asarray(m, dtype=float))
        return u ** (1.0 / (a - 1.0))

    def phi_prime(t):
        t = np.asarray(t, dtype=float)
        return (t ** (a - 1.0) - 1.0) / (a - 1.0)

    return DivergenceGenerator(
        name=f"power:{a:g}",
        phi=phi,
        phi_star=phi_star,
        phi_star_prime=phi_star_prime,
        phi_prime=phi_prime,
        mean_one_root=partial(_newton_mean_one_root, 1.0) if a == 2.0 else None,
    )


def builtin_generator(spec: str) -> DivergenceGenerator:
    """Look up a built-in generator by name.

    Accepted forms: ``"kl"``, ``"chi2"`` and ``"power:<alpha>"`` with
    alpha > 1, e.g. ``"power:2"`` or ``"power:1.5"``.
    """
    text = str(spec).strip().lower()
    if text == "kl":
        return _kl_generator()
    if text == "chi2":
        return _chi2_generator()
    if text.startswith("power:"):
        try:
            alpha = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad power generator {spec!r}; expected power:<alpha> with alpha > 1") from None
        return _power_generator(alpha)
    raise ValueError(
        f"unknown generator {spec!r}; valid generators are 'kl', 'chi2', 'power:<alpha>'"
    )


def _conjugate_search(phi, m):
    """Maximize h(t) = m t - phi(t) over t >= 0, for one m or an array of them at once.

    Returns the maximizing t and the maximum, shaped like m; both are +inf
    where h still grows at ``T_CAP``.
    """
    shape = np.shape(m)
    m = np.asarray(m, dtype=float).reshape(-1)

    def h(t):
        return m * t - np.asarray(phi(t), dtype=float)

    lo, hi, f_lo, f_hi = expand_bracket_max(
        h, np.zeros_like(m), np.ones_like(m), ceiling=T_CAP, min_lo=0.0
    )
    xtol = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    peak = golden_section_max(h, lo, hi, f_lo, f_hi, xtol=xtol)
    return np.reshape(peak.x, shape)[()], np.reshape(peak.value, shape)[()]


def _numeric_argmax(phi, m):
    """phi_star'(m) from phi alone: the maximizing t of m t - phi(t), for all m at once.

    An argmax past ``T_CAP`` (KL's exp(m) for m > 27.6) is +inf, a slope
    the multiplier search reads as above its root.
    """
    return _conjugate_search(phi, m)[0]


def _conjugate(phi, m):
    """phi_star(m) by direct maximization; raises where the maximum is unbounded."""
    value = _conjugate_search(phi, m)[1]
    grew = np.flatnonzero(np.isinf(value))
    if grew.size:
        raise UnboundedObjective(
            f"m t - phi(t) still increasing at t={T_CAP:g} for m={np.ravel(m)[grew[0]]:g}; "
            "the conjugate appears unbounded"
        )
    return value


def numeric_conjugate(gen: DivergenceGenerator, m):
    """Conjugate value phi_star(m) computed by direct maximization.

    Serves as the independent route against which closed-form conjugates are
    verified; an array of arguments is searched at once.  Raises
    :class:`condrisk.scalar_opt.UnboundedObjective` when the maximizing t
    grows past ``T_CAP`` for some argument, which signals a generator
    violating superlinear growth.
    """
    return _conjugate(gen.phi, m)


def validate_generator(gen: DivergenceGenerator) -> None:
    """Spot-check the generator contract on a grid; raises on violation.

    Checked on ``CHECK_T_GRID``: phi(1) = 0, phi >= 0 and strict midpoint
    convexity; superlinear growth up to ``CHECK_T_MAX``; on
    ``CHECK_M_GRID``, agreement of phi_star with the direct maximization
    route within ``CONJ_TOL`` and a nonnegative, nondecreasing phi_star';
    phi_star(0) = 0 and unit slope of phi_star at 0.  A grid check cannot
    certify the contract everywhere, but it reliably rejects the common
    mistakes (wrong sign, missing normalization at 1, merely linear growth,
    mismatched conjugate).
    """
    vals = np.asarray(gen.phi(CHECK_T_GRID), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{gen.name}: phi must be finite on [0, inf), got non-finite values")
    if abs(float(gen.phi(1.0))) > 1e-12:
        raise ValueError(f"{gen.name}: phi(1) must be 0, got {float(gen.phi(1.0))!r}")
    if np.any(vals < -1e-12):
        raise ValueError(f"{gen.name}: phi must be nonnegative")
    mids = 0.5 * (CHECK_T_GRID[:-1] + CHECK_T_GRID[1:])
    mid_vals = np.asarray(gen.phi(mids), dtype=float)
    chords = 0.5 * (vals[:-1] + vals[1:])
    slack = 1e-12 * (1.0 + np.abs(chords))
    if np.any(mid_vals > chords + slack):
        bad = int(np.argmax(mid_vals - chords))
        raise ValueError(f"{gen.name}: phi is not convex near t={mids[bad]:g}")
    # strictness is only decidable where curvature cannot hide below rounding;
    # admissible generators always have visible curvature at unit scale since
    # phi > 0 away from its minimum at 1
    window = (CHECK_T_GRID[:-1] >= 0.1) & (CHECK_T_GRID[1:] <= 10.0)
    if np.any(mid_vals[window] >= (chords - slack)[window]):
        rel = np.nonzero(window)[0]
        bad = int(rel[np.argmax((mid_vals - chords + slack)[window])])
        raise ValueError(f"{gen.name}: phi is not strictly convex near t={mids[bad]:g}")
    tail = np.geomspace(max(1.0, CHECK_T_MAX / 1e4), CHECK_T_MAX, 9)
    ratios = np.asarray(gen.phi(tail), dtype=float) / tail
    if np.any(np.diff(ratios) <= 0.0) or ratios[-1] < 2.0 * ratios[0]:
        raise ValueError(
            f"{gen.name}: phi(t)/t must keep growing (checked up to t={CHECK_T_MAX:g}); "
            "the generator looks at most linear"
        )
    direct = numeric_conjugate(gen, CHECK_M_GRID)
    stated = np.asarray(gen.phi_star(CHECK_M_GRID), dtype=float)
    bad = np.flatnonzero(np.abs(direct - stated) > CONJ_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{gen.name}: phi_star({CHECK_M_GRID[i]:g})={float(stated[i])!r} disagrees with direct "
            f"maximization {float(direct[i])!r} beyond {CONJ_TOL:g}"
        )
    if abs(float(gen.phi_star(0.0))) > 1e-10:
        raise ValueError(f"{gen.name}: phi_star(0) must be 0")
    # slope tolerance must absorb argmax extraction from a flat maximum,
    # which floating rounding in phi limits to about sqrt(eps)
    if abs(float(gen.phi_star_prime(0.0)) - 1.0) > 1e-6:
        raise ValueError(f"{gen.name}: phi_star must have slope 1 at the origin")
    d = np.asarray(gen.phi_star_prime(CHECK_M_GRID), dtype=float)
    if np.any(d < -1e-12) or np.any(np.diff(d) < -1e-10):
        raise ValueError(f"{gen.name}: phi_star_prime must be nonnegative and nondecreasing")


@dataclass(frozen=True, eq=False)
class ConditionalDensity:
    """Nonnegative state vector with conditional mean one on every atom.

    Exactly the densities dnu/dmu of measures in the modelling class below;
    see :func:`check_density` for the contextual validation.
    """

    values: np.ndarray

    def __init__(self, values):
        vals = _as_float_vector(values, "conditional density")
        if np.any(vals < 0.0):
            raise ValueError("conditional density must be nonnegative")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ConditionalDensity({self.values.tolist()})"


@dataclass(frozen=True, eq=False)
class EquivalentConditionalMeasure:
    """Probability weights agreeing with the base measure on the partition.

    The measure is given by one nonnegative weight per state; restricted to
    the partition it must reproduce the base atom masses, which also forces
    total mass one.
    """

    weights: np.ndarray

    def __init__(self, weights):
        w = _as_float_vector(weights, "measure weights")
        if np.any(w < 0.0):
            raise ValueError("measure weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"measure weights must sum to 1 within {MASS_TOL}, got {float(w.sum())!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return f"EquivalentConditionalMeasure({self.weights.tolist()})"


def check_density(space: FiniteProbabilitySpace, g: Partition, y: ConditionalDensity) -> None:
    """Validate that y has conditional mean one on every atom of g."""
    _check_pair(space, g)
    if len(y) != space.num_states:
        raise ValueError(f"density has length {len(y)}, expected {space.num_states}")
    mass = _per_atom(g, lambda b: b.dot(space.probs[b.idx], y.values[b.idx]))
    base = atom_masses(space, g)
    bad = np.flatnonzero(np.abs(mass - base) > MASS_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"atom A{i}: density carries mass {float(mass[i])!r} but the atom has mass "
            f"{float(base[i])!r} (conditional mean {float(mass[i] / base[i])!r}, expected 1)"
        )


def check_measure(
    space: FiniteProbabilitySpace, g: Partition, nu: EquivalentConditionalMeasure
) -> None:
    """Validate that nu restricts to the base measure on the partition."""
    _check_pair(space, g)
    if len(nu) != space.num_states:
        raise ValueError(f"measure has length {len(nu)}, expected {space.num_states}")
    mass = _per_atom(g, lambda b: b.sum(nu.weights[b.idx]))
    base = atom_masses(space, g)
    bad = np.flatnonzero(np.abs(mass - base) > MASS_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"atom A{i}: measure mass {float(mass[i])!r} differs from base mass "
            f"{float(base[i])!r} by more than {MASS_TOL}"
        )


def density_to_measure(
    space: FiniteProbabilitySpace, g: Partition, y: ConditionalDensity
) -> EquivalentConditionalMeasure:
    """Measure with weights p_s * y_s; inverse of :func:`measure_to_density`."""
    check_density(space, g, y)
    return EquivalentConditionalMeasure(space.probs * y.values)


def measure_to_density(
    space: FiniteProbabilitySpace, g: Partition, nu: EquivalentConditionalMeasure
) -> ConditionalDensity:
    """Density dnu/dmu with values nu_s / p_s; inverse of :func:`density_to_measure`."""
    check_measure(space, g, nu)
    return ConditionalDensity(nu.weights / space.probs)


def cond_divergence(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    nu: EquivalentConditionalMeasure,
) -> ConditionalValue:
    """Conditional phi-divergence of nu from the base measure, per atom.

    phi is evaluated block by block, so its temporaries stay within a block.
    """
    check_measure(space, g, nu)

    def mean(b):
        p = space.probs[b.idx]
        phi_y = np.asarray(gen.phi(b.take(nu.weights) / p), dtype=float)
        return b.dot(p, phi_y) / b.sum(p)

    return ConditionalValue(_per_atom(g, mean))


def cond_expectation_under(
    space: FiniteProbabilitySpace,
    g: Partition,
    nu: EquivalentConditionalMeasure,
    x: RandomVariable,
) -> ConditionalValue:
    """Conditional expectation of x under nu given the partition."""
    _check_pair(space, g)
    _check_rv(space, x)
    if len(nu) != space.num_states:
        raise ValueError(f"measure has length {len(nu)}, expected {space.num_states}")
    mass = _per_atom(g, lambda b: b.sum(nu.weights[b.idx]))
    empty = np.flatnonzero(mass <= 0.0)
    if empty.size:
        raise ValueError(
            f"atom A{int(empty[0])}: measure mass is zero, conditional expectation undefined"
        )
    return ConditionalValue(_cond_mean(g, nu.weights, x.values))


def donsker_varadhan_value(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    nu: EquivalentConditionalMeasure,
    z: RandomVariable,
) -> ConditionalValue:
    """Variational lower bound E_nu[z | G] - E_mu[phi_star(z) | G].

    Never exceeds the conditional divergence, and attains it at the argument
    built by :func:`dv_optimal_argument` (for a strictly positive density).
    """
    check_measure(space, g, nu)
    _check_rv(space, z, "z")
    star = np.asarray(gen.phi_star(z.values), dtype=float)
    return ConditionalValue(
        _cond_mean(g, nu.weights, z.values) - _cond_mean(g, space.probs, star)
    )


def dv_optimal_argument(
    space: FiniteProbabilitySpace,
    g: Partition,
    gen: DivergenceGenerator,
    nu: EquivalentConditionalMeasure,
) -> RandomVariable:
    """Argument attaining the variational form: phi_prime at the density.

    States where the density equals 0 or 1 get argument 0; at density 1 this
    agrees with phi_prime(1) = 0, and at density 0 it keeps the argument
    finite (there the supremum is approached, not attained, unless the atom
    gives those states no weight under nu).
    """
    if gen.phi_prime is None:
        raise ValueError(f"generator {gen.name!r} has no phi_prime; cannot build the attaining argument")
    y = measure_to_density(space, g, nu).values
    z = np.zeros_like(y)
    inner = (y != 0.0) & (y != 1.0)
    if np.any(inner):
        z[inner] = np.asarray(gen.phi_prime(y[inner]), dtype=float)
    return RandomVariable(z)
