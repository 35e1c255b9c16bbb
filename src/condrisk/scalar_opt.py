"""Bracketed one-dimensional solvers shared by the risk-measure routines.

Three searches cover everything this package optimizes:

* :func:`bisect_nondecreasing` finds the root of a monotone function by the
  ITP rule (Oliveira & Takahashi, ACM TOMS 47(1), 2020): a regula falsi
  step truncated towards the midpoint and projected so that every bracket
  is narrower than ``xtol`` within ``ITP_N0`` (one) step beyond bisection's
  ceil(log2(w0/xtol)); a residual test ``ftol`` can add steps past that,
  near a kink of the function.  All first-order conditions in this package
  reduce to such a root because the objectives are concave with monotone
  derivatives.
* :func:`golden_section_max` maximizes a concave (or unimodal) function on a
  closed interval without derivatives, with :func:`expand_bracket_max`
  growing the interval first when no a-priori bracket is known.

Each is one step loop over an array of independent brackets, and a scalar
bracket is an array of one: given the same function values, every bracket
takes exactly the steps its scalar call would (numpy may round them apart:
``(t - 1.0) ** 2`` is ``pow`` on a 0-d array and ``square`` on arrays, which
moves chi2's numeric conjugate at m = 2.1121... by 4.4e-16).  Each step
calls the function once, with one point per bracket, so independent
problems such as the atoms of a partition share every call.  The searches
stop on an interval-width tolerance and an iteration cap, and report what
they achieved so callers can surface residuals instead of silently
returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SolverError",
    "UnboundedObjective",
    "RootResult",
    "MaxResult",
    "bisect_nondecreasing",
    "golden_section_max",
    "expand_bracket_max",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi ~ 0.618
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2 ~ 0.382

DEFAULT_MAX_ITER = 200


class SolverError(RuntimeError):
    """A scalar solver could not honor its contract."""


class UnboundedObjective(SolverError):
    """A supremum grew past the search's ceiling: it reads as +inf."""


@dataclass(frozen=True)
class RootResult:
    x: float
    f_value: float
    bracket_width: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class MaxResult:
    x: float
    value: float
    bracket_width: float
    iterations: int
    converged: bool


def _brackets(f: Callable, lo, hi, strict: bool = False):
    """Brackets as equally long float vectors, and ``f`` as a map over such vectors.

    Returns ``(scalar, lo, hi, value)``; ``scalar`` is True for scalar ends,
    and then ``value`` calls ``f`` with a float, as a scalar caller expects.
    Every bracket must have lo <= hi, or lo < hi when ``strict``.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(f"brackets must be scalars or equally long vectors, got {lo.shape} and {hi.shape}")
    ok = lo < hi if strict else lo <= hi
    if not ok.all():
        i = int(np.argmax(~ok))
        raise ValueError(f"invalid bracket [{lo[i]}, {hi[i]}]")

    def value(t):
        return np.asarray(f(float(t[0])) if scalar else f(t), dtype=float).reshape(lo.shape)

    return scalar, lo, hi, value


def _result(cls, scalar: bool, *fields):
    """``cls`` of per-bracket arrays, or of their one entry for a scalar call."""
    return cls(*(v[0].item() for v in fields)) if scalar else cls(*fields)


def bisect_nondecreasing(
    f: Callable,
    lo,
    hi,
    *,
    xtol: float,
    ftol: Optional[float] = None,
) -> RootResult:
    """Root of a nondecreasing function with f(lo) <= 0 <= f(hi).

    The bracket shrinks by ITP steps (see the comment above the step loop)
    until it is narrower than ``xtol`` and, when ``ftol`` is given, the
    residual |f| at the last point is below it too; it stops early once
    the midpoint can no longer be resolved in floating point.  A bracket
    still open after ``DEFAULT_MAX_ITER`` steps is not converged.  With
    ``ftol=None`` no bracket takes more than ceil(log2((hi - lo) / xtol)) +
    ``ITP_N0`` steps.
    A sign pattern incompatible with a nondecreasing function raises
    :class:`SolverError`, since it means the supplied function violates the
    monotonicity this method relies on.  A value of +inf counts as above the
    root (a sum of nonnegative terms that overflowed); NaN and -inf raise.

    ``lo`` and ``hi`` may also be equally long arrays of brackets, one per
    independent root; ``f`` then maps an array of points, one per bracket,
    to the array of values there.  Each bracket follows the steps a scalar
    call would take: it is frozen once it stops, the later points passed for
    it are ignored, and the fields of the result are arrays.  Scalar
    brackets give a scalar result and call ``f`` with floats.
    """
    scalar, lo, hi, value = _brackets(f, lo, hi)
    slack = ftol if ftol is not None else 1e-9
    flo = value(lo)
    live = lo < hi  # a degenerate bracket is its own root
    fhi = value(hi) if live.any() else flo.copy()
    fhi[~live] = flo[~live]
    bad = live & ~((flo > -np.inf) & (fhi > -np.inf))  # NaN or -inf
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            f"non-finite values at the bracket ends: f({lo[i]})={flo[i]}, f({hi[i]})={fhi[i]}"
        )
    bad = live & ((flo > slack) | (fhi < -slack))
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            "root not bracketed by a nondecreasing function: "
            f"f({lo[i]})={flo[i]}, f({hi[i]})={fhi[i]}"
        )
    # a root at an end collapses the bracket onto it
    at_lo = live & (flo >= 0.0)
    at_hi = live & ~at_lo & (fhi <= 0.0)
    hi[at_lo], fhi[at_lo] = lo[at_lo], flo[at_lo]
    lo[at_hi], flo[at_hi] = hi[at_hi], fhi[at_hi]
    active = live & ~at_lo & ~at_hi

    iterations = _steps(value, lo, hi, flo, fhi, active, xtol, ftol)
    width = hi - lo
    # report the bracket end whose residual is smallest
    take_lo = np.abs(flo) <= np.abs(fhi)
    x = np.where(take_lo, lo, hi)
    fx = np.where(take_lo, flo, fhi)
    mid = 0.5 * (lo + hi)
    resolved = ~((lo < mid) & (mid < hi))  # cannot split further in float
    converged = width <= xtol
    if ftol is not None:
        converged &= np.abs(fx) <= ftol
    converged |= resolved
    return _result(RootResult, scalar, x, fx, width, iterations, converged)


# The step loop applies one rule to each bracket and updates lo, hi, flo and
# fhi in place; it returns the number of steps per bracket.
#
# The rule is ITP (interpolate, truncate, project; Oliveira & Takahashi,
# ACM TOMS 47(1), 2020).  The regula falsi point is moved towards the
# midpoint by kappa_1 * w**2, with kappa_1 = ITP_KAPPA1 / w0 and kappa_2 = 2,
# then clipped to within eps * 2**(n_max - j) - w/2 of the midpoint, where
# n_max = ceil(log2(w0/xtol)) + ITP_N0 and j counts the steps taken.  The
# clip keeps the width after j steps within eps * 2**(n_max - j + 1), so no
# bracket takes more than n_max steps, ITP_N0 more than bisection, to get
# below xtol, while smooth slopes stop after a handful.  eps is xtol/2 less
# two units in the last place of the bracket's larger end, so that rounding
# the points cannot leave the last width a hair above xtol.  Where the point
# is not strictly inside the bracket, or f(hi) is +inf (an overflowed
# slope), the step is the midpoint.
#
# The truncation is at least eps/2 upwards and eps/4 downwards.  Near the
# root the regula falsi point lands within rounding of it, where the sign of
# f is noise (or f is exactly 0 and the next regula falsi point is lo
# itself); the floor steps past the root by a margin instead, so the bracket
# closes below xtol and the steps taken do not depend on how f rounds.  The
# two floors differ so that a bracket closed by an overshoot from each side
# keeps ends whose residuals differ by about 2x, and the end reported does
# not hinge on rounding either.
ITP_KAPPA1 = 0.2
ITP_N0 = 1


def _itp_budget(w0, xtol):
    """n_max = ceil(log2(w0 / xtol)) + ITP_N0 per bracket, from the exact binary exponent."""
    m, e = np.frexp(w0 / xtol if xtol > 0.0 else np.zeros_like(w0))
    return np.maximum(e - (m == 0.5), 0) + ITP_N0


def _steps(value, lo, hi, flo, fhi, active, xtol, ftol):
    """Step every active bracket at once; a stopped bracket stays frozen."""
    iterations = np.zeros(lo.shape, dtype=int)
    n_max = _itp_budget(hi - lo, xtol)
    eps = 0.5 * (xtol - 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    # a frozen bracket may be degenerate (lo == hi, flo == fhi); its point is
    # NaN until the midpoint replaces it, so its 0/0 is silenced
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = ITP_KAPPA1 / (hi - lo)
    for j in range(DEFAULT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        active &= (lo < mid) & (mid < hi)  # exhausted at floating point resolution
        if not np.count_nonzero(active):
            break
        w = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            x = lo + w * (flo / (flo - fhi))  # regula falsi
            d = mid - x
            delta = np.maximum(k1 * w * w, np.where(d > 0.0, 0.5 * eps, 0.25 * eps))
            x = np.where(delta <= np.abs(d), x + np.copysign(delta, d), mid)
            r = np.maximum(np.ldexp(eps, n_max - j) - 0.5 * w, 0.0)
            x = np.where(np.abs(x - mid) <= r, x, mid - np.copysign(r, d))
        x = np.where(active & (lo < x) & (x < hi) & (fhi < math.inf), x, mid)
        fx = value(x)
        np.copyto(iterations, j + 1, where=active)
        bad = active & ~(fx > -np.inf)  # NaN or -inf
        if bad.any():
            i = int(np.argmax(bad))
            raise SolverError(f"non-finite value f({x[i]})={fx[i]} during bisection")
        left = active & (fx <= 0.0)
        right = active ^ left
        np.copyto(lo, x, where=left)
        np.copyto(flo, fx, where=left)
        np.copyto(hi, x, where=right)
        np.copyto(fhi, fx, where=right)
        done = hi - lo <= xtol
        if ftol is not None:
            done &= np.abs(fx) <= ftol
        active &= ~done
    return iterations


def golden_section_max(f: Callable, lo, hi, *, xtol) -> MaxResult:
    """Derivative-free maximization of a unimodal function on [lo, hi].

    Classic golden-section search; additionally tracks the best point seen
    (including the interval ends) so boundary maxima are reported exactly.
    Brackets are given as for :func:`bisect_nondecreasing`, and ``xtol``
    may be one tolerance per bracket.  An infinite end, where
    :func:`expand_bracket_max` saw the objective still growing, is the
    maximum: such a bracket reports that end with value +inf and an
    infinite width, and ``f`` is evaluated only at its finite end.
    """
    scalar, lo, hi, value = _brackets(f, lo, hi)
    grew = np.isinf(lo) | np.isinf(hi)
    # a grown bracket collapses onto its finite end, so it takes no step
    a = np.where(np.isinf(lo), hi, lo)
    b = np.where(np.isinf(hi), lo, hi)
    fa, fb = value(a), value(b)
    take = fb > fa
    best_x, best_v = np.where(take, b, a), np.where(take, fb, fa)
    h = b - a
    active = h > xtol
    c, d = a + INV_PHI2 * h, a + INV_PHI * h
    # probes of a bracket already narrower than xtol do not count
    fc, fd = np.where(active, value(c), -np.inf), np.where(active, value(d), -np.inf)
    iterations = np.zeros(a.shape, dtype=int)
    left, right = np.empty_like(active), np.empty_like(active)
    for j in range(DEFAULT_MAX_ITER):
        active &= h > xtol
        if not np.count_nonzero(active):
            break
        # the maximum lies left of d: keep [a, d] and its probe c, else [c, b] and d
        np.logical_and(active, fc >= fd, out=left)
        np.not_equal(active, left, out=right)
        np.copyto(b, d, where=left)
        np.copyto(d, c, where=left)
        np.copyto(fd, fc, where=left)
        np.copyto(a, c, where=right)
        np.copyto(c, d, where=right)
        np.copyto(fc, fd, where=right)
        h = b - a
        x = a + np.where(left, INV_PHI2, INV_PHI) * h
        fx = value(x)
        np.copyto(c, x, where=left)
        np.copyto(fc, fx, where=left)
        np.copyto(d, x, where=right)
        np.copyto(fd, fx, where=right)
        np.copyto(iterations, j + 1, where=active)
    for x, v in ((c, fc), (d, fd)):
        take = v > best_v
        best_x, best_v = np.where(take, x, best_x), np.where(take, v, best_v)
    best_x = np.where(grew, np.where(np.isinf(hi), hi, lo), best_x)
    best_v[grew] = h[grew] = np.inf
    return _result(MaxResult, scalar, best_x, best_v, h, iterations, (h <= xtol) & ~grew)


def _improving(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return candidate > reference + 1e-9 * (1.0 + np.abs(reference))


def expand_bracket_max(
    f: Callable,
    lo,
    hi,
    *,
    ceiling: float,
    min_lo: Optional[float] = None,
) -> tuple:
    """Grow [lo, hi] until a concave objective has an interior maximum.

    Each side is pushed outward, the right one first, its step doubling
    each time, while the end value keeps strictly improving on the
    interior probe.  An end pushed past ``ceiling`` comes back as +inf on
    the right or -inf on the left and its bracket stops growing: the
    supremum appears unbounded there, and :func:`golden_section_max` reads
    such a bracket as +inf.  ``min_lo`` is a hard domain wall: the left end
    clamps there instead of expanding past it.

    Flat objectives are left alone: improvement below a small relative
    slack does not trigger expansion, so a constant function keeps its
    initial bracket instead of chasing rounding noise to the ceiling.

    Brackets are given as for :func:`bisect_nondecreasing`; array ends
    give the arrays ``(lo, hi)``.
    """
    scalar, lo, hi, value = _brackets(f, lo, hi, strict=True)
    span = hi - lo
    mid = 0.5 * (lo + hi)
    # near, mid and far lie in the direction a bracket grows: way is +1
    # while it grows right, -1 while it grows left, and 0 once it stops
    near, far = lo, hi
    fnear, fmid, ffar = value(lo), value(mid), value(hi)
    step = span.copy()
    way = np.ones_like(lo)
    while True:
        grow = (way != 0.0) & _improving(ffar, fmid)
        turn = (way > 0.0) & ~grow  # the right side is done: grow the left from the first step
        if turn.any():
            near, far = np.where(turn, far, near), np.where(turn, near, far)
            fnear, ffar = np.where(turn, ffar, fnear), np.where(turn, fnear, ffar)
            np.copyto(step, span, where=turn)
            way[turn] = -1.0
            grow |= turn & _improving(ffar, fmid)
        if not grow.any():
            break
        np.copyto(near, mid, where=grow)
        np.copyto(fnear, fmid, where=grow)
        np.copyto(mid, far, where=grow)
        np.copyto(fmid, ffar, where=grow)
        np.multiply(step, 2.0, out=step, where=grow)
        new = far + way * step
        if min_lo is not None:
            grow &= ~((way < 0.0) & (far <= min_lo))  # the left end is at the wall
            new = np.where(way < 0.0, np.maximum(new, min_lo), new)
        past = grow & (np.abs(new) > ceiling)
        new[past] = way[past] * np.inf
        np.copyto(far, new, where=grow)
        grow &= ~past
        way[~grow] = 0.0
        if grow.any():
            np.copyto(ffar, value(np.where(grow, far, mid)), where=grow)
    lo, hi = np.minimum(near, far), np.maximum(near, far)
    return (lo[0].item(), hi[0].item()) if scalar else (lo, hi)
