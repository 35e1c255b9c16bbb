"""Bracketed one-dimensional solvers shared by the risk-measure routines.

Two workhorses cover everything this package optimizes:

* :func:`bisect_nondecreasing` finds the root of a monotone scalar function,
  or of many independent ones at once, one bracket each, by the ITP rule
  (Oliveira & Takahashi, ACM TOMS 47(1), 2020): a regula falsi step
  truncated towards the midpoint and projected so that no bracket takes
  more than ``ITP_N0`` (one) step beyond bisection's ceil(log2(w0/xtol)).
  All first-order conditions in this package reduce to such a root because
  the objectives are concave with monotone derivatives.
* :func:`golden_section_max` maximizes a concave (or unimodal) function on a
  closed interval without derivatives, with :func:`expand_bracket_max`
  growing the interval first when no a-priori bracket is known.

Both stop on an interval-width tolerance and an iteration cap, and report
what they achieved so callers can surface residuals instead of silently
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
    """Bracket expansion hit its ceiling while the objective kept growing."""

    def __init__(self, message: str, side: str):
        super().__init__(message)
        self.side = side


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


def bisect_nondecreasing(
    f: Callable,
    lo,
    hi,
    *,
    xtol: float,
    ftol: Optional[float] = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RootResult:
    """Root of a nondecreasing function with f(lo) <= 0 <= f(hi).

    The bracket shrinks by ITP steps (see the comment above the step loops)
    until it is narrower than ``xtol`` and, when ``ftol`` is given, the
    residual |f| at the last point is below it too; it stops early once
    the midpoint can no longer be resolved in floating point.  With
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
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(f"brackets must be scalars or equally long vectors, got {lo.shape} and {hi.shape}")
    if scalar:
        scalar_f = f

        def f(t):
            return np.array([scalar_f(float(t[0]))], dtype=float)

    def value(t):
        return np.asarray(f(t), dtype=float).reshape(lo.shape)

    if not np.all(lo <= hi):
        i = int(np.argmax(~(lo <= hi)))
        raise ValueError(f"invalid bracket [{lo[i]}, {hi[i]}]")
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

    steps = _steps_one if lo.size == 1 else _steps
    iterations = steps(value, lo, hi, flo, fhi, active, xtol, ftol, max_iter)
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
    if scalar:
        return RootResult(float(x[0]), float(fx[0]), float(width[0]), int(iterations[0]), bool(converged[0]))
    return RootResult(x, fx, width, iterations, converged)


# The two step loops apply the same rule to each bracket, with the same float
# operations in the same order, and update lo, hi, flo and fhi in place; they
# return the number of steps per bracket.
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


def _steps(value, lo, hi, flo, fhi, active, xtol, ftol, max_iter):
    """Step every active bracket at once; a stopped bracket stays frozen."""
    iterations = np.zeros(lo.shape, dtype=int)
    n_max = _itp_budget(hi - lo, xtol)
    eps = 0.5 * (xtol - 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    # a frozen bracket may be degenerate (lo == hi, flo == fhi); its point is
    # NaN until the midpoint replaces it, so its 0/0 is silenced
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = ITP_KAPPA1 / (hi - lo)
    for j in range(max_iter):
        mid = 0.5 * (lo + hi)
        active &= (lo < mid) & (mid < hi)  # exhausted at floating point resolution
        if not active.any():
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
        iterations += active
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


def _steps_one(value, lo, hi, flo, fhi, active, xtol, ftol, max_iter):
    """The same steps for one bracket, in Python floats.

    A step of :func:`_steps` costs a few dozen numpy calls whatever the
    number of brackets, tens of microseconds that one bracket need not pay.
    """
    a, b, fa, fb = float(lo[0]), float(hi[0]), float(flo[0]), float(fhi[0])
    iterations = 0
    if active[0]:
        k1 = ITP_KAPPA1 / (b - a)
        n_max = int(_itp_budget(hi - lo, xtol)[0])
        eps = 0.5 * (xtol - 4.0 * math.ulp(max(abs(a), abs(b))))
    while active[0] and iterations < max_iter:
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break
        w = b - a
        x = a + w * (fa / (fa - fb))  # regula falsi
        d = mid - x
        delta = max(k1 * w * w, 0.5 * eps if d > 0.0 else 0.25 * eps)
        x = x + math.copysign(delta, d) if delta <= abs(d) else mid
        r = max(math.ldexp(eps, n_max - iterations) - 0.5 * w, 0.0)
        if not abs(x - mid) <= r:
            x = mid - math.copysign(r, d)
        if not (a < x < b and fb < math.inf):
            x = mid
        fx = float(value(np.array([x]))[0])
        iterations += 1
        if not fx > -math.inf:
            raise SolverError(f"non-finite value f({x})={fx} during bisection")
        if fx <= 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a <= xtol and (ftol is None or abs(fx) <= ftol):
            break
    lo[0], hi[0], flo[0], fhi[0] = a, b, fa, fb
    return np.array([iterations])


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float,
) -> MaxResult:
    """Derivative-free maximization of a unimodal function on [lo, hi].

    Classic golden-section search; additionally tracks the best point seen
    (including the interval ends) so boundary maxima are reported exactly.
    """
    if not (lo <= hi):
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    best_x, best_v = lo, f(lo)
    fhi = f(hi)
    if fhi > best_v:
        best_x, best_v = hi, fhi
    a, b = lo, hi
    h = b - a
    if h <= xtol:
        return MaxResult(best_x, best_v, h, 0, True)
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc = f(c)
    fd = f(d)
    iterations = 0
    while h > xtol and iterations < DEFAULT_MAX_ITER:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = f(d)
        iterations += 1
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    return MaxResult(best_x, best_v, h, iterations, h <= xtol)


def expand_bracket_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    ceiling: float,
    min_lo: Optional[float] = None,
) -> tuple:
    """Grow [lo, hi] until a concave objective has an interior maximum.

    Each side is pushed outward, its step doubling each time, while the end
    value keeps strictly improving on the interior probe; sustained growth
    past ``ceiling`` raises :class:`UnboundedObjective`, which callers
    interpret as a divergent supremum.  ``min_lo`` is a hard domain wall:
    the left end clamps there instead of expanding past it.

    Flat objectives are left alone: improvement below a small relative
    slack does not trigger expansion, so a constant function keeps its
    initial bracket instead of chasing rounding noise to the ceiling.
    """
    if not (lo < hi):
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    span = hi - lo
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = f(lo), f(mid), f(hi)

    def improving(candidate: float, reference: float) -> bool:
        return candidate > reference + 1e-9 * (1.0 + abs(reference))

    step = span
    while improving(fhi, fmid):
        lo, flo = mid, fmid
        mid, fmid = hi, fhi
        step *= 2.0
        hi = hi + step
        if abs(hi) > ceiling:
            raise UnboundedObjective(
                f"objective still increasing at {hi:.3g}; supremum appears unbounded", "right"
            )
        fhi = f(hi)
    step = span
    while improving(flo, fmid):
        hi, fhi = mid, fmid
        mid, fmid = lo, flo
        step *= 2.0
        new_lo = lo - step
        if min_lo is not None:
            if lo <= min_lo:
                break
            new_lo = max(new_lo, min_lo)
        lo = new_lo
        if abs(lo) > ceiling:
            raise UnboundedObjective(
                f"objective still increasing at {lo:.3g}; supremum appears unbounded", "left"
            )
        flo = f(lo)
    return lo, hi
