"""The ITP step rule of ``bisect_nondecreasing``.

The rule keeps bisection's worst case plus one step (``ITP_N0``) on any
nondecreasing function, takes a handful of steps on smooth slopes, falls
back to midpoints next to an overflowed (+inf) value, and steps every
bracket of an array call exactly as a call with that bracket alone would.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    oce_primal,
)
from condrisk.scalar_opt import ITP_N0, bisect_nondecreasing

from conftest import searched_generator

KINDS = ("linear", "convex", "concave", "kinked", "step", "flat_then_linear")


def monotone(kind, root, scale, ratio):
    """A nondecreasing function of arrays whose sign changes at ``root``."""

    def z(t):
        return np.clip(scale * (t - root), -700.0, 700.0)

    if kind == "linear":
        return lambda t: scale * (t - root)
    if kind == "convex":
        return lambda t: np.expm1(z(t))
    if kind == "concave":
        return lambda t: -np.expm1(-z(t))
    if kind == "kinked":
        return lambda t: scale * (t - root) * np.where(t > root, ratio, 1.0)
    if kind == "step":
        return lambda t: np.where(t < root, -1.0, 1.0)
    # exactly zero up to the root: every lower end after the first has f = 0
    return lambda t: scale * np.maximum(t - root, 0.0) - np.where(t < root - 1.0, 1.0, 0.0)


def bisection_steps(lo, hi, xtol):
    return math.ceil(math.log2((hi - lo) / xtol))


@given(
    kind=st.sampled_from(KINDS),
    lo=st.floats(-100.0, 100.0),
    width=st.floats(1e-6, 1e3),
    at=st.floats(1e-3, 1.0 - 1e-3),
    scale=st.floats(1e-3, 1e3),
    ratio=st.floats(1e-4, 1e4),
    xtol=st.sampled_from([1e-12, 1e-10, 1e-6]),
)
@settings(max_examples=400, deadline=None)
def test_steps_within_the_bisection_bound_plus_n0(kind, lo, width, at, scale, ratio, xtol):
    hi = lo + width
    root = lo + at * (hi - lo)
    f = monotone(kind, root, scale, ratio)
    res = bisect_nondecreasing(f, [lo], [hi], xtol=xtol)
    assert res.iterations[0] <= max(bisection_steps(lo, hi, xtol), 0) + ITP_N0
    assert res.converged[0]
    assert res.bracket_width[0] <= xtol
    if kind in ("linear", "kinked", "step"):  # the sign of f is exact
        assert abs(res.x[0] - root) <= res.bracket_width[0]


def random_atoms(rng, n_atoms):
    sizes = rng.integers(2, 41, n_atoms)
    n = int(sizes.sum())
    p = rng.uniform(0.5, 1.5, n)
    space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], p / p.sum())
    perm = rng.permutation(n)
    g = Partition(np.split(perm, np.cumsum(sizes)[:-1]))
    x = np.empty(n)
    for idx in g.index_arrays():
        span = 10.0 ** rng.uniform(-3.0, 3.0)
        x[idx] = rng.normal(0.0, 10.0) + span * rng.random(idx.size)
    return space, g, RandomVariable(x)


def test_kl_slopes_take_a_handful_of_steps():
    # bisection takes ceil(log2(span / 1e-10)), 24-44 steps, on these atoms
    space, g, x = random_atoms(np.random.default_rng(11), 300)
    steps = np.array(oce_primal(space, g, searched_generator("kl"), x).iterations)
    assert np.median(steps) <= 12


class TestInfiniteUpperEnd:
    """An overflowed slope at ``hi`` is +inf; regula falsi never sees it."""

    @staticmethod
    def kl_slopes(t):
        return np.where(t < 709.0, np.exp(np.minimum(t, 709.0)) - 2.0, np.inf)

    def test_scalar_bracket_solves(self):
        res = bisect_nondecreasing(self.kl_slopes, [0.0], [1000.0], xtol=1e-10, ftol=1e-10)
        assert res.converged[0]
        assert abs(res.x[0] - math.log(2.0)) <= res.bracket_width[0] <= 1e-10
        assert res.iterations[0] <= bisection_steps(0.0, 1000.0, 1e-10) + ITP_N0

    def test_array_brackets_match_scalar_calls(self):
        his = np.array([1000.0, 800.0, 2.0, 1e4])
        got = bisect_nondecreasing(self.kl_slopes, np.zeros(4), his, xtol=1e-10, ftol=1e-10)
        for i, hi in enumerate(his):
            one = bisect_nondecreasing(self.kl_slopes, [0.0], [hi], xtol=1e-10, ftol=1e-10)
            assert (got.x[i], got.bracket_width[i], got.iterations[i]) == (
                one.x[0], one.bracket_width[0], one.iterations[0]
            )
            assert abs(one.x[0] - math.log(2.0)) <= 1e-10


@pytest.mark.parametrize("ftol", [1e-10, None])
def test_array_brackets_take_the_scalar_steps_on_curved_functions(ftol):
    # the linear functions of test_blocks make regula falsi exact in one step;
    # curved ones exercise truncation, projection and the floor
    rng = np.random.default_rng(3)
    k = 30
    roots = rng.uniform(-1.0, 1.0, k)
    scale = 10.0 ** rng.uniform(-2, 2, k)
    lo = roots - 10.0 ** rng.uniform(-3, 2, k)
    hi = roots + 10.0 ** rng.uniform(-3, 2, k)

    def curved(t, r, s):
        return np.sinh(np.clip(s * (t - r), -700.0, 700.0)) + (t - r) ** 3

    many = bisect_nondecreasing(lambda t: curved(t, roots, scale), lo, hi, xtol=1e-10, ftol=ftol)
    for i in range(k):
        one = bisect_nondecreasing(
            lambda t: curved(t, roots[i], scale[i]), lo[i : i + 1], hi[i : i + 1], xtol=1e-10, ftol=ftol
        )
        assert (many.x[i], many.value[i], many.bracket_width[i], many.iterations[i]) == (
            one.x[0], one.value[0], one.bracket_width[0], one.iterations[0]
        )
    # and the rule is not bisection: these roots take far fewer steps
    assert np.median(many.iterations) < np.median(
        [bisection_steps(a, b, 1e-10) for a, b in zip(lo, hi)]
    ) / 2
