"""Unit tests for the shared bracketed scalar solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import scalar_opt
from condrisk.scalar_opt import (
    SolverError,
    bisect_nondecreasing,
    expand_bracket_max,
    golden_section_max,
)


class TestBisect:
    def test_linear_root(self):
        res = bisect_nondecreasing(lambda x: x - 1.0, 0.0, 3.0, xtol=1e-12, ftol=1e-12)
        assert abs(res.x - 1.0) <= 1e-10
        assert res.converged
        assert res.bracket_width <= 1e-12

    def test_root_at_lower_end(self):
        res = bisect_nondecreasing(lambda x: x, 0.0, 5.0, xtol=1e-12)
        assert res.x == 0.0
        assert res.iterations == 0

    def test_root_at_upper_end(self):
        res = bisect_nondecreasing(lambda x: x, -5.0, 0.0, xtol=1e-12)
        assert res.x == 0.0

    def test_degenerate_bracket(self):
        res = bisect_nondecreasing(lambda x: x - 2.0, 2.0, 2.0, xtol=1e-12)
        assert res.x == 2.0
        assert res.converged

    def test_step_function(self):
        res = bisect_nondecreasing(
            lambda x: -1.0 if x < math.pi else 1.0, 0.0, 5.0, xtol=1e-9
        )
        assert abs(res.x - math.pi) <= 1e-8

    def test_not_bracketed_raises(self):
        with pytest.raises(SolverError, match="not bracketed"):
            bisect_nondecreasing(lambda x: x + 10.0, 0.0, 1.0, xtol=1e-9, ftol=1e-12)

    def test_invalid_bracket_raises(self):
        with pytest.raises(ValueError, match="invalid bracket"):
            bisect_nondecreasing(lambda x: x, 1.0, 0.0, xtol=1e-9)

    def test_nonfinite_value_raises(self):
        with pytest.raises(SolverError, match="non-finite"):
            bisect_nondecreasing(lambda x: math.nan, 0.0, 1.0, xtol=1e-9)

    def test_iteration_cap_reported_as_not_converged(self, monkeypatch):
        monkeypatch.setattr(scalar_opt, "DEFAULT_MAX_ITER", 10)
        res = bisect_nondecreasing(lambda x: x - 1.0, 0.0, 3.0, xtol=1e-300)
        assert not res.converged
        assert res.iterations == 10
        assert res.bracket_width > 1e-300

    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_finds_arbitrary_linear_roots(self, root, halfwidth):
        res = bisect_nondecreasing(
            lambda x: x - root, root - halfwidth, root + halfwidth, xtol=1e-10, ftol=1e-9
        )
        assert abs(res.x - root) <= 1e-8


class TestGoldenSection:
    def test_parabola(self):
        res = golden_section_max(lambda x: -((x - 2.0) ** 2), 0.0, 5.0, xtol=1e-10)
        assert abs(res.x - 2.0) <= 1e-8
        assert abs(res.value) <= 1e-15
        assert res.converged

    def test_boundary_maximum_is_exact(self):
        res = golden_section_max(lambda x: -x, 0.0, 1.0, xtol=1e-10)
        assert res.x == 0.0
        assert res.value == 0.0

    def test_flat_function(self):
        res = golden_section_max(lambda x: 7.0, -1.0, 1.0, xtol=1e-10)
        assert res.value == 7.0

    def test_tiny_interval_short_circuits(self):
        res = golden_section_max(lambda x: -x * x, 1.0, 1.0 + 1e-12, xtol=1e-10)
        assert res.iterations == 0

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_concave_peak_recovered(self, peak):
        res = golden_section_max(
            lambda x: -abs(x - peak), peak - 10.0, peak + 10.0, xtol=1e-9
        )
        assert abs(res.x - peak) <= 1e-7


class TestExpandBracket:
    def test_interior_peak_keeps_initial_bracket(self):
        lo, hi = expand_bracket_max(lambda x: -(x**2), -1.0, 1.0, ceiling=1e6)
        assert (lo, hi) == (-1.0, 1.0)

    def test_expands_right_to_cover_peak(self):
        lo, hi = expand_bracket_max(lambda x: -abs(x - 40.0), 0.0, 1.0, ceiling=1e6)
        assert hi >= 40.0

    def test_expands_left_to_cover_peak(self):
        lo, hi = expand_bracket_max(lambda x: -abs(x + 40.0), 0.0, 1.0, ceiling=1e6)
        assert lo <= -40.0

    def test_unbounded_right(self):
        # growth past the ceiling comes back as an infinite end, which the
        # golden search reads as a supremum of +inf there
        lo, hi = expand_bracket_max(lambda x: x, 0.0, 1.0, ceiling=1e4)
        assert hi == math.inf and lo < 1e4
        res = golden_section_max(lambda x: x, lo, hi, xtol=1e-10)
        assert (res.x, res.value, res.converged) == (math.inf, math.inf, False)

    def test_unbounded_left(self):
        lo, hi = expand_bracket_max(lambda x: -x, 0.0, 1.0, ceiling=1e4)
        assert lo == -math.inf and hi > -1e4
        res = golden_section_max(lambda x: -x, lo, hi, xtol=1e-10)
        assert (res.x, res.value, res.converged) == (-math.inf, math.inf, False)

    def test_domain_wall_clamps_left_expansion(self):
        lo, hi = expand_bracket_max(lambda x: -x, 0.0, 1.0, ceiling=1e4, min_lo=0.0)
        assert lo == 0.0

    def test_flat_objective_is_left_alone(self):
        lo, hi = expand_bracket_max(lambda x: 3.0, 0.0, 1.0, ceiling=1e4)
        assert (lo, hi) == (0.0, 1.0)

    def test_golden_after_expansion_finds_far_peak(self):
        f = lambda x: -((x - 123.5) ** 2)
        lo, hi = expand_bracket_max(f, 0.0, 1.0, ceiling=1e6)
        res = golden_section_max(f, lo, hi, xtol=1e-8)
        assert abs(res.x - 123.5) <= 1e-6


def fields(res):
    return (res.x, res.value, res.bracket_width, res.iterations, res.converged)


def batched(objectives):
    """One objective per bracket, evaluated at one point each."""
    return lambda t: np.array([f(v) for f, v in zip(objectives, t)])


def test_batched_golden_follows_its_scalar_steps():
    cases = [  # (objective, lo, hi, xtol)
        (lambda x: -((x - 0.7) ** 2), -1.0, 2.0, 1e-10),  # interior peak
        (lambda x: -x, 0.0, 1.0, 1e-10),  # boundary maximum
        (lambda x: 7.0, -1.0, 1.0, 1e-8),  # flat objective
        (lambda x: -x * x, 1.0, 1.0 + 1e-12, 1e-10),  # narrower than xtol
        (lambda x: x, 0.0, math.inf, 1e-10),  # grown past a ceiling on the right
        (lambda x: -x, -math.inf, 0.0, 1e-10),  # and on the left
    ]
    objectives, lo, hi, xtol = (list(c) for c in zip(*cases))
    many = golden_section_max(batched(objectives), np.array(lo), np.array(hi), xtol=np.array(xtol))
    for i, (f, a, b, tol) in enumerate(cases):
        one = golden_section_max(f, a, b, xtol=tol)
        assert tuple(v[i] for v in fields(many)) == fields(one)
    assert many.value[4] == many.value[5] == math.inf
    assert (many.x[4], many.x[5]) == (math.inf, -math.inf)


@pytest.mark.parametrize("min_lo", [None, 0.0])
def test_batched_expansion_follows_its_scalar_steps(min_lo):
    cases = [  # (objective, lo, hi)
        (lambda x: -((x - 0.7) ** 2), -1.0, 2.0),  # interior peak: left alone
        (lambda x: -abs(x - 40.0), 0.0, 1.0),  # grows right
        (lambda x: -abs(x + 40.0), 0.5, 1.0),  # grows left, or stops at the wall
        (lambda x: 3.0, 0.0, 1.0),  # flat objective: left alone
        (lambda x: x, 0.0, 1.0),  # unbounded to the right
        (lambda x: -x, 0.5, 1.0),  # unbounded to the left, or stops at the wall
    ]
    objectives, lo, hi = (list(c) for c in zip(*cases))
    f = batched(objectives)
    many = expand_bracket_max(f, np.array(lo), np.array(hi), ceiling=1e4, min_lo=min_lo)
    peaks = golden_section_max(f, *many, xtol=1e-9)
    for i, (g, a, b) in enumerate(cases):
        one = expand_bracket_max(g, a, b, ceiling=1e4, min_lo=min_lo)
        assert (many[0][i], many[1][i]) == one
        assert tuple(v[i] for v in fields(peaks)) == fields(golden_section_max(g, *one, xtol=1e-9))
    assert many[1][4] == math.inf
    assert many[0][5] == (-math.inf if min_lo is None else 0.0)
    assert many[0][2] <= -40.0 if min_lo is None else many[0][2] == 0.0
