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

    @pytest.mark.parametrize("lo, hi, shapes", [
        ([0.0, 0.0], [1.0, 1.0, 1.0], r"\(2,\) and \(3,\)"),
        ([[0.0]], [[1.0]], r"\(1, 1\) and \(1, 1\)"),
    ])
    def test_brackets_of_unequal_or_nested_shape_raise(self, lo, hi, shapes):
        message = f"^brackets must be scalars or equally long vectors, got {shapes}$"
        with pytest.raises(ValueError, match=message):
            bisect_nondecreasing(lambda x: x, lo, hi, xtol=1e-9)

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
    """``golden_section_max``: the section search of ``PROBES`` points per step."""

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

    def test_stops_at_float_resolution(self):
        # near 1e6 floats are 1.2e-10 apart, so a 1e-12 width is out of
        # reach: the bracket stops once a step no longer narrows it
        res = golden_section_max(lambda x: -((x - 1e6 - 0.3) ** 2), 1e6, 1e6 + 1.0, xtol=1e-12)
        assert not res.converged
        assert res.iterations < 30
        assert abs(res.x - (1e6 + 0.3)) <= 2e-10

    def test_probes_arrive_as_rows_and_scalar_brackets_as_floats(self):
        seen = []
        golden_section_max(lambda t: seen.append(np.shape(t)) or -(t**2), np.zeros(3), np.ones(3), xtol=1e-3)
        assert seen[0] == (2, 3)  # the two ends of every bracket
        assert set(seen[1:]) == {(scalar_opt.PROBES, 3)}
        floats = []
        golden_section_max(lambda t: floats.append(type(t)) or -t * t, 0.0, 1.0, xtol=1e-3)
        assert set(floats) == {float}

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_concave_peak_recovered(self, peak):
        res = golden_section_max(
            lambda x: -abs(x - peak), peak - 10.0, peak + 10.0, xtol=1e-9
        )
        assert abs(res.x - peak) <= 1e-7


class TestExpandBracket:
    def test_interior_peak_keeps_initial_bracket(self):
        lo, hi, _, _ = expand_bracket_max(lambda x: -(x**2), -1.0, 1.0, ceiling=1e6)
        assert (lo, hi) == (-1.0, 1.0)

    def test_expands_right_to_cover_peak(self):
        lo, hi, _, _ = expand_bracket_max(lambda x: -abs(x - 40.0), 0.0, 1.0, ceiling=1e6)
        assert hi >= 40.0

    def test_expands_left_to_cover_peak(self):
        lo, hi, _, _ = expand_bracket_max(lambda x: -abs(x + 40.0), 0.0, 1.0, ceiling=1e6)
        assert lo <= -40.0

    def test_unbounded_right(self):
        # growth past the ceiling comes back as an infinite end, which the
        # golden search reads as a supremum of +inf there
        lo, hi, _, _ = expand_bracket_max(lambda x: x, 0.0, 1.0, ceiling=1e4)
        assert hi == math.inf and lo < 1e4
        res = golden_section_max(lambda x: x, lo, hi, xtol=1e-10)
        assert (res.x, res.value, res.converged) == (math.inf, math.inf, False)

    def test_unbounded_left(self):
        lo, hi, _, _ = expand_bracket_max(lambda x: -x, 0.0, 1.0, ceiling=1e4)
        assert lo == -math.inf and hi > -1e4
        res = golden_section_max(lambda x: -x, lo, hi, xtol=1e-10)
        assert (res.x, res.value, res.converged) == (-math.inf, math.inf, False)

    def test_domain_wall_clamps_left_expansion(self):
        lo, hi, _, _ = expand_bracket_max(lambda x: -x, 0.0, 1.0, ceiling=1e4, min_lo=0.0)
        assert lo == 0.0

    def test_flat_objective_is_left_alone(self):
        lo, hi, _, _ = expand_bracket_max(lambda x: 3.0, 0.0, 1.0, ceiling=1e4)
        assert (lo, hi) == (0.0, 1.0)

    def test_golden_after_expansion_finds_far_peak(self):
        f = lambda x: -((x - 123.5) ** 2)
        lo, hi, _, _ = expand_bracket_max(f, 0.0, 1.0, ceiling=1e6)
        res = golden_section_max(f, lo, hi, xtol=1e-8)
        assert abs(res.x - 123.5) <= 1e-6


def fields(res):
    return (res.x, res.value, res.bracket_width, res.iterations, res.converged)


def batched(objectives):
    """One objective per bracket, evaluated at each point of its column: one
    point per bracket, or the rows of probes of a section-search step."""

    def f(t):
        rows = np.reshape(t, (-1, len(objectives)))
        return np.array([[g(v) for g, v in zip(objectives, row)] for row in rows]).reshape(np.shape(t))

    return f


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
        assert tuple(v[i] for v in many) == one
        assert tuple(v[i] for v in fields(peaks)) == fields(golden_section_max(g, *one, xtol=1e-9))
    assert many[1][4] == math.inf
    assert many[0][5] == (-math.inf if min_lo is None else 0.0)
    assert many[0][2] <= -40.0 if min_lo is None else many[0][2] == 0.0


@pytest.mark.parametrize("min_lo", [None, 0.0])
def test_end_values_from_the_expansion_save_one_call(min_lo):
    # the section search given the expansion's end values takes the same
    # steps, field for field, with one call fewer
    cases = [
        (lambda x: -((x - 0.7) ** 2), -1.0, 2.0),
        (lambda x: -abs(x - 40.0), 0.0, 1.0),
        (lambda x: -abs(x + 40.0), 0.5, 1.0),
        (lambda x: x, 0.0, 1.0),
        (lambda x: -x, 0.5, 1.0),
    ]
    objectives, lo, hi = zip(*cases)
    f = batched(objectives)
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return f(t)

    a, b, f_lo, f_hi = expand_bracket_max(f, np.array(lo), np.array(hi), ceiling=1e4, min_lo=min_lo)
    finite = np.isfinite(a) & np.isfinite(b)
    assert not finite.all()
    np.testing.assert_array_equal(f_lo[finite], f(a)[finite])
    np.testing.assert_array_equal(f_hi[finite], f(b)[finite])
    plain = golden_section_max(counted, a, b, xtol=1e-9)
    plain_calls, calls[:] = len(calls), []
    given = golden_section_max(counted, a, b, f_lo, f_hi, xtol=1e-9)
    assert len(calls) == plain_calls - 1
    for one, two in zip(fields(plain), fields(given)):
        np.testing.assert_array_equal(one, two)
    for g, x0, x1 in cases:  # scalar brackets give floats
        bracket = expand_bracket_max(g, x0, x1, ceiling=1e4, min_lo=min_lo)
        assert all(isinstance(v, float) for v in bracket)
        assert fields(golden_section_max(g, *bracket, xtol=1e-9)) == fields(
            golden_section_max(g, *bracket[:2], xtol=1e-9)
        )
    with pytest.raises(TypeError, match="both bracket ends"):
        golden_section_max(f, a, b, f_lo, xtol=1e-9)


def test_steps_within_the_section_bound():
    # a bracket narrows (PROBES + 1) / 2 times per step at least
    rng = np.random.default_rng(3)
    n = 300
    lo = rng.uniform(-10.0, 10.0, n)
    hi = lo + 10.0 ** rng.uniform(-6.0, 3.0, n)
    xtol = 10.0 ** rng.uniform(-11.0, -7.0, n)
    # peaks inside, at either end, and beyond either end
    peak = lo + (hi - lo) * rng.choice([0.0, 1.0, -0.5, 1.5, 0.5, 0.37, 0.999], n)
    kink = rng.integers(0, 2, n).astype(bool)
    res = golden_section_max(
        lambda t: np.where(kink, -np.abs(t - peak), -((t - peak) ** 2)), lo, hi, xtol=xtol
    )
    bound = np.ceil(np.log((hi - lo) / xtol) / np.log((scalar_opt.PROBES + 1) / 2))
    assert np.all(res.iterations <= bound)
    assert res.converged.all()
    assert np.all(np.abs(res.x - np.clip(peak, lo, hi)) <= np.where(kink, xtol, np.sqrt(xtol)))
