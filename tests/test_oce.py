"""Primal certainty equivalents: anchors, first-order conditions, and the
niveloid-shape properties of the value map."""

import math
import warnings

import numpy as np
import pytest

from condrisk import (
    ConditionalValue,
    DivergenceGenerator,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    builtin_generator,
    cond_expectation,
    cond_sup_norm,
    embed,
    entropic_risk,
    i_phi,
    oce_dual,
    oce_primal,
)
from conftest import BUILTIN_NAMES, random_instance


def uniform_space(n):
    return FiniteProbabilitySpace([f"s{i}" for i in range(n)], np.full(n, 1.0 / n))


TOL = 1e-10


class TestAnchors:
    def test_kl_two_state_closed_form(self):
        # -log(0.5 * (e^0 + e^-log 4)) = -log(0.625) = log(8/5)
        space = uniform_space(2)
        g = Partition.trivial(2)
        sol = oce_primal(space, g, builtin_generator("kl"), RandomVariable([0.0, math.log(4.0)]))
        assert abs(sol.value.values[0] - math.log(1.6)) < 1e-9

    def test_chi2_two_state_hand_value(self):
        # stationarity 0.5(1 + a/2) + 0.5(1 + (a-1)/2) = 1 gives a = 1/2,
        # value 1/2 - (0.5^2 + 0.5^2)/8 - 0 = 0.4375
        space = uniform_space(2)
        g = Partition.trivial(2)
        sol = oce_primal(space, g, builtin_generator("chi2"), RandomVariable([0.0, 1.0]))
        assert abs(sol.multiplier.values[0] - 0.5) < 1e-9
        assert abs(sol.value.values[0] - 0.4375) < 1e-9

    def test_constant_position_is_returned_unchanged(self):
        rng = np.random.default_rng(31)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            space, g, _ = random_instance(rng)
            c = float(rng.uniform(-3.0, 3.0))
            x = RandomVariable(np.full(space.num_states, c))
            sol = oce_primal(space, g, gen, x)
            np.testing.assert_allclose(sol.value.values, c, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sol.multiplier.values, c, rtol=0, atol=1e-9)

    def test_degenerate_single_state_atoms(self):
        space = FiniteProbabilitySpace(["a", "b"], [0.3, 0.7])
        g = Partition.discrete(2)
        x = RandomVariable([1.5, -2.5])
        for name in BUILTIN_NAMES:
            sol = oce_primal(space, g, builtin_generator(name), x)
            np.testing.assert_allclose(sol.value.values, x.values, rtol=0, atol=1e-9)


class TestSolverContract:
    def test_first_order_condition_at_reported_maximizer(self):
        rng = np.random.default_rng(32)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(10):
                space, g, x = random_instance(rng)
                sol = oce_primal(space, g, gen, x, tol=TOL)
                for i, idx in enumerate(g.index_arrays()):
                    w = space.probs[idx]
                    w = w / w.sum()
                    slope = float(
                        w @ np.asarray(gen.phi_star_prime(sol.multiplier.values[i] - x.values[idx]))
                    )
                    assert abs(slope - 1.0) <= 1e-8

    def test_residuals_bound_the_bracket(self):
        rng = np.random.default_rng(33)
        space, g, x = random_instance(rng)
        sol = oce_primal(space, g, builtin_generator("kl"), x, tol=1e-6)
        assert np.all(sol.residuals <= 1e-6)
        assert all(it <= 200 for it in sol.iterations)

    def test_maximizer_stays_in_the_position_range(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            space, g, x = random_instance(rng)
            sol = oce_primal(space, g, builtin_generator("power:3"), x)
            for i, idx in enumerate(g.index_arrays()):
                assert x.values[idx].min() - 1e-12 <= sol.multiplier.values[i]
                assert sol.multiplier.values[i] <= x.values[idx].max() + 1e-12

    def test_value_is_objective_at_maximizer(self):
        rng = np.random.default_rng(35)
        space, g, x = random_instance(rng)
        gen = builtin_generator("chi2")
        sol = oce_primal(space, g, gen, x)
        for i, idx in enumerate(g.index_arrays()):
            w = space.probs[idx]
            w = w / w.sum()
            a = sol.multiplier.values[i]
            obj = a - float(w @ np.asarray(gen.phi_star(a - x.values[idx])))
            assert sol.value.values[i] == obj

    def test_synthesized_conjugate_derivative(self):
        kl = builtin_generator("kl")
        stripped = DivergenceGenerator(
            name="kl-stripped",
            phi=kl.phi,
            phi_star=kl.phi_star,
            phi_star_prime=None,
        )
        rng = np.random.default_rng(36)
        instances = [random_instance(rng, max_states=6) for _ in range(5)]
        # a payoff range past 27.6, where the synthesized exp(m) passes T_CAP
        instances.append((uniform_space(2), Partition.trivial(2), RandomVariable([0.0, 100.0])))
        for space, g, x in instances:
            a = oce_primal(space, g, stripped, x, tol=1e-9)
            b = oce_primal(space, g, kl, x)
            np.testing.assert_allclose(a.value.values, b.value.values, rtol=0, atol=1e-6)

    def test_rejects_bad_tol(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        x = RandomVariable([0.0, 1.0])
        for bad in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                oce_primal(space, g, builtin_generator("kl"), x, tol=bad)


    def test_payoff_range_beyond_the_largest_float_names_its_atom(self):
        # the second atom's max - min overflows; the first is ordinary
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        x = RandomVariable([0.0, 1.0, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (oce_primal, oce_dual):
                with pytest.raises(ValueError, match="atom A1: the payoff range"):
                    solve(space, g, builtin_generator("kl"), x)


class TestValueMapShape:
    """The certainty equivalent is a niveloid in x; sampled directly here,
    exhaustively in the acceptance suite."""

    def test_translation_invariance(self):
        rng = np.random.default_rng(37)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng)
                c = ConditionalValue(rng.uniform(-3.0, 3.0, g.num_atoms))
                lhs = oce_primal(space, g, gen, x + embed(g, c)).value.values
                rhs = oce_primal(space, g, gen, x).value.values + c.values
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=2e-10)

    def test_monotonicity(self):
        rng = np.random.default_rng(38)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng)
                bigger = RandomVariable(x.values + rng.uniform(0.0, 2.0, space.num_states))
                lo = oce_primal(space, g, gen, x).value.values
                hi = oce_primal(space, g, gen, bigger).value.values
                assert np.all(lo <= hi + 2e-10)

    def test_concavity_in_g_measurable_mixtures(self):
        rng = np.random.default_rng(39)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng)
                y = RandomVariable(rng.uniform(-5.0, 5.0, space.num_states))
                lam = rng.uniform(0.0, 1.0, g.num_atoms)
                lam_states = embed(g, ConditionalValue(lam))
                mix = lam_states * x + (1.0 - lam_states) * y
                vx = oce_primal(space, g, gen, x).value.values
                vy = oce_primal(space, g, gen, y).value.values
                vm = oce_primal(space, g, gen, mix).value.values
                assert np.all(lam * vx + (1.0 - lam) * vy <= vm + 2e-10)

    def test_one_lipschitz_in_cond_sup_norm(self):
        rng = np.random.default_rng(40)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng)
                y = RandomVariable(rng.uniform(-5.0, 5.0, space.num_states))
                vx = oce_primal(space, g, gen, x).value.values
                vy = oce_primal(space, g, gen, y).value.values
                gap = cond_sup_norm(space, g, x - y).values
                assert np.all(np.abs(vx - vy) <= gap + 2e-10)

    def test_dominated_by_conditional_expectation(self):
        rng = np.random.default_rng(41)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng)
                val = oce_primal(space, g, gen, x).value.values
                mean = cond_expectation(space, g, x).values
                assert np.all(val <= mean + 1e-9)


class TestIPhi:
    def test_kl_anchor(self):
        # -E[phi_star(-x)] with x = log 2 gives -(e^{-log 2} - 1) = 1/2
        space = uniform_space(2)
        g = Partition.trivial(2)
        out = i_phi(space, g, builtin_generator("kl"), RandomVariable([math.log(2.0)] * 2))
        assert abs(out.values[0] - 0.5) < 1e-15

    def test_is_the_zero_shift_slice_of_the_objective(self):
        rng = np.random.default_rng(42)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            space, g, x = random_instance(rng)
            base = i_phi(space, g, gen, x).values
            for i, idx in enumerate(g.index_arrays()):
                w = space.probs[idx]
                w = w / w.sum()
                obj0 = 0.0 - float(w @ np.asarray(gen.phi_star(0.0 - x.values[idx])))
                assert abs(base[i] - obj0) <= 1e-13

    def test_never_exceeds_certainty_equivalent(self):
        rng = np.random.default_rng(43)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng)
                assert np.all(
                    i_phi(space, g, gen, x).values
                    <= oce_primal(space, g, gen, x).value.values + 1e-9
                )


class TestEntropicRisk:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            space, g, x = random_instance(rng)
            out = entropic_risk(space, g, x).values
            for i, idx in enumerate(g.index_arrays()):
                w = space.probs[idx]
                w = w / w.sum()
                direct = -math.log(float(w @ np.exp(-x.values[idx])))
                assert abs(out[i] - direct) <= 1e-12

    def test_no_overflow_for_large_positions(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        out = entropic_risk(space, g, RandomVariable([-800.0, 800.0]))
        assert np.isfinite(out.values[0])
        # the worst state dominates: value close to -800 - log(1/2) shifted
        assert abs(out.values[0] - (-800.0 + math.log(2.0))) < 1e-9

    def test_payoff_range_beyond_the_largest_float(self):
        space = uniform_space(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = entropic_risk(space, Partition.trivial(2), RandomVariable([1e308, -1e308]))
        assert out.values[0] == -1e308

    def test_agrees_with_kl_certainty_equivalent(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            space, g, x = random_instance(rng)
            a = entropic_risk(space, g, x).values
            b = oce_primal(space, g, builtin_generator("kl"), x).value.values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)
