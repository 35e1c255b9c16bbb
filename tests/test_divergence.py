"""Divergence generators, conjugate calculus, densities, and the
variational form of the conditional divergence."""

import math
from functools import partial

import numpy as np
import pytest

from condrisk import (
    ConditionalDensity,
    DivergenceGenerator,
    EquivalentConditionalMeasure,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    UnboundedObjective,
    builtin_generator,
    check_density,
    check_measure,
    cond_divergence,
    cond_expectation,
    cond_expectation_under,
    density_to_measure,
    donsker_varadhan_value,
    dv_optimal_argument,
    measure_to_density,
    numeric_conjugate,
    oce_dual,
    oce_primal,
    validate_generator,
)
from condrisk.divergence import _conjugate
from conftest import BUILTIN_NAMES, random_density, random_instance, random_measure


def kl_phi(t):
    t = np.asarray(t, dtype=float)
    from scipy.special import xlogy

    return xlogy(t, t) - t + 1.0


# ---------------------------------------------------------------------------
# built-in generators and their conjugates


class TestBuiltinGenerators:
    def test_kl_values(self):
        gen = builtin_generator("kl")
        assert float(gen.phi(1.0)) == 0.0
        assert float(gen.phi(0.0)) == 1.0
        assert abs(float(gen.phi(2.0)) - (2.0 * math.log(2.0) - 1.0)) < 1e-15
        assert abs(float(gen.phi_star(1.0)) - (math.e - 1.0)) < 1e-15
        assert float(gen.phi_star(0.0)) == 0.0
        assert float(gen.phi_star_prime(0.0)) == 1.0
        assert abs(float(gen.phi_prime(math.e)) - 1.0) < 1e-15

    def test_kl_phi_matches_xlogy_oracle(self):
        phi = builtin_generator("kl").phi
        rng = np.random.default_rng(0)
        t = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300], rng.uniform(0.0, 10.0, 1000)])
        np.testing.assert_allclose(phi(t), kl_phi(t), rtol=1e-15, atol=0.0)
        assert phi(0.0) == 1.0
        assert phi(1.0) == 0.0

    def test_chi2_values(self):
        gen = builtin_generator("chi2")
        assert float(gen.phi(1.0)) == 0.0
        assert float(gen.phi(2.0)) == 1.0
        assert float(gen.phi_star(1.0)) == 1.25
        # below the kink the conjugate is flat at -phi(0) = -1
        assert float(gen.phi_star(-2.0)) == -1.0
        assert float(gen.phi_star(-5.0)) == -1.0
        assert float(gen.phi_star_prime(-2.0)) == 0.0
        assert float(gen.phi_star_prime(-5.0)) == 0.0

    def test_power_two_is_half_chi2(self):
        p2 = builtin_generator("power:2")
        chi2 = builtin_generator("chi2")
        t = np.linspace(0.0, 5.0, 23)
        np.testing.assert_allclose(p2.phi(t), 0.5 * np.asarray(chi2.phi(t)), atol=1e-14)

    def test_power_three_values(self):
        gen = builtin_generator("power:3")
        assert abs(float(gen.phi_star(4.0)) - 26.0 / 3.0) < 1e-12
        assert abs(float(gen.phi_star(-0.5)) - (-1.0 / 3.0)) < 1e-15
        assert abs(float(gen.phi_star(-2.0)) - (-1.0 / 3.0)) < 1e-15
        assert float(gen.phi(1.0)) == 0.0

    def test_name_parsing(self):
        assert builtin_generator(" KL ").name == "kl"
        assert builtin_generator("power:1.5").name == "power:1.5"
        with pytest.raises(ValueError, match="valid generators"):
            builtin_generator("hellinger")
        with pytest.raises(ValueError, match="alpha > 1"):
            builtin_generator("power:1")
        with pytest.raises(ValueError, match="power:<alpha>"):
            builtin_generator("power:abc")

    def test_vectorized_evaluation(self):
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            m = np.linspace(-3.0, 3.0, 7)
            assert np.asarray(gen.phi_star(m)).shape == m.shape
            assert np.asarray(gen.phi_star_prime(m)).shape == m.shape


class TestNumericConjugate:
    def test_kl_anchor(self):
        gen = builtin_generator("kl")
        assert abs(numeric_conjugate(gen, 1.0) - (math.e - 1.0)) < 1e-9

    def test_chi2_saturates_below_kink(self):
        gen = builtin_generator("chi2")
        assert abs(numeric_conjugate(gen, -5.0) - (-1.0)) < 1e-9

    def test_matches_closed_forms_on_grid(self):
        # module-scale version of the exhaustive acceptance sweep
        m_grid = np.linspace(-10.0, 10.0, 101)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for m in m_grid:
                direct = numeric_conjugate(gen, float(m))
                closed = float(gen.phi_star(float(m)))
                assert abs(direct - closed) <= 1e-8, (name, m, direct, closed)

    def test_linear_growth_is_flagged_unbounded(self):
        gen = DivergenceGenerator("linear", lambda t: np.asarray(t, dtype=float) - 1.0)
        with pytest.raises(UnboundedObjective):
            numeric_conjugate(gen, 2.0)


class TestGeneratorFromPhi:
    def test_synthesized_conjugate_matches_analytic(self):
        gen = DivergenceGenerator("kl-numeric", kl_phi, phi_prime=np.log)
        for m in np.linspace(-5.0, 5.0, 21):
            assert abs(float(gen.phi_star(m)) - math.expm1(m)) <= 1e-8

    def test_synthesized_derivative_is_the_argmax(self):
        gen = DivergenceGenerator("kl-numeric", kl_phi)
        for m in np.linspace(-3.0, 3.0, 13):
            t_star = float(gen.phi_star_prime(m))
            assert abs(t_star - math.exp(m)) <= 1e-5 * (1.0 + math.exp(m))

    def test_array_arguments(self):
        gen = DivergenceGenerator("kl-numeric", kl_phi)
        m = np.array([-1.0, 0.0, 1.0])
        out = np.asarray(gen.phi_star(m))
        np.testing.assert_allclose(out, np.expm1(m), atol=1e-8)

    @pytest.mark.parametrize("phi_prime", [None, np.log])
    def test_synthesized_conjugate_is_the_explicit_direct_maximization(self, phi_prime):
        # DivergenceGenerator(name, phi) against phi_star passed explicitly as
        # the direct maximization: bit-identical conjugates and solutions
        phi = builtin_generator("kl").phi
        built = DivergenceGenerator("kl-numeric", phi, phi_prime=phi_prime)
        explicit = DivergenceGenerator(
            "kl-numeric", phi, phi_star=partial(_conjugate, phi), phi_prime=phi_prime
        )
        m = np.linspace(-4.0, 4.0, 17)
        for f in ("phi_star", "phi_star_prime"):
            np.testing.assert_array_equal(getattr(built, f)(m), getattr(explicit, f)(m))
            assert getattr(built, f)(1.5) == getattr(explicit, f)(1.5)
        space, g, x = random_instance(np.random.default_rng(41), max_states=8)
        for solve in (oce_primal, oce_dual):
            a, b = solve(space, g, built, x), solve(space, g, explicit, x)
            for f in ("value", "optimal_a" if solve is oce_primal else "multiplier"):
                np.testing.assert_array_equal(getattr(a, f).values, getattr(b, f).values)
            np.testing.assert_array_equal(a.residuals, b.residuals)
            assert a.iterations == b.iterations
        assert validate_generator(built) is None and validate_generator(explicit) is None

    def test_synthesized_conjugate_flags_linear_growth_as_the_explicit_one(self):
        def phi(t):
            return np.asarray(t, dtype=float) - 1.0

        messages = []
        for gen in (DivergenceGenerator("linear", phi),
                    DivergenceGenerator("linear", phi, phi_star=partial(_conjugate, phi))):
            with pytest.raises(UnboundedObjective) as err:
                gen.phi_star(2.0)
            with pytest.raises(ValueError, match="phi must be nonnegative") as invalid:
                validate_generator(gen)
            messages.append((str(err.value), str(invalid.value)))
        assert messages[0] == messages[1]


class TestValidateGenerator:
    def test_builtins_pass(self):
        for name in BUILTIN_NAMES + ("power:1.5",):
            validate_generator(builtin_generator(name))

    def test_numeric_wrapper_passes(self):
        kl = builtin_generator("kl")
        # phi_star' omitted: synthesized from phi as the argmax of m t - phi(t)
        stripped = DivergenceGenerator(name="kl-stripped", phi=kl.phi, phi_star=kl.phi_star)
        for gen in (DivergenceGenerator("kl-numeric", kl_phi), stripped):
            validate_generator(gen)

    def test_rejects_nonfinite_phi(self):
        def phi(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 0.0, (t - 1.0) ** 2, np.inf)

        with pytest.raises(ValueError, match=r"^pole: phi must be finite on \[0, inf\), got non-finite values$"):
            validate_generator(DivergenceGenerator("pole", phi))

    def test_rejects_negative_phi(self):
        bad = DivergenceGenerator("cubic", lambda t: (np.asarray(t, dtype=float) - 1.0) ** 3)
        with pytest.raises(ValueError, match="^cubic: phi must be nonnegative$"):
            validate_generator(bad)

    def test_rejects_conjugate_off_zero_at_the_origin(self):
        # within CONJ_TOL of the direct maximization, but phi_star(0) != 0
        kl = builtin_generator("kl")
        bad = DivergenceGenerator("lifted", kl.phi, phi_star=lambda m: np.expm1(m) + 5e-9)
        with pytest.raises(ValueError, match=r"^lifted: phi_star\(0\) must be 0$"):
            validate_generator(bad)

    def test_rejects_wrong_normalization(self):
        bad = DivergenceGenerator("shifted", lambda t: (np.asarray(t) - 1.0) ** 2 + 0.1)
        with pytest.raises(ValueError, match=r"phi\(1\) must be 0"):
            validate_generator(bad)

    def test_rejects_nonconvex(self):
        bad = DivergenceGenerator("capped", lambda t: np.minimum((np.asarray(t) - 1.0) ** 2, 1.0))
        with pytest.raises(ValueError, match="not convex"):
            validate_generator(bad)

    def test_rejects_merely_convex(self):
        bad = DivergenceGenerator("abs", lambda t: np.abs(np.asarray(t) - 1.0))
        with pytest.raises(ValueError, match="strictly convex"):
            validate_generator(bad)

    def test_rejects_sublinear_growth(self):
        bad = DivergenceGenerator("hellinger", lambda t: (np.sqrt(np.asarray(t)) - 1.0) ** 2)
        with pytest.raises(ValueError, match="at most linear"):
            validate_generator(bad)

    def test_rejects_mismatched_conjugate(self):
        kl = builtin_generator("kl")
        chi2 = builtin_generator("chi2")
        frankenstein = DivergenceGenerator(
            name="mismatch",
            phi=kl.phi,
            phi_star=chi2.phi_star,
            phi_star_prime=chi2.phi_star_prime,
        )
        with pytest.raises(ValueError, match="disagrees with direct maximization"):
            validate_generator(frankenstein)

    def test_rejects_wrong_slope_at_origin(self):
        kl = builtin_generator("kl")
        bad = DivergenceGenerator(
            name="steep",
            phi=kl.phi,
            phi_star=kl.phi_star,
            phi_star_prime=lambda m: 2.0 * np.exp(np.asarray(m, dtype=float)),
        )
        with pytest.raises(ValueError, match="slope 1 at the origin"):
            validate_generator(bad)

    def test_rejects_decreasing_conjugate_derivative(self):
        kl = builtin_generator("kl")
        bad = DivergenceGenerator(
            name="humped",
            phi=kl.phi,
            phi_star=kl.phi_star,
            phi_star_prime=lambda m: np.exp(-np.abs(np.asarray(m, dtype=float))),
        )
        with pytest.raises(ValueError, match="nonnegative and nondecreasing"):
            validate_generator(bad)


# ---------------------------------------------------------------------------
# densities and measures


def uniform_space(n):
    return FiniteProbabilitySpace([f"s{i}" for i in range(n)], np.full(n, 1.0 / n))


class TestDensitiesAndMeasures:
    def test_measure_rejects_negative(self):
        with pytest.raises(ValueError, match="^measure weights must be nonnegative$"):
            EquivalentConditionalMeasure([1.5, -0.5])

    def test_reprs_list_the_entries(self):
        assert repr(ConditionalDensity([1.0, 0.5])) == "ConditionalDensity([1.0, 0.5])"
        assert repr(EquivalentConditionalMeasure([0.25, 0.75])) == (
            "EquivalentConditionalMeasure([0.25, 0.75])"
        )

    def test_length_mismatches(self):
        space, g = uniform_space(3), Partition.trivial(3)
        x = RandomVariable([1.0, 2.0, 3.0])
        nu = EquivalentConditionalMeasure([0.5, 0.5])
        with pytest.raises(ValueError, match="^density has length 2, expected 3$"):
            check_density(space, g, ConditionalDensity([1.0, 1.0]))
        with pytest.raises(ValueError, match="^measure has length 2, expected 3$"):
            check_measure(space, g, nu)
        with pytest.raises(ValueError, match="^measure has length 2, expected 3$"):
            cond_expectation_under(space, g, nu, x)

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConditionalDensity([1.5, -0.5])

    def test_measure_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EquivalentConditionalMeasure([0.5, 0.6])

    def test_check_density_reports_offending_atom(self):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        y = ConditionalDensity([2.0, 0.5, 1.0, 1.0])
        with pytest.raises(ValueError, match="atom A0"):
            check_density(space, g, y)
        check_density(space, g, ConditionalDensity([2.0, 0.0, 1.0, 1.0]))

    def test_check_measure_reports_offending_atom(self):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        nu = EquivalentConditionalMeasure([0.3, 0.3, 0.2, 0.2])
        with pytest.raises(ValueError, match="atom A0"):
            check_measure(space, g, nu)

    def test_round_trips_are_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            space, g, _ = random_instance(rng)
            y = random_density(rng, space, g)
            back = measure_to_density(space, g, density_to_measure(space, g, y))
            np.testing.assert_allclose(back.values, y.values, rtol=1e-12, atol=1e-12)
            nu = random_measure(rng, space, g)
            back_nu = density_to_measure(space, g, measure_to_density(space, g, nu))
            np.testing.assert_allclose(back_nu.weights, nu.weights, rtol=1e-12, atol=1e-12)

    def test_base_measure_has_unit_density(self):
        space = FiniteProbabilitySpace(["a", "b", "c"], [0.2, 0.3, 0.5])
        g = Partition([[0, 1], [2]])
        y = measure_to_density(space, g, EquivalentConditionalMeasure(space.probs))
        np.testing.assert_allclose(y.values, 1.0, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# conditional divergence and expectations under a new measure


class TestCondDivergence:
    def test_kl_anchor(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        nu = EquivalentConditionalMeasure([0.8, 0.2])
        out = cond_divergence(space, g, builtin_generator("kl"), nu)
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert abs(out.values[0] - expected) < 1e-14

    def test_chi2_anchor(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        nu = EquivalentConditionalMeasure([0.8, 0.2])
        out = cond_divergence(space, g, builtin_generator("chi2"), nu)
        # classic chi-square: sum (nu - mu)^2 / mu = 2 * 0.09 / 0.5
        assert abs(out.values[0] - 0.36) < 1e-14

    def test_zero_at_base_measure(self):
        rng = np.random.default_rng(22)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, _ = random_instance(rng)
                nu = EquivalentConditionalMeasure(space.probs)
                out = cond_divergence(space, g, gen, nu)
                np.testing.assert_allclose(out.values, 0.0, atol=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(10):
                space, g, _ = random_instance(rng)
                nu = random_measure(rng, space, g)
                assert np.all(cond_divergence(space, g, gen, nu).values >= -1e-13)

    def test_power_two_is_half_chi2(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            space, g, _ = random_instance(rng)
            nu = random_measure(rng, space, g)
            d2 = cond_divergence(space, g, builtin_generator("power:2"), nu).values
            dc = cond_divergence(space, g, builtin_generator("chi2"), nu).values
            np.testing.assert_allclose(d2, 0.5 * dc, rtol=1e-12, atol=1e-14)

    def test_per_atom_independence(self):
        # tilting one atom leaves the divergence on the other atom at zero
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        nu = EquivalentConditionalMeasure([0.4, 0.1, 0.25, 0.25])
        out = cond_divergence(space, g, builtin_generator("kl"), nu)
        assert out.values[0] > 0.1
        assert abs(out.values[1]) < 1e-14

    def test_rejects_marginal_mismatch(self):
        space = uniform_space(2)
        g = Partition.discrete(2)
        nu = EquivalentConditionalMeasure([0.8, 0.2])
        with pytest.raises(ValueError, match="atom A0"):
            cond_divergence(space, g, builtin_generator("kl"), nu)


class TestCondExpectationUnder:
    def test_anchor(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        nu = EquivalentConditionalMeasure([0.8, 0.2])
        out = cond_expectation_under(space, g, nu, RandomVariable([1.0, 0.0]))
        assert abs(out.values[0] - 0.8) < 1e-15

    def test_base_measure_recovers_cond_expectation(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            space, g, x = random_instance(rng)
            nu = EquivalentConditionalMeasure(space.probs)
            a = cond_expectation_under(space, g, nu, x)
            b = cond_expectation(space, g, x)
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)

    def test_change_of_measure_identity(self):
        # E_nu[x | G] equals E_mu[x * (dnu/dmu) | G]; module-scale version of
        # the exhaustive acceptance check
        rng = np.random.default_rng(26)
        for _ in range(50):
            space, g, x = random_instance(rng)
            nu = random_measure(rng, space, g)
            y = measure_to_density(space, g, nu)
            lhs = cond_expectation_under(space, g, nu, x).values
            rhs = cond_expectation(space, g, RandomVariable(x.values * y.values)).values
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the variational (Donsker-Varadhan style) form


class TestDonskerVaradhan:
    def test_never_exceeds_divergence(self):
        rng = np.random.default_rng(27)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, _ = random_instance(rng, max_states=8)
                nu = random_measure(rng, space, g)
                div = cond_divergence(space, g, gen, nu).values
                for _ in range(20):
                    z = RandomVariable(rng.uniform(-4.0, 4.0, space.num_states))
                    val = donsker_varadhan_value(space, g, gen, nu, z).values
                    assert np.all(val <= div + 1e-10)

    def test_attained_at_constructed_argument(self):
        rng = np.random.default_rng(28)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(10):
                space, g, _ = random_instance(rng, max_states=8)
                nu = random_measure(rng, space, g)
                z_star = dv_optimal_argument(space, g, gen, nu)
                div = cond_divergence(space, g, gen, nu).values
                val = donsker_varadhan_value(space, g, gen, nu, z_star).values
                np.testing.assert_allclose(val, div, rtol=0, atol=1e-9)

    def test_kl_argument_is_log_density(self):
        rng = np.random.default_rng(29)
        space, g, _ = random_instance(rng)
        nu = random_measure(rng, space, g)
        y = measure_to_density(space, g, nu).values
        z = dv_optimal_argument(space, g, builtin_generator("kl"), nu).values
        expected = np.where(y == 1.0, 0.0, np.log(y))
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-14)

    def test_zero_argument_at_base_measure(self):
        space = uniform_space(3)
        g = Partition.trivial(3)
        nu = EquivalentConditionalMeasure(space.probs)
        z = dv_optimal_argument(space, g, builtin_generator("chi2"), nu)
        np.testing.assert_array_equal(z.values, 0.0)

    def test_requires_phi_prime(self):
        gen = DivergenceGenerator("kl-numeric", kl_phi)  # no phi_prime supplied
        space = uniform_space(2)
        g = Partition.trivial(2)
        nu = EquivalentConditionalMeasure([0.6, 0.4])
        with pytest.raises(ValueError, match="no phi_prime"):
            dv_optimal_argument(space, g, gen, nu)


class TestFenchelYoung:
    def test_inequality(self):
        rng = np.random.default_rng(30)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(200):
                t = float(rng.uniform(0.0, 10.0))
                m = float(rng.uniform(-10.0, 10.0))
                assert float(gen.phi(t)) + float(gen.phi_star(m)) >= m * t - 1e-10

    def test_equality_at_the_touching_slope(self):
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for t in np.linspace(0.1, 10.0, 34):
                m = float(gen.phi_prime(t))
                lhs = float(gen.phi(t)) + float(gen.phi_star(m))
                assert abs(lhs - m * t) <= 1e-9 * (1.0 + abs(m * t))
