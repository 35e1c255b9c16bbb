"""Translation completion, its brute-force oracle, the duality penalty,
and the axiom sampler."""

import logging
import math

import numpy as np
import pytest

from condrisk import (
    ConditionalDensity,
    ConditionalOperator,
    ConditionalValue,
    FiniteProbabilitySpace,
    NotDominatedError,
    Partition,
    RandomVariable,
    atom_min_operator,
    builtin_generator,
    check_niveloid_axioms,
    cond_divergence,
    cond_expectation,
    density_to_measure,
    embed,
    entropic_operator,
    entropic_risk,
    expectation_operator,
    i_phi,
    iphi_operator,
    niveloidify,
    oce_primal,
    penalty,
    squared_expectation_operator,
)
from condrisk.niveloid import _eval
from condrisk.probspace import BLOCK_STATES
from conftest import BUILTIN_NAMES, random_density, random_instance
from oracles import niveloidify_bruteforce


def uniform_space(n):
    return FiniteProbabilitySpace([f"s{i}" for i in range(n)], np.full(n, 1.0 / n))


def tiny_instance(rng, max_states=3, lo=-2.0, hi=2.0):
    """Instance small enough for the brute-force sweep, with at most 2 atoms."""
    n = int(rng.integers(2, max_states + 1))
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probs)
    if n == 2 or rng.integers(0, 2) == 0:
        g = Partition.trivial(n)
    else:
        g = Partition([[0, 2], [1]])
    return space, g, RandomVariable(rng.uniform(lo, hi, n))


def row_by_row(fn):
    """An ``evaluate`` from a map of one position to its ConditionalValue:
    the operator contract's (m, n) positions in, (m, k) values out."""
    return lambda z: np.array([fn(RandomVariable(row)).values for row in z])


def probabilities(rng, n, low=0.1, high=1.0):
    p = rng.uniform(low, high, n)
    return p / p.sum()


def counted(op):
    """``op`` with a count of its ``evaluate`` calls, read as ``calls[0]``."""
    calls = [0]

    def evaluate(z):
        calls[0] += 1
        return op.evaluate(z)

    return ConditionalOperator(evaluate, op.monotone, op.concave, op.name), calls


def relative_entropy(space, g, y):
    """E[y log y | A] per atom, for a strictly positive density array y."""
    return cond_expectation(space, g, RandomVariable(y * np.log(y))).values


def at(op, x):
    """The operator's values at one position, as a one-row batch."""
    return op.evaluate(x.values[None, :])[0]


def scaled_expectation_operator(space, g, factor):
    """Monotone concave but translation-amplifying/-damping; its completion
    diverges, which makes it the stock not-dominated example."""
    return ConditionalOperator(
        evaluate=row_by_row(lambda z: ConditionalValue(factor * cond_expectation(space, g, z).values)),
        monotone=True,
        concave=True,
        name=f"expectation-x{factor:g}",
    )


class TestNiveloidify:
    def test_fixed_points(self):
        # operators that already are niveloids are left unchanged
        rng = np.random.default_rng(60)
        for make in (expectation_operator, entropic_operator, atom_min_operator):
            for _ in range(5):
                space, g, x = random_instance(rng, max_states=8)
                op = make(space, g)
                out = niveloidify(space, g, op, x)
                np.testing.assert_allclose(out.values, at(op, x), rtol=0, atol=1e-8)

    def test_completion_of_the_base_functional_is_the_certainty_equivalent(self):
        rng = np.random.default_rng(61)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng, max_states=8)
                op = iphi_operator(space, g, gen)
                out = niveloidify(space, g, op, x)
                ref = oce_primal(space, g, gen, x).value
                np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=2e-8)

    def test_result_is_translation_invariant(self):
        rng = np.random.default_rng(62)
        for _ in range(5):
            space, g, x = random_instance(rng, max_states=8)
            op = iphi_operator(space, g, builtin_generator("chi2"))
            c = ConditionalValue(rng.uniform(-2.0, 2.0, g.num_atoms))
            lhs = niveloidify(space, g, op, x + embed(g, c)).values
            rhs = niveloidify(space, g, op, x).values + c.values
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-8)

    def test_dominates_the_operator(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            space, g, x = random_instance(rng, max_states=8)
            op = iphi_operator(space, g, builtin_generator("kl"))
            out = niveloidify(space, g, op, x).values
            assert np.all(out >= at(op, x) - 1e-8)

    def test_minimality_on_sampled_decompositions(self):
        # any feasible split x >= a + y forces a + op(y) <= the completion,
        # so no smaller niveloid can dominate op
        rng = np.random.default_rng(64)
        for _ in range(5):
            space, g, x = random_instance(rng, max_states=8)
            op = iphi_operator(space, g, builtin_generator("power:2"))
            out = niveloidify(space, g, op, x).values
            for _ in range(20):
                a = ConditionalValue(rng.uniform(-2.0, 2.0, g.num_atoms))
                slack = rng.uniform(0.0, 1.0, space.num_states)
                y = RandomVariable(x.values - embed(g, a).values - slack)
                cand = a.values + at(op, y)
                assert np.all(cand <= out + 1e-8)

    def test_plateau_objective_converges(self):
        # op(y) = min(E[y|G], 0) completes to exactly E[x|G], attained on a
        # flat half-line of shifts; the bracket logic must not wander off it
        rng = np.random.default_rng(65)
        for _ in range(5):
            space, g, x = random_instance(rng, max_states=8)

            def capped(z):
                return ConditionalValue(np.minimum(cond_expectation(space, g, z).values, 0.0))

            op = ConditionalOperator(
                evaluate=row_by_row(capped), monotone=True, concave=True, name="capped"
            )
            out = niveloidify(space, g, op, x)
            np.testing.assert_allclose(
                out.values, cond_expectation(space, g, x).values, rtol=0, atol=1e-8
            )

    def test_requires_shape_flags(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        op = squared_expectation_operator(space, g)
        with pytest.raises(ValueError, match="monotone and concave"):
            niveloidify(space, g, op, RandomVariable([0.0, 1.0]))

    def test_rejects_misbehaved_evaluate(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        # each row back unchanged: one entry per state, not per atom
        op = ConditionalOperator(evaluate=lambda z: z, monotone=True, concave=True, name="echo")
        with pytest.raises(ValueError, match="one entry per atom"):
            niveloidify(space, g, op, RandomVariable([0.0, 1.0]))

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_undominated_operator_raises(self, factor):
        space = uniform_space(2)
        g = Partition.trivial(2)
        op = scaled_expectation_operator(space, g, factor)
        with pytest.raises(NotDominatedError) as err:
            niveloidify(space, g, op, RandomVariable([0.3, -0.7]))
        assert err.value.atoms == (0,)

    def test_undominated_on_one_atom_only(self):
        # amplify shifts on atom 0 only; atom 1 stays an honest expectation
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])

        def lopsided(z):
            base = cond_expectation(space, g, z).values
            return ConditionalValue([2.0 * base[0], base[1]])

        op = ConditionalOperator(
            evaluate=row_by_row(lopsided), monotone=True, concave=True, name="lopsided"
        )
        with pytest.raises(NotDominatedError) as err:
            niveloidify(space, g, op, RandomVariable([0.0, 1.0, -1.0, 2.0]))
        assert err.value.atoms == (0,)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tol(self, tol):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        op = iphi_operator(space, g, builtin_generator("kl"))
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            niveloidify(space, g, op, RandomVariable([0.0, 1.0, 2.0, 5.0]), tol=tol)

    def test_operator_calls_do_not_grow_with_the_atoms(self):
        # the atoms are searched together, so 50 atoms of the same shape as 5
        # take the same operator calls, and give the same values; a call is
        # one batch of positions, whatever its rows
        sizes = [2, 3, 1, 4, 2]
        rng = np.random.default_rng(72)
        p5, x5 = rng.uniform(0.5, 1.5, sum(sizes)), rng.uniform(-3.0, 3.0, sum(sizes))
        calls = {}
        for copies in (1, 10):
            n = copies * sum(sizes)
            space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], np.tile(p5, copies) / (copies * p5.sum()))
            g = Partition(np.split(np.arange(n), np.cumsum(np.tile(sizes, copies))[:-1]))
            inner = iphi_operator(space, g, builtin_generator("chi2"))
            count = [0]

            def counted(z, inner=inner, count=count):
                count[0] += 1
                return np.array([inner.evaluate(row[None, :])[0] for row in z])

            op = ConditionalOperator(evaluate=counted, monotone=True, concave=True, name="counted")
            out = niveloidify(space, g, op, RandomVariable(np.tile(x5, copies))).values
            calls[copies] = count[0]
            np.testing.assert_allclose(out, np.tile(out[: len(sizes)], copies), rtol=0, atol=1e-12)
        assert calls[1] == calls[10]


def contract_partitions(rng):
    """One block of several atoms, a one-atom block, and more than
    BLOCK_STATES states in several blocks (one of them a single large atom)."""
    sizes = np.concatenate([rng.integers(1, 13, 3000), [BLOCK_STATES + 1], rng.integers(1, 13, 50)])
    out = []
    for sizes in ([3, 4, 1, 4], [7], sizes):
        n = int(np.sum(sizes))
        probs = rng.uniform(0.5, 1.5, n)
        space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probs / probs.sum())
        out.append((space, Partition(np.split(rng.permutation(n), np.cumsum(sizes)[:-1]))))
    return out


class TestBatchContract:
    """``evaluate`` maps (m, n) positions to (m, k) values, row by row."""

    @pytest.mark.parametrize("case", range(3))
    def test_rows_of_a_batch_are_one_row_calls(self, case):
        rng = np.random.default_rng(90)
        space, g = contract_partitions(rng)[case]
        z = rng.uniform(-3.0, 3.0, (5, space.num_states))
        ops = [make(space, g) for make in (
            expectation_operator, entropic_operator, atom_min_operator, squared_expectation_operator,
        )] + [iphi_operator(space, g, builtin_generator(name)) for name in BUILTIN_NAMES]
        for op in ops:
            batch = op.evaluate(z)
            assert batch.shape == (5, g.num_atoms), op.name
            for i in range(5):
                np.testing.assert_array_equal(batch[i], op.evaluate(z[i : i + 1])[0], err_msg=op.name)
        # and the one-row case is the public function's arithmetic
        x = RandomVariable(z[0])
        np.testing.assert_array_equal(at(ops[0], x), cond_expectation(space, g, x).values)
        np.testing.assert_array_equal(at(ops[1], x), entropic_risk(space, g, x).values)
        np.testing.assert_array_equal(at(ops[3], x), cond_expectation(space, g, x).values ** 2)
        gen = builtin_generator(BUILTIN_NAMES[0])
        np.testing.assert_array_equal(at(ops[4], x), i_phi(space, g, gen, x).values)

    def test_eval_checks_the_shape_and_finiteness_of_every_call(self):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        z = np.zeros((3, 4))
        wide = ConditionalOperator(evaluate=lambda z: np.zeros((len(z), 3)), name="wide")
        with pytest.raises(ValueError, match="'wide' must return an array with one entry per atom"):
            _eval(wide, g, z)
        nan = ConditionalOperator(evaluate=lambda z: np.where(z[:, :2] > 0, np.nan, 0.0), name="nan")
        with pytest.raises(ValueError, match="'nan' must return finite values"):
            _eval(nan, g, z + np.array([[0.0], [0.0], [1.0]]))
        np.testing.assert_array_equal(_eval(nan, g, z), np.zeros((3, 2)))
        # a single position is a batch of one, and comes back as one row of values
        assert _eval(expectation_operator(space, g), g, np.arange(4.0)).shape == (2,)


class TestBruteForce:
    def test_matches_the_solver_within_grid_resolution(self):
        rng = np.random.default_rng(66)
        for _ in range(6):
            space, g, x = tiny_instance(rng)
            op = iphi_operator(space, g, builtin_generator("kl"))
            grid = 9 if space.num_states == 2 else 5
            bf = niveloidify_bruteforce(space, g, op, x, grid=grid).values
            niv = niveloidify(space, g, op, x).values
            for i, idx in enumerate(g.index_arrays()):
                span = x.values[idx].max() - x.values[idx].min() + 2.0
                assert abs(bf[i] - niv[i]) <= span / (grid - 1)

    def test_orderings_agree(self):
        rng = np.random.default_rng(67)
        for _ in range(6):
            space, g, x = tiny_instance(rng)
            op = entropic_operator(space, g)
            grid = 9 if space.num_states == 2 else 5
            a = niveloidify_bruteforce(space, g, op, x, grid=grid, order="y_then_a").values
            b = niveloidify_bruteforce(space, g, op, x, grid=grid, order="a_then_y").values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_never_exceeds_the_solver(self):
        # every grid point is a feasible decomposition, so the sweep is a
        # lower bound on the true supremum
        rng = np.random.default_rng(68)
        for _ in range(6):
            space, g, x = tiny_instance(rng)
            op = iphi_operator(space, g, builtin_generator("chi2"))
            grid = 9 if space.num_states == 2 else 5
            bf = niveloidify_bruteforce(space, g, op, x, grid=grid).values
            niv = niveloidify(space, g, op, x).values
            assert np.all(bf <= niv + 1e-8)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_undominated_operator_is_flagged(self, factor):
        space = uniform_space(2)
        g = Partition.trivial(2)
        op = scaled_expectation_operator(space, g, factor)
        with pytest.raises(NotDominatedError) as err:
            niveloidify_bruteforce(space, g, op, RandomVariable([0.3, -0.7]))
        assert err.value.atoms == (0,)

    def test_input_validation(self):
        space = uniform_space(4)
        g = Partition.trivial(4)
        op = entropic_operator(space, g)
        x = RandomVariable([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at most 3 states"):
            niveloidify_bruteforce(space, g, op, x)
        space2 = uniform_space(2)
        g2 = Partition.trivial(2)
        op2 = entropic_operator(space2, g2)
        x2 = RandomVariable([0.0, 1.0])
        with pytest.raises(ValueError, match="at least 3 points"):
            niveloidify_bruteforce(space2, g2, op2, x2, grid=2)
        with pytest.raises(ValueError, match="order"):
            niveloidify_bruteforce(space2, g2, op2, x2, order="sideways")


class TestPenalty:
    def test_base_density_is_free_for_translation_invariant_operators(self):
        space = FiniteProbabilitySpace(["a", "b", "c"], [0.3, 0.3, 0.4])
        g = Partition([[0, 1], [2]])
        ones = ConditionalDensity(np.ones(3))
        for make in (expectation_operator, entropic_operator):
            out = penalty(space, g, make(space, g), ones)
            np.testing.assert_allclose(out.values, 0.0, rtol=0, atol=1e-6)

    def test_unpriced_density_saturates_huge(self):
        # a shifted expectation prices only y = 1; anything else is +inf
        space = uniform_space(2)
        g = Partition.trivial(2)
        y = ConditionalDensity([1.5, 0.5])
        out = penalty(space, g, expectation_operator(space, g), y)
        assert np.isinf(out.values[0]) and out.values[0] > 0

    def test_only_the_penalty_admits_inf(self):
        # +inf is the penalty's own reading of divergence; an operator whose
        # finite value overflows is refused, as is arithmetic that keeps inf
        space = uniform_space(2)
        g = Partition.trivial(2)
        huge = RandomVariable([1e200, 1e200])
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            _eval(squared_expectation_operator(space, g), g, huge.values)
        with pytest.raises(ValueError, match="finite"):
            ConditionalValue([np.inf])
        out = penalty(space, g, expectation_operator(space, g), ConditionalDensity([1.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            out + 1.0
        np.testing.assert_array_equal(ConditionalValue.unbounded([np.inf, 1.0]).values, [np.inf, 1.0])
        with pytest.raises(ValueError, match="finite or \\+inf"):
            ConditionalValue.unbounded([-np.inf])

    def test_base_functional_penalty_is_the_divergence(self):
        # the objective is coordinatewise separable for the base functional,
        # so the ascent is exact and recovers the conditional divergence
        rng = np.random.default_rng(69)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(3):
                space, g, x = tiny_instance(rng)
                yd = random_density(rng, space, g, low=0.2, high=2.5)
                nu = density_to_measure(space, g, yd)
                out = penalty(space, g, iphi_operator(space, g, gen), yd)
                ref = cond_divergence(space, g, gen, nu)
                np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=1e-6)

    def test_entropic_penalty_is_the_relative_entropy(self):
        rng = np.random.default_rng(70)
        for _ in range(3):
            space, g, x = tiny_instance(rng)
            yd = random_density(rng, space, g, low=0.2, high=2.5)
            nu = density_to_measure(space, g, yd)
            out = penalty(space, g, entropic_operator(space, g), yd)
            ref = cond_divergence(space, g, builtin_generator("kl"), nu)
            np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=1e-6)

    def test_validates_inputs(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        op = expectation_operator(space, g)
        with pytest.raises(ValueError, match="atom A0"):
            penalty(space, g, op, ConditionalDensity([2.0, 1.5]))

    def test_unpriced_atom_beside_a_priced_one(self):
        # an expectation on atom 0 prices only y = 1 there, the entropic risk
        # on atom 1 prices y by its relative entropy; the atoms climb together
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])

        def mixed(z):
            return ConditionalValue(
                [cond_expectation(space, g, z).values[0], at(entropic_operator(space, g), z)[1]]
            )

        op = ConditionalOperator(evaluate=row_by_row(mixed), monotone=True, concave=True, name="mixed")
        y = ConditionalDensity([1.5, 0.5, 1.6, 0.4])
        out = penalty(space, g, op, y).values
        ref = cond_divergence(space, g, builtin_generator("kl"), density_to_measure(space, g, y)).values
        assert out[0] == math.inf
        assert abs(out[1] - ref[1]) <= 1e-6

    def test_requires_the_concave_declaration(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        op = squared_expectation_operator(space, g)
        with pytest.raises(ValueError, match="penalty needs an operator declared concave"):
            penalty(space, g, op, ConditionalDensity([1.0, 1.0]))

    def test_entropic_instance_of_two_atoms_of_four_states_takes_few_operator_calls(self):
        # Searching every coordinate of every sweep to PENALTY_XTOL from a
        # bracket of half-width 1 took 365 calls here.  Loose early sweeps
        # and brackets sized by each coordinate's last move take 189.
        rng = np.random.default_rng(20221109)
        atom = rng.permutation(np.repeat([0, 1], 4))
        space = FiniteProbabilitySpace([f"s{i}" for i in range(8)], probabilities(rng, 8, 0.5, 1.5))
        g = Partition([np.flatnonzero(atom == a).tolist() for a in (0, 1)])
        y = random_density(rng, space, g, low=0.5, high=1.5)
        op, calls = counted(entropic_operator(space, g))
        out = penalty(space, g, op, y).values
        assert calls[0] <= 200, calls[0]
        np.testing.assert_allclose(out, relative_entropy(space, g, y.values), rtol=0, atol=1e-15)

    def test_entropic_penalty_on_larger_atoms_and_small_densities(self):
        # atoms of 4 to 12 states, densities spread over six decades down to
        # 1e-6; the largest error measured is 4.9e-15
        rng = np.random.default_rng(72)
        worst = 0.0
        for _ in range(30):
            sizes = rng.integers(4, 13, int(rng.integers(1, 4)))
            n = int(sizes.sum())
            space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probabilities(rng, n))
            g = Partition(np.split(rng.permutation(n), np.cumsum(sizes)[:-1]))
            raw = RandomVariable(10.0 ** rng.uniform(-6.0, 0.5, n))
            y = raw.values / embed(g, cond_expectation(space, g, raw)).values
            out = penalty(space, g, entropic_operator(space, g), ConditionalDensity(y)).values
            worst = max(worst, float(np.abs(out - relative_entropy(space, g, y)).max()))
        assert worst <= 1e-14, worst

    def test_one_state_atoms_read_zero(self):
        # On a one-state atom y = 1 and a niveloid's objective is flat up to
        # rounding.  The ascent still moves on rounding gains there, so a
        # bracket radius that grew with each move would carry the state to
        # CEILING and read inf.
        rng = np.random.default_rng(74)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probabilities(rng, n))
            singles = int(rng.integers(1, n))
            perm = rng.permutation(n).tolist()
            g = Partition([[i] for i in perm[:singles]] + [perm[singles:]])
            y = random_density(rng, space, g, low=1e-3)
            for make in (entropic_operator, expectation_operator):
                out = penalty(space, g, make(space, g), y).values
                np.testing.assert_allclose(out[:singles], 0.0, rtol=0, atol=1e-14)

    def test_atom_min_penalty_is_zero(self):
        # min_A z <= E[z y | A] for every density y, with equality at z = 0
        rng = np.random.default_rng(73)
        for _ in range(30):
            space, g, _ = random_instance(rng, max_states=12)
            y = random_density(rng, space, g, low=1e-3)
            out = penalty(space, g, atom_min_operator(space, g), y).values
            np.testing.assert_allclose(out, 0.0, rtol=0, atol=1e-14)

    def test_inf_is_logged_as_a_reading_of_growth(self, caplog):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        op = expectation_operator(space, g)
        with caplog.at_level(logging.WARNING, logger="condrisk"):
            penalty(space, g, op, ConditionalDensity(np.ones(4)))
            assert not caplog.records
            out = penalty(space, g, op, ConditionalDensity([1.0, 1.0, 1.5, 0.5])).values
        assert out[0] == 0.0 and out[1] == math.inf
        (record,) = caplog.records
        assert record.name == "condrisk" and record.levelno == logging.WARNING
        message = record.getMessage()
        assert "atoms [1]" in message and "CEILING = 1e+06" in message
        assert "not a proof" in message


class TestAxiomChecker:
    def test_true_niveloids_pass(self):
        rng = np.random.default_rng(71)
        for make in (expectation_operator, entropic_operator, atom_min_operator):
            space, g, _ = random_instance(rng, max_states=8)
            report = check_niveloid_axioms(space, g, make(space, g), samples=50)
            assert report.passed, report.summary()
            assert report.failures() == ()

    def test_squared_expectation_fails_with_witnesses(self):
        space = uniform_space(3)
        g = Partition.trivial(3)
        report = check_niveloid_axioms(space, g, squared_expectation_operator(space, g), samples=50)
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert "translation_invariance" in failed
        assert "monotonicity" in failed
        for c in report.failures():
            assert c.counterexample is not None
            assert "x" in c.counterexample
            assert c.max_violation > 1e-9
        assert "FAIL" in report.summary()

    def test_niveloidified_operator_passes(self):
        space = uniform_space(3)
        g = Partition([[0, 1], [2]])
        inner = iphi_operator(space, g, builtin_generator("kl"))
        completed = ConditionalOperator(
            evaluate=row_by_row(lambda z: niveloidify(space, g, inner, z)),
            monotone=True,
            concave=True,
            name="completed",
        )
        report = check_niveloid_axioms(space, g, completed, samples=10, tol=1e-6)
        assert report.passed, report.summary()

    def test_rejects_bad_sample_count(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        with pytest.raises(ValueError, match="samples"):
            check_niveloid_axioms(space, g, expectation_operator(space, g), samples=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tol(self, tol):
        space = uniform_space(2)
        g = Partition.trivial(2)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check_niveloid_axioms(space, g, expectation_operator(space, g), tol=tol)

    def test_zero_tol_is_allowed_for_closed_forms(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        report = check_niveloid_axioms(space, g, atom_min_operator(space, g), samples=5, tol=0.0)
        assert len(report.checks) == 6
        assert all(c.passed == (c.max_violation == 0.0) for c in report.checks)

    def test_deterministic_for_fixed_seed(self):
        space = uniform_space(3)
        g = Partition.trivial(3)
        op = squared_expectation_operator(space, g)
        a = check_niveloid_axioms(space, g, op, samples=20, seed=5)
        b = check_niveloid_axioms(space, g, op, samples=20, seed=5)
        assert [c.max_violation for c in a.checks] == [c.max_violation for c in b.checks]
