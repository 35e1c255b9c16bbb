"""Spaces, partitions, and exact conditional expectation / norms."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrisk import (
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    atom_masses,
    cond_expectation,
    cond_p_norm,
    cond_sup_norm,
    embed,
    restrict_mask,
)
from condrisk import probspace
from condrisk.probspace import BLOCK_STATES
from conftest import random_instance


def uniform_space(n):
    return FiniteProbabilitySpace([f"s{i}" for i in range(n)], np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# construction and validation


class TestFiniteProbabilitySpace:
    def test_basic_construction(self):
        space = FiniteProbabilitySpace(["a", "b"], [0.3, 0.7])
        assert space.num_states == 2
        assert space.state_names == ("a", "b")
        assert space.index_of("b") == 1
        np.testing.assert_allclose(space.probs, [0.3, 0.7])

    def test_probs_sum_is_exactly_one_after_renormalization(self):
        # off by 5e-13 is within tolerance and must be renormalized away
        probs = np.array([0.5, 0.5 + 5e-13])
        space = FiniteProbabilitySpace(["a", "b"], probs)
        assert float(space.probs.sum()) == 1.0

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteProbabilitySpace(["a", "b"], [1.0, 0.0])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FiniteProbabilitySpace(["a", "b"], [1.2, -0.2])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FiniteProbabilitySpace(["a", "b"], [0.5, 0.6])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteProbabilitySpace(["a", "a"], [0.5, 0.5])

    @pytest.mark.parametrize("where", [0, 1, BLOCK_STATES])
    def test_rejects_duplicate_names_beyond_a_block(self, where):
        # past BLOCK_STATES names the check sorts hashes instead of building a set
        n = BLOCK_STATES + 1
        assert uniform_space(n).num_states == n
        names = [f"s{i}" for i in range(n)]
        names[where] = names[(where + 7) % n]
        with pytest.raises(ValueError, match="distinct"):
            FiniteProbabilitySpace(names, np.full(n, 1.0 / n))

    def test_colliding_hashes_of_distinct_names_are_compared(self, monkeypatch):
        # every name hashes to one of three values, so most pairs collide
        n = BLOCK_STATES + 1
        names = [f"s{i}" for i in range(n)]
        monkeypatch.setattr(probspace, "hash", lambda s: int(s[1:]) % 3, raising=False)
        assert FiniteProbabilitySpace(names, np.full(n, 1.0 / n)).num_states == n
        names[5] = names[9]
        with pytest.raises(ValueError, match="distinct"):
            FiniteProbabilitySpace(names, np.full(n, 1.0 / n))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            FiniteProbabilitySpace(["a", "b", "c"], [0.5, 0.5])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            FiniteProbabilitySpace(["a", "b"], [np.nan, 1.0])

    def test_unknown_state_name(self):
        space = uniform_space(2)
        with pytest.raises(ValueError, match="unknown state"):
            space.index_of("zz")

    def test_probs_are_read_only(self):
        space = uniform_space(3)
        with pytest.raises(ValueError):
            space.probs[0] = 0.9


class TestPartition:
    def test_basic(self):
        g = Partition([[0, 1], [2]])
        assert g.num_atoms == 2
        assert g.num_states == 3
        assert g.atoms == ((0, 1), (2,))

    def test_trivial_and_discrete(self):
        assert Partition.trivial(3).atoms == ((0, 1, 2),)
        assert Partition.discrete(3).atoms == ((0,), (1,), (2,))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition([[0, 1], [1, 2]])

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Partition([[0], [2]])

    def test_cover_message_names_only_the_offending_indices(self):
        with pytest.raises(ValueError, match="cover") as info:
            Partition([np.arange(1, 10**6 + 1)])
        message = str(info.value)
        assert message.startswith("atoms must cover exactly the index range 0..n-1")
        assert len(message) < 1000
        assert "[0]" in message and "[1000000]" in message

    def test_rejects_empty_atom(self):
        with pytest.raises(ValueError, match="nonempty"):
            Partition([[0, 1], []])

    def test_rejects_no_atoms(self):
        with pytest.raises(ValueError, match="at least one atom"):
            Partition([])

    @pytest.mark.parametrize("atoms", [[[2], [2]], [[-1, 0], [-1]], [[0, 7], [7, 1]]])
    def test_a_repeat_is_reported_before_an_index_out_of_range(self, atoms):
        with pytest.raises(ValueError, match="disjoint"):
            Partition(atoms)

    @pytest.mark.parametrize(
        "atoms",
        [
            [[2, 0], [3], [1, 4]],
            ((2, 0), (3,), (1, 4)),
            ((i for i in (2, 0)), iter([3]), {1, 4}),
            [np.array([2, 0]), np.array([3], dtype=np.int32), np.array([1, 4], dtype=np.uint8)],
        ],
        ids=["lists", "tuples", "iterators", "arrays"],
    )
    def test_every_kind_of_atom_gives_one_layout(self, atoms):
        g = Partition(atoms)
        assert g.atoms == ((2, 0), (3,), (1, 4))
        assert all(type(i) is int for atom in g.atoms for i in atom)
        assert [a.tolist() for a in g.index_arrays()] == [[2, 0], [3], [1, 4]]
        (block,) = g._blocks
        assert block.atoms == slice(0, 3)
        assert block.idx.tolist() == [2, 0, 3, 1, 4]
        assert block.starts.tolist() == [0, 2, 3]
        assert block.sizes.tolist() == [2, 1, 2]

    @pytest.mark.parametrize(
        "atoms",
        [
            [[0, 1.9], [2]],
            [[0, 1.0], [2]],
            [["0", "1"], ["2"]],
            [[True], [False], [2]],
            [iter([1.9, 0]), {2}],
            [np.array([0.0, 1.0]), [2]],
        ],
        ids=["floats", "integral-floats", "strings", "bools", "float-iterator", "float-array"],
    )
    def test_rejects_members_that_are_not_integers(self, atoms):
        with pytest.raises(ValueError, match="integer state indices"):
            Partition(atoms)

    @pytest.mark.parametrize("atom", [[[0, 1]], np.zeros((1, 2), dtype=int), 0])
    def test_rejects_atom_that_is_not_one_dimensional(self, atom):
        with pytest.raises(ValueError, match="one-dimensional"):
            Partition([atom, [2]])

    def test_layout_is_read_only(self):
        g = Partition([[0, 1], [2]])
        with pytest.raises(ValueError):
            g.index_arrays()[0][0] = 2
        with pytest.raises(AttributeError):
            g.atoms = ((0,), (1, 2))

    def test_equal_atoms_compare_and_hash_equal(self):
        g = Partition([[0, 1], [2]])
        h = Partition([np.array([0, 1]), (2,)])
        assert g == h and hash(g) == hash(h)
        assert len({g, h, Partition.trivial(3)}) == 2
        assert g != Partition([[1, 0], [2]])  # members permuted within an atom
        assert g != Partition([[2], [0, 1]])  # atoms permuted
        assert g != Partition([[0], [1], [2]])
        assert g != g.atoms

    def test_repr_lists_the_atoms(self):
        assert repr(Partition([[0, 1], [2]])) == "Partition(atoms=((0, 1), (2,)))"


class TestVectorArithmetic:
    def test_rv_elementwise(self):
        x = RandomVariable([1.0, 2.0])
        y = RandomVariable([10.0, 20.0])
        np.testing.assert_allclose((x + y).values, [11.0, 22.0])
        np.testing.assert_allclose((y - x).values, [9.0, 18.0])
        np.testing.assert_allclose((2.0 * x).values, [2.0, 4.0])
        np.testing.assert_allclose((x + 1.0).values, [2.0, 3.0])
        np.testing.assert_allclose((1.0 - x).values, [0.0, -1.0])
        np.testing.assert_allclose((-x).values, [-1.0, -2.0])

    def test_mixing_kinds_is_an_error(self):
        x = RandomVariable([1.0, 2.0])
        a = ConditionalValue([1.0, 2.0])
        with pytest.raises(TypeError):
            x + a

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            RandomVariable([1.0, 2.0]) + RandomVariable([1.0, 2.0, 3.0])

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            RandomVariable([1.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            ConditionalValue([np.nan])

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @pytest.mark.parametrize("kind, other_kind", [(RandomVariable, ConditionalValue),
                                                  (ConditionalValue, RandomVariable)])
    def test_every_operator_and_operand_kind(self, op, kind, other_kind):
        u = np.array([1.5, -2.0, 0.25])
        v = np.array([0.1, 3.0, -7.0])
        x, y = kind(u), kind(v)
        for out, expected in [(op(x, y), op(u, v)), (op(y, x), op(v, u))]:
            assert type(out) is kind
            np.testing.assert_array_equal(out.values, expected)
        for r in (3, 2.5, np.float64(-0.5)):
            for out, expected in [(op(x, r), op(u, float(r))), (op(r, x), op(float(r), u))]:
                assert type(out) is kind
                np.testing.assert_array_equal(out.values, expected)
        for bad in (other_kind(v), "s"):
            with pytest.raises(TypeError):
                op(x, bad)
            with pytest.raises(TypeError):
                op(bad, x)
        longer = kind([1.0, 2.0, 3.0, 4.0])
        for a, b in [(x, longer), (longer, x)]:
            with pytest.raises(ValueError, match="length mismatch: (3 vs 4|4 vs 3)"):
                op(a, b)

    def test_repr_is_the_dataclass_repr(self):
        x, a = RandomVariable([1.0, -2.5]), ConditionalValue([0.5])
        assert repr(x) == f"RandomVariable(values={x.values!r})"
        assert repr(a) == f"ConditionalValue(values={a.values!r})"

    @pytest.mark.parametrize("values, message", [
        ([[1.0, 2.0]], r"random variable must be a one-dimensional vector, got shape \(1, 2\)"),
        ([], "random variable must be nonempty"),
    ])
    def test_rejects_values_that_are_not_a_nonempty_vector(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RandomVariable(values)


# ---------------------------------------------------------------------------
# conditional expectation


class TestCondExpectation:
    def test_uniform_four_state(self):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        out = cond_expectation(space, g, RandomVariable([1.0, 3.0, 2.0, 6.0]))
        np.testing.assert_allclose(out.values, [2.0, 4.0])

    def test_constant_is_fixed_point(self):
        space = FiniteProbabilitySpace(["a", "b", "c"], [0.2, 0.3, 0.5])
        g = Partition([[0, 2], [1]])
        out = cond_expectation(space, g, RandomVariable([3.5, 3.5, 3.5]))
        np.testing.assert_allclose(out.values, [3.5, 3.5], rtol=0, atol=1e-15)

    def test_weighted_two_atom(self):
        # (0.1*10 + 0.4*0) / 0.5 = 2 on the first atom, 7 on the singleton
        space = FiniteProbabilitySpace(["a", "b", "c"], [0.1, 0.4, 0.5])
        g = Partition([[0, 1], [2]])
        out = cond_expectation(space, g, RandomVariable([10.0, 0.0, 7.0]))
        np.testing.assert_allclose(out.values, [2.0, 7.0], rtol=0, atol=1e-14)

    def test_dimension_mismatch(self):
        space = uniform_space(3)
        with pytest.raises(ValueError, match="length"):
            cond_expectation(space, Partition([[0, 1], [2]]), RandomVariable([1.0, 2.0]))
        with pytest.raises(ValueError, match="partition covers"):
            cond_expectation(space, Partition([[0], [1]]), RandomVariable([1.0, 2.0, 3.0]))

    def test_tower_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            space, g, x = random_instance(rng)
            cv = cond_expectation(space, g, x)
            lhs = float(space.probs @ x.values)
            rhs = float(atom_masses(space, g) @ cv.values)
            assert abs(lhs - rhs) <= 1e-12

    def test_between_atom_min_and_max(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            space, g, x = random_instance(rng)
            cv = cond_expectation(space, g, x)
            for i, idx in enumerate(g.index_arrays()):
                assert x.values[idx].min() - 1e-12 <= cv.values[i] <= x.values[idx].max() + 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_tower_property_hypothesis(self, raw):
        space = FiniteProbabilitySpace(
            [f"s{i}" for i in range(6)], [0.05, 0.1, 0.15, 0.2, 0.2, 0.3]
        )
        g = Partition([[0, 3], [1, 4], [2, 5]])
        x = RandomVariable(raw)
        cv = cond_expectation(space, g, x)
        lhs = float(space.probs @ x.values)
        rhs = float(atom_masses(space, g) @ cv.values)
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# conditional norms


class TestCondNorms:
    def test_sup_norm_anchor(self):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        out = cond_sup_norm(space, g, RandomVariable([1.0, -3.0, 2.0, 6.0]))
        np.testing.assert_allclose(out.values, [3.0, 6.0])

    def test_sup_norm_zero(self):
        space = uniform_space(4)
        g = Partition([[0, 1], [2, 3]])
        out = cond_sup_norm(space, g, RandomVariable([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.0, 0.0])

    def test_sup_norm_single_atom(self):
        space = uniform_space(2)
        out = cond_sup_norm(space, Partition.trivial(2), RandomVariable([-5.0, 4.0]))
        np.testing.assert_allclose(out.values, [5.0])

    def test_p_norm_anchors(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        np.testing.assert_allclose(
            cond_p_norm(space, g, RandomVariable([3.0, -1.0]), 1.0).values, [2.0]
        )
        np.testing.assert_allclose(
            cond_p_norm(space, g, RandomVariable([1.0, 1.0]), 2.0).values, [1.0]
        )
        np.testing.assert_allclose(
            cond_p_norm(space, g, RandomVariable([0.0, 2.0]), 2.0).values, [np.sqrt(2.0)]
        )

    def test_p_norm_rejects_small_p(self):
        space = uniform_space(2)
        with pytest.raises(ValueError, match="p >= 1"):
            cond_p_norm(space, Partition.trivial(2), RandomVariable([1.0, 2.0]), 0.5)

    def test_p_norm_inf_is_sup_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            space, g, x = random_instance(rng)
            a = cond_p_norm(space, g, x, np.inf)
            b = cond_sup_norm(space, g, x)
            np.testing.assert_array_equal(a.values, b.values)

    def test_p_norms_nondecreasing_in_p(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            space, g, x = random_instance(rng)
            norms = [cond_p_norm(space, g, x, p).values for p in (1.0, 2.0, 4.0, 16.0)]
            norms.append(cond_sup_norm(space, g, x).values)
            for lo, hi in zip(norms, norms[1:]):
                assert np.all(lo <= hi + 1e-10)

    def test_sup_norm_zero_iff_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            space, g, x = random_instance(rng)
            norm = cond_sup_norm(space, g, x)
            if np.all(norm.values == 0.0):
                assert np.all(x.values == 0.0)

    def test_sup_norm_g_homogeneous(self):
        # |a| x under a G-measurable a scales the norm atom by atom
        rng = np.random.default_rng(12)
        for _ in range(20):
            space, g, x = random_instance(rng)
            a = rng.uniform(-3.0, 3.0, g.num_atoms)
            scaled = embed(g, ConditionalValue(a)) * x
            lhs = cond_sup_norm(space, g, scaled).values
            rhs = np.abs(a) * cond_sup_norm(space, g, x).values
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_sup_norm_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            space, g, x = random_instance(rng)
            y = RandomVariable(rng.uniform(-5.0, 5.0, space.num_states))
            lhs = cond_sup_norm(space, g, x + y).values
            rhs = cond_sup_norm(space, g, x).values + cond_sup_norm(space, g, y).values
            assert np.all(lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------
# embedding and splicing


class TestEmbedRestrict:
    def test_embed_anchor(self):
        g = Partition([[0, 1], [2]])
        out = embed(g, ConditionalValue([1.0, 2.0]))
        np.testing.assert_array_equal(out.values, [1.0, 1.0, 2.0])

    def test_embed_zero(self):
        g = Partition([[0, 1], [2]])
        np.testing.assert_array_equal(embed(g, ConditionalValue([0.0, 0.0])).values, [0.0] * 3)

    def test_embed_single_atom_constant(self):
        out = embed(Partition.trivial(4), ConditionalValue([2.5]))
        np.testing.assert_array_equal(out.values, [2.5] * 4)

    def test_embed_then_condition_is_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            space, g, _ = random_instance(rng)
            a = ConditionalValue(rng.uniform(-4.0, 4.0, g.num_atoms))
            back = cond_expectation(space, g, embed(g, a))
            np.testing.assert_allclose(back.values, a.values, rtol=0, atol=1e-13)

    def test_embed_length_mismatch(self):
        with pytest.raises(ValueError, match="one per atom"):
            embed(Partition([[0, 1], [2]]), ConditionalValue([1.0, 2.0, 3.0]))

    def test_restrict_length_mismatch(self):
        g = Partition([[0, 1], [2]])
        with pytest.raises(ValueError, match=r"^x and y must have length 3, got 2 and 3$"):
            restrict_mask(g, 0, RandomVariable([1.0, 2.0]), RandomVariable([1.0, 2.0, 3.0]))

    def test_restrict_anchor(self):
        g = Partition([[0, 1], [2]])
        out = restrict_mask(
            g, 0, RandomVariable([1.0, 1.0, 1.0]), RandomVariable([9.0, 9.0, 9.0])
        )
        np.testing.assert_array_equal(out.values, [1.0, 1.0, 9.0])

    def test_restrict_equal_inputs(self):
        g = Partition([[0, 1], [2]])
        x = RandomVariable([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(restrict_mask(g, 1, x, x).values, x.values)

    def test_restrict_whole_space(self):
        g = Partition.trivial(3)
        x = RandomVariable([1.0, 2.0, 3.0])
        y = RandomVariable([7.0, 7.0, 7.0])
        np.testing.assert_array_equal(restrict_mask(g, 0, x, y).values, x.values)

    def test_restrict_bad_atom_index(self):
        g = Partition([[0, 1], [2]])
        x = RandomVariable([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="out of range"):
            restrict_mask(g, 5, x, x)


# ---------------------------------------------------------------------------
# lattice toolbox on finite families of conditional values


def family(rng, k, size):
    return [ConditionalValue(rng.uniform(-5.0, 5.0, k)) for _ in range(size)]


def sup_family(fam):
    return np.max(np.stack([cv.values for cv in fam]), axis=0)


class TestLatticeToolbox:
    """Coordinatewise sup identities over finite families; these are the
    module-scale versions of the exhaustive checks in the acceptance suite."""

    def test_sup_translation(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            fam = family(rng, k, int(rng.integers(1, 6)))
            x = ConditionalValue(rng.uniform(-5.0, 5.0, k))
            lhs = sup_family([x + cv for cv in fam])
            rhs = x.values + sup_family(fam)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_sup_superadditivity_over_products(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            f = family(rng, k, int(rng.integers(1, 5)))
            h = family(rng, k, int(rng.integers(1, 5)))
            sums = [a + b for a in f for b in h]
            assert np.all(sup_family(f) + sup_family(h) <= sup_family(sums) + 1e-12)

    def test_minimax_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            table = rng.uniform(-5.0, 5.0, (rows, cols, k))
            max_min = np.min(np.max(table, axis=0), axis=0)
            min_max = np.max(np.min(table, axis=1), axis=0)
            assert np.all(min_max <= max_min + 1e-12)

    def test_nonnegative_scalar_factors_out_of_sup(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            fam = family(rng, k, int(rng.integers(1, 6)))
            a = ConditionalValue(rng.uniform(0.0, 3.0, k))
            lhs = sup_family([a * cv for cv in fam])
            rhs = a.values * sup_family(fam)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
