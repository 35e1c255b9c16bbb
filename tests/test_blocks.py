"""The segment layout of a partition against atom-by-atom references.

The solvers bisect all atoms of a block at once and the conditional
reductions run on segmented sums over the partition's blocks.  Each is
compared here with the per-atom loop it replaced: ``bisect_nondecreasing``
on every atom's centred problem alone for the search, and
plain numpy on every atom's gathered states for the reductions.  The
partitions include single-state atoms, several blocks of small atoms, and an
atom larger than a block.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from condrisk import (
    ConditionalDensity,
    ConditionalValue,
    EquivalentConditionalMeasure,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    SolverError,
    atom_masses,
    atom_min_operator,
    builtin_generator,
    check_density,
    check_measure,
    cond_divergence,
    cond_expectation,
    cond_expectation_under,
    cond_p_norm,
    cond_sup_norm,
    donsker_varadhan_value,
    duality_gap,
    embed,
    entropic_risk,
    i_phi,
    oce_dual,
    oce_primal,
)
from condrisk import scalar_opt
from condrisk.probspace import BLOCK_STATES
from condrisk.scalar_opt import bisect_nondecreasing

from conftest import searched_generator

# tolerances fixed before the comparisons were first run: the batched sums
# differ from per-atom dots only by rounding
REL = 1e-12
SEARCH_GENS = ("kl", "chi2", "power:1.5", "power:3")


def space_of(rng, n):
    p = rng.uniform(0.5, 1.5, n)
    return FiniteProbabilitySpace([f"s{i}" for i in range(n)], p / p.sum())


def scattered_partition(rng, sizes):
    """Atoms of the given sizes over randomly permuted states."""
    perm = rng.permutation(int(np.sum(sizes)))
    return Partition(np.split(perm, np.cumsum(sizes)[:-1]))


def small_atoms(rng, k, max_size=40):
    return rng.integers(1, max_size + 1, k)


def spread_position(rng, g, n):
    """Per atom a level and a span between 1e-3 and 1e3, so atoms stop at different steps."""
    x = np.empty(n)
    for idx in g.index_arrays():
        span = 10.0 ** rng.uniform(-3.0, 3.0)
        x[idx] = rng.normal(0.0, 10.0) + span * rng.random(idx.size)
    return RandomVariable(x)


def instances(seed):
    """Small random partitions, then one with more than a block of states:
    blocks of many small atoms, an atom larger than a block, and a block of
    a few large atoms."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(6):
        sizes = small_atoms(rng, int(rng.integers(1, 60)))
        n = int(sizes.sum())
        g = scattered_partition(rng, sizes)
        out.append((space_of(rng, n), g, spread_position(rng, g, n)))
    sizes = np.concatenate([
        small_atoms(rng, 150), [BLOCK_STATES + 123], [5000, 4000, 1, 3000], [BLOCK_STATES + 5],
        small_atoms(rng, 120),
    ])
    n = int(sizes.sum())
    g = scattered_partition(rng, sizes)
    out.append((space_of(rng, n), g, spread_position(rng, g, n)))
    return out


def test_instances_cover_every_block_shape():
    space, g, x = instances(0)[-1]
    blocks = g._blocks
    assert g.num_states > BLOCK_STATES
    assert sum(b.starts.size > 1 for b in blocks) >= 2
    assert any(b.starts.size == 1 and b.idx.size > BLOCK_STATES for b in blocks)
    assert all(b.starts.size == 1 or b.idx.size <= BLOCK_STATES for b in blocks)
    assert any(len(a) == 1 for a in g.atoms)
    # atoms of one block stop after different numbers of steps
    iterations = oce_primal(space, g, searched_generator("kl"), x).iterations
    assert len(set(iterations[: blocks[0].starts.size])) > 5


# ---------------------------------------------------------------------------
# the batched search


def reference_search(space, g, gen, x, tol):
    """Bisection on every atom's centred problem, one bracket per call."""
    out = []
    for idx in g.index_arrays():
        w = space.probs[idx] / space.probs[idx].sum()
        xa = x.values[idx]
        c = float(xa.max())
        xc = xa - c

        def slope_gap(t):
            with np.errstate(over="ignore"):
                return w @ gen.phi_star_prime(t - xc[:, None]) - 1.0

        found = bisect_nondecreasing(slope_gap, [xc.min()], [0.0], xtol=tol, ftol=tol)
        t = found.x[0]
        a = c + t
        primal = a - float(w @ gen.phi_star(a - xa))
        y = gen.phi_star_prime(t - xc)
        y = y / float(w @ y)
        dual = float(w @ (xa * y + gen.phi(y)))
        out.append((a, found.iterations[0], primal, dual))
    return [np.array(col) for col in zip(*out)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SEARCH_GENS)
def test_batched_search_matches_scalar_search(seed, name):
    gen = searched_generator(name)
    for space, g, x in instances(seed):
        for tol in (1e-10, 1e-6):
            a, iters, primal_ref, dual_ref = reference_search(space, g, gen, x, tol)
            primal = oce_primal(space, g, gen, x, tol=tol)
            dual = oce_dual(space, g, gen, x, tol=tol)
            assert primal.iterations == tuple(iters.tolist())
            assert dual.iterations == primal.iterations
            assert np.all(np.abs(primal.multiplier.values - a) <= primal.residuals)
            assert np.all(np.abs(dual.multiplier.values - a) <= dual.residuals)
            assert np.all(np.abs(primal.value.values - primal_ref) <= REL * (1 + np.abs(primal_ref)))
            assert np.all(np.abs(dual.value.values - dual_ref) <= REL * (1 + np.abs(dual_ref)))


def test_batched_brackets_follow_their_scalar_steps(monkeypatch):
    rng = np.random.default_rng(7)
    roots = rng.uniform(-1.0, 1.0, 40)
    scale = 10.0 ** rng.uniform(-6, 2, 40)
    lo = np.concatenate([roots - 3.0, [0.5, -1.0, 2.0]])
    hi = np.concatenate([roots + 2.0, [2.0, 0.5, 2.0]])
    # a root at the lower end, one at the upper end, a degenerate bracket
    roots = np.concatenate([roots, [0.5, 0.5, 2.0]])
    scale = np.concatenate([scale, [1.0, 1.0, 1.0]])
    for ftol, max_iter in ((1e-9, 200), (None, 200), (1e-9, 12)):
        monkeypatch.setattr(scalar_opt, "DEFAULT_MAX_ITER", max_iter)
        many = bisect_nondecreasing(lambda t: scale * (t - roots), lo, hi, xtol=1e-10, ftol=ftol)
        for i in range(roots.size):
            one = bisect_nondecreasing(
                lambda t: scale[i] * (t - roots[i]), lo[i : i + 1], hi[i : i + 1], xtol=1e-10, ftol=ftol
            )
            assert (many.x[i], many.value[i], many.bracket_width[i]) == (
                one.x[0], one.value[0], one.bracket_width[0]
            )
            assert (many.iterations[i], many.converged[i]) == (one.iterations[0], one.converged[0])


class TestInfiniteSlopes:
    """An overflowed slope is +inf: above the root, never an error."""

    def test_inf_at_upper_end_and_midpoints(self):
        res = bisect_nondecreasing(
            lambda t: np.where(t > 1.0, math.inf, t - 0.5), [0.0], [10.0], xtol=1e-12, ftol=1e-12
        )
        assert abs(res.x[0] - 0.5) <= 1e-12
        assert res.converged[0]

    def test_inf_at_lower_end_is_not_bracketed(self):
        with pytest.raises(SolverError, match="not bracketed"):
            bisect_nondecreasing(lambda t: np.full_like(t, math.inf), [0.0], [1.0], xtol=1e-9)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_minus_inf_and_nan_still_raise(self, bad):
        with pytest.raises(SolverError, match="non-finite"):
            bisect_nondecreasing(lambda t: np.where(t > 0.9, bad, t - 0.5), [0.0], [1.0], xtol=1e-9)
        with pytest.raises(SolverError, match="non-finite"):
            bisect_nondecreasing(
                lambda t: np.where(t == 0.5, bad, t - 0.7), np.zeros(3), np.ones(3), xtol=1e-9
            )


# ---------------------------------------------------------------------------
# the segmented reductions


def reduction_instances(seed):
    """Atoms of 1-12 states in more than one block, and large atoms among them."""
    rng = np.random.default_rng(seed)
    out = []
    for sizes in (
        small_atoms(rng, 3000, max_size=12),
        np.concatenate([small_atoms(rng, 50, 12), [BLOCK_STATES + 1], small_atoms(rng, 50, 12)]),
        np.array([1, 3, 1, 1, 7]),
    ):
        n = int(sizes.sum())
        g = scattered_partition(rng, sizes)
        out.append((rng, space_of(rng, n), g, RandomVariable(rng.uniform(-5.0, 5.0, n))))
    return out


def per_atom(g, fn):
    return np.array([fn(idx) for idx in g.index_arrays()])


def random_measure(rng, space, g):
    y = rng.uniform(0.05, 3.0, space.num_states)
    for idx in g.index_arrays():
        y[idx] *= space.probs[idx].sum() / (space.probs[idx] @ y[idx])
    return EquivalentConditionalMeasure(space.probs * y / (space.probs * y).sum())


def assert_close(got, ref):
    # relative, with an absolute floor of the same size for values near zero
    np.testing.assert_allclose(got, ref, rtol=REL, atol=REL)


@pytest.mark.parametrize("case", range(3))
def test_probspace_reductions_match_per_atom_loops(case):
    rng, space, g, x = reduction_instances(11)[case]
    p, xv = space.probs, x.values
    assert_close(atom_masses(space, g), per_atom(g, lambda i: p[i].sum()))
    assert_close(cond_expectation(space, g, x).values, per_atom(g, lambda i: p[i] @ xv[i] / p[i].sum()))
    assert_close(cond_sup_norm(space, g, x).values, per_atom(g, lambda i: np.abs(xv[i]).max()))
    np.testing.assert_array_equal(
        atom_min_operator(space, g).evaluate(xv[None, :])[0], per_atom(g, lambda i: xv[i].min())
    )
    for q in (1.0, 2.5):
        ref = per_atom(g, lambda i: (p[i] @ np.abs(xv[i]) ** q / p[i].sum()) ** (1.0 / q))
        assert_close(cond_p_norm(space, g, x, q).values, ref)
    a = rng.normal(size=g.num_atoms)
    ref = np.empty(space.num_states)
    for k, idx in enumerate(g.index_arrays()):
        ref[idx] = a[k]
    np.testing.assert_array_equal(embed(g, ConditionalValue(a)).values, ref)


@pytest.mark.parametrize("case", range(3))
def test_divergence_and_oce_reductions_match_per_atom_loops(case):
    rng, space, g, x = reduction_instances(12)[case]
    p, xv = space.probs, x.values
    nu = random_measure(rng, space, g)
    check_measure(space, g, nu)
    y = nu.weights / p
    check_density(space, g, ConditionalDensity(y))
    z = RandomVariable(rng.uniform(-2.0, 2.0, space.num_states))
    for name in ("kl", "chi2", "power:3"):
        gen = builtin_generator(name)
        ref = per_atom(g, lambda i: p[i] @ gen.phi(y[i]) / p[i].sum())
        assert_close(cond_divergence(space, g, gen, nu).values, ref)
        ref = per_atom(
            g,
            lambda i: nu.weights[i] @ z.values[i] / nu.weights[i].sum()
            - p[i] @ gen.phi_star(z.values[i]) / p[i].sum(),
        )
        assert_close(donsker_varadhan_value(space, g, gen, nu, z).values, ref)
        ref = per_atom(g, lambda i: -(p[i] @ gen.phi_star(-xv[i])) / p[i].sum())
        assert_close(i_phi(space, g, gen, x).values, ref)
    ref = per_atom(g, lambda i: nu.weights[i] @ xv[i] / nu.weights[i].sum())
    assert_close(cond_expectation_under(space, g, nu, x).values, ref)
    ref = per_atom(g, lambda i: -logsumexp(-xv[i], b=p[i] / p[i].sum()))
    assert_close(entropic_risk(space, g, x).values, ref)


def test_duality_gap_value_step_matches_per_atom_objective():
    _, space, g, x = reduction_instances(13)[0]
    gen = builtin_generator("chi2")
    dual = oce_dual(space, g, gen, x)
    lam = dual.multiplier.values
    ref = []
    for k, idx in enumerate(g.index_arrays()):
        w = space.probs[idx] / space.probs[idx].sum()
        ref.append(lam[k] - w @ gen.phi_star(lam[k] - x.values[idx]))
    gap_ref = np.abs(np.array(ref) - dual.value.values)
    np.testing.assert_allclose(duality_gap(space, g, gen, x).value.values, gap_ref, rtol=0, atol=REL)


def test_mass_checks_name_the_first_failing_atom():
    _, space, g, _ = reduction_instances(14)[0]
    first_of_last_block = g._blocks[-1].atoms.start
    assert first_of_last_block > 0
    last = g.num_atoms - 1
    for bad in ([3, last], [first_of_last_block, last]):
        y = np.ones(space.num_states)
        for k in bad:
            y[g.index_arrays()[k]] *= 1.5
        with pytest.raises(ValueError, match=f"atom A{bad[0]}: density"):
            check_density(space, g, ConditionalDensity(y))
        # move mass from one failing atom to the other, keeping the total
        nu = space.probs.copy()
        s0, s1 = g.index_arrays()[bad[0]][0], g.index_arrays()[bad[1]][0]
        step = 0.5 * min(nu[s0], nu[s1])
        nu[s0] += step
        nu[s1] -= step
        with pytest.raises(ValueError, match=f"atom A{bad[0]}: measure"):
            check_measure(space, g, EquivalentConditionalMeasure(nu))


def test_zero_mass_atom_named_by_cond_expectation_under():
    space = FiniteProbabilitySpace(["a", "b", "c"], [0.25, 0.25, 0.5])
    g = Partition([[0, 1], [2]])
    nu = EquivalentConditionalMeasure([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="atom A1: measure mass is zero"):
        cond_expectation_under(space, g, nu, RandomVariable([1.0, 2.0, 3.0]))
