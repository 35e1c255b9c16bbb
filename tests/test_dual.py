"""Dual (penalized-expectation) side: KKT solver, duality, and the
independent simplex-grid oracle."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from condrisk import (
    DivergenceGenerator,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    SolverError,
    builtin_generator,
    check_density,
    cli,
    duality_gap,
    entropic_risk,
    oce_dual,
    oce_primal,
)
from condrisk.probspace import BLOCK_STATES
from conftest import BUILTIN_NAMES, random_density, random_instance
from oracles import dual_bruteforce


def uniform_space(n):
    return FiniteProbabilitySpace([f"s{i}" for i in range(n)], np.full(n, 1.0 / n))


def small_atom_instance(rng, lo=-3.0, hi=3.0):
    """Instance whose atoms all have at most 3 states, as the grid oracle needs."""
    sizes = []
    remaining = int(rng.integers(2, 7))
    while remaining > 0:
        s = int(rng.integers(1, min(3, remaining) + 1))
        sizes.append(s)
        remaining -= s
    n = sum(sizes)
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probs)
    perm = rng.permutation(n)
    atoms, start = [], 0
    for s in sizes:
        atoms.append(perm[start : start + s].tolist())
        start += s
    return space, Partition(atoms), RandomVariable(rng.uniform(lo, hi, n))


def dual_objective(space, g, gen, x, yvals):
    """Penalized expectation of a feasible density, evaluated directly."""
    out = np.empty(g.num_atoms)
    for i, idx in enumerate(g.index_arrays()):
        w = space.probs[idx]
        w = w / w.sum()
        ya = yvals[idx]
        out[i] = float(w @ (x.values[idx] * ya + np.asarray(gen.phi(ya), dtype=float)))
    return out


class TestAnchors:
    def test_kl_two_state(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        sol = oce_dual(space, g, builtin_generator("kl"), RandomVariable([0.0, math.log(4.0)]))
        assert abs(sol.value.values[0] - math.log(1.6)) < 1e-9
        np.testing.assert_allclose(sol.density.values, [1.6, 0.4], rtol=0, atol=1e-8)

    def test_single_state_atoms_admit_only_the_base_measure(self):
        space = FiniteProbabilitySpace(["a", "b"], [0.4, 0.6])
        g = Partition.discrete(2)
        x = RandomVariable([2.0, -1.0])
        for name in BUILTIN_NAMES:
            sol = oce_dual(space, g, builtin_generator(name), x)
            np.testing.assert_allclose(sol.value.values, x.values, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sol.density.values, 1.0, rtol=0, atol=1e-12)


class TestSolverContract:
    def test_optimal_density_is_exactly_feasible(self):
        rng = np.random.default_rng(50)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(10):
                space, g, x = random_instance(rng)
                sol = oce_dual(space, g, gen, x)
                check_density(space, g, sol.density)
                assert np.all(sol.density.values >= 0.0)

    def test_value_is_objective_at_optimal_density(self):
        rng = np.random.default_rng(51)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            space, g, x = random_instance(rng)
            sol = oce_dual(space, g, gen, x)
            direct = dual_objective(space, g, gen, x, sol.density.values)
            np.testing.assert_allclose(sol.value.values, direct, rtol=0, atol=1e-13)

    def test_no_feasible_density_beats_the_reported_one(self):
        # independent optimality certificate: random feasible densities never
        # price the position lower
        rng = np.random.default_rng(52)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(5):
                space, g, x = random_instance(rng, lo=-2.0, hi=2.0)
                sol = oce_dual(space, g, gen, x)
                for _ in range(20):
                    y = random_density(rng, space, g)
                    trial = dual_objective(space, g, gen, x, y.values)
                    assert np.all(trial >= sol.value.values - 1e-9)

    def test_kl_density_is_the_exponential_tilt(self):
        rng = np.random.default_rng(53)
        gen = builtin_generator("kl")
        for _ in range(10):
            space, g, x = random_instance(rng)
            sol = oce_dual(space, g, gen, x)
            expected = np.empty(space.num_states)
            for idx in g.index_arrays():
                w = space.probs[idx]
                w = w / w.sum()
                ex = np.exp(-x.values[idx])
                expected[idx] = ex / float(w @ ex)
            np.testing.assert_allclose(sol.density.values, expected, rtol=0, atol=1e-8)

    def test_synthesized_conjugate_derivative(self):
        # a generator without phi_star' gets one synthesized from phi, so the
        # dual solver and the gap run on it and agree with the analytic one
        kl = builtin_generator("kl")
        stripped = DivergenceGenerator(
            name="kl-stripped", phi=kl.phi, phi_star=kl.phi_star, phi_star_prime=None
        )
        rng = np.random.default_rng(57)
        instances = [random_instance(rng, max_states=6) for _ in range(5)]
        # a payoff range past 27.6, where the synthesized exp(m) passes T_CAP
        instances.append((uniform_space(2), Partition.trivial(2), RandomVariable([0.0, 100.0])))
        for space, g, x in instances:
            a = oce_dual(space, g, stripped, x, tol=1e-9)
            b = oce_dual(space, g, kl, x)
            np.testing.assert_allclose(a.value.values, b.value.values, rtol=0, atol=1e-6)
            np.testing.assert_allclose(
                duality_gap(space, g, stripped, x).value.values,
                duality_gap(space, g, kl, x).value.values,
                rtol=0,
                atol=1e-6,
            )

    def test_invalid_conjugate_derivative_is_a_solver_error(self):
        kl = builtin_generator("kl")
        broken = DivergenceGenerator(
            name="flat", phi=kl.phi, phi_star=kl.phi_star, phi_star_prime=lambda m: 0.0 * np.asarray(m)
        )
        space = uniform_space(2)
        with pytest.raises(SolverError):
            oce_dual(space, Partition.trivial(2), broken, RandomVariable([0.0, 1.0]))

    def test_zero_mean_density_names_its_atom(self):
        # single-state atoms need no search, so the density check is what fails
        kl = builtin_generator("kl")
        zero = DivergenceGenerator(name="zero", phi=kl.phi, phi_star=kl.phi_star,
                                   phi_star_prime=lambda m: np.zeros(np.shape(m)))
        x = RandomVariable([0.0, 1.0, 2.0])
        message = (r"^atom A0: candidate density has conditional mean 0\.0; "
                   r"the conjugate derivative looks invalid$")
        with pytest.raises(SolverError, match=message):
            oce_dual(uniform_space(3), Partition.discrete(3), zero, x)


class TestStrongDuality:
    def test_gap_is_numerically_zero(self):
        rng = np.random.default_rng(54)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(20):
                space, g, x = random_instance(rng)
                primal = oce_primal(space, g, gen, x)
                dual = oce_dual(space, g, gen, x)
                assert np.all(np.abs(primal.value.values - dual.value.values) <= 1e-9)

    def test_duality_gap_helper_matches(self):
        # the gap evaluates the primal's and the dual's block functions at the
        # multiplier both solvers find, so it is |primal - dual| exactly, also
        # on a partition of more than one block
        rng = np.random.default_rng(55)
        n = 2 * BLOCK_STATES + 5
        p = rng.uniform(0.5, 1.5, n)
        many = (
            FiniteProbabilitySpace([f"s{i}" for i in range(n)], p / p.sum()),
            Partition(np.array_split(rng.permutation(n), n // 7)),
            RandomVariable(rng.normal(0.0, 3.0, n)),
        )
        assert len(many[1]._blocks) > 1
        for space, g, x in (random_instance(rng), many):
            for name in BUILTIN_NAMES:
                gen = builtin_generator(name)
                gap = duality_gap(space, g, gen, x).value.values
                primal = oce_primal(space, g, gen, x)
                dual = oce_dual(space, g, gen, x)
                np.testing.assert_array_equal(
                    gap, np.abs(primal.value.values - dual.value.values), err_msg=name
                )

    def test_multiplier_equals_primal_maximizer(self):
        # both solvers take their multiplier from the one shared search, so
        # the multiplier and the search diagnostics agree exactly
        rng = np.random.default_rng(56)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(10):
                space, g, x = random_instance(rng)
                primal = oce_primal(space, g, gen, x)
                dual = oce_dual(space, g, gen, x)
                np.testing.assert_array_equal(primal.multiplier.values, dual.multiplier.values)
                assert primal.iterations == dual.iterations
                np.testing.assert_array_equal(primal.residuals, dual.residuals)

    def test_duality_gap_solves_once(self):
        # the gap evaluates both sides at one multiplier, so it calls the
        # conjugate derivative exactly as often as the dual solver alone
        rng = np.random.default_rng(60)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            calls = [0]

            def counted(m, inner=gen.phi_star_prime):
                calls[0] += 1
                return inner(m)

            counting = dataclasses.replace(gen, phi_star_prime=counted)
            space, g, x = random_instance(rng)
            oce_dual(space, g, counting, x)
            dual_calls, calls[0] = calls[0], 0
            duality_gap(space, g, counting, x)
            assert dual_calls > g.num_atoms
            assert calls[0] == dual_calls, (name, calls[0], dual_calls)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the multiplier of a steep power generator can lie within one ulp of the "
        "kink of phi_star' at the top payoff, where no float multiplier gives a feasible "
        "density (ROADMAP item 1)",
    )
    def test_steep_power_generators_at_ordinary_scale(self):
        # 1000 atoms of 10 consecutive states; every bracket closes below tol,
        # so no search reports a failure, yet the dual values drift
        rng = np.random.default_rng(1)
        x = RandomVariable(3 * rng.normal(size=10_000))
        space = FiniteProbabilitySpace([f"s{i}" for i in range(10_000)], rng.dirichlet(np.ones(10_000)))
        g = Partition(np.arange(10_000).reshape(1000, 10))
        for name in ("power:10", "power:50"):
            gen = builtin_generator(name)
            primal = oce_primal(space, g, gen, x).value.values
            dual = oce_dual(space, g, gen, x)
            assert np.all(dual.residuals <= 1e-10)
            gap = np.abs(primal - dual.value.values)
            assert np.all(gap <= 1e-6), (name, int(np.sum(gap > 1e-6)), float(gap.max()))


class TestLargePayoffScale:
    """power:50 on x = [0, 1e6]: the slope root sits 0.02 below the top payoff
    and about 1e-14 above the kink of phi_star' there, finer than the float
    spacing near 1e6, so the search must run centred at the atom maximum.
    KL on ranges past 709 overflows exp in the slope."""

    X = [0.0, 1e6]

    def test_power50_agrees_with_its_centred_translate(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        gen = builtin_generator("power:50")
        primal = oce_primal(space, g, gen, RandomVariable(self.X))
        dual = oce_dual(space, g, gen, RandomVariable(self.X))
        # cash additivity: OCE(x) = OCE(x - 1e6) + 1e6
        shifted = oce_primal(space, g, gen, RandomVariable([-1e6, 0.0])).value.values[0] + 1e6
        assert abs(primal.value.values[0] - dual.value.values[0]) <= 1e-6
        assert abs(primal.value.values[0] - shifted) <= 1e-6
        assert abs(dual.value.values[0] - shifted) <= 1e-6
        assert primal.residuals[0] <= 1e-10
        assert dual.residuals[0] <= 1e-10

    def test_power50_dual_command_converges(self, tmp_path, capsys):
        path = tmp_path / "scale.json"
        path.write_text(json.dumps({
            "states": [{"name": "lo", "prob": 0.5}, {"name": "hi", "prob": 0.5}],
            "atoms": [["lo", "hi"]],
            "positions": {"payoff": self.X},
        }))
        argv = ["dual", str(path), "--position", "payoff", "--divergence", "power:50",
                "--format", "json"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert abs(json.loads(out)["rows"][0]["value"] - 296702.85013532) <= 1e-6

    @pytest.mark.parametrize("top", [800.0, 1e6])
    def test_kl_beyond_exp_overflow_matches_entropic(self, top):
        # exp overflows in the slope once the payoff range passes about 709;
        # the overflowed slope counts as above the root
        space = uniform_space(2)
        g = Partition.trivial(2)
        x = RandomVariable([0.0, top])
        kl = builtin_generator("kl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            primal = oce_primal(space, g, kl, x)
            dual = oce_dual(space, g, kl, x)
        closed = entropic_risk(space, g, x).values[0]
        assert abs(closed - math.log(2.0)) <= 1e-12
        assert abs(primal.value.values[0] - closed) <= 1e-9
        assert abs(dual.value.values[0] - closed) <= 1e-9

    def test_kl_oce_command_beyond_exp_overflow(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "states": [{"name": "lo", "prob": 0.5}, {"name": "hi", "prob": 0.5}],
            "atoms": [["lo", "hi"]],
            "positions": {"payoff": [0.0, 800.0]},
        }))
        argv = ["oce", str(path), "--position", "payoff", "--divergence", "kl", "--format", "json"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert abs(json.loads(out)["rows"][0]["value"] - math.log(2.0)) <= 1e-9


class TestBruteForceOracle:
    def test_refuses_untrustworthy_grids(self):
        space = uniform_space(2)
        g = Partition.trivial(2)
        x = RandomVariable([0.0, 1.0])
        with pytest.raises(ValueError, match="at least 100"):
            dual_bruteforce(space, g, builtin_generator("kl"), x, grid_n=50)

    def test_refuses_large_atoms(self):
        space = uniform_space(4)
        g = Partition.trivial(4)
        x = RandomVariable([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at most 3"):
            dual_bruteforce(space, g, builtin_generator("kl"), x)

    def test_single_state_atom_is_exact(self):
        space = FiniteProbabilitySpace(["a", "b"], [0.5, 0.5])
        g = Partition.discrete(2)
        x = RandomVariable([1.25, -0.75])
        out = dual_bruteforce(space, g, builtin_generator("chi2"), x)
        np.testing.assert_allclose(out.values, x.values, rtol=0, atol=1e-12)

    def test_grid_minimum_brackets_the_solver(self):
        # the grid scans a subset of the feasible simplex, so it can only
        # overshoot the true minimum, and by at most O(1/grid_n)
        rng = np.random.default_rng(57)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            for _ in range(6):
                space, g, x = small_atom_instance(rng)
                dual = oce_dual(space, g, gen, x).value.values
                for grid_n in (100, 400):
                    bf = dual_bruteforce(space, g, gen, x, grid_n=grid_n).values
                    gap = bf - dual
                    assert np.all(gap >= -1e-8), (name, grid_n, gap)
                    assert np.all(gap <= 0.5 / grid_n), (name, grid_n, gap)

    def test_refining_the_grid_tightens_the_oracle(self):
        rng = np.random.default_rng(58)
        for name in BUILTIN_NAMES:
            gen = builtin_generator(name)
            worst = {}
            for grid_n in (100, 400):
                gaps = []
                inner = np.random.default_rng(59)  # same instances per grid
                for _ in range(6):
                    space, g, x = small_atom_instance(inner)
                    dual = oce_dual(space, g, gen, x).value.values
                    bf = dual_bruteforce(space, g, gen, x, grid_n=grid_n).values
                    gaps.append(float(np.max(bf - dual)))
                worst[grid_n] = max(gaps)
            assert worst[400] <= worst[100] + 1e-9, (name, worst)
