"""End-to-end acceptance checks for the package as a whole.

Each test here covers one numbered guarantee from the project contract and
is named so that ``pytest -v`` produces exactly one pass/fail line per
guarantee.  On success every test also prints the measured worst case next
to its tolerance (visible under ``pytest -sv``), so the suite doubles as a
numerical health report.

The module tests exercise the same machinery piece by piece; this file
runs the cross-module checks at full scale: primal/dual agreement as the
built-in verification oracle, the variational form of the divergence, the
niveloid completion against an independent grid search, and the exact
lattice identities the conditional constructions lean on.
"""

import time

import numpy as np
import pytest

from condrisk import (
    ConditionalDensity,
    ConditionalValue,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    builtin_generator,
    cond_divergence,
    cond_expectation,
    cond_expectation_under,
    cond_sup_norm,
    density_to_measure,
    donsker_varadhan_value,
    duality_gap,
    dv_optimal_argument,
    embed,
    entropic_risk,
    iphi_operator,
    measure_to_density,
    niveloidify,
    numeric_conjugate,
    oce_dual,
    oce_primal,
)
from condrisk.oce import DEFAULT_TOL

from conftest import (
    BUILTIN_NAMES,
    random_density,
    random_instance,
    random_measure,
    searched_generator,
)
from oracles import niveloidify_bruteforce


def _report(line: str) -> None:
    print("\n" + line)


def test_criterion_01_strong_duality_all_generators():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for name in BUILTIN_NAMES:
        gen = builtin_generator(name)
        for _ in range(100):
            space, g, x = random_instance(rng)
            gap = duality_gap(space, g, gen, x).value.values
            worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    _report(
        "criterion 01 strong duality: PASS "
        f"(worst per-atom |primal-dual| {worst:.3e} <= 1e-6 over 400 instances, "
        f"{elapsed:.2f}s < 5s)"
    )


def test_criterion_02_entropic_triple_agreement():
    # entropic_risk shares its log-sum-exp with the built-in KL multiplier,
    # so the searched KL is what makes it an independent check
    rng = np.random.default_rng(102)
    gen = searched_generator("kl")
    worst = 0.0
    for _ in range(100):
        space, g, x = random_instance(rng)
        primal = oce_primal(space, g, gen, x).value.values
        dual = oce_dual(space, g, gen, x).value.values
        closed = entropic_risk(space, g, x).values
        worst = max(
            worst,
            float(np.max(np.abs(primal - dual))),
            float(np.max(np.abs(primal - closed))),
            float(np.max(np.abs(dual - closed))),
        )
    assert worst <= 1e-8
    _report(
        "criterion 02 entropic triple: PASS "
        f"(worst pairwise disagreement {worst:.3e} <= 1e-8 over 100 instances)"
    )


def test_criterion_03_variational_form_attained_and_never_exceeded():
    rng = np.random.default_rng(103)
    worst_attain = 0.0
    worst_excess = -np.inf
    for name in BUILTIN_NAMES:
        gen = builtin_generator(name)
        for _ in range(50):
            space, g, _ = random_instance(rng)
            nu = random_measure(rng, space, g)
            div = cond_divergence(space, g, gen, nu).values
            z_star = dv_optimal_argument(space, g, gen, nu)
            attained = donsker_varadhan_value(space, g, gen, nu, z_star).values
            worst_attain = max(worst_attain, float(np.max(np.abs(attained - div))))
            for _ in range(20):
                z = RandomVariable(rng.uniform(-4.0, 4.0, space.num_states))
                val = donsker_varadhan_value(space, g, gen, nu, z).values
                worst_excess = max(worst_excess, float(np.max(val - div)))
    assert worst_attain <= 1e-6
    assert worst_excess <= 1e-10
    _report(
        "criterion 03 variational form: PASS "
        f"(optimizer off by {worst_attain:.3e} <= 1e-6; "
        f"worst excess over the divergence {worst_excess:.3e} <= 1e-10 "
        "across 1000 random arguments per generator)"
    )


def test_criterion_04_change_of_measure_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        space, g, x = random_instance(rng)
        y = random_density(rng, space, g)
        nu = density_to_measure(space, g, y)
        under = cond_expectation_under(space, g, nu, x).values
        weighted = cond_expectation(
            space, g, RandomVariable(x.values * y.values)
        ).values
        worst = max(worst, float(np.max(np.abs(under - weighted))))
    assert worst <= 1e-12
    _report(
        "criterion 04 change of measure: PASS "
        f"(worst |E_nu[x|G] - E[x*y|G]| {worst:.3e} <= 1e-12 over 200 pairs)"
    )


def test_criterion_05_value_map_shape_properties():
    rng = np.random.default_rng(105)
    tol = 1e-10
    slack = 2.0 * tol
    worst = dict(translation=0.0, monotonicity=0.0, concavity=0.0, lipschitz=0.0)
    for k in range(100):
        gen = builtin_generator(BUILTIN_NAMES[k % len(BUILTIN_NAMES)])
        space, g, x = random_instance(rng)
        n = space.num_states
        vx = oce_primal(space, g, gen, x, tol=tol).value.values

        c = ConditionalValue(rng.uniform(-3.0, 3.0, g.num_atoms))
        shifted = oce_primal(space, g, gen, x + embed(g, c), tol=tol).value.values
        worst["translation"] = max(
            worst["translation"], float(np.max(np.abs(shifted - (vx + c.values))))
        )

        above = RandomVariable(x.values + rng.uniform(0.0, 2.0, n))
        v_above = oce_primal(space, g, gen, above, tol=tol).value.values
        worst["monotonicity"] = max(worst["monotonicity"], float(np.max(vx - v_above)))

        other = RandomVariable(rng.uniform(-5.0, 5.0, n))
        v_other = oce_primal(space, g, gen, other, tol=tol).value.values
        lam = ConditionalValue(rng.uniform(0.0, 1.0, g.num_atoms))
        lam_rv = embed(g, lam)
        one_minus = embed(g, ConditionalValue(1.0 - lam.values))
        v_mix = oce_primal(
            space, g, gen, lam_rv * x + one_minus * other, tol=tol
        ).value.values
        chord = lam.values * vx + (1.0 - lam.values) * v_other
        worst["concavity"] = max(worst["concavity"], float(np.max(chord - v_mix)))

        dist = cond_sup_norm(space, g, x - other).values
        worst["lipschitz"] = max(
            worst["lipschitz"], float(np.max(np.abs(vx - v_other) - dist))
        )
    assert all(v <= slack for v in worst.values()), worst
    measured = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report(
        "criterion 05 value map shape: PASS "
        f"(worst violations {measured}, all <= 2*tol = {slack:.1e}, "
        "100 instances per property)"
    )


def test_criterion_06_niveloid_completion_matches_grid_search():
    rng = np.random.default_rng(2026)
    worst_ratio = 0.0
    worst_order = 0.0
    for k in range(20):
        n = int(rng.integers(2, 4))
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], probs)
        if k % 7 == 0 and n == 3:
            g = Partition.discrete(3)
        elif n == 3 and int(rng.integers(0, 2)) == 1:
            g = Partition([[0, 2], [1]])
        else:
            g = Partition.trivial(n)
        x = RandomVariable(rng.uniform(-2.0, 2.0, n))
        gen = builtin_generator(BUILTIN_NAMES[k % len(BUILTIN_NAMES)])
        op = iphi_operator(space, g, gen)
        grid = 5 if (space.num_states + g.num_atoms) >= 6 else 7

        niv = niveloidify(space, g, op, x).values
        by_order = {
            order: niveloidify_bruteforce(space, g, op, x, grid=grid, order=order).values
            for order in ("y_then_a", "a_then_y")
        }
        worst_order = max(
            worst_order,
            float(np.max(np.abs(by_order["y_then_a"] - by_order["a_then_y"]))),
        )
        for i, idx in enumerate(g.index_arrays()):
            span = float(x.values[idx].max() - x.values[idx].min()) + 2.0
            resolution = span / (grid - 1)
            for bf in by_order.values():
                assert bf[i] <= niv[i] + 1e-8
                worst_ratio = max(worst_ratio, abs(niv[i] - bf[i]) / resolution)
    assert worst_ratio <= 1.0
    assert worst_order <= 1e-9
    _report(
        "criterion 06 niveloid completion vs grid search: PASS "
        f"(worst |completion - grid|/resolution {worst_ratio:.3f} <= 1, "
        f"orderings differ by {worst_order:.1e} <= 1e-9, 20 instances)"
    )


def test_criterion_07_numeric_conjugate_matches_closed_forms():
    grid = np.linspace(-10.0, 10.0, 1000)
    worst = 0.0
    for name in BUILTIN_NAMES:
        gen = builtin_generator(name)
        numeric = np.asarray(numeric_conjugate(gen, grid), dtype=float)
        closed = np.asarray(gen.phi_star(grid), dtype=float)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    assert worst <= 1e-8
    _report(
        "criterion 07 numeric conjugate: PASS "
        f"(worst |numeric - closed form| {worst:.3e} <= 1e-8 on a "
        "1000-point grid per generator)"
    )


def test_criterion_08_primal_shift_equals_dual_multiplier():
    rng = np.random.default_rng(108)
    worst = 0.0
    for name in BUILTIN_NAMES:
        gen = builtin_generator(name)
        for _ in range(100):
            space, g, x = random_instance(rng)
            primal = oce_primal(space, g, gen, x)
            dual = oce_dual(space, g, gen, x)
            worst = max(
                worst,
                float(
                    np.max(np.abs(primal.multiplier.values - dual.multiplier.values))
                ),
            )
    assert worst <= 1e-8
    _report(
        "criterion 08 optimal shift vs multiplier: PASS "
        f"(worst per-atom difference {worst:.3e} <= 1e-8 over 400 instances)"
    )


def test_criterion_09_density_measure_round_trips():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(200):
        space, g, _ = random_instance(rng)

        y = random_density(rng, space, g)
        back = measure_to_density(space, g, density_to_measure(space, g, y))
        worst = max(worst, float(np.max(np.abs(back.values - y.values))))

        nu = random_measure(rng, space, g)
        again = density_to_measure(space, g, measure_to_density(space, g, nu))
        worst = max(worst, float(np.max(np.abs(again.weights - nu.weights))))
    assert worst <= 1e-12
    _report(
        "criterion 09 density/measure round trips: PASS "
        f"(worst coordinate error {worst:.3e} <= 1e-12 over 200 draws, "
        "both directions)"
    )


def test_criterion_10_lattice_identities_hold_exactly():
    rng = np.random.default_rng(110)
    atol = 1e-12

    def family(k, size):
        return [ConditionalValue(rng.uniform(-5.0, 5.0, k)) for _ in range(size)]

    def sup(fam):
        return np.max(np.stack([cv.values for cv in fam]), axis=0)

    for _ in range(1000):
        k = int(rng.integers(1, 6))
        fam = family(k, int(rng.integers(1, 6)))
        other = family(k, int(rng.integers(1, 6)))

        # sup commutes with translation by a fixed element.
        x = ConditionalValue(rng.uniform(-5.0, 5.0, k))
        np.testing.assert_allclose(
            sup([x + cv for cv in fam]), x.values + sup(fam), rtol=0, atol=atol
        )

        # sup of sums over the product family splits into a sum of sups.
        sums = [a + b for a in fam for b in other]
        np.testing.assert_allclose(
            sup(sums), sup(fam) + sup(other), rtol=0, atol=atol
        )

        # pointwise domination is inherited by the sup.
        dominated = [
            ConditionalValue(cv.values - rng.uniform(0.0, 2.0, k)) for cv in fam
        ]
        assert np.all(sup(dominated) <= sup(fam) + atol)

        # ...and by the inf-of-sup of a two-index table.
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        table = rng.uniform(-5.0, 5.0, (rows, cols, k))
        bigger = table + rng.uniform(0.0, 2.0, (rows, cols, k))
        inf_sup = np.min(np.max(table, axis=0), axis=0)
        inf_sup_bigger = np.min(np.max(bigger, axis=0), axis=0)
        assert np.all(inf_sup <= inf_sup_bigger + atol)

        # sup of infs never beats inf of sups.
        sup_inf = np.max(np.min(table, axis=1), axis=0)
        assert np.all(sup_inf <= inf_sup + atol)

        # nonnegative factors move through the sup.
        a = ConditionalValue(rng.uniform(0.0, 3.0, k))
        np.testing.assert_allclose(
            sup([a * cv for cv in fam]), a.values * sup(fam), rtol=0, atol=atol
        )
    _report(
        "criterion 10 lattice identities: PASS "
        "(translation, product splitting, domination, inf-sup domination, "
        f"minimax, scalar factoring all within {atol:.0e} over 1000 families)"
    )


def _nested_partitions(rng, n, k_fine, k_coarse):
    """A fine partition of k_fine atoms of scattered states, and a coarse one
    of k_coarse atoms, each a union of fine atoms."""

    def cuts(m, k):
        return np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False))

    fine = np.split(rng.permutation(n), cuts(n, k_fine))
    groups = np.split(rng.permutation(k_fine), cuts(k_fine, k_coarse))
    coarse = [np.concatenate([fine[i] for i in group]) for group in groups]
    return Partition(fine), Partition(coarse)


def test_criterion_12_entropic_and_kl_towers():
    # The entropic risk is time consistent: computed at a fine partition G2,
    # then at a coarse G1 within it, it equals its value computed at G1
    # directly.  Rounding separates the two, and for the searched KL the
    # search, which moves a value by O(tol**2) only, so the bound is a few
    # ulps of the value; the largest gap measured is 1.8e-15, 4e-16 relative.
    rng = np.random.default_rng(112)
    rel = 1e-14

    def oce(gen):
        return lambda space, g, x: oce_primal(space, g, gen, x).value

    maps = {
        "kl": oce(builtin_generator("kl")),
        "kl searched": oce(searched_generator("kl")),
        "entropic": entropic_risk,
        "chi2": oce(builtin_generator("chi2")),
    }
    start = time.perf_counter()
    worst = 0.0
    sizes = [(10, 5, 2), (100, 30, 4), (1000, 200, 20), (10_000, 1000, 100)] * 3
    for n, k_fine, k_coarse in sizes + [(100_000, 10_000, 1000)]:
        space = FiniteProbabilitySpace([f"s{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
        g2, g1 = _nested_partitions(rng, n, k_fine, k_coarse)
        x = RandomVariable(3.0 * rng.normal(size=n))
        gaps = {}
        for name, value in maps.items():
            direct = value(space, g1, x).values
            composed = value(space, g1, embed(g2, value(space, g2, x))).values
            gaps[name] = np.abs(composed - direct) / (1.0 + np.abs(direct))
        for name in ("kl", "kl searched", "entropic"):
            assert np.all(gaps[name] <= rel), (n, name, float(gaps[name].max()))
            worst = max(worst, float(gaps[name].max()))
    elapsed = time.perf_counter() - start
    # chi2 is not time consistent (only the entropic risk is, among
    # law-invariant maps): its tower gap is expected, and it shows that the
    # check tells a time-inconsistent map apart
    chi2_gap = float(gaps["chi2"].max())
    assert chi2_gap > 1e-3
    _report(
        "criterion 12 entropic and KL towers: PASS "
        f"(worst |composed - direct| / (1 + |direct|) {worst:.3e} <= {rel:.0e} over "
        f"{len(sizes) + 1} nested pairs up to 1e5 states, {elapsed:.2f}s; chi2, time "
        f"inconsistent, misses its tower by {chi2_gap:.2f} at 1e5 states)"
    )


# Criterion 13 runs on single 10-state atoms of one instance: the first four
# of 1000 atoms of 10 consecutive states, and atom 491, whose steep power
# duality gap is the largest.  power:50 puts the multiplier of atoms 2, 3 and
# 491 within one ulp of the kink of phi_star', where no float multiplier
# gives a feasible density.
GRADIENT_ATOMS = (0, 1, 2, 3, 491)
GRADIENT_GENS = BUILTIN_NAMES + ("power:10", "power:50")
KINKED = {("power:50", 2), ("power:50", 3), ("power:50", 491)}
FD_STEP = 1e-6


def _gradient_error(name, atom):
    """max_s |central difference of the primal value in x_s - w_s y_s| on one
    atom of item 1's instance, and the bound it must meet."""
    rng = np.random.default_rng(1)
    x = 3.0 * rng.normal(size=10_000)
    p = rng.dirichlet(np.ones(10_000))
    states = slice(10 * atom, 10 * atom + 10)
    w = p[states] / p[states].sum()
    space = FiniteProbabilitySpace([f"s{i}" for i in range(10)], w)
    g = Partition([list(range(10))])
    gen = builtin_generator(name)
    x = x[states]
    solved = oce_dual(space, g, gen, RandomVariable(x))
    bumps = FD_STEP * np.eye(10)
    up = [oce_primal(space, g, gen, RandomVariable(x + e)).value.values[0] for e in bumps]
    down = [oce_primal(space, g, gen, RandomVariable(x - e)).value.values[0] for e in bumps]
    fd = (np.array(up) - np.array(down)) / (2.0 * FD_STEP)
    error = float(np.max(np.abs(fd - space.probs * solved.density.values)))
    # Envelope theorem: d value / d x_s = w_s y_s.  The search leaves the
    # density within DEFAULT_TOL of its value at the exact multiplier and
    # moves the primal value by O(tol**2) only, since the value is stationary
    # there.  Each primal value a - E[phi_star(a - x)] carries a rounding
    # error of at most (10 + 2) ulps of |a| + E|phi_star(a - x)|, which the
    # difference divides by FD_STEP.  The O(FD_STEP**2) truncation is left
    # out: the healthy pairs read at most 4.9e-10, 0.05 of the bound.
    a = solved.multiplier.values[0]
    scale = abs(a) + float(w @ np.abs(gen.phi_star(a - x)))
    bound = DEFAULT_TOL + 12 * np.finfo(float).eps * scale / FD_STEP
    return error, bound


def test_criterion_13_density_is_the_gradient():
    worst, share = 0.0, 0.0
    for name in GRADIENT_GENS:
        for atom in GRADIENT_ATOMS:
            if (name, atom) in KINKED:
                continue
            error, bound = _gradient_error(name, atom)
            assert error <= bound, (name, atom, error, bound)
            worst, share = max(worst, error), max(share, error / bound)
    _report(
        "criterion 13 density is the gradient: PASS "
        f"(worst |central difference - w y| {worst:.3e}, at most {share:.2f} of its bound, over "
        f"{len(GRADIENT_GENS) * len(GRADIENT_ATOMS) - len(KINKED)} generator-atom pairs)"
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the multiplier of a steep power generator can lie within one ulp of the "
    "kink of phi_star' at the top payoff, where no float multiplier gives a feasible "
    "density (ROADMAP item 1)",
)
@pytest.mark.parametrize("name, atom", sorted(KINKED))
def test_criterion_13_density_is_the_gradient_at_a_kink(name, atom):
    error, bound = _gradient_error(name, atom)
    assert error <= bound, (name, atom, error, bound)
