"""The three workloads: generated inputs, the program's set-up, one round.

Each workload turns its seed into inputs (the benchmark's work, untimed),
builds the program's objects from them in ``setup`` (timed as ``setup_s``),
and lists one round of operations.  A run repeats the same round, so every
round does the same work and checks the same answers.

Positions span exactly 1 on every atom, so each bisection runs the same
number of steps whatever the seed; atom sizes are a fixed multiset that the
seed only shuffles.  Together they make the traced call and iteration
counts independent of the seed.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from condrisk import cli, divergence, dual, niveloid, oce, probspace

from checks import TOL_AXIOM, TOL_CASH, TOL_DUAL, TOL_REF, Check, Segments, close, exact, parse_report

GENS = ("kl", "chi2", "power:2")


class OpFailed(Exception):
    """The operation did not produce an answer (non-zero exit)."""


@dataclass
class Op:
    """One timed call covering every atom of its space.

    ``run`` is timed; ``view`` turns its result into named arrays; ``checks``
    maps the answers of earlier operations (``seen``) to the checks this
    answer must pass.  The answer's ``value`` is stored in ``seen[key]``.
    """

    name: str
    atoms: int
    run: Callable[[], object]
    view: Callable[[object], dict]
    checks: Callable[[dict], list]
    key: object = None


def layout(rng, sizes):
    """Scatter atoms of the given sizes over the states.

    Returns the state -> atom label array and each atom's state indices.
    """
    sizes = rng.permutation(np.asarray(sizes))
    labels = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    order = np.argsort(labels, kind="stable")
    return labels, np.split(order, np.cumsum(sizes)[:-1])


def probabilities(rng, n):
    p = rng.uniform(0.5, 1.5, n)
    return p / p.sum()


def unit_range_position(rng, seg, level_scale=3.0):
    """Atom level plus a spread whose atom minimum is 0 and maximum 1."""
    u = rng.random(seg.labels.size)
    lo, hi = seg.min(u), seg.max(u)
    level = rng.normal(0.0, level_scale, seg.k)
    return level[seg.labels] + (u - lo[seg.labels]) / (hi - lo)[seg.labels]


def unit_density(rng, seg):
    """Random density with conditional mean one on every atom."""
    y = rng.uniform(0.5, 1.5, seg.labels.size)
    return y / seg.mean(y)[seg.labels]


def value_view(result):
    return {"value": result.value.values}


def plain_view(result):
    return {"value": result.values}


# ---------------------------------------------------------------------------


class CliFine:
    """Many small atoms in a JSON scenario, driven through ``condrisk.cli.main``."""

    name = "cli-fine"
    # (command, generator, position, format); a dual follows its primal and
    # a shifted position follows its base, so their relations can be checked
    ROUND = (
        ("oce", "kl", "payoff", "table"),
        ("dual", "kl", "payoff", "json"),
        ("oce", "chi2", "payoff", "csv"),
        ("dual", "chi2", "payoff", "table"),
        ("oce", "power:2", "payoff", "json"),
        ("dual", "power:2", "payoff", "csv"),
        ("gap", "kl", "payoff", "table"),
        ("gap", "chi2", "payoff", "json"),
        ("gap", "power:2", "payoff", "csv"),
        ("entropic", None, "payoff", "table"),
        ("entropic", None, "shifted", "json"),
        ("oce", "chi2", "shifted", "csv"),
        ("divergence", "kl", "measure", "table"),
        ("divergence", "chi2", "measure", "json"),
        ("divergence", "power:2", "measure", "csv"),
    )

    def __init__(self, seed, toy, workdir):
        rng = np.random.default_rng(seed)
        self.k = 12 if toy else 1000
        labels, atoms = layout(rng, np.resize(np.arange(6, 15), self.k))
        n = labels.size
        p = probabilities(rng, n)
        self.seg = Segments(labels, p)
        payoff = unit_range_position(rng, self.seg)
        self.shift = rng.uniform(-5.0, 5.0, self.k)
        self.positions = {"payoff": payoff, "shifted": payoff + self.shift[labels]}
        self.density = unit_density(rng, self.seg)
        names = [f"s{i}" for i in range(n)]
        doc = {
            "states": [{"name": s, "prob": float(q)} for s, q in zip(names, p)],
            "atoms": [[names[i] for i in a] for a in atoms],
            "positions": {
                "payoff": payoff.tolist(),
                "shifted": self.positions["shifted"].tolist(),
                "measure": (p * self.density).tolist(),
            },
        }
        self.path = os.path.join(workdir, "scenario.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def setup(self):
        return cli.load_scenario(self.path)

    def ops(self, scenario):
        # every command loads the scenario file itself, as the CLI does
        return [self._op(*spec) for spec in self.ROUND]

    def _op(self, command, gen, position, fmt):
        argv = [command, self.path, "--format", fmt]
        argv += ["--measure" if command == "divergence" else "--position", position]
        if gen is not None:
            argv += ["--divergence", gen]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def view(raw):
            code, text, err = raw
            if code != 0:
                raise OpFailed(f"exit {code}: {err.strip()}")
            values = parse_report(text, fmt)
            return {"rows": len(values), "value": np.array(values), "out_bytes": len(text.encode())}

        seg = self.seg
        static = [exact("one row per atom", "rows", self.k)]
        if command in ("oce", "dual", "entropic"):
            static += seg.oce_checks(gen or "kl", self.positions[position])
        elif command == "gap":
            static.append(Check("gap <= threshold", "value", 0.0, TOL_DUAL))
        else:
            static.append(close("E[phi(y)|A]", "value", seg.divergence(gen, self.density), TOL_REF))

        def checks(seen):
            out = list(static)
            if command == "dual":
                out.append(close("primal = dual", "value", seen[("oce", gen, position)], TOL_DUAL))
            if position == "shifted":
                base = seen[(command, gen, "payoff")]
                out.append(close("cash additivity", "value", base + self.shift, TOL_CASH))
            return out

        name = f"{command}:{gen or 'kl'}:{position}:{fmt}"
        return Op(name, self.k, run, view, checks, key=(command, gen, position))


# ---------------------------------------------------------------------------


@dataclass
class CoarseSpace:
    space: object
    g: object
    x: object
    shifted: object
    nu: object
    gens: dict


class LibCoarse:
    """A few very large atoms, solved through the library."""

    name = "lib-coarse"
    SIZES = (50, 75, 100, 125, 125, 150, 175, 200)  # thousands of states

    def __init__(self, seed, toy, workdir):
        rng = np.random.default_rng(seed)
        unit = 10 if toy else 1000
        self.labels, self.atoms = layout(rng, np.array(self.SIZES) * unit)
        n = self.labels.size
        self.k = len(self.SIZES)
        self.p = probabilities(rng, n)
        self.seg = Segments(self.labels, self.p)
        self.payoff = unit_range_position(rng, self.seg)
        self.shift = rng.uniform(-5.0, 5.0, self.k)
        self.shifted = self.payoff + self.shift[self.labels]
        self.density = unit_density(rng, self.seg)
        self.weights = self.p * self.density
        self.names = [f"s{i}" for i in range(n)]
        # references over 10^6 states are computed once, not per segment
        self.expected = {gen: self.seg.oce_checks(gen, self.payoff) for gen in GENS}
        self.expected_shifted = self.seg.oce_checks("power:2", self.shifted)
        self.expected_divergence = {
            gen: [close("E[phi(y)|A]", "value", self.seg.divergence(gen, self.density), TOL_REF)]
            for gen in GENS
        }

    def setup(self):
        return CoarseSpace(
            space=probspace.FiniteProbabilitySpace(self.names, self.p),
            g=probspace.Partition(self.atoms),
            x=probspace.RandomVariable(self.payoff),
            shifted=probspace.RandomVariable(self.shifted),
            nu=divergence.EquivalentConditionalMeasure(self.weights),
            gens={name: divergence.builtin_generator(name) for name in GENS},
        )

    def ops(self, c):
        k = self.k
        ops = []
        for gen in GENS:
            static = self.expected[gen]
            ops.append(Op(
                f"oce_primal:{gen}", k,
                lambda gen=gen: oce.oce_primal(c.space, c.g, c.gens[gen], c.x),
                value_view, lambda seen, s=static: s, key=("primal", gen),
            ))
            ops.append(Op(
                f"oce_dual:{gen}", k,
                lambda gen=gen: dual.oce_dual(c.space, c.g, c.gens[gen], c.x),
                value_view,
                lambda seen, s=static, gen=gen: s + [
                    close("primal = dual", "value", seen[("primal", gen)], TOL_DUAL)
                ],
            ))
        ops.append(Op(
            "entropic_risk", k, lambda: oce.entropic_risk(c.space, c.g, c.x),
            plain_view, lambda seen: self.expected["kl"],
        ))
        ops.append(Op(
            "oce_primal:power:2:shifted", k,
            lambda: oce.oce_primal(c.space, c.g, c.gens["power:2"], c.shifted),
            value_view,
            lambda seen: self.expected_shifted + [
                close("cash additivity", "value", seen[("primal", "power:2")] + self.shift, TOL_CASH)
            ],
        ))
        for gen in GENS:
            ops.append(Op(
                f"cond_divergence:{gen}", k,
                lambda gen=gen: divergence.cond_divergence(c.space, c.g, c.gens[gen], c.nu),
                plain_view, lambda seen, gen=gen: self.expected_divergence[gen],
            ))
        return ops


# ---------------------------------------------------------------------------


@dataclass
class SmallSpaces:
    space: object
    g: object
    x: object
    shifted: object
    iphi: dict
    entropic: object
    expectation: object
    penalty_space: object
    penalty_g: object
    penalty_op: object
    density: object


class Niveloid:
    """Small spaces through the niveloid machinery, one operator call per
    atom per search step."""

    name = "niveloid"
    SIZES = (2, 3, 4, 5, 6)  # repeated to 50 atoms, 200 states
    # The coordinate ascent in ``penalty`` runs a number of sweeps that
    # depends on the density, so its input is drawn from this fixed seed:
    # a seed-dependent density would move niveloid.op_evals between seeds.
    PENALTY_SEED = 20221109

    def __init__(self, seed, toy, workdir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.k = 3 if toy else 50
        self.samples = {"entropic": 2 if toy else 8, "expectation": 2 if toy else 50}
        labels, self.atoms = layout(rng, np.resize(self.SIZES, self.k))
        self.p = probabilities(rng, labels.size)
        self.seg = Segments(labels, self.p)
        self.payoff = unit_range_position(rng, self.seg)
        self.shift = rng.uniform(-5.0, 5.0, self.k)
        self.shifted = self.payoff + self.shift[labels]
        self.names = [f"s{i}" for i in range(labels.size)]

        prng = np.random.default_rng(self.PENALTY_SEED)
        plabels, self.penalty_atoms = layout(prng, (2, 2) if toy else (4, 4))
        self.penalty_p = probabilities(prng, plabels.size)
        pseg = Segments(plabels, self.penalty_p)
        self.penalty_y = unit_density(prng, pseg)
        self.penalty_ref = pseg.mean(self.penalty_y * np.log(self.penalty_y))

        # the variational formula's right-hand side, computed once up front
        c = self.setup()
        self.oce_ref = {
            gen: oce.oce_primal(c.space, c.g, divergence.builtin_generator(gen), c.x).value.values
            for gen in GENS
        }

    def setup(self):
        space = probspace.FiniteProbabilitySpace(self.names, self.p)
        g = probspace.Partition(self.atoms)
        pspace = probspace.FiniteProbabilitySpace(
            [f"t{i}" for i in range(self.penalty_p.size)], self.penalty_p
        )
        pg = probspace.Partition(self.penalty_atoms)
        return SmallSpaces(
            space=space,
            g=g,
            x=probspace.RandomVariable(self.payoff),
            shifted=probspace.RandomVariable(self.shifted),
            iphi={
                gen: niveloid.iphi_operator(space, g, divergence.builtin_generator(gen))
                for gen in GENS
            },
            entropic=niveloid.entropic_operator(space, g),
            expectation=niveloid.expectation_operator(space, g),
            penalty_space=pspace,
            penalty_g=pg,
            penalty_op=niveloid.entropic_operator(pspace, pg),
            density=divergence.ConditionalDensity(self.penalty_y),
        )

    def ops(self, c):
        seg, k = self.seg, self.k
        bracket = seg.oce_checks("kl", self.payoff)[1]
        ops = []
        for gen in GENS:
            want = [close("niveloidify = oce_primal", "value", self.oce_ref[gen], TOL_REF), bracket]
            ops.append(Op(
                f"niveloidify:iphi:{gen}", k,
                lambda gen=gen: niveloid.niveloidify(c.space, c.g, c.iphi[gen], c.x),
                plain_view, lambda seen, s=want: s, key=("niveloidify", gen),
            ))
        shifted_bracket = seg.oce_checks("kl", self.shifted)[1]
        ops.append(Op(
            "niveloidify:iphi:kl:shifted", k,
            lambda: niveloid.niveloidify(c.space, c.g, c.iphi["kl"], c.shifted),
            plain_view,
            lambda seen: [
                close("cash additivity", "value", seen[("niveloidify", "kl")] + self.shift, TOL_CASH),
                shifted_bracket,
            ],
        ))
        for which in ("entropic", "expectation"):
            ops.append(Op(
                f"check_niveloid_axioms:{which}", k,
                lambda which=which: niveloid.check_niveloid_axioms(
                    c.space, c.g, getattr(c, which), samples=self.samples[which], seed=self.seed
                ),
                lambda report: {"violation": [a.max_violation for a in report.checks]},
                lambda seen: [Check("axioms hold", "violation", 0.0, TOL_AXIOM)],
            ))
        want_penalty = [close("penalty = E[y log y|A]", "value", self.penalty_ref, TOL_REF)]
        ops.append(Op(
            "penalty:entropic", len(self.penalty_atoms),
            lambda: niveloid.penalty(c.penalty_space, c.penalty_g, c.penalty_op, c.density),
            plain_view, lambda seen: want_penalty,
        ))
        return ops


WORKLOADS = {w.name: w for w in (CliFine, LibCoarse, Niveloid)}
