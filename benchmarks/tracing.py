"""Per-layer tracing from outside the package.

``Tracer.install`` replaces condrisk's public functions, in every condrisk
module that imported them, with wrappers that time and count each call, and
wraps the callables the package is handed: the fields of each
``DivergenceGenerator`` that ``builtin_generator`` returns and the
``evaluate`` of the stock operators the workloads use.  Nothing under ``src/``
changes; ``uninstall`` puts the originals back.

Times are inclusive: ``scalar_opt.search_s`` contains the objective calls
made by the searches.  ``cli.self_s`` is ``cli.main`` minus the traced calls
made directly from it (loading, solving, generator look-up).
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import condrisk
from condrisk import divergence, niveloid, probspace

# per-layer metric -> unit; the order is the order of the report
METRICS = {
    "cli.main_s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "probspace.space_s": "s",
    "probspace.partition_s": "s",
    "probspace.reduce_s": "s",
    "probspace.reduce_calls": "count",
    "divergence.slope_calls": "count",
    "divergence.slope_elems": "count",
    "divergence.conj_calls": "count",
    "divergence.cond_divergence_s": "s",
    "scalar_opt.search_calls": "count",
    "scalar_opt.search_s": "s",
    "oce.primal_s": "s",
    "oce.primal_iters": "count",
    "oce.entropic_s": "s",
    "oce.i_phi_calls": "count",
    "dual.dual_s": "s",
    "dual.iters": "count",
    "niveloid.niveloidify_s": "s",
    "niveloid.axioms_s": "s",
    "niveloid.penalty_s": "s",
    "niveloid.op_evals": "count",
}

# (defining module, public function, time metric, call-count metric)
SPANS = (
    ("cli", "main", "cli.main_s", None),
    ("cli", "load_scenario", "cli.load_s", None),
    ("probspace", "cond_expectation", "probspace.reduce_s", "probspace.reduce_calls"),
    ("probspace", "cond_sup_norm", "probspace.reduce_s", "probspace.reduce_calls"),
    ("probspace", "embed", "probspace.reduce_s", "probspace.reduce_calls"),
    ("divergence", "cond_divergence", "divergence.cond_divergence_s", None),
    ("scalar_opt", "bisect_nondecreasing", "scalar_opt.search_s", "scalar_opt.search_calls"),
    ("scalar_opt", "golden_section_max", "scalar_opt.search_s", "scalar_opt.search_calls"),
    ("scalar_opt", "expand_bracket_max", "scalar_opt.search_s", "scalar_opt.search_calls"),
    ("oce", "oce_primal", "oce.primal_s", None),
    ("oce", "entropic_risk", "oce.entropic_s", None),
    ("oce", "i_phi", None, "oce.i_phi_calls"),
    ("dual", "oce_dual", "dual.dual_s", None),
    ("niveloid", "niveloidify", "niveloid.niveloidify_s", None),
    ("niveloid", "check_niveloid_axioms", "niveloid.axioms_s", None),
    ("niveloid", "penalty", "niveloid.penalty_s", None),
)
CONSTRUCTORS = (
    (probspace.FiniteProbabilitySpace, "probspace.space_s"),
    (probspace.Partition, "probspace.partition_s"),
)
ITERATIONS = {"oce_primal": "oce.primal_iters", "oce_dual": "dual.iters"}
OPERATOR_FACTORIES = ("expectation_operator", "entropic_operator", "iphi_operator")
CLI_MAIN = "cli.main_s"


def _modules():
    return [condrisk] + [m for n, m in sys.modules.items() if n.startswith("condrisk.")]


class Tracer:
    """Accumulates per-layer times and counts while installed."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._stack = []
        self._undo = []

    def take(self):
        """Return the totals gathered since the last call and start afresh."""
        out, self.totals = self.totals, defaultdict(float)
        return out

    def add(self, metric, amount):
        self.totals[metric] += amount

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, time_key, count_key, iters_key=None):
        def traced(*args, **kwargs):
            if count_key is not None:
                self.totals[count_key] += 1
            if time_key is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(time_key)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.totals[time_key] += dt
                if parent == CLI_MAIN:
                    self.totals["_main_children"] += dt
            if iters_key is not None:
                self.totals[iters_key] += sum(out.iterations)
            return out

        return traced

    def _counted(self, fn, calls_key, elems_key=None):
        def counted(arg):
            self.totals[calls_key] += 1
            if elems_key is not None:
                self.totals[elems_key] += np.size(arg)
            return fn(arg)

        return counted

    def _generator(self, gen):
        return dataclasses.replace(
            gen,
            phi_star=self._counted(gen.phi_star, "divergence.conj_calls"),
            phi_star_prime=self._counted(
                gen.phi_star_prime, "divergence.slope_calls", "divergence.slope_elems"
            ),
        )

    def _operator(self, op):
        return dataclasses.replace(op, evaluate=self._counted(op.evaluate, "niveloid.op_evals"))

    # -- installation -----------------------------------------------------

    def _replace(self, original, replacement):
        for module in _modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement)

    def install(self):
        for modname, fname, time_key, count_key in SPANS:
            fn = getattr(importlib.import_module(f"condrisk.{modname}"), fname)
            self._replace(fn, self._span(fn, time_key, count_key, ITERATIONS.get(fname)))
        for cls, time_key in CONSTRUCTORS:
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._span(cls.__init__, time_key, None)
        build = divergence.builtin_generator
        # timed under a key of its own so that cli.self_s excludes it
        self._replace(build, self._span(lambda spec: self._generator(build(spec)), "_lookup_s", None))
        for fname in OPERATOR_FACTORIES:
            make = getattr(niveloid, fname)
            self._replace(make, lambda *a, _make=make, **k: self._operator(_make(*a, **k)))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    @staticmethod
    def report(setup, setups, rounds, per_round):
        """Per-layer metrics: one set-up plus one round of operations.

        ``setup`` and ``per_round`` hold the totals over ``setups`` set-ups and
        ``rounds`` rounds.  Counts come out as integers whenever every set-up
        and every round did the same work.
        """
        out = {}
        for metric, unit in METRICS.items():
            if metric == "cli.self_s":
                parts = [
                    (t.get("cli.main_s", 0.0) - t.get("_main_children", 0.0), n)
                    for t, n in ((setup, setups), (per_round, rounds))
                ]
            else:
                parts = [(setup.get(metric, 0.0), setups), (per_round.get(metric, 0.0), rounds)]
            value = sum(total / n for total, n in parts)
            if unit != "s" and all(float(total).is_integer() and total % n == 0 for total, n in parts):
                value = int(sum(int(total) // n for total, n in parts))
            out[metric] = {"value": value, "unit": unit}
        return out
