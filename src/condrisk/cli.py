"""Command-line interface over JSON scenario files.

A scenario file describes one finite probability space, one partition, and
any number of named positions::

    {
      "states": [{"name": "up", "prob": 0.5}, {"name": "down", "prob": 0.5}],
      "atoms": [["up", "down"]],
      "positions": {"payoff": [0.0, 1.386294]}
    }

Commands: ``oce`` and ``dual`` (primal / dual certainty equivalents,
:func:`condrisk.oce.oce_primal` and :func:`condrisk.dual.oce_dual`), ``gap``
(:func:`condrisk.dual.duality_gap`: |primal - dual| at the shared multiplier,
the built-in self check), ``entropic`` (closed form for the relative-entropy
generator), ``divergence`` (conditional phi-divergence of a measure supplied
as a positions-style weight vector) and ``check`` (niveloid axiom sampling
for a named operator).  Each command parses the scenario, calls one public
function of the library and prints one row per atom (per axiom for
``check``).

Exit codes: 0 success, 2 input or usage errors, 3 a solver missed its
tolerance, 4 the duality gap exceeded its threshold.  A malformed scenario
is reported by its first offending entry in document order (states, then
atoms, then positions).  Exit 2 covers numbers outside float range too: an
integer such as 1 followed by 400 zeros reads as the literal 1e400 would,
as an infinity, which no probability or position may hold.

Reports go to stdout as an aligned table, JSON, or CSV; identical
invocations produce byte-identical output.  Each command takes only the
options it reads (see ``COMMANDS``); ``oce``, ``dual`` and ``gap`` read
``--tol``, and without it use their command's default,
:data:`condrisk.oce.DEFAULT_TOL` or the gap threshold ``DEFAULT_GAP_TOL``.
"""

from __future__ import annotations

import argparse
import collections
import csv
import io
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergence import EquivalentConditionalMeasure, builtin_generator, cond_divergence
from .dual import duality_gap, oce_dual
from .niveloid import (
    atom_min_operator,
    check_niveloid_axioms,
    entropic_operator,
    expectation_operator,
    iphi_operator,
    squared_expectation_operator,
)
from .oce import DEFAULT_TOL, entropic_risk, oce_primal
from .probspace import FiniteProbabilitySpace, Partition, RandomVariable
from .scalar_opt import SolverError

__all__ = ["ScenarioError", "Scenario", "load_scenario", "main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESIDUAL = 3
EXIT_GAP = 4

DEFAULT_GAP_TOL = 1e-6

COLUMNS = ("atom", "quantity", "value", "residual", "iterations", "note")

# the operators ``check`` builds from (space, partition) alone, by name
OPERATORS = {
    "expectation": expectation_operator,
    "entropic": entropic_operator,
    "min": atom_min_operator,
    "sq-expectation": squared_expectation_operator,
}
OPERATOR_NAMES = ", ".join([*OPERATORS, "iphi:<generator>"])


class ScenarioError(ValueError):
    """The scenario file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    space: FiniteProbabilitySpace
    partition: Partition
    positions: dict
    raw: dict


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError with the
    offending field spelled out."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=_parse_int)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario file {path!r} is not valid JSON: {e}") from None
    return parse_scenario(raw)


def _parse_int(s: str):
    """int(s), or float(s) for an integer literal too long for Python to
    convert (an infinity, as the literal 1e5000 would read)."""
    try:
        return int(s)
    except ValueError:
        return float(s)


def _floats(values: list) -> np.ndarray:
    """``values`` as floats, in one conversion.  An integer beyond float
    range reads as the literal 1e400 (or -1e400) would: an infinity, which
    the finiteness checks then reject."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        out = []
        for v in values:
            try:
                out.append(float(v))
            except OverflowError:
                out.append(math.inf if v > 0 else -math.inf)
        return np.array(out)


def parse_scenario(raw) -> Scenario:
    """Validate a decoded scenario and build its space, partition and positions.

    Each list is typed and converted in one pass.  A loop over its entries
    runs only when that check fails, and only to name the first offending
    entry; entries of subclasses of the JSON types pass it, and the list is
    then converted as any other.  So a malformed scenario reports its first
    fault in document order: each state entry (object and keys, then name,
    then prob), duplicate names, the probabilities, each atom (list and
    nonempty, then members in order), the cover (a state named twice, then
    the states left out), then each position in key order (list and length,
    entries, finiteness).
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    states = raw.get("states")
    if not isinstance(states, list) or not states:
        raise ScenarioError("'states' must be a nonempty list of {name, prob} objects")
    names, probs = _states(states)
    index = dict(zip(names, range(len(names))))
    if len(index) != len(names):
        dupes = sorted(n for n, k in collections.Counter(names).items() if k > 1)
        raise ScenarioError(f"duplicate state names: {dupes}")
    try:
        space = FiniteProbabilitySpace(names, probs)
    except ValueError as e:
        raise ScenarioError(f"bad state probabilities: {e}") from None

    atoms_raw = raw.get("atoms")
    if not isinstance(atoms_raw, list) or not atoms_raw:
        raise ScenarioError("'atoms' must be a nonempty list of state-name lists")
    partition = Partition(_atoms(atoms_raw, index))

    positions_raw = raw.get("positions", {})
    if not isinstance(positions_raw, dict):
        raise ScenarioError("'positions' must be an object mapping labels to value lists")
    positions = {}
    for label, values in positions_raw.items():
        if not isinstance(values, list) or len(values) != len(names):
            raise ScenarioError(
                f"position {label!r} must list one value per state ({len(names)} values)"
            )
        values = _position_values(label, values)
        try:
            positions[label] = RandomVariable(values)
        except ValueError as e:
            raise ScenarioError(f"position {label!r}: {e}") from None
    return Scenario(space=space, partition=partition, positions=positions, raw=raw)


# the types a JSON number decodes to; bool, an int subclass, is not a number here
_NUMBERS = {float, int}


def _states(states: list):
    """The state names and probabilities of a nonempty list of state entries."""
    try:
        names = list(map(operator.itemgetter("name"), states))
        probs = list(map(operator.itemgetter("prob"), states))
    except (LookupError, TypeError):  # an entry that is no object or lacks a key,
        names = probs = [None]  # which the loop names
    if not (set(map(type, states)) <= {dict} and set(map(type, names)) <= {str}
            and all(names) and set(map(type, probs)) <= _NUMBERS):
        _state_faults(states)
    return names, _floats(probs)


def _state_faults(states: list) -> None:
    """Raise ScenarioError at the first malformed state entry, if any."""
    for pos, entry in enumerate(states):
        if not isinstance(entry, dict) or "name" not in entry or "prob" not in entry:
            raise ScenarioError(f"states[{pos}] must be an object with 'name' and 'prob'")
        name = entry["name"]
        prob = entry["prob"]
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"states[{pos}].name must be a nonempty string")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise ScenarioError(f"states[{pos}].prob must be a number, got {prob!r}")


def _atoms(atoms_raw: list, index: dict):
    """Each atom's state indices, looked up by name in ``index``, once they
    are found to cover every state of ``index`` exactly once."""
    members = itertools.chain.from_iterable
    if not (set(map(type, atoms_raw)) <= {list} and all(atoms_raw)
            and set(map(type, members(atoms_raw))) <= {str}):
        _atom_faults(atoms_raw, index)
    try:
        order = np.fromiter(map(index.__getitem__, members(atoms_raw)), np.intp)
    except KeyError:  # an unknown name, which the loop names
        _atom_faults(atoms_raw, index)
        raise
    counts = np.bincount(order, minlength=len(index))
    if counts.max() > 1:
        raise ScenarioError("bad atoms: atoms must be pairwise disjoint")
    if not counts.all():  # name the first five states left out
        names, missing = list(index), np.flatnonzero(counts == 0)
        head = ", ".join(repr(names[i]) for i in missing[:5])
        raise ScenarioError(
            f"bad atoms: they leave out {missing.size} of {len(names)} states "
            f"({head}{', ...' if missing.size > 5 else ''}); "
            "every state must appear in exactly one atom"
        )
    bounds = itertools.accumulate(map(len, atoms_raw), initial=0)
    return [order[lo:hi] for lo, hi in itertools.pairwise(bounds)]


def _atom_faults(atoms_raw: list, index: dict) -> None:
    """Raise ScenarioError at the first malformed atom or unknown member, if any."""
    for pos, atom in enumerate(atoms_raw):
        if not isinstance(atom, list) or not atom:
            raise ScenarioError(f"atoms[{pos}] must be a nonempty list of state names")
        for member in atom:
            if not isinstance(member, str) or member not in index:
                raise ScenarioError(f"atoms[{pos}] names unknown state {member!r}")


def _position_values(label, values: list) -> np.ndarray:
    """The entries of position ``label`` as floats."""
    if not set(map(type, values)) <= _NUMBERS:
        for j, v in enumerate(values):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ScenarioError(f"position {label!r} entry {j} must be a number, got {v!r}")
    return _floats(values)


def _get_position(scenario: Scenario, label: str) -> RandomVariable:
    if label not in scenario.positions:
        known = ", ".join(sorted(scenario.positions)) or "(none)"
        raise ScenarioError(f"unknown position {label!r}; scenario defines: {known}")
    return scenario.positions[label]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# a flat row's keys sit three levels deep in ``json.dumps(..., indent=2)``;
# this encoder (CPython's C one: no indent) lays them out the same way
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))
# rows per encode call: the C encoder holds every token of a call until it
# joins them, so one call over all rows would peak at several times the output
_ROW_BATCH = 64
# bool, an int subclass, and np.float64, a float one, are not flat values here
_FLAT = {str, int, float}


def _json_report(rows, echo, command: str) -> str:
    """``json.dumps(doc, indent=2)`` of ``doc = {"command": command, "rows":
    rows}``, plus ``"scenario": echo`` when echo is given.

    Nonempty rows of str, int and float values only, with no echo, are
    encoded ``_ROW_BATCH`` rows a call by ``_ROW_ENCODER``, whose output
    differs from json.dumps's only where one row ends and the next begins:
    at a closing brace, the row separator and an opening brace, which an
    encoded string (it holds no raw line break) cannot contain.  Any other
    report is ``json.dumps`` whole."""
    doc = {"command": command, "rows": rows}
    if echo is not None:
        doc["scenario"] = echo
    values = itertools.chain.from_iterable(map(dict.values, rows))
    if echo is not None or not (rows and all(rows) and set(map(type, values)) <= _FLAT):
        return json.dumps(doc, indent=2)
    between = "\n    },\n    {\n      "
    body = between.join(
        _ROW_ENCODER.encode(rows[i:i + _ROW_BATCH])[2:-2].replace("},\n      {", between)
        for i in range(0, len(rows), _ROW_BATCH)
    )
    command = _ROW_ENCODER.encode(command)
    return f'{{\n  "command": {command},\n  "rows": [\n    {{\n      {body}\n    }}\n  ]\n}}'


def _emit(rows, fmt: str, echo, command: str) -> str:
    if fmt == "json":
        return _json_report(rows, echo, command) + "\n"
    cells = [COLUMNS, *([_fmt(row[c]) for c in COLUMNS] for row in rows)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        return buf.getvalue()
    # aligned table
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in cells]
    return "\n".join(lines) + "\n"


def _row(atom, quantity, value, residual, iterations, note):
    """One report row, its keys in ``COLUMNS`` order."""
    return {"atom": atom, "quantity": quantity, "value": float(value),
            "residual": float(residual), "iterations": int(iterations), "note": note}


def _operator_from_name(name: str, scenario: Scenario):
    space, g = scenario.space, scenario.partition
    if name in OPERATORS:
        return OPERATORS[name](space, g)
    if name.startswith("iphi:"):
        gen = builtin_generator(name.split(":", 1)[1])
        return iphi_operator(space, g, gen)
    raise ScenarioError(f"unknown operator {name!r}; valid operators are: {OPERATOR_NAMES}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condrisk",
        description="Conditional divergence risk measures on finite probability spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("file", help="scenario JSON file")
        for option, spec in OPTIONS.items():
            if option in command.options + COMMON_OPTIONS:
                p.add_argument(f"--{option}", **spec)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code else EXIT_OK

    try:
        if args.echo_input and args.format != "json":
            raise ScenarioError("--echo-input requires --format json")
        scenario = load_scenario(args.file)
        rows, code = COMMANDS[args.command].rows(args, scenario)
    except (ScenarioError, ValueError) as e:
        print(f"condrisk: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as e:
        print(f"condrisk: solver error: {e}", file=sys.stderr)
        return EXIT_RESIDUAL

    echo = scenario.raw if args.echo_input else None
    sys.stdout.write(_emit(rows, args.format, echo, args.command))
    return code


def _atom_rows(quantity: str, values, residuals, iterations, notes) -> list:
    """One row per atom, named A0, A1, ... in partition order."""
    return [
        _row(f"A{i}", quantity, *cells)
        for i, cells in enumerate(zip(values, residuals, iterations, notes))
    ]


def _closed_form_rows(quantity: str, values):
    """The rows of a closed form, which has no search: residual 0.0, 0 iterations, no note."""
    n = len(values)
    return _atom_rows(quantity, values, [0.0] * n, [0] * n, [""] * n), EXIT_OK


def _search_inputs(args, scenario: Scenario, default_tol: float):
    """The generator, position and tolerance a searching command reads."""
    gen = builtin_generator(args.divergence)
    x = _get_position(scenario, args.position)
    tol = default_tol if args.tol is None else args.tol
    if not (tol > 0.0) or not np.isfinite(tol):
        raise ScenarioError(f"tolerance must be a positive finite number, got {tol!r}")
    return gen, x, float(tol)


def _solution_rows(args, gen, sol, tol: float, note: str):
    """The rows of a primal or dual solution, each noting its atom's
    multiplier as ``note``; exit 3 where a search missed ``tol``."""
    notes = [f"{note}={m!r}" for m in sol.multiplier.values.tolist()]
    rows = _atom_rows(f"{args.command}:{gen.name}", sol.value.values, sol.residuals,
                      sol.iterations, notes)
    return rows, EXIT_RESIDUAL if np.any(sol.residuals > tol) else EXIT_OK


# oce_primal and oce_dual are looked up by name when a command runs, so that a
# wrapper bound over that name in this module (a tracer's, a test's) is called
def _oce_rows(args, scenario: Scenario):
    gen, x, tol = _search_inputs(args, scenario, DEFAULT_TOL)
    sol = oce_primal(scenario.space, scenario.partition, gen, x, tol)
    return _solution_rows(args, gen, sol, tol, "optimal_a")


def _dual_rows(args, scenario: Scenario):
    gen, x, tol = _search_inputs(args, scenario, DEFAULT_TOL)
    sol = oce_dual(scenario.space, scenario.partition, gen, x, tol)
    return _solution_rows(args, gen, sol, tol, "multiplier")


def _gap_rows(args, scenario: Scenario):
    """|primal - dual| per atom, searched to a tenth of the threshold (at most
    DEFAULT_TOL); exit 4 where it exceeds the threshold."""
    gen, x, threshold = _search_inputs(args, scenario, DEFAULT_GAP_TOL)
    sol = duality_gap(scenario.space, scenario.partition, gen, x,
                      min(DEFAULT_TOL, threshold / 10.0))
    gaps = sol.value.values
    rows = _atom_rows(f"gap:{gen.name}", gaps, sol.residuals, sol.iterations,
                      itertools.repeat(f"threshold={threshold!r}"))
    return rows, EXIT_GAP if np.any(gaps > threshold) else EXIT_OK


def _entropic_rows(args, scenario: Scenario):
    risk = entropic_risk(scenario.space, scenario.partition, _get_position(scenario, args.position))
    return _closed_form_rows("entropic", risk.values)


def _divergence_rows(args, scenario: Scenario):
    gen = builtin_generator(args.divergence)
    weights = _get_position(scenario, args.measure).values
    try:
        nu = EquivalentConditionalMeasure(weights)
    except ValueError as e:
        raise ScenarioError(f"measure {args.measure!r}: {e}") from None
    values = cond_divergence(scenario.space, scenario.partition, gen, nu).values
    return _closed_form_rows(f"divergence:{gen.name}", values)


def _check_rows(args, scenario: Scenario):
    """One row per sampled niveloid axiom, with a counterexample where it fails."""
    op = _operator_from_name(args.operator, scenario)
    if args.samples < 1:
        raise ScenarioError(f"--samples must be at least 1, got {args.samples}")
    report = check_niveloid_axioms(
        scenario.space, scenario.partition, op, samples=args.samples, seed=args.seed
    )
    rows = []
    for c in report.checks:
        row = _row("*", f"axiom:{c.name}", c.max_violation, 0.0, args.samples,
                   "pass" if c.passed else "fail")
        if c.counterexample is not None:
            row["counterexample"] = c.counterexample
        rows.append(row)
    return rows, EXIT_OK


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, the options it reads besides ``file`` and
    ``COMMON_OPTIONS``, and ``rows(args, scenario)`` -> (rows, exit code)."""

    help: str
    options: tuple
    rows: Callable


SEARCH_OPTIONS = ("position", "divergence", "tol")
COMMANDS = {
    "oce": Command("primal optimized certainty equivalent per atom", SEARCH_OPTIONS, _oce_rows),
    "dual": Command("dual (penalized expectation) value per atom", SEARCH_OPTIONS, _dual_rows),
    "gap": Command("duality gap self-check per atom", SEARCH_OPTIONS, _gap_rows),
    "entropic": Command("entropic risk per atom", ("position",), _entropic_rows),
    "divergence": Command("conditional divergence of a measure per atom",
                          ("divergence", "measure"), _divergence_rows),
    "check": Command("sample niveloid axioms for an operator", ("operator", "samples", "seed"),
                     _check_rows),
}

# every option a command may read, in the order its --help lists them
OPTIONS = {
    "position": dict(required=True, help="position label from the scenario"),
    "divergence": dict(
        default="kl", help="divergence generator: kl, chi2, or power:<alpha> (default kl)"
    ),
    "tol": dict(type=float, default=None, help="tolerance override"),
    "format": dict(choices=("table", "json", "csv"), default="table", help="output format"),
    "echo-input": dict(
        action="store_true", help="embed the input scenario in the report (JSON format only)"
    ),
    "measure": dict(required=True, help="positions-style label holding the measure weights"),
    "operator": dict(required=True, help=f"operator to test: {OPERATOR_NAMES}"),
    "samples": dict(type=int, default=50, help="sample count (default 50)"),
    "seed": dict(type=int, default=0, help="sampling seed (default 0)"),
}
COMMON_OPTIONS = ("format", "echo-input")


if __name__ == "__main__":
    sys.exit(main())
