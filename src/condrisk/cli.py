"""Command-line interface over JSON scenario files.

A scenario file describes one finite probability space, one partition, and
any number of named positions::

    {
      "states": [{"name": "up", "prob": 0.5}, {"name": "down", "prob": 0.5}],
      "atoms": [["up", "down"]],
      "positions": {"payoff": [0.0, 1.386294]}
    }

Commands: ``oce`` and ``dual`` (primal / dual certainty equivalents),
``gap`` (their difference at the shared multiplier, the built-in self
check), ``entropic`` (closed form for the relative-entropy generator),
``divergence`` (conditional phi-divergence of a measure supplied as a
positions-style weight vector) and ``check`` (niveloid axiom sampling for a
named operator).

Exit codes: 0 success, 2 input or usage errors, 3 a solver missed its
tolerance, 4 the duality gap exceeded its threshold.  A malformed scenario
is reported by its first offending entry in document order (states, then
atoms, then positions).  Exit 2 covers numbers outside float range too: an
integer such as 1 followed by 400 zeros reads as the literal 1e400 would,
as an infinity, which no probability or position may hold.

Reports go to stdout as an aligned table, JSON, or CSV; identical
invocations produce byte-identical output.  Each command takes only the options it reads (see
``COMMANDS``); ``oce``, ``dual`` and ``gap`` read ``--tol``, and without it use
their command's default, :data:`condrisk.oce.DEFAULT_TOL` or the gap threshold
``DEFAULT_GAP_TOL``.
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
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

import numpy as np

from .divergence import (
    EquivalentConditionalMeasure,
    builtin_generator,
    cond_divergence,
)
from .dual import _gap_and_dual, oce_dual
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


def _float(v) -> float:
    """float(v), with an integer beyond float range read as the literal 1e400
    (or -1e400) reads: an infinity, which the finiteness checks then reject."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def parse_scenario(raw) -> Scenario:
    """Validate a decoded scenario and build its space, partition and positions.

    Each list is typed and converted in one pass; a loop over its entries
    runs only when that check fails, to name the first offending entry.  So
    a malformed scenario reports its first fault in document order: each
    state entry (object and keys, then name, then prob), duplicate names,
    the probabilities, each atom (list and nonempty, then members in order),
    the cover, then each position in key order (list and length, entries,
    finiteness).
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
    atoms = _atoms(atoms_raw, index)
    try:
        partition = Partition(atoms)
    except ValueError as e:
        raise ScenarioError(f"bad atoms: {e}") from None
    if partition.num_states != space.num_states:
        raise ScenarioError(
            f"bad atoms: they cover {partition.num_states} of {space.num_states} states; "
            "every state must appear in exactly one atom"
        )

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
    if set(map(type, states)) <= {dict}:
        try:
            names = list(map(operator.itemgetter("name"), states))
            probs = list(map(operator.itemgetter("prob"), states))
        except KeyError:
            pass
        else:
            if set(map(type, names)) <= {str} and all(names) and set(map(type, probs)) <= _NUMBERS:
                try:
                    return names, np.array(probs, dtype=float)
                except OverflowError:  # an integer beyond float range, read by _float
                    pass
    names = []
    probs = []
    for pos, entry in enumerate(states):
        if not isinstance(entry, dict) or "name" not in entry or "prob" not in entry:
            raise ScenarioError(f"states[{pos}] must be an object with 'name' and 'prob'")
        name = entry["name"]
        prob = entry["prob"]
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"states[{pos}].name must be a nonempty string")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise ScenarioError(f"states[{pos}].prob must be a number, got {prob!r}")
        names.append(name)
        probs.append(_float(prob))
    return names, probs


def _atoms(atoms_raw: list, index: dict):
    """Each atom's state indices, looked up by name in ``index``."""
    members = itertools.chain.from_iterable
    if (set(map(type, atoms_raw)) <= {list} and all(atoms_raw)
            and set(map(type, members(atoms_raw))) <= {str}):
        try:
            order = np.fromiter(map(index.__getitem__, members(atoms_raw)), np.intp)
        except KeyError:
            pass
        else:
            bounds = itertools.accumulate(map(len, atoms_raw), initial=0)
            return [order[lo:hi] for lo, hi in itertools.pairwise(bounds)]
    atoms = []
    for pos, atom in enumerate(atoms_raw):
        if not isinstance(atom, list) or not atom:
            raise ScenarioError(f"atoms[{pos}] must be a nonempty list of state names")
        for member in atom:
            if not isinstance(member, str) or member not in index:
                raise ScenarioError(f"atoms[{pos}] names unknown state {member!r}")
        atoms.append([index[member] for member in atom])
    return atoms


def _position_values(label, values: list):
    """The entries of position ``label`` as floats."""
    if set(map(type, values)) <= _NUMBERS:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an integer beyond float range, read by _float
            pass
    for j, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ScenarioError(f"position {label!r} entry {j} must be a number, got {v!r}")
    return [_float(v) for v in values]


def _get_position(scenario: Scenario, label: str) -> RandomVariable:
    if label not in scenario.positions:
        known = ", ".join(sorted(scenario.positions)) or "(none)"
        raise ScenarioError(f"unknown position {label!r}; scenario defines: {known}")
    return scenario.positions[label]


def _atom_label(i: int) -> str:
    return f"A{i}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_float(x: float) -> str:
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# how json.dumps writes each scalar type; bool, an int subclass, is not one here
_JSON_SCALARS = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__}


def _json_nested(value, depth: int) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it ``depth`` levels
    deep: its own lines indented by ``depth`` levels (escaped strings hold no
    line break, so every line break is one of the layout's)."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_lines(items: list, depth: int, brackets: str) -> str:
    """Written items between ``brackets`` ("{}" or "[]"), one per line, as
    ``json.dumps(..., indent=2)`` lays out a container ``depth`` levels deep."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


def _json_report(rows, echo, command: str) -> str:
    """``json.dumps(doc, indent=2)`` of ``doc = {"command": command, "rows":
    rows}``, plus ``"scenario": echo`` when echo is given, for rows that are
    objects with str keys.  Scalars are written here, which spares the
    encoder's Python calls per value; nested values go through json.dumps."""
    scalar = _JSON_SCALARS.get
    written = [
        _json_lines(
            [
                f"{encode_basestring_ascii(k)}: "
                f"{write(v) if (write := scalar(type(v))) else _json_nested(v, 3)}"
                for k, v in row.items()
            ],
            2,
            "{}",
        )
        for row in rows
    ]
    fields = [
        f'"command": {encode_basestring_ascii(command)}',
        f'"rows": {_json_lines(written, 1, "[]")}',
    ]
    if echo is not None:
        fields.append(f'"scenario": {_json_nested(echo, 1)}')
    return _json_lines(fields, 0, "{}")


def _emit(rows, fmt: str, echo, command: str) -> str:
    if fmt == "json":
        return _json_report(rows, echo, command) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in COLUMNS])
        return buf.getvalue()
    # aligned table
    cells = [[str(c) for c in COLUMNS]]
    for row in rows:
        cells.append([_fmt(row[c]) for c in COLUMNS])
    widths = [max(len(r[j]) for r in cells) for j in range(len(COLUMNS))]
    lines = ["  ".join(cell.ljust(widths[j]) for j, cell in enumerate(r)).rstrip() for r in cells]
    return "\n".join(lines) + "\n"


def _row(atom, quantity, value, residual, iterations, note=""):
    return {
        "atom": atom,
        "quantity": quantity,
        "value": float(value),
        "residual": float(residual),
        "iterations": int(iterations),
        "note": note,
    }


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


def _resolve_tol(args, default: float) -> float:
    tol = default if args.tol is None else args.tol
    if not (tol > 0.0) or not np.isfinite(tol):
        raise ScenarioError(f"tolerance must be a positive finite number, got {tol!r}")
    return float(tol)


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
        command = COMMANDS[args.command]
        rows, code = command.rows(args, scenario, command)
    except (ScenarioError, ValueError) as e:
        print(f"condrisk: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as e:
        print(f"condrisk: solver error: {e}", file=sys.stderr)
        return EXIT_RESIDUAL

    echo = scenario.raw if args.echo_input else None
    sys.stdout.write(_emit(rows, args.format, echo, args.command))
    return code


def _solve_oce(space, g, gen, x, tol):
    sol = oce_primal(space, g, gen, x, tol=tol)
    return sol.value.values, sol.optimal_a.values, sol


def _solve_dual(space, g, gen, x, tol):
    sol = oce_dual(space, g, gen, x, tol=tol)
    return sol.value.values, sol.multiplier.values, sol


def _solve_gap(space, g, gen, x, threshold):
    gaps, sol = _gap_and_dual(space, g, gen, x, min(DEFAULT_TOL, threshold / 10.0))
    return gaps, np.full(g.num_atoms, threshold), sol


def _atom_rows(args, scenario: Scenario, command):
    """One row per atom: its value, the residual and iterations of its search
    (0.0 and 0 for a closed form) and the figure noted beside the value."""
    gen = builtin_generator(args.divergence) if "divergence" in command.options else None
    if "measure" in command.options:
        weights = _get_position(scenario, args.measure).values
        try:
            x = EquivalentConditionalMeasure(weights)
        except ValueError as e:
            raise ScenarioError(f"measure {args.measure!r}: {e}") from None
    else:
        x = _get_position(scenario, args.position)
    tol = _resolve_tol(args, command.tol) if "tol" in command.options else None
    values, noted, sol = command.solve(scenario.space, scenario.partition, gen, x, tol)
    quantity = args.command if gen is None else f"{args.command}:{gen.name}"
    zeros = np.zeros(len(values))
    residuals, iterations = (zeros, zeros) if sol is None else (sol.residuals, sol.iterations)
    rows = [
        _row(_atom_label(i), quantity, v, residuals[i], iterations[i],
             note=f"{command.note}={float(noted[i])!r}" if command.note else "")
        for i, v in enumerate(values)
    ]
    if tol is None:
        return rows, EXIT_OK
    held, exit_code = command.held
    return rows, exit_code if any(row[held] > tol for row in rows) else EXIT_OK


def _check_rows(args, scenario: Scenario, command):
    """One row per sampled niveloid axiom, with a counterexample where it fails."""
    op = _operator_from_name(args.operator, scenario)
    if args.samples < 1:
        raise ScenarioError(f"--samples must be at least 1, got {args.samples}")
    report = check_niveloid_axioms(
        scenario.space, scenario.partition, op, samples=args.samples, seed=args.seed
    )
    rows = []
    for c in report.checks:
        note = "pass" if c.passed else "fail"
        row = _row("*", f"axiom:{c.name}", c.max_violation, 0.0, args.samples, note=note)
        if c.counterexample is not None:
            row["counterexample"] = c.counterexample
        rows.append(row)
    return rows, EXIT_OK


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, the options it reads besides ``file`` and
    ``COMMON_OPTIONS``, and ``rows(args, scenario, command)`` -> (rows, exit code).

    A per-atom command's ``solve(space, partition, generator, x, tol)`` gives
    the values, the figures noted as ``<note>=`` and the solution holding
    residuals and iterations (None for a closed form).  A command reading
    ``--tol`` defaults it to ``tol``, and a row whose ``held`` column exceeds
    it gives that rule's exit code.
    """

    help: str
    options: tuple
    solve: Optional[Callable] = None
    note: str = ""
    tol: Optional[float] = None
    held: tuple = ("residual", EXIT_RESIDUAL)
    rows: Callable = _atom_rows


SEARCH_OPTIONS = ("position", "divergence", "tol")
COMMANDS = {
    "oce": Command("primal optimized certainty equivalent per atom", SEARCH_OPTIONS, _solve_oce,
                   note="optimal_a", tol=DEFAULT_TOL),
    "dual": Command("dual (penalized expectation) value per atom", SEARCH_OPTIONS, _solve_dual,
                    note="multiplier", tol=DEFAULT_TOL),
    "gap": Command("duality gap self-check per atom", SEARCH_OPTIONS, _solve_gap,
                   note="threshold", tol=DEFAULT_GAP_TOL, held=("value", EXIT_GAP)),
    "entropic": Command(
        "entropic risk per atom", ("position",),
        lambda space, g, gen, x, tol: (entropic_risk(space, g, x).values, None, None)),
    "divergence": Command(
        "conditional divergence of a measure per atom", ("divergence", "measure"),
        lambda space, g, gen, nu, tol: (cond_divergence(space, g, gen, nu).values, None, None)),
    "check": Command("sample niveloid axioms for an operator", ("operator", "samples", "seed"),
                     rows=_check_rows),
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
