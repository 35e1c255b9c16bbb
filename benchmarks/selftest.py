"""Self-test of the benchmark itself, at toy size.

    python3 benchmarks/selftest.py

For every workload it runs one round of operations on toy inputs and
requires every answer to pass.  Then, for every check of every operation, it
moves one answer to just inside the check's tolerance band (must pass) and
to half a tolerance beyond it, on both sides (must fail); exact checks move
by one.  It also shows that a non-zero CLI exit is refused, that the runner
counts raised and wrong answers as failed, and that a traced toy run gives
whole, seed-independent counts and leaves the package as it found it.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import io
import shutil
import sys
import tempfile
from contextlib import redirect_stderr

import numpy as np

import run

run.import_package()

import condrisk  # noqa: E402
from checks import Check, CheckFailed, run_checks  # noqa: E402
from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, Op, OpFailed  # noqa: E402


def moved(view, check, offset):
    """Copy of ``view`` with the first entry of the checked field at the
    upper band edge plus ``offset`` (or the lower edge minus it if negative)."""
    got = np.atleast_1d(np.array(view[check.field], dtype=float))
    lo = np.broadcast_to(np.asarray(check.lo, dtype=float), got.shape)
    hi = np.broadcast_to(np.asarray(check.hi, dtype=float), got.shape)
    got[0] = hi[0] + offset if offset > 0 else lo[0] + offset
    return {**view, check.field: got}


def exercise(check: Check, view):
    """The check accepts inside its band and rejects beyond it, both sides."""
    inside, beyond = (0.5 * check.tol, 1.5 * check.tol) if check.tol > 0 else (0.0, 1.0)
    for sign in (1.0, -1.0):
        if inside:
            ok = check.failure(moved(view, check, sign * inside))
            assert ok is None, f"{check.name}: rejected an answer within tolerance: {ok}"
        bad = moved(view, check, sign * beyond)
        assert check.failure(bad) is not None, f"{check.name}: accepted {bad[check.field][0]!r}"


def check_workload(name, workdir):
    workload = WORKLOADS[name](7, True, workdir)
    ops = workload.ops(workload.setup())
    seen, exercised = {}, 0
    for op in ops:
        view = op.view(op.run())
        checks = op.checks(seen)
        run_checks(checks, view)
        for check in checks:
            exercise(check, view)
            try:
                run_checks(checks, moved(view, check, 1.5 * check.tol or 1.0))
            except CheckFailed:
                pass
            else:
                raise AssertionError(f"{op.name}: {check.name} did not fail the operation")
            exercised += 1
        if name == "cli-fine":
            try:
                op.view((3, "", "solver error"))
            except OpFailed:
                pass
            else:
                raise AssertionError(f"{op.name}: a non-zero exit was accepted")
        if op.key is not None:
            seen[op.key] = view["value"]
    return len(ops), exercised


def check_runner():
    def boom():
        raise RuntimeError("boom")

    wrong = Check("always wrong", "value", 0.0, 0.0)
    ops = [
        Op("raises", 1, boom, dict, lambda seen: []),
        Op("wrong", 1, lambda: 1.0, lambda r: {"value": r}, lambda seen: [wrong]),
        Op("right", 1, lambda: 0.0, lambda r: {"value": r}, lambda seen: [wrong]),
    ]
    tally = run.Tally()
    with redirect_stderr(io.StringIO()):
        run.run_round(ops, {}, tally)
    assert (tally.attempted, tally.failed, tally.wrong, len(tally.times)) == (3, 2, 1, 1), vars(tally)


def check_traced(name, workdir):
    original = condrisk.oce.oce_primal
    counts = []
    for seed in (3, 4):
        tally, _, _, layers = run.measure(name, seed, 0.0, 1, workdir, toy=True)
        assert tally.failed == 0 and set(layers) == set(METRICS), name
        counts.append({
            k: v["value"] for k, v in layers.items() if v["unit"] == "count"
        })
        assert all(isinstance(v, int) for v in counts[-1].values()), counts[-1]
    assert counts[0] == counts[1], f"{name}: counts depend on the seed: {counts}"
    assert condrisk.oce.oce_primal is original, "tracer left a wrapper installed"
    assert sys.modules["condrisk.cli"].oce_primal is original, "tracer left a wrapper installed"


def main():
    runs = run.ROOT / ".benchruns"
    runs.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=runs)
    try:
        check_runner()
        for name in WORKLOADS:
            n_ops, n_checks = check_workload(name, workdir)
            check_traced(name, workdir)
            print(f"selftest: {name}: {n_ops} operations, {n_checks} checks reject beyond tolerance")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
