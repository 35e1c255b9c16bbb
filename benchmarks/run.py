"""Run one condrisk benchmark workload and print its metrics.

Usage, from the root of a checkout (BENCHMARK.json holds the full command)::

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 benchmarks/run.py --workload cli-fine --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout.  The run
generates its inputs from ``--seed``, then runs five segments, each a timed
set-up of the program followed by whole rounds of operations, until the
rounds have taken ``--seconds`` (and at least 40 operations ran).  One
untimed warm-up round precedes the first, and every answer is checked.  The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, run_checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# op_tail_s is the highest percentile with ten samples beyond it, which is a
# tail only with at least forty samples
MIN_OPS = 40
TAIL_BEYOND = 10
# The run is cut into segments, each starting with a fresh set-up, so that
# set-up times are sampled across the whole run like operation times: the
# speed of a shared machine drifts during a run.  Within a segment the
# set-up is repeated until this much time has gone into it; setup_s is the
# median over all segments.
SEGMENTS = 5
SETUP_BUDGET_S = 0.5
MAX_SETUPS = 200


def import_package():
    """Import condrisk from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "condrisk" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no condrisk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import condrisk

    if Path(condrisk.__file__).resolve().parent != (SRC / "condrisk").resolve():
        raise SystemExit(f"run.py: imported condrisk from {condrisk.__file__}, not from {SRC}")


class Tally:
    """What the timed rounds did."""

    def __init__(self):
        self.times = []
        self.atoms = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0


def run_round(ops, seen, tally, tracer=None):
    for op in ops:
        tally.attempted += 1
        try:
            t0 = perf_counter()
            raw = op.run()
            elapsed = perf_counter() - t0
            view = op.view(raw)
        except Exception as e:  # a failed operation is counted, not fatal
            tally.failed += 1
            print(f"run.py: {op.name} failed: {type(e).__name__}: {e}", file=sys.stderr)
            continue
        try:
            run_checks(op.checks(seen), view)
        except (CheckFailed, KeyError) as e:  # KeyError: a related answer is missing
            tally.failed += 1
            tally.wrong += 1
            print(f"run.py: {op.name} answered wrongly: {e}", file=sys.stderr)
            continue
        if op.key is not None:
            seen[op.key] = view["value"]
        tally.times.append(elapsed)
        tally.atoms += op.atoms
        if tracer is not None and "out_bytes" in view:
            tracer.add("cli.out_bytes", view["out_bytes"])


def time_setup(workload, times):
    """Set up at least once and until the budget is spent; returns the last."""
    spent, reps = 0.0, 0
    gc.collect()
    while reps == 0 or (spent < SETUP_BUDGET_S and reps < MAX_SETUPS):
        ctx = None  # release the previous set-up before building the next
        t0 = perf_counter()
        ctx = workload.setup()
        times.append(perf_counter() - t0)
        spent += times[-1]
        reps += 1
    return ctx


def add(into, totals):
    for key, value in totals.items():
        into[key] = into.get(key, 0.0) + value


def measure(name, seed, seconds, trace, workdir, toy=False):
    """Run one workload; returns (tally, set-up times, rounds, per-layer metrics).

    Rounds run until ``seconds`` of round time have passed and at least
    ``MIN_OPS`` operations were attempted; set-up and warm-up do not count
    towards ``seconds``.
    """
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, toy, workdir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        setup_times, setup_totals, round_totals = [], {}, {}
        tally, rounds, spent, seen = Tally(), 0, 0.0, {}
        for segment in range(SEGMENTS):
            ops = ctx = None
            ctx = time_setup(workload, setup_times)
            ops = workload.ops(ctx)
            if tracer is not None:
                add(setup_totals, tracer.take())
            if segment == 0:
                run_round(ops, seen, Tally())  # warm-up; also fills ``seen``
                gc.collect()
                if tracer is not None:
                    tracer.take()
            last = segment == SEGMENTS - 1
            while spent < seconds * (segment + 1) / SEGMENTS or (last and tally.attempted < MIN_OPS):
                t0 = perf_counter()
                run_round(ops, seen, tally, tracer)
                gc.collect()
                spent += perf_counter() - t0
                rounds += 1
            if tracer is not None:
                add(round_totals, tracer.take())
        layers = None
        if tracer is not None:
            layers = Tracer.report(setup_totals, len(setup_times), rounds, round_totals)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tally, setup_times, rounds, layers


def end_to_end(tally, setup_times):
    times = sorted(tally.times)
    if len(times) <= TAIL_BEYOND:
        raise SystemExit(f"run.py: only {len(times)} operations succeeded")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (times[-TAIL_BEYOND - 1], "s"),
        "atoms_per_s": (tally.atoms / sum(times), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    # the CLI would read a default tolerance from here; the benchmark fixes it
    os.environ.pop("CONDRISK_TOL", None)

    runs = ROOT / ".benchruns"
    runs.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=runs)
    try:
        tally, setup_times, rounds, layers = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = layers if args.trace else end_to_end(tally, setup_times)
    print(
        f"run.py: {args.workload} seed {args.seed}: {len(setup_times)} set-ups, "
        f"{rounds} rounds of {sum(tally.times) / rounds:.3f} s, {tally.attempted} operations",
        file=sys.stderr,
    )
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
