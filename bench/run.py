"""Benchmark of the a1deg degree pipeline.

    python3 bench/run.py --workload gr-coord --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
Set-up (importing a1deg and building the workload's fields, forms, rings and
systems) is repeated SETUP_REPEATS times and reported as a median.  Then the
workload's operations run in whole rounds, each the same list of operations,
until the next round would end after ``--seconds``; at least one round runs.
Every returned class is checked against routes computed apart from the
Bezoutian (see checks.py); a class that fails a check, or that prints
differently in two rounds, stops the run with exit code 1.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
layers.py.  A per-operation report and the failure causes go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15

BUDGET = "budget: the operation ran past its time budget (fields._pollard_rho has no budget)"
NON_CANONICAL = (
    "non-canonical: the class passes every invariant check but prints differently"
    " from closed_form (gw.simplify folds only <u>,<-u> pairs)"
)


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded


def setup(workload: str, seed: int):
    """Import a1deg afresh and build the operations; returns (package, ops, seconds)."""
    for name in [m for m in sys.modules if m == "a1deg" or m.startswith("a1deg.")]:
        del sys.modules[name]
    gc.collect()  # the previous set-up's garbage is not this set-up's cost
    t0 = perf_counter()
    a1 = importlib.import_module("a1deg")
    ops = workloads.build(a1, workload, seed)
    return a1, ops, perf_counter() - t0


def run_op(op, rec):
    """Run one operation; returns (result or None when over budget, seconds charged)."""
    rec.start_op()
    if op.budget_s:
        signal.setitimer(signal.ITIMER_REAL, op.budget_s)
    t0 = perf_counter()
    try:
        result = op.run()
        seconds = perf_counter() - t0
    except BudgetExceeded:
        result, seconds = None, op.budget_s
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        rec.end_op()
    return result, seconds


def judge(op, result, rec, closed_forms):
    """(printed class, failure cause or None, problems) for one result."""
    if result is None:
        return "-", BUDGET, []
    if op.kind == "grassmannian":
        r, n = op.info["r"], op.info["n"]
        problems = []
        if rec.sections != 1:
            problems.append(f"{rec.sections} candidate sections tried, expected 1")
        if len(rec.diagonals) != 1:
            return str(result), None, problems + [f"{len(rec.diagonals)} diagonalizations"]
        problems += checks.check_grassmannian(checks.view(result), rec.diagonals[0], r, n)
        printed = str(result)
        cause = NON_CANONICAL if printed != closed_forms[op.name] else None
        return printed, cause, problems
    glob, locs, ok = result
    problems = checks.check_local_global(
        op.info["system"], op.info["zeros"], checks.view(glob), [checks.view(l) for l in locs], ok
    )
    return f"{glob} = " + " + ".join(map(str, locs)), None, problems


def self_test(op, result, rec_diag) -> list[str]:
    """Names of perturbed classes the checks failed to reject."""
    missed = []
    if op.kind == "grassmannian":
        r, n = op.info["r"], op.info["n"]
        for bad in checks.perturbed(checks.view(result)):
            if not checks.check_grassmannian(bad, rec_diag, r, n):
                missed.append(f"{op.name}: {bad}")
        return missed
    glob, locs, ok = result
    system, zeros = op.info["system"], op.info["zeros"]
    views = [checks.view(l) for l in locs]
    for bad in checks.perturbed(checks.view(glob)):
        if not checks.check_local_global(system, zeros, bad, views, ok):
            missed.append(f"{op.name} global: {bad}")
    for k, z in enumerate(zeros):
        if z.simple_coords is not None:
            for bad in checks.perturbed(views[k]):
                swapped = views[:k] + [bad] + views[k + 1 :]
                if not checks.check_local_global(system, zeros, checks.view(glob), swapped, ok):
                    missed.append(f"{op.name} point {k}: {bad}")
            break
    return missed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "a1deg", "__init__.py")):
        print(f"bench: no a1deg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        a1, ops, seconds = setup(args.workload, args.seed)
        setup_times.append(seconds)
    if os.path.dirname(os.path.abspath(a1.__file__)) != os.path.join(SRC, "a1deg"):
        print(f"bench: imported a1deg from {a1.__file__}, not {SRC}", file=sys.stderr)
        return 2
    rec = layers.Recorder(traced=bool(args.trace))
    layers.install(rec, a1)
    closed_forms = {
        op.name: str(a1.closed_form(op.info["field"], op.info["r"], op.info["n"]))
        for op in ops
        if op.kind == "grassmannian"
    }
    signal.signal(signal.SIGALRM, _on_alarm)

    round_walls, op_times, printed_first = [], [], None
    attempted = failed = 0
    causes: dict[str, int] = {}
    problems: list[str] = []
    first_results = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        printed, wall = [], 0.0
        for op in ops:
            before = dict(rec.totals)
            result, seconds = run_op(op, rec)
            text, cause, bad = judge(op, result, rec, closed_forms)
            attempted += 1
            wall += seconds
            op_times.append(seconds)
            printed.append(text)
            problems += [f"{op.name}: {b}" for b in bad]
            if cause:
                failed += 1
                causes[cause] = causes.get(cause, 0) + 1
            if printed_first is None:
                first_results.append((op, result, rec.diagonals[:1]))
                split = layers.breakdown(before, rec.totals) if args.trace else ""
                print(f"{op.name:30s} {seconds:9.3f} s {split} {cause or 'ok':14.14s} {text}", file=sys.stderr)
        round_walls.append(wall)
        if printed_first is None:
            printed_first = printed
        elif printed != printed_first:
            problems.append("a class printed differently in two rounds")
        if problems:
            break
        now = perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    rounds = len(round_walls)

    if not problems:
        for op, result, diag in first_results:
            if result is not None:
                missed = self_test(op, result, diag[0] if diag else [])
                problems += [f"self-test accepted a perturbed class: {m}" for m in missed]

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layers.LAYER_METRICS[name]}
            for name, value in rec.per_round(rounds).items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_times) * 1000, "unit": "ms"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    per_round = len(ops)
    print(
        f"{args.workload}: seed {args.seed}, {rounds} round(s) of {per_round} operations,"
        f" wall_s per round {[round(w, 3) for w in round_walls]}",
        file=sys.stderr,
    )
    if per_round >= 40:
        tail = tail_percentile(per_round)
        per_round_tails = [
            statistics.quantiles(op_times[i * per_round : (i + 1) * per_round], n=100)[tail - 1]
            for i in range(rounds)
        ]
        print(f"op_tail_ms (p{tail}, median over rounds): {statistics.median(per_round_tails) * 1000:.3f}", file=sys.stderr)
    for cause, count in sorted(causes.items()):
        print(f"failed x{count}: {cause}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    out = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(out))
    return 1 if problems else 0


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(q for q in range(1, 100) if samples * (100 - q) / 100 >= 10)


if __name__ == "__main__":
    sys.exit(main())
