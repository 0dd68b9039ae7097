"""The repository benchmark.

Driver contract (one workload, this process)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints a human-readable report and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes ``<workload>.trace.json`` to
``benchmarks/e2e/.out/``).

Without ``--workload`` every workload runs in a fresh subprocess and the
results are tabulated; ``--trace`` adds a traced run of each.  ``--aa N``
makes two interleaved sets of N runs of this same checkout and fails if
they differ, or spread, by more than half a metric's bound; ``--smoke``
shrinks everything to a few seconds.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports too

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bootstrap
from estimators import quartiles, spread
from metrics import END_TO_END, UNITS
from workloads import WORKLOADS

DEFAULT_SEED = 20010521


def run_seconds() -> int:
    with open(bootstrap.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)["run_seconds"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="sizes the fixed round count of a run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, cheap templates, three rounds")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A check: two interleaved sets of N runs")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else run_seconds()
    return args


def result_line(outcome) -> str:
    return json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in outcome.metrics.items()}})


def run_here(args: argparse.Namespace) -> int:
    """Driver mode: one workload in this process."""
    from harness import Run
    outcome = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.smoke, STARTED).execute()
    print("\n".join(outcome.report))
    print(result_line(outcome), flush=True)
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool, echo: bool = True) -> dict:
    """One workload in a fresh interpreter; its parsed result line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=bootstrap.ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: exit code {done.returncode}")
    *report, last = done.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(report), flush=True)
    return json.loads(last)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own subprocess."""
    failed = 0
    for workload in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            result = run_child(workload, args.seed, args.seconds, trace,
                               args.smoke)
            failed += result["failed"] + (not result["correct"])
        print()
    print("all workloads correct" if not failed
          else f"FAILED operations: {failed}")
    return 1 if failed else 0


def run_aa(args: argparse.Namespace) -> int:
    """Two sets of N runs of the same code, workloads interleaved and sets
    alternated, each run with its own seed — what the driver does to
    decide whether the benchmark is steady enough to gate anything.

    Fails when, for any (workload, end-to-end metric), the second set's
    median is worse than the first's by more than half the bound, or the
    interquartile spread of all 2N runs exceeds half the bound.
    """
    values: dict = {}
    for index in range(args.aa):
        for side in ("a", "b") if index % 2 == 0 else ("b", "a"):
            seed = args.seed + 2 * index + (side == "b")
            for workload in WORKLOADS:
                result = run_child(workload, seed, args.seconds, 0,
                                   args.smoke, echo=False)
                if not result["correct"]:
                    raise SystemExit(f"{workload}: seed {seed} failed "
                                     f"{result['failed']} operations")
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), {}).setdefault(
                        side, []).append(metric["value"])
        print(f"pair {index + 1}/{args.aa} done", file=sys.stderr)
    baseline = {"runs_per_set": args.aa, "seconds": args.seconds,
                "first_seed": args.seed, "pairs": []}
    worst = 0.0
    print(f"{'workload':<16}{'metric':<20}{'median a':>12}{'median b':>12}"
          f"{'spread a':>10}{'spread b':>10}{'spread ab':>10}{'b vs a':>9}"
          f"{'bound':>7}")
    for name, _, better, bound in END_TO_END:
        for workload in WORKLOADS:
            a, b = (values[workload, name][side] for side in "ab")
            median_a, median_b = quartiles(a)[1], quartiles(b)[1]
            worse = (median_b / median_a - 1.0) * (
                1 if better == "lower" else -1)
            worst = max(worst, spread(a + b) / bound, worse / bound)
            print(f"{workload:<16}{name:<20}{median_a:>12.4f}"
                  f"{median_b:>12.4f}{spread(a):>10.2%}{spread(b):>10.2%}"
                  f"{spread(a + b):>10.2%}{worse:>+9.2%}{bound:>7.0%}")
            baseline["pairs"].append({
                "workload": workload, "metric": name,
                "median_a": median_a, "median_b": median_b,
                "quartiles_a": quartiles(a), "quartiles_b": quartiles(b),
                "spread_a": spread(a), "spread_b": spread(b),
                "spread_both": spread(a + b), "b_worse_than_a": worse})
    if not args.smoke:
        path = bootstrap.BENCH_DIR / f"AA_BASELINE_{args.seed}.json"
        with open(path, "w") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
        print(f"written {path}")
    print(f"worst spread or shift is {worst:.0%} of its bound "
          "(must stay within 50%)")
    return 0 if worst <= 0.5 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.aa:
        return run_aa(args)
    if args.workload:
        return run_here(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
