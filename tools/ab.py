#!/usr/bin/env python3
"""A/B comparison of two checkouts on the campaign-benchmark workloads.

Runs N alternating pairs; in each pair every workload W runs

    python3 campaign_bench/run.py --workload W --seed S --seconds T --trace 0

once in each tree (the parent first in even pairs, the change first in
odd ones). Then it prints one table per workload: for every end-to-end
metric of the parent's ``BENCHMARK.json``, each side's median [q1, q3],
the pairs the change wins, and the gap between the medians in units of
the parent's interquartile range (negative = the change is better).

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --seed 1 --seconds 5 --pairs 10
    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload fig1 --workload steady

``--workload`` may be given more than once; without it, every workload of
the parent's ``BENCHMARK.json`` runs.

Each tree builds its own binaries into its own ``.bench_build`` (an
inherited ``CARGO_TARGET_DIR`` is dropped, so the two builds cannot
overwrite each other). The comparison stops at the first run that reports
``"correct": false`` or ``failed > 0``. It only reads the trees: nothing
under ``campaign_bench/`` and no ``BENCHMARK.json`` is changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def fail(message):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(2)


def run(tree, workload, args):
    """One run of `workload` in `tree`; returns its metrics as {name: value}."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    command = [
        sys.executable, "campaign_bench/run.py",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{tree}: campaign_bench/run.py --workload {workload} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        fail(
            f"{tree}: the {workload} run is not correct "
            f"({result['failed']} of {result['attempted']} campaigns failed)"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def show(q1, median, q3):
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def table(workload, spec, samples, args):
    """Prints the parent-against-change table of one workload."""
    print(f"{workload}, seed {args.seed}, {args.seconds:g} s per run, {args.pairs} alternating pairs")
    header = f"{'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>6} {'gap/IQR':>8}"
    print(header)
    print("-" * len(header))
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run_[name] for run_ in samples["parent"]]
        change = [run_[name] for run_ in samples["change"]]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        iqr = pq3 - pq1
        gap = cmed - pmed
        # Signed so that a negative gap is always an improvement.
        better_gap = gap if lower else -gap
        if iqr > 0:
            ratio = f"{better_gap / iqr:+.2f}"
        else:
            ratio = "0" if gap == 0 else ("-inf" if better_gap < 0 else "+inf")
        print(
            f"{name:<20} {show(pq1, pmed, pq3):>34} {show(cq1, cmed, cq3):>34} "
            f"{wins:>3}/{args.pairs:<2} {ratio:>8}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument(
        "--workload", action="append", dest="workloads", metavar="W",
        help="a workload of the parent's BENCHMARK.json; repeat for more (default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "campaign_bench" / "run.py").is_file():
            fail(f"{tree} has no campaign_bench/run.py")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workloads or known
    for workload in workloads:
        if workload not in known:
            fail(f"unknown workload {workload!r}; the parent's BENCHMARK.json has {', '.join(known)}")

    samples = {workload: {"parent": [], "change": []} for workload in workloads}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                samples[workload][side].append(run(getattr(args, side), workload, args))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    for i, workload in enumerate(workloads):
        if i > 0:
            print()
        table(workload, spec, samples[workload], args)


if __name__ == "__main__":
    main()
