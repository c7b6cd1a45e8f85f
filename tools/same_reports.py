#!/usr/bin/env python3
"""Byte comparison of the reports two checkouts write for the same inputs.

    python3 tools/same_reports.py PARENT_TREE CHANGE_TREE

Builds each tree's ``cba_sim`` into that tree's own ``.bench_build`` (the
target directory ``campaign_bench/run.py``, and so ``tools/ab.py``, builds
into; an inherited ``CARGO_TARGET_DIR`` is dropped), then runs both
binaries on the same inputs, all taken from the parent tree:

* every ``scenarios/*.scn`` at ``--runs 3``, under ``--engine naive`` and
  ``events``, at ``--threads 1`` and ``2``, exported as JSON and as CSV;
* every workload of ``campaign_bench/run.py``'s ``WORKLOADS`` at seeds 1
  and 7, at one thread under ``events`` and at two threads under
  ``naive``, exported as JSON.

Each pair of reports is compared byte for byte. The tool prints
"N of M identical", lists every report that differs (or that one side
failed to write), and exits 1 if any does. It only reads the trees: the
reports go to a temporary directory, and the workload texts are read from
``run.py`` without running it.
"""

import argparse
import ast
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)
SCENARIO_RUNS = "3"


def fail(message):
    print(f"same_reports: {message}", file=sys.stderr)
    sys.exit(2)


def build(tree):
    """Builds `tree`'s cba_sim into `tree/.bench_build`; returns its path."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    env["CARGO_TARGET_DIR"] = str(tree / ".bench_build")
    command = ["cargo", "build", "--release", "--offline", "-p", "cba-bench", "--bin", "cba_sim"]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{tree}: {' '.join(command)} failed")
    return tree / ".bench_build" / "release" / "cba_sim"


def workloads(tree):
    """The `WORKLOADS` dict of `tree`'s campaign_bench/run.py, read as a literal."""
    source = (tree / "campaign_bench" / "run.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WORKLOADS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    fail(f"{tree}/campaign_bench/run.py has no WORKLOADS")


def jobs(parent, scratch):
    """Every (name, scenario file, cba_sim flags) to run in both trees."""
    for scenario in sorted((parent / "scenarios").glob("*.scn")):
        for engine, threads, fmt in itertools.product(("naive", "events"), ("1", "2"), ("json", "csv")):
            name = f"{scenario.stem} --engine {engine} --threads {threads} --format {fmt}"
            flags = ["--runs", SCENARIO_RUNS, "--engine", engine, "--threads", threads, "--format", fmt]
            yield name, scenario, flags
    for workload, text in workloads(parent).items():
        for seed in SEEDS:
            scenario = scratch / f"{workload}-{seed}.scn"
            scenario.write_text(text.format(seed=seed))
            for threads, engine in (("1", "events"), ("2", "naive")):
                name = f"workload {workload} seed {seed} --engine {engine} --threads {threads}"
                yield name, scenario, ["--engine", engine, "--threads", threads, "--format", "json"]


def report(cba_sim, scenario, flags, out):
    """Runs one campaign; returns its report bytes, or None if it wrote none."""
    done = subprocess.run(
        [str(cba_sim), "--scenario-file", str(scenario), "--out", str(out), *flags],
        cwd=out.parent, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if done.returncode != 0 or not out.exists():
        return None
    data = out.read_bytes()
    out.unlink()
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args()
    trees = (args.parent.resolve(), args.change.resolve())
    for tree in trees:
        if not (tree / "Cargo.toml").is_file():
            fail(f"{tree} is not a checkout")
    binaries = [build(tree) for tree in trees]

    differing = []
    total = 0
    with tempfile.TemporaryDirectory(prefix="same_reports-") as scratch:
        scratch = Path(scratch)
        for name, scenario, flags in jobs(trees[0], scratch):
            total += 1
            out = scratch / "report"
            parent, change = (report(cba_sim, scenario, flags, out) for cba_sim in binaries)
            if parent is None or change is None:
                differing.append(f"{name}: no report from {'the parent' if parent is None else 'the change'}")
            elif parent != change:
                differing.append(name)

    print(f"{total - len(differing)} of {total} identical")
    for name in differing:
        print(f"differs: {name}")
    sys.exit(1 if differing else 0)


if __name__ == "__main__":
    main()
