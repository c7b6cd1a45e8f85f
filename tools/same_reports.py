#!/usr/bin/env python3
"""Byte comparison of the reports two checkouts write for the same inputs.

    python3 tools/same_reports.py PARENT_TREE CHANGE_TREE

Builds each tree's ``cba_sim``, ``paper_repro`` and examples into that
tree's own ``.bench_build`` (the target directory ``campaign_bench/run.py``,
and so ``tools/ab.py``, builds into; an inherited ``CARGO_TARGET_DIR`` is
dropped), then runs both trees' binaries on the same inputs, all taken
from the parent tree:

* every ``scenarios/*.scn`` at ``--runs 3``, under ``--engine naive`` and
  ``events``, at ``--threads 1`` and ``2``, exported as JSON and as CSV;
* every workload of ``campaign_bench/run.py``'s ``WORKLOADS`` at seeds 1
  and 7, at one thread under ``events`` and at two threads under
  ``naive``, exported as JSON;
* ``paper_repro`` at ``CBA_RUNS=10``;
* every example of the parent's ``examples/``, which takes no input.

Each pair of exported reports is compared byte for byte, and so is what
a user reads: the table ``cba_sim`` prints on stdout for each of those
jobs, and ``paper_repro``'s report without its ``total wall time`` line.
The tool prints "N of M identical" for the exported reports, then the
same count for the stdout tables, whether ``paper_repro``'s report
matches and how many examples printed the same stdout; it lists
everything that differs (or that one side failed to write) and exits 1
if anything does. It only reads the trees: the reports
go to a temporary directory, and the workload texts are read from
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
    """Builds `tree`'s cba_sim, paper_repro and examples into `tree/.bench_build`; returns their directory."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    env["CARGO_TARGET_DIR"] = str(tree / ".bench_build")
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "cba-bench", "--bin", "cba_sim", "--bin", "paper_repro"],
        ["cargo", "build", "--release", "--offline", "-p", "cba-suite", "--examples"],
    ):
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"{tree}: {' '.join(command)} failed")
    return tree / ".bench_build" / "release"


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


def report(binaries, scenario, flags, out):
    """Runs one campaign; returns its report bytes (None if it wrote none) and its stdout."""
    done = subprocess.run(
        [str(binaries / "cba_sim"), "--scenario-file", str(scenario), "--out", str(out), *flags],
        cwd=out.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    if done.returncode != 0 or not out.exists():
        return None, done.stdout
    data = out.read_bytes()
    out.unlink()
    return data, done.stdout


def stdout_of(binary, scratch, **env):
    """The stdout of `binary` run in `scratch` with no CBA_* variables but `env`, or None if it failed."""
    env = {**{k: v for k, v in os.environ.items() if not k.startswith("CBA_")}, **env}
    done = subprocess.run([str(binary)], cwd=scratch, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.stdout if done.returncode == 0 else None


def paper_repro(binaries, scratch):
    """paper_repro's report at CBA_RUNS=10 without its wall-time line, or None if it failed."""
    out = stdout_of(binaries / "paper_repro", scratch, CBA_RUNS="10")
    if out is None:
        return None
    return b"".join(line for line in out.splitlines(keepends=True) if not line.startswith(b"total wall time"))


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
    tables_differing = []
    total = 0
    with tempfile.TemporaryDirectory(prefix="same_reports-") as scratch:
        scratch = Path(scratch)
        for name, scenario, flags in jobs(trees[0], scratch):
            total += 1
            out = scratch / "report"
            (parent, parent_table), (change, change_table) = (
                report(tree_binaries, scenario, flags, out) for tree_binaries in binaries
            )
            if parent is None or change is None:
                differing.append(f"{name}: no report from {'the parent' if parent is None else 'the change'}")
            elif parent != change:
                differing.append(name)
            if parent_table != change_table:
                tables_differing.append(name)
        repro = [paper_repro(tree_binaries, scratch) for tree_binaries in binaries]
        examples = sorted(path.stem for path in (trees[0] / "examples").glob("*.rs"))
        examples_differing = []
        for example in examples:
            parent, change = (stdout_of(tree_binaries / "examples" / example, scratch) for tree_binaries in binaries)
            if parent is None or change is None or parent != change:
                examples_differing.append(example)

    print(f"{total - len(differing)} of {total} identical")
    print(f"{total - len(tables_differing)} of {total} stdout tables identical")
    repro_same = None not in repro and repro[0] == repro[1]
    print(f"paper_repro report {'identical' if repro_same else 'differs'}")
    print(f"{len(examples) - len(examples_differing)} of {len(examples)} example outputs identical")
    for name in differing:
        print(f"differs: {name}")
    for name in tables_differing:
        print(f"stdout table differs: {name}")
    if None in repro:
        print(f"no paper_repro report from {'the parent' if repro[0] is None else 'the change'}")
    for name in examples_differing:
        print(f"example output differs (or an example failed): {name}")
    sys.exit(1 if differing or tables_differing or not repro_same or examples_differing else 0)


if __name__ == "__main__":
    main()
