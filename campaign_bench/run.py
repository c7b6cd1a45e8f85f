#!/usr/bin/env python3
"""Campaign benchmark for the CBA bus simulator.

Runs one workload -- a scenario campaign generated from ``--seed`` --
through the ``cba_sim`` command-line tool for ``--seconds`` seconds and
prints one JSON line with the end-to-end metrics (``--trace 0``), or
replays the same campaign through ``tracer/`` with a span around each
library layer and prints the per-layer metrics (``--trace 1``).

    python3 campaign_bench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout of the repository; it builds
``cba_sim`` and the tracer from source into ``$CARGO_TARGET_DIR``
(default ``.bench_build``) and keeps its scratch files there too.

Every campaign's JSON report is checked: byte-identical across repeats,
across thread counts and against the per-cycle reference engine, plus
the workload's paper-level claims (see ``check_claims``).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "campaign_bench" / "tracer"

# `setup_s` is the fastest of about this many cold one-run-per-cell
# campaigns.
SETUP_REPEATS = 21

# Each workload is a scenario file; `{seed}` is the campaign master seed.
# Sizes keep one campaign near 50 ms on one core, so even a few seconds
# hold enough campaigns for a 90th percentile with ten samples beyond it.
WORKLOADS = {
    # The paper's Fig. 1 grid with shortened benchmark traces: the core
    # cache-model TuA under RP, CBA and H-CBA, alone and under maximum
    # contention. At full size it is the slowest shipped scenario.
    "fig1": """\
[campaign]
name = bench_fig1
runs = 2
seed = {seed}

[platform]
cores = 4
policy = rp
cba = none

[tua]
profile = cacheb
accesses = 600

[sweep]
bench = cacheb,canrdr,matrix,tblook
setup = rp,cba,hcba
scenario = iso,con

[report]
baseline = setup=rp,scenario=iso
percentiles = 50,95,99
""",
    # Fixed-request TuA against saturating contenders on 2 to 16 cores,
    # with and without the credit filter: long steady-state stretches,
    # so the event-horizon fast path does most of the work.
    "steady": """\
[campaign]
name = bench_steady
runs = 6
seed = {seed}

[platform]
policy = rr

[tua]
load = fixed:300:5:0

[contenders]
scenario = con
wcet = off

[sweep]
cores = 2,4,8,16
cba = none,homog
duration = 11,56
""",
    # MESI miss-stream agents over a shared segment: private caches,
    # coherence transactions and the windowed-fairness probe.
    "coherence": """\
[campaign]
name = bench_coherence
runs = 12
seed = {seed}

[platform]
cores = 4

[memory]
working_set = 65536
accesses = 400
write_frac = 0.3
share_frac = 0.2
shared_lines = 64
locality = 0.85
think = 4
l1_sets = 64
l1_ways = 4

[tua]
load = fixed:60:6:4

[contenders]
fill = agent:shared
wcet = off
stop = horizon:8000

[sweep]
setup = rr,lot,cba
mem_working_set = 512,65536
share_frac = 0.05,0.45

[report]
percentiles = 50,95,99
windows = 4
""",
    # A 16-core hierarchical fabric: four clusters behind
    # store-and-forward bridges, CBA on every segment.
    "fabric": """\
[campaign]
name = bench_fabric
runs = 5
seed = {seed}

[platform]
policy = rr

[topology]
clusters = 4
cores_per_cluster = 4
bridge_latency = 4
bridge_depth = 4
cluster_cba = homog
backbone_cba = homog

[tua]
load = fixed:200:6:4

[contenders]
fill = per:28:480:0
wcet = off
stop = tua
max_cycles = 5000000

[sweep]
bridge_latency = 1,4,16

[report]
baseline = bridge_latency=1
percentiles = 50,95
""",
}


def fail(message):
    """Exits without a result line."""
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "cba-bench", "--bin", "cba_sim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(TRACER / "Cargo.toml")],
    ):
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"build failed: {' '.join(command)}")
    return target / "release" / "cba_sim", target / "release" / "campaign-tracer"


def campaign(cba_sim, scenario, out, *flags):
    """One `cba_sim` campaign; returns (report bytes or None, wall s, rusage)."""
    if out.exists():
        out.unlink()
    start = time.perf_counter()
    child = subprocess.Popen(
        [str(cba_sim), "--scenario-file", str(scenario), "--out", str(out), *flags],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    report = out.read_bytes() if child.returncode == 0 and out.exists() else None
    return report, wall, usage


def cells_by(report, *keys):
    return {tuple(cell[k] for k in keys): cell for cell in report["cells"]}


def check_claims(workload, report):
    """The workload's paper-level claims; returns a list of violations."""
    runs = int(re.search(r"runs = (\d+)", WORKLOADS[workload])[1])
    problems = []
    for cell in report["cells"]:
        if cell["outcome"] != "ok" or cell["unfinished"] != 0 or cell["runs"] != runs:
            problems.append(f"a cell ended {cell['outcome']} with {cell['runs']} runs")
    if workload == "fig1":
        expect_cells = 24
        cells = cells_by(report, "bench", "setup", "scenario")
        for bench in ("cacheb", "canrdr", "matrix", "tblook"):
            rp_con = cells[(bench, "RP", "CON")]["normalized"]
            for setup in ("CBA", "H-CBA"):
                # CBA bounds the interference a contender inflicts.
                if not cells[(bench, setup, "CON")]["normalized"] < rp_con:
                    problems.append(f"{bench}: {setup}-CON not below RP-CON")
            for setup in ("RP", "CBA", "H-CBA"):
                # Alone on the bus, the credit filter costs little.
                if not 0.85 < cells[(bench, setup, "ISO")]["normalized"] < 1.2:
                    problems.append(f"{bench}: {setup}-ISO far from RP-ISO")
    elif workload == "steady":
        expect_cells = 16
        cells = cells_by(report, "cores", "cba", "duration")
        for cores in ("2", "4", "8"):
            # Long contender requests: the filter holds them to 1/N.
            if not cells[(cores, "homog", "56")]["mean_cycles"] < cells[(cores, "none", "56")]["mean_cycles"]:
                problems.append(f"{cores} cores: CBA does not shorten the TuA")
    elif workload == "coherence":
        expect_cells = 12
        cells = cells_by(report, "setup", "mem_working_set", "share_frac")
        for setup in ("rr", "lot", "CBA"):
            for share in ("0.05", "0.45"):
                if not cells[(setup, "512", share)]["mem_miss_rate"] < cells[(setup, "65536", share)]["mem_miss_rate"]:
                    problems.append(f"{setup}/{share}: miss rate does not fall with the working set")
            for ws in ("512", "65536"):
                if not cells[(setup, ws, "0.45")]["mem_coherence_frac"] > cells[(setup, ws, "0.05")]["mem_coherence_frac"]:
                    problems.append(f"{setup}/{ws}: coherence share does not rise with sharing")
    else:
        expect_cells = 3
        cells = cells_by(report, "bridge_latency")
        if not cells[("16",)]["normalized"] > cells[("1",)]["normalized"]:
            problems.append("a deeper bridge does not slow the TuA")
        for cell in report["cells"]:
            shares = cell["cluster_shares"]
            if len(shares) != 4 or min(shares) <= 0 or sum(shares) > 1 + 1e-9:
                problems.append(f"bad cluster shares {shares}")
    if len(report["cells"]) != expect_cells:
        problems.append(f"expected {expect_cells} cells, got {len(report['cells'])}")
    return problems


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload, cba_sim, scenario, work, seconds):
    """End-to-end metrics of one-thread campaigns run back to back.

    The cold starts behind `setup_s` are spread evenly over the run, so
    they sample the same host conditions as the campaigns."""
    reference = None
    attempted = failed = 0
    walls, rss, setup_walls = [], [], []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() < start + seconds:
        if len(setup_walls) * seconds < SETUP_REPEATS * (time.perf_counter() - start):
            report, wall, _ = campaign(cba_sim, scenario, work / "setup.json", "--runs", "1", "--threads", "1")
            if report is None:
                fail("the one-run campaign failed")
            setup_walls.append(wall)
        report, wall, usage = campaign(cba_sim, scenario, work / "report.json", "--threads", "1")
        attempted += 1
        if reference is None:
            reference = report
        if report is None or report != reference:
            failed += 1
            continue
        walls.append(wall)
        rss.append(usage.ru_maxrss)
    if not walls:
        fail("every campaign failed")

    problems = []
    for flags, what in (
        (("--threads", "0"), "one worker per hardware thread"),
        (("--threads", "2", "--engine", "naive"), "the per-cycle reference engine"),
    ):
        other, _, _ = campaign(cba_sim, scenario, work / "check.json", *flags)
        if other != reference:
            problems.append(f"the report with {what} differs")
    parsed = json.loads(reference)
    problems += check_claims(workload, parsed)

    runs = sum(cell["runs"] for cell in parsed["cells"])
    # A run stops at its horizon if it has one, else when the TuA
    # finishes, which is what `mean_cycles` averages.
    horizon = re.search(r"stop = horizon:(\d+)", WORKLOADS[workload])
    cycles = sum(
        cell["runs"] * (int(horizon[1]) if horizon else cell["mean_cycles"]) for cell in parsed["cells"]
    )
    # On a shared host the same campaign runs at two speeds, contended or
    # not, in proportions that drift between runs, so the median and the
    # mean move with them. The fastest campaign (and the fastest cold
    # start) and the 90th percentile each sit inside one of the two.
    fastest = min(walls)
    metrics = {
        "campaign_min_ms": (fastest * 1e3, "ms"),
        "campaign_p90_ms": (quantile(walls, 0.9) * 1e3, "ms"),
        "sim_mcycles_per_s": (cycles / fastest / 1e6, "Mcycles/s"),
        "runs_per_s": (runs / fastest, "1/s"),
        "peak_rss_mib": (statistics.median(rss) / 1024, "MiB"),
        "setup_s": (min(setup_walls), "s"),
    }
    return problems, attempted, failed, metrics


def trace(workload, cba_sim, tracer, scenario, work, seconds):
    """Per-layer metrics from the traced in-process replay."""
    reference, _, _ = campaign(cba_sim, scenario, work / "report.json", "--threads", "1")
    if reference is None:
        fail("the reference campaign failed")
    out = work / "traced.json"
    done = subprocess.run(
        [
            str(tracer),
            "--scenario", str(scenario),
            "--seconds", str(seconds),
            "--out", str(out),
            "--journal-dir", str(work / "journal"),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        fail("the tracer failed")
    traced = json.loads(done.stdout.strip().splitlines()[-1])
    problems = check_claims(workload, json.loads(reference))
    if out.read_bytes() != reference:
        problems.append("the traced replay's report differs from cba_sim's")
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["metrics"].items()}
    return problems, traced["iterations"], traced["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        fail(f"{ROOT} is not a checkout of the simulator")

    target = target_dir()
    cba_sim, tracer = build(target)
    work = target / "campaign_bench" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    scenario = work / "campaign.scn"
    scenario.write_text(WORKLOADS[args.workload].format(seed=args.seed))

    if args.trace:
        problems, attempted, failed, metrics = trace(args.workload, cba_sim, tracer, scenario, work, args.seconds)
    else:
        problems, attempted, failed, metrics = measure(args.workload, cba_sim, scenario, work, args.seconds)
    for problem in problems:
        print(f"campaign_bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
