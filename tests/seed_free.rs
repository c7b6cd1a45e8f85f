//! Seed-free runs: the seed reaches a run only through its random draws,
//! so a run that makes none (`RunResult::draws == 0`) gives the same
//! result under every seed, and the campaign executor computes such a
//! cell's run once and copies it. These tests check the draw count on
//! both sides of that line, and that the copies change no report.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

use cba_cpu::FixedRequestTask;
use cba_platform::campaign::run_seed;
use cba_platform::executor::{default_threads, run_indexed_streamed};
use cba_platform::scenario::ScenarioDef;
use cba_platform::{
    run_once, run_once_with, run_scenario, AgentCtx, AgentRegistry, CampaignResult, CellReport,
    CoreLoad, RunSpec,
};

mod common;
use common::assert_cells_identical;

/// The one cell of a scenario text.
fn one_cell(text: &str) -> RunSpec {
    let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
    assert_eq!(cells.len(), 1, "one cell wanted:\n{text}");
    cells.into_iter().next().unwrap().spec
}

/// A 4-core bus with `platform` lines in its `[platform]` section and
/// `extra` sections after it: the TuA runs `tua` against three `fill`
/// contenders.
fn flat(platform: &str, tua: &str, fill: &str, extra: &str) -> RunSpec {
    one_cell(&format!(
        "[campaign]\nname = t\nruns = 3\nseed = 1\n\
         [platform]\n{platform}\n{extra}\n\
         [tua]\nload = {tua}\n\
         [contenders]\nfill = {fill}\nwcet = off\n"
    ))
}

/// A fixed-request TuA against three saturating contenders on [`flat`].
fn synthetic(platform: &str) -> RunSpec {
    flat(platform, "fixed:200:6:4", "sat:28", "")
}

/// `fabric_fairness.scn` at a shorter horizon.
fn fabric() -> RunSpec {
    one_cell(
        "[campaign]\nname = t\nruns = 3\nseed = 7\n\
         [platform]\npolicy = rr\n\
         [topology]\nclusters = 4\ncores_per_cluster = 2\nbridge_latency = 2\n\
         bridge_depth = 2\ncluster_cba = none\nbackbone_cba = w:4:2:1:1\n\
         backbone_caps = 4:4:4:4\n\
         [tua]\nload = sat:5\n\
         [contenders]\nfill = sat:5\nwcet = off\nstop = horizon:20000\n",
    )
}

#[test]
fn seed_free_specs_make_no_draw_and_repeat_under_every_seed() {
    for (what, spec) in [
        ("rr", synthetic("policy = rr")),
        ("fifo + cba", synthetic("policy = fifo\ncba = homog")),
        ("fabric", fabric()),
    ] {
        let first = run_once(&spec, 1);
        assert_eq!(first.draws, 0, "{what}");
        for seed in [2, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(run_once(&spec, seed), first, "{what}, seed {seed:#x}");
        }
    }
}

#[test]
fn randomized_specs_draw() {
    let memory = "[memory]\nworking_set = 4096\naccesses = 100\nshared_lines = 16";
    for (what, spec) in [
        ("rp", synthetic("policy = rp")),
        ("lottery", synthetic("policy = lot")),
        (
            "core model",
            flat("policy = rr", "bench:rspeed", "sat:28", ""),
        ),
        (
            "memory agent",
            flat("policy = rr", "fixed:200:6:4", "agent:mem", memory),
        ),
    ] {
        assert!(run_once(&spec, 1).draws > 0, "{what}");
    }
}

/// Seed-free cells per shipped file, as `(seed-free, cells)`. A file
/// missing here has no seed-free cell.
const SEED_FREE: [(&str, (usize, usize)); 5] = [
    ("clustered_16core", (3, 3)),
    ("fabric_fairness", (1, 1)),
    ("fairness_sweep", (24, 24)),
    ("paper_illustrative", (2, 5)),
    ("scaling_16core", (8, 8)),
];

#[test]
fn every_shipped_seed_free_cell_repeats_under_three_seeds() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 14, "shipped scenarios missing: {paths:?}");
    // Each distinct (seed, spec) once: suite_wide.scn repeats
    // paper_fig1.scn's cells.
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let def = ScenarioDef::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for cell in def.expand().unwrap_or_else(|e| panic!("{name}: {e}")) {
            if seen.insert((cell.seed, format!("{:?}", cell.spec))) {
                *totals.entry(name.clone()).or_default() += 1;
                cells.push((name.clone(), cell));
            }
        }
    }
    let mut free: BTreeMap<String, usize> = BTreeMap::new();
    run_indexed_streamed(
        cells.len(),
        default_threads(),
        |i| {
            let (name, cell) = &cells[i];
            let first = run_once(&cell.spec, run_seed(cell.seed, 0));
            if first.draws > 0 {
                return false;
            }
            for seed in [run_seed(cell.seed, 1), cell.seed ^ 0x5eed] {
                let again = run_once(&cell.spec, seed);
                assert_eq!(again, first, "{name} {:?}, seed {seed:#x}", cell.labels);
            }
            true
        },
        |i, seed_free| {
            if seed_free {
                *free.entry(cells[i].0.clone()).or_default() += 1;
            }
        },
    );
    let found: Vec<(&str, (usize, usize))> = free
        .iter()
        .map(|(name, &n)| (name.as_str(), (n, totals[name])))
        .collect();
    assert_eq!(found, SEED_FREE);
}

/// A campaign copies the runs of a seed-free cell; a report built from
/// every run computed one by one is the same, to the last bit.
#[test]
fn copied_runs_report_as_computed_ones() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/paper_illustrative.scn"),
    )
    .unwrap();
    let mut def = ScenarioDef::parse(&text).unwrap();
    def.runs = 6;
    let report = run_scenario(&def).unwrap();
    let cells = def.expand().unwrap();
    for (cell, reported) in cells.iter().zip(&report.cells) {
        let runs = (0..def.runs).map(|run| run_once(&cell.spec, run_seed(cell.seed, run)));
        let computed = CellReport::from_campaign(
            cell.labels.clone(),
            cell.seed,
            &CampaignResult::from_runs(runs),
            &def.report.percentiles,
            &cell.spec,
        );
        assert_cells_identical(&computed, reported, &format!("{:?}", cell.labels));
    }
}

/// The builtin kinds plus `draw1`: a saturating contender whose request
/// duration, 1 to 28 cycles, is one draw from its build stream.
fn drawing_registry() -> AgentRegistry {
    let mut registry = AgentRegistry::builtin();
    registry.register("draw1", |ctx: &mut AgentCtx<'_>| {
        let duration = ctx.rng.gen_range_u64(1..29) as u32;
        Ok(Box::new(FixedRequestTask::saturating(ctx.core, duration)))
    });
    registry
}

#[test]
fn one_draw_in_a_custom_agent_keeps_the_cell_randomized() {
    let mut spec = synthetic("policy = rr");
    spec.loads[3] = CoreLoad::Custom {
        kind: "draw1".into(),
        args: vec![],
    };
    let registry = drawing_registry();
    let runs: Vec<_> = (0..8)
        .map(|run| run_once_with(&spec, run_seed(11, run), &registry))
        .collect();
    assert!(runs.iter().all(|r| r.draws == 1), "one draw per run");
    let report = CellReport::from_campaign(
        Vec::new(),
        11,
        &CampaignResult::from_runs(runs),
        &[0.5],
        &spec,
    );
    // The report of the same runs before any run was copied.
    assert_eq!(
        (report.min, report.mean, report.max),
        (12800.0, 15250.0, 18000.0),
        "{report:?}"
    );
}
