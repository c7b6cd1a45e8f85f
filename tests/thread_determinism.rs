//! Thread-count determinism — PR 3's "results stay bit-identical for any
//! thread count" claim as an enforced invariant.
//!
//! Every (cell × run) task of a campaign derives its seed from
//! `(cell seed, run index)` alone, and the executor scatters results by
//! index, so neither the pool size nor the scheduling order may leak into
//! any reported number. These tests run the same sweep grid on 1, 2 and 8
//! worker threads and compare whole reports — floats included — with
//! exact equality.

use cba_platform::scenario::ScenarioDef;
use cba_platform::{run_scenario, Campaign, CellReport, CoreLoad, RunSpec, Scenario};

mod common;
use common::assert_cells_identical;

const GRID: &str = "\
[campaign]
name = threads
runs = 6
seed = 41
[tua]
load = fixed:60:6:4
[sweep]
setup = rp,cba
scenario = iso,con
[report]
baseline = setup=rp,scenario=iso
";

fn grid_with_threads(threads: usize) -> Vec<CellReport> {
    let mut def = ScenarioDef::parse(GRID).expect("grid parses");
    def.threads = Some(threads);
    run_scenario(&def).expect("grid runs").cells
}

#[test]
fn scenario_grid_reports_are_bit_identical_across_thread_counts() {
    let reference = grid_with_threads(1);
    assert_eq!(reference.len(), 4);
    for threads in [2usize, 8] {
        let cells = grid_with_threads(threads);
        assert_eq!(cells.len(), reference.len());
        for (a, b) in reference.iter().zip(&cells) {
            assert_cells_identical(a, b, &format!("threads={threads}"));
        }
    }
}

#[test]
fn fabric_grid_reports_are_bit_identical_across_thread_counts() {
    let text = "\
[campaign]
name = fabric-threads
runs = 4
seed = 9
[platform]
policy = rr
[topology]
clusters = 2
cores_per_cluster = 2
bridge_latency = 2
bridge_depth = 2
backbone_cba = homog
[tua]
load = fixed:60:6:4
[contenders]
fill = sat:28
wcet = off
[sweep]
bridge_latency = 1,4
";
    let run = |threads: usize| {
        let mut def = ScenarioDef::parse(text).expect("parses");
        def.threads = Some(threads);
        run_scenario(&def).expect("runs").cells
    };
    let reference = run(1);
    for threads in [2usize, 8] {
        for (a, b) in reference.iter().zip(&run(threads)) {
            assert_cells_identical(a, b, &format!("fabric threads={threads}"));
        }
    }
}

/// Memory-agent grids: the new memory columns are ratios of exact `u64`
/// sums reduced in run-index order, so MESI traffic and miss statistics
/// may not leak the pool size either.
#[test]
fn mem_agent_grid_reports_are_bit_identical_across_thread_counts() {
    let text = "\
[campaign]
name = mem-threads
runs = 5
seed = 23
[memory]
working_set = 1024
accesses = 200
share_frac = 0.5
l1_sets = 16
l1_ways = 2
[tua]
load = fixed:40:6:4
[contenders]
fill = agent:shared
wcet = off
[sweep]
setup = rr,cba
share_frac = 0.1,0.7
";
    let run = |threads: usize| {
        let mut def = ScenarioDef::parse(text).expect("parses");
        def.threads = Some(threads);
        run_scenario(&def).expect("runs").cells
    };
    let reference = run(1);
    assert_eq!(reference.len(), 4);
    for cell in &reference {
        assert!(cell.mem_miss_rate.is_some(), "memory columns must be on");
    }
    for threads in [2usize, 8] {
        for (a, b) in reference.iter().zip(&run(threads)) {
            assert_cells_identical(a, b, &format!("mem threads={threads}"));
        }
    }
}

/// The campaign layer too: a [`Campaign`] is a one-cell grid, and its
/// report must be independent of the pool size.
#[test]
fn campaign_run_results_are_bit_identical_across_thread_counts() {
    let spec = RunSpec::paper(
        cba_platform::BusSetup::Cba,
        Scenario::MaxContention,
        CoreLoad::FixedTask {
            n_requests: 80,
            duration: 6,
            gap: 4,
        },
    );
    let reference = Campaign::new(spec.clone(), 9, 77).with_threads(1).run();
    assert_eq!((reference.runs, reference.unfinished), (9, 0));
    for threads in [2usize, 8] {
        let other = Campaign::new(spec.clone(), 9, 77)
            .with_threads(threads)
            .run();
        assert_cells_identical(&reference, &other, &format!("campaign threads={threads}"));
    }
}

/// The comparison covers every field: two cells that differ only in a
/// windowed-fairness column are told apart.
#[test]
#[should_panic(expected = "window_jain: Some([1.0])")]
fn cells_differing_only_in_window_jain_are_not_identical() {
    let a = CellReport::default();
    let b = CellReport {
        window_jain: Some(vec![1.0]),
        ..CellReport::default()
    };
    assert_cells_identical(&a, &b, "default cells");
}
