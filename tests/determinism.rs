//! Reproducibility guarantees: every run is a pure function of
//! `(spec, seed)`, and campaigns are order- and thread-count-independent.

use cba_platform::{run_once, run_seed, BusSetup, Campaign, CoreLoad, RunSpec, Scenario};

mod common;
use common::assert_cells_identical;

fn spec() -> RunSpec {
    RunSpec::paper(
        BusSetup::Cba,
        Scenario::MaxContention,
        CoreLoad::Profile(cba_workloads::suite::rspeed()),
    )
}

#[test]
fn run_once_is_a_pure_function_of_seed() {
    let a = run_once(&spec(), 1234);
    let b = run_once(&spec(), 1234);
    assert_eq!(a.tua_cycles, b.tua_cycles);
    assert_eq!(a.bus_slots, b.bus_slots);
    assert_eq!(a.bus_busy, b.bus_busy);
}

#[test]
fn different_seeds_perturb_results() {
    let times: Vec<_> = (0..8).map(|s| run_once(&spec(), s).tua_cycles).collect();
    let first = times[0];
    assert!(
        times.iter().any(|&t| t != first),
        "randomized platform must vary across seeds: {times:?}"
    );
}

#[test]
fn campaigns_reproduce_across_thread_counts() {
    let s1 = Campaign::new(spec(), 12, 77).with_threads(1).run();
    let s4 = Campaign::new(spec(), 12, 77).with_threads(4).run();
    let s16 = Campaign::new(spec(), 12, 77).with_threads(16).run();
    assert_cells_identical(&s1, &s4, "4 threads");
    assert_cells_identical(&s1, &s16, "16 threads");
}

#[test]
fn campaign_seed_schedule_is_stable() {
    // A run's seed depends on the master seed and its index alone, not
    // on execution order (guards the parallel scheduler against
    // seeds that follow completion order).
    let early = run_seed(42, 3);
    let late = run_seed(42, 97);
    assert_ne!(early, late);
    assert_eq!(early, run_seed(42, 3));
    assert_ne!(early, run_seed(43, 3));
}
