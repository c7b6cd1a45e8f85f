//! Workload calibration probe: per-benchmark ISO characteristics of one
//! run each. Used while tuning the synthetic EEMBC profiles, together
//! with the Figure-1 grid at a reduced run count
//! (`cba_sim --scenario-file scenarios/paper_fig1.scn --runs 30`); kept
//! as a diagnostic tool.

use cba_bench::seed_from_env;
use cba_platform::{run_once, BusSetup, CoreLoad, RunSpec, Scenario};
use cba_workloads::suite;

fn main() {
    let seed = seed_from_env();
    println!("== ISO characteristics (single run, seed {seed}) ==");
    println!(
        "{:<10} {:>9} {:>7} {:>7} {:>8} {:>8}",
        "bench", "cycles", "util%", "reqs", "per-req", "avg-dur"
    );
    for profile in suite::all_profiles() {
        let spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Profile(profile.clone()),
        );
        let r = run_once(&spec, seed);
        let cycles = r.tua_cycles.unwrap_or(0);
        let reqs = r.bus_slots[0];
        let busy = r.bus_busy[0];
        println!(
            "{:<10} {:>9} {:>6.1}% {:>7} {:>8.1} {:>8.1}",
            profile.name,
            cycles,
            100.0 * busy as f64 / cycles.max(1) as f64,
            reqs,
            cycles as f64 / reqs.max(1) as f64,
            busy as f64 / reqs.max(1) as f64,
        );
    }
}
