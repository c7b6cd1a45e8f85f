//! Quickstart: build the paper's 4-core platform, run one benchmark in
//! isolation and under worst-case contention, with and without
//! credit-based arbitration.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cba_platform::{BusSetup, Campaign, CoreLoad, RunSpec, Scenario};

fn main() {
    let runs = 30;
    println!("CBA quickstart: 'matrix' on the 4-core LEON3-class platform ({runs} runs each)\n");

    let mut results = Vec::new();
    for setup in [BusSetup::Rp, BusSetup::Cba, BusSetup::HCba] {
        for scenario in [Scenario::Isolation, Scenario::MaxContention] {
            let label = format!(
                "{}-{}",
                setup.label(),
                if matches!(scenario, Scenario::Isolation) {
                    "ISO"
                } else {
                    "CON"
                }
            );
            let spec = RunSpec::paper(
                setup.clone(),
                scenario,
                CoreLoad::Profile(cba_workloads::suite::matrix()),
            );
            let mean = Campaign::new(spec, runs, 2017).run().mean;
            results.push((label, mean));
        }
    }

    let baseline = results[0].1; // RP-ISO
    println!("{:<12} {:>14} {:>10}", "config", "mean cycles", "slowdown");
    for (label, mean) in &results {
        println!("{label:<12} {mean:>14.0} {:>9.2}x", mean / baseline);
    }

    let rp_con = results[1].1 / baseline;
    let cba_con = results[3].1 / baseline;
    println!();
    println!(
        "Under worst-case contention, credit-based arbitration cuts the slowdown \
         from {rp_con:.2}x to {cba_con:.2}x:"
    );
    println!(
        "the three MaxL contenders are pinned to their 1/N bandwidth entitlement \
         instead of winning a slot-fair share of every arbitration."
    );
}
