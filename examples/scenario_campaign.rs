//! Scenario files end to end: parse a declarative grid, expand it,
//! execute the campaign batch, and export structured results.
//!
//! The same engine runs `cba_sim --scenario-file` and every paper
//! artifact under `scenarios/` (`paper_repro` prints them). Run with:
//!
//! ```bash
//! cargo run --release --example scenario_campaign
//! ```

use cba_platform::report::run_scenario_with;
use cba_platform::scenario::ScenarioDef;

const SCENARIO: &str = "\
# Slot fairness vs bandwidth fairness, as a scenario file: a
# short-request TuA against three long-request saturating co-runners,
# across the spectrum of arbitration setups.
[campaign]
name = example_grid
runs = 10
seed = 42

[tua]
load = fixed:400:5:0

[contenders]
fill = sat:56
wcet = off

[sweep]
setup = fifo,rr,rp,cba,hcba

[report]
baseline = setup=rr
";

fn main() {
    let def = ScenarioDef::parse(SCENARIO).expect("inline scenario is valid");
    println!(
        "expanding '{}': {} cells x {} runs\n",
        def.name,
        def.n_cells(),
        def.runs
    );
    let report = run_scenario_with(&def, |done, total, cell| {
        println!(
            "  [{done}/{total}] {:<8} mean {:>9.1} cycles",
            cell.label("setup").unwrap_or("?"),
            cell.mean
        );
    })
    .expect("grid runs");

    println!("\n{}", report.render_table());
    println!("--- CSV export (what `cba_sim --out grid.csv` writes) ---");
    print!("{}", report.to_csv());

    // The credit filter turns the request-length hogging off: under RR
    // the 56-cycle co-runners take ~11x the TuA's bandwidth, under CBA
    // every core is pinned to its entitlement.
    let rr = report.cell(&[("setup", "rr")]);
    let cba = report.cell(&[("setup", "CBA")]);
    if let (Some(rr), Some(cba)) = (rr, cba) {
        println!(
            "\nRR mean {:.0} cycles vs CBA mean {:.0} cycles ({:.1}x better)",
            rr.mean,
            cba.mean,
            rr.mean / cba.mean
        );
    }
}
