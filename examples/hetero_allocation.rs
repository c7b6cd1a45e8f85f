//! Heterogeneous bandwidth allocation (the paper's Section III.A): give
//! the task under analysis 50% of the bus, either by skewing the recovery
//! weights (H-CBA, evaluated in the paper) or by letting its budget cap
//! grow above MaxL (the burst-enabling variant).
//!
//! The measured half runs the shipped `scenarios/hcba_ablation.scn`.
//!
//! ```text
//! cargo run --release --example hetero_allocation
//! ```

use cba::CreditConfig;
use cba_platform::{run_scenario, ScenarioDef};
use sim_core::CoreId;

fn main() {
    println!("Heterogeneous allocation: two ways to favor core 0\n");

    let weights = CreditConfig::paper_hcba(56).unwrap();
    println!("variant 2 — recovery weights (the paper's H-CBA):");
    for i in 0..4 {
        let core = CoreId::from_index(i);
        println!(
            "   core {i}: recovers {}/{} per cycle -> {:.0}% bandwidth entitlement, \
             refills a MaxL transaction in {} cycles",
            weights.numerator(core),
            weights.denominator(),
            100.0 * weights.bandwidth_fraction(core),
            weights.recovery_cycles(core, 56),
        );
    }

    let cap = CreditConfig::homogeneous(4, 56)
        .unwrap()
        .with_cap_multipliers(vec![2, 1, 1, 1])
        .unwrap();
    println!("\nvariant 1 — budget cap above MaxL:");
    println!(
        "   core 0 banks up to {} scaled units (2 x MaxL): it can issue two MaxL \
         transactions back-to-back,",
        cap.scaled_cap(CoreId::from_index(0))
    );
    println!("   but its long-run bandwidth entitlement stays 1/N.");

    println!("\nmeasured (150 MaxL requests on core 0, periodic co-runners, 10 runs):\n");
    let mut def = ScenarioDef::parse(include_str!("../scenarios/hcba_ablation.scn"))
        .expect("shipped scenario parses");
    def.runs = 10;
    let report = run_scenario(&def).expect("shipped scenario runs");
    // The TuA's isolation time: 150 back-to-back 56-cycle requests.
    let isolation = 150.0 * 56.0;
    println!(
        "{:<28} {:>9} {:>14} {:>19}",
        "variant", "slowdown", "TuA max burst", "contender max gap"
    );
    for c in &report.cells {
        let variant = format!(
            "{} caps {}",
            c.label("setup").unwrap_or("?"),
            c.label("caps").unwrap_or("?")
        );
        println!(
            "{:<28} {:>8.2}x {:>14.1} {:>19.0}",
            variant,
            c.mean / isolation,
            c.tua_max_burst.unwrap_or(f64::NAN),
            c.contender_max_gap.unwrap_or(f64::NAN)
        );
    }
    println!();
    println!("weights buy sustained throughput; the cap buys burstiness and costs");
    println!("the contenders temporal isolation — the trade-off Section III.A names.");
}
