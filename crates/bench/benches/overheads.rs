//! E5 — the **implementation overheads** report (paper Section IV.B,
//! "Implementation Overheads").
//!
//! The paper synthesizes CBA into a 4-core LEON3 on a Stratix-IV FPGA:
//! occupancy grows from 73% by "far less than 0.1%", timing still closes
//! at 100 MHz. We cannot synthesize RTL here; the documented substitution
//! (EXPERIMENTS.md, E5) is (a) an auditable gate-level inventory of the logic CBA
//! adds, printed here, and (b) a software decision-latency measurement
//! showing the arbitration step is trivially cheap (the 1-cycle decision
//! the paper reports corresponds to a handful of gate levels): the
//! `decision/rp_cba` row of the `arbitration_micro` bench.

use cba::cost::{PAPER_BASELINE_LUTS, STRATIX_IV_EP4SGX230_ALMS};
use cba::{CreditConfig, HardwareCost};

fn main() {
    println!("IMPLEMENTATION OVERHEADS (paper: <0.1% FPGA occupancy growth, 100 MHz)\n");

    println!("(a) hardware inventory added by CBA:");
    for (label, config) in [
        (
            "CBA  (4 cores, MaxL=56)",
            CreditConfig::homogeneous(4, 56).unwrap(),
        ),
        (
            "H-CBA (weights 3/1/1/1)",
            CreditConfig::paper_hcba(56).unwrap(),
        ),
        (
            "CBA  (8 cores, MaxL=56)",
            CreditConfig::homogeneous(8, 56).unwrap(),
        ),
    ] {
        let cost = HardwareCost::of(&config);
        println!(
            "  {label}: {cost}, ~{} ALMs -> +{:.3}pp device occupancy, {:.3}% of the LEON3 baseline",
            cost.alms,
            cost.device_occupancy_growth_pp(STRATIX_IV_EP4SGX230_ALMS),
            100.0 * cost.occupancy_fraction(PAPER_BASELINE_LUTS)
        );
    }
    let growth = HardwareCost::of(&CreditConfig::homogeneous(4, 56).unwrap())
        .device_occupancy_growth_pp(STRATIX_IV_EP4SGX230_ALMS);
    println!(
        "  paper claim (occupancy 73% grows by far less than 0.1%): {} ({growth:.3}pp on a {} ALM device)\n",
        growth < 0.1,
        STRATIX_IV_EP4SGX230_ALMS
    );

    println!(
        "(b) software decision latency: the decision/rp_cba row of \
         `cargo bench -p cba-bench --bench arbitration_micro`"
    );
}
