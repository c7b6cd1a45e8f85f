//! The paper's Section I example, on the open client API: two saturating
//! cores granted alternately, one with 5-cycle and one with 45-cycle
//! requests. Slot fairness gives each core 50% of the grants — and the
//! short-request core 10% of the bandwidth. The credit filter fixes the
//! bandwidth split.
//!
//! Instead of a hand-rolled `drive` closure, the traffic here is two
//! [`FixedRequestTask::saturating`] agents plugged into the
//! [`Simulation`] builder — the same agents `run_once` builds through the
//! registry — and a tiny custom [`Probe`] counts grants live, showing how
//! observers subscribe to a run without touching the harness.
//!
//! ```text
//! cargo run --release --example bandwidth_fairness
//! ```

use cba::{CreditConfig, CreditFilter};
use cba_bus::{Bus, BusConfig, BusModel, CompletedTransaction, PolicyKind};
use cba_cpu::FixedRequestTask;
use sim_core::{CoreId, Cycle, Probe, Simulation, StopWhen};

/// A minimal streaming observer: counts grants per core as they happen.
#[derive(Default)]
struct GrantCounter {
    grants: [u64; 2],
}

impl Probe<CompletedTransaction> for GrantCounter {
    fn on_grant(&mut self, _now: Cycle, core: CoreId) {
        self.grants[core.index()] += 1;
    }
}

fn run(with_cba: bool) -> (f64, f64, f64, f64, [u64; 2]) {
    let maxl = 56;
    let mut bus = Bus::new(
        BusConfig::new(2, maxl).unwrap(),
        PolicyKind::RoundRobin.build(2, maxl),
    );
    if with_cba {
        bus.set_filter(Box::new(CreditFilter::new(
            CreditConfig::homogeneous(2, maxl).unwrap(),
        )));
    }
    let c0 = CoreId::from_index(0);
    let c1 = CoreId::from_index(1);
    let sim = Simulation::builder()
        .model(bus)
        .agent(FixedRequestTask::saturating(c0, 5))
        .agent(FixedRequestTask::saturating(c1, 45))
        .stop(StopWhen::Horizon(200_000))
        .observe(GrantCounter::default())
        .run();
    let report = sim.model().trace().share_report();
    (
        report.slot_share(c0),
        report.cycle_share(c0),
        report.slot_fairness(),
        report.cycle_fairness(),
        sim.probe().grants,
    )
}

fn main() {
    println!("Two saturating cores, round-robin bus: 5-cycle vs 45-cycle requests\n");
    println!(
        "{:<18} {:>12} {:>13} {:>10} {:>11} {:>15}",
        "configuration", "slot share", "cycle share", "slot J", "cycle J", "grants (probe)"
    );
    for (label, with_cba) in [("RR (slot-fair)", false), ("RR + CBA", true)] {
        let (slots, cycles, slot_j, cycle_j, grants) = run(with_cba);
        println!(
            "{label:<18} {:>11.1}% {:>12.1}% {:>10.3} {:>11.3} {:>7}/{}",
            100.0 * slots,
            100.0 * cycles,
            slot_j,
            cycle_j,
            grants[0],
            grants[1],
        );
    }
    println!();
    println!("shares shown for the short-request core; J = Jain fairness index.");
    println!("Slot-fair arbitration gives it ~50% of grants but ~10% of bandwidth");
    println!("(the paper's Section I numbers); the credit filter rebalances the");
    println!("cycle shares by pinning the long-request core to its 1/2 entitlement.");
}
