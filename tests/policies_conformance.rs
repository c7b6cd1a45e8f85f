//! Cross-policy conformance at the platform level: every built-in
//! arbitration policy drives a real bus with saturating clients and must
//! uphold its documented invariants.

use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};
use cba_cpu::FixedRequestTask;
use sim_core::{CoreId, Engine, Simulation};

fn c(i: usize) -> CoreId {
    CoreId::from_index(i)
}

/// Drives `clients` against `bus` for `cycles` on the per-cycle engine;
/// returns the bus.
fn run_clients(bus: Bus, clients: Vec<FixedRequestTask>, cycles: u64) -> Bus {
    let mut builder = Simulation::builder()
        .model(bus)
        .engine(Engine::Naive)
        .max_cycles(cycles);
    for k in clients {
        builder = builder.agent(k);
    }
    builder.run().into_parts().0
}

/// Runs 4 saturating contenders with equal request durations for `cycles`.
fn run_saturated(kind: PolicyKind, duration: u32, cycles: u64) -> Bus {
    let bus = Bus::new(BusConfig::new(4, 56).unwrap(), kind.build(4, 56));
    let clients: Vec<FixedRequestTask> = (0..4)
        .map(|i| FixedRequestTask::saturating(c(i), duration))
        .collect();
    run_clients(bus, clients, cycles)
}

#[test]
fn work_conserving_policies_never_idle_under_saturation() {
    for kind in PolicyKind::ALL {
        if kind == PolicyKind::Tdma {
            continue;
        }
        let bus = run_saturated(kind, 28, 20_000);
        assert_eq!(
            bus.idle_cycles(),
            0,
            "{} must be work-conserving under saturation",
            kind.name()
        );
    }
}

#[test]
fn tdma_idles_exactly_the_slot_remainders() {
    // 28-cycle requests in 56-cycle slots: half of every slot is idle (the
    // paper's TDMA bandwidth-waste argument).
    let bus = run_saturated(PolicyKind::Tdma, 28, 56_000);
    let idle_frac = bus.idle_cycles() as f64 / 56_000.0;
    assert!(
        (idle_frac - 0.5).abs() < 0.01,
        "TDMA with half-slot requests idles half the time: {idle_frac}"
    );
}

#[test]
fn slot_fair_policies_equalize_grant_counts() {
    for kind in [
        PolicyKind::Fifo,
        PolicyKind::RoundRobin,
        PolicyKind::Tdma,
        PolicyKind::RandomPermutation,
    ] {
        let bus = run_saturated(kind, 28, 50_000);
        let slots: Vec<u64> = (0..4).map(|i| bus.trace().slots(c(i))).collect();
        let min = *slots.iter().min().unwrap();
        let max = *slots.iter().max().unwrap();
        assert!(
            max - min <= 2,
            "{}: slot counts must be balanced: {slots:?}",
            kind.name()
        );
    }
}

#[test]
fn lottery_is_approximately_slot_fair() {
    let bus = run_saturated(PolicyKind::Lottery, 28, 100_000);
    let report = bus.trace().share_report();
    assert!(
        report.slot_fairness() > 0.98,
        "uniform lottery approaches slot fairness: {}",
        report.slot_fairness()
    );
}

#[test]
fn fixed_priority_starves_everyone_below_the_top() {
    let bus = run_saturated(PolicyKind::FixedPriority, 28, 20_000);
    assert!(bus.trace().slots(c(0)) > 500);
    for i in 1..4 {
        assert_eq!(
            bus.trace().slots(c(i)),
            0,
            "fixed priority must starve core {i} (the paper's Section II argument)"
        );
    }
}

#[test]
fn slot_fairness_is_not_cycle_fairness_with_mixed_durations() {
    // Core 0 issues 5-cycle requests, cores 1..3 issue 56-cycle requests.
    for kind in [PolicyKind::RoundRobin, PolicyKind::RandomPermutation] {
        let bus = Bus::new(BusConfig::new(4, 56).unwrap(), kind.build(4, 56));
        let clients: Vec<FixedRequestTask> = (0..4)
            .map(|i| FixedRequestTask::saturating(c(i), if i == 0 { 5 } else { 56 }))
            .collect();
        let bus = run_clients(bus, clients, 50_000);
        let report = bus.trace().share_report();
        assert!(
            report.slot_fairness() > 0.99,
            "{}: slot-fair as designed",
            kind.name()
        );
        assert!(
            report.cycle_share(c(0)) < 0.05,
            "{}: the short-request core is starved of bandwidth ({:.3}) — \
             the problem CBA exists to fix",
            kind.name(),
            report.cycle_share(c(0))
        );
    }
}

#[test]
fn cba_filter_composes_with_every_policy() {
    // Section III.A: "Then, any arbitration policy can be applied."
    use cba::{CreditConfig, CreditFilter};
    for kind in PolicyKind::ALL {
        if kind == PolicyKind::FixedPriority {
            continue; // priority + CBA is still starvation-prone; skip
        }
        let mut bus = Bus::new(BusConfig::new(4, 56).unwrap(), kind.build(4, 56));
        bus.set_filter(Box::new(CreditFilter::new(
            CreditConfig::homogeneous(4, 56).unwrap(),
        )));
        let clients: Vec<FixedRequestTask> = (0..4)
            .map(|i| FixedRequestTask::saturating(c(i), if i == 0 { 5 } else { 56 }))
            .collect();
        let horizon = 100_000u64;
        let bus = run_clients(bus, clients, horizon);
        // Every core gets served, and no long-request core exceeds its
        // 1/N cycle entitlement.
        for i in 0..4 {
            assert!(
                bus.trace().slots(c(i)) > 0,
                "{}+CBA: core {i} starved",
                kind.name()
            );
        }
        for i in 1..4 {
            let share = bus.trace().busy_cycles(c(i)) as f64 / horizon as f64;
            assert!(
                share <= 0.25 + 0.02,
                "{}+CBA: core {i} exceeded entitlement ({share})",
                kind.name()
            );
        }
    }
}
