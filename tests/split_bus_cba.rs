//! Section III.C end to end: the real credit filter on the
//! split-transaction bus. Budgets must drain only for cycles the bus is
//! actually held, and the entitlement law must hold against unsplittable
//! atomics.

use cba::{CreditConfig, CreditFilter};
use cba_bus::split::{SplitBus, SplitBusConfig, SplitRequest};
use cba_bus::{BusModel, PolicyKind};
use sim_core::CoreId;

fn c(i: usize) -> CoreId {
    CoreId::from_index(i)
}

fn split_bus(with_cba: bool) -> SplitBus {
    let mut bus = SplitBus::new(
        SplitBusConfig::paper(),
        PolicyKind::RandomPermutation.build(4, 56),
    )
    .expect("paper config");
    if with_cba {
        bus.set_filter(Box::new(CreditFilter::new(
            CreditConfig::homogeneous(4, 56).expect("paper config"),
        )));
    }
    bus
}

fn saturate(bus: &mut SplitBus, horizon: u64, atomic_cores: &[usize]) {
    for now in 0..horizon {
        if bus.is_idle(c(0)) {
            bus.post(c(0), SplitRequest::Immediate { duration: 5 })
                .unwrap();
        }
        for i in 1..4 {
            if bus.is_idle(c(i)) {
                let req = if atomic_cores.contains(&i) {
                    SplitRequest::Atomic { duration: 56 }
                } else {
                    SplitRequest::Split
                };
                bus.post(c(i), req).unwrap();
            }
        }
        bus.begin_cycle(now);
        bus.end_cycle(now);
    }
}

#[test]
fn entitlement_holds_against_atomics_on_the_split_bus() {
    let horizon = 120_000u64;
    let mut bus = split_bus(true);
    saturate(&mut bus, horizon, &[1, 2, 3]);
    for i in 1..4 {
        let share = bus.inner().trace().busy_cycles(c(i)) as f64 / horizon as f64;
        assert!(
            share <= 0.25 + 0.02,
            "atomic core {i} exceeded its bus-cycle entitlement: {share}"
        );
    }
}

#[test]
fn cba_multiplies_the_short_core_throughput_under_atomics() {
    let horizon = 120_000u64;
    let mut plain = split_bus(false);
    saturate(&mut plain, horizon, &[1, 2, 3]);
    let mut filtered = split_bus(true);
    saturate(&mut filtered, horizon, &[1, 2, 3]);
    let plain_slots = plain.inner().trace().slots(c(0));
    let cba_slots = filtered.inner().trace().slots(c(0));
    assert!(
        cba_slots as f64 > 2.0 * plain_slots as f64,
        "CBA should multiply the short core's grants: {plain_slots} -> {cba_slots}"
    );
}

#[test]
fn sub_entitlement_split_stream_is_never_throttled() {
    // One split transaction per 80 cycles holds the bus 10/80 = 12.5% —
    // well inside the 25% entitlement — so the filter must be invisible.
    let horizon = 40_000u64;
    let mut counts = Vec::new();
    for with_cba in [true, false] {
        let mut bus = split_bus(with_cba);
        let mut next_issue = 0u64;
        for now in 0..horizon {
            if now >= next_issue && bus.is_idle(c(1)) {
                bus.post(c(1), SplitRequest::Split).unwrap();
                next_issue += 80;
            }
            bus.begin_cycle(now);
            bus.end_cycle(now);
        }
        counts.push(bus.inner().trace().slots(c(1)));
    }
    assert_eq!(
        counts[0], counts[1],
        "filter must be invisible below the entitlement: {counts:?}"
    );
}

#[test]
fn saturating_split_stream_is_capped_at_its_entitlement() {
    // Back-to-back split transactions hold 10 of every ~38 bus cycles
    // (26.3%), slightly above the 25% entitlement: the filter throttles
    // the stream — to at most 1/N of bus-held cycles, and by a bounded
    // amount (cap quantization wastes refill during the memory phase, so
    // the achieved duty is below the ideal 25%; see EXPERIMENTS.md).
    let horizon = 40_000u64;
    let mut with_filter = split_bus(true);
    let mut without = split_bus(false);
    for bus in [&mut with_filter, &mut without] {
        for now in 0..horizon {
            if bus.is_idle(c(1)) {
                bus.post(c(1), SplitRequest::Split).unwrap();
            }
            bus.begin_cycle(now);
            bus.end_cycle(now);
        }
    }
    let held = with_filter.inner().trace().busy_cycles(c(1)) as f64 / horizon as f64;
    assert!(held <= 0.25 + 0.01, "entitlement violated: {held}");
    let a = with_filter.inner().trace().slots(c(1)) as f64;
    let b = without.inner().trace().slots(c(1)) as f64;
    assert!(
        a / b >= 0.70,
        "throttling should cost at most ~30% for a 26%-duty stream: {a} vs {b}"
    );
}
