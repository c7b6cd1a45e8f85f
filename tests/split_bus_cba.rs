//! Section III.C end to end: the real credit filter on the
//! split-transaction bus. Budgets must drain only for cycles the bus is
//! actually held, and the entitlement law must hold against unsplittable
//! atomics.

use cba::{CreditConfig, CreditFilter};
use cba_bus::split::{SplitBus, SplitBusConfig};
use cba_bus::{BusModel, BusRequest, CompletedTransaction, PolicyKind, RequestKind, RequestPort};
use cba_cpu::FixedRequestTask;
use sim_core::agent::{FnAgent, SimAgent};
use sim_core::{BoxedAgent, Control, CoreId, Cycle, Simulation, StopWhen};

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

/// Runs `agents` on `bus` for `horizon` cycles and returns the bus.
fn run(bus: SplitBus, horizon: u64, agents: Vec<BoxedAgent<'_, SplitBus>>) -> SplitBus {
    let sim = Simulation::builder()
        .model(bus)
        .agents(agents)
        .stop(StopWhen::Horizon(horizon))
        .run();
    sim.into_parts().0
}

/// Core 0 saturates the bus with 5-cycle requests, cores 1-3 with
/// unsplittable 56-cycle ones.
fn saturate_with_atomics(bus: SplitBus, horizon: u64) -> SplitBus {
    let mut agents: Vec<BoxedAgent<SplitBus>> =
        vec![Box::new(FixedRequestTask::saturating(c(0), 5))];
    agents.extend(
        (1..4).map(|i| Box::new(FixedRequestTask::saturating(c(i), 56)) as BoxedAgent<SplitBus>),
    );
    run(bus, horizon, agents)
}

/// Core 1 posts a clean L2 miss (a split request) whenever it can, at
/// most one per `period` cycles.
fn split_stream(period: Cycle) -> impl SimAgent<SplitBus, CompletedTransaction> {
    let mut next_issue = 0;
    FnAgent(
        move |bus: &mut SplitBus, now: Cycle, _: Option<&CompletedTransaction>| {
            if now >= next_issue && bus.can_accept(c(1)) {
                bus.post(BusRequest::new(c(1), 28, RequestKind::L2MissClean, now))
                    .unwrap();
                next_issue = now + period;
            }
            Control::Sleep(next_issue)
        },
    )
}

#[test]
fn entitlement_holds_against_atomics_on_the_split_bus() {
    let horizon = 120_000u64;
    let bus = saturate_with_atomics(split_bus(true), horizon);
    for i in 1..4 {
        let share = bus.trace().busy_cycles(c(i)) as f64 / horizon as f64;
        assert!(
            share <= 0.25 + 0.02,
            "atomic core {i} exceeded its bus-cycle entitlement: {share}"
        );
    }
}

#[test]
fn cba_multiplies_the_short_core_throughput_under_atomics() {
    let horizon = 120_000u64;
    let plain = saturate_with_atomics(split_bus(false), horizon);
    let filtered = saturate_with_atomics(split_bus(true), horizon);
    let plain_slots = plain.trace().slots(c(0));
    let cba_slots = filtered.trace().slots(c(0));
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
    let [with_filter, without] = [true, false].map(|with_cba| {
        let stream: BoxedAgent<SplitBus> = Box::new(split_stream(80));
        run(split_bus(with_cba), horizon, vec![stream])
            .trace()
            .slots(c(1))
    });
    assert_eq!(
        with_filter, without,
        "filter must be invisible below the entitlement"
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
    let [with_filter, without] = [true, false].map(|with_cba| {
        let stream: BoxedAgent<SplitBus> = Box::new(split_stream(1));
        run(split_bus(with_cba), horizon, vec![stream])
    });
    let held = with_filter.trace().busy_cycles(c(1)) as f64 / horizon as f64;
    assert!(held <= 0.25 + 0.01, "entitlement violated: {held}");
    let a = with_filter.trace().slots(c(1)) as f64;
    let b = without.trace().slots(c(1)) as f64;
    assert!(
        a / b >= 0.70,
        "throttling should cost at most ~30% for a 26%-duty stream: {a} vs {b}"
    );
}
