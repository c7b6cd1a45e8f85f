//! Table-I behaviour end to end: the WCET-estimation mode's signal
//! protocol observed through a real bus with real contenders.

use cba::{CreditConfig, CreditFilter, Mode};
use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};
use cba_cpu::FixedRequestTask;
use sim_core::{BoxedAgent, CoreId, Cycle, Engine, Simulation, StopWhen};

fn c(i: usize) -> CoreId {
    CoreId::from_index(i)
}

/// The three MaxL contenders on cores 1..3.
fn maxl_contenders() -> impl Iterator<Item = BoxedAgent<'static, Bus>> {
    (1..4).map(|i| Box::new(FixedRequestTask::saturating(c(i), 56)) as BoxedAgent<Bus>)
}

/// Assembles the paper platform in WCET-estimation mode with a
/// fixed-request TuA and MaxL contenders, runs it, and returns the grant
/// records.
fn run_wcet(
    tua_requests: u64,
    tua_gap: u32,
    max_cycles: Cycle,
) -> (Vec<sim_core::trace::GrantRecord>, Option<Cycle>) {
    let mut bus = Bus::new(
        BusConfig::new(4, 56).unwrap(),
        PolicyKind::RandomPermutation.build(4, 56),
    );
    bus.set_filter(Box::new(CreditFilter::with_mode(
        CreditConfig::homogeneous(4, 56).unwrap(),
        Mode::WcetEstimation { tua: c(0) },
    )));
    bus.enable_recording_trace();

    let sim = Simulation::builder()
        .model(bus)
        .agent(FixedRequestTask::new(c(0), tua_requests, 6, tua_gap))
        .agents(maxl_contenders())
        .stop(StopWhen::AgentDone(0))
        .engine(Engine::Naive)
        .max_cycles(max_cycles)
        .run();
    (
        sim.model().trace().records().expect("recording").to_vec(),
        sim.agent(0).stats().done_at,
    )
}

/// Runs MaxL contenders on cores 1..3 of `bus`, with no TuA client, for
/// `cycles` on the per-cycle engine; returns the bus.
fn run_contenders(bus: Bus, cycles: Cycle) -> Bus {
    let sim = Simulation::builder()
        .model(bus)
        .agents(maxl_contenders())
        .engine(Engine::Naive)
        .max_cycles(cycles)
        .run();
    sim.into_parts().0
}

#[test]
fn tua_zero_budget_delays_its_first_grant_by_n_times_maxl() {
    // "setting its initial budget to zero, thus delaying the most the
    // issuing of the first request of the TuA": with zero budget and +1
    // recovery per cycle, the TuA cannot be granted before cycle 224.
    let (records, _) = run_wcet(5, 0, 100_000);
    let first_tua = records
        .iter()
        .find(|r| r.core == c(0))
        .expect("TuA eventually granted");
    assert!(
        first_tua.start >= 224,
        "first TuA grant at {} but budget fill takes 224 cycles",
        first_tua.start
    );
}

#[test]
fn contenders_do_not_run_before_the_tua_requests() {
    // COMP latches only when REQ(TuA) is set: while the TuA is still
    // filling its budget (first 224 cycles... but its request is PENDING
    // from cycle 0, so contenders may compete immediately). Use a TuA with
    // a long initial gap instead: no TuA request, no contender grants.
    let mut bus = Bus::new(
        BusConfig::new(4, 56).unwrap(),
        PolicyKind::RandomPermutation.build(4, 56),
    );
    bus.set_filter(Box::new(CreditFilter::with_mode(
        CreditConfig::homogeneous(4, 56).unwrap(),
        Mode::WcetEstimation { tua: c(0) },
    )));
    bus.enable_recording_trace();
    // No TuA client at all for 2,000 cycles.
    let bus = run_contenders(bus, 2_000);
    assert_eq!(
        bus.trace().total_slots(),
        0,
        "contenders must not compete while the TuA has no request"
    );
}

#[test]
fn contender_transactions_always_take_maxl() {
    let (records, _) = run_wcet(20, 10, 200_000);
    for r in records.iter().filter(|r| r.core != c(0)) {
        assert_eq!(r.duration, 56, "WCET-mode contenders hold MaxL cycles");
    }
}

#[test]
fn contenders_respect_budget_lockout_between_grants() {
    // After a grant, a contender's COMP cannot re-latch until its budget
    // refills: (N-1) x MaxL = 168 cycles after its transaction ends, so
    // consecutive grant starts are at least 56 + 168 = 224 cycles apart.
    let (records, _) = run_wcet(200, 10, 500_000);
    for core in 1..4 {
        let starts: Vec<Cycle> = records
            .iter()
            .filter(|r| r.core == c(core))
            .map(|r| r.start)
            .collect();
        for pair in starts.windows(2) {
            assert!(
                pair[1] - pair[0] >= 224,
                "contender {core} re-granted after only {} cycles",
                pair[1] - pair[0]
            );
        }
    }
}

#[test]
fn dense_tua_outruns_contender_interference() {
    // The CBA-mode contention scenario bounds total contender bandwidth:
    // each contender at most once per 224 cycles.
    let (records, done) = run_wcet(300, 10, 500_000);
    let done = done.expect("TuA finishes");
    let contender_busy: u64 = records
        .iter()
        .filter(|r| r.core != c(0))
        .map(|r| r.duration as u64)
        .sum();
    let bound = 3.0 * (done as f64 / 224.0 + 1.0) * 56.0;
    assert!(
        (contender_busy as f64) <= bound,
        "contender busy {contender_busy} exceeds budget-rate bound {bound}"
    );
}

#[test]
fn operation_mode_ignores_comp_gating() {
    // In operation mode the same assembly lets contenders saturate freely.
    let mut bus = Bus::new(
        BusConfig::new(4, 56).unwrap(),
        PolicyKind::RandomPermutation.build(4, 56),
    );
    bus.set_filter(Box::new(CreditFilter::with_mode(
        CreditConfig::homogeneous(4, 56).unwrap(),
        Mode::Operation,
    )));
    let bus = run_contenders(bus, 10_000);
    assert!(
        bus.trace().total_slots() > 0,
        "operation mode must grant contenders without a TuA request"
    );
    // Each contender is still budget-limited to 25% of cycles.
    for core in 1..4 {
        let busy = bus.trace().busy_cycles(c(core));
        assert!(
            busy as f64 <= 0.25 * 10_000.0 + 56.0,
            "contender {core} exceeded entitlement: {busy}"
        );
    }
}
