//! The streaming observer path end to end: a real bus with the real
//! credit filter, driven by registry-style agents through the
//! `Simulation` facade, with a probe subscribed to grants, completions
//! and credit-eligibility flips.
//!
//! Pins two properties:
//!
//! * grant/completion streams are **bit-identical** between the naive
//!   and event-horizon engines (they only occur at executed cycles);
//! * credit flips actually stream: a drained budget must produce
//!   ineligible→eligible transitions as it recovers, and the naive
//!   engine sees every one of them.

use cba::{CreditConfig, CreditFilter};
use cba_bus::{Bus, BusConfig, CompletedTransaction, PolicyKind};
use cba_cpu::FixedRequestTask;
use sim_core::{CoreId, Cycle, Engine, Probe, Simulation, StopWhen};

#[derive(Default, Debug, PartialEq, Clone)]
struct EventLog {
    grants: Vec<(Cycle, usize)>,
    completions: Vec<(Cycle, usize, u32)>,
    flips: Vec<(Cycle, usize, bool)>,
    finish: Option<Cycle>,
}

impl Probe<CompletedTransaction> for EventLog {
    fn on_grant(&mut self, now: Cycle, core: CoreId) {
        self.grants.push((now, core.index()));
    }
    fn on_completion(&mut self, now: Cycle, c: &CompletedTransaction) {
        self.completions.push((now, c.core.index(), c.duration));
    }
    fn on_credit_flip(&mut self, at: Cycle, core: CoreId, eligible: bool) {
        self.flips.push((at, core.index(), eligible));
    }
    fn on_finish(&mut self, total: Cycle) {
        self.finish = Some(total);
    }
}

fn run(engine: Engine) -> EventLog {
    let mut bus = Bus::new(
        BusConfig::new(2, 56).unwrap(),
        PolicyKind::RoundRobin.build(2, 56),
    );
    bus.set_filter(Box::new(CreditFilter::new(
        CreditConfig::homogeneous(2, 56).unwrap(),
    )));
    bus.enable_flip_probe();
    let sim = Simulation::builder()
        .model(bus)
        .agent(FixedRequestTask::saturating(CoreId::from_index(0), 5))
        .agent(FixedRequestTask::saturating(CoreId::from_index(1), 45))
        .stop(StopWhen::Horizon(10_000))
        .engine(engine)
        .observe(EventLog::default())
        .run();
    sim.probe().clone()
}

#[test]
fn grant_and_completion_streams_are_engine_identical() {
    let naive = run(Engine::Naive);
    let fast = run(Engine::Events);
    assert_eq!(naive.grants, fast.grants);
    assert_eq!(naive.completions, fast.completions);
    assert_eq!(naive.finish, fast.finish);
    assert!(!naive.grants.is_empty());
    assert_eq!(
        naive.grants.len(),
        naive.completions.len() + 1,
        "every grant but the in-flight last one completed"
    );
}

#[test]
fn credit_flips_stream_through_the_probe() {
    let log = run(Engine::Naive);
    assert!(
        !log.flips.is_empty(),
        "a draining/recovering credit budget must flip eligibility"
    );
    // Both cores flip in both directions over a saturated run.
    for core in 0..2 {
        assert!(
            log.flips.iter().any(|&(_, c, e)| c == core && !e),
            "core {core} never went ineligible: {:?}",
            &log.flips[..log.flips.len().min(8)]
        );
        assert!(
            log.flips.iter().any(|&(_, c, e)| c == core && e),
            "core {core} never recovered eligibility"
        );
    }
    // Flip timestamps are nondecreasing (drained in occurrence order).
    assert!(log.flips.windows(2).all(|w| w[0].0 <= w[1].0));
    // And per core, consecutive flips alternate direction.
    for core in 0..2 {
        let dirs: Vec<bool> = log
            .flips
            .iter()
            .filter(|&&(_, c, _)| c == core)
            .map(|&(_, _, e)| e)
            .collect();
        assert!(
            dirs.windows(2).all(|w| w[0] != w[1]),
            "core {core} flip directions must alternate: {dirs:?}"
        );
    }
}
