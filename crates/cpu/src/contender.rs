//! Contention generators for the maximum-contention (WCET-estimation)
//! scenarios.

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::{Control, CoreId, Cycle};

/// A worst-case contender: always has a `duration`-cycle request posted,
/// re-posting the same cycle the previous one completes.
///
/// This is the paper's WCET-estimation-mode core model (Table I: `REQi`
/// always set, the bus kept busy for `MaxL = 56` cycles per grant). Whether
/// the contender actually *competes* each cycle is decided by the bus's
/// eligibility filter: under plain RP it always does; under CBA its `COMP`
/// bit gates it (budget full ∧ TuA request pending).
///
/// The same type with `duration = 28` models the streaming applications of
/// the paper's Section II illustrative example.
///
/// # Example
///
/// ```
/// use cba_bus::{Bus, BusConfig, PolicyKind};
/// use cba_cpu::Contender;
/// use sim_core::{CoreId, Simulation, StopWhen};
///
/// let bus = Bus::new(BusConfig::new(2, 56)?, PolicyKind::RoundRobin.build(2, 56));
/// let sim = Simulation::builder()
///     .model(bus)
///     .agent(Contender::new(CoreId::from_index(1), 56))
///     .stop(StopWhen::Horizon(1_000))
///     .run();
/// // Alone against nobody, it saturates the bus completely.
/// assert_eq!(sim.model().idle_cycles(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Contender {
    core: CoreId,
    duration: u32,
    grants: u64,
}

impl Contender {
    /// Creates a saturating contender issuing `duration`-cycle requests.
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0`.
    pub fn new(core: CoreId, duration: u32) -> Self {
        assert!(duration > 0, "duration must be positive");
        Contender {
            core,
            duration,
            grants: 0,
        }
    }
}

/// The open client-side interface: a saturating contender never
/// finishes and sleeps until bus events. Generic
/// over the [`RequestPort`], so the same contender saturates a flat bus or
/// one cluster of a hierarchical fabric.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for Contender {
    /// Keeps exactly one request posted at all times. After a tick the
    /// contender always has its one request posted (or in service), so
    /// only a completion — a bus event — can make it act.
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        if let Some(ct) = completed {
            if ct.core == self.core {
                self.grants += 1;
            }
        }
        if port.can_accept(self.core) {
            port.post(BusRequest::new(
                self.core,
                self.duration,
                RequestKind::Contender,
                now,
            ))
            .expect("contender posts at most one request");
        }
        Control::Sleep(Cycle::MAX)
    }

    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        completed.core == self.core
    }

    fn is_done(&self) -> bool {
        false
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.grants,
            ..Default::default()
        }
    }

    /// No state of its own (its one request lives on the bus); the grant
    /// count is its counter.
    fn limit_cycle_state(&self, _: Cycle, _: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        counters.push(self.grants);
        true
    }

    fn limit_cycle_jump(&mut self, periods: u64, _shift: Cycle, deltas: &[u64]) {
        self.grants += periods * deltas[0];
    }
}

/// A periodic contender: issues a `duration`-cycle request every `period`
/// cycles (models a real co-runner with known bandwidth demand rather than
/// the worst case).
///
/// If a request is still pending when the next period arrives, the new
/// request is skipped (the co-runner is blocking, like a real core).
#[derive(Debug, Clone)]
pub struct PeriodicContender {
    core: CoreId,
    duration: u32,
    period: Cycle,
    next_issue: Cycle,
    grants: u64,
}

impl PeriodicContender {
    /// Creates a contender issuing `duration`-cycle requests every
    /// `period` cycles, starting at `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0` or `period == 0`.
    pub fn new(core: CoreId, duration: u32, period: Cycle, phase: Cycle) -> Self {
        assert!(duration > 0, "duration must be positive");
        assert!(period > 0, "period must be positive");
        PeriodicContender {
            core,
            duration,
            period,
            next_issue: phase,
            grants: 0,
        }
    }
}

/// The open client-side interface: a periodic contender never finishes
/// and sleeps until its next issue boundary.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for PeriodicContender {
    /// Posts at each issue boundary. The contender must be ticked at its
    /// next boundary (the issue is *skipped*, not deferred, when its
    /// previous request is still pending — so the boundary matters either
    /// way); between boundaries only completions can make it act.
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        if let Some(ct) = completed {
            if ct.core == self.core {
                self.grants += 1;
            }
        }
        if now >= self.next_issue {
            if port.can_accept(self.core) {
                port.post(BusRequest::new(
                    self.core,
                    self.duration,
                    RequestKind::Contender,
                    now,
                ))
                .expect("periodic contender posts at most one request");
            }
            self.next_issue += self.period;
        }
        Control::Sleep(self.next_issue)
    }

    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        completed.core == self.core
    }

    fn is_done(&self) -> bool {
        false
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.grants,
            ..Default::default()
        }
    }

    /// State: the next issue boundary; counter: the grant count.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        state.push(self.next_issue - now);
        counters.push(self.grants);
        true
    }

    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        self.next_issue += shift;
        self.grants += periods * deltas[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn contender_saturates_alone() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut k = Contender::new(c(0), 56);
        for now in 0..5600u64 {
            let done = bus.begin_cycle(now);
            k.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
        }
        assert_eq!(bus.idle_cycles(), 0);
        assert_eq!(k.grants, 5600 / 56 - 1, "back-to-back MaxL grants");
    }

    #[test]
    fn three_contenders_share_slots_fairly_under_rr() {
        let mut bus = Bus::new(
            BusConfig::new(3, 56).unwrap(),
            PolicyKind::RoundRobin.build(3, 56),
        );
        let mut ks: Vec<Contender> = (0..3).map(|i| Contender::new(c(i), 28)).collect();
        for now in 0..8400u64 {
            let done = bus.begin_cycle(now);
            for k in &mut ks {
                k.tick(now, done.as_ref(), &mut bus);
            }
            bus.end_cycle(now);
        }
        assert_eq!(bus.idle_cycles(), 0);
        let slots: Vec<u64> = (0..3).map(|i| bus.trace().slots(c(i))).collect();
        let min = slots.iter().min().unwrap();
        let max = slots.iter().max().unwrap();
        assert!(max - min <= 1, "slots: {slots:?}");
    }

    #[test]
    fn periodic_contender_respects_period() {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut k = PeriodicContender::new(c(0), 5, 100, 0);
        for now in 0..1000u64 {
            let done = bus.begin_cycle(now);
            k.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
        }
        assert_eq!(bus.trace().slots(c(0)), 10, "one request per 100 cycles");
        assert_eq!(bus.trace().busy_cycles(c(0)), 50);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        let _ = Contender::new(c(0), 0);
    }
}
