//! An open-loop contention generator. The saturating contender of the
//! WCET-estimation scenarios is
//! [`FixedRequestTask::saturating`](crate::FixedRequestTask::saturating).

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::{Control, CoreId, Cycle};

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
}
