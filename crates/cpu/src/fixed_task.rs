//! A task with exactly-controlled bus behaviour, for analytic experiments.

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::{Control, CoreId, Cycle};

/// A task issuing exactly `n_requests` bus transactions of a fixed
/// `duration`, separated by fixed compute `gap`s — the task under analysis
/// of the paper's Section II illustrative example (1,000 requests of 6
/// cycles separated by 4 compute cycles: 10,000 cycles in isolation).
///
/// Unlike [`Core`](crate::Core) it bypasses the cache model so the request
/// stream is exactly the one the paper's arithmetic assumes; use it
/// wherever an experiment's analytic prediction must be checkable to the
/// cycle. [`FixedRequestTask::saturating`] is the endless, gap-free
/// variant: the worst-case contender of WCET-estimation mode.
///
/// # Example
///
/// ```
/// use cba_bus::{Bus, BusConfig, PolicyKind};
/// use cba_cpu::FixedRequestTask;
/// use sim_core::{CoreId, Simulation, StopWhen};
///
/// // The paper's illustrative task under analysis, alone on the bus.
/// let bus = Bus::new(BusConfig::new(1, 56)?, PolicyKind::RoundRobin.build(1, 56));
/// let sim = Simulation::builder()
///     .model(bus)
///     .agent(FixedRequestTask::new(CoreId::from_index(0), 1_000, 6, 4))
///     .stop(StopWhen::AgentDone(0))
///     .run();
/// // 1,000 x (4 compute + 6 bus) = 10,000 cycles in isolation.
/// assert_eq!(sim.agent(0).stats().done_at, Some(10_000));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixedRequestTask {
    core: CoreId,
    n_requests: u64,
    duration: u32,
    gap: u32,
    state: FixedState,
    completed: u64,
    done_at: Option<Cycle>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FixedState {
    /// Computing until the next request posts at cycle `post_at`.
    ///
    /// Absolute time (rather than a per-tick countdown) makes the state
    /// machine gap-tolerant: the event-driven engine can skip the compute
    /// stretch entirely and tick the task exactly at `post_at`.
    Computing { post_at: Cycle },
    /// Request posted / in service.
    Waiting,
    /// All requests served.
    Done,
}

impl FixedRequestTask {
    /// Creates the task: `n_requests` transactions of `duration` cycles,
    /// each preceded by `gap` compute cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_requests == 0` or `duration == 0`.
    pub fn new(core: CoreId, n_requests: u64, duration: u32, gap: u32) -> Self {
        assert!(n_requests > 0, "n_requests must be positive");
        assert!(duration > 0, "duration must be positive");
        FixedRequestTask {
            core,
            n_requests,
            duration,
            gap,
            state: FixedState::Computing {
                post_at: gap as Cycle,
            },
            completed: 0,
            done_at: None,
        }
    }

    /// A worst-case contender: always has a `duration`-cycle request
    /// posted, re-posting the same cycle the previous one completes, and
    /// never finishes (`new(core, u64::MAX, duration, 0)`).
    ///
    /// This is the paper's WCET-estimation-mode core model (Table I:
    /// `REQi` always set, the bus kept busy for `MaxL = 56` cycles per
    /// grant). Whether the contender actually *competes* each cycle is
    /// decided by the bus's eligibility filter: under plain RP it always
    /// does; under CBA its `COMP` bit gates it (budget full ∧ TuA request
    /// pending). With `duration = 28` it models the streaming applications
    /// of the paper's Section II illustrative example.
    ///
    /// # Example
    ///
    /// ```
    /// use cba_bus::{Bus, BusConfig, PolicyKind};
    /// use cba_cpu::FixedRequestTask;
    /// use sim_core::{CoreId, Simulation, StopWhen};
    ///
    /// let bus = Bus::new(BusConfig::new(2, 56)?, PolicyKind::RoundRobin.build(2, 56));
    /// let sim = Simulation::builder()
    ///     .model(bus)
    ///     .agent(FixedRequestTask::saturating(CoreId::from_index(1), 56))
    ///     .stop(StopWhen::Horizon(1_000))
    ///     .run();
    /// // Alone against nobody, it saturates the bus completely.
    /// assert_eq!(sim.model().idle_cycles(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `duration == 0`.
    pub fn saturating(core: CoreId, duration: u32) -> Self {
        Self::new(core, u64::MAX, duration, 0)
    }
}

/// The open client-side interface: the fixed-request task sleeps through
/// its compute gaps and finishes after its last completion. Generic over
/// the [`RequestPort`], so the same task drives a flat bus or a
/// hierarchical fabric.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for FixedRequestTask {
    /// Advances one cycle. Tolerates gaps: ticking is only required at
    /// the cycle the verdict names and at this task's completions. The
    /// verdict sleeps through a compute gap to the next post cycle, and
    /// while waiting or done until a completion (a bus event) wakes it.
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        if let Some(ct) = completed {
            if ct.core == self.core && matches!(self.state, FixedState::Waiting) {
                self.completed += 1;
                self.state = if self.completed == self.n_requests {
                    self.done_at = Some(now);
                    FixedState::Done
                } else {
                    FixedState::Computing {
                        post_at: now + self.gap as Cycle,
                    }
                };
            }
        }
        if let FixedState::Computing { post_at } = self.state {
            if now >= post_at {
                port.post(BusRequest::new(
                    self.core,
                    self.duration,
                    RequestKind::Synthetic,
                    now,
                ))
                .expect("fixed task posts one request at a time");
                self.state = FixedState::Waiting;
            }
        }
        match self.state {
            FixedState::Computing { post_at } => Control::Sleep(post_at),
            FixedState::Waiting | FixedState::Done => Control::Sleep(Cycle::MAX),
        }
    }

    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        completed.core == self.core
    }

    fn is_done(&self) -> bool {
        matches!(self.state, FixedState::Done)
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.completed,
            done_at: self.done_at,
            ..Default::default()
        }
    }

    /// State: the phase, and the next post cycle while computing;
    /// counter: completed requests.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        state.extend(match self.state {
            FixedState::Computing { post_at } => [0, post_at - now],
            FixedState::Waiting => [1, 0],
            FixedState::Done => [2, 0],
        });
        counters.push(self.completed);
        true
    }

    /// Stops short of the final completion, which sets `done_at`.
    fn limit_cycle_bound(&self, deltas: &[u64]) -> u64 {
        (self.n_requests - self.completed)
            .saturating_sub(1)
            .checked_div(deltas[0])
            .unwrap_or(u64::MAX)
    }

    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        if let FixedState::Computing { post_at } = &mut self.state {
            *post_at += shift;
        }
        self.completed += periods * deltas[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn rr_bus() -> Bus {
        Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        )
    }

    /// Runs cycle `now` of `bus` with the task ticked in it; returns the
    /// task's verdict.
    fn cycle(task: &mut FixedRequestTask, bus: &mut Bus, now: Cycle) -> Control {
        let done = bus.begin_cycle(now);
        let verdict = task.tick(now, done.as_ref(), bus);
        bus.end_cycle(now);
        verdict
    }

    /// The task's completion cycle, as the engine reads it.
    fn done_at(task: &FixedRequestTask) -> Option<Cycle> {
        SimAgent::<Bus, _>::stats(task).done_at
    }

    fn run(task: &mut FixedRequestTask, bus: &mut Bus, limit: Cycle) -> Cycle {
        let mut now = 0;
        while done_at(task).is_none() && now < limit {
            cycle(task, bus, now);
            now += 1;
        }
        now
    }

    #[test]
    fn isolation_time_matches_paper_arithmetic() {
        let mut tua = FixedRequestTask::new(c(0), 1000, 6, 4);
        run(&mut tua, &mut rr_bus(), 20_000);
        // 1,000 x (4 compute + 6 bus).
        assert_eq!(done_at(&tua), Some(10_000));
    }

    #[test]
    fn zero_gap_posts_back_to_back() {
        let mut tua = FixedRequestTask::new(c(0), 10, 5, 0);
        run(&mut tua, &mut rr_bus(), 1_000);
        // 10 x 5 cycles, no gaps, no contention: 50 cycles.
        assert_eq!(done_at(&tua), Some(50));
    }

    #[test]
    fn completion_counting() {
        let mut tua = FixedRequestTask::new(c(0), 3, 7, 2);
        run(&mut tua, &mut rr_bus(), 100);
        assert_eq!(tua.completed, 3);
        assert_eq!(done_at(&tua), Some(3 * 9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_requests_rejected() {
        let _ = FixedRequestTask::new(c(0), 0, 6, 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        let _ = FixedRequestTask::saturating(c(0), 0);
    }

    #[test]
    fn saturating_task_saturates_alone() {
        let mut bus = rr_bus();
        let mut k = FixedRequestTask::saturating(c(0), 56);
        for now in 0..5600u64 {
            cycle(&mut k, &mut bus, now);
        }
        assert_eq!(bus.idle_cycles(), 0);
        assert_eq!(k.completed, 5600 / 56 - 1, "back-to-back MaxL grants");
        assert!(!SimAgent::<Bus, _>::is_done(&k));
    }

    #[test]
    fn three_saturating_tasks_share_slots_fairly_under_rr() {
        let mut bus = Bus::new(
            BusConfig::new(3, 56).unwrap(),
            PolicyKind::RoundRobin.build(3, 56),
        );
        let mut ks: Vec<_> = (0..3)
            .map(|i| FixedRequestTask::saturating(c(i), 28))
            .collect();
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
    fn wake_at_tracks_the_state_machine() {
        let mut bus = rr_bus();
        let mut tua = FixedRequestTask::new(c(0), 2, 6, 4);
        let first = cycle(&mut tua, &mut bus, 0);
        assert_eq!(first, Control::Sleep(4), "first post after the gap");
        let posted = cycle(&mut tua, &mut bus, 4);
        assert_eq!(posted, Control::Sleep(Cycle::MAX), "waiting for the grant");
        let mut last = posted;
        for now in 5..100u64 {
            last = cycle(&mut tua, &mut bus, now);
        }
        assert!(SimAgent::<Bus, _>::is_done(&tua));
        assert_eq!(last, Control::Sleep(Cycle::MAX));
    }

    #[test]
    fn sparse_ticking_at_wake_cycles_matches_dense_ticking() {
        // Dense: tick every cycle. Sparse: tick only at the cycles the
        // verdicts name and at completion cycles — the event engine's
        // visiting pattern.
        let dense_done = {
            let mut tua = FixedRequestTask::new(c(0), 5, 7, 3);
            run(&mut tua, &mut rr_bus(), 1_000);
            done_at(&tua).unwrap()
        };
        let mut bus = rr_bus();
        let mut tua = FixedRequestTask::new(c(0), 5, 7, 3);
        let mut now = 0u64;
        let mut visited = 0u64;
        while done_at(&tua).is_none() && now < 1_000 {
            let wake = match cycle(&mut tua, &mut bus, now) {
                Control::Sleep(t) => t,
                _ => now + 1,
            };
            visited += 1;
            let next = match (wake, bus.next_event(now)) {
                (Cycle::MAX, Some(ev)) => ev,
                (wake, Some(ev)) => wake.min(ev),
                (wake, None) => wake.min(now + 1),
            };
            now = next.max(now + 1).min(1_000);
        }
        assert_eq!(done_at(&tua), Some(dense_done));
        assert!(
            visited < dense_done / 2,
            "sparse ticking should visit far fewer cycles: {visited} of {dense_done}"
        );
    }
}
