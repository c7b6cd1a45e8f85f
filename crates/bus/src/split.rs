//! A split-transaction bus variant.
//!
//! The paper's Section III.C argues CBA matters even for buses *with*
//! split transactions: splitting homogenizes most request durations (the
//! bus is released while memory works), "but the worst-case situation,
//! having very long and very short requests, is possible since atomic
//! operations by definition cannot be split". This module implements that
//! substrate so the claim can be tested instead of asserted:
//!
//! * [`SplitRequest::Immediate`] — short transaction served on the bus
//!   (L2 hit): holds the bus for its duration, like the non-split model;
//! * [`SplitRequest::Split`] — memory-bound transaction: a command phase
//!   holds the bus briefly, the bus is *released* during the memory
//!   access (a single-channel memory controller serializes these), and a
//!   response phase re-acquires the bus with response priority;
//! * [`SplitRequest::Atomic`] — unsplittable read-modify-write: occupies
//!   the bus end-to-end for two memory accesses, exactly like the
//!   non-split worst case.
//!
//! [`SplitBus`] composes the existing [`Bus`] (arbitration policy +
//! eligibility filter apply to bus *acquisitions*, so CBA budgets drain
//! only for cycles actually held — the correct bandwidth notion on a
//! split bus) with a FIFO memory channel.

use crate::bus::{Bus, BusConfig};
use crate::policy::{ArbitrationPolicy, RandomSource};
use crate::{BusError, BusRequest, RequestKind, RequestPort};
use sim_core::trace::GrantTrace;
use sim_core::{BusModel, CoreId, Cycle};
use std::collections::VecDeque;

/// One request on the split bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitRequest {
    /// Served entirely on the bus (e.g. an L2 hit of `duration` cycles).
    Immediate {
        /// Bus hold time.
        duration: u32,
    },
    /// Command phase + off-bus memory access + response phase.
    Split,
    /// Unsplittable atomic: holds the bus for `duration` cycles
    /// (command + two memory accesses + response, fused).
    Atomic {
        /// Total bus hold time.
        duration: u32,
    },
}

/// Configuration of the split bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitBusConfig {
    /// Number of cores.
    pub n_cores: usize,
    /// MaxL for the arbiter (the atomic duration dominates).
    pub max_latency: u32,
    /// Bus cycles of a command or response phase.
    pub phase_cycles: u32,
    /// Off-bus memory access latency (single channel, FIFO).
    pub mem_latency: u32,
}

impl SplitBusConfig {
    /// The paper-equivalent platform: 4 cores, 5-cycle phases, 28-cycle
    /// memory, 56-cycle atomics.
    pub fn paper() -> Self {
        SplitBusConfig {
            n_cores: 4,
            max_latency: 56,
            phase_cycles: 5,
            mem_latency: 28,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidConfig`] if any field is zero or the
    /// phase exceeds MaxL.
    pub fn validate(&self) -> Result<(), BusError> {
        if self.n_cores == 0 {
            return Err(BusError::InvalidConfig("n_cores must be positive".into()));
        }
        if self.phase_cycles == 0 || self.mem_latency == 0 || self.max_latency == 0 {
            return Err(BusError::InvalidConfig(
                "phase, memory and max latencies must be positive".into(),
            ));
        }
        if self.phase_cycles > self.max_latency {
            return Err(BusError::InvalidConfig("phase cannot exceed MaxL".into()));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Idle,
    /// Waiting for / holding the bus for an immediate or atomic request.
    OnBus,
    /// Command phase posted or in flight.
    Command,
    /// Queued at / being served by the memory channel (`done_at`).
    Memory,
    /// Response phase pending arbitration or in flight.
    Response,
}

/// Completion report: the split request of `core` fully finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitCompletion {
    /// The requesting core.
    pub core: CoreId,
}

/// The split-transaction bus.
///
/// # Example
///
/// ```
/// use cba_bus::split::{SplitBus, SplitBusConfig, SplitRequest};
/// use cba_bus::{BusModel, PolicyKind};
/// use sim_core::CoreId;
///
/// let mut bus = SplitBus::new(SplitBusConfig::paper(),
///                             PolicyKind::RoundRobin.build(4, 56))?;
/// let c0 = CoreId::from_index(0);
/// bus.post(c0, SplitRequest::Split)?;
/// let mut done_at = None;
/// for now in 0..200u64 {
///     if bus.begin_cycle(now).is_some_and(|c| c.core == c0) {
///         done_at = Some(now);
///     }
///     bus.end_cycle(now);
/// }
/// // 5-cycle command + 28-cycle memory + 5-cycle response ≈ 38 cycles,
/// // but the bus itself was held for only 10 of them.
/// assert!(done_at.unwrap() < 45);
/// assert_eq!(bus.inner().trace().busy_cycles(c0), 10);
/// # Ok::<(), cba_bus::BusError>(())
/// ```
#[derive(Debug)]
pub struct SplitBus {
    config: SplitBusConfig,
    inner: Bus,
    states: Vec<CoreState>,
    /// Memory channel: FIFO of cores whose access is queued; head is in
    /// service until `mem_done_at`.
    mem_queue: VecDeque<CoreId>,
    mem_done_at: Option<Cycle>,
    /// Responses waiting for the bus (served with priority, FIFO).
    resp_queue: VecDeque<CoreId>,
    /// Requests accepted by `post` awaiting submission at the next
    /// `end_cycle`.
    pending_posts: Vec<(CoreId, u32, RequestKind)>,
}

impl SplitBus {
    /// Creates a split bus with the given arbitration policy.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(
        config: SplitBusConfig,
        policy: Box<dyn ArbitrationPolicy>,
    ) -> Result<Self, BusError> {
        config.validate()?;
        Ok(SplitBus {
            inner: Bus::new(BusConfig::new(config.n_cores, config.max_latency)?, policy),
            states: vec![CoreState::Idle; config.n_cores],
            mem_queue: VecDeque::new(),
            mem_done_at: None,
            resp_queue: VecDeque::new(),
            pending_posts: Vec::new(),
            config,
        })
    }

    /// Replaces the eligibility filter of the underlying bus (budgets
    /// drain for held bus cycles only).
    pub fn set_filter(&mut self, filter: Box<dyn crate::policy::EligibilityFilter>) {
        self.inner.set_filter(filter);
    }

    /// Replaces the random-bit source of the underlying bus's randomized
    /// policies (see [`Bus::set_random_source`]).
    pub fn set_random_source(&mut self, rng: Box<dyn RandomSource>) {
        self.inner.set_random_source(rng);
    }

    /// Starts watching the underlying bus's eligibility filter for
    /// verdict flips (see [`Bus::enable_flip_probe`]).
    pub fn enable_flip_probe(&mut self) {
        self.inner.enable_flip_probe();
    }

    /// The underlying bus (occupancy trace, wait statistics).
    pub fn inner(&self) -> &Bus {
        &self.inner
    }

    /// Whether `core` can accept a new request.
    pub fn is_idle(&self, core: CoreId) -> bool {
        self.states[core.index()] == CoreState::Idle
    }

    /// Posts a request for `core`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::AlreadyPending`] if the core's previous request
    /// has not completed, or duration/core validation errors from the
    /// underlying bus model.
    pub fn post(&mut self, core: CoreId, request: SplitRequest) -> Result<(), BusError> {
        if core.index() >= self.config.n_cores {
            return Err(BusError::UnknownCore(core));
        }
        if !self.is_idle(core) {
            return Err(BusError::AlreadyPending(core));
        }
        // The actual bus posting happens inside `end_cycle` (we need
        // `now`); store intent in the state machine.
        self.states[core.index()] = match request {
            SplitRequest::Immediate { duration } => {
                validate_duration(duration, self.config.max_latency)?;
                self.pending_posts
                    .push((core, duration, RequestKind::L2ReadHit));
                CoreState::OnBus
            }
            SplitRequest::Atomic { duration } => {
                validate_duration(duration, self.config.max_latency)?;
                self.pending_posts
                    .push((core, duration, RequestKind::Atomic));
                CoreState::OnBus
            }
            SplitRequest::Split => {
                self.pending_posts
                    .push((core, self.config.phase_cycles, RequestKind::L2MissClean));
                CoreState::Command
            }
        };
        Ok(())
    }

    /// Resets the split bus for a fresh run, reusing the underlying bus's
    /// trace/statistics buffers and this layer's queues (see
    /// [`Bus::reset`]).
    pub fn reset(&mut self) {
        self.inner.reset();
        self.states.fill(CoreState::Idle);
        self.mem_queue.clear();
        self.mem_done_at = None;
        self.resp_queue.clear();
        self.pending_posts.clear();
    }
}

/// The split bus speaks the same cycle protocol as [`Bus`]; its clients
/// post per core through [`SplitBus::post`].
impl BusModel for SplitBus {
    type Completion = SplitCompletion;

    /// Phase 1 of cycle `now`: reports the split request (if any) that
    /// fully completed at `now`, advances the memory channel, and turns
    /// finished memory accesses into privileged response-phase
    /// reservations.
    fn begin_cycle(&mut self, now: Cycle) -> Option<SplitCompletion> {
        let mut completion = None;

        // Bus completion drives the per-core state machine.
        if let Some(done) = self.inner.begin_cycle(now) {
            let idx = done.core.index();
            match self.states[idx] {
                CoreState::OnBus | CoreState::Response => {
                    self.states[idx] = CoreState::Idle;
                    completion = Some(SplitCompletion { core: done.core });
                }
                CoreState::Command => {
                    // Command phase finished: queue the memory access.
                    self.states[idx] = CoreState::Memory;
                    self.mem_queue.push_back(done.core);
                }
                CoreState::Memory | CoreState::Idle => {
                    unreachable!("bus completion for a core not on the bus")
                }
            }
        }

        // Memory channel: start/finish accesses (single channel, FIFO).
        if let Some(done_at) = self.mem_done_at {
            if now >= done_at {
                let core = self.mem_queue.pop_front().expect("head in service");
                self.mem_done_at = None;
                // Response phase needs the bus again.
                self.resp_queue.push_back(core);
            }
        }
        if self.mem_done_at.is_none() && !self.mem_queue.is_empty() {
            self.mem_done_at = Some(now + self.config.mem_latency as Cycle);
        }

        // Responses re-acquire the bus through the privileged port: they
        // already won arbitration for the transfer during their command
        // phase, so they are served FIFO ahead of fresh requests and are
        // not budget-gated (budgets still drain while they hold the bus).
        while let Some(core) = self.resp_queue.pop_front() {
            self.inner
                .post_privileged(BusRequest::new(
                    core,
                    self.config.phase_cycles,
                    RequestKind::L2MissClean,
                    now,
                ))
                .expect("validated core and phase");
            self.states[core.index()] = CoreState::Response;
        }

        completion
    }

    /// Phase 3 of cycle `now`: submits the requests accepted by
    /// [`SplitBus::post`] since the last cycle and runs the underlying
    /// bus's arbitration. Returns the core granted the bus at `now`, if
    /// any.
    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        let posts = std::mem::take(&mut self.pending_posts);
        for (core, duration, kind) in posts {
            self.inner
                .post(BusRequest::new(core, duration, kind, now))
                .expect("state machine enforces one outstanding request");
        }
        self.inner.end_cycle(now)
    }

    /// The underlying bus's trace: bus acquisitions, not whole requests.
    fn trace(&self) -> &GrantTrace {
        self.inner.trace()
    }

    /// The split bus's event horizon (see [`BusModel::next_event`]): the
    /// earlier of the underlying bus's event and the memory channel's
    /// completion. Any queued hand-off (an accepted post awaiting
    /// submission, a response awaiting its privileged reservation, or a
    /// memory access awaiting service) resolves next cycle, so those
    /// states report `now + 1` (no skipping).
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        if !self.pending_posts.is_empty() || !self.resp_queue.is_empty() {
            return Some(now + 1);
        }
        if self.mem_done_at.is_none() && !self.mem_queue.is_empty() {
            return Some(now + 1);
        }
        let inner = self.inner.next_event(now)?;
        Some(match self.mem_done_at {
            Some(t) => inner.min(t),
            None => inner,
        })
    }

    /// Bulk-advances the uneventful range on the underlying bus; the split
    /// bus's own state machines are event-driven and have nothing to
    /// account per cycle.
    fn advance(&mut self, from: Cycle, to: Cycle) {
        self.inner.advance(from, to);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(sim_core::ModelEvent)) {
        self.inner.drain_events(sink)
    }
}

fn validate_duration(duration: u32, maxl: u32) -> Result<(), BusError> {
    if duration == 0 || duration > maxl {
        Err(BusError::DurationOutOfRange {
            got: duration,
            max: maxl,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn mk() -> SplitBus {
        SplitBus::new(SplitBusConfig::paper(), PolicyKind::RoundRobin.build(4, 56)).unwrap()
    }

    /// One cycle with no posts between its phases; returns the completion.
    fn step(bus: &mut SplitBus, now: Cycle) -> Option<SplitCompletion> {
        let completed = bus.begin_cycle(now);
        bus.end_cycle(now);
        completed
    }

    #[test]
    fn config_validation() {
        let mut cfg = SplitBusConfig::paper();
        cfg.phase_cycles = 0;
        assert!(cfg.validate().is_err());
        cfg = SplitBusConfig::paper();
        cfg.phase_cycles = 57;
        assert!(cfg.validate().is_err());
        assert!(SplitBusConfig::paper().validate().is_ok());
    }

    #[test]
    fn split_transaction_releases_the_bus_during_memory() {
        let mut bus = mk();
        bus.post(c(0), SplitRequest::Split).unwrap();
        let mut done = None;
        for now in 0..200u64 {
            if let Some(comp) = step(&mut bus, now) {
                if comp.core == c(0) {
                    done = Some(now);
                }
            }
        }
        let done = done.expect("split request completes");
        // cmd 5 + mem 28 + response 5 (+ re-arbitration) ≈ 38-40 cycles.
        assert!((36..=42).contains(&done), "done at {done}");
        // Bus held only for the two 5-cycle phases.
        assert_eq!(bus.inner().trace().busy_cycles(c(0)), 10);
        assert_eq!(bus.inner().trace().slots(c(0)), 2);
    }

    #[test]
    fn immediate_and_atomic_hold_end_to_end() {
        let mut bus = mk();
        bus.post(c(0), SplitRequest::Immediate { duration: 5 })
            .unwrap();
        bus.post(c(1), SplitRequest::Atomic { duration: 56 })
            .unwrap();
        for now in 0..200u64 {
            step(&mut bus, now);
        }
        assert_eq!(bus.inner().trace().busy_cycles(c(0)), 5);
        assert_eq!(bus.inner().trace().slots(c(0)), 1);
        assert_eq!(bus.inner().trace().busy_cycles(c(1)), 56);
        assert_eq!(bus.inner().trace().slots(c(1)), 1);
    }

    #[test]
    fn memory_channel_serializes_concurrent_misses() {
        // Two split requests back to back: their memory accesses overlap on
        // the bus side but serialize at the single memory channel.
        let mut bus = mk();
        bus.post(c(0), SplitRequest::Split).unwrap();
        bus.post(c(1), SplitRequest::Split).unwrap();
        let mut done = [None, None];
        for now in 0..300u64 {
            if let Some(comp) = step(&mut bus, now) {
                done[comp.core.index()] = Some(now);
            }
        }
        let d0 = done[0].unwrap();
        let d1 = done[1].unwrap();
        // Second finisher waits one extra memory access: ~28 later.
        assert!((d1 as i64 - d0 as i64).unsigned_abs() >= 25, "{d0} vs {d1}");
        // But both commands were on the bus within the first ~15 cycles:
        // the split bus overlaps command phases with memory service.
        assert!(d1.min(d0) <= 45);
    }

    #[test]
    fn double_post_rejected_until_completion() {
        let mut bus = mk();
        bus.post(c(0), SplitRequest::Split).unwrap();
        assert!(matches!(
            bus.post(c(0), SplitRequest::Split),
            Err(BusError::AlreadyPending(_))
        ));
        for now in 0..100u64 {
            step(&mut bus, now);
        }
        assert!(bus.is_idle(c(0)));
        assert!(bus.post(c(0), SplitRequest::Split).is_ok());
    }

    #[test]
    fn cba_filter_composes_with_the_split_bus() {
        // The credit filter applies to bus acquisitions: with three
        // atomic-hammering cores and one short-request core, no core may
        // exceed 1/N of the *bus* cycles.
        use crate::policy::EligibilityFilter;

        /// Minimal credit filter reimplementation is not needed — use a
        /// veto-free budget check through the real `cba` crate in the
        /// integration tests; here, verify the filter hook works at all on
        /// the split bus with a throttling filter.
        #[derive(Debug)]
        struct EveryOtherHundred;
        impl EligibilityFilter for EveryOtherHundred {
            fn name(&self) -> &'static str {
                "alt"
            }
            fn eligible(&self, cores: u64, now: u64) -> u64 {
                // Core 1 only eligible in even 100-cycle windows.
                match (now / 100) % 2 {
                    0 => cores,
                    _ => cores & !c(1).bit(),
                }
            }
        }
        let mut bus = mk();
        bus.set_filter(Box::new(EveryOtherHundred));
        bus.post(c(1), SplitRequest::Atomic { duration: 56 })
            .unwrap();
        // Posted at cycle 0 (eligible window), so it runs; repost in an
        // odd window and it must wait for the next even one.
        let mut completed_at = None;
        for now in 0..500u64 {
            if now == 130 && bus.is_idle(c(1)) {
                bus.post(c(1), SplitRequest::Atomic { duration: 56 })
                    .unwrap();
            }
            let done = step(&mut bus, now);
            if done.is_some() && now > 130 {
                completed_at = completed_at.or(Some(now));
            }
        }
        let done = completed_at.expect("second atomic completes");
        assert!(
            done >= 200 + 56,
            "filter must defer the grant to cycle 200+: {done}"
        );
    }

    #[test]
    fn next_event_covers_the_memory_channel() {
        let mut bus = mk();
        bus.post(c(0), SplitRequest::Split).unwrap();
        // The accepted post is submitted at the next tick: no skipping.
        assert_eq!(bus.next_event(0), Some(1));
        step(&mut bus, 0); // command phase granted: bus busy [0, 5)
        assert_eq!(bus.next_event(0), Some(5));
        for now in 1..=5u64 {
            step(&mut bus, now);
        }
        // Command completed at 5 and the memory access entered service in
        // the same begin_cycle: the 28-cycle memory completion bounds the
        // horizon while the bus itself is idle.
        assert_eq!(bus.next_event(5), Some(5 + 28));
        // At the memory completion the response queues; the privileged
        // reservation then forbids skipping until it is granted.
        for now in 6..=33u64 {
            step(&mut bus, now);
        }
        assert_eq!(bus.inner().trace().slots(c(0)), 2, "response granted");
    }

    #[test]
    fn reset_clears_split_state_and_reuses_buffers() {
        let mut bus = mk();
        bus.post(c(0), SplitRequest::Split).unwrap();
        bus.post(c(1), SplitRequest::Atomic { duration: 56 })
            .unwrap();
        for now in 0..20u64 {
            step(&mut bus, now);
        }
        bus.reset();
        assert!(bus.is_idle(c(0)));
        assert!(bus.is_idle(c(1)));
        assert_eq!(bus.inner().trace().total_slots(), 0);
        assert_eq!(bus.inner().total_cycles(), 0);
        // A fresh run from cycle 0 behaves like a new bus.
        bus.post(c(0), SplitRequest::Immediate { duration: 5 })
            .unwrap();
        for now in 0..10u64 {
            step(&mut bus, now);
        }
        assert_eq!(bus.inner().trace().busy_cycles(c(0)), 5);
    }

    #[test]
    fn atomics_still_monopolize_a_split_bus() {
        // The paper's argument: with three cores issuing back-to-back
        // atomics, a short-request core on a *split* bus is starved just
        // like on the non-split one.
        let mut bus = mk();
        let horizon = 50_000u64;
        let mut short_done = 0u64;
        for now in 0..horizon {
            if bus.is_idle(c(0)) {
                bus.post(c(0), SplitRequest::Immediate { duration: 5 })
                    .unwrap();
            }
            for i in 1..4 {
                if bus.is_idle(c(i)) {
                    bus.post(c(i), SplitRequest::Atomic { duration: 56 })
                        .unwrap();
                }
            }
            if let Some(comp) = step(&mut bus, now) {
                if comp.core == c(0) {
                    short_done += 1;
                }
            }
        }
        let share = bus.inner().trace().busy_cycles(c(0)) as f64 / horizon as f64;
        assert!(
            share < 0.05,
            "short-request core must be starved by atomics: {share}"
        );
        assert!(
            short_done > 0,
            "but not absolutely starved (RR is fair in slots)"
        );
    }
}
