//! A split-transaction bus variant.
//!
//! The paper's Section III.C argues CBA matters even for buses *with*
//! split transactions: splitting homogenizes most request durations (the
//! bus is released while memory works), "but the worst-case situation,
//! having very long and very short requests, is possible since atomic
//! operations by definition cannot be split". This module implements that
//! substrate so the claim can be tested instead of asserted.
//!
//! [`SplitBus`] takes the platform's [`BusRequest`]s through
//! [`RequestPort`], and the request's kind decides how it uses the bus:
//!
//! * [`RequestKind::L2MissClean`] and [`RequestKind::L2MissDirty`] are
//!   split: a command phase holds the bus briefly, the bus is *released*
//!   during the memory access (a single-channel memory controller
//!   serializes these), and a response phase re-acquires the bus with
//!   response priority. Each phase carries the posted kind;
//! * every other kind — L2 hits and writes, coherence traffic, and the
//!   unsplittable [`RequestKind::Atomic`] — holds the bus from start to
//!   end for its own duration, exactly like the non-split model.
//!
//! A request's completion is the [`CompletedTransaction`] of its last bus
//! phase, so the platform's agents drive a split bus unchanged.
//!
//! [`SplitBus`] composes the existing [`Bus`] (arbitration policy +
//! eligibility filter apply to bus *acquisitions*, so CBA budgets drain
//! only for cycles actually held — the correct bandwidth notion on a
//! split bus) with a FIFO memory channel.

use crate::bus::{Bus, BusConfig, CompletedTransaction};
use crate::policy::ArbitrationPolicy;
use crate::{BusError, BusRequest, RequestKind, RequestPort};
use sim_core::lfsr::LfsrBank;
use sim_core::trace::GrantTrace;
use sim_core::{BusModel, CoreId, Cycle};
use std::collections::VecDeque;

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

    /// Validates the configuration and returns the configuration of the
    /// underlying bus.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidConfig`] if [`BusConfig::new`] rejects
    /// the core count or MaxL, if the phase or the memory latency is
    /// zero, or if the phase exceeds MaxL.
    pub(crate) fn validate(&self) -> Result<BusConfig, BusError> {
        let bus = BusConfig::new(self.n_cores, self.max_latency)?;
        if self.phase_cycles == 0 || self.mem_latency == 0 {
            return Err(BusError::InvalidConfig(
                "phase and memory latencies must be positive".into(),
            ));
        }
        if self.phase_cycles > self.max_latency {
            return Err(BusError::InvalidConfig("phase cannot exceed MaxL".into()));
        }
        Ok(bus)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Idle,
    /// The request's last bus phase is posted or holds the bus: an
    /// unsplit request, or a split request's response.
    LastPhase,
    /// A split request's command phase is posted or holds the bus.
    Command,
    /// A split request's memory access is queued or in service.
    Memory,
}

/// The split-transaction bus.
///
/// # Example
///
/// ```
/// use cba_bus::split::{SplitBus, SplitBusConfig};
/// use cba_bus::{BusModel, BusRequest, PolicyKind, RequestKind, RequestPort};
/// use sim_core::CoreId;
///
/// let mut bus = SplitBus::new(SplitBusConfig::paper(),
///                             PolicyKind::RoundRobin.build(4, 56))?;
/// let c0 = CoreId::from_index(0);
/// // A clean L2 miss, which holds a non-split bus for 28 cycles.
/// bus.post(BusRequest::new(c0, 28, RequestKind::L2MissClean, 0))?;
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
    /// Memory channel: FIFO of the split requests (core and posted kind)
    /// whose access is queued; the head is in service until
    /// `mem_done_at`.
    mem_queue: VecDeque<(CoreId, RequestKind)>,
    mem_done_at: Option<Cycle>,
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
        Ok(SplitBus {
            inner: Bus::new(config.validate()?, policy),
            states: vec![CoreState::Idle; config.n_cores],
            mem_queue: VecDeque::new(),
            mem_done_at: None,
            config,
        })
    }

    /// Replaces the eligibility filter of the underlying bus (budgets
    /// drain for held bus cycles only).
    pub fn set_filter(&mut self, filter: Box<dyn crate::policy::EligibilityFilter>) {
        self.inner.set_filter(filter);
    }

    /// Replaces the random-bit bank of the underlying bus's randomized
    /// policies (see [`Bus::set_random_source`]).
    pub fn set_random_source(&mut self, rng: LfsrBank) {
        self.inner.set_random_source(rng);
    }

    /// The underlying bus (occupancy trace, idle and total cycles).
    pub fn inner(&self) -> &Bus {
        &self.inner
    }
}

/// The split bus speaks the same cycle protocol as [`Bus`] and reports
/// the same [`CompletedTransaction`]s.
impl BusModel for SplitBus {
    type Completion = CompletedTransaction;

    /// Phase 1 of cycle `now`: reports the request (if any) whose last
    /// bus phase completed at `now`, queues the memory access of a
    /// finished command phase, advances the memory channel, and turns a
    /// finished memory access into a privileged response-phase
    /// reservation.
    fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        let mut completion = None;

        // Bus completion drives the per-core state machine.
        if let Some(done) = self.inner.begin_cycle(now) {
            let state = &mut self.states[done.core.index()];
            match *state {
                CoreState::LastPhase => {
                    *state = CoreState::Idle;
                    completion = Some(done);
                }
                CoreState::Command => {
                    *state = CoreState::Memory;
                    self.mem_queue.push_back((done.core, done.kind));
                }
                CoreState::Memory | CoreState::Idle => {
                    unreachable!("bus completion for a core not on the bus")
                }
            }
        }

        // Memory channel (single channel, FIFO). A finished access
        // re-acquires the bus through the privileged port: it already won
        // arbitration for the transfer during its command phase, so its
        // response is served ahead of fresh requests and is not
        // budget-gated (budgets still drain while it holds the bus).
        if self.mem_done_at.is_some_and(|done_at| now >= done_at) {
            let (core, kind) = self.mem_queue.pop_front().expect("head in service");
            self.mem_done_at = None;
            self.inner
                .post_privileged(BusRequest::new(core, self.config.phase_cycles, kind, now))
                .expect("validated core and phase");
            self.states[core.index()] = CoreState::LastPhase;
        }
        if self.mem_done_at.is_none() && !self.mem_queue.is_empty() {
            self.mem_done_at = Some(now + self.config.mem_latency as Cycle);
        }

        completion
    }

    /// Phase 3 of cycle `now`: the underlying bus's arbitration. Returns
    /// the core granted the bus at `now`, if any.
    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        self.inner.end_cycle(now)
    }

    /// The underlying bus's trace: bus acquisitions, not whole requests.
    fn trace(&self) -> &GrantTrace {
        self.inner.trace()
    }

    /// The split bus's event horizon (see [`BusModel::next_event`]): the
    /// earlier of the underlying bus's event and the memory channel's
    /// completion. `begin_cycle` starts a queued access at once, so the
    /// channel is in service whenever its queue is not empty.
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        let inner = self.inner.next_event(now)?;
        Some(self.mem_done_at.map_or(inner, |t| inner.min(t)))
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

impl RequestPort for SplitBus {
    /// Posts a request (phase 2 of the cycle protocol) straight to the
    /// underlying bus: a split kind as its command phase, any other kind
    /// as it is.
    ///
    /// # Errors
    ///
    /// * [`BusError::UnknownCore`] — request core outside the platform;
    /// * [`BusError::DurationOutOfRange`] — duration 0 or above MaxL,
    ///   checked for every kind, split or not;
    /// * [`BusError::AlreadyPending`] — the core's previous request has
    ///   not completed.
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        self.inner.check(&req)?;
        let core = req.core();
        if !self.can_accept(core) {
            return Err(BusError::AlreadyPending(core));
        }
        let (phase, state) = match req.kind() {
            RequestKind::L2MissClean | RequestKind::L2MissDirty => (
                BusRequest::new(core, self.config.phase_cycles, req.kind(), req.issued_at()),
                CoreState::Command,
            ),
            _ => (req, CoreState::LastPhase),
        };
        self.inner.post(phase)?;
        self.states[core.index()] = state;
        Ok(())
    }

    /// Whether `core` may post: its previous request, in whatever phase,
    /// has completed.
    fn can_accept(&self, core: CoreId) -> bool {
        self.states[core.index()] == CoreState::Idle
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

    /// A clean L2 miss of `core` issued at `now`: a split request.
    fn miss(core: usize, now: Cycle) -> BusRequest {
        BusRequest::new(c(core), 28, RequestKind::L2MissClean, now)
    }

    /// An unsplit request of `core` holding the bus for `duration` cycles.
    fn held(core: usize, duration: u32, kind: RequestKind, now: Cycle) -> BusRequest {
        BusRequest::new(c(core), duration, kind, now)
    }

    /// One cycle with no posts between its phases; returns the completion.
    fn step(bus: &mut SplitBus, now: Cycle) -> Option<CompletedTransaction> {
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
        // The bus-level bounds are `BusConfig::new`'s: what `validate`
        // accepts, `SplitBus::new` builds.
        cfg = SplitBusConfig::paper();
        cfg.n_cores = CoreId::MAX_CORES + 1;
        assert!(cfg.validate().is_err());
        cfg = SplitBusConfig::paper();
        cfg.max_latency = BusRequest::MAX_DURATION + 1;
        assert!(cfg.validate().is_err());
        let paper = SplitBusConfig::paper();
        assert_eq!(paper.validate(), BusConfig::new(4, 56));
    }

    #[test]
    fn split_transaction_releases_the_bus_during_memory() {
        let mut bus = mk();
        bus.post(miss(0, 0)).unwrap();
        let mut done = None;
        for now in 0..200u64 {
            if let Some(comp) = step(&mut bus, now) {
                assert_eq!(comp.kind, RequestKind::L2MissClean, "the posted kind");
                assert_eq!(comp.duration, 5, "the response phase");
                done = Some(now);
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
        bus.post(held(0, 5, RequestKind::L2ReadHit, 0)).unwrap();
        bus.post(held(1, 56, RequestKind::Atomic, 0)).unwrap();
        let mut completions = Vec::new();
        for now in 0..200u64 {
            completions.extend(step(&mut bus, now));
        }
        assert_eq!(bus.inner().trace().busy_cycles(c(0)), 5);
        assert_eq!(bus.inner().trace().slots(c(0)), 1);
        assert_eq!(bus.inner().trace().busy_cycles(c(1)), 56);
        assert_eq!(bus.inner().trace().slots(c(1)), 1);
        let kinds: Vec<_> = completions.iter().map(|t| (t.kind, t.duration)).collect();
        assert_eq!(
            kinds,
            [(RequestKind::L2ReadHit, 5), (RequestKind::Atomic, 56)]
        );
    }

    #[test]
    fn memory_channel_serializes_concurrent_misses() {
        // Two split requests back to back: their memory accesses overlap on
        // the bus side but serialize at the single memory channel.
        let mut bus = mk();
        bus.post(miss(0, 0)).unwrap();
        bus.post(BusRequest::new(c(1), 56, RequestKind::L2MissDirty, 0))
            .unwrap();
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
        // The dirty miss splits too: two 5-cycle phases on the bus.
        assert_eq!(bus.inner().trace().busy_cycles(c(1)), 10);
    }

    #[test]
    fn double_post_rejected_until_completion() {
        let mut bus = mk();
        bus.post(miss(0, 0)).unwrap();
        assert!(!bus.can_accept(c(0)));
        assert!(matches!(
            bus.post(held(0, 5, RequestKind::L2ReadHit, 0)),
            Err(BusError::AlreadyPending(_))
        ));
        for now in 0..100u64 {
            if now == 20 {
                // In the memory phase the core holds nothing on the bus,
                // but its request has not completed.
                assert!(!bus.inner().has_pending(c(0)));
                assert!(!bus.can_accept(c(0)));
            }
            step(&mut bus, now);
        }
        assert!(bus.can_accept(c(0)));
        assert!(bus.post(miss(0, 100)).is_ok());
    }

    #[test]
    fn cba_filter_composes_with_the_split_bus() {
        // The credit filter applies to bus acquisitions; the integration
        // tests run the real one. Here, verify the filter hook works at
        // all on the split bus with a throttling filter.
        use crate::policy::EligibilityFilter;

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
        bus.post(held(1, 56, RequestKind::Atomic, 0)).unwrap();
        // Posted at cycle 0 (eligible window), so it runs; repost in an
        // odd window and it must wait for the next even one.
        let mut completed_at = None;
        for now in 0..500u64 {
            let done = bus.begin_cycle(now);
            if now == 130 && bus.can_accept(c(1)) {
                bus.post(held(1, 56, RequestKind::Atomic, now)).unwrap();
            }
            bus.end_cycle(now);
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
        bus.begin_cycle(0);
        bus.post(miss(0, 0)).unwrap();
        bus.end_cycle(0); // command phase granted: bus busy [0, 5)
        assert_eq!(bus.next_event(0), Some(5));
        for now in 1..=5u64 {
            step(&mut bus, now);
        }
        // Command completed at 5 and the memory access entered service in
        // the same begin_cycle: the 28-cycle memory completion bounds the
        // horizon while the bus itself is idle.
        assert_eq!(bus.next_event(5), Some(5 + 28));
        // The memory completion reserves the response phase, which the
        // idle bus grants the same cycle.
        for now in 6..=33u64 {
            step(&mut bus, now);
        }
        assert_eq!(bus.inner().trace().slots(c(0)), 2, "response granted");
        assert_eq!(bus.next_event(33), Some(33 + 5));
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
            if bus.begin_cycle(now).is_some_and(|comp| comp.core == c(0)) {
                short_done += 1;
            }
            if bus.can_accept(c(0)) {
                bus.post(held(0, 5, RequestKind::L2ReadHit, now)).unwrap();
            }
            for i in 1..4 {
                if bus.can_accept(c(i)) {
                    bus.post(held(i, 56, RequestKind::Atomic, now)).unwrap();
                }
            }
            bus.end_cycle(now);
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
