//! The cycle-accurate non-split bus.
//!
//! # Cycle protocol
//!
//! The bus advances in two phases per cycle, so that a core whose
//! transaction completes at cycle `t` can post its next request *within*
//! cycle `t` and be re-arbitrated immediately (back-to-back transactions,
//! as on the FPGA where the request lines are already raised when a
//! transfer ends):
//!
//! 1. [`BusModel::begin_cycle`]`(t)` — a transaction ending at `t`
//!    completes and is reported;
//! 2. clients post requests for cycle `t` via [`RequestPort::post`];
//! 3. [`BusModel::end_cycle`]`(t)` — if the bus is free, the eligibility
//!    filter maps the mask of pending cores to the mask of eligible ones,
//!    and, unless that mask is empty, the arbitration policy picks a
//!    winner, which then holds the bus for cycles `[t, t + duration)`;
//!    finally the filter's per-cycle state (credit counters) advances.

use crate::pending::PendingSet;
use crate::policy::{ArbitrationPolicy, EligibilityFilter, NoFilter};
use crate::{BusError, BusRequest, RequestKind, RequestPort};
use sim_core::lfsr::LfsrBank;
use sim_core::trace::GrantTrace;
use sim_core::{BusModel, CoreId, Cycle};
use std::collections::VecDeque;

/// Static configuration of a bus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    n_cores: usize,
    max_latency: u32,
}

impl BusConfig {
    /// Creates a configuration for `n_cores` contenders whose longest
    /// transaction (MaxL) is `max_latency` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidConfig`] if `n_cores` is 0 or above
    /// [`CoreId::MAX_CORES`], or if `max_latency` is 0 or above
    /// `BusRequest::MAX_DURATION`.
    pub fn new(n_cores: usize, max_latency: u32) -> Result<Self, BusError> {
        if n_cores == 0 || n_cores > CoreId::MAX_CORES {
            return Err(BusError::InvalidConfig(format!(
                "n_cores must be in 1..={}, got {n_cores}",
                CoreId::MAX_CORES
            )));
        }
        if max_latency == 0 || max_latency > BusRequest::MAX_DURATION {
            return Err(BusError::InvalidConfig(format!(
                "max_latency must be in 1..={}, got {max_latency}",
                BusRequest::MAX_DURATION
            )));
        }
        Ok(BusConfig {
            n_cores,
            max_latency,
        })
    }

    /// Number of contenders.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }
}

/// Occupancy state of the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusState {
    /// No transaction in flight.
    Idle,
    /// A non-split transaction holds the bus for cycles
    /// `[started, ends_at)`.
    Busy {
        /// Core holding the bus.
        owner: CoreId,
        /// First cycle of the transaction.
        started: Cycle,
        /// First cycle *after* the transaction.
        ends_at: Cycle,
        /// Transaction classification (for the completion report).
        kind: RequestKind,
    },
}

/// Completion report of a bus's [`BusModel::begin_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTransaction {
    /// Core whose transaction finished.
    pub core: CoreId,
    /// Classification of the finished transaction.
    pub kind: RequestKind,
    /// Its duration in cycles.
    pub duration: u32,
}

/// The shared non-split bus: pending slots, eligibility filter, arbitration
/// policy, occupancy state and statistics.
///
/// See the [module documentation](self) for the cycle protocol and the
/// [crate documentation](crate) for a usage example.
#[derive(Debug)]
pub struct Bus {
    config: BusConfig,
    state: BusState,
    pending: PendingSet,
    policy: Box<dyn ArbitrationPolicy>,
    filter: Box<dyn EligibilityFilter>,
    rng: LfsrBank,
    trace: GrantTrace,
    idle_cycles: u64,
    total_cycles: u64,
    privileged: VecDeque<BusRequest>,
    in_cycle: bool,
    last_cycle: Option<Cycle>,
    flip_watch: Option<FlipWatch>,
}

/// Observer state for credit-eligibility flips: the last verdicts seen,
/// as the mask of eligible cores, and the buffered flip events awaiting a
/// drain (see [`Bus::enable_flip_probe`]).
#[derive(Debug)]
struct FlipWatch {
    last: u64,
    events: Vec<(Cycle, CoreId, bool)>,
}

impl FlipWatch {
    /// Upper bound on buffered, undrained flips. A drained-per-cycle
    /// buffer (the `Simulation` loop with an active probe) holds at most
    /// `n_cores` entries; the cap only matters when flip probing is
    /// enabled but nothing drains, where the **oldest** flips are
    /// discarded so memory stays bounded over arbitrarily long runs.
    const MAX_BUFFERED: usize = 1 << 16;

    fn push(&mut self, event: (Cycle, CoreId, bool)) {
        if self.events.len() >= Self::MAX_BUFFERED {
            self.events.drain(..Self::MAX_BUFFERED / 2);
        }
        self.events.push(event);
    }
}

impl Bus {
    /// Creates a bus with the given arbitration policy, no eligibility
    /// filter, a 16-lane random-bit bank with the fixed seed 0 and a
    /// counting-only grant trace.
    pub fn new(config: BusConfig, policy: Box<dyn ArbitrationPolicy>) -> Self {
        Bus {
            state: BusState::Idle,
            pending: PendingSet::new(config.n_cores),
            policy,
            filter: Box::new(NoFilter::new()),
            rng: LfsrBank::new(16, 0).expect("valid width"),
            trace: GrantTrace::counting(config.n_cores),
            idle_cycles: 0,
            total_cycles: 0,
            privileged: VecDeque::new(),
            in_cycle: false,
            last_cycle: None,
            flip_watch: None,
            config,
        }
    }

    /// Replaces the eligibility filter (e.g. with a CBA credit filter).
    pub fn set_filter(&mut self, filter: Box<dyn EligibilityFilter>) {
        self.filter = filter;
        if self.flip_watch.is_some() {
            // Re-baseline the flip watcher against the new filter.
            self.enable_flip_probe();
        }
    }

    /// Starts watching the eligibility filter for verdict flips, to be
    /// streamed through [`BusModel::drain_events`] as
    /// [`ModelEvent::CreditFlip`](sim_core::ModelEvent)s. Off by default
    /// (and then completely free); when enabled, every executed cycle
    /// diffs the mask of eligible cores after the filter tick.
    ///
    /// Flips are exact under the naive engine; under the event-horizon
    /// engine, flips inside a skipped range are coalesced to the
    /// skip-resume cycle. The buffer is bounded: if flips are never
    /// drained, the oldest are discarded past ~65k entries — drain every
    /// executed cycle (as the `Simulation` loop does when an active
    /// probe is attached) to observe the complete stream.
    pub fn enable_flip_probe(&mut self) {
        let at = self.last_cycle.map_or(0, |t| t + 1);
        let all = CoreId::all_mask(self.config.n_cores);
        let last = self.filter.eligible(all, at) & all;
        match &mut self.flip_watch {
            // Already watching (filter swap): re-baseline the
            // verdicts but keep any buffered, not-yet-drained events.
            Some(watch) => watch.last = last,
            None => {
                self.flip_watch = Some(FlipWatch {
                    last,
                    events: Vec::new(),
                })
            }
        }
    }

    /// Diffs the mask of eligible cores for arbitration cycle `at`
    /// against the watcher's baseline, buffering the flips in core order.
    fn record_flips(&mut self, at: Cycle) {
        if let Some(watch) = &mut self.flip_watch {
            let all = CoreId::all_mask(self.config.n_cores);
            let eligible = self.filter.eligible(all, at) & all;
            for core in CoreId::in_mask(eligible ^ watch.last) {
                watch.push((at, core, eligible & core.bit() != 0));
            }
            watch.last = eligible;
        }
    }

    /// Replaces the random-bit bank randomized policies draw from.
    pub fn set_random_source(&mut self, rng: LfsrBank) {
        self.rng = rng;
    }

    /// Switches to a full recording trace (stores every grant).
    pub fn enable_recording_trace(&mut self) {
        self.trace = GrantTrace::recording(self.config.n_cores);
    }

    /// The static configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// The core currently holding the bus, if any.
    pub fn owner(&self) -> Option<CoreId> {
        match self.state {
            BusState::Busy { owner, .. } => Some(owner),
            BusState::Idle => None,
        }
    }

    /// Whether `core` has a posted, not-yet-granted request.
    pub fn has_pending(&self, core: CoreId) -> bool {
        self.pending.contains(core)
    }

    /// Cycles (among those ticked) in which the bus carried no transaction.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Total cycles ticked.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Checks what every post checks: the core is on the platform and the
    /// duration is in `1..=MaxL` (the credit mechanism requires
    /// `duration <= MaxL`).
    pub(crate) fn check(&self, req: &BusRequest) -> Result<(), BusError> {
        if req.core().index() >= self.config.n_cores {
            return Err(BusError::UnknownCore(req.core()));
        }
        if req.duration() == 0 || req.duration() > self.config.max_latency {
            return Err(BusError::DurationOutOfRange {
                got: req.duration(),
                max: self.config.max_latency,
            });
        }
        Ok(())
    }

    /// Posts a **privileged** request: served FIFO before any arbitrated
    /// request, bypassing both the eligibility filter and the policy.
    ///
    /// This models transfers that have already won arbitration earlier and
    /// hold a reservation — on a split-transaction bus, the response phase
    /// of a split transfer. The grant still occupies the bus, appears in
    /// the trace and drains the owner's credit budget; it just cannot be
    /// vetoed or reordered. Use sparingly: ordinary traffic belongs in
    /// [`RequestPort::post`].
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`RequestPort::post`];
    /// multiple privileged requests (even per core) are allowed and served
    /// in FIFO order.
    pub(crate) fn post_privileged(&mut self, req: BusRequest) -> Result<(), BusError> {
        self.check(&req)?;
        self.privileged.push_back(req);
        Ok(())
    }

    /// [`BusModel::end_cycle`] with an external grant gate: with
    /// `allow_grant == false` no transaction (privileged or arbitrated) may
    /// *start* this cycle, while completion, idle accounting and filter
    /// state advance exactly as usual.
    ///
    /// This is the backpressure hook of the hierarchical fabric
    /// ([`crate::fabric`]): a cluster bus must not begin a transfer whose
    /// completion would overflow its bridge's bounded request queue, and
    /// from the bus's own perspective a gated cycle is indistinguishable
    /// from a cycle with no eligible candidate.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching [`BusModel::begin_cycle`].
    pub(crate) fn end_cycle_gated(&mut self, now: Cycle, allow_grant: bool) -> Option<CoreId> {
        assert!(self.in_cycle, "end_cycle without begin_cycle");
        assert_eq!(
            self.last_cycle,
            Some(now),
            "end_cycle for a different cycle"
        );
        self.in_cycle = false;
        self.total_cycles += 1;

        let mut granted = None;
        if allow_grant && matches!(self.state, BusState::Idle) {
            // Privileged reservations (split-transaction response phases)
            // are served FIFO ahead of arbitration; otherwise the filter
            // and the policy pick among the pending requests.
            if let Some(req) = self.privileged.pop_front() {
                self.grant(req, now);
                granted = Some(req.core());
            } else {
                let pending = self.pending.mask();
                let eligible = self.filter.eligible(pending, now) & pending;
                let winner = if eligible == 0 {
                    None
                } else {
                    self.policy
                        .select(eligible, &self.pending, now, &mut self.rng)
                };
                if let Some(winner) = winner {
                    let req = self
                        .pending
                        .remove(winner)
                        .expect("policy selected a core that is not pending");
                    self.grant(req, now);
                    self.policy.on_grant(winner, now);
                    granted = Some(winner);
                }
            }
        }

        let owner_now = self.owner();
        if owner_now.is_none() {
            self.idle_cycles += 1;
        }
        self.filter.tick(now, owner_now, &self.pending);
        if self.flip_watch.is_some() {
            self.record_flips(now + 1);
        }
        granted
    }

    /// Occupies the bus with `req` from cycle `now` and records the grant.
    fn grant(&mut self, req: BusRequest, now: Cycle) {
        self.state = BusState::Busy {
            owner: req.core(),
            started: now,
            ends_at: now + req.duration() as Cycle,
            kind: req.kind(),
        };
        self.trace.record(now, req.core(), req.duration());
        self.filter.on_grant(req.core(), req.duration(), now);
    }

    /// The bus's [`BusModel::limit_cycle_jump`]:
    /// applies the counter `deltas` its `limit_cycle_state` pushed (the
    /// front of `deltas`) and returns the deltas left over, so a model
    /// composed of buses hands each its share without counting them.
    pub(crate) fn limit_cycle_jump<'d>(
        &mut self,
        periods: u64,
        shift: Cycle,
        deltas: &'d [u64],
    ) -> &'d [u64] {
        let rest = self.trace.limit_cycle_jump(periods, shift, deltas);
        self.idle_cycles += periods * rest[0];
        self.total_cycles += periods * rest[1];
        if let BusState::Busy {
            started, ends_at, ..
        } = &mut self.state
        {
            *started += shift;
            *ends_at += shift;
        }
        self.pending.shift_time(shift);
        for r in &mut self.privileged {
            r.issued_at += shift;
        }
        self.last_cycle = self.last_cycle.map(|t| t + shift);
        &rest[2..]
    }
}

/// The non-split bus speaks the workspace-wide cycle protocol directly:
/// requests carry their own [`CoreId`], completions are
/// [`CompletedTransaction`]s.
impl BusModel for Bus {
    type Completion = CompletedTransaction;

    /// Reports a transaction ending at `now`.
    ///
    /// # Panics
    ///
    /// Panics if cycles are not visited in strictly increasing order or if
    /// the phases are called out of order.
    fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        assert!(!self.in_cycle, "begin_cycle called twice for one cycle");
        if let Some(last) = self.last_cycle {
            assert!(
                now > last,
                "cycles must strictly increase ({last} -> {now})"
            );
        }
        self.in_cycle = true;
        self.last_cycle = Some(now);
        if let BusState::Busy {
            owner,
            started,
            ends_at,
            kind,
        } = self.state
        {
            if now >= ends_at {
                self.state = BusState::Idle;
                return Some(CompletedTransaction {
                    core: owner,
                    kind,
                    duration: (ends_at - started) as u32,
                });
            }
        }
        None
    }

    /// Arbitration (if the bus is free) and filter bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `begin_cycle`.
    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        self.end_cycle_gated(now, true)
    }

    fn trace(&self) -> &GrantTrace {
        &self.trace
    }

    /// The bus's event horizon for the fast-forward engine (see
    /// [`BusModel::next_event`] for the contract): assuming no client
    /// interaction,
    ///
    /// * a busy bus is silent until the in-flight transaction's `ends_at`;
    /// * an idle bus with a privileged reservation grants next cycle;
    /// * an idle bus with pending requests can only grant when the filter
    ///   flips a verdict or the policy opens a window (TDMA slot start) —
    ///   both reported by their event hooks, either of which can decline
    ///   (`None` here = step per cycle);
    /// * an idle, empty bus has no event at all (`Cycle::MAX`): credits
    ///   just recover, in closed form, inside `advance`.
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        match self.state {
            BusState::Busy { ends_at, .. } => Some(ends_at),
            BusState::Idle => {
                if !self.privileged.is_empty() {
                    return Some(now + 1);
                }
                if self.pending.is_empty() {
                    return Some(Cycle::MAX);
                }
                // Which pending requests would pass the filter at the next
                // arbitration (cycle now + 1, i.e. after this cycle's
                // filter tick)?
                let pending = self.pending.mask();
                let eligible = self.filter.eligible(pending, now + 1) & pending;
                if eligible != 0 && self.policy.is_work_conserving() {
                    // A work-conserving policy grants as soon as it sees an
                    // eligible candidate: no skipping.
                    return Some(now + 1);
                }
                let flip = match self.filter.next_eligibility_flip(now, &self.pending) {
                    crate::policy::FilterHorizon::Unknown => return None,
                    crate::policy::FilterHorizon::Static => Cycle::MAX,
                    crate::policy::FilterHorizon::At(t) => t,
                };
                let window = if eligible == 0 {
                    // Nobody to grant until a verdict flips.
                    Cycle::MAX
                } else {
                    // Non-work-conserving policy (TDMA): its next window
                    // over the frozen eligible set, if it can predict one.
                    self.policy.next_grant_at(eligible, &self.pending, now)?
                };
                Some(flip.min(window))
            }
        }
    }

    /// Bulk-advances the uneventful cycles `from + 1 ..= to - 1` (see
    /// [`BusModel::advance`]): cycle counters accumulate, the filter state
    /// evolves under fixed occupancy, and the monotonic-cycle cursor moves
    /// so the next `begin_cycle(to)` is accepted. Grants, completions and
    /// RNG draws cannot occur in such a range by the `next_event`
    /// contract, so the trace is untouched.
    fn advance(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(!self.in_cycle, "advance between cycles only");
        let k = (to - from).saturating_sub(1);
        if k == 0 {
            return;
        }
        let owner = self.owner();
        self.total_cycles += k;
        if owner.is_none() {
            self.idle_cycles += k;
        }
        self.filter.advance(from + 1, k, owner, &self.pending);
        self.last_cycle = Some(to - 1);
        if self.flip_watch.is_some() {
            // Flips inside the skipped range coalesce to the resume cycle.
            self.record_flips(to);
        }
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(sim_core::ModelEvent)) {
        if let Some(watch) = &mut self.flip_watch {
            for (at, core, eligible) in watch.events.drain(..) {
                sink(sim_core::ModelEvent::CreditFlip { at, core, eligible });
            }
        }
    }

    /// The bus accepts the limit-cycle fast-forward when its policy and
    /// filter do (round-robin, FIFO and fixed priority; no filter or the
    /// credit filter), its trace only counts, and no flip watcher needs
    /// individual cycles. State: the transaction in flight, the pending
    /// and privileged requests, then the policy's and the filter's state.
    /// Counters: grants and busy cycles per core, idle and total cycles.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        state.extend(match self.state {
            BusState::Idle => [0; 4],
            BusState::Busy {
                owner,
                started,
                ends_at,
                kind,
            } => [
                owner.index() as u64 + 1,
                ends_at - now,
                ends_at - started,
                kind as u64,
            ],
        });
        self.pending.limit_cycle_state(now, state);
        state.push(self.privileged.len() as u64);
        for r in &self.privileged {
            state.extend(r.limit_cycle_words(now));
        }
        let counting = self.trace.limit_cycle_counters(counters);
        counters.extend([self.idle_cycles, self.total_cycles]);
        counting
            && self.flip_watch.is_none()
            && self.policy.limit_cycle_state(state)
            && self.filter.limit_cycle_state(state)
    }

    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        Bus::limit_cycle_jump(self, periods, shift, deltas);
    }
}

impl RequestPort for Bus {
    /// Posts a bus request (phase 2 of the cycle protocol).
    ///
    /// # Errors
    ///
    /// * [`BusError::UnknownCore`] — request core outside the platform;
    /// * [`BusError::DurationOutOfRange`] — duration 0 or above the
    ///   platform MaxL;
    /// * [`BusError::AlreadyPending`] — the core already has a pending
    ///   request.
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        self.check(&req)?;
        self.pending.insert(req)
    }

    fn can_accept(&self, core: CoreId) -> bool {
        !self.has_pending(core) && self.owner() != Some(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{RoundRobin, Tdma};
    use crate::policy::{EligibilityFilter, PolicyKind};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn req(core: usize, dur: u32, at: Cycle) -> BusRequest {
        BusRequest::new(c(core), dur, RequestKind::Synthetic, at)
    }

    /// One cycle with no posts between its phases: the completion and the
    /// grant.
    fn step(bus: &mut Bus, now: Cycle) -> (Option<CompletedTransaction>, Option<CoreId>) {
        let completed = bus.begin_cycle(now);
        (completed, bus.end_cycle(now))
    }

    fn rr_bus(n: usize) -> Bus {
        Bus::new(BusConfig::new(n, 56).unwrap(), Box::new(RoundRobin::new(n)))
    }

    #[test]
    fn config_validation() {
        assert!(BusConfig::new(0, 56).is_err());
        assert!(BusConfig::new(4, 0).is_err());
        assert!(BusConfig::new(65, 56).is_err());
        assert!(BusConfig::new(4, BusRequest::MAX_DURATION + 1).is_err());
        let ok = BusConfig::new(4, 56).unwrap();
        assert_eq!(ok.n_cores(), 4);
        assert_eq!(ok.max_latency, 56);
    }

    #[test]
    fn single_request_lifecycle() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        let out = step(&mut bus, 0);
        assert_eq!(out.1, Some(c(0)));
        assert_eq!(bus.owner(), Some(c(0)));
        for now in 1..5 {
            let out = step(&mut bus, now);
            assert_eq!(out.0, None);
            assert_eq!(bus.owner(), Some(c(0)));
        }
        let out = step(&mut bus, 5);
        assert_eq!(
            out.0,
            Some(CompletedTransaction {
                core: c(0),
                kind: RequestKind::Synthetic,
                duration: 5
            })
        );
        assert_eq!(bus.owner(), None);
    }

    #[test]
    fn post_validation() {
        let mut bus = rr_bus(2);
        // duration above platform MaxL rejected
        let too_long = BusRequest::new(c(0), 57, RequestKind::Atomic, 0);
        assert!(matches!(
            bus.post(too_long),
            Err(BusError::DurationOutOfRange { got: 57, max: 56 })
        ));
        // unknown core
        let stranger = BusRequest::new(c(3), 5, RequestKind::Synthetic, 0);
        assert!(matches!(bus.post(stranger), Err(BusError::UnknownCore(_))));
        // double post
        bus.post(req(0, 5, 0)).unwrap();
        assert!(matches!(
            bus.post(req(0, 5, 0)),
            Err(BusError::AlreadyPending(_))
        ));
    }

    #[test]
    fn back_to_back_grants_with_two_phase_protocol() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        bus.begin_cycle(0);
        assert_eq!(bus.end_cycle(0), Some(c(0)));
        for now in 1..5 {
            bus.begin_cycle(now);
            assert_eq!(bus.end_cycle(now), None);
        }
        // At completion cycle 5, a new request posted in phase 2 is granted
        // the same cycle: zero idle cycles between transactions.
        let done = bus.begin_cycle(5);
        assert_eq!(done.unwrap().core, c(0));
        bus.post(req(1, 5, 5)).unwrap();
        assert_eq!(bus.end_cycle(5), Some(c(1)));
        assert_eq!(bus.idle_cycles(), 0);
    }

    #[test]
    fn saturating_cores_produce_zero_idle_cycles() {
        let mut bus = rr_bus(2);
        let mut completed = 0;
        for now in 0..1000u64 {
            bus.begin_cycle(now);
            for i in 0..2 {
                if !bus.has_pending(c(i)) && bus.owner() != Some(c(i)) {
                    bus.post(req(i, if i == 0 { 5 } else { 45 }, now)).unwrap();
                }
            }
            if bus.end_cycle(now).is_some() {
                completed += 1;
            }
        }
        assert!(completed > 20);
        assert_eq!(bus.idle_cycles(), 0);
        assert_eq!(bus.total_cycles(), 1000);
    }

    /// A filter that permanently vetoes one core (to test the filter hook).
    #[derive(Debug)]
    struct Veto(CoreId);

    impl EligibilityFilter for Veto {
        fn name(&self) -> &'static str {
            "veto"
        }
        fn eligible(&self, cores: u64, _now: Cycle) -> u64 {
            cores & !self.0.bit()
        }
    }

    #[test]
    fn filter_vetoes_candidates() {
        let mut bus = rr_bus(2);
        bus.set_filter(Box::new(Veto(c(0))));
        bus.post(req(0, 5, 0)).unwrap();
        bus.post(req(1, 5, 0)).unwrap();
        // RR would prefer core 0, but the filter blocks it.
        assert_eq!(step(&mut bus, 0).1, Some(c(1)));
        // Core 0 stays pending forever under this (pathological) filter.
        for now in 1..50 {
            step(&mut bus, now);
        }
        assert!(bus.has_pending(c(0)));
        assert_eq!(bus.trace().slots(c(0)), 0);
    }

    /// A filter that ignores the cores it is asked about and passes every
    /// core, pending or not.
    #[derive(Debug)]
    struct Everyone;

    impl EligibilityFilter for Everyone {
        fn name(&self) -> &'static str {
            "everyone"
        }
        fn eligible(&self, _cores: u64, _now: Cycle) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn verdicts_on_cores_not_pending_are_dropped() {
        for kind in PolicyKind::ALL {
            let mut bus = Bus::new(BusConfig::new(4, 10).unwrap(), kind.build(4, 10));
            bus.set_filter(Box::new(Everyone));
            bus.post(req(2, 5, 0)).unwrap();
            let granted = (0..40).find_map(|now| step(&mut bus, now).1);
            assert_eq!(granted, Some(c(2)), "{kind:?}");
        }
    }

    #[test]
    fn tdma_keeps_bus_idle_mid_slot() {
        let config = BusConfig::new(2, 10).unwrap();
        let mut bus = Bus::new(config, Box::new(Tdma::new(2, 10)));
        // Request from core 1 arrives during core 0's slot; it must wait
        // for cycle 10 (its own slot start).
        bus.post(req(1, 5, 0)).unwrap();
        for now in 0..10u64 {
            assert_eq!(step(&mut bus, now).1, None, "granted at {now}");
        }
        assert_eq!(step(&mut bus, 10).1, Some(c(1)));
        assert_eq!(bus.idle_cycles(), 10);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotonic_cycles_panic() {
        let mut bus = rr_bus(1);
        step(&mut bus, 5);
        step(&mut bus, 5);
    }

    #[test]
    #[should_panic(expected = "without begin_cycle")]
    fn end_without_begin_panics() {
        let mut bus = rr_bus(1);
        bus.end_cycle(0);
    }

    #[test]
    fn gated_end_cycle_defers_grants_but_keeps_accounting() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 5, 0)).unwrap();
        bus.post_privileged(req(1, 5, 0)).unwrap();
        bus.begin_cycle(0);
        assert_eq!(bus.end_cycle_gated(0, false), None);
        assert!(bus.has_pending(c(0)), "request survives the gate");
        assert_eq!(bus.idle_cycles(), 1, "a gated cycle is an idle cycle");
        assert_eq!(bus.total_cycles(), 1);
        // Opening the gate serves the privileged reservation first, as an
        // ungated cycle would.
        bus.begin_cycle(1);
        assert_eq!(bus.end_cycle_gated(1, true), Some(c(1)));
    }

    #[test]
    fn next_event_reports_the_completion_horizon() {
        let mut bus = rr_bus(2);
        bus.post(req(0, 40, 0)).unwrap();
        step(&mut bus, 0); // grant: busy over [0, 40)
        assert_eq!(bus.next_event(0), Some(40));
        // Idle and empty: no bus-side event at all.
        let mut empty = rr_bus(2);
        step(&mut empty, 0);
        assert_eq!(empty.next_event(0), Some(u64::MAX));
    }

    #[test]
    fn next_event_refuses_to_skip_past_imminent_grants() {
        // A pending, eligible request under a work-conserving policy means
        // a grant can land next cycle.
        let mut bus = rr_bus(2);
        bus.begin_cycle(0);
        bus.end_cycle(0);
        bus.post(req(1, 5, 0)).unwrap();
        assert_eq!(bus.next_event(0), Some(1));
        // Same for a privileged reservation.
        let mut bus = rr_bus(2);
        step(&mut bus, 0);
        bus.post_privileged(req(0, 5, 0)).unwrap();
        assert_eq!(bus.next_event(0), Some(1));
    }

    #[test]
    fn next_event_uses_the_tdma_window() {
        let config = BusConfig::new(2, 10).unwrap();
        let mut bus = Bus::new(config, Box::new(Tdma::new(2, 10)));
        bus.post(req(1, 5, 0)).unwrap();
        step(&mut bus, 0); // core 1 waits: its slot starts at cycle 10
        assert_eq!(bus.next_event(0), Some(10));
        // Stepping up to the window never grants; the window cycle does.
        for now in 1..10 {
            assert_eq!(step(&mut bus, now).1, None);
        }
        assert_eq!(step(&mut bus, 10).1, Some(c(1)));
    }

    #[test]
    fn next_event_declines_for_unpredictable_filters() {
        // `Veto` keeps the default `Unknown` horizon: with a pending
        // (ineligible) request the bus must refuse to skip.
        let mut bus = rr_bus(2);
        bus.set_filter(Box::new(Veto(c(0))));
        bus.post(req(0, 5, 0)).unwrap();
        step(&mut bus, 0);
        assert_eq!(bus.next_event(0), None);
    }

    #[test]
    fn advance_accounts_skipped_cycles_like_stepping() {
        // Busy stretch: skip the whole transaction body.
        let mut fast = rr_bus(2);
        fast.post(req(0, 40, 0)).unwrap();
        step(&mut fast, 0);
        fast.advance(0, 40);
        let done = fast.begin_cycle(40);
        assert_eq!(done.unwrap().core, c(0));
        assert_eq!(fast.end_cycle(40), None);

        let mut slow = rr_bus(2);
        slow.post(req(0, 40, 0)).unwrap();
        for now in 0..=40u64 {
            step(&mut slow, now);
        }
        assert_eq!(fast.total_cycles(), slow.total_cycles());
        assert_eq!(fast.idle_cycles(), slow.idle_cycles());

        // Idle stretch: idle cycles accumulate.
        let mut bus = rr_bus(2);
        step(&mut bus, 0);
        bus.advance(0, 100);
        step(&mut bus, 100);
        assert_eq!(bus.total_cycles(), 101);
        assert_eq!(bus.idle_cycles(), 101);
    }

    #[test]
    fn trace_and_utilization() {
        let mut bus = rr_bus(1);
        bus.post(req(0, 25, 0)).unwrap();
        for now in 0..50u64 {
            step(&mut bus, now);
        }
        assert_eq!(bus.trace().slots(c(0)), 1);
        assert_eq!(bus.trace().busy_cycles(c(0)), 25);
        // The idle cycles are the rest of the run.
        assert_eq!(bus.idle_cycles(), 25);
        assert!((bus.trace().utilization(50) - 0.5).abs() < 1e-12);
    }
}
