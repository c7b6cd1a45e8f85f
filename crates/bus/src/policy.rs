//! The arbiter interfaces: arbitration policies and eligibility filters.
//!
//! Arbitration on the modeled platform is a two-stage decision, mirroring
//! the paper's Section III.A:
//!
//! 1. an [`EligibilityFilter`] decides which pending requests are
//!    *arbitrable* this cycle (the paper's CBA is exactly such a filter:
//!    "only those whose core has MaxL budget can be arbitrated");
//! 2. an [`ArbitrationPolicy`] picks one winner among the eligible
//!    candidates ("then, any arbitration policy can be applied").
//!
//! Both stages work on core masks, `u64`s where bit `i` stands for core `i`
//! ([`CoreId::bit`]): the filter maps the mask of pending cores to the
//! mask of eligible ones, and the policy picks one core of that mask. A
//! mask holds the whole arbitration input in one register, as the request
//! and eligibility lines do on the FPGA. Both stages are trait objects so
//! that platforms can be assembled from configuration; both are sequential
//! state machines driven by the bus.

use crate::pending::PendingSet;
use sim_core::lfsr::LfsrBank;
use sim_core::{CoreId, Cycle};

/// An arbitration policy: picks the winner among eligible candidates.
///
/// Implementations are sequential machines; the bus calls [`select`] on
/// every cycle where the bus is free and some pending request is eligible,
/// and [`on_grant`] exactly when a core returned by `select` is granted.
///
/// `eligible` is the core mask (bit `i` is core `i`) of the requests that
/// passed the eligibility filter: never empty when the bus calls, and
/// always a subset of `pending.mask()`. A policy that orders by request
/// (FIFO reads issue times) looks the requests up in `pending`. Returning
/// `None` leaves the bus idle for the cycle (work-conserving policies
/// return `Some` whenever `eligible` is non-empty; TDMA legitimately
/// returns `None` mid-slot). Randomized policies draw from `rng`, the
/// bus's model of the APRANDBANK random-bit bank.
///
/// [`select`]: ArbitrationPolicy::select
/// [`on_grant`]: ArbitrationPolicy::on_grant
pub trait ArbitrationPolicy: std::fmt::Debug {
    /// Short stable name used in reports ("RR", "FIFO", "RP", ...).
    fn name(&self) -> &'static str;

    /// Picks a winner among the cores of `eligible` at cycle `now`, or
    /// `None` to leave the bus idle this cycle.
    fn select(
        &mut self,
        eligible: u64,
        pending: &PendingSet,
        now: Cycle,
        rng: &mut LfsrBank,
    ) -> Option<CoreId>;

    /// Notifies the policy that `core` was granted the bus at `now`.
    fn on_grant(&mut self, core: CoreId, now: Cycle) {
        let _ = (core, now);
    }

    /// Whether the policy is work-conserving (grants whenever a candidate
    /// exists). TDMA is the one built-in policy that is not.
    fn is_work_conserving(&self) -> bool {
        true
    }

    /// Event hook for the fast-forward engine, consulted only for
    /// non-work-conserving policies: given that [`select`] just returned
    /// `None` at `now` for this (non-empty) `eligible` mask, the earliest
    /// future cycle at which `select` could return a winner for the **same
    /// frozen mask and pending set**.
    ///
    /// Returning `None` means "cannot predict", which disables cycle
    /// skipping while candidates wait — always safe, and the default.
    /// Work-conserving policies are never asked (they grant immediately,
    /// so there is nothing to wait for). TDMA overrides this with its
    /// next owned slot boundary.
    ///
    /// [`select`]: ArbitrationPolicy::select
    fn next_grant_at(&self, eligible: u64, pending: &PendingSet, now: Cycle) -> Option<Cycle> {
        let _ = (eligible, pending, now);
        None
    }

    /// Limit-cycle hook of the bus (see
    /// [`Bus`](crate::Bus)'s `limit_cycle_state`): appends the policy's
    /// complete internal state to `state` and returns `true`, promising
    /// that [`select`] draws no random numbers, ignores `now` and reads
    /// issue times only to compare them. The default returns `false`,
    /// which keeps runs under the policy out of the fast-forward.
    ///
    /// [`select`]: ArbitrationPolicy::select
    fn limit_cycle_state(&self, state: &mut Vec<u64>) -> bool {
        let _ = state;
        false
    }
}

/// How an [`EligibilityFilter`]'s verdicts can evolve over an
/// interaction-free idle stretch (bus free, no grants, frozen pending
/// set), as reported by
/// [`EligibilityFilter::next_eligibility_flip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterHorizon {
    /// No pending core's verdict can change: eligibility is frozen for the
    /// whole stretch (e.g. [`NoFilter`], or a credit filter whose pending
    /// cores are all already eligible or can never recover).
    Static,
    /// The earliest cycle at which some pending core's verdict can change
    /// (for the credit filter: the first arbitration cycle at which a
    /// recovering budget crosses the `MaxL` threshold, or a WCET-mode
    /// `COMP` bit latches).
    At(Cycle),
    /// The filter cannot predict its own evolution; the engine must step
    /// per cycle. This is the conservative default for filters that do not
    /// opt into the fast path.
    Unknown,
}

/// Per-cycle filter deciding which pending requests may be arbitrated.
///
/// This is the hook the paper's credit-based arbitration (crate `cba`)
/// implements. The bus drives the filter as follows, every cycle:
///
/// 1. during arbitration (bus free), [`eligible`] maps the mask of the
///    pending cores to the mask of those that may be arbitrated;
/// 2. when a request is granted, [`on_grant`] fires;
/// 3. at the end of the cycle, [`tick`] fires with the core occupying the
///    bus during that cycle (if any) and the pending set — this is where
///    budget counters advance.
///
/// [`eligible`]: EligibilityFilter::eligible
/// [`on_grant`]: EligibilityFilter::on_grant
/// [`tick`]: EligibilityFilter::tick
pub trait EligibilityFilter: std::fmt::Debug {
    /// Short stable name used in reports ("none", "CBA", "H-CBA", ...).
    fn name(&self) -> &'static str;

    /// The cores of the mask `cores` (bit `i` is core `i`) whose pending
    /// requests may enter arbitration at `now`: a subset of `cores` (the
    /// bus drops any other bit of the answer). A core's verdict does not
    /// depend on which other cores the mask holds.
    fn eligible(&self, cores: u64, now: Cycle) -> u64;

    /// Notifies the filter that `core` was granted at `now` for a
    /// transaction of `duration` cycles.
    fn on_grant(&mut self, core: CoreId, duration: u32, now: Cycle) {
        let _ = (core, duration, now);
    }

    /// Advances filter state by one cycle. `owner` is the core holding the
    /// bus *during* cycle `now` (after arbitration), `pending` the pending
    /// set at end of cycle.
    fn tick(&mut self, now: Cycle, owner: Option<CoreId>, pending: &PendingSet) {
        let _ = (now, owner, pending);
    }

    /// Bulk-advances filter state by `k` cycles of **unchanged occupancy**:
    /// exactly equivalent to `k` successive [`tick`] calls for cycles
    /// `now, now + 1, ..., now + k - 1`, all with the same `owner` and the
    /// same (frozen) `pending` set.
    ///
    /// The default literally loops [`tick`], so any filter is correct under
    /// the fast-forward engine; filters with linear per-cycle state (the
    /// credit counters) override this with an O(1) closed form.
    ///
    /// [`tick`]: EligibilityFilter::tick
    fn advance(&mut self, now: Cycle, k: u64, owner: Option<CoreId>, pending: &PendingSet) {
        for i in 0..k {
            self.tick(now + i, owner, pending);
        }
    }

    /// Event hook for the fast-forward engine: how the verdicts for the
    /// cores in `pending` can evolve from cycle `now + 1` onwards,
    /// assuming the bus stays free and the pending set frozen (so every
    /// skipped cycle is an idle [`tick`](EligibilityFilter::tick)).
    ///
    /// [`FilterHorizon::At`]`(t)` promises that every verdict consulted by
    /// arbitration strictly before cycle `t` equals the verdict at `now +
    /// 1`; the engine stops any skip at `t` and re-runs the real protocol.
    /// The default is [`FilterHorizon::Unknown`], which disables idle-bus
    /// skipping for filters that have not opted in.
    fn next_eligibility_flip(&self, now: Cycle, pending: &PendingSet) -> FilterHorizon {
        let _ = (now, pending);
        FilterHorizon::Unknown
    }

    /// Limit-cycle hook of the bus (see
    /// [`Bus`](crate::Bus)'s `limit_cycle_state`): appends the filter's
    /// complete internal state to `state` and returns `true`, promising
    /// that verdicts and updates never read absolute cycle numbers. The
    /// default returns `false`, which keeps runs under the filter out of
    /// the fast-forward.
    fn limit_cycle_state(&self, state: &mut Vec<u64>) -> bool {
        let _ = state;
        false
    }
}

/// The identity filter: every pending request is always eligible.
///
/// This is the baseline ("no CBA") configuration of the paper's evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFilter;

impl NoFilter {
    /// Creates the identity filter.
    pub(crate) fn new() -> Self {
        NoFilter
    }
}

impl EligibilityFilter for NoFilter {
    fn name(&self) -> &'static str {
        "none"
    }

    fn eligible(&self, cores: u64, _now: Cycle) -> u64 {
        cores
    }

    fn advance(&mut self, _now: Cycle, _k: u64, _owner: Option<CoreId>, _pending: &PendingSet) {}

    fn next_eligibility_flip(&self, _now: Cycle, _pending: &PendingSet) -> FilterHorizon {
        FilterHorizon::Static
    }

    fn limit_cycle_state(&self, _state: &mut Vec<u64>) -> bool {
        true
    }
}

/// Configuration-level selector for the built-in arbitration policies.
///
/// # Example
///
/// ```
/// use cba_bus::PolicyKind;
///
/// let policy = PolicyKind::RandomPermutation.build(4, 56);
/// assert_eq!(policy.name(), "RP");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Grant in request arrival order.
    Fifo,
    /// Cyclic order starting after the last granted core.
    RoundRobin,
    /// Fixed slots of MaxL cycles, one core per slot, grants only at slot
    /// starts.
    Tdma,
    /// Uniform (or weighted) random draw among candidates each arbitration.
    Lottery,
    /// Random permutation per round; each core granted at most once per
    /// round (the paper's baseline, "RP").
    RandomPermutation,
    /// Lowest core index always wins. Not usable for real-time (starves
    /// low-priority cores); included as the cautionary baseline.
    FixedPriority,
}

impl PolicyKind {
    /// All built-in policy kinds.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Fifo,
        PolicyKind::RoundRobin,
        PolicyKind::Tdma,
        PolicyKind::Lottery,
        PolicyKind::RandomPermutation,
        PolicyKind::FixedPriority,
    ];

    /// Instantiates the policy for an `n_cores` platform whose longest
    /// transaction is `max_latency` cycles (used as the TDMA slot length,
    /// per the paper's Section II).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0` or `max_latency == 0`.
    pub fn build(self, n_cores: usize, max_latency: u32) -> Box<dyn ArbitrationPolicy> {
        assert!(n_cores > 0, "n_cores must be positive");
        assert!(max_latency > 0, "max_latency must be positive");
        use crate::policies::*;
        match self {
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::RoundRobin => Box::new(RoundRobin::new(n_cores)),
            PolicyKind::Tdma => Box::new(Tdma::new(n_cores, max_latency)),
            PolicyKind::Lottery => Box::new(Lottery::uniform()),
            PolicyKind::RandomPermutation => Box::new(RandomPermutation::new(n_cores)),
            PolicyKind::FixedPriority => Box::new(FixedPriority::new()),
        }
    }

    /// Stable short name matching
    /// [`ArbitrationPolicy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::RoundRobin => "RR",
            PolicyKind::Tdma => "TDMA",
            PolicyKind::Lottery => "LOT",
            PolicyKind::RandomPermutation => "RP",
            PolicyKind::FixedPriority => "PRI",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_filter_accepts_everything() {
        let f = NoFilter::new();
        assert_eq!(f.eligible(CoreId::from_index(0).bit(), 0), 1);
        assert_eq!(f.eligible(u64::MAX, 1_000_000), u64::MAX);
        assert_eq!(f.name(), "none");
    }

    #[test]
    fn policy_kind_builds_all() {
        for kind in PolicyKind::ALL {
            let p = kind.build(4, 56);
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn policy_kind_names_unique() {
        use std::collections::HashSet;
        let names: HashSet<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }
}
