#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod fabric;
pub mod pending;
pub mod policies;
pub mod policy;
pub mod split;

pub use bus::{Bus, BusConfig, BusState, CompletedTransaction, TickOutcome, WaitStats};
pub use fabric::{Fabric, FabricConfig};
pub use pending::{Candidate, PendingSet};
pub use policy::{
    ArbitrationPolicy, EligibilityFilter, FilterHorizon, NoFilter, PolicyKind, RandomSource,
};
pub use sim_core::{BusModel, Control, DriveOutcome};

use sim_core::{CoreId, Cycle};
use std::fmt;

/// Classification of a bus transaction, used for tracing and statistics.
///
/// The durations associated with each kind on the reference platform are
/// defined by the memory model (`cba-mem`); the bus itself only cares about
/// the duration carried by the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read that hits in the shared L2 (shortest transaction, 5 cycles).
    L2ReadHit,
    /// Write-through store reaching L2 (6 cycles).
    L2Write,
    /// L2 miss with a clean victim: one memory access (28 cycles).
    L2MissClean,
    /// L2 miss evicting a dirty line: write-back + fetch (56 cycles).
    L2MissDirty,
    /// Atomic read-modify-write: two memory accesses, unsplittable
    /// (56 cycles). The paper highlights atomics as the reason very long and
    /// very short requests coexist even on buses with split transactions.
    Atomic,
    /// A WCET-estimation-mode contender transaction (always MaxL cycles).
    Contender,
    /// Synthetic workload transaction (used by the illustrative example and
    /// fairness sweeps).
    Synthetic,
    /// Coherent read (MESI BusRd): fetch a shared-segment line for
    /// reading, leaving remote copies in S.
    CohRead,
    /// Coherent read-exclusive (MESI BusRdX): fetch a line with intent to
    /// write, invalidating every remote copy.
    CohReadEx,
    /// Ownership upgrade (MESI BusUpgr): an S-state holder claims
    /// exclusivity without a data fetch; remote copies invalidate.
    CohUpgrade,
    /// Coherence writeback: a remote M-state copy flushes to memory before
    /// the requester's fetch proceeds (snoop-forced, unlike the
    /// capacity-eviction half of [`RequestKind::L2MissDirty`]).
    CohWriteback,
    /// Invalidation acknowledgement: the snoop round-trip confirming
    /// sibling copies dropped their line.
    CohInvAck,
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RequestKind::L2ReadHit => "l2-read-hit",
            RequestKind::L2Write => "l2-write",
            RequestKind::L2MissClean => "l2-miss-clean",
            RequestKind::L2MissDirty => "l2-miss-dirty",
            RequestKind::Atomic => "atomic",
            RequestKind::Contender => "contender",
            RequestKind::Synthetic => "synthetic",
            RequestKind::CohRead => "coh-read",
            RequestKind::CohReadEx => "coh-readex",
            RequestKind::CohUpgrade => "coh-upgrade",
            RequestKind::CohWriteback => "coh-writeback",
            RequestKind::CohInvAck => "coh-invack",
        };
        f.write_str(s)
    }
}

/// One bus transaction request: a core asking to hold the bus for
/// `duration` cycles.
///
/// Durations are validated against 1..= [`BusRequest::MAX_DURATION`] at
/// construction and against the platform's `max_latency` when posted to a
/// [`Bus`]. A request whose duration could exceed the platform MaxL would
/// break the credit-arbitration invariants, so this is enforced, not
/// assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    core: CoreId,
    duration: u32,
    kind: RequestKind,
    issued_at: Cycle,
}

impl BusRequest {
    /// Upper bound on any transaction duration accepted by the model.
    pub const MAX_DURATION: u32 = 4096;

    /// Creates a request by `core` to hold the bus for `duration` cycles,
    /// issued (became ready) at cycle `issued_at`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::DurationOutOfRange`] unless
    /// `1 <= duration <= MAX_DURATION`.
    pub fn new(
        core: CoreId,
        duration: u32,
        kind: RequestKind,
        issued_at: Cycle,
    ) -> Result<Self, BusError> {
        if duration == 0 || duration > Self::MAX_DURATION {
            return Err(BusError::DurationOutOfRange {
                got: duration,
                max: Self::MAX_DURATION,
            });
        }
        Ok(BusRequest {
            core,
            duration,
            kind,
            issued_at,
        })
    }

    /// The requesting core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Bus hold time in cycles.
    pub fn duration(&self) -> u32 {
        self.duration
    }

    /// Transaction classification.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Cycle at which the request became ready.
    pub fn issued_at(&self) -> Cycle {
        self.issued_at
    }

    /// The request as limit-cycle state (see [`Bus`]'s `limit_cycle_state`),
    /// its issue time as an offset back from `now`.
    pub(crate) fn limit_cycle_words(&self, now: Cycle) -> [u64; 4] {
        let (core, age) = (self.core.index() as u64, now.wrapping_sub(self.issued_at));
        [core, self.duration as u64, age, self.kind as u64]
    }
}

/// Errors reported by the bus model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// A request's duration was zero or above the accepted maximum.
    DurationOutOfRange {
        /// Rejected duration.
        got: u32,
        /// Largest accepted duration.
        max: u32,
    },
    /// The core already has a pending (not yet granted) request; cores are
    /// in-order and blocking, so a second outstanding request is a caller
    /// bug.
    AlreadyPending(CoreId),
    /// The request names a core outside the platform.
    UnknownCore(CoreId),
    /// The configuration was rejected (core count or MaxL out of domain).
    InvalidConfig(String),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::DurationOutOfRange { got, max } => {
                write!(f, "request duration {got} outside 1..={max}")
            }
            BusError::AlreadyPending(core) => {
                write!(f, "{core} already has a pending bus request")
            }
            BusError::UnknownCore(core) => write!(f, "{core} is not part of this platform"),
            BusError::InvalidConfig(why) => write!(f, "invalid bus configuration: {why}"),
        }
    }
}

impl std::error::Error for BusError {}

/// The client-side request port shared by every interconnect variant that
/// addresses requests by [`CoreId`] — the flat [`Bus`] and the hierarchical
/// [`Fabric`].
///
/// Client models (cores, contenders, fixed-request tasks) are written
/// against this trait so the *same* client drives a single shared bus or a
/// clustered fabric unchanged; only the interconnect behind the port
/// differs. The port is intentionally narrower than [`BusModel`]: clients
/// post, probe whether they may post, and withdraw — they never drive
/// cycles.
pub trait RequestPort {
    /// Posts a bus request (phase 2 of the cycle protocol).
    ///
    /// # Errors
    ///
    /// Implementations reject unknown cores, out-of-range durations and
    /// double posts (see [`BusError`]).
    fn post(&mut self, req: BusRequest) -> Result<(), BusError>;

    /// Withdraws `core`'s pending request if it has not been granted yet
    /// (on a fabric: if it has not left its cluster's pending set).
    fn withdraw(&mut self, core: CoreId) -> Option<BusRequest>;

    /// Whether `core` may post a fresh request: nothing of its is pending,
    /// in service, or (on a fabric) anywhere in the bridge pipeline.
    fn can_accept(&self, core: CoreId) -> bool;
}

impl RequestPort for Bus {
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        Bus::post(self, req)
    }

    fn withdraw(&mut self, core: CoreId) -> Option<BusRequest> {
        Bus::withdraw(self, core)
    }

    fn can_accept(&self, core: CoreId) -> bool {
        !self.has_pending(core) && self.owner() != Some(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_validates_duration() {
        let c = CoreId::from_index(0);
        assert!(matches!(
            BusRequest::new(c, 0, RequestKind::L2ReadHit, 0),
            Err(BusError::DurationOutOfRange { got: 0, .. })
        ));
        assert!(BusRequest::new(c, 1, RequestKind::L2ReadHit, 0).is_ok());
        assert!(BusRequest::new(c, BusRequest::MAX_DURATION, RequestKind::Atomic, 0).is_ok());
        assert!(BusRequest::new(c, BusRequest::MAX_DURATION + 1, RequestKind::Atomic, 0).is_err());
    }

    #[test]
    fn request_accessors() {
        let c = CoreId::from_index(2);
        let r = BusRequest::new(c, 28, RequestKind::L2MissClean, 17).unwrap();
        assert_eq!(r.core(), c);
        assert_eq!(r.duration(), 28);
        assert_eq!(r.kind(), RequestKind::L2MissClean);
        assert_eq!(r.issued_at(), 17);
    }

    #[test]
    fn kinds_display_distinctly() {
        use std::collections::HashSet;
        let kinds = [
            RequestKind::L2ReadHit,
            RequestKind::L2Write,
            RequestKind::L2MissClean,
            RequestKind::L2MissDirty,
            RequestKind::Atomic,
            RequestKind::Contender,
            RequestKind::Synthetic,
            RequestKind::CohRead,
            RequestKind::CohReadEx,
            RequestKind::CohUpgrade,
            RequestKind::CohWriteback,
            RequestKind::CohInvAck,
        ];
        let names: HashSet<String> = kinds.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn errors_display() {
        let e = BusError::AlreadyPending(CoreId::from_index(1));
        assert!(e.to_string().contains("core1"));
        let e = BusError::DurationOutOfRange { got: 0, max: 56 };
        assert!(e.to_string().contains("0"));
    }
}
