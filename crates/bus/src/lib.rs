#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod fabric;
pub mod pending;
pub mod policies;
pub mod policy;
pub mod split;

pub use bus::{Bus, BusConfig, CompletedTransaction, WaitStats};
pub use fabric::{Fabric, FabricConfig};
pub use pending::PendingSet;
pub use policy::{ArbitrationPolicy, EligibilityFilter, FilterHorizon, NoFilter, PolicyKind};
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
    /// A periodic co-runner's transaction (`cba_cpu::PeriodicContender`).
    Contender,
    /// Synthetic workload transaction: a fixed-request task's, including
    /// the saturating contenders of WCET-estimation mode.
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
/// The duration is checked once, when the request is posted: a [`Bus`]
/// (and so every segment of a [`Fabric`]) accepts `1..=` its MaxL, which
/// [`BusConfig`] bounds by `BusRequest::MAX_DURATION`. A request whose
/// duration could exceed the platform MaxL would break the
/// credit-arbitration invariants, so this is enforced, not assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    core: CoreId,
    duration: u32,
    kind: RequestKind,
    issued_at: Cycle,
}

impl BusRequest {
    /// Upper bound on any transaction duration accepted by the model.
    pub(crate) const MAX_DURATION: u32 = 4096;

    /// Creates a request by `core` to hold the bus for `duration` cycles,
    /// issued (became ready) at cycle `issued_at`. The bus it is posted
    /// to checks the duration.
    pub fn new(core: CoreId, duration: u32, kind: RequestKind, issued_at: Cycle) -> Self {
        BusRequest {
            core,
            duration,
            kind,
            issued_at,
        }
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
    pub(crate) fn kind(&self) -> RequestKind {
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
/// addresses requests by [`CoreId`] — the flat [`Bus`], the
/// split-transaction [`SplitBus`](split::SplitBus) and the hierarchical
/// [`Fabric`].
///
/// Client models (cores, contenders, fixed-request tasks) are written
/// against this trait so the *same* client drives a single shared bus, a
/// split bus or a clustered fabric unchanged; only the interconnect behind
/// the port differs. The port is the client half of the cycle protocol, and
/// [`BusModel`] the driver's half: clients post and probe whether they may
/// post — they never drive cycles.
pub trait RequestPort {
    /// Posts a bus request (phase 2 of the cycle protocol).
    ///
    /// # Errors
    ///
    /// Implementations reject unknown cores, durations outside `1..=MaxL`
    /// and double posts (see [`BusError`]).
    fn post(&mut self, req: BusRequest) -> Result<(), BusError>;

    /// Whether `core` may post a fresh request: nothing of its is pending,
    /// in service, or (on a fabric) anywhere in the bridge pipeline.
    fn can_accept(&self, core: CoreId) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The duration is checked once, at `post`: every way onto a bus
    /// rejects 0 and MaxL + 1, keeps nothing of the rejected request, and
    /// accepts MaxL.
    #[test]
    fn posts_accept_durations_from_one_to_maxl() {
        let maxl = 56;
        let req = |d| BusRequest::new(CoreId::from_index(0), d, RequestKind::Atomic, 0);
        let out_of_range = |got| Err(BusError::DurationOutOfRange { got, max: maxl });
        let bus = || {
            Bus::new(
                BusConfig::new(2, maxl).unwrap(),
                PolicyKind::RoundRobin.build(2, maxl),
            )
        };
        let mut plain = bus();
        let mut privileged = bus();
        let mut fabric = Fabric::new(
            FabricConfig::new(2, 2, maxl, 1, 1).unwrap(),
            (0..2)
                .map(|_| PolicyKind::RoundRobin.build(2, maxl))
                .collect(),
            PolicyKind::RoundRobin.build(2, maxl),
        )
        .unwrap();
        let mut split = split::SplitBus::new(
            split::SplitBusConfig {
                n_cores: 2,
                max_latency: maxl,
                phase_cycles: 5,
                mem_latency: 28,
            },
            PolicyKind::RoundRobin.build(2, maxl),
        )
        .unwrap();
        // A split kind holds the bus for its phases, not its duration, but
        // its duration is checked all the same.
        let miss = |d| BusRequest::new(CoreId::from_index(1), d, RequestKind::L2MissClean, 0);
        for d in [0, maxl + 1] {
            assert_eq!(plain.post(req(d)), out_of_range(d));
            assert_eq!(privileged.post_privileged(req(d)), out_of_range(d));
            assert_eq!(fabric.post(req(d)), out_of_range(d));
            assert_eq!(split.post(req(d)), out_of_range(d));
            assert_eq!(split.post(miss(d)), out_of_range(d));
        }
        let (c0, c1) = (CoreId::from_index(0), CoreId::from_index(1));
        assert!(plain.can_accept(c0), "nothing pending");
        assert!(fabric.can_accept(c0), "nothing in flight");
        assert!(
            split.can_accept(c0) && split.can_accept(c1),
            "nothing in flight"
        );
        // Nothing privileged was queued: the first cycle grants nobody.
        privileged.begin_cycle(0);
        assert_eq!(privileged.end_cycle(0), None);
        assert_eq!(plain.post(req(maxl)), Ok(()));
        assert_eq!(privileged.post_privileged(req(maxl)), Ok(()));
        assert_eq!(fabric.post(req(maxl)), Ok(()));
        assert_eq!(split.post(req(maxl)), Ok(()));
        assert_eq!(split.post(miss(maxl)), Ok(()));
        privileged.begin_cycle(1);
        assert_eq!(privileged.end_cycle(1), Some(c0));
    }

    #[test]
    fn request_accessors() {
        let c = CoreId::from_index(2);
        let r = BusRequest::new(c, 28, RequestKind::L2MissClean, 17);
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
