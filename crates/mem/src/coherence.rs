//! MESI coherence over a shared memory segment: the directory hub that
//! turns shared-line accesses into snoop-accurate bus traffic.
//!
//! The private hierarchy ([`CoreMemory`](crate::CoreMemory)) never needs
//! coherence — the L2 is partitioned, so cores interfere only on the bus.
//! This module adds the missing piece for *shared* data: a per-line MESI
//! state machine over the per-core private caches of a shared segment.
//! The [`CoherenceHub`] is a snooping directory: it tracks every core's
//! state for every shared line, and when a core reads or writes a line it
//! returns the exact sequence of [`BusTransaction`]s the access costs —
//! demand fetches ([`RequestKind::CohRead`] / [`RequestKind::CohReadEx`]),
//! ownership upgrades ([`RequestKind::CohUpgrade`]), snoop-forced flushes
//! of remote modified copies ([`RequestKind::CohWriteback`]) and
//! invalidation acknowledgements ([`RequestKind::CohInvAck`]).
//!
//! The requester posts *all* resulting transactions, in order (a remote
//! flush first, then its own fetch, then the invalidation round-trip).
//! This keeps the workspace's one-pending-request-per-core bus invariant
//! intact while still charging the snoop path's full cost to the access
//! that caused it, and it keeps runs deterministic: the transaction
//! sequence is a pure function of the directory state.
//!
//! # State machine
//!
//! ```text
//!            ┌────────────────── read (no remote copy) ── CohRead ──┐
//!            │                                                      ▼
//!   ┌───┐ write hit (silent)  ┌───┐   remote read (flush)   ┌───┐
//!   │ M │ ◄─────────────────  │ E │ ─────────────────────►  │ S │
//!   └───┘                     └───┘                          └───┘
//!     ▲  ▲                                                    │  ▲
//!     │  └── write: CohUpgrade (+CohInvAck if sharers) ───────┘  │
//!     │                                                          │
//!     │   write: [CohWriteback,] CohReadEx [+CohInvAck]   ┌───┐  │
//!     └─────────────────────────────────────────────────  │ I │ ─┘
//!                                                         └───┘
//!                                        read (remote M flushes): CohWriteback + CohRead
//! ```
//!
//! Each line also carries a **version counter**: writes increment it,
//! reads record the version the reader observed. The counters never feed
//! back into the transaction planning (so they cost nothing and cannot
//! perturb determinism); they exist so the property suites can assert the
//! memory-consistency half of the MESI contract — a reader entering S
//! always observes the version of the *last* writeback.

use crate::hierarchy::BusTransaction;
use crate::latency::LatencyModel;
use crate::MemError;
use cba_bus::RequestKind;
use sim_core::CoreId;
use std::cell::RefCell;
use std::rc::Rc;

/// Line size of the shared segment (matches the private caches).
pub const SHARED_LINE_BYTES: u64 = 16;

/// Configuration of the memory-agent subsystem: the synthetic address
/// stream, the private L1 geometry and the shared coherent segment.
///
/// Scenario files configure this through the `[memory]` section; sweeps
/// vary it through the `mem_working_set` / `share_frac` / `write_frac` /
/// `l1_sets` axes.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Private working-set size per core, in bytes (walked with
    /// 16-byte-line granularity).
    pub working_set: u64,
    /// Memory accesses each agent performs before finishing.
    pub accesses: u64,
    /// Fraction of accesses that are stores, in `[0, 1]`.
    pub write_frac: f64,
    /// Fraction of a `shared` agent's accesses that target the shared
    /// coherent segment, in `[0, 1]` (ignored by private `mem` agents).
    pub share_frac: f64,
    /// Number of 16-byte lines in the shared coherent segment.
    pub shared_lines: usize,
    /// Probability that a private access continues the sequential walk
    /// (the rest jump uniformly inside the working set), in `[0, 1]`.
    pub locality: f64,
    /// Compute cycles between consecutive accesses.
    pub think: u32,
    /// Private L1 sets (power of two; overrides the paper geometry).
    pub l1_sets: usize,
    /// Private L1 ways.
    pub l1_ways: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            working_set: 4096,
            accesses: 2000,
            write_frac: 0.25,
            share_frac: 0.2,
            shared_lines: 64,
            locality: 0.85,
            think: 4,
            l1_sets: 64,
            l1_ways: 4,
        }
    }
}

impl MemoryConfig {
    /// Validates every field's domain.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] naming the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), MemError> {
        if self.working_set < SHARED_LINE_BYTES {
            return Err(MemError::InvalidConfig(format!(
                "working_set must be at least one {SHARED_LINE_BYTES}-byte line, got {}",
                self.working_set
            )));
        }
        if self.accesses == 0 {
            return Err(MemError::InvalidConfig("accesses must be positive".into()));
        }
        for (name, v) in [
            ("write_frac", self.write_frac),
            ("share_frac", self.share_frac),
            ("locality", self.locality),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(MemError::InvalidConfig(format!(
                    "{name} must be within [0, 1], got {v}"
                )));
            }
        }
        if self.shared_lines == 0 {
            return Err(MemError::InvalidConfig(
                "shared_lines must be positive".into(),
            ));
        }
        self.hierarchy().validate()
    }

    /// The private cache geometry the agent runs: the paper hierarchy
    /// with the L1s resized to `l1_sets` × `l1_ways`.
    pub fn hierarchy(&self) -> crate::HierarchyConfig {
        let mut h = crate::HierarchyConfig::paper();
        h.l1i.sets = self.l1_sets;
        h.l1i.ways = self.l1_ways;
        h.l1d.sets = self.l1_sets;
        h.l1d.ways = self.l1_ways;
        h
    }

    /// Number of 16-byte lines in the private working set (at least 1 by
    /// validation).
    pub fn working_set_lines(&self) -> u64 {
        self.working_set / SHARED_LINE_BYTES
    }
}

/// One core's MESI state for one shared line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MesiState {
    /// Modified: sole copy, dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: one of possibly many clean copies.
    Shared,
    /// Invalid: no copy.
    #[default]
    Invalid,
}

impl MesiState {
    /// Whether this state holds a valid copy of the line.
    fn has_copy(self) -> bool {
        self != MesiState::Invalid
    }
}

/// The snooping MESI directory for one run's shared segment.
///
/// Shared by every coherent agent of the run through a [`SharedHub`]; the
/// platform creates one hub per run, so directory state never leaks
/// across runs.
#[derive(Debug, Clone)]
pub struct CoherenceHub {
    n_cores: usize,
    /// Every core's state for every line, line by line: core `c`'s state
    /// for line `l` is at `l * n_cores + c`.
    states: Vec<MesiState>,
    /// Per line: incremented on every write; what a "writeback" makes
    /// visible (observational, see the module docs).
    versions: Vec<u64>,
    /// The version each core last observed (read or wrote), laid out like
    /// `states`.
    observed: Vec<u64>,
}

impl CoherenceHub {
    /// A cold directory: `n_lines` shared lines, every copy Invalid.
    pub fn new(n_cores: usize, n_lines: usize) -> Self {
        CoherenceHub {
            n_cores,
            states: vec![MesiState::Invalid; n_lines * n_cores],
            versions: vec![0; n_lines],
            observed: vec![0; n_lines * n_cores],
        }
    }

    /// Number of shared lines tracked.
    pub fn n_lines(&self) -> usize {
        self.versions.len()
    }

    /// Number of cores tracked.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// The index of `core`'s entry for `line` in `states` and `observed`.
    fn at(&self, core: CoreId, line: usize) -> usize {
        line * self.n_cores + core.index()
    }

    /// Every core's state for `line`.
    fn line_states(&self, line: usize) -> &[MesiState] {
        &self.states[line * self.n_cores..(line + 1) * self.n_cores]
    }

    /// `core`'s MESI state for `line`.
    pub fn state(&self, core: CoreId, line: usize) -> MesiState {
        self.states[self.at(core, line)]
    }

    /// The line's write-version counter (observational only).
    pub fn version(&self, line: usize) -> u64 {
        self.versions[line]
    }

    /// The version `core` last observed on `line` (observational only).
    pub fn observed_version(&self, core: CoreId, line: usize) -> u64 {
        self.observed[self.at(core, line)]
    }

    /// Cores currently holding `line` in Modified state (the MESI
    /// invariant suite asserts this never exceeds 1).
    fn modified_copies(&self, line: usize) -> usize {
        self.line_states(line)
            .iter()
            .filter(|s| **s == MesiState::Modified)
            .count()
    }

    /// Whether a core other than `me` holds `line` in a state `pred`
    /// accepts.
    fn remote(&self, me: usize, line: usize, pred: impl Fn(MesiState) -> bool) -> bool {
        let states = self.line_states(line);
        states.iter().enumerate().any(|(i, s)| i != me && pred(*s))
    }

    /// Invalidates every copy of `line` but `me`'s; returns whether any
    /// was valid.
    fn invalidate_others(&mut self, me: usize, line: usize) -> bool {
        let n = self.n_cores;
        let mut invalidated = false;
        for (i, s) in self.states[line * n..(line + 1) * n].iter_mut().enumerate() {
            if i != me && s.has_copy() {
                *s = MesiState::Invalid;
                invalidated = true;
            }
        }
        invalidated
    }

    /// A read of `line` by `core`: applies the MESI transition and
    /// appends the bus transactions the requester must post to `out`, in
    /// order.
    ///
    /// Hits (M/E/S) cost nothing; an Invalid copy fetches with
    /// [`RequestKind::CohRead`], preceded by a
    /// [`RequestKind::CohWriteback`] when a sibling holds the line
    /// Modified.
    pub fn read(
        &mut self,
        core: CoreId,
        line: usize,
        lat: &LatencyModel,
        out: &mut impl Extend<BusTransaction>,
    ) {
        let (me, at) = (core.index(), self.at(core, line));
        if !self.states[at].has_copy() {
            let remote_copy = self.remote(me, line, MesiState::has_copy);
            if self.remote(me, line, |s| s == MesiState::Modified) {
                // The dirty sibling flushes before the fetch; both end Shared.
                out.extend([txn(lat.mem_access, RequestKind::CohWriteback)]);
            }
            out.extend([txn(lat.mem_access, RequestKind::CohRead)]);
            let n = self.n_cores;
            for s in &mut self.states[line * n..(line + 1) * n] {
                if s.has_copy() {
                    *s = MesiState::Shared;
                }
            }
            self.states[at] = if remote_copy {
                MesiState::Shared
            } else {
                MesiState::Exclusive
            };
        }
        self.observed[at] = self.versions[line];
    }

    /// A write of `line` by `core`: applies the MESI transition and
    /// appends the bus transactions the requester must post to `out`, in
    /// order.
    ///
    /// M hits are silent, E upgrades to M silently; an S copy claims
    /// ownership with [`RequestKind::CohUpgrade`], an Invalid copy
    /// fetches with [`RequestKind::CohReadEx`] (preceded by a
    /// [`RequestKind::CohWriteback`] of a remote Modified copy). Either
    /// path appends a [`RequestKind::CohInvAck`] when at least one
    /// sibling copy had to invalidate.
    pub fn write(
        &mut self,
        core: CoreId,
        line: usize,
        lat: &LatencyModel,
        out: &mut impl Extend<BusTransaction>,
    ) {
        let (me, at) = (core.index(), self.at(core, line));
        let held = self.states[at];
        match held {
            MesiState::Modified | MesiState::Exclusive => {}
            MesiState::Shared => out.extend([txn(lat.l2_write_hit, RequestKind::CohUpgrade)]),
            MesiState::Invalid => {
                if self.remote(me, line, |s| s == MesiState::Modified) {
                    out.extend([txn(lat.mem_access, RequestKind::CohWriteback)]);
                }
                out.extend([txn(lat.mem_access, RequestKind::CohReadEx)]);
            }
        }
        // Claiming ownership from S or I invalidates every sibling copy.
        if matches!(held, MesiState::Shared | MesiState::Invalid)
            && self.invalidate_others(me, line)
        {
            out.extend([txn(lat.l2_read_hit, RequestKind::CohInvAck)]);
        }
        self.states[at] = MesiState::Modified;
        self.versions[line] += 1;
        self.observed[at] = self.versions[line];
    }

    /// Checks the two-core MESI safety invariants over every line:
    /// at most one Modified copy, and a Modified copy never coexists
    /// with any other valid copy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated line.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.n_lines() {
            let states = self.line_states(i);
            let m = self.modified_copies(i);
            let valid = states.iter().filter(|s| s.has_copy()).count();
            if m > 1 {
                return Err(format!("line {i}: {m} Modified copies"));
            }
            if m == 1 && valid > 1 {
                return Err(format!(
                    "line {i}: a Modified copy coexists with {} other valid copies",
                    valid - 1
                ));
            }
        }
        Ok(())
    }
}

/// A coherence transaction of `duration` cycles.
fn txn(duration: u32, kind: RequestKind) -> BusTransaction {
    BusTransaction { duration, kind }
}

/// The per-run handle coherent agents share: single-threaded interior
/// mutability (runs are single-threaded; campaigns parallelize across
/// whole runs, each with its own hub).
pub type SharedHub = Rc<RefCell<CoherenceHub>>;

/// Creates a fresh [`SharedHub`] for one run.
pub fn shared_hub(n_cores: usize, n_lines: usize) -> SharedHub {
    Rc::new(RefCell::new(CoherenceHub::new(n_cores, n_lines)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn kinds(txns: &[BusTransaction]) -> Vec<RequestKind> {
        txns.iter().map(|t| t.kind).collect()
    }

    /// `core`'s read of `line` under the paper latencies, returning the
    /// transactions it costs.
    fn read(hub: &mut CoherenceHub, core: CoreId, line: usize) -> Vec<BusTransaction> {
        let mut txns = Vec::new();
        hub.read(core, line, &LatencyModel::paper(), &mut txns);
        txns
    }

    /// `core`'s write of `line`, as [`read`].
    fn write(hub: &mut CoherenceHub, core: CoreId, line: usize) -> Vec<BusTransaction> {
        let mut txns = Vec::new();
        hub.write(core, line, &LatencyModel::paper(), &mut txns);
        txns
    }

    #[test]
    fn config_validation_rejects_bad_domains() {
        assert!(MemoryConfig::default().validate().is_ok());
        let cases = [
            MemoryConfig {
                working_set: 0,
                ..Default::default()
            },
            MemoryConfig {
                share_frac: 1.5,
                ..Default::default()
            },
            MemoryConfig {
                accesses: 0,
                ..Default::default()
            },
            MemoryConfig {
                shared_lines: 0,
                ..Default::default()
            },
            MemoryConfig {
                l1_sets: 3, // not a power of two
                ..Default::default()
            },
        ];
        for m in cases {
            assert!(m.validate().is_err(), "{m:?} must be rejected");
        }
    }

    #[test]
    fn cold_read_is_exclusive_then_hits() {
        let mut hub = CoherenceHub::new(2, 4);
        let txns = read(&mut hub, c(0), 0);
        assert_eq!(kinds(&txns), [RequestKind::CohRead]);
        assert_eq!(hub.state(c(0), 0), MesiState::Exclusive);
        assert!(read(&mut hub, c(0), 0).is_empty(), "E read is a hit");
    }

    #[test]
    fn second_reader_downgrades_to_shared() {
        let mut hub = CoherenceHub::new(2, 4);
        read(&mut hub, c(0), 0);
        let txns = read(&mut hub, c(1), 0);
        assert_eq!(kinds(&txns), [RequestKind::CohRead]);
        assert_eq!(hub.state(c(0), 0), MesiState::Shared);
        assert_eq!(hub.state(c(1), 0), MesiState::Shared);
    }

    #[test]
    fn write_to_exclusive_is_silent() {
        let mut hub = CoherenceHub::new(2, 4);
        read(&mut hub, c(0), 0);
        let txns = write(&mut hub, c(0), 0);
        assert!(txns.is_empty(), "E -> M is a silent upgrade");
        assert_eq!(hub.state(c(0), 0), MesiState::Modified);
    }

    #[test]
    fn shared_writer_upgrades_and_invalidates() {
        let mut hub = CoherenceHub::new(2, 4);
        read(&mut hub, c(0), 0);
        read(&mut hub, c(1), 0);
        let txns = write(&mut hub, c(0), 0);
        assert_eq!(
            kinds(&txns),
            [RequestKind::CohUpgrade, RequestKind::CohInvAck]
        );
        assert_eq!(hub.state(c(0), 0), MesiState::Modified);
        assert_eq!(hub.state(c(1), 0), MesiState::Invalid);
    }

    #[test]
    fn cold_write_fetches_exclusively() {
        let mut hub = CoherenceHub::new(2, 4);
        let txns = write(&mut hub, c(0), 0);
        assert_eq!(kinds(&txns), [RequestKind::CohReadEx]);
        assert_eq!(hub.state(c(0), 0), MesiState::Modified);
    }

    #[test]
    fn remote_modified_flushes_before_read_and_write() {
        let mut hub = CoherenceHub::new(2, 4);
        write(&mut hub, c(0), 0);
        let txns = read(&mut hub, c(1), 0);
        assert_eq!(
            kinds(&txns),
            [RequestKind::CohWriteback, RequestKind::CohRead]
        );
        assert_eq!(hub.state(c(0), 0), MesiState::Shared);
        assert_eq!(hub.state(c(1), 0), MesiState::Shared);

        let mut hub = CoherenceHub::new(2, 4);
        write(&mut hub, c(0), 0);
        let txns = write(&mut hub, c(1), 0);
        assert_eq!(
            kinds(&txns),
            [
                RequestKind::CohWriteback,
                RequestKind::CohReadEx,
                RequestKind::CohInvAck
            ]
        );
        assert_eq!(hub.state(c(0), 0), MesiState::Invalid);
        assert_eq!(hub.state(c(1), 0), MesiState::Modified);
    }

    #[test]
    fn durations_respect_the_latency_model() {
        let lat = LatencyModel::paper();
        let mut hub = CoherenceHub::new(2, 1);
        write(&mut hub, c(0), 0);
        for t in write(&mut hub, c(1), 0) {
            assert!(t.duration >= 1 && t.duration <= lat.max_latency());
        }
    }

    /// Property: under a random two-core access mix, no line ever holds
    /// two Modified copies (or M next to any valid copy), and a reader
    /// entering S observes the version of the last write.
    #[test]
    fn random_mix_preserves_mesi_invariants() {
        let mut rng = SimRng::seed_from(0xC0FFEE);
        for n_cores in [2, 4] {
            let mut hub = CoherenceHub::new(n_cores, 8);
            for _ in 0..5_000 {
                let core = c(rng.gen_range_usize(0..n_cores));
                let line = rng.gen_range_usize(0..8);
                if rng.gen_bool(0.4) {
                    write(&mut hub, core, line);
                } else {
                    read(&mut hub, core, line);
                    assert_eq!(
                        hub.observed_version(core, line),
                        hub.version(line),
                        "an S/E reader must see the last writeback"
                    );
                }
                hub.check_invariants().expect("MESI safety");
            }
        }
    }
}
