//! One core's private view of the memory hierarchy and the access
//! classifier that turns memory operations into bus transactions.

use crate::access::{AccessKind, MemAccess};
use crate::cache::{CacheConfig, SetAssocCache};
use crate::latency::LatencyModel;
use crate::MemError;
use cba_bus::RequestKind;
use sim_core::rng::SimRng;

/// Cache geometry for one core: L1I, L1D and its L2 partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache (write-through on the platform).
    pub l1d: CacheConfig,
    /// This core's private partition of the shared L2 (write-back).
    pub l2_partition: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's platform geometry.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1(),
            l1d: CacheConfig::paper_l1(),
            l2_partition: CacheConfig::paper_l2_partition(),
        }
    }

    /// Validates all three cache geometries.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MemError::InvalidConfig`] found.
    pub(crate) fn validate(&self) -> Result<(), MemError> {
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2_partition.validate()
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Classification of one memory access by the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Served by the private L1: no bus traffic.
    L1Hit,
    /// L1 miss, L2 read hit (5-cycle bus transaction).
    L2ReadHit,
    /// Write-through store absorbed by the L2 (6-cycle bus transaction).
    L2WriteHit,
    /// L2 miss with a clean victim: one memory access (28 cycles).
    L2MissClean,
    /// L2 miss evicting a dirty line: write-back + fetch (56 cycles).
    L2MissDirty,
    /// Atomic read-modify-write: uncached, two memory accesses (56
    /// cycles).
    Atomic,
}

/// A classified bus transaction: duration plus trace kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTransaction {
    /// Bus hold time in cycles.
    pub duration: u32,
    /// Trace classification for the bus layer.
    pub kind: RequestKind,
}

impl AccessOutcome {
    /// Maps the outcome to its bus transaction under `lat`, or `None` for
    /// L1 hits (which never reach the bus).
    pub fn bus_transaction(&self, lat: &LatencyModel) -> Option<BusTransaction> {
        match self {
            AccessOutcome::L1Hit => None,
            AccessOutcome::L2ReadHit => Some(BusTransaction {
                duration: lat.l2_read_hit,
                kind: RequestKind::L2ReadHit,
            }),
            AccessOutcome::L2WriteHit => Some(BusTransaction {
                duration: lat.l2_write_hit,
                kind: RequestKind::L2Write,
            }),
            AccessOutcome::L2MissClean => Some(BusTransaction {
                duration: lat.miss_clean(),
                kind: RequestKind::L2MissClean,
            }),
            AccessOutcome::L2MissDirty => Some(BusTransaction {
                duration: lat.miss_dirty(),
                kind: RequestKind::L2MissDirty,
            }),
            AccessOutcome::Atomic => Some(BusTransaction {
                duration: lat.atomic(),
                kind: RequestKind::Atomic,
            }),
        }
    }
}

/// One core's private memory hierarchy: L1I, L1D, and its L2 partition.
///
/// Because the L2 is partitioned, the entire hierarchy is private state —
/// cores interfere only on the bus. Classification happens at access time
/// (the partition's content depends only on this core's own history, so
/// this is exact).
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct CoreMemory {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
}

impl CoreMemory {
    /// Creates the hierarchy, drawing placement seeds from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; validate with
    /// `HierarchyConfig::validate` first when the geometry is
    /// user-supplied.
    pub fn new(config: &HierarchyConfig, rng: &mut SimRng) -> Self {
        config.validate().expect("invalid hierarchy configuration");
        CoreMemory {
            l1i: SetAssocCache::new(config.l1i, rng).expect("validated"),
            l1d: SetAssocCache::new(config.l1d, rng).expect("validated"),
            l2: SetAssocCache::new(config.l2_partition, rng).expect("validated"),
        }
    }

    /// Classifies (and performs) one memory access.
    pub fn access(&mut self, access: MemAccess, rng: &mut SimRng) -> AccessOutcome {
        match access.kind() {
            AccessKind::Atomic => AccessOutcome::Atomic,
            AccessKind::IFetch => {
                if self.l1i.read(access.addr(), rng).hit {
                    AccessOutcome::L1Hit
                } else {
                    self.l2_fill(access.addr(), rng)
                }
            }
            AccessKind::Load => {
                if self.l1d.read(access.addr(), rng).hit {
                    AccessOutcome::L1Hit
                } else {
                    self.l2_fill(access.addr(), rng)
                }
            }
            AccessKind::Store => {
                // Write-through, no-allocate L1: update on hit, and always
                // forward the store to the L2 over the bus.
                let _ = self.l1d.write(access.addr(), rng);
                let out = self.l2.write(access.addr(), rng);
                if out.hit {
                    AccessOutcome::L2WriteHit
                } else if out.victim_dirty {
                    AccessOutcome::L2MissDirty
                } else {
                    AccessOutcome::L2MissClean
                }
            }
        }
    }

    fn l2_fill(&mut self, addr: u64, rng: &mut SimRng) -> AccessOutcome {
        let out = self.l2.read(addr, rng);
        if out.hit {
            AccessOutcome::L2ReadHit
        } else if out.victim_dirty {
            AccessOutcome::L2MissDirty
        } else {
            AccessOutcome::L2MissClean
        }
    }

    /// The L1 data cache (for inspection).
    pub fn l1d(&self) -> &SetAssocCache {
        &self.l1d
    }

    /// This core's L2 partition (for inspection).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seed: u64) -> (CoreMemory, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let mem = CoreMemory::new(&HierarchyConfig::paper(), &mut rng);
        (mem, rng)
    }

    #[test]
    fn cold_load_misses_to_memory_then_hits_in_l1() {
        let (mut mem, mut rng) = mk(1);
        assert_eq!(
            mem.access(MemAccess::load(0x1000), &mut rng),
            AccessOutcome::L2MissClean
        );
        assert_eq!(
            mem.access(MemAccess::load(0x1000), &mut rng),
            AccessOutcome::L1Hit
        );
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let (mut mem, mut rng) = mk(2);
        mem.access(MemAccess::load(0x1000), &mut rng);
        // Thrash L1D (4 KiB) with a 64 KiB sweep; L2 partition (32 KiB)
        // keeps a superset including 0x1000 with high probability... but
        // eviction is random, so instead check the classification path
        // explicitly: the line is in L2, not in L1.
        let mut evicted_from_l1 = false;
        for i in 0..4096u64 {
            mem.access(MemAccess::load(0x10_0000 + i * 16), &mut rng);
            if !mem.l1d().contains(0x1000) {
                evicted_from_l1 = true;
                break;
            }
        }
        assert!(evicted_from_l1, "L1 must eventually evict under thrash");
        if mem.l2().contains(0x1000) {
            assert_eq!(
                mem.access(MemAccess::load(0x1000), &mut rng),
                AccessOutcome::L2ReadHit
            );
        }
    }

    #[test]
    fn stores_always_reach_the_bus() {
        let (mut mem, mut rng) = mk(3);
        // Even a store to an L1-resident line produces a bus transaction
        // (write-through).
        mem.access(MemAccess::load(0x2000), &mut rng);
        let out = mem.access(MemAccess::store(0x2000), &mut rng);
        assert_eq!(out, AccessOutcome::L2WriteHit);
        assert!(out.bus_transaction(&LatencyModel::paper()).is_some());
    }

    #[test]
    fn store_to_cold_line_allocates_in_l2() {
        let (mut mem, mut rng) = mk(4);
        assert_eq!(
            mem.access(MemAccess::store(0x3000), &mut rng),
            AccessOutcome::L2MissClean
        );
        assert!(
            mem.l2().contains(0x3000),
            "write-back L2 allocates on store"
        );
        assert!(!mem.l1d().contains(0x3000), "write-through L1 does not");
    }

    #[test]
    fn dirty_eviction_produces_two_access_transaction() {
        let (mut mem, mut rng) = mk(5);
        // Dirty many L2 lines, then force misses until a dirty victim is
        // evicted.
        for i in 0..2048u64 {
            mem.access(MemAccess::store(i * 16), &mut rng);
        }
        let mut saw_dirty_miss = false;
        for i in 0..8192u64 {
            let out = mem.access(MemAccess::load(0x100_0000 + i * 16), &mut rng);
            if out == AccessOutcome::L2MissDirty {
                saw_dirty_miss = true;
                break;
            }
        }
        assert!(
            saw_dirty_miss,
            "dirty evictions must occur under store pressure"
        );
    }

    #[test]
    fn atomics_bypass_caches() {
        let (mut mem, mut rng) = mk(6);
        mem.access(MemAccess::load(0x4000), &mut rng);
        assert_eq!(
            mem.access(MemAccess::atomic(0x4000), &mut rng),
            AccessOutcome::Atomic
        );
        // Twice in a row: still Atomic, never cached.
        assert_eq!(
            mem.access(MemAccess::atomic(0x4000), &mut rng),
            AccessOutcome::Atomic
        );
    }

    #[test]
    fn ifetch_uses_l1i_not_l1d() {
        let (mut mem, mut rng) = mk(7);
        mem.access(MemAccess::ifetch(0x5000), &mut rng);
        assert_eq!(
            mem.access(MemAccess::ifetch(0x5000), &mut rng),
            AccessOutcome::L1Hit
        );
        // The same address through the data path still misses L1D (but hits
        // in the shared L2 partition).
        let out = mem.access(MemAccess::load(0x5000), &mut rng);
        assert_eq!(out, AccessOutcome::L2ReadHit);
    }

    #[test]
    fn transaction_durations_match_latency_model() {
        let lat = LatencyModel::paper();
        let cases = [
            (AccessOutcome::L1Hit, None),
            (AccessOutcome::L2ReadHit, Some(5)),
            (AccessOutcome::L2WriteHit, Some(6)),
            (AccessOutcome::L2MissClean, Some(28)),
            (AccessOutcome::L2MissDirty, Some(56)),
            (AccessOutcome::Atomic, Some(56)),
        ];
        for (outcome, expect) in cases {
            assert_eq!(
                outcome.bus_transaction(&lat).map(|t| t.duration),
                expect,
                "{outcome:?}"
            );
        }
    }

    #[test]
    fn durations_never_exceed_maxl() {
        let lat = LatencyModel::paper();
        for outcome in [
            AccessOutcome::L2ReadHit,
            AccessOutcome::L2WriteHit,
            AccessOutcome::L2MissClean,
            AccessOutcome::L2MissDirty,
            AccessOutcome::Atomic,
        ] {
            let t = outcome.bus_transaction(&lat).unwrap();
            assert!(t.duration <= lat.max_latency());
        }
    }

    #[test]
    fn stats_accounting() {
        let (mut mem, mut rng) = mk(8);
        for (access, outcome) in [
            (MemAccess::load(0x100), AccessOutcome::L2MissClean),
            (MemAccess::load(0x100), AccessOutcome::L1Hit),
            (MemAccess::store(0x100), AccessOutcome::L2WriteHit),
            (MemAccess::atomic(0x200), AccessOutcome::Atomic),
        ] {
            assert_eq!(mem.access(access, &mut rng), outcome, "{access}");
        }
    }
}
