//! A set-associative cache with the MBPTA-style randomization of the
//! paper's platform: random placement (a randomized index hash whose seed
//! is drawn when the cache is built) and random replacement.
//!
//! Each cache draws its placement seed when built, so building the caches
//! afresh for every run gives the per-run randomization MBPTA requires.
//! A miss in a full set evicts a uniformly random way: the choice is
//! memoryless, so a hit updates no state.

use crate::MemError;
use sim_core::rng::SimRng;

/// Write handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-through, no write-allocate (the platform's L1D): stores update
    /// a hitting line but never allocate, and always propagate downstream.
    WriteThrough,
    /// Write-back, write-allocate (the platform's L2): stores allocate and
    /// dirty the line; evicting a dirty line costs a memory write-back.
    WriteBack,
}

/// Geometry and policies of one cache (or one L2 partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two, at least 2).
    pub line_bytes: usize,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] unless `sets` is a non-zero
    /// power of two, `line_bytes` a power of two of at least 2, and
    /// `ways >= 1`.
    pub(crate) fn validate(&self) -> Result<(), MemError> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(MemError::InvalidConfig(format!(
                "sets must be a power of two, got {}",
                self.sets
            )));
        }
        if self.line_bytes < 2 || !self.line_bytes.is_power_of_two() {
            return Err(MemError::InvalidConfig(format!(
                "line_bytes must be a power of two of at least 2, got {}",
                self.line_bytes
            )));
        }
        if self.ways == 0 {
            return Err(MemError::InvalidConfig("ways must be at least 1".into()));
        }
        Ok(())
    }

    /// The platform L1 (4 KiB, 4-way, 16-byte lines, random placement and
    /// replacement, write-through).
    pub fn paper_l1() -> Self {
        CacheConfig {
            sets: 64,
            ways: 4,
            line_bytes: 16,
            write_policy: WritePolicy::WriteThrough,
        }
    }

    /// One core's partition of the platform L2 (32 KiB, 4-way, 16-byte
    /// lines, random placement and replacement, write-back).
    pub(crate) fn paper_l2_partition() -> Self {
        CacheConfig {
            sets: 512,
            ways: 4,
            line_bytes: 16,
            write_policy: WritePolicy::WriteBack,
        }
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// On an allocating miss: whether the evicted victim was dirty (drives
    /// the write-back cost in the latency model).
    pub victim_dirty: bool,
}

/// A set-associative cache.
///
/// Lines live in flat per-way vectors: a tag (the line address plus one,
/// so 0 marks an invalid way) and a dirty bit. Sets and line size are
/// powers of two, so indexing is a shift and a mask.
///
/// # Example
///
/// ```
/// use cba_mem::{CacheConfig, SetAssocCache};
/// use sim_core::rng::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let mut l1 = SetAssocCache::new(CacheConfig::paper_l1(), &mut rng)?;
/// let miss = l1.read(0x4000, &mut rng);
/// assert!(!miss.hit);
/// let hit = l1.read(0x4008, &mut rng); // same 16-byte line
/// assert!(hit.hit);
/// # Ok::<(), cba_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// Per way: line address + 1, or 0 when invalid.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    seed: u64,
}

impl SetAssocCache {
    /// Creates an empty cache; placement draws its hash seed from `rng`.
    ///
    /// # Errors
    ///
    /// Propagates `CacheConfig::validate` failures.
    pub fn new(config: CacheConfig, rng: &mut SimRng) -> Result<Self, MemError> {
        config.validate()?;
        let n = config.sets * config.ways;
        Ok(SetAssocCache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets as u64 - 1,
            tags: vec![0; n],
            dirty: vec![false; n],
            seed: rng.next_u64(),
            config,
        })
    }

    /// The tag `addr`'s line is stored under (never 0: validation keeps
    /// lines at least 2 bytes, so the line address is below `u64::MAX`).
    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) + 1
    }

    /// The first way of the set `tag`'s line maps to: a splitmix-style
    /// hash of the line address under the cache's seed, so a different
    /// seed yields an (effectively) independent placement function.
    #[inline]
    fn set_base(&self, tag: u64) -> usize {
        let mut z = (tag - 1) ^ self.seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z & self.set_mask) as usize * self.config.ways
    }

    /// The set base for `addr` and the slot holding its line, if cached.
    #[inline]
    fn probe(&self, addr: u64) -> (u64, usize, Option<usize>) {
        let tag = self.tag_of(addr);
        let base = self.set_base(tag);
        let ways = &self.tags[base..base + self.config.ways];
        (
            tag,
            base,
            ways.iter().position(|&t| t == tag).map(|w| base + w),
        )
    }

    /// Allocates `tag`'s line in its set (base `base`), in an invalid way
    /// if the set has one and in a uniformly random way otherwise; returns
    /// whether the victim was dirty.
    fn fill(&mut self, tag: u64, base: usize, dirty: bool, rng: &mut SimRng) -> bool {
        let slot = (base..base + self.config.ways)
            .find(|&i| self.tags[i] == 0)
            .unwrap_or_else(|| base + rng.gen_range_usize(0..self.config.ways));
        let victim_dirty = self.tags[slot] != 0 && self.dirty[slot];
        self.tags[slot] = tag;
        self.dirty[slot] = dirty;
        victim_dirty
    }

    /// Reads `addr`. On a miss the line is allocated (evicting a random
    /// way of a full set); the outcome reports whether the victim was
    /// dirty.
    pub fn read(&mut self, addr: u64, rng: &mut SimRng) -> CacheOutcome {
        let (tag, base, slot) = self.probe(addr);
        match slot {
            Some(_) => CacheOutcome {
                hit: true,
                victim_dirty: false,
            },
            None => CacheOutcome {
                hit: false,
                victim_dirty: self.fill(tag, base, false, rng),
            },
        }
    }

    /// Writes `addr`.
    ///
    /// * Write-through: a hit updates the line (clean — the write
    ///   propagates downstream anyway); a miss does not allocate.
    /// * Write-back: a hit dirties the line; a miss allocates and dirties
    ///   it, reporting a dirty victim if one was evicted.
    pub(crate) fn write(&mut self, addr: u64, rng: &mut SimRng) -> CacheOutcome {
        let (tag, base, slot) = self.probe(addr);
        let write_back = self.config.write_policy == WritePolicy::WriteBack;
        match slot {
            Some(slot) => {
                self.dirty[slot] |= write_back;
                CacheOutcome {
                    hit: true,
                    victim_dirty: false,
                }
            }
            None => CacheOutcome {
                hit: false,
                victim_dirty: write_back && self.fill(tag, base, true, rng),
            },
        }
    }

    /// Whether the line containing `addr` is currently cached (no state
    /// update; for tests and assertions).
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).2.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(config: CacheConfig, seed: u64) -> (SetAssocCache, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let c = SetAssocCache::new(config, &mut rng).unwrap();
        (c, rng)
    }

    /// One set of one way: placement and the victim are forced, so every
    /// miss evicts the one line the cache holds.
    fn single_line(write_policy: WritePolicy) -> CacheConfig {
        CacheConfig {
            sets: 1,
            ways: 1,
            line_bytes: 16,
            write_policy,
        }
    }

    #[test]
    fn geometry_validation() {
        let mut bad = CacheConfig::paper_l1();
        bad.sets = 3;
        assert!(bad.validate().is_err());
        bad = CacheConfig::paper_l1();
        bad.ways = 0;
        assert!(bad.validate().is_err());
        bad = CacheConfig::paper_l1();
        bad.line_bytes = 24;
        assert!(bad.validate().is_err());
        bad.line_bytes = 1;
        assert!(bad.validate().is_err(), "a 1-byte line leaves no tag for 0");
        assert!(CacheConfig::paper_l1().validate().is_ok());
    }

    #[test]
    fn paper_geometries() {
        let bytes = |c: CacheConfig| c.sets * c.ways * c.line_bytes;
        assert_eq!(bytes(CacheConfig::paper_l1()), 4 * 1024);
        assert_eq!(bytes(CacheConfig::paper_l2_partition()), 32 * 1024);
    }

    #[test]
    fn miss_then_hit_same_line() {
        let (mut c, mut rng) = mk(CacheConfig::paper_l1(), 7);
        assert!(!c.read(0x100, &mut rng).hit);
        assert!(c.read(0x10f, &mut rng).hit, "same 16-byte line");
        assert!(!c.read(0x110, &mut rng).hit, "next line misses");
    }

    #[test]
    fn write_through_does_not_allocate() {
        let (mut c, mut rng) = mk(single_line(WritePolicy::WriteThrough), 3);
        assert!(!c.write(0x40, &mut rng).hit);
        assert!(!c.contains(0x40), "WT miss must not allocate");
        // After a read allocates, a write hits and leaves the line clean.
        c.read(0x40, &mut rng);
        assert!(c.write(0x40, &mut rng).hit);
        // Evicting it must not report dirty.
        let out = c.read(0x80, &mut rng);
        assert!(!out.hit);
        assert!(!out.victim_dirty, "a WT line is never dirty");
        assert!(!c.contains(0x40));
    }

    #[test]
    fn write_back_allocates_and_dirty_eviction_reports() {
        let (mut c, mut rng) = mk(single_line(WritePolicy::WriteBack), 3);
        assert!(!c.write(0x40, &mut rng).hit);
        assert!(c.contains(0x40), "WB miss allocates");
        let out = c.read(0x80, &mut rng);
        assert!(!out.hit);
        assert!(out.victim_dirty, "evicted line was dirtied by the write");
    }

    #[test]
    fn clean_eviction_not_reported_dirty() {
        let (mut c, mut rng) = mk(single_line(WritePolicy::WriteBack), 3);
        c.read(0x40, &mut rng);
        let out = c.read(0x80, &mut rng);
        assert!(!out.hit);
        assert!(!out.victim_dirty);
    }

    #[test]
    fn random_placement_varies_with_seed() {
        // The same conflict-heavy address stream produces different miss
        // counts under different placement seeds — the per-run variability
        // MBPTA feeds on.
        let cfg = CacheConfig {
            sets: 16,
            ways: 1,
            line_bytes: 16,
            write_policy: WritePolicy::WriteBack,
        };
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 256).collect();
        let mut miss_counts = std::collections::HashSet::new();
        for seed in 0..16 {
            let (mut c, mut rng) = mk(cfg, seed);
            let mut misses = 0;
            for _ in 0..4 {
                for &a in &addrs {
                    if !c.read(a, &mut rng).hit {
                        misses += 1;
                    }
                }
            }
            miss_counts.insert(misses);
        }
        assert!(
            miss_counts.len() > 1,
            "placement must vary across seeds: {miss_counts:?}"
        );
    }

    #[test]
    fn hit_rate_accounting() {
        let (mut c, mut rng) = mk(CacheConfig::paper_l1(), 11);
        let hits: Vec<bool> = (0..3).map(|_| c.read(0x0, &mut rng).hit).collect();
        assert_eq!(hits, [false, true, true]);
    }

    /// Valid lines never exceed capacity, and immediate re-reads always
    /// hit, under randomized access streams and both write policies.
    /// (Seed-driven in place of proptest; each case reproducible from its
    /// seed.)
    #[test]
    fn capacity_and_rehit_invariants() {
        for seed in 0..64u64 {
            let mut gen = SimRng::seed_from(seed ^ 0x5eed_cafe);
            let cfg = CacheConfig {
                sets: 8,
                ways: 2,
                line_bytes: 16,
                write_policy: if gen.gen_bool(0.5) {
                    WritePolicy::WriteBack
                } else {
                    WritePolicy::WriteThrough
                },
            };
            let n_accesses = gen.gen_range_usize(1..400);
            let mut rng = SimRng::seed_from(seed);
            let mut c = SetAssocCache::new(cfg, &mut rng).unwrap();
            for _ in 0..n_accesses {
                let a = gen.gen_range_u64(0..0x8000);
                if gen.gen_bool(0.5) {
                    c.write(a, &mut rng);
                } else {
                    c.read(a, &mut rng);
                }
                let valid = c.tags.iter().filter(|&&t| t != 0).count();
                assert!(valid <= cfg.sets * cfg.ways, "seed {seed}");
                // A line present after the access must hit on re-read.
                if c.contains(a) {
                    assert!(c.read(a, &mut rng).hit, "seed {seed}, addr {a:#x}");
                }
            }
        }
    }
}
