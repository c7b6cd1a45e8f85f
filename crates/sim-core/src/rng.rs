//! Deterministic, forkable random-number streams.
//!
//! Every stochastic element of the simulator (cache placement seeds, random
//! replacement, arbitration randomness, workload address streams) draws from
//! a [`SimRng`]. A run is fully reproducible from its master seed; campaign
//! runners fork one independent stream per run, and the platform forks one
//! stream per component, so adding randomness to one component never perturbs
//! another (a property the Monte-Carlo comparisons in the evaluation rely
//! on).
//!
//! The generator is a self-contained **xoshiro256++** (the algorithm behind
//! `rand::rngs::SmallRng` on 64-bit targets) seeded through SplitMix64, so
//! the crate carries no external dependencies and streams are stable across
//! toolchains.
//!
//! # Counting draws
//!
//! A seed's value leaves its stream in exactly three ways: a
//! [`SimRng::next_u64`] (every other draw method is built on it), a
//! [`SimRng::seed`] read, and a step of an [`LfsrBank`](crate::lfsr::LfsrBank).
//! Each of them adds one to a per-thread count, [`draws`]. Creating or
//! forking a stream draws nothing: the child's values leave it through its
//! own draws. So a piece of work that leaves the count unchanged computed
//! nothing from any seed, and repeats exactly under every seed; the
//! platform's campaign executor uses this to compute such a run once.
//! Draws made on another thread, and `Debug` output, are not counted.

use std::cell::Cell;

thread_local! {
    static DRAWS: Cell<u64> = const { Cell::new(0) };
}

/// Random draws made on the calling thread so far (see the
/// [module docs](self#counting-draws)): the difference of two reads
/// brackets the draws of the work between them.
pub fn draws() -> u64 {
    DRAWS.with(Cell::get)
}

/// Counts one draw on the calling thread.
#[inline]
pub(crate) fn count_draw() {
    DRAWS.with(|d| d.set(d.get() + 1));
}

/// SplitMix64 step, used to derive independent seeds from `(seed, tag)` and
/// to expand a 64-bit seed into the 256-bit xoshiro state.
///
/// SplitMix64 is the standard seed-sequence generator recommended for
/// seeding xoshiro-family generators; consecutive or otherwise correlated
/// inputs map to decorrelated outputs.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random stream with cheap independent forking.
///
/// Implements xoshiro256++ directly and keeps the seed it was created from
/// so that child streams can be derived with [`SimRng::fork`].
///
/// # Example
///
/// ```
/// use sim_core::rng::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut cache_rng = a.fork(1);
/// let mut arb_rng = a.fork(2);
/// assert_ne!(cache_rng.next_u64(), arb_rng.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand through SplitMix64 exactly as xoshiro's authors recommend;
        // one extra scramble round keeps seed 0 away from the all-zero
        // state (which xoshiro cannot leave).
        let mut s = splitmix64(seed);
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = splitmix64(s);
            *slot = s;
        }
        SimRng { seed, state }
    }

    /// The seed this stream was created from. Counts as a draw.
    pub fn seed(&self) -> u64 {
        count_draw();
        self.seed
    }

    /// Derives an independent child stream identified by `tag`.
    ///
    /// Forking is a pure function of `(seed, tag)`, so the child is stable
    /// regardless of how much the parent stream has been consumed. Use
    /// distinct tags for distinct components.
    pub fn fork(&self, tag: u64) -> SimRng {
        SimRng::seed_from(splitmix64(
            self.seed ^ splitmix64(tag ^ 0xa076_1d64_78bd_642f),
        ))
    }

    /// Next 64 random bits (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        count_draw();
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform draw from a `u64` range (`lo..hi`, `hi` exclusive).
    ///
    /// Uses Lemire-style rejection sampling, so every value of the range is
    /// exactly equally likely.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        if span.is_power_of_two() {
            // 2^64 is a multiple of `span`: the zone below is `u64::MAX`,
            // so the first draw is kept, and `v % span` is a mask.
            return range.start + (self.next_u64() & (span - 1));
        }
        // Rejection-sample the top multiple of `span` to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return range.start + v % span;
            }
        }
    }

    /// Uniform draw from a `usize` range (`lo..hi`, `hi` exclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range_u64(range.start as u64..range.end as u64) as usize
    }

    /// A uniform draw in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → the standard uniform-double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// A geometric-ish inter-arrival gap with mean `mean` (never zero if
    /// `mean >= 1`), used by workload generators for compute gaps.
    ///
    /// Sampled as `1 + floor(-mean * ln(1 - u))` truncated at `32 * mean`,
    /// giving an exponential-tailed positive integer with approximate mean
    /// `mean` for `mean >= 1`.
    pub fn gen_gap(&mut self, mean: f64) -> u32 {
        if mean <= 1.0 {
            return 1;
        }
        let u: f64 = self.gen_f64();
        let raw = -(mean - 0.5) * (1.0 - u).ln();
        let cap = 32.0 * mean;
        (1.0 + raw.min(cap)) as u32
    }

    /// Picks one element of a non-empty slice uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose on empty slice");
        &slice[self.gen_range_usize(0..slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut rng = SimRng::seed_from(0);
        let draws: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn fork_is_stable_wrt_parent_consumption() {
        let mut a = SimRng::seed_from(99);
        let fork_before = a.fork(5);
        let _ = a.next_u64();
        let _ = a.next_u64();
        let fork_after = a.fork(5);
        let mut x = fork_before;
        let mut y = fork_after;
        for _ in 0..16 {
            assert_eq!(x.next_u64(), y.next_u64());
        }
    }

    #[test]
    fn forks_with_distinct_tags_decorrelate() {
        let parent = SimRng::seed_from(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = SimRng::seed_from(3);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.gen_range_usize(0..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn power_of_two_spans_keep_the_rejection_formula() {
        // The rejection path as it stands for every other span.
        fn rejection(rng: &mut SimRng, range: std::ops::Range<u64>) -> u64 {
            let span = range.end - range.start;
            let zone = u64::MAX - (u64::MAX - span + 1) % span;
            loop {
                let v = rng.next_u64();
                if v <= zone {
                    return range.start + v % span;
                }
            }
        }
        for seed in [0, 1, 7, 2017, u64::MAX] {
            let mut masked = SimRng::seed_from(seed);
            let mut reference = SimRng::seed_from(seed);
            for k in 0..u64::BITS {
                let span = 1u64 << k;
                for start in [0, 3, u64::MAX - span] {
                    for _ in 0..8 {
                        assert_eq!(
                            masked.gen_range_u64(start..start + span),
                            rejection(&mut reference, start..start + span),
                            "seed {seed} span 2^{k} start {start}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        // Out-of-domain p is clamped rather than panicking.
        assert!((0..100).all(|_| rng.gen_bool(7.5)));
    }

    #[test]
    fn gen_gap_mean_roughly_matches() {
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let mean_target = 12.0;
        let total: u64 = (0..n).map(|_| rng.gen_gap(mean_target) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - mean_target).abs() < 1.0,
            "empirical mean {mean} too far from {mean_target}"
        );
    }

    #[test]
    fn gen_gap_is_at_least_one() {
        let mut rng = SimRng::seed_from(6);
        assert!((0..1000).all(|_| rng.gen_gap(0.0) >= 1));
        assert!((0..1000).all(|_| rng.gen_gap(3.0) >= 1));
    }

    #[test]
    fn choose_uniformity_smoke() {
        let mut rng = SimRng::seed_from(10);
        let items = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[*rng.choose(&items)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "counts skewed: {counts:?}");
        }
    }

    #[test]
    fn draws_count_values_that_leave_a_stream() {
        let start = draws();
        let mut rng = SimRng::seed_from(9);
        let child = rng.fork(3);
        let _copy = rng.clone();
        assert_eq!(draws(), start, "creating, forking and cloning draw nothing");
        rng.next_u64();
        rng.gen_range_u64(0..8);
        rng.gen_f64();
        assert_eq!(draws(), start + 3);
        child.seed();
        assert_eq!(draws(), start + 4, "a seed read is a draw");
        let other = std::thread::spawn(|| SimRng::seed_from(1).next_u64());
        other.join().unwrap();
        assert_eq!(draws(), start + 4, "another thread's draws are its own");
    }

    #[test]
    fn known_xoshiro_vector() {
        // Reference sequence computed independently from the published
        // xoshiro256++ algorithm with state expanded from seed 42 via the
        // extra-scramble SplitMix64 chain documented in `seed_from`; pins
        // the implementation so refactors cannot silently change every
        // seed-driven stream in the workspace.
        let mut rng = SimRng::seed_from(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0x03f3_9b78_be22_447f,
                0x1dd9_733d_5a18_0053,
                0x0c89_a42c_7fa8_2e9c,
                0xb4d8_ea93_4776_7e7d,
            ]
        );
    }
}
