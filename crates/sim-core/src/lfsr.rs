//! Model of the APRANDBANK hardware random-bit bank.
//!
//! The paper's FPGA prototype feeds its random-permutation arbiter from an
//! "APRANDBANK module that delivers random bits every cycle", an IEC-61508
//! SIL-3 compliant pseudo-random number generator (reference \[3\] of the
//! paper: Agirre et al., DSD 2015). That design is a bank of maximal-length
//! Galois LFSRs with online health monitoring; this module reproduces the
//! structure: a [`LfsrBank`] of independent 32-bit Galois LFSRs, one bit per
//! LFSR per cycle, plus the two health checks a safety-qualified PRNG must
//! run (stuck-at detection and bit-balance monitoring).
//!
//! The arbiter consumes bits via [`LfsrBank::next_bits`]; a permutation draw
//! for `N` cores consumes `N·log2(N)`-ish bits per arbitration round.
//!
//! # Layout
//!
//! The bank stores its lanes bit-sliced: 32 `u64` bit-planes in a ring,
//! where bit `i` of plane `j` is bit `j` of lane `i`'s state. One cycle of
//! all lanes is then a few word operations:
//!
//! * the output word is plane 0, one bit per lane;
//! * every lane's right shift is a rotation of the ring, which also leaves
//!   the output word in the top plane (the polynomial's `x^32` term);
//! * the lanes that output a 1 take the polynomial's other taps, as
//!   `plane ^= output` on three planes.
//!
//! That is all a draw does. The health monitors are evaluated on demand:
//! the bank keeps a copy of its planes as the current window's first
//! cycle found them, and [`LfsrBank::health`] replays the window from
//! that copy, counting ones and transitions per lane in bit-sliced
//! vertical counters. The output stream is unchanged by the layout: lane
//! `i` produces exactly the bits of a single-lane [`Lfsr`] with the same
//! seed. The tests step the bank beside such single-lane oracles, compare
//! its monitors with theirs, and pin hashes of its stream.

use crate::rng::{count_draw, SimRng};
use crate::SimError;

/// Default polynomial: x^32 + x^22 + x^2 + x + 1 (maximal length, taps as a
/// Galois feedback mask).
const POLY_32_DEFAULT: u32 = 0x8020_0003;

/// A single 32-bit Galois LFSR.
///
/// Shifts one bit per [`Lfsr::step`]; the output bit is the bit shifted out.
/// With a maximal-length polynomial the period is `2^32 - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
    poly: u32,
}

impl Lfsr {
    /// Creates an LFSR with the given non-zero seed and feedback polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `seed == 0` (the all-zero
    /// state is the one fixed point of an LFSR and must be excluded).
    pub fn new(seed: u32, poly: u32) -> Result<Self, SimError> {
        if seed == 0 {
            return Err(SimError::InvalidConfig {
                what: "lfsr seed",
                why: "seed must be non-zero (all-zero state is absorbing)".into(),
            });
        }
        Ok(Lfsr { state: seed, poly })
    }

    /// Advances one cycle and returns the output bit.
    #[inline]
    pub fn step(&mut self) -> bool {
        let out = self.state & 1 == 1;
        self.state >>= 1;
        if out {
            self.state ^= self.poly;
        }
        out
    }

    /// Current internal state (for health monitoring and tests).
    pub fn state(&self) -> u32 {
        self.state
    }
}

/// Health status reported by the bank's online monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LfsrHealth {
    /// All monitors pass.
    Ok,
    /// An LFSR output has been constant for the whole observation window
    /// (stuck-at fault — in hardware, a latch-up or routing fault).
    StuckAt {
        /// Index of the faulty LFSR within the bank.
        lane: usize,
    },
    /// The ones-density of a lane left the `[0.5 - tol, 0.5 + tol]` band.
    Imbalanced {
        /// Index of the suspicious LFSR within the bank.
        lane: usize,
        /// Observed ones-density over the window.
        density: f64,
    },
}

/// A bank of independent Galois LFSRs delivering `width` random bits per
/// cycle, with online health monitoring.
///
/// The lanes are stored bit-sliced (see the [module docs](self)): one
/// cycle of every lane is a fixed handful of word operations with no
/// branch per lane, and the health monitors cost nothing until
/// [`LfsrBank::health`] is called. The layout does not change the output
/// stream: lane `i` produces exactly the bits of a single-lane [`Lfsr`]
/// seeded with its own seed.
///
/// # Example
///
/// ```
/// use sim_core::lfsr::LfsrBank;
///
/// let mut bank = LfsrBank::new(8, 0xDEAD_BEEF).unwrap();
/// let bits = bank.next_bits(); // 8 fresh bits, one per lane
/// assert!(bits < 1 << 8);
/// let word = bank.next_word(16); // 16 bits gathered over 2 cycles
/// assert!(word < 1 << 16);
/// ```
#[derive(Debug, Clone)]
pub struct LfsrBank {
    /// The lanes' states as a ring of bit-planes: bit `i` of logical plane
    /// `j`, `planes[(observed + j) % 32]`, is bit `j` of lane `i`'s state.
    /// Built from `seed` on the first draw, so a bank that is never drawn
    /// from (a round-robin platform still builds one) skips the transpose
    /// and, seeded from a stream, draws nothing from it.
    planes: Option<[u64; STATE_BITS]>,
    /// The ring as the current window's first cycle found it (its head at
    /// index 0); [`LfsrBank::health`] replays the window from here.
    window: [u64; STATE_BITS],
    /// Cycles drawn in the current window. The window is a multiple of 32
    /// cycles long, so this is also the ring's head, mod 32.
    observed: u32,
    width: usize,
    seed: BankSeed,
}

/// Where a bank's seed comes from.
#[derive(Debug, Clone)]
enum BankSeed {
    /// A seed given at construction ([`LfsrBank::new`]).
    Value(u64),
    /// A stream whose first value seeds the bank at its first step
    /// ([`LfsrBank::from_rng`]).
    Stream(SimRng),
}

impl BankSeed {
    fn value(&mut self) -> u64 {
        match self {
            BankSeed::Value(seed) => *seed,
            BankSeed::Stream(rng) => rng.next_u64(),
        }
    }
}

/// Bits of one lane's state.
const STATE_BITS: usize = 32;

/// Planes of a vertical window counter: a count read by
/// [`LfsrBank::health`] stays below [`LfsrBank::HEALTH_WINDOW`].
const COUNT_BITS: usize = (u32::BITS - (LfsrBank::HEALTH_WINDOW - 1).leading_zeros()) as usize;

/// The planes a step XORs the output word into: the taps of
/// [`POLY_32_DEFAULT`] below its top bit. The top tap (the `x^32` term)
/// needs no work, because the ring slot the output word leaves becomes
/// the top plane and already holds that word.
const LOW_TAPS: [usize; 3] = [0, 1, 21];

const _: () = assert!(POLY_32_DEFAULT == 1 << 31 | 1 << 21 | 1 << 1 | 1 << 0);
const _: () = assert!(LfsrBank::HEALTH_WINDOW % STATE_BITS as u32 == 0);

/// The lanes' non-zero seeds, derived from `seed` by splitmix-style
/// mixing.
fn lane_seeds(width: usize, seed: u64) -> impl Iterator<Item = u32> {
    let mut s = seed;
    (0..width).map(move |_| {
        s = s
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        ((s >> 32) as u32) | 1 // force non-zero
    })
}

/// Bit-planes of up to 64 lane states: bit `i` of plane `j` is bit `j` of
/// lane `i`.
///
/// Row `k` starts as lane `k` with lane `k + 32` in its high half; a
/// 32×32 bit transpose of both halves at once (Hacker's Delight §7-3) then
/// turns the rows into planes.
fn bit_planes(lanes: impl Iterator<Item = u32>) -> [u64; STATE_BITS] {
    let mut rows = [0u64; STATE_BITS];
    for (lane, state) in lanes.enumerate() {
        rows[lane % STATE_BITS] |= u64::from(state) << (lane / STATE_BITS * STATE_BITS);
    }
    let mut span = STATE_BITS / 2;
    let mut mask = 0x0000_ffff_0000_ffff_u64;
    while span != 0 {
        // In every `2 * span` block of rows, swap the upper-right
        // `span`-square of each `2 * span` column group with its
        // lower-left one.
        for block in rows.chunks_exact_mut(2 * span) {
            let (top, bottom) = block.split_at_mut(span);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> span) ^ *b) & mask;
                *a ^= t << span;
                *b ^= t;
            }
        }
        span /= 2;
        mask ^= mask << span;
    }
    rows
}

/// Advances every lane of a plane ring whose head is at `head` (mod 32)
/// one cycle and returns the output word. Each lane outputs its state's
/// bit 0 and shifts right, so logical plane `j + 1` becomes plane `j`;
/// then the lanes that output a 1 take the polynomial.
#[inline]
fn step(planes: &mut [u64; STATE_BITS], head: u32) -> u64 {
    let head = head as usize % STATE_BITS;
    let word = planes[head];
    for tap in LOW_TAPS {
        planes[(head + 1 + tap) % STATE_BITS] ^= word;
    }
    word
}

/// Adds one bit per lane to a vertical counter.
fn count(counter: &mut [u64; COUNT_BITS], mut carry: u64) {
    for plane in counter {
        if carry == 0 {
            break;
        }
        let next = *plane & carry;
        *plane ^= carry;
        carry = next;
    }
}

/// Lane `lane`'s value of a vertical counter.
fn lane_count(counter: &[u64; COUNT_BITS], lane: usize) -> u32 {
    counter
        .iter()
        .enumerate()
        .map(|(k, plane)| ((plane >> lane & 1) as u32) << k)
        .sum()
}

impl LfsrBank {
    /// Observation window (cycles) for the health monitors.
    const HEALTH_WINDOW: u32 = 4096;

    /// Creates a bank of `width` lanes seeded (non-zero, distinct) from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `width == 0` or
    /// `width > 64`.
    pub fn new(width: usize, seed: u64) -> Result<Self, SimError> {
        Self::with_seed(width, BankSeed::Value(seed))
    }

    /// Creates a bank of `width` lanes seeded by the first value of `rng`,
    /// drawn at the bank's first step: the bank of [`LfsrBank::new`] with
    /// that value as its seed, but one that is never stepped draws
    /// nothing (see [`rng::draws`](crate::rng::draws)).
    ///
    /// # Errors
    ///
    /// As [`LfsrBank::new`].
    pub fn from_rng(width: usize, rng: SimRng) -> Result<Self, SimError> {
        Self::with_seed(width, BankSeed::Stream(rng))
    }

    fn with_seed(width: usize, seed: BankSeed) -> Result<Self, SimError> {
        if width == 0 || width > 64 {
            return Err(SimError::InvalidConfig {
                what: "lfsr bank width",
                why: format!("width must be in 1..=64, got {width}"),
            });
        }
        Ok(LfsrBank {
            planes: None,
            window: [0; STATE_BITS],
            observed: 0,
            width,
            seed,
        })
    }

    /// Number of lanes (= bits delivered per cycle).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The lanes' bit-planes, built on first use.
    fn planes(&mut self) -> &mut [u64; STATE_BITS] {
        let (width, seed) = (self.width, &mut self.seed);
        self.planes
            .get_or_insert_with(|| bit_planes(lane_seeds(width, seed.value())))
    }

    /// Advances every lane one cycle and returns the fresh bits packed into
    /// the low `width` bits of a `u64` (lane 0 is bit 0). Counts as a draw.
    pub fn next_bits(&mut self) -> u64 {
        count_draw();
        let observed = self.observed;
        if observed == 0 {
            // A health window starts: keep its first state for `health`.
            self.window = *self.planes();
        }
        let word = step(self.planes(), observed);
        self.observed = (observed + 1) % Self::HEALTH_WINDOW;
        word
    }

    /// Gathers `bits` random bits (over as many cycles as needed) into one
    /// word, most-recent cycle in the high bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 64`.
    pub fn next_word(&mut self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        let w = self.width() as u32;
        let mut acc = 0u64;
        let mut got = 0u32;
        while got < bits {
            let take = (bits - got).min(w);
            acc |= (self.next_bits() & (u64::MAX >> (64 - take))) << got;
            got += take;
        }
        acc
    }

    /// Uniform draw in `0..n` by rejection sampling on [`LfsrBank::next_word`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        if n == 1 {
            return 0;
        }
        let bits = 64 - (n - 1).leading_zeros();
        loop {
            let draw = self.next_word(bits);
            if draw < n {
                return draw;
            }
        }
    }

    /// Per-lane ones and transition counts over the bits drawn in the
    /// current window so far, replayed from the window's first state, as
    /// vertical counters: bit `i` of `ones[k]` is bit `k` of lane `i`'s
    /// count. The window's first cycle counts no transition.
    fn monitors(&self) -> ([u64; COUNT_BITS], [u64; COUNT_BITS]) {
        let mut planes = self.window;
        let mut ones = [0; COUNT_BITS];
        let mut transitions = [0; COUNT_BITS];
        let mut last = None;
        for cycle in 0..self.observed {
            let word = step(&mut planes, cycle);
            count(&mut ones, word);
            if let Some(last) = last {
                count(&mut transitions, word ^ last);
            }
            last = Some(word);
        }
        (ones, transitions)
    }

    /// Evaluates the health monitors over the bits drawn in the current
    /// window so far.
    ///
    /// Following the safety-PRNG design of the paper's reference \[3\], two
    /// checks judge every window: a stuck-at detector (no transitions in
    /// the window once enough bits were observed) and a ones-density
    /// monitor. Draws do not count; this call replays the window, which
    /// costs up to one window (4,096 bank cycles).
    ///
    /// The replay starts from the window's first state and assumes the
    /// lanes changed only by stepping since: a lane state altered any
    /// other way mid-window (the tests' fault injection) is judged from
    /// the next window on, whose first state holds it.
    pub fn health(&self) -> LfsrHealth {
        // Need a minimum of observations before judging.
        if self.observed < 256 {
            return LfsrHealth::Ok;
        }
        let (ones, transitions) = self.monitors();
        for lane in 0..self.width {
            if lane_count(&transitions, lane) == 0 {
                return LfsrHealth::StuckAt { lane };
            }
            let density = lane_count(&ones, lane) as f64 / self.observed as f64;
            if !(0.40..=0.60).contains(&density) {
                return LfsrHealth::Imbalanced { lane, density };
            }
        }
        LfsrHealth::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::fnv1a_64;

    impl LfsrBank {
        /// Per-lane `(ones, transitions)` of the current window.
        fn window_counts(&self) -> Vec<(u32, u32)> {
            let (ones, transitions) = self.monitors();
            (0..self.width)
                .map(|lane| (lane_count(&ones, lane), lane_count(&transitions, lane)))
                .collect()
        }

        /// Fault injection: zeroes `lane`'s state, the absorbing state whose
        /// output stays 0.
        fn zero_lane(&mut self, lane: usize) {
            for plane in self.planes() {
                *plane &= !(1 << lane);
            }
        }
    }

    /// The bank as `width` single-lane [`Lfsr`]s with per-lane monitor
    /// counters.
    struct Oracle {
        lanes: Vec<Lfsr>,
        ones: Vec<u32>,
        transitions: Vec<u32>,
        last: Vec<bool>,
        observed: u32,
    }

    impl Oracle {
        fn new(width: usize, seed: u64) -> Self {
            Oracle {
                lanes: lane_seeds(width, seed)
                    .map(|s| Lfsr::new(s, POLY_32_DEFAULT).unwrap())
                    .collect(),
                ones: vec![0; width],
                transitions: vec![0; width],
                last: vec![false; width],
                observed: 0,
            }
        }

        fn next_bits(&mut self) -> u64 {
            let mut word = 0;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let bit = lane.step();
                word |= u64::from(bit) << i;
                self.ones[i] += u32::from(bit);
                if self.observed > 0 && bit != self.last[i] {
                    self.transitions[i] += 1;
                }
                self.last[i] = bit;
            }
            self.observed += 1;
            if self.observed == LfsrBank::HEALTH_WINDOW {
                self.observed = 0;
                self.ones.fill(0);
                self.transitions.fill(0);
            }
            word
        }

        /// `bits` bits taken one at a time, lane by lane, cycle by cycle.
        fn next_word(&mut self, bits: u32) -> u64 {
            let (mut word, mut got) = (0, 0);
            while got < bits {
                let fresh = self.next_bits();
                for lane in 0..self.lanes.len() {
                    if got < bits {
                        word |= (fresh >> lane & 1) << got;
                        got += 1;
                    }
                }
            }
            word
        }

        fn next_below(&mut self, n: u64) -> u64 {
            if n == 1 {
                return 0;
            }
            let bits = 64 - (n - 1).leading_zeros();
            loop {
                let draw = self.next_word(bits);
                if draw < n {
                    return draw;
                }
            }
        }

        fn window_counts(&self) -> Vec<(u32, u32)> {
            self.ones
                .iter()
                .copied()
                .zip(self.transitions.iter().copied())
                .collect()
        }

        /// The bank's health rule on the per-lane counters.
        fn health(&self) -> LfsrHealth {
            if self.observed < 256 {
                return LfsrHealth::Ok;
            }
            for (lane, (ones, transitions)) in self.window_counts().into_iter().enumerate() {
                if transitions == 0 {
                    return LfsrHealth::StuckAt { lane };
                }
                let density = ones as f64 / self.observed as f64;
                if !(0.40..=0.60).contains(&density) {
                    return LfsrHealth::Imbalanced { lane, density };
                }
            }
            LfsrHealth::Ok
        }
    }

    #[test]
    fn health_matches_the_oracle_at_every_cycle() {
        for width in [1, 16, 64] {
            let mut bank = LfsrBank::new(width, 2017).unwrap();
            let mut oracle = Oracle::new(width, 2017);
            for draw in 1..=2 * LfsrBank::HEALTH_WINDOW {
                assert_eq!(bank.next_bits(), oracle.next_bits());
                assert_eq!(
                    bank.window_counts(),
                    oracle.window_counts(),
                    "width {width} draw {draw}"
                );
                assert_eq!(bank.health(), oracle.health(), "width {width} draw {draw}");
            }
        }
    }

    #[test]
    fn bank_matches_single_lane_oracles() {
        for width in [1, 5, 16, 63, 64] {
            for seed in [0, 7, 0xDEAD_BEEF, u64::MAX] {
                let mut bank = LfsrBank::new(width, seed).unwrap();
                let mut oracle = Oracle::new(width, seed);
                for draw in 1..=2 * LfsrBank::HEALTH_WINDOW + 1 {
                    assert_eq!(
                        bank.next_bits(),
                        oracle.next_bits(),
                        "width {width} seed {seed:#x} draw {draw}"
                    );
                    // The window boundaries and the first judged cycle.
                    if [0, 1, 255, 256, LfsrBank::HEALTH_WINDOW - 1].contains(&oracle.observed) {
                        assert_eq!(bank.observed, oracle.observed);
                        assert_eq!(
                            bank.window_counts(),
                            oracle.window_counts(),
                            "width {width} seed {seed:#x} draw {draw}"
                        );
                    }
                }
                for bits in 1..=64 {
                    assert_eq!(bank.next_word(bits), oracle.next_word(bits), "{bits} bits");
                }
                for n in (1..200).chain([1 << 40 | 3, u64::MAX]) {
                    assert_eq!(bank.next_below(n), oracle.next_below(n), "below {n}");
                }
                assert_eq!(bank.observed, oracle.observed);
                assert_eq!(bank.window_counts(), oracle.window_counts());
            }
        }
    }

    #[test]
    fn a_stream_seeded_bank_draws_its_seed_at_its_first_step() {
        use crate::rng::draws;
        let stream = SimRng::seed_from(41);
        let start = draws();
        let idle = LfsrBank::from_rng(16, stream.clone()).unwrap();
        assert_eq!(idle.health(), LfsrHealth::Ok);
        assert_eq!(draws(), start, "an unstepped bank draws nothing");
        let mut lazy = LfsrBank::from_rng(16, stream.clone()).unwrap();
        let mut eager = LfsrBank::new(16, stream.clone().next_u64()).unwrap();
        let start = draws();
        for _ in 0..100 {
            assert_eq!(lazy.next_bits(), eager.next_bits());
        }
        assert_eq!(draws(), start + 1 + 2 * 100, "the seed, then one per step");
    }

    #[test]
    fn stream_is_pinned() {
        // fnv1a_64 of the first 10,000 `next_bits` words, little-endian, as
        // the per-lane implementation produced them.
        for (width, seed, hash) in [
            (16, 0xDEAD_BEEF, 0x0564_a396_052a_d54b_u64),
            (64, 0xDEAD_BEEF, 0x9600_223f_7dad_7bc3),
            (16, 2017, 0xa6c7_ae5a_eeac_e649),
            (64, 2017, 0xc8dc_c9fa_3b24_51a0),
        ] {
            let mut bank = LfsrBank::new(width, seed).unwrap();
            let bytes: Vec<u8> = (0..10_000)
                .flat_map(|_| bank.next_bits().to_le_bytes())
                .collect();
            assert_eq!(fnv1a_64(&bytes), hash, "width {width} seed {seed:#x}");
        }
    }

    #[test]
    fn health_reports_a_zeroed_lane_as_stuck() {
        for lane in [0, 9, 15] {
            let mut bank = LfsrBank::new(16, 1234).unwrap();
            bank.zero_lane(lane);
            for _ in 0..255 {
                assert_eq!(bank.next_bits() >> lane & 1, 0);
                assert_eq!(bank.health(), LfsrHealth::Ok, "too few cycles to judge");
            }
            bank.next_bits();
            assert_eq!(bank.health(), LfsrHealth::StuckAt { lane });
        }
    }

    #[test]
    fn window_reset_clears_the_monitors() {
        let window = LfsrBank::HEALTH_WINDOW;
        let mut bank = LfsrBank::new(16, 1234).unwrap();
        for draw in 1..=3 * window {
            bank.next_bits();
            if draw % 256 == 0 {
                assert_eq!(bank.health(), LfsrHealth::Ok, "healthy bank, draw {draw}");
            }
        }
        // A lane that fails late in a window is judged on the replay of
        // that window, which starts before the fault and still sees the
        // lane toggle; the next window starts from the faulted state, and
        // the fault shows.
        for _ in 0..window - 256 {
            bank.next_bits();
        }
        bank.zero_lane(3);
        for _ in 0..255 {
            bank.next_bits();
        }
        assert_eq!(bank.observed, window - 1);
        assert!(!matches!(bank.health(), LfsrHealth::StuckAt { .. }));
        for _ in 0..257 {
            bank.next_bits();
        }
        assert_eq!(bank.health(), LfsrHealth::StuckAt { lane: 3 });
    }

    #[test]
    fn lfsr_rejects_zero_seed() {
        assert!(Lfsr::new(0, POLY_32_DEFAULT).is_err());
    }

    #[test]
    fn lfsr_never_reaches_zero_state() {
        let mut l = Lfsr::new(1, POLY_32_DEFAULT).unwrap();
        for _ in 0..100_000 {
            l.step();
            assert_ne!(l.state(), 0);
        }
    }

    #[test]
    fn lfsr_period_is_not_short() {
        // A maximal 32-bit LFSR must not return to its seed within any
        // window we can afford to check.
        let seed = 0xACE1_u32;
        let mut l = Lfsr::new(seed, POLY_32_DEFAULT).unwrap();
        for i in 0..200_000u32 {
            l.step();
            assert!(!(l.state() == seed && i < 199_999), "short period at {i}");
        }
    }

    #[test]
    fn bank_width_validation() {
        assert!(LfsrBank::new(0, 1).is_err());
        assert!(LfsrBank::new(65, 1).is_err());
        assert!(LfsrBank::new(64, 1).is_ok());
    }

    #[test]
    fn bank_bits_fit_width() {
        let mut bank = LfsrBank::new(5, 42).unwrap();
        for _ in 0..1000 {
            assert!(bank.next_bits() < 32);
        }
    }

    #[test]
    fn bank_lanes_are_decorrelated() {
        let mut bank = LfsrBank::new(2, 7).unwrap();
        let mut equal = 0;
        let n = 4096;
        for _ in 0..n {
            let w = bank.next_bits();
            if (w & 1) == ((w >> 1) & 1) {
                equal += 1;
            }
        }
        let frac = equal as f64 / n as f64;
        assert!(
            (0.45..0.55).contains(&frac),
            "lanes correlated: agreement {frac}"
        );
    }

    #[test]
    fn next_word_respects_bit_count() {
        let mut bank = LfsrBank::new(4, 3).unwrap();
        for bits in 1..=64u32 {
            let w = bank.next_word(bits);
            if bits < 64 {
                assert!(w < 1u64 << bits, "word {w} too wide for {bits} bits");
            }
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut bank = LfsrBank::new(8, 11).unwrap();
        let mut seen = [false; 7];
        for _ in 0..2000 {
            let v = bank.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "coverage: {seen:?}");
    }

    #[test]
    fn health_ok_for_good_bank() {
        let mut bank = LfsrBank::new(8, 1234).unwrap();
        for _ in 0..2048 {
            bank.next_bits();
        }
        assert_eq!(bank.health(), LfsrHealth::Ok);
    }

    #[test]
    fn ones_density_is_balanced() {
        let mut bank = LfsrBank::new(1, 99).unwrap();
        let n = 32_768u32;
        let mut ones = 0u32;
        for _ in 0..n {
            ones += (bank.next_bits() & 1) as u32;
        }
        let density = ones as f64 / n as f64;
        assert!((0.48..0.52).contains(&density), "density {density}");
    }
}
