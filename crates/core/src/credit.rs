//! The per-core credit counter (Equation 1, fraction-free form).
//!
//! One [`CreditCounter`] is the software model of one hardware `BUDGi`
//! register from the paper's Table I: a saturating counter of
//! [`CreditConfig::counter_bits`](crate::CreditConfig::counter_bits) bits
//! that gains `num_i` units every cycle and loses `den` units per cycle
//! while its core holds the bus.

use std::fmt;

/// A scaled-integer budget counter.
///
/// Invariants (maintained by construction and checked by property tests):
///
/// * `value` never exceeds `cap`;
/// * `value` never wraps below zero (drain saturates at 0 — with the
///   eligibility rule "arbitrable only at `>= threshold`" and transaction
///   durations `<= MaxL` the saturation is never exercised, but the counter
///   is safe on its own);
/// * with `num < den`, a saturating user drains net `den - num` per
///   holding cycle and recovers `num` per idle cycle.
///
/// # Example
///
/// ```
/// use cba::CreditCounter;
///
/// // Core 0 of the paper's 4-core platform: num=1, den=4, cap=224.
/// let mut budg = CreditCounter::new(1, 4, 224, 224);
/// assert!(budg.is_at_least(224));
/// budg.tick(true); // holding the bus: +1 then -4
/// assert_eq!(budg.value(), 221);
/// for _ in 0..2 { budg.tick(false); }
/// assert_eq!(budg.value(), 223);
/// budg.tick(false);
/// assert_eq!(budg.value(), 224); // saturated again
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditCounter {
    value: u64,
    num: u64,
    den: u64,
    cap: u64,
}

impl CreditCounter {
    /// Creates a counter with recovery `num` units/cycle, drain `den`
    /// units/cycle-of-use, saturation `cap`, starting at `initial`
    /// (clamped to `cap`).
    ///
    /// # Panics
    ///
    /// Panics if `num == 0`, `den == 0`, `num > den` or `cap == 0` — such a
    /// counter would be meaningless (see
    /// [`CreditConfig`](crate::CreditConfig) for the validated public
    /// construction path).
    pub fn new(num: u32, den: u32, cap: u64, initial: u64) -> Self {
        assert!(num > 0 && den > 0, "num and den must be positive");
        assert!(
            num as u64 <= den as u64,
            "recovery cannot exceed drain rate"
        );
        assert!(cap > 0, "cap must be positive");
        CreditCounter {
            value: initial.min(cap),
            num: num as u64,
            den: den as u64,
            cap,
        }
    }

    /// Current scaled budget value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Whether the budget has reached `threshold` (the eligibility test;
    /// `threshold` is `den * MaxL`).
    #[inline]
    pub fn is_at_least(&self, threshold: u64) -> bool {
        self.value >= threshold
    }

    /// Advances one cycle: recover `num` and, if `using_bus`, drain `den`
    /// (net `num - den` per holding cycle); the cap applies to
    /// accumulation, the floor saturates at 0.
    ///
    /// Both Table I updates apply on a cycle where the core holds the bus
    /// (`+1` and `-4` for the paper's homogeneous 4-core case). Since
    /// `num <= den`, a holding cycle never increases the budget, so the
    /// accumulation cap only needs checking on idle cycles — this is also
    /// what keeps Equation 1's intent exact at the saturation boundary
    /// (a literal `min` *before* the drain would silently eat the recovery
    /// increment on the first holding cycle).
    #[inline]
    pub fn tick(&mut self, using_bus: bool) {
        if using_bus {
            self.value = (self.value + self.num).saturating_sub(self.den);
        } else {
            self.value = (self.value + self.num).min(self.cap);
        }
    }

    /// Advances `k` idle cycles at once: exactly `k` successive
    /// [`tick`](CreditCounter::tick)`(false)` calls in O(1).
    ///
    /// Recovery is monotone and the cap applies per step, so the closed
    /// form is a single saturating add-and-clamp.
    #[inline]
    pub fn advance_idle(&mut self, k: u64) {
        self.value = self
            .value
            .saturating_add(self.num.saturating_mul(k))
            .min(self.cap);
    }

    /// Advances `k` bus-holding cycles at once: exactly `k` successive
    /// [`tick`](CreditCounter::tick)`(true)` calls in O(1).
    ///
    /// Each holding step nets `-(den - num)` until the value drops below
    /// `den - num`, after which one more step saturates it to 0 where it
    /// stays — which is a single saturating subtraction of `k * (den -
    /// num)` (the cap never engages because `num <= den`).
    #[inline]
    pub fn advance_holding(&mut self, k: u64) {
        self.value = self
            .value
            .saturating_sub((self.den - self.num).saturating_mul(k));
    }

    /// Cycles until the budget reaches `threshold` with no bus use
    /// (`None` if already there).
    pub fn cycles_to_reach(&self, threshold: u64) -> Option<u64> {
        if self.value >= threshold {
            None
        } else {
            let deficit = threshold.min(self.cap) - self.value;
            Some(deficit.div_ceil(self.num))
        }
    }
}

impl fmt::Display for CreditCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} (+{}/-{})",
            self.value, self.cap, self.num, self.den
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    #[test]
    fn paper_table_i_arithmetic() {
        // 4-core homogeneous: +1 every cycle, -4 while using, cap 224.
        let mut b = CreditCounter::new(1, 4, 224, 224);
        b.tick(true);
        assert_eq!(b.value(), 221, "net -3 per holding cycle");
        for _ in 0..56 - 1 {
            b.tick(true);
        }
        assert_eq!(b.value(), 224 - 3 * 56, "a MaxL transaction drains 168");
        // Recovery to full takes (N-1)*L = 168 cycles.
        let mut cycles = 0;
        while !b.is_at_least(224) {
            b.tick(false);
            cycles += 1;
        }
        assert_eq!(cycles, 168);
    }

    #[test]
    fn saturates_at_cap() {
        let mut b = CreditCounter::new(1, 4, 224, 224);
        for _ in 0..1000 {
            b.tick(false);
        }
        assert_eq!(b.value(), 224);
    }

    #[test]
    fn zero_start_fills_in_n_times_maxl() {
        // WCET mode: the TuA starts at zero; with num=1 the fill time is
        // den*MaxL = 224 cycles on the paper's platform.
        let mut b = CreditCounter::new(1, 4, 224, 0);
        assert_eq!(b.cycles_to_reach(224), Some(224));
        let mut cycles = 0;
        while !b.is_at_least(224) {
            b.tick(false);
            cycles += 1;
        }
        assert_eq!(cycles, 224);
    }

    #[test]
    fn drain_saturates_at_zero() {
        let mut b = CreditCounter::new(1, 4, 224, 2);
        b.tick(true);
        assert_eq!(b.value(), 0);
        b.tick(true);
        assert_eq!(b.value(), 0, "no wrap-around");
    }

    #[test]
    fn cycles_to_reach_none_when_there() {
        let b = CreditCounter::new(1, 4, 224, 224);
        assert_eq!(b.cycles_to_reach(224), None);
        let b = CreditCounter::new(3, 6, 336, 100);
        assert_eq!(b.cycles_to_reach(336), Some((336u64 - 100).div_ceil(3)));
    }

    #[test]
    fn initial_clamped_to_cap() {
        let b = CreditCounter::new(1, 4, 224, 9999);
        assert_eq!(b.value(), 224);
    }

    #[test]
    #[should_panic(expected = "recovery cannot exceed drain")]
    fn rejects_num_above_den() {
        let _ = CreditCounter::new(5, 4, 224, 0);
    }

    #[test]
    fn hcba_weighted_counter() {
        // TuA with num=3, den=6, cap=336: net -3/holding cycle, +3/idle.
        let mut b = CreditCounter::new(3, 6, 336, 336);
        for _ in 0..56 {
            b.tick(true);
        }
        assert_eq!(b.value(), 336 - 3 * 56);
        let mut cycles = 0;
        while !b.is_at_least(336) {
            b.tick(false);
            cycles += 1;
        }
        assert_eq!(cycles, 56, "50% bandwidth: recovery equals use");
    }

    #[test]
    fn display_is_informative() {
        let b = CreditCounter::new(1, 4, 224, 100);
        assert_eq!(b.to_string(), "100/224 (+1/-4)");
    }

    // The following properties are exercised over deterministic families of
    // random inputs (seed-driven, in place of proptest, which is not
    // available offline); every case is reproducible from its seed.

    /// Budget never leaves [0, cap] under arbitrary use patterns.
    #[test]
    fn budget_stays_in_range() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(seed);
            let num = rng.gen_range_u64(1..8) as u32;
            let den = num + rng.gen_range_u64(0..8) as u32;
            let maxl = rng.gen_range_u64(1..100) as u32;
            let initial = rng.gen_range_u64(0..100_000);
            let cap = den as u64 * maxl as u64;
            let mut b = CreditCounter::new(num, den, cap, initial);
            for _ in 0..rng.gen_range_usize(0..2000) {
                b.tick(rng.gen_bool(0.5));
                assert!(b.value() <= cap, "seed {seed}: {b}");
            }
        }
    }

    /// The credit conservation law: granted only when >= threshold and
    /// holding <= MaxL cycles, the counter never actually hits the
    /// zero-saturation guard.
    #[test]
    fn eligible_grants_never_underflow() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(seed ^ 0xfeed);
            let num = rng.gen_range_u64(1..4) as u32;
            let den = num + rng.gen_range_u64(1..8) as u32;
            let maxl = rng.gen_range_u64(1..100) as u32;
            let threshold = den as u64 * maxl as u64;
            let mut b = CreditCounter::new(num, den, threshold, threshold);
            let mut hold = 0u32;
            for _ in 0..5000 {
                if hold > 0 {
                    // Mid-transaction: drain must never need the saturation.
                    let before = b.value();
                    b.tick(true);
                    assert!(
                        before + num as u64 >= den as u64,
                        "seed {seed}: drain would underflow: value {before}"
                    );
                    hold -= 1;
                } else if b.is_at_least(threshold) && rng.gen_bool(1.0 / 3.0) {
                    hold = rng.gen_range_u64(1..maxl as u64 + 1) as u32;
                    b.tick(true);
                    hold -= 1;
                } else {
                    b.tick(false);
                }
            }
        }
    }

    /// The O(1) bulk advances are exactly iterated ticks, across random
    /// parameters, starting values and advance lengths (including the
    /// 0-saturation and cap boundaries).
    #[test]
    fn bulk_advance_matches_iterated_ticks() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(seed ^ 0xb01d);
            let num = rng.gen_range_u64(1..6) as u32;
            let den = num + rng.gen_range_u64(0..8) as u32;
            let cap = rng.gen_range_u64(1..2000);
            let initial = rng.gen_range_u64(0..cap + 1);
            let mut bulk = CreditCounter::new(num, den, cap, initial);
            let mut steps = CreditCounter::new(num, den, cap, initial);
            for _ in 0..16 {
                let k = rng.gen_range_u64(0..200);
                let holding = rng.gen_bool(0.5);
                if holding {
                    bulk.advance_holding(k);
                } else {
                    bulk.advance_idle(k);
                }
                for _ in 0..k {
                    steps.tick(holding);
                }
                assert_eq!(
                    bulk.value(),
                    steps.value(),
                    "seed {seed}: k={k} holding={holding} num={num} den={den} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn bulk_advance_zero_cycles_is_a_no_op() {
        let mut b = CreditCounter::new(1, 4, 224, 100);
        b.advance_idle(0);
        b.advance_holding(0);
        assert_eq!(b.value(), 100);
    }

    /// Long-run duty cycle of a saturating user is num/den.
    #[test]
    fn steady_state_duty_cycle() {
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from(seed ^ 0xd00f);
            let num = rng.gen_range_u64(1..4) as u32;
            let den = num + rng.gen_range_u64(1..6) as u32;
            let maxl = rng.gen_range_u64(4..60) as u32;
            let threshold = den as u64 * maxl as u64;
            let mut b = CreditCounter::new(num, den, threshold, threshold);
            let mut use_cycles = 0u64;
            let mut hold = 0u32;
            let total = 200_000u64;
            for _ in 0..total {
                if hold == 0 && b.is_at_least(threshold) {
                    hold = maxl; // greedy: start a MaxL transaction asap
                }
                let using = hold > 0;
                if using {
                    use_cycles += 1;
                    hold -= 1;
                }
                b.tick(using);
            }
            let duty = use_cycles as f64 / total as f64;
            // Upper bound: a core can never exceed its num/den bandwidth
            // fraction. The exact steady-state duty accounts for the cap
            // quantization: recovery of the (den-num)*L deficit at num
            // units/cycle takes ceil((den-num)*L / num) cycles.
            let l = maxl as u64;
            let recovery = ((den - num) as u64 * l).div_ceil(num as u64);
            let exact = l as f64 / (l + recovery) as f64;
            let upper = num as f64 / den as f64;
            assert!(
                duty <= upper + 0.01,
                "seed {seed}: duty {duty} exceeds bandwidth fraction {upper}"
            );
            assert!(
                (duty - exact).abs() < 0.02,
                "seed {seed}: duty {duty} vs exact {exact} (num={num}, den={den}, maxl={maxl})"
            );
        }
    }
}
