//! Random-permutations arbitration — the paper's baseline policy ("RP").

use crate::pending::PendingSet;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// Random-permutations arbitration (Jalle et al., DATE 2014).
///
/// Time is organized in *rounds*. At the start of each round a fresh uniform
/// random permutation of the cores is drawn (on the FPGA, from the
/// APRANDBANK random-bit bank); within the round, the bus is offered to
/// cores in permutation order and **each core is granted at most once per
/// round**. The implementation is work-conserving: cores without a pending
/// request are skipped, and a new round starts as soon as no not-yet-served
/// core has a pending request.
///
/// The once-per-round property is what makes RP MBPTA-friendly: the
/// probability that a request waits for `k` other cores is known and
/// independent across rounds, while the worst case (being last in the
/// permutation) stays close to the average. Like all slot-fair policies it
/// is still bandwidth-unfair for heterogeneous request durations — this is
/// the policy the paper pairs CBA with.
///
/// # Example
///
/// ```
/// use cba_bus::policies::RandomPermutation;
/// use cba_bus::{ArbitrationPolicy, BusRequest, PendingSet, RequestKind};
/// use sim_core::{CoreId, rng::SimRng};
///
/// let mut rp = RandomPermutation::new(4);
/// let mut rng = SimRng::seed_from(7);
/// let mut pending = PendingSet::new(4);
/// for core in CoreId::all(4) {
///     pending.insert(BusRequest::new(core, 5, RequestKind::Synthetic, 0)).unwrap();
/// }
/// let all = pending.mask(); // every core eligible
/// // One full round grants each core exactly once.
/// let mut served = 0u64;
/// for t in 0..4 {
///     let w = rp.select(all, &pending, t, &mut rng).unwrap();
///     rp.on_grant(w, t);
///     assert_eq!(served & w.bit(), 0, "core granted twice in a round");
///     served |= w.bit();
/// }
/// assert_eq!(served, all);
/// ```
#[derive(Debug, Clone)]
pub struct RandomPermutation {
    n_cores: usize,
    /// Current round's permutation (core indices).
    order: Vec<usize>,
    /// Cores already granted in this round, as a core mask.
    served: u64,
    /// Whether a round is in progress.
    round_active: bool,
}

impl RandomPermutation {
    /// Creates a random-permutations arbiter for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "n_cores must be positive");
        RandomPermutation {
            n_cores,
            order: (0..n_cores).collect(),
            served: 0,
            round_active: false,
        }
    }

    /// Draws a fresh permutation with Fisher–Yates using the arbiter's
    /// random source (bit-bank or software RNG).
    fn new_round(&mut self, rng: &mut dyn RandomSource) {
        for i in 0..self.n_cores {
            self.order[i] = i;
        }
        for i in (1..self.n_cores).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            self.order.swap(i, j);
        }
        self.served = 0;
        self.round_active = true;
    }

    /// The first not-yet-served core of `eligible` in permutation order.
    fn pick(&self, eligible: u64) -> Option<CoreId> {
        let open = eligible & !self.served;
        let first = self.order.iter().find(|&&idx| open >> idx & 1 != 0)?;
        Some(CoreId::from_index(*first))
    }
}

impl ArbitrationPolicy for RandomPermutation {
    fn name(&self) -> &'static str {
        "RP"
    }

    fn select(
        &mut self,
        eligible: u64,
        _pending: &PendingSet,
        _now: Cycle,
        rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        if eligible == 0 {
            return None;
        }
        if self.round_active {
            if let Some(core) = self.pick(eligible) {
                return Some(core);
            }
            // All eligible cores were already served this round: start the
            // next round (work conservation).
        }
        self.new_round(rng);
        self.pick(eligible)
    }

    fn on_grant(&mut self, core: CoreId, _now: Cycle) {
        self.served |= core.bit();
        if self.served == CoreId::all_mask(self.n_cores) {
            self.round_active = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testing::pending;
    use sim_core::lfsr::LfsrBank;
    use sim_core::rng::SimRng;

    fn select(
        rp: &mut RandomPermutation,
        cores: &[usize],
        now: Cycle,
        rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        let pending = pending(cores);
        rp.select(pending.mask(), &pending, now, rng)
    }

    #[test]
    fn each_round_grants_each_core_once() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(11);
        for round in 0..50 {
            let mut seen = [false; 4];
            for k in 0..4 {
                let w = select(&mut rp, &[0, 1, 2, 3], (round * 4 + k) as Cycle, &mut rng).unwrap();
                rp.on_grant(w, 0);
                assert!(!seen[w.index()], "double grant in round {round}");
                seen[w.index()] = true;
            }
        }
    }

    #[test]
    fn permutations_vary_across_rounds() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(13);
        let mut first_winners = Vec::new();
        for _ in 0..64 {
            let mut round = Vec::new();
            for _ in 0..4 {
                let w = select(&mut rp, &[0, 1, 2, 3], 0, &mut rng).unwrap();
                rp.on_grant(w, 0);
                round.push(w.index());
            }
            first_winners.push(round[0]);
        }
        // Every core should lead some round.
        for i in 0..4 {
            assert!(first_winners.contains(&i), "core {i} never first");
        }
    }

    #[test]
    fn work_conserving_when_only_served_cores_pend() {
        let mut rp = RandomPermutation::new(2);
        let mut rng = SimRng::seed_from(5);
        // Core 0 is served, then immediately pends again; a new round must
        // start rather than leaving the bus idle.
        for t in 0..10 {
            let w = select(&mut rp, &[0], t, &mut rng).unwrap();
            assert_eq!(w.index(), 0);
            rp.on_grant(w, t);
        }
    }

    #[test]
    fn skips_idle_cores_within_round() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(17);
        let w1 = select(&mut rp, &[1, 2], 0, &mut rng).unwrap();
        rp.on_grant(w1, 0);
        let w2 = select(&mut rp, &[1, 2], 1, &mut rng).unwrap();
        assert_ne!(w1, w2);
        assert!(matches!(w2.index(), 1 | 2));
    }

    #[test]
    fn uniform_slot_shares_under_saturation() {
        let mut rp = RandomPermutation::new(4);
        let mut rng = SimRng::seed_from(23);
        let mut counts = [0u32; 4];
        for t in 0..4000 {
            let w = select(&mut rp, &[0, 1, 2, 3], t, &mut rng).unwrap();
            rp.on_grant(w, t);
            counts[w.index()] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 4000);
        for &c in &counts {
            assert_eq!(c, 1000, "rounds guarantee exact slot fairness: {counts:?}");
        }
    }

    #[test]
    fn works_with_hardware_bit_bank() {
        let mut rp = RandomPermutation::new(4);
        let mut bank = LfsrBank::new(8, 0xBEEF).unwrap();
        let mut counts = [0u32; 4];
        for t in 0..400 {
            let w = select(&mut rp, &[0, 1, 2, 3], t, &mut bank).unwrap();
            rp.on_grant(w, t);
            counts[w.index()] += 1;
        }
        assert_eq!(counts, [100, 100, 100, 100]);
    }
}
