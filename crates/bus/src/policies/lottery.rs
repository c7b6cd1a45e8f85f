//! Lottery arbitration (LOTTERYBUS-style).

use crate::pending::PendingSet;
use crate::policy::ArbitrationPolicy;
use sim_core::lfsr::LfsrBank;
use sim_core::{CoreId, Cycle};

/// Lottery arbitration: each arbitration, every candidate holds a number of
/// tickets and a uniformly random ticket picks the winner.
///
/// With equal tickets this is a memoryless uniform draw; with weighted
/// tickets bandwidth can be skewed toward specific cores (the LOTTERYBUS
/// design of Lahiri et al., DAC 2001, which the paper cites as an
/// MBPTA-compatible baseline). Note the skew controls *slot* probability,
/// not *cycle* share — that distinction is the paper's point.
///
/// # Example
///
/// ```
/// use cba_bus::policies::Lottery;
/// use cba_bus::ArbitrationPolicy;
///
/// let uniform = Lottery::uniform();
/// assert_eq!(uniform.name(), "LOT");
/// let weighted = Lottery::with_tickets(vec![3, 1, 1, 1]).unwrap();
/// assert_eq!(weighted.tickets(0), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Lottery {
    tickets: Option<Vec<u32>>,
}

impl Lottery {
    /// A lottery where every candidate holds exactly one ticket.
    pub fn uniform() -> Self {
        Lottery { tickets: None }
    }

    /// A lottery with per-core ticket counts (index = core index).
    ///
    /// # Errors
    ///
    /// Returns an error message if `tickets` is empty or any count is zero
    /// (a zero-ticket core could never be granted — that is starvation by
    /// configuration and almost certainly a bug).
    pub fn with_tickets(tickets: Vec<u32>) -> Result<Self, String> {
        if tickets.is_empty() {
            return Err("ticket vector must not be empty".into());
        }
        if tickets.contains(&0) {
            return Err("every core must hold at least one ticket".into());
        }
        Ok(Lottery {
            tickets: Some(tickets),
        })
    }

    /// Ticket count of `core` (1 for uniform lotteries).
    pub fn tickets(&self, core: usize) -> u32 {
        match &self.tickets {
            None => 1,
            Some(t) => t.get(core).copied().unwrap_or(1),
        }
    }
}

impl ArbitrationPolicy for Lottery {
    fn name(&self) -> &'static str {
        "LOT"
    }

    fn select(
        &mut self,
        eligible: u64,
        _pending: &PendingSet,
        _now: Cycle,
        rng: &mut LfsrBank,
    ) -> Option<CoreId> {
        if eligible == 0 {
            return None;
        }
        let tickets = |core: CoreId| u64::from(self.tickets(core.index()));
        let total: u64 = CoreId::in_mask(eligible).map(tickets).sum();
        let mut draw = rng.next_below(total);
        for core in CoreId::in_mask(eligible) {
            let t = tickets(core);
            if draw < t {
                return Some(core);
            }
            draw -= t;
        }
        unreachable!("draw below total tickets always lands on a candidate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testing::pending;

    #[test]
    fn uniform_covers_all_candidates() {
        let mut l = Lottery::uniform();
        let mut rng = LfsrBank::new(16, 1).unwrap();
        let all = pending(&[0, 1, 2, 3]);
        let mut counts = [0u32; 4];
        for t in 0..4000 {
            let w = l.select(all.mask(), &all, t, &mut rng).unwrap();
            counts[w.index()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn weighted_skews_slot_probability() {
        let mut l = Lottery::with_tickets(vec![3, 1]).unwrap();
        let mut rng = LfsrBank::new(16, 2).unwrap();
        let all = pending(&[0, 1]);
        let mut wins0 = 0u32;
        let n = 8000;
        for t in 0..n {
            if l.select(all.mask(), &all, t, &mut rng).unwrap().index() == 0 {
                wins0 += 1;
            }
        }
        let frac = wins0 as f64 / n as f64;
        assert!((0.70..0.80).contains(&frac), "expected ~0.75, got {frac}");
    }

    #[test]
    fn zero_tickets_rejected() {
        assert!(Lottery::with_tickets(vec![1, 0]).is_err());
        assert!(Lottery::with_tickets(vec![]).is_err());
    }

    #[test]
    fn empty_candidates_none() {
        let mut l = Lottery::uniform();
        let mut rng = LfsrBank::new(16, 3).unwrap();
        let none = pending(&[]);
        assert_eq!(l.select(0, &none, 0, &mut rng), None);
    }

    #[test]
    fn single_candidate_always_wins() {
        let mut l = Lottery::uniform();
        let mut rng = LfsrBank::new(16, 4).unwrap();
        let one = pending(&[2]);
        for t in 0..100 {
            assert_eq!(l.select(one.mask(), &one, t, &mut rng).unwrap().index(), 2);
        }
    }
}
