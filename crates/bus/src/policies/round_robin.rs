//! Round-robin arbitration.

use crate::pending::PendingSet;
use crate::policy::ArbitrationPolicy;
use sim_core::lfsr::LfsrBank;
use sim_core::{CoreId, Cycle};

/// Classic round-robin: after granting core `i`, the search for the next
/// winner starts at core `i + 1` (mod N), so under saturation every core is
/// granted exactly once per N grants.
///
/// Round-robin is *slot-fair*: with contenders issuing requests of unequal
/// duration it produces the bandwidth skew the paper's Section II
/// illustrates (a 5-cycle requester alternating with a 45-cycle requester
/// receives only 10% of the bus cycles).
///
/// # Example
///
/// ```
/// use cba_bus::policies::RoundRobin;
/// use cba_bus::{ArbitrationPolicy, BusRequest, PendingSet, RequestKind};
/// use sim_core::CoreId;
/// use sim_core::lfsr::LfsrBank;
///
/// let mut rr = RoundRobin::new(4);
/// let mut rng = LfsrBank::new(16, 0).unwrap();
/// let mut pending = PendingSet::new(4);
/// for core in CoreId::all(4) {
///     pending.insert(BusRequest::new(core, 5, RequestKind::Synthetic, 0)).unwrap();
/// }
/// let all = pending.mask(); // every core eligible
/// let first = rr.select(all, &pending, 0, &mut rng).unwrap();
/// rr.on_grant(first, 0);
/// let second = rr.select(all, &pending, 5, &mut rng).unwrap();
/// assert_eq!(second.index(), (first.index() + 1) % 4);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n_cores: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin arbiter for `n_cores` cores, starting its
    /// search at core 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "n_cores must be positive");
        RoundRobin { n_cores, next: 0 }
    }
}

impl ArbitrationPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn select(
        &mut self,
        eligible: u64,
        _pending: &PendingSet,
        _now: Cycle,
        _rng: &mut LfsrBank,
    ) -> Option<CoreId> {
        // The lowest eligible core at or after the cursor, wrapping around.
        let from_cursor = eligible & (u64::MAX << self.next);
        let pick = if from_cursor != 0 {
            from_cursor
        } else {
            eligible
        };
        CoreId::in_mask(pick).next()
    }

    fn on_grant(&mut self, core: CoreId, _now: Cycle) {
        self.next = (core.index() + 1) % self.n_cores;
    }

    fn limit_cycle_state(&self, state: &mut Vec<u64>) -> bool {
        state.push(self.next as u64);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testing::pending;

    fn select(rr: &mut RoundRobin, cores: &[usize], now: Cycle) -> Option<CoreId> {
        let pending = pending(cores);
        let mut rng = LfsrBank::new(16, 0).unwrap();
        rr.select(pending.mask(), &pending, now, &mut rng)
    }

    #[test]
    fn cycles_through_all_pending() {
        let mut rr = RoundRobin::new(4);
        let mut order = Vec::new();
        for t in 0..8 {
            let w = select(&mut rr, &[0, 1, 2, 3], t).unwrap();
            rr.on_grant(w, t);
            order.push(w.index());
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_cores() {
        let mut rr = RoundRobin::new(4);
        let some = [1, 3];
        let w = select(&mut rr, &some, 0).unwrap();
        assert_eq!(w.index(), 1);
        rr.on_grant(w, 0);
        let w = select(&mut rr, &some, 1).unwrap();
        assert_eq!(w.index(), 3);
        rr.on_grant(w, 1);
        // wraps around
        let w = select(&mut rr, &some, 2).unwrap();
        assert_eq!(w.index(), 1);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(select(&mut rr, &[], 0), None);
    }

    #[test]
    fn slot_counts_differ_by_at_most_one_under_saturation() {
        let mut rr = RoundRobin::new(4);
        let mut counts = [0u32; 4];
        for t in 0..1003 {
            let w = select(&mut rr, &[0, 1, 2, 3], t).unwrap();
            rr.on_grant(w, t);
            counts[w.index()] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "counts: {counts:?}");
    }
}
