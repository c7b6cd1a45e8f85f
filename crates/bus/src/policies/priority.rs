//! Fixed-priority arbitration — the anti-example.

use crate::pending::PendingSet;
use crate::policy::{ArbitrationPolicy, RandomSource};
use sim_core::{CoreId, Cycle};

/// Fixed-priority arbitration: the candidate with the lowest core index
/// always wins.
///
/// The paper's Section II rules this out for platforms where *all* cores run
/// real-time tasks: a high-priority core issuing requests back-to-back
/// starves everyone below it, so no WCET bound exists for low-priority
/// cores. It is included as a baseline to demonstrate exactly that (see the
/// starvation test below and the fairness sweep bench).
#[derive(Debug, Clone, Default)]
pub struct FixedPriority;

impl FixedPriority {
    /// Creates the fixed-priority arbiter (priority = core index order).
    pub fn new() -> Self {
        FixedPriority
    }
}

impl ArbitrationPolicy for FixedPriority {
    fn name(&self) -> &'static str {
        "PRI"
    }

    fn select(
        &mut self,
        eligible: u64,
        _pending: &PendingSet,
        _now: Cycle,
        _rng: &mut dyn RandomSource,
    ) -> Option<CoreId> {
        CoreId::in_mask(eligible).next()
    }

    fn limit_cycle_state(&self, _state: &mut Vec<u64>) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testing::pending;
    use sim_core::rng::SimRng;

    fn select(p: &mut FixedPriority, cores: &[usize], now: Cycle) -> Option<CoreId> {
        let pending = pending(cores);
        let mut rng = SimRng::seed_from(0);
        p.select(pending.mask(), &pending, now, &mut rng)
    }

    #[test]
    fn lowest_index_always_wins() {
        let mut p = FixedPriority::new();
        assert_eq!(select(&mut p, &[1, 2, 3], 0).unwrap().index(), 1);
        assert_eq!(select(&mut p, &[0, 3], 0).unwrap().index(), 0);
    }

    #[test]
    fn starves_lower_priorities_under_saturation() {
        // With core 0 always pending, no other core is ever granted: the
        // property that disqualifies fixed priority for real-time buses.
        let mut p = FixedPriority::new();
        for t in 0..1000 {
            assert_eq!(select(&mut p, &[0, 1, 2, 3], t).unwrap().index(), 0);
        }
    }

    #[test]
    fn empty_yields_none() {
        let mut p = FixedPriority::new();
        assert_eq!(select(&mut p, &[], 0), None);
    }
}
