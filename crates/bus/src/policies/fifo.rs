//! FIFO (arrival-order) arbitration.

use crate::pending::PendingSet;
use crate::policy::ArbitrationPolicy;
use crate::BusRequest;
use sim_core::lfsr::LfsrBank;
use sim_core::{CoreId, Cycle};

/// First-in-first-out arbitration: the pending request that became ready
/// earliest wins; ties (same issue cycle) break by core index, which makes
/// the policy fully deterministic.
///
/// FIFO is slot-fair under saturation (every waiting core is served before
/// any core is served twice) but, like round-robin, it is oblivious to
/// request *duration* and therefore bandwidth-unfair in the paper's sense.
#[derive(Debug, Clone, Default)]
pub struct Fifo;

impl Fifo {
    /// Creates the FIFO arbiter.
    pub(crate) fn new() -> Self {
        Fifo
    }
}

impl ArbitrationPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn select(
        &mut self,
        eligible: u64,
        pending: &PendingSet,
        _now: Cycle,
        _rng: &mut LfsrBank,
    ) -> Option<CoreId> {
        // The pending set iterates in core order and `min_by_key` keeps the
        // first of equal keys, so ties break by core index.
        pending
            .iter()
            .filter(|req| eligible & req.core().bit() != 0)
            .min_by_key(|req| req.issued_at())
            .map(BusRequest::core)
    }

    fn limit_cycle_state(&self, _state: &mut Vec<u64>) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testing::pending_at;

    fn select(f: &mut Fifo, requests: &[(usize, Cycle)], now: Cycle) -> Option<CoreId> {
        let pending = pending_at(requests);
        let mut rng = LfsrBank::new(16, 0).unwrap();
        f.select(pending.mask(), &pending, now, &mut rng)
    }

    #[test]
    fn grants_oldest_request() {
        let mut f = Fifo::new();
        let requests = [(0, 30), (1, 10), (2, 20)];
        assert_eq!(select(&mut f, &requests, 40).unwrap().index(), 1);
    }

    #[test]
    fn ties_break_by_core_index() {
        let mut f = Fifo::new();
        assert_eq!(select(&mut f, &[(2, 10), (3, 10)], 40).unwrap().index(), 2);
    }

    #[test]
    fn empty_yields_none() {
        let mut f = Fifo::new();
        assert_eq!(select(&mut f, &[], 0), None);
    }

    #[test]
    fn serves_every_waiter_before_repeats() {
        // With all cores re-posting immediately, FIFO serves them in a
        // rotating order: each service makes that core's next request the
        // youngest.
        let mut f = Fifo::new();
        let mut issued = [0u64, 0, 0, 0];
        let mut order = Vec::new();
        let mut now = 0u64;
        for _ in 0..12 {
            let requests: Vec<(usize, Cycle)> = (0..4).map(|i| (i, issued[i])).collect();
            let w = select(&mut f, &requests, now).unwrap();
            order.push(w.index());
            now += 5;
            issued[w.index()] = now;
        }
        for window in order.chunks(4) {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "order: {order:?}");
        }
    }
}
