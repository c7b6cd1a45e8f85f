//! The set of pending (posted, not yet granted) bus requests.
//!
//! Cores on the modeled platform are in-order and blocking: each core has at
//! most one arbitrable request outstanding. [`PendingSet`] is therefore a
//! fixed per-core slot array, plus a core mask of the occupied slots that
//! the arbitration path works on (bit `i` is core `i`).

use crate::{BusError, BusRequest};
use sim_core::{CoreId, Cycle};

/// Per-core pending-request slots (at most one per core).
#[derive(Debug, Clone, Default)]
pub struct PendingSet {
    slots: Vec<Option<BusRequest>>,
    /// Bit `i` is set exactly when slot `i` holds a request.
    mask: u64,
}

impl PendingSet {
    /// Creates an empty set for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        PendingSet {
            slots: vec![None; n_cores],
            mask: 0,
        }
    }

    /// Inserts a request.
    ///
    /// # Errors
    ///
    /// * [`BusError::UnknownCore`] if the core is out of range;
    /// * [`BusError::AlreadyPending`] if the core already has a request.
    pub fn insert(&mut self, req: BusRequest) -> Result<(), BusError> {
        let idx = req.core().index();
        let slot = self
            .slots
            .get_mut(idx)
            .ok_or(BusError::UnknownCore(req.core()))?;
        if slot.is_some() {
            return Err(BusError::AlreadyPending(req.core()));
        }
        *slot = Some(req);
        self.mask |= req.core().bit();
        Ok(())
    }

    /// Removes and returns the pending request of `core`, if any.
    pub(crate) fn remove(&mut self, core: CoreId) -> Option<BusRequest> {
        let req = self.slots.get_mut(core.index()).and_then(Option::take);
        self.mask &= !core.bit();
        req
    }

    /// Whether `core` has a pending request.
    pub fn contains(&self, core: CoreId) -> bool {
        self.mask & core.bit() != 0
    }

    /// The cores with a pending request, as a core mask.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Whether no request is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Iterates over pending requests in core-index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &BusRequest> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Appends each core's pending request to `state` for the bus's
    /// limit-cycle hook (all zero for an empty slot).
    pub(crate) fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>) {
        for slot in &self.slots {
            state.extend(slot.map_or([0; 4], |r| r.limit_cycle_words(now)));
        }
    }

    /// Moves every pending request's issue time `shift` cycles later.
    pub(crate) fn shift_time(&mut self, shift: Cycle) {
        for req in self.slots.iter_mut().flatten() {
            req.issued_at += shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestKind;

    fn req(core: usize, dur: u32, at: Cycle) -> BusRequest {
        BusRequest::new(CoreId::from_index(core), dur, RequestKind::Synthetic, at)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut p = PendingSet::new(4);
        assert!(p.is_empty());
        p.insert(req(2, 5, 10)).unwrap();
        assert!(p.contains(CoreId::from_index(2)));
        assert_eq!(p.mask.count_ones(), 1);
        let r = p.remove(CoreId::from_index(2)).unwrap();
        assert_eq!(r.duration(), 5);
        assert!(p.is_empty());
        assert!(p.remove(CoreId::from_index(2)).is_none());
    }

    #[test]
    fn double_insert_rejected() {
        let mut p = PendingSet::new(4);
        p.insert(req(1, 5, 0)).unwrap();
        assert_eq!(
            p.insert(req(1, 6, 1)),
            Err(BusError::AlreadyPending(CoreId::from_index(1)))
        );
    }

    #[test]
    fn unknown_core_rejected() {
        let mut p = PendingSet::new(2);
        assert_eq!(
            p.insert(req(2, 5, 0)),
            Err(BusError::UnknownCore(CoreId::from_index(2)))
        );
    }

    #[test]
    fn candidates_are_core_ordered() {
        let mut p = PendingSet::new(64);
        p.insert(req(3, 7, 30)).unwrap();
        p.insert(req(0, 5, 50)).unwrap();
        p.insert(req(63, 6, 10)).unwrap();
        assert_eq!(p.mask(), 1 << 63 | 0b1001);
        let cores: Vec<usize> = p.iter().map(|r| r.core().index()).collect();
        assert_eq!(cores, vec![0, 3, 63]);
        assert_eq!(p.mask.count_ones(), 3);
        p.remove(CoreId::from_index(3));
        p.remove(CoreId::from_index(5));
        assert_eq!(p.mask(), 1 << 63 | 1);
        assert!(!p.contains(CoreId::from_index(3)));
    }
}
