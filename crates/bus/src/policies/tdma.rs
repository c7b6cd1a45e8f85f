//! TDMA (time-division multiple access) arbitration.

use crate::pending::PendingSet;
use crate::policy::ArbitrationPolicy;
use sim_core::lfsr::LfsrBank;
use sim_core::{CoreId, Cycle};

/// TDMA arbitration with homogeneous slots.
///
/// Time is split into fixed slots of `slot_len` cycles (the paper sizes
/// slots to MaxL, the longest possible request, because a request's duration
/// is unknown when it is issued). Core `i` owns every `(t / slot_len) % N ==
/// i` slot and a request is granted **only during the first cycle of its
/// owner's slot** — otherwise an unknown-duration request could overrun into
/// the next core's slot and wreck its WCET guarantee.
///
/// The price is idle bandwidth: a 5-cycle request granted in a 56-cycle slot
/// leaves the bus idle for 51 cycles. TDMA is the only built-in policy that
/// is not work-conserving.
#[derive(Debug, Clone)]
pub struct Tdma {
    n_cores: usize,
    slot_len: u32,
}

impl Tdma {
    /// Creates a TDMA arbiter with `n_cores` homogeneous slots of
    /// `slot_len` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0` or `slot_len == 0`.
    pub(crate) fn new(n_cores: usize, slot_len: u32) -> Self {
        assert!(n_cores > 0, "n_cores must be positive");
        assert!(slot_len > 0, "slot_len must be positive");
        Tdma { n_cores, slot_len }
    }

    /// The core owning the slot that contains cycle `now`.
    pub(crate) fn slot_owner(&self, now: Cycle) -> CoreId {
        let slot = now / self.slot_len as Cycle;
        CoreId::from_index((slot % self.n_cores as Cycle) as usize)
    }

    /// Whether `now` is the first cycle of a slot (the only grant point).
    fn is_slot_start(&self, now: Cycle) -> bool {
        now % self.slot_len as Cycle == 0
    }

    /// The first slot-start cycle strictly after `now` whose slot belongs
    /// to `core` — the next cycle at which a pending request by `core`
    /// could possibly be granted.
    pub(crate) fn next_slot_start_of(&self, core: CoreId, now: Cycle) -> Cycle {
        let len = self.slot_len as Cycle;
        let n = self.n_cores as Cycle;
        // First whole slot strictly after `now`, then round up to the next
        // slot index congruent to the core's position in the rotation.
        let m0 = now / len + 1;
        let want = core.index() as Cycle % n;
        let m = m0 + (want + n - m0 % n) % n;
        m * len
    }
}

impl ArbitrationPolicy for Tdma {
    fn name(&self) -> &'static str {
        "TDMA"
    }

    fn select(
        &mut self,
        eligible: u64,
        _pending: &PendingSet,
        now: Cycle,
        _rng: &mut LfsrBank,
    ) -> Option<CoreId> {
        if !self.is_slot_start(now) {
            return None;
        }
        let owner = self.slot_owner(now);
        (eligible & owner.bit() != 0).then_some(owner)
    }

    fn is_work_conserving(&self) -> bool {
        false
    }

    /// TDMA's grant opportunities are pure functions of time: for a frozen
    /// eligible set the next possible grant is the earliest upcoming slot
    /// start owned by any waiting core.
    fn next_grant_at(&self, eligible: u64, _pending: &PendingSet, now: Cycle) -> Option<Cycle> {
        CoreId::in_mask(eligible)
            .map(|core| self.next_slot_start_of(core, now))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testing::pending;

    fn select(t: &mut Tdma, cores: &[usize], now: Cycle) -> Option<CoreId> {
        let pending = pending(cores);
        let mut rng = LfsrBank::new(16, 0).unwrap();
        t.select(pending.mask(), &pending, now, &mut rng)
    }

    #[test]
    fn slot_ownership_rotates() {
        let t = Tdma::new(4, 56);
        assert_eq!(t.slot_owner(0).index(), 0);
        assert_eq!(t.slot_owner(55).index(), 0);
        assert_eq!(t.slot_owner(56).index(), 1);
        assert_eq!(t.slot_owner(56 * 4).index(), 0);
    }

    #[test]
    fn grants_only_at_slot_start() {
        let mut t = Tdma::new(4, 56);
        let all = [0, 1, 2, 3];
        assert_eq!(select(&mut t, &all, 0).unwrap().index(), 0);
        for now in 1..56 {
            assert_eq!(select(&mut t, &all, now), None, "granted at {now}");
        }
        assert_eq!(select(&mut t, &all, 56).unwrap().index(), 1);
    }

    #[test]
    fn empty_slot_stays_idle_even_with_other_waiters() {
        // Non-work-conserving: if the slot owner has no request, the bus
        // idles even though other cores wait.
        let mut t = Tdma::new(4, 56);
        let others = [1, 2, 3];
        assert_eq!(select(&mut t, &others, 0), None);
        assert_eq!(select(&mut t, &others, 56).unwrap().index(), 1);
    }

    #[test]
    fn reports_not_work_conserving() {
        assert!(!Tdma::new(4, 56).is_work_conserving());
    }

    #[test]
    fn next_slot_start_of_finds_the_owned_boundary() {
        let t = Tdma::new(4, 56);
        // From mid-slot 0, core 1's next slot starts at 56, core 0's at
        // 4 * 56 (the rotation must come all the way around).
        assert_eq!(t.next_slot_start_of(CoreId::from_index(1), 10), 56);
        assert_eq!(t.next_slot_start_of(CoreId::from_index(0), 10), 224);
        // Exactly at a slot start, the *next* owned start is returned.
        assert_eq!(t.next_slot_start_of(CoreId::from_index(0), 0), 224);
        assert_eq!(t.next_slot_start_of(CoreId::from_index(2), 111), 112);
        // Brute-force cross-check against is_slot_start/slot_owner.
        for core in 0..3usize {
            for now in 0..400u64 {
                let t3 = Tdma::new(3, 10);
                let predicted = t3.next_slot_start_of(CoreId::from_index(core), now);
                let actual = (now + 1..)
                    .find(|&c| t3.is_slot_start(c) && t3.slot_owner(c).index() == core)
                    .unwrap();
                assert_eq!(predicted, actual, "core {core} at {now}");
            }
        }
    }

    #[test]
    fn next_grant_at_matches_select() {
        let mut t = Tdma::new(4, 56);
        let waiting = pending(&[1, 3]);
        let predicted = t.next_grant_at(waiting.mask(), &waiting, 10).unwrap();
        assert_eq!(predicted, 56, "core 1's slot is the nearest");
        // No grant strictly before the prediction, a grant exactly at it.
        for now in 11..predicted {
            assert_eq!(select(&mut t, &[1, 3], now), None, "at {now}");
        }
        assert_eq!(select(&mut t, &[1, 3], predicted).unwrap().index(), 1);
        let none = pending(&[]);
        assert_eq!(
            t.next_grant_at(0, &none, 10),
            None,
            "no waiters, no windows"
        );
    }

    #[test]
    fn slot_start_detection() {
        let t = Tdma::new(2, 10);
        assert!(t.is_slot_start(0));
        assert!(t.is_slot_start(10));
        assert!(!t.is_slot_start(5));
        assert!(!t.is_slot_start(11));
    }
}
