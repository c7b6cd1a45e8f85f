//! The built-in arbitration policies.
//!
//! These are the policies the paper's Section II surveys as the state of the
//! art for real-time buses, all of which are *slot-fair* under saturation:
//!
//! | Policy | Module | Notes |
//! |---|---|---|
//! | FIFO | [`fifo`] | grant in arrival order |
//! | Round-robin | [`round_robin`] | cyclic order after last grant |
//! | TDMA | [`tdma`] | fixed MaxL-cycle slots, grants only at slot start |
//! | Lottery | [`lottery`] | (weighted) random draw, LOTTERYBUS-style |
//! | Random permutations | [`random_perm`] | MBPTA-friendly baseline ("RP") |
//! | Fixed priority | [`priority`] | starves low priority; anti-example |
//!
//! The paper's credit-based arbitration composes with any of them — it
//! filters the candidate set *before* these policies choose (see the `cba`
//! crate). Each policy picks one core of the eligible core mask.

pub mod fifo;
pub mod lottery;
pub mod priority;
pub mod random_perm;
pub mod round_robin;
pub mod tdma;

pub use fifo::Fifo;
pub use lottery::Lottery;
pub use priority::FixedPriority;
pub use random_perm::RandomPermutation;
pub use round_robin::RoundRobin;
pub use tdma::Tdma;

/// Pending sets for the policies' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{BusRequest, PendingSet, RequestKind};
    use sim_core::{CoreId, Cycle};

    /// A pending set holding one 5-cycle request per `(core, issued_at)`.
    pub fn pending_at(requests: &[(usize, Cycle)]) -> PendingSet {
        let mut pending = PendingSet::new(CoreId::MAX_CORES);
        for &(core, at) in requests {
            let core = CoreId::from_index(core);
            pending
                .insert(BusRequest::new(core, 5, RequestKind::Synthetic, at))
                .unwrap();
        }
        pending
    }

    /// A pending set holding one request, issued at cycle 0, per core.
    pub fn pending(cores: &[usize]) -> PendingSet {
        let requests: Vec<(usize, Cycle)> = cores.iter().map(|&core| (core, 0)).collect();
        pending_at(&requests)
    }
}
