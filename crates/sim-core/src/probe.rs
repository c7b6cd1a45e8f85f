//! Streaming observers: the [`Probe`] API.
//!
//! A [`Probe`] subscribes to the observable events of a simulation run —
//! grants, completions, credit-eligibility flips — without the harness
//! hard-wiring any particular metric. The default subscriber,
//! [`NoProbe`], compiles to nothing: `Probe::ACTIVE` is a const the
//! drive loop branches on, so a run without observers pays zero cost
//! (the calls monomorphize to empty inlined bodies and the event-drain
//! hook is never invoked).
//!
//! Concrete probes live near the types they understand; the platform
//! crate ships a windowed-fairness probe (per-window Jain index and
//! per-core share time series) built on completions.
//!
//! # Event timing under the fast path
//!
//! Grants and completions only ever occur at executed cycles, so probe
//! streams built on them are **bit-identical** between the naive and
//! event-horizon engines. Credit flips forwarded through
//! [`ModelEvent::CreditFlip`] are observed at executed cycles: exact
//! under the naive engine, and coalesced to the skip-resume cycle when
//! the fast path jumps an uneventful range.

use crate::{CoreId, Cycle};

/// An event surfaced by a [`BusModel`](crate::BusModel) through its
/// [`drain_events`](crate::BusModel::drain_events) hook — internal state
/// changes (unlike grants and completions) the drive loop cannot observe
/// from the protocol's return values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelEvent {
    /// A core's arbitration-eligibility verdict flipped (for credit-based
    /// filters: its budget crossed the MaxL threshold, or a WCET-mode
    /// `COMP` bit latched/cleared).
    CreditFlip {
        /// First arbitration cycle at which the new verdict applies.
        at: Cycle,
        /// The core whose verdict flipped.
        core: CoreId,
        /// The new verdict.
        eligible: bool,
    },
}

/// A streaming observer of one simulation run.
///
/// All methods default to no-ops; implement the ones you care about. `C`
/// is the model's completion report type.
pub trait Probe<C> {
    /// Whether this probe observes anything at all. The drive loop skips
    /// event-drain work entirely when `ACTIVE` is `false` (the
    /// [`NoProbe`] default), making an unobserved run zero-cost.
    const ACTIVE: bool = true;

    /// A transaction completed at cycle `now`.
    fn on_completion(&mut self, now: Cycle, completion: &C) {
        let _ = (now, completion);
    }

    /// `core` was granted the interconnect at cycle `now`.
    fn on_grant(&mut self, now: Cycle, core: CoreId) {
        let _ = (now, core);
    }

    /// A credit-eligibility verdict flipped (see
    /// [`ModelEvent::CreditFlip`]).
    fn on_credit_flip(&mut self, at: Cycle, core: CoreId, eligible: bool) {
        let _ = (at, core, eligible);
    }

    /// The run ended after `total_cycles` simulated cycles.
    fn on_finish(&mut self, total_cycles: Cycle) {
        let _ = total_cycles;
    }
}

/// The zero-cost default observer: subscribes to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl<C> Probe<C> for NoProbe {
    const ACTIVE: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe that keeps every default, so it subscribes to all events.
    struct Observer;

    impl Probe<u32> for Observer {}

    /// Reads `ACTIVE` through the generic machinery, as the drive loop
    /// does (also sidesteps the constant-assertion lint).
    fn active<P: Probe<u32>>(_p: &P) -> bool {
        P::ACTIVE
    }

    #[test]
    fn no_probe_is_inactive() {
        assert!(!active(&NoProbe));
        assert!(active(&Observer));
    }
}
