//! Shipped [`Probe`] implementations.
//!
//! Fairness of a credit scheme is a *temporal* property: an arbiter can
//! hit the right long-run shares while starving a core for long windows
//! (exactly the multi-timescale concern of the bandwidth-profile
//! literature). The [`WindowedFairnessProbe`] therefore measures shares
//! **per time window** while the run streams by, instead of once at the
//! end: the run's horizon is split into `n_windows` equal windows, each
//! completion's bus occupancy is attributed to the windows it overlaps,
//! and every window gets a per-core share vector plus a Jain fairness
//! index.
//!
//! The probe is fed from *completions* only, which occur exclusively at
//! executed cycles — so its output is **bit-identical** between the
//! naive and event-horizon engines (asserted by the workspace identity
//! tests). A transaction still in flight when the run stops is not
//! attributed.
//!
//! On a hierarchical fabric, a completion is reported when the response
//! reaches its originating core — after the return bridge crossing —
//! so the attributed occupancy interval `[now - duration, now)` lags
//! the backbone's wire-level service by up to two bridge crossings.
//! Shares near window boundaries can therefore land one window late
//! relative to the physical bus; with windows much longer than
//! `bridge_latency` (the intended regime) the skew is negligible, but
//! compare fabric window series only against other completion-attributed
//! series, not against wire-level traces.
//!
//! Scenario files attach it with `[report] windows = N` (horizon-stop
//! runs only); the per-window Jain series and share matrix surface as
//! `window_jain` / `window_shares` report columns.

use cba_bus::CompletedTransaction;
use sim_core::{Cycle, Probe};

/// The result of one windowed-fairness measurement: a per-window share
/// matrix and Jain-index series.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedFairness {
    /// Window length in cycles.
    pub window_len: Cycle,
    /// `shares[w][c]`: bus-cycle share of core `c` within window `w`
    /// (attributed busy cycles / window length).
    pub shares: Vec<Vec<f64>>,
    /// Per-window Jain fairness index over the core shares (1.0 =
    /// perfectly even; an all-idle window also reports 1.0).
    pub jain: Vec<f64>,
}

/// Streams completions into per-window per-core busy-cycle counters (see
/// the [module documentation](self)).
#[derive(Debug, Clone)]
pub struct WindowedFairnessProbe {
    n_cores: usize,
    window_len: Cycle,
    n_windows: usize,
    /// Flattened `[window][core]` busy-cycle counters.
    busy: Vec<u64>,
}

impl WindowedFairnessProbe {
    /// Creates a probe for `n_cores` cores over `n_windows` windows of
    /// `window_len` cycles each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub(crate) fn new(n_cores: usize, window_len: Cycle, n_windows: usize) -> Self {
        assert!(n_cores > 0, "n_cores must be positive");
        assert!(window_len > 0, "window_len must be positive");
        assert!(n_windows > 0, "n_windows must be positive");
        WindowedFairnessProbe {
            n_cores,
            window_len,
            n_windows,
            busy: vec![0; n_cores * n_windows],
        }
    }

    /// Snapshots the accumulated counters into shares and Jain indices.
    pub(crate) fn snapshot(&self) -> WindowedFairness {
        let mut shares = Vec::with_capacity(self.n_windows);
        let mut jain = Vec::with_capacity(self.n_windows);
        for w in 0..self.n_windows {
            let row: Vec<f64> = (0..self.n_cores)
                .map(|c| self.busy[w * self.n_cores + c] as f64 / self.window_len as f64)
                .collect();
            jain.push(sim_core::stats::jain(&row));
            shares.push(row);
        }
        WindowedFairness {
            window_len: self.window_len,
            shares,
            jain,
        }
    }
}

impl Probe<CompletedTransaction> for WindowedFairnessProbe {
    fn on_completion(&mut self, now: Cycle, completion: &CompletedTransaction) {
        // The transaction occupied the bus over [now - duration, now);
        // split that range across the windows it overlaps.
        let mut start = now.saturating_sub(completion.duration as Cycle);
        let core = completion.core.index();
        while start < now {
            let w = (start / self.window_len) as usize;
            if w >= self.n_windows {
                break;
            }
            let window_end = (w as Cycle + 1) * self.window_len;
            let end = window_end.min(now);
            self.busy[w * self.n_cores + core] += end - start;
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::RequestKind;
    use sim_core::CoreId;

    fn ct(core: usize, duration: u32) -> CompletedTransaction {
        CompletedTransaction {
            core: CoreId::from_index(core),
            kind: RequestKind::Synthetic,
            duration,
        }
    }

    #[test]
    fn completions_split_across_window_boundaries() {
        let mut probe = WindowedFairnessProbe::new(2, 100, 3);
        // Core 0: [90, 110) — 10 cycles in window 0, 10 in window 1.
        probe.on_completion(110, &ct(0, 20));
        // Core 1: [150, 200) — fully in window 1.
        probe.on_completion(200, &ct(1, 50));
        let snap = probe.snapshot();
        assert_eq!(snap.shares[0], vec![0.10, 0.0]);
        assert_eq!(snap.shares[1], vec![0.10, 0.50]);
        assert_eq!(snap.shares[2], vec![0.0, 0.0]);
        assert_eq!(snap.jain[2], 1.0, "idle window reports perfect fairness");
        assert!(snap.jain[1] < 1.0, "skewed window is unfair");
        assert_eq!(snap.jain.len(), 3);
    }

    #[test]
    fn jain_summary_statistics() {
        let mut probe = WindowedFairnessProbe::new(2, 10, 2);
        // Window 0: perfectly even. Window 1: one-sided.
        probe.on_completion(5, &ct(0, 5));
        probe.on_completion(10, &ct(1, 5));
        probe.on_completion(20, &ct(0, 10));
        let snap = probe.snapshot();
        assert!((snap.jain[0] - 1.0).abs() < 1e-12);
        assert!((snap.jain[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_past_the_last_window_is_clamped() {
        let mut probe = WindowedFairnessProbe::new(1, 10, 1);
        probe.on_completion(25, &ct(0, 20));
        let snap = probe.snapshot();
        // Only [5, 10) lands in window 0.
        assert_eq!(snap.shares[0], vec![0.5]);
    }
}
