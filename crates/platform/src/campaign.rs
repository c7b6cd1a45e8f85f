//! Monte-Carlo campaigns: many randomized runs of one spec.
//!
//! The paper's evaluation averages **1,000 runs** per configuration
//! because cache placement and arbitration are randomized — a single run
//! is a sample, not a result. A [`Campaign`] is a one-cell scenario grid:
//! its runs execute on the grid executor and fold into the same
//! [`CellReport`] as every cell of [`run_scenario`](crate::run_scenario).

use crate::checkpoint::FaultPlan;
use crate::executor::default_threads;
use crate::platform::{RunResult, RunSpec};
use crate::report::{Batch, CellReport};
use crate::scenario::{Cell, CheckpointSpec, ReportSpec};
use sim_core::rng::SimRng;

/// The per-run seed for run `index` of a campaign seeded from
/// `master_seed` (stable, order-independent; every cell of a scenario
/// grid and every [`Campaign`] derives its runs' seeds this way).
pub fn run_seed(master_seed: u64, index: usize) -> u64 {
    SimRng::seed_from(master_seed).fork(index as u64).seed()
}

/// A batch of independent runs of one spec.
///
/// A spec whose runs make no random draw (a round-robin bus with
/// synthetic loads, say; see [`RunResult::draws`]) gives the same run
/// under every seed: the campaign computes it once and copies it into
/// every run.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: RunSpec,
    runs: usize,
    master_seed: u64,
    threads: usize,
}

impl Campaign {
    /// Creates a campaign of `runs` runs seeded from `master_seed`,
    /// defaulting to one worker per hardware thread.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn new(spec: RunSpec, runs: usize, master_seed: u64) -> Self {
        assert!(runs > 0, "a campaign needs at least one run");
        Campaign {
            spec,
            runs,
            master_seed,
            threads: default_threads(),
        }
    }

    /// Overrides the worker-thread count (1 = fully sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Executes all runs and folds them into one report cell: no labels,
    /// the campaign's master seed, the default percentiles (50/95/99).
    /// Run `i` is seeded by [`run_seed`], so the report is identical for
    /// any thread count.
    pub fn run(&self) -> CellReport {
        let cell = Cell {
            labels: Vec::new(),
            indices: Vec::new(),
            seed: self.master_seed,
            spec: self.spec.clone(),
        };
        let batch = Batch {
            runs: self.runs,
            threads: self.threads,
            report: &ReportSpec::default(),
            checkpoint: &CheckpointSpec::default(),
            plan: &FaultPlan::default(),
        };
        let mut report = None;
        batch.run(&[cell], &[0], |_, cell| {
            report = Some(cell);
            true
        });
        report.expect("the campaign's one cell completes")
    }
}

/// The raw runs of a campaign, in run order: what
/// [`CellReport::from_campaign`] folds into a report cell.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    pub(crate) runs: Vec<RunResult>,
}

impl CampaignResult {
    /// Collects raw per-run results, in run order. Takes any iterator so
    /// callers holding runs in slotted buffers can feed them directly.
    pub fn from_runs(results: impl IntoIterator<Item = RunResult>) -> Self {
        CampaignResult {
            runs: results.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_once, BusSetup, CoreLoad, Scenario};

    fn small_spec() -> RunSpec {
        RunSpec::paper(BusSetup::Rp, Scenario::Isolation, CoreLoad::named("rspeed"))
    }

    #[test]
    fn campaign_is_reproducible() {
        let a = Campaign::new(small_spec(), 6, 42).run();
        let b = Campaign::new(small_spec(), 6, 42).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((a.runs, a.unfinished), (6, 0));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let seq = Campaign::new(small_spec(), 8, 9).with_threads(1).run();
        let par = Campaign::new(small_spec(), 8, 9).with_threads(4).run();
        // Debug renders every float exactly, so equal text is an equal cell.
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn runs_vary_across_seeds() {
        let result = Campaign::new(small_spec(), 10, 1).run();
        assert!(
            result.min < result.max,
            "randomized caches must produce spread: {result:?}"
        );
    }

    #[test]
    fn summary_matches_samples() {
        let result = Campaign::new(small_spec(), 5, 3).run();
        let samples = (0..5).map(|i| run_once(&small_spec(), run_seed(3, i)).tua_cycles);
        let mean = samples.map(|t| t.expect("finished") as f64).sum::<f64>() / 5.0;
        assert!((result.mean - mean).abs() < 1e-9);
        assert_eq!((result.runs, result.seed), (5, 3));
        assert!(result.labels.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = Campaign::new(small_spec(), 0, 0);
    }
}
