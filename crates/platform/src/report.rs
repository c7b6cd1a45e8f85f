//! Structured campaign results: per-cell statistics, baseline
//! normalization, and JSON/CSV/table export.
//!
//! [`run_scenario`] flattens every grid cell of a [`ScenarioDef`] into one
//! batch of *(cell × run)* tasks, executes the whole batch on the
//! grid-wide work-stealing pool ([`crate::executor`]) and aggregates each
//! cell into a [`CellReport`]: mean, 95% confidence interval, percentiles,
//! and (for trace-recording scenarios) burst/starvation summaries. When
//! the definition names a `[report]` baseline (e.g. `baseline =
//! setup=rp,scenario=iso`), cells are normalized against the matching cell
//! of their group — exactly how the paper's Figure 1 normalizes every bar
//! to the benchmark's RP-ISO mean.
//!
//! The writers are dependency-free ([`sim_core::export`]): `to_json` for
//! plots/dashboards, `to_csv` for spreadsheets, `render_table` for the
//! terminal.

use crate::campaign::run_seed;
use crate::checkpoint::{FaultPlan, Journal};
use crate::executor::{default_threads, run_indexed_streamed};
use crate::platform::{run_once, RunResult, RunSpec};
use crate::probes::WindowedFairness;
use crate::scenario::{ScenarioDef, ScenarioError};
use cba_mbpta::pwcet::{MbptaConfig, PWcetModel};
use sim_core::agent::MemStats;
use sim_core::export::{csv_field, fmt_number, Json};
use sim_core::stats::{percentile_sorted, Summary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// How a cell's campaign ended: the per-cell fault-containment status.
///
/// A degraded campaign reports *which* cells failed instead of aborting —
/// a panicking run is caught ([`catch_unwind`]) and a budget-tripped cell
/// is cut short, and either way the cell still produces a report row
/// carrying this status through JSON (`"outcome"`), CSV (the `outcome`
/// column) and the terminal table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Every run executed normally.
    Ok,
    /// At least one run panicked; carries the first panic message.
    Panicked(String),
    /// At least one run was skipped or truncated by a `[checkpoint]`
    /// budget (`cell_budget_ms` / `run_budget_cycles`) or a forced trip
    /// from a [`FaultPlan`].
    Budget,
}

impl CellOutcome {
    /// The stable machine-readable label (`ok` / `panicked` / `budget`).
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Panicked(_) => "panicked",
            CellOutcome::Budget => "budget",
        }
    }

    /// True when the cell completed without faults.
    pub fn is_ok(&self) -> bool {
        *self == CellOutcome::Ok
    }
}

/// Aggregated result of one grid cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// `(axis key, value label)` pairs identifying the cell.
    pub labels: Vec<(String, String)>,
    /// The campaign seed this cell ran under.
    pub seed: u64,
    /// Completed runs (samples).
    pub runs: usize,
    /// Runs that hit the cycle safety limit instead of finishing.
    pub unfinished: usize,
    /// Fault-containment status of the cell.
    pub outcome: CellOutcome,
    /// Runs that panicked (caught; excluded from every statistic).
    pub panicked: usize,
    /// Runs skipped or truncated by a budget guard.
    pub budget_trips: usize,
    /// Mean execution time (cycles).
    pub mean: f64,
    /// Half-width of the 95% confidence interval on the mean (cycles).
    pub ci95: f64,
    /// Smallest sample (cycles).
    pub min: f64,
    /// Largest sample (cycles).
    pub max: f64,
    /// `(quantile, value)` pairs per the definition's `percentiles`.
    pub percentiles: Vec<(f64, f64)>,
    /// Mean bus utilization over the runs.
    pub utilization: f64,
    /// Mean normalized to the group's baseline cell, when a baseline is
    /// configured.
    pub normalized: Option<f64>,
    /// `ci95` divided by the baseline mean, when a baseline is configured.
    pub normalized_ci95: Option<f64>,
    /// Mean (over runs) of the TuA's longest back-to-back grant burst;
    /// trace-recording cells only.
    pub tua_max_burst: Option<f64>,
    /// Mean (over runs) of the worst contender grant gap; trace-recording
    /// cells only.
    pub contender_max_gap: Option<f64>,
    /// Mean per-cluster share of the backbone (busy cycles of the
    /// cluster's cores / total cycles); fabric cells only.
    pub cluster_shares: Option<Vec<f64>>,
    /// Jain fairness index over the cluster shares (1 = perfectly even);
    /// fabric cells only.
    pub cluster_fairness: Option<f64>,
    /// Mean (over runs) per-window Jain index series; cells with
    /// `[report] windows = N` only.
    pub window_jain: Option<Vec<f64>>,
    /// Mean (over runs) per-window per-core share matrix
    /// (`[window][core]`); windowed cells only.
    pub window_shares: Option<Vec<Vec<f64>>>,
    /// pWCET tail columns; cells of scenarios with `[report] pwcet =
    /// P1,P2,...` only.
    pub pwcet: Option<PwcetCell>,
    /// Miss rate of the cell's memory agents (misses / accesses over the
    /// campaign-wide exact integer sums); cells with `mem`/`shared`
    /// loads only.
    pub mem_miss_rate: Option<f64>,
    /// Coherence share of the memory agents' bus traffic (coherence
    /// transactions / all their bus transactions); memory cells only.
    pub mem_coherence_frac: Option<f64>,
    /// Mean writebacks per run (dirty evictions + coherence flushes);
    /// memory cells only.
    pub mem_writebacks: Option<f64>,
}

/// Per-cell pWCET columns (`[report] pwcet = P1,P2,...`): the requested
/// per-run exceedance probabilities plus either the fitted tail model or
/// the [`cba_mbpta::MbptaError`] diagnostic explaining why this cell has
/// none. Fit failures (too few samples, degenerate/constant latencies,
/// no MLE convergence) are data, not faults: they surface as a
/// diagnostic column and never abort the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PwcetCell {
    /// Requested per-run exceedance probabilities, in scenario order.
    pub probs: Vec<f64>,
    /// The fitted tail columns; `None` when the fit or iid battery
    /// failed on this cell's samples.
    pub fit: Option<PwcetFit>,
    /// The `MbptaError` rendering when `fit` is `None`.
    pub diag: Option<String>,
}

/// The fitted pWCET column values of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PwcetFit {
    /// `pwcet@P` execution-time bounds (cycles), one per probability in
    /// [`PwcetCell::probs`].
    pub bounds: Vec<f64>,
    /// Fitted Gumbel location (block-maxima scale).
    pub mu: f64,
    /// Fitted Gumbel scale.
    pub beta: f64,
    /// Number of block maxima behind the fit.
    pub blocks: u32,
    /// Split-half Kolmogorov–Smirnov p-value.
    pub ks_p: f64,
    /// Ljung–Box (20 lags) p-value.
    pub lb_p: f64,
    /// Wald–Wolfowitz runs-test p-value.
    pub runs_p: f64,
    /// All three iid tests pass at α = 0.05 (the MBPTA convention); a
    /// failing battery still reports the fit, flagged.
    pub iid_ok: bool,
}

impl CellReport {
    /// The label of axis `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Mean of the per-window Jain indices (windowed cells only).
    pub fn window_jain_mean(&self) -> Option<f64> {
        let jain = self.window_jain.as_ref()?;
        if jain.is_empty() {
            return None;
        }
        Some(jain.iter().sum::<f64>() / jain.len() as f64)
    }

    /// Worst (smallest) per-window Jain index (windowed cells only).
    pub fn window_jain_min(&self) -> Option<f64> {
        let jain = self.window_jain.as_ref()?;
        jain.iter().copied().reduce(f64::min)
    }

    /// Aggregates a finished campaign into a report cell. The `spec`
    /// decides which optional summaries are extracted: burst/starvation
    /// metrics for trace-recording cells, per-cluster shares and the
    /// cross-cluster fairness index for fabric cells.
    ///
    /// Delegates to the same streaming `CellAccumulator` the scenario
    /// engine folds live runs into, so a hand-run [`Campaign`] and a grid
    /// cell share one aggregation path (and one set of numerics).
    ///
    /// [`Campaign`]: crate::Campaign
    pub fn from_campaign(
        labels: Vec<(String, String)>,
        seed: u64,
        result: &crate::campaign::CampaignResult,
        qs: &[f64],
        spec: &RunSpec,
    ) -> CellReport {
        let mut acc = CellAccumulator::new(result.results().len());
        for (i, r) in result.results().iter().enumerate() {
            acc.record(
                i,
                RunOutcome::Done(Box::new(RunTally::from_run(r.clone(), spec, None))),
            );
        }
        acc.finish(labels, seed, qs, &[], spec)
    }
}

/// One finished run, reduced to the few scalars (and small window/cluster
/// vectors) the cell-level statistics need. Folding each [`RunResult`]
/// into a `RunTally` the moment it lands lets the engine drop the per-core
/// trace vectors immediately instead of retaining every raw run of every
/// in-flight cell.
#[derive(Debug, Clone)]
pub(crate) struct RunTally {
    /// The execution-time sample (cycles); `None` for unfinished runs.
    /// Kept as the simulator's native `u64` — conversion to the f64
    /// statistics domain happens once, at aggregation/fit time, so long
    /// campaigns never round samples on the way in.
    sample: Option<u64>,
    utilization: f64,
    /// TuA longest back-to-back grant burst (trace-recording runs).
    burst: Option<f64>,
    /// Worst contender grant gap (0 when no contender recorded one).
    gap: f64,
    /// Per-cluster backbone-share contribution of this run (fabric runs).
    cluster_busy: Option<Vec<f64>>,
    windows: Option<WindowedFairness>,
    /// Summed memory-agent counters of this run (memory cells only).
    mem: Option<MemStats>,
    /// The run stopped at a `run_budget_cycles` cap instead of finishing.
    budget_tripped: bool,
}

impl RunTally {
    pub(crate) fn from_run(r: RunResult, spec: &RunSpec, run_budget: Option<u64>) -> RunTally {
        let sample = match (r.finished, r.tua_cycles) {
            (true, Some(t)) => Some(t),
            // Horizon runs have no TuA completion; record the horizon
            // itself so fairness campaigns still aggregate.
            (true, None) => Some(r.total_cycles),
            _ => None,
        };
        let budget_tripped = !r.finished && run_budget.is_some_and(|b| r.total_cycles >= b);
        let burst = r.max_burst.first().copied().flatten().map(|b| b as f64);
        let gap = r
            .max_grant_gap
            .iter()
            .skip(1)
            .filter_map(|g| *g)
            .max()
            .unwrap_or(0) as f64;
        let cluster_busy = spec.platform.topology.as_ref().map(|topo| {
            (0..topo.clusters)
                .map(|k| {
                    if r.total_cycles == 0 {
                        return 0.0;
                    }
                    let lo = k * topo.cores_per_cluster;
                    let busy: u64 = r.bus_busy[lo..lo + topo.cores_per_cluster].iter().sum();
                    busy as f64 / r.total_cycles as f64
                })
                .collect()
        });
        RunTally {
            sample,
            utilization: r.utilization(),
            burst,
            gap,
            cluster_busy,
            mem: r.mem,
            windows: r.windows,
            budget_tripped,
        }
    }
}

/// What one `(cell, run)` task produced.
#[derive(Debug, Clone)]
pub(crate) enum RunOutcome {
    /// The run executed (finished or hit a cycle limit).
    Done(Box<RunTally>),
    /// The run panicked; the payload message was captured.
    Panicked(String),
    /// The run was skipped by a wall-clock budget or a forced fault-plan
    /// trip before it started.
    BudgetSkipped,
}

/// Streaming per-cell aggregation: run outcomes land in per-run slots in
/// any order, and once the last one arrives [`finish`](Self::finish)
/// reduces them **in run-index order** — f64 accumulation is
/// order-sensitive, so index-order reduction is what keeps cell
/// statistics bit-identical across thread counts and across
/// interrupted-and-resumed executions.
#[derive(Debug, Default)]
pub(crate) struct CellAccumulator {
    slots: Vec<Option<RunOutcome>>,
    received: usize,
}

impl CellAccumulator {
    pub(crate) fn new(runs: usize) -> CellAccumulator {
        let mut slots = Vec::with_capacity(runs);
        slots.resize_with(runs, || None);
        CellAccumulator { slots, received: 0 }
    }

    pub(crate) fn record(&mut self, run: usize, outcome: RunOutcome) {
        debug_assert!(self.slots[run].is_none(), "run {run} delivered twice");
        self.slots[run] = Some(outcome);
        self.received += 1;
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.received == self.slots.len()
    }

    pub(crate) fn finish(
        self,
        labels: Vec<(String, String)>,
        seed: u64,
        qs: &[f64],
        pwcet_probs: &[f64],
        spec: &RunSpec,
    ) -> CellReport {
        // Samples stay u64 (exact) until each consumer's conversion
        // point: the Welford summary converts per value (exact below
        // 2^53, same as the simulator's own cycle arithmetic), the
        // percentile sort runs on u64, and the pWCET fit guards the
        // conversion explicitly.
        let mut samples: Vec<u64> = Vec::new();
        let mut summary = Summary::new();
        let mut unfinished = 0usize;
        let mut panicked = 0usize;
        let mut first_panic: Option<String> = None;
        let mut budget_trips = 0usize;
        let mut n_done = 0usize;
        let mut util_sum = 0.0f64;
        let mut burst_sum = 0.0f64;
        let mut gap_sum = 0.0f64;
        let mut cluster_sum: Option<Vec<f64>> = spec
            .platform
            .topology
            .as_ref()
            .map(|topo| vec![0.0f64; topo.clusters]);
        // Memory counters accumulate as exact u64 sums (not per-run
        // floats), so the derived ratios are thread-count-independent.
        let mut mem_sum: Option<MemStats> = None;
        let mut mem_runs = 0usize;
        let (mut window_jain_sum, mut window_share_sum, mut windows_counted) = match spec.windows {
            None => (None, None, 0usize),
            Some(w) => (
                Some(vec![0.0f64; w as usize]),
                Some(vec![vec![0.0f64; spec.platform.n_cores]; w as usize]),
                0usize,
            ),
        };
        for slot in self.slots {
            match slot.expect("every run delivered before finish()") {
                RunOutcome::Done(t) => {
                    n_done += 1;
                    match t.sample {
                        Some(s) => {
                            samples.push(s);
                            summary.record(s as f64);
                        }
                        None => unfinished += 1,
                    }
                    if t.budget_tripped {
                        budget_trips += 1;
                    }
                    util_sum += t.utilization;
                    if let Some(b) = t.burst {
                        burst_sum += b;
                    }
                    gap_sum += t.gap;
                    if let (Some(acc), Some(c)) = (&mut cluster_sum, &t.cluster_busy) {
                        for (a, x) in acc.iter_mut().zip(c) {
                            *a += x;
                        }
                    }
                    if let Some(m) = t.mem {
                        mem_sum.get_or_insert_with(MemStats::default).accumulate(m);
                        mem_runs += 1;
                    }
                    if let Some(wf) = &t.windows {
                        windows_counted += 1;
                        if let Some(jain) = &mut window_jain_sum {
                            for (a, j) in jain.iter_mut().zip(&wf.jain) {
                                *a += j;
                            }
                        }
                        if let Some(shares) = &mut window_share_sum {
                            for (row, wrow) in shares.iter_mut().zip(&wf.shares) {
                                for (a, s) in row.iter_mut().zip(wrow) {
                                    *a += s;
                                }
                            }
                        }
                    }
                }
                RunOutcome::Panicked(msg) => {
                    panicked += 1;
                    first_panic.get_or_insert(msg);
                }
                RunOutcome::BudgetSkipped => budget_trips += 1,
            }
        }
        // Denominator: runs that actually executed. With no faults this is
        // every run, matching the pre-containment aggregation exactly.
        let denom = (n_done as f64).max(1.0);
        let percentiles = if samples.is_empty() {
            Vec::new()
        } else {
            // Sort once per cell (u64 sort: exact, total order, no NaN
            // edge cases) and interpolate every requested quantile on
            // the same sorted view.
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let sorted: Vec<f64> = sorted.iter().map(|&s| s as f64).collect();
            qs.iter()
                .map(|&q| (q, percentile_sorted(&sorted, q)))
                .collect()
        };
        // The pWCET fit consumes the samples in run-index order — the
        // iid battery is order-sensitive, and index order is what stays
        // bit-identical across thread counts and resumes.
        let pwcet = (!pwcet_probs.is_empty()).then(|| fit_pwcet_columns(&samples, pwcet_probs));
        let (tua_max_burst, contender_max_gap) = if spec.record_trace {
            (Some(burst_sum / denom), Some(gap_sum / denom))
        } else {
            (None, None)
        };
        let (cluster_shares, cluster_fairness) = match cluster_sum {
            None => (None, None),
            Some(mut shares) => {
                shares.iter_mut().for_each(|s| *s /= denom);
                let sum: f64 = shares.iter().sum();
                let sq: f64 = shares.iter().map(|s| s * s).sum();
                let jain = if sq > 0.0 {
                    (sum * sum) / (shares.len() as f64 * sq)
                } else {
                    1.0
                };
                (Some(shares), Some(jain))
            }
        };
        let wdenom = (windows_counted as f64).max(1.0);
        let window_jain = window_jain_sum.map(|mut jain| {
            jain.iter_mut().for_each(|j| *j /= wdenom);
            jain
        });
        let window_shares = window_share_sum.map(|mut shares| {
            shares
                .iter_mut()
                .for_each(|row| row.iter_mut().for_each(|s| *s /= wdenom));
            shares
        });
        let (mem_miss_rate, mem_coherence_frac, mem_writebacks) = match mem_sum {
            None => (None, None, None),
            Some(m) => {
                let ratio = |num: u64, den: u64| {
                    if den == 0 {
                        0.0
                    } else {
                        num as f64 / den as f64
                    }
                };
                (
                    Some(ratio(m.misses, m.accesses)),
                    Some(ratio(m.coherence, m.bus_txns)),
                    Some(m.writebacks as f64 / (mem_runs as f64).max(1.0)),
                )
            }
        };
        let outcome = if let Some(msg) = first_panic {
            CellOutcome::Panicked(msg)
        } else if budget_trips > 0 {
            CellOutcome::Budget
        } else {
            CellOutcome::Ok
        };
        CellReport {
            labels,
            seed,
            runs: samples.len(),
            unfinished,
            outcome,
            panicked,
            budget_trips,
            mean: summary.mean(),
            ci95: summary.ci95_half_width(),
            min: summary.min(),
            max: summary.max(),
            percentiles,
            utilization: util_sum / denom,
            normalized: None,
            normalized_ci95: None,
            tua_max_burst,
            contender_max_gap,
            cluster_shares,
            cluster_fairness,
            window_jain,
            window_shares,
            pwcet,
            mem_miss_rate,
            mem_coherence_frac,
            mem_writebacks,
        }
    }
}

/// Runs the full MBPTA protocol (iid battery + Gumbel block-maxima fit)
/// on one cell's samples and reduces it to export columns. Every
/// [`cba_mbpta::MbptaError`] becomes the cell's diagnostic column — a
/// degenerate cell reports *why* it has no tail model instead of
/// panicking or emitting NaN.
fn fit_pwcet_columns(samples: &[u64], probs: &[f64]) -> PwcetCell {
    match PWcetModel::analyze_u64(samples, MbptaConfig::default()) {
        Ok((model, iid)) => PwcetCell {
            probs: probs.to_vec(),
            fit: Some(PwcetFit {
                bounds: probs.iter().map(|&p| model.quantile_per_run(p)).collect(),
                mu: model.gumbel().mu,
                beta: model.gumbel().beta,
                blocks: model.n_blocks() as u32,
                ks_p: iid.ks.p_value,
                lb_p: iid.ljung_box.p_value,
                runs_p: iid.runs.p_value,
                iid_ok: iid.passes(0.05),
            }),
            diag: None,
        },
        Err(e) => PwcetCell {
            probs: probs.to_vec(),
            fit: None,
            diag: Some(e.to_string()),
        },
    }
}

/// The full result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Campaign name from the definition.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Runs per cell.
    pub runs: usize,
    /// One report per grid cell, in expansion order.
    pub cells: Vec<CellReport>,
}

/// Expands `def` and executes every cell, applying baseline
/// normalization when the definition configures one.
///
/// The whole grid runs as one flat batch of *(cell × run)* tasks on one
/// grid-wide work-stealing pool (`def.threads`, default: every hardware
/// thread), so a multi-cell campaign scales with the thread count well
/// beyond a single cell's run count. Every run's seed depends only on
/// `(cell seed, run index)`, so results are deterministic — bit-identical
/// for any thread count or scheduling.
///
/// # Errors
///
/// Propagates expansion errors; a configured baseline that matches no
/// cell in some group is also an error.
pub fn run_scenario(def: &ScenarioDef) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_with(def, |_done, _total, _cell| {})
}

/// [`run_scenario`] with a progress callback `(cells done, total, just
/// finished)` invoked per cell, for CLI progress lines. Cells are
/// aggregated and reported as their last run completes (so the callback
/// fires in completion order, live); the returned report is in cell
/// (expansion) order regardless, and identical for any thread count.
pub fn run_scenario_with(
    def: &ScenarioDef,
    progress: impl FnMut(usize, usize, &CellReport),
) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_controlled(def, &RunControls::default(), progress)
}

/// Crash-safety controls for [`run_scenario_controlled`]: where (and
/// whether) to journal completed cells, whether to resume from an
/// existing journal, and an optional fault-injection plan for tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControls<'a> {
    /// Journal completed cells into this directory (`campaign.journal`
    /// inside it). `None` = no checkpointing.
    pub checkpoint: Option<&'a Path>,
    /// Replay the journal first and run only the missing cells. Without
    /// this flag an existing journal is overwritten.
    pub resume: bool,
    /// Deterministic fault injection (tests and the crash-resume CI job).
    pub faults: Option<&'a FaultPlan>,
}

/// Wall-clock budget state of one in-flight cell: the clock starts when
/// the cell's first run starts, and is checked before each later run.
/// Inherently host-dependent — see
/// [`CheckpointSpec`](crate::scenario::CheckpointSpec).
#[derive(Debug, Default)]
struct CellClock {
    started: std::sync::OnceLock<std::time::Instant>,
}

impl CellClock {
    fn begin(&self) {
        self.started.get_or_init(std::time::Instant::now);
    }

    fn expired(&self, budget_ms: u64) -> bool {
        self.started
            .get()
            .is_some_and(|t| t.elapsed().as_millis() as u64 > budget_ms)
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The full crash-safe scenario executor: [`run_scenario_with`] plus
/// checkpoint/resume journaling and per-cell fault containment.
///
/// * **Streaming aggregation** — every finished `(cell, run)` is folded
///   into its cell's `CellAccumulator` the moment it lands; raw
///   [`RunResult`]s are never retained. Reduction happens in run-index
///   order, so reports are bit-identical for any thread count.
/// * **Checkpointing** — with `controls.checkpoint`, each completed cell
///   is appended (fsynced, CRC-guarded) to the journal before the next
///   result is consumed. With `controls.resume`, journaled cells are
///   replayed and skipped; normalization runs at the end over the merged
///   set, so an interrupted-and-resumed campaign reports **bit-for-bit**
///   the same as a single-shot one.
/// * **Fault containment** — each run executes under [`catch_unwind`];
///   panicking runs and budget-tripped cells degrade into
///   [`CellOutcome`] rows instead of aborting the campaign.
///
/// # Errors
///
/// Propagates expansion/baseline errors like [`run_scenario`], plus
/// journal I/O errors (unwritable directory, mismatched scenario hash) —
/// and an `interrupted:` error when a [`FaultPlan`] kill-point fires
/// (the journal stays valid for a subsequent resume).
pub fn run_scenario_controlled(
    def: &ScenarioDef,
    controls: &RunControls<'_>,
    mut progress: impl FnMut(usize, usize, &CellReport),
) -> Result<ScenarioReport, ScenarioError> {
    let mut cells = def.expand()?;
    let total = cells.len();
    let runs = def.runs;
    let threads = def.threads.unwrap_or_else(default_threads);
    let run_budget = def.checkpoint.run_budget_cycles;
    if let Some(budget) = run_budget {
        // The deterministic budget is just a tighter safety limit.
        for cell in &mut cells {
            cell.spec.max_cycles = cell.spec.max_cycles.min(budget);
        }
    }
    let default_plan = FaultPlan::default();
    let plan = controls.faults.unwrap_or(&default_plan);

    let mut reports: Vec<Option<CellReport>> = (0..total).map(|_| None).collect();
    let mut journal: Option<Journal> = None;
    // --checkpoint overrides the scenario's own [checkpoint] dir key.
    let def_dir = def.checkpoint.dir.as_ref().map(Path::new);
    if let Some(dir) = controls.checkpoint.or(def_dir) {
        let hash = def.scenario_hash();
        let (j, replay) = if controls.resume {
            Journal::resume(dir, hash, total, runs).map_err(ScenarioError::new)?
        } else {
            (
                Journal::create(dir, hash, total, runs).map_err(ScenarioError::new)?,
                crate::checkpoint::JournalReplay::default(),
            )
        };
        for notice in &replay.notices {
            eprintln!("cba: checkpoint: {notice}");
        }
        for (ci, report) in replay.cells {
            reports[ci] = Some(report);
        }
        journal = Some(j);
    }

    // Only the missing cells are scheduled: one flat task list, task i is
    // run (i % runs) of work[i / runs], seeded exactly as a single-shot
    // execution would seed it (seeds depend on the cell, not on the
    // schedule, which is what makes resume bit-exact).
    let work: Vec<usize> = (0..total).filter(|&ci| reports[ci].is_none()).collect();
    let mut done_cells = total - work.len();
    let mut pending: Vec<CellAccumulator> =
        work.iter().map(|_| CellAccumulator::new(runs)).collect();
    let clocks: Vec<CellClock> = work.iter().map(|_| CellClock::default()).collect();
    let budget_ms = def.checkpoint.cell_budget_ms;
    let mut journal_error: Option<String> = None;
    let mut killed: Option<usize> = None;
    run_indexed_streamed(
        work.len() * runs,
        threads,
        |i| {
            let wi = i / runs;
            let run = i % runs;
            let ci = work[wi];
            let cell = &cells[ci];
            if plan.forces_budget_trip(ci, run) {
                return RunOutcome::BudgetSkipped;
            }
            if let Some(ms) = budget_ms {
                if clocks[wi].expired(ms) {
                    return RunOutcome::BudgetSkipped;
                }
            }
            clocks[wi].begin();
            let seed = run_seed(cell.seed, run);
            match catch_unwind(AssertUnwindSafe(|| {
                if plan.panics_at(ci, run) {
                    panic!("injected fault (cell {ci}, run {run})");
                }
                run_once(&cell.spec, seed)
            })) {
                Ok(r) => RunOutcome::Done(Box::new(RunTally::from_run(r, &cell.spec, run_budget))),
                Err(payload) => RunOutcome::Panicked(panic_message(payload)),
            }
        },
        |i, outcome| {
            // After a simulated kill-point or a journal write failure the
            // campaign is "dead": drain remaining results without
            // journaling or reporting them.
            if killed.is_some() || journal_error.is_some() {
                return;
            }
            let wi = i / runs;
            let ci = work[wi];
            pending[wi].record(i % runs, outcome);
            if !pending[wi].is_complete() {
                return;
            }
            let cell = &cells[ci];
            let report = std::mem::take(&mut pending[wi]).finish(
                cell.labels.clone(),
                cell.seed,
                &def.report.percentiles,
                &def.report.pwcet,
                &cell.spec,
            );
            if let Some(j) = &mut journal {
                match j.append(ci, &report) {
                    Ok(()) => {
                        if plan.kills_after(j.records()) {
                            if plan.is_hard_kill() {
                                // True crash semantics: no unwinding, no
                                // cleanup, no flushing beyond the fsynced
                                // journal — as close to SIGKILL as the
                                // process can do to itself.
                                eprintln!(
                                    "cba: simulated crash after {} journal records",
                                    j.records()
                                );
                                std::process::abort();
                            }
                            killed = Some(j.records());
                            return;
                        }
                    }
                    Err(e) => {
                        journal_error = Some(e);
                        return;
                    }
                }
            }
            done_cells += 1;
            progress(done_cells, total, &report);
            reports[ci] = Some(report);
        },
    );
    if let Some(e) = journal_error {
        return Err(ScenarioError::new(e));
    }
    if let Some(records) = killed {
        return Err(ScenarioError::new(format!(
            "interrupted: simulated kill after {records} journal records"
        )));
    }
    let mut reports: Vec<CellReport> = reports
        .into_iter()
        .map(|r| r.expect("every cell completed"))
        .collect();
    normalize(&mut reports, &def.report.baseline)?;
    Ok(ScenarioReport {
        name: def.name.clone(),
        seed: def.seed,
        runs: def.runs,
        cells: reports,
    })
}

/// Divides every cell's mean by the mean of its group's baseline cell.
///
/// The group of a cell is the set of cells agreeing on every axis *not*
/// named by the selector; within a group the baseline is the cell whose
/// selector-axis labels match the selector values (case-insensitively,
/// against the canonical label).
fn normalize(cells: &mut [CellReport], baseline: &[(String, String)]) -> Result<(), ScenarioError> {
    if baseline.is_empty() || cells.is_empty() {
        return Ok(());
    }
    let group_key = |cell: &CellReport| -> Vec<(String, String)> {
        cell.labels
            .iter()
            .filter(|(k, _)| !baseline.iter().any(|(bk, _)| bk == k))
            .cloned()
            .collect()
    };
    let is_baseline = |cell: &CellReport| -> bool {
        baseline.iter().all(|(bk, bv)| {
            cell.label(bk)
                .is_some_and(|label| label.eq_ignore_ascii_case(bv))
        })
    };
    // Resolve each group's baseline mean first (groups are tiny: linear
    // scans beat building a map keyed by label vectors).
    let base_means: Vec<Option<f64>> = cells
        .iter()
        .map(|cell| {
            let key = group_key(cell);
            cells
                .iter()
                .find(|c| is_baseline(c) && group_key(c) == key)
                .map(|c| c.mean)
        })
        .collect();
    for (cell, base) in cells.iter_mut().zip(base_means) {
        let base = base.ok_or_else(|| {
            let selector: Vec<String> = baseline.iter().map(|(k, v)| format!("{k}={v}")).collect();
            ScenarioError::new(format!(
                "baseline [{}] matches no cell in the group of [{}]",
                selector.join(", "),
                cell.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        cell.normalized = Some(cell.mean / base);
        cell.normalized_ci95 = Some(cell.ci95 / base);
    }
    Ok(())
}

impl ScenarioReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                for (k, v) in &c.labels {
                    pairs.push((k.clone(), Json::str(v.clone())));
                }
                pairs.push(("seed".into(), Json::Num(c.seed as f64)));
                pairs.push(("runs".into(), Json::Num(c.runs as f64)));
                pairs.push(("unfinished".into(), Json::Num(c.unfinished as f64)));
                pairs.push(("outcome".into(), Json::str(c.outcome.label())));
                if let CellOutcome::Panicked(msg) = &c.outcome {
                    pairs.push(("panic".into(), Json::str(msg.clone())));
                }
                if c.panicked > 0 {
                    pairs.push(("panicked_runs".into(), Json::Num(c.panicked as f64)));
                }
                if c.budget_trips > 0 {
                    pairs.push((
                        "budget_tripped_runs".into(),
                        Json::Num(c.budget_trips as f64),
                    ));
                }
                pairs.push(("mean_cycles".into(), Json::Num(c.mean)));
                pairs.push(("ci95".into(), Json::Num(c.ci95)));
                pairs.push(("min".into(), Json::Num(c.min)));
                pairs.push(("max".into(), Json::Num(c.max)));
                for (q, v) in &c.percentiles {
                    pairs.push((format!("p{}", fmt_quantile(*q)), Json::Num(*v)));
                }
                pairs.push(("utilization".into(), Json::Num(c.utilization)));
                pairs.push(("normalized".into(), Json::opt_num(c.normalized)));
                pairs.push(("normalized_ci95".into(), Json::opt_num(c.normalized_ci95)));
                if let Some(b) = c.tua_max_burst {
                    pairs.push(("tua_max_burst".into(), Json::Num(b)));
                }
                if let Some(g) = c.contender_max_gap {
                    pairs.push(("contender_max_gap".into(), Json::Num(g)));
                }
                if let Some(shares) = &c.cluster_shares {
                    pairs.push((
                        "cluster_shares".into(),
                        Json::Arr(shares.iter().map(|&s| Json::Num(s)).collect()),
                    ));
                }
                if let Some(f) = c.cluster_fairness {
                    pairs.push(("cluster_fairness".into(), Json::Num(f)));
                }
                if let Some(jain) = &c.window_jain {
                    pairs.push((
                        "window_jain".into(),
                        Json::Arr(jain.iter().map(|&j| Json::Num(j)).collect()),
                    ));
                    if let Some(mean) = c.window_jain_mean() {
                        pairs.push(("window_jain_mean".into(), Json::Num(mean)));
                    }
                    if let Some(min) = c.window_jain_min() {
                        pairs.push(("window_jain_min".into(), Json::Num(min)));
                    }
                }
                if let Some(shares) = &c.window_shares {
                    pairs.push((
                        "window_shares".into(),
                        Json::Arr(
                            shares
                                .iter()
                                .map(|row| Json::Arr(row.iter().map(|&s| Json::Num(s)).collect()))
                                .collect(),
                        ),
                    ));
                }
                if let Some(p) = &c.pwcet {
                    match &p.fit {
                        Some(f) => {
                            for (prob, bound) in p.probs.iter().zip(&f.bounds) {
                                pairs.push((
                                    format!("pwcet@{}", fmt_prob(*prob)),
                                    Json::Num(*bound),
                                ));
                            }
                            pairs.push(("gumbel_mu".into(), Json::Num(f.mu)));
                            pairs.push(("gumbel_beta".into(), Json::Num(f.beta)));
                            pairs.push(("gumbel_blocks".into(), Json::Num(f.blocks as f64)));
                            pairs.push(("iid_ks_p".into(), Json::Num(f.ks_p)));
                            pairs.push(("iid_lb_p".into(), Json::Num(f.lb_p)));
                            pairs.push(("iid_runs_p".into(), Json::Num(f.runs_p)));
                            pairs.push(("iid_ok".into(), Json::Bool(f.iid_ok)));
                        }
                        None => {
                            if let Some(d) = &p.diag {
                                pairs.push(("pwcet_diag".into(), Json::str(d.clone())));
                            }
                        }
                    }
                }
                if let Some(m) = c.mem_miss_rate {
                    pairs.push(("mem_miss_rate".into(), Json::Num(m)));
                }
                if let Some(m) = c.mem_coherence_frac {
                    pairs.push(("mem_coherence_frac".into(), Json::Num(m)));
                }
                if let Some(m) = c.mem_writebacks {
                    pairs.push(("mem_writebacks".into(), Json::Num(m)));
                }
                Json::Obj(pairs)
            })
            .collect();
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("runs_per_cell", Json::Num(self.runs as f64)),
            ("cells", Json::Arr(cells)),
        ])
        .render()
    }

    /// Renders the report as CSV: one header row (axis keys, then the
    /// statistics), one row per cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let Some(first) = self.cells.first() else {
            return out;
        };
        let mut header: Vec<String> = first.labels.iter().map(|(k, _)| k.clone()).collect();
        header.extend(
            [
                "seed",
                "runs",
                "unfinished",
                "outcome",
                "mean_cycles",
                "ci95",
                "min",
                "max",
            ]
            .map(String::from),
        );
        for (q, _) in &first.percentiles {
            header.push(format!("p{}", fmt_quantile(*q)));
        }
        header.extend(["utilization", "normalized", "normalized_ci95"].map(String::from));
        let trace = first.tua_max_burst.is_some();
        if trace {
            header.extend(["tua_max_burst", "contender_max_gap"].map(String::from));
        }
        // Column count must cover every cell: a `clusters` sweep makes the
        // share vectors ragged, and shorter cells pad with empty fields.
        let clusters = self
            .cells
            .iter()
            .map(|c| c.cluster_shares.as_ref().map(Vec::len).unwrap_or(0))
            .max()
            .unwrap_or(0);
        for k in 0..clusters {
            header.push(format!("cluster{k}_share"));
        }
        if clusters > 0 {
            header.push("cluster_fairness".into());
        }
        let windowed = self.cells.iter().any(|c| c.window_jain.is_some());
        if windowed {
            header.extend(["window_jain_mean", "window_jain_min"].map(String::from));
        }
        // `[report] pwcet` applies scenario-wide, so every cell agrees
        // on the probability list; cells whose fit failed pad the value
        // columns empty and fill `pwcet_diag` instead.
        let pwcet_probs = self
            .cells
            .iter()
            .find_map(|c| c.pwcet.as_ref())
            .map(|p| p.probs.clone())
            .unwrap_or_default();
        if !pwcet_probs.is_empty() {
            for p in &pwcet_probs {
                header.push(format!("pwcet@{}", fmt_prob(*p)));
            }
            header.extend(
                [
                    "gumbel_mu",
                    "gumbel_beta",
                    "gumbel_blocks",
                    "iid_ks_p",
                    "iid_lb_p",
                    "iid_runs_p",
                    "iid_ok",
                    "pwcet_diag",
                ]
                .map(String::from),
            );
        }
        // Gated on any cell carrying memory stats, so baseline campaigns
        // keep their exact pre-memory column set.
        let mem = self.cells.iter().any(|c| c.mem_miss_rate.is_some());
        if mem {
            header.extend(
                ["mem_miss_rate", "mem_coherence_frac", "mem_writebacks"].map(String::from),
            );
        }
        out.push_str(&header.join(","));
        out.push('\n');
        for c in &self.cells {
            let mut row: Vec<String> = c.labels.iter().map(|(_, v)| csv_field(v)).collect();
            row.push(c.seed.to_string());
            row.push(c.runs.to_string());
            row.push(c.unfinished.to_string());
            row.push(c.outcome.label().to_string());
            row.push(fmt_number(c.mean));
            row.push(fmt_number(c.ci95));
            row.push(fmt_number(c.min));
            row.push(fmt_number(c.max));
            for (_, v) in &c.percentiles {
                row.push(fmt_number(*v));
            }
            row.push(fmt_number(c.utilization));
            row.push(c.normalized.map(fmt_number).unwrap_or_default());
            row.push(c.normalized_ci95.map(fmt_number).unwrap_or_default());
            if trace {
                row.push(c.tua_max_burst.map(fmt_number).unwrap_or_default());
                row.push(c.contender_max_gap.map(fmt_number).unwrap_or_default());
            }
            if clusters > 0 {
                let shares = c.cluster_shares.as_deref().unwrap_or(&[]);
                for k in 0..clusters {
                    row.push(shares.get(k).copied().map(fmt_number).unwrap_or_default());
                }
                row.push(c.cluster_fairness.map(fmt_number).unwrap_or_default());
            }
            if windowed {
                row.push(c.window_jain_mean().map(fmt_number).unwrap_or_default());
                row.push(c.window_jain_min().map(fmt_number).unwrap_or_default());
            }
            if !pwcet_probs.is_empty() {
                let fit = c.pwcet.as_ref().and_then(|p| p.fit.as_ref());
                match fit {
                    Some(f) => {
                        for b in &f.bounds {
                            row.push(fmt_number(*b));
                        }
                        row.push(fmt_number(f.mu));
                        row.push(fmt_number(f.beta));
                        row.push(f.blocks.to_string());
                        row.push(fmt_number(f.ks_p));
                        row.push(fmt_number(f.lb_p));
                        row.push(fmt_number(f.runs_p));
                        row.push(if f.iid_ok { "pass" } else { "fail" }.into());
                        row.push(String::new());
                    }
                    None => {
                        for _ in 0..pwcet_probs.len() + 7 {
                            row.push(String::new());
                        }
                        let diag = c.pwcet.as_ref().and_then(|p| p.diag.as_deref());
                        row.push(csv_field(diag.unwrap_or_default()));
                    }
                }
            }
            if mem {
                row.push(c.mem_miss_rate.map(fmt_number).unwrap_or_default());
                row.push(c.mem_coherence_frac.map(fmt_number).unwrap_or_default());
                row.push(c.mem_writebacks.map(fmt_number).unwrap_or_default());
            }
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders a fixed-width terminal table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — {} cells, {} runs each, seed {}",
            self.name,
            self.cells.len(),
            self.runs,
            self.seed
        );
        let normalized = self.cells.iter().any(|c| c.normalized.is_some());
        for c in &self.cells {
            let label = if c.labels.is_empty() {
                "(single cell)".to_string()
            } else {
                c.labels
                    .iter()
                    .map(|(_, v)| v.clone())
                    .collect::<Vec<_>>()
                    .join(" · ")
            };
            let _ = write!(out, "  {label:<32} {:>12.1} ±{:>8.1}", c.mean, c.ci95);
            if normalized {
                match c.normalized {
                    Some(n) => {
                        let _ = write!(out, "  {n:>6.3}x");
                    }
                    None => {
                        let _ = write!(out, "        ");
                    }
                }
            }
            if let Some(shares) = &c.cluster_shares {
                let rendered: Vec<String> = shares.iter().map(|s| format!("{s:.3}")).collect();
                let _ = write!(out, "  shares {}", rendered.join("/"));
            }
            if let (Some(mean), Some(min)) = (c.window_jain_mean(), c.window_jain_min()) {
                let _ = write!(out, "  winJ {mean:.3}/{min:.3}");
            }
            if let Some(p) = &c.pwcet {
                match (&p.fit, p.probs.last()) {
                    (Some(f), Some(&prob)) => {
                        let bound = f.bounds.last().copied().unwrap_or(f64::NAN);
                        let _ = write!(
                            out,
                            "  pWCET@{} {bound:.0}{}",
                            fmt_prob(prob),
                            if f.iid_ok { "" } else { " (iid?)" }
                        );
                    }
                    _ => {
                        if let Some(d) = &p.diag {
                            let _ = write!(out, "  [pwcet: {d}]");
                        }
                    }
                }
            }
            if let (Some(miss), Some(coh)) = (c.mem_miss_rate, c.mem_coherence_frac) {
                let _ = write!(out, "  miss {miss:.3} coh {coh:.3}");
            }
            if c.unfinished > 0 {
                let _ = write!(out, "  [{} unfinished]", c.unfinished);
            }
            match &c.outcome {
                CellOutcome::Ok => {}
                CellOutcome::Panicked(msg) => {
                    let _ = write!(out, "  [PANICKED x{}: {msg}]", c.panicked);
                }
                CellOutcome::Budget => {
                    let _ = write!(out, "  [budget x{}]", c.budget_trips);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// `1e-9`-style exceedance-probability labels for `pwcet@P` columns;
/// `{:e}` round-trips through parse, so scenario files, column names and
/// canonical renders all agree.
fn fmt_prob(p: f64) -> String {
    format!("{p:e}")
}

/// `0.95` → `"95"`, `0.999` → `"99.9"` (for `p95` / `p99.9` column names).
fn fmt_quantile(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as i64)
    } else {
        format!("{pct}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioDef;

    fn tiny_def(extra: &str) -> ScenarioDef {
        let text = format!(
            "[campaign]\nname = tiny\nruns = 2\nseed = 5\n[tua]\nload = fixed:40:6:4\n{extra}"
        );
        ScenarioDef::parse(&text).unwrap()
    }

    #[test]
    fn single_cell_report_has_statistics() {
        let report = run_scenario(&tiny_def("")).unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.runs, 2);
        assert!(cell.mean > 0.0);
        assert!(cell.min <= cell.mean && cell.mean <= cell.max);
        assert_eq!(cell.percentiles.len(), 3, "default percentiles 50/95/99");
        assert!(cell.normalized.is_none(), "no baseline configured");
    }

    #[test]
    fn runs_are_reproducible_across_invocations() {
        let a = run_scenario(&tiny_def("[sweep]\nsetup = rp,cba\n")).unwrap();
        let b = run_scenario(&tiny_def("[sweep]\nsetup = rp,cba\n")).unwrap();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.mean, y.mean);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn baseline_normalization_matches_group() {
        let def = tiny_def(
            "[sweep]\nsetup = rp,cba\nscenario = iso,con\n[report]\nbaseline = setup=rp,scenario=iso\n",
        );
        let report = run_scenario(&def).unwrap();
        assert_eq!(report.cells.len(), 4);
        let rp_iso = &report.cells[0];
        assert_eq!(rp_iso.label("setup"), Some("RP"));
        assert_eq!(rp_iso.label("scenario"), Some("ISO"));
        assert_eq!(rp_iso.normalized, Some(1.0), "baseline normalizes to 1");
        for c in &report.cells {
            let expect = c.mean / rp_iso.mean;
            assert!((c.normalized.unwrap() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn missing_baseline_is_an_error() {
        let def = tiny_def("[sweep]\nsetup = rp,cba\n[report]\nbaseline = setup=hcba\n");
        let err = run_scenario(&def).unwrap_err();
        assert!(err.msg.contains("matches no cell"), "{err}");
    }

    #[test]
    fn json_and_csv_outputs_are_well_formed() {
        let def = tiny_def("[sweep]\nsetup = rp,cba\n[report]\nbaseline = setup=rp\n");
        let report = run_scenario(&def).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"name\": \"tiny\""));
        assert!(json.contains("\"setup\": \"RP\""));
        assert!(json.contains("\"normalized\": 1"));
        assert!(json.contains("\"p95\":"));

        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "setup,seed,runs,unfinished,outcome,mean_cycles,ci95,min,max,p50,p95,p99,utilization,normalized,normalized_ci95"
        );
        assert_eq!(lines.count(), 2, "one row per cell");
    }

    #[test]
    fn trace_cells_expose_burst_metrics() {
        let def = tiny_def("[contenders]\ntrace = on\n");
        let report = run_scenario(&def).unwrap();
        let cell = &report.cells[0];
        assert!(cell.tua_max_burst.is_some());
        assert!(cell.contender_max_gap.is_some());
        let csv = report.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("tua_max_burst,contender_max_gap"));
    }

    #[test]
    fn csv_covers_the_widest_cell_of_a_cluster_sweep() {
        let text = "\
[campaign]
runs = 1
[platform]
policy = rr
[topology]
clusters = 2
cores_per_cluster = 2
backbone_cba = homog
[tua]
load = fixed:10:5:0
[contenders]
fill = sat:28
wcet = off
stop = horizon:2000
[sweep]
clusters = 2,4
";
        let report = run_scenario(&ScenarioDef::parse(text).unwrap()).unwrap();
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert!(
            header.contains(&"cluster3_share"),
            "header must cover the 4-cluster cell: {header:?}"
        );
        // Every row has the full column set; the 2-cluster cell pads its
        // missing shares with empty fields.
        let row2: Vec<&str> = lines.next().unwrap().split(',').collect();
        let row4: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row2.len(), header.len());
        assert_eq!(row4.len(), header.len());
        let col = header.iter().position(|&h| h == "cluster3_share").unwrap();
        assert!(row2[col].is_empty(), "2-cluster cell pads: {row2:?}");
        assert!(!row4[col].is_empty(), "4-cluster cell fills: {row4:?}");
    }

    #[test]
    fn windowed_cells_expose_jain_series_in_every_export() {
        let text = "\
[campaign]
name = windowed
runs = 2
seed = 9
[platform]
policy = rr
[tua]
load = sat:5
[contenders]
fill = sat:56
wcet = off
stop = horizon:20000
[sweep]
cba = none,homog
[report]
windows = 4
";
        let report = run_scenario(&ScenarioDef::parse(text).unwrap()).unwrap();
        for cell in &report.cells {
            let jain = cell.window_jain.as_ref().expect("windowed cell");
            assert_eq!(jain.len(), 4);
            let shares = cell.window_shares.as_ref().expect("windowed cell");
            assert_eq!(shares.len(), 4);
            assert_eq!(shares[0].len(), 4, "one share per core");
            assert!(cell.window_jain_mean().unwrap() > 0.0);
            assert!(cell.window_jain_min().unwrap() <= cell.window_jain_mean().unwrap());
        }
        // The credit filter improves windowed fairness for this 5-vs-56
        // mix (the paper's core claim, now visible per window).
        let none = report.cells[0].window_jain_mean().unwrap();
        let homog = report.cells[1].window_jain_mean().unwrap();
        assert!(
            homog > none,
            "CBA must beat no-filter per-window: {homog} vs {none}"
        );

        let json = report.to_json();
        assert!(json.contains("\"window_jain\""), "{json}");
        assert!(json.contains("\"window_shares\""), "{json}");
        let csv = report.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(
            header.ends_with("window_jain_mean,window_jain_min"),
            "{header}"
        );
        let table = report.render_table();
        assert!(table.contains("winJ "), "{table}");
    }

    #[test]
    fn table_renders_one_line_per_cell() {
        let def = tiny_def("[sweep]\nscenario = iso,con\n");
        let report = run_scenario(&def).unwrap();
        let table = report.render_table();
        assert!(table.contains("ISO"));
        assert!(table.contains("CON"));
        assert_eq!(table.lines().count(), 3, "header + two cells");
    }
}
