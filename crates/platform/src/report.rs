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
//! terminal. JSON, CSV and the checkpoint journal all read a cell through
//! one list, [`CellReport::columns`].

use crate::campaign::run_seed;
use crate::checkpoint::{FaultPlan, Journal};
use crate::executor::{default_threads, run_indexed_streamed};
use crate::platform::{run_once, RunResult, RunSpec};
use crate::probes::WindowedFairness;
use crate::scenario::{Cell, CheckpointSpec, ReportSpec, ScenarioDef, ScenarioError};
use cba_mbpta::pwcet::{MbptaConfig, PWcetModel};
use sim_core::agent::MemStats;
use sim_core::export::{csv_field, fmt_number, Json};
use sim_core::stats::{percentile_sorted, Summary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// How a cell's campaign ended: the per-cell fault-containment status.
///
/// A degraded campaign reports *which* cells failed instead of aborting —
/// a panicking run is caught ([`catch_unwind`]) and a budget-tripped cell
/// is cut short, and either way the cell still produces a report row
/// carrying this status through JSON (`"outcome"`), CSV (the `outcome`
/// column) and the terminal table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CellOutcome {
    /// Every run executed normally.
    #[default]
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
    pub(crate) fn label(&self) -> &'static str {
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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The typed value of one report column (see [`CellReport::columns`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact integer, never rounded through `f64`.
    Int(u64),
    /// A float; non-finite values export as JSON `null` and an empty CSV
    /// field.
    Num(f64),
    /// Text.
    Text(String),
    /// The iid verdict: JSON `true`/`false`, CSV `pass`/`fail`.
    Verdict(bool),
    /// One float per cluster or window.
    Series(Vec<f64>),
    /// Floats by window and core.
    Matrix(Vec<Vec<f64>>),
    /// Floats keyed by quantile or probability: the keys, and the values
    /// unless the cell has none (then every field is blank).
    Keyed(Vec<f64>, Option<Vec<f64>>),
    /// Present but blank: an empty CSV field and no JSON key.
    Blank,
}

/// Where a report column shows.
#[derive(Debug, Clone, Copy)]
pub enum Show {
    /// A JSON key and a CSV field; a cell without the column omits the
    /// key and leaves the field empty.
    Both,
    /// A JSON key only.
    JsonOnly,
    /// A JSON key (`null` when absent) and a CSV field, in every cell.
    Always,
    /// One JSON key and CSV field per key of a [`Value::Keyed`], or a
    /// [`Value::Series`] as one JSON array and one CSV field per element;
    /// the function names the field of a key or an element index.
    Split(fn(f64) -> String),
}

/// One column of a [`CellReport`].
#[derive(Debug, Clone)]
pub struct Column {
    /// The JSON key and CSV header, and the name the checkpoint journal
    /// records. A [`Show::Split`] column names its per-key or per-element
    /// fields with its function; a keyed one carries its documented
    /// pattern (`pNN`, `pwcet@P`) here.
    pub name: &'static str,
    /// Where the column shows.
    pub show: Show,
    /// The cell's value; `None` when the cell lacks the column.
    pub value: Option<Value>,
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
    pub(crate) fn window_jain_mean(&self) -> Option<f64> {
        let jain = self.window_jain.as_ref()?;
        if jain.is_empty() {
            return None;
        }
        Some(jain.iter().sum::<f64>() / jain.len() as f64)
    }

    /// Worst (smallest) per-window Jain index (windowed cells only).
    pub(crate) fn window_jain_min(&self) -> Option<f64> {
        let jain = self.window_jain.as_ref()?;
        jain.iter().copied().reduce(f64::min)
    }

    /// Every column this build knows, in export order, with this cell's
    /// values. JSON, CSV and the checkpoint journal are written from this
    /// list, and `restore` reads it back.
    pub fn columns(&self) -> Vec<Column> {
        use Show::{Always, Both, JsonOnly, Split};
        use Value::*;
        let col = |name, show, value| Column { name, show, value };
        let num = |x: Option<f64>| x.map(Num);
        let count = |n: usize| (n > 0).then_some(Int(n as u64));
        // The fit columns of a cell whose pWCET fit failed are blank.
        let fit = |f: fn(&PwcetFit) -> Value| {
            let p = self.pwcet.as_ref()?;
            Some(p.fit.as_ref().map_or(Blank, f))
        };
        let panic = match &self.outcome {
            CellOutcome::Panicked(msg) => Some(Text(msg.clone())),
            _ => None,
        };
        let (qs, pcts) = self.percentiles.iter().copied().unzip();
        let bounds = self.pwcet.as_ref().map(|p| {
            let fit = p.fit.as_ref().map(|f| f.bounds.clone());
            Keyed(p.probs.clone(), fit)
        });
        let diag = self
            .pwcet
            .as_ref()
            .map(|p| p.diag.clone().map_or(Blank, Text));
        let series = |xs: &Option<Vec<f64>>| xs.clone().map(Series);
        let matrix = self.window_shares.clone().map(Matrix);
        let per_quantile = Split(|q| format!("p{}", fmt_quantile(q)));
        let per_cluster = Split(|k| format!("cluster{k}_share"));
        let per_prob = Split(|p| format!("pwcet@{}", fmt_prob(p)));
        vec![
            col("seed", Both, Some(Int(self.seed))),
            col("runs", Both, Some(Int(self.runs as u64))),
            col("unfinished", Both, Some(Int(self.unfinished as u64))),
            col("outcome", Both, Some(Text(self.outcome.label().into()))),
            col("panic", JsonOnly, panic),
            col("panicked_runs", JsonOnly, count(self.panicked)),
            col("budget_tripped_runs", JsonOnly, count(self.budget_trips)),
            col("mean_cycles", Both, Some(Num(self.mean))),
            col("ci95", Both, Some(Num(self.ci95))),
            col("min", Both, Some(Num(self.min))),
            col("max", Both, Some(Num(self.max))),
            col("pNN", per_quantile, Some(Keyed(qs, Some(pcts)))),
            col("utilization", Both, Some(Num(self.utilization))),
            col("normalized", Always, num(self.normalized)),
            col("normalized_ci95", Always, num(self.normalized_ci95)),
            col("tua_max_burst", Both, num(self.tua_max_burst)),
            col("contender_max_gap", Both, num(self.contender_max_gap)),
            col("cluster_shares", per_cluster, series(&self.cluster_shares)),
            col("cluster_fairness", Both, num(self.cluster_fairness)),
            col("window_jain", JsonOnly, series(&self.window_jain)),
            // Derived from `window_jain`; restore skips them.
            col("window_jain_mean", Both, num(self.window_jain_mean())),
            col("window_jain_min", Both, num(self.window_jain_min())),
            col("window_shares", JsonOnly, matrix),
            col("pwcet@P", per_prob, bounds),
            col("gumbel_mu", Both, fit(|f| Num(f.mu))),
            col("gumbel_beta", Both, fit(|f| Num(f.beta))),
            col("gumbel_blocks", Both, fit(|f| Int(f.blocks.into()))),
            col("iid_ks_p", Both, fit(|f| Num(f.ks_p))),
            col("iid_lb_p", Both, fit(|f| Num(f.lb_p))),
            col("iid_runs_p", Both, fit(|f| Num(f.runs_p))),
            col("iid_ok", Both, fit(|f| Verdict(f.iid_ok))),
            col("pwcet_diag", Both, diag),
            col("mem_miss_rate", Both, num(self.mem_miss_rate)),
            col("mem_coherence_frac", Both, num(self.mem_coherence_frac)),
            col("mem_writebacks", Both, num(self.mem_writebacks)),
        ]
    }

    /// Sets the field behind column `name` from `value`: the inverse of
    /// [`columns`](Self::columns), which rebuilds a journaled cell on a
    /// [`CellReport::default`]. An absent or blank value leaves the field
    /// as it is.
    ///
    /// # Errors
    ///
    /// An unknown column, a value of the wrong type for the column, an
    /// unknown outcome label, or a pWCET fit column without the fitted
    /// `pwcet@P` bounds before it.
    pub(crate) fn restore(&mut self, name: &str, value: Option<Value>) -> Result<(), String> {
        use Value::*;
        let Some(value) = value else {
            return Ok(());
        };
        match (name, value) {
            (_, Blank) | ("window_jain_mean" | "window_jain_min", Num(_)) => {}
            ("seed", Int(x)) => self.seed = x,
            ("runs", Int(x)) => self.runs = exact(x)?,
            ("unfinished", Int(x)) => self.unfinished = exact(x)?,
            ("outcome", Text(label)) => {
                self.outcome = match label.as_str() {
                    "ok" => CellOutcome::Ok,
                    "budget" => CellOutcome::Budget,
                    "panicked" => CellOutcome::Panicked(String::new()),
                    other => return Err(format!("unknown outcome `{other}`")),
                }
            }
            ("panic", Text(msg)) => self.outcome = CellOutcome::Panicked(msg),
            ("panicked_runs", Int(x)) => self.panicked = exact(x)?,
            ("budget_tripped_runs", Int(x)) => self.budget_trips = exact(x)?,
            ("mean_cycles", Num(x)) => self.mean = x,
            ("ci95", Num(x)) => self.ci95 = x,
            ("min", Num(x)) => self.min = x,
            ("max", Num(x)) => self.max = x,
            ("pNN", Keyed(qs, Some(pcts))) => self.percentiles = qs.into_iter().zip(pcts).collect(),
            ("utilization", Num(x)) => self.utilization = x,
            ("normalized", Num(x)) => self.normalized = Some(x),
            ("normalized_ci95", Num(x)) => self.normalized_ci95 = Some(x),
            ("tua_max_burst", Num(x)) => self.tua_max_burst = Some(x),
            ("contender_max_gap", Num(x)) => self.contender_max_gap = Some(x),
            ("cluster_shares", Series(xs)) => self.cluster_shares = Some(xs),
            ("cluster_fairness", Num(x)) => self.cluster_fairness = Some(x),
            ("window_jain", Series(xs)) => self.window_jain = Some(xs),
            ("window_shares", Matrix(rows)) => self.window_shares = Some(rows),
            ("pwcet@P", Keyed(probs, bounds)) => {
                let fit = bounds.map(|bounds| PwcetFit {
                    bounds,
                    ..PwcetFit::default()
                });
                self.pwcet = Some(PwcetCell {
                    probs,
                    fit,
                    diag: None,
                });
            }
            ("gumbel_mu", Num(x)) => self.pwcet_fit()?.mu = x,
            ("gumbel_beta", Num(x)) => self.pwcet_fit()?.beta = x,
            ("gumbel_blocks", Int(x)) => self.pwcet_fit()?.blocks = exact(x)?,
            ("iid_ks_p", Num(x)) => self.pwcet_fit()?.ks_p = x,
            ("iid_lb_p", Num(x)) => self.pwcet_fit()?.lb_p = x,
            ("iid_runs_p", Num(x)) => self.pwcet_fit()?.runs_p = x,
            ("iid_ok", Verdict(ok)) => self.pwcet_fit()?.iid_ok = ok,
            ("pwcet_diag", Text(diag)) => match &mut self.pwcet {
                Some(p) => p.diag = Some(diag),
                None => return Err("no `pwcet@P` keys before it".into()),
            },
            ("mem_miss_rate", Num(x)) => self.mem_miss_rate = Some(x),
            ("mem_coherence_frac", Num(x)) => self.mem_coherence_frac = Some(x),
            ("mem_writebacks", Num(x)) => self.mem_writebacks = Some(x),
            _ => return Err("unknown column, or a value of the wrong type".into()),
        }
        Ok(())
    }

    fn pwcet_fit(&mut self) -> Result<&mut PwcetFit, String> {
        let fit = self.pwcet.as_mut().and_then(|p| p.fit.as_mut());
        fit.ok_or_else(|| "no fitted `pwcet@P` bounds before it".into())
    }

    /// Aggregates a finished campaign into a report cell. The `spec`
    /// decides which optional summaries are extracted: burst/starvation
    /// metrics for trace-recording cells, per-cluster shares and the
    /// cross-cluster fairness index for fabric cells.
    ///
    /// Delegates to the same streaming `CellAccumulator` the scenario
    /// engine folds live runs into, so runs collected by hand and a grid
    /// cell share one aggregation path (and one set of numerics).
    pub fn from_campaign(
        labels: Vec<(String, String)>,
        seed: u64,
        result: &crate::campaign::CampaignResult,
        qs: &[f64],
        spec: &RunSpec,
    ) -> CellReport {
        let mut acc = CellAccumulator::new(spec);
        for r in &result.runs {
            acc.fold(RunOutcome::Done(RunTally::from_run(r.clone(), spec, None)));
        }
        acc.finish(labels, seed, qs, &[], spec)
    }
}

/// One finished run, reduced to the few scalars (and small window/cluster
/// vectors) the cell-level statistics need. Reducing each [`RunResult`]
/// to a `RunTally` on the worker that ran it lets the engine drop the
/// per-core trace vectors immediately instead of retaining every raw run
/// of every in-flight cell.
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
    Done(RunTally),
    /// The run panicked; the payload message was captured.
    Panicked(String),
    /// The run was skipped by a wall-clock budget or a forced fault-plan
    /// trip before it started.
    BudgetSkipped,
}

/// Streaming per-cell aggregation: each run's outcome is folded in as it
/// lands, and runs land in run-index order (the executor hands results on
/// in index order). f64 accumulation is order-sensitive, so index-order
/// folding is what keeps cell statistics bit-identical across thread
/// counts and across interrupted-and-resumed executions. Of each run the
/// accumulator keeps only its `u64` sample, which the percentiles and the
/// pWCET fit need.
#[derive(Debug, Default)]
pub(crate) struct CellAccumulator {
    // Samples stay u64 (exact) until each consumer's conversion point:
    // the Welford summary converts per value (exact below 2^53, same as
    // the simulator's own cycle arithmetic), the percentile sort runs on
    // u64, and the pWCET fit guards the conversion explicitly.
    samples: Vec<u64>,
    summary: Summary,
    unfinished: usize,
    panicked: usize,
    first_panic: Option<String>,
    budget_trips: usize,
    n_done: usize,
    util_sum: f64,
    burst_sum: f64,
    gap_sum: f64,
    cluster_sum: Option<Vec<f64>>,
    // Memory counters accumulate as exact u64 sums (not per-run floats),
    // so the derived ratios are thread-count-independent.
    mem_sum: Option<MemStats>,
    mem_runs: usize,
    window_jain_sum: Option<Vec<f64>>,
    window_share_sum: Option<Vec<Vec<f64>>>,
    windows_counted: usize,
}

impl CellAccumulator {
    /// An empty accumulator for a cell of `spec`.
    pub(crate) fn new(spec: &RunSpec) -> CellAccumulator {
        let topology = spec.platform.topology.as_ref();
        let windows = spec.windows.map(|w| w as usize);
        CellAccumulator {
            cluster_sum: topology.map(|topo| vec![0.0; topo.clusters]),
            window_jain_sum: windows.map(|w| vec![0.0; w]),
            window_share_sum: windows.map(|w| vec![vec![0.0; spec.platform.n_cores]; w]),
            ..CellAccumulator::default()
        }
    }

    /// Folds in the cell's next run.
    pub(crate) fn fold(&mut self, outcome: RunOutcome) {
        match outcome {
            RunOutcome::Done(t) => {
                self.n_done += 1;
                match t.sample {
                    Some(s) => {
                        self.samples.push(s);
                        self.summary.record(s as f64);
                    }
                    None => self.unfinished += 1,
                }
                if t.budget_tripped {
                    self.budget_trips += 1;
                }
                self.util_sum += t.utilization;
                if let Some(b) = t.burst {
                    self.burst_sum += b;
                }
                self.gap_sum += t.gap;
                if let (Some(acc), Some(c)) = (&mut self.cluster_sum, &t.cluster_busy) {
                    for (a, x) in acc.iter_mut().zip(c) {
                        *a += x;
                    }
                }
                if let Some(m) = t.mem {
                    self.mem_sum
                        .get_or_insert_with(MemStats::default)
                        .accumulate(m);
                    self.mem_runs += 1;
                }
                if let Some(wf) = &t.windows {
                    self.windows_counted += 1;
                    if let Some(jain) = &mut self.window_jain_sum {
                        for (a, j) in jain.iter_mut().zip(&wf.jain) {
                            *a += j;
                        }
                    }
                    if let Some(shares) = &mut self.window_share_sum {
                        for (row, wrow) in shares.iter_mut().zip(&wf.shares) {
                            for (a, s) in row.iter_mut().zip(wrow) {
                                *a += s;
                            }
                        }
                    }
                }
            }
            RunOutcome::Panicked(msg) => {
                self.panicked += 1;
                self.first_panic.get_or_insert(msg);
            }
            RunOutcome::BudgetSkipped => self.budget_trips += 1,
        }
    }

    pub(crate) fn finish(
        self,
        labels: Vec<(String, String)>,
        seed: u64,
        qs: &[f64],
        pwcet_probs: &[f64],
        spec: &RunSpec,
    ) -> CellReport {
        // Denominator: runs that actually executed. With no faults this is
        // every run, matching the pre-containment aggregation exactly.
        let denom = (self.n_done as f64).max(1.0);
        let percentiles = if self.samples.is_empty() {
            Vec::new()
        } else {
            // Sort once per cell (u64 sort: exact, total order, no NaN
            // edge cases) and interpolate every requested quantile on
            // the same sorted view.
            let mut sorted = self.samples.clone();
            sorted.sort_unstable();
            let sorted: Vec<f64> = sorted.iter().map(|&s| s as f64).collect();
            qs.iter()
                .map(|&q| (q, percentile_sorted(&sorted, q)))
                .collect()
        };
        // The pWCET fit consumes the samples in run-index order — the
        // iid battery is order-sensitive, and index order is what stays
        // bit-identical across thread counts and resumes.
        let pwcet =
            (!pwcet_probs.is_empty()).then(|| fit_pwcet_columns(&self.samples, pwcet_probs));
        let (tua_max_burst, contender_max_gap) = if spec.record_trace {
            (Some(self.burst_sum / denom), Some(self.gap_sum / denom))
        } else {
            (None, None)
        };
        let (cluster_shares, cluster_fairness) = match self.cluster_sum {
            None => (None, None),
            Some(mut shares) => {
                shares.iter_mut().for_each(|s| *s /= denom);
                let jain = sim_core::stats::jain(&shares);
                (Some(shares), Some(jain))
            }
        };
        let wdenom = (self.windows_counted as f64).max(1.0);
        let window_jain = self.window_jain_sum.map(|mut jain| {
            jain.iter_mut().for_each(|j| *j /= wdenom);
            jain
        });
        let window_shares = self.window_share_sum.map(|mut shares| {
            shares
                .iter_mut()
                .for_each(|row| row.iter_mut().for_each(|s| *s /= wdenom));
            shares
        });
        let (mem_miss_rate, mem_coherence_frac, mem_writebacks) = match self.mem_sum {
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
                    Some(m.writebacks as f64 / (self.mem_runs as f64).max(1.0)),
                )
            }
        };
        let outcome = if let Some(msg) = self.first_panic {
            CellOutcome::Panicked(msg)
        } else if self.budget_trips > 0 {
            CellOutcome::Budget
        } else {
            CellOutcome::Ok
        };
        CellReport {
            labels,
            seed,
            runs: self.samples.len(),
            unfinished: self.unfinished,
            outcome,
            panicked: self.panicked,
            budget_trips: self.budget_trips,
            mean: self.summary.mean(),
            ci95: self.summary.ci95_half_width(),
            min: self.summary.min(),
            max: self.summary.max(),
            percentiles,
            utilization: self.util_sum / denom,
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
/// for any thread count or scheduling. A run that makes no random draw
/// ([`RunResult::draws`]) is the same under every seed, so each cell's
/// first such run is computed once and copied into the cell's other
/// runs; the report is the one of computing them all.
///
/// # Errors
///
/// Propagates expansion errors; a configured baseline that matches no
/// cell in some group is also an error.
pub fn run_scenario(def: &ScenarioDef) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_with(def, |_done, _total, _cell| {})
}

/// [`run_scenario`] with a progress callback `(cells done, total, just
/// finished)` invoked per cell, for CLI progress lines. Runs are folded
/// in task order, so a cell is reported once its last run and every run
/// of the cells before it have completed: the callback fires in cell
/// (expansion) order, live, and prints the same lines for any thread
/// count. The returned report is in cell order too.
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
    started: OnceLock<std::time::Instant>,
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

/// One batch of runs: `runs` runs of each scheduled cell on `threads`
/// workers, folded into the `report` shape and held to the `checkpoint`
/// budgets and the `plan`'s injected faults. A scenario grid and a plain
/// [`Campaign`](crate::Campaign) (a one-cell grid with every default) both
/// execute through [`Batch::run`].
pub(crate) struct Batch<'a> {
    pub(crate) runs: usize,
    pub(crate) threads: usize,
    pub(crate) report: &'a ReportSpec,
    pub(crate) checkpoint: &'a CheckpointSpec,
    pub(crate) plan: &'a FaultPlan,
}

impl Batch<'_> {
    /// Executes the runs of the cells indexed by `work` as one flat task
    /// list on the work-stealing pool (task `i` is run `i % runs` of
    /// `cells[work[i / runs]]`), each run seeded by [`run_seed`] from its
    /// cell's seed and contained by [`catch_unwind`]. The pool hands the
    /// runs on in task order, so the cells' runs arrive one cell after
    /// another: each run is folded into the one open `CellAccumulator`,
    /// and each cell's report goes to `on_cell` with the cell's index as
    /// its last run arrives, in `work` order. Once `on_cell` returns
    /// `false`, the remaining results are drained without being folded or
    /// reported.
    ///
    /// A run that made no random draw ([`RunResult::draws`] `== 0`) is
    /// the same under every seed, so the first such run of a cell is kept
    /// and every later run of that cell copies it instead of simulating,
    /// once its own budget checks and injected faults have had their
    /// turn. A cell whose runs draw is computed run by run.
    pub(crate) fn run(
        &self,
        cells: &[Cell],
        work: &[usize],
        mut on_cell: impl FnMut(usize, CellReport) -> bool,
    ) {
        let runs = self.runs;
        let run_budget = self.checkpoint.run_budget_cycles;
        // The cell whose runs are arriving.
        let mut open: Option<CellAccumulator> = None;
        let clocks: Vec<CellClock> = work.iter().map(|_| CellClock::default()).collect();
        let seed_free: Vec<OnceLock<RunTally>> = work.iter().map(|_| OnceLock::new()).collect();
        let mut live = true;
        run_indexed_streamed(
            work.len() * runs,
            self.threads,
            |i| {
                let (wi, run) = (i / runs, i % runs);
                let ci = work[wi];
                let cell = &cells[ci];
                if self.plan.forces_budget_trip(ci, run) {
                    return RunOutcome::BudgetSkipped;
                }
                if let Some(ms) = self.checkpoint.cell_budget_ms {
                    if clocks[wi].expired(ms) {
                        return RunOutcome::BudgetSkipped;
                    }
                }
                clocks[wi].begin();
                match catch_unwind(AssertUnwindSafe(|| {
                    if self.plan.panics_at(ci, run) {
                        panic!("injected fault (cell {ci}, run {run})");
                    }
                    if let Some(tally) = seed_free[wi].get() {
                        return tally.clone();
                    }
                    let r = run_once(&cell.spec, run_seed(cell.seed, run));
                    let drew = r.draws > 0;
                    let tally = RunTally::from_run(r, &cell.spec, run_budget);
                    if !drew {
                        // A concurrent run of the cell may have kept its
                        // own copy first; both are the same tally.
                        let _ = seed_free[wi].set(tally.clone());
                    }
                    tally
                })) {
                    Ok(tally) => RunOutcome::Done(tally),
                    Err(payload) => RunOutcome::Panicked(panic_message(payload)),
                }
            },
            |i, outcome| {
                if !live {
                    return;
                }
                let (ci, run) = (work[i / runs], i % runs);
                let cell = &cells[ci];
                open.get_or_insert_with(|| CellAccumulator::new(&cell.spec))
                    .fold(outcome);
                if run + 1 == runs {
                    let acc = open.take().expect("the cell's runs were folded");
                    let report = acc.finish(
                        cell.labels.clone(),
                        cell.seed,
                        &self.report.percentiles,
                        &self.report.pwcet,
                        &cell.spec,
                    );
                    live = on_cell(ci, report);
                }
            },
        );
    }
}

/// The full crash-safe scenario executor: [`run_scenario_with`] plus
/// checkpoint/resume journaling and per-cell fault containment.
///
/// * **Streaming aggregation** — every finished `(cell, run)` is folded
///   into its cell's `CellAccumulator` once every earlier run of the
///   batch has been; raw [`RunResult`]s are never retained. Reduction
///   happens in run-index order, so reports are bit-identical for any
///   thread count.
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
    if let Some(budget) = def.checkpoint.run_budget_cycles {
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

    // Only the missing cells are scheduled, seeded exactly as a
    // single-shot execution would seed them (seeds depend on the cell,
    // not on the schedule, which is what makes resume bit-exact).
    let work: Vec<usize> = (0..total).filter(|&ci| reports[ci].is_none()).collect();
    let mut done_cells = total - work.len();
    let mut journal_error: Option<String> = None;
    let mut killed: Option<usize> = None;
    let batch = Batch {
        runs,
        threads,
        report: &def.report,
        checkpoint: &def.checkpoint,
        plan,
    };
    batch.run(&cells, &work, |ci, report| {
        if let Some(j) = &mut journal {
            match j.append(ci, &report) {
                Ok(()) => {
                    if plan.kills_after(j.records()) {
                        if plan.is_hard_kill() {
                            // True crash semantics: no unwinding, no
                            // cleanup, no flushing beyond the fsynced
                            // journal — as close to SIGKILL as the
                            // process can do to itself.
                            eprintln!("cba: simulated crash after {} journal records", j.records());
                            std::process::abort();
                        }
                        killed = Some(j.records());
                        return false;
                    }
                }
                Err(e) => {
                    journal_error = Some(e);
                    return false;
                }
            }
        }
        done_cells += 1;
        progress(done_cells, total, &report);
        reports[ci] = Some(report);
        true
    });
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
    /// The first cell whose labels include every `(axis, label)` pair of
    /// `want`, e.g. `[("setup", "CBA"), ("scenario", "CON")]`.
    pub fn cell(&self, want: &[(&str, &str)]) -> Option<&CellReport> {
        self.cells.iter().find(|c| {
            want.iter()
                .all(|&(axis, label)| c.label(axis) == Some(label))
        })
    }

    /// Renders the report as pretty-printed JSON: per cell, its labels and
    /// then every column it has.
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            let labels = c
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone())));
            let mut pairs: Vec<(String, Json)> = labels.collect();
            for col in c.columns() {
                match (col.show, col.value) {
                    (Show::Always, None) => pairs.push((col.name.into(), Json::Null)),
                    (_, None | Some(Value::Blank)) => {}
                    (Show::Split(field), Some(Value::Keyed(keys, values))) => {
                        let values = values.unwrap_or_default();
                        pairs.extend(
                            keys.into_iter()
                                .zip(values)
                                .map(|(k, v)| (field(k), Json::Num(v))),
                        );
                    }
                    (_, Some(v)) => pairs.push((col.name.into(), json_value(v))),
                }
            }
            Json::Obj(pairs)
        });
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("seed", Json::Int(self.seed)),
            ("runs_per_cell", Json::Int(self.runs as u64)),
            ("cells", Json::Arr(cells.collect())),
        ])
        .render()
    }

    /// Renders the report as CSV: one header row (axis keys, then the
    /// columns), one row per cell. Every row has every header field: a
    /// cell without a column, or with fewer percentiles or clusters than
    /// another, leaves those fields empty, as it does non-finite values.
    pub fn to_csv(&self) -> String {
        let Some(first) = self.cells.first() else {
            return String::new();
        };
        let mut cells: Vec<Vec<CsvField>> = self.cells.iter().map(csv_fields).collect();
        // The header is the union of the cells' fields, grouped by column
        // in column order and, within a column, in first-seen order.
        let mut header: Vec<(usize, Option<f64>)> = Vec::new();
        for &(col, key, _) in cells.iter().flatten() {
            if !header.contains(&(col, key)) {
                let at = header.partition_point(|&(c, _)| c <= col);
                header.insert(at, (col, key));
            }
        }
        let columns = first.columns();
        let names = header
            .iter()
            .map(|&(col, key)| match (columns[col].show, key) {
                (Show::Split(field), Some(k)) => field(k),
                _ => columns[col].name.to_string(),
            });
        let keys = first.labels.iter().map(|(k, _)| k.clone());
        let mut rows = vec![keys.chain(names).collect::<Vec<_>>()];
        for (c, fields) in self.cells.iter().zip(&mut cells) {
            let mut row: Vec<String> = c.labels.iter().map(|(_, v)| csv_field(v)).collect();
            row.extend(header.iter().map(|&(col, key)| {
                let field = fields.iter_mut().find(|(c, k, _)| (*c, *k) == (col, key));
                field.map_or(String::new(), |(_, _, text)| std::mem::take(text))
            }));
            rows.push(row);
        }
        rows.iter().map(|row| row.join(",") + "\n").collect()
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

/// A column value as JSON (keyed and blank values are written by
/// [`ScenarioReport::to_json`] itself).
fn json_value(value: Value) -> Json {
    let series = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Num).collect());
    match value {
        Value::Int(x) => Json::Int(x),
        Value::Num(x) => Json::Num(x),
        Value::Text(s) => Json::Str(s),
        Value::Verdict(ok) => Json::Bool(ok),
        Value::Series(xs) => series(xs),
        Value::Matrix(rows) => Json::Arr(rows.into_iter().map(series).collect()),
        Value::Keyed(..) | Value::Blank => Json::Null,
    }
}

/// One CSV field of a cell: its column's index, the key or element index
/// of a split column's field, and the text.
type CsvField = (usize, Option<f64>, String);

/// A cell's CSV fields, in column order.
fn csv_fields(cell: &CellReport) -> Vec<CsvField> {
    let num = |x: f64| {
        if x.is_finite() {
            fmt_number(x)
        } else {
            String::new()
        }
    };
    let mut fields = Vec::new();
    for (col, column) in cell.columns().into_iter().enumerate() {
        match (column.show, column.value) {
            (Show::JsonOnly, _) | (Show::Both | Show::Split(_), None) => {}
            (Show::Split(_), Some(Value::Keyed(keys, values))) => {
                let values = values.unwrap_or_default();
                let value = |i: usize| values.get(i).map_or(String::new(), |&x| num(x));
                let keyed = keys.iter().enumerate();
                fields.extend(keyed.map(|(i, &k)| (col, Some(k), value(i))));
            }
            (Show::Split(_), Some(Value::Series(xs))) => {
                let series = xs.iter().enumerate();
                fields.extend(series.map(|(i, &x)| (col, Some(i as f64), num(x))));
            }
            (_, value) => {
                let text = match value {
                    Some(Value::Int(x)) => x.to_string(),
                    Some(Value::Num(x)) => num(x),
                    Some(Value::Text(s)) => csv_field(&s),
                    Some(Value::Verdict(ok)) => (if ok { "pass" } else { "fail" }).into(),
                    _ => String::new(),
                };
                fields.push((col, None, text));
            }
        }
    }
    fields
}

/// Converts a restored integer to its field's type.
fn exact<T: TryFrom<u64>>(x: u64) -> Result<T, String> {
    T::try_from(x).map_err(|_| format!("{x} is out of range"))
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

    /// Splits one CSV line into fields, honouring quotes.
    fn split_csv(line: &str) -> Vec<String> {
        let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    /// The CSV as rows of fields, each row as long as the header.
    fn rectangular_csv(report: &ScenarioReport) -> Vec<Vec<String>> {
        let csv = report.to_csv();
        let rows: Vec<Vec<String>> = csv.lines().map(split_csv).collect();
        for row in &rows {
            assert_eq!(row.len(), rows[0].len(), "ragged CSV:\n{csv}");
        }
        rows
    }

    #[test]
    fn csv_header_covers_percentiles_when_the_first_cell_has_no_finished_run() {
        let def = tiny_def(
            "[platform]\ncores = 4\n[contenders]\nmax_cycles = 800\n[sweep]\nscenario = con,iso\n",
        );
        let report = run_scenario(&def).unwrap();
        assert_eq!(report.cells[0].runs, 0, "CON never finishes");
        let rows = rectangular_csv(&report);
        let p50 = rows[0].iter().position(|h| h == "p50").expect("p50 column");
        assert_eq!(rows[1][p50], "", "CON has no percentiles");
        assert_eq!((rows[2][0].as_str(), rows[2][p50].as_str()), ("ISO", "400"));
    }

    #[test]
    fn csv_writes_non_finite_values_as_empty_fields() {
        let def = tiny_def(
            "[platform]\ncores = 4\npolicy = rr\n[contenders]\nfill = sat:28\nwcet = off\n\
             stop = horizon:3000\n[sweep]\ncba = none,homog\n[checkpoint]\n\
             run_budget_cycles = 2000\n[report]\npwcet = 1e-9\nbaseline = cba=none\n",
        );
        let report = run_scenario(&def).unwrap();
        let cell = &report.cells[0];
        assert!(cell.min.is_infinite() && cell.max.is_infinite(), "{cell:?}");
        assert!(cell.normalized.is_some_and(f64::is_nan), "{cell:?}");
        for row in rectangular_csv(&report) {
            for field in row {
                assert!(!["inf", "-inf", "NaN"].contains(&field.as_str()), "{field}");
            }
        }
    }

    #[test]
    fn json_seeds_are_exact_on_a_four_axis_grid() {
        for seed in ["5", "18446744073709551557"] {
            let text = format!(
                "[campaign]\nruns = 2\nseed = {seed}\n[tua]\nload = fixed:40:6:4\n[sweep]\n\
                 setup = rp,cba\nscenario = iso,con\ncores = 2,4\nduration = 11,56\n"
            );
            let def = ScenarioDef::parse(&text).unwrap();
            let report = run_scenario(&def).unwrap();
            let expected: Vec<String> = (0..16)
                .map(|i| def.cell_seed(&[i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1]))
                .map(|s| s.to_string())
                .collect();
            let json = report.to_json();
            let json_seeds: Vec<&str> = json
                .lines()
                .filter_map(|l| l.strip_prefix("      \"seed\": "))
                .map(|s| s.trim_end_matches(','))
                .collect();
            assert_eq!(json_seeds, expected, "seed {seed}");
            assert!(json.contains(&format!("\n  \"seed\": {seed},")), "{json}");
            let rows = rectangular_csv(&report);
            let col = rows[0].iter().position(|h| h == "seed").unwrap();
            let csv_seeds: Vec<&String> = rows[1..].iter().map(|r| &r[col]).collect();
            assert_eq!(
                csv_seeds,
                expected.iter().collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
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
