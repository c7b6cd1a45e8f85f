//! Traced in-process replay of one benchmark campaign.
//!
//! `cba_sim` runs a campaign as one opaque process; this binary calls the
//! same library layers one at a time and records a span around each
//! call, so the per-layer cost of a campaign can be read off directly:
//!
//! * `parse`     — `ScenarioDef::parse` + `expand` (scenario layer);
//! * `run`       — one `run_once` per (cell, run) (engine, bus, arbiter,
//!   credit filter and agents together);
//! * `aggregate` — `CellReport::from_campaign` over every cell (the
//!   accumulator the scenario engine folds runs into);
//! * `campaign`  — the whole `run_scenario_with` pipeline at one thread
//!   (executor, per-run fault containment, aggregation, normalization);
//! * `render`    — JSON, CSV and terminal-table rendering of the report;
//! * `journal`   — a fresh checkpoint journal plus one fsynced append
//!   per cell.
//!
//! usage: campaign-tracer --scenario FILE --seconds S --out REPORT.json
//!                        --journal-dir DIR
//!
//! Repeats whole campaigns until `S` seconds have passed (at least one),
//! writes the campaign's JSON report to `--out` (so a caller can compare
//! it with `cba_sim`'s), and prints one JSON line: iterations, failed
//! self-checks, and each layer's median cost per campaign.

use cba_platform::report::run_scenario_with;
use cba_platform::{run_once, run_seed, CampaignResult, CellReport, Journal, ScenarioDef};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

struct Args {
    scenario: PathBuf,
    seconds: f64,
    out: PathBuf,
    journal_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut scenario = None;
    let mut seconds = None;
    let mut out = None;
    let mut journal_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--scenario" => scenario = Some(PathBuf::from(value)),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got '{value}'"));
                }
                seconds = Some(s)
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--journal-dir" => journal_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        scenario: scenario.ok_or("--scenario is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out: out.ok_or("--out is required")?,
        journal_dir: journal_dir.ok_or("--journal-dir is required")?,
    })
}

/// Per-campaign span totals, one entry per iteration.
#[derive(Default)]
struct Spans {
    parse: Vec<Duration>,
    runs: Vec<Duration>,
    aggregate: Vec<Duration>,
    campaign: Vec<Duration>,
    render: Vec<Duration>,
    journal: Vec<Duration>,
    /// Every single `run_once` span, across iterations.
    each_run: Vec<Duration>,
}

/// What one campaign produced, for the cross-iteration self-checks.
struct Outcome {
    report_json: String,
    sim_cycles: u64,
    runs: usize,
    /// The decomposed aggregation disagreed with the real pipeline.
    mismatch: bool,
}

fn timed<T>(spans: &mut Vec<Duration>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    spans.push(start.elapsed());
    out
}

fn campaign(text: &str, args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let (mut def, cells) = timed(&mut spans.parse, || {
        let def = ScenarioDef::parse(text).map_err(|e| e.to_string())?;
        let cells = def.expand().map_err(|e| e.to_string())?;
        Ok::<_, String>((def, cells))
    })?;

    let mut sim_cycles = 0u64;
    let mut per_cell = Vec::with_capacity(cells.len());
    let runs_start = Instant::now();
    for cell in &cells {
        let mut results = Vec::with_capacity(def.runs);
        for run in 0..def.runs {
            let seed = run_seed(cell.seed, run);
            let result = timed(&mut spans.each_run, || run_once(&cell.spec, seed));
            sim_cycles += result.total_cycles;
            results.push(result);
        }
        per_cell.push(results);
    }
    spans.runs.push(runs_start.elapsed());

    let decomposed: Vec<CellReport> = timed(&mut spans.aggregate, || {
        cells
            .iter()
            .zip(per_cell)
            .map(|(cell, results)| {
                CellReport::from_campaign(
                    cell.labels.clone(),
                    cell.seed,
                    &CampaignResult::from_runs(results),
                    &def.report.percentiles,
                    &cell.spec,
                )
            })
            .collect()
    });

    def.threads = Some(1);
    let report = timed(&mut spans.campaign, || {
        run_scenario_with(&def, |_, _, _| {})
    })
    .map_err(|e| e.to_string())?;
    let mismatch = decomposed.len() != report.cells.len()
        || decomposed
            .iter()
            .zip(&report.cells)
            .any(|(a, b)| a.runs != b.runs || a.mean.to_bits() != b.mean.to_bits());

    let report_json = timed(&mut spans.render, || {
        black_box(report.to_csv());
        black_box(report.render_table());
        report.to_json()
    });

    timed(&mut spans.journal, || {
        let mut journal = Journal::create(
            &args.journal_dir,
            def.scenario_hash(),
            report.cells.len(),
            def.runs,
        )?;
        for (ci, cell) in report.cells.iter().enumerate() {
            journal.append(ci, cell)?;
        }
        Ok::<_, String>(())
    })?;

    Ok(Outcome {
        report_json,
        sim_cycles,
        runs: cells.len() * def.runs,
        mismatch,
    })
}

fn median_us(samples: &[Duration]) -> f64 {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    let n = us.len();
    if n % 2 == 1 {
        us[n / 2]
    } else {
        (us[n / 2 - 1] + us[n / 2]) / 2.0
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("campaign-tracer: {e}");
        exit(2)
    });
    let text = std::fs::read_to_string(&args.scenario).unwrap_or_else(|e| {
        eprintln!(
            "campaign-tracer: cannot read {}: {e}",
            args.scenario.display()
        );
        exit(1)
    });

    let mut spans = Spans::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut first: Option<Outcome> = None;
    let mut iterations = 0usize;
    let mut failed = 0usize;
    while first.is_none() || Instant::now() < deadline {
        let outcome = campaign(&text, &args, &mut spans).unwrap_or_else(|e| {
            eprintln!("campaign-tracer: {e}");
            exit(1)
        });
        iterations += 1;
        let differs = first.as_ref().is_some_and(|f| {
            f.report_json != outcome.report_json || f.sim_cycles != outcome.sim_cycles
        });
        if outcome.mismatch || differs {
            failed += 1;
        }
        if first.is_none() {
            first = Some(outcome);
        }
    }
    let first = first.expect("at least one campaign ran");
    if let Err(e) = std::fs::write(&args.out, &first.report_json) {
        eprintln!("campaign-tracer: cannot write {}: {e}", args.out.display());
        exit(1)
    }

    let runs_ns: f64 = median_us(&spans.runs) * 1e3;
    let metrics = [
        ("parse_us", median_us(&spans.parse), "us"),
        ("run_us", median_us(&spans.each_run), "us"),
        (
            "run_ns_per_cycle",
            runs_ns / first.sim_cycles.max(1) as f64,
            "ns",
        ),
        (
            "sim_cycles_per_run",
            first.sim_cycles as f64 / first.runs.max(1) as f64,
            "count",
        ),
        ("aggregate_us", median_us(&spans.aggregate), "us"),
        ("campaign_us", median_us(&spans.campaign), "us"),
        ("render_us", median_us(&spans.render), "us"),
        ("journal_us", median_us(&spans.journal), "us"),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"iterations\": {iterations}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
