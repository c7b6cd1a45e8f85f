//! One-shot full reproduction report: runs every experiment of the paper
//! at a configurable scale and prints the consolidated paper-vs-measured
//! comparison that `EXPERIMENTS.md` records.
//!
//! The grids are the shipped scenario files, built into the binary:
//! `paper_fig1.scn` (E1, E4), `paper_illustrative.scn` (E3),
//! `paper_pwcet.scn` (E6), `fairness_sweep.scn` (E7) and
//! `hcba_ablation.scn` (E8). `CBA_RUNS` scales the Figure-1 campaigns
//! (default 300 here; the paper uses 1,000); the other grids use
//! proportional counts. `CBA_SEED` (default 2017) is every grid's master
//! seed.

use cba::cost::STRATIX_IV_EP4SGX230_ALMS;
use cba::{CreditConfig, HardwareCost, SignalTable};
use cba_bench::{fig1_digest, fmt_slowdown, runs_from_env, seed_from_env};
use cba_platform::{run_scenario, CellReport, ScenarioDef, ScenarioReport};

const PAPER_FIG1: &str = include_str!("../../../../scenarios/paper_fig1.scn");
const PAPER_ILLUSTRATIVE: &str = include_str!("../../../../scenarios/paper_illustrative.scn");
const PAPER_PWCET: &str = include_str!("../../../../scenarios/paper_pwcet.scn");
const FAIRNESS_SWEEP: &str = include_str!("../../../../scenarios/fairness_sweep.scn");
const HCBA_ABLATION: &str = include_str!("../../../../scenarios/hcba_ablation.scn");

/// Runs a shipped scenario with `runs` runs per cell and master seed
/// `seed`.
fn run(text: &str, runs: usize, seed: u64) -> ScenarioReport {
    let mut def = ScenarioDef::parse(text).expect("shipped scenarios parse");
    def.runs = runs;
    def.seed = seed;
    run_scenario(&def).expect("shipped scenarios run")
}

fn main() {
    let runs = runs_from_env(300);
    let seed = seed_from_env();
    let start = std::time::Instant::now();
    println!("=== CBA PAPER REPRODUCTION REPORT (runs={runs}, seed={seed}) ===\n");

    // E2: Table I.
    println!("--- E2: Table I (signal summary, generated from the implementation) ---");
    println!(
        "{}",
        SignalTable::new(&CreditConfig::homogeneous(4, 56).unwrap())
    );

    // E1/E4: Figure 1 + digest.
    println!("--- E1: Figure 1 ({runs} runs per bar) ---");
    let fig1 = run(PAPER_FIG1, runs, seed);
    for c in &fig1.cells {
        let normalized = match (c.normalized, c.normalized_ci95) {
            (Some(x), Some(ci)) => format!("{x:>6.3} (±{ci:.3})"),
            _ => "     - (no RP-ISO baseline)".into(),
        };
        println!(
            "  {:<8} {:<6}-{:<4} {:>10.0} cycles  {normalized}",
            c.label("bench").unwrap_or("?"),
            c.label("setup").unwrap_or("?"),
            c.label("scenario").unwrap_or("?"),
            c.mean
        );
    }
    let digest = fig1_digest(&fig1.cells);
    println!("--- E4: Section IV.B quoted numbers ---");
    println!(
        "  worst RP-CON : measured {:.2}x on {:<7} | paper 3.34x on matrix",
        digest.worst_rp_con.1, digest.worst_rp_con.0
    );
    println!(
        "  worst CBA-CON: measured {:.2}x on {:<7} | paper 2.34x",
        digest.worst_cba_con.1, digest.worst_cba_con.0
    );
    println!(
        "  CBA-ISO overhead  : measured {:+.1}% | paper ~3%",
        100.0 * digest.cba_iso_overhead
    );
    println!(
        "  H-CBA-ISO overhead: measured {:+.1}% | paper negligible",
        100.0 * digest.hcba_iso_overhead
    );
    println!();

    // E3: illustrative example.
    println!("--- E3: Section II illustrative example ---");
    let report = run(PAPER_ILLUSTRATIVE, (runs / 8).max(10), seed);
    // The TuA's isolation time: 1,000 requests of 6 cycles, 4 apart.
    let iso = 10_000.0;
    for c in &report.cells {
        let config = match c.label("setup").unwrap_or("?") {
            "rr" => "RR (request-fair)",
            "RP" => "RP (request-fair)",
            "fifo" => "FIFO (request-fair)",
            "CBA" => "RP + CBA (cycle-fair)",
            "H-CBA" => "RP + H-CBA (TuA 50%)",
            other => other,
        };
        println!(
            "  {:<24} {:>8.0} cycles  {:>5.2}x",
            config,
            c.mean,
            c.mean / iso
        );
    }
    println!("  paper analytic: request-fair 94,000 (9.4x); idealized cycle-fair 28,000 (2.8x)\n");

    // E5: overheads.
    println!("--- E5: implementation overheads ---");
    let cost = HardwareCost::of(&CreditConfig::homogeneous(4, 56).unwrap());
    println!(
        "  {cost}; ~{} ALMs -> +{:.3}pp device occupancy (paper: 'far less than 0.1%')\n",
        cost.alms,
        cost.device_occupancy_growth_pp(STRATIX_IV_EP4SGX230_ALMS)
    );

    // E6: pWCET. The `con` cell is the WCET-estimation-mode analysis, the
    // `custom` cell its deployment with live periodic co-runners.
    let pwcet_runs = (runs / 2).max(100);
    println!("--- E6: MBPTA / pWCET ({pwcet_runs} runs per cell) ---");
    let report = run(PAPER_PWCET, pwcet_runs, seed);
    let mut cba_sound = true;
    for analysis in report
        .cells
        .iter()
        .filter(|c| c.label("scenario") == Some("CON"))
    {
        let bench = analysis.label("bench").unwrap_or("?");
        let setup = analysis.label("setup").unwrap_or("?");
        let deployment = [("bench", bench), ("setup", setup), ("scenario", "custom")];
        let max_operation = report.cell(&deployment).map_or(f64::NAN, |c| c.max);
        let pwcet = analysis.pwcet.as_ref();
        let Some((pwcet, fit)) = pwcet.and_then(|p| Some((p, p.fit.as_ref()?))) else {
            let diag = pwcet.and_then(|p| p.diag.as_deref()).unwrap_or("-");
            println!("  {bench:<8} {setup:<5} no pWCET fit: {diag}");
            if setup == "CBA" {
                cba_sound = false;
            }
            continue;
        };
        let at = pwcet.probs.iter().position(|&p| p == 1e-12);
        let bound = at.map_or(f64::NAN, |i| fit.bounds[i]);
        let sound = bound >= analysis.max && analysis.max >= max_operation;
        let iid = if fit.iid_ok { "PASS" } else { "marginal" };
        println!(
            "  {bench:<8} {setup:<5} iid {iid:<8} | pWCET(1e-12) {bound:>9.0} >= analysis max {:>9.0} >= operation max {max_operation:>9.0}: {sound}",
            analysis.max,
        );
        if setup == "CBA" {
            cba_sound &= sound;
        }
    }
    println!("  every CBA benchmark: pWCET(1e-12) >= analysis max >= operation max: {cba_sound}");
    println!();

    // E7: fairness sweep.
    println!("--- E7: fairness sweep (RR vs RR+CBA, 5-cycle TuA) ---");
    let report = run(FAIRNESS_SWEEP, (runs / 20).max(5), seed);
    // The TuA's isolation time: 400 back-to-back 5-cycle requests.
    let iso = 400.0 * 5.0;
    for n in ["2", "4", "8"] {
        print!("  N={n}:");
        for d in ["5", "11", "28", "56"] {
            let slowdown = |cba| {
                let want = [("cores", n), ("cba", cba), ("duration", d)];
                report.cell(&want).map_or(f64::NAN, |c| c.mean / iso)
            };
            print!(
                "  d={d}: {:.1}x/{:.1}x",
                slowdown("none"),
                slowdown("homog")
            );
        }
        println!("  (RR/CBA)");
    }
    println!();

    // E8: ablation.
    println!("--- E8: H-CBA ablation (weights vs cap) ---");
    let report = run(HCBA_ABLATION, (runs / 20).max(5), seed);
    // The TuA's isolation time: 150 back-to-back MaxL requests.
    let iso = 150.0 * 56.0;
    let or_nan = |x: Option<f64>| x.unwrap_or(f64::NAN);
    for c in &report.cells {
        let variant = format!(
            "{} caps {}",
            c.label("setup").unwrap_or("?"),
            c.label("caps").unwrap_or("?")
        );
        println!(
            "  {variant:<20} slowdown {:>6}  max burst {:>4.1}  contender max gap {:>5.0}",
            fmt_slowdown(c.mean / iso),
            or_nan(c.tua_max_burst),
            or_nan(c.contender_max_gap)
        );
    }
    let variant = |setup, caps| report.cell(&[("setup", setup), ("caps", caps)]);
    let (base, weights, cap) = (
        variant("CBA", "1:1:1:1"),
        variant("H-CBA", "1:1:1:1"),
        variant("CBA", "2:1:1:1"),
    );
    // A missing cell or column is no evidence either way.
    let grows = |from: Option<&CellReport>,
                 to: Option<&CellReport>,
                 of: fn(&CellReport) -> Option<f64>| {
        matches!((from.and_then(of), to.and_then(of)), (Some(a), Some(b)) if b > a)
    };
    println!(
        "  weights speed up the TuA vs CBA: {}",
        grows(weights, base, |c| Some(c.mean))
    );
    println!(
        "  the cap lengthens TuA bursts: {}; and contender gaps: {}",
        grows(base, cap, |c| c.tua_max_burst),
        grows(base, cap, |c| c.contender_max_gap)
    );

    println!("\ntotal wall time: {:.1?}", start.elapsed());
}
