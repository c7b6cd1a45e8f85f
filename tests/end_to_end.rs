//! End to end: the paper's claims over the reports of the shipped
//! scenario files, at reduced scale. Each test trims a file in Rust
//! (fewer runs, fewer axis values, a smaller TuA) and asserts the
//! orderings the paper reports rather than absolute numbers.

use cba_bench::fig1_digest;
use cba_platform::{run_scenario, CellReport, ScenarioDef, ScenarioReport};
use cba_workloads::profile_by_name;

/// `scenarios/NAME.scn`, parsed.
fn shipped(name: &str) -> ScenarioDef {
    let path = format!("{}/scenarios/{name}.scn", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioDef::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Gives sweep axis `key` the values `values`.
fn set_axis(def: &mut ScenarioDef, key: &str, values: &[&str]) {
    let axis = def.axes.iter_mut().find(|a| a.key == key).expect("axis");
    axis.values = values.iter().map(|v| v.to_string()).collect();
}

/// `bench`'s catalog access count divided by `factor` (at least 300):
/// a scaled-down TuA that keeps the traffic shape.
fn scaled(bench: &str, factor: u64) -> u64 {
    let profile = profile_by_name(bench).expect("catalog benchmark");
    (profile.accesses / factor).max(300)
}

/// `paper_fig1.scn` for one benchmark, its TuA cut to `accesses`
/// accesses, with `runs` runs per cell and master seed `seed`.
fn fig1(bench: &str, accesses: u64, runs: usize, seed: u64) -> ScenarioReport {
    let mut def = shipped("paper_fig1");
    def.runs = runs;
    def.seed = seed;
    def.set("tua", "profile", bench).unwrap();
    def.set("tua", "accesses", &accesses.to_string()).unwrap();
    set_axis(&mut def, "bench", &[bench]);
    run_scenario(&def).expect("trimmed grid runs")
}

/// The cell whose labels include every `(axis, label)` pair of `want`.
fn cell<'a>(report: &'a ScenarioReport, want: &[(&str, &str)]) -> &'a CellReport {
    report
        .cell(want)
        .unwrap_or_else(|| panic!("no cell {want:?}"))
}

/// The RP-ISO-normalized mean of one Figure-1 bar.
fn bar(report: &ScenarioReport, setup: &str, scenario: &str) -> f64 {
    let c = cell(report, &[("setup", setup), ("scenario", scenario)]);
    c.normalized.expect("fig1 normalizes to RP-ISO")
}

#[test]
fn fig1_produces_six_cells_per_benchmark() {
    let report = fig1("rspeed", 300, 3, 1);
    let cells = &report.cells;
    assert_eq!(cells.len(), 6);
    // First cell is the RP-ISO normalizer.
    assert_eq!(cells[0].label("setup"), Some("RP"));
    assert_eq!(cells[0].label("scenario"), Some("ISO"));
    assert!((cells[0].normalized.unwrap() - 1.0).abs() < 1e-12);
    // CON must not be faster than ISO for the same setup.
    for pair in cells.chunks(2) {
        assert!(
            pair[1].normalized.unwrap() >= pair[0].normalized.unwrap() * 0.95,
            "CON faster than ISO: {pair:?}"
        );
    }
}

#[test]
fn fig1_orderings_hold_for_bursty_benchmark() {
    let report = fig1("matrix", scaled("matrix", 4), 8, 99);
    assert_eq!(report.cells.len(), 6);

    let rp_iso = bar(&report, "RP", "ISO");
    let rp_con = bar(&report, "RP", "CON");
    let cba_iso = bar(&report, "CBA", "ISO");
    let cba_con = bar(&report, "CBA", "CON");
    let hcba_iso = bar(&report, "H-CBA", "ISO");
    let hcba_con = bar(&report, "H-CBA", "CON");

    // The paper's Figure-1 orderings:
    assert!((rp_iso - 1.0).abs() < 1e-9, "RP-ISO is the normalizer");
    assert!(
        rp_con > 2.0,
        "slot-fair contention hurts a bursty task: {rp_con}"
    );
    assert!(rp_con < 4.0, "EEMBC does not saturate: slowdowns below 4x");
    assert!(
        cba_con < rp_con * 0.75,
        "CBA substantially reduces contention"
    );
    assert!(hcba_con < cba_con, "H-CBA (TuA 50%) reduces it further");
    assert!(
        cba_iso < 1.10,
        "CBA isolation overhead stays small: {cba_iso}"
    );
    assert!(
        (hcba_iso - 1.0).abs() < 0.05,
        "H-CBA isolation overhead negligible: {hcba_iso}"
    );
}

#[test]
fn fig1_sparse_benchmark_is_nearly_cba_insensitive() {
    // tblook: "almost insensitive to the potential delays created by CBA
    // since its bus requests barely occur consecutively".
    let report = fig1("tblook", scaled("tblook", 2), 8, 7);
    let rp_con = bar(&report, "RP", "CON");
    let cba_con = bar(&report, "CBA", "CON");
    let cba_iso = bar(&report, "CBA", "ISO");
    assert!(
        (cba_con - rp_con).abs() / rp_con < 0.25,
        "sparse task: CBA-CON ({cba_con}) within 25% of RP-CON ({rp_con})"
    );
    assert!(
        cba_iso < 1.05,
        "sparse task: CBA barely stalls it in isolation"
    );
}

#[test]
fn fig1_digest_identifies_matrix_as_worst_rp_case() {
    // At reduced scale, matrix (bursty, bus-bound) must still be the worst
    // RP-CON case among a bursty/sparse pair — the paper's headline. The
    // two TuAs are scaled differently, so each runs as its own grid.
    let mut cells = fig1("matrix", scaled("matrix", 4), 6, 5).cells;
    cells.extend(fig1("tblook", scaled("tblook", 2), 6, 5).cells);
    let digest = fig1_digest(&cells);
    assert_eq!(digest.worst_rp_con.0, "matrix");
    assert!(digest.worst_rp_con.1 > digest.worst_cba_con.1);
    assert!(digest.hcba_iso_overhead.abs() < 0.05);
}

#[test]
fn contention_never_speeds_up_any_setup() {
    let report = fig1("canrdr", scaled("canrdr", 3), 6, 11);
    for setup in ["RP", "CBA", "H-CBA"] {
        let iso = cell(&report, &[("setup", setup), ("scenario", "ISO")]).mean;
        let con = cell(&report, &[("setup", setup), ("scenario", "CON")]).mean;
        assert!(
            con >= iso * 0.99,
            "{setup}: contention cannot help (iso {iso}, con {con})"
        );
    }
}

#[test]
fn illustrative_request_fair_far_worse_than_cba() {
    let mut def = shipped("paper_illustrative");
    def.runs = 2;
    def.seed = 3;
    let report = run_scenario(&def).expect("grid runs");
    // Slowdowns vs the TuA's 10,000-cycle isolation time.
    let slowdown = |setup| cell(&report, &[("setup", setup)]).mean / 10_000.0;
    let (rr, cba) = (slowdown("rr"), slowdown("CBA"));
    assert!(rr > cba * 1.5, "request-fair {rr} vs CBA {cba}");
}

#[test]
fn sweep_cba_bounds_slowdown() {
    let mut def = shipped("fairness_sweep");
    def.runs = 2;
    def.seed = 5;
    set_axis(&mut def, "cores", &["2"]);
    set_axis(&mut def, "duration", &["5", "56"]);
    let report = run_scenario(&def).expect("grid runs");
    // Slowdowns vs the TuA's isolation time: 400 back-to-back 5-cycle
    // requests.
    let slowdown = |cba| cell(&report, &[("cba", cba), ("duration", "56")]).mean / 2_000.0;
    let (unbounded, bounded) = (slowdown("none"), slowdown("homog"));
    assert!(unbounded > bounded);
    // The credit filter bounds the slowdown even at an 11x request-
    // length mismatch. The bound is ~2N, not N: the bus is
    // non-preemptive, so each of the TuA's short recovery windows can
    // admit one full MaxL contender transaction (see EXPERIMENTS.md).
    assert!(
        bounded < 2.0 * 2.0 + 0.3,
        "2-core CBA slowdown must stay under ~2N: {bounded}"
    );
    // Without CBA the slowdown scales with the duration ratio instead:
    // 1 + 56/5 ≈ 12.
    assert!(
        unbounded > 8.0,
        "RR slowdown should scale with the ratio: {unbounded}"
    );
}

#[test]
fn hcba_ablation_weights_speed_up_and_caps_trade_bursts_for_gaps() {
    // Section III.A, at the file's own run count and seed.
    let report = run_scenario(&shipped("hcba_ablation")).expect("grid runs");
    let variant = |setup, caps| cell(&report, &[("setup", setup), ("caps", caps)]);
    let base = variant("CBA", "1:1:1:1");
    let weights = variant("H-CBA", "1:1:1:1");
    let cap = variant("CBA", "2:1:1:1");
    let (fast, slow) = (weights.mean, base.mean);
    assert!(
        fast < slow,
        "recovery weights speed up the TuA: {fast} vs {slow}"
    );
    let traced = |x: Option<f64>| x.expect("trace = on");
    let (long, short) = (traced(cap.tua_max_burst), traced(base.tua_max_burst));
    assert!(
        long > short,
        "the cap lets the TuA burst: {long} vs {short}"
    );
    let (long, short) = (
        traced(cap.contender_max_gap),
        traced(base.contender_max_gap),
    );
    assert!(
        long > short,
        "and starves the contenders longer: {long} vs {short}"
    );
}

#[test]
fn cycle_entitlement_is_enforced_under_saturation() {
    // Under CBA, no saturating contender may exceed its 1/N share of total
    // cycles — the mechanism's core invariant, end to end.
    use cba_platform::{run_once, BusSetup, CoreLoad, RunSpec, Scenario, StopCondition};
    let mut spec = RunSpec::paper(
        BusSetup::Cba,
        Scenario::MaxContention,
        CoreLoad::FixedTask {
            n_requests: 1,
            duration: 5,
            gap: 0,
        },
    );
    spec.loads[0] = CoreLoad::Saturating { duration: 5 };
    spec.wcet_mode = false;
    spec.stop = StopCondition::Horizon(100_000);
    let r = run_once(&spec, 3);
    for core in 0..4 {
        let share = r.absolute_cycle_share(core);
        assert!(
            share <= 0.25 + 0.02,
            "core {core} exceeded its entitlement: {share}"
        );
    }
}
