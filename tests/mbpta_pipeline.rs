//! The MBPTA protocol end to end: WCET-estimation-mode campaigns through
//! the full platform, iid checks, pWCET fitting, and the dominance
//! property that makes the analysis sound.
//!
//! The protocol runs as `scenarios/paper_pwcet.scn`, trimmed to a quick
//! TuA on the CBA bus: its `con` cell is the analysis campaign, with the
//! `[report] pwcet` columns, and its `custom` cell the deployment with
//! live periodic co-runners.

use cba_mbpta::pwcet::{block_maxima, MbptaConfig, PWcetModel};
use cba_platform::report::PwcetFit;
use cba_platform::{
    run_scenario, BusSetup, Campaign, CellReport, CoreLoad, RunSpec, Scenario, ScenarioDef,
};
use cba_workloads::suite;

fn quick_profile() -> cba_workloads::EembcProfile {
    let mut p = suite::rspeed();
    p.accesses = 500;
    p
}

/// The analysis (`con`) and deployment (`custom`) cells of
/// `paper_pwcet.scn` for rspeed cut to 500 accesses on the CBA bus, with
/// `runs` runs per cell and master seed `seed`.
fn pwcet_cells(runs: usize, seed: u64) -> (CellReport, CellReport) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/paper_pwcet.scn");
    let text = std::fs::read_to_string(path).expect("shipped scenario");
    let mut def = ScenarioDef::parse(&text).expect("shipped scenario parses");
    def.runs = runs;
    def.seed = seed;
    def.set("tua", "profile", "rspeed").unwrap();
    def.set("tua", "accesses", "500").unwrap();
    for axis in &mut def.axes {
        match axis.key.as_str() {
            "bench" => axis.values = vec!["rspeed".into()],
            "setup" => axis.values = vec!["cba".into()],
            _ => {}
        }
    }
    let report = run_scenario(&def).expect("trimmed grid runs");
    let [analysis, operation] = <[CellReport; 2]>::try_from(report.cells).expect("two cells");
    assert_eq!(analysis.label("scenario"), Some("CON"));
    assert_eq!(operation.label("scenario"), Some("custom"));
    (analysis, operation)
}

/// The analysis cell's fit and its pWCET bound at each probability.
fn fit(analysis: &CellReport) -> (&PwcetFit, Vec<(f64, f64)>) {
    let pwcet = analysis.pwcet.as_ref().expect("pwcet columns");
    let fit = pwcet
        .fit
        .as_ref()
        .unwrap_or_else(|| panic!("{:?}", pwcet.diag));
    let curve = pwcet.probs.iter().copied().zip(fit.bounds.iter().copied());
    (fit, curve.collect())
}

#[test]
fn wcet_mode_samples_are_iid_and_fit_a_gumbel() {
    let (analysis, _) = pwcet_cells(150, 41);
    let (fit, _) = fit(&analysis);
    // Independent seeds + randomized caches/arbitration => iid samples.
    assert!(
        fit.ks_p > 0.01 && fit.lb_p > 0.01 && fit.runs_p > 0.01,
        "iid battery rejected: KS p={}, LB p={}, runs p={}",
        fit.ks_p,
        fit.lb_p,
        fit.runs_p
    );
    assert!(fit.beta > 0.0);
}

#[test]
fn pwcet_bound_dominates_analysis_and_operation() {
    let (analysis, operation) = pwcet_cells(120, 17);
    let (_, curve) = fit(&analysis);
    let bound = curve
        .iter()
        .find(|(p, _)| *p == 1e-12)
        .expect("pwcet@1e-12")
        .1;
    assert!(bound >= analysis.max, "bound must cover analysis max");
    assert!(
        bound >= operation.max,
        "bound must cover deployment max ({} vs {})",
        bound,
        operation.max
    );
    // And the analysis-time contention is at least as bad as deployment.
    assert!(analysis.max >= operation.max * 0.95);
}

#[test]
fn pwcet_curve_grows_with_confidence() {
    let (analysis, _) = pwcet_cells(120, 23);
    let (_, curve) = fit(&analysis);
    assert!(
        curve.len() >= 4,
        "the file asks for 1e-3 .. 1e-15: {curve:?}"
    );
    for pair in curve.windows(2) {
        assert!(pair[1].1 > pair[0].1, "curve must be monotone: {curve:?}");
    }
}

#[test]
fn wcet_mode_contention_dominates_lighter_contention() {
    // The enforced maximum-contention scenario must produce longer
    // execution times than a half-loaded deployment, run for run on
    // average.
    let profile = quick_profile();
    let max_spec = RunSpec::paper(
        BusSetup::Cba,
        Scenario::MaxContention,
        CoreLoad::Profile(profile.clone()),
    );
    // Staggered, moderate co-runners (synchronized periodic contenders
    // would themselves be a near-worst-case volley pattern).
    let light_contenders: Vec<CoreLoad> = (0..3)
        .map(|i| CoreLoad::Periodic {
            duration: 28,
            period: 300,
            phase: 100 * i as u64,
        })
        .collect();
    let mut light_spec = RunSpec::paper(
        BusSetup::Cba,
        Scenario::Custom(light_contenders),
        CoreLoad::Profile(profile),
    );
    light_spec.wcet_mode = false;
    let max_mean = Campaign::new(max_spec, 30, 3).run().mean;
    let light_mean = Campaign::new(light_spec, 30, 3).run().mean;
    assert!(
        max_mean >= light_mean,
        "max contention ({max_mean}) must dominate light contention ({light_mean})"
    );
}

#[test]
fn block_maxima_pipeline_consistency() {
    // Fitting on raw samples vs explicitly reduced maxima agrees.
    let samples: Vec<f64> = (0..400)
        .map(|i| 1_000.0 + ((i * 7919) % 163) as f64)
        .collect();
    let config = MbptaConfig {
        block_size: 20,
        min_samples: 100,
        mle: false,
    };
    let model = PWcetModel::fit(&samples, config).expect("fit");
    let maxima = block_maxima(&samples, 20);
    assert_eq!(maxima.len(), 20);
    let direct = cba_mbpta::gumbel::Gumbel::fit_moments(&maxima).expect("fit");
    assert!((model.gumbel().mu - direct.mu).abs() < 1e-9);
    assert!((model.gumbel().beta - direct.beta).abs() < 1e-9);
}
