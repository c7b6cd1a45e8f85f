//! The full MBPTA workflow on one benchmark: WCET-estimation-mode
//! measurements, iid applicability checks, Gumbel fit, pWCET curve, and
//! the dominance check against a deployment scenario.
//!
//! It runs the shipped `scenarios/paper_pwcet.scn`, trimmed to one
//! benchmark on the CBA bus: the `con` cell is the analysis campaign
//! (with the `[report] pwcet` columns), the `custom` cell the deployment
//! with live periodic co-runners.
//!
//! ```text
//! cargo run --release --example wcet_analysis
//! ```

use cba_platform::{run_scenario, ScenarioDef};

fn main() {
    let runs = 200;
    let bench = "canrdr";
    println!("MBPTA analysis of '{bench}' on the CBA bus ({runs} analysis runs)\n");

    let mut def = ScenarioDef::parse(include_str!("../scenarios/paper_pwcet.scn"))
        .expect("shipped scenario parses");
    def.runs = runs;
    for axis in &mut def.axes {
        match axis.key.as_str() {
            "bench" => axis.values = vec![bench.into()],
            "setup" => axis.values = vec!["cba".into()],
            _ => {}
        }
    }
    let report = run_scenario(&def).expect("shipped scenario runs");
    let [analysis, deployment] = &report.cells[..] else {
        panic!("expected a con and a custom cell");
    };
    let pwcet = analysis.pwcet.as_ref().expect("the file asks for pwcet");
    let Some(fit) = &pwcet.fit else {
        println!("no pWCET fit: {}", pwcet.diag.as_deref().unwrap_or("?"));
        return;
    };

    println!("1. iid applicability battery (needed before any EVT fit):");
    println!("   Kolmogorov-Smirnov (split half): p = {:.3}", fit.ks_p);
    println!("   Ljung-Box (20 lags):             p = {:.3}", fit.lb_p);
    println!("   Wald-Wolfowitz runs test:        p = {:.3}", fit.runs_p);
    println!(
        "   -> {}\n",
        if fit.iid_ok {
            "PASS: the randomized platform delivers iid measurements"
        } else {
            "MARGINAL: inspect the sample before trusting the fit"
        }
    );

    println!(
        "2. Gumbel fit on block maxima: mu = {:.0}, beta = {:.1}\n",
        fit.mu, fit.beta
    );

    println!("3. pWCET curve (execution time exceeded with probability p per run):");
    for (p, bound) in pwcet.probs.iter().zip(&fit.bounds) {
        println!("   p = {p:>6.0e}  ->  {bound:>10.0} cycles");
    }
    println!();

    println!("4. soundness check:");
    println!(
        "   max observed at analysis time : {:>10.0} cycles",
        analysis.max
    );
    println!(
        "   max observed in deployment    : {:>10.0} cycles",
        deployment.max
    );
    let i = pwcet.probs.iter().position(|&p| p == 1e-12);
    let bound = i.map_or(f64::NAN, |i| fit.bounds[i]);
    println!(
        "   pWCET(1e-12) = {:.0} dominates both: {}",
        bound,
        bound >= analysis.max && bound >= deployment.max
    );
}
