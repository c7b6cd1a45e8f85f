//! End-to-end simulator throughput on the shipped scenarios: the naive
//! per-cycle loop and the events engine, in simulated **cycles per
//! second**.
//!
//! Every `scenarios/*.scn` expands to its full sweep grid; the same seeded
//! runs execute under both engines, and their results are asserted
//! bit-identical. Each engine's pass over a scenario is timed by
//! [`cba_bench::timing::time`] in [`PASSES`] samples; the harness's
//! warm-up call (one pass whenever a pass takes 1 ms or more, as every
//! pass does at the defaults) yields the results the identity check
//! compares.
//!
//! A machine-readable summary is written to `BENCH_sim_speed.json` (via
//! `sim_core::export`) so CI can record the perf trajectory: the `host` it
//! ran on and, per row, the median pass under `<engine>_seconds` and
//! `<engine>_cycles_per_sec`, and the fastest and slowest pass under the
//! same keys suffixed `_min` and `_max`. `CBA_RUNS` scales the per-spec
//! run count (smoke mode in CI); `CBA_SEED` sets the master seed.
//!
//! Expected shape: the events engine wins multi-× wherever the bus idles
//! for long stretches, and two orders of magnitude or more wherever a run
//! settles into a steady limit cycle it can fast-forward, on the flat bus
//! (`fairness_sweep`, `scaling_16core`) and on the fabric
//! (`fabric_fairness`, `clustered_16core`); it roughly ties naive where
//! every cycle carries fresh randomness or cache-model state.

use cba_bench::timing::{host, time, Host, Timing};
use cba_bench::{print_row, rule, runs_from_env, seed_from_env};
use cba_platform::scenario::ScenarioDef;
use cba_platform::{run_once, RunResult, RunSpec};
use sim_core::export::Json;
use sim_core::Engine;

/// Timed passes per engine and scenario (odd, so the median is a pass).
const PASSES: usize = 5;

/// One benchmark scenario: a label and the specs of its expanded grid.
struct Case {
    name: String,
    specs: Vec<RunSpec>,
}

/// Every shipped `scenarios/*.scn`, expanded.
fn cases() -> Vec<Case> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .filter_map(|e| {
            let p = e.expect("readable dir entry").path();
            (p.extension().map(|x| x == "scn") == Some(true)).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no shipped scenarios under {dir}");
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().to_string();
            let text = std::fs::read_to_string(&path).expect("scenario readable");
            let specs = ScenarioDef::parse(&text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .expand()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .into_iter()
                .map(|cell| cell.spec)
                .collect();
            Case { name, specs }
        })
        .collect()
}

/// Executes every (spec, run) of a case under `engine`.
fn pass(case: &Case, runs: usize, seed: u64, engine: Engine) -> Vec<RunResult> {
    let mut results = Vec::with_capacity(case.specs.len() * runs);
    for (si, spec) in case.specs.iter().enumerate() {
        let mut spec = spec.clone();
        spec.drive = engine;
        results
            .extend((0..runs).map(|run| run_once(&spec, seed ^ ((si as u64) << 32 | run as u64))));
    }
    results
}

/// Times [`PASSES`] passes of a case under `engine`; returns the timing
/// and the results of the warm-up pass.
fn measure(case: &Case, runs: usize, seed: u64, engine: Engine) -> (Timing, Vec<RunResult>) {
    let mut first = None;
    let timing = time(PASSES, || {
        first.get_or_insert(pass(case, runs, seed, engine));
    });
    (timing, first.expect("time() calls its body"))
}

fn main() {
    let runs = runs_from_env(20);
    let seed = seed_from_env();
    let host = host();
    println!("sim_speed: {runs} runs per spec, seed {seed}, median of {PASSES} passes per engine");
    println!("{host}");
    rule(70);
    print_row(&[
        ("scenario", 20),
        ("sim cycles", 12),
        ("naive cyc/s", 13),
        ("events cyc/s", 13),
        ("ev/naive", 9),
    ]);
    rule(70);

    let mut rows = Vec::new();
    for case in cases() {
        let (naive, naive_results) = measure(&case, runs, seed, Engine::Naive);
        let (events, events_results) = measure(&case, runs, seed, Engine::Events);
        assert_eq!(
            naive_results, events_results,
            "{}: naive and events engines disagree",
            case.name
        );
        let cycles: u64 = naive_results.iter().map(|r| r.total_cycles).sum();
        let rate = |s: f64| cycles as f64 / s;
        let speedup = naive.median() / events.median();

        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::str(&case.name)),
            ("specs".into(), Json::Int(case.specs.len() as u64)),
            ("simulated_cycles".into(), Json::Int(cycles)),
        ];
        for (label, t) in [("naive", &naive), ("events", &events)] {
            let secs = [("", t.median()), ("_min", t.min()), ("_max", t.max())];
            fields.extend(secs.map(|(k, s)| (format!("{label}_seconds{k}"), Json::Num(s))));
            // The slowest pass has the lowest rate.
            let rates = [("", t.median()), ("_min", t.max()), ("_max", t.min())];
            fields.extend(
                rates.map(|(k, s)| (format!("{label}_cycles_per_sec{k}"), Json::Num(rate(s)))),
            );
        }
        fields.push(("speedup".into(), Json::Num(speedup)));
        print_row(&[
            (&case.name, 20),
            (&cycles.to_string(), 12),
            (&format!("{:.3e}", rate(naive.median())), 13),
            (&format!("{:.3e}", rate(events.median())), 13),
            (&format!("{speedup:.2}x"), 9),
        ]);
        rows.push(Json::obj(fields));
    }
    rule(70);

    let Host { nproc, cpu, rustc } = host;
    let host = [("nproc", nproc), ("cpu", cpu), ("rustc", rustc)];
    let doc = Json::obj([
        ("bench", Json::str("sim_speed")),
        ("runs_per_spec", Json::Int(runs as u64)),
        ("passes", Json::Int(PASSES as u64)),
        ("seed", Json::Int(seed)),
        (
            "engines",
            Json::Arr(["naive", "events"].map(Json::str).into()),
        ),
        (
            "host",
            Json::obj(host.map(|(key, value)| (key, Json::str(value)))),
        ),
        ("scenarios", Json::Arr(rows)),
    ]);
    // Cargo runs benches with the package directory as CWD; anchor the
    // artifact at the workspace root so CI finds it in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_speed.json");
    std::fs::write(path, doc.render()).expect("write BENCH_sim_speed.json");
    println!("sim_speed: wrote {path}");
}
