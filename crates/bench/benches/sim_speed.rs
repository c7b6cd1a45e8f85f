//! End-to-end simulator throughput on the shipped scenarios: the naive
//! per-cycle loop and the events engine, in simulated **cycles per
//! second**.
//!
//! Every `scenarios/*.scn` expands to its full sweep grid; the same seeded
//! runs execute under each engine listed in `CBA_ENGINES` (comma-separated,
//! default `naive,events`). Listing an engine that does not exist is a
//! hard error — the bench panics with the parser's message instead of
//! emitting null columns for a backend nobody ran. When both engines run,
//! their results are asserted bit-identical.
//!
//! Each engine runs each scenario once untimed (a warm-up whose results
//! feed the identity check), then times [`PASSES`] passes over the same
//! runs; a single pass moves by tens of percent on a shared host. A
//! machine-readable summary is written to `BENCH_sim_speed.json` (via
//! `sim_core::export`) so CI can record the perf trajectory: per row, the
//! median pass under `<engine>_seconds` and `<engine>_cycles_per_sec`, and
//! the fastest and slowest pass under the same keys suffixed `_min` and
//! `_max`. `CBA_RUNS` scales the per-spec run count (smoke mode in CI);
//! `CBA_SEED` sets the master seed.
//!
//! Expected shape: the events engine wins multi-× wherever the bus idles
//! for long stretches, and two orders of magnitude or more wherever a run
//! settles into a steady limit cycle it can fast-forward, on the flat bus
//! (`fairness_sweep`, `scaling_16core`) and on the fabric
//! (`fabric_fairness`, `clustered_16core`); it roughly ties naive where
//! every cycle carries fresh randomness or cache-model state.

use cba_bench::{print_row, rule, runs_from_env, seed_from_env};
use cba_platform::scenario::{parse_engine, ScenarioDef};
use cba_platform::{run_once, RunResult, RunSpec};
use sim_core::export::Json;
use sim_core::Engine;
use std::time::Instant;

/// Timed passes per engine and scenario (odd, so the median is a pass).
const PASSES: usize = 5;

/// One engine's passes over a case: the seconds of the timed passes,
/// sorted, and the results of the untimed one.
struct Passes {
    secs: Vec<f64>,
    results: Vec<RunResult>,
}

impl Passes {
    fn median(&self) -> f64 {
        self.secs[PASSES / 2]
    }
}

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

/// The engine list under measurement. Unknown names are a hard error so a
/// stale `CBA_ENGINES` (or a removed backend) fails loudly instead of
/// producing a JSON row full of nulls.
fn engines_from_env() -> Vec<Engine> {
    let raw = std::env::var("CBA_ENGINES").unwrap_or_else(|_| "naive,events".into());
    let engines: Vec<Engine> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            parse_engine(name)
                .unwrap_or_else(|e| panic!("CBA_ENGINES: {e}; no columns were emitted"))
        })
        .collect();
    assert!(!engines.is_empty(), "CBA_ENGINES selected no engines");
    engines
}

/// Executes every (spec, run) of a case under `mode`; returns (simulated
/// cycles, elapsed seconds, the full run results for the cross-checks).
fn measure(case: &Case, runs: usize, seed: u64, mode: Engine) -> (u64, f64, Vec<RunResult>) {
    let mut cycles = 0u64;
    let mut results = Vec::with_capacity(case.specs.len() * runs);
    let start = Instant::now();
    for (si, spec) in case.specs.iter().enumerate() {
        let mut spec = spec.clone();
        spec.drive = mode;
        for run in 0..runs {
            let result = run_once(&spec, seed ^ ((si as u64) << 32 | run as u64));
            cycles += result.total_cycles;
            results.push(result);
        }
    }
    (cycles, start.elapsed().as_secs_f64(), results)
}

fn main() {
    let runs = runs_from_env(20);
    let seed = seed_from_env();
    let engines = engines_from_env();
    let labels: Vec<String> = engines.iter().map(|e| e.to_string()).collect();
    println!(
        "sim_speed: {runs} runs per spec, seed {seed}, engines {}, median of {PASSES} passes",
        labels.join(",")
    );
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
        // The passes per engine, in naive/events slots; engines not listed
        // in CBA_ENGINES simply leave their slot empty and their JSON keys
        // absent (never null).
        let mut slots: [Option<Passes>; 2] = [None, None];
        let mut cycles = 0u64;
        for &engine in &engines {
            let (c, _, results) = measure(&case, runs, seed, engine);
            let mut secs: Vec<f64> = (0..PASSES)
                .map(|_| measure(&case, runs, seed, engine).1)
                .collect();
            secs.sort_by(f64::total_cmp);
            cycles = c;
            slots[(engine == Engine::Events) as usize] = Some(Passes { secs, results });
        }
        let [naive, events] = &slots;
        let rate = |s: f64| cycles as f64 / s;

        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::str(&case.name)),
            ("specs".into(), Json::Num(case.specs.len() as f64)),
            ("simulated_cycles".into(), Json::Num(cycles as f64)),
        ];
        for (label, slot) in [("naive", naive), ("events", events)] {
            if let Some(p) = slot {
                let (min, median, max) = (p.secs[0], p.median(), p.secs[PASSES - 1]);
                fields.extend([
                    (format!("{label}_seconds"), Json::Num(median)),
                    (format!("{label}_seconds_min"), Json::Num(min)),
                    (format!("{label}_seconds_max"), Json::Num(max)),
                    (format!("{label}_cycles_per_sec"), Json::Num(rate(median))),
                    (format!("{label}_cycles_per_sec_min"), Json::Num(rate(max))),
                    (format!("{label}_cycles_per_sec_max"), Json::Num(rate(min))),
                ]);
            }
        }

        let speedup = match (naive, events) {
            (Some(n), Some(e)) => {
                assert_eq!(
                    n.results, e.results,
                    "{}: naive and events engines disagree",
                    case.name
                );
                let s = n.median() / e.median();
                fields.push(("speedup".into(), Json::Num(s)));
                Some(s)
            }
            _ => None,
        };
        let fmt_rate = |slot: &Option<Passes>| {
            slot.as_ref()
                .map(|p| format!("{:.3e}", rate(p.median())))
                .unwrap_or_else(|| "-".into())
        };
        print_row(&[
            (&case.name, 20),
            (&format!("{cycles}"), 12),
            (&fmt_rate(naive), 13),
            (&fmt_rate(events), 13),
            (
                &speedup.map(|s| format!("{s:.2}x")).unwrap_or("-".into()),
                9,
            ),
        ]);
        rows.push(Json::obj(fields));
    }
    rule(70);

    let doc = Json::obj([
        ("bench", Json::str("sim_speed")),
        ("runs_per_spec", Json::Num(runs as f64)),
        ("passes", Json::Num(PASSES as f64)),
        ("seed", Json::Num(seed as f64)),
        ("engines", Json::Arr(labels.iter().map(Json::str).collect())),
        ("scenarios", Json::Arr(rows)),
    ]);
    // Cargo runs benches with the package directory as CWD; anchor the
    // artifact at the workspace root so CI finds it in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_speed.json");
    std::fs::write(path, doc.render()).expect("write BENCH_sim_speed.json");
    println!("sim_speed: wrote {path}");
}
