//! Conformance of the shipped scenario files to the Rust experiment
//! drivers, plus golden round-trips of the scenario format.
//!
//! The contract under test: `scenarios/paper_fig1.scn` expands to
//! exactly the `BusSetup::paper_setups()` × `Scenario` grid that
//! `cba_platform::experiments::fig1` runs — same cells, same order, same
//! per-cell seeds, same specs — so the CLI and the Rust API reproduce
//! identical Figure-1 numbers.

use cba_platform::experiments::fig1_def;
use cba_platform::scenario::{AxisValue, ScenarioDef, TuaSpec};
use cba_platform::BusSetup;
use cba_workloads::suite;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn read_scn(name: &str) -> String {
    let path = scenarios_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

#[test]
fn paper_fig1_scn_expands_to_the_paper_grid() {
    let def = ScenarioDef::parse(&read_scn("paper_fig1.scn")).expect("shipped file parses");
    assert_eq!(def.runs, 1000, "the paper uses 1,000 runs per bar");
    assert_eq!(def.seed, 2017);
    let cells = def.expand().expect("shipped file expands");

    let benchmarks = suite::fig1_suite();
    let setups = BusSetup::paper_setups();
    assert_eq!(cells.len(), benchmarks.len() * setups.len() * 2);

    let mut i = 0;
    for (bi, profile) in benchmarks.iter().enumerate() {
        for (si, setup) in setups.iter().enumerate() {
            for (ci, scenario) in ["ISO", "CON"].into_iter().enumerate() {
                let cell = &cells[i];
                assert_eq!(cell.label("bench"), Some(profile.name), "cell {i}");
                assert_eq!(
                    cell.label("setup"),
                    Some(setup.label().as_str()),
                    "cell {i}"
                );
                assert_eq!(cell.label("scenario"), Some(scenario), "cell {i}");
                // The driver's seed derivation, bit for bit.
                assert_eq!(
                    cell.seed,
                    def.seed ^ ((bi as u64) << 40 | (si as u64) << 20 | ci as u64),
                    "cell {i}"
                );
                // The spec matches the Rust driver's RunSpec::paper shape.
                let spec = &cell.spec;
                assert_eq!(spec.platform.n_cores, 4);
                assert_eq!(spec.platform.latency.max_latency(), 56);
                assert_eq!(
                    spec.platform.cba.is_some(),
                    !matches!(setup, BusSetup::Rp),
                    "cell {i}"
                );
                assert_eq!(spec.wcet_mode, scenario == "CON", "cell {i}");
                assert_eq!(spec.loads.len(), 4);
                i += 1;
            }
        }
    }
}

#[test]
fn paper_fig1_scn_is_structurally_identical_to_fig1_def() {
    let parsed = ScenarioDef::parse(&read_scn("paper_fig1.scn")).expect("parses");
    let programmatic = fig1_def(&suite::fig1_suite(), parsed.runs, parsed.seed);

    let file_cells = parsed.expand().expect("file expands");
    let driver_cells = programmatic.expand().expect("driver def expands");
    assert_eq!(file_cells.len(), driver_cells.len());
    for (f, d) in file_cells.iter().zip(&driver_cells) {
        assert_eq!(f.labels, d.labels);
        assert_eq!(f.seed, d.seed);
        // RunSpec has no PartialEq (trait objects downstream); the Debug
        // rendering covers every field, including the resolved profiles.
        assert_eq!(format!("{:?}", f.spec), format!("{:?}", d.spec));
    }
    // The report shaping (RP-ISO normalization) matches too.
    assert_eq!(parsed.report, programmatic.report);
}

#[test]
fn paper_fig1_cell_means_match_the_fig1_driver_bit_for_bit() {
    // Numeric equivalence on a trimmed grid: the parsed file, restricted
    // to a short benchmark, must reproduce the fig1() driver exactly
    // (same seeds, same specs => same floats).
    let mut quick = suite::rspeed();
    quick.accesses = 300;

    let mut def = ScenarioDef::parse(&read_scn("paper_fig1.scn")).expect("parses");
    def.runs = 3;
    def.template.tua = TuaSpec::Profile {
        name: "rspeed".into(),
        overrides: vec![("accesses".into(), "300".into())],
    };
    let bench_axis = def
        .axes
        .iter_mut()
        .find(|a| a.key == "bench")
        .expect("bench axis");
    bench_axis.values = vec![AxisValue::Raw("rspeed".into())];

    let report = cba_platform::run_scenario(&def).expect("trimmed grid runs");
    let driver = cba_platform::experiments::fig1(&[quick], 3, def.seed);

    assert_eq!(report.cells.len(), driver.len());
    for (cell, bar) in report.cells.iter().zip(&driver) {
        assert_eq!(cell.label("setup"), Some(bar.setup.as_str()));
        assert_eq!(cell.label("scenario"), Some(bar.scenario));
        assert_eq!(cell.mean, bar.mean_cycles, "means must be bit-identical");
        assert_eq!(cell.normalized, Some(bar.normalized));
        assert_eq!(cell.normalized_ci95, Some(bar.ci95));
    }
}

#[test]
fn paper_fig1_fast_path_matches_the_naive_loop_bit_for_bit() {
    // The shipped grid runs on the event-horizon engine by default; a
    // trimmed version re-run through the per-cycle reference loop must
    // produce the exact same floats (means, CIs, normalization).
    let mut def = ScenarioDef::parse(&read_scn("paper_fig1.scn")).expect("parses");
    def.runs = 3;
    def.template.tua = TuaSpec::Profile {
        name: "rspeed".into(),
        overrides: vec![("accesses".into(), "300".into())],
    };
    let bench_axis = def
        .axes
        .iter_mut()
        .find(|a| a.key == "bench")
        .expect("bench axis");
    bench_axis.values = vec![AxisValue::Raw("rspeed".into())];

    assert_eq!(def.template.engine, "events", "fast path is the default");
    let fast = cba_platform::run_scenario(&def).expect("fast grid runs");
    def.template.engine = "naive".into();
    let naive = cba_platform::run_scenario(&def).expect("naive grid runs");

    assert_eq!(fast.cells.len(), naive.cells.len());
    for (f, n) in fast.cells.iter().zip(&naive.cells) {
        assert_eq!(f.labels, n.labels);
        assert_eq!(f.mean, n.mean, "cell {:?}", f.labels);
        assert_eq!(f.ci95, n.ci95, "cell {:?}", f.labels);
        assert_eq!(f.min, n.min, "cell {:?}", f.labels);
        assert_eq!(f.max, n.max, "cell {:?}", f.labels);
        assert_eq!(f.percentiles, n.percentiles, "cell {:?}", f.labels);
        assert_eq!(f.utilization, n.utilization, "cell {:?}", f.labels);
        assert_eq!(f.normalized, n.normalized, "cell {:?}", f.labels);
    }
}

#[test]
fn every_shipped_scenario_parses_expands_and_round_trips() {
    let dir = scenarios_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("scn") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let def =
            ScenarioDef::parse(&text).unwrap_or_else(|e| panic!("{path:?} fails to parse: {e}"));
        let cells = def
            .expand()
            .unwrap_or_else(|e| panic!("{path:?} fails to expand: {e}"));
        assert!(!cells.is_empty(), "{path:?} expands to nothing");

        // parse -> expand -> re-render -> parse is lossless.
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("{path:?} render does not re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed, "{path:?} render round-trip");
        let recells = reparsed.expand().expect("re-rendered def expands");
        for (a, b) in cells.iter().zip(&recells) {
            assert_eq!(a.labels, b.labels, "{path:?}");
            assert_eq!(a.seed, b.seed, "{path:?}");
        }
        checked += 1;
    }
    assert!(checked >= 8, "expected the shipped grids, found {checked}");
}

/// Every shipped scenario has a committed golden of its canonical render
/// under `tests/data/<name>.rendered.scn`, and the render matches it —
/// so an unrendered (new scenario without a golden) or drifted (parser or
/// renderer change) scenario fails CI. Regenerate the goldens with
/// `UPDATE_GOLDENS=1 cargo test --test scenario_conformance`.
#[test]
fn every_shipped_scenario_matches_its_committed_golden_render() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    let data_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut checked = 0;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("scn") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let def = ScenarioDef::parse(&std::fs::read_to_string(&path).expect("readable"))
            .unwrap_or_else(|e| panic!("{path:?} fails to parse: {e}"));
        let rendered = def.render();
        let golden_path = data_dir.join(format!("{stem}.rendered.scn"));
        if update {
            std::fs::write(&golden_path, &rendered).expect("write golden");
        } else {
            let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
                panic!(
                    "{golden_path:?}: {e}\nevery scenarios/*.scn needs a committed golden \
                     render; run UPDATE_GOLDENS=1 cargo test --test scenario_conformance"
                )
            });
            assert_eq!(
                rendered, golden,
                "canonical render of {stem}.scn drifted; regenerate with \
                 UPDATE_GOLDENS=1 cargo test --test scenario_conformance"
            );
        }
        checked += 1;
    }
    assert!(checked >= 8, "expected the shipped grids, found {checked}");
    // And no orphaned goldens for scenarios that no longer exist.
    for entry in std::fs::read_dir(&data_dir).expect("tests/data exists") {
        let path = entry.expect("readable entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(stem) = name.strip_suffix(".rendered.scn") {
            assert!(
                scenarios_dir().join(format!("{stem}.scn")).exists(),
                "orphaned golden {name}: scenarios/{stem}.scn does not exist"
            );
        }
    }
}

/// `scenarios/README.md` documents the key table: its commented example
/// parses, lists exactly the table's section keys (commented `#key =`
/// lines included), and its `[sweep]` part names every sweep axis except
/// the `[tua]` profile knobs, which it covers as a group.
#[test]
fn readme_example_documents_every_key_of_the_table() {
    use cba_platform::scenario::{axes, KEYS};
    use std::collections::BTreeSet;

    let readme = std::fs::read_to_string(scenarios_dir().join("README.md")).expect("README");
    let block = readme
        .split("```ini\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("scenarios/README.md has an ```ini example");
    ScenarioDef::parse(block).unwrap_or_else(|e| panic!("README example fails to parse: {e}"));

    let mut section = String::new();
    let mut documented = BTreeSet::new();
    for line in block.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[') {
            section = name.trim_end_matches(']').to_string();
            continue;
        }
        let entry = line.strip_prefix('#').unwrap_or(line);
        let Some((key, _)) = entry.split_once('=') else {
            continue;
        };
        let key = key.trim_end();
        let is_key = !key.is_empty()
            && key
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if is_key {
            documented.insert((section.clone(), key.to_string()));
        }
    }

    let (swept, keys): (BTreeSet<_>, BTreeSet<_>) =
        documented.into_iter().partition(|(s, _)| s == "sweep");
    let table: BTreeSet<(String, String)> = KEYS
        .iter()
        .filter(|k| k.section != "sweep")
        .map(|k| (k.section.to_string(), k.name.to_string()))
        .collect();
    assert_eq!(keys, table, "README keys vs the key table");

    let swept: BTreeSet<String> = swept.into_iter().map(|(_, axis)| axis).collect();
    for axis in &swept {
        assert!(
            axes().contains(&axis.as_str()),
            "README sweeps unknown axis '{axis}'"
        );
    }
    for k in KEYS {
        let Some(axis) = k.axis else { continue };
        let knob = k.section == "tua" && axis == k.name;
        assert!(
            knob || swept.contains(axis),
            "README [sweep] lacks axis '{axis}'"
        );
    }
}

/// The `### Output` table of `scenarios/README.md` names every report
/// column, and exactly the JSON keys and CSV fields a cell with every
/// column exports. Keyed and split fields match their documented
/// patterns: `pNN`, `pwcet@P` and `clusterK_share`.
#[test]
fn readme_output_table_documents_every_report_column() {
    use cba_platform::report::{PwcetCell, PwcetFit, ScenarioReport};
    use cba_platform::{CellOutcome, CellReport};
    use std::collections::{BTreeMap, BTreeSet};

    let readme = std::fs::read_to_string(scenarios_dir().join("README.md")).expect("README");
    let output = readme
        .split("### Output")
        .nth(1)
        .expect("### Output section");
    // Table rows: | `name` | JSON, CSV | when it is present |
    let documented: BTreeMap<&str, BTreeSet<&str>> = output
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|line| {
            let (name, rest) = line.split_once('`')?;
            let formats = rest.split('|').nth(1)?;
            Some((name, formats.split(',').map(str::trim).collect()))
        })
        .collect();

    let fitted = CellReport {
        labels: Vec::new(),
        seed: u64::MAX,
        runs: 3,
        unfinished: 1,
        outcome: CellOutcome::Panicked("boom".into()),
        panicked: 1,
        budget_trips: 1,
        mean: 2.0,
        ci95: 0.5,
        min: 1.0,
        max: 3.0,
        percentiles: vec![(0.5, 2.0), (0.999, 3.0)],
        utilization: 0.5,
        normalized: Some(1.0),
        normalized_ci95: Some(0.25),
        tua_max_burst: Some(2.0),
        contender_max_gap: Some(9.0),
        cluster_shares: Some(vec![0.5, 0.25]),
        cluster_fairness: Some(0.9),
        window_jain: Some(vec![1.0, 0.5]),
        window_shares: Some(vec![vec![0.5, 0.5], vec![0.75, 0.25]]),
        pwcet: Some(PwcetCell {
            probs: vec![1e-9, 1e-12],
            fit: Some(PwcetFit {
                bounds: vec![5.0, 6.0],
                mu: 3.0,
                beta: 0.5,
                blocks: 30,
                ks_p: 0.5,
                lb_p: 0.5,
                runs_p: 0.5,
                iid_ok: true,
            }),
            diag: None,
        }),
        mem_miss_rate: Some(0.5),
        mem_coherence_frac: Some(0.25),
        mem_writebacks: Some(4.0),
    };
    for col in fitted.columns() {
        assert!(
            documented.contains_key(col.name),
            "README lacks column `{}`",
            col.name
        );
    }
    let mut diag = fitted.clone();
    diag.pwcet = Some(PwcetCell {
        probs: vec![1e-9, 1e-12],
        fit: None,
        diag: Some("too few samples".into()),
    });
    let report = ScenarioReport {
        name: "every_column".into(),
        seed: 1,
        runs: 3,
        cells: vec![fitted, diag],
    };

    let pattern = |field: &str| -> String {
        let digit_after = |prefix: &str| {
            field
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        };
        if field.starts_with("pwcet@") {
            "pwcet@P".into()
        } else if digit_after("p") {
            "pNN".into()
        } else if digit_after("cluster") && field.ends_with("_share") {
            "clusterK_share".into()
        } else {
            field.into()
        }
    };
    let json = report.to_json();
    let json_keys: BTreeSet<String> = json
        .lines()
        .filter_map(|line| line.strip_prefix("      \""))
        .filter_map(|line| line.split_once("\": "))
        .map(|(key, _)| pattern(key))
        .collect();
    let csv = report.to_csv();
    let csv_fields: BTreeSet<String> = csv
        .lines()
        .next()
        .unwrap()
        .split(',')
        .map(pattern)
        .collect();
    for (format, exported) in [("JSON", json_keys), ("CSV", csv_fields)] {
        let named: BTreeSet<String> = documented
            .iter()
            .filter(|(_, formats)| formats.contains(format))
            .map(|(name, _)| name.to_string())
            .collect();
        assert_eq!(exported, named, "{format} fields vs the README table");
    }
}
