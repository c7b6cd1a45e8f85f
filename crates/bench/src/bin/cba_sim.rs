//! `cba-sim` — the scenario CLI: run custom platform campaigns without
//! writing Rust.
//!
//! Two modes, one engine:
//!
//! * **Scenario-file mode** (`--scenario-file grid.scn`): parse a
//!   declarative scenario file, expand its `[sweep]` grid into cells, run
//!   every cell as a Monte-Carlo campaign and print/export the per-cell
//!   statistics. The shipped grids live in `scenarios/` at the repository
//!   root; `scenarios/README.md` documents every key of the format.
//! * **Flag mode** (`--bench`/`--loads`): one ad-hoc configuration from
//!   command-line flags. The flags set the keys of a one-cell scenario
//!   named `cli` through `ScenarioDef::set`, so each flag accepts exactly
//!   what its scenario key accepts, and the cell runs like a file's. Its
//!   report row is labelled `policy`, `cba` and `config`.
//!
//! Both modes accept `--out results.json|csv` for structured export, and
//! `--runs`/`--seed`/`--threads`/`--engine` override the matching keys.
//!
//! Scenario-file mode is crash-safe: `--checkpoint DIR` journals every
//! finished cell (fsynced) and `--resume` skips the journaled cells after
//! a crash, producing a report bit-identical to an uninterrupted run. The
//! `CBA_CRASH_AFTER_RECORDS=N` environment variable aborts the process
//! right after the `N`-th journal record — the hook the crash-resume CI
//! job and local reproductions use to die at a deterministic point.

use cba_platform::checkpoint::FaultPlan;
use cba_platform::report::{run_scenario_controlled, RunControls, ScenarioReport};
use cba_platform::scenario::{axes, keys_in, sections, ScenarioDef, ScenarioError};
use std::path::Path;

const USAGE_FLAGS: &str = "\
usage: cba_sim --scenario-file FILE [--runs N] [--seed S] [--threads N]
               [--engine events|naive] [--out FILE] [--format json|csv]
               [--checkpoint DIR] [--resume]
       cba_sim [--policy fifo|rr|tdma|lot|rp|pri] [--cba none|homog|hcba|w:a,b,..]
               [--bench NAME | --loads SPEC] [--scenario iso|con] [--wcet]
               [--runs N] [--seed S] [--cores N] [--engine events|naive]
               [--out FILE] [--format json|csv]

--threads N   worker threads for the grid-wide run executor (0 = one per
              hardware thread); every (cell x run) task of a campaign is
              scheduled on one shared pool
--engine      cycle loop: 'events' (event-horizon fast path with
              limit-cycle fast-forward, default; 'fluid' is an alias) or
              'naive' (per-cycle reference loop, for debugging; results
              are bit-identical to events)
--checkpoint  journal each finished cell to DIR/campaign.journal, fsynced
              per record, so a crashed campaign loses at most the cells
              in flight (scenario-file mode only)
--resume      skip the cells already journaled in the --checkpoint DIR;
              the resumed report is bit-identical to an uninterrupted run
              at any thread count (the journal refuses to resume a
              different scenario)

load SPEC entries (comma-separated, first entry = core 0, the TuA):
    bench:NAME             catalog benchmark through the core model
    fixed:REQS:DUR:GAP     fixed-request task
    sat:DUR                saturating contender
    per:DUR:PERIOD:PHASE   periodic contender
    stream:ACCESSES        streaming loads
    idle                   nothing
    agent:KIND:ARGS...     a registered agent kind (agent:mem and
                           agent:shared read the [memory] section)
";

const USAGE_EXAMPLES: &str = "\
examples:
    cba_sim --scenario-file scenarios/paper_fig1.scn --runs 50 --out /tmp/fig1.json
    cba_sim --bench matrix --scenario con --cba homog --runs 100
    cba_sim --loads fixed:1000:6:4,sat:28,sat:28,sat:28 --policy rr
";

/// The usage text. Its scenario-format block lists the key table, so it
/// names every section, key and sweep axis the parser accepts.
fn usage_text() -> String {
    let mut out = format!(
        "{USAGE_FLAGS}\nscenario-file format (scenarios/README.md documents every key):\n    \
         # '#' starts a comment; 'key = value' lines live under [section] headers\n"
    );
    for section in sections() {
        let keys = if section == "sweep" {
            let axes = axes().join(", ");
            format!("AXIS = V1,V2,... per grid axis (the cross-product runs as one batch); axes: {axes}")
        } else {
            keys_in(section).join(", ")
        };
        wrap_row(&mut out, &format!("[{section}]"), &keys);
    }
    out.push('\n');
    out.push_str(USAGE_EXAMPLES);
    out
}

/// Appends `head` and `text`, word-wrapped to 78 columns under a
/// hanging indent.
fn wrap_row(out: &mut String, head: &str, text: &str) {
    let mut line = format!("    {head:<14}");
    let indent = line.len();
    for word in text.split(' ') {
        if line.len() > indent && line.len() + 1 + word.len() > 78 {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(indent);
        } else if line.len() > indent {
            line.push(' ');
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n");
    eprintln!("{}", usage_text());
    std::process::exit(2)
}

/// Runtime failure (unreadable scenario, unwritable path, interrupted or
/// mismatched journal): one clear line, exit 1, no usage dump and no
/// panic backtrace.
fn die(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1)
}

/// The command line, with every value still raw text: the scenario keys
/// the flags set do the parsing.
#[derive(Default)]
struct Cli {
    scenario_file: Option<String>,
    policy: Option<String>,
    cba: Option<String>,
    cores: Option<String>,
    bench: Option<String>,
    loads: Option<String>,
    scenario: Option<String>,
    wcet: bool,
    runs: Option<String>,
    seed: Option<String>,
    threads: Option<String>,
    engine: Option<String>,
    out: Option<String>,
    format: Option<String>,
    checkpoint: Option<String>,
    resume: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--scenario-file" => &mut cli.scenario_file,
            "--policy" => &mut cli.policy,
            "--cba" => &mut cli.cba,
            "--cores" => &mut cli.cores,
            "--bench" => &mut cli.bench,
            "--loads" => &mut cli.loads,
            "--scenario" => &mut cli.scenario,
            "--runs" => &mut cli.runs,
            "--seed" => &mut cli.seed,
            "--threads" => &mut cli.threads,
            "--engine" => &mut cli.engine,
            "--out" => &mut cli.out,
            "--format" => &mut cli.format,
            "--checkpoint" => &mut cli.checkpoint,
            "--wcet" => {
                cli.wcet = true;
                continue;
            }
            "--resume" => {
                cli.resume = true;
                continue;
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0)
            }
            other => return Err(format!("unknown flag '{other}'")),
        };
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        *slot = Some(value.clone());
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| usage(&e));

    // Resolve the export format BEFORE running anything: a typo must not
    // discard a long campaign.
    let export = cli.out.clone().map(|path| {
        let format = cli.format.clone().unwrap_or_else(|| {
            if path.ends_with(".csv") {
                "csv".into()
            } else {
                "json".into()
            }
        });
        if format != "json" && format != "csv" {
            usage(&format!("unknown format '{format}' (expected json, csv)"));
        }
        (path, format)
    });
    // Probe writability BEFORE running anything, for the same reason: an
    // unwritable path must not discard a long campaign at export time.
    if let Some((path, _)) = &export {
        let existed = Path::new(path).exists();
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            die(&format!("cannot write {path}: {e}"));
        }
        if !existed {
            // The probe only proves writability; don't leave an empty
            // file behind if the campaign is interrupted.
            let _ = std::fs::remove_file(path);
        }
    }

    let (mut def, source) = match &cli.scenario_file {
        Some(path) => {
            // Flag-mode options don't apply to a scenario file; reject
            // them loudly instead of silently running the file as-is.
            let ignored: Vec<&str> = [
                ("--bench", cli.bench.is_some()),
                ("--loads", cli.loads.is_some()),
                ("--policy", cli.policy.is_some()),
                ("--cba", cli.cba.is_some()),
                ("--scenario", cli.scenario.is_some()),
                ("--cores", cli.cores.is_some()),
                ("--wcet", cli.wcet),
            ]
            .iter()
            .filter(|(_, set)| *set)
            .map(|(flag, _)| *flag)
            .collect();
            if !ignored.is_empty() {
                usage(&format!(
                    "{} cannot be combined with --scenario-file (set the equivalent keys \
                     in the file; only --runs/--seed/--threads/--engine override it)",
                    ignored.join(", ")
                ));
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            let def = ScenarioDef::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            (def, path.clone())
        }
        None => {
            if cli.checkpoint.is_some() || cli.resume {
                usage("--checkpoint/--resume require --scenario-file (flag mode has one cell)");
            }
            let def = flag_def(&cli).unwrap_or_else(|e| usage(&e));
            (def, "command-line flags".to_string())
        }
    };
    apply_overrides(&mut def, &cli).unwrap_or_else(|e| usage(&e));
    if cli.resume && cli.checkpoint.is_none() && def.checkpoint.dir.is_none() {
        usage("--resume needs --checkpoint DIR (or a [checkpoint] dir key in the scenario)");
    }

    let report = match run(&def, &source, cli.checkpoint.as_deref(), cli.resume) {
        Ok(mut report) => {
            if cli.scenario_file.is_none() {
                report.cells[0].labels = flag_labels(&cli);
            }
            report
        }
        // Flag mode has no journal: its only errors are invalid flags.
        Err(e) if cli.scenario_file.is_none() => usage(&e.to_string()),
        Err(e) => die(&format!("{source}: {e}")),
    };

    print!("{}", report.render_table());
    if let Some((path, format)) = export {
        let body = match format.as_str() {
            "json" => report.to_json(),
            "csv" => report.to_csv(),
            _ => unreachable!("validated before the run"),
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("cba-sim: wrote {format} report to {path}");
    }
}

/// Flag mode's one-cell scenario `cli`. `--policy`, `--cba` and `--cores`
/// set the `[platform]` keys; `--bench NAME` with `--scenario` sets
/// `[tua] load = bench:NAME` and `[contenders] scenario`, while
/// `--loads A,B,...` sets `[tua] load = A` and `[contenders] loads =
/// B,...`; `wcet` is `on` with `--wcet` and `off` without it.
fn flag_def(cli: &Cli) -> Result<ScenarioDef, String> {
    let mut def = ScenarioDef {
        name: "cli".into(),
        ..ScenarioDef::default()
    };
    for (key, value) in [
        ("policy", &cli.policy),
        ("cba", &cli.cba),
        ("cores", &cli.cores),
    ] {
        if let Some(v) = value {
            def.set("platform", key, v)
                .map_err(|e| format!("--{key}: {e}"))?;
        }
    }
    match (&cli.bench, &cli.loads) {
        (Some(_), Some(_)) => return Err("--bench and --loads are mutually exclusive".into()),
        (Some(name), None) => {
            def.set("tua", "load", &format!("bench:{name}"))?;
            def.set(
                "contenders",
                "scenario",
                cli.scenario.as_deref().unwrap_or("con"),
            )?;
        }
        (None, Some(loads)) => match loads.split_once(',') {
            Some((tua, rest)) => {
                def.set("tua", "load", tua.trim())?;
                def.set("contenders", "loads", rest)?;
            }
            None => {
                def.set("tua", "load", loads.trim())?;
                def.set("contenders", "scenario", "custom")?;
            }
        },
        (None, None) => return Err("one of --scenario-file, --bench or --loads is required".into()),
    }
    def.set("contenders", "wcet", if cli.wcet { "on" } else { "off" })?;
    Ok(def)
}

/// Flag mode's cell labels: the raw `--policy` and `--cba` values and the
/// workload (`bench:NAME:SCENARIO` or the `--loads` list).
fn flag_labels(cli: &Cli) -> Vec<(String, String)> {
    let config = match (&cli.bench, &cli.loads) {
        (Some(name), _) => format!("bench:{name}:{}", cli.scenario.as_deref().unwrap_or("con")),
        (None, loads) => loads.clone().unwrap_or_default(),
    };
    let or = |value: &Option<String>, default: &str| value.clone().unwrap_or(default.into());
    vec![
        ("policy".into(), or(&cli.policy, "rp")),
        ("cba".into(), or(&cli.cba, "none")),
        ("config".into(), config),
    ]
}

/// Applies `--runs`, `--seed`, `--threads` (0 = auto) and `--engine`
/// through the scenario keys they override.
fn apply_overrides(def: &mut ScenarioDef, cli: &Cli) -> Result<(), String> {
    for (flag, section, key, value) in [
        ("--runs", "campaign", "runs", &cli.runs),
        ("--seed", "campaign", "seed", &cli.seed),
        ("--threads", "campaign", "threads", &cli.threads),
        ("--engine", "platform", "engine", &cli.engine),
    ] {
        if let Some(v) = value {
            def.set(section, key, v)
                .map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    Ok(())
}

/// Silences the default panic report for the executor's worker threads:
/// a panicking run is contained by the engine and surfaced as its cell's
/// `outcome = panicked` row, so the raw backtrace line is pure noise on a
/// campaign's progress output. Panics on any *other* thread still print.
fn quiet_worker_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("cba-worker"));
        if !in_worker {
            default_hook(info);
        }
    }));
}

/// Runs every cell of `def` (read from `source`) on the crash-safe
/// executor, with one progress line per finished cell.
fn run(
    def: &ScenarioDef,
    source: &str,
    checkpoint: Option<&str>,
    resume: bool,
) -> Result<ScenarioReport, ScenarioError> {
    // Test/CI hook: abort the process (SIGKILL semantics) right after the
    // N-th journal record has been fsynced.
    let faults = match std::env::var("CBA_CRASH_AFTER_RECORDS") {
        Ok(v) => {
            let n: usize = v.parse().unwrap_or_else(|_| {
                die(&format!(
                    "bad CBA_CRASH_AFTER_RECORDS '{v}' (expected a record count)"
                ))
            });
            Some(FaultPlan::new().hard_kill_after(n))
        }
        Err(_) => None,
    };
    eprintln!(
        "cba-sim: scenario '{}' from {source}: {} cells x {} runs, seed {}",
        def.name,
        def.n_cells(),
        def.runs,
        def.seed
    );
    quiet_worker_panics();
    let controls = RunControls {
        checkpoint: checkpoint.map(Path::new),
        resume,
        faults: faults.as_ref(),
    };
    run_scenario_controlled(def, &controls, |done, total, cell| {
        let label: Vec<&str> = cell.labels.iter().map(|(_, v)| v.as_str()).collect();
        eprintln!(
            "cba-sim: [{done}/{total}] {} mean {:.1} cycles",
            label.join(" · "),
            cell.mean
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_platform::scenario::{
        parse_cba_spec, parse_engine, parse_load_spec, parse_policy, KEYS,
    };
    use cba_platform::{BusSetup, CoreLoad, PlatformConfig, RunSpec, Scenario};
    use sim_core::Engine;

    fn cli(line: &str) -> Cli {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args).expect("valid flags")
    }

    /// The spec flag mode built by hand before it became a one-cell
    /// scenario, kept as the reference the scenario path must reproduce.
    fn reference_spec(cli: &Cli) -> RunSpec {
        let cores: usize = cli.cores.as_deref().map_or(4, |c| c.parse().unwrap());
        let policy = parse_policy(cli.policy.as_deref().unwrap_or("rp")).unwrap();
        let setup = BusSetup::Custom {
            policy,
            cba: parse_cba_spec(cli.cba.as_deref().unwrap_or("none"), cores, 56).unwrap(),
        };
        let mut platform = PlatformConfig::paper_n_cores(&setup, cores);
        platform.policy = policy;
        let mut spec = match (&cli.bench, &cli.loads) {
            (Some(name), None) => {
                let scenario = match cli.scenario.as_deref().unwrap_or("con") {
                    "iso" => Scenario::Isolation,
                    "con" => Scenario::MaxContention,
                    other => panic!("unknown scenario '{other}'"),
                };
                let tua = parse_load_spec(&format!("bench:{name}")).unwrap();
                RunSpec::with_platform(platform, scenario, tua)
            }
            (None, Some(loads)) => {
                let all: Vec<CoreLoad> = loads
                    .split(',')
                    .map(|s| parse_load_spec(s.trim()).unwrap())
                    .collect();
                RunSpec::with_platform(
                    platform,
                    Scenario::Custom(all[1..].to_vec()),
                    all[0].clone(),
                )
            }
            _ => panic!("exactly one of --bench and --loads"),
        };
        spec.wcet_mode = cli.wcet;
        spec.drive = cli
            .engine
            .as_deref()
            .map_or(Engine::Events, |e| parse_engine(e).unwrap());
        spec.validate().unwrap();
        spec
    }

    /// The one cell flag mode runs.
    fn flag_cell_spec(cli: &Cli) -> RunSpec {
        let mut def = flag_def(cli).expect("flags build a definition");
        apply_overrides(&mut def, cli).expect("overrides apply");
        let mut cells = def.expand().expect("the definition expands");
        assert_eq!(cells.len(), 1, "flag mode is one cell");
        cells.remove(0).spec
    }

    #[test]
    fn documented_flag_examples_build_the_reference_run_spec() {
        let usage_examples = [
            "--bench matrix --scenario con --cba homog --runs 100",
            "--loads fixed:1000:6:4,sat:28,sat:28,sat:28 --policy rr",
        ];
        for line in usage_examples {
            assert!(
                usage_text().contains(&format!("cba_sim {line}\n")),
                "not a usage example: {line}"
            );
        }
        let others = [
            // The root README repeats the first usage example.
            "--bench rspeed --scenario con --cba homog --runs 5 --seed 42",
            // The remaining flags and their spellings.
            "--bench rspeed --scenario iso --policy lot --cores 2 --wcet --engine fluid",
            "--bench matrix --cores 8 --cba HOMOG --threads 0",
            "--loads fixed:100:6:4 --cores 1 --engine naive",
            "--loads fixed:300:6:4,per:28:90:0,sat:56 --cores 3 --cba w:2:1:1 --policy RR",
        ];
        for line in usage_examples.iter().chain(&others) {
            let cli = cli(line);
            assert_eq!(
                format!("{:?}", flag_cell_spec(&cli)),
                format!("{:?}", reference_spec(&cli)),
                "{line}"
            );
        }
    }

    #[test]
    fn flag_mode_keeps_its_cell_labels() {
        let labels = flag_labels(&cli("--bench matrix --cba homog"));
        let expected = [
            ("policy", "rp"),
            ("cba", "homog"),
            ("config", "bench:matrix:con"),
        ];
        let expected: Vec<(String, String)> = expected
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(labels, expected);
        let labels = flag_labels(&cli("--loads fixed:10:6:4,sat:28 --policy rr --cores 2"));
        assert_eq!(labels[0].1, "rr");
        assert_eq!(labels[2].1, "fixed:10:6:4,sat:28");
    }

    #[test]
    fn bad_flags_fail_before_the_run() {
        let err = |line: &str| flag_def(&cli(line)).unwrap_err();
        assert!(err("--loads fixed:5:0:0,sat:28 --cores 2").contains("DUR must be positive"));
        assert!(err("--loads fixed:5:4294967302:0").contains("bad number '4294967302'"));
        assert!(err("--bench matrix --policy lifo").contains("unknown policy 'lifo'"));
        assert!(err("--bench matrix --cores x").contains("--cores: bad number 'x'"));
        assert!(err("--bench matrix --loads idle").contains("mutually exclusive"));
        assert!(err("--policy rr").contains("is required"));
        // Over-MaxL durations fail when the cell is built, not in a worker.
        let def = flag_def(&cli("--loads fixed:5:5:0,sat:57 --cores 2")).unwrap();
        let e = def.expand().unwrap_err();
        assert!(e.msg.contains("core 1 load 'sat:57'"), "{e}");
        let mut def = flag_def(&cli("--bench matrix")).unwrap();
        assert!(apply_overrides(&mut def, &cli("--bench matrix --runs 0")).is_err());
    }

    #[test]
    fn usage_lists_every_key_and_axis() {
        let text = usage_text();
        for k in KEYS {
            assert!(text.contains(k.name), "usage lacks key '{}'", k.name);
        }
        for axis in axes() {
            assert!(text.contains(axis), "usage lacks axis '{axis}'");
        }
        let block = text.split("scenario-file format").nth(1).unwrap();
        let block = block.split("examples:").next().unwrap();
        assert!(block.lines().all(|l| l.len() <= 80), "{block}");
    }
}
