//! Public-API-surface snapshots of every library crate.
//!
//! Each crate under `crates/` except the `bench` harness has one golden,
//! `tests/data/<crate>_api.txt` (`-` becomes `_`), so a change that grows
//! or shrinks a crate's public surface shows it in its diff instead of
//! surfacing as downstream breakage later.
//!
//! The check is a source-level snapshot. It reads every `src/**/*.rs` file
//! of the crate down to the file's first `#[cfg(test)]` and keeps each
//! line declared `pub`: column-0 items, and indented ones (methods,
//! associated consts, fields) prefixed with the column-0 line that opens
//! their block, such as an `impl`. Each line is cut to its name and
//! generics (signatures stop at the first `(`, `{`, ` = `, `;` or
//! ` where`). `pub(crate)` items are left out. Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test api_surface
//! ```

use std::path::{Path, PathBuf};

/// The harness crate, whose items no other crate or user builds on.
const NOT_A_LIBRARY: &str = "bench";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Cuts one declaration line to its item-name prefix: at the first `(`,
/// `;`, ` {`, ` = ` or ` where` outside generic brackets (so a default
/// type parameter stays).
fn normalize(line: &str) -> String {
    let s = line.trim();
    let mut depth = 0;
    let mut end = s.len();
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            '(' | ';' if depth == 0 => {
                end = i;
                break;
            }
            ' ' if depth == 0
                && [" {", " = ", " where"]
                    .iter()
                    .any(|stop| s[i..].starts_with(stop)) =>
            {
                end = i;
                break;
            }
            _ => {}
        }
    }
    s[..end].trim_end_matches(',').trim_end().to_string()
}

/// Every `.rs` file under `dir`, sorted by path.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files.extend(sources(&path));
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Appends the public surface of one source file, one line per item.
fn file_surface(name: &str, text: &str, out: &mut String) {
    let mut block: Option<String> = None;
    let mut lines = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
    while let Some(line) = lines.next() {
        let indented = line.starts_with(' ');
        if line.starts_with('}') {
            block = None;
        } else if line.starts_with(|c: char| c.is_ascii_alphabetic()) {
            block = Some(normalize(line));
        }
        let trimmed = line.trim();
        if !trimmed.starts_with("pub ") {
            continue;
        }
        // A re-export list may span lines: keep it whole.
        let mut item = trimmed.to_string();
        if item.starts_with("pub use ") {
            while !item.contains(';') {
                let Some(next) = lines.next() else { break };
                item.push(' ');
                item.push_str(next.trim());
            }
            item = item.replace("{ ", "{").replace(", }", "}");
        }
        let item = normalize(&item);
        match (&block, indented) {
            (Some(b), true) => out.push_str(&format!("{name}: {b} > {item}\n")),
            _ => out.push_str(&format!("{name}: {item}\n")),
        }
    }
}

/// The public surface of the crate in `crates/<dir>`.
fn surface(dir: &str) -> String {
    let src = root().join("crates").join(dir).join("src");
    let mut out = String::new();
    for path in sources(&src) {
        let name = path.strip_prefix(&src).unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path).expect("readable source");
        file_surface(name, &text, &mut out);
    }
    out
}

/// The golden of the crate in `crates/<dir>`, under `tests/data/`.
fn golden_name(dir: &str) -> String {
    format!("{}_api.txt", dir.replace('-', "_"))
}

/// The entry names of `dir`, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Compares the surface of `crates/<dir>` with its golden, or rewrites the
/// golden under `UPDATE_GOLDENS`.
fn check(dir: &str) {
    let current = surface(dir);
    assert!(
        current.lines().any(|l| l.contains(" > pub fn ")),
        "no method in {dir}'s surface — did the scan break?\n{current}"
    );
    let path = root().join("tests/data").join(golden_name(dir));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{path:?}: {e}\nregenerate with UPDATE_GOLDENS=1 cargo test --test api_surface")
    });
    assert!(
        current == golden,
        "{dir}'s public API surface drifted from the committed snapshot.\n\
         If intentional, regenerate with UPDATE_GOLDENS=1 cargo test --test api_surface.\n\
         --- current ---\n{current}\n--- committed ---\n{golden}"
    );
}

#[test]
fn sim_core_public_surface_matches_the_committed_snapshot() {
    check("sim-core");
}

#[test]
fn bus_public_surface_matches_the_committed_snapshot() {
    check("bus");
}

#[test]
fn core_public_surface_matches_the_committed_snapshot() {
    check("core");
}

#[test]
fn cpu_public_surface_matches_the_committed_snapshot() {
    check("cpu");
}

#[test]
fn mem_public_surface_matches_the_committed_snapshot() {
    check("mem");
}

#[test]
fn mbpta_public_surface_matches_the_committed_snapshot() {
    check("mbpta");
}

#[test]
fn platform_public_surface_matches_the_committed_snapshot() {
    check("platform");
}

#[test]
fn workloads_public_surface_matches_the_committed_snapshot() {
    check("workloads");
}

/// A new crate gets a snapshot test above; a removed one takes its golden
/// with it. (Skipped while the goldens are being written.)
#[test]
fn every_library_crate_has_exactly_one_snapshot() {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        return;
    }
    let mut crates: Vec<String> = entries(&root().join("crates"))
        .iter()
        .filter(|d| *d != NOT_A_LIBRARY)
        .map(|d| golden_name(d))
        .collect();
    crates.sort();
    let goldens: Vec<String> = entries(&root().join("tests/data"))
        .into_iter()
        .filter(|f| f.ends_with("_api.txt"))
        .collect();
    assert_eq!(crates, goldens, "one `<crate>_api.txt` per library crate");
}

/// The scan sees the kernel's tentpole items, and methods and fields with
/// the block that holds them, down to the first `#[cfg(test)]` only.
#[test]
fn the_scan_sees_items_methods_and_fields() {
    let kernel = surface("sim-core");
    for item in [
        "agent.rs: pub trait SimAgent<P: ?Sized, C = ()>",
        "probe.rs: pub trait Probe<C>",
        "sim.rs: pub struct Simulation<'a, M: BusModel, P: Probe<M::Completion> = NoProbe>",
        "engine.rs: pub trait BusModel",
        "agent.rs: pub struct FnAgent<F>",
        "sim.rs: impl<'a, M: BusModel, P: Probe<M::Completion>> SimulationBuilder<'a, M, P> > pub fn run",
        "lib.rs: pub use sim::{BoxedAgent, Engine, EngineCounters, Simulation, SimulationBuilder, StopWhen}",
    ] {
        assert!(
            kernel.lines().any(|l| l == item),
            "expected '{item}' in the sim-core surface:\n{kernel}"
        );
    }
    let mut toy = String::new();
    file_surface(
        "x.rs",
        "pub struct A {\n    pub f: u8,\n    g: u8,\n}\n\nimpl A {\n    pub fn m(&self) {}\n    \
         pub(crate) fn n(&self) {}\n    fn o(&self) {}\n}\n\n#[cfg(test)]\nmod tests {\n    \
         pub fn hidden() {}\n}\n",
        &mut toy,
    );
    assert_eq!(
        toy,
        "x.rs: pub struct A\nx.rs: pub struct A > pub f: u8\nx.rs: impl A > pub fn m\n"
    );
}
