//! Public-API-surface snapshot of `sim-core`.
//!
//! The kernel crate is the workspace's stable substrate — downstream
//! users build agents, probes and harnesses against it — so accidental
//! surface changes (a renamed trait method's carrier item, a dropped
//! re-export, an item made private) should fail loudly, not surface as
//! downstream breakage later.
//!
//! The check is a source-level snapshot: every column-0 `pub` item
//! declaration in `crates/sim-core/src/*.rs` (items inside `impl` blocks
//! and `#[cfg(test)]` modules are indented and therefore excluded),
//! normalized to its name line, compared against the committed golden
//! `tests/data/sim_core_api.txt`. Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test api_surface
//! ```

use std::path::{Path, PathBuf};

fn sim_core_src() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/sim-core/src")
}

/// Normalizes one `pub` declaration line to its item-name prefix:
/// signatures are cut at the first `(`, `{`, ` = `, `;` or ` where`.
fn normalize(line: &str) -> String {
    let mut s = line.trim_end().to_string();
    for stop in ["(", " {", " = ", ";", " where"] {
        if let Some(i) = s.find(stop) {
            s.truncate(i);
        }
    }
    s.trim_end().to_string()
}

fn surface() -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(sim_core_src())
        .expect("sim-core sources exist")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in files {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&path).expect("readable source");
        for line in text.lines() {
            if line.starts_with("pub ") {
                out.push_str(&format!("{name}: {}\n", normalize(line)));
            }
        }
    }
    out
}

#[test]
fn sim_core_public_surface_matches_the_committed_snapshot() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/sim_core_api.txt");
    let current = surface();
    assert!(
        current.lines().count() > 30,
        "suspiciously small surface — did the scan break?\n{current}"
    );
    // Sanity: the tentpole API must be part of the surface.
    for item in [
        "pub trait SimAgent",
        "pub trait Probe",
        "pub struct Simulation",
        "pub trait BusModel",
        "pub struct FnAgent",
    ] {
        assert!(
            current.lines().any(|l| l.contains(item)),
            "expected '{item}' in the sim-core surface:\n{current}"
        );
    }
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&golden_path, &current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{golden_path:?}: {e}\nregenerate with UPDATE_GOLDENS=1 cargo test --test api_surface"
        )
    });
    assert!(
        current == golden,
        "sim-core's public API surface drifted from the committed snapshot.\n\
         If intentional, regenerate with UPDATE_GOLDENS=1 cargo test --test api_surface.\n\
         --- current ---\n{current}\n--- committed ---\n{golden}"
    );
}
