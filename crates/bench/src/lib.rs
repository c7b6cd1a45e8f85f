#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cba_platform::CellReport;

pub mod timing;

/// Reads the run-count override (`CBA_RUNS`), falling back to `default`.
pub fn runs_from_env(default: usize) -> usize {
    std::env::var("CBA_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Reads the master seed (`CBA_SEED`), defaulting to 2017.
pub fn seed_from_env() -> u64 {
    std::env::var("CBA_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017)
}

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a slowdown with two decimals and an `x` suffix.
pub fn fmt_slowdown(x: f64) -> String {
    format!("{x:.2}x")
}

/// A minimal fixed-width row printer: right-pads each cell to its column
/// width.
pub fn print_row(cells: &[(&str, usize)]) {
    let mut line = String::new();
    for (text, width) in cells {
        let mut cell = text.to_string();
        if cell.len() < *width {
            cell.push_str(&" ".repeat(width - cell.len()));
        }
        line.push_str(&cell);
        line.push(' ');
    }
    println!("{}", line.trim_end());
}

/// The numbers Section IV.B of the paper quotes (experiment E4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fig1Digest {
    /// Worst CON slowdown without CBA and the benchmark it occurs on
    /// (paper: 3.34x, matrix).
    pub worst_rp_con: (String, f64),
    /// Worst CON slowdown with CBA (paper: 2.34x).
    pub worst_cba_con: (String, f64),
    /// Average ISO overhead of CBA vs RP (paper: ~3%).
    pub cba_iso_overhead: f64,
    /// Average ISO overhead of H-CBA vs RP (paper: negligible).
    pub hcba_iso_overhead: f64,
}

/// Computes the E4 digest from Figure-1 cells: the cells of
/// `scenarios/paper_fig1.scn` or a grid of the same shape, labelled by
/// `bench`, `setup` and `scenario` and normalized to RP-ISO. A cell
/// without a finite `normalized` value is left out.
pub fn fig1_digest(cells: &[CellReport]) -> Fig1Digest {
    let normalized = |setup: &'static str, scenario: &'static str| {
        cells
            .iter()
            .filter(move |c| {
                c.label("setup") == Some(setup) && c.label("scenario") == Some(scenario)
            })
            .filter_map(|c| {
                let x = c.normalized.filter(|x| x.is_finite())?;
                Some((c.label("bench").unwrap_or_default(), x))
            })
    };
    let worst = |setup| {
        normalized(setup, "CON")
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(bench, x)| (bench.to_string(), x))
            .unwrap_or_default()
    };
    let mean_overhead = |setup| {
        let overheads: Vec<f64> = normalized(setup, "ISO").map(|(_, x)| x - 1.0).collect();
        if overheads.is_empty() {
            0.0
        } else {
            overheads.iter().sum::<f64>() / overheads.len() as f64
        }
    };
    Fig1Digest {
        worst_rp_con: worst("RP"),
        worst_cba_con: worst("CBA"),
        cba_iso_overhead: mean_overhead("CBA"),
        hcba_iso_overhead: mean_overhead("H-CBA"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        std::env::remove_var("CBA_RUNS");
        std::env::remove_var("CBA_SEED");
        assert_eq!(runs_from_env(25), 25);
        assert_eq!(seed_from_env(), 2017);
    }

    #[test]
    fn fmt_slowdown_formats() {
        assert_eq!(fmt_slowdown(3.344), "3.34x");
        assert_eq!(fmt_slowdown(1.0), "1.00x");
    }

    #[test]
    fn digest_extracts_extremes() {
        let cell = |bench: &str, setup: &str, scenario: &str, normalized: Option<f64>| {
            let labels = [("bench", bench), ("setup", setup), ("scenario", scenario)];
            CellReport {
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                normalized,
                ..CellReport::default()
            }
        };
        let cells = vec![
            cell("a", "RP", "CON", Some(3.0)),
            cell("b", "RP", "CON", Some(2.0)),
            cell("a", "CBA", "CON", Some(1.8)),
            cell("a", "CBA", "ISO", Some(1.05)),
            // No baseline: left out instead of panicking.
            cell("c", "RP", "CON", None),
            cell("c", "CBA", "CON", Some(f64::NAN)),
        ];
        let digest = fig1_digest(&cells);
        assert_eq!(digest.worst_rp_con, ("a".into(), 3.0));
        assert_eq!(digest.worst_cba_con, ("a".into(), 1.8));
        assert!((digest.cba_iso_overhead - 0.05).abs() < 1e-12);
        assert_eq!(digest.hcba_iso_overhead, 0.0, "no H-CBA cells");
        assert_eq!(fig1_digest(&[]), Fig1Digest::default());
    }
}
