//! Table I renderer: the arbiter's signal summary, generated from a live
//! configuration.
//!
//! The paper's Table I documents, for each per-core signal of the CBA
//! arbiter, its update rule in both platform modes. [`SignalTable`]
//! reproduces that table directly from a [`CreditConfig`] so that the
//! printed artifact can never drift from the implementation (the
//! regenerator bench `table1` prints it, and the integration tests assert
//! each row's behaviour against the simulator).

use crate::config::CreditConfig;
use sim_core::CoreId;
use std::fmt;

/// One row of the signal summary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SignalRow {
    /// Signal name, e.g. `BUDG0` or `COMP1..3`.
    signal: String,
    /// Update rule in the first column context (every cycle / WCET mode).
    first: String,
    /// Update rule in the second column context (when using bus /
    /// operation mode).
    second: String,
}

/// The generated Table I.
///
/// # Example
///
/// ```
/// use cba::{CreditConfig, SignalTable};
///
/// let table = SignalTable::new(&CreditConfig::homogeneous(4, 56)?);
/// let text = table.to_string();
/// assert!(text.contains("min(BUDGi + 1, 224)"));
/// assert!(text.contains("BUDGi - 4"));
/// # Ok::<(), cba::CbaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalTable {
    budget_rows: Vec<SignalRow>,
    mode_rows: Vec<SignalRow>,
    paper_threshold_note: Option<String>,
}

impl SignalTable {
    /// Builds the signal summary for `config`, with core 0 as the TuA (the
    /// paper's core 1 — it uses 1-based numbering, we use 0-based).
    pub fn new(config: &CreditConfig) -> Self {
        let n = config.n_cores();
        let den = config.denominator();
        let threshold = config.scaled_threshold();

        // Budget rows: group cores with identical (num, cap) pairs.
        let mut budget_rows = Vec::new();
        let mut covered = vec![false; n];
        for i in 0..n {
            if covered[i] {
                continue;
            }
            let core = CoreId::from_index(i);
            let num = config.numerator(core);
            let cap = config.scaled_cap(core);
            let group: Vec<usize> = (i..n)
                .filter(|&j| {
                    let cj = CoreId::from_index(j);
                    config.numerator(cj) == num && config.scaled_cap(cj) == cap
                })
                .collect();
            for &j in &group {
                covered[j] = true;
            }
            budget_rows.push(SignalRow {
                signal: format!("BUDG{}", group_label(&group)),
                first: format!("min(BUDGi + {num}, {cap})"),
                second: format!("BUDGi - {den}"),
            });
        }

        // Mode rows (COMP / REQ), TuA = core 0, contenders = 1..n.
        let contenders: Vec<usize> = (1..n).collect();
        let clabel = group_label(&contenders);
        let mode_rows = vec![
            SignalRow {
                signal: "COMP0".into(),
                first: "----".into(),
                second: "----".into(),
            },
            SignalRow {
                signal: format!("COMP{clabel}"),
                first: format!("BUDGi == {threshold} AND REQ0 == 1"),
                second: "1".into(),
            },
            SignalRow {
                signal: "REQ0".into(),
                first: "when request ready".into(),
                second: "when request ready".into(),
            },
            SignalRow {
                signal: format!("REQ{clabel}"),
                first: "1".into(),
                second: "when request ready".into(),
            },
        ];

        // The paper's Table I says the counter saturates at 228 "(56x4)",
        // but 56*4 = 224; flag the discrepancy whenever it applies.
        let paper_threshold_note = if config.max_latency() == 56 && den == 4 {
            Some(
                "note: the paper's Table I prints 228 \"(56x4)\"; 56x4 = 224 — \
                 we implement the product."
                    .into(),
            )
        } else {
            None
        };

        SignalTable {
            budget_rows,
            mode_rows,
            paper_threshold_note,
        }
    }
}

fn group_label(indices: &[usize]) -> String {
    match indices {
        [] => String::new(),
        [one] => one.to_string(),
        _ => {
            let contiguous = indices.windows(2).all(|w| w[1] == w[0] + 1);
            if contiguous {
                format!("{}..{}", indices[0], indices[indices.len() - 1])
            } else {
                indices
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            }
        }
    }
}

impl fmt::Display for SignalTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TABLE I. SUMMARY OF SIGNALS (generated from configuration)"
        )?;
        writeln!(f, "{:<12} {:<34} When using bus", "", "Every cycle")?;
        for row in &self.budget_rows {
            writeln!(f, "{:<12} {:<34} {}", row.signal, row.first, row.second)?;
        }
        writeln!(f, "{:<12} {:<34} Operation mode", "", "WCET mode")?;
        for row in &self.mode_rows {
            writeln!(f, "{:<12} {:<34} {}", row.signal, row.first, row.second)?;
        }
        if let Some(note) = &self.paper_threshold_note {
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_table() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let t = SignalTable::new(&cfg);
        assert_eq!(t.budget_rows.len(), 1, "homogeneous cores share one row");
        assert_eq!(t.budget_rows[0].signal, "BUDG0..3");
        assert_eq!(t.budget_rows[0].first, "min(BUDGi + 1, 224)");
        assert_eq!(t.budget_rows[0].second, "BUDGi - 4");
        assert!(t.paper_threshold_note.is_some(), "flags the 228 slip");
    }

    #[test]
    fn mode_rows_match_table_i() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let t = SignalTable::new(&cfg);
        let rows = &t.mode_rows;
        assert_eq!(rows[0].signal, "COMP0");
        assert_eq!(rows[0].first, "----");
        assert_eq!(rows[1].signal, "COMP1..3");
        assert_eq!(rows[1].first, "BUDGi == 224 AND REQ0 == 1");
        assert_eq!(rows[1].second, "1");
        assert_eq!(rows[2].signal, "REQ0");
        assert_eq!(rows[2].first, "when request ready");
        assert_eq!(rows[3].signal, "REQ1..3");
        assert_eq!(rows[3].first, "1");
        assert_eq!(rows[3].second, "when request ready");
    }

    #[test]
    fn hcba_table_splits_budget_rows() {
        let cfg = CreditConfig::paper_hcba(56).unwrap();
        let t = SignalTable::new(&cfg);
        assert_eq!(t.budget_rows.len(), 2, "TuA has its own weight row");
        assert_eq!(t.budget_rows[0].signal, "BUDG0");
        assert_eq!(t.budget_rows[0].first, "min(BUDGi + 3, 336)");
        assert_eq!(t.budget_rows[0].second, "BUDGi - 6");
        assert_eq!(t.budget_rows[1].signal, "BUDG1..3");
        assert_eq!(t.budget_rows[1].first, "min(BUDGi + 1, 336)");
    }

    #[test]
    fn no_note_for_other_platforms() {
        let cfg = CreditConfig::homogeneous(8, 40).unwrap();
        let t = SignalTable::new(&cfg);
        assert!(t.paper_threshold_note.is_none());
    }

    #[test]
    fn display_renders_full_table() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        let text = SignalTable::new(&cfg).to_string();
        assert!(text.contains("TABLE I"));
        assert!(text.contains("Every cycle"));
        assert!(text.contains("WCET mode"));
        assert!(text.contains("Operation mode"));
        assert!(text.contains("224"));
    }

    #[test]
    fn group_labels() {
        assert_eq!(group_label(&[1, 2, 3]), "1..3");
        assert_eq!(group_label(&[2]), "2");
        assert_eq!(group_label(&[0, 2]), "0,2");
    }

    #[test]
    fn two_core_platform_table() {
        let cfg = CreditConfig::homogeneous(2, 10).unwrap();
        let t = SignalTable::new(&cfg);
        assert_eq!(t.mode_rows[1].signal, "COMP1");
        assert_eq!(t.mode_rows[1].first, "BUDGi == 20 AND REQ0 == 1");
    }
}
