//! Campaign checkpointing: the append-only cell journal and the
//! deterministic fault-injection plan.
//!
//! Long campaigns must survive process death. The journal records every
//! *completed* cell — not raw runs — because cells are the unit the
//! streaming aggregation reduces to and the unit a resume can skip. The
//! format is deliberately paranoid for something written once per cell:
//!
//! * a fixed header — magic, format version, and the
//!   [`scenario_hash`](crate::scenario::ScenarioDef::scenario_hash) of the
//!   grid, so a journal can never be replayed into a different scenario;
//! * one record per cell — cell index, payload length, CRC-32, then the
//!   [`CellReport`] as a self-describing payload
//!   ([`sim_core::export::ByteWriter`]): its labels, then every column of
//!   [`CellReport::columns`] by name with a tagged value, floats as raw
//!   IEEE-754 bits so replayed statistics are bit-identical to freshly
//!   computed ones. A record whose column list differs from this build's
//!   is undecodable, so a new report column needs neither a codec change
//!   nor a version bump;
//! * an `fsync` after the header and after every record, so the journal
//!   on disk is always a valid prefix no matter where the process dies.
//!
//! Recovery is valid-prefix replay: a truncated tail, a failed CRC or an
//! undecodable record stops the replay at the last good record (the bad
//! tail is truncated away before appending continues), and a
//! version-skewed journal is discarded whole — each with a one-line
//! notice. Only two conditions are hard errors: a file that is not a
//! journal at all, and a scenario-hash mismatch (silently dropping
//! completed work the user asked to resume would be worse than stopping).
//!
//! [`FaultPlan`] is the test-side counterpart: seeded, injectable panics,
//! forced budget trips, and simulated kill-points *between* journal
//! writes, so `tests/crash_resume.rs` can kill campaigns at arbitrary
//! checkpoints and prove resume correctness deterministically.

use crate::report::{CellReport, Value};
use sim_core::export::{crc32, ByteReader, ByteWriter};
use sim_core::rng::SimRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

/// Journal format version this build reads and writes.
///
/// Version 2 added the pWCET columns (`[report] pwcet`) to the cell
/// codec; version 3 added the memory-agent columns (miss rate,
/// coherence fraction, writebacks); version 4 records every column by
/// name with a tagged value, so later columns change the records but not
/// the version. Older journals are discarded with a notice on resume.
const JOURNAL_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"CBACKPT\n";
/// magic + version + scenario hash + total cells + runs per cell.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;
/// cell index + payload length + CRC-32.
const RECORD_HEADER_LEN: usize = 4 + 4 + 4;

/// An open, append-position checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    records: usize,
}

/// What a resume replayed out of an existing journal.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// `(cell index, report)` pairs from the valid prefix, in journal
    /// order.
    pub cells: Vec<(usize, CellReport)>,
    /// One-line recovery notices (truncated tail, CRC failure, version
    /// skew, ...) for the caller to surface.
    pub notices: Vec<String>,
}

impl Journal {
    /// The journal path inside `dir`.
    fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Number of records written or replayed so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Creates a fresh journal in `dir` (creating the directory,
    /// truncating any previous journal) and writes the fsynced header.
    ///
    /// # Errors
    ///
    /// One-line messages for an uncreatable directory or unwritable file.
    pub fn create(
        dir: &Path,
        scenario_hash: u64,
        total_cells: usize,
        runs: usize,
    ) -> Result<Journal, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint directory {}: {e}", dir.display()))?;
        let path = Journal::path_in(dir);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| format!("cannot write checkpoint journal {}: {e}", path.display()))?;
        let mut header = ByteWriter::new();
        header.u32(JOURNAL_VERSION);
        header.u64(scenario_hash);
        header.u32(total_cells as u32);
        header.u32(runs as u32);
        let write = |file: &mut File| -> std::io::Result<()> {
            file.write_all(MAGIC)?;
            file.write_all(&header.clone().into_bytes())?;
            file.sync_data()
        };
        write(&mut file)
            .map_err(|e| format!("cannot write checkpoint journal {}: {e}", path.display()))?;
        Ok(Journal {
            file,
            path,
            records: 0,
        })
    }

    /// Opens `dir`'s journal for resumption: validates the header,
    /// replays the valid record prefix, truncates any corrupt tail, and
    /// returns the journal positioned for appending. A missing,
    /// header-truncated or version-skewed journal starts over from
    /// scratch (with a notice for the latter two).
    ///
    /// # Errors
    ///
    /// A file that is not a journal, a scenario-hash mismatch, or I/O
    /// failure — each a one-line message.
    pub fn resume(
        dir: &Path,
        scenario_hash: u64,
        total_cells: usize,
        runs: usize,
    ) -> Result<(Journal, JournalReplay), String> {
        let path = Journal::path_in(dir);
        if !path.exists() {
            return Ok((
                Journal::create(dir, scenario_hash, total_cells, runs)?,
                JournalReplay::default(),
            ));
        }
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read checkpoint journal {}: {e}", path.display()))?;
        let mut replay = JournalReplay::default();
        if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
            if bytes.len() >= 8 && &bytes[..8] != MAGIC {
                return Err(format!(
                    "{}: not a campaign journal (bad magic)",
                    path.display()
                ));
            }
            replay.notices.push(format!(
                "{}: shorter than a journal header; discarding it and starting over",
                path.display()
            ));
            let journal = Journal::create(dir, scenario_hash, total_cells, runs)?;
            return Ok((journal, replay));
        }
        let mut header = ByteReader::new(&bytes[8..HEADER_LEN]);
        let version = header.u32().expect("header length checked");
        let file_hash = header.u64().expect("header length checked");
        if version != JOURNAL_VERSION {
            replay.notices.push(format!(
                "{}: format version {version} (this build reads {JOURNAL_VERSION}); \
                 discarding the journal and starting over",
                path.display()
            ));
            let journal = Journal::create(dir, scenario_hash, total_cells, runs)?;
            return Ok((journal, replay));
        }
        if file_hash != scenario_hash {
            return Err(format!(
                "{}: journal was written by a different scenario \
                 (hash {file_hash:#018x}, expected {scenario_hash:#018x}); \
                 use a fresh --checkpoint directory or rerun the matching scenario",
                path.display()
            ));
        }

        // Valid-prefix replay: stop at the first truncated, corrupt or
        // undecodable record and keep everything before it.
        let mut offset = HEADER_LEN;
        let mut records = 0usize;
        loop {
            let remaining = bytes.len() - offset;
            if remaining == 0 {
                break;
            }
            let next = records + 1;
            if remaining < RECORD_HEADER_LEN {
                replay.notices.push(format!(
                    "{}: record {next} has a truncated header; \
                     resuming from the {records} valid records",
                    path.display()
                ));
                break;
            }
            let mut rec = ByteReader::new(&bytes[offset..]);
            let cell = rec.u32().expect("record header length checked") as usize;
            let len = rec.u32().expect("record header length checked") as usize;
            let crc = rec.u32().expect("record header length checked");
            if remaining - RECORD_HEADER_LEN < len {
                replay.notices.push(format!(
                    "{}: record {next} has a truncated payload; \
                     resuming from the {records} valid records",
                    path.display()
                ));
                break;
            }
            let payload = &bytes[offset + RECORD_HEADER_LEN..offset + RECORD_HEADER_LEN + len];
            if crc32(payload) != crc {
                replay.notices.push(format!(
                    "{}: record {next} failed its CRC check; \
                     resuming from the {records} valid records",
                    path.display()
                ));
                break;
            }
            let report = match decode_cell_report(payload) {
                Ok(r) => r,
                Err(e) => {
                    replay.notices.push(format!(
                        "{}: record {next} is undecodable ({e}); \
                         resuming from the {records} valid records",
                        path.display()
                    ));
                    break;
                }
            };
            if cell >= total_cells {
                replay.notices.push(format!(
                    "{}: record {next} names cell {cell} outside the grid; \
                     resuming from the {records} valid records",
                    path.display()
                ));
                break;
            }
            replay.cells.push((cell, report));
            records = next;
            offset += RECORD_HEADER_LEN + len;
        }

        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("cannot write checkpoint journal {}: {e}", path.display()))?;
        // Drop the corrupt tail so subsequent appends extend the valid
        // prefix instead of burying new records behind garbage.
        file.set_len(offset as u64)
            .and_then(|()| file.seek(SeekFrom::End(0)))
            .map_err(|e| format!("cannot write checkpoint journal {}: {e}", path.display()))?;
        Ok((
            Journal {
                file,
                path,
                records,
            },
            replay,
        ))
    }

    /// Appends one completed cell, flushes, and fsyncs — after this
    /// returns, the record survives process death.
    ///
    /// # Errors
    ///
    /// A one-line message on I/O failure (disk full, revoked permissions).
    pub fn append(&mut self, cell: usize, report: &CellReport) -> Result<(), String> {
        let payload = encode_cell_report(report);
        let mut rec = ByteWriter::new();
        rec.u32(cell as u32);
        rec.u32(payload.len() as u32);
        rec.u32(crc32(&payload));
        let bytes = rec.into_bytes();
        let write = |file: &mut File| -> std::io::Result<()> {
            file.write_all(&bytes)?;
            file.write_all(&payload)?;
            file.sync_data()
        };
        write(&mut self.file).map_err(|e| {
            format!(
                "cannot append to checkpoint journal {}: {e}",
                self.path.display()
            )
        })?;
        self.records += 1;
        Ok(())
    }
}

/// Encodes a [`CellReport`] as a self-describing record: its labels, then
/// every column of [`CellReport::columns`] by name with a tagged value.
/// Floats are written as raw bits, so `decode(encode(r))` reproduces every
/// statistic bit-for-bit — the property the resume determinism contract
/// rests on.
fn encode_cell_report(r: &CellReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(r.labels.len() as u32);
    for (k, v) in &r.labels {
        w.str(k);
        w.str(v);
    }
    let columns = r.columns();
    w.u32(columns.len() as u32);
    for col in &columns {
        w.str(col.name);
        write_value(&mut w, col.value.as_ref());
    }
    w.into_bytes()
}

/// Decodes a journal payload back into a [`CellReport`], restoring each
/// column by name.
///
/// # Errors
///
/// A short or malformed buffer, or a column list that differs from this
/// build's (the replay loop stops the valid prefix there).
fn decode_cell_report(bytes: &[u8]) -> Result<CellReport, String> {
    let mut r = ByteReader::new(bytes);
    let mut report = CellReport::default();
    for _ in 0..r.u32()? {
        report.labels.push((r.str()?, r.str()?));
    }
    let expected = report.columns();
    let n = r.u32()? as usize;
    for i in 0..n.max(expected.len()) {
        let want = expected.get(i).map(|c| c.name);
        if i == n {
            return Err(format!(
                "record lacks column `{}`",
                want.unwrap_or_default()
            ));
        }
        let name = r.str()?;
        if want != Some(name.as_str()) {
            let want = want.map_or("no column".into(), |w| format!("`{w}`"));
            return Err(format!("column `{name}` where this build has {want}"));
        }
        let value = read_value(&mut r)?;
        report
            .restore(&name, value)
            .map_err(|e| format!("column `{name}`: {e}"))?;
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes", r.remaining()));
    }
    Ok(report)
}

fn write_value(w: &mut ByteWriter, value: Option<&Value>) {
    w.u8(match value {
        None => 0,
        Some(Value::Int(_)) => 1,
        Some(Value::Num(_)) => 2,
        Some(Value::Text(_)) => 3,
        Some(Value::Verdict(_)) => 4,
        Some(Value::Series(_)) => 5,
        Some(Value::Matrix(_)) => 6,
        Some(Value::Keyed(..)) => 7,
        Some(Value::Blank) => 8,
    });
    match value {
        Some(Value::Int(x)) => w.u64(*x),
        Some(Value::Num(x)) => w.f64(*x),
        Some(Value::Text(s)) => w.str(s),
        Some(Value::Verdict(ok)) => w.u8(*ok as u8),
        Some(Value::Series(xs)) => w.f64s(xs),
        Some(Value::Matrix(rows)) => {
            w.u32(rows.len() as u32);
            rows.iter().for_each(|row| w.f64s(row));
        }
        Some(Value::Keyed(keys, values)) => {
            w.f64s(keys);
            w.u8(values.is_some() as u8);
            values.iter().for_each(|v| w.f64s(v));
        }
        None | Some(Value::Blank) => {}
    }
}

fn read_value(r: &mut ByteReader<'_>) -> Result<Option<Value>, String> {
    let flag = |r: &mut ByteReader<'_>| match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("bad flag {other}")),
    };
    Ok(Some(match r.u8()? {
        0 => return Ok(None),
        1 => Value::Int(r.u64()?),
        2 => Value::Num(r.f64()?),
        3 => Value::Text(r.str()?),
        4 => Value::Verdict(flag(r)?),
        5 => Value::Series(r.f64s()?),
        6 => {
            let n = r.u32()? as usize;
            // Every row holds at least its 4-byte length: bound the row
            // count before allocating for it.
            if n > r.remaining() / 4 {
                return Err(format!("matrix of {n} rows exceeds the record"));
            }
            Value::Matrix((0..n).map(|_| r.f64s()).collect::<Result<_, _>>()?)
        }
        7 => {
            let keys = r.f64s()?;
            let values = if flag(r)? { Some(r.f64s()?) } else { None };
            if values.as_ref().is_some_and(|v| v.len() != keys.len()) {
                return Err("keyed values do not match their keys".into());
            }
            Value::Keyed(keys, values)
        }
        8 => Value::Blank,
        other => return Err(format!("bad value tag {other}")),
    }))
}

/// A deterministic fault-injection plan for campaign robustness tests:
/// which `(cell, run)` tasks panic, which cells trip their budget, and
/// after how many journal records the campaign "dies".
///
/// Everything is seeded or explicit, so an injected failure reproduces
/// bit-for-bit — the crash-resume suite relies on replaying the *same*
/// faults across different thread counts and interruption points.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panics: BTreeSet<(usize, usize)>,
    /// cell → first run index that trips the (forced) budget; every run
    /// of the cell from that index on is skipped.
    budget_from: BTreeMap<usize, usize>,
    kill_after_records: Option<usize>,
    hard_kill: bool,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Makes run `run` of cell `cell` panic inside the simulator.
    pub fn panic_at(mut self, cell: usize, run: usize) -> FaultPlan {
        self.panics.insert((cell, run));
        self
    }

    /// Forces cell `cell`'s budget to trip from run index `from_run` on:
    /// those runs are skipped exactly as if a wall-clock budget expired,
    /// but deterministically.
    pub fn budget_trip_from(mut self, cell: usize, from_run: usize) -> FaultPlan {
        self.budget_from.insert(cell, from_run);
        self
    }

    /// Stops the campaign (with an `interrupted:` error) right after the
    /// `records`-th journal record is fsynced — a simulated kill-point
    /// between journal writes.
    pub fn kill_after(mut self, records: usize) -> FaultPlan {
        self.kill_after_records = Some(records);
        self.hard_kill = false;
        self
    }

    /// Like [`kill_after`](Self::kill_after), but aborts the whole
    /// process (`std::process::abort`) instead of returning — true
    /// SIGKILL semantics for subprocess crash tests and the CI job.
    pub fn hard_kill_after(mut self, records: usize) -> FaultPlan {
        self.kill_after_records = Some(records);
        self.hard_kill = true;
        self
    }

    /// A seeded random plan over an `n_cells` × `runs` grid: roughly a
    /// quarter of the cells get one panicking run and an eighth get a
    /// forced budget trip. Deterministic in `seed`.
    pub fn seeded(seed: u64, n_cells: usize, runs: usize) -> FaultPlan {
        let mut rng = SimRng::seed_from(seed).fork(0xFA07);
        let mut plan = FaultPlan::new();
        for cell in 0..n_cells {
            if rng.gen_bool(0.25) {
                plan = plan.panic_at(cell, rng.gen_range_usize(0..runs));
            }
            if rng.gen_bool(0.125) {
                plan = plan.budget_trip_from(cell, rng.gen_range_usize(0..runs));
            }
        }
        plan
    }

    /// Does run `run` of cell `cell` panic?
    pub fn panics_at(&self, cell: usize, run: usize) -> bool {
        self.panics.contains(&(cell, run))
    }

    /// Is run `run` of cell `cell` skipped by a forced budget trip?
    pub fn forces_budget_trip(&self, cell: usize, run: usize) -> bool {
        self.budget_from.get(&cell).is_some_and(|&from| run >= from)
    }

    /// Does the campaign die once `records` journal records exist?
    pub fn kills_after(&self, records: usize) -> bool {
        self.kill_after_records.is_some_and(|k| records >= k)
    }

    /// Whether the kill-point aborts the process instead of returning.
    pub fn is_hard_kill(&self) -> bool {
        self.hard_kill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CellOutcome, Column, PwcetCell, PwcetFit, ScenarioReport, Show};

    fn sample_report() -> CellReport {
        CellReport {
            labels: vec![
                ("setup".into(), "RP".into()),
                ("scenario".into(), "ISO".into()),
            ],
            seed: 0xDEAD_BEEF,
            runs: 7,
            unfinished: 1,
            outcome: CellOutcome::Panicked("boom".into()),
            panicked: 2,
            budget_trips: 1,
            mean: 1234.5678,
            ci95: 0.1 + 0.2, // a value with no short decimal form
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            percentiles: vec![(0.5, 1200.0), (0.999, 9999.25)],
            utilization: 0.7315,
            normalized: None,
            normalized_ci95: Some(0.001),
            tua_max_burst: Some(3.5),
            contender_max_gap: None,
            cluster_shares: Some(vec![0.25, 0.5]),
            cluster_fairness: Some(0.9),
            window_jain: Some(vec![1.0, 0.8]),
            window_shares: Some(vec![vec![0.1, 0.2], vec![0.3, 0.4]]),
            pwcet: Some(PwcetCell {
                probs: vec![1e-9, 1e-12],
                fit: Some(PwcetFit {
                    bounds: vec![61234.5, 73456.875],
                    mu: 50_000.25,
                    beta: 512.125,
                    blocks: 30,
                    ks_p: 0.42,
                    lb_p: 0.17,
                    runs_p: 0.91,
                    iid_ok: true,
                }),
                diag: None,
            }),
            mem_miss_rate: Some(0.0625),
            mem_coherence_frac: Some(0.375),
            mem_writebacks: None,
        }
    }

    #[test]
    fn cell_report_round_trips_bit_for_bit() {
        let report = sample_report();
        let decoded = decode_cell_report(&encode_cell_report(&report)).unwrap();
        assert_eq!(decoded.labels, report.labels);
        assert_eq!(decoded.outcome, report.outcome);
        assert_eq!(decoded.mean.to_bits(), report.mean.to_bits());
        assert_eq!(decoded.ci95.to_bits(), report.ci95.to_bits());
        assert_eq!(decoded.min.to_bits(), report.min.to_bits());
        assert_eq!(decoded.max.to_bits(), report.max.to_bits());
        assert_eq!(decoded.percentiles, report.percentiles);
        assert_eq!(decoded.normalized, report.normalized);
        assert_eq!(decoded.normalized_ci95, report.normalized_ci95);
        assert_eq!(decoded.cluster_shares, report.cluster_shares);
        assert_eq!(decoded.window_shares, report.window_shares);
        assert_eq!(decoded.panicked, report.panicked);
        assert_eq!(decoded.budget_trips, report.budget_trips);
        assert_eq!(decoded.pwcet, report.pwcet);
        assert_eq!(decoded.mem_miss_rate, report.mem_miss_rate);
        assert_eq!(decoded.mem_coherence_frac, report.mem_coherence_frac);
        assert_eq!(decoded.mem_writebacks, report.mem_writebacks);
        assert_eq!(decoded.seed, report.seed);
        assert_eq!(decoded.runs, report.runs);
        assert_eq!(decoded.unfinished, report.unfinished);
        assert_eq!(decoded.utilization.to_bits(), report.utilization.to_bits());
        assert_eq!(decoded.tua_max_burst, report.tua_max_burst);
        assert_eq!(decoded.contender_max_gap, report.contender_max_gap);
        assert_eq!(decoded.cluster_fairness, report.cluster_fairness);
        assert_eq!(decoded.window_jain, report.window_jain);
    }

    /// A fitted, a diagnostic, a panicked, a budget-tripped and an empty
    /// cell.
    fn cell_kinds() -> Vec<CellReport> {
        let mut fitted = sample_report();
        fitted.outcome = CellOutcome::Ok;
        (fitted.panicked, fitted.budget_trips) = (0, 0);
        (fitted.min, fitted.max) = (1000.0, 9999.25);
        let mut diag = sample_report();
        diag.pwcet = Some(PwcetCell {
            probs: vec![1e-9],
            fit: None,
            diag: Some("too few samples: got 2, need at least 100".into()),
        });
        let mut budget = fitted.clone();
        budget.outcome = CellOutcome::Budget;
        budget.budget_trips = 3;
        budget.pwcet = None;
        let empty = CellReport {
            labels: sample_report().labels,
            unfinished: 2,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..CellReport::default()
        };
        vec![fitted, diag, sample_report(), budget, empty]
    }

    #[test]
    fn decoded_cells_render_byte_identical_json_and_csv() {
        let report = |cells: Vec<CellReport>| ScenarioReport {
            name: "codec".into(),
            seed: u64::MAX,
            runs: 7,
            cells,
        };
        let kinds = cell_kinds();
        let mut grids: Vec<Vec<CellReport>> = kinds.iter().map(|c| vec![c.clone()]).collect();
        grids.push(kinds);
        for cells in grids {
            let decoded = cells
                .iter()
                .map(|c| decode_cell_report(&encode_cell_report(c)).unwrap())
                .collect();
            let (original, decoded) = (report(cells), report(decoded));
            assert_eq!(decoded.to_json(), original.to_json());
            assert_eq!(decoded.to_csv(), original.to_csv());
        }
    }

    #[test]
    fn every_truncation_and_byte_flip_decodes_or_fails_cleanly() {
        let mut no_pwcet = sample_report();
        no_pwcet.pwcet = None;
        let mut variants = cell_kinds();
        variants.push(no_pwcet);
        let start = std::time::Instant::now();
        for report in &variants {
            let bytes = encode_cell_report(report);
            for cut in 0..bytes.len() {
                assert!(decode_cell_report(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0xFF;
                // Ok or Err, but no panic and no huge allocation.
                let _ = decode_cell_report(&flipped);
            }
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }

    /// A payload holding `columns`, encoded like [`encode_cell_report`].
    fn payload(columns: &[Column]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(0);
        w.u32(columns.len() as u32);
        for col in columns {
            w.str(col.name);
            write_value(&mut w, col.value.as_ref());
        }
        w.into_bytes()
    }

    #[test]
    fn records_with_another_column_list_are_rejected_by_column_name() {
        let columns = sample_report().columns();
        assert!(decode_cell_report(&payload(&columns)).is_ok());
        let at = columns.len() / 2;
        let mut renamed = columns.clone();
        renamed[at].name = "no_such_column";
        let mut missing = columns.clone();
        let removed = missing.remove(at).name;
        let mut missing_last = columns.clone();
        let last = missing_last.pop().unwrap().name;
        let mut extra = columns.clone();
        extra.push(Column {
            name: "no_such_column",
            show: Show::Both,
            value: Some(Value::Int(3)),
        });
        for (columns, named) in [
            (renamed, "no_such_column"),
            (missing, removed),
            (missing_last, last),
            (extra, "no_such_column"),
        ] {
            let err = decode_cell_report(&payload(&columns)).unwrap_err();
            assert!(err.contains(&format!("`{named}`")), "{named}: {err}");
        }
    }

    #[test]
    fn resume_keeps_the_records_before_one_with_foreign_columns() {
        let dir = std::env::temp_dir().join(format!("cba-journal-columns-{}", std::process::id()));
        let mut journal = Journal::create(&dir, 7, 3, 1).unwrap();
        journal.append(0, &sample_report()).unwrap();
        journal.append(1, &sample_report()).unwrap();
        drop(journal);
        let mut columns = sample_report().columns();
        columns[0].name = "no_such_column";
        let bad = payload(&columns);
        let mut header = ByteWriter::new();
        header.u32(2);
        header.u32(bad.len() as u32);
        header.u32(crc32(&bad));
        let path = Journal::path_in(&dir);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&header.into_bytes()).unwrap();
        file.write_all(&bad).unwrap();
        drop(file);

        let (journal, replay) = Journal::resume(&dir, 7, 3, 1).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(journal.records(), 2);
        assert_eq!(replay.cells.len(), 2);
        let [notice] = replay.notices.as_slice() else {
            panic!("one notice expected: {:?}", replay.notices);
        };
        assert!(notice.contains("record 3 is undecodable"), "{notice}");
        assert!(notice.contains("`no_such_column`"), "{notice}");
    }

    #[test]
    fn pwcet_diag_and_absent_pwcet_round_trip() {
        let mut diag = sample_report();
        diag.pwcet = Some(PwcetCell {
            probs: vec![1e-9],
            fit: None,
            diag: Some("too few samples: got 2, need at least 100".into()),
        });
        let decoded = decode_cell_report(&encode_cell_report(&diag)).unwrap();
        assert_eq!(decoded.pwcet, diag.pwcet);

        let mut none = sample_report();
        none.pwcet = None;
        let decoded = decode_cell_report(&encode_cell_report(&none)).unwrap();
        assert_eq!(decoded.pwcet, None);
    }

    #[test]
    fn truncated_payload_fails_to_decode() {
        let bytes = encode_cell_report(&sample_report());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_cell_report(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn fault_plan_is_deterministic_in_its_seed() {
        let a = FaultPlan::seeded(42, 16, 5);
        let b = FaultPlan::seeded(42, 16, 5);
        for cell in 0..16 {
            for run in 0..5 {
                assert_eq!(a.panics_at(cell, run), b.panics_at(cell, run));
                assert_eq!(
                    a.forces_budget_trip(cell, run),
                    b.forces_budget_trip(cell, run)
                );
            }
        }
        let c = FaultPlan::seeded(43, 16, 5);
        let differs = (0..16).any(|cell| {
            (0..5).any(|run| {
                a.panics_at(cell, run) != c.panics_at(cell, run)
                    || a.forces_budget_trip(cell, run) != c.forces_budget_trip(cell, run)
            })
        });
        assert!(differs, "different seeds should draw different faults");
    }

    #[test]
    fn budget_trip_skips_every_run_from_its_index() {
        let plan = FaultPlan::new().budget_trip_from(3, 2);
        assert!(!plan.forces_budget_trip(3, 1));
        assert!(plan.forces_budget_trip(3, 2));
        assert!(plan.forces_budget_trip(3, 4));
        assert!(!plan.forces_budget_trip(2, 4));
    }
}
