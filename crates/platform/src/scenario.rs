//! Scenario files: declarative campaign grids.
//!
//! The paper's evaluation is a grid — {RP, CBA, H-CBA} × {ISO, CON} ×
//! benchmarks × 1,000 runs — and the north star asks for "as many
//! scenarios as you can imagine". Hand-writing a Rust driver per grid
//! point does not scale, so this module turns a **scenario file** (a
//! dependency-free, line-oriented text format; see `scenarios/README.md`
//! at the repository root) into a batch of [`RunSpec`]s:
//!
//! * [`ScenarioDef::parse`] reads the format: `[section]` headers with
//!   `key = value` lines, `#` comments;
//! * the `[sweep]` section declares **axes** whose cross-product is
//!   materialized by [`ScenarioDef::expand`] into [`Cell`]s, each with a
//!   stable per-cell seed derived from the master seed and the axis
//!   indices;
//! * [`crate::report::run_scenario`] runs every *(cell × run)* on one
//!   grid-wide pool and folds each cell's runs into its report row.
//!
//! Every key is one entry of the [`KEYS`] table: its section, name and
//! sweep axis, the one setter that file lines, sweep axes and `cba_sim`
//! flags all go through ([`ScenarioDef::set`]), and the renderer behind
//! [`ScenarioDef::render`]. The key lists in error messages and in
//! `cba_sim`'s usage text are generated from it.
//!
//! The format is deliberately not TOML/YAML/JSON: the workspace builds
//! offline with zero external crates (the same constraint that motivated
//! the in-tree RNG), and the subset needed here — sections, scalar keys,
//! comma-separated sweep lists — fits in a small hand-rolled parser with
//! line-accurate error messages.
//!
//! # Example
//!
//! ```
//! use cba_platform::scenario::ScenarioDef;
//!
//! let def = ScenarioDef::parse(
//!     "[campaign]\n\
//!      name = demo\n\
//!      runs = 3\n\
//!      seed = 7\n\
//!      [tua]\n\
//!      load = fixed:100:6:4\n\
//!      [contenders]\n\
//!      scenario = con\n\
//!      wcet = off\n\
//!      [sweep]\n\
//!      setup = rp,cba\n\
//!      duration = 5,56\n",
//! )?;
//! let cells = def.expand()?;
//! assert_eq!(cells.len(), 4); // 2 setups x 2 durations
//! assert_eq!(cells[0].labels, vec![
//!     ("setup".to_string(), "RP".to_string()),
//!     ("duration".to_string(), "5".to_string()),
//! ]);
//! # Ok::<(), cba_platform::scenario::ScenarioError>(())
//! ```

use crate::config::{FabricTopology, PlatformConfig};
use crate::platform::{CoreLoad, RunSpec, Scenario, StopCondition};
use cba::CreditConfig;
use cba_bus::PolicyKind;
use cba_mem::{HierarchyConfig, LatencyModel, MemoryConfig};
use cba_workloads::{profile_by_name, EembcProfile};
use sim_core::Engine;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// A parse, expansion or execution error, with the scenario-file line
/// number when one is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number in the scenario file, if attributable.
    pub line: Option<usize>,
    /// What went wrong.
    pub msg: String,
}

impl ScenarioError {
    fn at(line: usize, msg: impl Into<String>) -> Self {
        ScenarioError {
            line: Some(line),
            msg: msg.into(),
        }
    }

    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ScenarioError {
            line: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// What runs on core 0 (the task under analysis).
#[derive(Debug, Clone, PartialEq)]
pub enum TuaSpec {
    /// A load in the spec mini-language (`bench:NAME`, `fixed:R:D:G`,
    /// `sat:D`, `per:D:P:PH`, `stream:A`, `idle`).
    Load(String),
    /// A catalog benchmark profile with optional knob overrides
    /// (`accesses`, `burst`, `gap`, `between`, `p_store`, ...), applied in
    /// order at build time. The parser keeps one override per knob, in
    /// [`KEYS`] order, the order [`ScenarioDef::render`] writes them.
    Profile {
        /// Catalog benchmark name (see `cba_workloads::suite`).
        name: String,
        /// `(knob, raw value)` overrides.
        overrides: Vec<(String, String)>,
    },
}

/// Co-runner placement for cores `1..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContenderSpec {
    /// Every other core idle.
    Isolation,
    /// WCET-style maximum contention: saturating contenders (duration
    /// `MaxL`, or the template's `duration` override) on every other core.
    MaxContention,
    /// Explicit load specs for cores `1..n`, in order.
    Custom(Vec<String>),
    /// One load spec replicated onto every other core (sweep-friendly:
    /// stays valid when a `cores` axis changes `n`).
    Fill(String),
}

/// WCET-estimation-mode selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcetSpec {
    /// On exactly when the contender scenario is `con` (the paper's
    /// convention: maximum contention is the WCET-estimation setup).
    Auto,
    /// Force WCET-estimation mode.
    On,
    /// Force operation mode.
    Off,
}

/// The `[topology]` section: a hierarchical multi-bus fabric instead of
/// the flat shared bus (see `cba_bus::fabric`). The core count is derived
/// (`clusters * cores_per_cluster`); the `[platform]` `policy` is the
/// default for both segment policies and the `[platform]` `cba` the
/// default for the backbone filter, so `setup`/`cba`/`weights` sweep axes
/// reshape the *backbone* sharing of a fabric scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyTemplate {
    /// Number of cluster buses (default 2).
    pub clusters: usize,
    /// Cores on each cluster bus (default 4).
    pub cores_per_cluster: usize,
    /// Bridge store-and-forward delay per direction (default 2).
    pub bridge_latency: u32,
    /// Bridge request/response queue capacity (default 2).
    pub bridge_depth: usize,
    /// Cluster-bus policy override (default: the `[platform]` policy).
    pub cluster_policy: Option<String>,
    /// Cluster-bus credit-filter spec, sized for `cores_per_cluster`
    /// (default `none`).
    pub cluster_cba: String,
    /// Per-core budget-cap multipliers for the cluster filters
    /// (`2:1:1:1` style).
    pub cluster_caps: Option<String>,
    /// Backbone policy override (default: the `[platform]` policy).
    pub backbone_policy: Option<String>,
    /// Backbone credit-filter spec, sized for `clusters` (default: the
    /// `[platform]` cba spec).
    pub backbone_cba: Option<String>,
    /// Per-bridge budget-cap multipliers for the backbone filter. Cap
    /// headroom lets a heavy cluster bank credit and reclaim scheduling
    /// slots it would otherwise lose to quantization (see
    /// `scenarios/fabric_fairness.scn`).
    pub backbone_caps: Option<String>,
}

impl Default for TopologyTemplate {
    fn default() -> Self {
        TopologyTemplate {
            clusters: 2,
            cores_per_cluster: 4,
            bridge_latency: 2,
            bridge_depth: 2,
            cluster_policy: None,
            cluster_cba: "none".into(),
            cluster_caps: None,
            backbone_policy: None,
            backbone_cba: None,
            backbone_caps: None,
        }
    }
}

/// The per-cell run template: every scenario key with its default. Sweep
/// axes override fields of a clone of this template per grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Core count (default 4, the paper's platform).
    pub cores: usize,
    /// Arbitration policy name (default `rp`).
    pub policy: String,
    /// Credit-filter spec: `none`, `homog`, `hcba`, or `w:3:1:1:1`
    /// (default `none`).
    pub cba: String,
    /// Optional per-core budget-cap multipliers, `2:1:1:1` style.
    pub caps: Option<String>,
    /// Cycle engine: `events` (fast path, default; `fluid` is an alias)
    /// or `naive` (per-cycle reference loop, for debugging — results are
    /// bit-identical).
    pub engine: String,
    /// Core-0 load (default `bench:rspeed`).
    pub tua: TuaSpec,
    /// Co-runner placement (default `con`).
    pub contenders: ContenderSpec,
    /// Saturating-contender duration override for `con` (default: MaxL).
    pub duration: Option<u32>,
    /// WCET-estimation-mode selection (default auto).
    pub wcet: WcetSpec,
    /// Stop condition: `tua`, `all` or `horizon:N` (default `tua`).
    pub stop: String,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Record the full grant trace (burst/starvation metrics).
    pub trace: bool,
    /// Hierarchical-fabric topology (`[topology]` section); `None` = the
    /// flat shared bus. With a topology, `cores` is derived from it.
    pub topology: Option<TopologyTemplate>,
    /// Miss-stream configuration (`[memory]` section) for the `mem` /
    /// `shared` agent kinds; `None` = no memory agents allowed.
    pub memory: Option<MemoryConfig>,
}

impl Default for Template {
    fn default() -> Self {
        Template {
            cores: 4,
            policy: "rp".into(),
            cba: "none".into(),
            caps: None,
            engine: "events".into(),
            tua: TuaSpec::Load("bench:rspeed".into()),
            contenders: ContenderSpec::MaxContention,
            duration: None,
            wcet: WcetSpec::Auto,
            stop: "tua".into(),
            max_cycles: 50_000_000,
            trace: false,
            topology: None,
            memory: None,
        }
    }
}

/// One sweep axis: a key and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name (see [`axes`]).
    pub key: String,
    /// The axis values as written in the file, in declaration order;
    /// each goes through the axis key's setter per grid point.
    pub values: Vec<String>,
}

/// Report shaping: normalization baseline, percentiles, and windowed
/// fairness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// Axis selector of the normalization baseline, e.g.
    /// `[("setup", "rp"), ("scenario", "iso")]`: within each group of
    /// cells agreeing on every *other* axis, means are divided by the
    /// mean of the cell matching this selector. Empty = no normalization.
    pub baseline: Vec<(String, String)>,
    /// Report quantiles, as fractions in `[0, 1]`.
    pub percentiles: Vec<f64>,
    /// Attach a windowed-fairness probe splitting each run's horizon
    /// into this many equal windows (`windows = N`; requires a
    /// `horizon:` stop it divides evenly). Per-window Jain indices and
    /// core shares surface as extra report columns.
    pub windows: Option<u32>,
    /// Per-run exceedance probabilities for pWCET tail columns
    /// (`pwcet = 1e-9,1e-12`): each cell's latency samples get the full
    /// MBPTA treatment (iid battery + Gumbel block-maxima fit) and the
    /// report grows `pwcet@P`, Gumbel-fit, and iid-verdict columns.
    /// Empty = no pWCET analysis.
    pub pwcet: Vec<f64>,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            baseline: Vec::new(),
            percentiles: vec![0.50, 0.95, 0.99],
            windows: None,
            pwcet: Vec::new(),
        }
    }
}

/// The `[checkpoint]` section: crash-safety knobs for long campaigns.
///
/// `dir` names where the journal of completed cells lives (overridable by
/// `cba_sim --checkpoint`); the budgets bound runaway cells. The cycle
/// budget is deterministic (it caps the simulated-cycle count, so it
/// trips identically on every host and thread count); the wall-clock
/// budget is inherently host-dependent and therefore breaks the
/// bit-identical determinism contract — reach for it only when a
/// campaign must survive truly pathological cells.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointSpec {
    /// Default checkpoint directory (`None` = checkpointing off unless
    /// the CLI passes `--checkpoint DIR`).
    pub dir: Option<String>,
    /// Wall-clock budget per cell, in milliseconds: once a cell has been
    /// executing this long, its remaining runs are skipped and the cell
    /// reports [`CellOutcome::Budget`](crate::report::CellOutcome).
    /// **Non-deterministic** — see the type docs.
    pub cell_budget_ms: Option<u64>,
    /// Simulated-cycle budget per run: caps each run's `max_cycles`, so a
    /// run that would exceed it stops there, counts as unfinished, and
    /// marks the cell [`CellOutcome::Budget`](crate::report::CellOutcome).
    /// Deterministic.
    pub run_budget_cycles: Option<u64>,
}

/// A parsed (or programmatically built) scenario: campaign metadata, the
/// run template, the sweep axes and the report shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// Campaign name (report label).
    pub name: String,
    /// Monte-Carlo runs per cell.
    pub runs: usize,
    /// Master seed; per-cell seeds derive from it and the axis indices.
    pub seed: u64,
    /// Worker threads per campaign (`None` = auto).
    pub threads: Option<usize>,
    /// The per-cell run template.
    pub template: Template,
    /// Sweep axes, outermost first (the last axis varies fastest).
    pub axes: Vec<Axis>,
    /// Report shaping.
    pub report: ReportSpec,
    /// Crash-safety knobs (`[checkpoint]` section).
    pub checkpoint: CheckpointSpec,
}

/// One materialized grid point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `(axis key, canonical value label)` pairs, in axis order.
    pub labels: Vec<(String, String)>,
    /// Axis indices of this point.
    pub indices: Vec<usize>,
    /// The campaign seed for this cell.
    pub seed: u64,
    /// The fully built run specification.
    pub spec: RunSpec,
}

impl Cell {
    /// The label of axis `key`, if this cell has that axis.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl Default for ScenarioDef {
    fn default() -> Self {
        ScenarioDef {
            name: "unnamed".into(),
            runs: 30,
            seed: 2017,
            threads: None,
            template: Template::default(),
            axes: Vec::new(),
            report: ReportSpec::default(),
            checkpoint: CheckpointSpec::default(),
        }
    }
}

impl ScenarioDef {
    /// Parses the scenario-file format: every `key = value` line goes
    /// through [`set`](Self::set), every `[sweep]` line declares an axis.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] with the offending 1-based line number
    /// for unknown sections/keys, malformed values, or duplicate axes.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut def = ScenarioDef::default();
        let mut section = Cow::Borrowed("");
        for (i, raw_line) in text.lines().enumerate() {
            let at = |msg: String| ScenarioError::at(i + 1, msg);
            // Strip comments ('#' to end of line) and whitespace.
            let line = match raw_line.find('#') {
                Some(pos) => &raw_line[..pos],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| at("unterminated section header".into()))?;
                let name = lower(name.trim());
                if !KEYS.iter().any(|k| k.section == name) {
                    let mut expected: Vec<String> =
                        sections().iter().map(|s| format!("[{s}]")).collect();
                    let last = expected.pop().unwrap_or_default();
                    return Err(at(format!(
                        "unknown section '[{name}]' (expected {} or {last})",
                        expected.join(", ")
                    )));
                }
                def.open(&name);
                section = name;
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected 'key = value', got '{line}'")))?;
            let key = lower(key.trim());
            let value = value.trim();
            if value.is_empty() {
                return Err(at(format!("key '{key}' has no value")));
            }
            match section.as_ref() {
                "" => Err(format!("key '{key}' before any [section] header")),
                "sweep" => def.add_axis(&key, value),
                _ => def.set(&section, &key, value).map(drop),
            }
            .map_err(at)?;
        }
        Ok(def)
    }

    /// Sets one key exactly as the line `key = value` under `[section]`
    /// would, and returns the value's canonical cell label (`RR` for
    /// `policy = rr`, `H-CBA` for `setup = hcba`, the raw value for most
    /// keys).
    ///
    /// With `section = "sweep"`, `key` names a sweep axis and `value` is
    /// one of its values, applied the way [`expand`](Self::expand)
    /// applies a grid point. File lines, sweep axes and `cba_sim` flags
    /// all reach a key through its one setter in [`KEYS`], so they accept
    /// the same values and fail with the same messages.
    ///
    /// # Errors
    ///
    /// An unknown key (the message lists the section's keys) or a value
    /// the key rejects.
    pub fn set(&mut self, section: &str, key: &str, value: &str) -> Result<String, String> {
        let entry = Key::find(section, key)?;
        if section != "sweep" {
            self.open(section);
        }
        (entry.set)(self, entry, value)
    }

    /// Creates the optional template a `[topology]` or `[memory]` section
    /// declares (with every key at its default).
    fn open(&mut self, section: &str) {
        match section {
            "topology" => {
                self.template.topology.get_or_insert_with(Default::default);
            }
            "memory" => {
                self.template.memory.get_or_insert_with(Default::default);
            }
            _ => {}
        }
    }

    /// Declares the sweep axis of one `[sweep]` line: `key` and its
    /// comma-separated `values`. The values are applied (and checked) per
    /// cell by [`expand`](Self::expand).
    fn add_axis(&mut self, key: &str, values: &str) -> Result<(), String> {
        Key::find("sweep", key)?;
        if self.axes.iter().any(|a| a.key == key) {
            return Err(format!("duplicate sweep axis '{key}'"));
        }
        let values: Vec<String> = values.split(',').map(|v| v.trim().to_string()).collect();
        if values.iter().any(String::is_empty) {
            return Err(format!("sweep axis '{key}' has an empty value"));
        }
        self.axes.push(Axis {
            key: key.to_string(),
            values,
        });
        Ok(())
    }

    /// Renders the definition back to canonical scenario-file text by
    /// walking [`KEYS`] in order. Each value is written as the text its
    /// key's setter reads (a TuA profile as its catalog name plus knob
    /// overrides), so `parse(render(def)) == def` for any definition
    /// whose values came through [`set`](Self::set), and two such
    /// definitions that differ in anything but `threads` and the
    /// checkpoint `dir` differ in [`scenario_hash`](Self::scenario_hash).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for section in sections() {
            let mut lines = Vec::new();
            if section == "sweep" {
                for axis in &self.axes {
                    lines.push(format!("{} = {}", axis.key, axis.values.join(",")));
                }
            }
            for k in KEYS.iter().filter(|k| k.section == section) {
                if let Some(value) = (k.render)(self, k) {
                    lines.push(format!("{} = {value}", k.name));
                }
            }
            // A section with nothing to say is left out, so scenarios
            // predating [topology], [memory] or [checkpoint] keep
            // byte-identical renders (and scenario hashes, so their
            // checkpoint journals stay resumable).
            if lines.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "[{section}]");
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }

    /// A stable content hash of the scenario, keying the checkpoint
    /// journal: resuming validates that the journal on disk was written
    /// by *this* grid before skipping any cell.
    ///
    /// Hashed over the canonical [`render`](Self::render) with `threads`
    /// and the checkpoint `dir` cleared — neither affects results, so a
    /// resume may legitimately change them (`--threads 8` after an
    /// interrupted `--threads 1` run must pick the journal up). Everything
    /// that *does* shape results — seed, runs, template, axes, report
    /// shape, budgets — is included.
    pub fn scenario_hash(&self) -> u64 {
        let mut canon = self.clone();
        canon.threads = None;
        canon.checkpoint.dir = None;
        sim_core::export::fnv1a_64(canon.render().as_bytes())
    }

    /// Number of grid points (product of axis sizes; 1 with no sweep).
    pub fn n_cells(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// The campaign seed for the grid point at `indices`: the master seed
    /// XOR the axis indices packed into 20-bit fields, innermost axis in
    /// the low bits (indices above 2^20 would alias, far beyond any real
    /// grid). Cutting values off the end of an axis leaves the seeds of
    /// the remaining cells as they were. Axes beyond the three low fields
    /// are mixed in with a splitmix64 hash of `(axis, index)` instead of
    /// a shift, so deep grids cannot systematically collide with the
    /// packed fields.
    pub(crate) fn cell_seed(&self, indices: &[usize]) -> u64 {
        let a = indices.len();
        let mut packed = 0u64;
        for (k, &i) in indices.iter().enumerate() {
            let shift = (20 * (a - 1 - k)) as u32;
            if shift <= 40 {
                packed ^= (i as u64) << shift;
            } else {
                let mut z = ((k as u64) << 32) | i as u64;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                packed ^= z ^ (z >> 31);
            }
        }
        self.seed ^ packed
    }

    /// Materializes the cross-product of the sweep axes into run-ready
    /// [`Cell`]s, in row-major order (last axis varies fastest). Each
    /// cell's axis values go through their keys' setters, as
    /// [`set`](Self::set)`("sweep", axis, value)` would apply them, on a
    /// fresh clone of the template.
    ///
    /// # Errors
    ///
    /// Returns the first axis-application or spec-validation error, named
    /// with the offending axis value or cell labels.
    pub fn expand(&self) -> Result<Vec<Cell>, ScenarioError> {
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(ScenarioError::new(format!(
                    "sweep axis '{}' is empty",
                    axis.key
                )));
            }
        }
        let sizes: Vec<usize> = self.axes.iter().map(|a| a.values.len()).collect();
        let total = sizes
            .iter()
            .try_fold(1usize, |n, &size| n.checked_mul(size))
            .filter(|&n| n <= MAX_COUNT)
            .ok_or_else(|| {
                let shape: Vec<String> = sizes.iter().map(usize::to_string).collect();
                ScenarioError::new(format!(
                    "the sweep grid has {} cells, more than {MAX_COUNT}",
                    shape.join(" x ")
                ))
            })?;
        // Each axis's key is looked up once per grid, not once per cell.
        let keys: Vec<&Key> = self
            .axes
            .iter()
            .map(|a| Key::find("sweep", &a.key))
            .collect::<Result<_, _>>()
            .map_err(ScenarioError::new)?;
        let mut point = ScenarioDef {
            axes: Vec::new(),
            ..self.clone()
        };
        let mut cells = Vec::with_capacity(total);
        for flat in 0..total {
            let mut indices = vec![0usize; sizes.len()];
            let mut rem = flat;
            for k in (0..sizes.len()).rev() {
                indices[k] = rem % sizes[k];
                rem /= sizes[k];
            }
            // Axes set template keys only, so a fresh template is a fresh
            // grid point.
            point.template = self.template.clone();
            let mut labels = Vec::with_capacity(sizes.len());
            for ((axis, key), &i) in self.axes.iter().zip(&keys).zip(&indices) {
                let value = &axis.values[i];
                let label = (key.set)(&mut point, key, value).map_err(|e| {
                    ScenarioError::new(format!("axis '{}' value '{value}': {e}", axis.key))
                })?;
                labels.push((axis.key.clone(), label));
            }
            let cell_error = |e: String| {
                let cell: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                ScenarioError::new(format!("cell [{}]: {e}", cell.join(", ")))
            };
            let mut spec = point.template.build().map_err(cell_error)?;
            if self.report.windows.is_some() {
                spec.windows = self.report.windows;
                spec.validate()
                    .map_err(|e| cell_error(format!("[report] windows: {e}")))?;
            }
            cells.push(Cell {
                seed: self.cell_seed(&indices),
                labels,
                indices,
                spec,
            });
        }
        Ok(cells)
    }
}

/// Parses one value into a definition and returns its cell label.
type Setter = fn(&mut ScenarioDef, &Key, &str) -> Result<String, String>;

/// A key's canonical value, or `None` to leave its line out.
type Renderer = fn(&ScenarioDef, &Key) -> Option<String>;

/// One scenario-file key: its section and name, the sweep axis that
/// reaches it, and the one setter and renderer behind every surface.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// The `[section]` the key lives in; `sweep` for the axis-only
    /// `setup` and `weights` entries.
    pub section: &'static str,
    /// The key name within its section.
    pub name: &'static str,
    /// The `[sweep]` axis that sets this key per grid point, if any.
    pub axis: Option<&'static str>,
    set: Setter,
    render: Renderer,
}

/// A key of `[section]`, not yet sweepable; [`Key::set`] and
/// [`Key::render`] give it its setter and renderer.
const fn key(section: &'static str, name: &'static str) -> Key {
    Key {
        section,
        name,
        axis: None,
        set: |_, k, _| Err(format!("key '{}' has no setter", k.name)),
        render: |_, _| None,
    }
}

/// A `[tua]` profile knob, sweepable under its own name.
const fn knob(name: &'static str) -> Key {
    key("tua", name).set(set_knob).render(render_knob).sweep()
}

impl Key {
    /// This key, parsed by `set`.
    const fn set(mut self, set: Setter) -> Key {
        self.set = set;
        self
    }

    /// This key, rendered by `render` (without one it is never rendered).
    const fn render(mut self, render: Renderer) -> Key {
        self.render = render;
        self
    }

    /// This key, sweepable as an axis of the same name.
    const fn sweep(self) -> Key {
        self.sweep_as(self.name)
    }

    /// This key, sweepable as axis `axis`.
    const fn sweep_as(mut self, axis: &'static str) -> Key {
        self.axis = Some(axis);
        self
    }

    /// The entry of `key` under `[section]`; under `sweep`, the entry
    /// behind the sweep axis `key`.
    fn find(section: &str, key: &str) -> Result<&'static Key, String> {
        if section == "sweep" {
            return KEYS.iter().find(|k| k.axis == Some(key)).ok_or_else(|| {
                format!(
                    "unknown sweep key '{key}' (sweepable keys: {})",
                    axes().join(", ")
                )
            });
        }
        KEYS.iter()
            .find(|k| k.name == key && k.section == section)
            .ok_or_else(|| {
                format!(
                    "unknown [{section}] key '{key}' (expected {})",
                    keys_in(section).join(", ")
                )
            })
    }
}

/// The scenario-file sections, in render order.
pub fn sections() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for k in KEYS {
        if !out.contains(&k.section) {
            out.push(k.section);
        }
    }
    out
}

/// The keys of `[section]`, in render order.
pub fn keys_in(section: &str) -> Vec<&'static str> {
    KEYS.iter()
        .filter(|k| k.section == section)
        .map(|k| k.name)
        .collect()
}

/// Every sweep-axis name, in table order.
pub fn axes() -> Vec<&'static str> {
    KEYS.iter().filter_map(|k| k.axis).collect()
}

/// The most runs per cell and cells per grid a campaign takes: the
/// checkpoint journal stores both counts, and every cell index, as `u32`.
const MAX_COUNT: usize = u32::MAX as usize;

/// Every scenario key, in render order. Parsing, sweep expansion,
/// [`ScenarioDef::render`], the key lists of unknown-key errors and the
/// `cba_sim` usage text all read this one table; `scenarios/README.md`
/// documents every entry (checked by `tests/scenario_conformance.rs`).
pub static KEYS: &[Key] = &[
    key("campaign", "name")
        .set(|d, _, v| put(&mut d.name, v.to_string(), v))
        .render(|d, _| Some(d.name.clone())),
    key("campaign", "runs")
        .set(|d, k, v| {
            let runs = positive(k, v)?;
            if runs > MAX_COUNT {
                return Err(format!("runs must be at most {MAX_COUNT}, got {runs}"));
            }
            put(&mut d.runs, runs, v)
        })
        .render(|d, _| Some(d.runs.to_string())),
    key("campaign", "seed")
        .set(|d, k, v| put(&mut d.seed, num(k, v)?, v))
        .render(|d, _| Some(d.seed.to_string())),
    // 0 = one worker per hardware thread.
    key("campaign", "threads")
        .set(|d, k, v| put(&mut d.threads, Some(num(k, v)?).filter(|&n| n > 0), v))
        .render(|d, _| Some(d.threads.unwrap_or(0).to_string())),
    key("platform", "cores")
        .set(|d, k, v| put(&mut d.template.cores, num(k, v)?, v))
        .render(|d, _| Some(d.template.cores.to_string()))
        .sweep(),
    key("platform", "policy")
        .set(|d, _, v| {
            let kind = parse_policy(v)?;
            d.template.policy = v.to_string();
            Ok(kind.name().to_string())
        })
        .render(|d, _| Some(d.template.policy.clone()))
        .sweep(),
    key("platform", "cba")
        .set(|d, _, v| put(&mut d.template.cba, v.to_string(), v))
        .render(|d, _| Some(d.template.cba.clone()))
        .sweep(),
    key("platform", "caps")
        .set(|d, _, v| put(&mut d.template.caps, Some(v.to_string()), v))
        .render(|d, _| d.template.caps.clone())
        .sweep(),
    key("platform", "engine")
        .set(|d, _, v| put(&mut d.template.engine, checked(parse_engine(v), v)?, v))
        .render(|d, _| Some(d.template.engine.clone())),
    key("topology", "clusters")
        .set(|d, k, v| put(&mut topo(d, k)?.clusters, positive(k, v)?, v))
        .render(|d, _| Some(d.template.topology.as_ref()?.clusters.to_string()))
        .sweep(),
    key("topology", "cores_per_cluster")
        .set(|d, k, v| put(&mut topo(d, k)?.cores_per_cluster, positive(k, v)?, v))
        .render(|d, _| Some(d.template.topology.as_ref()?.cores_per_cluster.to_string())),
    key("topology", "bridge_latency")
        .set(|d, k, v| put(&mut topo(d, k)?.bridge_latency, at_least_1(k, v)?, v))
        .render(|d, _| Some(d.template.topology.as_ref()?.bridge_latency.to_string()))
        .sweep(),
    key("topology", "bridge_depth")
        .set(|d, k, v| put(&mut topo(d, k)?.bridge_depth, at_least_1(k, v)?, v))
        .render(|d, _| Some(d.template.topology.as_ref()?.bridge_depth.to_string()))
        .sweep(),
    key("topology", "cluster_policy")
        .set(|d, k, v| put(&mut topo(d, k)?.cluster_policy, Some(policy(v)?), v))
        .render(|d, _| d.template.topology.as_ref()?.cluster_policy.clone()),
    key("topology", "cluster_cba")
        .set(|d, k, v| put(&mut topo(d, k)?.cluster_cba, v.to_string(), v))
        .render(|d, _| Some(d.template.topology.as_ref()?.cluster_cba.clone()))
        .sweep(),
    key("topology", "cluster_caps")
        .set(|d, k, v| put(&mut topo(d, k)?.cluster_caps, Some(v.to_string()), v))
        .render(|d, _| d.template.topology.as_ref()?.cluster_caps.clone()),
    key("topology", "backbone_policy")
        .set(|d, k, v| put(&mut topo(d, k)?.backbone_policy, Some(policy(v)?), v))
        .render(|d, _| d.template.topology.as_ref()?.backbone_policy.clone()),
    key("topology", "backbone_cba")
        .set(|d, k, v| put(&mut topo(d, k)?.backbone_cba, Some(v.to_string()), v))
        .render(|d, _| d.template.topology.as_ref()?.backbone_cba.clone())
        .sweep(),
    key("topology", "backbone_caps")
        .set(|d, k, v| put(&mut topo(d, k)?.backbone_caps, Some(v.to_string()), v))
        .render(|d, _| d.template.topology.as_ref()?.backbone_caps.clone()),
    key("memory", "working_set")
        .set(|d, k, v| {
            let line = cba_mem::coherence::SHARED_LINE_BYTES;
            let bytes = at_least(k, v, line, &format!("at least one {line}-byte line"))?;
            put(&mut mem(d, k)?.working_set, bytes, v)
        })
        .render(|d, _| Some(d.template.memory.as_ref()?.working_set.to_string()))
        .sweep_as("mem_working_set"),
    key("memory", "accesses")
        .set(|d, k, v| put(&mut mem(d, k)?.accesses, positive(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.accesses.to_string())),
    key("memory", "write_frac")
        .set(|d, k, v| put(&mut mem(d, k)?.write_frac, fraction(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.write_frac.to_string()))
        .sweep(),
    key("memory", "share_frac")
        .set(|d, k, v| put(&mut mem(d, k)?.share_frac, fraction(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.share_frac.to_string()))
        .sweep(),
    key("memory", "shared_lines")
        .set(|d, k, v| put(&mut mem(d, k)?.shared_lines, positive(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.shared_lines.to_string())),
    key("memory", "locality")
        .set(|d, k, v| put(&mut mem(d, k)?.locality, fraction(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.locality.to_string())),
    key("memory", "think")
        .set(|d, k, v| put(&mut mem(d, k)?.think, num(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.think.to_string())),
    key("memory", "l1_sets")
        .set(|d, k, v| put(&mut mem(d, k)?.l1_sets, num(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.l1_sets.to_string()))
        .sweep(),
    key("memory", "l1_ways")
        .set(|d, k, v| put(&mut mem(d, k)?.l1_ways, num(k, v)?, v))
        .render(|d, _| Some(d.template.memory.as_ref()?.l1_ways.to_string())),
    key("tua", "load")
        .set(|d, _, v| put(&mut d.template.tua, TuaSpec::Load(load(v)?), v))
        .render(|d, _| match &d.template.tua {
            TuaSpec::Load(spec) => Some(spec.clone()),
            _ => None,
        })
        .sweep_as("tua"),
    key("tua", "profile")
        .set(set_profile)
        .render(|d, _| match &d.template.tua {
            TuaSpec::Load(_) => None,
            TuaSpec::Profile { name, .. } => Some(name.clone()),
        })
        .sweep_as("bench"),
    knob("accesses"),
    knob("working_set"),
    knob("p_random"),
    knob("p_store"),
    knob("p_atomic"),
    knob("p_ifetch"),
    knob("burst"),
    knob("gap"),
    knob("between"),
    key("contenders", "scenario")
        .set(set_scenario)
        .render(|d, _| match d.template.contenders {
            ContenderSpec::Isolation => Some("iso".into()),
            ContenderSpec::MaxContention => Some("con".into()),
            _ => None,
        })
        .sweep(),
    key("contenders", "loads")
        .set(|d, _, v| {
            let specs = list(v, load)?;
            put(&mut d.template.contenders, ContenderSpec::Custom(specs), v)
        })
        .render(|d, _| match &d.template.contenders {
            ContenderSpec::Custom(specs) => Some(specs.join(",")),
            _ => None,
        }),
    key("contenders", "fill")
        .set(|d, _, v| put(&mut d.template.contenders, ContenderSpec::Fill(load(v)?), v))
        .render(|d, _| match &d.template.contenders {
            ContenderSpec::Fill(spec) => Some(spec.clone()),
            _ => None,
        })
        .sweep(),
    key("contenders", "duration")
        .set(|d, k, v| put(&mut d.template.duration, Some(positive(k, v)?), v))
        .render(|d, _| d.template.duration.map(|x| x.to_string()))
        .sweep(),
    key("contenders", "wcet").set(set_wcet).render(|d, _| {
        let mode = match d.template.wcet {
            WcetSpec::Auto => "auto",
            WcetSpec::On => "on",
            WcetSpec::Off => "off",
        };
        Some(mode.into())
    }),
    key("contenders", "stop")
        .set(|d, _, v| put(&mut d.template.stop, checked(parse_stop(v), v)?, v))
        .render(|d, _| Some(d.template.stop.clone())),
    key("contenders", "max_cycles")
        .set(|d, k, v| put(&mut d.template.max_cycles, num(k, v)?, v))
        .render(|d, _| Some(d.template.max_cycles.to_string())),
    key("contenders", "trace")
        .set(|d, k, v| put(&mut d.template.trace, switch(k, v)?, v))
        .render(|d, _| on_off(d.template.trace)),
    key("sweep", "setup").set(set_setup).sweep(),
    key("sweep", "weights")
        .set(|d, _, v| put(&mut d.template.cba, format!("w:{v}"), v))
        .sweep(),
    key("report", "windows")
        .set(|d, k, v| put(&mut d.report.windows, Some(positive(k, v)?), v))
        .render(|d, _| d.report.windows.map(|w| w.to_string())),
    key("report", "baseline")
        .set(|d, _, v| {
            let selector = list(v, |pair| {
                let (axis, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("baseline entry '{pair}' is not 'axis=value'"))?;
                Ok((axis.trim().to_string(), value.trim().to_string()))
            })?;
            put(&mut d.report.baseline, selector, v)
        })
        .render(|d, _| joined(&d.report.baseline, |(a, v)| format!("{a}={v}"))),
    key("report", "percentiles")
        .set(|d, _, v| {
            let quantiles = list(v, |p| {
                let pct: f64 = p.parse().map_err(|_| format!("bad percentile '{p}'"))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("percentile {pct} outside [0, 100]"));
                }
                Ok(pct / 100.0)
            })?;
            put(&mut d.report.percentiles, quantiles, v)
        })
        // Always rendered: an empty list is not the default.
        .render(|d, _| {
            let pcts = joined(&d.report.percentiles, |q| format!("{}", q * 100.0));
            Some(pcts.unwrap_or_default())
        }),
    key("report", "pwcet")
        .set(|d, _, v| {
            let probs = list(v, |p| {
                let prob: f64 = p
                    .parse()
                    .map_err(|_| format!("bad pwcet probability '{p}'"))?;
                if !(prob > 0.0 && prob < 1.0) {
                    return Err(format!("pwcet probability {prob} outside (0, 1)"));
                }
                Ok(prob)
            })?;
            put(&mut d.report.pwcet, probs, v)
        })
        .render(|d, _| joined(&d.report.pwcet, |p| format!("{p:e}"))),
    key("checkpoint", "dir")
        .set(|d, _, v| put(&mut d.checkpoint.dir, Some(v.to_string()), v))
        .render(|d, _| d.checkpoint.dir.clone()),
    key("checkpoint", "cell_budget_ms")
        .set(|d, k, v| put(&mut d.checkpoint.cell_budget_ms, Some(positive(k, v)?), v))
        .render(|d, _| d.checkpoint.cell_budget_ms.map(|ms| ms.to_string())),
    key("checkpoint", "run_budget_cycles")
        .set(|d, k, v| {
            put(
                &mut d.checkpoint.run_budget_cycles,
                Some(positive(k, v)?),
                v,
            )
        })
        .render(|d, _| d.checkpoint.run_budget_cycles.map(|c| c.to_string())),
];

/// Stores `value` in `slot`; the raw text `v` is the cell label.
fn put<T>(slot: &mut T, value: T, v: &str) -> Result<String, String> {
    *slot = value;
    Ok(v.to_string())
}

/// `v` itself once `check` accepted it: keys kept as raw text.
fn checked<T>(check: Result<T, String>, v: &str) -> Result<String, String> {
    check.map(|_| v.to_string())
}

/// Parses a number for key `k`.
fn num<T: FromStr>(k: &Key, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad number '{v}' for '{}'", k.name))
}

/// Parses a number for key `k` that must be at least `min`; `bound`
/// words that requirement in the error.
fn at_least<T: FromStr + PartialOrd>(k: &Key, v: &str, min: T, bound: &str) -> Result<T, String> {
    let n = num(k, v)?;
    if n < min {
        return Err(format!("{} must be {bound}", k.name));
    }
    Ok(n)
}

/// Parses a positive number for key `k`.
fn positive<T: FromStr + PartialOrd + From<u8>>(k: &Key, v: &str) -> Result<T, String> {
    at_least(k, v, T::from(1), "positive")
}

/// Parses a number of at least 1 for key `k` (the bridge keys' wording).
fn at_least_1<T: FromStr + PartialOrd + From<u8>>(k: &Key, v: &str) -> Result<T, String> {
    at_least(k, v, T::from(1), "at least 1")
}

/// `v`, once it names a policy.
fn policy(v: &str) -> Result<String, String> {
    checked(parse_policy(v), v)
}

/// `v`, once it parses as a load spec.
fn load(v: &str) -> Result<String, String> {
    checked(parse_load_spec(v), v)
}

/// Parses a fraction in `[0, 1]` for key `k`.
fn fraction(k: &Key, v: &str) -> Result<f64, String> {
    let f: f64 = v
        .parse()
        .map_err(|_| format!("bad fraction '{v}' for '{}'", k.name))?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("{} must be within [0, 1], got {f}", k.name));
    }
    Ok(f)
}

/// Parses an on/off switch for key `k`.
fn switch(k: &Key, v: &str) -> Result<bool, String> {
    match lower(v).as_ref() {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        other => Err(format!(
            "bad switch '{other}' for '{}' (expected on/off)",
            k.name
        )),
    }
}

/// `s` in ASCII lower case, borrowed when it already is.
fn lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Renders an on/off switch.
fn on_off(b: bool) -> Option<String> {
    Some(if b { "on" } else { "off" }.to_string())
}

/// Parses each item of a comma-separated list.
fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(|s| item(s.trim())).collect()
}

/// A comma-joined list, or `None` for an empty one.
fn joined<T>(items: &[T], show: impl Fn(&T) -> String) -> Option<String> {
    let shown: Vec<String> = items.iter().map(show).collect();
    (!shown.is_empty()).then(|| shown.join(","))
}

/// The `[topology]` template an axis reshapes.
fn topo<'a>(d: &'a mut ScenarioDef, k: &Key) -> Result<&'a mut TopologyTemplate, String> {
    d.template.topology.as_mut().ok_or_else(|| needs_section(k))
}

/// The `[memory]` configuration an axis reshapes.
fn mem<'a>(d: &'a mut ScenarioDef, k: &Key) -> Result<&'a mut MemoryConfig, String> {
    d.template.memory.as_mut().ok_or_else(|| needs_section(k))
}

/// Setting a key through its section opens the section, so only a sweep
/// axis can reach a `[topology]` or `[memory]` key without one.
fn needs_section(k: &Key) -> String {
    format!(
        "axis '{}' requires a [{}] section in the scenario",
        k.axis.unwrap_or(k.name),
        k.section
    )
}

/// `[tua] profile` and the `bench` axis: a catalog TuA, keeping the knob
/// overrides already set.
fn set_profile(d: &mut ScenarioDef, _: &Key, v: &str) -> Result<String, String> {
    profile_by_name(v).ok_or_else(|| format!("unknown benchmark profile '{v}'"))?;
    let overrides = match &mut d.template.tua {
        TuaSpec::Profile { overrides, .. } => std::mem::take(overrides),
        _ => Vec::new(),
    };
    let name = v.to_string();
    put(&mut d.template.tua, TuaSpec::Profile { name, overrides }, v)
}

/// A profile knob of the TuA (`[tua] burst = 2:4` or a `burst` axis).
/// The value is checked now, so a bad one fails with its line; overrides
/// stay one per knob in table order, so renders round-trip.
fn set_knob(d: &mut ScenarioDef, k: &Key, v: &str) -> Result<String, String> {
    match &mut d.template.tua {
        TuaSpec::Profile { overrides, .. } => {
            apply_profile_knob(&mut cba_workloads::suite::rspeed(), k.name, v)?;
            overrides.retain(|(knob, _)| knob != k.name);
            overrides.push((k.name.to_string(), v.to_string()));
            overrides.sort_by_key(|(knob, _)| {
                KEYS.iter()
                    .position(|e| e.section == "tua" && e.name == knob)
            });
        }
        TuaSpec::Load(_) => {
            return Err(format!(
                "knob '{}' requires a profile-based TuA (set 'profile = NAME' first in [tua], \
                 or sweep a 'bench' axis before it)",
                k.name
            ))
        }
    }
    Ok(v.to_string())
}

/// The value of knob `k` a profile TuA overrides, if any.
fn render_knob(d: &ScenarioDef, k: &Key) -> Option<String> {
    match &d.template.tua {
        TuaSpec::Profile { overrides, .. } => overrides
            .iter()
            .rev()
            .find(|(knob, _)| knob == k.name)
            .map(|(_, v)| v.clone()),
        _ => None,
    }
}

/// `[contenders] scenario` and the `scenario` axis.
fn set_scenario(d: &mut ScenarioDef, _: &Key, v: &str) -> Result<String, String> {
    let c = &mut d.template.contenders;
    let (spec, label) = match lower(v).as_ref() {
        "iso" => (ContenderSpec::Isolation, "ISO"),
        "con" => (ContenderSpec::MaxContention, "CON"),
        // `loads =` may already have set the list.
        "custom" if matches!(c, ContenderSpec::Custom(_)) => return Ok("custom".into()),
        "custom" => (ContenderSpec::Custom(Vec::new()), "custom"),
        other => {
            return Err(format!(
                "unknown scenario '{other}' (expected iso, con, custom)"
            ))
        }
    };
    put(c, spec, label)
}

/// `[contenders] wcet`: WCET-estimation mode.
fn set_wcet(d: &mut ScenarioDef, _: &Key, v: &str) -> Result<String, String> {
    let mode = match lower(v).as_ref() {
        "auto" => WcetSpec::Auto,
        "on" | "true" => WcetSpec::On,
        "off" | "false" => WcetSpec::Off,
        other => {
            return Err(format!(
                "unknown wcet mode '{other}' (expected auto, on, off)"
            ))
        }
    };
    put(&mut d.template.wcet, mode, v)
}

/// The `setup` axis: the paper's bus setups (`rp`, `cba`, `hcba`) or
/// `POLICY[+CBASPEC]`, e.g. `rr`, `fifo`, `rr+homog`, `lot+w:3:1:1:1`.
fn set_setup(d: &mut ScenarioDef, _: &Key, v: &str) -> Result<String, String> {
    let lowered = lower(v);
    let (policy, cba, label) = match lowered.as_ref() {
        "rp" => ("rp", "none", "RP"),
        "cba" => ("rp", "homog", "CBA"),
        "hcba" => ("rp", "hcba", "H-CBA"),
        custom => {
            let (name, filter) = custom.split_once('+').unwrap_or((custom, "none"));
            parse_policy(name)?;
            (name, filter, v)
        }
    };
    d.template.policy = policy.to_string();
    d.template.cba = cba.to_string();
    Ok(label.to_string())
}

/// Parses a cycle-engine selector: `events` (the fast path), `naive`
/// (the per-cycle reference loop), or `fluid`, which is kept as an alias
/// of `events` (whose limit-cycle fast-forward it once selected),
/// case-insensitively.
pub fn parse_engine(s: &str) -> Result<Engine, String> {
    match lower(s).as_ref() {
        "events" | "fast" | "fluid" => Ok(Engine::Events),
        "naive" | "cycle" => Ok(Engine::Naive),
        other => Err(format!(
            "unknown engine '{other}' (expected events, naive, fluid)"
        )),
    }
}

/// Parses a policy name. Accepts the short CLI forms and the spelled-out
/// aliases (`lottery`, `randperm`, `priority`), case-insensitively.
pub fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match lower(s).as_ref() {
        "fifo" => Ok(PolicyKind::Fifo),
        "rr" | "roundrobin" => Ok(PolicyKind::RoundRobin),
        "tdma" => Ok(PolicyKind::Tdma),
        "lot" | "lottery" => Ok(PolicyKind::Lottery),
        "rp" | "randperm" => Ok(PolicyKind::RandomPermutation),
        "pri" | "priority" => Ok(PolicyKind::FixedPriority),
        other => Err(format!(
            "unknown policy '{other}' (expected fifo, rr, tdma, lot, rp, pri)"
        )),
    }
}

/// Parses a credit-filter spec for an `n_cores`-core platform:
/// `none`, `homog`, `hcba`, or `w:` followed by `:`- or `,`-separated
/// per-core weight numerators (denominator = their sum).
pub fn parse_cba_spec(
    s: &str,
    n_cores: usize,
    max_latency: u32,
) -> Result<Option<CreditConfig>, String> {
    match lower(s).as_ref() {
        "none" => Ok(None),
        "homog" => CreditConfig::homogeneous(n_cores, max_latency)
            .map(Some)
            .map_err(|e| e.to_string()),
        "hcba" => {
            if n_cores != 4 {
                return Err(format!(
                    "'hcba' is the paper's 4-core configuration; use 'w:...' weights for \
                     {n_cores} cores"
                ));
            }
            CreditConfig::paper_hcba(max_latency)
                .map(Some)
                .map_err(|e| e.to_string())
        }
        other => {
            let weights = other.strip_prefix("w:").ok_or_else(|| {
                format!("unknown cba spec '{s}' (expected none, homog, hcba, w:...)")
            })?;
            let numerators: Vec<u32> = weights
                .split([':', ','])
                .map(|w| {
                    w.trim()
                        .parse()
                        .map_err(|_| format!("bad weight '{w}' in cba spec '{s}'"))
                })
                .collect::<Result<_, String>>()?;
            if numerators.len() != n_cores {
                return Err(format!(
                    "cba spec '{s}' has {} weights for a {n_cores}-core platform",
                    numerators.len()
                ));
            }
            let denominator: u32 = numerators.iter().sum();
            CreditConfig::weighted(max_latency, numerators, denominator)
                .map(Some)
                .map_err(|e| e.to_string())
        }
    }
}

/// Parses one load spec of the per-core mini-language shared with
/// `cba_sim --loads`:
///
/// ```text
/// bench:NAME             catalog benchmark through the core model
///                        (bench:streaming is stream:20000)
/// fixed:REQS:DUR:GAP     fixed-request task
/// sat:DUR                saturating contender
/// per:DUR:PERIOD:PHASE   periodic contender
/// stream:ACCESSES        streaming loads
/// idle                   nothing
/// agent:KIND:ARGS...     a user-registered agent kind (resolved against
///                        the AgentRegistry at run-build time)
/// ```
///
/// # Errors
///
/// An unknown shape or benchmark name, a field that does not parse at its
/// width (`REQS`, `PERIOD`, `PHASE` and `ACCESSES` are `u64`, `DUR` and
/// `GAP` `u32`), or a zero `REQS`, `DUR`, `PERIOD` or `ACCESSES`. A `DUR`
/// above MaxL is left to [`RunSpec::validate`], which knows the platform.
pub fn parse_load_spec(s: &str) -> Result<CoreLoad, String> {
    /// Field `p` of load `s` at its own width; `REQS`, `DUR`, `PERIOD`
    /// and `ACCESSES` (`positive`) must be at least 1.
    fn field<T: FromStr + PartialOrd + From<u8>>(
        s: &str,
        p: &str,
        what: &str,
        positive: bool,
    ) -> Result<T, String> {
        let n: T = p
            .parse()
            .map_err(|_| format!("bad number '{p}' in load '{s}'"))?;
        if positive && n < T::from(1) {
            return Err(format!("{what} must be positive in load '{s}'"));
        }
        Ok(n)
    }
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["idle"] => Ok(CoreLoad::Idle),
        ["bench", "streaming"] => Ok(CoreLoad::Streaming { accesses: 20_000 }),
        ["bench", name] => profile_by_name(name)
            .map(CoreLoad::Profile)
            .ok_or_else(|| format!("unknown benchmark '{name}' in load '{s}'")),
        ["agent", kind, args @ ..] if !kind.is_empty() => Ok(CoreLoad::Custom {
            kind: kind.to_string(),
            args: args.iter().map(|a| a.to_string()).collect(),
        }),
        ["fixed", r, d, g] => Ok(CoreLoad::FixedTask {
            n_requests: field(s, r, "REQS", true)?,
            duration: field(s, d, "DUR", true)?,
            gap: field(s, g, "GAP", false)?,
        }),
        ["sat", d] => Ok(CoreLoad::Saturating {
            duration: field(s, d, "DUR", true)?,
        }),
        ["per", d, p, ph] => Ok(CoreLoad::Periodic {
            duration: field(s, d, "DUR", true)?,
            period: field(s, p, "PERIOD", true)?,
            phase: field(s, ph, "PHASE", false)?,
        }),
        ["stream", a] => Ok(CoreLoad::Streaming {
            accesses: field(s, a, "ACCESSES", true)?,
        }),
        _ => Err(format!(
            "unknown load spec '{s}' (expected bench:NAME, fixed:R:D:G, sat:D, per:D:P:PH, \
             stream:A, idle, agent:KIND:ARGS...)"
        )),
    }
}

fn parse_stop(s: &str) -> Result<StopCondition, String> {
    match lower(s).as_ref() {
        "tua" => Ok(StopCondition::TuaDone),
        "all" => Ok(StopCondition::AllDone),
        other => {
            let h = other.strip_prefix("horizon:").ok_or_else(|| {
                format!("unknown stop condition '{s}' (expected tua, all, horizon:N)")
            })?;
            let cycles: u64 = h
                .parse()
                .map_err(|_| format!("bad horizon '{h}' in stop condition '{s}'"))?;
            Ok(StopCondition::Horizon(cycles))
        }
    }
}

/// Applies a `2:1:1:1`-style cap-multiplier spec to a segment's credit
/// config (which must exist: caps without a filter are meaningless).
fn apply_caps(cba: Option<CreditConfig>, caps: &str, what: &str) -> Result<CreditConfig, String> {
    let multipliers: Vec<u32> = caps
        .split([':', ','])
        .map(|c| {
            c.trim()
                .parse()
                .map_err(|_| format!("bad cap multiplier '{c}' in {what}"))
        })
        .collect::<Result<_, String>>()?;
    let config = cba.ok_or_else(|| format!("{what} require a credit filter on that segment"))?;
    config
        .with_cap_multipliers(multipliers)
        .map_err(|e| e.to_string())
}

fn apply_profile_knob(p: &mut EembcProfile, knob: &str, value: &str) -> Result<(), String> {
    let bad = |what: &str| format!("bad {what} '{value}' for knob '{knob}'");
    let parse_range = |value: &str| -> Result<(u32, u32), String> {
        let (lo, hi) = value
            .split_once(':')
            .ok_or_else(|| format!("knob '{knob}' expects 'LO:HI', got '{value}'"))?;
        Ok((
            lo.parse().map_err(|_| bad("bound"))?,
            hi.parse().map_err(|_| bad("bound"))?,
        ))
    };
    match knob {
        "accesses" => p.accesses = value.parse().map_err(|_| bad("count"))?,
        "working_set" => p.working_set = value.parse().map_err(|_| bad("size"))?,
        "p_random" => p.p_random = value.parse().map_err(|_| bad("fraction"))?,
        "p_store" => p.p_store = value.parse().map_err(|_| bad("fraction"))?,
        "p_atomic" => p.p_atomic = value.parse().map_err(|_| bad("fraction"))?,
        "p_ifetch" => p.p_ifetch = value.parse().map_err(|_| bad("fraction"))?,
        "burst" => p.burst_len = parse_range(value)?,
        "gap" => p.within_gap = parse_range(value)?,
        "between" => p.between_gap_mean = value.parse().map_err(|_| bad("mean"))?,
        other => return Err(format!("unknown profile knob '{other}'")),
    }
    Ok(())
}

impl TuaSpec {
    /// Resolves this spec into a core-0 [`CoreLoad`].
    pub(crate) fn build(&self) -> Result<CoreLoad, String> {
        match self {
            TuaSpec::Load(spec) => parse_load_spec(spec),
            TuaSpec::Profile { name, overrides } => {
                let mut profile = profile_by_name(name)
                    .ok_or_else(|| format!("unknown benchmark profile '{name}'"))?;
                for (knob, value) in overrides {
                    apply_profile_knob(&mut profile, knob, value)?;
                }
                profile
                    .validate()
                    .map_err(|e| format!("profile '{name}' invalid after overrides: {e}"))?;
                Ok(CoreLoad::Profile(profile))
            }
        }
    }
}

impl Template {
    /// Builds and validates the full [`RunSpec`] this template describes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field combination
    /// (unknown policy, weight/core-count mismatch, infinite TuA with a
    /// `tua` stop condition, ...).
    pub(crate) fn build(&self) -> Result<RunSpec, String> {
        let latency = LatencyModel::paper();
        let maxl = latency.max_latency();
        // With a [topology] the core count is derived from it; the flat
        // `cores` key is ignored (axes reshape the topology directly).
        let n = match &self.topology {
            Some(topo) => topo
                .clusters
                .checked_mul(topo.cores_per_cluster)
                .ok_or_else(|| {
                    format!(
                        "core count {} x {} overflows",
                        topo.clusters, topo.cores_per_cluster
                    )
                })?,
            None => self.cores,
        };
        if n == 0 || n > sim_core::CoreId::MAX_CORES {
            return Err(format!(
                "core count {n} outside 1..={}",
                sim_core::CoreId::MAX_CORES
            ));
        }
        let policy = parse_policy(&self.policy)?;
        let topology = match &self.topology {
            None => None,
            Some(topo) => {
                if self.caps.is_some() {
                    return Err(
                        "caps apply to the flat bus; fabric filters are configured per \
                         segment (cluster_cba / backbone_cba)"
                            .into(),
                    );
                }
                let cluster_policy =
                    parse_policy(topo.cluster_policy.as_deref().unwrap_or(&self.policy))?;
                let backbone_policy =
                    parse_policy(topo.backbone_policy.as_deref().unwrap_or(&self.policy))?;
                let mut cluster_cba =
                    parse_cba_spec(&topo.cluster_cba, topo.cores_per_cluster, maxl)?;
                let mut backbone_cba = parse_cba_spec(
                    topo.backbone_cba.as_deref().unwrap_or(&self.cba),
                    topo.clusters,
                    maxl,
                )?;
                if let Some(caps) = &topo.cluster_caps {
                    cluster_cba = Some(apply_caps(cluster_cba, caps, "cluster_caps")?);
                }
                if let Some(caps) = &topo.backbone_caps {
                    backbone_cba = Some(apply_caps(backbone_cba, caps, "backbone_caps")?);
                }
                Some(FabricTopology {
                    clusters: topo.clusters,
                    cores_per_cluster: topo.cores_per_cluster,
                    bridge_latency: topo.bridge_latency,
                    bridge_depth: topo.bridge_depth,
                    cluster_policy,
                    cluster_cba,
                    backbone_policy,
                    backbone_cba,
                })
            }
        };
        let mut cba = match topology {
            // The flat filter would be ambiguous on a fabric; the backbone
            // filter (defaulted from the same `cba` key) replaces it.
            Some(_) => None,
            None => parse_cba_spec(&self.cba, n, maxl)?,
        };
        if let Some(caps) = &self.caps {
            cba = Some(apply_caps(cba, caps, "caps")?);
        }
        if let Some(mem) = &self.memory {
            mem.validate().map_err(|e| e.to_string())?;
        }
        let platform = PlatformConfig {
            n_cores: n,
            latency,
            hierarchy: HierarchyConfig::paper(),
            policy,
            cba,
            store_buffer: cba_cpu::core::DEFAULT_STORE_BUFFER,
            topology,
            memory: self.memory.clone(),
        };
        let tua = self.tua.build()?;
        let scenario = match &self.contenders {
            ContenderSpec::Isolation => Scenario::Isolation,
            ContenderSpec::MaxContention => match self.duration {
                // Plain `con` delegates to the canonical MaxL contenders.
                None => Scenario::MaxContention,
                // RunSpec::validate rejects a duration above MaxL.
                Some(d) => Scenario::Custom(vec![CoreLoad::Saturating { duration: d }; n - 1]),
            },
            ContenderSpec::Custom(specs) => {
                let loads: Vec<CoreLoad> = specs
                    .iter()
                    .map(|s| parse_load_spec(s))
                    .collect::<Result<_, String>>()?;
                Scenario::Custom(loads)
            }
            ContenderSpec::Fill(spec) => {
                let load = parse_load_spec(spec)?;
                Scenario::Custom(vec![load; n - 1])
            }
        };
        let declared_con = matches!(self.contenders, ContenderSpec::MaxContention);
        let mut spec = RunSpec::with_platform(platform, scenario, tua);
        spec.wcet_mode = match self.wcet {
            WcetSpec::Auto => declared_con,
            WcetSpec::On => true,
            WcetSpec::Off => false,
        };
        spec.stop = parse_stop(&self.stop)?;
        spec.max_cycles = self.max_cycles;
        spec.record_trace = self.trace;
        spec.drive = parse_engine(&self.engine)?;
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::StopCondition;

    const MINIMAL: &str = "\
[campaign]
name = mini
runs = 2
seed = 11

[tua]
load = fixed:10:6:4
";

    #[test]
    fn minimal_file_gets_defaults() {
        let def = ScenarioDef::parse(MINIMAL).unwrap();
        assert_eq!(def.name, "mini");
        assert_eq!(def.runs, 2);
        assert_eq!(def.seed, 11);
        assert_eq!(def.threads, None);
        assert_eq!(def.template.cores, 4);
        assert_eq!(def.template.policy, "rp");
        assert_eq!(def.template.cba, "none");
        assert_eq!(def.template.contenders, ContenderSpec::MaxContention);
        assert_eq!(def.n_cells(), 1);
        let cells = def.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 11);
        assert!(cells[0].labels.is_empty());
        assert!(cells[0].spec.wcet_mode, "con defaults to WCET mode");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\n\n[campaign]\nname = c # trailing comment\nruns = 1\n\n[tua]\nload = idle # idle TuA\n[contenders]\nstop = horizon:100\n";
        let def = ScenarioDef::parse(text).unwrap();
        assert_eq!(def.name, "c");
        let cells = def.expand().unwrap();
        assert_eq!(cells[0].spec.stop, StopCondition::Horizon(100));
    }

    #[test]
    fn sweep_cross_product_order_and_seeds() {
        let text = "\
[campaign]
seed = 0
[tua]
load = fixed:10:6:4
[sweep]
setup = rp,cba,hcba
scenario = iso,con
";
        let def = ScenarioDef::parse(text).unwrap();
        let cells = def.expand().unwrap();
        assert_eq!(cells.len(), 6);
        // Last axis varies fastest.
        let labels: Vec<(String, String)> = cells
            .iter()
            .map(|c| {
                (
                    c.label("setup").unwrap().to_string(),
                    c.label("scenario").unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(labels[0], ("RP".to_string(), "ISO".to_string()));
        assert_eq!(labels[1], ("RP".to_string(), "CON".to_string()));
        assert_eq!(labels[2], ("CBA".to_string(), "ISO".to_string()));
        assert_eq!(labels[5], ("H-CBA".to_string(), "CON".to_string()));
        // Seeds pack indices into 20-bit fields, innermost low.
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[2].seed, 1 << 20);
        assert_eq!(cells[5].seed, (2 << 20) | 1);
        // The setup axis actually changes the platform.
        assert!(cells[0].spec.platform.cba.is_none());
        assert!(cells[2].spec.platform.cba.is_some());
    }

    #[test]
    fn three_axis_seed_matches_fig1_packing() {
        let def = ScenarioDef {
            seed: 2017,
            ..ScenarioDef::default()
        };
        assert_eq!(
            def.cell_seed(&[3, 2, 1]),
            2017 ^ ((3u64 << 40) | (2 << 20) | 1)
        );
    }

    #[test]
    fn deep_grids_do_not_alias_cell_seeds() {
        let def = ScenarioDef {
            seed: 0,
            ..ScenarioDef::default()
        };
        // 4 axes: the outermost would shift past 2^60 and wrap; the hash
        // path must keep all seeds distinct.
        let mut seen = std::collections::HashSet::new();
        for outer in 0..20usize {
            for inner in 0..4usize {
                assert!(
                    seen.insert(def.cell_seed(&[outer, 0, 0, inner])),
                    "seed collision at outer={outer} inner={inner}"
                );
            }
        }
        // 5 axes: two hashed fields must not cancel into a packed one.
        assert_ne!(
            def.cell_seed(&[16, 0, 0, 0, 0]),
            def.cell_seed(&[0, 0, 0, 1, 0])
        );
        // The 3-axis fast path is unchanged by the deep-grid handling.
        assert_eq!(def.cell_seed(&[1, 2, 3]), (1 << 40) | (2 << 20) | 3);
    }

    #[test]
    fn weights_cores_and_duration_axes() {
        let text = "\
[campaign]
runs = 1
[platform]
policy = rr
[tua]
load = fixed:10:5:0
[contenders]
wcet = off
[sweep]
cores = 2,4
weights = 1:1,3:1
duration = 5,56
";
        let def = ScenarioDef::parse(text).unwrap();
        // weights 1:1 / 3:1 are 2-core configs: 4-core cells must fail.
        let err = def.expand().unwrap_err();
        assert!(err.msg.contains("weights"), "{err}");
        let text2 = text.replace("cores = 2,4", "cores = 2");
        let cells = ScenarioDef::parse(&text2).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert_eq!(cell.spec.platform.n_cores, 2);
            assert!(cell.spec.platform.cba.is_some());
            assert!(!cell.spec.wcet_mode);
        }
        // The duration axis replaces MaxL contenders.
        match &cells[0].spec.loads[1] {
            CoreLoad::Saturating { duration } => assert_eq!(*duration, 5),
            other => panic!("expected saturating contender, got {other:?}"),
        }
    }

    #[test]
    fn profile_knobs_apply_in_order() {
        let text = "\
[campaign]
runs = 1
[tua]
profile = matrix
accesses = 500
burst = 2:4
[contenders]
scenario = iso
";
        let def = ScenarioDef::parse(text).unwrap();
        let cells = def.expand().unwrap();
        match &cells[0].spec.loads[0] {
            CoreLoad::Profile(p) => {
                assert_eq!(p.name, "matrix");
                assert_eq!(p.accesses, 500);
                assert_eq!(p.burst_len, (2, 4));
            }
            other => panic!("expected profile TuA, got {other:?}"),
        }
    }

    #[test]
    fn bench_axis_preserves_tua_knobs() {
        let text = "\
[campaign]
runs = 1
[tua]
profile = matrix
accesses = 300
[sweep]
bench = rspeed,tblook
";
        let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
        for (cell, name) in cells.iter().zip(["rspeed", "tblook"]) {
            match &cell.spec.loads[0] {
                CoreLoad::Profile(p) => {
                    assert_eq!(p.name, name);
                    assert_eq!(p.accesses, 300, "knob override must survive the bench axis");
                }
                other => panic!("expected profile, got {other:?}"),
            }
        }
    }

    #[test]
    fn fill_replicates_across_cores() {
        let text = "\
[campaign]
runs = 1
[tua]
load = fixed:10:5:0
[contenders]
fill = per:28:90:0
wcet = off
[sweep]
cores = 2,8
";
        let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
        assert_eq!(cells[0].spec.loads.len(), 2);
        assert_eq!(cells[1].spec.loads.len(), 8);
        assert!(matches!(
            cells[1].spec.loads[7],
            CoreLoad::Periodic { duration: 28, .. }
        ));
    }

    #[test]
    fn caps_require_a_filter_and_apply() {
        let text = "\
[campaign]
runs = 1
[platform]
cba = homog
caps = 2:1:1:1
[tua]
load = fixed:10:5:0
";
        let cells = ScenarioDef::parse(text).unwrap().expand().unwrap();
        let cba = cells[0].spec.platform.cba.as_ref().unwrap();
        assert_eq!(cba.scheme_name(), "CBA-cap");

        let text2 = text.replace("cba = homog\n", "");
        let err = ScenarioDef::parse(&text2).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("caps require a credit filter"), "{err}");
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = ScenarioDef::parse("[campaign]\nruns = many\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("bad number 'many'"), "{err}");

        let err = ScenarioDef::parse("[nope]\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.msg.contains("unknown section"), "{err}");

        let err = ScenarioDef::parse("[campaign]\nname= x\n[sweep]\nwarp = 1,2\n").unwrap_err();
        assert_eq!(err.line, Some(4));
        assert!(err.msg.contains("unknown sweep key 'warp'"), "{err}");

        let err = ScenarioDef::parse("runs = 3\n").unwrap_err();
        assert!(err.msg.contains("before any [section]"), "{err}");

        let err = ScenarioDef::parse("[sweep]\ncores = 2,4\ncores = 8\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.msg.contains("duplicate sweep axis"), "{err}");

        let err = ScenarioDef::parse("[campaign]\nname\n").unwrap_err();
        assert!(err.msg.contains("expected 'key = value'"), "{err}");

        let err = ScenarioDef::parse("[campaign]\nruns = 0\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("runs must be positive"), "{err}");

        let err = ScenarioDef::parse("[tua]\nload = warp:9\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("unknown load spec"), "{err}");
    }

    #[test]
    fn render_round_trips() {
        let text = "\
[campaign]
name = rt
runs = 7
seed = 3
threads = 2
[platform]
cores = 8
policy = rr
cba = w:1:1:1:1:1:1:1:1
[tua]
profile = matrix
accesses = 500
[contenders]
fill = sat:28
wcet = off
stop = horizon:5000
max_cycles = 100000
trace = on
[sweep]
policy = rr,lot
duration = 5,28,56
[report]
baseline = policy=rr
percentiles = 50,95,99.9
";
        let def = ScenarioDef::parse(text).unwrap();
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed, "canonical render must round-trip");
        // And a second render is a fixed point.
        assert_eq!(rendered, reparsed.render());
    }

    #[test]
    fn memory_section_round_trips_and_sweeps() {
        let text = "\
[campaign]
name = mem
runs = 2
[platform]
cores = 4
[memory]
working_set = 2048
accesses = 300
write_frac = 0.4
share_frac = 0.5
shared_lines = 32
locality = 0.7
think = 2
l1_sets = 16
l1_ways = 2
[tua]
load = agent:shared
[contenders]
fill = agent:mem
[sweep]
mem_working_set = 512,2048
share_frac = 0.1,0.9
[report]
percentiles = 50,95
";
        let def = ScenarioDef::parse(text).unwrap();
        let mem = def.template.memory.as_ref().expect("[memory] parsed");
        assert_eq!(mem.working_set, 2048);
        assert_eq!(mem.l1_sets, 16);
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed, "canonical render must round-trip");
        assert_eq!(rendered, reparsed.render());

        let cells = def.expand().unwrap();
        assert_eq!(cells.len(), 4);
        let m = |c: &super::Cell| c.spec.platform.memory.clone().unwrap();
        assert_eq!(m(&cells[0]).working_set, 512);
        assert_eq!(m(&cells[0]).share_frac, 0.1);
        assert_eq!(m(&cells[3]).working_set, 2048);
        assert_eq!(m(&cells[3]).share_frac, 0.9);
    }

    #[test]
    fn memory_axes_require_a_memory_section() {
        let text = "\
[campaign]
runs = 1
[tua]
load = fixed:10:6:4
[sweep]
share_frac = 0.1,0.5
";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("requires a [memory] section"), "{err}");
    }

    #[test]
    fn swept_memory_values_hit_domain_validation() {
        // The axis parser accepts any f64; MemoryConfig::validate catches
        // out-of-domain values at cell-build time with the cell named.
        let text = "\
[campaign]
runs = 1
[memory]
working_set = 1024
[tua]
load = agent:mem
[sweep]
share_frac = 0.5,1.5
";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("share_frac"), "{err}");
    }

    #[test]
    fn validation_failures_name_the_cell() {
        let text = "\
[campaign]
runs = 1
[tua]
load = sat:5
[sweep]
scenario = iso,con
";
        // A saturating TuA never finishes: TuaDone stop is invalid.
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("cell [scenario=ISO]"), "{err}");
        assert!(err.msg.contains("finite"), "{err}");
    }

    const FABRIC: &str = "\
[campaign]
runs = 1
[platform]
policy = rr
[topology]
clusters = 2
cores_per_cluster = 3
bridge_latency = 3
bridge_depth = 2
cluster_cba = homog
backbone_cba = w:3:1
backbone_caps = 2:2
[tua]
load = fixed:10:5:0
[contenders]
fill = sat:28
wcet = off
stop = horizon:1000
";

    #[test]
    fn topology_section_builds_a_fabric_platform() {
        let def = ScenarioDef::parse(FABRIC).unwrap();
        let cells = def.expand().unwrap();
        let spec = &cells[0].spec;
        assert_eq!(spec.platform.n_cores, 6, "derived from the topology");
        assert_eq!(spec.loads.len(), 6);
        assert!(spec.platform.cba.is_none(), "filters live per segment");
        let topo = spec.platform.topology.as_ref().expect("fabric platform");
        assert_eq!(topo.clusters, 2);
        assert_eq!(topo.cores_per_cluster, 3);
        assert_eq!(topo.bridge_latency, 3);
        assert_eq!(topo.bridge_depth, 2);
        assert_eq!(topo.cluster_policy.name(), "RR", "defaults to [platform]");
        assert_eq!(topo.backbone_policy.name(), "RR");
        let cluster = topo.cluster_cba.as_ref().expect("cluster filter");
        assert_eq!(cluster.n_cores(), 3);
        let backbone = topo.backbone_cba.as_ref().expect("backbone filter");
        assert_eq!(backbone.n_cores(), 2);
        assert_eq!(backbone.scheme_name(), "H-CBA-cap", "weights + caps");
        spec.validate().expect("fabric spec validates");
    }

    #[test]
    fn topology_render_round_trips() {
        let def = ScenarioDef::parse(FABRIC).unwrap();
        let rendered = def.render();
        let reparsed = ScenarioDef::parse(&rendered)
            .unwrap_or_else(|e| panic!("render must re-parse: {e}\n{rendered}"));
        assert_eq!(def, reparsed);
        assert_eq!(
            rendered,
            reparsed.render(),
            "second render is a fixed point"
        );
    }

    #[test]
    fn topology_axes_reshape_the_fabric() {
        // A homogeneous backbone filter stays valid as the cluster count
        // sweeps (per-cluster `w:` weights would be sized for one count).
        let base = FABRIC.replace(
            "backbone_cba = w:3:1\nbackbone_caps = 2:2\n",
            "backbone_cba = homog\n",
        );
        let text = format!("{base}[sweep]\nclusters = 2,4\nbridge_latency = 1,8\n");
        let cells = ScenarioDef::parse(&text).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 4);
        let topo = cells[0].spec.platform.topology.as_ref().unwrap();
        assert_eq!((topo.clusters, topo.bridge_latency), (2, 1));
        let topo = cells[1].spec.platform.topology.as_ref().unwrap();
        assert_eq!((topo.clusters, topo.bridge_latency), (2, 8));
        let topo = cells[2].spec.platform.topology.as_ref().unwrap();
        assert_eq!((topo.clusters, topo.bridge_latency), (4, 1));
        assert_eq!(cells[2].spec.platform.n_cores, 12, "4 clusters x 3 cores");
        assert_eq!(
            topo.backbone_cba.as_ref().unwrap().n_cores(),
            4,
            "homog filter re-derived per cluster count"
        );
    }

    #[test]
    fn topology_errors_are_specific() {
        // Axis without a [topology] section.
        let text = "[campaign]\nruns = 1\n[tua]\nload = idle\n[contenders]\nstop = horizon:10\n[sweep]\nclusters = 2,4\n";
        let err = ScenarioDef::parse(text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("requires a [topology]"), "{err}");

        // Unknown key, with the line number.
        let err = ScenarioDef::parse("[topology]\nwarp = 9\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("unknown [topology] key"), "{err}");

        // Zero bridge latency rejected at parse time.
        let err = ScenarioDef::parse("[topology]\nbridge_latency = 0\n").unwrap_err();
        assert!(err.msg.contains("at least 1"), "{err}");

        // Backbone weights sized for the wrong cluster count.
        let text = FABRIC.replace("clusters = 2", "clusters = 4");
        let err = ScenarioDef::parse(&text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("weights"), "{err}");

        // Caps without a filter on that segment.
        let text = FABRIC.replace("backbone_cba = w:3:1\n", "");
        let err = ScenarioDef::parse(&text).unwrap().expand().unwrap_err();
        assert!(err.msg.contains("require a credit filter"), "{err}");
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(parse_load_spec("sat").is_err());
        assert!(parse_load_spec("fixed:1:2").is_err());
        assert!(parse_cba_spec("w:1:2", 4, 56).is_err(), "length mismatch");
        assert!(parse_cba_spec("hcba", 8, 56).is_err(), "hcba is 4-core");
        assert!(parse_policy("best").is_err());
        assert!(parse_stop("never").is_err());
    }

    #[test]
    fn bench_loads_resolve_to_the_catalog_at_parse() {
        assert!(matches!(
            parse_load_spec("bench:streaming"),
            Ok(CoreLoad::Streaming { accesses: 20_000 })
        ));
        let def = ScenarioDef::parse("[campaign]\nname = x\n[tua]\nprofile = matrix\n").unwrap();
        let tua = def.template.tua.build().unwrap();
        let bench = parse_load_spec("bench:matrix").unwrap();
        assert_eq!(format!("{bench:?}"), format!("{tua:?}"));
        let err = parse_load_spec("bench:nope").unwrap_err();
        assert_eq!(err, "unknown benchmark 'nope' in load 'bench:nope'");
    }

    #[test]
    fn a_grid_of_more_than_u32_max_cells_fails_before_expansion() {
        // 1,700^3 cells: 4.9e9, above u32::MAX.
        let axis = vec!["2"; 1_700].join(",");
        let text = format!(
            "[campaign]\nname = x\n[sweep]\ncores = {axis}\naccesses = {axis}\nbetween = {axis}\n"
        );
        let err = ScenarioDef::parse(&text).unwrap().expand().unwrap_err();
        assert_eq!(
            err.to_string(),
            "the sweep grid has 1700 x 1700 x 1700 cells, more than 4294967295"
        );
    }

    #[test]
    fn agent_load_spec_parses_to_custom_kinds() {
        match parse_load_spec("agent:burst:3:5").unwrap() {
            CoreLoad::Custom { kind, args } => {
                assert_eq!(kind, "burst");
                assert_eq!(args, vec!["3".to_string(), "5".to_string()]);
            }
            other => panic!("expected custom load, got {other:?}"),
        }
        match parse_load_spec("agent:noop").unwrap() {
            CoreLoad::Custom { kind, args } => {
                assert_eq!(kind, "noop");
                assert!(args.is_empty());
            }
            other => panic!("expected custom load, got {other:?}"),
        }
        assert!(parse_load_spec("agent:").is_err(), "empty kind rejected");
        // Display renders back to the spec syntax.
        assert_eq!(
            parse_load_spec("agent:burst:3:5").unwrap().to_string(),
            "agent:burst:3:5"
        );
        assert_eq!(parse_load_spec("idle").unwrap().to_string(), "idle");
        assert_eq!(
            parse_load_spec("per:28:90:0").unwrap().to_string(),
            "per:28:90:0"
        );
    }

    const WINDOWED: &str = "\
[campaign]
runs = 1
[tua]
load = sat:5
[contenders]
fill = sat:28
wcet = off
stop = horizon:8000
[report]
windows = 8
";

    #[test]
    fn report_windows_key_parses_renders_and_reaches_the_spec() {
        let def = ScenarioDef::parse(WINDOWED).unwrap();
        assert_eq!(def.report.windows, Some(8));
        let cells = def.expand().unwrap();
        assert_eq!(cells[0].spec.windows, Some(8));

        let rendered = def.render();
        assert!(rendered.contains("windows = 8"), "{rendered}");
        let reparsed = ScenarioDef::parse(&rendered).unwrap();
        assert_eq!(def, reparsed, "windows key must round-trip");
    }

    #[test]
    fn report_pwcet_key_parses_validates_and_round_trips() {
        let text = "\
[campaign]
runs = 2
[tua]
load = fixed:10:5:0
[report]
pwcet = 1e-9,1e-12
";
        let def = ScenarioDef::parse(text).unwrap();
        assert_eq!(def.report.pwcet, vec![1e-9, 1e-12]);

        let rendered = def.render();
        assert!(rendered.contains("pwcet = 1e-9,1e-12"), "{rendered}");
        let reparsed = ScenarioDef::parse(&rendered).unwrap();
        assert_eq!(def, reparsed, "pwcet key must round-trip");

        // Probabilities are per-run exceedances: (0, 1) exclusive.
        for bad in ["pwcet = 0", "pwcet = 1", "pwcet = -1e-9", "pwcet = nope"] {
            let err = ScenarioDef::parse(&text.replace("pwcet = 1e-9,1e-12", bad)).unwrap_err();
            assert!(
                err.msg.contains("pwcet"),
                "'{bad}' must name the key: {err}"
            );
        }

        // A pwcet-free scenario renders without the key, so pre-pwcet
        // scenario hashes (and their journals) are untouched.
        let plain = ScenarioDef::parse("[campaign]\nruns = 2\n[tua]\nload = fixed:10:5:0\n")
            .unwrap()
            .render();
        assert!(!plain.contains("pwcet"), "{plain}");
    }

    #[test]
    fn report_windows_require_a_dividing_horizon() {
        let finite_tua = WINDOWED
            .replace("load = sat:5", "load = fixed:10:5:0")
            .replace("stop = horizon:8000\n", "");
        let err = ScenarioDef::parse(&finite_tua)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.msg.contains("require a horizon stop"), "{err}");

        let err = ScenarioDef::parse(&WINDOWED.replace("horizon:8000", "horizon:8001"))
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.msg.contains("divide the horizon"), "{err}");

        let err = ScenarioDef::parse(&WINDOWED.replace("windows = 8", "windows = 0")).unwrap_err();
        assert!(err.msg.contains("windows must be positive"), "{err}");
    }

    #[test]
    fn load_spec_fields_parse_at_their_width_and_reject_zero() {
        // DUR and GAP are u32: a wider value is an error, not a wrap.
        let err = parse_load_spec("fixed:5:4294967302:0").unwrap_err();
        assert!(err.contains("bad number '4294967302'"), "{err}");
        assert!(
            parse_load_spec("per:28:4294967302:0").is_ok(),
            "PERIOD is u64"
        );
        for (spec, field) in [
            ("fixed:0:6:4", "REQS"),
            ("fixed:5:0:4", "DUR"),
            ("sat:0", "DUR"),
            ("per:0:90:0", "DUR"),
            ("per:28:0:0", "PERIOD"),
            ("stream:0", "ACCESSES"),
        ] {
            let err = parse_load_spec(spec).unwrap_err();
            assert_eq!(err, format!("{field} must be positive in load '{spec}'"));
        }
        assert!(parse_load_spec("fixed:5:6:0").is_ok(), "GAP may be zero");
        assert!(parse_load_spec("per:28:90:0").is_ok(), "PHASE may be zero");
    }

    #[test]
    fn the_key_table_names_each_key_and_axis_once() {
        let mut seen = std::collections::HashSet::new();
        for k in KEYS {
            assert!(seen.insert((k.section, k.name)), "duplicate key {k:?}");
        }
        let axes = axes();
        let unique: std::collections::HashSet<_> = axes.iter().collect();
        assert_eq!(unique.len(), axes.len(), "duplicate axis in {axes:?}");
        // `expand` rebuilds only the template per cell: every axis must set
        // a template key.
        let template = [
            "platform",
            "topology",
            "memory",
            "tua",
            "contenders",
            "sweep",
        ];
        for k in KEYS.iter().filter(|k| k.axis.is_some()) {
            assert!(
                template.contains(&k.section),
                "axis outside the template: {k:?}"
            );
        }
        // Every entry got its own setter, not `key`'s placeholder.
        for k in KEYS {
            let mut def = ScenarioDef::parse("[topology]\n[memory]\n").unwrap();
            let err = (k.set)(&mut def, k, "").err().unwrap_or_default();
            assert!(!err.contains("has no setter"), "{k:?}");
        }
        assert_eq!(
            sections(),
            [
                "campaign",
                "platform",
                "topology",
                "memory",
                "tua",
                "contenders",
                "sweep",
                "report",
                "checkpoint"
            ]
        );
    }

    #[test]
    fn set_reaches_a_key_through_its_section_or_its_axis() {
        let mut def = ScenarioDef::default();
        assert_eq!(def.set("platform", "policy", "rr"), Ok("RR".into()));
        assert_eq!(def.set("sweep", "setup", "hcba"), Ok("H-CBA".into()));
        assert_eq!(
            (def.template.policy.as_str(), def.template.cba.as_str()),
            ("rp", "hcba")
        );
        // Setting a [topology] key opens the section, as its header would.
        def.set("topology", "clusters", "4").unwrap();
        assert_eq!(def.template.topology.as_ref().map(|t| t.clusters), Some(4));
        // A sweep axis does not: the axis needs the section declared.
        let err = ScenarioDef::default().set("sweep", "mem_working_set", "512");
        assert!(err.unwrap_err().contains("requires a [memory] section"));
        // One setter: the same bad value fails alike either way.
        let mut def = ScenarioDef::parse("[topology]\n").unwrap();
        let by_key = def.set("topology", "bridge_depth", "0").unwrap_err();
        assert_eq!(def.set("sweep", "bridge_depth", "0").unwrap_err(), by_key);
        let err = def.set("platform", "speed", "9").unwrap_err();
        assert!(
            err.contains("(expected cores, policy, cba, caps, engine)"),
            "{err}"
        );
    }

    #[test]
    fn profile_knobs_keep_one_override_each_in_table_order() {
        let text = "[tua]\nprofile = matrix\nburst = 2:4\naccesses = 5\naccesses = 7\n";
        let def = ScenarioDef::parse(text).unwrap();
        let expected = vec![
            ("accesses".to_string(), "7".to_string()),
            ("burst".to_string(), "2:4".to_string()),
        ];
        match &def.template.tua {
            TuaSpec::Profile { overrides, .. } => assert_eq!(overrides, &expected),
            other => panic!("expected a profile TuA, got {other:?}"),
        }
        assert_eq!(ScenarioDef::parse(&def.render()).unwrap(), def);
        // A bad knob value fails at its line, not when the cell is built.
        let err = ScenarioDef::parse("[tua]\nprofile = matrix\ngap = 4\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert!(err.msg.contains("expects 'LO:HI'"), "{err}");
    }
}
