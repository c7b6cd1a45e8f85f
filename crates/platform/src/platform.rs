//! One deterministic platform run: assembly, cycle loop, result
//! extraction.

use crate::agents::{default_registry, AgentRegistry, PortAgent};
use crate::config::{FabricTopology, PlatformConfig};
use crate::probes::{WindowedFairness, WindowedFairnessProbe};
use cba::{CreditFilter, Mode};
use cba_bus::fabric::{Fabric, FabricConfig};
use cba_bus::{Bus, BusConfig, CompletedTransaction, RequestPort};
use cba_mem::shared_hub;
use cba_workloads::EembcProfile;
use sim_core::agent::MemStats;
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{BusModel, CoreId, Cycle, Engine, Probe, Simulation, StopWhen};
use std::fmt;

/// What one core runs during a run.
///
/// Each variant corresponds to an agent **kind** in the
/// [`AgentRegistry`]; [`CoreLoad::Custom`]
/// names a user-registered kind, so downstream crates can add workload
/// shapes without touching this enum (which is why it is
/// `#[non_exhaustive]`).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CoreLoad {
    /// A synthetic benchmark profile through the full core + cache model
    /// (scenario syntax `bench:NAME` for a catalog profile).
    Profile(EembcProfile),
    /// The streaming workload (sequential always-missing loads).
    Streaming {
        /// Number of loads.
        accesses: u64,
    },
    /// A saturating contender: always one `duration`-cycle request posted
    /// (the WCET-mode contention generator; [`RunSpec::validate`] rejects
    /// a duration above the platform MaxL).
    Saturating {
        /// Bus hold time per request.
        duration: u32,
    },
    /// A periodic co-runner.
    Periodic {
        /// Bus hold time per request.
        duration: u32,
        /// Issue period in cycles.
        period: Cycle,
        /// First issue cycle.
        phase: Cycle,
    },
    /// A fixed-request task (exact request stream, no cache model).
    FixedTask {
        /// Number of requests.
        n_requests: u64,
        /// Bus hold time per request.
        duration: u32,
        /// Compute cycles before each request.
        gap: u32,
    },
    /// Nothing runs on this core.
    Idle,
    /// A user-registered agent kind (scenario syntax
    /// `agent:KIND:ARGS...`): resolved against the
    /// [`AgentRegistry`] at build time, so
    /// new workload shapes need no edit to this crate.
    Custom {
        /// Registered kind name.
        kind: String,
        /// Raw `:`-separated arguments, interpreted by the kind's
        /// builder.
        args: Vec<String>,
    },
}

impl CoreLoad {
    /// Whether this load finishes on its own. [`CoreLoad::Custom`] kinds
    /// are assumed finite (an infinite custom agent under a `TuaDone` /
    /// `AllDone` stop runs into the `max_cycles` safety limit).
    pub(crate) fn is_finite(&self) -> bool {
        !matches!(
            self,
            CoreLoad::Saturating { .. } | CoreLoad::Periodic { .. }
        )
    }

    /// The agent-registry kind name this load resolves through.
    pub(crate) fn kind(&self) -> &str {
        match self {
            CoreLoad::Profile(_) => "profile",
            CoreLoad::Streaming { .. } => "stream",
            CoreLoad::Saturating { .. } => "sat",
            CoreLoad::Periodic { .. } => "per",
            CoreLoad::FixedTask { .. } => "fixed",
            CoreLoad::Idle => "idle",
            CoreLoad::Custom { kind, .. } => kind,
        }
    }
}

/// Renders in the scenario load-spec mini-language (`bench:NAME`,
/// `fixed:R:D:G`, `sat:D`, `per:D:P:PH`, `stream:A`, `idle`,
/// `agent:KIND:ARGS...`), so error messages read like scenario files.
impl fmt::Display for CoreLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreLoad::Profile(p) => write!(f, "bench:{}", p.name),
            CoreLoad::Streaming { accesses } => write!(f, "stream:{accesses}"),
            CoreLoad::Saturating { duration } => write!(f, "sat:{duration}"),
            CoreLoad::Periodic {
                duration,
                period,
                phase,
            } => write!(f, "per:{duration}:{period}:{phase}"),
            CoreLoad::FixedTask {
                n_requests,
                duration,
                gap,
            } => write!(f, "fixed:{n_requests}:{duration}:{gap}"),
            CoreLoad::Idle => f.write_str("idle"),
            CoreLoad::Custom { kind, args } => {
                write!(f, "agent:{kind}")?;
                for a in args {
                    write!(f, ":{a}")?;
                }
                Ok(())
            }
        }
    }
}

/// Workload placement patterns for the paper's experiments.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Scenario {
    /// The task under analysis runs alone.
    Isolation,
    /// WCET-estimation maximum contention: every other core is a
    /// saturating MaxL contender (gated by `COMP` when a CBA filter is
    /// present and the spec enables WCET mode).
    MaxContention,
    /// Explicit loads for cores `1..n`.
    Custom(Vec<CoreLoad>),
}

/// Renders with the scenario-file vocabulary (`iso`, `con`, or the
/// custom load list).
impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Isolation => f.write_str("iso"),
            Scenario::MaxContention => f.write_str("con"),
            Scenario::Custom(loads) => {
                f.write_str("custom[")?;
                for (i, load) in loads.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{load}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// When the run loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopCondition {
    /// Stop when core 0 (the TuA) finishes.
    TuaDone,
    /// Stop when every finite load finishes.
    AllDone,
    /// Run exactly this many cycles (for share/fairness measurements).
    Horizon(Cycle),
}

/// Renders as the scenario `stop` key's vocabulary (`tua`, `all`,
/// `horizon:N`).
impl fmt::Display for StopCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCondition::TuaDone => f.write_str("tua"),
            StopCondition::AllDone => f.write_str("all"),
            StopCondition::Horizon(h) => write!(f, "horizon:{h}"),
        }
    }
}

/// Full specification of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Platform assembly.
    pub platform: PlatformConfig,
    /// Per-core loads (`loads[0]` is the TuA).
    pub loads: Vec<CoreLoad>,
    /// Put the credit filter in WCET-estimation mode (TuA budget starts at
    /// zero; contenders gated by the latched `COMP` bits). Ignored when the
    /// platform has no CBA filter.
    pub wcet_mode: bool,
    /// Stop condition.
    pub stop: StopCondition,
    /// Hard safety limit on simulated cycles.
    pub max_cycles: Cycle,
    /// Record the full grant trace (burst/starvation metrics).
    pub record_trace: bool,
    /// Which cycle loop executes the run: the events engine of
    /// [`SimulationBuilder::run`](sim_core::SimulationBuilder::run) (the
    /// default; the scenario key accepts `fast` and `fluid` as aliases) or
    /// the naive per-cycle reference loop, selectable per scenario
    /// (`engine = naive`) or via `cba_sim --engine naive`. Both produce
    /// **bit-identical** results.
    pub drive: Engine,
    /// Attach a [`WindowedFairnessProbe`] splitting the run into this
    /// many equal windows (scenario key `[report] windows = N`).
    /// Requires a [`StopCondition::Horizon`] stop whose horizon the
    /// window count divides evenly; `None` = no windowed measurement.
    /// Attribution is completion-based — on a fabric it lags wire-level
    /// service by up to two bridge crossings, so keep windows much
    /// longer than the bridge latency (see [`crate::probes`]).
    pub windows: Option<u32>,
}

impl RunSpec {
    /// The paper's canonical specs: `tua` on core 0 of the 4-core paper
    /// platform under `setup`, with the scenario's co-runners.
    pub fn paper(setup: crate::BusSetup, scenario: Scenario, tua: CoreLoad) -> Self {
        let platform = PlatformConfig::paper(&setup);
        Self::with_platform(platform, scenario, tua)
    }

    /// Like [`RunSpec::paper`] with an explicit platform configuration.
    pub fn with_platform(platform: PlatformConfig, scenario: Scenario, tua: CoreLoad) -> Self {
        let n = platform.n_cores;
        let maxl = platform.latency.max_latency();
        let mut loads = Vec::with_capacity(n);
        loads.push(tua);
        match &scenario {
            Scenario::Isolation => loads.extend((1..n).map(|_| CoreLoad::Idle)),
            Scenario::MaxContention => {
                loads.extend((1..n).map(|_| CoreLoad::Saturating { duration: maxl }))
            }
            Scenario::Custom(rest) => loads.extend(rest.iter().cloned()),
        }
        RunSpec {
            platform,
            loads,
            wcet_mode: matches!(scenario, Scenario::MaxContention),
            stop: StopCondition::TuaDone,
            max_cycles: 50_000_000,
            record_trace: false,
            drive: Engine::default(),
            windows: None,
        }
    }

    /// Validates the spec (load count, stop-condition finiteness).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.loads.len() != self.platform.n_cores {
            return Err(format!(
                "expected {} loads, got {}",
                self.platform.n_cores,
                self.loads.len()
            ));
        }
        let maxl = self.platform.latency.max_latency();
        for (core, load) in self.loads.iter().enumerate() {
            // The agent constructors assert these; a hand-built spec
            // fails here instead.
            let zero = match *load {
                CoreLoad::Saturating { duration: 0 }
                | CoreLoad::Periodic { duration: 0, .. }
                | CoreLoad::FixedTask { duration: 0, .. } => Some("duration"),
                CoreLoad::Periodic { period: 0, .. } => Some("period"),
                CoreLoad::FixedTask { n_requests: 0, .. } => Some("request count"),
                _ => None,
            };
            if let Some(field) = zero {
                return Err(format!(
                    "core {core} load '{load}': {field} must be positive"
                ));
            }
            if let CoreLoad::Saturating { duration }
            | CoreLoad::Periodic { duration, .. }
            | CoreLoad::FixedTask { duration, .. } = load
            {
                if *duration > maxl {
                    return Err(format!(
                        "core {core} load '{load}': duration {duration} exceeds MaxL {maxl}"
                    ));
                }
            }
        }
        match self.stop {
            StopCondition::TuaDone => {
                if !self.loads[0].is_finite() {
                    return Err(format!(
                        "stop condition '{}' requires a finite load on core 0, got '{}'",
                        self.stop, self.loads[0]
                    ));
                }
            }
            StopCondition::AllDone => {
                if let Some(infinite) = self.loads.iter().find(|l| !l.is_finite()) {
                    return Err(format!(
                        "stop condition '{}' requires every load to be finite, got '{infinite}'",
                        self.stop
                    ));
                }
            }
            StopCondition::Horizon(h) => {
                if h == 0 {
                    return Err("horizon must be positive".into());
                }
            }
        }
        if let Some(w) = self.windows {
            if w == 0 {
                return Err("windows must be positive".into());
            }
            match self.stop {
                StopCondition::Horizon(h) => {
                    if h % w as u64 != 0 {
                        return Err(format!("windows = {w} must divide the horizon {h} evenly"));
                    }
                    if self.max_cycles < h {
                        // A truncated run would report its never-reached
                        // windows as perfectly fair.
                        return Err(format!(
                            "windows require max_cycles >= the horizon ({} < {h})",
                            self.max_cycles
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "windows require a horizon stop (run length must be known \
                         up front), got stop condition '{}'",
                        self.stop
                    ))
                }
            }
        }
        if let Some(cba) = &self.platform.cba {
            if cba.n_cores() != self.platform.n_cores {
                return Err(format!(
                    "credit config sized for {} cores on a {}-core platform",
                    cba.n_cores(),
                    self.platform.n_cores
                ));
            }
            if cba.max_latency() != self.platform.latency.max_latency() {
                return Err("credit MaxL differs from the latency model's MaxL".into());
            }
        }
        if let Some(mem) = &self.platform.memory {
            mem.validate().map_err(|e| e.to_string())?;
        }
        for load in &self.loads {
            let kind = load.kind();
            if kind != "mem" && kind != "shared" {
                continue;
            }
            if self.platform.memory.is_none() {
                return Err(format!(
                    "load 'agent:{kind}' requires a [memory] section on the platform"
                ));
            }
            if kind == "shared" && self.platform.topology.is_some() {
                return Err(
                    "load 'agent:shared' requires the flat snooped bus; a fabric topology \
                     has no shared coherent segment"
                        .into(),
                );
            }
        }
        if let Some(topo) = &self.platform.topology {
            // Rejects what `build_fabric`'s `FabricConfig::new` would; this
            // also bounds the core count, so `n_cores` below cannot overflow.
            FabricConfig::new(
                topo.clusters,
                topo.cores_per_cluster,
                maxl,
                topo.bridge_latency,
                topo.bridge_depth,
            )
            .map_err(|e| e.to_string())?;
            if topo.n_cores() != self.platform.n_cores {
                return Err(format!(
                    "topology has {} x {} cores but the platform declares {}",
                    topo.clusters, topo.cores_per_cluster, self.platform.n_cores
                ));
            }
            if self.platform.cba.is_some() {
                return Err(
                    "a fabric platform configures filters per segment (cluster_cba / \
                     backbone_cba), not via the flat cba field"
                        .into(),
                );
            }
            if let Some(c) = &topo.cluster_cba {
                if c.n_cores() != topo.cores_per_cluster {
                    return Err(format!(
                        "cluster credit config sized for {} cores, clusters have {}",
                        c.n_cores(),
                        topo.cores_per_cluster
                    ));
                }
                if c.max_latency() != maxl {
                    return Err("cluster credit MaxL differs from the platform MaxL".into());
                }
            }
            if let Some(c) = &topo.backbone_cba {
                if c.n_cores() != topo.clusters {
                    return Err(format!(
                        "backbone credit config sized for {} bridges, fabric has {}",
                        c.n_cores(),
                        topo.clusters
                    ));
                }
                if c.max_latency() != maxl {
                    return Err("backbone credit MaxL differs from the platform MaxL".into());
                }
            }
        }
        Ok(())
    }
}

/// Result of one run.
///
/// `PartialEq` is exact (no float tolerance): the naive and event-driven
/// cycle loops are required to agree **bit for bit**, and the property
/// tests compare whole results with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Core 0's completion cycle (None if it did not finish).
    pub tua_cycles: Option<Cycle>,
    /// Whether the stop condition was met within `max_cycles`.
    pub finished: bool,
    /// Cycles simulated.
    pub total_cycles: Cycle,
    /// Grants per core.
    pub bus_slots: Vec<u64>,
    /// Bus-busy cycles per core.
    pub bus_busy: Vec<u64>,
    /// Per-core longest start-to-start grant gap (recording runs only).
    pub max_grant_gap: Vec<Option<Cycle>>,
    /// Per-core longest back-to-back grant burst (recording runs only).
    pub max_burst: Vec<Option<u64>>,
    /// Windowed fairness measurement (runs with [`RunSpec::windows`]
    /// only): per-window core shares and Jain indices, streamed by the
    /// [`WindowedFairnessProbe`]. Completion-attributed, so bit-identical
    /// between the naive and events engines.
    pub windows: Option<WindowedFairness>,
    /// Memory-side counters summed over every memory agent in the run
    /// (`None` when no load placed one, so baseline reports keep their
    /// exact column set). Exact integer sums, so thread-count-independent.
    pub mem: Option<MemStats>,
    /// Random draws the run made, its build included (see
    /// [`sim_core::rng::draws`]). The seed reaches a run only through its
    /// draws, so a run with none gives the same result under every seed.
    /// Equal under both engines: a skipped cycle range makes no draw.
    pub draws: u64,
}

impl RunResult {
    /// Cycle share of `core` relative to the whole run (busy / total).
    pub fn absolute_cycle_share(&self, core: usize) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy[core] as f64 / self.total_cycles as f64
        }
    }

    /// Bus utilization (busy cycles / total).
    pub(crate) fn utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy.iter().sum::<u64>() as f64 / self.total_cycles as f64
        }
    }
}

/// Executes one run of `spec` under `seed`, fully deterministically,
/// building agents through the shared
/// [`default_registry`]. [`RunResult::draws`] counts the random draws of
/// the build and the run.
///
/// # Panics
///
/// Panics if the spec fails [`RunSpec::validate`] (specs are constructed
/// programmatically; an invalid one is a harness bug, not an input error).
pub fn run_once(spec: &RunSpec, seed: u64) -> RunResult {
    run_once_with(spec, seed, default_registry())
}

/// [`run_once`] with an explicit [`AgentRegistry`], for callers that
/// register custom agent kinds ([`CoreLoad::Custom`]).
///
/// # Panics
///
/// Panics if the spec fails [`RunSpec::validate`] or names an agent kind
/// the registry cannot build.
pub fn run_once_with(spec: &RunSpec, seed: u64, registry: &AgentRegistry) -> RunResult {
    if let Err(why) = spec.validate() {
        panic!("invalid run spec: {why}");
    }
    let start = sim_core::rng::draws();
    let rng = SimRng::seed_from(seed);
    let result = match &spec.platform.topology {
        None => execute(build_bus(spec, &rng), spec, &rng, registry),
        Some(topo) => execute(build_fabric(spec, topo, &rng), spec, &rng, registry),
    };
    RunResult {
        draws: sim_core::rng::draws() - start,
        ..result
    }
}

/// Assembles the flat shared bus: policy, filter, random-bit bank, trace.
fn build_bus(spec: &RunSpec, rng: &SimRng) -> Bus {
    let platform = &spec.platform;
    let n = platform.n_cores;
    let maxl = platform.latency.max_latency();
    let mut bus = Bus::new(
        BusConfig::new(n, maxl).expect("validated platform"),
        platform.policy.build(n, maxl),
    );
    if let Some(credit) = &platform.cba {
        let mode = if spec.wcet_mode {
            Mode::WcetEstimation {
                tua: CoreId::from_index(0),
            }
        } else {
            Mode::Operation
        };
        bus.set_filter(Box::new(CreditFilter::with_mode(credit.clone(), mode)));
    }
    bus.set_random_source(LfsrBank::from_rng(16, rng.fork(0xA9)).expect("valid width"));
    if spec.record_trace {
        bus.enable_recording_trace();
    }
    bus
}

/// Assembles the hierarchical fabric: per-cluster policies and filters,
/// the backbone's, and one random-bit bank per segment. In WCET-estimation
/// mode the TuA's cluster (cluster 0, local core 0) runs its filter in
/// `WcetEstimation` mode; every other segment arbitrates in operation
/// mode — contenders on remote clusters never share the TuA's segment, so
/// the COMP gating applies exactly where the TuA competes.
fn build_fabric(spec: &RunSpec, topo: &FabricTopology, rng: &SimRng) -> Fabric {
    let maxl = spec.platform.latency.max_latency();
    let config = FabricConfig::new(
        topo.clusters,
        topo.cores_per_cluster,
        maxl,
        topo.bridge_latency,
        topo.bridge_depth,
    )
    .expect("validated topology");
    let cluster_policies = (0..topo.clusters)
        .map(|_| topo.cluster_policy.build(topo.cores_per_cluster, maxl))
        .collect();
    let mut fabric = Fabric::new(
        config,
        cluster_policies,
        topo.backbone_policy.build(topo.clusters, maxl),
    )
    .expect("validated topology");
    if let Some(credit) = &topo.cluster_cba {
        for k in 0..topo.clusters {
            let mode = if spec.wcet_mode && k == 0 {
                Mode::WcetEstimation {
                    tua: CoreId::from_index(0),
                }
            } else {
                Mode::Operation
            };
            fabric.set_cluster_filter(k, Box::new(CreditFilter::with_mode(credit.clone(), mode)));
        }
    }
    if let Some(credit) = &topo.backbone_cba {
        fabric.set_backbone_filter(Box::new(CreditFilter::new(credit.clone())));
    }
    // One independent LFSR bank per arbitration point, each on its own
    // stream forked off the run seed (segment 0 = backbone, 1.. =
    // clusters). A bank draws its segment's seed at its first step, so a
    // fabric whose policies never draw makes no draw.
    let arb = rng.fork(0xA9);
    let source = |i: u64| LfsrBank::from_rng(16, arb.fork(i)).expect("valid width");
    fabric.set_backbone_random_source(source(0));
    for k in 0..topo.clusters {
        fabric.set_cluster_random_source(k, source(1 + k as u64));
    }
    if spec.record_trace {
        fabric.enable_recording_trace();
    }
    fabric
}

/// Builds the agents through the registry, assembles a
/// [`Simulation`] over `bus` and extracts the [`RunResult`] — shared
/// verbatim by the flat-bus and fabric paths, so both run the exact same
/// engine and accounting.
fn execute<M: BusModel<Completion = CompletedTransaction> + RequestPort + 'static>(
    bus: M,
    spec: &RunSpec,
    rng: &SimRng,
    registry: &AgentRegistry,
) -> RunResult {
    let platform = &spec.platform;
    // One coherence hub per run, shared by every `shared` agent so their
    // snoops see each other (validated: such loads imply `memory`).
    let hub = spec.loads.iter().any(|l| l.kind() == "shared").then(|| {
        let mem = platform
            .memory
            .as_ref()
            .expect("validated: shared loads require a memory configuration");
        shared_hub(platform.n_cores, mem.shared_lines)
    });
    let agents: Vec<sim_core::BoxedAgent<M>> = spec
        .loads
        .iter()
        .enumerate()
        .map(|(i, load)| {
            let mut agent_rng = rng.fork(0xC0 + i as u64);
            let agent = registry
                .build(
                    load,
                    CoreId::from_index(i),
                    platform,
                    hub.clone(),
                    &mut agent_rng,
                )
                .unwrap_or_else(|why| panic!("cannot build agent '{load}' for core {i}: {why}"));
            Box::new(PortAgent::new(agent)) as sim_core::BoxedAgent<M>
        })
        .collect();
    let builder = Simulation::builder()
        .model(bus)
        .agents(agents)
        .stop(match spec.stop {
            StopCondition::TuaDone => StopWhen::AgentDone(0),
            StopCondition::AllDone => StopWhen::AllAgentsDone,
            StopCondition::Horizon(h) => StopWhen::Horizon(h),
        })
        .engine(spec.drive)
        .max_cycles(spec.max_cycles);
    match spec.windows {
        None => {
            let sim = builder.run();
            extract(&sim, spec, None)
        }
        Some(w) => {
            let StopCondition::Horizon(h) = spec.stop else {
                unreachable!("validated: windows require a horizon stop");
            };
            let window_len = h / w as Cycle;
            let probe = WindowedFairnessProbe::new(platform.n_cores, window_len, w as usize);
            let sim = builder.observe(probe).run();
            let windows = sim.probe().snapshot();
            extract(&sim, spec, Some(windows))
        }
    }
}

/// Pulls the [`RunResult`] out of a finished [`Simulation`].
fn extract<M: BusModel, P: Probe<M::Completion>>(
    sim: &Simulation<M, P>,
    spec: &RunSpec,
    windows: Option<WindowedFairness>,
) -> RunResult {
    let outcome = sim.outcome();
    let bus = sim.model();
    let trace = bus.trace();
    let ids: Vec<CoreId> = (0..spec.platform.n_cores).map(CoreId::from_index).collect();
    let mut mem: Option<MemStats> = None;
    for i in 0..spec.platform.n_cores {
        if let Some(m) = sim.agent(i).stats().mem {
            mem.get_or_insert_with(MemStats::default).accumulate(m);
        }
    }
    RunResult {
        tua_cycles: sim.agent(0).stats().done_at,
        finished: outcome.stopped,
        total_cycles: outcome.cycles,
        bus_slots: ids.iter().map(|&c| trace.slots(c)).collect(),
        bus_busy: ids.iter().map(|&c| trace.busy_cycles(c)).collect(),
        max_grant_gap: ids.iter().map(|&c| trace.max_grant_gap(c)).collect(),
        max_burst: ids.iter().map(|&c| trace.max_burst_len(c)).collect(),
        windows,
        mem,
        // The draws bracket the build too: `run_once_with` counts them.
        draws: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusSetup;

    #[test]
    fn isolation_run_finishes_deterministically() {
        let spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Profile(cba_workloads::suite::rspeed()),
        );
        let a = run_once(&spec, 7);
        let b = run_once(&spec, 7);
        assert!(a.finished);
        assert_eq!(a.tua_cycles, b.tua_cycles, "same seed, same cycles");
        assert_eq!(a.bus_slots, b.bus_slots);
        let c = run_once(&spec, 8);
        assert_ne!(
            a.tua_cycles, c.tua_cycles,
            "different seeds should perturb the run (randomized caches)"
        );
    }

    #[test]
    fn contention_slows_the_tua_down() {
        let iso = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Profile(cba_workloads::suite::matrix()),
        );
        let con = RunSpec::paper(
            BusSetup::Rp,
            Scenario::MaxContention,
            CoreLoad::Profile(cba_workloads::suite::matrix()),
        );
        let iso_t = run_once(&iso, 1).tua_cycles.unwrap();
        let con_t = run_once(&con, 1).tua_cycles.unwrap();
        assert!(
            con_t > iso_t + iso_t / 2,
            "contention must hurt: iso {iso_t}, con {con_t}"
        );
    }

    #[test]
    fn fixed_task_isolation_matches_analytic_time() {
        let spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::FixedTask {
                n_requests: 100,
                duration: 6,
                gap: 4,
            },
        );
        let r = run_once(&spec, 3);
        assert_eq!(r.tua_cycles, Some(1_000));
    }

    #[test]
    fn horizon_runs_exactly_that_long() {
        let mut spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::MaxContention,
            CoreLoad::FixedTask {
                n_requests: 1,
                duration: 5,
                gap: 0,
            },
        );
        spec.loads[0] = CoreLoad::Saturating { duration: 5 };
        spec.stop = StopCondition::Horizon(10_000);
        let r = run_once(&spec, 1);
        assert!(r.finished);
        assert_eq!(r.total_cycles, 10_000);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Profile(cba_workloads::suite::rspeed()),
        );
        spec.loads.pop();
        assert!(spec.validate().is_err());

        let mut spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Saturating { duration: 5 },
        );
        assert!(spec.validate().is_err(), "TuaDone with infinite TuA");
        spec.stop = StopCondition::Horizon(100);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn zero_durations_periods_and_request_counts_are_rejected() {
        let per = |duration, period| CoreLoad::Periodic {
            duration,
            period,
            phase: 0,
        };
        let fixed = |n_requests, duration| CoreLoad::FixedTask {
            n_requests,
            duration,
            gap: 0,
        };
        let spec = |load: &CoreLoad| {
            RunSpec::paper(
                BusSetup::Rp,
                Scenario::Custom(vec![load.clone(); 3]),
                fixed(10, 5),
            )
        };
        for (load, field) in [
            (CoreLoad::Saturating { duration: 0 }, "duration"),
            (per(0, 90), "duration"),
            (per(28, 0), "period"),
            (fixed(5, 0), "duration"),
            (fixed(0, 6), "request count"),
        ] {
            let expected = format!("core 1 load '{load}': {field} must be positive");
            assert_eq!(spec(&load).validate(), Err(expected));
        }
        // Zero phases and gaps are fine.
        assert_eq!(spec(&per(28, 90)).validate(), Ok(()));
    }

    /// `validate` rejects every topology `build_fabric` cannot build. The
    /// first one's `clusters * cores_per_cluster` wraps to the platform's
    /// 4 cores in unchecked arithmetic.
    #[test]
    fn topologies_the_fabric_cannot_build_are_rejected() {
        let topology = |clusters, bridge_depth| FabricTopology {
            clusters,
            cores_per_cluster: 4,
            bridge_latency: 2,
            bridge_depth,
            cluster_policy: cba_bus::PolicyKind::RoundRobin,
            cluster_cba: None,
            backbone_policy: cba_bus::PolicyKind::RoundRobin,
            backbone_cba: None,
        };
        for (topo, why) in [
            (topology(usize::MAX / 4 + 2, 2), "exceed the 64-core limit"),
            (topology(0, 2), "must be positive"),
            (topology(1, 0), "bridge_depth must be at least 1"),
        ] {
            let mut spec = RunSpec::paper(
                BusSetup::Rp,
                Scenario::Isolation,
                CoreLoad::Saturating { duration: 5 },
            );
            spec.stop = StopCondition::Horizon(100);
            spec.platform.topology = Some(topo);
            let err = spec.validate().unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn unknown_benchmark_panics_with_context() {
        let spec = RunSpec::paper(
            BusSetup::Rp,
            Scenario::Isolation,
            CoreLoad::Custom {
                kind: "not-a-benchmark".into(),
                args: Vec::new(),
            },
        );
        let panic = std::panic::catch_unwind(|| run_once(&spec, 0)).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("cannot build agent"), "{message}");
    }

    #[test]
    fn shares_accounting_consistent() {
        let mut spec = RunSpec::paper(
            BusSetup::Cba,
            Scenario::MaxContention,
            CoreLoad::Profile(cba_workloads::suite::matrix()),
        );
        spec.record_trace = true;
        let r = run_once(&spec, 5);
        assert!(r.finished);
        let busy: u64 = r.bus_busy.iter().sum();
        // Busy cycles are recorded at grant time for the full transaction,
        // so a transaction in flight when the TuA finishes can overhang the
        // simulated horizon by up to MaxL cycles.
        assert!(busy <= r.total_cycles + 56);
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
        // Recording traces expose burst metrics.
        assert!(r.max_burst.iter().any(|b| b.is_some()));
    }

    /// The two cycle loops must agree exactly — whole `RunResult`s,
    /// including traces and cycle counters.
    #[test]
    fn naive_and_event_loops_are_bit_identical() {
        let specs = [
            RunSpec::paper(
                BusSetup::Rp,
                Scenario::Isolation,
                CoreLoad::Profile(cba_workloads::suite::rspeed()),
            ),
            RunSpec::paper(
                BusSetup::Cba,
                Scenario::MaxContention,
                CoreLoad::Profile(cba_workloads::suite::matrix()),
            ),
            RunSpec::paper(
                BusSetup::HCba,
                Scenario::MaxContention,
                CoreLoad::FixedTask {
                    n_requests: 200,
                    duration: 6,
                    gap: 4,
                },
            ),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            for seed in [1, 7] {
                let mut naive = spec.clone();
                naive.drive = Engine::Naive;
                let mut events = spec.clone();
                events.drive = Engine::Events;
                assert_eq!(
                    run_once(&naive, seed),
                    run_once(&events, seed),
                    "spec {i} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn event_loop_handles_horizon_and_trace_runs() {
        let mut spec = RunSpec::paper(
            BusSetup::Cba,
            Scenario::MaxContention,
            CoreLoad::Saturating { duration: 56 },
        );
        spec.loads[0] = CoreLoad::Saturating { duration: 5 };
        spec.stop = StopCondition::Horizon(20_000);
        spec.wcet_mode = false;
        spec.record_trace = true;
        let mut naive = spec.clone();
        naive.drive = Engine::Naive;
        let a = run_once(&naive, 3);
        let b = run_once(&spec, 3);
        assert_eq!(a, b);
        assert!(a.finished);
        assert_eq!(a.total_cycles, 20_000, "horizon must not be overshot");
    }
}
