//! Randomized differential testing — a seeded scenario generator drives
//! hundreds of platform/load/policy combinations through both cycle
//! engines and cross-checks that `naive` ≡ `events`, bit-for-bit (the
//! engines implement the same discrete protocol; any divergence is a bug,
//! not an approximation).
//!
//! Every failure message leads with the master seed and the cell index,
//! so `CBA_DIFF_SEED=<seed> cargo test -q random_differential` reproduces
//! a red cell exactly.
//!
//! The generator covers the axes the shipped scenarios sweep by hand:
//! core counts, all six arbitration policies × {no filter, CBA, H-CBA},
//! budget-cap multipliers, burst/periodic/saturating load profiles,
//! horizon and TuA stop conditions, LFSR vs software randomness, and an
//! optional two-level fabric topology. Its core-model batch also compares
//! every agent's `AgentStats`, which `RunResult` does not carry.

use std::sync::{Arc, Mutex};

use cba::CreditConfig;
use cba_bus::{CompletedTransaction, PolicyKind, RequestPort};
use cba_platform::campaign::run_seed;
use cba_platform::{
    run_once, run_once_with, AgentRegistry, BoxedPortAgent, BusSetup, CoreLoad, FabricTopology,
    PlatformConfig, RunResult, RunSpec, Scenario, StopCondition,
};
use cba_workloads::{suite, EembcProfile};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, Cycle, Engine};

/// Cells per harness run (the issue's floor is 200; the two tests below
/// split them between flat and fabric platforms).
const FLAT_CELLS: usize = 160;
const FABRIC_CELLS: usize = 48;
const MEM_CELLS: usize = 48;
const CORE_CELLS: usize = 48;

fn master_seed() -> u64 {
    match std::env::var("CBA_DIFF_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("CBA_DIFF_SEED must be a u64, got '{s}'")),
        Err(_) => 0x5EED_2017_D1FF,
    }
}

/// A random credit filter: none, homogeneous CBA, or weighted H-CBA with
/// optional per-core budget caps.
fn gen_cba(rng: &mut SimRng, n: usize, maxl: u32) -> Option<CreditConfig> {
    let cfg = match rng.gen_range_usize(0..3) {
        0 => return None,
        1 => CreditConfig::homogeneous(n, maxl).expect("valid homogeneous config"),
        _ => {
            // Weighted: favor core 0 with weight in 2..=4, others 1.
            let favored = rng.gen_range_u64(2..5) as u32;
            let numerators: Vec<u32> = std::iter::once(favored).chain(vec![1; n - 1]).collect();
            let denominator = favored + (n as u32 - 1);
            CreditConfig::weighted(maxl, numerators, denominator).expect("valid weighted config")
        }
    };
    let cfg = if rng.gen_bool(0.3) {
        let caps: Vec<u32> = (0..n).map(|_| rng.gen_range_u64(1..4) as u32).collect();
        cfg.with_cap_multipliers(caps).expect("caps in range")
    } else {
        cfg
    };
    Some(cfg)
}

/// A random co-runner load (never on core 0).
fn gen_corunner(rng: &mut SimRng, maxl: u32) -> CoreLoad {
    match rng.gen_range_usize(0..4) {
        0 => CoreLoad::Saturating {
            duration: rng.gen_range_u64(1..(maxl as u64 + 1)) as u32,
        },
        1 => CoreLoad::Periodic {
            duration: rng.gen_range_u64(1..(maxl as u64 + 1)) as u32,
            period: rng.gen_range_u64(20..400),
            phase: rng.gen_range_u64(0..50),
        },
        2 => CoreLoad::FixedTask {
            n_requests: rng.gen_range_u64(5..60),
            duration: rng.gen_range_u64(1..(maxl as u64 + 1)) as u32,
            gap: rng.gen_range_u64(0..30) as u32,
        },
        _ => CoreLoad::Idle,
    }
}

/// A random TuA: always finite so `stop = tua` is expressible.
fn gen_tua(rng: &mut SimRng, maxl: u32) -> CoreLoad {
    CoreLoad::FixedTask {
        n_requests: rng.gen_range_u64(10..120),
        duration: rng.gen_range_u64(1..(maxl as u64 + 1)) as u32,
        gap: rng.gen_range_u64(0..20) as u32,
    }
}

/// A random flat-bus run spec.
fn gen_flat_spec(rng: &mut SimRng) -> RunSpec {
    let n = *rng.choose(&[2usize, 3, 4, 6, 8]);
    let mut platform = PlatformConfig::paper_n_cores(&BusSetup::Rp, n);
    let maxl = platform.latency.max_latency();
    platform.policy = *rng.choose(&PolicyKind::ALL);
    platform.cba = gen_cba(rng, n, maxl);

    let tua = gen_tua(rng, maxl);
    let rest: Vec<CoreLoad> = (1..n).map(|_| gen_corunner(rng, maxl)).collect();
    let mut spec = RunSpec::with_platform(platform, Scenario::Custom(rest), tua);
    spec.wcet_mode = rng.gen_bool(0.3);
    spec.record_trace = rng.gen_bool(0.2);
    if rng.gen_bool(0.25) {
        // A fairness-style horizon run, occasionally windowed.
        let windows = *rng.choose(&[4u32, 8]);
        let horizon = windows as u64 * rng.gen_range_u64(500..4_000);
        spec.stop = StopCondition::Horizon(horizon);
        if rng.gen_bool(0.5) {
            spec.windows = Some(windows);
        }
    }
    spec.max_cycles = 2_000_000;
    spec
}

/// A random two-level fabric run spec.
fn gen_fabric_spec(rng: &mut SimRng) -> RunSpec {
    let clusters = *rng.choose(&[2usize, 3, 4]);
    let cores_per_cluster = *rng.choose(&[2usize, 4]);
    let n = clusters * cores_per_cluster;
    let mut platform = PlatformConfig::paper_n_cores(&BusSetup::Rp, n);
    let maxl = platform.latency.max_latency();
    platform.cba = None;
    platform.topology = Some(FabricTopology {
        clusters,
        cores_per_cluster,
        bridge_latency: rng.gen_range_u64(1..5) as u32,
        bridge_depth: rng.gen_range_usize(1..3),
        cluster_policy: *rng.choose(&PolicyKind::ALL),
        cluster_cba: gen_cba(rng, cores_per_cluster, maxl),
        backbone_policy: *rng.choose(&PolicyKind::ALL),
        backbone_cba: gen_cba(rng, clusters, maxl),
    });

    let tua = gen_tua(rng, maxl);
    let rest: Vec<CoreLoad> = (1..n).map(|_| gen_corunner(rng, maxl)).collect();
    let mut spec = RunSpec::with_platform(platform, Scenario::Custom(rest), tua);
    if rng.gen_bool(0.25) {
        spec.stop = StopCondition::Horizon(rng.gen_range_u64(5_000..40_000));
    }
    spec.max_cycles = 2_000_000;
    // Drawn after everything above, so each cell keeps the platform, loads
    // and stop it had before these draws were added.
    spec.wcet_mode = rng.gen_bool(0.3);
    spec.record_trace = rng.gen_bool(0.2);
    if let StopCondition::Horizon(horizon) = spec.stop {
        if rng.gen_bool(0.5) {
            let divisors: Vec<u32> = (1..=8).filter(|&w| horizon % w as u64 == 0).collect();
            spec.windows = Some(*rng.choose(&divisors));
        }
    }
    spec
}

fn run_with(spec: &RunSpec, drive: Engine, seed: u64) -> RunResult {
    let mut s = spec.clone();
    s.drive = drive;
    run_once(&s, seed)
}

/// Cross-checks one generated cell through both engines. `repro`
/// identifies the failing cell for reproduction.
fn check_cell(spec: &RunSpec, seed: u64, repro: &str) {
    let naive = run_with(spec, Engine::Naive, seed);
    let events = run_with(spec, Engine::Events, seed);
    assert_eq!(
        naive, events,
        "{repro}: naive and events engines diverged\nspec: {spec:?}"
    );
}

#[test]
fn randomized_flat_cells_agree_across_engines() {
    let master = master_seed();
    for cell in 0..FLAT_CELLS {
        let mut rng = SimRng::seed_from(master).fork(cell as u64);
        let spec = gen_flat_spec(&mut rng);
        spec.validate()
            .unwrap_or_else(|e| panic!("generator produced invalid spec: {e}"));
        let seed = run_seed(master, cell);
        check_cell(
            &spec,
            seed,
            &format!("CBA_DIFF_SEED={master} flat cell {cell} (run seed {seed})"),
        );
    }
}

#[test]
fn randomized_fabric_cells_agree_across_engines() {
    let master = master_seed();
    for cell in 0..FABRIC_CELLS {
        let mut rng = SimRng::seed_from(master).fork(0xFAB_0000 + cell as u64);
        let spec = gen_fabric_spec(&mut rng);
        spec.validate()
            .unwrap_or_else(|e| panic!("generator produced invalid spec: {e}"));
        let seed = run_seed(master, cell);
        check_cell(
            &spec,
            seed,
            &format!("CBA_DIFF_SEED={master} fabric cell {cell} (run seed {seed})"),
        );
    }
}

/// A random synthetic-address-stream configuration for the memory agents.
fn gen_memory_config(rng: &mut SimRng) -> cba_mem::MemoryConfig {
    cba_mem::MemoryConfig {
        working_set: *rng.choose(&[256u64, 1024, 8192, 65536]),
        accesses: rng.gen_range_u64(50..250),
        write_frac: rng.gen_f64() * 0.9,
        share_frac: rng.gen_f64() * 0.9,
        shared_lines: *rng.choose(&[8usize, 32, 128]),
        locality: rng.gen_f64(),
        think: rng.gen_range_u64(0..8) as u32,
        l1_sets: *rng.choose(&[8usize, 32, 64]),
        l1_ways: *rng.choose(&[1usize, 2, 4]),
    }
}

/// A random flat-bus spec whose co-runners mix memory agents (private
/// and MESI-coherent) with the synthetic loads above.
fn gen_mem_spec(rng: &mut SimRng) -> RunSpec {
    let n = *rng.choose(&[2usize, 4, 6]);
    let mut platform = PlatformConfig::paper_n_cores(&BusSetup::Rp, n);
    let maxl = platform.latency.max_latency();
    platform.policy = *rng.choose(&PolicyKind::ALL);
    platform.cba = gen_cba(rng, n, maxl);
    platform.memory = Some(gen_memory_config(rng));

    let agent = |kind: &str| CoreLoad::Custom {
        kind: kind.into(),
        args: Vec::new(),
    };
    let tua = gen_tua(rng, maxl);
    let rest: Vec<CoreLoad> = (1..n)
        .map(|_| match rng.gen_range_usize(0..4) {
            0 => agent("mem"),
            1 | 2 => agent("shared"),
            _ => gen_corunner(rng, maxl),
        })
        .collect();
    let mut spec = RunSpec::with_platform(platform, Scenario::Custom(rest), tua);
    spec.record_trace = rng.gen_bool(0.2);
    if rng.gen_bool(0.25) {
        spec.stop = StopCondition::Horizon(rng.gen_range_u64(2_000..20_000));
    }
    spec.max_cycles = 2_000_000;
    spec
}

/// Memory-agent cells through both engines: MESI coherence chains,
/// per-core cache hierarchies and the agents' retry loops must agree
/// bit-for-bit between naive and events.
#[test]
fn randomized_mem_cells_agree_across_engines() {
    let master = master_seed();
    for cell in 0..MEM_CELLS {
        let mut rng = SimRng::seed_from(master).fork(0x3E3_0000 + cell as u64);
        let spec = gen_mem_spec(&mut rng);
        spec.validate()
            .unwrap_or_else(|e| panic!("generator produced invalid spec: {e}"));
        let seed = run_seed(master, cell);
        check_cell(
            &spec,
            seed,
            &format!("CBA_DIFF_SEED={master} mem cell {cell} (run seed {seed})"),
        );
    }
}

/// A catalog profile, shortened and reshaped: heavy on stores (which fill
/// the store buffer) and atomics (which block), with a small working set
/// so its warm-up stays short.
fn gen_profile(rng: &mut SimRng) -> EembcProfile {
    let mut profile = rng.choose(&suite::all_profiles()).clone();
    profile.accesses = rng.gen_range_u64(40..300);
    profile.working_set = *rng.choose(&[256u64, 1024, 4096]);
    profile.p_store = 0.2 + 0.4 * rng.gen_f64();
    profile.p_atomic = 0.3 * rng.gen_f64();
    profile.p_ifetch = 0.1 * rng.gen_f64();
    profile.code_set = profile.code_set.max(64);
    profile
}

/// A random core-model load: a catalog benchmark (`bench`), a reshaped
/// profile (`profile`) or a streaming one (`stream`). Catalog benchmarks
/// run for hundreds of thousands of cycles, so `long` says whether one
/// may be drawn.
fn gen_core_load(rng: &mut SimRng, long: bool) -> CoreLoad {
    match rng.gen_range_usize(0..if long { 3 } else { 2 }) {
        0 => CoreLoad::Profile(gen_profile(rng)),
        1 => CoreLoad::Streaming {
            accesses: rng.gen_range_u64(20..200),
        },
        _ => CoreLoad::Profile(rng.choose(&suite::all_profiles()).clone()),
    }
}

/// A random flat-bus spec whose TuA, and some co-runners, run the full
/// core model. A catalog benchmark appears only under a horizon stop.
/// Horizons are short next to the runs, so most land inside a compute
/// stretch of some core.
fn gen_core_spec(rng: &mut SimRng) -> RunSpec {
    let n = *rng.choose(&[2usize, 3, 4]);
    let mut platform = PlatformConfig::paper_n_cores(&BusSetup::Rp, n);
    let maxl = platform.latency.max_latency();
    platform.policy = *rng.choose(&PolicyKind::ALL);
    platform.cba = gen_cba(rng, n, maxl);
    let horizon = rng.gen_bool(0.5).then(|| rng.gen_range_u64(500..30_000));
    let tua = gen_core_load(rng, horizon.is_some());
    let rest: Vec<CoreLoad> = (1..n)
        .map(|_| match rng.gen_range_usize(0..2) {
            0 => gen_core_load(rng, horizon.is_some()),
            _ => gen_corunner(rng, maxl),
        })
        .collect();
    let mut spec = RunSpec::with_platform(platform, Scenario::Custom(rest), tua);
    spec.wcet_mode = rng.gen_bool(0.5);
    if let Some(h) = horizon {
        spec.stop = StopCondition::Horizon(h);
    }
    spec.max_cycles = 2_000_000;
    spec
}

/// Every agent's final `stats()`, by core, pushed as its run ends.
type StatsSink = Arc<Mutex<Vec<(usize, AgentStats)>>>;

/// A registry-built agent that reports its final `stats()` to a sink when
/// its run drops it, and otherwise forwards every call unchanged.
struct Recorded {
    inner: BoxedPortAgent,
    core: usize,
    sink: StatsSink,
}

impl Drop for Recorded {
    fn drop(&mut self) {
        // A poisoned sink means a run already failed; never panic here.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push((self.core, self.inner.stats()));
        }
    }
}

impl SimAgent<dyn RequestPort, CompletedTransaction> for Recorded {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut (dyn RequestPort + 'static),
    ) -> Control {
        self.inner.tick(now, completed, port)
    }
    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        self.inner.is_addressed(completed)
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn absorb_skipped(&mut self, skipped: u64) {
        self.inner.absorb_skipped(skipped);
    }
    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
    fn stats(&self) -> AgentStats {
        self.inner.stats()
    }
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        self.inner.limit_cycle_state(now, state, counters)
    }
    fn limit_cycle_bound(&self, deltas: &[u64]) -> u64 {
        self.inner.limit_cycle_bound(deltas)
    }
    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        self.inner.limit_cycle_jump(periods, shift, deltas);
    }
}

/// Runs `spec` through the built-in kinds, each wrapped in [`Recorded`];
/// returns the result and every agent's final stats in core order.
fn run_recorded(spec: &RunSpec, seed: u64) -> (RunResult, Vec<AgentStats>) {
    let sink = StatsSink::default();
    let builtin = Arc::new(AgentRegistry::builtin());
    let mut registry = AgentRegistry::empty();
    for kind in builtin.kinds() {
        let (builtin, sink) = (builtin.clone(), sink.clone());
        registry.register(kind, move |ctx| {
            let inner =
                builtin.build(ctx.load, ctx.core, ctx.platform, ctx.hub.clone(), ctx.rng)?;
            let (core, sink) = (ctx.core.index(), sink.clone());
            Ok(Box::new(Recorded { inner, core, sink }) as BoxedPortAgent)
        });
    }
    let result = run_once_with(spec, seed, &registry);
    let mut stats = std::mem::take(&mut *sink.lock().expect("no run panicked"));
    stats.sort_by_key(|&(core, _)| core);
    (result, stats.into_iter().map(|(_, s)| s).collect())
}

/// Core-model cells through both engines: compute stretches folded ahead
/// of the cycle, store-buffer drains and stalls, atomics and horizon
/// stops inside stretches must agree bit for bit between naive and
/// events, on the run result and on every agent's statistics.
#[test]
fn randomized_core_model_cells_agree_across_engines() {
    let master = master_seed();
    for cell in 0..CORE_CELLS {
        let mut rng = SimRng::seed_from(master).fork(0xC0DE_0000 + cell as u64);
        let mut spec = gen_core_spec(&mut rng);
        spec.validate()
            .unwrap_or_else(|e| panic!("generator produced invalid spec: {e}"));
        let seed = run_seed(master, cell);
        spec.drive = Engine::Naive;
        let naive = run_recorded(&spec, seed);
        spec.drive = Engine::Events;
        let events = run_recorded(&spec, seed);
        assert_eq!(
            naive, events,
            "CBA_DIFF_SEED={master} core cell {cell} (run seed {seed}): naive and events \
             engines diverged\nspec: {spec:?}"
        );
        assert_eq!(naive.1.len(), spec.loads.len());
    }
}

/// Randomized MESI soak: seeded read/write streams from every core hammer
/// one coherence hub, and the protocol invariants (at most one Modified
/// copy, Modified/Exclusive exclusivity, version monotonicity) hold after
/// every single operation. Failures name the master seed and step.
#[test]
fn randomized_mesi_streams_hold_invariants() {
    let master = master_seed();
    for round in 0..8u64 {
        let mut rng = SimRng::seed_from(master).fork(0x3E51_0000 + round);
        let n_cores = *rng.choose(&[2usize, 3, 4, 8]);
        let n_lines = *rng.choose(&[1usize, 4, 16]);
        let hub = cba_mem::shared_hub(n_cores, n_lines);
        let lat = PlatformConfig::paper_n_cores(&BusSetup::Rp, 4).latency;
        for step in 0..2_000u64 {
            let core = sim_core::CoreId::from_index(rng.gen_range_usize(0..n_cores));
            let line = rng.gen_range_usize(0..n_lines);
            let mut txns = Vec::new();
            if rng.gen_bool(0.4) {
                hub.borrow_mut().write(core, line, &lat, &mut txns);
            } else {
                hub.borrow_mut().read(core, line, &lat, &mut txns);
            }
            for t in &txns {
                assert!(
                    t.duration > 0 && t.duration <= lat.max_latency(),
                    "CBA_DIFF_SEED={master} round {round} step {step}: \
                     transaction {t:?} duration out of the arbiter's range"
                );
            }
            hub.borrow().check_invariants().unwrap_or_else(|e| {
                panic!("CBA_DIFF_SEED={master} round {round} step {step}: {e}")
            });
        }
    }
}

/// The generator itself is deterministic per seed — the reproduction
/// instructions in the failure messages depend on it.
#[test]
fn generator_is_deterministic_per_seed() {
    let mut a = SimRng::seed_from(7).fork(3);
    let mut b = SimRng::seed_from(7).fork(3);
    let sa = gen_flat_spec(&mut a);
    let sb = gen_flat_spec(&mut b);
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
}
