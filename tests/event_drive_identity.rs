//! Bit-identity of the event-horizon fast path against the naive
//! per-cycle loop — the workspace-level contract of the two engines of
//! `sim_core::SimulationBuilder::run`.
//!
//! The fast path may only skip cycles in which *nothing observable*
//! happens, so every run must agree with the reference loop bit for bit:
//! same samples, same grant traces, same cycle counters, same stop
//! cycle. These tests sweep the full mechanism grid —
//! {RP, RR, TDMA, lottery} × {no filter, CBA, H-CBA} × {isolation, max
//! contention} on the non-split bus, plus the split-transaction bus with
//! random mixed traffic — across random seeds.

use cba::{CreditConfig, CreditFilter};
use cba_bus::split::{SplitBus, SplitBusConfig};
use cba_bus::{BusRequest, CompletedTransaction, PolicyKind, RequestKind, RequestPort};
use cba_platform::scenario::ScenarioDef;
use cba_platform::{run_once, RunResult, RunSpec};
use sim_core::agent::FnAgent;
use sim_core::rng::SimRng;
use sim_core::{BusModel, Control, CoreId, Cycle, Engine, Simulation};

fn both_engines(spec: &RunSpec, seed: u64) -> (RunResult, RunResult) {
    let mut naive = spec.clone();
    naive.drive = Engine::Naive;
    let mut events = spec.clone();
    events.drive = Engine::Events;
    (run_once(&naive, seed), run_once(&events, seed))
}

/// The whole policy × filter × scenario grid on the non-split bus —
/// every built-in policy, FIFO and fixed-priority included — with the
/// WCET-estimation COMP machinery engaged in the CON cells.
#[test]
fn policy_filter_grid_is_bit_identical() {
    let text = "\
[campaign]
name = identity
runs = 1
[tua]
load = fixed:150:6:4
[sweep]
policy = rp,rr,tdma,lot,fifo,pri
cba = none,homog,hcba
scenario = iso,con
";
    let def = ScenarioDef::parse(text).expect("grid parses");
    let cells = def.expand().expect("grid expands");
    assert_eq!(cells.len(), 36);
    for cell in &cells {
        for seed in [0u64, 13] {
            let (a, b) = both_engines(&cell.spec, seed);
            assert_eq!(a, b, "divergence in cell {:?} seed {seed}", cell.labels);
            assert!(a.finished, "cell {:?} must finish", cell.labels);
        }
    }
}

/// Core-model TuAs (caches, store buffers, random placement) against
/// saturating contenders, every policy family.
#[test]
fn core_model_runs_are_bit_identical() {
    let text = "\
[campaign]
name = identity-core
runs = 1
[tua]
load = bench:rspeed
[sweep]
setup = rp,cba,hcba,tdma,rr+homog,fifo,pri+homog
scenario = iso,con
";
    let def = ScenarioDef::parse(text).expect("parses");
    let cells = def.expand().expect("expands");
    assert_eq!(cells.len(), 14);
    for cell in cells {
        let (a, b) = both_engines(&cell.spec, 42);
        assert_eq!(a, b, "cell {:?}", cell.labels);
    }
}

/// The hierarchical fabric across the policy grid with per-segment
/// filters and mixed contender/fixed-task clients: bridges, bounded
/// queues and gated cluster arbitration must all replay bit for bit
/// under the fast path.
#[test]
fn fabric_grid_is_bit_identical() {
    let text = "\
[campaign]
name = identity-fabric
runs = 1
[platform]
policy = rr
[topology]
clusters = 2
cores_per_cluster = 2
bridge_latency = 2
bridge_depth = 2
[tua]
load = fixed:120:6:4
[contenders]
loads = sat:28,per:28:90:7,idle
wcet = off
[sweep]
policy = rp,rr,tdma,lot,fifo,pri
cluster_cba = none,homog
backbone_cba = none,homog
";
    let def = ScenarioDef::parse(text).expect("fabric grid parses");
    let cells = def.expand().expect("fabric grid expands");
    assert_eq!(cells.len(), 24);
    for cell in &cells {
        for seed in [3u64, 2017] {
            let (a, b) = both_engines(&cell.spec, seed);
            assert_eq!(
                a, b,
                "fabric divergence in cell {:?} seed {seed}",
                cell.labels
            );
            assert!(a.finished, "fabric cell {:?} must finish", cell.labels);
        }
    }
}

/// Cache-driven core clients on the fabric (the full stack: caches and
/// store buffers posting through cluster buses and bridges), plus a
/// horizon-stopped recording run for the trace metrics.
#[test]
fn fabric_core_model_and_trace_runs_are_bit_identical() {
    let text = "\
[campaign]
name = identity-fabric-core
runs = 1
[platform]
policy = rr
[topology]
clusters = 2
cores_per_cluster = 2
bridge_latency = 3
bridge_depth = 2
cluster_cba = homog
backbone_cba = homog
[tua]
load = bench:rspeed
[contenders]
fill = sat:28
wcet = off
";
    let def = ScenarioDef::parse(text).expect("parses");
    let cells = def.expand().expect("expands");
    let (a, b) = both_engines(&cells[0].spec, 42);
    assert_eq!(a, b, "fabric core-model");
    assert!(a.finished);
    // Horizon-stopped recording run: burst/starvation metrics too.
    let mut spec = cells[0].spec.clone();
    spec.loads[0] = cba_platform::CoreLoad::Saturating { duration: 5 };
    spec.stop = cba_platform::StopCondition::Horizon(25_000);
    spec.record_trace = true;
    let (a, b) = both_engines(&spec, 7);
    assert_eq!(a, b);
    assert_eq!(a.total_cycles, 25_000);
    assert!(a.max_burst.iter().any(|m| m.is_some()));
}

/// Memory miss-stream agents, private (`agent:mem`) and MESI-coherent
/// (`agent:shared`), across the policy × filter grid: cache hierarchies,
/// coherence transaction chains and the agents' post-retry loops must
/// replay bit for bit under the fast path, including the new per-run
/// memory statistics.
#[test]
fn mem_agent_runs_are_bit_identical() {
    let text = "\
[campaign]
name = identity-mem
runs = 1
[memory]
working_set = 2048
accesses = 250
write_frac = 0.35
share_frac = 0.4
shared_lines = 32
locality = 0.8
think = 3
l1_sets = 16
l1_ways = 2
[tua]
load = fixed:80:6:4
[contenders]
loads = agent:shared,agent:mem,agent:shared
wcet = off
[sweep]
policy = rp,rr,tdma,lot,fifo,pri
cba = none,homog
";
    let def = ScenarioDef::parse(text).expect("mem grid parses");
    let cells = def.expand().expect("mem grid expands");
    assert_eq!(cells.len(), 12);
    for cell in &cells {
        for seed in [1u64, 77] {
            let (a, b) = both_engines(&cell.spec, seed);
            assert_eq!(a, b, "mem divergence in cell {:?} seed {seed}", cell.labels);
            assert!(a.finished, "cell {:?} must finish", cell.labels);
            let mem = a.mem.expect("memory agents must report stats");
            assert!(mem.accesses > 0 && mem.bus_txns > 0);
        }
    }
    // Horizon-stopped recording run over the same mix: the trace-derived
    // metrics and the agents' statistics must agree too.
    let mut spec = cells[0].spec.clone();
    spec.stop = cba_platform::StopCondition::Horizon(20_000);
    spec.record_trace = true;
    let (a, b) = both_engines(&spec, 9);
    assert_eq!(a, b, "mem horizon/trace divergence");
    assert_eq!(a.total_cycles, 20_000);
}

/// Horizon-stopped fairness runs with recording traces and periodic +
/// saturating co-runners: the trace-derived burst/starvation metrics must
/// match too.
#[test]
fn horizon_and_trace_runs_are_bit_identical() {
    let text = "\
[campaign]
name = identity-horizon
runs = 1
[platform]
policy = tdma
cba = homog
[tua]
load = sat:5
[contenders]
loads = sat:56,per:28:90:7,idle
wcet = off
stop = horizon:30000
trace = on
";
    let def = ScenarioDef::parse(text).expect("parses");
    let cells = def.expand().expect("expands");
    for seed in [2u64, 2017] {
        let (a, b) = both_engines(&cells[0].spec, seed);
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(a.total_cycles, 30_000);
        assert!(a.max_burst.iter().any(|m| m.is_some()));
    }
}

/// Everything observable about one split-bus run, for exact comparison.
#[derive(Debug, PartialEq)]
struct SplitRunView {
    completions: Vec<(Cycle, usize)>,
    slots: Vec<u64>,
    busy: Vec<u64>,
    idle_cycles: u64,
    total_cycles: u64,
}

/// Random mixed traffic (L2 hits / split misses / atomics) on the
/// split-transaction bus: completions, traces and cycle counters agree
/// under every policy, with no filter, CBA and H-CBA.
#[test]
fn split_bus_runs_are_bit_identical() {
    let filters = [
        ("none", None),
        ("CBA", Some(CreditConfig::homogeneous(4, 56).unwrap())),
        ("H-CBA", Some(CreditConfig::paper_hcba(56).unwrap())),
    ];
    for policy in [
        PolicyKind::RandomPermutation,
        PolicyKind::RoundRobin,
        PolicyKind::Tdma,
        PolicyKind::Lottery,
    ] {
        for (filter, credits) in &filters {
            for seed in [5u64, 99] {
                let run = |engine: Engine| -> SplitRunView {
                    let mut bus =
                        SplitBus::new(SplitBusConfig::paper(), policy.build(4, 56)).unwrap();
                    if let Some(credits) = credits {
                        bus.set_filter(Box::new(CreditFilter::new(credits.clone())));
                    }
                    let mut rngs: Vec<SimRng> = (0..4)
                        .map(|i| SimRng::seed_from(seed).fork(i as u64))
                        .collect();
                    let mut completions: Vec<(Cycle, usize)> = Vec::new();
                    let cycle_fn = |bus: &mut SplitBus,
                                    now: Cycle,
                                    completed: Option<&CompletedTransaction>|
                     -> Control {
                        if let Some(c) = completed {
                            completions.push((now, c.core.index()));
                        }
                        for (i, rng) in rngs.iter_mut().enumerate() {
                            let core = CoreId::from_index(i);
                            if bus.can_accept(core) {
                                let (kind, duration) = match rng.gen_range_u64(0..4) {
                                    0 => (RequestKind::L2ReadHit, rng.gen_range_u64(1..11) as u32),
                                    1 | 2 => (RequestKind::L2MissClean, 28),
                                    _ => (RequestKind::Atomic, 56),
                                };
                                bus.post(BusRequest::new(core, duration, kind, now))
                                    .unwrap();
                            }
                        }
                        // Every core now has a request in flight; only bus
                        // events (completions) can create client work.
                        Control::Sleep(Cycle::MAX)
                    };
                    let sim = Simulation::builder()
                        .model(bus)
                        .agent(FnAgent(cycle_fn))
                        .engine(engine)
                        .max_cycles(40_000)
                        .run();
                    assert_eq!(sim.outcome().cycles, 40_000);
                    let (bus, ..) = sim.into_parts();
                    let inner = bus.inner();
                    let ids: Vec<CoreId> = (0..4).map(CoreId::from_index).collect();
                    SplitRunView {
                        completions,
                        slots: ids.iter().map(|&c| inner.trace().slots(c)).collect(),
                        busy: ids.iter().map(|&c| inner.trace().busy_cycles(c)).collect(),
                        idle_cycles: inner.idle_cycles(),
                        total_cycles: inner.total_cycles(),
                    }
                };
                let naive = run(Engine::Naive);
                let fast = run(Engine::Events);
                assert_eq!(
                    naive, fast,
                    "split-bus divergence: policy {policy:?}, filter {filter}, seed {seed}"
                );
            }
        }
    }
}
