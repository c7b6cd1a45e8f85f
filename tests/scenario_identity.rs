//! Engine identity on the shipped scenarios: for run 0 of every cell of
//! every `scenarios/*.scn`, the per-cycle reference loop (`engine =
//! naive`) and the default events engine return identical `RunResult`s,
//! bit for bit, random-draw counts included.
//!
//! The events engine skips uneventful cycle ranges and, once a run settles
//! into a limit cycle, jumps whole periods (`fairness_sweep`,
//! `scaling_16core`, `fabric_fairness` and `clustered_16core` are where
//! the jump fires). Both shortcuts must be invisible in every counter,
//! trace metric and windowed sample. The spec-level cases below cover the
//! shapes the jump must either reproduce exactly or decline: paper cells,
//! a mixed round-robin run where it fires, windows, recording traces,
//! and fabrics that jump or must decline.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cba::{CreditConfig, CreditFilter};
use cba_bus::fabric::{Fabric, FabricConfig};
use cba_bus::split::{SplitBus, SplitBusConfig};
use cba_bus::{Bus, BusConfig, BusModel, CompletedTransaction, PolicyKind, RequestPort};
use cba_cpu::{FixedRequestTask, PeriodicContender};
use cba_platform::agents::default_registry;
use cba_platform::campaign::run_seed;
use cba_platform::config::{FabricTopology, PlatformConfig};
use cba_platform::executor::{default_threads, run_indexed_streamed};
use cba_platform::scenario::{parse_engine, ScenarioDef};
use cba_platform::{
    run_once, run_once_with, AgentCtx, AgentRegistry, BusSetup, Campaign, CoreLoad, PortAgent,
    RunResult, RunSpec, Scenario, StopCondition,
};
use sim_core::agent::AgentStats;
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{BoxedAgent, CoreId, DriveOutcome, Engine, Simulation, StopWhen};

mod common;
use common::{assert_cells_identical, fabric_print, CountedContender, FabricPrint};

/// Runs `spec` under the naive engine and the default engine with the
/// same seed.
fn both(spec: &RunSpec, seed: u64) -> (RunResult, RunResult) {
    let mut naive = spec.clone();
    naive.drive = Engine::Naive;
    let mut events = spec.clone();
    events.drive = Engine::default();
    (run_once(&naive, seed), run_once(&events, seed))
}

#[test]
fn naive_matches_events_on_every_shipped_scenario() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 14, "shipped scenarios missing: {paths:?}");
    // Each distinct (seed, spec) cell once: suite_wide.scn repeats
    // paper_fig1.scn's cells with their seeds.
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let def = ScenarioDef::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for cell in def.expand().unwrap_or_else(|e| panic!("{name}: {e}")) {
            if seen.insert((cell.seed, format!("{:?}", cell.spec))) {
                cells.push((name.clone(), cell));
            }
        }
    }
    let check = |i: usize| {
        let (name, cell) = &cells[i];
        let (naive, events) = both(&cell.spec, run_seed(cell.seed, 0));
        // A skipped cycle range makes no random draw.
        assert_eq!(
            naive.draws, events.draws,
            "{name} {:?}: engines drew differently",
            cell.labels
        );
        assert_eq!(naive, events, "{name} {:?}: engines diverged", cell.labels);
    };
    run_indexed_streamed(cells.len(), default_threads(), check, |_, ()| {});
}

#[test]
fn fluid_is_an_alias_of_the_events_engine() {
    assert_eq!(parse_engine("fluid"), Ok(Engine::Events));
    assert_eq!(parse_engine("FLUID"), Ok(Engine::Events));
}

#[test]
fn naive_matches_events_on_paper_cells() {
    for setup in [BusSetup::Rp, BusSetup::Cba, BusSetup::HCba] {
        let spec = RunSpec::paper(
            setup.clone(),
            Scenario::MaxContention,
            CoreLoad::FixedTask {
                n_requests: 200,
                duration: 6,
                gap: 4,
            },
        );
        let (naive, events) = both(&spec, 7);
        assert_eq!(naive, events, "{setup:?}");
    }
}

/// Round robin with saturating, periodic and fixed loads: the shape the
/// limit-cycle jump accepts.
fn jumping_spec() -> RunSpec {
    let rr = BusSetup::Custom {
        policy: PolicyKind::RoundRobin,
        cba: None,
    };
    let mut spec = RunSpec::paper(
        rr,
        Scenario::Custom(vec![
            CoreLoad::Saturating { duration: 28 },
            CoreLoad::Saturating { duration: 56 },
            CoreLoad::Periodic {
                duration: 8,
                period: 100,
                phase: 13,
            },
        ]),
        CoreLoad::FixedTask {
            n_requests: 500,
            duration: 6,
            gap: 0,
        },
    );
    spec.wcet_mode = false;
    spec
}

#[test]
fn naive_matches_events_with_the_jump_active() {
    let (naive, events) = both(&jumping_spec(), 3);
    assert_eq!(naive, events);
}

#[test]
fn naive_matches_events_on_horizon_and_windows() {
    let mut spec = RunSpec::paper(
        BusSetup::Cba,
        Scenario::MaxContention,
        CoreLoad::Saturating { duration: 5 },
    );
    spec.wcet_mode = false;
    spec.stop = StopCondition::Horizon(24_000);
    spec.windows = Some(8);
    let (naive, events) = both(&spec, 11);
    assert_eq!(naive, events);
}

#[test]
fn naive_matches_events_on_recording_runs() {
    let mut spec = RunSpec::paper(
        BusSetup::Cba,
        Scenario::MaxContention,
        CoreLoad::Profile(cba_workloads::suite::matrix()),
    );
    spec.record_trace = true;
    let (naive, events) = both(&spec, 5);
    assert_eq!(naive, events);
}

#[test]
fn naive_matches_events_on_a_fabric() {
    let mut platform = PlatformConfig::paper(&BusSetup::Rp);
    platform.n_cores = 16;
    platform.cba = None;
    platform.topology = Some(FabricTopology {
        clusters: 4,
        cores_per_cluster: 4,
        bridge_latency: 4,
        bridge_depth: 2,
        cluster_policy: PolicyKind::RoundRobin,
        cluster_cba: None,
        backbone_policy: PolicyKind::RoundRobin,
        backbone_cba: None,
    });
    let mut spec = RunSpec::with_platform(
        platform,
        Scenario::Custom(vec![CoreLoad::Saturating { duration: 28 }; 15]),
        CoreLoad::Saturating { duration: 28 },
    );
    spec.wcet_mode = false;
    spec.stop = StopCondition::Horizon(50_000);
    let (naive, events) = both(&spec, 2);
    assert_eq!(naive, events);
}

/// The jump fires on the platform's real `Bus` (round robin with and
/// without the credit filter), through `run_once` and through a
/// `Simulation` assembled by hand, and stays bit-identical to the naive
/// loop: run results, every counter the bus keeps, every agent's stats.
#[test]
fn the_jump_fires_on_the_real_bus() {
    let jumps = Arc::new(AtomicU64::new(0));
    let counted = |jumps: &Arc<AtomicU64>, core| CountedContender {
        inner: FixedRequestTask::saturating(core, 56),
        jumps: jumps.clone(),
    };
    let registry = counting_registry(&jumps);
    let jumped = || jumps.swap(0, Ordering::Relaxed);
    for cba in [false, true] {
        let credit = cba.then(|| cba::CreditConfig::homogeneous(4, 56).unwrap());
        let mut spec = jumping_spec();
        spec.loads[2] = CoreLoad::Custom {
            kind: "counted".into(),
            args: vec![],
        };
        spec.platform.cba = credit.clone();
        let events = run_once_with(&spec, 3, &registry);
        assert!(jumped() > 0, "cba={cba}: run_once took no jump");
        spec.drive = Engine::Naive;
        assert_eq!(run_once_with(&spec, 3, &registry), events, "cba={cba}");

        let run = |engine: Engine| {
            let mut bus = Bus::new(
                BusConfig::new(4, 56).unwrap(),
                PolicyKind::RoundRobin.build(4, 56),
            );
            if let Some(credit) = &credit {
                bus.set_filter(Box::new(cba::CreditFilter::new(credit.clone())));
            }
            let c = CoreId::from_index;
            Simulation::builder()
                .model(bus)
                .agent(FixedRequestTask::new(c(0), 500, 6, 0))
                .agent(FixedRequestTask::saturating(c(1), 28))
                .agent(PeriodicContender::new(c(2), 8, 100, 13))
                .agent(counted(&jumps, c(3)))
                .stop(StopWhen::AgentDone(0))
                .engine(engine)
                .max_cycles(10_000_000)
                .run()
        };
        let observe = |sim: &Simulation<Bus>| {
            let bus = sim.model();
            let trace = bus.trace();
            let per_core: Vec<_> = CoreId::all(4)
                .map(|c| (trace.slots(c), trace.busy_cycles(c)))
                .collect();
            let stats: Vec<AgentStats> = sim.agents().iter().map(|a| a.stats()).collect();
            let cycles = (bus.total_cycles(), bus.idle_cycles());
            let ends = (trace.first_start(), trace.last_end());
            (sim.outcome(), cycles, ends, per_core, stats)
        };
        let naive = run(Engine::Naive);
        assert_eq!(jumped(), 0);
        let events = run(Engine::Events);
        assert!(jumped() > 0, "cba={cba}: Simulation took no jump");
        assert_eq!(observe(&events), observe(&naive), "cba={cba}");
    }
}

/// The builtin registry plus the `counted` kind: a 56-cycle saturating
/// contender that counts its jumps into `jumps`.
fn counting_registry(jumps: &Arc<AtomicU64>) -> AgentRegistry {
    let mut registry = AgentRegistry::builtin();
    let jumps = jumps.clone();
    registry.register("counted", move |ctx: &mut AgentCtx<'_>| {
        Ok(Box::new(CountedContender {
            inner: FixedRequestTask::saturating(ctx.core, 56),
            jumps: jumps.clone(),
        }))
    });
    registry
}

/// A round-robin fabric of 4 clusters of 2 cores with `cluster_cba` on
/// every cluster bus and `backbone_cba` on the backbone.
fn topology(
    cluster_cba: Option<CreditConfig>,
    backbone_cba: Option<CreditConfig>,
    bridge_latency: u32,
    bridge_depth: usize,
) -> FabricTopology {
    FabricTopology {
        clusters: 4,
        cores_per_cluster: 2,
        bridge_latency,
        bridge_depth,
        cluster_policy: PolicyKind::RoundRobin,
        cluster_cba,
        backbone_policy: PolicyKind::RoundRobin,
        backbone_cba,
    }
}

/// A fixed-request TuA against saturating contenders of mixed durations
/// on the fabric `topo`, with the registered `counted` kind on core 2.
/// Every cell of the grid below settles into a limit cycle of 154 to 454
/// cycles long before the TuA's last request; with contenders of unequal
/// demand, or periodic ones, the weighted backbone's cycle runs to many
/// thousands of cycles and the jump would need a far longer run.
fn jumping_fabric_spec(topo: FabricTopology) -> RunSpec {
    let mut platform = PlatformConfig::paper(&BusSetup::Rp);
    platform.n_cores = topo.n_cores();
    platform.cba = None;
    platform.topology = Some(topo);
    let sat = |duration| CoreLoad::Saturating { duration };
    let counted = CoreLoad::Custom {
        kind: "counted".into(),
        args: vec![],
    };
    let contenders = vec![sat(1), counted, sat(56), sat(23), sat(5), sat(2), sat(5)];
    let tua = CoreLoad::FixedTask {
        n_requests: 300,
        duration: 6,
        gap: 0,
    };
    RunSpec::with_platform(platform, Scenario::Custom(contenders), tua)
}

/// The fabric `run_once` builds for `topo`, assembled by hand, with
/// `cluster_0` as cluster 0's policy.
fn hand_fabric(topo: &FabricTopology, cluster_0: PolicyKind) -> Fabric {
    let (k, m) = (topo.clusters, topo.cores_per_cluster);
    let config = FabricConfig::new(k, m, 56, topo.bridge_latency, topo.bridge_depth).unwrap();
    let mut policies: Vec<_> = (0..k).map(|_| topo.cluster_policy.build(m, 56)).collect();
    policies[0] = cluster_0.build(m, 56);
    let mut fabric = Fabric::new(config, policies, topo.backbone_policy.build(k, 56)).unwrap();
    if let Some(credit) = &topo.cluster_cba {
        for i in 0..k {
            fabric.set_cluster_filter(i, Box::new(CreditFilter::new(credit.clone())));
        }
    }
    if let Some(credit) = &topo.backbone_cba {
        fabric.set_backbone_filter(Box::new(CreditFilter::new(credit.clone())));
    }
    fabric
}

/// Runs `spec`'s loads, built through `registry`, on `fabric` until the
/// TuA is done, and returns the outcome, every agent's stats and every
/// counter of every segment.
fn run_by_hand(
    fabric: Fabric,
    spec: &RunSpec,
    registry: &AgentRegistry,
    engine: Engine,
) -> (DriveOutcome, Vec<AgentStats>, FabricPrint) {
    let agents = spec.loads.iter().enumerate().map(|(i, load)| {
        let mut rng = SimRng::seed_from(3).fork(0xC0 + i as u64);
        let core = CoreId::from_index(i);
        let agent = registry
            .build(load, core, &spec.platform, None, &mut rng)
            .unwrap();
        Box::new(PortAgent::new(agent)) as BoxedAgent<Fabric>
    });
    let sim = Simulation::builder()
        .model(fabric)
        .agents(agents)
        .stop(StopWhen::AgentDone(0))
        .engine(engine)
        .max_cycles(10_000_000)
        .run();
    let stats = sim.agents().iter().map(|a| a.stats()).collect();
    (sim.outcome(), stats, fabric_print(sim.model()))
}

/// The jump fires on the platform's `Fabric` on every cell of a grid over
/// the segment filters and the bridges, through `run_once` and through a
/// `Simulation` assembled by hand, and stays bit-identical to the naive
/// loop: run results, every agent's stats, and every counter of every
/// cluster bus, of the backbone and of the fabric-wide trace.
#[test]
fn the_jump_fires_on_a_fabric() {
    let jumps = Arc::new(AtomicU64::new(0));
    let registry = counting_registry(&jumps);
    let jumped = || jumps.swap(0, Ordering::Relaxed);
    let homog = CreditConfig::homogeneous(2, 56).unwrap();
    let weighted = CreditConfig::weighted(56, vec![4, 2, 1, 1], 8)
        .and_then(|w| w.with_cap_multipliers(vec![4; 4]))
        .unwrap();
    for cluster_cba in [None, Some(homog)] {
        for backbone_cba in [None, Some(weighted.clone())] {
            for (latency, depth) in [(1, 1), (1, 4), (4, 1), (4, 4), (16, 1), (16, 4)] {
                let topo = topology(cluster_cba.clone(), backbone_cba.clone(), latency, depth);
                let cell = format!(
                    "cluster_cba {:?}, backbone_cba {:?}, latency {latency}, depth {depth}",
                    cluster_cba.is_some(),
                    backbone_cba.is_some()
                );
                let mut spec = jumping_fabric_spec(topo.clone());
                let events = run_once_with(&spec, 3, &registry);
                assert!(jumped() > 0, "{cell}: run_once took no jump");
                spec.drive = Engine::Naive;
                assert_eq!(run_once_with(&spec, 3, &registry), events, "{cell}");

                let run = |engine| {
                    let fabric = hand_fabric(&topo, PolicyKind::RoundRobin);
                    run_by_hand(fabric, &spec, &registry, engine)
                };
                let naive = run(Engine::Naive);
                assert_eq!(jumped(), 0);
                let events = run(Engine::Events);
                assert!(jumped() > 0, "{cell}: Simulation took no jump");
                assert_eq!(events, naive, "{cell}");
            }
        }
    }
}

/// Fabrics that must decline the jump take none and stay bit-identical
/// to the naive loop: a randomized policy on one segment only (RP on
/// cluster 0, lottery on the backbone), a recording trace, windows (an
/// active probe) and a flip probe. The same fabric without them jumps.
#[test]
fn fabrics_that_must_decline_take_no_jump() {
    let jumps = Arc::new(AtomicU64::new(0));
    let registry = counting_registry(&jumps);
    let jumped = || jumps.swap(0, Ordering::Relaxed);
    let cluster_cba = CreditConfig::homogeneous(2, 56).ok();
    let topo = topology(cluster_cba, CreditConfig::homogeneous(4, 56).ok(), 4, 2);
    run_once_with(&jumping_fabric_spec(topo.clone()), 3, &registry);
    assert!(jumped() > 0, "the fabric without a declining part jumps");

    let lottery = FabricTopology {
        backbone_policy: PolicyKind::Lottery,
        ..topo.clone()
    };
    let mut recording = jumping_fabric_spec(topo.clone());
    recording.record_trace = true;
    let mut windowed = jumping_fabric_spec(topo.clone());
    windowed.stop = StopCondition::Horizon(20_000);
    windowed.windows = Some(4);
    let cases = [
        ("lottery on the backbone", jumping_fabric_spec(lottery)),
        ("recording trace", recording),
        ("windows", windowed),
    ];
    for (case, mut spec) in cases {
        let events = run_once_with(&spec, 3, &registry);
        spec.drive = Engine::Naive;
        let naive = run_once_with(&spec, 3, &registry);
        assert_eq!(jumped(), 0, "{case}: jumped");
        assert_eq!(naive, events, "{case}");
    }

    let spec = jumping_fabric_spec(topo.clone());
    for (case, cluster_0, flips) in [
        ("RP on cluster 0", PolicyKind::RandomPermutation, false),
        ("flip probe", PolicyKind::RoundRobin, true),
    ] {
        let run = |engine| {
            let mut fabric = hand_fabric(&topo, cluster_0);
            if flips {
                fabric.enable_flip_probe();
            }
            run_by_hand(fabric, &spec, &registry, engine)
        };
        let (naive, events) = (run(Engine::Naive), run(Engine::Events));
        assert_eq!(jumped(), 0, "{case}: jumped");
        assert_eq!(events, naive, "{case}");
    }
}

/// Every shipped agent kind on `n` cores, built through the registry and
/// bridged by `PortAgent`: the list `bench`, `stream`, `sat`, `per`,
/// `fixed`, `mem`, `shared`, `shared` repeats to fill the cores, every
/// `shared` agent on the run's one coherence hub, and each agent draws
/// its own stream of `seed`.
fn every_kind<M>(n: usize, seed: u64) -> Vec<BoxedAgent<'static, M>>
where
    M: BusModel<Completion = CompletedTransaction> + RequestPort + 'static,
{
    let memory = cba_mem::MemoryConfig {
        working_set: 1024,
        accesses: 150,
        think: 2,
        l1_sets: 16,
        l1_ways: 2,
        share_frac: 0.4,
        ..Default::default()
    };
    let hub = cba_mem::shared_hub(n, memory.shared_lines);
    let mut platform = PlatformConfig::paper(&BusSetup::Rp);
    platform.n_cores = n;
    platform.memory = Some(memory);
    let agent = |kind: &str| CoreLoad::Custom {
        kind: kind.into(),
        args: Vec::new(),
    };
    let loads = [
        CoreLoad::Profile(cba_workloads::suite::rspeed()),
        CoreLoad::Streaming { accesses: 200 },
        CoreLoad::Saturating { duration: 28 },
        CoreLoad::Periodic {
            duration: 11,
            period: 173,
            phase: 9,
        },
        CoreLoad::FixedTask {
            n_requests: 60,
            duration: 6,
            gap: 40,
        },
        agent("mem"),
        agent("shared"),
        agent("shared"),
    ];
    (0..n)
        .map(|i| {
            let load = &loads[i % loads.len()];
            let mut rng = SimRng::seed_from(seed).fork(0xC0 + i as u64);
            let core = CoreId::from_index(i);
            let inner = default_registry()
                .build(load, core, &platform, Some(hub.clone()), &mut rng)
                .unwrap_or_else(|e| panic!("{load}: {e}"));
            Box::new(PortAgent::new(inner)) as BoxedAgent<M>
        })
        .collect()
}

/// Runs every shipped kind on `n` cores of `model(seed)` under both
/// engines, for a few seeds, and requires equal outcomes, equal `stats()`
/// for every agent and equal model cycle counters (`cycles` reads the
/// idle and total cycles).
fn every_agents_stats_match<M>(n: usize, model: impl Fn(u64) -> M, cycles: impl Fn(&M) -> [u64; 2])
where
    M: BusModel<Completion = CompletedTransaction> + RequestPort + 'static,
{
    for seed in [1, 2, 3] {
        let run = |engine| {
            Simulation::builder()
                .model(model(seed))
                .agents(every_kind::<M>(n, seed))
                .stop(StopWhen::Horizon(20_000))
                .engine(engine)
                .run()
        };
        let observe = |sim: &Simulation<M>| {
            let stats: Vec<AgentStats> = sim.agents().iter().map(|a| a.stats()).collect();
            (sim.outcome(), stats, cycles(sim.model()))
        };
        let (naive, events) = (run(Engine::Naive), run(Engine::Events));
        assert_eq!(observe(&events), observe(&naive), "seed {seed}");
    }
}

/// `RunResult` carries no busy or stall counters, so the cases above
/// cannot see an agent's accounting diverge; this compares every agent's
/// `stats()` directly, on an 8-core bus and an 8-core split bus (RP with
/// CBA on an LFSR bank) and on a 4×4 fabric (round robin with CBA on
/// every segment).
#[test]
fn naive_matches_events_on_every_agents_stats() {
    every_agents_stats_match(
        8,
        |seed| {
            let mut bus = Bus::new(
                BusConfig::new(8, 56).unwrap(),
                PolicyKind::RandomPermutation.build(8, 56),
            );
            bus.set_filter(Box::new(CreditFilter::new(
                CreditConfig::homogeneous(8, 56).unwrap(),
            )));
            bus.set_random_source(LfsrBank::new(16, seed).unwrap());
            bus
        },
        |bus| [bus.idle_cycles(), bus.total_cycles()],
    );
    every_agents_stats_match(
        8,
        |seed| {
            let config = SplitBusConfig {
                n_cores: 8,
                ..SplitBusConfig::paper()
            };
            let mut bus =
                SplitBus::new(config, PolicyKind::RandomPermutation.build(8, 56)).unwrap();
            bus.set_filter(Box::new(CreditFilter::new(
                CreditConfig::homogeneous(8, 56).unwrap(),
            )));
            bus.set_random_source(LfsrBank::new(16, seed).unwrap());
            bus
        },
        |bus| [bus.inner().idle_cycles(), bus.inner().total_cycles()],
    );
    every_agents_stats_match(
        16,
        |_| {
            let config = FabricConfig::new(4, 4, 56, 4, 2).unwrap();
            let policies = (0..4)
                .map(|_| PolicyKind::RoundRobin.build(4, 56))
                .collect();
            let mut fabric =
                Fabric::new(config, policies, PolicyKind::RoundRobin.build(4, 56)).unwrap();
            for k in 0..4 {
                fabric.set_cluster_filter(
                    k,
                    Box::new(CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap())),
                );
            }
            fabric.set_backbone_filter(Box::new(CreditFilter::new(
                CreditConfig::homogeneous(4, 56).unwrap(),
            )));
            fabric
        },
        |fabric| [fabric.idle_cycles(), fabric.total_cycles()],
    );
}

/// A campaign whose runs jump reports the same results on 1, 2 and 8
/// worker threads.
#[test]
fn jumping_campaign_is_deterministic_across_thread_counts() {
    let spec = jumping_spec();
    let reference = Campaign::new(spec.clone(), 16, 2017).with_threads(1).run();
    for threads in [2usize, 8] {
        let other = Campaign::new(spec.clone(), 16, 2017)
            .with_threads(threads)
            .run();
        assert_cells_identical(&reference, &other, &format!("{threads} threads"));
    }
}
