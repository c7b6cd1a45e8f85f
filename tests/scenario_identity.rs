//! Engine identity on the shipped scenarios: for run 0 of every cell of
//! every `scenarios/*.scn`, the per-cycle reference loop (`engine =
//! naive`) and the default events engine return identical `RunResult`s,
//! bit for bit.
//!
//! The events engine skips uneventful cycle ranges and, once a run settles
//! into a limit cycle, jumps whole periods (`fairness_sweep` and
//! `scaling_16core` are where the jump fires). Both shortcuts must be
//! invisible in every counter, wait statistic, trace metric and windowed
//! sample. The spec-level cases below cover the shapes the jump must
//! either reproduce exactly or decline: paper cells, a mixed round-robin
//! run where it fires, windows, recording traces and a fabric.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cba::{CreditConfig, CreditFilter};
use cba_bus::fabric::{Fabric, FabricConfig};
use cba_bus::{Bus, BusConfig, BusModel, CompletedTransaction, PolicyKind, RequestPort};
use cba_cpu::{Contender, FixedRequestTask, PeriodicContender};
use cba_platform::agents::default_registry;
use cba_platform::campaign::run_seed;
use cba_platform::config::{FabricTopology, PlatformConfig};
use cba_platform::scenario::{parse_engine, ScenarioDef};
use cba_platform::{
    run_once, run_once_with, AgentCtx, AgentRegistry, BusSetup, Campaign, CoreLoad, DriveMode,
    PortAgent, RunResult, RunSpec, Scenario, StopCondition,
};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{BoxedAgent, Control, CoreId, Cycle, Engine, Simulation, StopWhen};

/// Runs `spec` under the naive engine and the default engine with the
/// same seed.
fn both(spec: &RunSpec, seed: u64) -> (RunResult, RunResult) {
    let mut naive = spec.clone();
    naive.drive = DriveMode::Naive;
    let mut events = spec.clone();
    events.drive = DriveMode::default();
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
    assert!(paths.len() >= 11, "shipped scenarios missing: {paths:?}");
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let def = ScenarioDef::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for cell in def.expand().unwrap_or_else(|e| panic!("{name}: {e}")) {
            let (naive, events) = both(&cell.spec, run_seed(cell.seed, 0));
            assert_eq!(naive, events, "{name} {:?}: engines diverged", cell.labels);
        }
    }
}

#[test]
fn fluid_is_an_alias_of_the_events_engine() {
    assert_eq!(parse_engine("fluid"), Ok(DriveMode::Events));
    assert_eq!(parse_engine("FLUID"), Ok(DriveMode::Events));
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
        CoreLoad::named("matrix"),
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

/// A saturating contender that counts the limit-cycle jumps it takes part
/// in, so a test can see the jump fire on the real bus.
struct CountedContender {
    inner: Contender,
    jumps: Arc<AtomicU64>,
}

impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for CountedContender {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        SimAgent::tick(&mut self.inner, now, completed, port)
    }
    fn is_done(&self) -> bool {
        false
    }
    fn reset(&mut self, rng: &mut SimRng) {
        SimAgent::<P, _>::reset(&mut self.inner, rng);
    }
    fn stats(&self) -> AgentStats {
        SimAgent::<P, _>::stats(&self.inner)
    }
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        SimAgent::<P, _>::limit_cycle_state(&self.inner, now, state, counters)
    }
    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        self.jumps.fetch_add(1, Ordering::Relaxed);
        SimAgent::<P, _>::limit_cycle_jump(&mut self.inner, periods, shift, deltas);
    }
}

/// The jump fires on the platform's real `Bus` (round robin with and
/// without the credit filter), through `run_once` and through a
/// `Simulation` assembled by hand, and stays bit-identical to the naive
/// loop: run results, every counter the bus keeps, every agent's stats.
#[test]
fn the_jump_fires_on_the_real_bus() {
    let jumps = Arc::new(AtomicU64::new(0));
    let counted = |jumps: &Arc<AtomicU64>, core| CountedContender {
        inner: Contender::new(core, 56),
        jumps: jumps.clone(),
    };
    let mut registry = AgentRegistry::builtin();
    let counter = jumps.clone();
    registry.register("counted", move |ctx: &mut AgentCtx<'_>| {
        Ok(Box::new(counted(&counter, ctx.core)))
    });
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
        spec.drive = DriveMode::Naive;
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
                .agent(Contender::new(c(1), 28))
                .agent(PeriodicContender::new(c(2), 8, 100, 13))
                .agent(counted(&jumps, c(3)))
                .stop(StopWhen::AgentDone(0))
                .engine(engine)
                .max_cycles(10_000_000)
                .run()
        };
        let observe = |sim: &Simulation<Bus>| {
            let (bus, wait) = (sim.model(), sim.model().wait_stats());
            let trace = bus.trace();
            let per_core = CoreId::all(4).map(|c| {
                let totals = (trace.slots(c), trace.busy_cycles(c));
                (totals, wait.granted(c), wait.mean_wait(c), wait.max_wait(c))
            });
            let per_core: Vec<_> = per_core.collect();
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

/// Every shipped agent kind on `n` cores, built through the registry and
/// bridged by `PortAgent`: the list `bench`, `stream`, `sat`, `per`,
/// `fixed`, `mem`, `shared`, `shared` repeats to fill the cores, every
/// `shared` agent on the run's one coherence hub, and each agent draws
/// its own stream of `seed`.
fn every_kind<M>(n: usize, seed: u64) -> Vec<BoxedAgent<M>>
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
        CoreLoad::named("rspeed"),
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
                .build_shared(load, core, &platform, Some(hub.clone()), &mut rng)
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
/// `stats()` directly, on an 8-core bus (RP with CBA) and on a 4×4
/// fabric (round robin with CBA on every segment).
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
            bus.set_random_source(Box::new(LfsrBank::new(16, seed).unwrap()));
            bus
        },
        |bus| [bus.idle_cycles(), bus.total_cycles()],
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
        assert_eq!(
            reference.results(),
            other.results(),
            "campaign differs between 1 and {threads} threads"
        );
        assert_eq!(reference.mean(), other.mean(), "{threads} threads: mean");
    }
}
