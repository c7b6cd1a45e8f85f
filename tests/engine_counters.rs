//! The events engine's work counters (`Simulation::counters`) on the core
//! model: how many cycles a run executes and how often it ticks the task
//! under analysis, against the dense naive loop.
//!
//! The core folds its private work (compute ops and L1 hits) into one
//! stretch that ends with the first op needing the bus, so the engine
//! ticks it about twice per bus transaction: once to fetch and fold, once
//! to post (or at the completion that unblocks it).

use cba_bus::{Bus, BusConfig, PolicyKind};
use cba_cpu::{Core, FixedRequestTask};
use cba_mem::{HierarchyConfig, LatencyModel};
use sim_core::agent::AgentStats;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Engine, EngineCounters, Simulation, StopWhen};

/// The `matrix` benchmark through the core model on core 0 of an RP bus,
/// beside `contenders` saturating 56-cycle contenders, until it is done.
fn matrix_run(contenders: usize, engine: Engine) -> Simulation<'static, Bus> {
    let n = 1 + contenders;
    let mut rng = SimRng::seed_from(2017);
    let program = cba_workloads::by_name("matrix").expect("catalog benchmark");
    let tua = Core::new(
        CoreId::from_index(0),
        program,
        &HierarchyConfig::paper(),
        LatencyModel::paper(),
        &mut rng,
    );
    let mut bus = Bus::new(
        BusConfig::new(n, 56).unwrap(),
        PolicyKind::RandomPermutation.build(n, 56),
    );
    bus.set_random_source(Box::new(rng.fork(0xA9)));
    let mut builder = Simulation::builder()
        .model(bus)
        .agent(tua)
        .stop(StopWhen::AgentDone(0))
        .engine(engine)
        .max_cycles(50_000_000);
    for i in 1..n {
        builder = builder.agent(FixedRequestTask::saturating(CoreId::from_index(i), 56));
    }
    builder.run()
}

fn observed(sim: &Simulation<Bus>) -> (sim_core::DriveOutcome, Vec<AgentStats>) {
    let stats = sim.agents().iter().map(|a| a.stats()).collect();
    (sim.outcome(), stats)
}

#[test]
fn the_core_model_is_ticked_about_twice_per_transaction() {
    for contenders in [0, 3] {
        let naive = matrix_run(contenders, Engine::Naive);
        let events = matrix_run(contenders, Engine::Events);
        assert_eq!(
            observed(&events),
            observed(&naive),
            "{contenders} contenders"
        );

        // The dense reference executes every cycle and ticks every agent
        // at each; the counts describe work, not the simulated run.
        let cycles = naive.outcome().cycles;
        let dense = naive.counters();
        assert_eq!(
            *dense,
            EngineCounters {
                executed_cycles: cycles,
                skipped_cycles: 0,
                ticks: vec![cycles; 1 + contenders],
            }
        );
        let sparse = events.counters();
        assert_eq!(sparse.executed_cycles + sparse.skipped_cycles, cycles);
        assert!(
            sparse.executed_cycles < cycles / 2,
            "{sparse:?} over {cycles} cycles"
        );

        let posted = events.agent(0).stats().completed;
        let ticks = sparse.ticks[0];
        assert!(posted > 1_000, "matrix posts thousands of transactions");
        assert!(
            ticks < 3 * posted,
            "{contenders} contenders: the TuA was ticked {ticks} times for {posted} transactions"
        );
    }
}
