//! Reset-reuse property: driving the same model twice after `reset()`
//! must equal a freshly constructed model — the contract behind PR 3's
//! buffer-reuse paths (`GrantTrace::clear`, `Bus::reset` without
//! reallocating, `SplitBus::reset`, `Fabric::reset`).
//!
//! Each case runs a deterministic workload on a fresh model, captures an
//! observable fingerprint (traces, cycle counters, wait statistics),
//! resets, re-runs the *same* model, and requires identical fingerprints.
//! Randomized policies get their random source re-installed before every
//! run, mirroring how `run_once` seeds a fresh run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cba::{CreditConfig, CreditFilter};
use cba_bus::fabric::{Fabric, FabricConfig};
use cba_bus::split::{SplitBus, SplitBusConfig, SplitRequest};
use cba_bus::{Bus, BusConfig, BusModel, BusRequest, PolicyKind, RequestKind, RequestPort};
use cba_cpu::{Contender, FixedRequestTask};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{BoxedAgent, CoreId, Cycle, Engine, Simulation, StopWhen};

mod common;
use common::{fabric_print, CountedContender};

fn c(i: usize) -> CoreId {
    CoreId::from_index(i)
}

/// Everything observable about a bus-side run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    slots: Vec<u64>,
    busy: Vec<u64>,
    idle: u64,
    total: u64,
    granted: Vec<u64>,
    mean_wait: Vec<f64>,
    max_wait: Vec<u64>,
}

fn bus_fingerprint(bus: &Bus, n: usize) -> Fingerprint {
    let ids: Vec<CoreId> = (0..n).map(c).collect();
    Fingerprint {
        slots: ids.iter().map(|&i| bus.trace().slots(i)).collect(),
        busy: ids.iter().map(|&i| bus.trace().busy_cycles(i)).collect(),
        idle: bus.idle_cycles(),
        total: bus.total_cycles(),
        granted: ids.iter().map(|&i| bus.wait_stats().granted(i)).collect(),
        mean_wait: ids.iter().map(|&i| bus.wait_stats().mean_wait(i)).collect(),
        max_wait: ids.iter().map(|&i| bus.wait_stats().max_wait(i)).collect(),
    }
}

/// Drives `bus` with mixed periodic traffic for 5,000 cycles.
fn drive_bus(bus: &mut Bus, n: usize) {
    for now in 0..5_000u64 {
        bus.begin_cycle(now);
        for i in 0..n {
            let period = 40 + 11 * i as u64;
            if now % period == 0 && bus.can_accept(c(i)) {
                let dur = [5u32, 28, 56][i % 3];
                bus.post(BusRequest::new(c(i), dur, RequestKind::Synthetic, now).unwrap())
                    .unwrap();
            }
        }
        bus.end_cycle(now);
    }
}

#[test]
fn bus_reset_reuse_equals_fresh_model() {
    // Deterministic policies and the randomized RP (reseeded per run),
    // each with a credit filter so filter state is exercised too.
    for policy in [
        PolicyKind::RoundRobin,
        PolicyKind::Tdma,
        PolicyKind::Fifo,
        PolicyKind::FixedPriority,
        PolicyKind::RandomPermutation,
        PolicyKind::Lottery,
    ] {
        let n = 4;
        let mk = || {
            let mut bus = Bus::new(BusConfig::new(n, 56).unwrap(), policy.build(n, 56));
            bus.set_filter(Box::new(CreditFilter::new(
                CreditConfig::homogeneous(n, 56).unwrap(),
            )));
            bus
        };
        let reseed = |bus: &mut Bus| {
            bus.set_random_source(Box::new(LfsrBank::new(16, 0xDEAD).unwrap()));
        };

        let mut fresh = mk();
        reseed(&mut fresh);
        drive_bus(&mut fresh, n);
        let expected = bus_fingerprint(&fresh, n);

        let mut reused = mk();
        for round in 0..2 {
            reseed(&mut reused);
            drive_bus(&mut reused, n);
            assert_eq!(
                bus_fingerprint(&reused, n),
                expected,
                "{policy:?}: round {round} diverged from a fresh bus"
            );
            reused.reset();
        }
    }
}

#[test]
fn split_bus_reset_reuse_equals_fresh_model() {
    let mk =
        || SplitBus::new(SplitBusConfig::paper(), PolicyKind::RoundRobin.build(4, 56)).unwrap();
    let drive = |bus: &mut SplitBus| -> (Vec<(Cycle, usize)>, Fingerprint) {
        let mut completions = Vec::new();
        for now in 0..5_000u64 {
            for done in bus.tick(now) {
                completions.push((now, done.core.index()));
            }
            for i in 0..4 {
                if bus.is_idle(c(i)) && now % (30 + 7 * i as u64) == 0 {
                    let req = match i % 3 {
                        0 => SplitRequest::Immediate { duration: 6 },
                        1 => SplitRequest::Split,
                        _ => SplitRequest::Atomic { duration: 56 },
                    };
                    bus.post(c(i), req).unwrap();
                }
            }
        }
        let print = bus_fingerprint(bus.inner(), 4);
        (completions, print)
    };

    let mut fresh = mk();
    let expected = drive(&mut fresh);

    let mut reused = mk();
    for round in 0..2 {
        let got = drive(&mut reused);
        assert_eq!(got, expected, "split bus round {round} diverged");
        reused.reset();
    }
}

/// Reset-reuse through the whole open client stack: registry-built
/// agents driven by the `Simulation` facade, reset via the `SimAgent`
/// trait, must reproduce a fresh assembly bit for bit.
#[test]
fn agent_reset_reuse_through_the_simulation_facade() {
    use cba_platform::agents::default_registry;
    use cba_platform::{BusSetup, CoreLoad, PlatformConfig, PortAgent};
    use sim_core::rng::SimRng;
    use sim_core::{BoxedAgent, Engine, Simulation, StopWhen};

    let mut platform = PlatformConfig::paper(&BusSetup::Rp);
    platform.memory = Some(cba_mem::MemoryConfig {
        working_set: 1024,
        accesses: 150,
        think: 2,
        l1_sets: 16,
        l1_ways: 2,
        ..Default::default()
    });
    let loads = [
        CoreLoad::FixedTask {
            n_requests: 50,
            duration: 6,
            gap: 4,
        },
        CoreLoad::Periodic {
            duration: 28,
            period: 90,
            phase: 3,
        },
        CoreLoad::Custom {
            kind: "shared".into(),
            args: Vec::new(),
        },
        CoreLoad::Custom {
            kind: "mem".into(),
            args: Vec::new(),
        },
    ];
    let build_agents = || -> Vec<BoxedAgent<Bus>> {
        loads
            .iter()
            .enumerate()
            .map(|(i, load)| {
                let mut rng = SimRng::seed_from(31).fork(0xC0 + i as u64);
                let inner = default_registry()
                    .build(load, c(i), &platform, &mut rng)
                    .expect("builtin kinds");
                Box::new(PortAgent::new(inner)) as BoxedAgent<Bus>
            })
            .collect()
    };
    let build_bus = || {
        let mut bus = Bus::new(
            BusConfig::new(4, 56).unwrap(),
            PolicyKind::RoundRobin.build(4, 56),
        );
        bus.set_filter(Box::new(CreditFilter::new(
            CreditConfig::homogeneous(4, 56).unwrap(),
        )));
        bus
    };
    let run = |bus: Bus, agents: Vec<BoxedAgent<'static, Bus>>| -> (Fingerprint, Simulation<Bus>) {
        let mut sim = Simulation::builder()
            .model(bus)
            .agents(agents)
            .stop(StopWhen::Horizon(5_000))
            .engine(Engine::Events)
            .max_cycles(10_000)
            .build();
        sim.run();
        let print = bus_fingerprint(sim.model(), 4);
        (print, sim)
    };

    let (expected, _) = run(build_bus(), build_agents());
    // Reuse the *same* model and agents across two more rounds.
    let (got, sim) = run(build_bus(), build_agents());
    assert_eq!(got, expected);
    let (mut bus, mut agents, _) = sim.into_parts();
    for round in 0..2 {
        bus.reset();
        for (i, agent) in agents.iter_mut().enumerate() {
            let mut rng = SimRng::seed_from(31).fork(0xC0 + i as u64);
            agent.reset(&mut rng);
        }
        let (got, sim) = run(bus, agents);
        assert_eq!(got, expected, "facade round {round} diverged");
        (bus, agents, _) = sim.into_parts();
    }
}

#[test]
fn fabric_reset_reuse_equals_fresh_model() {
    let mk = || {
        let config = FabricConfig::new(2, 2, 56, 2, 2).unwrap();
        let policies = (0..2)
            .map(|_| PolicyKind::RoundRobin.build(2, 56))
            .collect();
        let mut fabric =
            Fabric::new(config, policies, PolicyKind::RoundRobin.build(2, 56)).unwrap();
        fabric.set_backbone_filter(Box::new(CreditFilter::new(
            CreditConfig::weighted(56, vec![3, 1], 4).unwrap(),
        )));
        fabric
    };
    let drive = |fabric: &mut Fabric| -> (Vec<u64>, Vec<u64>, u64, u64) {
        for now in 0..5_000u64 {
            fabric.begin_cycle(now);
            for i in 0..4 {
                if RequestPort::can_accept(fabric, c(i)) && now % (20 + 9 * i as u64) == 0 {
                    RequestPort::post(
                        fabric,
                        BusRequest::new(c(i), [5u32, 28][i % 2], RequestKind::Synthetic, now)
                            .unwrap(),
                    )
                    .unwrap();
                }
            }
            fabric.end_cycle(now);
        }
        (
            (0..4).map(|i| fabric.trace().slots(c(i))).collect(),
            (0..4).map(|i| fabric.trace().busy_cycles(c(i))).collect(),
            fabric.idle_cycles(),
            fabric.total_cycles(),
        )
    };

    let mut fresh = mk();
    let expected = drive(&mut fresh);

    let mut reused = mk();
    for round in 0..2 {
        let got = drive(&mut reused);
        assert_eq!(got, expected, "fabric round {round} diverged");
        reused.reset();
    }
}

/// Reset-reuse after a limit-cycle jump: a `Simulation` over a fabric
/// whose run jumps, reset together with its agents and with its random
/// sources reinstalled, runs again exactly like a freshly built fabric,
/// on every counter of every segment.
#[test]
fn fabric_reset_reuse_after_a_jump_equals_fresh_model() {
    let jumps = Arc::new(AtomicU64::new(0));
    let mk = || {
        let config = FabricConfig::new(4, 2, 56, 4, 4).unwrap();
        let policies = (0..4)
            .map(|_| PolicyKind::RoundRobin.build(2, 56))
            .collect();
        let mut fabric =
            Fabric::new(config, policies, PolicyKind::RoundRobin.build(4, 56)).unwrap();
        for k in 0..4 {
            let credit = CreditConfig::homogeneous(2, 56).unwrap();
            fabric.set_cluster_filter(k, Box::new(CreditFilter::new(credit)));
        }
        let weighted = CreditConfig::weighted(56, vec![4, 2, 1, 1], 8)
            .and_then(|w| w.with_cap_multipliers(vec![4; 4]))
            .unwrap();
        fabric.set_backbone_filter(Box::new(CreditFilter::new(weighted)));
        fabric
    };
    let reseed = |fabric: &mut Fabric| {
        fabric.set_backbone_random_source(Box::new(LfsrBank::new(16, 0xB0).unwrap()));
        for k in 0..4 {
            let bank = LfsrBank::new(16, 0xC1 + k as u64).unwrap();
            fabric.set_cluster_random_source(k, Box::new(bank));
        }
    };
    // A fixed-request TuA against saturating contenders, one of which
    // counts the jumps.
    let agents = || -> Vec<BoxedAgent<Fabric>> {
        let counted = CountedContender {
            inner: Contender::new(c(2), 56),
            jumps: jumps.clone(),
        };
        let mut agents: Vec<BoxedAgent<Fabric>> = vec![
            Box::new(FixedRequestTask::new(c(0), 300, 6, 0)),
            Box::new(Contender::new(c(1), 1)),
            Box::new(counted),
        ];
        for (i, duration) in [56, 23, 5, 2, 5].into_iter().enumerate() {
            agents.push(Box::new(Contender::new(c(3 + i), duration)));
        }
        agents
    };
    let run = |fabric: Fabric, agents: Vec<BoxedAgent<'static, Fabric>>| {
        let mut sim = Simulation::builder()
            .model(fabric)
            .agents(agents)
            .stop(StopWhen::AgentDone(0))
            .engine(Engine::Events)
            .max_cycles(10_000_000)
            .build();
        let outcome = sim.run();
        assert!(jumps.swap(0, Ordering::Relaxed) > 0, "the run took no jump");
        ((outcome, fabric_print(sim.model())), sim)
    };

    let mut fresh = mk();
    reseed(&mut fresh);
    let (expected, sim) = run(fresh, agents());
    let (mut fabric, mut agents, _) = sim.into_parts();
    for round in 0..2 {
        fabric.reset();
        reseed(&mut fabric);
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.reset(&mut SimRng::seed_from(31).fork(0xC0 + i as u64));
        }
        let (got, sim) = run(fabric, agents);
        assert_eq!(got, expected, "fabric round {round} diverged after a jump");
        (fabric, agents, _) = sim.into_parts();
    }
}
