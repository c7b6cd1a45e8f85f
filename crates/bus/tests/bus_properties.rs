//! Property-based tests of the bus model: conservation laws and ordering
//! guarantees under randomized request patterns.
//!
//! The workspace builds offline, so instead of `proptest` these properties
//! are exercised over deterministic families of random inputs drawn from
//! [`SimRng`]: every case is reproducible from its seed, and a failure
//! message names the seed that produced it.

use cba_bus::{
    Bus, BusConfig, BusModel, BusRequest, CompletedTransaction, Control, PolicyKind, RequestKind,
    RequestPort,
};
use sim_core::agent::FnAgent;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Cycle, Engine, Simulation};

/// A randomized client schedule: per core, a list of (think-time, duration)
/// pairs issued sequentially (blocking, like a real core).
#[derive(Debug, Clone)]
struct Schedule {
    jobs: Vec<Vec<(u32, u32)>>,
}

fn random_schedule(n_cores: usize, seed: u64) -> Schedule {
    let mut rng = SimRng::seed_from(seed);
    let jobs = (0..n_cores)
        .map(|_| {
            let n_jobs = rng.gen_range_usize(0..20);
            (0..n_jobs)
                .map(|_| {
                    (
                        rng.gen_range_u64(0..40) as u32,
                        rng.gen_range_u64(1..57) as u32,
                    )
                })
                .collect()
        })
        .collect();
    Schedule { jobs }
}

/// Drives the schedule to completion on the per-cycle engine; returns
/// (bus, completions per core).
fn run_schedule(kind: PolicyKind, schedule: &Schedule) -> (Bus, Vec<u64>) {
    let n = schedule.jobs.len();
    let mut bus = Bus::new(BusConfig::new(n, 56).unwrap(), kind.build(n, 56));
    bus.enable_recording_trace();
    let mut idx = vec![0usize; n];
    let mut think = vec![0u32; n];
    let mut waiting = vec![false; n];
    let mut completions = vec![0u64; n];
    for (i, t) in think.iter_mut().enumerate() {
        *t = schedule.jobs[i].first().map(|j| j.0).unwrap_or(0);
    }
    let client = |bus: &mut Bus, now, done: Option<&CompletedTransaction>| {
        if let Some(ct) = done {
            let i = ct.core.index();
            completions[i] += 1;
            waiting[i] = false;
            idx[i] += 1;
            if let Some(job) = schedule.jobs[i].get(idx[i]) {
                think[i] = job.0;
            }
        }
        for i in 0..n {
            if waiting[i] || idx[i] >= schedule.jobs[i].len() {
                continue;
            }
            if think[i] > 0 {
                think[i] -= 1;
                continue;
            }
            let (_, dur) = schedule.jobs[i][idx[i]];
            bus.post(BusRequest::new(
                CoreId::from_index(i),
                dur,
                RequestKind::Synthetic,
                now,
            ))
            .unwrap();
            waiting[i] = true;
        }
        if (0..n).all(|i| idx[i] >= schedule.jobs[i].len()) {
            Control::Stop
        } else {
            Control::Continue
        }
    };
    let (bus, ..) = Simulation::builder()
        .model(bus)
        .agent(FnAgent(client))
        .engine(Engine::Naive)
        .max_cycles(200_000)
        .run()
        .into_parts();
    (bus, completions)
}

/// Every posted job is eventually served exactly once, under every
/// work-conserving policy.
#[test]
fn all_jobs_complete_exactly_once() {
    for seed in 0..48u64 {
        let schedule = random_schedule(4, seed);
        for kind in [
            PolicyKind::Fifo,
            PolicyKind::RoundRobin,
            PolicyKind::Lottery,
            PolicyKind::RandomPermutation,
        ] {
            let (_bus, completions) = run_schedule(kind, &schedule);
            for (i, jobs) in schedule.jobs.iter().enumerate() {
                assert_eq!(
                    completions[i] as usize,
                    jobs.len(),
                    "seed {seed}, {}: core {i} served {} of {} jobs",
                    kind.name(),
                    completions[i],
                    jobs.len()
                );
            }
        }
    }
}

/// Conservation: busy cycles equal the sum of granted durations, and
/// transactions never overlap on the bus.
#[test]
fn cycle_accounting_balances() {
    for seed in 100..148u64 {
        let schedule = random_schedule(3, seed);
        let (bus, _) = run_schedule(PolicyKind::RoundRobin, &schedule);
        let records = bus.trace().records().unwrap();
        let busy_from_records: u64 = records.iter().map(|r| r.duration as u64).sum();
        assert_eq!(
            bus.trace().total_busy_cycles(),
            busy_from_records,
            "seed {seed}"
        );
        // Transactions never overlap: each grant starts at or after the
        // previous one's end.
        for pair in records.windows(2) {
            assert!(
                pair[1].start >= pair[0].start + pair[0].duration as u64,
                "seed {seed}: overlapping grants: {pair:?}"
            );
        }
    }
}

/// FIFO produces a time-ordered trace with non-negative waits.
#[test]
fn fifo_grants_in_arrival_order() {
    for seed in 200..248u64 {
        let schedule = random_schedule(4, seed);
        let (bus, _) = run_schedule(PolicyKind::Fifo, &schedule);
        let records = bus.trace().records().unwrap();
        for pair in records.windows(2) {
            assert!(pair[0].start <= pair[1].start, "seed {seed}");
        }
    }
}

/// No single core can be starved by round-robin: the gap between two
/// consecutive grants to a persistently-requesting core is bounded by
/// one MaxL transaction per other core plus its own.
#[test]
fn round_robin_bounds_service_gaps() {
    for seed in 300..332u64 {
        let mut rng = SimRng::seed_from(seed);
        let n_jobs = rng.gen_range_usize(8..40);
        let durations: Vec<u32> = (0..n_jobs)
            .map(|_| rng.gen_range_u64(1..57) as u32)
            .collect();

        // One persistent short-request core against three MaxL hogs.
        let n = 4;
        let mut bus = Bus::new(
            BusConfig::new(n, 56).unwrap(),
            PolicyKind::RoundRobin.build(n, 56),
        );
        bus.enable_recording_trace();
        let mut di = 0usize;
        // Core 0's outstanding job: its post cycle.
        let mut posted_at: Option<Cycle> = None;
        let mut served = 0usize;
        let mut worst_wait: Cycle = 0;
        let client = |bus: &mut Bus, now, done: Option<&CompletedTransaction>| {
            if let Some(ct) = done {
                if ct.core.index() == 0 {
                    served += 1;
                    // Granted `duration` cycles before it completed.
                    let granted = now - Cycle::from(ct.duration);
                    worst_wait = worst_wait.max(granted - posted_at.take().unwrap());
                }
            }
            if posted_at.is_none() && di < durations.len() {
                let d = durations[di];
                di += 1;
                bus.post(BusRequest::new(
                    CoreId::from_index(0),
                    d,
                    RequestKind::Synthetic,
                    now,
                ))
                .unwrap();
                posted_at = Some(now);
            }
            for i in 1..n {
                let c = CoreId::from_index(i);
                if !bus.has_pending(c) && bus.owner() != Some(c) {
                    bus.post(BusRequest::new(c, 56, RequestKind::Contender, now))
                        .unwrap();
                }
            }
            if served == durations.len() {
                Control::Stop
            } else {
                Control::Continue
            }
        };
        Simulation::builder()
            .model(bus)
            .agent(FnAgent(client))
            .engine(Engine::Naive)
            .max_cycles(60_000)
            .run();
        assert_eq!(
            served,
            durations.len(),
            "seed {seed}: core 0 starved under RR"
        );
        // Worst grant latency of core 0 is bounded by (N-1) full MaxL
        // transactions plus one residual.
        assert!(worst_wait <= 4 * 56, "seed {seed}: waited {worst_wait}");
    }
}
