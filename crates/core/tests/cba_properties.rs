//! Property-based tests of the credit mechanism wired to a real bus:
//! budget-cap safety, the steady-state bandwidth bound, entitlement
//! enforcement and starvation freedom under randomized configurations and
//! workloads.
//!
//! The workspace builds offline, so instead of `proptest` these properties
//! are exercised over deterministic families of random inputs drawn from
//! [`SimRng`]: every case is reproducible from its seed, and a failure
//! message names the seed that produced it.

use cba::{CreditConfig, CreditFilter, Mode};
use cba_bus::{
    Bus, BusConfig, BusRequest, CompletedTransaction, Control, EligibilityFilter, PendingSet,
    PolicyKind, RequestKind,
};
use sim_core::agent::FnAgent;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Cycle, Engine, Simulation};

const MAXL: u32 = 56;

/// Random weighted credit configuration for `n` cores.
fn random_weighted_config(n: usize, rng: &mut SimRng) -> CreditConfig {
    let nums: Vec<u32> = (0..n).map(|_| rng.gen_range_u64(1..5) as u32).collect();
    let den: u32 = nums.iter().sum();
    CreditConfig::weighted(MAXL, nums, den).expect("sums match by construction")
}

/// Random per-core saturating request durations in `1..=MaxL`.
fn random_durations(n: usize, rng: &mut SimRng) -> Vec<u32> {
    (0..n)
        .map(|_| rng.gen_range_u64(1..MAXL as u64 + 1) as u32)
        .collect()
}

/// Saturates every core with `durations[i]`-cycle requests under the given
/// filter for `horizon` cycles; returns the driven bus.
fn saturate(config: &CreditConfig, policy: PolicyKind, durations: &[u32], horizon: u64) -> Bus {
    let n = durations.len();
    let mut bus = Bus::new(BusConfig::new(n, MAXL).unwrap(), policy.build(n, MAXL));
    bus.set_filter(Box::new(CreditFilter::new(config.clone())));
    let saturating = |bus: &mut Bus, now: Cycle, _: Option<&CompletedTransaction>| {
        for (i, &d) in durations.iter().enumerate() {
            let c = CoreId::from_index(i);
            if !bus.has_pending(c) && bus.owner() != Some(c) {
                bus.post(BusRequest::new(c, d, RequestKind::Synthetic, now).unwrap())
                    .unwrap();
            }
        }
        Control::Continue
    };
    let (bus, ..) = Simulation::builder()
        .model(bus)
        .agent(FnAgent(saturating))
        .engine(Engine::Naive)
        .max_cycles(horizon)
        .run()
        .into_parts();
    bus
}

/// CBA invariant 1: a core's budget register never exceeds its configured
/// cap, whatever (randomized) sequence of holds and idle cycles it sees.
#[test]
fn budgets_never_exceed_the_configured_cap() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from(seed);
        let config = random_weighted_config(4, &mut rng);
        let mut filter = CreditFilter::new(config.clone());
        let empty = PendingSet::new(4);
        // Random owner sequence: bursts of one core holding, idle gaps.
        let mut now = 0u64;
        while now < 20_000 {
            let owner = if rng.gen_bool(0.7) {
                Some(CoreId::from_index(rng.gen_range_usize(0..4)))
            } else {
                None
            };
            let burst = rng.gen_range_u64(1..MAXL as u64 + 1);
            for _ in 0..burst {
                filter.tick(now, owner, &empty);
                now += 1;
                for core in CoreId::all(4) {
                    assert!(
                        filter.budget(core) <= config.scaled_cap(core),
                        "seed {seed}, cycle {now}: {core} budget {} above cap {}",
                        filter.budget(core),
                        config.scaled_cap(core)
                    );
                }
            }
        }
    }
}

/// CBA invariant 2: in steady state no core's busy-cycle share exceeds
/// `1/N + ε` under any baseline arbitration policy, for homogeneous CBA
/// with saturating cores of any duration mix.
#[test]
fn steady_state_share_bounded_by_one_over_n() {
    let n = 4;
    let horizon = 60_000u64;
    // ε: one full-budget burst at the start of the run plus one in-flight
    // transaction can overhang the 1/N entitlement.
    let epsilon = (2 * MAXL) as f64 / horizon as f64 + 0.005;
    let config = CreditConfig::homogeneous(n, MAXL).unwrap();
    for (case, seed) in (0..6u64).enumerate() {
        let mut rng = SimRng::seed_from(1_000 + seed);
        let durations = random_durations(n, &mut rng);
        for kind in PolicyKind::ALL {
            let bus = saturate(&config, kind, &durations, horizon);
            for (i, &dur) in durations.iter().enumerate() {
                let share = bus.trace().busy_cycles(CoreId::from_index(i)) as f64 / horizon as f64;
                assert!(
                    share <= 1.0 / n as f64 + epsilon,
                    "case {case}, {}: core {i} (dur {dur}) took {share:.4} > 1/{n}+ε",
                    kind.name(),
                );
            }
        }
    }
}

/// The entitlement law: under any weighted configuration and any
/// request-duration mix, no saturating core exceeds its `num/den`
/// share of total cycles (plus one in-flight transaction).
#[test]
fn no_core_exceeds_its_entitlement() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from(seed);
        let config = random_weighted_config(4, &mut rng);
        let durations = random_durations(4, &mut rng);
        let horizon = 60_000u64;
        let bus = saturate(&config, PolicyKind::RoundRobin, &durations, horizon);
        for i in 0..4 {
            let core = CoreId::from_index(i);
            let b = bus.trace().busy_cycles(core);
            let entitlement = config.bandwidth_fraction(core);
            assert!(
                b as f64 <= entitlement * horizon as f64 + f64::from(MAXL),
                "seed {seed}: core {i} used {b} of {horizon} cycles, entitlement {entitlement}"
            );
        }
    }
}

/// Starvation freedom: every saturating core keeps receiving grants
/// (slot counts all positive) regardless of duration mix.
#[test]
fn every_core_keeps_being_served() {
    for seed in 100..132u64 {
        let mut rng = SimRng::seed_from(seed);
        let config = random_weighted_config(4, &mut rng);
        let durations = random_durations(4, &mut rng);
        let bus = saturate(&config, PolicyKind::RoundRobin, &durations, 60_000);
        for i in 0..4 {
            assert!(
                bus.trace().slots(CoreId::from_index(i)) > 10,
                "seed {seed}: core {i} starved: {:?} slots",
                bus.trace().slots(CoreId::from_index(i))
            );
        }
    }
}

/// WCET-estimation mode: the TuA's first grant never arrives before its
/// zero-started budget fills, for any weighted configuration.
#[test]
fn wcet_mode_first_tua_grant_respects_fill_time() {
    for seed in 200..232u64 {
        let mut rng = SimRng::seed_from(seed);
        let config = random_weighted_config(4, &mut rng);
        let tua = CoreId::from_index(0);
        let mut bus = Bus::new(
            BusConfig::new(4, MAXL).unwrap(),
            PolicyKind::RoundRobin.build(4, MAXL),
        );
        let threshold = config.scaled_threshold();
        let num = config.numerator(tua) as u64;
        let fill = threshold.div_ceil(num);
        bus.set_filter(Box::new(CreditFilter::with_mode(
            config,
            Mode::WcetEstimation { tua },
        )));
        bus.enable_recording_trace();
        // TuA posts immediately and persistently; no contenders.
        let mut pending = false;
        let mut first_grant = None;
        let tua_client = |bus: &mut Bus, now: Cycle, done: Option<&CompletedTransaction>| {
            if let Some(ct) = done {
                if ct.core == tua {
                    pending = false;
                }
            }
            if !pending && bus.owner() != Some(tua) {
                bus.post(BusRequest::new(tua, 5, RequestKind::Synthetic, now).unwrap())
                    .unwrap();
                pending = true;
            }
            if first_grant.is_none() {
                if let Some(records) = bus.trace().records() {
                    if let Some(r) = records.first() {
                        first_grant = Some(r.start);
                    }
                }
            }
            Control::Continue
        };
        Simulation::builder()
            .model(bus)
            .agent(FnAgent(tua_client))
            .engine(Engine::Naive)
            .max_cycles(3 * fill)
            .run();
        let first = first_grant.expect("TuA granted within 3 fill times");
        assert!(
            first >= fill - 1,
            "seed {seed}: first grant at {first}, budget fill needs {fill} cycles"
        );
    }
}
