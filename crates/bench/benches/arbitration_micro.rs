//! Criterion microbenchmarks of the arbitration-path primitives: policy
//! selection, the LFSR bank the platform draws from by default,
//! credit-filter eligibility/tick, and a full bus cycle. These quantify the
//! software cost of the "one clock cycle" hardware decision.

use cba::{CreditConfig, CreditFilter};
use cba_bus::{Bus, BusConfig, Candidate, EligibilityFilter, PendingSet, PolicyKind, RandomSource};
use cba_cpu::Contender;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Engine, Simulation};
use std::hint::black_box;

fn candidates(n: usize) -> Vec<Candidate> {
    (0..n)
        .map(|i| Candidate {
            core: CoreId::from_index(i),
            issued_at: 0,
            duration: 56,
        })
        .collect()
}

/// Times one select-and-grant round of `kind` over four candidates.
fn bench_select(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    kind: PolicyKind,
    rng: &mut dyn RandomSource,
) {
    let cands = candidates(4);
    let mut policy = kind.build(4, 56);
    let mut t = 0u64;
    group.bench_function(name, |b| {
        b.iter(|| {
            let w = policy.select(black_box(&cands), t, rng);
            if let Some(core) = w {
                policy.on_grant(core, t);
            }
            t += 1;
            black_box(w)
        })
    });
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_select");
    for kind in PolicyKind::ALL {
        bench_select(&mut group, kind.name(), kind, &mut SimRng::seed_from(7));
    }
    group.finish();
}

/// The hardware-faithful random source (`lfsr = on`, the platform
/// default): RP and lottery drawing from a 16-lane bank, one bank cycle,
/// and building a bank, which every run does whether it draws or not.
fn bench_lfsr_bank(c: &mut Criterion) {
    let mut group = c.benchmark_group("lfsr_bank");
    for kind in [PolicyKind::RandomPermutation, PolicyKind::Lottery] {
        let name = format!("{}_select", kind.name());
        bench_select(&mut group, &name, kind, &mut LfsrBank::new(16, 7).unwrap());
    }
    let mut bank = LfsrBank::new(16, 7).unwrap();
    group.bench_function("next_bits", |b| b.iter(|| bank.next_bits()));
    let mut seed = 0u64;
    group.bench_function("new_16", |b| {
        b.iter(|| {
            seed += 1;
            LfsrBank::new(16, black_box(seed))
        })
    });
    group.finish();
}

fn bench_credit_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("credit_filter");
    let pending = PendingSet::new(4);
    let mut filter = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
    group.bench_function("tick", |b| {
        let mut t = 0u64;
        b.iter(|| {
            filter.tick(t, Some(CoreId::from_index(0)), black_box(&pending));
            t += 1;
        })
    });
    group.bench_function("is_eligible_x4", |b| {
        b.iter(|| {
            let mut mask = 0u8;
            for i in 0..4 {
                if filter.is_eligible(CoreId::from_index(i), 0) {
                    mask |= 1 << i;
                }
            }
            black_box(mask)
        })
    });
    group.finish();
}

fn bench_bus_cycle(c: &mut Criterion) {
    // Timed through the naive engine of `Simulation::run`, so every cycle
    // is stepped: each sample drives a bus saturated by four 28-cycle
    // contenders for CYCLES_PER_ITER cycles, so divide the reported time
    // accordingly for the per-cycle cost.
    const CYCLES_PER_ITER: u64 = 4096;
    let mut group = c.benchmark_group("bus_cycle");
    for (label, with_cba) in [("rp_x4096", false), ("rp_cba_x4096", true)] {
        let mut bus = Bus::new(
            BusConfig::new(4, 56).unwrap(),
            PolicyKind::RandomPermutation.build(4, 56),
        );
        if with_cba {
            bus.set_filter(Box::new(CreditFilter::new(
                CreditConfig::homogeneous(4, 56).unwrap(),
            )));
        }
        let mut builder = Simulation::builder()
            .model(bus)
            .engine(Engine::Naive)
            .max_cycles(CYCLES_PER_ITER);
        for i in 0..4 {
            builder = builder.agent(Contender::new(CoreId::from_index(i), 28));
        }
        let mut sim = builder.build();
        let mut rng = SimRng::seed_from(0);
        group.bench_function(label, |b| {
            b.iter(|| {
                sim.model_mut().reset();
                for agent in sim.agents_mut() {
                    agent.reset(&mut rng);
                }
                black_box(sim.run())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_lfsr_bank,
    bench_credit_filter,
    bench_bus_cycle
);
criterion_main!(benches);
