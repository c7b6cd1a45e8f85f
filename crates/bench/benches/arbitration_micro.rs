//! Microbenchmarks of the arbitration-path primitives: policy selection,
//! the LFSR bank the platform draws from by default, credit-filter
//! eligibility/tick, one whole filter+select+tick decision and a full bus
//! cycle. These quantify the software cost of the "one clock cycle"
//! hardware decision (EXPERIMENTS.md E5 (b)). Every row is timed by
//! [`cba_bench::timing::time`] and prints `median [q1, q3] (min–max)`
//! per call over [`SAMPLES`] samples, after a line naming the host.

use cba::{CreditConfig, CreditFilter};
use cba_bench::timing::{host, time};
use cba_bus::{Bus, BusConfig, Candidate, EligibilityFilter, PendingSet, PolicyKind, RandomSource};
use cba_cpu::Contender;
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Engine, Simulation};
use std::hint::black_box;

/// Samples per row.
const SAMPLES: usize = 50;

/// Times `body` and prints its row.
fn bench<R>(name: &str, body: impl FnMut() -> R) {
    println!("{name:<40} {}", time(SAMPLES, body));
}

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
fn bench_select(name: &str, kind: PolicyKind, rng: &mut dyn RandomSource) {
    let cands = candidates(4);
    let mut policy = kind.build(4, 56);
    let mut t = 0u64;
    bench(name, || {
        let w = policy.select(black_box(&cands), t, rng);
        if let Some(core) = w {
            policy.on_grant(core, t);
        }
        t += 1;
        w
    });
}

/// The hardware-faithful random source (`lfsr = on`, the platform
/// default): RP and lottery drawing from a 16-lane bank, one bank cycle,
/// and building a bank, which every run does whether it draws or not.
fn bench_lfsr_bank() {
    for kind in [PolicyKind::RandomPermutation, PolicyKind::Lottery] {
        let name = format!("lfsr_bank/{}_select", kind.name());
        bench_select(&name, kind, &mut LfsrBank::new(16, 7).unwrap());
    }
    let mut bank = LfsrBank::new(16, 7).unwrap();
    bench("lfsr_bank/next_bits", || bank.next_bits());
    let mut seed = 0u64;
    bench("lfsr_bank/new_16", || {
        seed += 1;
        LfsrBank::new(16, black_box(seed))
    });
}

fn bench_credit_filter() {
    let pending = PendingSet::new(4);
    let mut filter = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
    let mut t = 0u64;
    bench("credit_filter/tick", || {
        filter.tick(t, Some(CoreId::from_index(0)), black_box(&pending));
        t += 1;
    });
    bench("credit_filter/is_eligible_x4", || {
        let mut mask = 0u8;
        for i in 0..4 {
            if filter.is_eligible(CoreId::from_index(i), 0) {
                mask |= 1 << i;
            }
        }
        mask
    });
}

/// One whole arbitration step of RP behind CBA, as `Bus::end_cycle` takes
/// it: refill one reused candidate buffer, keep the eligible candidates,
/// select, grant, tick the filter. On the FPGA the same step is one
/// 100 MHz clock, 10 ns of hardware time.
fn bench_decision() {
    let cands = candidates(4);
    let pending = PendingSet::new(4);
    let mut policy = PolicyKind::RandomPermutation.build(4, 56);
    let mut filter = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
    let mut rng = SimRng::seed_from(1);
    let mut eligible = Vec::with_capacity(cands.len());
    let mut t = 0u64;
    bench("decision/rp_cba", || {
        eligible.clone_from(&cands);
        eligible.retain(|c| filter.is_eligible(c.core, t));
        let w = policy.select(&eligible, t, &mut rng);
        if let Some(core) = w {
            policy.on_grant(core, t);
        }
        filter.tick(t, None, &pending);
        t += 1;
        w
    });
}

fn bench_bus_cycle() {
    // Timed through the naive engine of `Simulation::run`, so every cycle
    // is stepped: each call drives a bus saturated by four 28-cycle
    // contenders for CYCLES_PER_ITER cycles, so divide the reported time
    // accordingly for the per-cycle cost.
    const CYCLES_PER_ITER: u64 = 4096;
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
        bench(&format!("bus_cycle/{label}"), || {
            sim.model_mut().reset();
            for agent in sim.agents_mut() {
                agent.reset(&mut rng);
            }
            sim.run()
        });
    }
}

fn main() {
    println!("{}", host());
    for kind in PolicyKind::ALL {
        let name = format!("policy_select/{}", kind.name());
        bench_select(&name, kind, &mut SimRng::seed_from(7));
    }
    bench_lfsr_bank();
    bench_credit_filter();
    bench_decision();
    bench_bus_cycle();
}
