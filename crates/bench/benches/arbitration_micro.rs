//! Microbenchmarks of the arbitration-path primitives: policy selection
//! over a core mask drawing from the LFSR bank, one bank cycle,
//! credit-filter verdicts and tick, one whole filter+select+tick decision
//! and a full bus cycle. These quantify the software cost of the "one clock cycle"
//! hardware decision (EXPERIMENTS.md E5 (b)). Every row is timed by
//! [`cba_bench::timing::time`] and prints `median [q1, q3] (min–max)`
//! per call over [`SAMPLES`] samples, after a line naming the host.

use cba::{CreditConfig, CreditFilter};
use cba_bench::timing::{host, time};
use cba_bus::{Bus, BusConfig, BusRequest, EligibilityFilter, PendingSet, PolicyKind, RequestKind};
use cba_cpu::FixedRequestTask;
use sim_core::lfsr::LfsrBank;
use sim_core::{CoreId, Engine, Simulation};
use std::hint::black_box;

/// Samples per row.
const SAMPLES: usize = 50;

/// Times `body` and prints its row.
fn bench<R>(name: &str, body: impl FnMut() -> R) {
    println!("{name:<40} {}", time(SAMPLES, body));
}

/// A pending set with one 56-cycle request per core of an `n`-core bus.
fn all_pending(n: usize) -> PendingSet {
    let mut pending = PendingSet::new(n);
    for core in CoreId::all(n) {
        pending
            .insert(BusRequest::new(core, 56, RequestKind::Synthetic, 0))
            .expect("one request per core");
    }
    pending
}

/// The platform's random-bit bank: 16 lanes, as every run builds it.
fn bank() -> LfsrBank {
    LfsrBank::new(16, 7).unwrap()
}

/// Times one select-and-grant round of `kind` with all four cores
/// eligible, drawing from a [`bank`].
fn bench_select(kind: PolicyKind) {
    let pending = all_pending(4);
    let mut policy = kind.build(4, 56);
    let mut rng = bank();
    let mut t = 0u64;
    bench(&format!("policy_select/{}", kind.name()), || {
        let w = policy.select(black_box(pending.mask()), &pending, t, &mut rng);
        if let Some(core) = w {
            policy.on_grant(core, t);
        }
        t += 1;
        w
    });
}

/// The platform's random-bit bank: one bank cycle, and building a bank,
/// which every run does whether it draws or not.
fn bench_lfsr_bank() {
    let mut bank = bank();
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
    bench("credit_filter/eligible_x4", || {
        filter.eligible(black_box(CoreId::all_mask(4)), 0)
    });
}

/// One whole arbitration step of RP behind CBA, as `Bus::end_cycle` takes
/// it: the filter maps the mask of four pending cores to the eligible
/// mask, RP selects among them unless the mask is empty, the winner is
/// granted, and the filter ticks. On the FPGA the same step is one
/// 100 MHz clock, 10 ns of hardware time.
fn bench_decision() {
    let pending = all_pending(4);
    let mut policy = PolicyKind::RandomPermutation.build(4, 56);
    let mut filter = CreditFilter::new(CreditConfig::homogeneous(4, 56).unwrap());
    let mut rng = bank();
    let mut t = 0u64;
    bench("decision/rp_cba", || {
        let eligible = filter.eligible(black_box(pending.mask()), t);
        let w = if eligible == 0 {
            None
        } else {
            policy.select(eligible, &pending, t, &mut rng)
        };
        if let Some(core) = w {
            policy.on_grant(core, t);
        }
        filter.tick(t, None, &pending);
        t += 1;
        w
    });
}

fn bench_bus_cycle() {
    // Timed through the naive engine of `SimulationBuilder::run`, so every
    // cycle is stepped: each call builds a 4-core bus and four 28-cycle
    // contenders (far cheaper than the cycles) and drives the saturated
    // bus for CYCLES_PER_ITER cycles, so divide the reported time
    // accordingly for the per-cycle cost.
    const CYCLES_PER_ITER: u64 = 4096;
    for (label, with_cba) in [("rp_x4096", false), ("rp_cba_x4096", true)] {
        bench(&format!("bus_cycle/{label}"), || {
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
                builder = builder.agent(FixedRequestTask::saturating(CoreId::from_index(i), 28));
            }
            builder.run().outcome()
        });
    }
}

fn main() {
    println!("{}", host());
    for kind in PolicyKind::ALL {
        bench_select(kind);
    }
    bench_lfsr_bank();
    bench_credit_filter();
    bench_decision();
    bench_bus_cycle();
}
