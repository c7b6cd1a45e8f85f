//! Section III.C extension — split-transaction buses: "despite buses with
//! split transactions have more homogeneous request sizes, the worst-case
//! situation, having very long and very short requests, is possible since
//! atomic operations by definition cannot be split."
//!
//! A short-request core shares a split bus with three memory-bound
//! contenders. When the contenders' misses are split transactions, bus
//! occupancy homogenizes (5-cycle phases) and the short core thrives even
//! under slot-fair arbitration. Replace the contenders' traffic with
//! unsplittable atomics and the non-split pathology returns — and the CBA
//! filter restores the bandwidth split.

use cba::{CreditConfig, CreditFilter};
use cba_bench::{print_row, rule, seed_from_env};
use cba_bus::split::{SplitBus, SplitBusConfig, SplitRequest};
use cba_bus::{BusModel, PolicyKind};
use sim_core::rng::SimRng;
use sim_core::CoreId;

#[derive(Clone, Copy)]
enum ContenderTraffic {
    SplitMisses,
    Atomics,
}

/// Returns (short-core completions, short-core absolute cycle share).
fn run(traffic: ContenderTraffic, with_cba: bool, horizon: u64, seed: u64) -> (u64, f64) {
    let mut bus = SplitBus::new(
        SplitBusConfig::paper(),
        PolicyKind::RandomPermutation.build(4, 56),
    )
    .expect("paper config");
    bus.set_random_source(Box::new(SimRng::seed_from(seed)));
    if with_cba {
        bus.set_filter(Box::new(CreditFilter::new(
            CreditConfig::homogeneous(4, 56).expect("paper config"),
        )));
    }
    let c0 = CoreId::from_index(0);
    let mut completions = 0u64;
    for now in 0..horizon {
        if bus.is_idle(c0) {
            bus.post(c0, SplitRequest::Immediate { duration: 5 })
                .expect("idle core accepts");
        }
        for i in 1..4 {
            let c = CoreId::from_index(i);
            if bus.is_idle(c) {
                let req = match traffic {
                    ContenderTraffic::SplitMisses => SplitRequest::Split,
                    ContenderTraffic::Atomics => SplitRequest::Atomic { duration: 56 },
                };
                bus.post(c, req).expect("idle core accepts");
            }
        }
        if bus.begin_cycle(now).is_some_and(|comp| comp.core == c0) {
            completions += 1;
        }
        bus.end_cycle(now);
    }
    let share = bus.inner().trace().busy_cycles(c0) as f64 / horizon as f64;
    (completions, share)
}

fn main() {
    let seed = seed_from_env();
    let horizon = 200_000u64;
    println!("SPLIT-TRANSACTION BUS (RP arbitration, horizon {horizon} cycles, seed {seed})");
    println!("core 0: saturating 5-cycle requests; cores 1-3: memory-bound traffic\n");

    rule(74);
    print_row(&[
        ("contender traffic", 22),
        ("filter", 8),
        ("short-core grants", 18),
        ("short-core share", 17),
    ]);
    rule(74);
    for (label, traffic) in [
        ("split misses", ContenderTraffic::SplitMisses),
        ("unsplittable atomics", ContenderTraffic::Atomics),
    ] {
        for with_cba in [false, true] {
            let (grants, share) = run(traffic, with_cba, horizon, seed);
            print_row(&[
                (label, 22),
                (if with_cba { "CBA" } else { "none" }, 8),
                (&format!("{grants}"), 18),
                (&format!("{:.1}%", 100.0 * share), 17),
            ]);
        }
    }
    rule(74);
    println!();
    println!("With split misses the bus sees homogeneous 5-cycle phases and the");
    println!("short core is healthy without any filter. Atomics cannot be split:");
    println!("they restore the long-vs-short pathology on the bus — and the");
    println!("credit filter restores the short core's throughput, which is why");
    println!("the paper argues CBA is relevant even for split-transaction buses.");
}
