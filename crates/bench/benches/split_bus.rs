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
//!
//! Each row runs once per arbitration stream forked from `CBA_SEED` and
//! prints the mean and the min–max: the CBA-with-atomics row lands in one
//! of two modes depending on the stream, so one run would show one mode
//! as the result.

use cba::{CreditConfig, CreditFilter};
use cba_bench::{print_row, rule, seed_from_env};
use cba_bus::split::{SplitBus, SplitBusConfig};
use cba_bus::{BusModel, BusRequest, CompletedTransaction, PolicyKind, RequestKind, RequestPort};
use cba_cpu::FixedRequestTask;
use sim_core::agent::FnAgent;
use sim_core::rng::SimRng;
use sim_core::{BoxedAgent, Control, CoreId, Cycle, Simulation, StopWhen};

/// Arbitration streams per row, forked from the master seed.
const STREAMS: u64 = 8;

/// The traffic of one contender core.
type Traffic = fn(CoreId) -> BoxedAgent<'static, SplitBus>;

/// A saturating stream of clean L2 misses on `core`, which the split bus
/// runs as command, memory and response phases.
fn split_misses(core: CoreId) -> BoxedAgent<'static, SplitBus> {
    Box::new(FnAgent(
        move |bus: &mut SplitBus, now: Cycle, _: Option<&CompletedTransaction>| {
            if bus.can_accept(core) {
                bus.post(BusRequest::new(core, 28, RequestKind::L2MissClean, now))
                    .expect("idle core accepts");
            }
            Control::Sleep(Cycle::MAX)
        },
    ))
}

/// A saturating stream of unsplittable 56-cycle requests on `core`.
fn atomics(core: CoreId) -> BoxedAgent<'static, SplitBus> {
    Box::new(FixedRequestTask::saturating(core, 56))
}

/// Returns (short-core completions, short-core absolute cycle share).
fn run(traffic: Traffic, with_cba: bool, horizon: u64, rng: SimRng) -> (u64, f64) {
    let mut bus = SplitBus::new(
        SplitBusConfig::paper(),
        PolicyKind::RandomPermutation.build(4, 56),
    )
    .expect("paper config");
    bus.set_random_source(Box::new(rng));
    if with_cba {
        bus.set_filter(Box::new(CreditFilter::new(
            CreditConfig::homogeneous(4, 56).expect("paper config"),
        )));
    }
    let c0 = CoreId::from_index(0);
    let sim = Simulation::builder()
        .model(bus)
        .agent(FixedRequestTask::saturating(c0, 5))
        .agents((1..4).map(CoreId::from_index).map(traffic))
        .stop(StopWhen::Horizon(horizon))
        .run();
    let share = sim.model().trace().busy_cycles(c0) as f64 / horizon as f64;
    (sim.agent(0).stats().completed, share)
}

/// Mean and min–max of `values`, each printed by `show`.
fn spread(values: &[f64], show: impl Fn(f64) -> String) -> String {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{} ({}–{})", show(mean), show(min), show(max))
}

fn main() {
    let seed = seed_from_env();
    let horizon = 200_000u64;
    println!(
        "SPLIT-TRANSACTION BUS (RP arbitration, horizon {horizon} cycles, \
         {STREAMS} streams forked from seed {seed})"
    );
    println!("core 0: saturating 5-cycle requests; cores 1-3: memory-bound traffic");
    println!("each cell: mean (min–max) over the streams\n");

    rule(90);
    print_row(&[
        ("contender traffic", 22),
        ("filter", 8),
        ("short-core grants", 26),
        ("short-core share", 26),
    ]);
    rule(90);
    let master = SimRng::seed_from(seed);
    for (label, traffic) in [
        ("split misses", split_misses as Traffic),
        ("unsplittable atomics", atomics),
    ] {
        for with_cba in [false, true] {
            let (grants, shares): (Vec<f64>, Vec<f64>) = (0..STREAMS)
                .map(|k| {
                    let (grants, share) = run(traffic, with_cba, horizon, master.fork(k));
                    (grants as f64, 100.0 * share)
                })
                .unzip();
            print_row(&[
                (label, 22),
                (if with_cba { "CBA" } else { "none" }, 8),
                (&spread(&grants, |g| format!("{g:.0}")), 26),
                (&spread(&shares, |s| format!("{s:.1}%")), 26),
            ]);
        }
    }
    rule(90);
    println!();
    println!("With split misses the bus sees homogeneous 5-cycle phases and the");
    println!("short core is healthy without any filter. Atomics cannot be split:");
    println!("they restore the long-vs-short pathology on the bus — and the");
    println!("credit filter restores the short core's throughput, which is why");
    println!("the paper argues CBA is relevant even for split-transaction buses.");
}
