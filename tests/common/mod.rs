//! Helpers shared by the integration tests: a contender that counts the
//! limit-cycle jumps it takes part in, a fingerprint of every counter a
//! fabric keeps, segment by segment, and an exact comparison of two
//! report cells.

// Every test binary that declares `mod common` compiles all of it but
// uses only some helpers.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cba_bus::fabric::Fabric;
use cba_bus::{Bus, BusModel, CompletedTransaction, RequestPort};
use cba_cpu::FixedRequestTask;
use cba_platform::CellReport;
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::{Control, CoreId, Cycle};

/// A saturating contender that counts the limit-cycle jumps it takes part
/// in, so a test can see the jump fire on the real bus or fabric.
pub struct CountedContender {
    pub inner: FixedRequestTask,
    pub jumps: Arc<AtomicU64>,
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

/// One bus segment's counters: per core its trace's grants and busy
/// cycles, then the segment's idle and total cycles.
pub type SegmentPrint = (Vec<(u64, u64)>, [u64; 2]);

fn segment_print(bus: &Bus) -> SegmentPrint {
    let trace = bus.trace();
    let per_core =
        CoreId::all(bus.config().n_cores()).map(|c| (trace.slots(c), trace.busy_cycles(c)));
    (per_core.collect(), [bus.idle_cycles(), bus.total_cycles()])
}

/// Every counter a fabric keeps. A `RunResult` sees only the fabric-wide
/// trace, so a wrong jump on a segment shows only here.
#[derive(Debug, PartialEq)]
pub struct FabricPrint {
    /// Each cluster bus's counters, then the backbone's.
    pub segments: Vec<SegmentPrint>,
    /// The fabric-wide trace: grants and busy cycles per core.
    pub trace: Vec<(u64, u64)>,
    /// The fabric-wide trace's first grant start and latest grant end.
    pub ends: (Option<Cycle>, Cycle),
}

/// The fingerprint of `fabric` (see [`FabricPrint`]).
pub fn fabric_print(fabric: &Fabric) -> FabricPrint {
    let clusters = (0..fabric.config().clusters()).map(|k| fabric.cluster_bus(k));
    let trace = fabric.trace();
    FabricPrint {
        segments: clusters
            .chain([fabric.backbone()])
            .map(segment_print)
            .collect(),
        trace: CoreId::all(fabric.config().n_cores())
            .map(|c| (trace.slots(c), trace.busy_cycles(c)))
            .collect(),
        ends: (trace.first_start(), trace.last_end()),
    }
}

/// Exact-equality comparison of two cell reports, every field included.
/// `CellReport` has no `PartialEq`; its `Debug` rendering prints each
/// float in its shortest round-trip form, so equal renderings are equal
/// cells (and a NaN equals a NaN).
pub fn assert_cells_identical(a: &CellReport, b: &CellReport, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}
