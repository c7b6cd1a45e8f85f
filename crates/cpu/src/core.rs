//! The in-order, blocking core model.

use crate::program::{Op, Program};
use crate::store_buffer::StoreBuffer;
use cba_bus::{BusRequest, CompletedTransaction, RequestPort};
use cba_mem::{AccessKind, BusTransaction, CoreMemory, HierarchyConfig, LatencyModel};
use sim_core::agent::{AgentStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};

/// Default store-buffer depth (two entries, LEON3-style single write buffer
/// plus one in flight).
pub const DEFAULT_STORE_BUFFER: usize = 2;

/// What the core's posted bus request represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingWhat {
    /// Draining the oldest store-buffer entry (core keeps executing).
    StoreDrain,
    /// A blocking access (load / ifetch miss / atomic): the pipeline waits.
    Blocking,
}

/// The op a compute stretch ends with: the first op that was not private,
/// fetched (and looked up in the caches) when the stretch began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Then {
    /// A load or ifetch miss, or an atomic: its fetch cycle is a bus
    /// stall, and it posts the cycle after.
    Blocking(BusTransaction),
    /// A store, entering the store buffer.
    Store(BusTransaction),
    /// The program is exhausted.
    End,
    /// Nothing fetched yet: the stretch reached [`MAX_STRETCH_OPS`] and
    /// fetching resumes at its end.
    Fetch,
}

/// The most ops one stretch folds, so a program that never needs the bus
/// still yields to the engine.
const MAX_STRETCH_OPS: u32 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    /// Fetch the next operation this cycle.
    Ready,
    /// Busy with private work (compute ops and L1 hits, fetched ahead)
    /// through cycle `until - 1`; `then` runs at cycle `until`. Absolute
    /// time (not a countdown) so the event-driven engine can skip the
    /// stretch.
    Computing { until: Cycle, then: Then },
    /// A blocking transaction waits to be posted (older stores drain
    /// first).
    AwaitPost(BusTransaction),
    /// A blocking transaction is posted/in service.
    Blocked,
    /// A store found the buffer full and retries.
    StoreStall(BusTransaction),
    /// Program exhausted; stores may still be draining.
    Draining,
    /// Fully finished.
    Done,
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Blocking bus transactions issued.
    pub blocking_transactions: u64,
    /// Store (write-through) transactions issued.
    pub store_transactions: u64,
}

/// An in-order core: one program, one private memory hierarchy, at most
/// one outstanding bus request.
///
/// Drive it through its [`SimAgent`] impl, ticked between the bus's
/// `begin_cycle` and `end_cycle` (see the [crate example](crate)).
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    program: Box<dyn Program>,
    mem: CoreMemory,
    lat: LatencyModel,
    store_buffer: StoreBuffer,
    state: ExecState,
    pending: Option<PendingWhat>,
    stats: CoreStats,
    done_at: Option<Cycle>,
    rng: SimRng,
}

impl Core {
    /// Creates a core with the default store-buffer depth. RNG streams for
    /// the cache hierarchy and the program are forked off `rng`.
    pub fn new(
        id: CoreId,
        program: Box<dyn Program>,
        hierarchy: &HierarchyConfig,
        lat: LatencyModel,
        rng: &mut SimRng,
    ) -> Self {
        Self::with_store_buffer(id, program, hierarchy, lat, DEFAULT_STORE_BUFFER, rng)
    }

    /// Creates a core with an explicit store-buffer depth.
    pub fn with_store_buffer(
        id: CoreId,
        program: Box<dyn Program>,
        hierarchy: &HierarchyConfig,
        lat: LatencyModel,
        store_buffer: usize,
        rng: &mut SimRng,
    ) -> Self {
        let mut mem_rng = rng.fork(0x11 + id.index() as u64);
        let core_rng = rng.fork(0x1000 + id.index() as u64);
        Core {
            id,
            mem: CoreMemory::new(hierarchy, &mut mem_rng),
            lat,
            store_buffer: StoreBuffer::new(store_buffer),
            state: ExecState::Ready,
            pending: None,
            stats: CoreStats::default(),
            done_at: None,
            rng: core_rng,
            program,
        }
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    fn post(&mut self, bus: &mut (impl RequestPort + ?Sized), tx: BusTransaction, now: Cycle) {
        bus.post(BusRequest::new(self.id, tx.duration, tx.kind, now))
            .expect("core never double-posts");
    }

    /// Fetches at cycle `now`. Private ops (compute ops, L1-hit loads and
    /// ifetches) fold into one compute stretch that ends with the first
    /// op needing the bus, fetched and looked up now: the caches are
    /// private and only the core draws from its RNG, so fetching ahead
    /// draws the same numbers in the same order as fetching each op on
    /// its own cycle.
    fn fetch_and_start(&mut self, now: Cycle) {
        let mut until = now;
        let mut fetched = 0;
        let then = loop {
            if fetched == MAX_STRETCH_OPS {
                break Then::Fetch;
            }
            fetched += 1;
            let Some(op) = self.program.next_op(&mut self.rng) else {
                break Then::End;
            };
            match op {
                Op::Compute(n) => until += Cycle::from(n.max(1)),
                Op::Access(access) => {
                    let outcome = self.mem.access(access, &mut self.rng);
                    match outcome.bus_transaction(&self.lat) {
                        None => until += 1,
                        Some(tx) if access.kind() == AccessKind::Store => break Then::Store(tx),
                        Some(tx) => break Then::Blocking(tx),
                    }
                }
            }
        };
        if until == now {
            // Nothing private ahead of it: the op runs now.
            self.end_stretch(then, now);
        } else {
            self.state = ExecState::Computing { until, then };
        }
    }

    /// Runs the op that ends a stretch, at cycle `now`.
    fn end_stretch(&mut self, then: Then, now: Cycle) {
        match then {
            Then::Blocking(tx) => self.state = ExecState::AwaitPost(tx),
            Then::Store(tx) => {
                self.state = if self.store_buffer.push(tx) {
                    ExecState::Ready
                } else {
                    ExecState::StoreStall(tx)
                };
            }
            Then::End => {
                self.state = ExecState::Draining;
                self.try_finish(now);
            }
            Then::Fetch => self.fetch_and_start(now),
        }
    }

    fn try_finish(&mut self, now: Cycle) {
        if self.store_buffer.is_empty() && self.pending.is_none() {
            self.state = ExecState::Done;
            if self.done_at.is_none() {
                self.done_at = Some(now);
            }
        }
    }

    /// The tick's verdict, the core's sleep horizon: the next cycle at
    /// which ticking the core can have any effect, absent a bus completion
    /// addressed to it.
    ///
    /// * `Sleep(until)` through a compute stretch that ends with a store,
    ///   the program's end or a further fetch;
    /// * `Sleep(until + 1)` through one that ends with a blocking op, which
    ///   posts the cycle after its fetch cycle `until`;
    /// * `Sleep(Cycle::MAX)` when only a completion can wake it: blocked on
    ///   its posted transaction, stalled on a full store buffer, waiting
    ///   (or about to wait) to post behind a posted store, draining behind
    ///   one, or finished;
    /// * `Continue` when it must be ticked next cycle (about to fetch or
    ///   to post).
    ///
    /// In every `Sleep` state a tick before the named cycle is a no-op, so
    /// the engine may skip it.
    fn verdict(&self) -> Control {
        match self.state {
            ExecState::Done => Control::Sleep(Cycle::MAX),
            ExecState::Computing {
                until,
                then: Then::Blocking(_),
            } => Control::Sleep(if self.pending.is_some() {
                Cycle::MAX
            } else {
                until + 1
            }),
            ExecState::Computing { until, .. } => Control::Sleep(until),
            ExecState::Blocked | ExecState::AwaitPost(_) | ExecState::StoreStall(_)
                if self.pending.is_some() =>
            {
                Control::Sleep(Cycle::MAX)
            }
            ExecState::Draining if self.pending.is_some() => Control::Sleep(Cycle::MAX),
            _ => Control::Continue,
        }
    }
}

/// The open client-side interface: the full core model.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for Core {
    /// Advances the core by one cycle; the core may post a new bus
    /// request during the call.
    ///
    /// # Panics
    ///
    /// Panics if the bus rejects a post — by construction the core never
    /// double-posts and never exceeds MaxL, so a rejection is a wiring bug.
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        // 1. Absorb a completion addressed to this core.
        if let Some(ct) = completed {
            if ct.core == self.id {
                match self.pending.take() {
                    Some(PendingWhat::StoreDrain) => {
                        self.store_buffer.pop();
                    }
                    Some(PendingWhat::Blocking) => {
                        debug_assert!(matches!(self.state, ExecState::Blocked));
                        self.state = ExecState::Ready;
                    }
                    None => panic!("completion without a pending request on {}", self.id),
                }
            }
        }

        // A blocking op whose stretch ended before this cycle has had its
        // fetch cycle: it waits to post.
        if let ExecState::Computing {
            until,
            then: Then::Blocking(tx),
        } = self.state
        {
            if now > until {
                self.state = ExecState::AwaitPost(tx);
            }
        }

        // 2. Post the next bus request: oldest store first (TSO), then a
        //    waiting blocking access.
        if self.pending.is_none() {
            if let Some(tx) = self.store_buffer.front().copied() {
                self.post(port, tx, now);
                self.pending = Some(PendingWhat::StoreDrain);
                self.stats.store_transactions += 1;
            } else if let ExecState::AwaitPost(tx) = self.state {
                self.post(port, tx, now);
                self.pending = Some(PendingWhat::Blocking);
                self.state = ExecState::Blocked;
                self.stats.blocking_transactions += 1;
            }
        }

        // 3. Execute.
        match self.state {
            ExecState::Done | ExecState::Blocked | ExecState::AwaitPost(_) => {}
            ExecState::Draining => self.try_finish(now),
            ExecState::StoreStall(tx) => {
                if self.store_buffer.push(tx) {
                    self.state = ExecState::Ready;
                }
            }
            ExecState::Computing { until, .. } if now < until => {}
            ExecState::Computing { then, .. } => self.end_stretch(then, now),
            ExecState::Ready => self.fetch_and_start(now),
        }
        self.verdict()
    }

    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        completed.core == self.id
    }

    /// Whether the program has fully finished (including store drain).
    fn is_done(&self) -> bool {
        matches!(self.state, ExecState::Done)
    }

    fn stats(&self) -> AgentStats {
        let s = &self.stats;
        AgentStats {
            completed: s.blocking_transactions + s.store_transactions,
            done_at: self.done_at,
            // The uniform mem columns are reserved for the dedicated
            // memory agents so baseline reports keep their exact column
            // set.
            mem: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};
    use cba_mem::MemAccess;

    /// The core's completion cycle, as the engine reads it.
    fn done_at(core: &Core) -> Option<Cycle> {
        SimAgent::<Bus, _>::stats(core).done_at
    }

    fn run_solo(ops: Vec<Op>, max_cycles: Cycle) -> (Core, Bus, Cycle) {
        let mut rng = SimRng::seed_from(99);
        let mut core = Core::new(
            CoreId::from_index(0),
            Box::new(ScriptProgram::new("t", ops)),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut now = 0;
        while done_at(&core).is_none() && now < max_cycles {
            let completed = bus.begin_cycle(now);
            core.tick(now, completed.as_ref(), &mut bus);
            bus.end_cycle(now);
            now += 1;
        }
        (core, bus, now)
    }

    #[test]
    fn pure_compute_timing_is_exact() {
        let (core, _bus, _) = run_solo(vec![Op::Compute(10), Op::Compute(5)], 100);
        // 15 compute cycles; done detected the cycle after the last one.
        assert_eq!(done_at(&core), Some(15));
    }

    #[test]
    fn cold_load_blocks_for_issue_plus_miss() {
        let (core, bus, _) = run_solo(vec![Op::Access(MemAccess::load(0x100))], 200);
        // Cycle 0: classify + AwaitPost. Cycle 1: post, granted same cycle.
        // Bus holds [1, 29); completion absorbed at cycle 29, where the core
        // also discovers the program is exhausted: done at 29.
        assert_eq!(done_at(&core), Some(29));
        assert_eq!(bus.trace().busy_cycles(CoreId::from_index(0)), 28);
        assert_eq!(core.stats().blocking_transactions, 1);
    }

    #[test]
    fn l1_hit_costs_one_cycle() {
        let (core, bus, _) = run_solo(
            vec![
                Op::Access(MemAccess::load(0x100)), // cold miss
                Op::Access(MemAccess::load(0x104)), // L1 hit
                Op::Access(MemAccess::load(0x108)), // L1 hit
            ],
            200,
        );
        assert_eq!(bus.trace().total_slots(), 1, "only the miss hits the bus");
        // 29 (miss, as above) + 2 hit cycles
        assert_eq!(done_at(&core), Some(31));
    }

    #[test]
    fn stores_drain_in_background() {
        // store then compute: the store's bus transaction overlaps compute.
        let (core, bus, _) = run_solo(
            vec![Op::Access(MemAccess::store(0x100)), Op::Compute(40)],
            300,
        );
        assert_eq!(core.stats().store_transactions, 1);
        assert_eq!(bus.trace().total_slots(), 1);
        // Store executes in 1 cycle, compute 40: the 28-cycle cold-store
        // transaction fully overlaps, so total ≈ 42, way below 1 + 28 + 40.
        assert!(
            done_at(&core).unwrap() <= 44,
            "done at {:?}",
            done_at(&core)
        );
    }

    #[test]
    fn blocking_load_waits_for_store_drain() {
        // TSO: a load miss posted after a store must not overtake it.
        let (core, bus, _) = run_solo(
            vec![
                Op::Access(MemAccess::store(0x100)),
                Op::Access(MemAccess::load(0x2000)),
            ],
            300,
        );
        let records_slots = bus.trace().total_slots();
        assert_eq!(records_slots, 2);
        // Serialized: ~1 + 28 (store) + 28 (load) + overheads.
        assert!(done_at(&core).unwrap() >= 56);
    }

    #[test]
    fn store_buffer_full_stalls_pipeline() {
        // Depth-2 buffer: a third store back-to-back must stall.
        let ops = vec![
            Op::Access(MemAccess::store(0x1000)),
            Op::Access(MemAccess::store(0x2000)),
            Op::Access(MemAccess::store(0x3000)),
            Op::Access(MemAccess::store(0x4000)),
            Op::Compute(100),
        ];
        let (core, _bus, _) = run_solo(ops, 500);
        // The 28-cycle drains run [1, 29), [29, 57), [57, 85) and
        // [85, 113). The third store enters the buffer when the first
        // drains, at 29, and the fourth when the second drains, at 57, so
        // the compute op runs [58, 158). Without the stalls it would run
        // [4, 104) and the last drain would end the run at 113.
        assert_eq!(done_at(&core), Some(158));
        assert_eq!(core.stats().store_transactions, 4);
    }

    #[test]
    fn atomics_block_and_cost_two_memory_accesses() {
        let (core, bus, _) = run_solo(vec![Op::Access(MemAccess::atomic(0x100))], 200);
        assert_eq!(bus.trace().busy_cycles(CoreId::from_index(0)), 56);
        assert_eq!(done_at(&core), Some(57)); // 1 issue cycle + 56 on the bus
    }

    #[test]
    fn draining_completes_before_done() {
        let (core, _bus, _) = run_solo(vec![Op::Access(MemAccess::store(0x100))], 300);
        // Done only after the store's transaction completed: >= 28 cycles.
        assert!(done_at(&core).unwrap() >= 28);
    }

    #[test]
    fn private_ops_fold_into_one_stretch_that_ends_with_a_miss() {
        let ops = vec![
            Op::Compute(4),
            Op::Compute(2),
            Op::Access(MemAccess::load(0x100)),
        ];
        let mut rng = SimRng::seed_from(5);
        let id = CoreId::from_index(0);
        let mut core = Core::new(
            id,
            Box::new(ScriptProgram::new("t", ops)),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let verdict = core.tick(0, None, &mut bus);
        // All three ops are fetched at cycle 0. Cycles 0..6 are busy, 6 is
        // the miss's fetch cycle and 7 its post.
        assert_eq!(verdict, Control::Sleep(7));
        let verdict = core.tick(7, None, &mut bus);
        assert!(bus.has_pending(id), "the miss posts at its wake cycle");
        assert_eq!(core.stats().blocking_transactions, 1);
        assert_eq!(verdict, Control::Sleep(Cycle::MAX));
    }

    /// A program that never needs the bus.
    #[derive(Debug)]
    struct Endless;

    impl Program for Endless {
        fn name(&self) -> &str {
            "endless"
        }
        fn next_op(&mut self, _rng: &mut SimRng) -> Option<Op> {
            Some(Op::Compute(1))
        }
    }

    #[test]
    fn a_program_that_never_needs_the_bus_still_yields() {
        let mut rng = SimRng::seed_from(5);
        let mut core = Core::new(
            CoreId::from_index(0),
            Box::new(Endless),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let stretch = Cycle::from(MAX_STRETCH_OPS);
        assert_eq!(core.tick(0, None, &mut bus), Control::Sleep(stretch));
        let verdict = core.tick(stretch, None, &mut bus);
        assert_eq!(verdict, Control::Sleep(2 * stretch));
    }
}
