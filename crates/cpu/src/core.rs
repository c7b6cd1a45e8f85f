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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    /// Fetch the next operation this cycle.
    Ready,
    /// Busy with pipeline work through cycle `until - 1`; the next fetch
    /// happens at cycle `until`. Absolute time (not a countdown) so the
    /// event-driven engine can skip the stretch and tick the core exactly
    /// at `until`.
    Computing { until: Cycle },
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
    /// Operations consumed from the program.
    pub ops: u64,
    /// Cycles spent on pipeline work (compute ops and L1 hits).
    pub busy_cycles: u64,
    /// Cycles stalled on the bus (waiting to post, posted, or in service).
    pub bus_stall_cycles: u64,
    /// Cycles stalled because the store buffer was full.
    pub store_stall_cycles: u64,
    /// Blocking bus transactions issued.
    pub blocking_transactions: u64,
    /// Store (write-through) transactions issued.
    pub store_transactions: u64,
}

/// An in-order core: one program, one private memory hierarchy, at most
/// one outstanding bus request.
///
/// Drive it once per cycle with [`Core::tick`] between the bus's
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

    /// This core's identity.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The program's benchmark name.
    pub fn program_name(&self) -> &str {
        self.program.name()
    }

    /// Whether the program has fully finished (including store drain).
    pub fn is_done(&self) -> bool {
        matches!(self.state, ExecState::Done)
    }

    /// Completion cycle, once done.
    pub fn done_at(&self) -> Option<Cycle> {
        self.done_at
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The private memory hierarchy (for inspection of hit/miss counts).
    pub fn memory(&self) -> &CoreMemory {
        &self.mem
    }

    /// Advances the core by one cycle.
    ///
    /// `completed` must be the bus's completion report for this cycle if
    /// (and only if) it belongs to this core. The core may post a new bus
    /// request during the call.
    ///
    /// # Panics
    ///
    /// Panics if the bus rejects a post — by construction the core never
    /// double-posts and never exceeds MaxL, so a rejection is a wiring bug.
    pub fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        bus: &mut (impl RequestPort + ?Sized),
    ) {
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

        // 2. Post the next bus request: oldest store first (TSO), then a
        //    waiting blocking access.
        if self.pending.is_none() {
            if let Some(tx) = self.store_buffer.front().copied() {
                self.post(bus, tx, now);
                self.pending = Some(PendingWhat::StoreDrain);
                self.stats.store_transactions += 1;
            } else if let ExecState::AwaitPost(tx) = self.state {
                self.post(bus, tx, now);
                self.pending = Some(PendingWhat::Blocking);
                self.state = ExecState::Blocked;
                self.stats.blocking_transactions += 1;
            }
        }

        // 3. Execute.
        match self.state {
            ExecState::Done => {}
            ExecState::Blocked | ExecState::AwaitPost(_) => {
                self.stats.bus_stall_cycles += 1;
            }
            ExecState::Draining => {
                self.try_finish(now);
            }
            ExecState::StoreStall(tx) => {
                self.stats.store_stall_cycles += 1;
                if self.store_buffer.push(tx) {
                    self.state = ExecState::Ready;
                }
            }
            ExecState::Computing { until } => {
                if now >= until {
                    // Only reachable when the engine skipped the tail of
                    // the compute stretch: this is the fetch cycle.
                    self.fetch_and_start(now);
                } else {
                    self.stats.busy_cycles += 1;
                    if now + 1 >= until {
                        self.state = ExecState::Ready;
                    }
                }
            }
            ExecState::Ready => {
                self.fetch_and_start(now);
            }
        }
    }

    fn post(&mut self, bus: &mut (impl RequestPort + ?Sized), tx: BusTransaction, now: Cycle) {
        bus.post(BusRequest::new(self.id, tx.duration, tx.kind, now).expect("valid duration"))
            .expect("core never double-posts");
    }

    fn fetch_and_start(&mut self, now: Cycle) {
        match self.program.next_op(&mut self.rng) {
            None => {
                self.state = ExecState::Draining;
                self.try_finish(now);
            }
            Some(Op::Compute(n)) => {
                self.stats.ops += 1;
                self.stats.busy_cycles += 1;
                self.state = if n > 1 {
                    ExecState::Computing {
                        until: now + n as Cycle,
                    }
                } else {
                    ExecState::Ready
                };
            }
            Some(Op::Access(access)) => {
                self.stats.ops += 1;
                let outcome = self.mem.access(access, &mut self.rng);
                match outcome.bus_transaction(&self.lat) {
                    None => {
                        // L1 hit: a single busy cycle.
                        self.stats.busy_cycles += 1;
                    }
                    Some(tx) => {
                        if access.kind() == AccessKind::Store {
                            self.stats.busy_cycles += 1;
                            if !self.store_buffer.push(tx) {
                                self.state = ExecState::StoreStall(tx);
                                self.stats.busy_cycles -= 1;
                                self.stats.store_stall_cycles += 1;
                            }
                        } else {
                            self.state = ExecState::AwaitPost(tx);
                            self.stats.bus_stall_cycles += 1;
                        }
                    }
                }
            }
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

    /// Sleep horizon for the event-driven engine: `Some(Cycle::MAX)` when
    /// the core cannot do anything until a bus completion addressed to it
    /// arrives (blocked on its posted transaction, stalled on a full store
    /// buffer, draining behind a posted store, or finished), `None` when
    /// it must be ticked every cycle (fetching, computing, about to post).
    ///
    /// In every `Some` state the per-cycle tick is pure stall accounting;
    /// [`Core::absorb_skipped`] replays that accounting for cycles the
    /// engine skipped.
    pub fn wake_at(&self) -> Option<Cycle> {
        match self.state {
            ExecState::Done => Some(Cycle::MAX),
            // A compute stretch is pure busy-cycle accounting until its
            // fetch cycle (an in-flight store drain wakes the core at its
            // completion — a bus event — before that if needed).
            ExecState::Computing { until } => Some(until),
            ExecState::Blocked | ExecState::AwaitPost(_) | ExecState::StoreStall(_)
                if self.pending.is_some() =>
            {
                Some(Cycle::MAX)
            }
            ExecState::Draining if self.pending.is_some() => Some(Cycle::MAX),
            _ => None,
        }
    }

    /// Accounts `k` cycles the engine skipped while this core slept (see
    /// [`Core::wake_at`]): the stall counters advance exactly as `k`
    /// unchanged ticks would have advanced them.
    pub fn absorb_skipped(&mut self, k: u64) {
        match self.state {
            ExecState::Blocked | ExecState::AwaitPost(_) => self.stats.bus_stall_cycles += k,
            ExecState::StoreStall(_) => self.stats.store_stall_cycles += k,
            ExecState::Computing { .. } => self.stats.busy_cycles += k,
            _ => {}
        }
    }

    /// Starts a fresh run: resets program position, reseeds the caches,
    /// clears the store buffer and statistics.
    ///
    /// The caller must also reset/replace the bus; a pending request left
    /// on the old bus is forgotten by the core.
    pub fn reset(&mut self, rng: &mut SimRng) {
        let mut mem_rng = rng.fork(0x11 + self.id.index() as u64);
        self.mem.reseed(&mut mem_rng);
        self.rng = rng.fork(0x1000 + self.id.index() as u64);
        self.program.reset(&mut self.rng);
        self.store_buffer.clear();
        self.state = ExecState::Ready;
        self.pending = None;
        self.stats = CoreStats::default();
        self.done_at = None;
    }
}

/// The open client-side interface: the full core model, with exact
/// stall accounting under skipped stretches and an RNG-reseeding reset.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for Core {
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        Core::tick(self, now, completed, port);
        match Core::wake_at(self) {
            Some(t) => Control::Sleep(t),
            None => Control::Continue,
        }
    }

    fn wake_at(&self) -> Option<Cycle> {
        Core::wake_at(self)
    }

    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        completed.core == self.id
    }

    fn is_done(&self) -> bool {
        Core::is_done(self)
    }

    fn done_at(&self) -> Option<Cycle> {
        Core::done_at(self)
    }

    fn absorb_skipped(&mut self, skipped: u64) {
        Core::absorb_skipped(self, skipped);
    }

    fn reset(&mut self, rng: &mut SimRng) {
        Core::reset(self, rng);
    }

    fn stats(&self) -> AgentStats {
        let s = &self.stats;
        AgentStats {
            completed: s.blocking_transactions + s.store_transactions,
            busy_cycles: s.busy_cycles,
            bus_stall_cycles: s.bus_stall_cycles,
            store_stall_cycles: s.store_stall_cycles,
            done_at: self.done_at,
            // The core's private hierarchy counters stay on `CoreStats` /
            // `HierarchyStats`; the uniform mem columns are reserved for
            // the dedicated memory agents so baseline reports keep their
            // exact column set.
            mem: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use cba_bus::{Bus, BusConfig, PolicyKind};
    use cba_mem::MemAccess;

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
        while !core.is_done() && now < max_cycles {
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
        assert!(core.is_done());
        // 15 compute cycles; done detected the cycle after the last one.
        assert_eq!(core.done_at(), Some(15));
        assert_eq!(core.stats().busy_cycles, 15);
        assert_eq!(core.stats().ops, 2);
    }

    #[test]
    fn cold_load_blocks_for_issue_plus_miss() {
        let (core, bus, _) = run_solo(vec![Op::Access(MemAccess::load(0x100))], 200);
        assert!(core.is_done());
        // Cycle 0: classify + AwaitPost. Cycle 1: post, granted same cycle.
        // Bus holds [1, 29); completion absorbed at cycle 29, where the core
        // also discovers the program is exhausted: done at 29.
        assert_eq!(core.done_at(), Some(29));
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
        assert!(core.is_done());
        assert_eq!(bus.trace().total_slots(), 1, "only the miss hits the bus");
        assert_eq!(core.memory().stats().l1_hits, 2);
        // 29 (miss, as above) + 2 hit cycles
        assert_eq!(core.done_at(), Some(31));
    }

    #[test]
    fn stores_drain_in_background() {
        // store then compute: the store's bus transaction overlaps compute.
        let (core, bus, _) = run_solo(
            vec![Op::Access(MemAccess::store(0x100)), Op::Compute(40)],
            300,
        );
        assert!(core.is_done());
        assert_eq!(core.stats().store_transactions, 1);
        assert_eq!(bus.trace().total_slots(), 1);
        // Store executes in 1 cycle, compute 40: the 28-cycle cold-store
        // transaction fully overlaps, so total ≈ 42, way below 1 + 28 + 40.
        assert!(
            core.done_at().unwrap() <= 44,
            "done at {:?}",
            core.done_at()
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
        assert!(core.is_done());
        let records_slots = bus.trace().total_slots();
        assert_eq!(records_slots, 2);
        // Serialized: ~1 + 28 (store) + 28 (load) + overheads.
        assert!(core.done_at().unwrap() >= 56);
    }

    #[test]
    fn store_buffer_full_stalls_pipeline() {
        // Depth-2 buffer: a third store back-to-back must stall.
        let ops = vec![
            Op::Access(MemAccess::store(0x1000)),
            Op::Access(MemAccess::store(0x2000)),
            Op::Access(MemAccess::store(0x3000)),
            Op::Access(MemAccess::store(0x4000)),
        ];
        let (core, _bus, _) = run_solo(ops, 500);
        assert!(core.is_done());
        assert!(
            core.stats().store_stall_cycles > 0,
            "expected SB-full stalls"
        );
        assert_eq!(core.stats().store_transactions, 4);
    }

    #[test]
    fn atomics_block_and_cost_two_memory_accesses() {
        let (core, bus, _) = run_solo(vec![Op::Access(MemAccess::atomic(0x100))], 200);
        assert!(core.is_done());
        assert_eq!(bus.trace().busy_cycles(CoreId::from_index(0)), 56);
        assert_eq!(core.done_at(), Some(57)); // 1 issue cycle + 56 on the bus
    }

    #[test]
    fn draining_completes_before_done() {
        let (core, _bus, _) = run_solo(vec![Op::Access(MemAccess::store(0x100))], 300);
        assert!(core.is_done());
        // Done only after the store's transaction completed: >= 28 cycles.
        assert!(core.done_at().unwrap() >= 28);
    }

    #[test]
    fn reset_reproduces_solo_runs_identically() {
        let ops = vec![
            Op::Compute(5),
            Op::Access(MemAccess::load(0x100)),
            Op::Access(MemAccess::store(0x200)),
            Op::Compute(3),
        ];
        let mut rng = SimRng::seed_from(123);
        let mut core = Core::new(
            CoreId::from_index(0),
            Box::new(ScriptProgram::new("t", ops)),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut durations = Vec::new();
        for run in 0..2 {
            let mut bus = Bus::new(
                BusConfig::new(1, 56).unwrap(),
                PolicyKind::RoundRobin.build(1, 56),
            );
            if run > 0 {
                let mut run_rng = SimRng::seed_from(123);
                core.reset(&mut run_rng);
            }
            let mut now = 0;
            while !core.is_done() && now < 1000 {
                let completed = bus.begin_cycle(now);
                core.tick(now, completed.as_ref(), &mut bus);
                bus.end_cycle(now);
                now += 1;
            }
            durations.push(core.done_at().unwrap());
        }
        assert_eq!(durations[0], durations[1], "same seed, same timing");
    }

    #[test]
    fn stats_cycles_partition_execution() {
        let (core, _bus, _) = run_solo(
            vec![Op::Compute(7), Op::Access(MemAccess::load(0x500))],
            300,
        );
        let s = core.stats();
        // busy + bus stalls ≈ done_at (store stalls zero here).
        let total = s.busy_cycles + s.bus_stall_cycles;
        let done = core.done_at().unwrap();
        assert!(
            (total as i64 - done as i64).abs() <= 2,
            "cycle accounting: busy {} + stall {} vs done {}",
            s.busy_cycles,
            s.bus_stall_cycles,
            done
        );
    }
}
