//! The open client side of the simulator: the [`SimAgent`] trait.
//!
//! The *bus* side is unified behind [`BusModel`](crate::BusModel); this
//! module mirrors that on the *client* side. A `SimAgent` is anything that
//! generates traffic against a request port `P` — a cycle-accurate core
//! model, a saturating contender, a periodic co-runner, a fixed-request
//! task, or a downstream user's custom workload — and
//! [`Simulation`](crate::Simulation), the one cycle loop every harness
//! (the platform's `run_once`, the tests, the benches) runs on, drives
//! clients only through this trait, so new workload shapes plug in
//! without touching any harness code. A harness that posts traffic by
//! hand wraps its closure in [`FnAgent`].
//!
//! The trait is generic over the port type `P` (kept `?Sized` so trait
//! objects like `dyn RequestPort` work) and the completion report type
//! `C`, because the kernel crate does not know the concrete bus types;
//! the bus workspace instantiates `C` with its completion report and `P`
//! with its client-side request port.
//!
//! # Contract
//!
//! An agent is a sequential state machine driven between the model's
//! `begin_cycle` and `end_cycle` of an *executed* cycle, but only of the
//! executed cycles that concern it: the events engine of
//! [`Simulation::run`](crate::Simulation::run) ticks an agent when it is
//! **due** (its last verdict asked for this cycle) or **addressed** (the
//! cycle's completion is its own), and leaves it asleep while other
//! agents act.
//!
//! 1. [`tick`](SimAgent::tick) receives the cycle number, the cycle's
//!    completion report (if any) and the request port, may post traffic,
//!    and returns a [`Control`] verdict;
//! 2. [`wake_at`](SimAgent::wake_at), mirrored by that verdict, bounds the
//!    next cycle at which ticking the agent can have any effect (absent a
//!    completion addressed to it): neither other agents' posts, grants
//!    and completions nor the bus's own progress may change what the
//!    agent would do before then;
//! 3. [`is_addressed`](SimAgent::is_addressed) tells the engine which
//!    completions wake the agent early; the default `true` wakes it on
//!    every completion, which is always safe;
//! 4. [`absorb_skipped`](SimAgent::absorb_skipped) replays per-cycle
//!    accounting for every cycle the agent was not ticked, whether the
//!    engine skipped the cycle or ticked only other agents at it, so
//!    statistics stay bit-identical to per-cycle execution;
//! 5. [`reset`](SimAgent::reset) must restore the agent to a
//!    fresh-construction state (the workspace's conformance suite asserts
//!    `reset` ≡ fresh construction for every shipped agent);
//! 6. optionally, the `limit_cycle_*` hooks expose the agent's state so
//!    the events engine can jump whole periods of a steady run (see
//!    [`Simulation::run`](crate::Simulation::run)).

use crate::engine::Control;
use crate::rng::SimRng;
use crate::Cycle;

/// Snapshot of an agent's execution statistics, uniform across agent
/// kinds so harnesses can report on heterogeneous mixes.
///
/// Agents fill the fields they track and leave the rest at zero/`None`
/// (e.g. only the full core model accounts stall cycles); construct with
/// `AgentStats { ..Default::default() }` and set what you have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Bus transactions completed (grants absorbed) so far.
    pub completed: u64,
    /// Cycles spent on useful (non-stalled) work, if tracked.
    pub busy_cycles: u64,
    /// Cycles stalled waiting on the interconnect, if tracked.
    pub bus_stall_cycles: u64,
    /// Cycles stalled on a full store buffer, if tracked.
    pub store_stall_cycles: u64,
    /// Completion cycle, once the agent finished.
    pub done_at: Option<Cycle>,
    /// Memory-side counters, for agents that drive a cache hierarchy
    /// (miss-stream / coherence agents). `None` for every other kind, so
    /// harnesses can gate memory report columns on their presence.
    pub mem: Option<MemStats>,
}

/// Memory-side counters for agents whose bus traffic comes from a cache
/// hierarchy: the raw integer tallies a report layer needs to derive
/// miss rates and coherence-traffic fractions exactly (sums of `u64`s,
/// so campaign aggregation stays bit-deterministic across thread
/// counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Memory accesses executed (loads + stores, private and shared).
    pub accesses: u64,
    /// Accesses that required at least one bus transaction.
    pub misses: u64,
    /// Bus transactions posted (demand + coherence + writebacks).
    pub bus_txns: u64,
    /// Coherence transactions among `bus_txns` (read-exclusives,
    /// upgrades, invalidation acks, coherence writebacks).
    pub coherence: u64,
    /// Writebacks of modified data (dirty-victim evictions plus
    /// coherence-forced flushes).
    pub writebacks: u64,
}

impl MemStats {
    /// Accumulates another snapshot into this one (per-field sum), for
    /// summing per-agent counters into a per-run total.
    pub fn accumulate(&mut self, other: MemStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.bus_txns += other.bus_txns;
        self.coherence += other.coherence;
        self.writebacks += other.writebacks;
    }
}

/// One traffic-generating client of the simulated interconnect.
///
/// `P` is the request port the agent posts through (e.g. the bus
/// workspace's `RequestPort` trait object, or a concrete bus model); `C`
/// is the completion report delivered each cycle. See the [module
/// documentation](self) for the full contract and `sim_core::sim` for
/// the harness that drives agents.
pub trait SimAgent<P: ?Sized, C = ()> {
    /// Advances the agent by one cycle. `completed` is the model's
    /// completion report for this cycle (agents must ignore completions
    /// addressed to other agents). The returned [`Control`] is the
    /// agent's verdict for the *engine*: [`Control::Continue`] to be
    /// ticked every cycle, [`Control::Sleep`]`(t)` when nothing can
    /// happen before cycle `t` (mirroring [`SimAgent::wake_at`]; the
    /// events engine ticks the agent next at `t` or at a completion
    /// [addressed](SimAgent::is_addressed) to it), or
    /// [`Control::Stop`] to request that the whole simulation stop after
    /// this cycle (no shipped agent does; the hook exists for
    /// user-defined measurement agents).
    fn tick(&mut self, now: Cycle, completed: Option<&C>, port: &mut P) -> Control;

    /// The agent's sleep horizon, queried after its tick: the next cycle
    /// at which ticking it can have any effect, absent a completion
    /// addressed to it. `None` = must be ticked every cycle;
    /// `Some(Cycle::MAX)` = only a completion can wake it.
    fn wake_at(&self) -> Option<Cycle> {
        None
    }

    /// Whether the cycle's completion report is addressed to this agent,
    /// so that the engine must tick it at this cycle even before its
    /// [`wake_at`](SimAgent::wake_at). The default `true` wakes the agent
    /// on every completion; an agent that answers precisely (shipped
    /// agents compare the report's core with their own) sleeps through
    /// the completions of the others.
    fn is_addressed(&self, completed: &C) -> bool {
        let _ = completed;
        true
    }

    /// Whether the agent's workload has finished. Infinite agents
    /// (saturating/periodic contenders) return `false` forever.
    fn is_done(&self) -> bool;

    /// The cycle at which the workload finished, once done.
    fn done_at(&self) -> Option<Cycle> {
        None
    }

    /// Accounts `skipped` cycles at which the agent was not ticked (see
    /// [`SimAgent::wake_at`]): statistics must advance exactly as that
    /// many unchanged ticks would have advanced them. The engine may
    /// split one untouched stretch over several calls. Agents whose state
    /// is already expressed in absolute cycles need nothing here.
    fn absorb_skipped(&mut self, skipped: u64) {
        let _ = skipped;
    }

    /// Whether the agent is **inert**: permanently done, with `tick` and
    /// `absorb_skipped` guaranteed no-ops forever. Harnesses may drop
    /// inert agents from their per-cycle loops entirely (the
    /// [`Simulation`](crate::sim::Simulation) facade does), so only
    /// return `true` when the agent can never act again — [`Idle`] is
    /// the canonical case. Returning `true` while not done breaks stop
    /// conditions; the default is `false`.
    fn is_inert(&self) -> bool {
        false
    }

    /// Restores the agent to a fresh-construction state for a new run.
    /// Agents with internal randomness must re-fork their streams from
    /// `rng` exactly as their constructor did; deterministic agents
    /// ignore it.
    fn reset(&mut self, rng: &mut SimRng);

    /// A uniform snapshot of the agent's execution statistics.
    fn stats(&self) -> AgentStats {
        AgentStats::default()
    }

    /// Limit-cycle hook, called after the agent's tick at cycle `now`:
    /// appends its complete dynamic state to `state` (absolute times as
    /// offsets from `now`) and its statistics counters to `counters`, then
    /// returns `true`. Equal states must mean equal future behaviour; the
    /// contract mirrors
    /// [`BusModel::limit_cycle_state`](crate::BusModel::limit_cycle_state).
    /// The default returns `false`: one declining agent keeps the whole
    /// run out of the fast-forward.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        let _ = (now, state, counters);
        false
    }

    /// The most whole periods a limit-cycle jump may skip, given `deltas`,
    /// the per-period growth of this agent's counters. A finite agent
    /// stops the jump before its final completion, which must execute live
    /// so [`done_at`](SimAgent::done_at) and stop conditions stay exact.
    /// The default sets no bound.
    fn limit_cycle_bound(&self, deltas: &[u64]) -> u64 {
        let _ = deltas;
        u64::MAX
    }

    /// Applies `periods` repetitions of a detected limit cycle, `shift`
    /// cycles in all: counters grow by `periods` times their `deltas`, and
    /// absolute times move `shift` cycles later (see
    /// [`BusModel::limit_cycle_jump`](crate::BusModel::limit_cycle_jump)).
    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        let _ = (periods, shift, deltas);
    }
}

/// The trivial agent: never posts, is always done, sleeps forever.
///
/// Stands in for an unloaded core so heterogeneous mixes can leave slots
/// empty without special-casing harness code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Idle;

impl Idle {
    /// Creates the idle agent.
    pub fn new() -> Self {
        Idle
    }
}

impl<P: ?Sized, C> SimAgent<P, C> for Idle {
    fn tick(&mut self, _now: Cycle, _completed: Option<&C>, _port: &mut P) -> Control {
        Control::Sleep(Cycle::MAX)
    }

    fn wake_at(&self) -> Option<Cycle> {
        Some(Cycle::MAX)
    }

    /// It never posts, so no completion is its own.
    fn is_addressed(&self, _completed: &C) -> bool {
        false
    }

    fn is_done(&self) -> bool {
        true
    }

    fn is_inert(&self) -> bool {
        true
    }

    fn reset(&mut self, _rng: &mut SimRng) {}
}

/// A closure as an agent: each tick calls the closure with the model, the
/// cycle and the cycle's completion report, and returns its verdict.
///
/// This is the client of a harness that posts traffic by hand. It is never
/// done (end its run with [`Control::Stop`], a
/// [`StopWhen::Horizon`](crate::StopWhen::Horizon) or `max_cycles`),
/// ignores [`reset`](SimAgent::reset) and keeps every other default: it
/// wakes on every completion and keeps its run out of the limit-cycle
/// jump. The closure may borrow the caller's locals for as long as the
/// [`Simulation`](crate::Simulation) holding it lives.
pub struct FnAgent<F>(pub F);

impl<M: ?Sized, C, F> SimAgent<M, C> for FnAgent<F>
where
    F: FnMut(&mut M, Cycle, Option<&C>) -> Control,
{
    fn tick(&mut self, now: Cycle, completed: Option<&C>, model: &mut M) -> Control {
        (self.0)(model, now, completed)
    }

    fn is_done(&self) -> bool {
        false
    }

    fn reset(&mut self, _rng: &mut SimRng) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::OneShot;
    use crate::sim::{Engine, Simulation};
    use crate::BusModel;

    #[test]
    fn idle_agent_is_inert() {
        let mut idle = Idle::new();
        let mut port = ();
        let verdict = SimAgent::<(), u32>::tick(&mut idle, 0, None, &mut port);
        assert_eq!(verdict, Control::Sleep(Cycle::MAX));
        assert!(SimAgent::<(), u32>::is_done(&idle));
        assert_eq!(SimAgent::<(), u32>::wake_at(&idle), Some(Cycle::MAX));
        assert!(!SimAgent::<(), u32>::is_addressed(&idle, &0));
        assert_eq!(SimAgent::<(), u32>::done_at(&idle), None);
        assert_eq!(SimAgent::<(), u32>::stats(&idle), AgentStats::default());
    }

    #[test]
    fn a_closure_agent_may_borrow_the_callers_locals() {
        let mut grants: Vec<Cycle> = Vec::new();
        let record = |bus: &mut OneShot, now: Cycle, completed: Option<&Cycle>| {
            if completed.is_some() || now == 0 {
                bus.post(3).unwrap();
                grants.push(now);
            }
            Control::Sleep(Cycle::MAX)
        };
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(FnAgent(record))
            .engine(Engine::Events)
            .max_cycles(20)
            .build();
        let outcome = sim.run();
        // The closure's borrow of `grants` ends with the agents it lives in.
        let (bus, ..) = sim.into_parts();
        assert_eq!((outcome.cycles, outcome.stopped), (20, false));
        assert_eq!(grants, [0, 3, 6, 9, 12, 15, 18]);
        assert_eq!(bus.trace().total_slots(), 7);
    }
}
