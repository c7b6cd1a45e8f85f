//! The [`Simulation`] facade: model + agents + stop condition + engine +
//! probe, runnable as a library call.
//!
//! Before this facade, driving a simulation meant hand-rolling the
//! [`drive`](crate::drive) closure: tick every client, evaluate the stop
//! condition, aggregate sleep horizons, absorb skipped cycles. The
//! builder packages that loop once, for any [`BusModel`] and any set of
//! [`SimAgent`]s:
//!
//! ```
//! use sim_core::agent::{Idle, SimAgent};
//! use sim_core::sim::{Engine, Simulation, StopWhen};
//! use sim_core::{BusModel, Control, CoreId, Cycle};
//! # use sim_core::trace::GrantTrace;
//! #
//! # #[derive(Debug)]
//! # struct ToyBus { trace: GrantTrace, queue: u64, busy_until: Option<Cycle> }
//! # impl ToyBus { fn new() -> Self { ToyBus { trace: GrantTrace::counting(1), queue: 0, busy_until: None } } }
//! # impl BusModel for ToyBus {
//! #     type Request = u32;
//! #     type Completion = ();
//! #     type Error = ();
//! #     fn begin_cycle(&mut self, now: Cycle) -> Option<()> {
//! #         if self.busy_until == Some(now) { self.busy_until = None; return Some(()); }
//! #         None
//! #     }
//! #     fn post(&mut self, dur: u32) -> Result<(), ()> { self.queue += dur as u64; Ok(()) }
//! #     fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
//! #         if self.busy_until.is_none() && self.queue > 0 {
//! #             let d = self.queue.min(4); self.queue -= d;
//! #             self.busy_until = Some(now + d);
//! #             self.trace.record(now, CoreId::from_index(0), d as u32);
//! #             return Some(CoreId::from_index(0));
//! #         }
//! #         None
//! #     }
//! #     fn owner(&self) -> Option<CoreId> { self.busy_until.map(|_| CoreId::from_index(0)) }
//! #     fn trace(&self) -> &GrantTrace { &self.trace }
//! # }
//!
//! /// An agent that posts one 4-cycle request every 10 cycles, 5 times.
//! struct Pulser { left: u32, next: Cycle, done_at: Option<Cycle> }
//!
//! impl SimAgent<ToyBus> for Pulser {
//!     fn tick(&mut self, now: Cycle, _done: Option<&()>, bus: &mut ToyBus) -> Control {
//!         if self.left > 0 && now >= self.next {
//!             bus.post(4).unwrap();
//!             self.left -= 1;
//!             self.next += 10;
//!         }
//!         if self.left == 0 && self.done_at.is_none() {
//!             self.done_at = Some(now);
//!         }
//!         Control::Sleep(self.next)
//!     }
//!     fn wake_at(&self) -> Option<Cycle> { Some(self.next) }
//!     fn is_done(&self) -> bool { self.left == 0 }
//!     fn done_at(&self) -> Option<Cycle> { self.done_at }
//!     fn reset(&mut self, _rng: &mut sim_core::rng::SimRng) {
//!         *self = Pulser { left: 5, next: 0, done_at: None };
//!     }
//! }
//!
//! let mut sim = Simulation::builder()
//!     .model(ToyBus::new())
//!     .agent(Pulser { left: 5, next: 0, done_at: None })
//!     .agent(Idle::new())
//!     .stop(StopWhen::AllAgentsDone)
//!     .engine(Engine::Events)
//!     .max_cycles(1_000)
//!     .build();
//! let outcome = sim.run();
//! assert!(outcome.stopped, "all five pulses posted");
//! assert_eq!(sim.model().trace().total_slots(), 5);
//! ```
//!
//! The loop reproduces [`drive`](crate::drive) /
//! [`drive_events`](crate::drive_events) **bit for bit** (same cycles
//! executed, same skip decisions, same stop cycle) while additionally
//! feeding a [`Probe`]; the workspace's identity tests pin this through
//! the platform layer. On top of the event-horizon skips, the events
//! engine ticks an agent only when it is due or addressed by the cycle's
//! completion (its wake calendar), and fast-forwards whole periods of
//! runs that settle into a limit cycle (see [`Simulation::run`]).

use crate::agent::SimAgent;
use crate::engine::{BusModel, Control, DriveOutcome};
use crate::probe::{ModelEvent, NoProbe, Probe};
use crate::{CoreId, Cycle};
use std::iter::zip;

/// A boxed agent driving model `M` (the common currency of
/// [`SimulationBuilder::agent`]).
pub type BoxedAgent<M> = Box<dyn SimAgent<M, <M as BusModel>::Completion>>;

/// When a [`Simulation`] run stops (besides the `max_cycles` safety
/// limit, which always applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Stop when the agent at this index reports
    /// [`is_done`](SimAgent::is_done) (the platform's "TuA done", with
    /// index 0).
    AgentDone(usize),
    /// Stop when every agent reports done.
    AllAgentsDone,
    /// Run exactly this many cycles (for share/fairness measurements).
    Horizon(Cycle),
}

/// Which cycle loop executes the run. [`Engine::Events`] and
/// [`Engine::Naive`] produce bit-identical results; see
/// [`drive`](crate::drive) and [`drive_events`](crate::drive_events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The event-horizon fast path: skips provably uneventful cycle
    /// ranges and jumps whole periods of limit cycles. The default.
    #[default]
    Events,
    /// The per-cycle reference loop: visits every cycle.
    Naive,
}

/// Renders as the scenario `engine` key's vocabulary (`events`, `naive`).
impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Events => "events",
            Engine::Naive => "naive",
        })
    }
}

/// A fully assembled simulation: one model, its agents, a stop
/// condition, an engine and a probe. Built by [`Simulation::builder`];
/// see the [module documentation](self) for an end-to-end example.
pub struct Simulation<M: BusModel, P: Probe<M::Completion> = NoProbe> {
    model: M,
    agents: Vec<BoxedAgent<M>>,
    stop: StopWhen,
    engine: Engine,
    max_cycles: Cycle,
    probe: P,
    outcome: Option<DriveOutcome>,
}

impl<M: BusModel> Simulation<M, NoProbe> {
    /// Starts assembling a simulation. The model type is inferred from
    /// the [`model`](SimulationBuilder::model) call.
    pub fn builder() -> SimulationBuilder<M, NoProbe> {
        SimulationBuilder {
            model: None,
            agents: Vec::new(),
            stop: StopWhen::AllAgentsDone,
            engine: Engine::default(),
            max_cycles: Cycle::MAX,
            probe: NoProbe,
        }
    }
}

impl<M: BusModel, P: Probe<M::Completion>> Simulation<M, P> {
    /// Drives the simulation to its stop condition (or the `max_cycles`
    /// safety limit) and returns the outcome.
    ///
    /// The loop is bit-identical to [`drive`](crate::drive) (naive
    /// engine) / [`drive_events`](crate::drive_events) (events engine)
    /// wrapped around the canonical client-ticking closure: the cycles
    /// executed, the skip decisions and the stop cycle are the same, and
    /// so is every agent's accounting.
    ///
    /// # Wake calendar
    ///
    /// The events engine ticks an agent only at the executed cycles that
    /// concern it: when it is **due**, or when the cycle's completion is
    /// [addressed](SimAgent::is_addressed) to it. An agent's due cycle
    /// comes from its last verdict: `Sleep(t)` makes it due at `t` (and
    /// never before the next cycle), `Continue` and `Stop` at the next
    /// cycle. Each agent's unticked cycles are replayed through
    /// [`absorb_skipped`](SimAgent::absorb_skipped) just before its next
    /// tick, before a limit-cycle sample and at the end of the run. The
    /// earliest due cycle bounds how far the engine may skip. Platform
    /// runs have one agent per core (at most 64), so the calendar is two
    /// flat vectors scanned once per executed cycle, not a priority
    /// queue. The naive engine reads every verdict as `Continue`, so it
    /// ticks every agent on every cycle and stays the dense reference.
    ///
    /// # Limit-cycle fast-forward
    ///
    /// Saturated runs often settle into a **limit cycle**: the whole
    /// simulation returns to an earlier state, shifted in time, and then
    /// repeats. At rotation marks (grants of the first core ever granted)
    /// the events engine samples every component's
    /// [`limit_cycle_state`](BusModel::limit_cycle_state) and compares it
    /// with one checkpoint sample (Brent's cycle detection, in O(1)
    /// memory; once a few dozen samples found no repeat, samples thin out
    /// so a run that never recurs pays for few). When a sample repeats one
    /// taken `p` cycles earlier, every component applies `k` whole periods
    /// at once through [`limit_cycle_jump`](BusModel::limit_cycle_jump),
    /// `k` as large as keeps the run short of any agent's final completion
    /// (its [`limit_cycle_bound`](SimAgent::limit_cycle_bound)), of a
    /// [`StopWhen::Horizon`] stop and of `max_cycles`. The jump runs only
    /// without an active probe and when the model and every active agent
    /// accept the hooks, which decline by default. That is decided once
    /// before the first cycle; a run that declines pays one branch per
    /// executed cycle.
    ///
    /// Running consumes the workload: call it once per assembled run
    /// (reset the model and agents before reusing the same `Simulation`).
    pub fn run(&mut self) -> DriveOutcome {
        let events = self.engine == Engine::Events;
        let model = &mut self.model;
        let agents = &mut self.agents;
        let probe = &mut self.probe;
        let stop_when = self.stop;
        let max_cycles = self.max_cycles;

        // Inert agents (permanently-done no-ops, e.g. idle cores) are
        // dropped from the per-cycle loop up front: their tick/absorb
        // are no-ops and their sleep horizon is unbounded by contract.
        let active: Vec<usize> = (0..agents.len())
            .filter(|&i| !agents[i].is_inert())
            .collect();
        // The wake calendar, one entry per active agent: the cycle it is
        // next due at, and the first cycle whose accounting it has not
        // absorbed.
        let mut due: Vec<Cycle> = vec![0; active.len()];
        let mut seen: Vec<Cycle> = vec![0; active.len()];
        let mut detector = (events && !P::ACTIVE)
            .then(|| LimitCycles::new(model, agents, &active))
            .flatten();
        // A jump may land on any cycle that keeps the run going: before
        // the horizon stop fires (at cycle h - 1) and before max_cycles.
        let last_landing = match stop_when {
            StopWhen::Horizon(h) => h.saturating_sub(2),
            _ => Cycle::MAX,
        }
        .min(max_cycles.saturating_sub(1));
        let mut now: Cycle = 0;
        let mut stopped = false;
        while now < max_cycles {
            let completed = model.begin_cycle(now);
            if P::ACTIVE {
                if let Some(c) = &completed {
                    probe.on_completion(now, c);
                }
            }
            let mut agent_stop = false;
            let mut until = Cycle::MAX;
            for ((&i, due), seen) in zip(zip(&active, &mut due), &mut seen) {
                let agent = &mut agents[i];
                // Asleep and not addressed: this cycle cannot concern it,
                // and its last verdict still bounds the skip.
                if *due > now && !completed.as_ref().is_some_and(|c| agent.is_addressed(c)) {
                    until = until.min(*due);
                    continue;
                }
                if *seen < now {
                    agent.absorb_skipped(now - *seen);
                }
                *seen = now + 1;
                *due = match agent.tick(now, completed.as_ref(), model) {
                    Control::Sleep(t) if events => t.max(now + 1),
                    Control::Stop => {
                        agent_stop = true;
                        now + 1
                    }
                    _ => now + 1,
                };
                until = until.min(*due);
            }
            let granted = model.end_cycle(now);
            if P::ACTIVE {
                if let Some(core) = granted {
                    probe.on_grant(now, core);
                }
                model.drain_events(&mut |event| forward_event(probe, event));
            }
            let stop = agent_stop
                || match stop_when {
                    StopWhen::AgentDone(i) => agents[i].is_done(),
                    // Inert agents are done by contract: checking the
                    // active set is equivalent.
                    StopWhen::AllAgentsDone => active.iter().all(|&i| agents[i].is_done()),
                    StopWhen::Horizon(h) => now + 1 >= h,
                };
            if stop {
                now += 1;
                stopped = true;
                break;
            }
            if let (Some(lc), Some(core)) = (&mut detector, granted) {
                if lc.due(core) {
                    // The sample reads every agent's counters as of now.
                    absorb_until(now + 1, agents, &active, &mut seen);
                    if let Some(shift) = lc.sample(now, last_landing, model, agents, &active) {
                        // The landing cycle stands in for this one, whole
                        // periods later; resume stepping right after it.
                        for t in due.iter_mut().chain(&mut seen) {
                            *t = t.saturating_add(shift);
                        }
                        now += shift + 1;
                        continue;
                    }
                }
            }
            if events {
                if let StopWhen::Horizon(h) = stop_when {
                    // The stop fires from the tick at cycle h - 1; never
                    // skip it.
                    until = until.min(h - 1);
                }
                if until > now + 1 {
                    if let Some(event) = model.next_event(now) {
                        let jump = event.min(until).min(max_cycles);
                        if jump > now + 1 {
                            model.advance(now, jump);
                            now = jump;
                            continue;
                        }
                    }
                }
            }
            now += 1;
        }
        // The run ends without ticking everyone at its last cycle (or
        // mid-skip at max_cycles): absorb each agent's tail so agent
        // statistics stay bit-identical to the per-cycle loop.
        absorb_until(now, agents, &active, &mut seen);
        if P::ACTIVE {
            // A run truncated mid-skip leaves events buffered by the
            // final `advance` (e.g. coalesced credit flips); drain them
            // before closing the stream.
            model.drain_events(&mut |event| forward_event(probe, event));
            probe.on_finish(now);
        }
        let outcome = DriveOutcome {
            cycles: now,
            stopped,
        };
        self.outcome = Some(outcome);
        outcome
    }

    /// The model, for post-run extraction (traces, statistics).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to reset it between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The agents, in the order they were added.
    pub fn agents(&self) -> &[BoxedAgent<M>] {
        &self.agents
    }

    /// Mutable access to the agents (e.g. to reset them between runs).
    pub fn agents_mut(&mut self) -> &mut [BoxedAgent<M>] {
        &mut self.agents
    }

    /// The agent at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn agent(&self, index: usize) -> &dyn SimAgent<M, M::Completion> {
        &*self.agents[index]
    }

    /// The probe, for post-run extraction of its accumulated data.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The outcome of the last [`run`](Simulation::run), if any.
    pub fn outcome(&self) -> Option<DriveOutcome> {
        self.outcome
    }

    /// Decomposes the simulation into its parts (model, agents, probe).
    pub fn into_parts(self) -> (M, Vec<BoxedAgent<M>>, P) {
        (self.model, self.agents, self.probe)
    }
}

/// Routes one drained [`ModelEvent`] to its probe callback (shared by
/// the per-cycle and end-of-run drains so a future event variant cannot
/// be wired into one and forgotten in the other).
fn forward_event<C, P: Probe<C>>(probe: &mut P, event: ModelEvent) {
    match event {
        ModelEvent::CreditFlip { at, core, eligible } => probe.on_credit_flip(at, core, eligible),
    }
}

/// Absorbs each active agent's unticked cycles before `end` (the wake
/// calendar's `seen` entries move up to `end`).
fn absorb_until<M: BusModel>(
    end: Cycle,
    agents: &mut [BoxedAgent<M>],
    active: &[usize],
    seen: &mut [Cycle],
) {
    for (&i, seen) in zip(active, seen) {
        if *seen < end {
            agents[i].absorb_skipped(end - *seen);
            *seen = end;
        }
    }
}

/// Comparisons a checkpoint may serve while every rotation is sampled;
/// past it each new checkpoint doubles the stride between samples too.
const DENSE_SAMPLES: u64 = 16;

/// The events engine's limit-cycle detector and jump (see
/// [`Simulation::run`]). Detection is Brent's algorithm: each sample is
/// compared with one checkpoint sample, which the current sample
/// replaces after `budget` comparisons, doubling the budget.
#[derive(Default)]
struct LimitCycles {
    /// The core whose grants mark a rotation: the first core granted.
    marker: Option<CoreId>,
    /// Rotations between samples, and those left until the next one.
    stride: u64,
    skip: u64,
    /// The checkpoint's cycle, state and counters.
    checkpoint: Option<Cycle>,
    saved_state: Vec<u64>,
    saved_counters: Vec<u64>,
    /// Comparisons the checkpoint serves, and those made so far.
    budget: u64,
    compared: u64,
    state: Vec<u64>,
    counters: Vec<u64>,
    /// Where each component's counters end: the model's, then each
    /// active agent's.
    ends: Vec<usize>,
}

impl LimitCycles {
    /// The detector for a run, if the model and every active agent
    /// accept the limit-cycle hooks.
    fn new<M: BusModel>(model: &M, agents: &[BoxedAgent<M>], active: &[usize]) -> Option<Self> {
        let mut lc = LimitCycles {
            stride: 1,
            budget: 1,
            ..Default::default()
        };
        lc.collect(0, model, agents, active).then_some(lc)
    }

    /// Samples every component at the end of cycle `now`; `false` when
    /// any of them declines.
    fn collect<M: BusModel>(
        &mut self,
        now: Cycle,
        model: &M,
        agents: &[BoxedAgent<M>],
        active: &[usize],
    ) -> bool {
        self.state.clear();
        self.counters.clear();
        self.ends.clear();
        let mut accepted = model.limit_cycle_state(now, &mut self.state, &mut self.counters);
        self.ends.push(self.counters.len());
        for &i in active {
            accepted &= agents[i].limit_cycle_state(now, &mut self.state, &mut self.counters);
            self.ends.push(self.counters.len());
        }
        accepted
    }

    /// Whether a grant to `core` is a rotation mark due for a sample; the
    /// per-grant cost of the detector, kept inline.
    #[inline]
    fn due(&mut self, core: CoreId) -> bool {
        if *self.marker.get_or_insert(core) != core {
            return false;
        }
        let due = self.skip == 0;
        self.skip = if due { self.stride - 1 } else { self.skip - 1 };
        due
    }

    /// Samples at the end of executed cycle `now`. When the state repeats
    /// the checkpoint's, jumps as many whole periods as land no later
    /// than `last_landing` and returns the cycles jumped.
    fn sample<M: BusModel>(
        &mut self,
        now: Cycle,
        last_landing: Cycle,
        model: &mut M,
        agents: &mut [BoxedAgent<M>],
        active: &[usize],
    ) -> Option<Cycle> {
        self.collect(now, model, agents, active);
        match self.checkpoint {
            Some(then) if self.state == self.saved_state => self.jump(
                now - then,
                last_landing.saturating_sub(now),
                model,
                agents,
                active,
            ),
            _ => {
                self.compared += 1;
                if self.checkpoint.is_none() || self.compared == self.budget {
                    std::mem::swap(&mut self.state, &mut self.saved_state);
                    std::mem::swap(&mut self.counters, &mut self.saved_counters);
                    self.checkpoint = Some(now);
                    self.compared = 0;
                    self.budget *= 2;
                    if self.budget > DENSE_SAMPLES {
                        // Later samples must sit whole strides after the
                        // checkpoint to meet it again.
                        self.stride *= 2;
                        self.skip = self.stride - 1;
                    }
                }
                None
            }
        }
    }

    /// Jumps as many whole `period`s as fit in `room` cycles and every
    /// agent's bound allows; returns the cycles jumped.
    fn jump<M: BusModel>(
        &mut self,
        period: Cycle,
        room: Cycle,
        model: &mut M,
        agents: &mut [BoxedAgent<M>],
        active: &[usize],
    ) -> Option<Cycle> {
        let deltas: Vec<u64> = zip(&self.counters, &self.saved_counters)
            .map(|(c, b)| c - b)
            .collect();
        let of = |k: usize| &deltas[self.ends[k]..self.ends[k + 1]];
        let mut periods = room / period;
        for (k, &i) in active.iter().enumerate() {
            periods = periods.min(agents[i].limit_cycle_bound(of(k)));
        }
        if periods == 0 {
            return None;
        }
        let shift = periods * period;
        model.limit_cycle_jump(periods, shift, &deltas[..self.ends[0]]);
        for (k, &i) in active.iter().enumerate() {
            agents[i].limit_cycle_jump(periods, shift, of(k));
        }
        // The checkpoint predates the jumped span: detect afresh.
        self.checkpoint = None;
        (self.stride, self.skip, self.budget, self.compared) = (1, 0, 1, 0);
        Some(shift)
    }
}

/// Assembles a [`Simulation`]; created by [`Simulation::builder`].
pub struct SimulationBuilder<M: BusModel, P: Probe<M::Completion> = NoProbe> {
    model: Option<M>,
    agents: Vec<BoxedAgent<M>>,
    stop: StopWhen,
    engine: Engine,
    max_cycles: Cycle,
    probe: P,
}

impl<M: BusModel, P: Probe<M::Completion>> SimulationBuilder<M, P> {
    /// Sets the interconnect model (a flat bus, a split bus, a fabric —
    /// anything implementing [`BusModel`]). Required.
    pub fn model(mut self, model: M) -> Self {
        self.model = Some(model);
        self
    }

    /// Adds one agent. The agents ticked at a cycle tick in insertion
    /// order; index 0 is the platform's "task under analysis" slot.
    pub fn agent(mut self, agent: impl SimAgent<M, M::Completion> + 'static) -> Self {
        self.agents.push(Box::new(agent));
        self
    }

    /// Adds one already-boxed agent (the currency of agent registries).
    pub fn agent_boxed(mut self, agent: BoxedAgent<M>) -> Self {
        self.agents.push(agent);
        self
    }

    /// Adds a batch of boxed agents, in order.
    pub fn agents(mut self, agents: impl IntoIterator<Item = BoxedAgent<M>>) -> Self {
        self.agents.extend(agents);
        self
    }

    /// Sets the stop condition (default: [`StopWhen::AllAgentsDone`]).
    pub fn stop(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// Selects the cycle loop (default: [`Engine::Events`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the hard safety limit on simulated cycles (default:
    /// `Cycle::MAX`, i.e. effectively unlimited — set one whenever the
    /// stop condition could fail to fire).
    pub fn max_cycles(mut self, max_cycles: Cycle) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Attaches a streaming observer, replacing the zero-cost
    /// [`NoProbe`] default.
    pub fn observe<Q: Probe<M::Completion>>(self, probe: Q) -> SimulationBuilder<M, Q> {
        SimulationBuilder {
            model: self.model,
            agents: self.agents,
            stop: self.stop,
            engine: self.engine,
            max_cycles: self.max_cycles,
            probe,
        }
    }

    /// Finishes assembly.
    ///
    /// # Panics
    ///
    /// Panics if no model was set.
    pub fn build(self) -> Simulation<M, P> {
        Simulation {
            model: self.model.expect("Simulation::builder needs a model"),
            agents: self.agents,
            stop: self.stop,
            engine: self.engine,
            max_cycles: self.max_cycles,
            probe: self.probe,
            outcome: None,
        }
    }

    /// Convenience: [`build`](SimulationBuilder::build) then
    /// [`run`](Simulation::run), returning the finished simulation for
    /// result extraction (its [`outcome`](Simulation::outcome) is set).
    pub fn run(self) -> Simulation<M, P> {
        let mut sim = self.build();
        sim.run();
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentStats, Idle};
    use crate::engine::tests::OneShot;
    use crate::rng::SimRng;
    use crate::trace::GrantTrace;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Posts `n` 7-cycle requests, one per 20-cycle period.
    struct Periodic {
        left: u32,
        next: Cycle,
        waiting: bool,
        done_at: Option<Cycle>,
        skipped_seen: u64,
    }

    impl Periodic {
        fn new(n: u32) -> Self {
            Periodic {
                left: n,
                next: 0,
                waiting: false,
                done_at: None,
                skipped_seen: 0,
            }
        }
    }

    impl SimAgent<OneShot, Cycle> for Periodic {
        fn tick(&mut self, now: Cycle, completed: Option<&Cycle>, bus: &mut OneShot) -> Control {
            if completed.is_some() && self.waiting {
                self.waiting = false;
                if self.left == 0 && self.done_at.is_none() {
                    self.done_at = Some(now);
                }
            }
            if self.left > 0 && now >= self.next && !self.waiting {
                bus.post(7).unwrap();
                self.left -= 1;
                self.next = (now / 20 + 1) * 20;
                self.waiting = true;
            }
            Control::Sleep(self.wake_at().unwrap())
        }

        fn wake_at(&self) -> Option<Cycle> {
            if self.waiting || self.left == 0 {
                Some(Cycle::MAX)
            } else {
                Some(self.next)
            }
        }

        fn is_done(&self) -> bool {
            self.left == 0 && !self.waiting
        }

        fn done_at(&self) -> Option<Cycle> {
            self.done_at
        }

        fn absorb_skipped(&mut self, skipped: u64) {
            self.skipped_seen += skipped;
        }

        fn reset(&mut self, _rng: &mut SimRng) {
            *self = Periodic::new(5);
        }
    }

    fn run_with(engine: Engine) -> (Simulation<OneShot>, DriveOutcome) {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(5))
            .agent(Idle::new())
            .stop(StopWhen::AllAgentsDone)
            .engine(engine)
            .max_cycles(10_000)
            .build();
        let outcome = sim.run();
        (sim, outcome)
    }

    #[test]
    fn engines_agree_bit_for_bit() {
        let (naive_sim, naive) = run_with(Engine::Naive);
        let (fast_sim, fast) = run_with(Engine::Events);
        assert_eq!(naive, fast);
        assert_eq!(
            naive_sim.model().trace().total_slots(),
            fast_sim.model().trace().total_slots()
        );
        assert_eq!(naive_sim.agent(0).done_at(), fast_sim.agent(0).done_at());
        assert!(fast_sim.model().skipped > 0, "fast path must skip");
        assert_eq!(naive_sim.model().skipped, 0, "naive path never skips");
        // Skipped-cycle accounting reaches the agents.
        assert!(fast_sim.outcome().is_some());
    }

    #[test]
    fn horizon_stop_is_exact() {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(1_000))
            .stop(StopWhen::Horizon(137))
            .max_cycles(10_000)
            .build();
        let outcome = sim.run();
        assert!(outcome.stopped);
        assert_eq!(outcome.cycles, 137);
    }

    #[test]
    fn agent_done_stop_uses_the_indexed_agent() {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(2))
            .stop(StopWhen::AgentDone(0))
            .max_cycles(10_000)
            .build();
        let outcome = sim.run();
        assert!(outcome.stopped);
        assert_eq!(sim.agent(0).done_at(), Some(27), "second grant at 20+7");
    }

    #[test]
    fn max_cycles_bounds_the_run() {
        let mut sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(u32::MAX))
            .max_cycles(100)
            .build();
        let outcome = sim.run();
        assert!(!outcome.stopped);
        assert_eq!(outcome.cycles, 100);
    }

    #[derive(Default)]
    struct CountingProbe {
        grants: u64,
        completions: u64,
        finish: Option<Cycle>,
    }

    impl<C> Probe<C> for CountingProbe {
        fn on_grant(&mut self, _now: Cycle, _core: CoreId) {
            self.grants += 1;
        }
        fn on_completion(&mut self, _now: Cycle, _c: &C) {
            self.completions += 1;
        }
        fn on_finish(&mut self, total: Cycle) {
            self.finish = Some(total);
        }
    }

    #[test]
    fn probe_sees_every_grant_and_completion() {
        let sim = Simulation::builder()
            .model(OneShot::new())
            .agent(Periodic::new(5))
            .stop(StopWhen::AllAgentsDone)
            .max_cycles(10_000)
            .observe(CountingProbe::default())
            .run();
        let probe = sim.probe();
        assert_eq!(probe.grants, 5);
        assert_eq!(probe.completions, 5);
        assert_eq!(probe.finish, sim.outcome().map(|o| o.cycles));
        assert_eq!(sim.model().trace().total_slots(), 5);
    }

    #[test]
    #[should_panic(expected = "needs a model")]
    fn building_without_a_model_panics() {
        let _ = Simulation::<OneShot>::builder().build();
    }

    /// A round-robin toy bus that implements the limit-cycle hooks and
    /// counts the jumps it takes.
    #[derive(Debug)]
    struct Ring {
        trace: GrantTrace,
        /// Per core: `(duration, issued_at)` of the pending request.
        pending: Vec<Option<(u32, Cycle)>>,
        /// `(owner, ends_at)` of the transaction in flight.
        busy: Option<(CoreId, Cycle)>,
        cursor: usize,
        idle: u64,
        jumps: u64,
        /// Executed cycles, and those that reported a completion.
        executed: u64,
        completions: u64,
    }

    impl BusModel for Ring {
        type Request = (CoreId, u32, Cycle);
        type Completion = CoreId;
        type Error = ();

        fn begin_cycle(&mut self, now: Cycle) -> Option<CoreId> {
            self.executed += 1;
            let (core, ends_at) = self.busy?;
            (ends_at == now).then(|| {
                self.busy = None;
                self.completions += 1;
                core
            })
        }

        fn post(&mut self, (core, dur, at): (CoreId, u32, Cycle)) -> Result<(), ()> {
            self.pending[core.index()] = Some((dur, at));
            Ok(())
        }

        fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
            let n = self.pending.len();
            let next = (0..n)
                .map(|k| (self.cursor + k) % n)
                .find(|&i| self.busy.is_none() && self.pending[i].is_some());
            if self.busy.is_none() && next.is_none() {
                self.idle += 1;
            }
            let i = next?;
            let (dur, _) = self.pending[i].take().unwrap();
            let core = CoreId::from_index(i);
            self.busy = Some((core, now + dur as Cycle));
            self.trace.record(now, core, dur);
            self.cursor = (i + 1) % n;
            Some(core)
        }

        fn owner(&self) -> Option<CoreId> {
            self.busy.map(|(core, _)| core)
        }

        fn trace(&self) -> &GrantTrace {
            &self.trace
        }

        fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
            Some(match self.busy {
                Some((_, ends_at)) => ends_at,
                None if self.pending.iter().all(Option::is_none) => Cycle::MAX,
                None => now + 1,
            })
        }

        fn advance(&mut self, from: Cycle, to: Cycle) {
            if self.busy.is_none() {
                self.idle += to - from - 1;
            }
        }

        fn limit_cycle_state(
            &self,
            now: Cycle,
            state: &mut Vec<u64>,
            counters: &mut Vec<u64>,
        ) -> bool {
            state.extend(match self.busy {
                Some((core, ends_at)) => [core.index() as u64 + 1, ends_at - now],
                None => [0, 0],
            });
            for slot in &self.pending {
                state.extend(slot.map_or([0, 0], |(dur, at)| [dur as u64, now - at]));
            }
            state.push(self.cursor as u64);
            self.trace.limit_cycle_counters(counters);
            counters.push(self.idle);
            true
        }

        fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
            self.idle += periods * self.trace.limit_cycle_jump(periods, shift, deltas)[0];
            if let Some((_, ends_at)) = &mut self.busy {
                *ends_at += shift;
            }
            for (_, at) in self.pending.iter_mut().flatten() {
                *at += shift;
            }
            self.jumps += 1;
        }
    }

    thread_local! {
        /// Limit-cycle jumps taken by `Feeder`s on this test's thread.
        static FEEDER_JUMPS: Cell<u64> = const { Cell::new(0) };
    }

    /// Posts `dur`-cycle requests, each `gap` cycles after the previous
    /// one completed; finite when `total` is set. Counts the cycles it
    /// stalls on the bus, ticked or absorbed.
    struct Feeder {
        core: CoreId,
        dur: u32,
        gap: Cycle,
        total: Option<u64>,
        /// Next post cycle; `None` while waiting on the bus or done.
        post_at: Option<Cycle>,
        completed: u64,
        stalled: u64,
        done_at: Option<Cycle>,
        opt_in: bool,
    }

    impl Feeder {
        fn new(core: usize, dur: u32, gap: Cycle, total: Option<u64>) -> Self {
            let core = CoreId::from_index(core);
            let (post_at, completed, stalled, done_at) = (Some(gap), 0, 0, None);
            let opt_in = true;
            Feeder {
                core,
                dur,
                gap,
                total,
                post_at,
                completed,
                stalled,
                done_at,
                opt_in,
            }
        }

        fn waiting(&self) -> bool {
            self.post_at.is_none() && self.done_at.is_none()
        }
    }

    impl SimAgent<Ring, CoreId> for Feeder {
        fn tick(&mut self, now: Cycle, done: Option<&CoreId>, bus: &mut Ring) -> Control {
            self.stalled += self.waiting() as u64;
            if done == Some(&self.core) {
                self.completed += 1;
                if Some(self.completed) == self.total {
                    self.done_at = Some(now);
                } else {
                    self.post_at = Some(now + self.gap);
                }
            }
            if self.post_at.is_some_and(|t| now >= t) {
                bus.post((self.core, self.dur, now)).unwrap();
                self.post_at = None;
            }
            Control::Sleep(self.post_at.unwrap_or(Cycle::MAX))
        }

        fn wake_at(&self) -> Option<Cycle> {
            Some(self.post_at.unwrap_or(Cycle::MAX))
        }

        fn is_addressed(&self, done: &CoreId) -> bool {
            *done == self.core
        }

        fn is_done(&self) -> bool {
            self.done_at.is_some()
        }

        fn done_at(&self) -> Option<Cycle> {
            self.done_at
        }

        fn absorb_skipped(&mut self, skipped: u64) {
            self.stalled += self.waiting() as u64 * skipped;
        }

        fn reset(&mut self, _rng: &mut SimRng) {}

        fn stats(&self) -> AgentStats {
            AgentStats {
                completed: self.completed,
                bus_stall_cycles: self.stalled,
                done_at: self.done_at,
                ..Default::default()
            }
        }

        fn limit_cycle_state(
            &self,
            now: Cycle,
            state: &mut Vec<u64>,
            counters: &mut Vec<u64>,
        ) -> bool {
            state.extend(match (self.post_at, self.done_at) {
                (Some(t), _) => [0, t - now],
                (None, None) => [1, 0],
                (None, Some(_)) => [2, 0],
            });
            counters.extend([self.completed, self.stalled]);
            self.opt_in
        }

        fn limit_cycle_bound(&self, deltas: &[u64]) -> u64 {
            let left = self
                .total
                .map_or(u64::MAX, |n| (n - self.completed).saturating_sub(1));
            left.checked_div(deltas[0]).unwrap_or(u64::MAX)
        }

        fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
            if let Some(t) = &mut self.post_at {
                *t += shift;
            }
            self.completed += periods * deltas[0];
            self.stalled += periods * deltas[1];
            FEEDER_JUMPS.with(|j| j.set(j.get() + 1));
        }
    }

    /// A 4-core ring with nothing posted.
    fn ring_model() -> Ring {
        Ring {
            trace: GrantTrace::counting(4),
            pending: vec![None; 4],
            busy: None,
            cursor: 0,
            idle: 0,
            jumps: 0,
            executed: 0,
            completions: 0,
        }
    }

    /// A task of `tua` requests (endless for `None`) on core 0 against a
    /// saturating and a gapped feeder; core 3 is left free.
    fn ring(engine: Engine, tua: Option<u64>) -> SimulationBuilder<Ring> {
        Simulation::builder()
            .model(ring_model())
            .agent(Feeder::new(0, 3, 2, tua))
            .agent(Feeder::new(1, 5, 0, None))
            .agent(Idle::new())
            .agent(Feeder::new(2, 4, 7, None))
            .stop(StopWhen::AgentDone(0))
            .engine(engine)
            .max_cycles(1_000_000)
    }

    /// Outcome, model counters and every agent's statistics.
    fn observed<P: Probe<CoreId>>(sim: &Simulation<Ring, P>) -> impl PartialEq + std::fmt::Debug {
        let model = sim.model();
        let mut counters = vec![model.idle, model.trace.last_end()];
        model.trace.limit_cycle_counters(&mut counters);
        let stats: Vec<AgentStats> = sim.agents().iter().map(|a| a.stats()).collect();
        (sim.outcome(), counters, stats)
    }

    /// Runs the builder under both engines and checks the events run
    /// against the naive one; returns the events run's jumps as counted
    /// by the model and by the agents.
    fn jumps_matching_naive(build: impl Fn(Engine) -> SimulationBuilder<Ring>) -> (u64, u64) {
        FEEDER_JUMPS.with(|j| j.set(0));
        let naive = build(Engine::Naive).run();
        assert_eq!(naive.model().jumps + FEEDER_JUMPS.with(Cell::get), 0);
        let events = build(Engine::Events).run();
        assert_eq!(observed(&events), observed(&naive));
        (events.model().jumps, FEEDER_JUMPS.with(Cell::get))
    }

    #[test]
    fn limit_cycle_jump_matches_the_naive_loop() {
        let (model, agents) = jumps_matching_naive(|e| ring(e, Some(400)));
        assert!(model > 0, "a periodic run must jump");
        assert_eq!(agents, 3 * model, "every active agent joins every jump");
    }

    #[test]
    fn limit_cycle_jump_stays_exact_at_every_horizon_and_limit() {
        // An endless run ended by a horizon or the safety limit at every
        // offset into its period (a dozen cycles).
        for h in 5_000..5_040 {
            let horizon = |e| ring(e, None).stop(StopWhen::Horizon(h));
            assert!(jumps_matching_naive(horizon).0 > 0, "horizon {h}");
            let limit = |e| ring(e, None).max_cycles(h);
            assert!(jumps_matching_naive(limit).0 > 0, "max_cycles {h}");
        }
    }

    #[test]
    fn an_active_probe_keeps_the_run_out_of_the_jump() {
        FEEDER_JUMPS.with(|j| j.set(0));
        let probed = |e| ring(e, Some(400)).observe(CountingProbe::default()).run();
        let (naive, events) = (probed(Engine::Naive), probed(Engine::Events));
        assert_eq!(observed(&events), observed(&naive));
        assert_eq!(events.probe().grants, naive.probe().grants);
        assert_eq!(events.probe().completions, naive.probe().completions);
        assert_eq!(events.model().jumps + FEEDER_JUMPS.with(Cell::get), 0);
    }

    #[test]
    fn one_declining_agent_keeps_the_run_out_of_the_jump() {
        let with_core_3 = |opt_in: bool| {
            move |e| {
                let mut stubborn = Feeder::new(3, 2, 9, None);
                stubborn.opt_in = opt_in;
                ring(e, Some(400)).agent(stubborn)
            }
        };
        assert_eq!(jumps_matching_naive(with_core_3(false)), (0, 0));
        // The same agent accepting the hooks lets the run jump again.
        assert!(jumps_matching_naive(with_core_3(true)).0 > 0);
    }

    /// What a [`Logged`] feeder saw of the engine.
    #[derive(Default)]
    struct TickLog {
        ticks: u64,
        /// Ticks at a cycle that reported any completion.
        completion_ticks: u64,
        /// Ticks at which the feeder was neither due nor addressed.
        stray: u64,
    }

    /// A [`Feeder`] that logs its ticks. With `precise` unset it reads
    /// every completion as addressed to it, as the trait's default does.
    /// It declines the limit-cycle hooks, so its runs never jump.
    struct Logged {
        feeder: Feeder,
        precise: bool,
        /// The cycle its last verdict asked for.
        due: Cycle,
        log: Rc<RefCell<TickLog>>,
    }

    impl SimAgent<Ring, CoreId> for Logged {
        fn tick(&mut self, now: Cycle, done: Option<&CoreId>, bus: &mut Ring) -> Control {
            let mut log = self.log.borrow_mut();
            log.ticks += 1;
            log.completion_ticks += done.is_some() as u64;
            log.stray += (now < self.due && done != Some(&self.feeder.core)) as u64;
            let verdict = self.feeder.tick(now, done, bus);
            self.due = match verdict {
                Control::Sleep(t) => t,
                _ => now + 1,
            };
            verdict
        }

        fn wake_at(&self) -> Option<Cycle> {
            self.feeder.wake_at()
        }

        fn is_addressed(&self, done: &CoreId) -> bool {
            !self.precise || self.feeder.is_addressed(done)
        }

        fn is_done(&self) -> bool {
            self.feeder.is_done()
        }

        fn done_at(&self) -> Option<Cycle> {
            self.feeder.done_at
        }

        fn absorb_skipped(&mut self, skipped: u64) {
            self.feeder.absorb_skipped(skipped);
        }

        fn reset(&mut self, rng: &mut SimRng) {
            self.feeder.reset(rng);
        }

        fn stats(&self) -> AgentStats {
            self.feeder.stats()
        }
    }

    /// The ring run with every feeder logged: a 400-request task on core
    /// 0, a saturating feeder on core 1 and a gapped one on core 2, after
    /// an idle slot that keeps calendar entries and agent indices apart.
    /// Returns the finished run and the feeders' logs in agent order.
    fn logged_ring(engine: Engine, precise: bool) -> (Simulation<Ring>, Vec<Rc<RefCell<TickLog>>>) {
        let feeders = [
            Feeder::new(0, 3, 2, Some(400)),
            Feeder::new(1, 5, 0, None),
            Feeder::new(2, 4, 7, None),
        ];
        let logs: Vec<Rc<RefCell<TickLog>>> = feeders.iter().map(|_| Rc::default()).collect();
        let mut builder = Simulation::builder()
            .model(ring_model())
            .agent(Idle::new())
            .stop(StopWhen::AgentDone(1))
            .engine(engine)
            .max_cycles(1_000_000);
        for (feeder, log) in zip(feeders, &logs) {
            let log = log.clone();
            builder = builder.agent(Logged {
                feeder,
                precise,
                due: 0,
                log,
            });
        }
        (builder.run(), logs)
    }

    #[test]
    fn the_wake_calendar_ticks_an_agent_only_when_due_or_addressed() {
        let (naive, naive_logs) = logged_ring(Engine::Naive, true);
        let (events, logs) = logged_ring(Engine::Events, true);
        assert_eq!(observed(&events), observed(&naive));
        // The dense reference ticks every active agent on every cycle.
        let cycles = naive.model().executed;
        assert_eq!(Some(cycles), naive.outcome().map(|o| o.cycles));
        for log in &naive_logs {
            assert_eq!(log.borrow().ticks, cycles);
        }
        for (k, log) in logs.iter().enumerate() {
            assert_eq!(log.borrow().stray, 0, "feeder {k} ticked off its calendar");
        }
        // The gapped feeder sleeps through most of the others' cycles.
        let (gapped, executed) = (logs[2].borrow().ticks, events.model().executed);
        assert!(2 * gapped < executed, "{gapped} ticks in {executed} cycles");
    }

    #[test]
    fn an_agent_keeping_the_default_is_addressed_wakes_on_every_completion() {
        let (naive, _) = logged_ring(Engine::Naive, false);
        let (events, logs) = logged_ring(Engine::Events, false);
        assert_eq!(observed(&events), observed(&naive));
        let completions = events.model().completions;
        assert!(completions > 0);
        for log in &logs {
            assert_eq!(log.borrow().completion_ticks, completions);
        }
    }
}
