//! The cycle protocol shared by every bus variant: the [`BusModel`]
//! trait, the [`Control`] verdict its clients return each cycle, and the
//! [`DriveOutcome`] of a run.
//!
//! # Why
//!
//! The repository models two interconnect substrates — a non-split bus and
//! a split-transaction bus — and historically each exposed its own cycle
//! protocol (`tick(now)` versus `begin_cycle`/`end_cycle`), so every
//! harness hand-rolled its own drive loop. `BusModel` fixes the protocol
//! once:
//!
//! 1. [`BusModel::begin_cycle`]`(t)` — a transaction ending at `t`
//!    completes and is reported;
//! 2. clients post requests for cycle `t` through the model's own request
//!    port (the trait leaves posting to each model);
//! 3. [`BusModel::end_cycle`]`(t)` — arbitration runs if the bus is free
//!    and per-cycle filter state (credit counters) advances.
//!
//! The one loop that drives a model is
//! [`SimulationBuilder::run`](crate::SimulationBuilder::run): it owns the
//! `while` loop, the stop condition and the cycle counter, and ticks the
//! model's clients, which are [`SimAgent`](crate::SimAgent)s — a harness that
//! only posts traffic wraps its closure in
//! [`FnAgent`](crate::agent::FnAgent). The [`sim`](crate::sim) module
//! documentation shows a model written against this protocol, end to end.

use crate::trace::GrantTrace;
use crate::{CoreId, Cycle};

/// The cycle protocol shared by every bus variant.
///
/// Implementations advance in two phases per cycle so that a core whose
/// transaction completes at cycle `t` can post its next request *within*
/// cycle `t` and be re-arbitrated immediately (back-to-back transactions,
/// as on hardware where the request lines are already raised when a
/// transfer ends). See the [module documentation](self) for the full
/// protocol and an end-to-end example.
pub trait BusModel {
    /// The completion report of phase 1.
    type Completion;

    /// Phase 1 of cycle `now`: reports a transaction ending at `now`.
    fn begin_cycle(&mut self, now: Cycle) -> Option<Self::Completion>;

    /// Phase 3 of cycle `now`: arbitration (if the bus is free) and filter
    /// bookkeeping, after the clients' posts of phase 2. Returns the
    /// freshly granted core, if any.
    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId>;

    /// The grant trace accumulated so far.
    fn trace(&self) -> &GrantTrace;

    /// The bus's **event horizon**: called after [`end_cycle`](
    /// BusModel::end_cycle)`(now)`, returns the earliest future cycle at
    /// which anything observable can happen on the bus side — a completion
    /// is reported, a grant becomes possible, or internal state stops
    /// evolving in the closed form applied by [`advance`](BusModel::advance)
    /// — **assuming no client interaction** (no posts) in between.
    ///
    /// Returning `Some(e)` is a guarantee: for every cycle `t` in
    /// `(now, e)`, `begin_cycle(t)` would report nothing and `end_cycle(t)`
    /// would grant nothing, so the events engine of
    /// [`SimulationBuilder::run`](crate::SimulationBuilder::run) may
    /// replace those per-cycle calls with one `advance` and jump straight
    /// to `e` (or to any earlier cycle — resuming early is always safe).
    /// `Some(Cycle::MAX)` means "no bus-side event at all until a client
    /// acts".
    ///
    /// The default returns `None` — "cannot predict" — which disables
    /// skipping entirely, so implementations that never override this (or
    /// that compose unpredictable filters/policies) keep the exact
    /// per-cycle behaviour.
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }

    /// Bulk-advances bus state over the uneventful cycle range
    /// `from + 1 ..= to - 1` (exclusive of both the already-executed cycle
    /// `from` and the about-to-be-executed cycle `to`), exactly as if each
    /// had been stepped through `begin_cycle`/`end_cycle` with no client
    /// interaction: cycle counters accumulate, credit/filter state evolves,
    /// and the internal cycle cursor moves so `begin_cycle(to)` is accepted
    /// next.
    ///
    /// Only called by the events engine of
    /// [`SimulationBuilder::run`](crate::SimulationBuilder::run) for
    /// ranges validated by [`next_event`](BusModel::next_event); the
    /// default is a no-op, which pairs with the default `next_event` of
    /// `None` (never invoked).
    fn advance(&mut self, from: Cycle, to: Cycle) {
        let _ = (from, to);
    }

    /// Drains buffered observer events (see
    /// [`ModelEvent`](crate::probe::ModelEvent)) into `sink`, in
    /// occurrence order — internal state changes the protocol's return
    /// values cannot surface, such as credit-eligibility flips.
    ///
    /// Called by the [`Simulation`](crate::sim::Simulation) loop after
    /// each executed cycle **only when an active probe is attached**; the
    /// default no-op means models pay nothing unless they opt into event
    /// recording (e.g. the bus workspace's flip watcher, which is off
    /// until explicitly enabled).
    fn drain_events(&mut self, sink: &mut dyn FnMut(crate::probe::ModelEvent)) {
        let _ = sink;
    }

    /// Limit-cycle hook of the events engine (see
    /// [`SimulationBuilder::run`](crate::SimulationBuilder::run)): appends
    /// the model's complete dynamic state at the end of executed cycle
    /// `now` to `state`, every absolute time written as an offset from
    /// `now`, and its statistics counters (values that only accumulate;
    /// the same number of them at every call) to `counters`, then returns
    /// `true`.
    ///
    /// Equal `state` sequences at two cycles must mean the model evolves
    /// identically from both, given the same client behaviour; counters
    /// must not influence that evolution. The default returns `false`,
    /// which keeps every run over the model out of the fast-forward. The
    /// engine asks once before the first cycle, and an implementation
    /// that accepts then must accept for the whole run.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        let _ = (now, state, counters);
        false
    }

    /// Applies `periods` further repetitions of a detected limit cycle,
    /// `shift` cycles in all: every counter pushed by
    /// [`limit_cycle_state`](BusModel::limit_cycle_state) grows by
    /// `periods` times its entry in `deltas` (its growth over one period,
    /// in push order), and every absolute time moves `shift` cycles later.
    /// Only called on models whose `limit_cycle_state` accepted.
    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        let _ = (periods, shift, deltas);
    }
}

/// Per-cycle verdict a client returns to the engine (see
/// [`SimAgent::tick`](crate::SimAgent::tick)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep simulating.
    Continue,
    /// Stop after finishing the current cycle.
    Stop,
    /// The client guarantees it will not post before cycle `until`, and
    /// does not need to observe any cycle before it either — the events engine of
    /// [`SimulationBuilder::run`](crate::SimulationBuilder::run) may
    /// fast-forward to `min(until, bus event horizon)`. [`Engine::Naive`](crate::Engine::Naive)
    /// treats this exactly like [`Control::Continue`], so a client written
    /// for the fast path runs unchanged (and bit-identically) under the
    /// naive loop.
    Sleep(Cycle),
}

/// Result of a [`SimulationBuilder::run`](crate::SimulationBuilder::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Cycles simulated (the loop ran cycles `0..cycles`).
    pub cycles: Cycle,
    /// Whether the stop condition fired or a client requested the stop
    /// (`false` means the `max_cycles` safety limit was hit first).
    pub stopped: bool,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agent::FnAgent;
    use crate::sim::{Engine, Simulation};

    /// Minimal in-crate model for engine tests (the `sim` tests share it).
    #[derive(Debug)]
    pub(crate) struct OneShot {
        trace: GrantTrace,
        pub(crate) pending: Option<u32>,
        busy_until: Option<Cycle>,
        pub(crate) skipped: u64,
    }

    impl OneShot {
        pub(crate) fn new() -> Self {
            OneShot {
                trace: GrantTrace::counting(1),
                pending: None,
                busy_until: None,
                skipped: 0,
            }
        }

        /// Posts a `req`-cycle request (phase 2).
        pub(crate) fn post(&mut self, req: u32) -> Result<(), &'static str> {
            if self.pending.is_some() {
                return Err("already pending");
            }
            self.pending = Some(req);
            Ok(())
        }

        /// The core holding the bus, if any.
        pub(crate) fn owner(&self) -> Option<CoreId> {
            self.busy_until.map(|_| CoreId::from_index(0))
        }
    }

    impl BusModel for OneShot {
        type Completion = Cycle;

        fn begin_cycle(&mut self, now: Cycle) -> Option<Cycle> {
            if self.busy_until == Some(now) {
                self.busy_until = None;
                return Some(now);
            }
            None
        }

        fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
            if self.busy_until.is_none() {
                if let Some(dur) = self.pending.take() {
                    self.busy_until = Some(now + dur as Cycle);
                    self.trace.record(now, CoreId::from_index(0), dur);
                    return Some(CoreId::from_index(0));
                }
            }
            None
        }

        fn trace(&self) -> &GrantTrace {
            &self.trace
        }

        fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
            match (self.busy_until, self.pending) {
                (Some(ends_at), _) => Some(ends_at),
                (None, Some(_)) => Some(now + 1),
                (None, None) => Some(Cycle::MAX),
            }
        }

        fn advance(&mut self, from: Cycle, to: Cycle) {
            self.skipped += to - from - 1;
        }
    }

    /// Runs `bus` under `engine` for up to `max_cycles` cycles with one
    /// closure client; returns the outcome and the model.
    fn drive_with(
        engine: Engine,
        bus: OneShot,
        max_cycles: Cycle,
        client: impl FnMut(&mut OneShot, Cycle, Option<&Cycle>) -> Control,
    ) -> (DriveOutcome, OneShot) {
        let sim = Simulation::builder()
            .model(bus)
            .agent(FnAgent(client))
            .engine(engine)
            .max_cycles(max_cycles)
            .run();
        (sim.outcome(), sim.into_parts().0)
    }

    #[test]
    fn drive_runs_to_horizon() {
        let (out, bus) = drive_with(
            Engine::Naive,
            OneShot::new(),
            10,
            |bus, _now, _completed| {
                if bus.owner().is_none() {
                    let _ = bus.post(2);
                }
                Control::Continue
            },
        );
        assert_eq!(out.cycles, 10);
        assert!(!out.stopped);
        assert!(bus.trace().total_slots() >= 3);
    }

    #[test]
    fn drive_stops_on_request() {
        let mut completions = 0;
        let (out, _) = drive_with(
            Engine::Naive,
            OneShot::new(),
            1_000,
            |bus, _now, completed| {
                if completed.is_some() {
                    completions += 1;
                    return Control::Stop;
                }
                if bus.owner().is_none() {
                    let _ = bus.post(5);
                }
                Control::Continue
            },
        );
        assert!(out.stopped);
        assert_eq!(completions, 1);
        assert!(out.cycles < 1_000);
    }

    #[test]
    fn drive_on_empty_horizon_is_a_no_op() {
        for engine in [Engine::Naive, Engine::Events] {
            let mut visited = 0u64;
            let (out, bus) = drive_with(engine, OneShot::new(), 0, |_, _, _| {
                visited += 1;
                Control::Continue
            });
            assert_eq!(out.cycles, 0);
            assert!(!out.stopped);
            assert_eq!((visited, bus.skipped), (0, 0), "{engine}");
        }
    }

    #[test]
    fn drive_treats_sleep_as_continue() {
        let mut visited = 0u64;
        let (out, bus) = drive_with(Engine::Naive, OneShot::new(), 10, |_, _, _| {
            visited += 1;
            Control::Sleep(Cycle::MAX)
        });
        assert_eq!(out.cycles, 10);
        assert_eq!(visited, 10, "naive loop never skips");
        assert_eq!(bus.skipped, 0);
    }

    /// The periodic-poster closure used by the naive/fast equivalence
    /// tests: posts a 7-cycle request every 20 cycles.
    fn periodic(period: Cycle) -> impl FnMut(&mut OneShot, Cycle, Option<&Cycle>) -> Control {
        move |bus, now, _completed| {
            if now % period == 0 && bus.owner().is_none() && bus.pending.is_none() {
                bus.post(7).unwrap();
            }
            let next_issue = (now / period + 1) * period;
            Control::Sleep(next_issue)
        }
    }

    #[test]
    fn events_engine_skips_but_matches_naive() {
        let (a, naive) = drive_with(Engine::Naive, OneShot::new(), 200, periodic(20));
        let (b, fast) = drive_with(Engine::Events, OneShot::new(), 200, periodic(20));
        assert_eq!(a, b);
        assert_eq!(naive.trace.total_slots(), fast.trace.total_slots());
        assert_eq!(
            naive.trace.busy_cycles(CoreId::from_index(0)),
            fast.trace.busy_cycles(CoreId::from_index(0))
        );
        assert!(fast.skipped > 100, "skipped only {}", fast.skipped);
    }

    #[test]
    fn events_engine_stops_at_the_same_cycle_as_naive() {
        let stopper = |bus: &mut OneShot, _now: Cycle, completed: Option<&Cycle>| {
            if completed.is_some() {
                return Control::Stop;
            }
            if bus.owner().is_none() && bus.pending.is_none() {
                bus.post(9).unwrap();
            }
            Control::Sleep(Cycle::MAX)
        };
        let (a, _) = drive_with(Engine::Naive, OneShot::new(), 1_000, stopper);
        let (b, fast) = drive_with(Engine::Events, OneShot::new(), 1_000, stopper);
        assert!(a.stopped && b.stopped);
        assert_eq!(a.cycles, b.cycles);
        assert!(fast.skipped > 0);
    }

    #[test]
    fn events_engine_respects_the_safety_limit() {
        let (out, bus) = drive_with(Engine::Events, OneShot::new(), 50, |_, _, _| {
            Control::Sleep(Cycle::MAX)
        });
        assert_eq!(out.cycles, 50);
        assert!(!out.stopped);
        // One executed cycle + 49 bulk-advanced ones.
        assert_eq!(bus.skipped, 49);
    }

    #[test]
    fn events_engine_steps_when_the_bus_cannot_predict() {
        /// A model whose `next_event` keeps the default `None`.
        #[derive(Debug)]
        struct Opaque(OneShot);
        impl BusModel for Opaque {
            type Completion = Cycle;
            fn begin_cycle(&mut self, now: Cycle) -> Option<Cycle> {
                self.0.begin_cycle(now)
            }
            fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
                self.0.end_cycle(now)
            }
            fn trace(&self) -> &GrantTrace {
                self.0.trace()
            }
        }
        let sleeper =
            FnAgent(|_: &mut Opaque, _: Cycle, _: Option<&Cycle>| Control::Sleep(Cycle::MAX));
        let sim = Simulation::builder()
            .model(Opaque(OneShot::new()))
            .agent(sleeper)
            .engine(Engine::Events)
            .max_cycles(30)
            .run();
        let out = sim.outcome();
        assert_eq!(out.cycles, 30);
        // The model is stepped through every cycle, while the agent
        // sleeps through all of them after its first tick.
        let counters = sim.counters();
        assert_eq!((counters.executed_cycles, counters.skipped_cycles), (30, 0));
        assert_eq!(
            counters.ticks,
            [1],
            "default next_event must disable skipping"
        );
        assert_eq!(sim.model().0.skipped, 0);
    }
}
