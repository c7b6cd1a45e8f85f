//! The miss-stream memory agent: synthetic address streams through the
//! real cache hierarchy (and optionally the MESI hub) driving the bus.
//!
//! Unlike the synthetic contenders (whose request streams are hand-tuned
//! profiles), a [`MemAgent`]'s bus traffic is *derived*: a seeded address
//! generator (working-set size, locality/stride mix, read/write ratio,
//! sharing degree) runs every access through a private
//! [`CoreMemory`] hierarchy — and, for shared-segment accesses, through
//! the run's [`CoherenceHub`](cba_mem::CoherenceHub) — and only the
//! resulting misses, write-throughs, coherence fetches, upgrades,
//! invalidation acks and writebacks reach the [`RequestPort`]. Burstiness
//! comes from working-set dynamics, not profile knobs.
//!
//! The agent follows the same engine contract as [`Core`](crate::Core):
//! absolute-time states and an exact sleep horizon in each tick's verdict,
//! so the naive and event-horizon engines agree bit for bit.

use cba_bus::{BusRequest, CompletedTransaction, RequestKind, RequestPort};
use cba_mem::coherence::SHARED_LINE_BYTES;
use cba_mem::{BusTransaction, CoreMemory, LatencyModel, MemAccess, MemoryConfig, SharedHub};
use sim_core::agent::{AgentStats, MemStats, SimAgent};
use sim_core::rng::SimRng;
use sim_core::{Control, CoreId, Cycle};
use std::collections::VecDeque;

/// Base address of the private working-set region (the caches are
/// private, so cores may overlap without aliasing effects).
const DATA_BASE: u64 = 0x0010_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Generate the next access this cycle.
    Ready,
    /// Think gap through cycle `until - 1`; the next access starts at
    /// `until` (absolute, so the events engine can skip the stretch).
    Thinking { until: Cycle },
    /// The head of the transaction queue waits to be posted.
    AwaitPost,
    /// The head of the transaction queue is posted/in service.
    Blocked,
    /// All accesses performed and every transaction drained.
    Done,
}

/// A memory agent: one synthetic access stream, one private hierarchy,
/// at most one outstanding bus request (transactions of a multi-part
/// coherence access post sequentially).
///
/// Built by the platform's agent registry as kind `mem` (private stream
/// only) or `shared` (a fraction of accesses hits the coherent shared
/// segment through the run's hub).
#[derive(Debug)]
pub struct MemAgent {
    id: CoreId,
    config: MemoryConfig,
    lat: LatencyModel,
    /// The run's MESI directory; `None` for private-only `mem` agents.
    hub: Option<SharedHub>,
    mem: CoreMemory,
    state: State,
    /// Bus transactions of the in-flight access, posted head-first.
    queue: VecDeque<BusTransaction>,
    /// Accesses started so far.
    issued: u64,
    /// Sequential-walk position in the private working set.
    walk: u64,
    mstats: MemStats,
    completed: u64,
    done_at: Option<Cycle>,
    rng: SimRng,
}

impl MemAgent {
    /// Creates the agent. Pass a [`SharedHub`] to make it coherent (kind
    /// `shared`); `None` keeps the whole stream private (kind `mem`).
    /// RNG streams for the hierarchy and the generator are forked off
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; validate with
    /// [`MemoryConfig::validate`] first when the configuration is
    /// user-supplied.
    pub fn new(
        id: CoreId,
        config: MemoryConfig,
        lat: LatencyModel,
        hub: Option<SharedHub>,
        rng: &mut SimRng,
    ) -> Self {
        config.validate().expect("invalid memory configuration");
        let mut mem_rng = rng.fork(0x11 + id.index() as u64);
        let gen_rng = rng.fork(0x2000 + id.index() as u64);
        MemAgent {
            id,
            mem: CoreMemory::new(&config.hierarchy(), &mut mem_rng),
            lat,
            hub,
            state: State::Ready,
            queue: VecDeque::new(),
            issued: 0,
            walk: 0,
            mstats: MemStats::default(),
            completed: 0,
            done_at: None,
            rng: gen_rng,
            config,
        }
    }

    /// Draws and executes the next access of the stream.
    fn start_access(&mut self, now: Cycle) {
        if self.issued == self.config.accesses {
            self.finish(now);
            return;
        }
        self.issued += 1;
        self.mstats.accesses += 1;
        let is_write = self.rng.gen_bool(self.config.write_frac);
        let shared = self.hub.is_some() && self.rng.gen_bool(self.config.share_frac);
        // The previous access drained the queue; this one's transactions
        // go straight into it.
        debug_assert!(self.queue.is_empty());
        if shared {
            let line = self.rng.gen_range_usize(0..self.config.shared_lines);
            let hub = self.hub.as_ref().expect("shared access implies a hub");
            let mut hub = hub.borrow_mut();
            if is_write {
                hub.write(self.id, line, &self.lat, &mut self.queue);
            } else {
                hub.read(self.id, line, &self.lat, &mut self.queue);
            }
        } else {
            let lines = self.config.working_set_lines();
            let line = if self.rng.gen_bool(self.config.locality) {
                self.walk = (self.walk + 1) % lines;
                self.walk
            } else {
                self.rng.gen_range_u64(0..lines)
            };
            let addr = DATA_BASE + line * SHARED_LINE_BYTES;
            let access = if is_write {
                MemAccess::store(addr)
            } else {
                MemAccess::load(addr)
            };
            let outcome = self.mem.access(access, &mut self.rng);
            self.queue.extend(outcome.bus_transaction(&self.lat));
        }
        if self.queue.is_empty() {
            // Cache/ownership hit: one busy cycle, no bus traffic.
            self.after_access(now);
        } else {
            self.mstats.misses += 1;
            self.mstats.bus_txns += self.queue.len() as u64;
            for tx in &self.queue {
                match tx.kind {
                    RequestKind::CohRead
                    | RequestKind::CohReadEx
                    | RequestKind::CohUpgrade
                    | RequestKind::CohInvAck => self.mstats.coherence += 1,
                    RequestKind::CohWriteback => {
                        self.mstats.coherence += 1;
                        self.mstats.writebacks += 1;
                    }
                    RequestKind::L2MissDirty => self.mstats.writebacks += 1,
                    _ => {}
                }
            }
            self.state = State::AwaitPost;
        }
    }

    /// An access finished (hit, or its last transaction completed):
    /// finish the run, think, or go straight to the next access.
    fn after_access(&mut self, now: Cycle) {
        if self.issued == self.config.accesses {
            self.finish(now);
        } else if self.config.think > 0 {
            self.state = State::Thinking {
                until: now + 1 + self.config.think as Cycle,
            };
        } else {
            self.state = State::Ready;
        }
    }

    fn finish(&mut self, now: Cycle) {
        self.state = State::Done;
        if self.done_at.is_none() {
            self.done_at = Some(now);
        }
    }

    /// The tick's verdict, the agent's sleep horizon: `Sleep(Cycle::MAX)`
    /// when only a bus completion can unblock the agent (or it is done),
    /// `Sleep(until)` through a think stretch, `Continue` when it must be
    /// ticked every cycle (about to generate or to post). In every `Sleep`
    /// state a tick before the named cycle is a no-op, so the engine may
    /// skip it.
    fn verdict(&self) -> Control {
        match self.state {
            State::Done | State::Blocked => Control::Sleep(Cycle::MAX),
            State::Thinking { until } => Control::Sleep(until),
            State::AwaitPost | State::Ready => Control::Continue,
        }
    }
}

/// The open client-side interface: miss-stream traffic.
impl<P: RequestPort + ?Sized> SimAgent<P, CompletedTransaction> for MemAgent {
    /// Advances the agent by one cycle (the same protocol as the core
    /// model's).
    ///
    /// # Panics
    ///
    /// Panics if the bus rejects a post — the agent never double-posts
    /// and never exceeds MaxL, so a rejection is a wiring bug.
    fn tick(
        &mut self,
        now: Cycle,
        completed: Option<&CompletedTransaction>,
        port: &mut P,
    ) -> Control {
        // 1. Absorb a completion addressed to this agent.
        if let Some(ct) = completed {
            if ct.core == self.id {
                debug_assert!(matches!(self.state, State::Blocked));
                self.completed += 1;
                self.queue.pop_front();
                if self.queue.is_empty() {
                    self.after_access(now);
                } else {
                    self.state = State::AwaitPost;
                }
            }
        }

        // 2. Post the next queued transaction of the in-flight access.
        if matches!(self.state, State::AwaitPost) && port.can_accept(self.id) {
            let tx = *self.queue.front().expect("AwaitPost implies a queued txn");
            port.post(BusRequest::new(self.id, tx.duration, tx.kind, now))
                .expect("mem agent never double-posts");
            self.state = State::Blocked;
        }

        // 3. Execute: the next access starts once the think gap is over.
        match self.state {
            State::Done | State::Blocked | State::AwaitPost => {}
            State::Thinking { until } if now < until => {}
            State::Thinking { .. } | State::Ready => self.start_access(now),
        }
        self.verdict()
    }

    fn is_addressed(&self, completed: &CompletedTransaction) -> bool {
        completed.core == self.id
    }

    /// Whether the stream has fully finished (all transactions drained).
    fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    fn stats(&self) -> AgentStats {
        AgentStats {
            completed: self.completed,
            done_at: self.done_at,
            mem: Some(self.mstats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};
    use cba_mem::shared_hub;

    fn small_config() -> MemoryConfig {
        MemoryConfig {
            working_set: 1024,
            accesses: 300,
            write_frac: 0.3,
            share_frac: 0.5,
            shared_lines: 16,
            locality: 0.8,
            think: 2,
            ..Default::default()
        }
    }

    fn run_solo(agent: &mut MemAgent, max_cycles: Cycle) -> (Bus, Cycle) {
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut now = 0;
        while !SimAgent::<Bus, _>::is_done(agent) && now < max_cycles {
            let completed = bus.begin_cycle(now);
            agent.tick(now, completed.as_ref(), &mut bus);
            bus.end_cycle(now);
            now += 1;
        }
        (bus, now)
    }

    #[test]
    fn private_stream_finishes_and_accounts_every_access() {
        let mut rng = SimRng::seed_from(7);
        let mut agent = MemAgent::new(
            CoreId::from_index(0),
            small_config(),
            LatencyModel::paper(),
            None,
            &mut rng,
        );
        let (bus, _) = run_solo(&mut agent, 200_000);
        assert!(SimAgent::<Bus, _>::is_done(&agent));
        let s = agent.mstats;
        assert_eq!(s.accesses, 300);
        assert!(s.misses > 0, "cold caches must miss");
        assert!(s.misses <= s.accesses);
        assert_eq!(s.coherence, 0, "private streams post no coherence traffic");
        assert_eq!(bus.trace().total_slots(), s.bus_txns);
    }

    #[test]
    fn coherent_stream_posts_coherence_traffic() {
        let mut rng = SimRng::seed_from(11);
        let hub = shared_hub(1, 16);
        let mut agent = MemAgent::new(
            CoreId::from_index(0),
            small_config(),
            LatencyModel::paper(),
            Some(hub.clone()),
            &mut rng,
        );
        run_solo(&mut agent, 200_000);
        assert!(SimAgent::<Bus, _>::is_done(&agent));
        let s = agent.mstats;
        assert!(s.coherence > 0, "shared accesses must fetch coherently");
        assert!(s.coherence <= s.bus_txns);
        hub.borrow().check_invariants().expect("MESI safety");
    }

    #[test]
    fn smaller_working_set_lowers_the_miss_rate() {
        let lat = LatencyModel::paper();
        let miss_rate = |ws: u64| {
            let mut rng = SimRng::seed_from(3);
            let config = MemoryConfig {
                working_set: ws,
                accesses: 2000,
                write_frac: 0.2,
                locality: 0.7,
                think: 0,
                ..Default::default()
            };
            let mut agent = MemAgent::new(CoreId::from_index(0), config, lat, None, &mut rng);
            run_solo(&mut agent, 2_000_000);
            assert!(SimAgent::<Bus, _>::is_done(&agent));
            let s = agent.mstats;
            s.misses as f64 / s.accesses as f64
        };
        let small = miss_rate(512);
        let large = miss_rate(64 * 1024);
        assert!(
            small < large,
            "fitting working set must hit more: {small} vs {large}"
        );
    }
}
