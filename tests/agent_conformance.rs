//! `SimAgent` conformance suite: every shipped agent implementation must
//! honor the two contracts the open client API rests on.
//!
//! 1. **Verdict honesty** — an agent sleeping until the cycle its tick's
//!    [`Control::Sleep`] verdict names never posts earlier: ticking it
//!    only at those cycles (plus its completion cycles, which always wake
//!    it) produces the *exact* post stream of ticking it every cycle. The
//!    sparse run is driven by the verdicts alone, as the events engine
//!    is. This is the property the event-horizon engine's bit-identity
//!    guarantee reduces to on the client side.
//! 2. **Wake calendar** — beside another agent, a completion is
//!    [addressed](sim_core::SimAgent::is_addressed) to the agent exactly
//!    when it is its own, and ticking the agent only when its last
//!    verdict made it due or such a completion arrives, absorbing every
//!    other cycle, reproduces the dense run. This is what lets the events
//!    engine leave an agent asleep while the others act.
//!
//! Agents are built through the [`AgentRegistry`], so the suite also
//! pins the registry's kind coverage.

use cba_bus::{Bus, BusConfig, BusError, BusModel, BusRequest, PolicyKind, RequestPort};
use cba_cpu::FixedRequestTask;
use cba_platform::agents::{default_registry, BoxedPortAgent};
use cba_platform::{BusSetup, CoreLoad, PlatformConfig};
use sim_core::rng::SimRng;
use sim_core::{AgentStats, Control, CoreId, Cycle, SimAgent};

/// A request port that records every accepted post before forwarding it
/// to the real bus.
struct SpyPort {
    bus: Bus,
    posts: Vec<(Cycle, usize, u32)>,
}

impl SpyPort {
    fn new(n_cores: usize) -> Self {
        SpyPort {
            bus: Bus::new(
                BusConfig::new(n_cores, 56).unwrap(),
                PolicyKind::RoundRobin.build(n_cores, 56),
            ),
            posts: Vec::new(),
        }
    }
}

impl RequestPort for SpyPort {
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        self.bus.post(req)?;
        self.posts
            .push((req.issued_at(), req.core().index(), req.duration()));
        Ok(())
    }

    fn can_accept(&self, core: CoreId) -> bool {
        self.bus.can_accept(core)
    }
}

/// Every shipped agent kind, as the load that builds it.
fn shipped_loads() -> Vec<CoreLoad> {
    let agent = |kind: &str| CoreLoad::Custom {
        kind: kind.into(),
        args: Vec::new(),
    };
    vec![
        CoreLoad::Profile(cba_workloads::suite::rspeed()),
        CoreLoad::Streaming { accesses: 60 },
        CoreLoad::Saturating { duration: 28 },
        CoreLoad::Periodic {
            duration: 11,
            period: 73,
            phase: 9,
        },
        CoreLoad::FixedTask {
            n_requests: 40,
            duration: 6,
            gap: 4,
        },
        CoreLoad::Idle,
        agent("mem"),
        agent("shared"),
    ]
}

/// A small synthetic-stream config so the memory agents finish inside
/// the conformance horizons.
fn memory_config() -> cba_mem::MemoryConfig {
    cba_mem::MemoryConfig {
        working_set: 1024,
        accesses: 120,
        think: 3,
        l1_sets: 16,
        l1_ways: 2,
        share_frac: 0.4,
        ..Default::default()
    }
}

fn build(load: &CoreLoad, seed: u64) -> BoxedPortAgent {
    let mut platform = PlatformConfig::paper(&BusSetup::Rp);
    platform.memory = Some(memory_config());
    let mut rng = SimRng::seed_from(seed).fork(0xC0);
    default_registry()
        .build(load, CoreId::from_index(0), &platform, None, &mut rng)
        .unwrap_or_else(|e| panic!("{load}: {e}"))
}

/// Ticks `agent` every cycle for `horizon` cycles; returns the post log
/// and the final stats.
fn drive_dense(
    agent: &mut BoxedPortAgent,
    horizon: Cycle,
) -> (Vec<(Cycle, usize, u32)>, AgentStats) {
    let mut port = SpyPort::new(1);
    for now in 0..horizon {
        let done = port.bus.begin_cycle(now);
        agent.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
    }
    (port.posts, agent.stats())
}

/// Ticks `agent` only at the cycles its verdicts name and the bus's event
/// cycles (the event engine's visiting pattern); returns the post log
/// and how many cycles were actually visited.
fn drive_sparse(agent: &mut BoxedPortAgent, horizon: Cycle) -> (Vec<(Cycle, usize, u32)>, u64) {
    let mut port = SpyPort::new(1);
    let mut now: Cycle = 0;
    let mut prev: Option<Cycle> = None;
    let mut visited = 0u64;
    while now < horizon {
        let done = port.bus.begin_cycle(now);
        if let Some(p) = prev {
            let skipped = now - p - 1;
            if skipped > 0 {
                agent.absorb_skipped(skipped);
            }
        }
        prev = Some(now);
        let verdict = agent.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
        visited += 1;
        let next = match (verdict, port.bus.next_event(now)) {
            // Sleep until the agent's wake or the bus's next event
            // (completions wake the agent), whichever is first.
            (Control::Sleep(w), Some(ev)) => w.min(ev).max(now + 1),
            // An agent demanding every cycle gets every cycle, and a bus
            // that cannot predict forces per-cycle stepping.
            _ => now + 1,
        };
        now = next.min(horizon);
    }
    if let Some(p) = prev {
        let tail = horizon.saturating_sub(1).saturating_sub(p);
        if tail > 0 {
            agent.absorb_skipped(tail);
        }
    }
    (port.posts, visited)
}

/// Contract 1: sleeping until the cycle a verdict names loses nothing —
/// and in particular the agent never needed a cycle before it.
#[test]
fn sleeping_until_wake_at_never_changes_the_post_stream() {
    const HORIZON: Cycle = 6_000;
    for load in shipped_loads() {
        let mut dense = build(&load, 11);
        let (dense_posts, dense_stats) = drive_dense(&mut dense, HORIZON);
        let mut sparse = build(&load, 11);
        let (sparse_posts, visited) = drive_sparse(&mut sparse, HORIZON);
        assert_eq!(
            dense_posts, sparse_posts,
            "'{load}': sparse ticking at verdict cycles must reproduce the dense post stream"
        );
        assert_eq!(
            dense_stats,
            sparse.stats(),
            "'{load}': stats must survive skipped-cycle absorption"
        );
        if !matches!(load, CoreLoad::Saturating { .. }) {
            assert!(
                visited < HORIZON,
                "'{load}': agent declared no sleepable cycle in {HORIZON}"
            );
        }
    }
}

/// Drives `agent` (core 0) for `horizon` cycles beside a saturating
/// contender on core 1, checking at every completion that the agent is
/// addressed exactly by its own. With `calendar` set, the agent is ticked
/// only when its last verdict made it due or its own completion arrives,
/// and absorbs every other cycle. Returns the post log of both cores, the
/// agent's final stats and its tick count.
fn drive_beside_a_contender(
    agent: &mut BoxedPortAgent,
    horizon: Cycle,
    calendar: bool,
) -> (Vec<(Cycle, usize, u32)>, AgentStats, u64) {
    let mut port = SpyPort::new(2);
    let mut contender = FixedRequestTask::saturating(CoreId::from_index(1), 28);
    let (mut due, mut seen, mut ticks) = (0, 0, 0);
    for now in 0..horizon {
        let done = port.bus.begin_cycle(now);
        let addressed = done.as_ref().is_some_and(|ct| {
            let own = ct.core == CoreId::from_index(0);
            assert_eq!(agent.is_addressed(ct), own, "cycle {now}: {ct:?}");
            own
        });
        if !calendar || now >= due || addressed {
            if seen < now {
                agent.absorb_skipped(now - seen);
            }
            seen = now + 1;
            ticks += 1;
            due = match agent.tick(now, done.as_ref(), &mut port) {
                Control::Sleep(t) => t,
                _ => now + 1,
            };
        }
        contender.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
    }
    if seen < horizon {
        agent.absorb_skipped(horizon - seen);
    }
    (port.posts, agent.stats(), ticks)
}

/// Contract 2: ticking an agent only when it is due or addressed loses
/// nothing while another agent keeps the bus busy.
#[test]
fn ticking_only_when_due_or_addressed_reproduces_the_dense_run() {
    const HORIZON: Cycle = 6_000;
    for load in shipped_loads() {
        let mut dense = build(&load, 23);
        let (dense_posts, dense_stats, _) = drive_beside_a_contender(&mut dense, HORIZON, false);
        let mut sparse = build(&load, 23);
        let (sparse_posts, sparse_stats, ticks) =
            drive_beside_a_contender(&mut sparse, HORIZON, true);
        assert_eq!(
            dense_posts, sparse_posts,
            "'{load}': the calendar must reproduce the dense post stream"
        );
        assert_eq!(
            dense_stats, sparse_stats,
            "'{load}': stats must survive the cycles the calendar absorbed"
        );
        assert!(ticks < HORIZON, "'{load}': never left asleep");
    }
}

/// The verdict is honest about *passivity* too: an agent sleeping until
/// `Cycle::MAX` while waiting must not act when ticked anyway.
#[test]
fn agents_waiting_on_completions_ignore_spurious_ticks() {
    let load = CoreLoad::FixedTask {
        n_requests: 3,
        duration: 6,
        gap: 10,
    };
    let mut agent = build(&load, 5);
    let mut port = SpyPort::new(1);
    // Tick to the first post (gap 10 -> posts at cycle 10).
    let mut verdict = Control::Continue;
    for now in 0..=10u64 {
        let done = port.bus.begin_cycle(now);
        verdict = agent.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
    }
    assert_eq!(port.posts.len(), 1);
    assert_eq!(
        verdict,
        Control::Sleep(Cycle::MAX),
        "in service: only a completion wakes it"
    );
    // Spurious ticks while the request is in flight must be no-ops.
    for now in 11..14u64 {
        let done = port.bus.begin_cycle(now);
        agent.tick(now, done.as_ref(), &mut port);
        port.bus.end_cycle(now);
        assert_eq!(port.posts.len(), 1, "no post while waiting");
    }
}
