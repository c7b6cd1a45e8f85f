//! Differential test of the policies' core-mask `select` against reference
//! copies of the slice-based selection they replaced: a candidate list in
//! core order, filtered by eligibility, with each request's issue time.
//!
//! Every policy and its reference see the same seeded random pending
//! sets, eligible subsets, issue times, cycles and random-bit banks, and
//! must pick the same winner, ask for the same next grant window and
//! leave the bank in the same place.

use cba_bus::policies::Lottery;
use cba_bus::{ArbitrationPolicy, BusRequest, PendingSet, PolicyKind, RequestKind};
use sim_core::lfsr::LfsrBank;
use sim_core::rng::SimRng;
use sim_core::{CoreId, Cycle};

/// One arbitrable request, as the slice-based policies saw it.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    core: CoreId,
    issued_at: Cycle,
}

/// The slice-based policy interface.
trait Reference {
    fn select(
        &mut self,
        candidates: &[Candidate],
        now: Cycle,
        rng: &mut LfsrBank,
    ) -> Option<CoreId>;

    fn on_grant(&mut self, _core: CoreId) {}

    fn next_grant_at(&self, _candidates: &[Candidate], _now: Cycle) -> Option<Cycle> {
        None
    }
}

struct Fifo;

impl Reference for Fifo {
    fn select(&mut self, c: &[Candidate], _: Cycle, _: &mut LfsrBank) -> Option<CoreId> {
        c.iter()
            .min_by_key(|c| (c.issued_at, c.core.index()))
            .map(|c| c.core)
    }
}

struct RoundRobin {
    n_cores: usize,
    next: usize,
}

impl Reference for RoundRobin {
    fn select(&mut self, c: &[Candidate], _: Cycle, _: &mut LfsrBank) -> Option<CoreId> {
        if c.is_empty() {
            return None;
        }
        c.iter()
            .find(|c| c.core.index() >= self.next)
            .or_else(|| c.first())
            .map(|c| c.core)
    }

    fn on_grant(&mut self, core: CoreId) {
        self.next = (core.index() + 1) % self.n_cores;
    }
}

struct Tdma {
    n_cores: usize,
    slot_len: u32,
}

impl Tdma {
    fn slot_owner(&self, now: Cycle) -> CoreId {
        let slot = now / self.slot_len as Cycle;
        CoreId::from_index((slot % self.n_cores as Cycle) as usize)
    }

    fn next_slot_start_of(&self, core: CoreId, now: Cycle) -> Cycle {
        let len = self.slot_len as Cycle;
        let n = self.n_cores as Cycle;
        let m0 = now / len + 1;
        let want = core.index() as Cycle % n;
        let m = m0 + (want + n - m0 % n) % n;
        m * len
    }
}

impl Reference for Tdma {
    fn select(&mut self, c: &[Candidate], now: Cycle, _: &mut LfsrBank) -> Option<CoreId> {
        if now % self.slot_len as Cycle != 0 {
            return None;
        }
        let owner = self.slot_owner(now);
        c.iter().find(|c| c.core == owner).map(|c| c.core)
    }

    fn next_grant_at(&self, c: &[Candidate], now: Cycle) -> Option<Cycle> {
        c.iter().map(|c| self.next_slot_start_of(c.core, now)).min()
    }
}

struct Lotto {
    tickets: Option<Vec<u32>>,
}

impl Lotto {
    fn tickets(&self, core: usize) -> u32 {
        match &self.tickets {
            None => 1,
            Some(t) => t.get(core).copied().unwrap_or(1),
        }
    }
}

impl Reference for Lotto {
    fn select(&mut self, c: &[Candidate], _: Cycle, rng: &mut LfsrBank) -> Option<CoreId> {
        if c.is_empty() {
            return None;
        }
        let total: u64 = c.iter().map(|c| self.tickets(c.core.index()) as u64).sum();
        let mut draw = rng.next_below(total);
        for c in c {
            let t = self.tickets(c.core.index()) as u64;
            if draw < t {
                return Some(c.core);
            }
            draw -= t;
        }
        unreachable!("draw below total tickets always lands on a candidate")
    }
}

struct RandomPermutation {
    n_cores: usize,
    order: Vec<usize>,
    served: Vec<bool>,
    round_active: bool,
}

impl RandomPermutation {
    fn new_round(&mut self, rng: &mut LfsrBank) {
        for i in 0..self.n_cores {
            self.order[i] = i;
        }
        for i in (1..self.n_cores).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            self.order.swap(i, j);
        }
        self.served.iter_mut().for_each(|s| *s = false);
        self.round_active = true;
    }

    fn pick(&self, c: &[Candidate]) -> Option<CoreId> {
        self.order
            .iter()
            .filter(|&&idx| !self.served[idx])
            .find_map(|&idx| c.iter().find(|c| c.core.index() == idx))
            .map(|c| c.core)
    }
}

impl Reference for RandomPermutation {
    fn select(&mut self, c: &[Candidate], _: Cycle, rng: &mut LfsrBank) -> Option<CoreId> {
        if c.is_empty() {
            return None;
        }
        if self.round_active {
            if let Some(core) = self.pick(c) {
                return Some(core);
            }
        }
        self.new_round(rng);
        self.pick(c)
    }

    fn on_grant(&mut self, core: CoreId) {
        self.served[core.index()] = true;
        if self.served.iter().all(|&s| s) {
            self.round_active = false;
        }
    }
}

struct FixedPriority;

impl Reference for FixedPriority {
    fn select(&mut self, c: &[Candidate], _: Cycle, _: &mut LfsrBank) -> Option<CoreId> {
        c.first().map(|c| c.core)
    }
}

/// TDMA slot length (and MaxL) of every policy under test: short, so
/// random cycles land on slot starts often.
const SLOT: u32 = 7;

/// The policies under test, each beside its reference copy.
fn policies(n: usize, rng: &mut SimRng) -> Vec<(Box<dyn ArbitrationPolicy>, Box<dyn Reference>)> {
    let tickets: Vec<u32> = (0..n).map(|_| rng.gen_range_u64(1..6) as u32).collect();
    let mut out: Vec<(Box<dyn ArbitrationPolicy>, Box<dyn Reference>)> = vec![(
        Box::new(Lottery::with_tickets(tickets.clone()).unwrap()),
        Box::new(Lotto {
            tickets: Some(tickets),
        }),
    )];
    for kind in PolicyKind::ALL {
        let reference: Box<dyn Reference> = match kind {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::RoundRobin => Box::new(RoundRobin {
                n_cores: n,
                next: 0,
            }),
            PolicyKind::Tdma => Box::new(Tdma {
                n_cores: n,
                slot_len: SLOT,
            }),
            PolicyKind::Lottery => Box::new(Lotto { tickets: None }),
            PolicyKind::RandomPermutation => Box::new(RandomPermutation {
                n_cores: n,
                order: (0..n).collect(),
                served: vec![false; n],
                round_active: false,
            }),
            PolicyKind::FixedPriority => Box::new(FixedPriority),
        };
        out.push((kind.build(n, SLOT), reference));
    }
    out
}

#[test]
fn mask_select_matches_the_slice_reference() {
    for n in [1, 2, 4, 5, 16, 63, 64] {
        for seed in 0..3u64 {
            let mut setup = SimRng::seed_from(seed ^ 0x6d61_736b);
            for (index, (mut policy, mut reference)) in
                policies(n, &mut setup).into_iter().enumerate()
            {
                let name = policy.name();
                let stream = seed * 7 + index as u64;
                let width = 1 + stream as usize % 64;
                let mut rng = LfsrBank::new(width, stream).unwrap();
                let mut ref_rng = rng.clone();
                // Dense or sparse request lines, with issue times close
                // enough together that FIFO sees ties.
                let density = setup.gen_f64();
                let mut now: Cycle = setup.gen_range_u64(0..100);
                for step in 0..1_500 {
                    let mut pending = PendingSet::new(n);
                    let mut candidates = Vec::new();
                    let mut eligible = 0u64;
                    for core in CoreId::all(n) {
                        if !setup.gen_bool(density) {
                            continue;
                        }
                        let issued_at = now.saturating_sub(setup.gen_range_u64(0..4));
                        let req = BusRequest::new(core, 5, RequestKind::Synthetic, issued_at);
                        pending.insert(req).unwrap();
                        if setup.gen_bool(0.8) {
                            eligible |= core.bit();
                            candidates.push(Candidate { core, issued_at });
                        }
                    }
                    let want = reference.select(&candidates, now, &mut ref_rng);
                    let got = policy.select(eligible, &pending, now, &mut rng);
                    let at = format!("{name}, n {n}, seed {seed}, step {step}, now {now}");
                    assert_eq!(got, want, "winner: {at}, eligible {eligible:#x}");
                    match got {
                        Some(core) => {
                            policy.on_grant(core, now);
                            reference.on_grant(core);
                        }
                        None if eligible != 0 => assert_eq!(
                            policy.next_grant_at(eligible, &pending, now),
                            reference.next_grant_at(&candidates, now),
                            "next grant: {at}"
                        ),
                        None => {}
                    }
                    now += setup.gen_range_u64(1..4);
                }
                assert_eq!(
                    rng.next_below(u64::MAX),
                    ref_rng.next_below(u64::MAX),
                    "random bank out of step: {name}, n {n}, seed {seed}"
                );
            }
        }
    }
}
