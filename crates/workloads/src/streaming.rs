//! The streaming co-runner workload.

use cba_cpu::{Op, Program};
use cba_mem::MemAccess;
use sim_core::rng::SimRng;

/// A streaming application: sequential reads marching through a working
/// set far larger than any cache, so essentially every access is a
/// 28-cycle memory transaction.
///
/// This is the paper's Section-II co-runner archetype ("streaming
/// applications issuing constantly read requests to memory that take 28
/// cycles") in [`Program`] form — use
/// [`FixedRequestTask::saturating`](cba_cpu::FixedRequestTask::saturating)
/// instead when the co-runner should bypass the cache model entirely.
#[derive(Debug, Clone)]
pub struct Streaming {
    remaining: u64,
    ptr: u64,
}

/// Far beyond L1 + L2 partition: every line is touched once.
const STREAM_BYTES: u64 = 1 << 30;
const STREAM_BASE: u64 = 0x4000_0000;
const LINE: u64 = 16;

impl Streaming {
    /// Creates a streamer issuing `accesses` sequential loads.
    ///
    /// # Panics
    ///
    /// Panics if `accesses == 0`.
    pub fn new(accesses: u64) -> Self {
        assert!(accesses > 0, "accesses must be positive");
        Streaming {
            remaining: accesses,
            ptr: 0,
        }
    }
}

impl Program for Streaming {
    fn name(&self) -> &str {
        "streaming"
    }

    fn next_op(&mut self, _rng: &mut SimRng) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = STREAM_BASE + self.ptr;
        self.ptr = (self.ptr + LINE) % STREAM_BYTES;
        Some(Op::Access(MemAccess::load(addr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cba_bus::{Bus, BusConfig, BusModel, PolicyKind};
    use cba_cpu::Core;
    use cba_mem::{HierarchyConfig, LatencyModel};
    use sim_core::{CoreId, SimAgent};

    #[test]
    fn every_access_misses() {
        let mut rng = SimRng::seed_from(1);
        let mut core = Core::new(
            CoreId::from_index(0),
            Box::new(Streaming::new(200)),
            &HierarchyConfig::paper(),
            LatencyModel::paper(),
            &mut rng,
        );
        let mut bus = Bus::new(
            BusConfig::new(1, 56).unwrap(),
            PolicyKind::RoundRobin.build(1, 56),
        );
        let mut now = 0;
        let done_at = |core: &Core| SimAgent::<Bus, _>::stats(core).done_at;
        while done_at(&core).is_none() && now < 100_000 {
            let done = bus.begin_cycle(now);
            core.tick(now, done.as_ref(), &mut bus);
            bus.end_cycle(now);
            now += 1;
        }
        // Every access posts, and every grant is a 28-cycle clean miss: an
        // L1 hit would post nothing, an L2 hit a 5-cycle transaction.
        let c0 = CoreId::from_index(0);
        assert_eq!(bus.trace().slots(c0), 200);
        assert_eq!(bus.trace().busy_cycles(c0), 200 * 28);
        // Effectively saturating: ~29-30 cycles per 28-cycle transaction.
        let per_access = done_at(&core).expect("done") as f64 / 200.0;
        assert!(per_access < 32.0, "{per_access} cycles per access");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_accesses_rejected() {
        let _ = Streaming::new(0);
    }
}
