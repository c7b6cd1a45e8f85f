//! The bus-transaction latency model of the paper's platform (Section
//! IV.A).
//!
//! Because the bus is non-split, a transaction holds the bus end-to-end:
//! the "latency" of an access *is* its bus hold time. The paper gives the
//! envelope — "bus transactions take between 5 cycles for L2 read cache hit
//! and 56 cycles; memory latency is 28 cycles and the longest requests may
//! produce 2 memory accesses" — which [`LatencyModel`] encodes and derives.

use crate::MemError;

/// Bus transaction durations per access outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L2 read hit (the shortest transaction).
    pub l2_read_hit: u32,
    /// Write-through store absorbed by L2 (hit or allocate-less miss
    /// handling is identical on the bus side of the L1).
    pub l2_write_hit: u32,
    /// One memory access: L2 miss with a clean victim.
    pub mem_access: u32,
    /// Two memory accesses: L2 miss evicting a dirty line (write-back +
    /// fetch) or an atomic operation (read + write). Derived as
    /// `2 * mem_access`.
    pub two_mem_accesses: u32,
}

impl LatencyModel {
    /// Builds a model from the three primitive latencies; the
    /// two-access latency is derived.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] unless
    /// `0 < l2_read_hit <= l2_write_hit <= mem_access` (the platform
    /// invariant that makes `2 * mem_access` the overall MaxL).
    pub(crate) fn new(
        l2_read_hit: u32,
        l2_write_hit: u32,
        mem_access: u32,
    ) -> Result<Self, MemError> {
        if l2_read_hit == 0 || l2_read_hit > l2_write_hit || l2_write_hit > mem_access {
            return Err(MemError::InvalidConfig(format!(
                "need 0 < l2_read_hit <= l2_write_hit <= mem_access, \
                 got {l2_read_hit}/{l2_write_hit}/{mem_access}"
            )));
        }
        Ok(LatencyModel {
            l2_read_hit,
            l2_write_hit,
            mem_access,
            two_mem_accesses: 2 * mem_access,
        })
    }

    /// The paper's platform: 5-cycle L2 read hits, 6-cycle writes,
    /// 28-cycle memory accesses, 56-cycle worst case.
    pub fn paper() -> Self {
        Self::new(5, 6, 28).expect("paper constants are valid")
    }

    /// MaxL: the longest possible transaction (`two_mem_accesses`). This is
    /// both the credit budget cap and the TDMA slot size.
    pub fn max_latency(&self) -> u32 {
        self.two_mem_accesses
    }

    /// L2 miss with a clean victim.
    pub(crate) fn miss_clean(&self) -> u32 {
        self.mem_access
    }

    /// L2 miss evicting a dirty line.
    pub(crate) fn miss_dirty(&self) -> u32 {
        self.two_mem_accesses
    }

    /// Atomic read-modify-write.
    pub(crate) fn atomic(&self) -> u32 {
        self.two_mem_accesses
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = LatencyModel::paper();
        assert_eq!(m.l2_read_hit, 5);
        assert_eq!(m.l2_write_hit, 6);
        assert_eq!(m.mem_access, 28);
        assert_eq!(m.max_latency(), 56);
        assert_eq!(m.miss_clean(), 28);
        assert_eq!(m.miss_dirty(), 56);
        assert_eq!(m.atomic(), 56);
    }

    #[test]
    fn ordering_validated() {
        assert!(LatencyModel::new(0, 6, 28).is_err());
        assert!(LatencyModel::new(7, 6, 28).is_err());
        assert!(LatencyModel::new(5, 30, 28).is_err());
        assert!(LatencyModel::new(5, 5, 5).is_ok());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(LatencyModel::default(), LatencyModel::paper());
    }
}
