//! The benchmark catalog: synthetic stand-ins for the EEMBC Autobench
//! programs used in the paper's evaluation, plus four extra suite members
//! for wider coverage.
//!
//! Parameter choices are calibrated against the paper's reported behaviour
//! (see `EXPERIMENTS.md`): the Figure-1 suite spans the spectrum from
//! bursty/bus-bound (`matrix`, `cacheb` — where CBA beats slot-fair RP
//! under contention) to sparse/cache-sensitive (`tblook` — where CBA's own
//! budget-recovery stalls make it marginally worse, the paper's observed
//! anomaly), with `canrdr` as the light I/O-ish workload in between.
//!
//! A note on mechanics: the platform's L1 data cache is write-through, so
//! *stores* are the main source of short bus transactions for L1-resident
//! working sets, while working sets larger than L1 stream reads through
//! the L2 (5-cycle hits) and working sets larger than an L2 partition
//! produce genuine 28/56-cycle memory transactions.

use crate::profile::EembcProfile;

/// `cacheb` — the Autobench "cache buster": pointer-walks a buffer well
/// beyond L1 with frequent updates; most accesses reach the bus as L2
/// hits.
pub(crate) fn cacheb() -> EembcProfile {
    EembcProfile {
        name: "cacheb",
        accesses: 6_000,
        working_set: 6 * 1024,
        p_random: 0.15,
        p_store: 0.25,
        p_atomic: 0.0,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (10, 20),
        within_gap: (18, 30),
        between_gap_mean: 220.0,
    }
}

/// `canrdr` — CAN bus remote-data-request processing: small L1-resident
/// message buffers, light bus traffic from write-through stores.
pub(crate) fn canrdr() -> EembcProfile {
    EembcProfile {
        name: "canrdr",
        accesses: 3_500,
        working_set: 2 * 1024,
        p_random: 0.10,
        p_store: 0.20,
        p_atomic: 0.0,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (6, 10),
        within_gap: (8, 14),
        between_gap_mean: 240.0,
    }
}

/// `matrix` — dense matrix arithmetic: long row-sweep bursts over an
/// L1-resident tile with a store per accumulator spill; the burstiest
/// benchmark of the suite and the paper's worst case under slot-fair
/// arbitration (3.34x).
pub fn matrix() -> EembcProfile {
    EembcProfile {
        name: "matrix",
        accesses: 8_000,
        working_set: 6 * 1024,
        p_random: 0.05,
        p_store: 0.20,
        p_atomic: 0.0,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (24, 48),
        within_gap: (16, 28),
        between_gap_mean: 260.0,
    }
}

/// `tblook` — table lookup: isolated random probes into a table nearly
/// filling the L2 partition; sparse in time and highly sensitive to the
/// random cache placement (large run-to-run variance).
pub(crate) fn tblook() -> EembcProfile {
    EembcProfile {
        name: "tblook",
        accesses: 1_800,
        working_set: 10 * 1024,
        p_random: 1.0,
        p_store: 0.08,
        p_atomic: 0.01,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (1, 1),
        within_gap: (30, 60),
        between_gap_mean: 110.0,
    }
}

/// `a2time` — angle-to-time conversion: small hot loop with a visible
/// instruction-fetch component (exercises the L1I path).
pub(crate) fn a2time() -> EembcProfile {
    EembcProfile {
        name: "a2time",
        accesses: 3_000,
        working_set: 1024,
        p_random: 0.05,
        p_store: 0.15,
        p_atomic: 0.0,
        p_ifetch: 0.20,
        code_set: 8 * 1024,
        burst_len: (8, 14),
        within_gap: (10, 18),
        between_gap_mean: 300.0,
    }
}

/// `rspeed` — road-speed calculation: the lightest workload; rare short
/// bursts over a tiny working set.
pub fn rspeed() -> EembcProfile {
    EembcProfile {
        name: "rspeed",
        accesses: 1_500,
        working_set: 1024,
        p_random: 0.10,
        p_store: 0.15,
        p_atomic: 0.0,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (4, 8),
        within_gap: (12, 24),
        between_gap_mean: 600.0,
    }
}

/// `puwmod` — pulse-width modulation: store-dominated control loop
/// (write-through traffic) with moderate density.
fn puwmod() -> EembcProfile {
    EembcProfile {
        name: "puwmod",
        accesses: 3_000,
        working_set: 2 * 1024,
        p_random: 0.05,
        p_store: 0.45,
        p_atomic: 0.0,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (10, 16),
        within_gap: (12, 20),
        between_gap_mean: 320.0,
    }
}

/// `aifftr` — FFT: strided sweeps over a data set larger than the L2
/// partition, producing genuine 28/56-cycle memory transactions; the
/// heaviest long-request workload (useful for pWCET experiments).
fn aifftr() -> EembcProfile {
    EembcProfile {
        name: "aifftr",
        accesses: 2_000,
        working_set: 48 * 1024,
        p_random: 0.30,
        p_store: 0.30,
        p_atomic: 0.02,
        p_ifetch: 0.0,
        code_set: 0,
        burst_len: (6, 12),
        within_gap: (40, 80),
        between_gap_mean: 400.0,
    }
}

/// The four benchmarks of the paper's Figure 1, in the figure's order.
pub fn fig1_suite() -> Vec<EembcProfile> {
    vec![cacheb(), canrdr(), matrix(), tblook()]
}

/// Every catalog benchmark.
pub fn all_profiles() -> Vec<EembcProfile> {
    vec![
        cacheb(),
        canrdr(),
        matrix(),
        tblook(),
        a2time(),
        rspeed(),
        puwmod(),
        aifftr(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for p in all_profiles() {
            assert!(
                p.validate().is_ok(),
                "{} invalid: {:?}",
                p.name,
                p.validate()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        use std::collections::HashSet;
        let names: HashSet<&str> = all_profiles().iter().map(|p| p.name).collect();
        assert_eq!(names.len(), all_profiles().len());
    }

    #[test]
    fn fig1_is_a_subset_of_the_catalog() {
        let all: Vec<&str> = all_profiles().iter().map(|p| p.name).collect();
        for p in fig1_suite() {
            assert!(all.contains(&p.name));
        }
    }

    #[test]
    fn tblook_is_sparse_and_random() {
        let p = tblook();
        assert_eq!(p.p_random, 1.0, "tblook probes randomly");
        assert!(p.burst_len.1 <= 2, "tblook accesses are isolated");
    }

    #[test]
    fn matrix_is_the_burstiest() {
        let m = matrix();
        for p in fig1_suite() {
            assert!(m.burst_len.1 >= p.burst_len.1);
        }
    }
}
