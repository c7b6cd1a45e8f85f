//! Platform assembly configuration.

use cba::CreditConfig;
use cba_bus::PolicyKind;
use cba_mem::{HierarchyConfig, LatencyModel, MemoryConfig};

/// Hierarchical-fabric topology: clusters of cores behind store-and-forward
/// bridges onto a backbone bus, with an independent arbitration point
/// (policy + optional credit filter) per segment (see `cba_bus::fabric`).
///
/// When a [`PlatformConfig`] carries a topology, `n_cores` must equal
/// `clusters * cores_per_cluster` and the flat `policy`/`cba` fields are
/// unused — each segment arbitrates with the fields below.
#[derive(Debug, Clone)]
pub struct FabricTopology {
    /// Number of cluster buses.
    pub clusters: usize,
    /// Cores on each cluster bus.
    pub cores_per_cluster: usize,
    /// Store-and-forward delay of a bridge crossing, per direction.
    pub bridge_latency: u32,
    /// Capacity of each bridge's request and response queues.
    pub bridge_depth: usize,
    /// Arbitration policy instantiated on every cluster bus.
    pub cluster_policy: PolicyKind,
    /// Credit filter on every cluster bus (sized for `cores_per_cluster`).
    pub cluster_cba: Option<CreditConfig>,
    /// Arbitration policy on the backbone (over the bridges).
    pub backbone_policy: PolicyKind,
    /// Credit filter on the backbone (sized for `clusters`) — per-cluster
    /// bandwidth weights live here.
    pub backbone_cba: Option<CreditConfig>,
}

impl FabricTopology {
    /// Total core count (`clusters * cores_per_cluster`).
    pub fn n_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }
}

/// The paper's three evaluated bus configurations (Section IV.B), plus a
/// free slot for ablations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusSetup {
    /// Baseline: random-permutations arbitration, no credit filter.
    Rp,
    /// Random permutations + homogeneous credit-based arbitration.
    Cba,
    /// Random permutations + heterogeneous CBA (TuA gets 50% bandwidth via
    /// recovery weights 1/2 vs 1/6).
    HCba,
    /// Any other combination (ablations, fairness sweeps).
    Custom {
        /// Arbitration policy.
        policy: PolicyKind,
        /// Optional credit filter configuration.
        cba: Option<CreditConfig>,
    },
}

impl BusSetup {
    /// Display label matching the paper's figure legend.
    pub fn label(&self) -> String {
        match self {
            BusSetup::Rp => "RP".into(),
            BusSetup::Cba => "CBA".into(),
            BusSetup::HCba => "H-CBA".into(),
            BusSetup::Custom { policy, cba } => match cba {
                None => policy.name().to_string(),
                Some(c) => format!("{}+{}", policy.name(), c.scheme_name()),
            },
        }
    }

    /// The three paper configurations, in figure order.
    pub fn paper_setups() -> [BusSetup; 3] {
        [BusSetup::Rp, BusSetup::Cba, BusSetup::HCba]
    }
}

/// Full static platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of cores (the paper's platform has 4).
    pub n_cores: usize,
    /// Bus transaction latency model.
    pub latency: LatencyModel,
    /// Per-core cache geometry.
    pub hierarchy: HierarchyConfig,
    /// Arbitration policy.
    pub policy: PolicyKind,
    /// Credit filter, if any.
    pub cba: Option<CreditConfig>,
    /// Store-buffer depth per core.
    pub store_buffer: usize,
    /// Hierarchical-fabric topology; `None` = the flat single shared bus.
    pub topology: Option<FabricTopology>,
    /// Synthetic address-stream configuration for the `mem`/`shared`
    /// memory agents; `None` means no run spec may place such an agent.
    pub memory: Option<MemoryConfig>,
}

impl PlatformConfig {
    /// The paper's platform under a given bus setup: 4 cores, MaxL = 56,
    /// random-permutations arbitration.
    pub fn paper(setup: &BusSetup) -> Self {
        let latency = LatencyModel::paper();
        let maxl = latency.max_latency();
        let (policy, cba) = match setup {
            BusSetup::Rp => (PolicyKind::RandomPermutation, None),
            BusSetup::Cba => (
                PolicyKind::RandomPermutation,
                Some(CreditConfig::homogeneous(4, maxl).expect("paper constants")),
            ),
            BusSetup::HCba => (
                PolicyKind::RandomPermutation,
                Some(CreditConfig::paper_hcba(maxl).expect("paper constants")),
            ),
            BusSetup::Custom { policy, cba } => (*policy, cba.clone()),
        };
        PlatformConfig {
            n_cores: 4,
            latency,
            hierarchy: HierarchyConfig::paper(),
            policy,
            cba,
            store_buffer: cba_cpu::core::DEFAULT_STORE_BUFFER,
            topology: None,
            memory: None,
        }
    }

    /// An `n`-core variant of the paper platform (for the slowdown-vs-N
    /// sweeps). The credit configuration, if present, is re-derived for
    /// `n` cores.
    pub fn paper_n_cores(setup: &BusSetup, n: usize) -> Self {
        let mut config = Self::paper(setup);
        config.n_cores = n;
        if let Some(c) = &config.cba {
            // Re-derive a homogeneous filter for n cores; heterogeneous
            // setups keep their explicit weights only when they match n.
            if c.n_cores() != n {
                config.cba = Some(
                    CreditConfig::homogeneous(n, config.latency.max_latency()).expect("valid n"),
                );
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setups_resolve() {
        for setup in BusSetup::paper_setups() {
            let c = PlatformConfig::paper(&setup);
            assert_eq!(c.n_cores, 4);
            assert_eq!(c.latency.max_latency(), 56);
            assert_eq!(c.policy, PolicyKind::RandomPermutation);
        }
        assert!(PlatformConfig::paper(&BusSetup::Rp).cba.is_none());
        assert!(PlatformConfig::paper(&BusSetup::Cba).cba.is_some());
        assert!(PlatformConfig::paper(&BusSetup::HCba).cba.is_some());
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(BusSetup::Rp.label(), "RP");
        assert_eq!(BusSetup::Cba.label(), "CBA");
        assert_eq!(BusSetup::HCba.label(), "H-CBA");
        let custom = BusSetup::Custom {
            policy: PolicyKind::RoundRobin,
            cba: Some(CreditConfig::homogeneous(4, 56).unwrap()),
        };
        assert_eq!(custom.label(), "RR+CBA");
    }

    #[test]
    fn n_core_rederivation() {
        let c8 = PlatformConfig::paper_n_cores(&BusSetup::Cba, 8);
        assert_eq!(c8.n_cores, 8);
        let cba = c8.cba.unwrap();
        assert_eq!(cba.n_cores(), 8);
        assert_eq!(cba.denominator(), 8);
    }
}
