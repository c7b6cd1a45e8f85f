//! Configuration of the credit mechanism: recovery weights, budget caps,
//! and the fraction-free integer scaling.
//!
//! Equation 1 of the paper updates budgets by the fraction `1/N` per cycle.
//! As the paper notes, "this can be implemented by multiplying all factors
//! by N": budgets become scaled integers where one *bus cycle* of credit
//! equals `den` budget units. Core `i` recovers `num_i` units per cycle
//! (`Σ num_i == den`, so the whole platform recovers exactly one bus cycle
//! of credit per cycle) and drains `den` units per cycle while holding the
//! bus.

use sim_core::CoreId;
use std::fmt;

/// Per-core bandwidth recovery weights.
///
/// * [`BandwidthWeights::Homogeneous`] — every core recovers `1/N` per
///   cycle (the paper's base CBA; `num_i = 1`, `den = N`).
/// * [`BandwidthWeights::Weighted`] — core `i` recovers
///   `numerators[i] / denominator` per cycle (the paper's H-CBA variant 2;
///   its evaluation gives the TuA ½ = 3/6 and each contender 1/6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BandwidthWeights {
    /// Equal `1/N` recovery for every core.
    Homogeneous,
    /// Heterogeneous recovery: core `i` recovers `numerators[i] /
    /// denominator` cycles of budget per cycle.
    Weighted {
        /// Per-core numerators (length = number of cores, all >= 1).
        numerators: Vec<u32>,
        /// Common denominator (`Σ numerators == denominator`).
        denominator: u32,
    },
}

/// Errors rejected by [`CreditConfig`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbaError {
    /// A parameter was outside its documented domain.
    InvalidConfig(String),
}

impl fmt::Display for CbaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CbaError::InvalidConfig(why) => write!(f, "invalid CBA configuration: {why}"),
        }
    }
}

impl std::error::Error for CbaError {}

/// Validated configuration of a credit-based arbiter.
///
/// # Example
///
/// ```
/// use cba::CreditConfig;
///
/// // Base CBA on the paper's platform.
/// let cba = CreditConfig::homogeneous(4, 56)?;
/// assert_eq!(cba.denominator(), 4);
/// assert_eq!(cba.scaled_threshold(), 224); // den * MaxL — Table I's "228 (56x4)", sic
///
/// // H-CBA: TuA recovers 1/2, each contender 1/6.
/// let hcba = CreditConfig::weighted(56, vec![3, 1, 1, 1], 6)?;
/// assert_eq!(hcba.numerator(sim_core::CoreId::from_index(0)), 3);
/// assert!((hcba.bandwidth_fraction(sim_core::CoreId::from_index(0)) - 0.5).abs() < 1e-12);
/// # Ok::<(), cba::CbaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditConfig {
    n_cores: usize,
    max_latency: u32,
    weights: BandwidthWeights,
    /// Per-core cap multipliers `k_i`: budget saturates at
    /// `k_i * den * MaxL` (the paper's H-CBA variant 1 uses `k = 2` for the
    /// favored core; base CBA uses `k = 1` everywhere).
    cap_multipliers: Vec<u32>,
}

impl CreditConfig {
    /// Largest accepted cap multiplier (a 16-burst allowance is already far
    /// beyond anything the paper discusses).
    const MAX_CAP_MULTIPLIER: u32 = 16;

    /// Base CBA: `n_cores` cores with equal `1/N` recovery and caps at
    /// `MaxL`.
    ///
    /// # Errors
    ///
    /// Returns [`CbaError::InvalidConfig`] if `n_cores` is 0 or above
    /// [`CoreId::MAX_CORES`], or `max_latency == 0`.
    pub fn homogeneous(n_cores: usize, max_latency: u32) -> Result<Self, CbaError> {
        Self::validate_common(n_cores, max_latency)?;
        Ok(CreditConfig {
            n_cores,
            max_latency,
            weights: BandwidthWeights::Homogeneous,
            cap_multipliers: vec![1; n_cores],
        })
    }

    /// H-CBA variant 2: heterogeneous recovery weights
    /// `numerators[i] / denominator`.
    ///
    /// # Errors
    ///
    /// Returns [`CbaError::InvalidConfig`] if the numerator vector length
    /// differs from the core count, any numerator is zero, or the
    /// numerators do not sum to `denominator` (the mechanism must recover
    /// exactly one bus cycle of credit per cycle platform-wide — otherwise
    /// bandwidth would be created or destroyed).
    pub fn weighted(
        max_latency: u32,
        numerators: Vec<u32>,
        denominator: u32,
    ) -> Result<Self, CbaError> {
        let n_cores = numerators.len();
        Self::validate_common(n_cores, max_latency)?;
        if numerators.contains(&0) {
            return Err(CbaError::InvalidConfig(
                "every core must recover at least 1 budget unit per cycle \
                 (a zero weight starves the core permanently)"
                    .into(),
            ));
        }
        let sum: u64 = numerators.iter().map(|&n| n as u64).sum();
        if sum != denominator as u64 {
            return Err(CbaError::InvalidConfig(format!(
                "numerators must sum to the denominator (got {sum} != {denominator})"
            )));
        }
        Ok(CreditConfig {
            n_cores,
            max_latency,
            weights: BandwidthWeights::Weighted {
                numerators,
                denominator,
            },
            cap_multipliers: vec![1; n_cores],
        })
    }

    /// The paper's evaluated H-CBA on 4 cores: the TuA (core 0) recovers
    /// 1/2 per cycle, each other core 1/6, virtually allocating 50% of the
    /// bandwidth to the TuA.
    pub fn paper_hcba(max_latency: u32) -> Result<Self, CbaError> {
        Self::weighted(max_latency, vec![3, 1, 1, 1], 6)
    }

    /// H-CBA variant 1: returns a copy with per-core budget-cap multipliers
    /// (`k_i >= 1`); a core with `k_i > 1` can bank up to `k_i * MaxL`
    /// cycles of credit and issue requests back-to-back, at the price of
    /// temporal starvation for the others (paper, Section III.A).
    ///
    /// # Errors
    ///
    /// Returns [`CbaError::InvalidConfig`] if the vector length differs
    /// from the core count or any multiplier is 0 or above 16.
    pub fn with_cap_multipliers(mut self, multipliers: Vec<u32>) -> Result<Self, CbaError> {
        if multipliers.len() != self.n_cores {
            return Err(CbaError::InvalidConfig(format!(
                "expected {} cap multipliers, got {}",
                self.n_cores,
                multipliers.len()
            )));
        }
        if multipliers
            .iter()
            .any(|&k| k == 0 || k > Self::MAX_CAP_MULTIPLIER)
        {
            return Err(CbaError::InvalidConfig(format!(
                "cap multipliers must be in 1..={}",
                Self::MAX_CAP_MULTIPLIER
            )));
        }
        self.cap_multipliers = multipliers;
        Ok(self)
    }

    fn validate_common(n_cores: usize, max_latency: u32) -> Result<(), CbaError> {
        if n_cores == 0 || n_cores > CoreId::MAX_CORES {
            return Err(CbaError::InvalidConfig(format!(
                "n_cores must be in 1..={}, got {n_cores}",
                CoreId::MAX_CORES
            )));
        }
        if max_latency == 0 {
            return Err(CbaError::InvalidConfig(
                "max_latency must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// MaxL: the longest possible bus transaction, in cycles.
    pub fn max_latency(&self) -> u32 {
        self.max_latency
    }

    /// The common denominator of the scaled-integer scheme (`N` for
    /// homogeneous CBA).
    pub fn denominator(&self) -> u32 {
        match &self.weights {
            BandwidthWeights::Homogeneous => self.n_cores as u32,
            BandwidthWeights::Weighted { denominator, .. } => *denominator,
        }
    }

    /// Core `i`'s recovery numerator (budget units per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the platform.
    pub fn numerator(&self, core: CoreId) -> u32 {
        assert!(core.index() < self.n_cores, "{core} outside platform");
        match &self.weights {
            BandwidthWeights::Homogeneous => 1,
            BandwidthWeights::Weighted { numerators, .. } => numerators[core.index()],
        }
    }

    /// The long-run bandwidth fraction core `i` may sustain
    /// (`num_i / den`).
    pub fn bandwidth_fraction(&self, core: CoreId) -> f64 {
        self.numerator(core) as f64 / self.denominator() as f64
    }

    /// The scaled eligibility threshold: `den * MaxL` budget units, i.e.
    /// `MaxL` cycles of credit. A core is arbitrable when its scaled budget
    /// reaches this value.
    ///
    /// For the paper's platform (4 cores, MaxL = 56) this is 224 — Table I
    /// prints "228 (56x4)", an arithmetic slip in the paper.
    pub fn scaled_threshold(&self) -> u64 {
        self.denominator() as u64 * self.max_latency as u64
    }

    /// Core `i`'s scaled budget cap: `k_i * den * MaxL`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the platform.
    pub fn scaled_cap(&self, core: CoreId) -> u64 {
        assert!(core.index() < self.n_cores, "{core} outside platform");
        self.cap_multipliers[core.index()] as u64 * self.scaled_threshold()
    }

    /// Width in bits of the per-core hardware budget counter:
    /// `ceil(log2(max cap + 1))`. The paper's 4-core, MaxL = 56 platform
    /// needs 8 bits.
    pub fn counter_bits(&self) -> u32 {
        let max_cap = CoreId::all(self.n_cores)
            .map(|c| self.scaled_cap(c))
            .max()
            .expect("at least one core");
        64 - max_cap.leading_zeros()
    }

    /// Report name for this configuration: "CBA" for the base scheme,
    /// "H-CBA" when weights are skewed, "CBA-cap" when only caps are, and
    /// "H-CBA-cap" for both.
    pub fn scheme_name(&self) -> &'static str {
        let weighted = !matches!(self.weights, BandwidthWeights::Homogeneous);
        let capped = self.cap_multipliers.iter().any(|&k| k > 1);
        match (weighted, capped) {
            (false, false) => "CBA",
            (true, false) => "H-CBA",
            (false, true) => "CBA-cap",
            (true, true) => "H-CBA-cap",
        }
    }

    /// Worst-case budget-recovery time after a transaction of `duration`
    /// cycles for `core`, in cycles: the time from transaction end until
    /// the core is eligible again (assuming it started the transaction
    /// exactly at the eligibility threshold).
    ///
    /// For homogeneous CBA this is `(N - 1) * duration` — the analytical
    /// heart of the paper's 2.8x illustrative example.
    pub fn recovery_cycles(&self, core: CoreId, duration: u32) -> u64 {
        let num = self.numerator(core) as u64;
        let den = self.denominator() as u64;
        let drained = (den - num) * duration as u64;
        // ceil(drained / num)
        drained.div_ceil(num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    #[test]
    fn homogeneous_paper_platform() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        assert_eq!(cfg.n_cores(), 4);
        assert_eq!(cfg.max_latency(), 56);
        assert_eq!(cfg.denominator(), 4);
        assert_eq!(cfg.numerator(c(0)), 1);
        assert_eq!(cfg.scaled_threshold(), 224);
        assert_eq!(cfg.scaled_cap(c(0)), 224);
        assert_eq!(cfg.counter_bits(), 8, "paper: 8-bit budget counter");
        assert_eq!(cfg.scheme_name(), "CBA");
    }

    #[test]
    fn paper_hcba_weights() {
        let cfg = CreditConfig::paper_hcba(56).unwrap();
        assert_eq!(cfg.denominator(), 6);
        assert_eq!(cfg.numerator(c(0)), 3);
        assert_eq!(cfg.numerator(c(1)), 1);
        assert!((cfg.bandwidth_fraction(c(0)) - 0.5).abs() < 1e-12);
        assert!((cfg.bandwidth_fraction(c(1)) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(cfg.scaled_threshold(), 336);
        assert_eq!(cfg.scheme_name(), "H-CBA");
    }

    #[test]
    fn weighted_validation() {
        // length mismatch is impossible by construction (len defines n),
        // but zero weights and bad sums are rejected:
        assert!(CreditConfig::weighted(56, vec![4, 0, 1, 1], 6).is_err());
        assert!(CreditConfig::weighted(56, vec![3, 1, 1, 1], 7).is_err());
        assert!(CreditConfig::weighted(56, vec![], 4).is_err());
        assert!(CreditConfig::weighted(0, vec![1, 1], 2).is_err());
    }

    #[test]
    fn common_validation() {
        assert!(CreditConfig::homogeneous(0, 56).is_err());
        assert!(CreditConfig::homogeneous(4, 0).is_err());
        assert!(CreditConfig::homogeneous(CoreId::MAX_CORES + 1, 56).is_err());
    }

    #[test]
    fn cap_multipliers() {
        let cfg = CreditConfig::homogeneous(4, 56)
            .unwrap()
            .with_cap_multipliers(vec![2, 1, 1, 1])
            .unwrap();
        assert_eq!(cfg.scaled_cap(c(0)), 448);
        assert_eq!(cfg.scaled_cap(c(1)), 224);
        assert_eq!(cfg.scaled_threshold(), 224);
        assert_eq!(cfg.scheme_name(), "CBA-cap");
        assert_eq!(cfg.counter_bits(), 9);
    }

    #[test]
    fn cap_multiplier_validation() {
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        assert!(cfg.clone().with_cap_multipliers(vec![1, 1, 1]).is_err());
        assert!(cfg.clone().with_cap_multipliers(vec![0, 1, 1, 1]).is_err());
        assert!(cfg
            .clone()
            .with_cap_multipliers(vec![CreditConfig::MAX_CAP_MULTIPLIER + 1, 1, 1, 1])
            .is_err());
    }

    #[test]
    fn scheme_names() {
        let base = CreditConfig::homogeneous(4, 56).unwrap();
        assert_eq!(base.scheme_name(), "CBA");
        let hcba = CreditConfig::paper_hcba(56).unwrap();
        assert_eq!(hcba.scheme_name(), "H-CBA");
        let both = CreditConfig::paper_hcba(56)
            .unwrap()
            .with_cap_multipliers(vec![2, 1, 1, 1])
            .unwrap();
        assert_eq!(both.scheme_name(), "H-CBA-cap");
    }

    #[test]
    fn recovery_time_homogeneous_matches_paper_analysis() {
        // Paper Section II: a 6-cycle request on a 4-core CBA bus costs
        // 18 cycles of recovery -> the TuA sustains a 24-cycle period (25%).
        let cfg = CreditConfig::homogeneous(4, 56).unwrap();
        assert_eq!(cfg.recovery_cycles(c(0), 6), 18);
        assert_eq!(cfg.recovery_cycles(c(0), 56), 168);
        assert_eq!(cfg.recovery_cycles(c(0), 28), 84);
    }

    #[test]
    fn recovery_time_weighted() {
        // H-CBA TuA (3/6): a 56-cycle request drains (6-3)*56 = 168 units,
        // recovered at 3/cycle -> 56 cycles.
        let cfg = CreditConfig::paper_hcba(56).unwrap();
        assert_eq!(cfg.recovery_cycles(c(0), 56), 56);
        // Contender (1/6): (6-1)*56 = 280 units at 1/cycle -> 280 cycles.
        assert_eq!(cfg.recovery_cycles(c(1), 56), 280);
    }

    #[test]
    fn bandwidth_fractions_sum_to_one() {
        for cfg in [
            CreditConfig::homogeneous(4, 56).unwrap(),
            CreditConfig::paper_hcba(56).unwrap(),
            CreditConfig::weighted(56, vec![5, 2, 2, 1], 10).unwrap(),
        ] {
            let total: f64 = CoreId::all(cfg.n_cores())
                .map(|c| cfg.bandwidth_fraction(c))
                .sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn error_displays() {
        let e = CreditConfig::homogeneous(0, 56).unwrap_err();
        assert!(e.to_string().contains("n_cores"));
    }
}
