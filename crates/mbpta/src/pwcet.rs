//! The end-to-end pWCET pipeline: samples → block maxima → Gumbel fit →
//! per-run exceedance quantiles.

use crate::gumbel::Gumbel;
use crate::iid::IidReport;
use crate::MbptaError;

/// Configuration of the pWCET fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MbptaConfig {
    /// Block size for the block-maxima reduction (the MBPTA literature
    /// commonly uses 10–50 with ≥ 100 blocks).
    pub block_size: usize,
    /// Minimum number of raw samples required.
    pub min_samples: usize,
    /// Use maximum-likelihood fitting (`true`, default) or method of
    /// moments.
    pub mle: bool,
}

impl Default for MbptaConfig {
    fn default() -> Self {
        MbptaConfig {
            block_size: 10,
            min_samples: 100,
            mle: true,
        }
    }
}

/// Largest cycle count an `f64` represents exactly (2^53).
///
/// Campaign latency samples are `u64` cycle counts end-to-end; the
/// conversion to the fit's `f64` domain happens at the [`PWcetModel`]
/// boundary, and anything above this bound would round silently.
const MAX_EXACT_CYCLES: u64 = 1 << 53;

/// Converts `u64` cycle samples to `f64` exactly, for fitting.
///
/// # Errors
///
/// [`MbptaError::InvalidParameter`] if any sample exceeds
/// [`MAX_EXACT_CYCLES`]: above 2^53 the conversion rounds, which would
/// break the bit-exact reproducibility campaigns rely on. (2^53 cycles
/// is ~104 days at 1 GHz, so rejecting is safe for any plausible run.)
fn cycles_to_f64(samples: &[u64]) -> Result<Vec<f64>, MbptaError> {
    if let Some(&big) = samples.iter().find(|&&s| s > MAX_EXACT_CYCLES) {
        return Err(MbptaError::InvalidParameter(format!(
            "sample {big} exceeds 2^53 and does not convert to f64 exactly"
        )));
    }
    Ok(samples.iter().map(|&s| s as f64).collect())
}

/// A fitted pWCET model.
///
/// The Gumbel distribution is fitted to block maxima of `block_size` runs;
/// per-run exceedance probabilities are converted through
/// `P(run > x) = 1 - G(x)^(1/b)`.
///
/// See the [crate example](crate) for usage.
#[derive(Debug, Clone, PartialEq)]
pub struct PWcetModel {
    gumbel: Gumbel,
    block_size: usize,
    n_blocks: usize,
    max_observed: f64,
}

impl PWcetModel {
    /// Fits the model.
    ///
    /// # Errors
    ///
    /// * [`MbptaError::TooFewSamples`] if fewer than
    ///   `config.min_samples` samples or fewer than 10 blocks;
    /// * [`MbptaError::InvalidParameter`] if `block_size == 0`;
    /// * fit errors from [`Gumbel`] for degenerate data.
    pub fn fit(samples: &[f64], config: MbptaConfig) -> Result<Self, MbptaError> {
        if config.block_size == 0 {
            return Err(MbptaError::InvalidParameter(
                "block_size must be positive".into(),
            ));
        }
        if samples.len() < config.min_samples {
            return Err(MbptaError::TooFewSamples {
                got: samples.len(),
                need: config.min_samples,
            });
        }
        let maxima = block_maxima(samples, config.block_size);
        if maxima.len() < 10 {
            return Err(MbptaError::TooFewSamples {
                got: maxima.len(),
                need: 10,
            });
        }
        let gumbel = if config.mle {
            Gumbel::fit_mle(&maxima)?
        } else {
            Gumbel::fit_moments(&maxima)?
        };
        let max_observed = samples.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        Ok(PWcetModel {
            gumbel,
            block_size: config.block_size,
            n_blocks: maxima.len(),
            max_observed,
        })
    }

    /// The fitted Gumbel (block-maxima scale).
    pub fn gumbel(&self) -> &Gumbel {
        &self.gumbel
    }

    /// Largest observed sample.
    pub fn max_observed(&self) -> f64 {
        self.max_observed
    }

    /// Number of block maxima behind the fit.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// The execution-time bound exceeded with probability at most `p` per
    /// **run**.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile_per_run(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
        // P(run <= x) = (1 - p)  =>  G(x) = (1 - p)^b.
        // For tiny p, (1-p)^b == 1 in f64; use ln1p for the exponent:
        // ln G = b * ln(1-p); quantile needs -ln(-ln G) where
        // -ln G = -b*ln(1-p) ≈ b*p.
        let b = self.block_size as f64;
        let neg_ln_g = -b * (-p).ln_1p(); // = -b ln(1-p) > 0
        self.gumbel.mu - self.gumbel.beta * neg_ln_g.ln()
    }

    /// The per-run exceedance probability of threshold `x` under the
    /// model.
    ///
    /// Computed from the Gumbel parameters directly: going through the
    /// CDF collapses to 0 once `G(x)` rounds to 1.0 (a few dozen `beta`
    /// past `mu`), flattening exactly the deep tail a pWCET curve
    /// exists to resolve.
    pub fn exceedance(&self, x: f64) -> f64 {
        // -ln G(x) = exp(-(x - mu) / beta), exact far past where
        // cdf(x) saturates; stays resolvable down to ~1e-300.
        let neg_ln_g = (-(x - self.gumbel.mu) / self.gumbel.beta).exp();
        // P(run > x) = 1 - exp(-(-ln G) / b), expm1-stable for tiny
        // arguments.
        -(-neg_ln_g / self.block_size as f64).exp_m1()
    }

    /// Samples the pWCET curve at the given per-run exceedance
    /// probabilities, returning `(p, bound)` pairs.
    pub fn curve(&self, ps: &[f64]) -> Vec<(f64, f64)> {
        ps.iter().map(|&p| (p, self.quantile_per_run(p))).collect()
    }

    /// Convenience: fit and report iid-test results together (the full
    /// MBPTA protocol).
    ///
    /// # Errors
    ///
    /// Propagates fit and test errors.
    pub fn analyze(samples: &[f64], config: MbptaConfig) -> Result<(Self, IidReport), MbptaError> {
        let report = IidReport::analyze(samples)?;
        let model = Self::fit(samples, config)?;
        Ok((model, report))
    }

    /// [`PWcetModel::fit`] over native `u64` cycle counts.
    ///
    /// # Errors
    ///
    /// As [`PWcetModel::fit`], plus [`MbptaError::InvalidParameter`] for
    /// samples above 2^53, which an `f64` cannot hold exactly.
    pub fn fit_u64(samples: &[u64], config: MbptaConfig) -> Result<Self, MbptaError> {
        Self::fit(&cycles_to_f64(samples)?, config)
    }

    /// [`PWcetModel::analyze`] over native `u64` cycle counts.
    ///
    /// The iid battery is order-sensitive, so `samples` must be in
    /// observation (run-index) order, not sorted.
    ///
    /// # Errors
    ///
    /// As [`PWcetModel::analyze`], plus [`MbptaError::InvalidParameter`]
    /// for samples above 2^53, which an `f64` cannot hold exactly.
    pub fn analyze_u64(
        samples: &[u64],
        config: MbptaConfig,
    ) -> Result<(Self, IidReport), MbptaError> {
        Self::analyze(&cycles_to_f64(samples)?, config)
    }
}

/// Reduces samples to per-block maxima (trailing partial block dropped).
pub fn block_maxima(samples: &[f64], block_size: usize) -> Vec<f64> {
    assert!(block_size > 0, "block_size must be positive");
    samples
        .chunks_exact(block_size)
        .map(|chunk| chunk.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniforms(n: usize, seed: u64) -> Vec<f64> {
        let mut z = seed;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// Gumbel-ish execution times around 50,000 cycles.
    fn exec_times(n: usize, seed: u64) -> Vec<f64> {
        let g = Gumbel::new(50_000.0, 500.0).unwrap();
        uniforms(n, seed)
            .into_iter()
            .map(|u| g.quantile(u.clamp(1e-12, 1.0 - 1e-12)))
            .collect()
    }

    #[test]
    fn block_maxima_reduction() {
        let samples = vec![1.0, 5.0, 2.0, 9.0, 3.0, 4.0, 7.0];
        assert_eq!(block_maxima(&samples, 2), vec![5.0, 9.0, 4.0]);
        assert_eq!(block_maxima(&samples, 7), vec![9.0]);
    }

    #[test]
    fn pwcet_dominates_observations() {
        let samples = exec_times(1_000, 21);
        let model = PWcetModel::fit(&samples, MbptaConfig::default()).unwrap();
        // At p = 1e-3 (once per 1,000 runs) the bound should be around the
        // observed max; at 1e-12 it must clearly dominate.
        assert!(model.quantile_per_run(1e-12) > model.max_observed());
        assert!(model.quantile_per_run(1e-9) > samples.iter().sum::<f64>() / 1_000.0);
    }

    #[test]
    fn pwcet_curve_is_monotone() {
        let samples = exec_times(1_000, 22);
        let model = PWcetModel::fit(&samples, MbptaConfig::default()).unwrap();
        let ps = [1e-3, 1e-6, 1e-9, 1e-12, 1e-15];
        let curve = model.curve(&ps);
        for w in curve.windows(2) {
            assert!(w[1].1 > w[0].1, "bound must grow as p shrinks: {curve:?}");
        }
    }

    #[test]
    fn exceedance_inverts_quantile() {
        let samples = exec_times(2_000, 23);
        let model = PWcetModel::fit(&samples, MbptaConfig::default()).unwrap();
        for p in [1e-3, 1e-6, 1e-9] {
            let x = model.quantile_per_run(p);
            let back = model.exceedance(x);
            assert!(
                (back / p - 1.0).abs() < 0.01,
                "p={p}: exceedance({x}) = {back}"
            );
        }
    }

    #[test]
    fn ground_truth_exceedance_calibration() {
        // With samples drawn from a known Gumbel, the model's 1e-3 bound
        // should be close to the true 99.9% per-run quantile.
        let truth = Gumbel::new(50_000.0, 500.0).unwrap();
        let samples = exec_times(10_000, 24);
        let model = PWcetModel::fit(&samples, MbptaConfig::default()).unwrap();
        let estimated = model.quantile_per_run(1e-3);
        let true_q = truth.quantile(1.0 - 1e-3);
        assert!(
            ((estimated - true_q) / true_q).abs() < 0.01,
            "estimated {estimated} vs true {true_q}"
        );
    }

    #[test]
    fn analyze_bundles_iid_report() {
        let samples = exec_times(1_000, 28);
        let (_, report) = PWcetModel::analyze(&samples, MbptaConfig::default()).unwrap();
        assert!(report.passes(0.05), "iid data must pass");
    }

    #[test]
    fn fit_validation() {
        let samples = exec_times(1_000, 26);
        let mut config = MbptaConfig {
            block_size: 0,
            ..Default::default()
        };
        assert!(PWcetModel::fit(&samples, config).is_err());
        config = MbptaConfig::default();
        assert!(matches!(
            PWcetModel::fit(&samples[..50], config),
            Err(MbptaError::TooFewSamples { .. })
        ));
        // 100 samples but block size 50 -> only 2 blocks.
        config.block_size = 50;
        config.min_samples = 100;
        assert!(matches!(
            PWcetModel::fit(&samples[..100], config),
            Err(MbptaError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn deep_tail_exceedance_does_not_underflow() {
        let samples = exec_times(2_000, 29);
        let model = PWcetModel::fit(&samples, MbptaConfig::default()).unwrap();
        // Far past where cdf(x) rounds to 1.0, exceedance must still
        // invert the quantile instead of collapsing to 0.
        for p in [1e-12, 1e-16, 1e-30, 1e-100] {
            let x = model.quantile_per_run(p);
            let back = model.exceedance(x);
            assert!(
                back > 0.0 && (back / p - 1.0).abs() < 0.01,
                "p={p}: exceedance({x}) = {back}"
            );
        }
        // And the curve itself stays strictly monotone in the deep tail.
        assert!(
            model.exceedance(model.quantile_per_run(1e-100))
                < model.exceedance(model.quantile_per_run(1e-30))
        );
    }

    #[test]
    fn u64_ingestion_matches_f64_and_guards_2_53() {
        let samples_u: Vec<u64> = exec_times(1_000, 30).iter().map(|&s| s as u64).collect();
        let samples_f: Vec<f64> = samples_u.iter().map(|&s| s as f64).collect();
        let (model_u, iid_u) = PWcetModel::analyze_u64(&samples_u, MbptaConfig::default()).unwrap();
        let (model_f, iid_f) = PWcetModel::analyze(&samples_f, MbptaConfig::default()).unwrap();
        assert_eq!(model_u, model_f);
        assert_eq!(iid_u.ks.p_value.to_bits(), iid_f.ks.p_value.to_bits());

        let mut huge = samples_u.clone();
        huge[7] = MAX_EXACT_CYCLES + 1;
        assert!(matches!(
            PWcetModel::fit_u64(&huge, MbptaConfig::default()),
            Err(MbptaError::InvalidParameter(_))
        ));
        // Exactly 2^53 is still exact and accepted.
        assert!(cycles_to_f64(&[MAX_EXACT_CYCLES]).is_ok());
    }

    #[test]
    fn tiny_p_does_not_collapse_numerically() {
        let samples = exec_times(1_000, 27);
        let model = PWcetModel::fit(&samples, MbptaConfig::default()).unwrap();
        let q16 = model.quantile_per_run(1e-16);
        let q15 = model.quantile_per_run(1e-15);
        assert!(
            q16.is_finite() && q16 > q15,
            "ln1p path must keep resolution"
        );
    }
}
