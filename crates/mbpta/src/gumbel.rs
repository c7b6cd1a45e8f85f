//! The Gumbel (EVT type I, maxima) distribution and its fitting.
//!
//! MBPTA's central step: block maxima of iid execution times converge to a
//! generalized extreme value distribution; for light-tailed timing data
//! the Gumbel family (shape = 0) is the standard model, and its use is
//! what lets the pWCET curve extrapolate orders of magnitude beyond the
//! observed probabilities.

use crate::MbptaError;

/// Euler–Mascheroni constant (mean of the standard Gumbel).
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// A Gumbel distribution `G(x) = exp(-exp(-(x - mu)/beta))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gumbel {
    /// Location parameter.
    pub mu: f64,
    /// Scale parameter (> 0).
    pub beta: f64,
}

impl Gumbel {
    /// Creates a Gumbel distribution.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidParameter`] unless `beta > 0` and both
    /// parameters are finite.
    pub fn new(mu: f64, beta: f64) -> Result<Self, MbptaError> {
        if !mu.is_finite() || !beta.is_finite() || beta <= 0.0 {
            return Err(MbptaError::InvalidParameter(format!(
                "Gumbel requires finite mu and beta > 0 (got mu={mu}, beta={beta})"
            )));
        }
        Ok(Gumbel { mu, beta })
    }

    /// CDF `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        (-(-(x - self.mu) / self.beta).exp()).exp()
    }

    /// Quantile function (inverse CDF) for `p` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mu - self.beta * (-p.ln()).ln()
    }

    /// Distribution mean `mu + gamma * beta`.
    pub fn mean(&self) -> f64 {
        self.mu + EULER_GAMMA * self.beta
    }

    /// Distribution variance `pi^2 beta^2 / 6`.
    pub fn variance(&self) -> f64 {
        std::f64::consts::PI.powi(2) * self.beta * self.beta / 6.0
    }

    /// Method-of-moments fit: `beta = s sqrt(6)/pi`,
    /// `mu = mean - gamma beta`.
    ///
    /// # Errors
    ///
    /// Returns an error for fewer than 2 samples or zero variance.
    pub fn fit_moments(samples: &[f64]) -> Result<Self, MbptaError> {
        let (mean, sd) = mean_sd(samples)?;
        let beta = sd * 6.0_f64.sqrt() / std::f64::consts::PI;
        Gumbel::new(mean - EULER_GAMMA * beta, beta)
    }

    /// Maximum-likelihood fit via the standard fixed-point iteration on
    /// the profile likelihood
    /// `beta = mean(x) - sum(x e^{-x/beta}) / sum(e^{-x/beta})`,
    /// seeded from the method-of-moments estimate.
    ///
    /// # Errors
    ///
    /// Propagates the moment-fit errors and returns
    /// [`MbptaError::NoConvergence`] if the iteration stalls (does not
    /// happen for non-degenerate data).
    pub fn fit_mle(samples: &[f64]) -> Result<Self, MbptaError> {
        let seed = Self::fit_moments(samples)?;
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Work with shifted values for numerical stability of exp().
        let shift = mean;
        let mut beta = seed.beta;
        for _ in 0..200 {
            let mut num = 0.0;
            let mut den = 0.0;
            for &x in samples {
                let w = (-(x - shift) / beta).exp();
                num += x * w;
                den += w;
            }
            let next = mean - num / den;
            if !next.is_finite() || next <= 0.0 {
                return Err(MbptaError::NoConvergence(
                    "beta iteration left the domain".into(),
                ));
            }
            if (next - beta).abs() <= 1e-9 * beta.max(1.0) {
                beta = next;
                break;
            }
            beta = next;
        }
        // mu from the beta MLE (shift-corrected log-sum-exp).
        let n = samples.len() as f64;
        let log_mean_exp = {
            let m = samples
                .iter()
                .map(|&x| -(x - shift) / beta)
                .fold(f64::NEG_INFINITY, f64::max);
            let s: f64 = samples
                .iter()
                .map(|&x| (-(x - shift) / beta - m).exp())
                .sum();
            m + (s / n).ln()
        };
        let mu = shift - beta * log_mean_exp;
        Gumbel::new(mu, beta)
    }
}

pub(crate) fn mean_sd(samples: &[f64]) -> Result<(f64, f64), MbptaError> {
    if samples.len() < 2 {
        return Err(MbptaError::TooFewSamples {
            got: samples.len(),
            need: 2,
        });
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(MbptaError::DegenerateSamples("non-finite sample".into()));
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|&x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (n - 1.0);
    if var <= 0.0 {
        return Err(MbptaError::DegenerateSamples(
            "zero variance (all samples equal)".into(),
        ));
    }
    Ok((mean, var.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic standard-uniform stream (SplitMix-based) so the tests
    /// need no RNG dependency.
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

    fn gumbel_samples(n: usize, mu: f64, beta: f64, seed: u64) -> Vec<f64> {
        let g = Gumbel::new(mu, beta).unwrap();
        uniforms(n, seed)
            .into_iter()
            .map(|u| g.quantile(u.clamp(1e-12, 1.0 - 1e-12)))
            .collect()
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let g = Gumbel::new(100.0, 12.0).unwrap();
        for p in [0.01, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
            let x = g.quantile(p);
            assert!((g.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let g = Gumbel::new(0.0, 1.0).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let x = g.quantile(i as f64 / 100.0);
            assert!(x > prev);
            prev = x;
        }
    }

    #[test]
    fn moments_match_closed_forms() {
        let g = Gumbel::new(50.0, 8.0).unwrap();
        assert!((g.mean() - (50.0 + EULER_GAMMA * 8.0)).abs() < 1e-12);
        assert!((g.variance() - std::f64::consts::PI.powi(2) * 64.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn moment_fit_recovers_parameters() {
        let samples = gumbel_samples(20_000, 1000.0, 25.0, 42);
        let fit = Gumbel::fit_moments(&samples).unwrap();
        assert!((fit.mu - 1000.0).abs() < 5.0, "mu={}", fit.mu);
        assert!((fit.beta - 25.0).abs() < 2.0, "beta={}", fit.beta);
    }

    #[test]
    fn mle_fit_recovers_parameters_better() {
        let samples = gumbel_samples(20_000, 1000.0, 25.0, 43);
        let mle = Gumbel::fit_mle(&samples).unwrap();
        assert!((mle.mu - 1000.0).abs() < 2.0, "mu={}", mle.mu);
        assert!((mle.beta - 25.0).abs() < 1.0, "beta={}", mle.beta);
    }

    #[test]
    fn mle_handles_large_location_values() {
        // Execution times ~1e7 cycles: the shifted implementation must not
        // overflow exp().
        let samples = gumbel_samples(5_000, 1.0e7, 1.0e4, 44);
        let mle = Gumbel::fit_mle(&samples).unwrap();
        assert!((mle.mu / 1.0e7 - 1.0).abs() < 0.01);
        assert!((mle.beta / 1.0e4 - 1.0).abs() < 0.1);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(matches!(
            Gumbel::fit_moments(&[1.0]),
            Err(MbptaError::TooFewSamples { .. })
        ));
        assert!(matches!(
            Gumbel::fit_moments(&[5.0, 5.0, 5.0]),
            Err(MbptaError::DegenerateSamples(_))
        ));
        assert!(matches!(
            Gumbel::fit_moments(&[1.0, f64::NAN]),
            Err(MbptaError::DegenerateSamples(_))
        ));
        assert!(Gumbel::new(0.0, 0.0).is_err());
        assert!(Gumbel::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn quantile_domain_enforced() {
        let _ = Gumbel::new(0.0, 1.0).unwrap().quantile(1.0);
    }
}
