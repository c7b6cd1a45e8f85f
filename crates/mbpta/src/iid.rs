//! Independence and identical-distribution tests.
//!
//! MBPTA is only applicable if the measured execution times behave like
//! independent, identically distributed samples — on the modeled platform
//! this is what the *randomized* caches and arbitration buy. The standard
//! battery (as in the MBPTA literature) is run before any EVT fit:
//!
//! * **two-sample Kolmogorov–Smirnov** on the first vs second half of the
//!   sample (identical distribution across the campaign),
//! * **Ljung–Box** on the autocorrelations (independence),
//! * **Wald–Wolfowitz runs test** around the median (randomness).

use crate::special::{chi2_cdf, kolmogorov_q, normal_two_sided_p};
use crate::MbptaError;

/// Result of one hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// The p-value (probability of the statistic under H0).
    pub p_value: f64,
}

impl TestResult {
    /// Whether the null hypothesis survives at significance `alpha`.
    pub(crate) fn passes(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// # Errors
///
/// Returns [`MbptaError::TooFewSamples`] if either sample has fewer than 8
/// observations.
fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<TestResult, MbptaError> {
    const MIN: usize = 8;
    if a.len() < MIN || b.len() < MIN {
        return Err(MbptaError::TooFewSamples {
            got: a.len().min(b.len()),
            need: MIN,
        });
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("NaN in samples"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("NaN in samples"));
    let (na, nb) = (sa.len(), sb.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while ia < na && ib < nb {
        let xa = sa[ia];
        let xb = sb[ib];
        if xa <= xb {
            ia += 1;
        }
        if xb <= xa {
            ib += 1;
        }
        let diff = (ia as f64 / na as f64 - ib as f64 / nb as f64).abs();
        d = d.max(diff);
    }
    let ne = (na as f64 * nb as f64) / (na as f64 + nb as f64);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Ok(TestResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    })
}

/// Splits the sample in half and KS-tests the halves against each other
/// (the "identically distributed over time" check).
///
/// # Errors
///
/// See [`ks_two_sample`].
fn ks_split_half(samples: &[f64]) -> Result<TestResult, MbptaError> {
    let mid = samples.len() / 2;
    ks_two_sample(&samples[..mid], &samples[mid..])
}

/// Sample autocorrelation at lags `1..=max_lag`.
fn autocorrelations(samples: &[f64], max_lag: usize) -> Vec<f64> {
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let denom: f64 = samples.iter().map(|&x| (x - mean) * (x - mean)).sum();
    (1..=max_lag)
        .map(|k| {
            if denom == 0.0 || k >= n {
                0.0
            } else {
                let num: f64 = (0..n - k)
                    .map(|i| (samples[i] - mean) * (samples[i + k] - mean))
                    .sum();
                num / denom
            }
        })
        .collect()
}

/// Ljung–Box test for autocorrelation up to `lags`.
///
/// `Q = n(n+2) Σ ρ_k² / (n-k)` is chi-squared with `lags` degrees of
/// freedom under independence.
///
/// # Errors
///
/// Returns [`MbptaError::TooFewSamples`] if `samples.len() <= lags + 1` or
/// [`MbptaError::InvalidParameter`] if `lags == 0`.
pub(crate) fn ljung_box(samples: &[f64], lags: usize) -> Result<TestResult, MbptaError> {
    if lags == 0 {
        return Err(MbptaError::InvalidParameter("lags must be positive".into()));
    }
    if samples.len() <= lags + 1 {
        return Err(MbptaError::TooFewSamples {
            got: samples.len(),
            need: lags + 2,
        });
    }
    let n = samples.len() as f64;
    let rho = autocorrelations(samples, lags);
    let q: f64 = n
        * (n + 2.0)
        * rho
            .iter()
            .enumerate()
            .map(|(i, &r)| r * r / (n - (i + 1) as f64))
            .sum::<f64>();
    Ok(TestResult {
        statistic: q,
        p_value: 1.0 - chi2_cdf(q, lags as u32),
    })
}

/// Wald–Wolfowitz runs test around the median.
///
/// # Errors
///
/// Returns [`MbptaError::TooFewSamples`] if fewer than 20 samples, or
/// [`MbptaError::DegenerateSamples`] if one side of the median is empty.
fn runs_test(samples: &[f64]) -> Result<TestResult, MbptaError> {
    if samples.len() < 20 {
        return Err(MbptaError::TooFewSamples {
            got: samples.len(),
            need: 20,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|x, y| x.partial_cmp(y).expect("NaN in samples"));
    let median = sorted[sorted.len() / 2];
    // Classify strictly; drop ties with the median.
    let signs: Vec<bool> = samples
        .iter()
        .filter(|&&x| x != median)
        .map(|&x| x > median)
        .collect();
    let n_plus = signs.iter().filter(|&&s| s).count() as f64;
    let n_minus = signs.len() as f64 - n_plus;
    if n_plus == 0.0 || n_minus == 0.0 {
        return Err(MbptaError::DegenerateSamples(
            "all samples on one side of the median".into(),
        ));
    }
    let runs = 1 + signs.windows(2).filter(|w| w[0] != w[1]).count();
    let n = n_plus + n_minus;
    let mean = 2.0 * n_plus * n_minus / n + 1.0;
    let var = (mean - 1.0) * (mean - 2.0) / (n - 1.0);
    let z = (runs as f64 - mean) / var.sqrt();
    Ok(TestResult {
        statistic: z,
        p_value: normal_two_sided_p(z),
    })
}

/// The combined applicability report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IidReport {
    /// Split-half KS test (identical distribution).
    pub ks: TestResult,
    /// Ljung–Box at 20 lags (independence).
    pub ljung_box: TestResult,
    /// Runs test (randomness).
    pub runs: TestResult,
}

impl IidReport {
    /// Runs the standard battery on an execution-time sample.
    ///
    /// # Errors
    ///
    /// Propagates the individual tests' sample-size requirements.
    pub(crate) fn analyze(samples: &[f64]) -> Result<Self, MbptaError> {
        Ok(IidReport {
            ks: ks_split_half(samples)?,
            ljung_box: ljung_box(samples, 20)?,
            runs: runs_test(samples)?,
        })
    }

    /// Whether all three tests pass at significance `alpha` (0.05 is the
    /// MBPTA convention).
    pub fn passes(&self, alpha: f64) -> bool {
        self.ks.passes(alpha) && self.ljung_box.passes(alpha) && self.runs.passes(alpha)
    }
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

    #[test]
    fn ks_accepts_same_distribution() {
        let a = uniforms(500, 1);
        let b = uniforms(500, 2);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn ks_rejects_shifted_distribution() {
        let a = uniforms(500, 3);
        let b: Vec<f64> = uniforms(500, 4).into_iter().map(|x| x + 0.3).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(!r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn ks_needs_enough_samples() {
        assert!(matches!(
            ks_two_sample(&[1.0; 4], &[2.0; 100]),
            Err(MbptaError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn ljung_box_accepts_iid() {
        let x = uniforms(1000, 5);
        let r = ljung_box(&x, 20).unwrap();
        assert!(r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn ljung_box_rejects_ar1() {
        // Strongly autocorrelated series.
        let noise = uniforms(1000, 6);
        let mut x = vec![0.0f64; 1000];
        for i in 1..1000 {
            x[i] = 0.8 * x[i - 1] + noise[i];
        }
        let r = ljung_box(&x, 20).unwrap();
        assert!(!r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn runs_test_accepts_random_order() {
        let x = uniforms(400, 7);
        let r = runs_test(&x).unwrap();
        assert!(r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn runs_test_rejects_sorted_series() {
        let mut x = uniforms(400, 8);
        x.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let r = runs_test(&x).unwrap();
        assert!(!r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let x: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let rho = autocorrelations(&x, 2);
        assert!(rho[0] < -0.9);
        assert!(rho[1] > 0.9);
    }

    #[test]
    fn iid_report_on_good_data() {
        let x = uniforms(600, 9);
        let report = IidReport::analyze(&x).unwrap();
        assert!(report.passes(0.05));
    }

    #[test]
    fn iid_report_fails_on_trend() {
        let x: Vec<f64> = uniforms(600, 10)
            .into_iter()
            .enumerate()
            .map(|(i, v)| v + i as f64 * 0.01)
            .collect();
        let report = IidReport::analyze(&x).unwrap();
        assert!(!report.passes(0.05));
    }
}
