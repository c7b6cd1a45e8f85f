//! Statistics used to aggregate Monte-Carlo campaigns.
//!
//! The evaluation of the paper reports *average execution times over 1,000
//! randomized runs* per configuration (cache placement and arbitration are
//! randomized, so a single run is meaningless). This module provides the
//! aggregation tools: numerically-stable running summaries ([`Summary`]),
//! exact percentiles over sorted samples ([`percentile_sorted`]) and
//! Jain's fairness index ([`jain`]).

use std::fmt;

/// Numerically-stable running summary (Welford's algorithm).
///
/// Tracks count, mean, variance, min and max in O(1) memory. This is the
/// workhorse for campaign aggregation where storing every sample is not
/// needed.
///
/// # Example
///
/// ```
/// use sim_core::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert_eq!((s.min(), s.max()), (2.0, 9.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 if fewer than 2).
    fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean.
    fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of an approximate 95% confidence interval on the mean
    /// (normal approximation, valid for the hundreds-of-runs campaigns used
    /// here).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.sample_std_dev(),
            self.min,
            self.max
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

/// Exact percentile over a *sorted* slice using linear interpolation
/// (the "linear" / type-7 estimator, same convention as numpy's default).
///
/// `q` is in `[0, 1]`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Jain's fairness index of `xs`, `J = (Σx)² / (n·Σx²)`, in `(0, 1]`: 1
/// means every entry is equal, `1/n` that one entry holds everything. An
/// all-zero input is vacuously fair (1).
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq > 0.0 {
        sum * sum / (xs.len() as f64 * sq)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_textbook_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 4.0);
        assert!((percentile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile_sorted(&v, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn jain_spans_equal_to_monopolized() {
        assert_eq!(jain(&[0.25; 4]), 1.0);
        assert_eq!(jain(&[0.5, 0.0, 0.0, 0.0]), 0.25);
        assert_eq!(jain(&[0.0, 0.0]), 1.0, "no traffic is vacuously fair");
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[42.0], 0.7), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile_sorted(&[], 0.5);
    }

    #[test]
    fn percentile_tolerates_nan() {
        // Sorted by total_cmp, a NaN comes last: low quantiles stay
        // usable, and nothing panics.
        let v = [1.0, 2.0, 3.0, f64::NAN];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert!((percentile_sorted(&v, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!(percentile_sorted(&v, 1.0).is_nan());
    }
}
