//! Special functions used by the statistical tests.
//!
//! Implemented locally (Lanczos ln-gamma, series/continued-fraction
//! regularized incomplete gamma, rational-approximation erfc) so the
//! analysis pipeline carries no external numerical dependencies and every
//! approximation is auditable against the unit tests' reference values.

/// Natural log of the gamma function (Lanczos approximation, |err| < 2e-10
/// for x > 0).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0");
    // Lanczos coefficients (g = 7, n = 9).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the Lentz continued
/// fraction otherwise.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0");
    assert!(x >= 0.0, "gamma_p requires x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).min(1.0)
    } else {
        // Continued fraction for Q(a,x), then P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// CDF of the chi-squared distribution with `k` degrees of freedom.
///
/// # Panics
///
/// Panics if `k == 0` or `x < 0`.
pub fn chi2_cdf(x: f64, k: u32) -> f64 {
    assert!(k > 0, "chi2_cdf requires k > 0");
    gamma_p(k as f64 / 2.0, x / 2.0)
}

/// Complementary error function (rational approximation, |rel err| <
/// 1.2e-7 — Numerical Recipes `erfcc`).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Two-sided p-value for a standard normal statistic.
pub fn normal_two_sided_p(z: f64) -> f64 {
    erfc(z.abs() / std::f64::consts::SQRT_2)
}

/// Asymptotic Kolmogorov distribution tail `Q_KS(lambda) =
/// 2 Σ (-1)^{k-1} e^{-2 k² λ²}` (the KS-test p-value helper).
pub fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        assert!(close(ln_gamma(1.0), 0.0, 1e-10));
        assert!(close(ln_gamma(2.0), 0.0, 1e-10));
        assert!(close(ln_gamma(5.0), 24.0_f64.ln(), 1e-9));
        assert!(close(ln_gamma(11.0), 3_628_800.0_f64.ln(), 1e-8));
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert!(close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-9));
    }

    #[test]
    fn chi2_cdf_two_dof_is_exponential() {
        // k=2: F(x) = 1 - e^{-x/2}
        for x in [0.1, 1.0, 2.0, 5.0, 10.0] {
            let expect = 1.0 - (-x / 2.0_f64).exp();
            assert!(
                close(chi2_cdf(x, 2), expect, 1e-9),
                "x={x}: {} vs {expect}",
                chi2_cdf(x, 2)
            );
        }
    }

    #[test]
    fn chi2_cdf_known_quantiles() {
        // 95th percentile of chi2(1) is 3.841; chi2(10) is 18.307.
        assert!(close(chi2_cdf(3.841, 1), 0.95, 1e-3));
        assert!(close(chi2_cdf(18.307, 10), 0.95, 1e-3));
    }

    #[test]
    fn erfc_reference_values() {
        assert!(close(erfc(0.0), 1.0, 1e-7));
        assert!(close(erfc(1.0), 0.157_299_2, 1e-6));
        assert!(close(erfc(-1.0), 2.0 - 0.157_299_2, 1e-6));
        assert!(close(erfc(2.0), 0.004_677_73, 1e-7));
    }

    #[test]
    fn kolmogorov_q_behaviour() {
        assert!(close(kolmogorov_q(0.0), 1.0, 1e-12));
        // Known value: Q(1.0) ≈ 0.27.
        assert!(close(kolmogorov_q(1.0), 0.27, 0.005));
        assert!(kolmogorov_q(2.0) < 0.001);
        assert!(kolmogorov_q(0.5) > 0.9);
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..50 {
            let x = i as f64 * 0.3;
            let p = gamma_p(3.0, x);
            assert!(p >= prev, "gamma_p must be monotone");
            prev = p;
        }
        assert!(prev <= 1.0);
    }
}
