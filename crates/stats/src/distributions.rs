//! Classical continuous distributions with CDF, survival function and
//! quantile (inverse CDF) implementations.
//!
//! The drift detectors and statistical post-processing only require a small
//! set of distributions:
//!
//! * [`Normal`] — Wilcoxon normal approximation, Bonferroni–Dunn critical
//!   values;
//! * [`StudentsT`] — regression-coefficient significance;
//! * [`ChiSquared`] — Friedman test statistic;
//! * [`FisherF`] — Granger causality F-test (the decision rule inside
//!   RBM-IM) and the Friedman F-ratio variant.
//!
//! Quantiles are obtained by bisection on the CDF, which is plenty fast for
//! the (infrequent) critical-value lookups done by detectors and the
//! harness.

use crate::special::{erf, erfc, regularized_beta, regularized_gamma_p, regularized_gamma_q};

/// Common interface implemented by all continuous distributions here.
pub trait ContinuousDistribution {
    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;
    /// Survival function `P(X > x) = 1 - cdf(x)`, computed stably.
    fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
    /// Lower bound of the support (used by the generic quantile search).
    fn support_lower(&self) -> f64;
    /// Upper bound of the support (used by the generic quantile search).
    fn support_upper(&self) -> f64;

    /// Quantile function (inverse CDF): smallest `x` with `cdf(x) >= p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1], got {p}");
        if p == 0.0 {
            return self.support_lower();
        }
        if p == 1.0 {
            return self.support_upper();
        }
        // Establish a finite bracket.
        let mut lo = if self.support_lower().is_finite() { self.support_lower() } else { -1.0 };
        let mut hi = if self.support_upper().is_finite() { self.support_upper() } else { 1.0 };
        if !self.support_lower().is_finite() {
            while self.cdf(lo) > p {
                lo *= 2.0;
                if lo < -1e300 {
                    break;
                }
            }
        }
        if !self.support_upper().is_finite() {
            while self.cdf(hi) < p {
                hi *= 2.0;
                if hi > 1e300 {
                    break;
                }
            }
        }
        // Bisection: 200 iterations gives ~1e-60 relative bracket shrinkage,
        // far below f64 resolution, so convergence is guaranteed.
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo).abs() <= f64::EPSILON * (1.0 + mid.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Normal (Gaussian) distribution with mean `mu` and standard deviation `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean of the distribution.
    pub mu: f64,
    /// Standard deviation (must be strictly positive).
    pub sigma: f64,
}

impl Normal {
    /// Standard normal distribution (mean 0, standard deviation 1).
    pub fn standard() -> Self {
        Normal { mu: 0.0, sigma: 1.0 }
    }

    /// Creates a new normal distribution.
    ///
    /// # Panics
    /// Panics if `sigma <= 0` or parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite(), "normal parameters must be finite");
        assert!(sigma > 0.0, "normal sigma must be > 0, got {sigma}");
        Normal { mu, sigma }
    }

    /// Probability density function at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }
}

impl ContinuousDistribution for Normal {
    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }

    fn support_lower(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn support_upper(&self) -> f64 {
        f64::INFINITY
    }
}

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentsT {
    /// Degrees of freedom (must be strictly positive).
    pub df: f64,
}

impl StudentsT {
    /// Creates a Student's t distribution.
    ///
    /// # Panics
    /// Panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "t distribution requires df > 0, got {df}");
        StudentsT { df }
    }
}

impl ContinuousDistribution for StudentsT {
    fn cdf(&self, x: f64) -> f64 {
        // CDF via the regularized incomplete beta function.
        let v = self.df;
        let xx = v / (v + x * x);
        let p = 0.5 * regularized_beta(xx, 0.5 * v, 0.5);
        if x >= 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    fn support_lower(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn support_upper(&self) -> f64 {
        f64::INFINITY
    }
}

/// Chi-squared distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    /// Degrees of freedom (must be strictly positive).
    pub df: f64,
}

impl ChiSquared {
    /// Creates a chi-squared distribution.
    ///
    /// # Panics
    /// Panics if `df <= 0`.
    pub fn new(df: f64) -> Self {
        assert!(df > 0.0, "chi-squared requires df > 0, got {df}");
        ChiSquared { df }
    }
}

impl ContinuousDistribution for ChiSquared {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            regularized_gamma_p(0.5 * self.df, 0.5 * x)
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            regularized_gamma_q(0.5 * self.df, 0.5 * x)
        }
    }

    fn support_lower(&self) -> f64 {
        0.0
    }

    fn support_upper(&self) -> f64 {
        f64::INFINITY
    }
}

/// Fisher–Snedecor F distribution with `d1` and `d2` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisherF {
    /// Numerator degrees of freedom.
    pub d1: f64,
    /// Denominator degrees of freedom.
    pub d2: f64,
}

impl FisherF {
    /// Creates an F distribution.
    ///
    /// # Panics
    /// Panics if either degrees-of-freedom parameter is not strictly positive.
    pub fn new(d1: f64, d2: f64) -> Self {
        assert!(d1 > 0.0 && d2 > 0.0, "F distribution requires d1,d2 > 0 (d1={d1}, d2={d2})");
        FisherF { d1, d2 }
    }
}

impl ContinuousDistribution for FisherF {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            let t = self.d1 * x / (self.d1 * x + self.d2);
            regularized_beta(t, 0.5 * self.d1, 0.5 * self.d2)
        }
    }

    fn support_lower(&self) -> f64 {
        0.0
    }

    fn support_upper(&self) -> f64 {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn standard_normal_cdf_known_values() {
        let n = Normal::standard();
        close(n.cdf(0.0), 0.5, 1e-12);
        close(n.cdf(1.959_963_985), 0.975, 1e-8);
        close(n.cdf(-1.959_963_985), 0.025, 1e-8);
        close(n.cdf(1.644_853_627), 0.95, 1e-8);
        close(n.sf(3.0), 0.001_349_898_031_630_09, 1e-10);
    }

    #[test]
    fn normal_quantile_round_trips() {
        let n = Normal::new(2.0, 3.0);
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = n.quantile(p);
            close(n.cdf(x), p, 1e-9);
        }
    }

    #[test]
    fn normal_pdf_integrates_to_cdf_diff() {
        // Crude Riemann check that pdf is consistent with cdf.
        let n = Normal::standard();
        let mut acc = 0.0;
        let step = 1e-3;
        let mut x = -1.0;
        while x < 1.0 {
            acc += n.pdf(x + 0.5 * step) * step;
            x += step;
        }
        close(acc, n.cdf(1.0) - n.cdf(-1.0), 1e-6);
    }

    #[test]
    fn students_t_limits_to_normal() {
        let t = StudentsT::new(1_000_000.0);
        let n = Normal::standard();
        for &x in &[-2.0, -1.0, 0.0, 0.5, 1.5, 2.5] {
            close(t.cdf(x), n.cdf(x), 1e-5);
        }
    }

    #[test]
    fn students_t_known_quantiles() {
        // t_{0.975, 10} ≈ 2.228139
        let t = StudentsT::new(10.0);
        close(t.quantile(0.975), 2.228_138_85, 1e-5);
        // t distribution is symmetric
        close(t.cdf(1.3) + t.cdf(-1.3), 1.0, 1e-12);
    }

    #[test]
    fn chi_squared_known_values() {
        // χ²(k=2) is Exp(1/2): cdf(x) = 1 - exp(-x/2)
        let c = ChiSquared::new(2.0);
        for &x in &[0.5, 1.0, 3.0, 6.0] {
            close(c.cdf(x), 1.0 - (-x / 2.0_f64).exp(), 1e-12);
        }
        // χ²_{0.95, 5} ≈ 11.0705
        let c5 = ChiSquared::new(5.0);
        close(c5.quantile(0.95), 11.070_497_7, 1e-4);
        assert_eq!(c5.cdf(-1.0), 0.0);
        assert_eq!(c5.sf(-1.0), 1.0);
    }

    #[test]
    fn fisher_f_known_values() {
        // F_{0.95}(1, 10) ≈ 4.9646
        let f = FisherF::new(1.0, 10.0);
        close(f.quantile(0.95), 4.964_6, 2e-3);
        // F_{0.95}(5, 20) ≈ 2.7109
        let f2 = FisherF::new(5.0, 20.0);
        close(f2.quantile(0.95), 2.710_9, 2e-3);
        assert_eq!(f.cdf(0.0), 0.0);
    }

    #[test]
    fn fisher_f_relation_to_t() {
        // If T ~ t(v) then T² ~ F(1, v).
        let v = 7.0;
        let t = StudentsT::new(v);
        let f = FisherF::new(1.0, v);
        for &x in &[0.5, 1.0, 2.0] {
            let p_t = t.cdf(x) - t.cdf(-x);
            let p_f = f.cdf(x * x);
            close(p_t, p_f, 1e-10);
        }
    }

    #[test]
    fn quantile_extremes_hit_support_bounds() {
        let c = ChiSquared::new(3.0);
        assert_eq!(c.quantile(0.0), 0.0);
        assert_eq!(c.quantile(1.0), f64::INFINITY);
        let n = Normal::standard();
        assert_eq!(n.quantile(0.0), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic]
    fn normal_rejects_nonpositive_sigma() {
        Normal::new(0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_invalid_probability() {
        Normal::standard().quantile(1.2);
    }
}
