//! Statistical substrate for the RBM-IM reproduction.
//!
//! This crate implements, from scratch, every piece of numerical and
//! statistical machinery required by the paper:
//!
//! * special functions (log-gamma, regularized incomplete gamma/beta, erf),
//! * classical distributions (normal, Student's t, chi-squared, Fisher F)
//!   with CDF / survival / quantile functions,
//! * descriptive statistics and rank transforms (with tie handling),
//! * ordinary least squares (simple and multivariate) on small systems,
//! * the Granger causality test on first differences (used by RBM-IM to
//!   decide whether the reconstruction-error trend of a class has changed),
//! * the Hoeffding bound (used by the FHDDM detector),
//! * Wilcoxon rank-sum and signed-rank tests (used by the WSTD detector),
//! * the Friedman ranking test with the Bonferroni–Dunn post-hoc procedure
//!   and the Bayesian signed test (used in the paper's statistical analysis,
//!   Figs. 4–7).
//!
//! All routines are pure Rust with no external numerical dependencies so the
//! whole reproduction is self-contained and auditable.

#![warn(missing_docs)]

pub mod bayesian;
pub mod descriptive;
pub mod distributions;
pub mod friedman;
pub mod granger;
pub mod hoeffding;
pub mod matrix;
pub mod regression;
pub mod special;
pub mod wilcoxon;

pub use bayesian::{bayesian_signed_test, BayesianSignedOutcome};
pub use descriptive::{mean, median, rank_with_ties, std_dev, variance};
pub use distributions::{ChiSquared, FisherF, Normal, StudentsT};
pub use friedman::{bonferroni_dunn_critical_difference, friedman_test, FriedmanResult};
pub use granger::{granger_causality, GrangerResult};
pub use hoeffding::hoeffding_bound;
pub use matrix::Matrix;
pub use regression::{ols_multi, simple_linear_regression, OlsFit, SimpleRegression};
pub use special::{
    erf, erfc, ln_gamma, regularized_beta, regularized_gamma_p, regularized_gamma_q,
};
pub use wilcoxon::{wilcoxon_rank_sum, wilcoxon_signed_rank, WilcoxonResult};

/// Error type shared by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Not enough observations to perform the requested computation.
    InsufficientData {
        /// How many observations are required at minimum.
        needed: usize,
        /// How many observations were provided.
        got: usize,
    },
    /// A parameter was outside of its valid domain.
    InvalidParameter(String),
    /// A numerical routine failed to converge.
    NonConvergence(String),
    /// The design matrix of a regression was singular (collinear columns).
    SingularMatrix,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            StatsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            StatsError::NonConvergence(msg) => write!(f, "non-convergence: {msg}"),
            StatsError::SingularMatrix => write!(f, "singular design matrix"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::InsufficientData { needed: 3, got: 1 };
        assert!(e.to_string().contains("needed 3"));
        let e = StatsError::InvalidParameter("alpha".into());
        assert!(e.to_string().contains("alpha"));
        let e = StatsError::NonConvergence("quantile".into());
        assert!(e.to_string().contains("quantile"));
        assert!(StatsError::SingularMatrix.to_string().contains("singular"));
    }
}
