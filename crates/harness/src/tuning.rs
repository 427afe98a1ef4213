//! Self hyper-parameter tuning (Sec. VI-B, "Parameter tuning").
//!
//! The paper tunes every detector per stream with the SSPT approach of
//! Veloso et al. (2018): an online Nelder–Mead search over the parameter
//! space, evaluated on a prefix of the stream. This module implements that
//! procedure for RBM-IM: candidate configurations are scored by the pmAUC a
//! base classifier achieves on a tuning prefix when driven by the candidate,
//! and the simplex search walks toward the best-scoring configuration within
//! the grid bounds of Tab. II.

use crate::pipeline::RunConfig;
use rbm_im::network::RbmNetworkConfig;
use rbm_im::RbmImConfig;
use rbm_im_stats::nelder_mead::{NelderMead, NelderMeadConfig};
use rbm_im_streams::registry::{BenchmarkSpec, BuildConfig};
use serde::{Deserialize, Serialize};

/// Bounds of the tunable RBM-IM parameters (Tab. II grid ranges).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningBounds {
    /// Mini-batch size range.
    pub mini_batch: (f64, f64),
    /// Hidden-fraction range.
    pub hidden_fraction: (f64, f64),
    /// Learning-rate range.
    pub learning_rate: (f64, f64),
    /// Gibbs-steps range.
    pub gibbs_steps: (f64, f64),
}

impl Default for TuningBounds {
    fn default() -> Self {
        TuningBounds {
            mini_batch: (25.0, 100.0),
            hidden_fraction: (0.25, 1.0),
            learning_rate: (0.01, 0.07),
            gibbs_steps: (1.0, 4.0),
        }
    }
}

/// Result of a tuning session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// Best parameter vector found `(mini_batch, hidden_fraction,
    /// learning_rate, gibbs_steps)`.
    pub best_point: Vec<f64>,
    /// pmAUC achieved by the best configuration on the tuning prefix.
    pub best_pm_auc: f64,
    /// Number of candidate configurations evaluated.
    pub evaluations: usize,
}

impl TuningOutcome {
    /// Converts the optimized point into an [`RbmImConfig`].
    pub fn to_config(&self) -> RbmImConfig {
        point_to_config(&self.best_point)
    }
}

fn point_to_config(point: &[f64]) -> RbmImConfig {
    RbmImConfig {
        mini_batch_size: point[0].round().clamp(5.0, 500.0) as usize,
        network: RbmNetworkConfig {
            hidden_fraction: point[1].clamp(0.05, 4.0),
            learning_rate: point[2].clamp(1e-4, 1.0),
            gibbs_steps: point[3].round().clamp(1.0, 8.0) as usize,
            ..RbmNetworkConfig::default()
        },
        ..RbmImConfig::default()
    }
}

/// Tunes RBM-IM on a prefix of the given benchmark using Nelder–Mead.
///
/// * `prefix_instances` — how many instances of the stream the tuner may
///   consume per candidate evaluation;
/// * `max_evaluations` — budget of candidate configurations.
///
/// NOTE: the harness binaries use this for the `--tune` flag; the default
/// Table III configuration uses the untuned mid-grid defaults so runs stay
/// reproducible and cheap.
pub fn tune_rbm_im(
    spec: &BenchmarkSpec,
    build: &BuildConfig,
    prefix_instances: u64,
    max_evaluations: usize,
) -> TuningOutcome {
    let bounds = TuningBounds::default();
    let nm = NelderMead::with_bounds(
        NelderMeadConfig { max_evaluations, tolerance: 1e-4, ..Default::default() },
        vec![bounds.mini_batch, bounds.hidden_fraction, bounds.learning_rate, bounds.gibbs_steps],
    );
    let mut evaluations = 0usize;
    let objective = |point: &[f64]| {
        evaluations += 1;
        let config = point_to_config(point);
        let stream = spec.build(build);
        let run_config = RunConfig {
            metric_window: 500,
            max_instances: Some(prefix_instances),
            ..Default::default()
        };
        // Score by pmAUC of the classifier driven by this candidate; the
        // registry builds RBM-IM with default parameters, so run the
        // candidate configuration explicitly here.
        let result = run_with_rbm_config(stream, config, &run_config);
        // Nelder–Mead minimizes.
        -result
    };
    let start = vec![
        (bounds.mini_batch.0 + bounds.mini_batch.1) / 2.0,
        (bounds.hidden_fraction.0 + bounds.hidden_fraction.1) / 2.0,
        (bounds.learning_rate.0 + bounds.learning_rate.1) / 2.0,
        (bounds.gibbs_steps.0 + bounds.gibbs_steps.1) / 2.0,
    ];
    let result = nm.minimize(objective, &start, 10.0);
    TuningOutcome { best_point: result.point, best_pm_auc: -result.value, evaluations }
}

/// Runs the prequential pipeline with an explicit RBM-IM configuration and
/// returns the stream-averaged pmAUC (in percent).
pub fn run_with_rbm_config(
    stream: Box<dyn rbm_im_streams::DataStream + Send>,
    config: RbmImConfig,
    run_config: &RunConfig,
) -> f64 {
    use crate::pipeline::PipelineBuilder;
    use rbm_im::RbmIm;
    use rbm_im_streams::DataStream;

    let schema = stream.schema().clone();
    let result = PipelineBuilder::new()
        .boxed_stream(stream)
        .detector(RbmIm::new(schema.num_features, schema.num_classes, config))
        .config(*run_config)
        .run()
        .expect("tuning pipeline is fully specified");
    result.pm_auc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_streams::registry::benchmark_by_name;

    #[test]
    fn point_conversion_respects_bounds() {
        let config = point_to_config(&[1.0, 10.0, -5.0, 100.0]);
        assert_eq!(config.mini_batch_size, 5);
        assert!(config.network.hidden_fraction <= 4.0);
        assert!(config.network.learning_rate >= 1e-4);
        assert_eq!(config.network.gibbs_steps, 8);
    }

    #[test]
    fn tuning_runs_within_budget_and_improves_over_worst_corner() {
        let spec = benchmark_by_name("RBF5").unwrap();
        let build =
            BuildConfig { scale_divisor: 500, seed: 9, n_drifts: 1, dynamic_imbalance: false };
        let outcome = tune_rbm_im(&spec, &build, 1_500, 8);
        assert!(outcome.evaluations <= 8 + 5, "evaluations {}", outcome.evaluations);
        assert!(outcome.best_pm_auc > 0.0 && outcome.best_pm_auc <= 100.0);
        let config = outcome.to_config();
        assert!(config.mini_batch_size >= 5);
    }
}
