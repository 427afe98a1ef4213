//! Ablation studies of RBM-IM's design choices.
//!
//! The paper motivates three ingredients: the class-balanced loss, the
//! trainable (continuously retrained) network, and the per-class
//! trend/Granger detection with a self-adaptive window. This module measures
//! how drift-detection quality on a Scenario-3 stream changes when each
//! ingredient is weakened:
//!
//! * `full` — the default configuration;
//! * `no_class_balance` — β → tiny, making every class weight ≈ 1;
//! * `no_persistence` — the persistence guard disabled (fires on a single
//!   over-threshold batch);
//! * `coarse_batches` — a 4× larger mini-batch (slower reactions);
//! * `fixed_window` — the ADWIN confidence made so strict that the adaptive
//!   window effectively never shrinks, leaving only the fixed-length
//!   regression window;
//! * `deep_chain` — CD-3 instead of CD-1, probing whether a deeper negative
//!   phase sharpens the reconstruction-error signal (cheap now that the
//!   flat-kernel trainer batches each Gibbs step into whole-batch GEMMs).

use crate::pipeline::{PipelineBuilder, RunConfig};
use rbm_im::network::RbmNetworkConfig;
use rbm_im::{RbmIm, RbmImConfig};
use rbm_im_classifiers::GaussianNaiveBayes;
use rbm_im_metrics::{evaluate_detections, DetectionQuality};
use rbm_im_streams::scenarios::{scenario3, ScenarioConfig};
use rbm_im_streams::DataStream;
use serde::{Deserialize, Serialize};

/// One ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AblationVariant {
    /// Default RBM-IM.
    Full,
    /// Class-balanced loss disabled (all class weights ≈ 1).
    NoClassBalance,
    /// Persistence guard disabled.
    NoPersistence,
    /// 4× larger mini-batches.
    CoarseBatches,
    /// Effectively fixed (non-adaptive) trend window.
    FixedWindow,
    /// Deeper negative phase: CD-3 instead of CD-1. Affordable since the
    /// batched flat-kernel trainer (`rbm_im::linalg`) amortizes each extra
    /// Gibbs step into three GEMMs over the whole mini-batch.
    DeepChain,
}

impl AblationVariant {
    /// All variants, `Full` first.
    pub fn all() -> Vec<AblationVariant> {
        vec![
            AblationVariant::Full,
            AblationVariant::NoClassBalance,
            AblationVariant::NoPersistence,
            AblationVariant::CoarseBatches,
            AblationVariant::FixedWindow,
            AblationVariant::DeepChain,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AblationVariant::Full => "full",
            AblationVariant::NoClassBalance => "no-class-balance",
            AblationVariant::NoPersistence => "no-persistence",
            AblationVariant::CoarseBatches => "coarse-batches",
            AblationVariant::FixedWindow => "fixed-window",
            AblationVariant::DeepChain => "deep-chain",
        }
    }

    /// The RBM-IM configuration implementing this variant.
    pub fn config(&self) -> RbmImConfig {
        let base = RbmImConfig::default();
        match self {
            AblationVariant::Full => base,
            AblationVariant::NoClassBalance => RbmImConfig {
                network: RbmNetworkConfig { class_balance_beta: 1e-9, ..base.network },
                ..base
            },
            AblationVariant::NoPersistence => RbmImConfig { persistence: 1, ..base },
            AblationVariant::CoarseBatches => {
                RbmImConfig { mini_batch_size: base.mini_batch_size * 4, ..base }
            }
            AblationVariant::FixedWindow => RbmImConfig { adwin_delta: 1e-12, ..base },
            AblationVariant::DeepChain => {
                RbmImConfig { network: RbmNetworkConfig { gibbs_steps: 3, ..base.network }, ..base }
            }
        }
    }
}

/// Result of one ablation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Which variant was run.
    pub variant: AblationVariant,
    /// Detection quality against the ground-truth drift positions.
    pub quality: DetectionQuality,
    /// Number of drift signals raised in total.
    pub signals: usize,
}

/// Runs one ablation variant on a Scenario-3 stream (local drift in the
/// smallest `classes_with_drift` classes) and scores it against the known
/// drift positions.
///
/// The variant runs through the [`PipelineBuilder`] like every other
/// experiment. RBM-IM only reads the features and the true class of each
/// observation, so the attached classifier cannot influence the detections;
/// a lightweight Gaussian naive Bayes keeps the run cheap, and
/// `reset_on_drift` is disabled because only the detector is under study.
pub fn run_ablation(
    variant: AblationVariant,
    scenario_config: &ScenarioConfig,
    classes_with_drift: usize,
    detection_horizon: u64,
) -> AblationResult {
    let scenario = scenario3(scenario_config, classes_with_drift);
    let schema = scenario.stream.schema().clone();
    let detector = RbmIm::new(schema.num_features, schema.num_classes, variant.config());
    let result = PipelineBuilder::new()
        .boxed_stream(scenario.stream)
        .classifier(GaussianNaiveBayes::new(schema.num_features, schema.num_classes))
        .detector(detector)
        .config(RunConfig { metric_window: 1000, reset_on_drift: false, ..Default::default() })
        .run()
        .expect("ablation pipeline is fully specified");
    let quality =
        evaluate_detections(&scenario.drift_positions, &result.detections, detection_horizon);
    AblationResult { variant, quality, signals: result.detections.len() }
}

/// Runs every ablation variant with the same scenario settings.
pub fn run_all_ablations(
    scenario_config: &ScenarioConfig,
    classes_with_drift: usize,
    detection_horizon: u64,
) -> Vec<AblationResult> {
    AblationVariant::all()
        .into_iter()
        .map(|v| run_ablation(v, scenario_config, classes_with_drift, detection_horizon))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> ScenarioConfig {
        ScenarioConfig {
            num_features: 8,
            num_classes: 4,
            length: 8_000,
            imbalance_ratio: 10.0,
            n_drifts: 1,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn variants_produce_distinct_configs() {
        let full = AblationVariant::Full.config();
        assert!(
            AblationVariant::NoClassBalance.config().network.class_balance_beta
                < full.network.class_balance_beta
        );
        assert_eq!(AblationVariant::NoPersistence.config().persistence, 1);
        assert_eq!(
            AblationVariant::CoarseBatches.config().mini_batch_size,
            full.mini_batch_size * 4
        );
        assert!(AblationVariant::FixedWindow.config().adwin_delta < full.adwin_delta);
        assert_eq!(AblationVariant::DeepChain.config().network.gibbs_steps, 3);
        assert_eq!(AblationVariant::all().len(), 6);
        assert_eq!(AblationVariant::Full.name(), "full");
        assert_eq!(AblationVariant::DeepChain.name(), "deep-chain");
    }

    #[test]
    fn ablation_run_scores_against_ground_truth() {
        let result = run_ablation(AblationVariant::Full, &tiny_scenario(), 2, 3_000);
        assert_eq!(result.quality.true_drifts, 1);
        assert!(result.quality.recall() >= 0.0 && result.quality.recall() <= 1.0);
        assert!(result.signals >= result.quality.detected);
    }

    #[test]
    fn no_persistence_variant_raises_at_least_as_many_signals() {
        let full = run_ablation(AblationVariant::Full, &tiny_scenario(), 2, 3_000);
        let eager = run_ablation(AblationVariant::NoPersistence, &tiny_scenario(), 2, 3_000);
        assert!(
            eager.signals >= full.signals,
            "removing the persistence guard cannot reduce the signal count (full {}, eager {})",
            full.signals,
            eager.signals
        );
    }
}
