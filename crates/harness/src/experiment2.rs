//! Experiment 2 — detection of local concept drifts (Fig. 8).
//!
//! For each artificial benchmark configuration the paper sweeps the number
//! of classes affected by a local drift from 1 to M (drift injected into the
//! smallest classes first) and reports the pmAUC of the classifier driven by
//! each detector. The fewer classes drift, the harder the detection.

use crate::pipeline::{run_sweep, GridStream, RunConfig, RunResult};
use crate::registry::{paper_detectors, DetectorSpec};
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::scenarios::{scenario3, ScenarioConfig};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment2Config {
    /// Detectors to evaluate.
    pub detectors: Vec<DetectorSpec>,
    /// Number of features of the synthetic stream.
    pub num_features: usize,
    /// Number of classes M; the sweep runs over 1..=M drifting classes.
    pub num_classes: usize,
    /// Stream length in instances.
    pub length: u64,
    /// Maximum imbalance ratio.
    pub imbalance_ratio: f64,
    /// Number of local drift events injected.
    pub n_drifts: usize,
    /// Seed.
    pub seed: u64,
    /// Which class counts to sweep (defaults to 1..=num_classes when empty).
    pub classes_with_drift: Vec<usize>,
    /// Prequential run settings.
    pub run: RunConfig,
}

impl Experiment2Config {
    /// The class counts the sweep runs over: `classes_with_drift`, or
    /// 1..=`num_classes` when that is empty.
    pub(crate) fn sweep(&self) -> Vec<usize> {
        if self.classes_with_drift.is_empty() {
            (1..=self.num_classes).collect()
        } else {
            self.classes_with_drift.clone()
        }
    }
}

impl Default for Experiment2Config {
    fn default() -> Self {
        Experiment2Config {
            detectors: paper_detectors(),
            num_features: 20,
            num_classes: 5,
            length: 50_000,
            imbalance_ratio: 100.0,
            n_drifts: 2,
            seed: 42,
            classes_with_drift: Vec::new(),
            run: RunConfig::default(),
        }
    }
}

/// One point of the Fig. 8 series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalDriftPoint {
    /// Number of classes affected by the local drift.
    pub classes_with_drift: usize,
    /// Run outcome of each detector at this point, in detector order.
    pub runs: Vec<RunResult>,
}

/// Full outcome of Experiment 2: one series per detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment2Result {
    /// The swept points, in sweep order.
    pub points: Vec<LocalDriftPoint>,
    /// Detector order.
    pub detectors: Vec<DetectorSpec>,
}

impl Experiment2Result {
    /// pmAUC series of the detector at position `detector`, indexed like
    /// `points`.
    pub fn series(&self, detector: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.runs[detector].pm_auc).collect()
    }
}

/// Runs the local-drift sweep: all (sweep point × detector) cells form one
/// parallel grid. `progress` fires live as each cell completes (completion
/// order); the returned points are in deterministic sweep order.
///
/// # Panics
///
/// If a detector spec does not resolve against the default registry.
pub fn run_experiment2(
    config: &Experiment2Config,
    progress: impl FnMut(usize, &RunResult) + Send,
) -> Experiment2Result {
    let stream = |k| {
        let scenario_config = ScenarioConfig {
            num_features: config.num_features,
            num_classes: config.num_classes,
            length: config.length,
            imbalance_ratio: config.imbalance_ratio,
            n_drifts: config.n_drifts,
            drift_kind: DriftKind::Sudden,
            seed: config.seed,
        };
        GridStream::new(format!("scenario3-k{k}"), move || scenario3(&scenario_config, k).stream)
    };
    let points = run_sweep(&config.detectors, &config.sweep(), stream, &config.run, progress)
        .into_iter()
        .map(|(classes_with_drift, runs)| LocalDriftPoint { classes_with_drift, runs })
        .collect();
    Experiment2Result { points, detectors: config.detectors.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Experiment2Config {
        Experiment2Config {
            detectors: vec![DetectorSpec::new("FHDDM"), DetectorSpec::new("RBM-IM")],
            num_features: 8,
            num_classes: 4,
            length: 4_000,
            imbalance_ratio: 10.0,
            n_drifts: 1,
            seed: 3,
            classes_with_drift: vec![1, 4],
            run: RunConfig { metric_window: 500, ..Default::default() },
        }
    }

    #[test]
    fn sweep_produces_one_point_per_class_count() {
        let mut calls = 0usize;
        let result = run_experiment2(&tiny_config(), |_, _| calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.points[0].classes_with_drift, 1);
        assert_eq!(result.points[1].classes_with_drift, 4);
        let series = result.series(1);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|v| v.is_finite()));
        assert!(result.points.iter().all(|p| p.runs[1].detector == "RBM-IM"));
    }

    #[test]
    fn default_sweep_covers_all_class_counts() {
        let config = Experiment2Config { num_classes: 5, ..Default::default() };
        assert_eq!(config.sweep(), [1, 2, 3, 4, 5]);
        assert_eq!(tiny_config().sweep(), [1, 4], "an explicit list is swept as given");
    }
}
