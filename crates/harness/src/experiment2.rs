//! Experiment 2 — detection of local concept drifts (Fig. 8).
//!
//! For each artificial benchmark configuration the paper sweeps the number
//! of classes affected by a local drift from 1 to M (drift injected into the
//! smallest classes first) and reports the pmAUC of the classifier driven by
//! each detector. The fewer classes drift, the harder the detection.

use crate::detectors::DetectorKind;
use crate::pipeline::{available_threads, run_grid_observed, GridStream, RunConfig, RunResult};
use crate::registry::DetectorRegistry;
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::scenarios::{scenario3, ScenarioConfig};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment2Config {
    /// Detectors to evaluate.
    pub detectors: Vec<DetectorKind>,
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

impl Default for Experiment2Config {
    fn default() -> Self {
        Experiment2Config {
            detectors: DetectorKind::paper_detectors(),
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
    /// Run outcome of each detector at this point.
    pub runs: Vec<RunResult>,
}

/// Full outcome of Experiment 2: one series per detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment2Result {
    /// The swept points, in increasing number of drifting classes.
    pub points: Vec<LocalDriftPoint>,
    /// Detector order.
    pub detectors: Vec<DetectorKind>,
}

impl Experiment2Result {
    /// pmAUC series of one detector, indexed like `points`.
    pub fn series(&self, detector: DetectorKind) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| {
                p.runs
                    .iter()
                    .find(|r| r.detector == detector.name())
                    .map(|r| r.pm_auc)
                    .unwrap_or(f64::NAN)
            })
            .collect()
    }
}

/// Runs the local-drift sweep: all (sweep point × detector) cells form one
/// parallel grid. `progress` fires live as each cell completes (completion
/// order); the returned points are in deterministic sweep order.
pub fn run_experiment2(
    config: &Experiment2Config,
    progress: impl FnMut(usize, &RunResult) + Send,
) -> Experiment2Result {
    let sweep: Vec<usize> = if config.classes_with_drift.is_empty() {
        (1..=config.num_classes).collect()
    } else {
        config.classes_with_drift.clone()
    };
    let detectors: Vec<_> = config.detectors.iter().map(|d| d.spec()).collect();
    let streams: Vec<GridStream> = sweep
        .iter()
        .map(|&k| {
            let scenario_config = ScenarioConfig {
                num_features: config.num_features,
                num_classes: config.num_classes,
                length: config.length,
                imbalance_ratio: config.imbalance_ratio,
                n_drifts: config.n_drifts,
                drift_kind: DriftKind::Sudden,
                seed: config.seed,
            };
            GridStream::new(format!("scenario3-k{k}"), move || {
                scenario3(&scenario_config, k).stream
            })
        })
        .collect();
    // Recover the sweep point of a completed cell from its stream label.
    let k_by_name: std::collections::BTreeMap<String, usize> =
        streams.iter().map(|s| s.name.clone()).zip(sweep.iter().copied()).collect();
    let progress = std::sync::Mutex::new(progress);
    let registry = DetectorRegistry::global();
    let threads = available_threads();
    let results = run_grid_observed(registry, &detectors, &streams, &config.run, threads, |run| {
        let k = k_by_name[&run.stream];
        (progress.lock().expect("progress sink poisoned"))(k, run);
    })
    .expect("every DetectorKind resolves against the default registry");
    let mut points = Vec::new();
    for (chunk, &k) in results.chunks(detectors.len().max(1)).zip(sweep.iter()) {
        points.push(LocalDriftPoint { classes_with_drift: k, runs: chunk.to_vec() });
    }
    Experiment2Result { points, detectors: config.detectors.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Experiment2Config {
        Experiment2Config {
            detectors: vec![DetectorKind::Fhddm, DetectorKind::RbmIm],
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
        let series = result.series(DetectorKind::RbmIm);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn default_sweep_covers_all_class_counts() {
        let config = Experiment2Config { num_classes: 5, ..Default::default() };
        assert!(config.classes_with_drift.is_empty());
        // Only validate the sweep expansion logic, not a full run.
        let sweep: Vec<usize> = (1..=config.num_classes).collect();
        assert_eq!(sweep, vec![1, 2, 3, 4, 5]);
    }
}
