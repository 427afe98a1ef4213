//! Experiment 3 — robustness to increasing imbalance ratio (Fig. 9).
//!
//! For each synthetic configuration the paper sweeps the multi-class
//! imbalance ratio over [`PAPER_IMBALANCE_RATIOS`] while keeping global
//! drift, dynamic imbalance and class-role switching active (Scenario 2),
//! and reports the pmAUC of the classifier driven by each detector.

use crate::pipeline::{run_sweep, GridStream, RunConfig, RunResult};
use crate::registry::{paper_detectors, DetectorSpec};
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::scenarios::{scenario2, ScenarioConfig};
use serde::{Deserialize, Serialize};

/// The imbalance ratios of the paper's Fig. 9.
pub const PAPER_IMBALANCE_RATIOS: [f64; 6] = [50.0, 100.0, 200.0, 300.0, 400.0, 500.0];

/// Configuration of Experiment 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment3Config {
    /// Detectors to evaluate.
    pub detectors: Vec<DetectorSpec>,
    /// Number of features of the synthetic stream.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Stream length in instances.
    pub length: u64,
    /// Imbalance ratios to sweep (the paper's grid when empty).
    pub imbalance_ratios: Vec<f64>,
    /// Number of global drift events.
    pub n_drifts: usize,
    /// Seed.
    pub seed: u64,
    /// Prequential run settings.
    pub run: RunConfig,
}

impl Experiment3Config {
    /// The imbalance ratios the sweep runs over: `imbalance_ratios`, or
    /// [`PAPER_IMBALANCE_RATIOS`] when that is empty.
    pub(crate) fn sweep(&self) -> Vec<f64> {
        if self.imbalance_ratios.is_empty() {
            PAPER_IMBALANCE_RATIOS.to_vec()
        } else {
            self.imbalance_ratios.clone()
        }
    }
}

impl Default for Experiment3Config {
    fn default() -> Self {
        Experiment3Config {
            detectors: paper_detectors(),
            num_features: 20,
            num_classes: 5,
            length: 50_000,
            imbalance_ratios: PAPER_IMBALANCE_RATIOS.to_vec(),
            n_drifts: 2,
            seed: 42,
            run: RunConfig::default(),
        }
    }
}

/// One point of the Fig. 9 series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImbalancePoint {
    /// Imbalance ratio at this point.
    pub imbalance_ratio: f64,
    /// Run outcome of each detector, in detector order.
    pub runs: Vec<RunResult>,
}

/// Full outcome of Experiment 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment3Result {
    /// Swept points, in sweep order.
    pub points: Vec<ImbalancePoint>,
    /// Detector order.
    pub detectors: Vec<DetectorSpec>,
}

impl Experiment3Result {
    /// pmAUC series of the detector at position `detector`, aligned with
    /// `points`.
    pub fn series(&self, detector: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.runs[detector].pm_auc).collect()
    }
}

/// Runs the imbalance-ratio sweep: all (ratio × detector) cells form one
/// parallel grid. `progress` fires live as each cell completes (completion
/// order); the returned points are in deterministic ratio order.
///
/// # Panics
///
/// If a detector spec does not resolve against the default registry.
pub fn run_experiment3(
    config: &Experiment3Config,
    progress: impl FnMut(f64, &RunResult) + Send,
) -> Experiment3Result {
    let stream = |ir| {
        let scenario_config = ScenarioConfig {
            num_features: config.num_features,
            num_classes: config.num_classes,
            length: config.length,
            imbalance_ratio: ir,
            n_drifts: config.n_drifts,
            drift_kind: DriftKind::Sudden,
            seed: config.seed,
        };
        GridStream::new(format!("scenario2-ir{ir}"), move || scenario2(&scenario_config).stream)
    };
    let points = run_sweep(&config.detectors, &config.sweep(), stream, &config.run, progress)
        .into_iter()
        .map(|(imbalance_ratio, runs)| ImbalancePoint { imbalance_ratio, runs })
        .collect();
    Experiment3Result { points, detectors: config.detectors.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_point_per_ratio() {
        let config = Experiment3Config {
            detectors: vec![DetectorSpec::new("RDDM"), DetectorSpec::new("RBM-IM")],
            num_features: 8,
            num_classes: 3,
            length: 4_000,
            imbalance_ratios: vec![10.0, 50.0],
            n_drifts: 1,
            seed: 5,
            run: RunConfig { metric_window: 500, ..Default::default() },
        };
        let mut calls = 0usize;
        let result = run_experiment3(&config, |_, _| calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.points[0].imbalance_ratio, 10.0);
        let series = result.series(1);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|v| v.is_finite()));
        assert!(result.points.iter().all(|p| p.runs[1].detector == "RBM-IM"));
    }

    #[test]
    fn empty_ratio_list_falls_back_to_paper_grid() {
        let config = Experiment3Config { imbalance_ratios: Vec::new(), ..Default::default() };
        assert_eq!(config.sweep(), PAPER_IMBALANCE_RATIOS);
        let config = Experiment3Config { imbalance_ratios: vec![20.0], ..Default::default() };
        assert_eq!(config.sweep(), [20.0], "an explicit list is swept as given");
    }
}
