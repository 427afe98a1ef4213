//! Experiment 1 — detector comparison over the 24 benchmark streams
//! (Table III) with Friedman / Bonferroni–Dunn ranking (Figs. 4–5) and
//! Bayesian signed pairwise tests (Figs. 6–7).
//!
//! The full grid (detectors × benchmarks) runs through the parallel
//! [`run_grid_observed`], one benchmark row per worker at a time, so
//! wall-clock time scales with the core count while the output stays
//! byte-identical to a single-threaded run.

use crate::pipeline::{run_grid_observed, GridStream, RunConfig, RunResult};
use crate::registry::{paper_detectors, DetectorRegistry, DetectorSpec};
use rbm_im_stats::bayesian::{bayesian_signed_test, BayesianSignedOutcome};
use rbm_im_stats::friedman::{bonferroni_dunn_critical_difference, friedman_test, FriedmanResult};
use rbm_im_streams::registry::{all_benchmarks, BenchmarkSpec, BuildConfig};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment1Config {
    /// Detectors to compare (defaults to the paper's six).
    pub detectors: Vec<DetectorSpec>,
    /// Stream construction (seed, length scaling, drift count, dynamic IR).
    pub build: BuildConfigSerde,
    /// Prequential run settings.
    pub run: RunConfig,
    /// Optional restriction to a subset of benchmark names (all 24 if empty).
    pub benchmarks: Vec<String>,
}

/// Serializable mirror of [`BuildConfig`] (which lives in the streams crate
/// and intentionally stays serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuildConfigSerde {
    /// Reproducibility seed.
    pub seed: u64,
    /// Divisor applied to the published stream lengths.
    pub scale_divisor: u64,
    /// Number of injected drifts per artificial stream.
    pub n_drifts: usize,
    /// Whether artificial streams use a dynamic imbalance ratio.
    pub dynamic_imbalance: bool,
}

impl From<BuildConfigSerde> for BuildConfig {
    fn from(value: BuildConfigSerde) -> Self {
        BuildConfig {
            seed: value.seed,
            scale_divisor: value.scale_divisor,
            n_drifts: value.n_drifts,
            dynamic_imbalance: value.dynamic_imbalance,
        }
    }
}

impl Default for Experiment1Config {
    fn default() -> Self {
        Experiment1Config {
            detectors: paper_detectors(),
            build: BuildConfigSerde {
                seed: 42,
                scale_divisor: 20,
                n_drifts: 3,
                dynamic_imbalance: true,
            },
            run: RunConfig::default(),
            benchmarks: Vec::new(),
        }
    }
}

/// Full outcome of Experiment 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment1Result {
    /// One run per (benchmark × detector), benchmark-major: the run of
    /// detector `d` on benchmark `b` is `runs[b * detectors.len() + d]`.
    pub runs: Vec<RunResult>,
    /// Benchmark names in evaluation order.
    pub benchmarks: Vec<String>,
    /// Detector order used for the rank analysis.
    pub detectors: Vec<DetectorSpec>,
}

impl Experiment1Result {
    /// pmAUC matrix `[detector][benchmark]`.
    pub fn pm_auc_matrix(&self) -> Vec<Vec<f64>> {
        self.metric_matrix(|r| r.pm_auc)
    }

    /// pmGM matrix `[detector][benchmark]`.
    pub fn pm_gmean_matrix(&self) -> Vec<Vec<f64>> {
        self.metric_matrix(|r| r.pm_gmean)
    }

    fn metric_matrix(&self, metric: impl Fn(&RunResult) -> f64) -> Vec<Vec<f64>> {
        (0..self.detectors.len()).map(|d| self.detector_runs(d).map(&metric).collect()).collect()
    }

    /// The runs of the detector at position `d`, in benchmark order.
    fn detector_runs(&self, d: usize) -> impl Iterator<Item = &RunResult> {
        self.runs.iter().skip(d).step_by(self.detectors.len())
    }

    /// Friedman test over the pmAUC matrix (Fig. 4 input).
    pub fn friedman_pm_auc(&self) -> rbm_im_stats::Result<FriedmanResult> {
        friedman_test(&self.pm_auc_matrix(), true)
    }

    /// Friedman test over the pmGM matrix (Fig. 5 input).
    pub fn friedman_pm_gmean(&self) -> rbm_im_stats::Result<FriedmanResult> {
        friedman_test(&self.pm_gmean_matrix(), true)
    }

    /// Bonferroni–Dunn critical difference for this comparison.
    pub fn critical_difference(&self, alpha: f64) -> rbm_im_stats::Result<f64> {
        bonferroni_dunn_critical_difference(self.detectors.len(), self.benchmarks.len(), alpha)
    }

    /// Bayesian signed test of the detector at position `left` against the
    /// one at position `right` on pmAUC (Figs. 6–7 put RBM-IM on the left;
    /// the rope is expressed in pmAUC percentage points).
    pub fn bayesian_vs(
        &self,
        left: usize,
        right: usize,
        rope: f64,
        samples: usize,
        seed: u64,
    ) -> rbm_im_stats::Result<BayesianSignedOutcome> {
        let matrix = self.pm_auc_matrix();
        bayesian_signed_test(&matrix[left], &matrix[right], rope, samples, seed)
    }

    /// Average detector update time in seconds, per detector.
    pub fn average_update_seconds(&self) -> Vec<f64> {
        (0..self.detectors.len())
            .map(|d| {
                let seconds: Vec<f64> =
                    self.detector_runs(d).map(|r| r.detector_update_seconds).collect();
                if seconds.is_empty() {
                    0.0
                } else {
                    seconds.iter().sum::<f64>() / seconds.len() as f64
                }
            })
            .collect()
    }
}

/// Selects the benchmarks requested by the configuration (all 24 when none
/// are named), in registry order. Names match case-insensitively; the error
/// names every requested entry that matches no benchmark.
pub fn selected_benchmarks(config: &Experiment1Config) -> Result<Vec<BenchmarkSpec>, String> {
    let all = all_benchmarks();
    if config.benchmarks.is_empty() {
        return Ok(all);
    }
    let known = |name: &str| all.iter().any(|b| name.eq_ignore_ascii_case(&b.name));
    let unknown: Vec<&str> =
        config.benchmarks.iter().map(String::as_str).filter(|name| !known(name)).collect();
    if !unknown.is_empty() {
        let names: Vec<&str> = all.iter().map(|b| b.name.as_str()).collect();
        return Err(format!(
            "unknown benchmark(s): {} (known: {})",
            unknown.join(", "),
            names.join(", ")
        ));
    }
    Ok(all
        .into_iter()
        .filter(|b| config.benchmarks.iter().any(|n| n.eq_ignore_ascii_case(&b.name)))
        .collect())
}

/// Runs Experiment 1: every configured detector on every configured
/// benchmark, as one grid on `threads` workers. `progress` is called live
/// as each cell completes (completion order, so long grids show progress);
/// the returned result is in deterministic benchmark-major grid order,
/// whatever `threads` is. Pass `|_| {}` to ignore progress.
///
/// # Panics
///
/// If [`selected_benchmarks`] rejects the configuration, or a detector spec
/// does not resolve against the default registry.
pub fn run_experiment1(
    config: &Experiment1Config,
    threads: usize,
    progress: impl FnMut(&RunResult) + Send,
) -> Experiment1Result {
    let build: BuildConfig = config.build.into();
    let specs = selected_benchmarks(config).unwrap_or_else(|e| panic!("{e}"));
    let streams: Vec<GridStream> =
        specs.iter().map(|s| GridStream::from_benchmark(s.clone(), build)).collect();
    let progress = std::sync::Mutex::new(progress);
    let registry = DetectorRegistry::global();
    let runs =
        run_grid_observed(registry, &config.detectors, &streams, &config.run, threads, |_, run| {
            (progress.lock().expect("progress sink poisoned"))(run)
        })
        .unwrap_or_else(|e| panic!("{e}"));
    Experiment1Result {
        runs,
        benchmarks: specs.iter().map(|s| s.name.clone()).collect(),
        detectors: config.detectors.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny configuration so the experiment machinery can be
    /// exercised inside unit tests.
    fn tiny_config() -> Experiment1Config {
        Experiment1Config {
            detectors: ["FHDDM", "DDM-OCI", "RBM-IM"].map(DetectorSpec::new).into(),
            build: BuildConfigSerde {
                seed: 7,
                scale_divisor: 400,
                n_drifts: 1,
                dynamic_imbalance: true,
            },
            run: RunConfig { metric_window: 500, max_instances: Some(2_500), ..Default::default() },
            benchmarks: vec!["RBF5".into(), "Aggrawal5".into()],
        }
    }

    #[test]
    fn tiny_experiment_produces_full_matrix() {
        let config = tiny_config();
        let mut seen = 0usize;
        let result = run_experiment1(&config, 2, |_| seen += 1);
        assert_eq!(seen, 6);
        assert_eq!(result.runs.len(), 6);
        assert_eq!(result.benchmarks.len(), 2);
        let matrix = result.pm_auc_matrix();
        assert_eq!(matrix.len(), 3);
        assert_eq!(matrix[0].len(), 2);
        assert!(matrix.iter().flatten().all(|v| v.is_finite()));
        let gm = result.pm_gmean_matrix();
        assert!(gm.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn results_are_read_by_grid_position() {
        let config = tiny_config();
        let result = run_experiment1(&config, 2, |_| {});
        let (auc, gm) = (result.pm_auc_matrix(), result.pm_gmean_matrix());
        for (b, bench) in result.benchmarks.iter().enumerate() {
            for (d, spec) in config.detectors.iter().enumerate() {
                let run = &result.runs[b * config.detectors.len() + d];
                assert_eq!((&run.stream, &run.detector), (bench, &spec.label()));
                assert_eq!(auc[d][b].to_bits(), run.pm_auc.to_bits());
                assert_eq!(gm[d][b].to_bits(), run.pm_gmean.to_bits());
            }
        }
    }

    #[test]
    fn config_serde_round_trip() {
        // Experiment configurations can live in files, tuned detectors too.
        let config = Experiment1Config {
            detectors: vec![DetectorSpec::parse("adwin(delta=0.01)").unwrap()],
            ..tiny_config()
        };
        let json = serde_json::to_string(&config).unwrap();
        assert_eq!(serde_json::from_str::<Experiment1Config>(&json).unwrap(), config);
    }

    #[test]
    fn rank_analysis_runs_on_experiment_output() {
        let result = run_experiment1(&tiny_config(), 2, |_| {});
        let friedman = result.friedman_pm_auc().unwrap();
        assert_eq!(friedman.average_ranks.len(), 3);
        let cd = result.critical_difference(0.05).unwrap();
        assert!(cd > 0.0);
        let bayes = result.bayesian_vs(2, 1, 1.0, 2_000, 3).unwrap();
        let total = bayes.p_left + bayes.p_rope + bayes.p_right;
        assert!((total - 1.0).abs() < 1e-9);
        let timings = result.average_update_seconds();
        assert_eq!(timings.len(), 3);
    }

    #[test]
    fn benchmark_selection_filters() {
        let mut config = Experiment1Config {
            benchmarks: vec!["rbf5".into(), "electricity".into()],
            ..Default::default()
        };
        let specs = selected_benchmarks(&config).unwrap();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Electricity", "RBF5"], "registry order, registry spelling");
        config.benchmarks.clear();
        assert_eq!(selected_benchmarks(&config).unwrap().len(), 24);

        // Every unknown entry is named; the known one is not.
        config.benchmarks = vec!["Nope".into(), "EEG".into(), "Bogus".into()];
        let err = selected_benchmarks(&config).unwrap_err();
        assert!(err.starts_with("unknown benchmark(s): Nope, Bogus (known: "), "{err}");
        config.benchmarks = vec!["Nope".into()];
        assert!(selected_benchmarks(&config).is_err(), "no silently empty grid");
    }
}
