//! The unified evaluation `Pipeline`: stream × classifier × detector ×
//! metrics, composed through [`PipelineBuilder`] and scaled out through the
//! parallel [`run_grid`].
//!
//! The pipeline
//!
//! * is generic over the [`OnlineClassifier`] driving the detector (the
//!   paper's CSPT by default),
//! * resolves detectors through the open [`DetectorRegistry`] (or accepts any
//!   pre-built `DriftDetector`),
//! * reuses one scores buffer and one drift-attribution buffer across the
//!   whole stream (`predict_scores_into` / `drifted_classes_into`) and can
//!   feed the detector in mini-batches (`update_batch`, RBM-IM's natural
//!   mode),
//! * emits drift / warning / snapshot events to caller-supplied sinks, and
//! * runs whole detector × stream grids in parallel with deterministic
//!   per-cell seeding, so Table III regenerates on all cores with output
//!   byte-identical to a single-threaded run.
//!
//! ```
//! use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
//! use rbm_im_harness::registry::DetectorSpec;
//! use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};
//!
//! let build = BuildConfig { scale_divisor: 2_000, ..Default::default() };
//! let stream = benchmark_by_name("RBF5").unwrap().build(&build);
//! let result = PipelineBuilder::new()
//!     .stream(stream)
//!     .detector_spec(DetectorSpec::parse("adwin(delta=0.01)").unwrap())
//!     .config(RunConfig { metric_window: 200, max_instances: Some(500), ..Default::default() })
//!     .run()
//!     .unwrap();
//! assert_eq!(result.instances, 500);
//! ```

use crate::registry::{DetectorRegistry, DetectorSpec, RegistryError};
use crate::stepper::PipelineStepper;
use rbm_im_classifiers::{CostSensitivePerceptronTree, OnlineClassifier};
use rbm_im_detectors::DriftDetector;
use rbm_im_metrics::PrequentialSnapshot;
use rbm_im_streams::registry::{BenchmarkSpec, BuildConfig};
use rbm_im_streams::source::derive_stream_seed;
use rbm_im_streams::{DataStream, StreamSchema};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Configuration of a single prequential run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Window size of the prequential metrics (the paper uses 1000).
    pub metric_window: usize,
    /// Maximum number of instances to process (`None` = until exhaustion).
    pub max_instances: Option<u64>,
    /// Whether the classifier is reset when the detector fires.
    pub reset_on_drift: bool,
    /// How many observations are buffered before the detector sees them
    /// (`1` = classic per-instance test-then-train; larger values trade
    /// reaction latency for `update_batch` throughput — RBM-IM's natural
    /// mode). Drift positions always refer to the observation that
    /// triggered the signal, whatever the batch size.
    pub detector_batch: usize,
    /// Emit a [`PipelineEvent::Snapshot`] every this many instances
    /// (`None` = no snapshot events).
    pub snapshot_every: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            metric_window: 1000,
            max_instances: None,
            reset_on_drift: true,
            detector_batch: 1,
            snapshot_every: None,
        }
    }
}

/// Outcome of one prequential run (one cell of Table III plus diagnostics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Label of the detector evaluated: the detector's display name, or the
    /// spec label (`"adwin(delta=0.01)"`) for tuned registry variants.
    pub detector: String,
    /// Stream name.
    pub stream: String,
    /// Stream-averaged prequential multi-class AUC, in percent.
    pub pm_auc: f64,
    /// Stream-averaged prequential multi-class G-mean, in percent.
    pub pm_gmean: f64,
    /// Final windowed accuracy, in percent.
    pub accuracy: f64,
    /// Final windowed Cohen's kappa.
    pub kappa: f64,
    /// Number of instances processed.
    pub instances: u64,
    /// Positions at which the detector signalled drift.
    pub detections: Vec<u64>,
    /// Total seconds spent in detector update calls (every call timed).
    pub detector_update_seconds: f64,
    /// Estimated total seconds spent testing (classifier prediction +
    /// metric update): about one instance in 32, picked by a hash of its
    /// position, is timed and counts 32 times. An unbiased estimate, not
    /// a sum over every instance.
    pub test_seconds: f64,
    /// Estimated total seconds spent training the classifier, sampled like
    /// [`RunResult::test_seconds`].
    pub train_seconds: f64,
}

impl RunResult {
    /// Number of drift signals raised.
    pub fn drift_count(&self) -> usize {
        self.detections.len()
    }
}

/// Events emitted to [`PipelineBuilder::on_event`] sinks during a run.
#[derive(Debug)]
pub enum PipelineEvent<'a> {
    /// The detector entered the warning zone at `position`.
    Warning {
        /// Stream index of the triggering observation. For
        /// `detector_batch > 1` warnings are flush-granular: the position
        /// is the last instance of the flush that ended in the warning
        /// state, and warning episodes fully contained inside one flush
        /// are not observable.
        position: u64,
    },
    /// The detector signalled a drift.
    Drift {
        /// Stream index of the triggering observation.
        position: u64,
        /// Classes implicated by per-class detectors (empty for global
        /// detectors; for `detector_batch > 1` only the last drift of a
        /// flush carries attribution).
        classes: &'a [usize],
    },
    /// Periodic metric snapshot (cadence = `RunConfig::snapshot_every`).
    Snapshot {
        /// Stream index at which the snapshot was taken.
        position: u64,
        /// Windowed metric values.
        snapshot: PrequentialSnapshot,
    },
}

/// Errors raised when assembling or running a pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// No stream was supplied to the builder.
    MissingStream,
    /// Detector resolution through the registry failed.
    Registry(RegistryError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingStream => write!(f, "pipeline has no stream; call .stream(…)"),
            PipelineError::Registry(e) => write!(f, "pipeline detector resolution failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RegistryError> for PipelineError {
    fn from(e: RegistryError) -> Self {
        PipelineError::Registry(e)
    }
}

enum DetectorSource {
    Built { detector: Box<dyn DriftDetector + Send>, label: String },
    Spec(DetectorSpec),
}

type ClassifierFactory<'a, C> = Box<dyn FnOnce(&StreamSchema) -> C + 'a>;
type EventSink<'a> = Box<dyn FnMut(&PipelineEvent<'_>) + 'a>;

/// Builder assembling one prequential evaluation run.
///
/// Generic over the classifier type `C`; [`PipelineBuilder::new`] starts
/// with the paper's base classifier (CSPT) and [`PipelineBuilder::classifier`]
/// swaps in any other [`OnlineClassifier`]. The detector defaults to RBM-IM
/// (the paper's contribution) resolved from the default registry.
pub struct PipelineBuilder<'a, C: OnlineClassifier = CostSensitivePerceptronTree> {
    stream: Option<Box<dyn DataStream + Send + 'a>>,
    detector: Option<DetectorSource>,
    registry: Option<&'a DetectorRegistry>,
    classifier_factory: ClassifierFactory<'a, C>,
    config: RunConfig,
    sinks: Vec<EventSink<'a>>,
    stream_label: Option<String>,
}

impl<'a> PipelineBuilder<'a, CostSensitivePerceptronTree> {
    /// A builder with the paper's defaults: CSPT classifier, RBM-IM
    /// detector, `RunConfig::default()`.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        PipelineBuilder {
            stream: None,
            detector: None,
            registry: None,
            classifier_factory: Box::new(|schema: &StreamSchema| {
                CostSensitivePerceptronTree::new(schema.num_features, schema.num_classes)
            }),
            config: RunConfig::default(),
            sinks: Vec::new(),
            stream_label: None,
        }
    }
}

impl<'a, C: OnlineClassifier> PipelineBuilder<'a, C> {
    /// Sets the stream to evaluate on. The stream may borrow local state
    /// (anything alive for the builder's lifetime), so both owned
    /// generators and `&mut`-wrapped streams work.
    pub fn stream(mut self, stream: impl DataStream + Send + 'a) -> Self {
        self.stream = Some(Box::new(stream));
        self
    }

    /// Sets an already-boxed stream (registry / scenario builders hand
    /// streams out this way).
    pub fn boxed_stream(mut self, stream: Box<dyn DataStream + Send>) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Overrides the stream name recorded in the result (wrapped streams
    /// often rename themselves; experiments want the benchmark name).
    pub fn stream_label(mut self, label: impl Into<String>) -> Self {
        self.stream_label = Some(label.into());
        self
    }

    /// Sets a pre-built detector instance.
    pub fn detector(mut self, detector: impl DriftDetector + Send + 'static) -> Self {
        let label = detector.name().to_string();
        self.detector = Some(DetectorSource::Built { detector: Box::new(detector), label });
        self
    }

    /// Sets an already-boxed detector.
    pub fn boxed_detector(mut self, detector: Box<dyn DriftDetector + Send>) -> Self {
        let label = detector.name().to_string();
        self.detector = Some(DetectorSource::Built { detector, label });
        self
    }

    /// Sets the detector by registry spec, resolved against the builder's
    /// registry (default: [`DetectorRegistry::global`]) when the run starts
    /// and the stream schema is known.
    pub fn detector_spec(mut self, spec: DetectorSpec) -> Self {
        self.detector = Some(DetectorSource::Spec(spec));
        self
    }

    /// Uses a non-default detector registry for spec resolution.
    pub fn registry(mut self, registry: &'a DetectorRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Replaces the classifier driving the detector. Changes the builder's
    /// classifier type parameter.
    pub fn classifier<D: OnlineClassifier + 'a>(self, classifier: D) -> PipelineBuilder<'a, D> {
        self.classifier_with(move |_schema| classifier)
    }

    /// Replaces the classifier with one built from the stream schema at run
    /// time (useful when the schema is not known at call site).
    pub fn classifier_with<D: OnlineClassifier>(
        self,
        factory: impl FnOnce(&StreamSchema) -> D + 'a,
    ) -> PipelineBuilder<'a, D> {
        PipelineBuilder {
            stream: self.stream,
            detector: self.detector,
            registry: self.registry,
            classifier_factory: Box::new(factory),
            config: self.config,
            sinks: self.sinks,
            stream_label: self.stream_label,
        }
    }

    /// Sets the run configuration.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers an event sink receiving drift / warning / snapshot events.
    /// Multiple sinks are invoked in registration order.
    pub fn on_event(mut self, sink: impl FnMut(&PipelineEvent<'_>) + 'a) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Runs the pipeline to stream exhaustion (or `max_instances`).
    ///
    /// The loop body lives in [`PipelineStepper`] — the serving layer's
    /// shards drive the identical code per instance, which is what pins
    /// sharded serving to the sequential run bit for bit.
    pub fn run(self) -> Result<RunResult, PipelineError> {
        let mut stream = self.stream.ok_or(PipelineError::MissingStream)?;
        let schema = stream.schema().clone();
        let registry = match self.registry {
            Some(registry) => registry,
            None => DetectorRegistry::global(),
        };
        let (detector, detector_label) = match self.detector {
            Some(DetectorSource::Built { detector, label }) => (detector, label),
            Some(DetectorSource::Spec(spec)) => {
                let detector = registry.build(&spec, schema.num_features, schema.num_classes)?;
                (detector, spec.label())
            }
            None => {
                let spec = DetectorSpec::new("rbm-im");
                let detector = registry.build(&spec, schema.num_features, schema.num_classes)?;
                let label = detector.name().to_string();
                (detector, label)
            }
        };
        let classifier = (self.classifier_factory)(&schema);
        let mut sinks = self.sinks;
        let config = self.config;
        let mut stepper =
            PipelineStepper::new(classifier, detector, detector_label, schema.num_classes, config);
        let mut emit = move |event: &PipelineEvent<'_>| {
            for sink in sinks.iter_mut() {
                sink(event);
            }
        };

        while let Some(instance) = stream.next_instance() {
            if let Some(limit) = config.max_instances {
                if stepper.instances() >= limit {
                    break;
                }
            }
            stepper.step(instance, &mut emit);
        }
        // `finish` flushes the trailing partial detector batch.
        Ok(stepper.finish(self.stream_label.unwrap_or(schema.name), &mut emit))
    }
}

/// A named stream factory for [`run_grid`]: the grid builds each row's
/// stream once, on whichever worker takes the row, so the factory must be
/// deterministic for results not to depend on the worker count.
pub struct GridStream {
    /// Name recorded in the results (benchmark name / sweep label).
    pub name: String,
    builder: Box<dyn Fn() -> Box<dyn DataStream + Send> + Send + Sync>,
}

impl GridStream {
    /// Wraps an arbitrary deterministic stream factory.
    pub fn new(
        name: impl Into<String>,
        builder: impl Fn() -> Box<dyn DataStream + Send> + Send + Sync + 'static,
    ) -> Self {
        GridStream { name: name.into(), builder: Box::new(builder) }
    }

    /// Grid stream for a registry benchmark, with the stream seed derived
    /// deterministically from the base seed and the benchmark name (all
    /// detectors on a benchmark see the *same* stream — the fairness
    /// requirement of the Friedman ranking — while different benchmarks are
    /// decorrelated).
    pub fn from_benchmark(spec: BenchmarkSpec, build: BuildConfig) -> Self {
        let cell_build = BuildConfig { seed: derive_stream_seed(build.seed, &spec.name), ..build };
        let name = spec.name.clone();
        GridStream::new(name, move || spec.build(&cell_build))
    }

    /// Builds a fresh copy of the stream.
    pub fn build(&self) -> Box<dyn DataStream + Send> {
        (self.builder)()
    }
}

impl fmt::Debug for GridStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridStream").field("name", &self.name).finish()
    }
}

/// The grid's default worker count: every core the process may use.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs every detector × stream cell of the grid against the default
/// registry on [`available_threads`] workers. Results come back in
/// row-major order (stream-major, detector-minor) and are byte-identical
/// whatever the worker count.
pub fn run_grid(
    detectors: &[DetectorSpec],
    streams: &[GridStream],
    config: &RunConfig,
) -> Result<Vec<RunResult>, PipelineError> {
    let registry = DetectorRegistry::global();
    run_grid_observed(registry, detectors, streams, config, available_threads(), |_, _| {})
}

/// [`run_grid`] against an explicit registry on `threads` workers, plus a
/// streaming progress callback: `on_cell(row, result)` fires on a worker
/// thread as each cell *completes* (completion order, not grid order —
/// long-running grids get live progress instead of silence), with `row`
/// the index of the cell's stream in `streams`. The returned `Vec` is
/// still in deterministic row-major grid order.
///
/// The unit of work is a row: one stream, built once, whose instances go
/// in lockstep through one [`PipelineStepper`] per detector. `threads`
/// scoped workers take rows, in order, from a shared counter. Each stepper
/// sees exactly the instances [`PipelineBuilder::run`] would feed it on its
/// own copy of the stream, so every cell is bitwise what a lone run gives.
/// Every spec is checked against `registry` before any stream is built, so
/// an unknown detector or parameter name fails without running anything.
pub fn run_grid_observed(
    registry: &DetectorRegistry,
    detectors: &[DetectorSpec],
    streams: &[GridStream],
    config: &RunConfig,
    threads: usize,
    on_cell: impl Fn(usize, &RunResult) + Sync,
) -> Result<Vec<RunResult>, PipelineError> {
    for spec in detectors {
        registry.check(spec)?;
    }
    let next_row = AtomicUsize::new(0);
    let rows: Vec<OnceLock<Result<Vec<RunResult>, PipelineError>>> =
        streams.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(streams.len()).max(1) {
            scope.spawn(|| loop {
                let row = next_row.fetch_add(1, Ordering::Relaxed);
                let Some(stream) = streams.get(row) else { break };
                let cells =
                    run_row(registry, detectors, stream, config, &|cell| on_cell(row, cell));
                rows[row].set(cells).expect("each grid row runs once");
            });
        }
    });
    let mut results = Vec::with_capacity(streams.len() * detectors.len());
    for row in rows {
        results.extend(row.into_inner().expect("every grid row ran")?);
    }
    Ok(results)
}

/// The sweep behind Figs. 8 and 9: one grid row per swept value `x`, on
/// the stream `stream(x)`, with every detector on each row, against the
/// default registry on [`available_threads`] workers. `progress` fires live
/// with the row's value as each cell completes; the rows come back in
/// sweep order, each with its value and its runs in detector order.
///
/// # Panics
///
/// If a detector spec does not resolve against the default registry.
pub(crate) fn run_sweep<X: Copy + Sync>(
    detectors: &[DetectorSpec],
    values: &[X],
    stream: impl Fn(X) -> GridStream,
    config: &RunConfig,
    progress: impl FnMut(X, &RunResult) + Send,
) -> Vec<(X, Vec<RunResult>)> {
    let streams: Vec<GridStream> = values.iter().map(|&x| stream(x)).collect();
    let progress = Mutex::new(progress);
    let registry = DetectorRegistry::global();
    let threads = available_threads();
    let results = run_grid_observed(registry, detectors, &streams, config, threads, |row, run| {
        (progress.lock().expect("progress sink poisoned"))(values[row], run)
    })
    .unwrap_or_else(|e| panic!("{e}"));
    values
        .iter()
        .zip(results.chunks(detectors.len().max(1)))
        .map(|(&x, runs)| (x, runs.to_vec()))
        .collect()
}

/// One grid row: each instance goes, in detector order, through one
/// stepper per spec — a clone for all but the last, which takes the
/// instance itself — with `max_instances` and the final flush applied as
/// [`PipelineBuilder::run`] applies them.
fn run_row(
    registry: &DetectorRegistry,
    detectors: &[DetectorSpec],
    grid_stream: &GridStream,
    config: &RunConfig,
    on_cell: &impl Fn(&RunResult),
) -> Result<Vec<RunResult>, PipelineError> {
    let mut stream = grid_stream.build();
    let schema = stream.schema().clone();
    let mut steppers = detectors
        .iter()
        .map(|spec| PipelineStepper::from_spec(registry, spec, &schema, *config))
        .collect::<Result<Vec<_>, _>>()?;
    let ignore = &mut |_: &PipelineEvent<'_>| {};
    let limit = config.max_instances.unwrap_or(u64::MAX);
    let mut taken = 0;
    while taken < limit {
        let Some((last, rest)) = steppers.split_last_mut() else { break };
        let Some(instance) = stream.next_instance() else { break };
        taken += 1;
        for stepper in rest {
            stepper.step(instance.clone(), ignore);
        }
        last.step(instance, ignore);
    }
    Ok(steppers
        .into_iter()
        .map(|stepper| {
            let result = stepper.finish(grid_stream.name.clone(), ignore);
            on_cell(&result);
            result
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_classifiers::GaussianNaiveBayes;
    use rbm_im_streams::generators::RandomRbfGenerator;
    use rbm_im_streams::scenarios::{scenario1, ScenarioConfig};
    use rbm_im_streams::stream::BoundedStream;
    use rbm_im_streams::{ReplayStream, StreamExt, StreamSchema};
    use std::cell::RefCell;

    fn small_scenario() -> ScenarioConfig {
        ScenarioConfig {
            length: 8_000,
            num_features: 8,
            num_classes: 3,
            imbalance_ratio: 10.0,
            n_drifts: 1,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_produces_sane_metrics() {
        let scenario = scenario1(&small_scenario());
        let result = PipelineBuilder::new()
            .boxed_stream(scenario.stream)
            .detector_spec(DetectorSpec::new("RBM-IM"))
            .config(RunConfig { metric_window: 500, ..Default::default() })
            .run()
            .unwrap();
        assert_eq!(result.instances, 8_000);
        assert!(result.pm_auc > 0.0 && result.pm_auc <= 100.0);
        assert!(result.pm_gmean >= 0.0 && result.pm_gmean <= 100.0);
        assert!(result.accuracy > 0.0 && result.accuracy <= 100.0);
        assert!(result.detector_update_seconds >= 0.0);
        assert_eq!(result.detector, "RBM-IM");
        assert_eq!(result.drift_count(), result.detections.len());
    }

    #[test]
    fn detector_driven_adaptation_beats_no_detector_after_drift() {
        // A stream with a severe sudden drift: the classifier driven by a
        // reasonable detector (ADWIN) should end up at least as good as one
        // that never adapts (emulated by disabling reset_on_drift).
        let make_stream = || {
            let mut gen = RandomRbfGenerator::new(8, 3, 2, 0.0, 77);
            let mut all = gen.take_instances(6_000);
            gen.regenerate();
            all.extend(gen.take_instances(6_000));
            ReplayStream::new(StreamSchema::new("vec", 8, 3), all)
        };
        let run = |config: RunConfig| {
            PipelineBuilder::new()
                .stream(make_stream())
                .detector_spec(DetectorSpec::new("ADWIN"))
                .config(config)
                .run()
                .unwrap()
        };
        let adaptive = run(RunConfig { metric_window: 500, ..Default::default() });
        let frozen =
            run(RunConfig { metric_window: 500, reset_on_drift: false, ..Default::default() });
        assert!(
            adaptive.pm_auc >= frozen.pm_auc - 3.0,
            "adaptive {:.2} should not trail frozen {:.2} materially",
            adaptive.pm_auc,
            frozen.pm_auc
        );
    }

    #[test]
    fn missing_stream_is_an_error() {
        let err = PipelineBuilder::new().run().unwrap_err();
        assert!(matches!(err, PipelineError::MissingStream));
    }

    #[test]
    fn unknown_detector_spec_is_an_error() {
        let scenario = scenario1(&small_scenario());
        let err = PipelineBuilder::new()
            .boxed_stream(scenario.stream)
            .detector_spec(DetectorSpec::new("nope"))
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Registry(_)));
    }

    #[test]
    fn bounded_stream_and_max_instances_terminate_the_run() {
        let gen = RandomRbfGenerator::new(5, 3, 2, 0.0, 3);
        let result = PipelineBuilder::new()
            .stream(BoundedStream::new(gen, 2_000))
            .detector_spec(DetectorSpec::new("FHDDM"))
            .config(RunConfig { metric_window: 500, ..Default::default() })
            .run()
            .unwrap();
        assert_eq!(result.instances, 2_000);

        let scenario = scenario1(&small_scenario());
        let result = PipelineBuilder::new()
            .boxed_stream(scenario.stream)
            .detector_spec(DetectorSpec::new("RDDM"))
            .config(RunConfig {
                metric_window: 200,
                max_instances: Some(1_000),
                ..Default::default()
            })
            .run()
            .unwrap();
        assert_eq!(result.instances, 1_000);
    }

    #[test]
    fn event_sinks_observe_drifts_and_snapshots() {
        let scenario = scenario1(&small_scenario());
        let drifts = RefCell::new(Vec::new());
        let snapshots = RefCell::new(0usize);
        let result = PipelineBuilder::new()
            .boxed_stream(scenario.stream)
            .detector_spec(DetectorSpec::new("ADWIN"))
            .config(RunConfig {
                metric_window: 500,
                snapshot_every: Some(1_000),
                ..Default::default()
            })
            .on_event(|event| match event {
                PipelineEvent::Drift { position, .. } => drifts.borrow_mut().push(*position),
                PipelineEvent::Snapshot { .. } => *snapshots.borrow_mut() += 1,
                PipelineEvent::Warning { .. } => {}
            })
            .run()
            .unwrap();
        assert_eq!(*drifts.borrow(), result.detections);
        assert_eq!(*snapshots.borrow(), 8, "8k instances / snapshot every 1k");
    }

    #[test]
    fn custom_classifier_drives_the_pipeline() {
        let scenario = scenario1(&small_scenario());
        let result = PipelineBuilder::new()
            .boxed_stream(scenario.stream)
            .classifier_with(|schema| {
                GaussianNaiveBayes::new(schema.num_features, schema.num_classes)
            })
            .detector_spec(DetectorSpec::new("DDM-OCI"))
            .config(RunConfig { metric_window: 500, ..Default::default() })
            .run()
            .unwrap();
        assert_eq!(result.instances, 8_000);
        assert!(result.pm_auc.is_finite());
    }

    #[test]
    fn batched_detector_mode_runs_and_detects() {
        let scenario = scenario1(&small_scenario());
        let batched = PipelineBuilder::new()
            .boxed_stream(scenario.stream)
            .detector_spec(DetectorSpec::new("RBM-IM"))
            .config(RunConfig { metric_window: 500, detector_batch: 50, ..Default::default() })
            .run()
            .unwrap();
        assert_eq!(batched.instances, 8_000);
        assert!(batched.pm_auc.is_finite());
    }

    #[test]
    fn grid_results_are_row_major_and_labelled() {
        let detectors = vec![DetectorSpec::new("FHDDM"), DetectorSpec::new("RBM-IM")];
        let streams: Vec<GridStream> = ["alpha", "beta"]
            .iter()
            .map(|name| {
                GridStream::new(*name, || {
                    Box::new(BoundedStream::new(RandomRbfGenerator::new(6, 3, 2, 0.0, 7), 1_500))
                })
            })
            .collect();
        let config = RunConfig { metric_window: 300, ..Default::default() };
        let results = run_grid(&detectors, &streams, &config).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].stream, "alpha");
        assert_eq!(results[0].detector, "FHDDM");
        assert_eq!(results[1].detector, "RBM-IM");
        assert_eq!(results[2].stream, "beta");
    }
}
