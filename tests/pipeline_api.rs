//! Acceptance tests of the unified Pipeline API: batched-detector
//! equivalence across the whole registry, `DetectorSpec` serde round-trips,
//! classifier pluggability, and worker-count-independent grid results.

use rbm_im_classifiers::GaussianNaiveBayes;
use rbm_im_detectors::{DriftDetector, Observation};
use rbm_im_harness::pipeline::{
    run_grid_observed, GridStream, PipelineBuilder, PipelineError, RunConfig, RunResult,
};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::scenarios::{scenario1, ScenarioConfig};
use rbm_im_streams::stream::BoundedStream;
use rbm_im_streams::{Instance, StreamExt};

/// A fixed drifting stream: concept A for 4000 instances, concept B after.
fn drifting_instances() -> Vec<Instance> {
    let mut gen = RandomRbfGenerator::new(8, 3, 2, 0.0, 1234);
    let mut data = gen.take_instances(4_000);
    gen.regenerate();
    data.extend(gen.take_instances(3_000));
    data
}

/// Every registry detector must report identical drift positions whether it
/// is fed observation-by-observation (`update`) or in arbitrary chunks
/// (`update_batch`) — the core contract of the batched trait v2.
#[test]
fn update_batch_matches_per_instance_for_every_registry_detector() {
    let registry = DetectorRegistry::with_defaults();
    let data = drifting_instances();
    // Predictions from a fixed deterministic rule so error-rate detectors
    // see a change at the concept switch too: the simulated classifier is
    // 90% accurate on concept A and 55% on concept B.
    let predictions: Vec<usize> = data
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let accuracy = if i < 4_000 { 0.9 } else { 0.55 };
            let hash = ((i as f64) * 0.754_877).fract();
            if hash < accuracy {
                inst.class
            } else {
                (inst.class + 1) % 3
            }
        })
        .collect();
    let observations: Vec<Observation<'_>> = data
        .iter()
        .zip(predictions.iter())
        .map(|(inst, &predicted)| Observation::new(&inst.features, inst.class, predicted))
        .collect();

    for name in registry.names() {
        let spec = DetectorSpec::new(&name);

        let mut sequential = registry.build(&spec, 8, 3).unwrap();
        let mut sequential_positions = Vec::new();
        for (i, obs) in observations.iter().enumerate() {
            if sequential.update(obs).is_drift() {
                sequential_positions.push(i);
            }
        }

        // A chunk size misaligned with every internal window/batch size.
        let chunk_size = 73;
        let mut batched = registry.build(&spec, 8, 3).unwrap();
        let mut batched_positions = Vec::new();
        let mut offsets = Vec::new();
        for (chunk_index, chunk) in observations.chunks(chunk_size).enumerate() {
            batched.update_batch(chunk, &mut offsets);
            batched_positions.extend(offsets.iter().map(|o| chunk_index * chunk_size + o));
        }

        assert_eq!(
            sequential_positions, batched_positions,
            "{name}: batched drift positions must match per-instance updates"
        );
    }
}

#[test]
fn detector_spec_serde_round_trip_preserves_tuned_variants() {
    let specs = vec![
        DetectorSpec::new("rbm-im"),
        DetectorSpec::parse("adwin(delta=0.01)").unwrap(),
        DetectorSpec::new("fhddm").with_param("window_size", 25.0).with_param("delta", 1e-4),
    ];
    let json = serde_json::to_string_pretty(&specs).unwrap();
    let back: Vec<DetectorSpec> = serde_json::from_str(&json).unwrap();
    assert_eq!(specs, back);
    // The tuned variants must still resolve after the round trip.
    let registry = DetectorRegistry::with_defaults();
    for spec in &back {
        registry.build(spec, 6, 3).unwrap();
    }
}

#[test]
fn run_config_serde_round_trip() {
    let config = RunConfig {
        metric_window: 500,
        max_instances: Some(2_000),
        reset_on_drift: false,
        detector_batch: 50,
        snapshot_every: Some(250),
    };
    let json = serde_json::to_string(&config).unwrap();
    let back: RunConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);
}

#[test]
fn pipeline_accepts_a_non_default_classifier() {
    let config = ScenarioConfig {
        length: 6_000,
        num_features: 8,
        num_classes: 3,
        imbalance_ratio: 10.0,
        n_drifts: 1,
        ..Default::default()
    };
    let scenario = scenario1(&config);
    let result = PipelineBuilder::new()
        .boxed_stream(scenario.stream)
        .classifier_with(|schema| GaussianNaiveBayes::new(schema.num_features, schema.num_classes))
        .detector_spec(DetectorSpec::new("ddm-oci"))
        .config(RunConfig { metric_window: 500, ..Default::default() })
        .run()
        .unwrap();
    assert_eq!(result.instances, 6_000);
    assert!(result.pm_auc > 0.0 && result.pm_auc <= 100.0);
    assert_eq!(result.detector, "ddm-oci");
}

fn strip_timing_results(runs: &[RunResult]) -> Vec<RunResult> {
    runs.iter()
        .map(|r| RunResult {
            detector_update_seconds: 0.0,
            test_seconds: 0.0,
            train_seconds: 0.0,
            ..r.clone()
        })
        .collect()
}

/// The acceptance criterion of the parallel grid: results are byte-identical
/// whatever the worker count — including more workers than rows — because
/// every row builds its own deterministically seeded stream and detectors.
/// A grid naming an unknown detector fails before it builds any stream.
#[test]
fn run_grid_is_deterministic_across_thread_counts() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let builds = Arc::new(AtomicUsize::new(0));
    let streams: Vec<GridStream> = [11u64, 29]
        .iter()
        .map(|&seed| {
            let builds = Arc::clone(&builds);
            GridStream::new(format!("rbf-{seed}"), move || {
                builds.fetch_add(1, Ordering::Relaxed);
                Box::new(BoundedStream::new(RandomRbfGenerator::new(6, 3, 2, 0.0, seed), 2_000))
            })
        })
        .collect();
    let config = RunConfig { metric_window: 400, ..Default::default() };
    let cells = AtomicUsize::new(0);
    let run = |detectors: &[DetectorSpec], threads: usize| {
        let registry = DetectorRegistry::global();
        run_grid_observed(registry, detectors, &streams, &config, threads, |row, cell| {
            assert_eq!(cell.stream, streams[row].name, "on_cell names the cell's row");
            cells.fetch_add(1, Ordering::Relaxed);
        })
    };

    let detectors =
        [DetectorSpec::new("fhddm"), DetectorSpec::new("adwin"), DetectorSpec::new("rbm-im")];
    let single = run(&detectors, 1).unwrap();
    let two = run(&detectors, 2).unwrap();
    let seven = run(&detectors, 7).unwrap();

    assert_eq!(single.len(), 6);
    let order: Vec<(&str, &str)> =
        single.iter().map(|r| (r.stream.as_str(), r.detector.as_str())).collect();
    assert_eq!(
        order,
        [
            ("rbf-11", "fhddm"),
            ("rbf-11", "adwin"),
            ("rbf-11", "rbm-im"),
            ("rbf-29", "fhddm"),
            ("rbf-29", "adwin"),
            ("rbf-29", "rbm-im"),
        ],
        "row-major grid order"
    );
    // Wall-clock timing aside, every field — including the serialized JSON
    // artifact — must be byte-identical across worker counts.
    assert_eq!(strip_timing_results(&single), strip_timing_results(&two));
    assert_eq!(strip_timing_results(&single), strip_timing_results(&seven));
    let json_single = serde_json::to_string(&strip_timing_results(&single)).unwrap();
    let json_two = serde_json::to_string(&strip_timing_results(&two)).unwrap();
    assert_eq!(json_single, json_two);
    // One stream build per row per run, and one callback per cell.
    assert_eq!(builds.load(Ordering::Relaxed), 3 * 2);
    assert_eq!(cells.load(Ordering::Relaxed), 3 * 6);

    let with_unknown = [DetectorSpec::new("fhddm"), DetectorSpec::new("nope")];
    let err = run(&with_unknown, 2).unwrap_err();
    assert!(matches!(err, PipelineError::Registry(_)), "{err}");
    assert_eq!(builds.load(Ordering::Relaxed), 3 * 2, "no stream built");
    assert_eq!(cells.load(Ordering::Relaxed), 3 * 6, "no cell ran");
}

/// A detector registered from *outside* the harness crate drives the full
/// pipeline — the "open" part of the open registry.
#[test]
fn externally_registered_detector_runs_through_the_pipeline() {
    use rbm_im_detectors::DetectorState;

    /// Fires a drift every `period` observations.
    struct Metronome {
        period: usize,
        seen: usize,
        state: DetectorState,
    }
    impl DriftDetector for Metronome {
        fn update(&mut self, _observation: &Observation<'_>) -> DetectorState {
            self.seen += 1;
            self.state = if self.seen.is_multiple_of(self.period) {
                DetectorState::Drift
            } else {
                DetectorState::Stable
            };
            self.state
        }
        fn state(&self) -> DetectorState {
            self.state
        }
        fn reset(&mut self) {
            self.seen = 0;
            self.state = DetectorState::Stable;
        }
        fn name(&self) -> &'static str {
            "Metronome"
        }
    }

    let mut registry = DetectorRegistry::with_defaults();
    registry.register("metronome", &["period"], |p, _, _| {
        Ok(Box::new(Metronome {
            period: p.get_usize_or("period", 500)?,
            seen: 0,
            state: DetectorState::Stable,
        }))
    });

    let result = PipelineBuilder::new()
        .registry(&registry)
        .stream(BoundedStream::new(RandomRbfGenerator::new(5, 3, 2, 0.0, 2), 2_000))
        .detector_spec(DetectorSpec::parse("metronome(period=400)").unwrap())
        .config(RunConfig { metric_window: 300, ..Default::default() })
        .run()
        .unwrap();
    assert_eq!(result.detections.len(), 5, "2000 instances / drift every 400");
    assert_eq!(result.detector, "metronome(period=400)");
}
