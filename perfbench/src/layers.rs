//! Per-layer measurements of a traced run, taken from outside the program
//! by timing calls into each layer's public API.
//!
//! * [`stage_ledger`] drives the prequential loop body itself
//!   (`predict_scores_into` → `argmax` → `PrequentialEvaluator::record` →
//!   `learn`, then `update_batch` per 50) with a span around every stage,
//!   and checks its output against `PipelineBuilder::run`.
//! * [`kernel_codec_wire`] times the RBM kernels, the RBMC checkpoint
//!   codec, the snapshot sink and the RBMW frame codec in isolation.

use crate::feeds::{replay, same_output, Feed, BATCH};
use crate::trace::{SpanLog, ROOT};
use crate::util::{median, quantile, sorted, Metrics};
use rbm_im::{RbmNetwork, RbmNetworkConfig, Workspace};
use rbm_im_classifiers::{argmax, CostSensitivePerceptronTree, OnlineClassifier};
use rbm_im_detectors::Observation;
use rbm_im_harness::checkpoint::codec::CheckpointCodec;
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::{PipelineCheckpoint, PipelineStepper};
use rbm_im_metrics::PrequentialEvaluator;
use rbm_im_net::wire::{decode_payload, encode_frame, Frame};
use rbm_im_serve::{SnapshotSink, StreamCheckpoint};
use rbm_im_streams::{derive_stream_seed, Instance};
use std::path::Path;
use std::time::{Duration, Instant};

/// Untraced/traced pass pairs the stage ledger alternates.
const LEDGER_PAIRS: usize = 3;
/// Repetitions of each isolated codec, sink and wire measurement.
const REPS: usize = 30;
/// Mini-batches replayed through the standalone RBM network.
const RBM_BATCHES: u64 = 400;

/// One traced pass of the prequential loop body over the first `total`
/// instances of `feed`'s cyclic replay. Mirrors `PipelineStepper::step`
/// and `flush` for `detector_batch = 50`.
fn traced_pass(
    feed: &Feed,
    total: usize,
    spec: &DetectorSpec,
    run: RunConfig,
    log: &mut SpanLog,
) -> (RunResult, Duration) {
    assert_eq!(run.detector_batch, BATCH, "the ledger mirrors the batched loop");
    let (nf, nc) = (feed.schema.num_features, feed.schema.num_classes);
    let mut classifier = CostSensitivePerceptronTree::new(nf, nc);
    let mut detector =
        DetectorRegistry::global().build(spec, nf, nc).expect("benchmark specs resolve");
    let mut evaluator = PrequentialEvaluator::new(nc, run.metric_window);
    let mut scores = Vec::with_capacity(nc);
    let mut offsets = Vec::with_capacity(BATCH);
    let mut pending: Vec<(Instance, usize)> = Vec::with_capacity(BATCH);
    let mut detections = Vec::new();

    let start = Instant::now();
    let pass = log.open("harness.pass", start, ROOT);
    let mut batch = log.open("harness.batch", start, pass);
    for i in 0..total {
        let instance = feed.instances[i % feed.instances.len()].clone();
        let t0 = Instant::now();
        classifier.predict_scores_into(&instance.features, &mut scores);
        let predicted = argmax(&scores);
        let t1 = Instant::now();
        evaluator.record(instance.class, predicted, &scores);
        let t2 = Instant::now();
        classifier.learn(&instance);
        let t3 = Instant::now();
        log.record("classifiers.predict", t0, t1, batch);
        log.record("metrics.record", t1, t2, batch);
        log.record("classifiers.learn", t2, t3, batch);
        pending.push((instance, predicted));
        if pending.len() == BATCH {
            let t4 = Instant::now();
            let observations: Vec<Observation<'_>> = pending
                .iter()
                .map(|(instance, predicted)| Observation {
                    features: &instance.features,
                    true_class: instance.class,
                    predicted_class: *predicted,
                    correct: *predicted == instance.class,
                })
                .collect();
            detector.update_batch(&observations, &mut offsets);
            drop(observations);
            let t5 = Instant::now();
            log.record("detectors.update_batch", t4, t5, batch);
            if !offsets.is_empty() {
                detections.extend(offsets.iter().map(|&o| pending[o].0.index));
                if run.reset_on_drift {
                    classifier.reset();
                }
            }
            pending.clear();
            log.close(batch, t5);
            batch = log.open("harness.batch", t5, pass);
        }
    }
    let end = Instant::now();
    log.close(batch, end);
    log.close(pass, end);
    let snapshot = evaluator.snapshot();
    let result = RunResult {
        detector: spec.label(),
        stream: feed.id.clone(),
        pm_auc: evaluator.average_pm_auc() * 100.0,
        pm_gmean: evaluator.average_pm_gmean() * 100.0,
        accuracy: snapshot.accuracy * 100.0,
        kappa: snapshot.kappa,
        instances: total as u64,
        detections,
        detector_update_seconds: 0.0,
        test_seconds: 0.0,
        train_seconds: 0.0,
    };
    (result, end - start)
}

/// Stage ledger of the prequential loop on `messages` messages of `feed`:
/// alternates untraced `PipelineBuilder` passes with traced passes, checks
/// every traced output equals the untraced one bitwise, and records the
/// stage distributions, the stage-sum ratio and the tracing overhead.
/// Returns the number of mismatching passes.
pub fn stage_ledger(
    feed: &Feed,
    messages: u64,
    spec: &DetectorSpec,
    run: RunConfig,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> u64 {
    let total = messages as usize * BATCH;
    let mut mismatches = 0;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..LEDGER_PAIRS {
        let t = Instant::now();
        let reference = replay(feed, messages, spec, run);
        untraced.push(t.elapsed().as_secs_f64());
        let (result, wall) = traced_pass(feed, total, spec, run, log);
        traced.push(wall.as_secs_f64());
        if !same_output(&reference, &result) {
            mismatches += 1;
        }
    }
    let dist =
        |name: &str, scale: f64| sorted(log.durations_ns(name).iter().map(|d| d / scale).collect());
    let predict = dist("classifiers.predict", 1.0);
    let record = dist("metrics.record", 1.0);
    let learn = dist("classifiers.learn", 1.0);
    let update = dist("detectors.update_batch", 1e3);
    m.put("classifiers.predict_ns", quantile(&predict, 0.5), "ns");
    m.put("classifiers.predict_p90_ns", quantile(&predict, 0.9), "ns");
    m.put("metrics.record_ns", quantile(&record, 0.5), "ns");
    m.put("metrics.record_p90_ns", quantile(&record, 0.9), "ns");
    m.put("classifiers.learn_ns", quantile(&learn, 0.5), "ns");
    m.put("classifiers.learn_p90_ns", quantile(&learn, 0.9), "ns");
    m.put("detectors.update_batch_us", quantile(&update, 0.5), "us");
    m.put("detectors.update_batch_p90_us", quantile(&update, 0.9), "us");
    let wall_ns = log.total_ns("harness.pass");
    let stage_ns: f64 =
        ["classifiers.predict", "metrics.record", "classifiers.learn", "detectors.update_batch"]
            .iter()
            .map(|name| log.total_ns(name))
            .sum();
    let instances = (LEDGER_PAIRS * total) as f64;
    m.put("harness.loop_other_ns", (wall_ns - stage_ns) / instances, "ns");
    m.put("harness.stage_sum_ratio", stage_ns / wall_ns, "ratio");
    m.put("trace.overhead_frac", median(&traced) / median(&untraced) - 1.0, "ratio");
    mismatches
}

/// Isolated timings of the RBM CD-k kernels (on `feed`'s shape), the RBMC
/// checkpoint codec and snapshot sink (on warmed `rbm` + `adwin` RBF5
/// steppers), and the RBMW ingest frame codec. `scratch` is a directory
/// the sink may use; it is removed afterwards. Returns the number of
/// round trips that did not reproduce their input.
pub fn kernel_codec_wire(
    feed: &Feed,
    seed: u64,
    run: RunConfig,
    scratch: &Path,
    log: &mut SpanLog,
    m: &mut Metrics,
) -> u64 {
    let mut mismatches = 0;

    // RBM kernels, replaying the workload's own 50-instance batches.
    let (nf, nc) = (feed.schema.num_features, feed.schema.num_classes);
    let mut net = RbmNetwork::new(nf, nc, RbmNetworkConfig::default());
    let mut ws = Workspace::default();
    let (mut features, mut classes, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..RBM_BATCHES {
        features.clear();
        classes.clear();
        for instance in feed.message(k) {
            features.extend_from_slice(&instance.features);
            classes.push(instance.class);
        }
        let t0 = Instant::now();
        std::hint::black_box(net.train_flat(&features, &classes));
        let t1 = Instant::now();
        net.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errors);
        std::hint::black_box(&errors);
        let t2 = Instant::now();
        log.record("rbm.train_flat", t0, t1, ROOT);
        log.record("rbm.recon_err", t1, t2, ROOT);
    }
    m.put("rbm.train_flat_us", median(&log.durations_ns("rbm.train_flat")) / 1e3, "us");
    m.put("rbm.recon_err_us", median(&log.durations_ns("rbm.recon_err")) / 1e3, "us");

    // Client-side batch materialisation: the `to_vec` of one message.
    for k in 0..(REPS as u64 * 50) {
        let t0 = Instant::now();
        let batch = std::hint::black_box(feed.message(k).to_vec());
        let t1 = Instant::now();
        drop(batch);
        log.record("serve.batch_build", t0, t1, ROOT);
    }
    m.put("serve.batch_build_ns", median(&log.durations_ns("serve.batch_build")), "ns");

    // Checkpoint codec and sink on a warmed rbm + adwin pair.
    let probe = Feed::record("RBF5", "probe".into(), derive_stream_seed(seed, "probe"), 500, 2000);
    let registry = DetectorRegistry::global();
    let specs = [DetectorSpec::parse("rbm(minibatch=50)"), DetectorSpec::parse("adwin")]
        .map(|spec| spec.expect("valid spec"));
    let steppers: Vec<PipelineStepper> = specs
        .iter()
        .map(|spec| {
            let mut stepper = PipelineStepper::from_spec(registry, spec, &probe.schema, run)
                .expect("benchmark specs resolve");
            for instance in &probe.instances {
                stepper.step(instance.clone(), &mut |_| {});
            }
            stepper
        })
        .collect();
    let sink = SnapshotSink::new(scratch).expect("the sink's scratch directory is writable");
    let mut bytes = 0;
    for _ in 0..REPS {
        bytes = 0;
        for (stepper, spec) in steppers.iter().zip(&specs) {
            let t0 = Instant::now();
            let checkpoint =
                PipelineCheckpoint::capture(stepper, probe.schema.clone(), spec.clone())
                    .expect("registry detectors snapshot");
            let t1 = Instant::now();
            let encoded = checkpoint.to_bytes(CheckpointCodec::Binary);
            let t2 = Instant::now();
            let decoded = PipelineCheckpoint::from_bytes(&encoded);
            let t3 = Instant::now();
            let resumed = decoded.as_ref().ok().map(|d| d.resume(registry));
            let t4 = Instant::now();
            bytes += encoded.len();
            if decoded.as_ref().ok() != Some(&checkpoint) || !matches!(resumed, Some(Ok(_))) {
                mismatches += 1;
            }
            let stream = StreamCheckpoint { stream: format!("probe-{}", spec.name), checkpoint };
            let t5 = Instant::now();
            let spilled = sink.spill_checkpoint(&stream);
            let t6 = Instant::now();
            let loaded = sink.load_checkpoint(&stream.stream);
            let t7 = Instant::now();
            if spilled.is_err() || loaded.ok().flatten().as_ref() != Some(&stream) {
                mismatches += 1;
            }
            log.record("checkpoint.capture", t0, t1, ROOT);
            log.record("checkpoint.encode", t1, t2, ROOT);
            log.record("checkpoint.decode", t2, t3, ROOT);
            log.record("checkpoint.resume", t3, t4, ROOT);
            log.record("sink.spill", t5, t6, ROOT);
            log.record("sink.load", t6, t7, ROOT);
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    // Per rbm + adwin pair: consecutive spans of one repetition summed.
    let pair_us = |name: &str| -> f64 {
        let pairs: Vec<f64> =
            log.durations_ns(name).chunks(2).map(|c| c.iter().sum::<f64>() / 1e3).collect();
        median(&pairs)
    };
    for (metric, span) in [
        ("checkpoint.capture_us", "checkpoint.capture"),
        ("checkpoint.encode_us", "checkpoint.encode"),
        ("checkpoint.decode_us", "checkpoint.decode"),
        ("checkpoint.resume_us", "checkpoint.resume"),
        ("sink.spill_us", "sink.spill"),
        ("sink.load_us", "sink.load"),
    ] {
        m.put(metric, pair_us(span), "us");
    }
    m.put("checkpoint.bytes", bytes as f64, "bytes");

    // RBMW: one Ingest frame of 50 RBF5 instances.
    let instances = probe.message(0).to_vec();
    let frame =
        Frame::Ingest { stream: probe.id.clone(), blocking: true, instances: instances.clone() };
    let mut frame_len = 0;
    for _ in 0..REPS * 50 {
        let t0 = Instant::now();
        let encoded = encode_frame(&frame);
        let t1 = Instant::now();
        let decoded = decode_payload(&encoded[4..]);
        let t2 = Instant::now();
        frame_len = encoded.len();
        if !matches!(decoded, Ok(Frame::Ingest { instances: ref got, .. }) if *got == instances) {
            mismatches += 1;
        }
        log.record("net.encode_frame", t0, t1, ROOT);
        log.record("net.decode_payload", t1, t2, ROOT);
    }
    m.put("net.encode_frame_us", median(&log.durations_ns("net.encode_frame")) / 1e3, "us");
    m.put("net.decode_payload_us", median(&log.durations_ns("net.decode_payload")) / 1e3, "us");
    m.put("net.frame_bytes_per_inst", frame_len as f64 / BATCH as f64, "bytes");
    mismatches
}
