//! Integration suite of the sharded serving subsystem.
//!
//! The load-bearing property is **determinism**: for the same seeded
//! streams, serving must produce drift offsets and prequential metrics that
//! are (a) identical at every shard count and under any ingest
//! interleaving, and (b) identical to a sequential
//! [`PipelineBuilder`] run over the same instances — the serving layer adds
//! concurrency, never different results. Shard counts default to 1, 4 and
//! 8 and can be pinned from CI via `RBM_SERVE_SHARDS` (comma-separated).

use rbm_im_detectors::{DetectorState, DriftDetector, Observation};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_serve::{IngestError, ServeConfig, ServeEventKind, ServerHandle, StreamClient};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Shard counts exercised by the determinism tests: `RBM_SERVE_SHARDS`
/// (comma-separated) when set — CI runs the suite once with `1` and once
/// with `8` — otherwise 1, 4 and 8.
fn shard_counts() -> Vec<usize> {
    match std::env::var("RBM_SERVE_SHARDS") {
        Ok(raw) => {
            raw.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n >= 1).collect()
        }
        Err(_) => vec![1, 4, 8],
    }
}

/// A recorded drifting stream: RBF concept A, then a regenerated concept B
/// (sudden global drift at `drift_at`).
fn record_drifting_stream(
    seed: u64,
    features: usize,
    classes: usize,
    drift_at: usize,
    total: usize,
) -> (StreamSchema, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(features, classes, 2, 0.0, seed);
    let schema = gen.schema().clone();
    let mut instances = gen.take_instances(drift_at);
    gen.regenerate();
    instances.extend(gen.take_instances(total - drift_at));
    (schema, instances)
}

struct Feed {
    id: String,
    schema: StreamSchema,
    instances: Vec<Instance>,
    spec: DetectorSpec,
}

/// A small fleet of drifting feeds with mixed detector specs (trainable
/// RBM-IM variants and classic detectors).
fn fleet() -> Vec<Feed> {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "rbm(mini_batch=25, warmup=4, persistence=1, learning_rate=0.1)",
        "rddm",
        "adwin",
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (schema, instances) = record_drifting_stream(100 + i as u64, 8, 4, 2_500, 4_500);
            Feed {
                id: format!("feed-{i:02}"),
                schema,
                instances,
                spec: DetectorSpec::parse(spec).unwrap(),
            }
        })
        .collect()
}

fn run_config(detector_batch: usize) -> RunConfig {
    RunConfig { metric_window: 500, detector_batch, ..Default::default() }
}

/// Sequential ground truth: `PipelineBuilder` over a replay of the recorded
/// instances, using the exact spec the server builds (after deterministic
/// seed injection).
fn sequential_baseline(server: &ServerHandle, feed: &Feed, run: RunConfig) -> RunResult {
    let spec = server.effective_spec(&feed.id, &feed.spec);
    PipelineBuilder::new()
        .stream(ReplayStream::new(feed.schema.clone(), feed.instances.clone()))
        .stream_label(feed.id.clone())
        .detector_spec(spec)
        .config(run)
        .run()
        .unwrap()
}

fn assert_results_match(context: &str, served: &RunResult, sequential: &RunResult) {
    assert_eq!(served.detections, sequential.detections, "{context}: drift offsets");
    assert_eq!(served.instances, sequential.instances, "{context}: instance count");
    assert_eq!(served.pm_auc, sequential.pm_auc, "{context}: pmAUC");
    assert_eq!(served.pm_gmean, sequential.pm_gmean, "{context}: pmGM");
    assert_eq!(served.accuracy, sequential.accuracy, "{context}: accuracy");
    assert_eq!(served.kappa, sequential.kappa, "{context}: kappa");
    assert_eq!(served.detector, sequential.detector, "{context}: detector label");
}

/// Ingest a micro-batch with bounded-queue backpressure handled by retry.
fn ingest_all(client: &StreamClient, mut batch: Vec<Instance>) {
    loop {
        match client.try_ingest_batch(batch) {
            Ok(()) => return,
            Err(IngestError::Full(rejected)) => {
                batch = rejected;
                std::thread::yield_now();
            }
            Err(IngestError::Closed(_)) => panic!("shard closed during ingest"),
        }
    }
}

/// The acceptance-criteria pin: identical drift offsets and prequential
/// metrics for the same seeded streams at every shard count, matching the
/// sequential pipeline — under round-robin interleaved ingest whose chunk
/// sizes differ per shard count (so the interleaving genuinely varies).
#[test]
fn serving_is_deterministic_across_shard_counts_and_matches_sequential() {
    let feeds = fleet();
    let run = run_config(50);
    let mut per_shard_results: Vec<(usize, HashMap<String, RunResult>)> = Vec::new();

    for (round, &num_shards) in shard_counts().iter().enumerate() {
        let server = ServerHandle::start(ServeConfig {
            num_shards,
            queue_capacity: 64,
            run,
            ..Default::default()
        });
        let events = server.subscribe();
        let clients: Vec<StreamClient> = feeds
            .iter()
            .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
            .collect();

        // Round-robin interleaved ingest; chunk size varies per round so
        // each shard count sees a different interleaving of the same
        // per-stream sequences.
        let chunk = [17usize, 31, 53][round % 3];
        let mut cursors = vec![0usize; feeds.len()];
        loop {
            let mut progressed = false;
            for (i, feed) in feeds.iter().enumerate() {
                let cursor = cursors[i];
                if cursor >= feed.instances.len() {
                    continue;
                }
                let end = (cursor + chunk).min(feed.instances.len());
                ingest_all(&clients[i], feed.instances[cursor..end].to_vec());
                cursors[i] = end;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }

        server.drain();
        let report = server.shutdown();
        assert_eq!(report.streams.len(), feeds.len());
        assert_eq!(report.dropped_unknown, 0);

        // Bus drift events must agree with the per-stream summaries.
        let mut bus_drifts: HashMap<String, Vec<u64>> = HashMap::new();
        for event in events.try_iter() {
            if let ServeEventKind::Drift { position, .. } = event.kind {
                bus_drifts.entry(event.stream.to_string()).or_default().push(position);
            }
        }
        let mut results = HashMap::new();
        for summary in report.streams {
            let from_bus = bus_drifts.remove(&summary.stream).unwrap_or_default();
            assert_eq!(
                from_bus, summary.result.detections,
                "{num_shards} shards, {}: bus events vs summary",
                summary.stream
            );
            results.insert(summary.stream.clone(), summary.result);
        }
        per_shard_results.push((num_shards, results));
    }

    // Every shard count agrees with the sequential pipeline (and therefore
    // with every other shard count).
    let reference_server = ServerHandle::start(ServeConfig::default());
    for feed in &feeds {
        let sequential = sequential_baseline(&reference_server, feed, run);
        assert!(
            !sequential.detections.is_empty(),
            "{}: the injected drift must be detected so the pin is meaningful",
            feed.id
        );
        for (num_shards, results) in &per_shard_results {
            let served = &results[&feed.id];
            assert_results_match(
                &format!("{} @ {num_shards} shards", feed.id),
                served,
                &sequential,
            );
        }
    }
    reference_server.shutdown();
}

/// Satellite: drift-event *offsets* stay exact across micro-batch and shard
/// boundaries — a detector micro-batch (37) deliberately misaligned with
/// RBM-IM's internal mini-batch (25), fed in uneven client chunks, must
/// report the same global instance offsets as the sequential run.
#[test]
fn drift_offsets_exact_across_micro_batch_and_shard_boundaries() {
    let (schema, instances) = record_drifting_stream(7, 8, 4, 2_500, 4_500);
    let spec = DetectorSpec::parse("rbm(mini_batch=25, warmup=4, persistence=1)").unwrap();
    let run = run_config(37);

    for num_shards in [1usize, 3] {
        let server = ServerHandle::start(ServeConfig {
            num_shards,
            queue_capacity: 32,
            run,
            ..Default::default()
        });
        let events = server.subscribe();
        let client = server.attach("offsets", schema.clone(), &spec).unwrap();
        let sequential = sequential_baseline(
            &server,
            &Feed {
                id: "offsets".into(),
                schema: schema.clone(),
                instances: instances.clone(),
                spec: spec.clone(),
            },
            run,
        );

        // Uneven chunk sizes crossing both the 37-instance micro-batch and
        // the 25-instance RBM mini-batch boundaries.
        let pattern = [1usize, 7, 13, 29, 3, 41];
        let mut cursor = 0;
        let mut step = 0;
        while cursor < instances.len() {
            let end = (cursor + pattern[step % pattern.len()]).min(instances.len());
            ingest_all(&client, instances[cursor..end].to_vec());
            cursor = end;
            step += 1;
        }
        // Detach (not shutdown) so the trailing partial micro-batch flush
        // path is exercised through the detach flow too.
        server.drain();
        let result = server.detach("offsets").unwrap();
        assert_results_match(&format!("offsets @ {num_shards} shards"), &result, &sequential);
        assert!(!result.detections.is_empty(), "drift must be detected");

        let drift_positions: Vec<u64> = events
            .try_iter()
            .filter_map(|event| match event.kind {
                ServeEventKind::Drift { position, .. } => Some(position),
                _ => None,
            })
            .collect();
        assert_eq!(drift_positions, sequential.detections, "bus offsets @ {num_shards} shards");
        server.shutdown();
    }
}

/// A detector whose `update` blocks on a gate — used to hold a shard worker
/// mid-step so queue backpressure becomes deterministic.
struct GateDetector {
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Default)]
struct GateState {
    open: bool,
    entered: bool,
}

impl DriftDetector for GateDetector {
    fn update(&mut self, _observation: &Observation<'_>) -> DetectorState {
        let (lock, condvar) = &*self.gate;
        let mut state = lock.lock().unwrap();
        state.entered = true;
        condvar.notify_all();
        while !state.open {
            state = condvar.wait(state).unwrap();
        }
        DetectorState::Stable
    }
    fn state(&self) -> DetectorState {
        DetectorState::Stable
    }
    fn reset(&mut self) {}
    fn name(&self) -> &'static str {
        "Gate"
    }
}

/// Backpressure is explicit: once the shard worker is held mid-step and the
/// bounded queue is full, `try_ingest_batch` fails fast with `Full` and returns
/// the rejected instance; after the gate opens, everything queued is
/// processed.
#[test]
fn try_ingest_reports_backpressure_on_a_full_queue() {
    let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
    let mut registry = DetectorRegistry::with_defaults();
    {
        let gate = Arc::clone(&gate);
        registry.register("gate", &[], move |_, _, _| {
            Ok(Box::new(GateDetector { gate: Arc::clone(&gate) }))
        });
    }
    let capacity = 4;
    let server = ServerHandle::start_with_registry(
        ServeConfig {
            num_shards: 1,
            queue_capacity: capacity,
            run: run_config(1),
            ..Default::default()
        },
        Arc::new(registry),
    );
    let schema = StreamSchema::new("gated", 2, 2);
    let client = server.attach("gated", schema, &DetectorSpec::new("gate")).unwrap();
    let instance = |i: u64| Instance::with_index(vec![0.0, 1.0], 0, i);

    // First instance: wait until the worker is provably holding it inside
    // the detector (so the queue is empty again and counts are exact).
    client.try_ingest_batch(vec![instance(0)]).unwrap();
    {
        let (lock, condvar) = &*gate;
        let mut state = lock.lock().unwrap();
        while !state.entered {
            state = condvar.wait(state).unwrap();
        }
    }

    // Fill the queue exactly, then observe explicit backpressure.
    for i in 0..capacity as u64 {
        client.try_ingest_batch(vec![instance(1 + i)]).unwrap();
    }
    let rejected = match client.try_ingest_batch(vec![instance(99)]) {
        Err(IngestError::Full(rejected)) => rejected,
        other => panic!("expected Full, got {other:?}"),
    };
    assert_eq!(rejected.len(), 1, "the rejected instance rides back to the caller");
    assert_eq!(rejected[0].index, 99);

    // Open the gate; everything queued flows through.
    {
        let (lock, condvar) = &*gate;
        lock.lock().unwrap().open = true;
        condvar.notify_all();
    }
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].result.instances, 1 + capacity as u64);
}

/// Attach/detach lifecycle errors and unknown-id ingest accounting.
#[test]
fn lifecycle_errors_and_unknown_ingest_are_surfaced() {
    let server = ServerHandle::start(ServeConfig { num_shards: 2, ..Default::default() });
    let schema = StreamSchema::new("s", 3, 2);
    let spec = DetectorSpec::new("adwin");

    server.attach("dup", schema.clone(), &spec).unwrap();
    let err = server.attach("dup", schema.clone(), &spec).unwrap_err();
    assert!(matches!(err, rbm_im_serve::ServeError::AlreadyAttached(_)), "{err}");

    let err = server.detach("ghost").unwrap_err();
    assert!(matches!(err, rbm_im_serve::ServeError::UnknownStream(_)), "{err}");

    let err = server.attach("bad-spec", schema.clone(), &DetectorSpec::new("nope")).unwrap_err();
    assert!(matches!(err, rbm_im_serve::ServeError::Registry(_)), "{err}");

    // Ingest for an unattached id is dropped and accounted, never lost
    // silently.
    server.client("ghost").try_ingest_batch(vec![Instance::new(vec![0.0, 0.0, 0.0], 0)]).unwrap();
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.dropped_unknown, 1);
    assert_eq!(report.streams.len(), 1, "only `dup` was still attached");
}

/// Instances that do not fit their stream's schema (a wrong feature count,
/// a class outside `0..num_classes`) are dropped and counted before they
/// reach a stepper, which would otherwise panic and take the shard down
/// with every stream on it. Both streams share the one shard; the bad
/// instances arrive once alone and once inside a micro-batch.
#[test]
fn malformed_instances_are_counted_and_never_reach_a_stepper() {
    let run = run_config(25);
    let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
    // Fleet feeds 0 (`rbm`) and 4 (`rddm`).
    let feeds: Vec<Feed> = fleet().into_iter().step_by(4).collect();
    let clients: Vec<StreamClient> = feeds
        .iter()
        .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
        .collect();

    let bad = &feeds[0];
    let wrong_length = Instance::with_index(vec![0.5; bad.schema.num_features + 1], 0, 10_000);
    let wrong_class =
        Instance::with_index(vec![0.5; bad.schema.num_features], bad.schema.num_classes, 10_001);
    let (head, tail) = bad.instances.split_at(1_000);
    ingest_all(&clients[0], head.to_vec());
    clients[0].ingest_batch(vec![wrong_length]).unwrap();
    let mut batch = tail[..50].to_vec();
    batch.push(wrong_class);
    batch.extend_from_slice(&tail[50..100]);
    ingest_all(&clients[0], batch);
    ingest_all(&clients[0], tail[100..].to_vec());
    ingest_all(&clients[1], feeds[1].instances.clone());
    server.drain();

    let invalid = server.metrics().snapshot().counter_total("rbm_serve_invalid_instances_total");
    assert_eq!(invalid, 2, "both malformed instances are counted");
    let sequential: Vec<RunResult> =
        feeds.iter().map(|feed| sequential_baseline(&server, feed, run)).collect();
    let report = server.shutdown();
    assert_eq!(report.panicked_shards, 0);
    assert_eq!(report.streams.len(), 2, "no stream is lost");
    for (feed, sequential) in feeds.iter().zip(&sequential) {
        let served = &report.streams.iter().find(|s| s.stream == feed.id).unwrap().result;
        assert_results_match(&feed.id, served, sequential);
    }
}

/// The bus carries the full lifecycle: attach notice, periodic metric
/// snapshots at the configured cadence, and the detach notice with the
/// final result.
#[test]
fn event_bus_publishes_lifecycle_and_snapshots() {
    let run = RunConfig {
        metric_window: 100,
        snapshot_every: Some(100),
        detector_batch: 25,
        ..Default::default()
    };
    let server = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
    let events = server.subscribe();
    let mut gen = RandomRbfGenerator::new(4, 2, 1, 0.0, 9);
    let schema = gen.schema().clone();
    let spec = DetectorSpec::parse("rbm(mini_batch=25)").unwrap();
    let client = server.attach("lifecycle", schema, &spec).unwrap();
    ingest_all(&client, gen.take_instances(500));
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.streams[0].result.instances, 500);

    let mut attached = 0;
    let mut snapshots = Vec::new();
    let mut detached = 0;
    for event in events.try_iter() {
        assert_eq!(&*event.stream, "lifecycle");
        assert_eq!(event.shard, server_shard(&event), "events carry the owning shard");
        match event.kind {
            ServeEventKind::Attached => attached += 1,
            ServeEventKind::Snapshot { position, .. } => snapshots.push(position),
            ServeEventKind::Detached { ref result } => {
                detached += 1;
                assert_eq!(result.instances, 500);
            }
            _ => {}
        }
    }
    assert_eq!(attached, 1);
    assert_eq!(detached, 1);
    assert_eq!(snapshots, vec![99, 199, 299, 399, 499], "snapshot every 100 instances");
}

/// Events always report the shard the router assigns to the id.
fn server_shard(event: &rbm_im_serve::ServeEvent) -> usize {
    rbm_im_serve::StreamRouter::new(2).shard_of(&event.stream)
}
