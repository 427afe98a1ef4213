//! Integration suite of the autonomic supervisor (`serve::supervisor`).
//!
//! The load-bearing property is that the control plane is **invisible in
//! the results**: however aggressively the supervisor spills background
//! checkpoints while an operator resizes the fleet, every stream's drift
//! offsets and prequential metrics stay bitwise-identical to a sequential
//! [`PipelineBuilder`] run over the same instances. On top of that the
//! suite pins the durability loop end to end: background checkpoints land
//! on disk in the binary codec while the server is live, and a **cold
//! restart** from whatever the latest spill happens to be resumes each
//! stream bitwise-identically to a run that was never interrupted.

use rbm_im_harness::checkpoint::codec::BINARY_MAGIC;
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_serve::{
    deterministic_spec, CheckpointPolicy, IngestError, ServeConfig, ServeEventKind, ServerHandle,
    SnapshotSink, StreamClient, Supervisor, SupervisorConfig,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod support;
use support::while_resizing;

/// A unique scratch directory for spills.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbm-supervisor-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A recorded drifting stream: RBF concept A, then a regenerated concept B
/// (sudden global drift at `drift_at`).
fn record_drifting_stream(
    seed: u64,
    drift_at: usize,
    total: usize,
) -> (StreamSchema, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(8, 4, 2, 0.0, seed);
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

/// A small fleet mixing trainable RBM-IM variants with a classic detector.
fn fleet(total: usize) -> Vec<Feed> {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
        "rbm(mini_batch=25, warmup=4, persistence=1, learning_rate=0.1)",
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (schema, instances) = record_drifting_stream(300 + i as u64, total / 2, total);
            Feed {
                id: format!("feed-{i:02}"),
                schema,
                instances,
                spec: DetectorSpec::parse(spec).unwrap(),
            }
        })
        .collect()
}

fn run_config() -> RunConfig {
    RunConfig { metric_window: 500, detector_batch: 50, ..Default::default() }
}

/// Sequential ground truth over the same instances, using the effective
/// (seed-injected) spec the server builds.
fn sequential_baseline(feed: &Feed, run: RunConfig, base_seed: u64) -> RunResult {
    let spec = deterministic_spec(DetectorRegistry::global(), base_seed, &feed.id, &feed.spec);
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
}

/// Blocking batched ingest with backpressure retry.
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

/// The acceptance pin: an aggressively supervised run — background spills
/// every few milliseconds and urgent spills on drift, while an operator
/// keeps resizing the fleet under concurrent ingest — produces results
/// bitwise-identical to the sequential pipeline, and binary-codec
/// checkpoints land on disk while serving.
#[test]
fn supervised_run_is_bitwise_deterministic_within_policy_bounds() {
    let feeds = fleet(4_000);
    let run = run_config();
    let dir = scratch("determinism");
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 2,
        queue_capacity: 32,
        run,
        ..Default::default()
    }));
    let events = server.subscribe();
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&dir).unwrap(),
        SupervisorConfig {
            tick: Duration::from_millis(5),
            checkpoint: Some(CheckpointPolicy { every: Duration::from_millis(20), jitter: 0.5 }),
            ..SupervisorConfig::default()
        },
    );

    // Concurrent feeders, one per stream, blasting micro-batches against
    // the small queues so real backlog accumulates while the fleet grows
    // and shrinks; the resizer keeps going through the idle window after
    // the drain too.
    let resizes = while_resizing(&server, || {
        std::thread::scope(|scope| {
            for feed in &feeds {
                let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
                scope.spawn(move || {
                    for chunk in feed.instances.chunks(43) {
                        ingest_all(&client, chunk.to_vec());
                    }
                });
            }
        });
        server.drain();
        std::thread::sleep(Duration::from_millis(150));
    });
    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert!(report.periodic_spills > 0, "background spills must have happened");
    assert!(resizes >= 4, "the resizer must have resized repeatedly, got {resizes}");

    // Binary spills are on disk, one per stream.
    let spills: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().contains(".checkpoint."))
        .collect();
    assert_eq!(spills.len(), feeds.len(), "one live spill per stream: {spills:?}");
    for path in &spills {
        assert!(path.to_string_lossy().ends_with(".checkpoint.bin"), "{path:?}");
        assert!(
            fs::read(path).unwrap().starts_with(&BINARY_MAGIC),
            "{path:?} must carry the magic"
        );
    }

    // The bus saw the spill notices.
    let spill_events = events
        .try_iter()
        .filter(|event| matches!(event.kind, ServeEventKind::CheckpointSpilled { .. }))
        .count();
    assert!(spill_events as u64 >= report.periodic_spills + report.urgent_spills);

    // And none of it changed a single bit of the results.
    let report = Arc::try_unwrap(server).expect("supervisor stopped, last handle").shutdown();
    assert_eq!(report.streams.len(), feeds.len());
    assert_eq!(report.dropped_unknown, 0);
    assert_eq!(report.panicked_shards, 0);
    for summary in &report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert!(!sequential.detections.is_empty(), "{}: baseline must drift", feed.id);
        assert_results_match(&format!("supervised {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// The cold-restart acceptance pin: kill a supervised server mid-stream
/// (no drain, no graceful checkpoint), restart from whatever the latest
/// background spill was, replay each stream's tail from the checkpoint's
/// recorded position — and finish bitwise-identical to a sequential run
/// that was never interrupted.
#[test]
fn cold_restart_from_latest_background_spill_is_bitwise_identical() {
    let feeds = fleet(4_500);
    let run = run_config();
    let dir = scratch("restart");
    let base_seed = ServeConfig::default().base_seed;

    // Phase 1: serve the head with background checkpointing, then kill.
    let head = 2_700usize;
    {
        let server = Arc::new(ServerHandle::start(ServeConfig {
            num_shards: 3,
            queue_capacity: 64,
            run,
            ..Default::default()
        }));
        let supervisor = Supervisor::start(
            Arc::clone(&server),
            SnapshotSink::new(&dir).unwrap(),
            SupervisorConfig {
                tick: Duration::from_millis(4),
                checkpoint: Some(CheckpointPolicy {
                    every: Duration::from_millis(15),
                    jitter: 0.4,
                }),
                ..SupervisorConfig::default()
            },
        );
        let clients: Vec<StreamClient> = feeds
            .iter()
            .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
            .collect();
        for (i, feed) in feeds.iter().enumerate() {
            ingest_all(&clients[i], feed.instances[..head].to_vec());
        }
        server.drain();
        // Give every stream at least one post-drain spill window so the
        // latest checkpoint is guaranteed to exist (its exact position may
        // be anywhere up to `head` — the restart math below doesn't care).
        std::thread::sleep(Duration::from_millis(120));
        // Keep serving past the last spill, then KILL: no drain, no final
        // checkpoint — everything after the last spill must be recoverable
        // from the recorded stream alone.
        for (i, feed) in feeds.iter().enumerate() {
            ingest_all(&clients[i], feed.instances[head..head + 400].to_vec());
        }
        let report = supervisor.stop();
        assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
        assert!(
            report.periodic_spills + report.urgent_spills >= feeds.len() as u64,
            "every stream must have spilled at least once"
        );
        // Abrupt stop: the shutdown report is discarded, like a crash that
        // took the process after the workers flushed their queues.
        let _ = Arc::try_unwrap(server).expect("supervisor stopped, last handle").shutdown();
    }

    // Phase 2: cold restart in a "new process": load the latest spills,
    // restore every stream, replay its tail from the checkpoint's recorded
    // position, and finish the stream.
    let sink = SnapshotSink::new(&dir).unwrap();
    let checkpoints = sink.load_checkpoints().unwrap();
    assert_eq!(checkpoints.len(), feeds.len(), "one spill per stream survives the kill");
    let server = ServerHandle::start(ServeConfig {
        num_shards: 2, // a different fleet size on purpose
        queue_capacity: 64,
        run,
        ..Default::default()
    });
    for checkpoint in &checkpoints {
        let feed = feeds.iter().find(|f| f.id == checkpoint.stream).unwrap();
        let position = checkpoint.checkpoint.processed().unwrap() as usize;
        assert!(
            position > 0 && position <= head + 400,
            "{}: spill position {position} out of range",
            feed.id
        );
        let client = server.restore_stream(checkpoint).unwrap();
        ingest_all(&client, feed.instances[position..].to_vec());
    }
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.streams.len(), feeds.len());
    for summary in &report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, base_seed);
        assert!(!sequential.detections.is_empty(), "{}: baseline must drift", feed.id);
        assert_results_match(&format!("cold restart {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// Drift-urgent spills fire, detached streams leave the schedule without
/// errors, and bus subscribers see the urgent spill notices after the
/// drift they were triggered by.
#[test]
fn urgent_spills_and_detach_lifecycle() {
    let feeds = fleet(4_000);
    let feed = &feeds[0]; // the RBM feed — its baseline detects drift
    let run = run_config();
    let dir = scratch("urgent");
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 2,
        queue_capacity: 64,
        run,
        ..Default::default()
    }));
    let events = server.subscribe();
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&dir).unwrap(),
        SupervisorConfig {
            tick: Duration::from_millis(4),
            // Long interval: any spill soon after the drift is urgent-path.
            checkpoint: Some(CheckpointPolicy { every: Duration::from_secs(3_600), jitter: 0.0 }),
            ..SupervisorConfig::default()
        },
    );

    let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
    let idle = server.attach("idle-stream", feeds[1].schema.clone(), &feeds[1].spec).unwrap();
    ingest_all(&idle, feeds[1].instances[..200].to_vec());
    for chunk in feed.instances.chunks(100) {
        ingest_all(&client, chunk.to_vec());
    }
    server.drain();
    // Detach mid-life: the supervisor must shed it from the schedule
    // silently.
    let detached = server.detach("idle-stream").unwrap();
    assert_eq!(detached.instances, 200);
    std::thread::sleep(Duration::from_millis(60));

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert!(report.urgent_spills > 0, "drift must have forced an urgent spill");

    let mut drift_seen = false;
    let mut urgent_after_drift = false;
    for event in events.try_iter() {
        match event.kind {
            ServeEventKind::Drift { .. } if event.stream.as_ref() == feed.id => drift_seen = true,
            ServeEventKind::CheckpointSpilled { urgent: true, position } => {
                assert!(drift_seen, "urgent spill must follow a drift");
                assert!(position > 0);
                urgent_after_drift = true;
            }
            _ => {}
        }
    }
    assert!(urgent_after_drift, "bus must carry the urgent spill notice");

    let _ = Arc::try_unwrap(server).expect("supervisor stopped, last handle").shutdown();
    let _ = fs::remove_dir_all(dir);
}

/// Edge case: resizes landing in the middle of the spill schedule — an
/// operator toggles the fleet size every few milliseconds while every
/// supervisor tick spills every stream (`every: ZERO`). Migration-adjacent
/// checkpoints must neither error nor change a bit of the results.
#[test]
fn resize_decisions_mid_spill_round_stay_bitwise_and_error_free() {
    let feeds = fleet(2_500);
    let run = run_config();
    let dir = scratch("resize-mid-spill");
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 2,
        queue_capacity: 64,
        run,
        ..Default::default()
    }));
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&dir).unwrap(),
        SupervisorConfig {
            tick: Duration::from_millis(2),
            // Everything is due every tick: each spill round runs fresh on
            // the heels of the latest resize.
            checkpoint: Some(CheckpointPolicy { every: Duration::ZERO, jitter: 0.0 }),
            ..SupervisorConfig::default()
        },
    );

    let resizes = while_resizing(&server, || {
        std::thread::scope(|scope| {
            for feed in &feeds {
                let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
                scope.spawn(move || {
                    for chunk in feed.instances.chunks(37) {
                        ingest_all(&client, chunk.to_vec());
                    }
                });
            }
        });
        server.drain();
        // Post-drain window: the resizer keeps toggling the idle fleet
        // while full spill rounds keep running between migrations.
        std::thread::sleep(Duration::from_millis(800));
    });

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert!(resizes >= 4, "the resizer must have resized repeatedly, got {resizes}");
    assert!(report.periodic_spills > 0, "spill rounds must have run between migrations");

    let final_report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(final_report.panicked_shards, 0);
    assert_eq!(final_report.streams.len(), feeds.len());
    for summary in &final_report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(
            &format!("resize-mid-spill {}", feed.id),
            &summary.result,
            &sequential,
        );
    }
    let _ = fs::remove_dir_all(dir);
}

/// Edge case: a stream that drifts *and* detaches inside the same tick
/// window. The event fold sees `Attached`, `Drift` (urgent mark) and
/// `Detached` together, so the schedule entry dies before the spill round
/// — no panic, no spill attempt, no checkpoint file, no `.tmp` orphan.
#[test]
fn urgent_spill_for_stream_detached_same_tick_leaves_no_orphan() {
    let (schema, instances) = record_drifting_stream(77, 700, 1_400);
    let dir = scratch("detach-same-tick");
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 2,
        run: run_config(),
        ..Default::default()
    }));
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&dir).unwrap(),
        SupervisorConfig {
            // A long tick: the whole attach→drift→detach lifecycle below
            // completes inside the first window, so one fold sees it all.
            tick: Duration::from_millis(400),
            checkpoint: Some(CheckpointPolicy { every: Duration::from_secs(3_600), jitter: 0.0 }),
            ..SupervisorConfig::default()
        },
    );

    // ADWIN: cheap, reliably fires on the recorded concept change.
    let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
    let client = server.attach("ephemeral", schema, &spec).unwrap();
    ingest_all(&client, instances);
    server.drain();
    let result = server.detach("ephemeral").unwrap();
    assert!(!result.detections.is_empty(), "the drift must actually have fired");

    // Let a few ticks run so the fold + spill round provably execute.
    std::thread::sleep(Duration::from_millis(900));
    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert_eq!(report.urgent_spills, 0, "the detach must have cancelled the urgent spill");

    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        leftovers.is_empty(),
        "no spill file or temp orphan may exist for the detached stream: {leftovers:?}"
    );

    let final_report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(final_report.panicked_shards, 0);
    let _ = fs::remove_dir_all(dir);
}

/// Edge case, stressed: rapid attach→ingest→detach churn under a 1 ms
/// tick with everything due every tick. Spill attempts constantly race
/// stream detaches (the `UnknownStream` skip path); none of it may panic,
/// error, or leave a `.tmp` orphan in the sink directory.
#[test]
fn attach_detach_churn_under_eager_spills_leaves_no_tmp_orphans() {
    let (schema, instances) = record_drifting_stream(78, 100, 200);
    let dir = scratch("churn");
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 2,
        run: run_config(),
        ..Default::default()
    }));
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&dir).unwrap(),
        SupervisorConfig {
            tick: Duration::from_millis(1),
            checkpoint: Some(CheckpointPolicy { every: Duration::ZERO, jitter: 0.0 }),
            ..SupervisorConfig::default()
        },
    );

    let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
    for round in 0..60 {
        let id = format!("eph-{round:02}");
        let client = server.attach(&id, schema.clone(), &spec).unwrap();
        ingest_all(&client, instances.clone());
        let result = server.detach(&id).unwrap();
        assert_eq!(result.instances, instances.len() as u64);
    }

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);

    let tmp_orphans: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(tmp_orphans.is_empty(), "aborted spills must not strand temp files: {tmp_orphans:?}");

    let final_report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(final_report.panicked_shards, 0);
    assert_eq!(final_report.dropped_unknown, 0);
    let _ = fs::remove_dir_all(dir);
}
