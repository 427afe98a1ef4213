//! Elastic resharding + checkpoint persistence integration suite.
//!
//! The load-bearing property mirrors the serving suite's: a mid-run
//! `resize_shards` (8→4 and 4→8, with feeders pumping **throughout** the
//! resize) must lose no instances, reorder nothing, and produce drift
//! offsets and prequential metrics bitwise-identical to a sequential
//! [`PipelineBuilder`] run — while moving only the streams whose
//! consistent-hash ring ownership changed. On top of that, the
//! checkpoint-to-disk flow (`checkpoint_all` → [`SnapshotSink`] →
//! `restore_stream` in a fresh server) must resume mid-stream with the
//! same bitwise guarantee.

use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_serve::{
    IngestError, ServeConfig, ServeEventKind, ServerHandle, SnapshotSink, StreamClient,
    StreamRouter,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::collections::{HashMap, HashSet};

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

/// Twelve drifting feeds mixing trainable RBM-IM detectors with classic
/// ones — enough ids that a resize between 8 and 4 shards moves several.
fn fleet() -> Vec<Feed> {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "rddm",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
        "wstd",
        "rbm(mini_batch=25, warmup=4, persistence=1, learning_rate=0.1)",
    ];
    (0..12)
        .map(|i| {
            let (schema, instances) = record_drifting_stream(300 + i as u64, 8, 4, 1_500, 2_600);
            Feed {
                id: format!("elastic-{i:02}"),
                schema,
                instances,
                spec: DetectorSpec::parse(specs[i % specs.len()]).unwrap(),
            }
        })
        .collect()
}

fn run_config() -> RunConfig {
    RunConfig { metric_window: 500, detector_batch: 25, ..Default::default() }
}

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
}

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

/// The acceptance-criteria pin: resize 8→4 and 4→8 **mid-stream, under
/// concurrent ingest**; no instance lost or reordered, results equal the
/// sequential pipeline bitwise, and only ring-reassigned streams moved.
#[test]
fn mid_run_resize_is_lossless_and_bitwise_deterministic() {
    for (from_shards, to_shards) in [(8usize, 4usize), (4, 8)] {
        let feeds = fleet();
        let run = run_config();
        let server = ServerHandle::start(ServeConfig {
            num_shards: from_shards,
            queue_capacity: 64,
            run,
            ..Default::default()
        });
        let events = server.subscribe();
        let clients: Vec<StreamClient> = feeds
            .iter()
            .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
            .collect();

        // First ~40% of every feed before the resize.
        let cut = |feed: &Feed| feed.instances.len() * 2 / 5;
        for (feed, client) in feeds.iter().zip(&clients) {
            ingest_all(client, feed.instances[..cut(feed)].to_vec());
        }

        // Feeders pump the remainder concurrently with the resize, through
        // the same clients (which re-resolve routing per send).
        let report = std::thread::scope(|scope| {
            for (feed, client) in feeds.iter().zip(&clients) {
                scope.spawn(move || {
                    for chunk in feed.instances[cut(feed)..].chunks(23) {
                        ingest_all(client, chunk.to_vec());
                    }
                });
            }
            server.resize_shards(to_shards).unwrap()
        });

        // Exactly the ring-reassigned streams moved — no more, no fewer.
        assert_eq!(report.old_shards, from_shards);
        assert_eq!(report.new_shards, to_shards);
        let before = StreamRouter::new(from_shards);
        let after = StreamRouter::new(to_shards);
        let expected_movers: HashSet<String> = feeds
            .iter()
            .filter(|f| before.shard_of(&f.id) != after.shard_of(&f.id))
            .map(|f| f.id.clone())
            .collect();
        let reported_movers: HashSet<String> =
            report.moved.iter().map(|m| m.stream.clone()).collect();
        assert_eq!(reported_movers, expected_movers, "{from_shards}→{to_shards}");
        assert!(
            !expected_movers.is_empty(),
            "{from_shards}→{to_shards}: the fixture must actually exercise migration"
        );
        assert!(
            expected_movers.len() < feeds.len(),
            "{from_shards}→{to_shards}: some streams must stay put (consistent hashing)"
        );
        for migrated in &report.moved {
            assert_eq!(migrated.from, before.shard_of(&migrated.stream));
            assert_eq!(migrated.to, after.shard_of(&migrated.stream));
        }
        assert_eq!(server.num_shards(), to_shards);

        server.drain();
        let serve_report = server.shutdown();
        assert_eq!(serve_report.streams.len(), feeds.len());
        assert_eq!(
            serve_report.dropped_unknown, 0,
            "{from_shards}→{to_shards}: a resize must not drop instances"
        );

        // Every moved stream announced its migration on the bus.
        let mut migrated_events: HashSet<String> = HashSet::new();
        for event in events.try_iter() {
            if let ServeEventKind::Migrated { from_shard } = event.kind {
                assert_eq!(from_shard, before.shard_of(&event.stream));
                migrated_events.insert(event.stream.to_string());
            }
        }
        assert_eq!(migrated_events, expected_movers);

        // Bitwise determinism against the sequential pipeline, resize and
        // all.
        let results: HashMap<String, RunResult> =
            serve_report.streams.into_iter().map(|s| (s.stream.clone(), s.result)).collect();
        let reference = ServerHandle::start(ServeConfig::default());
        let mut drifting = 0;
        for feed in &feeds {
            let sequential = sequential_baseline(&reference, feed, run);
            drifting += usize::from(!sequential.detections.is_empty());
            assert_results_match(
                &format!("{} across {from_shards}→{to_shards}", feed.id),
                &results[&feed.id],
                &sequential,
            );
        }
        assert!(drifting >= feeds.len() / 2, "most feeds must detect their injected drift");
        reference.shutdown();
    }
}

/// Back-to-back resizes (grow then shrink to the starting count) keep the
/// pipeline bitwise-deterministic; streams that bounced shards twice lose
/// nothing.
#[test]
fn repeated_resizes_keep_determinism() {
    let feeds: Vec<Feed> = fleet().into_iter().take(6).collect();
    let run = run_config();
    let server = ServerHandle::start(ServeConfig {
        num_shards: 2,
        queue_capacity: 64,
        run,
        ..Default::default()
    });
    let clients: Vec<StreamClient> = feeds
        .iter()
        .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
        .collect();

    let thirds = |feed: &Feed, k: usize| {
        let len = feed.instances.len();
        feed.instances[len * k / 3..len * (k + 1) / 3].to_vec()
    };
    for (feed, client) in feeds.iter().zip(&clients) {
        ingest_all(client, thirds(feed, 0));
    }
    server.resize_shards(5).unwrap();
    for (feed, client) in feeds.iter().zip(&clients) {
        ingest_all(client, thirds(feed, 1));
    }
    server.resize_shards(2).unwrap();
    for (feed, client) in feeds.iter().zip(&clients) {
        ingest_all(client, thirds(feed, 2));
    }
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.dropped_unknown, 0);

    let results: HashMap<String, RunResult> =
        report.streams.into_iter().map(|s| (s.stream.clone(), s.result)).collect();
    let reference = ServerHandle::start(ServeConfig::default());
    for feed in &feeds {
        let sequential = sequential_baseline(&reference, feed, run);
        assert_results_match(&format!("{} across 2→5→2", feed.id), &results[&feed.id], &sequential);
    }
    reference.shutdown();
}

/// Restart-from-disk: drain + `checkpoint_all` + spill through a
/// [`SnapshotSink`], shut the server down, start a fresh one, restore every
/// stream from the sink, feed the remaining instances — final results are
/// bitwise-identical to never having restarted.
#[test]
fn checkpoint_spill_and_restore_resumes_bitwise() {
    let feeds: Vec<Feed> = fleet().into_iter().take(5).collect();
    let run = run_config();
    let dir = std::env::temp_dir().join(format!("rbm-serve-sink-{}", std::process::id()));
    let sink = SnapshotSink::new(&dir).unwrap();

    // Phase 1: serve the head of every feed, checkpoint, spill, shut down.
    let server = ServerHandle::start(ServeConfig {
        num_shards: 4,
        queue_capacity: 64,
        run,
        ..Default::default()
    });
    let mut cuts = HashMap::new();
    for feed in &feeds {
        let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
        // Awkward per-feed cuts, misaligned with every batch boundary.
        let cut = feed.instances.len() / 2 + 13 * (feed.id.len() % 3);
        ingest_all(&client, feed.instances[..cut].to_vec());
        cuts.insert(feed.id.clone(), cut);
    }
    server.drain();
    let checkpoints = server.checkpoint_all().unwrap();
    assert_eq!(checkpoints.len(), feeds.len());
    let paths = sink.spill_all(&checkpoints).unwrap();
    assert_eq!(paths.len(), feeds.len());
    server.shutdown();

    // Phase 2: a fresh server — different shard count, same determinism —
    // restores every stream from disk and serves the tails.
    let restored = SnapshotSink::new(&dir).unwrap().load_checkpoints().unwrap();
    assert_eq!(restored, checkpoints, "disk round-trip must be lossless");
    let server = ServerHandle::start(ServeConfig {
        num_shards: 3,
        queue_capacity: 64,
        run,
        ..Default::default()
    });
    for checkpoint in &restored {
        let client = server.restore_stream(checkpoint).unwrap();
        let feed = feeds.iter().find(|f| f.id == checkpoint.stream).unwrap();
        ingest_all(&client, feed.instances[cuts[&feed.id]..].to_vec());
    }
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.dropped_unknown, 0);

    let results: HashMap<String, RunResult> =
        report.streams.into_iter().map(|s| (s.stream.clone(), s.result)).collect();
    let reference = ServerHandle::start(ServeConfig::default());
    let mut drifting = 0;
    for feed in &feeds {
        let sequential = sequential_baseline(&reference, feed, run);
        drifting += usize::from(!sequential.detections.is_empty());
        assert_results_match(
            &format!("{} across restart", feed.id),
            &results[&feed.id],
            &sequential,
        );
    }
    assert!(drifting >= feeds.len() / 2, "most feeds must detect their injected drift");
    reference.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
