//! Integration suite of the tiered stream state plane (`ARCHITECTURE.md`
//! §9): manual [`ServerHandle::hibernate_stream`], supervisor-driven
//! [`TierPolicy`] eviction, and the interleavings the tier machinery must
//! survive — hibernation racing live resizes, urgent spills landing the
//! same tick as an eviction, detach of a cold stream.
//!
//! The load-bearing property mirrors the supervisor suite: tiering is
//! **invisible in the results**. However often a stream bounces between
//! hot and cold, its drift offsets and prequential metrics stay
//! bitwise-identical to an always-hot fleet and to a sequential
//! [`PipelineBuilder`] run. (`RBM_CHAOS=1` additionally forces every
//! existing serving/resharding/supervisor test through the thrash path in
//! CI.)

use proptest::prelude::*;
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_obs::{MetricId, MetricsSnapshot};
use rbm_im_serve::{
    deterministic_spec, CheckpointPolicy, HibernateOutcome, IngestError, ServeConfig, ServeError,
    ServeEventKind, ServerHandle, SnapshotSink, StreamClient, Supervisor, SupervisorConfig,
    SupervisorHandle, TierKind, TierPolicy,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod support;
use support::while_resizing;

/// A unique scratch directory for spills.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbm-hibernate-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A recorded drifting stream: RBF concept A, then a regenerated concept B.
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

/// A fleet mixing trainable RBM-IM variants with a classic detector.
fn fleet(count: usize, total: usize) -> Vec<Feed> {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
    ];
    (0..count)
        .map(|i| {
            let (schema, instances) = record_drifting_stream(900 + i as u64, total / 2, total);
            Feed {
                id: format!("feed-{i:02}"),
                schema,
                instances,
                spec: DetectorSpec::parse(specs[i % specs.len()]).unwrap(),
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

/// This suite drives tier transitions *explicitly* and pins their exact
/// outcomes — under the `RBM_CHAOS` environment fault plane (whose
/// hibernate storms evict streams behind the suite's back; at rate 1
/// every stream is already cold at every assertion point) those pins are
/// meaningless. The env plane exists to thrash the serving/resharding/
/// supervisor suites; skip here.
fn skip_under_forced_hibernation() -> bool {
    let forced = rbm_im_serve::chaos::env_plane().is_some();
    if forced {
        eprintln!("skipping: the RBM_CHAOS fault plane pre-empts explicit tier transitions");
    }
    forced
}

/// Looks up one labeled gauge in a metrics snapshot.
fn gauge(snapshot: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
    let id = MetricId::new(name, labels);
    snapshot.gauges.iter().find(|(i, _)| *i == id).map(|(_, v)| *v)
}

/// Looks up one labeled counter in a metrics snapshot.
fn counter(snapshot: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
    let id = MetricId::new(name, labels);
    snapshot.counters.iter().find(|(i, _)| *i == id).map(|(_, v)| *v)
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

/// The manual tier API end to end: a dirty eviction (no background spill
/// to reuse) parks the stream as in-memory checkpoint bytes, tier
/// accounting (scan, health, gauges) tracks it, checkpointing a cold
/// stream decodes the parked bytes **without** rehydrating, re-hibernation
/// is an idempotent `AlreadyCold`, and detaching a cold stream rehydrates
/// once and returns the bitwise-correct final `RunResult`.
#[test]
fn manual_hibernate_cold_checkpoint_and_detach_lifecycle() {
    if skip_under_forced_hibernation() {
        return;
    }
    let feeds = fleet(2, 600);
    let run = run_config();
    let server = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
    let events = server.subscribe();
    for feed in &feeds {
        let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
        ingest_all(&client, feed.instances.clone());
    }
    server.drain();

    // Unknown ids fail loudly, like every other control operation.
    assert!(matches!(
        server.hibernate_stream("nope"),
        Err(ServeError::UnknownStream(id)) if id == "nope"
    ));

    // Dirty eviction: no spill offered, so the shard encodes on demand.
    let cold_id = &feeds[0].id;
    match server.hibernate_stream(cold_id).unwrap() {
        HibernateOutcome::Hibernated { position, clean } => {
            assert_eq!(position, 600);
            assert!(!clean, "no background spill exists, the eviction must encode");
        }
        other => panic!("expected Hibernated, got {other:?}"),
    }

    // Tier accounting: scan rows, health counts, and the fleet gauges all
    // agree (`rbm_serve_streams{tier=…}` is satellite telemetry).
    let scan = server.tier_scan();
    assert_eq!(scan.len(), 2, "every attached stream has a tier row");
    let cold_row = scan.iter().find(|e| e.id.as_ref() == cold_id).unwrap();
    assert_eq!(cold_row.tier, TierKind::ColdMemory);
    assert_eq!(cold_row.position, 600);
    assert!(cold_row.resident_bytes > 0, "in-memory checkpoint bytes are accounted");
    let hot_row = scan.iter().find(|e| e.id.as_ref() == feeds[1].id).unwrap();
    assert_eq!(hot_row.tier, TierKind::Hot);
    let health = server.health();
    assert_eq!((health.streams, health.hot_streams, health.cold_streams), (2, 1, 1));
    let snapshot = server.metrics().snapshot();
    assert_eq!(gauge(&snapshot, "rbm_serve_streams", &[("tier", "hot")]), Some(1));
    assert_eq!(gauge(&snapshot, "rbm_serve_streams", &[("tier", "cold")]), Some(1));
    assert!(gauge(&snapshot, "rbm_serve_cold_resident_bytes", &[]).unwrap_or(0) > 0);

    // A cold stream still answers checkpoint requests — from the parked
    // bytes, without waking up.
    let checkpoint = server.checkpoint_stream(cold_id).unwrap();
    assert_eq!(checkpoint.stream, *cold_id);
    assert_eq!(checkpoint.checkpoint.processed().unwrap(), 600);
    let still = server.tier_scan();
    let row = still.iter().find(|e| e.id.as_ref() == cold_id).unwrap();
    assert_eq!(row.tier, TierKind::ColdMemory, "checkpointing must not rehydrate");

    // Idempotent: hibernating a cold stream changes nothing.
    assert_eq!(
        server.hibernate_stream(cold_id).unwrap(),
        HibernateOutcome::AlreadyCold { position: 600 }
    );

    // Detach rehydrates once, transparently, and the result is bitwise.
    let result = server.detach(cold_id).unwrap();
    let sequential = sequential_baseline(&feeds[0], run, ServeConfig::default().base_seed);
    assert_results_match("detach of cold stream", &result, &sequential);
    assert!(server.health().rehydrate_p99_seconds > 0.0, "the rehydrate latency was recorded");

    let mut hibernated = 0usize;
    let mut rehydrated = 0usize;
    for event in events.try_iter() {
        match event.kind {
            ServeEventKind::Hibernated { position, clean } => {
                assert_eq!(
                    (position, clean, event.stream.as_ref()),
                    (600, false, cold_id.as_str())
                );
                hibernated += 1;
            }
            ServeEventKind::Rehydrated { position } => {
                assert_eq!((position, event.stream.as_ref()), (600, cold_id.as_str()));
                rehydrated += 1;
            }
            _ => {}
        }
    }
    assert_eq!((hibernated, rehydrated), (1, 1), "one eviction, one wake-up, on the bus");

    let report = server.shutdown();
    assert_eq!(report.streams.len(), 1, "only the never-hibernated stream remains");
    assert_results_match(
        "always-hot sibling",
        &report.streams[0].result,
        &sequential_baseline(&feeds[1], run, ServeConfig::default().base_seed),
    );
}

/// Transparent rehydrate-on-ingest, thrashed: the stream is evicted after
/// every chunk and woken by the next one, many times across its life —
/// and the final result is still bitwise-identical to a sequential run
/// that never hibernated.
#[test]
fn rehydrate_on_ingest_thrash_is_bitwise_identical() {
    if skip_under_forced_hibernation() {
        return;
    }
    let feeds = fleet(1, 2_000);
    let feed = &feeds[0];
    let run = run_config();
    let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
    let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();

    let mut evictions = 0u64;
    for chunk in feed.instances.chunks(250) {
        ingest_all(&client, chunk.to_vec());
        server.drain();
        if matches!(server.hibernate_stream(&feed.id).unwrap(), HibernateOutcome::Hibernated { .. })
        {
            evictions += 1;
        }
    }
    assert_eq!(evictions, 8, "every chunk boundary evicted the stream");

    let snapshot = server.metrics().snapshot();
    assert_eq!(counter(&snapshot, "rbm_serve_hibernations_total", &[("kind", "dirty")]), Some(8));
    assert_eq!(
        counter(&snapshot, "rbm_serve_rehydrations_total", &[("trigger", "ingest")]),
        Some(7),
        "every chunk after the first woke the stream"
    );
    assert!(
        snapshot.merged_histogram("rbm_serve_rehydrate_seconds").count() >= 7,
        "rehydrate latency is always recorded"
    );

    let report = server.shutdown();
    assert_eq!(report.streams.len(), 1);
    let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
    assert!(!sequential.detections.is_empty(), "the baseline must drift");
    assert_results_match("hibernate thrash", &report.streams[0].result, &sequential);
}

/// Starts a 2-shard server and a supervisor whose tick never comes, so
/// the only tier transitions are the shards' own admissions under
/// `max_hot_streams = cap`. No fault plane: a hibernate storm can empty a
/// shard of hot streams, and that shard then admits over the cap (the
/// path `a_shard_without_hot_streams_admits_over_the_cap_until_the_next_admission`
/// pins).
fn capped_server(cap: usize, dir: &std::path::Path) -> (Arc<ServerHandle>, SupervisorHandle) {
    let server = Arc::new(ServerHandle::start_with_faults(
        ServeConfig { num_shards: 2, queue_capacity: 64, run: run_config(), ..Default::default() },
        Arc::new(DetectorRegistry::with_defaults()),
        None,
    ));
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(dir).unwrap(),
        SupervisorConfig {
            tick: Duration::from_secs(3600),
            checkpoint: None,
            tier: Some(TierPolicy::default().with_max_hot_streams(cap)),
            ..SupervisorConfig::default()
        },
    );
    (server, supervisor)
}

/// Hot streams on each of the two shards, by tier scan.
fn hot_per_shard(server: &ServerHandle) -> [usize; 2] {
    let mut hot = [0; 2];
    for entry in server.tier_scan().iter().filter(|e| e.tier == TierKind::Hot) {
        hot[server.shard_of(&entry.id)] += 1;
    }
    hot
}

/// The hot-tier cap holds at every instant, not only after a supervisor
/// tick: 6 streams on 2 shards under `max_hot_streams = 2`, with a
/// supervisor whose tick never comes (so no tier pass ever runs), and one
/// ingest thread per stream. Every tier scan and every read of the hot
/// gauge taken while they ingest shows at most 2 hot streams, because a
/// shard admits a stream only into a free slot it reserved or into the
/// slot of its own least-recently-active stream, which it evicts — and
/// every result is bitwise-identical to its sequential replay.
#[test]
fn shards_hold_the_hot_cap_during_concurrent_ingest_bitwise() {
    if skip_under_forced_hibernation() {
        return;
    }
    const MAX_HOT: usize = 2;
    let feeds = fleet(6, 2_000);
    let run = run_config();
    let dir = scratch("strict-cap");
    let (server, supervisor) = capped_server(MAX_HOT, &dir);
    let hot_gauge = server.metrics().gauge("rbm_serve_streams", &[("tier", "hot")]);
    let clients: Vec<StreamClient> = feeds
        .iter()
        .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
        .collect();

    let ingesting = AtomicUsize::new(feeds.len());
    let (mut peak_scan, mut peak_gauge, mut reads) = (0usize, 0i64, 0usize);
    std::thread::scope(|scope| {
        for (feed, client) in feeds.iter().zip(&clients) {
            let ingesting = &ingesting;
            scope.spawn(move || {
                for chunk in feed.instances.chunks(50) {
                    ingest_all(client, chunk.to_vec());
                }
                ingesting.fetch_sub(1, Ordering::Relaxed);
            });
        }
        while ingesting.load(Ordering::Relaxed) > 0 {
            let hot = server.tier_scan().iter().filter(|e| e.tier == TierKind::Hot).count();
            peak_scan = peak_scan.max(hot);
            peak_gauge = peak_gauge.max(hot_gauge.get());
            reads += 1;
        }
    });
    assert!(reads > 0, "the scans must overlap the ingest");
    assert!(peak_scan <= MAX_HOT, "a tier scan saw {peak_scan} hot streams, cap {MAX_HOT}");
    assert!(peak_gauge <= MAX_HOT as i64, "the hot gauge read {peak_gauge}, cap {MAX_HOT}");
    server.drain();
    let hot = server.tier_scan().iter().filter(|e| e.tier == TierKind::Hot).count();
    assert!(hot <= MAX_HOT, "{hot} hot streams after the drain, cap {MAX_HOT}");

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    drop(clients);
    let final_report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(final_report.streams.len(), feeds.len());
    assert_eq!(final_report.panicked_shards, 0);
    for summary in &final_report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(&format!("strict cap {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// `count` feeds of `spec`, their ids picked so the feeds alternate
/// between the two shards of `server`, starting with shard 0.
fn feeds_alternating(server: &ServerHandle, count: usize, spec: &str, total: usize) -> Vec<Feed> {
    let mut ids = (0..).map(|i| format!("cap-{i:03}"));
    (0..count)
        .map(|i| {
            let id = ids.find(|id| server.shard_of(id) == i % 2).unwrap();
            let (schema, instances) = record_drifting_stream(700 + i as u64, total / 2, total);
            Feed { id, schema, instances, spec: DetectorSpec::parse(spec).unwrap() }
        })
        .collect()
}

/// The over-cap path (`ARCHITECTURE.md` §9): under `max_hot_streams = 2`,
/// a shard that owns no hot stream admits over the cap while the other
/// shard holds both slots, and the next admission on that other shard
/// evicts the fleet back down to the cap.
#[test]
fn a_shard_without_hot_streams_admits_over_the_cap_until_the_next_admission() {
    if skip_under_forced_hibernation() {
        return;
    }
    let dir = scratch("over-cap");
    let (server, supervisor) = capped_server(2, &dir);
    let hot_gauge = server.metrics().gauge("rbm_serve_streams", &[("tier", "hot")]);
    // Shards 0, 1, 0, 1, 0 in order.
    let feeds = feeds_alternating(&server, 5, "adwin(delta=0.01)", 100);
    for (feed, hot) in [(0, [1, 0]), (2, [2, 0]), (1, [2, 1]), (4, [1, 1]), (3, [1, 1])] {
        server.attach(&feeds[feed].id, feeds[feed].schema.clone(), &feeds[feed].spec).unwrap();
        assert_eq!(hot_per_shard(&server), hot, "hot streams per shard after attaching {feed}");
        assert_eq!(hot_gauge.get(), (hot[0] + hot[1]) as i64, "the gauge agrees with the scan");
    }
    assert!(supervisor.stop().errors.is_empty());
    let report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(report.streams.len(), 5);
    let _ = fs::remove_dir_all(dir);
}

/// A looped race on the slot hand-over: 2 shards own 2 streams each under
/// `max_hot_streams = 2`. One feeder per shard alternates single-instance
/// messages between its two streams, so once each shard holds one hot
/// stream, every message is an admission that evicts the shard's other
/// stream, on both shards at once. A shard that gave its victim's slot
/// back to the fleet before taking one for the new stream could lose it
/// to the other shard, find nothing left to evict and stay over the cap.
/// Each shard ends every round with exactly one hot stream, and every
/// result is bitwise-identical to its sequential replay.
#[test]
fn hot_slots_change_hands_without_a_gap_under_admission_races() {
    if skip_under_forced_hibernation() {
        return;
    }
    let run = run_config();
    let dir = scratch("slot-race");
    for round in 0..10 {
        let (server, supervisor) = capped_server(2, &dir);
        let spec = "rbm(mini_batch=25, warmup=4, persistence=1)";
        let feeds = feeds_alternating(&server, 4, spec, 400);
        let clients: Vec<StreamClient> = feeds
            .iter()
            .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for shard in 0..2 {
                // Feeds `shard` and `shard + 2` live on this shard.
                let (feeds, clients) = (&feeds, &clients);
                scope.spawn(move || {
                    for i in 0..feeds[shard].instances.len() {
                        for f in [shard, shard + 2] {
                            ingest_all(&clients[f], vec![feeds[f].instances[i].clone()]);
                        }
                    }
                });
            }
        });
        server.drain();
        assert_eq!(hot_per_shard(&server), [1, 1], "round {round}: hot streams per shard");
        assert!(supervisor.stop().errors.is_empty());
        drop(clients);
        let report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
        assert_eq!(report.streams.len(), feeds.len());
        for summary in &report.streams {
            let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
            let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
            let context = format!("slot race {round} {}", feed.id);
            assert_results_match(&context, &summary.result, &sequential);
        }
    }
    let _ = fs::remove_dir_all(dir);
}

/// A supervisor's capped tier policy bounds the hot tier from the first
/// attach: under `max_hot_streams = 2` the shards keep a 6-stream fleet
/// at most 2 hot while it ingests, their cap evictions are dirty, and the
/// supervisor's cold-memory pass demotes those bytes — and a manually
/// pre-cooled stream's — to disk. The whole fleet finishes bitwise after
/// the cold tail rehydrates on its next ingest.
#[test]
fn supervisor_budget_policy_bounds_the_hot_tier_bitwise() {
    if skip_under_forced_hibernation() {
        return;
    }
    const MAX_HOT: usize = 2;
    let feeds = fleet(6, 2_000);
    let run = run_config();
    let dir = scratch("budget");
    let head = 1_200usize;
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
            tick: Duration::from_millis(5),
            checkpoint: Some(CheckpointPolicy { every: Duration::from_millis(40), jitter: 0.5 }),
            tier: Some(TierPolicy::default().with_max_hot_streams(MAX_HOT)),
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
    let scan = server.tier_scan();
    let hot: Vec<_> = scan.iter().filter(|e| e.tier == TierKind::Hot).collect();
    assert!(hot.len() <= MAX_HOT, "hot tier over the cap: {} > {MAX_HOT}", hot.len());
    // Cool one of the hot streams by hand: its in-memory bytes reach disk
    // only through the tier pass's demotion.
    assert!(matches!(
        server.hibernate_stream(&hot[0].id).unwrap(),
        HibernateOutcome::Hibernated { clean: false, .. }
    ));
    // Let the tier pass demote every in-memory cold handle.
    std::thread::sleep(Duration::from_millis(300));

    let scan = server.tier_scan();
    let hot = scan.iter().filter(|e| e.tier == TierKind::Hot).count();
    let cold_disk = scan.iter().filter(|e| e.tier == TierKind::ColdDisk).count();
    assert!(hot < MAX_HOT, "the pre-cooled stream left the hot tier: {hot}");
    assert_eq!(hot + cold_disk, feeds.len(), "every cold stream became disk-authoritative");
    let health = server.health();
    assert_eq!(health.streams, feeds.len());
    assert_eq!(health.hot_streams, hot);
    assert_eq!(health.cold_streams, feeds.len() - hot);

    // Wake everyone with the tail; the shards keep the cap and the
    // supervisor keeps demoting their evictions throughout.
    for (i, feed) in feeds.iter().enumerate() {
        ingest_all(&clients[i], feed.instances[head..].to_vec());
    }
    server.drain();
    let hot = server.tier_scan().iter().filter(|e| e.tier == TierKind::Hot).count();
    assert!(hot <= MAX_HOT, "hot tier over the cap after the tail: {hot} > {MAX_HOT}");
    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert_eq!(report.hibernations, 0, "the tier pass only demotes; it evicts no stream");
    assert!(
        report.disk_demotions >= (feeds.len() - MAX_HOT) as u64,
        "every cap eviction and the pre-cooled stream's bytes must reach disk: {report:?}"
    );

    let final_report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(final_report.streams.len(), feeds.len());
    assert_eq!(final_report.panicked_shards, 0);
    for summary in &final_report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(&format!("budget fleet {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// The most hostile interleaving: an operator toggles the fleet size every
/// few milliseconds while every supervisor tick hibernates every idle hot
/// stream (`idle_after: ZERO`), under concurrent ingest. Cold streams migrate
/// between shards as raw checkpoint bytes without waking; mid-ingest
/// evictions thrash hot streams through the encode/rehydrate cycle; none
/// of it may error or change a bit of the results.
#[test]
fn hibernation_racing_live_resizes_stays_bitwise_and_error_free() {
    if skip_under_forced_hibernation() {
        return;
    }
    let feeds = fleet(4, 2_000);
    let run = run_config();
    let dir = scratch("resize-race");
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
            checkpoint: Some(CheckpointPolicy { every: Duration::from_millis(20), jitter: 0.5 }),
            tier: Some(TierPolicy {
                idle_after: Some(Duration::ZERO),
                max_hot_streams: None,
                max_demotions_per_tick: 1024,
            }),
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
        // Post-drain window: the fleet keeps toggling sizes while every
        // stream is cold — each migration moves checkpoint bytes, not
        // state.
        std::thread::sleep(Duration::from_millis(400));
    });

    let scan = server.tier_scan();
    assert!(
        scan.iter().all(|e| e.tier != TierKind::Hot),
        "an idle fleet under idle_after=0 must be fully cold: {scan:?}"
    );

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert!(resizes >= 4, "the resizer must keep resizing, got {resizes}");
    assert!(report.hibernations >= feeds.len() as u64, "evictions must keep firing");

    // Shutdown rehydrates the cold fleet for its final reports.
    let final_report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(final_report.panicked_shards, 0);
    assert_eq!(final_report.streams.len(), feeds.len());
    for summary in &final_report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(&format!("resize race {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// Edge case: a drift's urgent spill and the stream's eviction land in
/// the **same tick** (long tick window, `idle_after: ZERO`, distant
/// periodic schedule). The tick's order is fold → tier pass → spill
/// round, so the urgent spill runs against an already-cold stream — it
/// must checkpoint from the parked bytes without waking it, error-free.
#[test]
fn urgent_spill_same_tick_as_eviction_spills_the_cold_stream() {
    if skip_under_forced_hibernation() {
        return;
    }
    let feeds = fleet(2, 1_400); // feed-01 is the ADWIN feed: cheap, reliable drift
    let feed = &feeds[1];
    let run = run_config();
    let dir = scratch("urgent-evict");
    let server =
        Arc::new(ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() }));
    let events = server.subscribe();
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&dir).unwrap(),
        SupervisorConfig {
            // Long tick: attach → ingest → drift → drain all land inside
            // the first window, so one fold sees the drift and the same
            // tick's tier pass evicts the (now idle) stream.
            tick: Duration::from_millis(400),
            checkpoint: Some(CheckpointPolicy { every: Duration::from_secs(3_600), jitter: 0.0 }),
            tier: Some(TierPolicy {
                idle_after: Some(Duration::ZERO),
                max_hot_streams: None,
                max_demotions_per_tick: 1024,
            }),
            ..SupervisorConfig::default()
        },
    );

    let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
    ingest_all(&client, feed.instances.clone());
    server.drain();
    // Let a few ticks run so the eviction + urgent spill provably execute.
    std::thread::sleep(Duration::from_millis(900));

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    assert!(report.urgent_spills >= 1, "the drift must have forced an urgent spill");
    assert!(report.hibernations >= 1, "idle_after=0 must have evicted the stream");

    // The urgent spill did not wake the stream.
    let scan = server.tier_scan();
    let row = scan.iter().find(|e| e.id.as_ref() == feed.id).unwrap();
    assert_eq!(row.tier, TierKind::ColdDisk, "urgent spill of a cold stream must not rehydrate");

    // Bus order within the tick: the eviction's spill notice (non-urgent)
    // precedes the urgent one.
    let spills: Vec<bool> = events
        .try_iter()
        .filter(|e| e.stream.as_ref() == feed.id)
        .filter_map(|e| match e.kind {
            ServeEventKind::CheckpointSpilled { urgent, .. } => Some(urgent),
            _ => None,
        })
        .collect();
    assert!(spills.contains(&false) && spills.contains(&true), "both spill notices: {spills:?}");
    assert_eq!(spills.iter().position(|u| !u), Some(0), "eviction spill first: {spills:?}");

    // Detaching the cold stream still returns the bitwise-correct result.
    let result = server.detach(&feed.id).unwrap();
    let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
    assert!(!sequential.detections.is_empty(), "the baseline must drift");
    assert_results_match("cold detach after urgent spill", &result, &sequential);

    let _ = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    let _ = fs::remove_dir_all(dir);
}

/// After a clean eviction the spill file is the stream's only state. If an
/// older spill of the same stream is written over it, loading the cold
/// stream must fail instead of silently rewinding it; putting the right
/// bytes back makes the stream whole again.
#[test]
fn rewound_cold_spill_fails_at_load() {
    let feeds = fleet(1, 600);
    let feed = &feeds[0];
    let run = run_config();
    let dir = scratch("rewound-spill");
    let sink = SnapshotSink::new(&dir).unwrap();
    let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
    let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();

    ingest_all(&client, feed.instances[..300].to_vec());
    server.drain();
    let path = sink.spill_checkpoint(&server.checkpoint_stream(&feed.id).unwrap()).unwrap();
    let stale = fs::read(&path).unwrap();
    ingest_all(&client, feed.instances[300..].to_vec());
    server.drain();
    let spilled = sink.spill_checkpoint(&server.checkpoint_stream(&feed.id).unwrap()).unwrap();
    assert_eq!(spilled, path, "one spill file per stream");
    let current = fs::read(&path).unwrap();
    server.hibernate_with(&feed.id, Some((600, path.clone()))).unwrap();
    let scan = server.tier_scan();
    let row = scan.iter().find(|e| e.id.as_ref() == feed.id).unwrap();
    assert_eq!(row.tier, TierKind::ColdDisk, "a matching spill makes the eviction clean");

    fs::write(&path, &stale).unwrap();
    match server.checkpoint_stream(&feed.id) {
        Err(ServeError::Checkpoint(message)) => {
            assert!(message.contains("position 300"), "{message}");
        }
        other => panic!("a rewound spill must not load: {other:?}"),
    }

    fs::write(&path, &current).unwrap();
    let checkpoint = server.checkpoint_stream(&feed.id).unwrap();
    assert_eq!(checkpoint.checkpoint.processed().unwrap(), 600);
    let _ = server.shutdown();
    let _ = fs::remove_dir_all(dir);
}

/// One step of the model-based lifecycle walk below, decoded from a raw
/// proptest draw. Ingest is weighted heaviest so most sequences make real
/// progress through the stream before the tier machinery kicks in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LifecycleOp {
    /// Ingest the next chunk of instances (rehydrates a cold stream).
    Ingest,
    /// Dirty eviction: `hibernate_stream` with no spill to reuse.
    Hibernate,
    /// Clean demotion: spill a fresh checkpoint, then `hibernate_with`
    /// the `(position, path)` pair so the disk file becomes authoritative
    /// (`Memory → Disk` leg of the lifecycle).
    DemoteViaSpill,
    /// Non-destructive checkpoint; must not change the stream's tier.
    Checkpoint,
    /// Detach (rehydrating if cold), check the result against a
    /// sequential prefix run, then restore from a checkpoint and keep
    /// going.
    DetachRestore,
}

impl LifecycleOp {
    fn decode(raw: usize) -> Self {
        match raw {
            0..=3 => LifecycleOp::Ingest,
            4 => LifecycleOp::Hibernate,
            5 => LifecycleOp::DemoteViaSpill,
            6 => LifecycleOp::Checkpoint,
            _ => LifecycleOp::DetachRestore,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Model-based lifecycle sweep: arbitrary interleavings of
    /// ingest / dirty-hibernate / spill-demote / checkpoint /
    /// detach-and-restore against a single-stream server, with a trivial
    /// shadow model (`cursor` = instances ingested, `cold` = tier). Every
    /// step pins the server against the model — positions, tier rows,
    /// hibernate outcomes, prefix results at each detach — and the final
    /// detach must be bitwise-identical to a sequential pipeline that
    /// never tiered at all (the `Memory → Disk → rehydrate` legs are all
    /// exercised whenever the drawn sequence contains them).
    #[test]
    fn arbitrary_tier_lifecycle_interleavings_match_the_model(
        raw_ops in prop::collection::vec(0usize..10, 6..20)
    ) {
        if skip_under_forced_hibernation() {
            return;
        }
        const TOTAL: usize = 600;
        const CHUNK: usize = 60;
        let feeds = fleet(1, TOTAL);
        let feed = &feeds[0];
        let run = run_config();
        let dir = scratch("proptest-lifecycle");
        let sink = SnapshotSink::new(&dir).unwrap();
        let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
        let mut client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();

        // The shadow model.
        let mut cursor = 0usize; // instances the server has accepted
        let mut cold = false; // current tier (true = ColdMemory or ColdDisk)

        for op in raw_ops.iter().map(|&raw| LifecycleOp::decode(raw)) {
            match op {
                LifecycleOp::Ingest => {
                    if cursor < TOTAL {
                        let next = (cursor + CHUNK).min(TOTAL);
                        ingest_all(&client, feed.instances[cursor..next].to_vec());
                        cursor = next;
                        cold = false; // ingest rehydrates
                    }
                }
                LifecycleOp::Hibernate => {
                    server.drain();
                    match server.hibernate_stream(&feed.id).unwrap() {
                        HibernateOutcome::Hibernated { position, clean } => {
                            prop_assert!(!cold, "model said cold, server evicted");
                            prop_assert_eq!(position, cursor as u64);
                            prop_assert!(!clean, "no spill offered: eviction must encode");
                        }
                        HibernateOutcome::AlreadyCold { position } => {
                            prop_assert!(cold, "model said hot, server said cold");
                            prop_assert_eq!(position, cursor as u64);
                        }
                        HibernateOutcome::DemotedToDisk { .. } => {
                            panic!("no spill offered: demotion to disk is impossible")
                        }
                        HibernateOutcome::Hot { .. } => panic!("hibernate_stream always evicts"),
                    }
                    cold = true;
                }
                LifecycleOp::DemoteViaSpill => {
                    server.drain();
                    let checkpoint = server.checkpoint_stream(&feed.id).unwrap();
                    prop_assert_eq!(
                        checkpoint.checkpoint.processed().unwrap(),
                        cursor as u64
                    );
                    let path = sink.spill_checkpoint(&checkpoint).unwrap();
                    server.hibernate_with(&feed.id, Some((cursor as u64, path))).unwrap();
                    let scan = server.tier_scan();
                    let row = scan.iter().find(|e| e.id.as_ref() == feed.id).unwrap();
                    prop_assert_eq!(row.tier, TierKind::ColdDisk);
                    prop_assert_eq!(row.position, cursor as u64);
                    cold = true;
                }
                LifecycleOp::Checkpoint => {
                    server.drain();
                    let checkpoint = server.checkpoint_stream(&feed.id).unwrap();
                    prop_assert_eq!(
                        checkpoint.checkpoint.processed().unwrap(),
                        cursor as u64
                    );
                    let scan = server.tier_scan();
                    let row = scan.iter().find(|e| e.id.as_ref() == feed.id).unwrap();
                    prop_assert_eq!(
                        row.tier == TierKind::Hot,
                        !cold,
                        "checkpointing must not change the tier"
                    );
                }
                LifecycleOp::DetachRestore => {
                    if cursor == 0 {
                        continue;
                    }
                    server.drain();
                    let checkpoint = server.checkpoint_stream(&feed.id).unwrap();
                    let result = server.detach(&feed.id).unwrap();
                    let prefix = Feed {
                        id: feed.id.clone(),
                        schema: feed.schema.clone(),
                        instances: feed.instances[..cursor].to_vec(),
                        spec: feed.spec.clone(),
                    };
                    let sequential =
                        sequential_baseline(&prefix, run, ServeConfig::default().base_seed);
                    assert_results_match("prefix detach", &result, &sequential);
                    client = server.restore_stream(&checkpoint).unwrap();
                    cold = false; // restore re-attaches hot
                }
            }
        }

        // Finish the stream and close the loop against the ground truth.
        if cursor < TOTAL {
            ingest_all(&client, feed.instances[cursor..].to_vec());
        }
        server.drain();
        let result = server.detach(&feed.id).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        prop_assert_eq!(result.instances, TOTAL as u64);
        assert_results_match("final detach", &result, &sequential);
        let report = server.shutdown();
        prop_assert!(report.streams.is_empty());
        prop_assert_eq!(report.panicked_shards, 0);
        let _ = fs::remove_dir_all(dir);
    }
}
