//! An autonomic serving fleet: background checkpointing + a live operator
//! resize + crash recovery, end to end.
//!
//! Thirty-two drifting feeds are served on a 2-shard fleet while a
//! [`Supervisor`] spills every stream's checkpoint in the compact binary
//! codec on a jittered per-stream schedule — urgently whenever a stream
//! drifts. Halfway through the head, the operator grows the fleet to 4
//! shards under concurrent ingest. Then the process "crashes": the server
//! is torn down without a final checkpoint, a fresh server cold-starts
//! from whatever the latest background spills were, replays each stream's
//! tail from its recorded position, and finishes with results
//! bitwise-identical to a run that was never interrupted — which the
//! example asserts against a sequential [`PipelineBuilder`] replay of
//! every feed.
//!
//! Run with:
//! `cargo run -p rbm-im-serve --release --example serve_autonomic`

use rbm_im_harness::pipeline::PipelineBuilder;
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_obs::{MetricsRegistry, ObsServer};
use rbm_im_serve::{
    CheckpointPolicy, ServeConfig, ServeEventKind, ServerHandle, SnapshotSink, StreamClient,
    Supervisor, SupervisorConfig,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const FEEDS: usize = 32;
const INSTANCES_PER_FEED: usize = 3_000;
const CRASH_AT: usize = 1_800;

/// A recorded drifting feed (concept A, then a regenerated concept B).
fn record_feed(i: usize) -> (String, StreamSchema, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(10, 4, 2, 0.0, 7_000 + i as u64);
    let schema = gen.schema().clone();
    let mut instances = gen.take_instances(INSTANCES_PER_FEED / 2);
    gen.regenerate();
    instances.extend(gen.take_instances(INSTANCES_PER_FEED / 2));
    (format!("feed-{i:02}"), schema, instances)
}

fn ingest_all(client: &StreamClient, mut batch: Vec<Instance>) {
    loop {
        match client.try_ingest_batch(batch) {
            Ok(()) => return,
            Err(e) => {
                batch = e.into_rejected();
                std::thread::yield_now();
            }
        }
    }
}

fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        tick: Duration::from_millis(10),
        checkpoint: Some(CheckpointPolicy { every: Duration::from_millis(50), jitter: 0.5 }),
        ..SupervisorConfig::default()
    }
}

/// Formats a `_seconds` histogram quantile (recorded in integer ns) for
/// display; "-" when the histogram is empty.
fn quantile_ms(metrics: &MetricsRegistry, family: &str, q: f64) -> String {
    let hist = metrics.snapshot().merged_histogram(family);
    if hist.count() == 0 {
        "-".to_string()
    } else {
        format!("{:.3}ms", hist.quantile(q) as f64 / 1e6)
    }
}

fn main() {
    let start = Instant::now();
    let spill_dir = std::env::temp_dir().join(format!("rbm-autonomic-{}", std::process::id()));
    let feeds: Vec<_> = (0..FEEDS).map(record_feed).collect();
    let spec = DetectorSpec::parse("rbm(minibatch=25, warmup=4, persistence=1)").unwrap();

    // ---- Phase 1: supervised serving, then a "crash" ---------------------
    println!("phase 1: serving {FEEDS} feeds on 2 shards with a supervisor");
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 2,
        queue_capacity: 64,
        ..Default::default()
    }));
    let events = server.subscribe();
    // Prometheus-text scrape endpoint over the fleet's metrics registry:
    // `curl` it any time while phase 1 runs.
    let obs = ObsServer::serve("127.0.0.1:0", vec![server.metrics()]).expect("scrape listener");
    println!("  scrape endpoint live at http://{}/metrics", obs.local_addr());
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&spill_dir).expect("spill dir"),
        supervisor_config(),
    );

    // Feed the head concurrently. Once every feeder is halfway through, the
    // operator grows the fleet while the second half is still arriving.
    let halfway = Barrier::new(FEEDS + 1);
    let resize = std::thread::scope(|scope| {
        for (id, schema, instances) in &feeds {
            let client = server.attach(id, schema.clone(), &spec).unwrap();
            let halfway = &halfway;
            scope.spawn(move || {
                let (first, second) = instances[..CRASH_AT].split_at(CRASH_AT / 2);
                for chunk in first.chunks(50) {
                    ingest_all(&client, chunk.to_vec());
                }
                halfway.wait();
                for chunk in second.chunks(50) {
                    ingest_all(&client, chunk.to_vec());
                }
            });
        }
        halfway.wait();
        server.resize_shards(4).expect("live resize")
    });
    server.drain();
    // Linger long enough for every stream's jittered spill to land.
    std::thread::sleep(Duration::from_millis(200));

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    println!(
        "  operator resize {} -> {} shards moved {} streams mid-ingest",
        resize.old_shards,
        resize.new_shards,
        resize.moved.len()
    );
    println!(
        "  supervisor: {} periodic + {} urgent spills",
        report.periodic_spills, report.urgent_spills
    );
    let drifts =
        events.try_iter().filter(|e| matches!(e.kind, ServeEventKind::Drift { .. })).count();
    println!("  bus: {drifts} drift events so far");
    let metrics = server.metrics();
    println!(
        "  telemetry: ingest p50 {} / p99 {}, spill p50 {}",
        quantile_ms(&metrics, "rbm_serve_ingest_latency_seconds", 0.5),
        quantile_ms(&metrics, "rbm_serve_ingest_latency_seconds", 0.99),
        quantile_ms(&metrics, "rbm_supervisor_spill_seconds", 0.5),
    );
    obs.shutdown();
    // CRASH: no drain, no graceful checkpoint — drop everything.
    drop(Arc::try_unwrap(server).expect("supervisor stopped").shutdown());

    // ---- Phase 2: cold restart from the background spills ----------------
    let sink = SnapshotSink::new(&spill_dir).expect("spill dir");
    let checkpoints = sink.load_checkpoints().expect("load spills");
    println!("phase 2: cold restart — {} binary spills found, replaying tails", checkpoints.len());
    let server = ServerHandle::start(ServeConfig {
        num_shards: 4, // a different fleet shape; results cannot care
        queue_capacity: 64,
        ..Default::default()
    });
    for checkpoint in &checkpoints {
        let (_, _, instances) =
            feeds.iter().find(|(id, _, _)| *id == checkpoint.stream).expect("known feed");
        let position = checkpoint.checkpoint.processed().expect("resume position") as usize;
        let client = server.restore_stream(checkpoint).expect("restore");
        ingest_all(&client, instances[position..].to_vec());
    }
    server.drain();
    let metrics = server.metrics();
    println!(
        "  telemetry: replay ingest p50 {} / p99 {}",
        quantile_ms(&metrics, "rbm_serve_ingest_latency_seconds", 0.5),
        quantile_ms(&metrics, "rbm_serve_ingest_latency_seconds", 0.99),
    );
    // The claim, checked: each stream's final result equals a sequential
    // run over the feed that was never interrupted.
    let baselines: Vec<_> = feeds
        .iter()
        .map(|(id, schema, instances)| {
            PipelineBuilder::new()
                .stream(ReplayStream::new(schema.clone(), instances.clone()))
                .stream_label(id.clone())
                .detector_spec(server.effective_spec(id, &spec))
                .config(ServeConfig::default().run)
                .run()
                .expect("sequential replay")
        })
        .collect();
    let report = server.shutdown();
    assert_eq!(report.streams.len(), FEEDS, "every feed must have restarted");
    for ((id, _, _), sequential) in feeds.iter().zip(&baselines) {
        let served = &report.streams.iter().find(|s| s.stream == *id).expect("served").result;
        assert_eq!(served.detections, sequential.detections, "{id}: drift offsets");
        assert_eq!(served.instances, sequential.instances, "{id}: instance count");
        assert_eq!(served.pm_auc, sequential.pm_auc, "{id}: pmAUC");
        assert_eq!(served.pm_gmean, sequential.pm_gmean, "{id}: pmGM");
        assert_eq!(served.accuracy, sequential.accuracy, "{id}: accuracy");
        assert_eq!(served.kappa, sequential.kappa, "{id}: kappa");
    }

    let total: u64 = report.streams.iter().map(|s| s.result.instances).sum();
    let detected = report.streams.iter().filter(|s| !s.result.detections.is_empty()).count();
    let mean_auc: f64 =
        report.streams.iter().map(|s| s.result.pm_auc).sum::<f64>() / report.streams.len() as f64;
    println!(
        "done: {} streams finished ({total} instances end-to-end), {detected}/{} detected their \
         drift, mean pmAUC {mean_auc:.2}%, all bitwise-identical to the sequential pipeline, \
         wall {:?}",
        report.streams.len(),
        FEEDS,
        start.elapsed()
    );
    let _ = std::fs::remove_dir_all(&spill_dir);
}
