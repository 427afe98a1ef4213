//! A 100k-stream fleet in bounded memory: the tiered stream state plane
//! end to end, at scale.
//!
//! One hundred thousand drifting feeds are attached, warmed up, and
//! hibernated in waves onto an 8-shard fleet whose hot tier is capped by
//! a [`TierPolicy`] byte budget that is provably too small to hold even
//! one wave. The shards enforce the cap as each stream is admitted,
//! evicting their least-recently-active streams into in-memory
//! checkpoints while the waves are still ingesting, so the hot tier never
//! exceeds the cap; the supervisor then demotes those in-memory
//! checkpoints to binary spill files so steady-state cold streams cost
//! file-system bytes, not RAM. A skewed phase then drives live traffic at
//! 32 of the 100k feeds — a mixed fleet of the trainable RBM detectors
//! and a classic ADWIN baseline: each feed rehydrates transparently on
//! its first ingest and meets a mid-tail concept drift, while the rest of
//! the fleet stays cold on disk. Nothing is lost: every stream's count is
//! exactly what was ingested, and sampled hot *and* cold streams detach
//! with results bitwise-identical to sequential single-stream runs.
//!
//! Stream count and spill directory are tunable:
//! `RBM_STREAMS=5000 cargo run -p rbm-im-serve --release --example
//! serve_hibernate_100k`
//! (`RBM_SPILL_DIR` overrides the checkpoint spill location.)

use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_obs::MetricId;
use rbm_im_serve::{
    deterministic_spec, IngestError, ServeConfig, ServerHandle, SnapshotSink, StreamClient,
    Supervisor, SupervisorConfig, TierPolicy,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet size (`RBM_STREAMS` overrides; the headline run is 100k).
fn stream_count() -> usize {
    std::env::var("RBM_STREAMS").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000)
}

/// Streams attached + warmed per wave. Each wave alone overflows the hot
/// budget below, so the shards' cap evictions race the wave's own ingest.
const WAVE: usize = 512;
/// Warm-up instances per stream: enough to finish the detector's warmup
/// (2 minibatches of 10) and settle real pipeline state worth spilling.
const WARMUP_INSTANCES: usize = 24;
/// Feeds that stay live in the skewed phase.
const HOT_FEEDS: usize = 32;
/// Skewed-phase tail per hot feed (concept A, then a drift to concept B).
const TAIL_A: usize = 376;
const TAIL_B: usize = 600;

/// Hot-tier byte budget: 8 MiB ≈ 85 hot streams — far below one wave,
/// let alone the fleet.
const HOT_BUDGET_BYTES: u64 = 8 * 1024 * 1024;

/// Deterministic per-stream feed: every stream's instances regenerate
/// from its seed alone, so nothing but the 32 hot tails is ever held in
/// memory and sampled verification can replay any stream exactly.
fn feed_instances(seed: u64, hot: bool) -> (StreamSchema, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(8, 4, 2, 0.0, seed);
    let schema = gen.schema().clone();
    let mut instances = gen.take_instances(WARMUP_INSTANCES);
    if hot {
        instances.extend(gen.take_instances(TAIL_A));
        gen.regenerate();
        instances.extend(gen.take_instances(TAIL_B));
    }
    (schema, instances)
}

fn stream_id(i: usize) -> String {
    format!("stream-{i:06}")
}

fn seed_of(i: usize) -> u64 {
    40_000 + i as u64
}

/// The fleet mixes the trainable RBM detectors with a classic ADWIN
/// baseline, like a real multi-tenant deployment; a short prequential
/// window keeps the 100k checkpoints cheap.
fn spec_of(i: usize) -> DetectorSpec {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
    ];
    DetectorSpec::parse(specs[i % specs.len()]).unwrap()
}

fn run_config() -> RunConfig {
    RunConfig { metric_window: 200, detector_batch: 10, ..Default::default() }
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

/// Sequential single-stream ground truth with the server's effective
/// (seed-injected) spec.
fn sequential_baseline(
    i: usize,
    id: &str,
    schema: StreamSchema,
    instances: Vec<Instance>,
) -> RunResult {
    let effective = deterministic_spec(
        DetectorRegistry::global(),
        ServeConfig::default().base_seed,
        id,
        &spec_of(i),
    );
    PipelineBuilder::new()
        .stream(ReplayStream::new(schema, instances))
        .stream_label(id.to_string())
        .detector_spec(effective)
        .config(run_config())
        .run()
        .unwrap()
}

fn assert_results_match(context: &str, served: &RunResult, sequential: &RunResult) {
    assert_eq!(served.detections, sequential.detections, "{context}: drift offsets");
    assert_eq!(served.instances, sequential.instances, "{context}: instance count");
    assert_eq!(served.pm_auc, sequential.pm_auc, "{context}: pmAUC");
    assert_eq!(served.pm_gmean, sequential.pm_gmean, "{context}: pmGM");
}

fn cold_resident_bytes(server: &ServerHandle) -> i64 {
    let id = MetricId::new("rbm_serve_cold_resident_bytes", &[]);
    server.metrics().snapshot().gauges.iter().find(|(i, _)| *i == id).map(|(_, v)| *v).unwrap_or(0)
}

fn main() {
    let start = Instant::now();
    let n = stream_count();
    let spill_dir = std::env::var("RBM_SPILL_DIR").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("rbm-hibernate-100k-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&spill_dir);
    let max_hot = (HOT_BUDGET_BYTES / TierPolicy::APPROX_HOT_STREAM_BYTES) as usize;
    // The hot feeds of the skewed phase, spread across the id space (and
    // therefore across shards).
    let hot_stride = (n / HOT_FEEDS).max(1);
    let is_hot = |i: usize| i.is_multiple_of(hot_stride) && i / hot_stride < HOT_FEEDS;

    println!(
        "phase 1: attach + warm up {n} streams in waves of {WAVE}, hot budget {} KiB \
         (max {max_hot} hot)",
        HOT_BUDGET_BYTES / 1024
    );
    let server = Arc::new(ServerHandle::start(ServeConfig {
        num_shards: 8,
        queue_capacity: 256,
        run: run_config(),
        ..Default::default()
    }));
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        SnapshotSink::new(&spill_dir).expect("spill dir"),
        SupervisorConfig {
            tick: Duration::from_millis(2),
            checkpoint: None, // demote spills only — no periodic schedule
            tier: Some(
                TierPolicy::budget_bytes(HOT_BUDGET_BYTES).with_max_demotions_per_tick(4096),
            ),
            ..SupervisorConfig::default()
        },
    );

    let mut wave_start = 0usize;
    while wave_start < n {
        let wave_end = (wave_start + WAVE).min(n);
        let clients: Vec<StreamClient> = (wave_start..wave_end)
            .map(|i| {
                let (schema, instances) = feed_instances(seed_of(i), false);
                let client = server.attach(&stream_id(i), schema, &spec_of(i)).unwrap();
                // One batch per stream: the whole warm-up is a single shard
                // message, so a mid-wave eviction never splits it.
                ingest_all(&client, instances);
                client
            })
            .collect();
        server.drain();
        // The wave overflowed the cap while it ingested; the shards held it.
        let health = server.health();
        assert!(
            health.hot_streams <= max_hot,
            "hot tier over budget after wave {wave_start}: {} > {max_hot}",
            health.hot_streams
        );
        // Explicitly hibernate the wave; streams the shards already
        // evicted under the cap come back `AlreadyCold`, which is fine.
        for client in &clients {
            server.hibernate_stream(client.id()).expect("hibernate warmed stream");
        }
        wave_start = wave_end;
        if wave_start.is_multiple_of(WAVE * 32) || wave_start == n {
            println!(
                "  {wave_start:>6}/{n} attached — hot {} (≤ {max_hot}) / cold {} before the \
                 wave's hibernation, cold resident {} KiB",
                health.hot_streams,
                health.cold_streams,
                cold_resident_bytes(&server) / 1024
            );
        }
        // Back-pressure on the demotion pipeline: if parked in-memory
        // checkpoints pile up faster than the supervisor spills them to
        // disk, pause the fill until the backlog drains.
        while cold_resident_bytes(&server) > 2 * HOT_BUDGET_BYTES as i64 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Let the supervisor demote the last waves' in-memory checkpoints.
    let drain_deadline = Instant::now() + Duration::from_secs(120);
    while cold_resident_bytes(&server) > 0 {
        assert!(Instant::now() < drain_deadline, "cold→disk demotion stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = server.health();
    assert_eq!(health.hot_streams + health.cold_streams, n, "no stream lost in the fill");
    assert!(
        health.hot_streams <= max_hot,
        "hot tier over budget: {} > {max_hot}",
        health.hot_streams
    );
    println!(
        "  fill done: hot {} / cold {} (≤ {max_hot} hot), cold resident {} B in RAM — \
         cold state lives in {}",
        health.hot_streams,
        health.cold_streams,
        cold_resident_bytes(&server),
        spill_dir.display()
    );

    println!("phase 2: skewed live traffic at {HOT_FEEDS} of {n} feeds (drift mid-tail)");
    std::thread::scope(|scope| {
        for i in (0..n).filter(|&i| is_hot(i)) {
            let server = &server;
            scope.spawn(move || {
                let (_, instances) = feed_instances(seed_of(i), true);
                let client = server.client(&stream_id(i));
                for chunk in instances[WARMUP_INSTANCES..].chunks(50) {
                    ingest_all(&client, chunk.to_vec());
                }
            });
        }
    });
    server.drain();
    let health = server.health();
    assert!(
        health.hot_streams <= max_hot,
        "hot tier over budget after skewed phase: {} > {max_hot}",
        health.hot_streams
    );
    let snapshot = server.metrics().snapshot();
    let rehydrates = snapshot.merged_histogram("rbm_serve_rehydrate_seconds");
    println!(
        "  hot {} / cold {} — {} hibernations, {} rehydrates \
         (p50 {:.3}ms / p99 {:.3}ms)",
        health.hot_streams,
        health.cold_streams,
        snapshot.counter_total("rbm_serve_hibernations_total"),
        rehydrates.count(),
        rehydrates.quantile(0.5) as f64 / 1e6,
        rehydrates.quantile(0.99) as f64 / 1e6,
    );

    println!("phase 3: sampled bitwise verification against sequential runs");
    // Three live feeds and three never-woken cold feeds detach; each must
    // match a sequential run of exactly what it ingested.
    let samples: Vec<(usize, bool)> = vec![
        (0, true),
        (hot_stride * (HOT_FEEDS / 2), true),
        (hot_stride * (HOT_FEEDS - 1), true),
        (1, false),
        (n / 2 + 1, false),
        (n - 1, false),
    ];
    let mut sampled = 0usize;
    for &(i, hot) in &samples {
        assert_eq!(is_hot(i), hot, "sample {i} tier");
        let id = stream_id(i);
        let served = server.detach(&id).expect("detach sample");
        let (schema, instances) = feed_instances(seed_of(i), hot);
        let baseline = sequential_baseline(i, &id, schema, instances);
        let tier = if hot { "hot" } else { "cold" };
        assert_results_match(&format!("{id} ({tier})"), &served, &baseline);
        sampled += 1;
    }
    println!("  {sampled}/{} sampled streams bitwise-identical to sequential runs", samples.len());

    let report = supervisor.stop();
    assert!(report.errors.is_empty(), "supervisor errors: {:?}", report.errors);
    println!(
        "  supervisor: {} hibernations, {} cold→disk demotions, {} spills, 0 errors",
        report.hibernations,
        report.disk_demotions,
        report.periodic_spills + report.urgent_spills,
    );

    // Shutdown rehydrates every remaining cold stream from its spill file
    // and finalizes it; every single stream must report exactly the
    // instances it ingested — nothing lost across 100k tier transitions.
    let shutdown_started = Instant::now();
    let report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(report.streams.len(), n - samples.len(), "every stream finalized");
    for stream in &report.streams {
        let i: usize = stream.stream.trim_start_matches("stream-").parse().unwrap();
        let expected =
            if is_hot(i) { WARMUP_INSTANCES + TAIL_A + TAIL_B } else { WARMUP_INSTANCES };
        assert_eq!(
            stream.result.instances, expected as u64,
            "{}: lost instances across tier transitions",
            stream.stream
        );
    }
    let drifted = report
        .streams
        .iter()
        .filter(|s| is_hot(s.stream.trim_start_matches("stream-").parse().unwrap()))
        .filter(|s| !s.result.detections.is_empty())
        .count();
    println!(
        "done: {} streams finalized ({} instances, zero lost), {drifted} of the remaining live \
         feeds flagged their drift, shutdown drained the cold tier in {:?}, total wall {:?}",
        report.streams.len(),
        report.total_instances(),
        shutdown_started.elapsed(),
        start.elapsed()
    );
    let _ = std::fs::remove_dir_all(&spill_dir);
}
