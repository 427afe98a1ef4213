//! Serving 64 concurrent imbalanced fraud feeds through `rbm-im-serve`.
//!
//! Sixty-four merchant feeds — each a heavily imbalanced stream whose rare
//! "fraud" class drifts at a feed-specific time — are attached to a sharded
//! server with tuned RBM-IM detectors (hyper-parameters straight in the
//! spec string), pumped concurrently by a pool of feeder threads with
//! blocking backpressure, and monitored live off the drift-event bus. At
//! the end the server drains, shuts down gracefully and prints a fleet
//! summary.
//!
//! Run with:
//! `cargo run -p rbm-im-serve --release --example serve_fraud_feeds`

use rbm_im_harness::registry::DetectorSpec;
use rbm_im_serve::{ServeConfig, ServeEventKind, ServerHandle};
use rbm_im_streams::drift::local::{LocalDriftEvent, LocalDriftStream};
use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::imbalance::{ImbalanceProfile, ImbalancedStream};
use rbm_im_streams::source::{derive_stream_seed, StreamSource};
use rbm_im_streams::{DataStream, StreamExt};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FEEDS: usize = 64;
const INSTANCES_PER_FEED: usize = 1_500;
const SHARDS: usize = 8;
const FEEDER_THREADS: usize = 8;

/// One merchant feed: a 4-class RBF stream under geometric 20:1 imbalance
/// whose *minority* class (the fraud pattern) suddenly drifts at a
/// feed-specific position. Fully deterministic per feed id.
fn feed_source(id: &str) -> StreamSource {
    let seed = derive_stream_seed(2_026, id);
    let drift_at = 600 + (seed % 600); // between 40% and 80% of the feed
    StreamSource::new(id.to_string(), move || {
        let base = RandomRbfGenerator::new(10, 4, 3, 0.0, seed);
        let imbalanced =
            ImbalancedStream::new(base, ImbalanceProfile::geometric(4, 20.0), seed ^ 0x5a5a);
        let drift = LocalDriftEvent {
            affected_classes: vec![3],
            position: drift_at,
            width: 0,
            kind: DriftKind::Sudden,
            magnitude: 0.9,
        };
        Box::new(LocalDriftStream::new(imbalanced, vec![drift], seed ^ 0xa5a5))
    })
}

fn main() {
    println!(
        "serving {FEEDS} imbalanced fraud feeds × {INSTANCES_PER_FEED} instances \
         on {SHARDS} shards ({FEEDER_THREADS} feeder threads)\n"
    );

    let server = ServerHandle::start(ServeConfig {
        num_shards: SHARDS,
        queue_capacity: 256,
        ..Default::default()
    });

    // Subscriber: count drifts live off the event bus, printing the first
    // few with their per-class attribution.
    let events = server.subscribe();
    let drift_count = Arc::new(AtomicU64::new(0));
    let subscriber = {
        let drift_count = Arc::clone(&drift_count);
        std::thread::spawn(move || {
            let mut printed = 0;
            for event in events {
                if let ServeEventKind::Drift { position, ref classes } = event.kind {
                    let n = drift_count.fetch_add(1, Ordering::Relaxed) + 1;
                    if printed < 12 {
                        println!(
                            "  drift #{n:<3} {} @ {position:>5} (shard {}, classes {classes:?})",
                            event.stream, event.shard
                        );
                        printed += 1;
                    } else if printed == 12 {
                        println!("  … (further drifts counted silently)");
                        printed += 1;
                    }
                }
            }
            drift_count.load(Ordering::Relaxed)
        })
    };

    // Attach all feeds: tuned RBM-IM hyper-parameters ride in the spec
    // string; deterministic per-stream seeding decorrelates the fleet.
    let spec = DetectorSpec::parse("rbm(minibatch=25, warmup=4, persistence=1, hidden=8)")
        .expect("valid spec");
    let sources: Vec<StreamSource> =
        (0..FEEDS).map(|i| feed_source(&format!("merchant-{i:02}"))).collect();
    let mut clients = Vec::with_capacity(FEEDS);
    for source in &sources {
        let client =
            server.attach(source.id(), source.schema().clone(), &spec).expect("attach feed");
        clients.push(client);
    }

    // Feeder pool: each thread pumps its share of the feeds round-robin in
    // micro-batches, using blocking ingest (natural backpressure — the
    // pumps run at the shards' pace).
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..FEEDER_THREADS {
            let clients = &clients;
            let sources = &sources;
            scope.spawn(move || {
                let mine: Vec<usize> =
                    (0..FEEDS).filter(|i| i % FEEDER_THREADS == worker).collect();
                let mut streams: Vec<Box<dyn DataStream + Send>> =
                    mine.iter().map(|&i| sources[i].open()).collect();
                let mut remaining: Vec<usize> = vec![INSTANCES_PER_FEED; mine.len()];
                loop {
                    let mut progressed = false;
                    for (slot, &feed) in mine.iter().enumerate() {
                        if remaining[slot] == 0 {
                            continue;
                        }
                        let chunk = remaining[slot].min(50);
                        let batch = streams[slot].take_instances(chunk);
                        remaining[slot] -= batch.len();
                        clients[feed].ingest_batch(batch).expect("shard alive");
                        progressed = true;
                    }
                    if !progressed {
                        break;
                    }
                }
            });
        }
    });
    // The clock stops only after the drain barrier: everything queued in
    // the shard channels is fully processed, so the rate below is true
    // end-to-end throughput, not ingest-enqueue speed.
    server.drain();
    let serve_seconds = start.elapsed().as_secs_f64();

    let report = server.shutdown();
    let total_drifts = {
        // Shutdown dropped the bus publishers; the subscriber loop ends.
        subscriber.join().expect("subscriber thread")
    };

    let total = report.total_instances();
    println!("\nprocessed {total} instances in {serve_seconds:.2}s ");
    println!(
        "  ({:.0} instances/s end-to-end, {} drift events)",
        total as f64 / serve_seconds,
        total_drifts,
    );

    // Fleet summary: the five feeds with the most drift signals.
    let mut by_drifts = report.streams.clone();
    by_drifts.sort_by_key(|s| std::cmp::Reverse(s.result.detections.len()));
    println!("\nnoisiest feeds:");
    println!("  {:<14} {:>6} {:>8} {:>8} {:>7}", "feed", "drifts", "pmAUC", "pmGM", "shard");
    for summary in by_drifts.iter().take(5) {
        println!(
            "  {:<14} {:>6} {:>8.2} {:>8.2} {:>7}",
            summary.stream,
            summary.result.detections.len(),
            summary.result.pm_auc,
            summary.result.pm_gmean,
            summary.shard,
        );
    }
    let detected = report.streams.iter().filter(|s| !s.result.detections.is_empty()).count();
    println!("\n{detected}/{FEEDS} feeds raised at least one drift signal");
}
