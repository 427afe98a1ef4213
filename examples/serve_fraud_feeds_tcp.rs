//! The `serve_fraud_feeds` fleet, fed over loopback TCP.
//!
//! Same 64 imbalanced merchant feeds, same tuned RBM-IM detectors, same
//! feeder-pool structure as `examples/serve_fraud_feeds.rs` — but the
//! serving plane sits behind the `rbm-im-net` wire front-end and every
//! feeder thread talks to it over its own TCP connection. The feeding code
//! is unchanged: `NetClient`/`NetStreamClient` mirror the in-process API
//! (blocking `ingest_batch` backpressure, drain barrier, event-bus
//! subscription, shutdown → report), and because the wire adds no
//! nondeterminism the fleet's drift offsets and metrics are bitwise what
//! the in-process example produces.
//!
//! Run with:
//! `cargo run -p rbm-im-net --release --example serve_fraud_feeds_tcp`

use rbm_im_harness::registry::DetectorSpec;
use rbm_im_net::{NetClient, NetServer};
use rbm_im_obs::ObsServer;
use rbm_im_serve::{ServeConfig, ServeEventKind};
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

/// One merchant feed — identical construction to the in-process example,
/// so the two examples produce identical fleets.
fn feed_source(id: &str) -> StreamSource {
    let seed = derive_stream_seed(2_026, id);
    let drift_at = 600 + (seed % 600);
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
         over loopback TCP on {SHARDS} shards ({FEEDER_THREADS} connections)\n"
    );

    let server = NetServer::bind(
        "127.0.0.1:0",
        ServeConfig { num_shards: SHARDS, queue_capacity: 256, ..Default::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("wire front-end listening on {addr}");

    // A Prometheus scrape endpoint over the fleet's registry, live for the
    // whole run.
    let obs = ObsServer::serve("127.0.0.1:0", vec![server.metrics()]).expect("scrape listener");
    println!("scrape endpoint live at http://{}/metrics\n", obs.local_addr());

    // Control connection: attaches, drain, shutdown.
    let control = NetClient::connect(addr).expect("connect control");

    // Subscriber: drift events stream back over a dedicated connection.
    let events = control.subscribe().expect("subscribe");
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

    let spec = DetectorSpec::parse("rbm(minibatch=25, warmup=4, persistence=1, hidden=8)")
        .expect("valid spec");
    let sources: Vec<StreamSource> =
        (0..FEEDS).map(|i| feed_source(&format!("merchant-{i:02}"))).collect();
    for source in &sources {
        control.attach(source.id(), source.schema().clone(), &spec).expect("attach feed");
    }

    // Feeder pool: one TCP connection per thread; the pump loop is the
    // in-process example's, verbatim — blocking ingest over the wire gives
    // the same natural backpressure.
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..FEEDER_THREADS {
            let sources = &sources;
            scope.spawn(move || {
                let conn = NetClient::connect(addr).expect("connect feeder");
                let mine: Vec<usize> =
                    (0..FEEDS).filter(|i| i % FEEDER_THREADS == worker).collect();
                let clients: Vec<_> = mine.iter().map(|&i| conn.client(sources[i].id())).collect();
                let mut streams: Vec<Box<dyn DataStream + Send>> =
                    mine.iter().map(|&i| sources[i].open()).collect();
                let mut remaining: Vec<usize> = vec![INSTANCES_PER_FEED; mine.len()];
                loop {
                    let mut progressed = false;
                    for slot in 0..mine.len() {
                        if remaining[slot] == 0 {
                            continue;
                        }
                        let chunk = remaining[slot].min(50);
                        let batch = streams[slot].take_instances(chunk);
                        remaining[slot] -= batch.len();
                        clients[slot].ingest_batch(batch).expect("shard alive");
                        progressed = true;
                    }
                    if !progressed {
                        break;
                    }
                }
            });
        }
    });
    control.drain().expect("drain barrier");
    let serve_seconds = start.elapsed().as_secs_f64();

    // Mid-run telemetry fetch over the wire: the same snapshot a scrape
    // sees, as a structured value.
    let quantile_ms = |family: &str, q: f64| -> String {
        let hist = control.metrics().expect("metrics over the wire").merged_histogram(family);
        if hist.count() == 0 {
            "-".to_string()
        } else {
            format!("{:.3}ms", hist.quantile(q) as f64 / 1e6)
        }
    };
    println!(
        "\ntelemetry: ingest p50 {} / p99 {}, wire ingest-request p99 {}",
        quantile_ms("rbm_serve_ingest_latency_seconds", 0.5),
        quantile_ms("rbm_serve_ingest_latency_seconds", 0.99),
        quantile_ms("rbm_net_request_latency_seconds", 0.99),
    );

    let report = control.shutdown().expect("shutdown");
    let total_drifts = subscriber.join().expect("subscriber thread");
    server.shutdown(); // joins the accept loop; the report was taken above
    obs.shutdown();

    let total = report.total_instances();
    println!("\nprocessed {total} instances in {serve_seconds:.2}s over TCP");
    println!(
        "  ({:.0} instances/s end-to-end, {} drift events, {} frames dropped)",
        total as f64 / serve_seconds,
        total_drifts,
        report.frames_dropped,
    );

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
