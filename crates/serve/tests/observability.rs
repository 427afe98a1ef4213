//! The serving plane's observability surface end-to-end: telemetry is
//! always on, so ingest fills per-shard latency histograms,
//! [`ServerHandle::health`] summarizes them, a live resize records its
//! phase durations, and a plain HTTP scrape of [`ObsServer`] returns
//! Prometheus-text exposition carrying the per-shard quantiles. The
//! number of exported series does not grow with the number of streams.

use rbm_im_harness::registry::DetectorSpec;
use rbm_im_obs::{scrape_text, ObsServer};
use rbm_im_serve::{ServeConfig, ServerHandle};
use rbm_im_streams::{DataStream, StreamExt};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn scrape_exposes_per_shard_ingest_quantiles_and_health() {
    let server = ServerHandle::start(ServeConfig { num_shards: 2, ..Default::default() });
    let mut stream = rbm_im_streams::generators::GaussianMixtureGenerator::balanced(8, 3, 1, 7);
    let spec = DetectorSpec::parse("rbm(minibatch=25)").expect("spec");
    let client = server.attach("feed-00", stream.schema().clone(), &spec).expect("attach");
    for instance in stream.take_instances(300) {
        client.ingest_batch(vec![instance]).expect("ingest");
    }
    server.drain();

    // In-process exposition: per-shard ingest latency histograms are live.
    let text = scrape_text(&[server.metrics()]);
    assert!(text.contains("# TYPE rbm_serve_ingest_latency_seconds histogram"), "{text}");
    assert!(text.contains("rbm_serve_ingest_latency_seconds_bucket{shard="), "{text}");
    assert!(text.contains("rbm_serve_processed_instances_total"), "{text}");
    assert!(!text.contains("NaN"), "no NaN leakage:\n{text}");

    // Health reads the same histograms back as quantiles.
    let health = server.health();
    assert_eq!(health.streams, 1);
    assert_eq!(health.shards.len(), 2);
    assert_eq!(health.shards.iter().map(|s| s.streams).sum::<usize>(), 1);
    assert!(health.ingest_p50_seconds > 0.0, "p50 = {}", health.ingest_p50_seconds);
    assert!(
        health.ingest_p99_seconds >= health.ingest_p50_seconds,
        "p99 {} >= p50 {}",
        health.ingest_p99_seconds,
        health.ingest_p50_seconds
    );
    assert_eq!(health.last_spill_age_seconds, -1.0, "no spill has happened");

    // A live resize records its phase durations.
    server.resize_shards(3).expect("resize");
    let resize = server.metrics().snapshot().merged_histogram("rbm_serve_resize_seconds");
    assert!(resize.count() >= 2, "park + restore phases recorded, got {}", resize.count());

    // A real scrape over HTTP serves the same exposition.
    let obs = ObsServer::serve("127.0.0.1:0", vec![server.metrics()]).expect("bind scrape");
    let mut conn = TcpStream::connect(obs.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("response");
    obs.shutdown();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("rbm_serve_ingest_latency_seconds_bucket{shard=\"0\""), "{response}");

    let report = server.shutdown();
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].result.instances, 300);
}

/// The number of series in the server's metrics snapshot after `streams`
/// streams are attached across 2 shards, each fed 20 instances, and all
/// detached again.
fn series_after(streams: usize) -> usize {
    let server = ServerHandle::start(ServeConfig { num_shards: 2, ..Default::default() });
    let spec = DetectorSpec::parse("adwin").expect("spec");
    for i in 0..streams {
        let mut stream =
            rbm_im_streams::generators::GaussianMixtureGenerator::balanced(4, 2, 1, i as u64);
        let id = format!("feed-{i:03}");
        let client = server.attach(&id, stream.schema().clone(), &spec).expect("attach");
        client.ingest_batch(stream.take_instances(20)).expect("ingest");
    }
    server.drain();
    for i in 0..streams {
        server.detach(&format!("feed-{i:03}")).expect("detach");
    }
    let snapshot = server.metrics().snapshot();
    let series = snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
    let report = server.shutdown();
    assert!(report.streams.is_empty(), "every stream was detached");
    series
}

#[test]
fn exported_series_do_not_grow_with_stream_count() {
    let few = series_after(2);
    let many = series_after(200);
    assert!(few > 0);
    assert_eq!(many, few, "200 streams export {many} series, 2 streams {few}");
}
