//! Wire-protocol robustness: malformed, truncated, garbage and
//! future-version frames yield clean [`Frame::Error`] replies — never a
//! handler panic, never a poisoned serving plane — and every discarded
//! frame is visible in [`ServeReport::frames_dropped`] on the final report.
//!
//! The fuzz cases are deterministic (fixed cut points, fixed XOR mask per
//! byte position) so a failure reproduces byte-for-byte.

use proptest::prelude::*;
use rbm_im_detectors::{DetectorState, DriftDetector, Observation};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_net::wire::{self, FT_SHUTDOWN};
use rbm_im_net::{ErrorCode, Frame, NetClient, NetServer, NetServerHandle};
use rbm_im_obs::MetricsRegistry;
use rbm_im_serve::{
    deterministic_spec, ChaosSpillIo, FaultConfig, FaultPlane, FaultRate, FaultSite, IngestError,
    ServeConfig, SnapshotSink,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A raw (non-`NetClient`) connection for sending hand-crafted bytes.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn open(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect raw");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
        let read_half = stream.try_clone().expect("clone stream");
        RawConn { reader: BufReader::new(read_half), writer: stream }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw bytes");
        self.writer.flush().expect("flush raw bytes");
    }

    /// Half-closes the write side (signals EOF to the server while keeping
    /// the read side open for a best-effort error reply).
    fn close_write(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Write);
    }

    fn read_reply(&mut self) -> Result<Frame, wire::WireError> {
        wire::read_frame(&mut self.reader)
    }

    fn expect_error(&mut self, expected: ErrorCode, context: &str) {
        match self.read_reply() {
            Ok(Frame::Error { code, .. }) => {
                assert_eq!(code, expected, "{context}: error code");
            }
            other => panic!("{context}: expected Error({expected}), got {other:?}"),
        }
    }

    /// Drains whatever the server sends until it closes the connection or
    /// the read times out. Used by fuzz cases where any non-panic response
    /// (a reply, or a clean close) is acceptable.
    fn drain_replies(&mut self) {
        loop {
            let mut probe = [0u8; 256];
            match self.reader.read(&mut probe) {
                Ok(0) => return,   // server closed
                Ok(_) => continue, // some reply bytes
                Err(_) => return,  // timeout / reset
            }
        }
    }
}

fn small_config() -> ServeConfig {
    ServeConfig {
        num_shards: 1,
        run: RunConfig { metric_window: 100, ..Default::default() },
        ..Default::default()
    }
}

/// Proves the serving plane behind `addr` is still healthy: a fresh
/// connection can attach, ingest and drain.
fn assert_server_healthy(addr: SocketAddr, probe_id: &str) {
    let client = NetClient::connect(addr).expect("healthy server accepts connections");
    let feed = client
        .attach(probe_id, StreamSchema::new(probe_id, 2, 2), &DetectorSpec::new("rddm"))
        .expect("healthy server attaches");
    feed.ingest_batch(vec![Instance::with_index(vec![0.5, 0.5], 0, 0)])
        .expect("healthy server ingests");
    client.drain().expect("healthy server drains");
    client.detach(probe_id).expect("healthy server detaches");
}

/// Frame-scoped corruption — bad magic, future version, unknown type,
/// trailing garbage, reply frames sent to the server — each gets an error
/// reply on a connection that stays usable, and each is counted.
#[test]
fn frame_scoped_errors_leave_the_connection_usable() {
    let server = NetServer::bind("127.0.0.1:0", small_config()).expect("bind");
    let addr = server.local_addr();
    let mut conn = RawConn::open(addr);

    // Layout of an encoded frame: [0..4] length prefix, [4..8] magic,
    // [8..10] version, [10] frame type, [11..] body.
    let valid = wire::encode_frame(&Frame::Drain);

    let mut bad_magic = valid.clone();
    bad_magic[4..8].copy_from_slice(b"XXXX");
    conn.send(&bad_magic);
    conn.expect_error(ErrorCode::Malformed, "bad magic");

    let mut future_version = valid.clone();
    future_version[8..10].copy_from_slice(&999u16.to_le_bytes());
    conn.send(&future_version);
    conn.expect_error(ErrorCode::UnsupportedVersion, "future version");

    let mut unknown_type = valid.clone();
    unknown_type[10] = 0x7f;
    conn.send(&unknown_type);
    conn.expect_error(ErrorCode::UnknownFrameType, "unknown frame type");

    // A Shutdown frame with trailing garbage is malformed — it must NOT
    // shut the serving plane down.
    let mut trailing = wire::encode_frame(&Frame::Shutdown);
    trailing.extend_from_slice(&[0xde, 0xad, 0xbe]);
    let body_len = (trailing.len() - 4) as u32;
    trailing[0..4].copy_from_slice(&body_len.to_le_bytes());
    conn.send(&trailing);
    conn.expect_error(ErrorCode::Malformed, "trailing garbage on shutdown");

    // Reply frames arriving at the server are a protocol violation.
    conn.send(&wire::encode_frame(&Frame::Ack));
    conn.expect_error(ErrorCode::Malformed, "reply frame sent to server");

    // An undecodable attach spec is a serve error, not a dead connection.
    conn.send(&wire::encode_frame(&Frame::Attach {
        stream: "bad-spec".to_string(),
        schema: StreamSchema::new("bad-spec", 2, 2),
        spec: "%%%not-a-spec%%%".to_string(),
        run: None,
    }));
    conn.expect_error(ErrorCode::Serve, "invalid detector spec");

    // The same connection still serves valid requests.
    conn.send(&wire::encode_frame(&Frame::Drain));
    match conn.read_reply() {
        Ok(Frame::Ack) => {}
        other => panic!("connection should still serve Drain: {other:?}"),
    }
    assert_server_healthy(addr, "probe-after-corruption");

    assert_eq!(
        server.frames_dropped(),
        5,
        "five discarded frames counted (serve errors are not drops)"
    );
    let report = server.shutdown();
    assert_eq!(report.frames_dropped, 5, "drop counter folded into the final report");
    assert_eq!(report.panicked_shards, 0);
}

/// Framing-level garbage — a nonsense length prefix, a frame cut off
/// mid-payload — cannot be resynchronized: the server sends a best-effort
/// error reply, closes that connection, and stays healthy.
#[test]
fn framing_level_garbage_gets_a_best_effort_reply_then_close() {
    let server = NetServer::bind("127.0.0.1:0", small_config()).expect("bind");
    let addr = server.local_addr();

    // An HTTP request: the first four bytes ("GET ") decode as a ~542 MB
    // length prefix, rejected as oversized.
    let mut http = RawConn::open(addr);
    http.send(b"GET / HTTP/1.1\r\nHost: example\r\n\r\n");
    http.expect_error(ErrorCode::Malformed, "HTTP request");
    match http.read_reply() {
        Err(_) => {} // connection closed after the reply
        Ok(frame) => panic!("connection must close after framing failure, got {frame:?}"),
    }

    // A frame truncated mid-payload (write side closed): best-effort error
    // reply, then close.
    let valid = wire::encode_frame(&Frame::Checkpoint { stream: "s".to_string() });
    let mut cut = RawConn::open(addr);
    cut.send(&valid[..valid.len() - 3]);
    cut.close_write();
    cut.expect_error(ErrorCode::Malformed, "truncated mid-payload");

    assert_server_healthy(addr, "probe-after-garbage");
    let report = server.shutdown();
    assert_eq!(report.frames_dropped, 2);
    assert_eq!(report.panicked_shards, 0);
}

/// Every request frame type, truncated at several cut points and with
/// single-byte corruption at every (sampled) position: the server may
/// reply with an error or close the connection, but it never panics and
/// the serving plane stays healthy throughout.
#[test]
fn truncation_and_byte_flip_fuzz_never_panics_the_worker() {
    let server = NetServer::bind("127.0.0.1:0", small_config()).expect("bind");
    let addr = server.local_addr();

    let request_frames: Vec<(&str, Vec<u8>)> = vec![
        (
            "attach",
            wire::encode_frame(&Frame::Attach {
                stream: "fz".to_string(),
                schema: StreamSchema::new("fz", 3, 2),
                spec: "adwin(delta=0.01)".to_string(),
                run: Some(RunConfig::default()),
            }),
        ),
        ("detach", wire::encode_frame(&Frame::Detach { stream: "fz".to_string() })),
        (
            "ingest",
            wire::encode_frame(&Frame::Ingest {
                stream: "fz".to_string(),
                blocking: false,
                instances: vec![
                    Instance::with_index(vec![0.25, 0.5, 0.75], 1, 0),
                    Instance::with_index(vec![0.1, 0.2, 0.3], 0, 1),
                ],
            }),
        ),
        ("drain", wire::encode_frame(&Frame::Drain)),
        ("checkpoint", wire::encode_frame(&Frame::Checkpoint { stream: "fz".to_string() })),
        ("shutdown", wire::encode_frame(&Frame::Shutdown)),
        ("subscribe", wire::encode_frame(&Frame::Subscribe)),
    ];

    for (name, bytes) in &request_frames {
        // Truncations: inside the length prefix, inside the header, at the
        // midpoint, one byte short.
        let cuts = [1usize, 6, 10, bytes.len() / 2, bytes.len() - 1];
        for &cut in cuts.iter().filter(|&&c| c < bytes.len()) {
            let mut conn = RawConn::open(addr);
            conn.send(&bytes[..cut]);
            conn.close_write();
            conn.drain_replies(); // error reply or clean close; never a hang
            drop(conn);
            // Truncating a Shutdown frame must not shut the plane down.
            assert!(server.frames_dropped() < u64::MAX, "handle is alive");
        }

        // Single-byte corruption: XOR a fixed mask at every position
        // (sampled past 64 to bound runtime). Positions whose mutation
        // would produce a *valid* Shutdown frame are skipped — a real
        // shutdown is correct behavior, not a robustness failure, and the
        // fuzz loop needs the server to outlive it.
        let positions: Vec<usize> = (0..bytes.len()).filter(|&i| i < 64 || i % 7 == 0).collect();
        for &pos in &positions {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0xA5;
            if pos == 10 && mutated[10] == FT_SHUTDOWN {
                continue;
            }
            let mut conn = RawConn::open(addr);
            conn.send(&mutated);
            conn.close_write();
            conn.drain_replies();
            drop(conn);
        }
        // After each frame type's batch, the plane must still serve.
        assert_server_healthy(addr, &format!("probe-after-{name}"));
    }

    let report = server.shutdown();
    assert!(
        report.frames_dropped > 0,
        "the fuzz barrage must have produced counted drops, got {}",
        report.frames_dropped
    );
    assert_eq!(report.panicked_shards, 0, "no shard worker panicked under fuzz");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A `MetricsData` frame built from an arbitrary registry state — any
    /// mix of counters, gauges and histogram observations — survives the
    /// RBMC codec byte-for-byte (decode then re-encode is the identity),
    /// and every strict truncation of the encoded frame decodes to a clean
    /// [`WireError`](wire::WireError), never a panic.
    #[test]
    fn metrics_frame_roundtrips_and_truncations_fail_clean(
        counters in prop::collection::vec((0usize..5, 0u64..1 << 48), 0..6),
        gauges in prop::collection::vec((0usize..4, -1_000_000i64..1_000_000), 0..4),
        hist_values in prop::collection::vec(0u64..u64::MAX, 0..64),
        cut_frac in 0.0f64..1.0,
    ) {
        let registry = MetricsRegistry::new();
        for (name, v) in &counters {
            registry.counter(&format!("counter_{name}"), &[]).add(*v);
        }
        for (name, v) in &gauges {
            registry.gauge(&format!("gauge_{name}"), &[("shard", "0")]).set(*v);
        }
        let hist = registry.histogram("rbm_net_request_latency_seconds", &[("frame", "ingest")]);
        for &v in &hist_values {
            hist.record(v);
        }
        let frame = Frame::MetricsData(Box::new(registry.snapshot()));
        let bytes = wire::encode_frame(&frame);

        let mut cursor = &bytes[..];
        let back = wire::read_frame(&mut cursor).expect("decode full frame");
        prop_assert!(cursor.is_empty(), "frame fully consumed");
        prop_assert_eq!(wire::encode_frame(&back), bytes.clone(), "re-encode is the identity");

        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let mut truncated = &bytes[..cut];
            prop_assert!(
                wire::read_frame(&mut truncated).is_err(),
                "truncation at {cut}/{} must fail clean", bytes.len()
            );
        }
    }
}

/// Instances that are well-formed frames but do not fit their stream's
/// schema — a wrong feature count, a class outside `0..num_classes` — are
/// dropped and counted by the shard, never a worker panic: the stream
/// sharing the shard and the bad stream's valid instances match a
/// sequential replay bitwise.
#[test]
fn schema_violating_instances_are_counted_never_a_worker_panic() {
    let config = small_config();
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    let registry = DetectorRegistry::with_defaults();
    let feeds: Vec<(&str, DetectorSpec, StreamSchema, Vec<Instance>)> =
        [("bad", "rbm(mini_batch=25, warmup=4, persistence=1)", 31), ("good", "rddm", 32)]
            .into_iter()
            .map(|(id, spec, seed)| {
                let mut gen = RandomRbfGenerator::new(6, 3, 2, 0.0, seed);
                let schema = gen.schema().clone();
                (id, DetectorSpec::parse(spec).unwrap(), schema, gen.take_instances(1_500))
            })
            .collect();
    let streams: Vec<_> = feeds
        .iter()
        .map(|(id, spec, schema, _)| client.attach(id, schema.clone(), spec).expect("attach"))
        .collect();

    let (_, _, _, instances) = &feeds[0];
    let mut first = instances[..700].to_vec();
    first.push(Instance::with_index(vec![0.5; 5], 0, 10_000));
    streams[0].ingest_batch(first).expect("ingest");
    streams[0].ingest_batch(vec![Instance::with_index(vec![0.5; 6], 3, 10_001)]).expect("ingest");
    streams[0].ingest_batch(instances[700..].to_vec()).expect("ingest");
    streams[1].ingest_batch(feeds[1].3.clone()).expect("ingest");
    client.drain().expect("drain");

    let snapshot = client.metrics().expect("metrics over the wire");
    assert_eq!(snapshot.counter_total("rbm_serve_invalid_instances_total"), 2);
    let report = client.shutdown().expect("shutdown");
    assert_eq!(report.panicked_shards, 0);
    assert_eq!(report.streams.len(), 2, "no stream is lost");
    for (id, spec, schema, instances) in &feeds {
        let served = &report.streams.iter().find(|s| s.stream == *id).unwrap().result;
        let sequential = PipelineBuilder::new()
            .stream(ReplayStream::new(schema.clone(), instances.clone()))
            .stream_label(id.to_string())
            .detector_spec(deterministic_spec(&registry, config.base_seed, id, spec))
            .config(config.run)
            .run()
            .unwrap();
        assert_eq!(served.detections, sequential.detections, "{id}: drift offsets");
        assert_eq!(served.instances, sequential.instances, "{id}: instance count");
        assert_eq!(served.pm_auc, sequential.pm_auc, "{id}: pmAUC");
        assert_eq!(served.pm_gmean, sequential.pm_gmean, "{id}: pmGM");
        assert_eq!(served.accuracy, sequential.accuracy, "{id}: accuracy");
        assert_eq!(served.kappa, sequential.kappa, "{id}: kappa");
    }
    server.shutdown();
}

/// A TCP client can fetch a `Metrics` snapshot and a `HealthSnapshot`
/// mid-run: structural counters (enqueued/processed instances) make the
/// snapshot non-trivial, and the breakdown counters surface wire drops per
/// category.
#[test]
fn metrics_and_health_are_queryable_mid_run() {
    let server = NetServer::bind("127.0.0.1:0", small_config()).expect("bind");
    let addr = server.local_addr();
    let client = NetClient::connect(addr).expect("connect");
    let feed = client
        .attach("feed", StreamSchema::new("feed", 2, 2), &DetectorSpec::new("rddm"))
        .expect("attach");
    feed.ingest_batch((0..50).map(|i| Instance::with_index(vec![0.3, 0.7], 0, i)).collect())
        .expect("ingest");
    client.drain().expect("drain");

    let snapshot = client.metrics().expect("metrics over the wire");
    assert_eq!(snapshot.counter_total("rbm_serve_processed_instances_total"), 50);
    assert_eq!(snapshot.counter_total("rbm_net_frames_dropped_total"), 0);

    let health = client.health().expect("health over the wire");
    assert_eq!(health.streams, 1);
    assert_eq!(health.shards.len(), 1);
    assert_eq!(health.shards[0].processed_instances, 50);

    // A dropped frame ticks the right category — visible mid-run in the
    // next snapshot, and in the final report's breakdown.
    let mut raw = RawConn::open(addr);
    let mut unknown = wire::encode_frame(&Frame::Drain);
    unknown[10] = 0x7f;
    raw.send(&unknown);
    raw.expect_error(ErrorCode::UnknownFrameType, "unknown frame type");
    let snapshot = client.metrics().expect("metrics after drop");
    assert_eq!(snapshot.counter_total("rbm_net_frames_dropped_total"), 1);

    let report = client.shutdown().expect("shutdown");
    assert_eq!(report.frames_dropped, 1);
    assert_eq!(report.frames_dropped_by.unknown_frame_type, 1);
    assert_eq!(report.frames_dropped_by.total(), 1);
    server.shutdown();
}

/// A detector whose `update` blocks on a gate — holds the single shard
/// worker mid-step so queue backpressure becomes deterministic (the same
/// device as the in-process serving suite).
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

/// Shard backpressure crosses the wire: a non-blocking ingest against a
/// full queue gets a `Busy` reply carrying the rejected count, and the
/// client maps it back onto `IngestError::Full` with the instances intact.
#[test]
fn busy_reply_carries_the_rejected_count() {
    let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
    let mut registry = DetectorRegistry::with_defaults();
    {
        let gate = Arc::clone(&gate);
        registry.register("gate", &[], move |_, _, _| {
            Ok(Box::new(GateDetector { gate: Arc::clone(&gate) }))
        });
    }
    let capacity = 4;
    let server = NetServer::bind_with_registry(
        "127.0.0.1:0",
        ServeConfig {
            num_shards: 1,
            queue_capacity: capacity,
            run: RunConfig { metric_window: 100, detector_batch: 1, ..Default::default() },
            ..Default::default()
        },
        Arc::new(registry),
    )
    .expect("bind");
    let addr = server.local_addr();

    let client = NetClient::connect(addr).expect("connect");
    let feed = client
        .attach("gated", StreamSchema::new("gated", 2, 2), &DetectorSpec::new("gate"))
        .expect("attach");
    let instance = |i: u64| Instance::with_index(vec![0.0, 1.0], 0, i);

    // First instance: wait until the worker provably holds it inside the
    // detector, so the queue is empty again and counts are exact.
    feed.try_ingest_batch(vec![instance(0)]).expect("first instance");
    {
        let (lock, condvar) = &*gate;
        let mut state = lock.lock().unwrap();
        while !state.entered {
            state = condvar.wait(state).unwrap();
        }
    }
    // Fill the queue exactly.
    for i in 0..capacity as u64 {
        feed.try_ingest_batch(vec![instance(1 + i)]).expect("fill the queue");
    }

    // Raw-frame view: the server answers Busy with the rejected count.
    let mut raw = RawConn::open(addr);
    raw.send(&wire::encode_frame(&Frame::Ingest {
        stream: "gated".to_string(),
        blocking: false,
        instances: (0..3).map(|i| instance(90 + i)).collect(),
    }));
    match raw.read_reply() {
        Ok(Frame::Busy { rejected }) => assert_eq!(rejected, 3, "whole batch rejected"),
        other => panic!("expected Busy, got {other:?}"),
    }

    // Client view: Busy maps onto IngestError::Full with the instances
    // riding back intact.
    let batch: Vec<Instance> = (0..3).map(|i| instance(80 + i)).collect();
    match feed.try_ingest_batch(batch.clone()) {
        Err(IngestError::Full(rejected)) => assert_eq!(rejected, batch),
        other => panic!("expected Full, got {other:?}"),
    }

    // Open the gate; everything actually queued flows through.
    {
        let (lock, condvar) = &*gate;
        lock.lock().unwrap().open = true;
        condvar.notify_all();
    }
    client.drain().expect("drain");
    let report = client.shutdown().expect("shutdown");
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].result.instances, 1 + capacity as u64);
    assert_eq!(report.frames_dropped, 0, "backpressure is not a protocol error");
    server.shutdown();
}

/// After a wire-initiated shutdown, surviving connections get
/// `Unavailable` error replies (not hangs, not panics) and the local
/// handle still returns the report the wire client received.
#[test]
fn operations_after_shutdown_answer_unavailable() {
    let server: NetServerHandle = NetServer::bind("127.0.0.1:0", small_config()).expect("bind");
    let addr = server.local_addr();

    let first = NetClient::connect(addr).expect("connect first");
    let survivor = NetClient::connect(addr).expect("connect survivor");
    first
        .attach("feed", StreamSchema::new("feed", 2, 2), &DetectorSpec::new("rddm"))
        .expect("attach")
        .ingest_batch(vec![Instance::with_index(vec![0.1, 0.9], 1, 0)])
        .expect("ingest");
    first.drain().expect("drain");
    let report = first.shutdown().expect("wire shutdown");
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].result.instances, 1);

    let is_unavailable = |err: rbm_im_net::NetError| {
        matches!(err, rbm_im_net::NetError::Remote { code: ErrorCode::Unavailable, .. })
    };
    assert!(is_unavailable(survivor.drain().expect_err("drain after shutdown")));
    assert!(is_unavailable(survivor.detach("feed").expect_err("detach after shutdown")));
    assert!(is_unavailable(
        survivor
            .attach("late", StreamSchema::new("late", 2, 2), &DetectorSpec::new("rddm"))
            .expect_err("attach after shutdown")
    ));
    assert!(is_unavailable(survivor.shutdown().expect_err("second shutdown")));

    // The local handle returns the same (stashed) report.
    let local = server.shutdown();
    assert_eq!(local.streams.len(), 1);
    assert_eq!(local.streams[0].result.instances, 1);
}

/// Crash mid-frame on the reply path: the chaos plane cuts a reply in
/// half between the write and the flush of the rest (the same wire state
/// a server killed mid-reply leaves behind). The client surfaces a clean
/// error — never a hang, never a garbage decode adopted as truth — the
/// connection is dead afterwards, and a fresh connection finds the stream
/// intact with every pre-crash instance still counted.
#[test]
fn truncated_reply_mid_frame_surfaces_cleanly_and_reconnect_recovers() {
    let plane = Arc::new(FaultPlane::new(FaultConfig::quiet(0x7e57_0001)));
    let server = NetServer::bind_with_faults(
        "127.0.0.1:0",
        small_config(),
        Arc::new(DetectorRegistry::with_defaults()),
        Some(Arc::clone(&plane)),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Clean phase: nothing armed, the connection behaves normally.
    let client = NetClient::connect(addr).expect("connect");
    let feed = client
        .attach("crashy", StreamSchema::new("crashy", 2, 2), &DetectorSpec::new("rddm"))
        .expect("attach");
    feed.ingest_batch((0..20).map(|i| Instance::with_index(vec![0.4, 0.6], 0, i)).collect())
        .expect("clean ingest");
    client.drain().expect("clean drain");

    // The next reply is truncated at the midpoint and the connection
    // aborted — exactly a kill between reply write and flush.
    plane.arm(FaultSite::NetTruncate, 1);
    let crashed = client.drain().expect_err("a half-written reply must surface as an error");
    assert!(
        matches!(crashed, rbm_im_net::NetError::Io(_) | rbm_im_net::NetError::Wire(_)),
        "truncation is a transport/decode error, got {crashed:?}"
    );
    assert_eq!(plane.injected(FaultSite::NetTruncate), 1, "exactly one injected truncation");

    // The dead connection stays dead: no silent resynchronization.
    assert!(client.drain().is_err(), "the aborted connection must not come back");

    // Reconnect semantics: the stream and its state live on the server,
    // not the connection. A fresh client resumes it mid-stream.
    let reconnected = NetClient::connect(addr).expect("reconnect");
    let feed = reconnected.client("crashy");
    feed.ingest_batch((0..20).map(|i| Instance::with_index(vec![0.4, 0.6], 1, 20 + i)).collect())
        .expect("ingest after reconnect");
    reconnected.drain().expect("drain after reconnect");
    let result = reconnected.detach("crashy").expect("detach after reconnect");
    assert_eq!(result.instances, 40, "no pre-crash instance was lost");
    assert_server_healthy(addr, "probe-after-reply-truncation");

    let report = server.shutdown();
    assert_eq!(report.panicked_shards, 0);
}

/// The truncation + byte-flip sweep again, this time with the chaos
/// plane live underneath: random hibernate/rehydrate cycles inside the
/// shard worker, delayed replies on the wire, and a [`SnapshotSink`]
/// whose I/O injects ENOSPC and corrupt-on-read while wire-fetched
/// checkpoints are spilled mid-barrage. Malformed bytes plus injected
/// faults must still never panic the plane or lose the live stream.
#[test]
fn fuzz_sweep_survives_an_active_fault_plane_and_faulted_spills() {
    let plane = Arc::new(FaultPlane::new(FaultConfig {
        hibernate: FaultRate::every(0.05),
        net_delay: FaultRate::every(0.25),
        net_delay_ms: 1,
        spill_enospc: FaultRate::every(0.25),
        spill_corrupt_read: FaultRate::every(0.25),
        ..FaultConfig::quiet(0xfa57_c4a0)
    }));
    let server = NetServer::bind_with_faults(
        "127.0.0.1:0",
        small_config(),
        Arc::new(DetectorRegistry::with_defaults()),
        Some(Arc::clone(&plane)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let dir = std::env::temp_dir().join(format!(
        "rbm-net-chaos-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = SnapshotSink::new(&dir)
        .expect("sink")
        .with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));

    // A live stream keeps real state in play while the barrage runs.
    let client = NetClient::connect(addr).expect("connect");
    let feed = client
        .attach(
            "fz-live",
            StreamSchema::new("fz-live", 3, 2),
            &DetectorSpec::parse("adwin(delta=0.01)").expect("spec"),
        )
        .expect("attach");

    let request_frames: Vec<(&str, Vec<u8>)> = vec![
        (
            "attach",
            wire::encode_frame(&Frame::Attach {
                stream: "fz".to_string(),
                schema: StreamSchema::new("fz", 3, 2),
                spec: "adwin(delta=0.01)".to_string(),
                run: Some(RunConfig::default()),
            }),
        ),
        (
            // NOT the live stream: a byte flip can leave an Ingest frame
            // decodable, and a decodable ingest into the live stream
            // would (correctly) change its instance count.
            "ingest",
            wire::encode_frame(&Frame::Ingest {
                stream: "fz-nobody".to_string(),
                blocking: false,
                instances: vec![Instance::with_index(vec![0.25, 0.5, 0.75], 1, 0)],
            }),
        ),
        ("checkpoint", wire::encode_frame(&Frame::Checkpoint { stream: "fz-live".to_string() })),
        ("drain", wire::encode_frame(&Frame::Drain)),
    ];

    let mut ingested = 0u64;
    let mut failed_spills = 0u64;
    for (round, (name, bytes)) in request_frames.iter().enumerate() {
        for &cut in
            [1usize, 6, 10, bytes.len() / 2, bytes.len() - 1].iter().filter(|&&c| c < bytes.len())
        {
            let mut conn = RawConn::open(addr);
            conn.send(&bytes[..cut]);
            conn.close_write();
            conn.drain_replies();
        }
        for pos in (0..bytes.len()).filter(|&i| i < 32 || i % 11 == 0) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0xA5;
            if pos == 10 && mutated[10] == FT_SHUTDOWN {
                continue;
            }
            let mut conn = RawConn::open(addr);
            conn.send(&mutated);
            conn.close_write();
            conn.drain_replies();
        }

        // Interleave real traffic with the garbage: ingest (hibernate
        // chaos thrashes the worker underneath), checkpoint over the
        // wire, spill through the faulted sink, read it back.
        feed.ingest_batch(
            (0..25)
                .map(|i| Instance::with_index(vec![0.2, 0.5, 0.8], (i % 2) as usize, ingested + i))
                .collect(),
        )
        .expect("live ingest under chaos");
        ingested += 25;
        client.drain().expect("live drain under chaos");
        let checkpoint = client.checkpoint_stream("fz-live").expect("checkpoint over the wire");
        match sink.spill_checkpoint(&checkpoint) {
            Ok(_) => match sink.load_checkpoint("fz-live") {
                Ok(Some(loaded)) => assert_eq!(loaded.stream, "fz-live"),
                Ok(None) => panic!("spilled checkpoint vanished"),
                Err(_) => {} // injected corrupt-on-read: a clean load error
            },
            Err(error) => {
                assert!(
                    error.to_string().contains("chaos: injected"),
                    "only injected faults may fail the spill: {error}"
                );
                failed_spills += 1;
            }
        }
        assert_server_healthy(addr, &format!("probe-round-{round}-{name}"));
    }

    // Deterministic floor on spill-fault coverage: an armed burst fails
    // the final spill with certainty, whatever the rate draws did.
    plane.arm(FaultSite::SpillEnospc, 1);
    let last = client.checkpoint_stream("fz-live").expect("final checkpoint");
    let error = sink.spill_checkpoint(&last).expect_err("armed ENOSPC must fail the spill");
    assert!(error.to_string().contains("chaos: injected ENOSPC"), "got: {error}");
    failed_spills += 1;

    assert!(plane.injected(FaultSite::NetDelay) > 0, "reply delays must have fired");
    assert!(plane.injected(FaultSite::SpillEnospc) >= 1, "ENOSPC must have fired");
    assert!(failed_spills >= 1);

    let result = client.detach("fz-live").expect("detach the live stream");
    assert_eq!(result.instances, ingested, "no live instance lost under the barrage");
    let report = server.shutdown();
    assert!(report.frames_dropped > 0, "the barrage must have produced counted drops");
    assert_eq!(report.panicked_shards, 0, "no shard worker panicked under chaos");
    let _ = std::fs::remove_dir_all(&dir);
}
