//! The serving workloads: `serve-rbf5` (in-process, closed loop),
//! `tiered-open` (in-process, open loop under a hot-stream cap) and
//! `wire-adwin` (RBMW over loopback TCP, closed loop).
//!
//! One generator thread drives every workload. It records, per accepted
//! message, the owning shard's cumulative accepted-instance count; shards
//! process their queue in FIFO order, so the message is done once the
//! shard's `rbm_serve_processed_instances_total` counter reaches that
//! count. Polling the counter from the generator gives each message's
//! sojourn without code inside the program.

use crate::feeds::{replay, same_output, Feed, BATCH};
use crate::layers;
use crate::trace::{SpanLog, ROOT};
use crate::util::{median, quantile, sorted, thread_cpu_seconds, RssPeak, SplitMix, Windows};
use crate::Outcome;
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_net::{NetClient, NetServer, NetServerHandle, NetStreamClient};
use rbm_im_obs::{Counter, MetricsRegistry};
use rbm_im_serve::{
    deterministic_spec, CheckpointPolicy, IngestError, ServeConfig, ServeEventKind, ServeReport,
    ServerHandle, SnapshotSink, StreamClient, StreamRouter, Supervisor, SupervisorConfig,
    SupervisorHandle, SupervisorReport, TierKind, TierPolicy,
};
use rbm_im_streams::Instance;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Longest the generator waits for the queues to empty after sending.
const SETTLE_LIMIT: Duration = Duration::from_secs(60);

/// Per-layer metrics of the tier layer, which only `tiered-open` moves.
const TIER_METRICS: [&str; 7] = [
    "serve.hibernations",
    "serve.rehydrations",
    "serve.rehydrate_ratio",
    "serve.hot_streams_max",
    "supervisor.spills",
    "supervisor.errors",
    "loadgen.late_p99_us",
];

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 `RBF5` streams on `rbm`, in-process, blocking round-robin ingest.
    Serve,
    /// 512 `RBF5` streams, alternating `rbm`/`adwin`, 64 hot at most,
    /// `try_ingest_batch` to random streams at a fixed 50k inst/s.
    Tiered,
    /// 64 `RBF5` streams on `adwin` behind `NetServer` on loopback.
    Wire,
}

impl Kind {
    fn streams(self) -> usize {
        match self {
            Kind::Tiered => 512,
            Kind::Serve | Kind::Wire => 64,
        }
    }

    /// Recorded instances per stream (the replay cycles over them).
    fn feed_len(self) -> usize {
        match self {
            Kind::Tiered => 500,
            Kind::Serve | Kind::Wire => 2000,
        }
    }

    fn queue_capacity(self) -> usize {
        match self {
            // About a second of the open loop's traffic per shard, so the
            // queues absorb rehydration stalls instead of rejecting.
            Kind::Tiered => 1024,
            Kind::Serve | Kind::Wire => 256,
        }
    }

    /// Offered load of the open loop, in instances per second.
    fn open_rate(self) -> Option<f64> {
        match self {
            Kind::Tiered => Some(50_000.0),
            Kind::Serve | Kind::Wire => None,
        }
    }

    fn spec(self, stream: usize) -> DetectorSpec {
        let text = match self {
            Kind::Serve => "rbm(minibatch=50)",
            Kind::Tiered if stream.is_multiple_of(2) => "rbm(minibatch=50)",
            Kind::Tiered | Kind::Wire => "adwin",
        };
        DetectorSpec::parse(text).expect("valid spec")
    }

    /// Streams whose results are replayed sequentially and compared.
    fn checked_streams(self) -> &'static [usize] {
        match self {
            Kind::Tiered => &[0, 1, 170, 171, 340, 341, 510, 511],
            Kind::Serve | Kind::Wire => &[0, 21, 42, 63],
        }
    }
}

fn serve_config(kind: Kind) -> ServeConfig {
    ServeConfig {
        num_shards: SHARDS,
        queue_capacity: kind.queue_capacity(),
        ..ServeConfig::default()
    }
}

/// A stream's ingest handle, in-process or over the wire.
enum Client {
    Local(StreamClient),
    Wire(NetStreamClient),
}

impl Client {
    fn send(&self, batch: Vec<Instance>, blocking: bool) -> Result<(), IngestError> {
        match (self, blocking) {
            (Client::Local(c), true) => c.ingest_batch(batch),
            (Client::Local(c), false) => c.try_ingest_batch(batch),
            (Client::Wire(c), true) => c.ingest_batch(batch),
            (Client::Wire(c), false) => c.try_ingest_batch(batch),
        }
    }
}

/// The system under test, as started by [`setup`].
enum Plane {
    Local {
        server: Arc<ServerHandle>,
        supervisor: Option<SupervisorHandle>,
        spill: Option<PathBuf>,
    },
    Wire {
        server: NetServerHandle,
        control: NetClient,
    },
}

impl Plane {
    fn attach(&self, feed: &Feed, spec: &DetectorSpec) -> Client {
        let schema = feed.schema.clone();
        match self {
            Plane::Local { server, .. } => {
                Client::Local(server.attach(&feed.id, schema, spec).expect("attach"))
            }
            Plane::Wire { control, .. } => {
                Client::Wire(control.attach(&feed.id, schema, spec).expect("attach over the wire"))
            }
        }
    }

    fn metrics(&self) -> Arc<MetricsRegistry> {
        match self {
            Plane::Local { server, .. } => server.metrics(),
            Plane::Wire { server, .. } => server.metrics(),
        }
    }

    fn drain(&self) -> bool {
        match self {
            Plane::Local { server, .. } => {
                server.drain();
                true
            }
            Plane::Wire { control, .. } => control.drain().is_ok(),
        }
    }

    /// Hot streams right now (a tier scan; it queues behind ingest).
    fn hot_streams(&self) -> usize {
        match self {
            Plane::Local { server, .. } => {
                server.tier_scan().iter().filter(|e| e.tier == TierKind::Hot).count()
            }
            Plane::Wire { control, .. } => control.health().map_or(0, |h| h.hot_streams),
        }
    }

    fn shutdown(self) -> (Option<ServeReport>, Option<SupervisorReport>) {
        match self {
            Plane::Local { server, supervisor, spill } => {
                let supervised = supervisor.map(SupervisorHandle::stop);
                let report = Arc::try_unwrap(server).ok().map(ServerHandle::shutdown);
                if let Some(dir) = spill {
                    let _ = std::fs::remove_dir_all(dir);
                }
                (report, supervised)
            }
            Plane::Wire { server, control } => {
                let report = control.shutdown().ok();
                server.shutdown();
                (report, None)
            }
        }
    }
}

struct Setup {
    feeds: Vec<Feed>,
    plane: Plane,
    clients: Vec<Client>,
    gen_seconds: f64,
    seconds: f64,
    attach_us: Vec<f64>,
}

/// Feed generation, server start (and bind, for the wire) and attach of
/// every stream. The RSS baseline is taken after generation, before the
/// server starts, when `rss` is still unset.
fn setup(kind: Kind, seed: u64, slot: usize, rss: &mut Option<RssPeak>) -> Setup {
    let t = Instant::now();
    let feeds = Feed::fleet("RBF5", "feed", kind.streams(), seed, kind.feed_len());
    let gen_seconds = t.elapsed().as_secs_f64();
    if rss.is_none() {
        *rss = Some(RssPeak::new());
    }
    let plane = if kind == Kind::Wire {
        let server = NetServer::bind("127.0.0.1:0", serve_config(kind)).expect("loopback bind");
        let control = NetClient::connect(server.local_addr()).expect("loopback connect");
        Plane::Wire { server, control }
    } else {
        let server = Arc::new(ServerHandle::start(serve_config(kind)));
        let (supervisor, spill) = if kind == Kind::Tiered {
            let dir =
                Path::new(crate::OUT_DIR).join(format!("spill-{}-{slot}", std::process::id()));
            let sink = SnapshotSink::new(&dir).expect("the spill directory is writable");
            let config = SupervisorConfig {
                tick: Duration::from_millis(2),
                checkpoint: Some(CheckpointPolicy {
                    every: Duration::from_secs(5),
                    ..Default::default()
                }),
                resize: None,
                tier: Some(TierPolicy::default().with_max_hot_streams(64)),
            };
            (Some(Supervisor::start(Arc::clone(&server), sink, config)), Some(dir))
        } else {
            (None, None)
        };
        Plane::Local { server, supervisor, spill }
    };
    let mut attach_us = Vec::with_capacity(feeds.len());
    let clients = feeds
        .iter()
        .enumerate()
        .map(|(i, feed)| {
            let t = Instant::now();
            let client = plane.attach(feed, &kind.spec(i));
            attach_us.push(t.elapsed().as_secs_f64() * 1e6);
            client
        })
        .collect();
    Setup { feeds, plane, clients, gen_seconds, seconds: t.elapsed().as_secs_f64(), attach_us }
}

/// What one send phase observed. Sojourns and round trips are grouped
/// into one-second windows by when they were observed.
struct Phase {
    start: Instant,
    /// Whole one-second windows the send loop covered.
    windows: usize,
    sojourn_us: Windows,
    rtt_us: Windows,
    /// Instances processed per second, one reading per window.
    rates: Vec<f64>,
    late_us: Vec<f64>,
    queue_depth: Vec<f64>,
    attempted: u64,
    rejected: u64,
    errors: u64,
    polls: u64,
    wall_s: f64,
    cpu_s: f64,
    drain_ms: f64,
    hot_max: usize,
}

impl Phase {
    fn new(start: Instant, duration: Duration) -> Self {
        Phase {
            start,
            windows: duration.as_secs() as usize,
            sojourn_us: Windows::default(),
            rtt_us: Windows::default(),
            rates: Vec::new(),
            late_us: Vec::new(),
            queue_depth: Vec::new(),
            attempted: 0,
            rejected: 0,
            errors: 0,
            polls: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            drain_ms: 0.0,
            hot_max: 0,
        }
    }

    fn window(&self, at: Instant) -> usize {
        (at - self.start).as_secs() as usize
    }

    /// Median over windows of the instances processed per second.
    fn throughput(&self) -> f64 {
        median(&self.rates)
    }
}

/// The load generator and its sojourn probe.
struct LoadGen<'a> {
    feeds: &'a [Feed],
    clients: &'a [Client],
    shard_of: Vec<usize>,
    processed: Vec<Arc<Counter>>,
    messages: Vec<(Arc<Counter>, Arc<Counter>)>,
    /// Accepted messages per stream.
    sent: Vec<u64>,
    /// Accepted instances per shard.
    accepted: Vec<u64>,
    /// Per shard: (accepted count that completes the message, its start).
    pending: Vec<VecDeque<(u64, Instant)>>,
    rng: SplitMix,
    next: usize,
}

impl<'a> LoadGen<'a> {
    fn new(feeds: &'a [Feed], clients: &'a [Client], metrics: &MetricsRegistry, seed: u64) -> Self {
        let router = StreamRouter::new(SHARDS);
        let counter =
            |name: &str, shard: usize| metrics.counter(name, &[("shard", &shard.to_string())]);
        LoadGen {
            feeds,
            clients,
            shard_of: feeds.iter().map(|f| router.shard_of(&f.id)).collect(),
            processed: (0..SHARDS)
                .map(|s| counter("rbm_serve_processed_instances_total", s))
                .collect(),
            messages: (0..SHARDS)
                .map(|s| {
                    (
                        counter("rbm_serve_enqueued_messages_total", s),
                        counter("rbm_serve_processed_messages_total", s),
                    )
                })
                .collect(),
            sent: vec![0; feeds.len()],
            accepted: vec![0; SHARDS],
            pending: vec![VecDeque::new(); SHARDS],
            rng: SplitMix::new(seed),
            next: 0,
        }
    }

    fn poll(&mut self, now: Instant, phase: &mut Phase) {
        phase.polls += 1;
        for (queue, processed) in self.pending.iter_mut().zip(&self.processed) {
            if queue.is_empty() {
                continue;
            }
            let done = processed.get();
            while let Some(&(count, start)) = queue.front() {
                if count > done {
                    break;
                }
                phase.sojourn_us.push(phase.window(now), (now - start).as_secs_f64() * 1e6);
                queue.pop_front();
            }
        }
    }

    /// Sends for `duration` (closed loop when `rate` is `None`, else an
    /// open loop at `rate` instances per second), waits until every
    /// accepted message is processed, then drains.
    fn run(
        &mut self,
        plane: &Plane,
        rate: Option<f64>,
        duration: Duration,
        rss: &mut RssPeak,
        mut log: Option<&mut SpanLog>,
        scan_tiers: bool,
    ) -> Phase {
        let interval_ns = rate.map(|r| 1e9 * BATCH as f64 / r);
        let start = Instant::now();
        let mut p = Phase::new(start, duration);
        let cpu_start = thread_cpu_seconds();
        let (mut next_depth, mut next_scan) = (start, start);
        let processed_total = |d: &Self| d.processed.iter().map(|c| c.get()).sum::<u64>();
        let mut mark = (start, processed_total(self));
        loop {
            let now = Instant::now();
            if now - start >= duration {
                break;
            }
            if now - mark.0 >= Duration::from_secs(1) {
                let total = processed_total(self);
                p.rates.push((total - mark.1) as f64 / (now - mark.0).as_secs_f64());
                mark = (now, total);
            }
            if log.is_some() && now >= next_depth {
                for (enqueued, processed) in &self.messages {
                    p.queue_depth.push(enqueued.get().saturating_sub(processed.get()) as f64);
                }
                next_depth = now + Duration::from_millis(1);
            }
            if scan_tiers && now >= next_scan {
                p.hot_max = p.hot_max.max(plane.hot_streams());
                next_scan = Instant::now() + Duration::from_millis(250);
            }
            let due = match interval_ns {
                Some(ns) => start + Duration::from_nanos((ns * p.attempted as f64) as u64),
                None => now,
            };
            if now < due {
                self.poll(now, &mut p);
                rss.tick(now);
                std::thread::yield_now();
                continue;
            }
            let stream = match interval_ns {
                Some(_) => {
                    p.late_us.push((now - due).as_secs_f64() * 1e6);
                    self.rng.below(self.feeds.len())
                }
                None => {
                    let stream = self.next;
                    self.next = (stream + 1) % self.feeds.len();
                    stream
                }
            };
            let batch = self.feeds[stream].message(self.sent[stream]).to_vec();
            let t0 = Instant::now();
            let result = self.clients[stream].send(batch, rate.is_none());
            let t1 = Instant::now();
            p.rtt_us.push(p.window(t1), (t1 - t0).as_secs_f64() * 1e6);
            p.attempted += 1;
            if let Some(log) = log.as_deref_mut() {
                log.record("serve.ingest", t0, t1, ROOT);
            }
            match result {
                Ok(()) => {
                    self.sent[stream] += 1;
                    let shard = self.shard_of[stream];
                    self.accepted[shard] += BATCH as u64;
                    let begun = if rate.is_some() { due } else { t0 };
                    self.pending[shard].push_back((self.accepted[shard], begun));
                }
                Err(IngestError::Full(_)) => p.rejected += 1,
                Err(IngestError::Closed(_)) => p.errors += 1,
            }
            self.poll(t1, &mut p);
            rss.tick(t1);
        }
        let deadline = Instant::now() + SETTLE_LIMIT;
        while self.pending.iter().any(|q| !q.is_empty()) {
            let now = Instant::now();
            self.poll(now, &mut p);
            rss.tick(now);
            if now > deadline {
                p.errors += self.pending.iter().map(|q| q.len() as u64).sum::<u64>();
                self.pending.iter_mut().for_each(VecDeque::clear);
                break;
            }
            std::thread::yield_now();
        }
        let drain_start = Instant::now();
        if !plane.drain() {
            p.errors += 1;
        }
        let end = Instant::now();
        p.drain_ms = (end - drain_start).as_secs_f64() * 1e3;
        p.wall_s = (end - start).as_secs_f64();
        p.cpu_s = thread_cpu_seconds() - cpu_start;
        p
    }
}

/// Output check: exact accounting, no panicked shard, and the sampled
/// streams' results bitwise equal to a sequential replay of exactly the
/// messages they accepted. Returns the number of failed checks.
fn verify(kind: Kind, report: Option<&ServeReport>, feeds: &[Feed], sent: &[u64]) -> u64 {
    let Some(report) = report else {
        return 1;
    };
    let mut failures = 0;
    if report.panicked_shards != 0 {
        failures += 1;
    }
    if report.total_instances() != sent.iter().sum::<u64>() * BATCH as u64 {
        failures += 1;
    }
    let config = serve_config(kind);
    for &stream in kind.checked_streams() {
        let feed = &feeds[stream];
        let spec = deterministic_spec(
            DetectorRegistry::global(),
            config.base_seed,
            &feed.id,
            &kind.spec(stream),
        );
        let expected = replay(feed, sent[stream], &spec, config.run);
        let served = report.streams.iter().find(|s| s.stream == feed.id);
        if !served.is_some_and(|s| same_output(&s.result, &expected)) {
            failures += 1;
        }
    }
    failures
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut rss = None;
    let first = setup(kind, seed, 0, &mut rss);
    let mut rss = rss.expect("set during setup");
    let Setup { feeds, plane, clients, gen_seconds, seconds: first_setup, attach_us } = first;
    let metrics = plane.metrics();
    let duration = Duration::from_secs_f64(seconds);

    let mut out = Outcome::default();
    let mut loadgen = LoadGen::new(&feeds, &clients, &metrics, seed);
    let rate = kind.open_rate();
    let mut log = SpanLog::new();
    let (untraced, traced) = if trace {
        let untraced = loadgen.run(&plane, rate, duration / 2, &mut rss, None, false);
        let events = match &plane {
            Plane::Local { server, .. } => Some(server.subscribe()),
            Plane::Wire { .. } => None,
        };
        let traced =
            loadgen.run(&plane, rate, duration / 2, &mut rss, Some(&mut log), kind == Kind::Tiered);
        // Counted now: shutdown rehydrates every cold stream.
        let (mut hibernations, mut rehydrations) = (0u64, 0u64);
        for event in events.iter().flat_map(|rx| rx.try_iter()) {
            match event.kind {
                ServeEventKind::Hibernated { .. } => hibernations += 1,
                ServeEventKind::Rehydrated { .. } => rehydrations += 1,
                _ => {}
            }
        }
        let hot_after = if kind == Kind::Tiered { 0 } else { plane.hot_streams() };
        (untraced, Some((traced, hibernations, rehydrations, hot_after)))
    } else {
        (loadgen.run(&plane, rate, duration, &mut rss, None, false), None)
    };
    rss.sample();
    let busy = metrics.counter("rbm_net_busy_total", &[]).get();
    let sent = loadgen.sent.clone();
    drop(loadgen);
    drop(clients);
    let (report, supervised) = plane.shutdown();
    let mismatches = verify(kind, report.as_ref(), &feeds, &sent);

    let mut setups = vec![first_setup];
    for slot in 1..SETUPS {
        let mut ignored = Some(RssPeak::new());
        let extra = setup(kind, seed, slot, &mut ignored);
        setups.push(extra.seconds);
        drop(extra.clients);
        extra.plane.shutdown();
    }

    let phases: Vec<&Phase> =
        std::iter::once(&untraced).chain(traced.as_ref().map(|t| &t.0)).collect();
    let supervisor_errors = supervised.as_ref().map_or(0, |r| r.errors.len() as u64);
    out.attempted = phases.iter().map(|p| p.attempted).sum();
    out.failed =
        phases.iter().map(|p| p.rejected + p.errors).sum::<u64>() + supervisor_errors + mismatches;
    let streams = report.as_ref().map_or(&[][..], |r| &r.streams[..]);
    let mean = |f: fn(&RunResult) -> f64| {
        streams.iter().map(|s| f(&s.result)).sum::<f64>() / streams.len().max(1) as f64
    };

    let m = &mut out.metrics;
    let Some((traced, hibernations, rehydrations, hot_after)) = traced else {
        let (sojourn, rtt, windows) = (&untraced.sojourn_us, &untraced.rtt_us, untraced.windows);
        m.put("throughput_ips", untraced.throughput(), "inst/s");
        m.put("sojourn_p50_us", sojourn.median_of(windows, 0.5), "us");
        m.put("ingest_rtt_p50_us", rtt.median_of(windows, 0.5), "us");
        m.put("setup_s", median(&setups), "s");
        m.put("server_rss_mib", rss.growth_mib(), "MiB");
        m.put("pm_auc", mean(|r| r.pm_auc), "%");
        m.put("pm_gmean", mean(|r| r.pm_gmean), "%");
        generator_info(&mut out, &untraced);
        return out;
    };

    let run_config: RunConfig = serve_config(kind).run;
    let scratch = Path::new(crate::OUT_DIR).join(format!("sink-{}", std::process::id()));
    out.failed += layers::stage_ledger(&feeds[0], 1000, &kind.spec(0), run_config, &mut log, m);
    out.failed += layers::kernel_codec_wire(&feeds[0], seed, run_config, &scratch, &mut log, m);
    let instances = (kind.streams() * kind.feed_len()) as f64;
    m.put("streams.gen_ns_per_inst", gen_seconds * 1e9 / instances, "ns");
    let calls = sorted(log.durations_ns("serve.ingest"));
    m.put("serve.enqueue_ns", quantile(&calls, 0.5), "ns");
    m.put("serve.blocked_ns", quantile(&calls, 0.9), "ns");
    let depth = sorted(traced.queue_depth.clone());
    m.put("serve.queue_depth_p50", quantile(&depth, 0.5), "msgs");
    m.put("serve.queue_depth_p99", quantile(&depth, 0.99), "msgs");
    let mut per_shard = [0u64; SHARDS];
    for s in streams {
        per_shard[s.shard.min(SHARDS - 1)] += s.result.instances;
    }
    let (max, min) = (per_shard.iter().max(), per_shard.iter().min());
    let skew = *max.expect("SHARDS > 0") as f64 / (*min.expect("SHARDS > 0")).max(1) as f64;
    m.put("serve.shard_skew", skew, "ratio");
    m.put("serve.hibernations", hibernations as f64, "count");
    m.put("serve.rehydrations", rehydrations as f64, "count");
    m.put("serve.rehydrate_ratio", rehydrations as f64 / traced.attempted.max(1) as f64, "ratio");
    m.put("serve.hot_streams_max", traced.hot_max.max(hot_after) as f64, "count");
    m.put("serve.attach_us", median(&attach_us), "us");
    m.put("serve.drain_ms", traced.drain_ms, "ms");
    let (spills, sup_errors) =
        supervised.map_or((0, 0), |r| (r.periodic_spills + r.urgent_spills, r.errors.len()));
    m.put("supervisor.spills", spills as f64, "count");
    m.put("supervisor.errors", sup_errors as f64, "count");
    m.put("net.busy_replies", busy as f64, "count");
    m.put("loadgen.late_p99_us", quantile(&sorted(traced.late_us.clone()), 0.99), "us");
    m.put("loadgen.cpu_frac", traced.cpu_s / traced.wall_s, "ratio");
    m.put("loadgen.probe_resolution_us", traced.wall_s * 1e6 / traced.polls.max(1) as f64, "us");
    m.put("loadgen.sojourn_samples", traced.sojourn_us.count(traced.windows) as f64, "count");
    m.put("trace.overhead_frac", untraced.throughput() / traced.throughput() - 1.0, "ratio");
    generator_info(&mut out, &traced);
    out.spans = Some(log);
    if kind == Kind::Serve {
        // The tier layer only works under the open loop (see `Kind::Tiered`);
        // serve-rbf5's ledger carries a traced tiered-open run's tier figures.
        let tier = run(Kind::Tiered, seed, seconds / 2.0, true);
        out.attempted += tier.attempted;
        out.failed += tier.failed;
        for name in TIER_METRICS {
            out.metrics.put(name, tier.metrics.get(name).unwrap_or(0.0), "count");
        }
    }
    out
}

/// Generator honesty: sample counts, probe resolution, CPU use, lateness.
fn generator_info(out: &mut Outcome, phase: &Phase) {
    let late = sorted(phase.late_us.clone());
    let rates: Vec<String> = phase.rates.iter().map(|r| format!("{r:.0}")).collect();
    out.info.push(("window_rates", rates.join(" ")));
    let (sojourn, rtt, windows) = (&phase.sojourn_us, &phase.rtt_us, phase.windows);
    out.info.push(("sojourn_samples", sojourn.count(windows).to_string()));
    out.info.push(("sojourn_p99_us", format!("{:.1}", sojourn.median_of(windows, 0.99))));
    out.info.push(("rtt_samples", rtt.count(windows).to_string()));
    out.info.push(("ingest_rtt_p99_us", format!("{:.1}", rtt.median_of(windows, 0.99))));
    out.info.push((
        "probe_resolution_us",
        format!("{:.3}", phase.wall_s * 1e6 / phase.polls.max(1) as f64),
    ));
    out.info.push(("generator_cpu_frac", format!("{:.3}", phase.cpu_s / phase.wall_s)));
    out.info.push(("late_p99_us", format!("{:.1}", quantile(&late, 0.99))));
    out.info.push(("rejected", phase.rejected.to_string()));
}
