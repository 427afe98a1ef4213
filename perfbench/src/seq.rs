//! `seq-rbf10`: the paper's protocol on one thread. `PipelineBuilder` runs
//! RBM-IM (`rbm(minibatch=50)`, `detector_batch = 50`) over recorded
//! Table I `RBF10` feeds (40 features, 10 classes, IR 200, dynamic
//! imbalance, three sudden drifts), round after round until the run time
//! is up. A round runs each of the four feeds once; every pass over a feed
//! must reproduce that feed's first pass bitwise.

use crate::feeds::{same_output, CycleStream, Feed, BATCH};
use crate::layers;
use crate::trace::SpanLog;
use crate::util::{median, quantile, sorted, RssPeak, Windows};
use crate::Outcome;
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::PipelineStepper;
use rbm_im_streams::{derive_stream_seed, DataStream, Instance, StreamSchema};
use std::path::Path;
use std::time::{Duration, Instant};

/// Feeds per run: a round over several seeded feeds evens out how much
/// one seed's data (its drift resets, its tree growth) weighs on a run.
const FEEDS: usize = 4;
/// Scale divisor of the Table I length: 1M / 80 = 12.5k instances.
const SCALE: u64 = 80;
const LENGTH: usize = 12_500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The share of slowest-first rounds a run's figures sit at (see `run`).
const FASTEST: f64 = 0.1;

fn spec() -> DetectorSpec {
    DetectorSpec::parse("rbm(minibatch=50)").expect("valid spec")
}

fn run_config() -> RunConfig {
    RunConfig { detector_batch: BATCH, ..RunConfig::default() }
}

/// Feed generation plus building each feed's pipeline stepper; returns the
/// feeds and the seconds it took.
fn setup(seed: u64) -> (Vec<Feed>, f64) {
    let t = Instant::now();
    let feeds: Vec<Feed> = (0..FEEDS)
        .map(|i| {
            let id = format!("rbf10-{i}");
            let feed =
                Feed::record("RBF10", id.clone(), derive_stream_seed(seed, &id), SCALE, LENGTH);
            let stepper = PipelineStepper::from_spec(
                DetectorRegistry::global(),
                &spec(),
                &feed.schema,
                run_config(),
            );
            drop(stepper.expect("the spec resolves"));
            feed
        })
        .collect();
    (feeds, t.elapsed().as_secs_f64())
}

/// Marks the start of every message and samples RSS while the pipeline
/// pulls instances, so per-message latency needs no code in the pipeline.
struct TimedStream<'a> {
    inner: CycleStream<'a>,
    pulled: usize,
    marks: &'a mut Vec<Instant>,
    rss: &'a mut RssPeak,
}

impl DataStream for TimedStream<'_> {
    fn next_instance(&mut self) -> Option<Instance> {
        if self.pulled.is_multiple_of(BATCH) {
            let now = Instant::now();
            self.marks.push(now);
            self.rss.tick(now);
        }
        self.pulled += 1;
        self.inner.next_instance()
    }

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn restart(&mut self) {
        self.pulled = 0;
        self.inner.restart();
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (feeds, first_setup) = setup(seed);
    let mut rss = RssPeak::new();
    let mut out = Outcome::default();

    if trace {
        let mut log = SpanLog::new();
        let m = &mut out.metrics;
        out.failed += layers::stage_ledger(&feeds[0], 1000, &spec(), run_config(), &mut log, m);
        let scratch = Path::new(crate::OUT_DIR).join(format!("sink-{}", std::process::id()));
        out.failed +=
            layers::kernel_codec_wire(&feeds[0], seed, run_config(), &scratch, &mut log, m);
        m.put("streams.gen_ns_per_inst", first_setup * 1e9 / (FEEDS * LENGTH) as f64, "ns");
        out.attempted = 1000;
        out.spans = Some(log);
        return out;
    }

    // Each round is one window.
    let mut reference: Vec<RunResult> = Vec::with_capacity(FEEDS);
    let mut latencies_us = Windows::default();
    let (mut rates, mut rounds, mut mismatched) = (Vec::new(), 0usize, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rounds == 0 || Instant::now() < deadline {
        let round_start = Instant::now();
        for (i, feed) in feeds.iter().enumerate() {
            let mut marks = Vec::with_capacity(LENGTH / BATCH + 1);
            let stream = TimedStream {
                inner: CycleStream::new(feed, LENGTH),
                pulled: 0,
                marks: &mut marks,
                rss: &mut rss,
            };
            let result = PipelineBuilder::new()
                .stream(stream)
                .detector_spec(spec())
                .config(run_config())
                .run()
                .expect("the spec resolves");
            // The last mark is the exhausted pull after the final message.
            for w in marks.windows(2) {
                latencies_us.push(rounds, (w[1] - w[0]).as_secs_f64() * 1e6);
            }
            match reference.get(i) {
                None => reference.push(result),
                Some(first) if !same_output(first, &result) => mismatched += 1,
                Some(_) => {}
            }
        }
        rates.push((FEEDS * LENGTH) as f64 / round_start.elapsed().as_secs_f64());
        rounds += 1;
    }
    rss.sample();

    let mut setups = vec![first_setup];
    setups.extend((1..SETUPS).map(|_| setup(seed).1));

    // One thread and no queue: interference from other tenants of the
    // runner can only slow a round, so the run reports its fastest decile
    // of rounds (the serving workloads, whose queues move both ways, report
    // medians). The pipeline is synchronous: handing a message over
    // returns once it is processed, so its sojourn and its ingest round
    // trip coincide.
    let p50 = latencies_us.across(rounds, 0.5, FASTEST);
    let p99 = latencies_us.across(rounds, 0.99, FASTEST);
    let mean = |f: fn(&RunResult) -> f64| reference.iter().map(f).sum::<f64>() / FEEDS as f64;
    let m = &mut out.metrics;
    m.put("throughput_ips", quantile(&sorted(rates.clone()), 1.0 - FASTEST), "inst/s");
    m.put("sojourn_p50_us", p50, "us");
    m.put("ingest_rtt_p50_us", p50, "us");
    m.put("setup_s", median(&setups), "s");
    m.put("server_rss_mib", rss.growth_mib(), "MiB");
    m.put("pm_auc", mean(|r| r.pm_auc), "%");
    m.put("pm_gmean", mean(|r| r.pm_gmean), "%");
    let messages = (FEEDS * LENGTH / BATCH) as u64;
    out.attempted = rounds as u64 * messages;
    out.failed = mismatched * (LENGTH / BATCH) as u64;

    let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    out.info.push(("window_rates", rates.join(" ")));
    out.info.push(("latency_samples", latencies_us.count(rounds).to_string()));
    out.info.push(("sojourn_p99_us", format!("{p99:.1}")));
    let detections: Vec<String> =
        reference.iter().map(|r| r.detections.len().to_string()).collect();
    out.info.push(("detections_per_feed", detections.join(" ")));
    out
}
