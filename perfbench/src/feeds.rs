//! Seeded input generation and the sequential reference replay every
//! output check compares against.
//!
//! Feeds are recorded once per run from Table I's registry and replayed
//! cyclically in 50-instance messages, so a run's length does not change
//! its memory footprint. A stream's accepted messages are always a prefix
//! of its cyclic replay, which is what lets [`replay`] reproduce it.

use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};
use rbm_im_streams::{derive_stream_seed, DataStream, Instance, StreamExt, StreamSchema};

/// Instances per ingest message and per detector mini-batch.
pub const BATCH: usize = 50;

/// One stream's recorded instances.
pub struct Feed {
    /// Stream id.
    pub id: String,
    /// Stream schema.
    pub schema: StreamSchema,
    /// The recording, a multiple of [`BATCH`] long.
    pub instances: Vec<Instance>,
}

impl Feed {
    /// Records the first `take` instances of Table I benchmark `benchmark`
    /// (dynamic imbalance, three drifts over the scaled length).
    pub fn record(benchmark: &str, id: String, seed: u64, scale_divisor: u64, take: usize) -> Feed {
        assert_eq!(take % BATCH, 0, "feeds hold whole messages");
        let spec = benchmark_by_name(benchmark).expect("a Table I benchmark name");
        let config = BuildConfig { seed, scale_divisor, n_drifts: 3, dynamic_imbalance: true };
        let mut stream = spec.build(&config);
        let schema = stream.schema().clone();
        let instances = stream.take_instances(take);
        assert_eq!(instances.len(), take, "{benchmark} is shorter than {take}");
        Feed { id, schema, instances }
    }

    /// `count` feeds named `{prefix}-{i:03}`, each seeded from the run seed
    /// and its own id.
    pub fn fleet(benchmark: &str, prefix: &str, count: usize, seed: u64, take: usize) -> Vec<Feed> {
        (0..count)
            .map(|i| {
                let id = format!("{prefix}-{i:03}");
                let stream_seed = derive_stream_seed(seed, &id);
                Feed::record(benchmark, id, stream_seed, 500, take)
            })
            .collect()
    }

    /// Message `k` of the cyclic replay.
    pub fn message(&self, k: u64) -> &[Instance] {
        let start = (k as usize * BATCH) % self.instances.len();
        &self.instances[start..start + BATCH]
    }
}

/// The first `total` instances of a feed's cyclic replay, as a stream.
pub struct CycleStream<'a> {
    feed: &'a Feed,
    next: usize,
    total: usize,
}

impl<'a> CycleStream<'a> {
    /// A stream over `total` instances of `feed`, wrapping around.
    pub fn new(feed: &'a Feed, total: usize) -> Self {
        CycleStream { feed, next: 0, total }
    }
}

impl DataStream for CycleStream<'_> {
    fn next_instance(&mut self) -> Option<Instance> {
        if self.next >= self.total {
            return None;
        }
        let instance = self.feed.instances[self.next % self.feed.instances.len()].clone();
        self.next += 1;
        Some(instance)
    }

    fn schema(&self) -> &StreamSchema {
        &self.feed.schema
    }

    fn restart(&mut self) {
        self.next = 0;
    }
}

/// Sequential reference: `PipelineBuilder` over the first `messages`
/// messages of `feed`.
pub fn replay(feed: &Feed, messages: u64, spec: &DetectorSpec, run: RunConfig) -> RunResult {
    PipelineBuilder::new()
        .stream(CycleStream::new(feed, messages as usize * BATCH))
        .stream_label(feed.id.clone())
        .detector_spec(spec.clone())
        .config(run)
        .run()
        .expect("the benchmark's detector specs resolve")
}

/// Bitwise equality of the outputs the benchmark checks: instance count,
/// drift positions, pmAUC and pmGM.
pub fn same_output(a: &RunResult, b: &RunResult) -> bool {
    a.instances == b.instances
        && a.detections == b.detections
        && a.pm_auc.to_bits() == b.pm_auc.to_bits()
        && a.pm_gmean.to_bits() == b.pm_gmean.to_bits()
}
