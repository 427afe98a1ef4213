//! Serving configuration.

use rbm_im_harness::pipeline::RunConfig;
use std::time::Duration;

/// Configuration of a [`ServerHandle`](crate::server::ServerHandle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of detector shards (dedicated worker threads). Stream ids are
    /// hashed onto shards by the [`StreamRouter`](crate::router::StreamRouter);
    /// every stream's whole pipeline state lives on exactly one shard, so
    /// shards share nothing and never lock.
    pub num_shards: usize,
    /// Bound of each shard's ingest channel, in messages (an ingest message
    /// carries one client-side micro-batch). When a shard falls behind,
    /// `try_ingest_batch` fails fast with
    /// [`IngestError::Full`](crate::server::IngestError::Full) instead of
    /// queueing unboundedly — backpressure is explicit and the caller
    /// chooses between dropping, retrying and blocking.
    pub queue_capacity: usize,
    /// Default per-stream pipeline configuration applied by
    /// [`ServerHandle::attach`](crate::server::ServerHandle::attach)
    /// (`attach_with` overrides it per stream). The default uses
    /// `detector_batch = 50` — RBM-IM's natural mini-batch — so the RBM hot
    /// path always runs the batched CD-k kernels, and emits a metric
    /// snapshot event every 1000 instances per stream.
    pub run: RunConfig,
    /// Base seed of deterministic per-stream seeding: a stream attaching
    /// with a detector spec whose factory accepts a `seed` parameter — and
    /// that does not pin one explicitly — gets
    /// `seed = derive_stream_seed(base_seed, stream_id)` injected. Streams
    /// are thereby decorrelated from each other yet fully reproducible:
    /// results depend only on `(base_seed, stream_id, spec, ingest
    /// order)`, never on shard count, shard assignment or ingest
    /// interleaving across streams.
    pub base_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            num_shards: 4,
            queue_capacity: 1024,
            run: RunConfig {
                detector_batch: 50,
                snapshot_every: Some(1_000),
                ..RunConfig::default()
            },
            base_seed: 42,
        }
    }
}

/// When streams' in-memory pipeline state is evicted to their binary
/// checkpoint (the **cold tier** — see `ARCHITECTURE.md` §9), under a
/// [`Supervisor`](crate::supervisor::Supervisor).
///
/// Two independent triggers, either of which may be disabled:
///
/// * **idle age** — the supervisor's tier pass evicts a hot stream that
///   has not ingested for [`TierPolicy::idle_after`], regardless of
///   budget;
/// * **memory budget** — while the supervisor runs, the shards hold the
///   fleet to [`TierPolicy::max_hot_streams`] hot streams at admission:
///   before a stream turns hot in a full fleet, its shard evicts its own
///   least-recently-active hot stream, however recently that stepped.
///   These evictions are dirty (encoded into memory) and reach disk
///   through the supervisor's cold-memory demotion. A shard that owns no
///   hot stream to evict takes the slot over the cap, and a cap
///   installed while more streams are hot takes effect lazily, at each
///   shard's next admission.
///
/// Hibernation is purely a residency decision: a hibernated stream stays
/// attached, transparently rehydrates on its next ingest / detach, and a
/// fleet run under any `TierPolicy` stays **bitwise identical** to the
/// same fleet always-hot and to the sequential pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPolicy {
    /// Evict hot streams idle for at least this long (`None` disables the
    /// idle-age trigger; budget pressure still evicts).
    pub idle_after: Option<Duration>,
    /// Cap on simultaneously hot streams across the fleet, enforced by
    /// the shards at admission (`None` disables budget eviction). Derive
    /// it from a byte budget with [`TierPolicy::budget_bytes`].
    pub max_hot_streams: Option<usize>,
    /// Idle evictions + cold-memory→disk demotions performed per
    /// supervisor tick: each one costs a checkpoint encode + spill (about a
    /// millisecond per stream; the repository benchmark reports
    /// `checkpoint.encode_us` and `sink.spill_us`), so huge fleets drain
    /// toward cold over a few ticks instead of stalling one tick for
    /// seconds.
    pub max_demotions_per_tick: usize,
}

impl TierPolicy {
    /// Engineering estimate of one hot stream's resident footprint: its
    /// stepper (classifier, detector, metric windows). Measured on streams
    /// warmed on 2,000 `RBF5` instances (detector batch 50, window 1000):
    /// 84,436 heap bytes for `rbm(minibatch=50)` and 65,813 for `adwin`.
    /// RBM training scratch is not per stream: each shard worker thread
    /// keeps one (37,312 bytes for `RBF5`) for all its streams.
    /// `tests/footprint.rs` recounts these figures and pins each stepper
    /// under this estimate. Used by [`TierPolicy::budget_bytes`].
    pub const APPROX_HOT_STREAM_BYTES: u64 = 96 * 1024;

    /// Idle-age-only policy: evict after `idle_after` without a hot cap.
    pub fn idle(idle_after: Duration) -> Self {
        TierPolicy { idle_after: Some(idle_after), ..Self::default() }
    }

    /// Budget-driven policy: size the hot tier to roughly `bytes` of
    /// resident stream state (`max_hot_streams = bytes /`
    /// [`APPROX_HOT_STREAM_BYTES`](Self::APPROX_HOT_STREAM_BYTES), at
    /// least 1), with the default idle-age trigger on top.
    pub fn budget_bytes(bytes: u64) -> Self {
        let max_hot = (bytes / Self::APPROX_HOT_STREAM_BYTES).max(1) as usize;
        TierPolicy { max_hot_streams: Some(max_hot), ..Self::default() }
    }

    /// Replaces the hot-stream cap.
    pub fn with_max_hot_streams(mut self, max_hot_streams: usize) -> Self {
        self.max_hot_streams = Some(max_hot_streams);
        self
    }

    /// Replaces the per-tick demotion cap.
    pub fn with_max_demotions_per_tick(mut self, cap: usize) -> Self {
        self.max_demotions_per_tick = cap.max(1);
        self
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy {
            idle_after: Some(Duration::from_secs(30)),
            max_hot_streams: None,
            max_demotions_per_tick: 1024,
        }
    }
}
