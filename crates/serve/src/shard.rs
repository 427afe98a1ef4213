//! Shard worker threads: each shard exclusively owns the pipeline state of
//! the streams routed to it.
//!
//! A shard is a plain loop over its bounded ingest channel. All state —
//! classifier, detector, prequential evaluator, and the one RBM training
//! scratch (`rbm_im::Workspace`) that every RBM stream on the shard
//! borrows in turn — lives on the worker thread; correctness needs no
//! locks because nothing is shared. Per-stream instance order is the
//! channel order, so results are independent of how streams interleave:
//! every stream steps through exactly the code a
//! sequential [`PipelineBuilder`](rbm_im_harness::pipeline::PipelineBuilder)
//! run executes ([`PipelineStepper`]).
//!
//! On top of ingest, workers speak the **migration protocol** that powers
//! elastic resharding (`ServerHandle::resize_shards`) and
//! restart-from-disk:
//!
//! * `Park` marks stream ids whose ingest should be *buffered* instead of
//!   processed — on a migration source this freezes the stream's state
//!   while keeping every instance; on a migration target it catches
//!   instances that arrive before the stream's state does;
//! * `Extract` removes a parked stream and hands back a
//!   [`MigrationBundle`]: its checkpoint (schema + effective spec + run
//!   config + the stepper's complete state, partially filled detector
//!   micro-batch included) plus everything parked so far;
//! * `Unpark` closes a park entry — returning the buffered instances if
//!   the stream is gone (migration stragglers, replayed on the target), or
//!   replaying them in place if the stream is still attached (abort path);
//! * `Restore` rebuilds a stream from a bundle, replays the carried
//!   instances and then the target's own park buffer — in exactly arrival
//!   order, so a migrated stream loses nothing and reorders nothing.
//!
//! Streams additionally live in one of two **residency tiers**
//! (`ARCHITECTURE.md` §9). A [`StreamSlot::Hot`] slot holds live pipeline
//! state; a [`StreamSlot::Cold`] slot holds only the stream's binary
//! checkpoint — as in-memory bytes right after a dirty eviction, or as a
//! path into the spill directory once the supervisor has demoted it to
//! disk. `Hibernate` evicts (reusing the caller's fresh spill when the
//! positions match, encoding on demand otherwise). Every stream turns hot
//! through one admission path ([`ShardWorker::admit`]), which holds the
//! fleet to the hot-tier cap by evicting this shard's least-recently-
//! active streams first; ingest, detach and
//! shutdown transparently rehydrate through the same codec path the
//! migration protocol uses, so a hibernated stream is observationally
//! identical to a hot one — bitwise.

use crate::chaos::FaultPlane;
use crate::event::{EventBus, ServeEvent, ServeEventKind};
use crate::server::{HibernateOutcome, ServeError, StreamCheckpoint, StreamSummary};
use rbm_im_harness::checkpoint::codec;
use rbm_im_harness::checkpoint::PipelineCheckpoint;
use rbm_im_harness::pipeline::{RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::stepper::PipelineStepper;
use rbm_im_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use rbm_im_streams::{Instance, StreamSchema};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock-free per-shard load counters, shared between the ingest senders
/// (which count enqueues) and the worker thread (which counts completions).
/// `enqueued − processed` is the shard's live queue depth, as
/// `ServerHandle::health` reports it. Counters are monotone, so reads need
/// no coordination with the hot path.
///
/// The counters live in the server's
/// [`MetricsRegistry`] (`rbm_serve_*_total{shard}` families), so
/// `ServerHandle::health` and the exposition paths read the **same**
/// instruments — there is no private duplicate.
/// Registry handles are monotone across resizes: a re-grown shard slot
/// reattaches to its counters, which keeps `enqueued − processed`
/// consistent because both sides survive together.
///
/// The gauge also carries the fleet-wide tier gauges
/// (`rbm_serve_streams{tier=hot|cold}`, `rbm_serve_cold_resident_bytes`)
/// and this worker's share of them, so reviving a panicked worker can take
/// its lost streams back out of the fleet totals.
pub(crate) struct ShardGauge {
    /// Ingest messages successfully enqueued to this shard.
    pub enqueued_messages: Arc<Counter>,
    /// Ingest messages the worker has fully processed.
    pub processed_messages: Arc<Counter>,
    /// Instances inside the enqueued messages.
    pub enqueued_instances: Arc<Counter>,
    /// Instances inside the processed messages.
    pub processed_instances: Arc<Counter>,
    /// Fleet-wide hot streams, cold streams and cold resident bytes (one
    /// registry instrument each, shared by every slot).
    fleet: [Arc<Gauge>; 3],
    /// This worker's share of `fleet`, in the same order.
    own: [Gauge; 3],
}

impl ShardGauge {
    /// Binds (or rebinds) the gauge counters of shard slot `index` in the
    /// server's metrics registry.
    pub fn for_shard(metrics: &MetricsRegistry, index: usize) -> Self {
        let shard = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
        ShardGauge {
            enqueued_messages: metrics.counter("rbm_serve_enqueued_messages_total", labels),
            processed_messages: metrics.counter("rbm_serve_processed_messages_total", labels),
            enqueued_instances: metrics.counter("rbm_serve_enqueued_instances_total", labels),
            processed_instances: metrics.counter("rbm_serve_processed_instances_total", labels),
            fleet: [
                metrics.gauge("rbm_serve_streams", &[("tier", "hot")]),
                metrics.gauge("rbm_serve_streams", &[("tier", "cold")]),
                metrics.gauge("rbm_serve_cold_resident_bytes", &[]),
            ],
            own: Default::default(),
        }
    }

    /// Records one enqueued ingest message of `instances` instances.
    pub fn record_enqueue(&self, instances: u64) {
        self.enqueued_messages.inc();
        self.enqueued_instances.add(instances);
    }

    /// Records one fully processed ingest message of `instances` instances.
    pub fn record_processed(&self, instances: u64) {
        self.processed_messages.inc();
        self.processed_instances.add(instances);
    }

    /// Moves this worker's hot and cold stream counts and cold resident
    /// bytes by the given deltas, and the fleet gauges with them.
    fn shift_tiers(&self, hot: i64, cold: i64, cold_bytes: i64) {
        for ((own, fleet), delta) in self.own.iter().zip(&self.fleet).zip([hot, cold, cold_bytes]) {
            if delta != 0 {
                own.add(delta);
                fleet.add(delta);
            }
        }
    }

    /// Reserves one hot slot on the fleet gauge if fewer than `cap`
    /// streams are hot (one compare-and-swap), and counts it as this
    /// worker's.
    fn reserve_hot(&self, cap: i64) -> bool {
        let reserved = self.fleet[0].inc_below(cap);
        if reserved {
            self.own[0].add(1);
        }
        reserved
    }

    /// Hot streams across the fleet.
    fn fleet_hot(&self) -> i64 {
        self.fleet[0].get()
    }

    /// Takes this worker's streams out of the fleet gauges: its worker
    /// panicked, and the streams died with it.
    pub fn release_tiers(&self) {
        let [hot, cold, bytes] = &self.own;
        self.shift_tiers(-hot.get(), -cold.get(), -bytes.get());
    }
}

/// Where a cold stream's checkpoint bytes live.
#[derive(Debug)]
pub(crate) enum ColdHandle {
    /// Encoded on demand at eviction (the state was dirtier than the
    /// freshest background spill); resident until the supervisor re-spills
    /// and demotes it to disk.
    Memory(Vec<u8>),
    /// The authoritative spill file in the sink directory — zero resident
    /// state beyond the path.
    Disk(PathBuf),
}

impl ColdHandle {
    /// Bytes this handle keeps resident in memory.
    fn resident_bytes(&self) -> u64 {
        match self {
            ColdHandle::Memory(bytes) => bytes.len() as u64,
            ColdHandle::Disk(_) => 0,
        }
    }
}

/// A hibernated stream: attached, routable, but holding no live pipeline
/// state — only its binary checkpoint.
struct ColdStream {
    handle: ColdHandle,
    /// Instances the checkpoint covers (its resume offset).
    position: u64,
    /// When the stream went cold (tier-scan reporting).
    since: Instant,
}

/// A stream's residency slot: live pipeline state, or its checkpoint.
/// `Hot` is boxed so the streams map pays ~1 pointer per slot instead of
/// sizing every bucket for the full pipeline state — at 100k mostly-cold
/// streams the inline variant would cost ~75 MB of dead bucket space.
enum StreamSlot {
    Hot(Box<StreamState>),
    Cold(ColdStream),
}

/// The transferable state inside a [`MigrationBundle`]: a hot stream
/// moves as its captured checkpoint; a cold stream moves as its already-
/// encoded checkpoint handle — **without rehydrating** — unless buffered
/// instances force a replay on the target.
#[derive(Debug)]
pub(crate) enum BundleState {
    Hot(PipelineCheckpoint),
    Cold { handle: ColdHandle, position: u64 },
}

/// Everything needed to move a stream to another shard: its self-contained
/// state plus the instances parked at the source while the migration was
/// in flight.
#[derive(Debug)]
pub(crate) struct MigrationBundle {
    pub state: BundleState,
    pub parked: Vec<Instance>,
}

/// Why a stream is being rebuilt from a bundle — governs the bus event the
/// restore publishes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RestoreKind {
    /// Live migration from another shard (`Migrated` event).
    Migration { from_shard: usize },
    /// Restart-from-disk via `ServerHandle::restore_stream` (`Attached`
    /// event — subscribers see every serving stream).
    FromDisk,
    /// Reinstatement on its original shard after an aborted migration (no
    /// event: subscribers already saw this stream attach).
    Reinstate,
}

/// A failed restore, carrying the bundle back (boxed — this is a cold
/// path and the bundle is large) so the caller can salvage the stream's
/// state, e.g. reinstate it on its source shard after a failed migration
/// instead of dropping learned state.
#[derive(Debug)]
pub(crate) struct RestoreFailure {
    pub error: ServeError,
    pub bundle: Option<Box<MigrationBundle>>,
}

/// One stream's row in a tier scan
/// ([`ServerHandle::tier_scan`](crate::server::ServerHandle::tier_scan)):
/// the supervisor's [`TierPolicy`](crate::config::TierPolicy) pass
/// (idle evictions, disk demotions) and `ServerHandle::health` both read
/// these.
#[derive(Debug, Clone)]
pub struct TierScanEntry {
    /// Stream id.
    pub id: Arc<str>,
    /// Instances processed (hot) or covered by the cold checkpoint.
    pub position: u64,
    /// Time since last ingest activity (hot) or since hibernation (cold).
    pub idle: Duration,
    /// Residency tier of the slot.
    pub tier: TierKind,
    /// Bytes the slot keeps resident beyond bookkeeping (cold in-memory
    /// checkpoints; 0 for hot and disk-backed slots).
    pub resident_bytes: u64,
}

/// Which tier a scanned stream occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// Live in-memory pipeline state.
    Hot,
    /// Hibernated; checkpoint bytes resident in memory (dirty eviction
    /// awaiting its disk demotion).
    ColdMemory,
    /// Hibernated; only the spill file path is held.
    ColdDisk,
}

/// Control/data messages of a shard's ingest channel. FIFO channel order
/// doubles as the consistency mechanism: a `Drain` marker reaching the
/// worker proves every earlier ingest has been fully processed, and an
/// `Extract` reaching the worker proves every instance ingested before the
/// migration started is either in the stream's state or in its park
/// buffer.
pub(crate) enum ShardMsg {
    /// Create pipeline state for a stream.
    Attach {
        id: Arc<str>,
        schema: StreamSchema,
        spec: DetectorSpec,
        run: RunConfig,
        reply: Sender<Result<(), ServeError>>,
    },
    /// Close a stream's pipeline and report its final summary.
    Detach { id: Arc<str>, reply: Sender<Result<RunResult, ServeError>> },
    /// Instances for one stream, in per-stream arrival order. One message
    /// carries a whole client-side micro-batch; the pipeline's
    /// `detector_batch` micro-batching still governs how observations
    /// reach the detector kernels.
    Ingest { id: Arc<str>, instances: Vec<Instance> },
    /// Barrier: replied to once every earlier message is processed.
    Drain { reply: Sender<()> },
    /// Per-stream tier rows (hot/cold, idleness, resident bytes) of every
    /// stream attached to this shard, hibernated ones included: the
    /// supervisor's tier policy, `health()`, `attached_streams()` and
    /// resize planning read them.
    Tiers { reply: Sender<Vec<TierScanEntry>> },
    /// Evict a stream's live state to its binary checkpoint. `spill`
    /// carries the freshest background spill (position, path): when it
    /// matches the stream's position the eviction is **clean** (the disk
    /// file becomes the cold handle, no encode); otherwise the state is
    /// encoded on demand and held in memory. Also demotes an in-memory
    /// cold handle to disk when the spill position matches. With `evict`
    /// false the message only demotes: a hot stream stays hot.
    Hibernate {
        id: Arc<str>,
        spill: Option<(u64, PathBuf)>,
        evict: bool,
        reply: Sender<Result<HibernateOutcome, ServeError>>,
    },
    /// Start buffering ingest for these ids instead of processing it.
    Park { ids: Vec<Arc<str>>, reply: Sender<()> },
    /// Remove a (parked) stream and hand its state + park buffer over.
    Extract { id: Arc<str>, reply: Sender<Result<MigrationBundle, ServeError>> },
    /// Close a park entry: replay it in place if the stream is still
    /// attached (abort path), else return the buffered stragglers.
    Unpark { id: Arc<str>, reply: Sender<Vec<Instance>> },
    /// Rebuild a stream from a bundle (migration target, restart-from-
    /// disk, or migration-abort reinstatement), replaying carried +
    /// locally parked instances in order.
    Restore {
        id: Arc<str>,
        bundle: MigrationBundle,
        kind: RestoreKind,
        reply: Sender<Result<(), RestoreFailure>>,
    },
    /// Non-destructive checkpoint of one stream (a cold stream's handle is
    /// decoded — not rehydrated).
    Checkpoint { id: Arc<str>, reply: Sender<Result<StreamCheckpoint, ServeError>> },
    /// Non-destructive checkpoint of every stream on this shard.
    CheckpointAll { reply: Sender<Result<Vec<StreamCheckpoint>, ServeError>> },
    /// Graceful stop: the worker finalizes every attached stream (flushing
    /// trailing detector micro-batches) and exits with its report.
    Shutdown,
}

/// Per-stream pipeline state owned by a shard.
struct StreamState {
    stepper: PipelineStepper,
    /// The stream's schema and effective spec, retained so the stream can
    /// be checkpointed and migrated (the stepper keeps its run config).
    schema: StreamSchema,
    spec: DetectorSpec,
    /// When this stream last processed ingest, or was admitted: the
    /// least-recently-active order in which the hot-tier cap evicts
    /// ([`ShardWorker::admit`]) and the idle age of the supervisor's
    /// idle-age trigger. Its clock read also ends the message's ingest
    /// timing, and it never influences results.
    last_active: Instant,
}

impl StreamState {
    /// A non-destructive checkpoint of the stream's pipeline.
    fn checkpoint(&self, id: &Arc<str>) -> Result<StreamCheckpoint, ServeError> {
        let checkpoint =
            PipelineCheckpoint::capture(&self.stepper, self.schema.clone(), self.spec.clone())?;
        Ok(StreamCheckpoint { stream: id.to_string(), checkpoint })
    }
}

/// What a shard hands back when it stops.
pub(crate) struct ShardReport {
    pub summaries: Vec<StreamSummary>,
    pub dropped_unknown: u64,
}

/// The worker owning one shard's streams.
pub(crate) struct ShardWorker {
    index: usize,
    registry: Arc<DetectorRegistry>,
    bus: Arc<EventBus>,
    /// Load counters shared with the ingest senders.
    gauge: Arc<ShardGauge>,
    streams: HashMap<Arc<str>, StreamSlot>,
    /// Ingest buffers of parked stream ids (migration in flight).
    parked: HashMap<Arc<str>, Vec<Instance>>,
    /// Instances ingested for ids with no attached pipeline (dropped).
    dropped_unknown: u64,
    /// This shard's ingest latency histogram
    /// (`rbm_serve_ingest_latency_seconds{shard}`).
    ingest_latency: Arc<Histogram>,
    /// Queue-depth distribution sampled after each processed ingest
    /// message (`rbm_serve_queue_depth{shard}`).
    queue_depth: Arc<Histogram>,
    /// The fleet-wide hot-tier cap (`usize::MAX` when none is installed),
    /// shared by every worker of the server; see [`ShardWorker::admit`].
    hot_cap: Arc<AtomicUsize>,
    /// Rehydration latency (`rbm_serve_rehydrate_seconds`, fleet-wide),
    /// any eviction the hot-tier cap forced included.
    rehydrate_latency: Arc<Histogram>,
    /// Rehydrations by trigger, bound once: a cold stream turned hot by
    /// ingest or by a migration that carried instances, or resumed to
    /// finish at detach or shutdown.
    rehydrated_on_ingest: Arc<Counter>,
    rehydrated_on_migrate: Arc<Counter>,
    rehydrated_on_detach: Arc<Counter>,
    rehydrated_on_shutdown: Arc<Counter>,
    /// `rbm_serve_hibernations_total{kind=clean|dirty}`.
    hibernations_clean: Arc<Counter>,
    hibernations_dirty: Arc<Counter>,
    /// Cold slots whose rehydrate failed (unreadable/corrupt checkpoint).
    rehydrate_failures: Arc<Counter>,
    /// Instances rejected against their stream's schema
    /// (`rbm_serve_invalid_instances_total{shard}`), see [`fits`].
    invalid_instances: Arc<Counter>,
    /// The fault-injection plane, when the server runs under chaos
    /// (`ARCHITECTURE.md` §10): consulted once per ingest message for the
    /// kill-shard and forced-hibernate sites. `None` costs nothing.
    faults: Option<Arc<FaultPlane>>,
    /// Ingest messages this worker incarnation has handled — the
    /// deterministic per-worker coordinate every fault decision draws on.
    /// Starts at zero for each (re)spawned worker, so a revived shard
    /// replays a fresh, reproducible decision sequence.
    messages_seen: u64,
}

impl ShardWorker {
    pub(crate) fn new(
        index: usize,
        registry: Arc<DetectorRegistry>,
        bus: Arc<EventBus>,
        gauge: Arc<ShardGauge>,
        metrics: &MetricsRegistry,
        hot_cap: Arc<AtomicUsize>,
        faults: Option<Arc<FaultPlane>>,
    ) -> Self {
        let shard = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
        let ingest_latency = metrics.histogram("rbm_serve_ingest_latency_seconds", labels);
        let queue_depth = metrics.histogram("rbm_serve_queue_depth", labels);
        let rehydrate_latency = metrics.histogram("rbm_serve_rehydrate_seconds", &[]);
        let rehydrations = |trigger: &str| {
            metrics.counter("rbm_serve_rehydrations_total", &[("trigger", trigger)])
        };
        let hibernations_clean =
            metrics.counter("rbm_serve_hibernations_total", &[("kind", "clean")]);
        let hibernations_dirty =
            metrics.counter("rbm_serve_hibernations_total", &[("kind", "dirty")]);
        let rehydrate_failures = metrics.counter("rbm_serve_rehydrate_failures_total", &[]);
        let invalid_instances = metrics.counter("rbm_serve_invalid_instances_total", labels);
        ShardWorker {
            index,
            registry,
            bus,
            gauge,
            streams: HashMap::new(),
            parked: HashMap::new(),
            dropped_unknown: 0,
            ingest_latency,
            queue_depth,
            hot_cap,
            rehydrate_latency,
            rehydrated_on_ingest: rehydrations("ingest"),
            rehydrated_on_migrate: rehydrations("migrate"),
            rehydrated_on_detach: rehydrations("detach"),
            rehydrated_on_shutdown: rehydrations("shutdown"),
            hibernations_clean,
            hibernations_dirty,
            rehydrate_failures,
            invalid_instances,
            faults,
            messages_seen: 0,
        }
    }

    /// The worker loop: runs until `Shutdown` (or every sender hung up),
    /// then finalizes all remaining streams.
    pub(crate) fn run(mut self, inbox: Receiver<ShardMsg>) -> ShardReport {
        while let Ok(msg) = inbox.recv() {
            match msg {
                ShardMsg::Attach { id, schema, spec, run, reply } => {
                    let result = self.attach(Arc::clone(&id), schema, spec, run);
                    let _ = reply.send(result);
                }
                ShardMsg::Ingest { id, instances } => {
                    let count = instances.len() as u64;
                    self.ingest(&id, instances);
                    // Counted after the step so `enqueued − processed`
                    // includes the message currently being worked on.
                    self.gauge.record_processed(count);
                    // The backlog left *after* this message: monotone
                    // counter difference, no cross-thread coordination.
                    let depth = self
                        .gauge
                        .enqueued_messages
                        .get()
                        .saturating_sub(self.gauge.processed_messages.get());
                    self.queue_depth.record(depth);
                }
                ShardMsg::Detach { id, reply } => {
                    let result = self.finish_stream(&id, Arc::clone(&self.rehydrated_on_detach));
                    let _ = reply.send(result);
                }
                ShardMsg::Drain { reply } => {
                    let _ = reply.send(());
                }
                ShardMsg::Tiers { reply } => {
                    let mut entries: Vec<TierScanEntry> = self
                        .streams
                        .iter()
                        .map(|(id, slot)| match slot {
                            StreamSlot::Hot(state) => TierScanEntry {
                                id: Arc::clone(id),
                                position: state.stepper.instances(),
                                idle: state.last_active.elapsed(),
                                tier: TierKind::Hot,
                                resident_bytes: 0,
                            },
                            StreamSlot::Cold(cold) => TierScanEntry {
                                id: Arc::clone(id),
                                position: cold.position,
                                idle: cold.since.elapsed(),
                                tier: match cold.handle {
                                    ColdHandle::Memory(_) => TierKind::ColdMemory,
                                    ColdHandle::Disk(_) => TierKind::ColdDisk,
                                },
                                resident_bytes: cold.handle.resident_bytes(),
                            },
                        })
                        .collect();
                    entries.sort_by(|a, b| a.id.cmp(&b.id));
                    let _ = reply.send(entries);
                }
                ShardMsg::Hibernate { id, spill, evict, reply } => {
                    let result = match self.streams.get(&id) {
                        Some(StreamSlot::Hot(state)) if !evict => {
                            Ok(HibernateOutcome::Hot { position: state.stepper.instances() })
                        }
                        _ => self.hibernate(&id, spill.as_ref(), true),
                    };
                    let _ = reply.send(result);
                }
                ShardMsg::Park { ids, reply } => {
                    for id in ids {
                        self.parked.entry(id).or_default();
                    }
                    let _ = reply.send(());
                }
                ShardMsg::Extract { id, reply } => {
                    let result = self.extract(&id);
                    let _ = reply.send(result);
                }
                ShardMsg::Unpark { id, reply } => {
                    let _ = reply.send(self.unpark(&id));
                }
                ShardMsg::Restore { id, bundle, kind, reply } => {
                    let result = self.restore(Arc::clone(&id), bundle, kind);
                    let _ = reply.send(result);
                }
                ShardMsg::Checkpoint { id, reply } => {
                    let result = match self.streams.get(&id) {
                        Some(StreamSlot::Hot(state)) => state.checkpoint(&id),
                        Some(StreamSlot::Cold(cold)) => cold_checkpoint(&id, cold),
                        None => Err(ServeError::UnknownStream(id.to_string())),
                    };
                    let _ = reply.send(result);
                }
                ShardMsg::CheckpointAll { reply } => {
                    let mut ids: Vec<Arc<str>> = self.streams.keys().cloned().collect();
                    ids.sort();
                    let result = ids
                        .iter()
                        .map(|id| match &self.streams[id] {
                            StreamSlot::Hot(state) => state.checkpoint(id),
                            StreamSlot::Cold(cold) => cold_checkpoint(id, cold),
                        })
                        .collect::<Result<Vec<_>, _>>();
                    let _ = reply.send(result);
                }
                ShardMsg::Shutdown => break,
            }
        }
        // Finalize every stream still attached, in id order so reports are
        // deterministic.
        let mut ids: Vec<Arc<str>> = self.streams.keys().cloned().collect();
        ids.sort();
        let mut summaries = Vec::with_capacity(ids.len());
        for id in ids {
            match self.finish_stream(&id, Arc::clone(&self.rehydrated_on_shutdown)) {
                Ok(result) => summaries.push(StreamSummary {
                    stream: id.to_string(),
                    shard: self.index,
                    result,
                }),
                // Unreadable cold checkpoint: the stream's summary is
                // unrecoverable — the report simply misses this stream,
                // like a panicked worker's.
                Err(_) => {
                    if let Some(StreamSlot::Cold(cold)) = self.streams.remove(&id) {
                        self.gauge.shift_tiers(0, -1, -(cold.handle.resident_bytes() as i64));
                    }
                }
            }
        }
        ShardReport { summaries, dropped_unknown: self.dropped_unknown }
    }

    fn attach(
        &mut self,
        id: Arc<str>,
        schema: StreamSchema,
        spec: DetectorSpec,
        run: RunConfig,
    ) -> Result<(), ServeError> {
        if self.streams.contains_key(&id) {
            return Err(ServeError::AlreadyAttached(id.to_string()));
        }
        let stepper = PipelineStepper::from_spec(&self.registry, &spec, &schema, run)?;
        self.bus.publish(ServeEvent {
            stream: Arc::clone(&id),
            shard: self.index,
            kind: ServeEventKind::Attached,
        });
        self.admit(&id, stepper, schema, spec);
        Ok(())
    }

    /// Makes `id` a hot stream around an already rebuilt `stepper`: the one
    /// path by which attach, rehydrate and restore put live state on the
    /// shard. With a hot-tier cap installed, the stream takes a slot on
    /// the fleet-wide hot gauge. While the fleet is full, this shard
    /// hibernates its own least-recently-active hot stream that is not
    /// parked (id breaks ties) and hands that stream's slot straight to
    /// `id`, so the fleet gauge never dips for another shard to take.
    /// While the gauge stays above the cap, further evictions release
    /// their slots. Those evictions are dirty — encoded into memory — and
    /// reach disk through the supervisor's cold-memory demotion. A shard
    /// that owns no evictable hot stream takes the slot over the cap, so
    /// admission never fails; the fleet comes back to the cap at the next
    /// admission on a shard that owns hot streams. A cap installed while
    /// more streams are hot likewise applies lazily, at each shard's next
    /// admission.
    fn admit(
        &mut self,
        id: &Arc<str>,
        stepper: PipelineStepper,
        schema: StreamSchema,
        spec: DetectorSpec,
    ) {
        let cap = self.hot_cap.load(Ordering::Relaxed);
        if cap == usize::MAX {
            self.gauge.shift_tiers(1, 0, 0);
        } else {
            let cap = i64::try_from(cap).unwrap_or(i64::MAX);
            let mut counted = self.gauge.reserve_hot(cap);
            while !counted || self.gauge.fleet_hot() > cap {
                let victim = self
                    .streams
                    .iter()
                    .filter_map(|(id, slot)| match slot {
                        StreamSlot::Hot(state) if !self.parked.contains_key(id) => {
                            Some((state.last_active, id))
                        }
                        _ => None,
                    })
                    .min()
                    .map(|(_, id)| Arc::clone(id));
                // The first victim keeps its slot counted, for `id`; later
                // ones (the gauge above the cap) release theirs.
                if victim.is_none_or(|victim| self.hibernate(&victim, None, counted).is_err()) {
                    break;
                }
                counted = true;
            }
            if !counted {
                // Nothing here to evict: take the slot over the cap.
                self.gauge.shift_tiers(1, 0, 0);
            }
        }
        self.streams.insert(
            Arc::clone(id),
            StreamSlot::Hot(Box::new(StreamState {
                stepper,
                schema,
                spec,
                last_active: Instant::now(),
            })),
        );
    }

    fn ingest(&mut self, id: &Arc<str>, instances: Vec<Instance>) {
        self.messages_seen += 1;
        // Kill-shard fault site: a seeded panic mid-ingest, unwinding the
        // whole worker (its streams and queue die with it — that is the
        // point). Recovery is `ServerHandle::revive_shard` plus
        // restore-from-spill; the chaos suites prove no durable state is
        // lost across it.
        if self.faults.as_ref().is_some_and(|f| f.shard_panic(self.index, self.messages_seen)) {
            panic!(
                "chaos: injected shard panic (shard {}, message {})",
                self.index, self.messages_seen
            );
        }
        // Parked ids buffer instead of processing — the stream is mid-
        // migration (or expected to arrive); nothing is lost, nothing is
        // reordered.
        if let Some(buffer) = self.parked.get_mut(id) {
            buffer.extend(instances);
            return;
        }
        // A cold slot transparently rehydrates before stepping: the
        // triggering instances wait right here on the worker thread, so
        // per-stream order is untouched.
        if self.rehydrate(id).is_err() {
            // Unreadable cold checkpoint: dropping the instances (counted)
            // beats panicking the whole shard. The slot stays cold, so a
            // later detach/shutdown surfaces the same failure.
            self.rehydrate_failures.inc();
            self.dropped_unknown += instances.len() as u64;
            return;
        }
        let Some(StreamSlot::Hot(state)) = self.streams.get_mut(id) else {
            self.dropped_unknown += instances.len() as u64;
            return;
        };
        let bus = &self.bus;
        let shard = self.index;
        let mut on_event = |event: &rbm_im_harness::pipeline::PipelineEvent<'_>| {
            bus.publish(ServeEvent {
                stream: Arc::clone(id),
                shard,
                kind: ServeEventKind::from_pipeline(event),
            });
        };
        // One clock pair per ingest message (not per instance) keeps the
        // telemetry cost bounded: client micro-batches amortize the reads,
        // and the closing read is the one that stamps `last_active`.
        // Timing never influences stepping, so results do not depend on it.
        let started = Instant::now();
        // Every instance reaching a stepper passes here, replays after a
        // restore or unpark included, so one check guards them all.
        let mut invalid = 0;
        for instance in instances {
            if fits(&state.schema, &instance) {
                state.stepper.step(instance, &mut on_event);
            } else {
                invalid += 1;
            }
        }
        if invalid > 0 {
            self.invalid_instances.add(invalid);
        }
        let finished = Instant::now();
        state.last_active = finished;
        self.ingest_latency.record(finished.duration_since(started).as_nanos() as u64);
        // The chaos plane's hibernate-storm site evicts the stream right
        // back to cold after this message at a seeded rate (`RBM_CHAOS=1`:
        // after every message, the worst-case thrash) — tiering is
        // bitwise-invisible, so it may never change a result.
        if self.faults.as_ref().is_some_and(|f| f.chaos_hibernate(self.index, self.messages_seen)) {
            let _ = self.hibernate(id, None, true);
        }
    }

    /// Evicts a stream's live pipeline state to its binary checkpoint (or
    /// demotes an in-memory cold handle to a matching disk spill). See
    /// [`ShardMsg::Hibernate`]. With `release` false an evicted stream's
    /// hot slot stays counted, for [`ShardWorker::admit`] to hand over.
    fn hibernate(
        &mut self,
        id: &Arc<str>,
        spill: Option<&(u64, PathBuf)>,
        release: bool,
    ) -> Result<HibernateOutcome, ServeError> {
        if self.parked.contains_key(id) {
            // Mid-migration: the extract owns this stream's fate.
            return Err(ServeError::Checkpoint(format!("stream `{id}` is parked for migration")));
        }
        match self.streams.get_mut(id) {
            None => Err(ServeError::UnknownStream(id.to_string())),
            Some(StreamSlot::Cold(cold)) => {
                if let Some((position, path)) = spill {
                    if *position == cold.position && matches!(cold.handle, ColdHandle::Memory(_)) {
                        // The spill captures exactly this state (positions
                        // are monotone and the pipeline is deterministic,
                        // so equal position ⇒ identical state): the disk
                        // file replaces the resident bytes.
                        self.gauge.shift_tiers(0, 0, -(cold.handle.resident_bytes() as i64));
                        cold.handle = ColdHandle::Disk(path.clone());
                        return Ok(HibernateOutcome::DemotedToDisk { position: *position });
                    }
                }
                Ok(HibernateOutcome::AlreadyCold { position: cold.position })
            }
            Some(StreamSlot::Hot(state)) => {
                let position = state.stepper.instances();
                let clean = matches!(spill, Some((p, _)) if *p == position);
                let handle = if clean {
                    let (_, path) = spill.expect("clean implies spill");
                    ColdHandle::Disk(path.clone())
                } else {
                    // Dirty: encode the current state on demand. Kept in
                    // memory — shard workers never write spill files (the
                    // supervisor thread owns the disk), so a racing
                    // background spill can never clobber fresher state.
                    ColdHandle::Memory(codec::encode(&state.checkpoint(id)?))
                };
                self.gauge.shift_tiers(-i64::from(release), 1, handle.resident_bytes() as i64);
                // Replacing the hot slot drops the stream's live state.
                self.streams.insert(
                    Arc::clone(id),
                    StreamSlot::Cold(ColdStream { handle, position, since: Instant::now() }),
                );
                if clean {
                    self.hibernations_clean.inc();
                } else {
                    self.hibernations_dirty.inc();
                }
                self.bus.publish(ServeEvent {
                    stream: Arc::clone(id),
                    shard: self.index,
                    kind: ServeEventKind::Hibernated { position, clean },
                });
                Ok(HibernateOutcome::Hibernated { position, clean })
            }
        }
    }

    /// Rebuilds a cold stream's live state from its checkpoint handle and
    /// admits it hot (no-op for hot streams). On failure the cold slot
    /// stays intact.
    fn rehydrate(&mut self, id: &Arc<str>) -> Result<(), ServeError> {
        let Some(StreamSlot::Cold(cold)) = self.streams.get(id) else { return Ok(()) };
        let checkpoint = cold_checkpoint(id, cold)?.checkpoint;
        let started = Instant::now();
        let stepper = checkpoint.resume(&self.registry)?;
        let position = stepper.instances();
        if let Some(StreamSlot::Cold(cold)) = self.streams.remove(id) {
            self.gauge.shift_tiers(0, -1, -(cold.handle.resident_bytes() as i64));
        }
        self.admit(id, stepper, checkpoint.schema, checkpoint.spec);
        self.note_rehydrated(id, position, started, &self.rehydrated_on_ingest);
        Ok(())
    }

    /// Rehydration telemetry + bus event (shared with the migration-replay
    /// path): latency histogram (always recorded — cold path), the
    /// trigger's counter, `Rehydrated` event.
    fn note_rehydrated(&self, id: &Arc<str>, position: u64, started: Instant, trigger: &Counter) {
        self.rehydrate_latency.record(started.elapsed().as_nanos() as u64);
        trigger.inc();
        self.bus.publish(ServeEvent {
            stream: Arc::clone(id),
            shard: self.index,
            kind: ServeEventKind::Rehydrated { position },
        });
    }

    /// Removes a stream and packages it for migration. The park entry is
    /// kept (emptied) so ingest that arrives between the extract and the
    /// topology swap keeps buffering; `Unpark` later collects those
    /// stragglers. A cold stream leaves as its checkpoint handle,
    /// unrehydrated.
    fn extract(&mut self, id: &Arc<str>) -> Result<MigrationBundle, ServeError> {
        let Some(slot) = self.streams.remove(id) else {
            return Err(ServeError::UnknownStream(id.to_string()));
        };
        let parked_of = |parked: &mut HashMap<Arc<str>, Vec<Instance>>| {
            parked.get_mut(id).map(std::mem::take).unwrap_or_default()
        };
        match slot {
            StreamSlot::Cold(cold) => {
                self.gauge.shift_tiers(0, -1, -(cold.handle.resident_bytes() as i64));
                let parked = parked_of(&mut self.parked);
                Ok(MigrationBundle {
                    state: BundleState::Cold { handle: cold.handle, position: cold.position },
                    parked,
                })
            }
            StreamSlot::Hot(state) => {
                let checkpoint = match state.checkpoint(id) {
                    Ok(checkpoint) => checkpoint.checkpoint,
                    Err(e) => {
                        // Abort: the stream stays attached on this shard.
                        self.streams.insert(Arc::clone(id), StreamSlot::Hot(state));
                        return Err(e);
                    }
                };
                let parked = parked_of(&mut self.parked);
                self.gauge.shift_tiers(-1, 0, 0);
                Ok(MigrationBundle { state: BundleState::Hot(checkpoint), parked })
            }
        }
    }

    /// Closes a park entry. Still-attached stream (migration abort):
    /// replay the buffer through the stepper in place, as one ingest pass,
    /// and return nothing. Gone stream (migration completed): return the
    /// stragglers for replay on the target.
    fn unpark(&mut self, id: &Arc<str>) -> Vec<Instance> {
        let buffered = self.parked.remove(id).unwrap_or_default();
        if self.streams.contains_key(id) {
            if !buffered.is_empty() {
                self.ingest(id, buffered);
            }
            Vec::new()
        } else {
            buffered
        }
    }

    /// Rebuilds a stream from a migration bundle (or a disk checkpoint).
    /// A **cold** bundle with nothing to replay transfers as bytes — the
    /// stream lands cold on this shard without ever rehydrating; buffered
    /// instances (carried or locally parked) force a rehydrate + replay.
    /// A **hot** bundle builds a fresh stepper from the recorded spec,
    /// restores the state, then replays carried + locally parked
    /// instances in arrival order.
    fn restore(
        &mut self,
        id: Arc<str>,
        bundle: MigrationBundle,
        kind: RestoreKind,
    ) -> Result<(), RestoreFailure> {
        if self.streams.contains_key(&id) {
            return Err(RestoreFailure {
                error: ServeError::AlreadyAttached(id.to_string()),
                bundle: Some(Box::new(bundle)),
            });
        }
        let MigrationBundle { state, parked } = bundle;
        match state {
            BundleState::Cold { handle, position } => {
                let locally_parked = self.parked.get(&id).is_some_and(|b| !b.is_empty());
                if parked.is_empty() && !locally_parked {
                    // Pure transfer: the checkpoint bytes become this
                    // shard's cold slot; no decode, no pipeline rebuild.
                    self.parked.remove(&id);
                    self.gauge.shift_tiers(0, 1, handle.resident_bytes() as i64);
                    self.streams.insert(
                        Arc::clone(&id),
                        StreamSlot::Cold(ColdStream { handle, position, since: Instant::now() }),
                    );
                    if let Some(kind) = restore_event(kind) {
                        self.bus.publish(ServeEvent {
                            stream: Arc::clone(&id),
                            shard: self.index,
                            kind,
                        });
                    }
                    return Ok(());
                }
                // Instances are waiting: decode and restore hot, replaying
                // them — a rehydration in migration clothing.
                let started = Instant::now();
                let cold = ColdStream { handle, position, since: started };
                let checkpoint = match cold_checkpoint(&id, &cold) {
                    Ok(checkpoint) => checkpoint,
                    Err(error) => {
                        return Err(RestoreFailure {
                            error,
                            bundle: Some(Box::new(MigrationBundle {
                                state: BundleState::Cold {
                                    handle: cold.handle,
                                    position: cold.position,
                                },
                                parked,
                            })),
                        });
                    }
                };
                self.restore_hot(
                    Arc::clone(&id),
                    checkpoint.checkpoint,
                    parked,
                    kind,
                    Some(started),
                )
            }
            BundleState::Hot(checkpoint) => self.restore_hot(id, checkpoint, parked, kind, None),
        }
    }

    /// The hot-restore body shared by migration, restart-from-disk,
    /// reinstatement and cold-bundle rehydration (`rehydrated_at` is the
    /// decode start time when this restore doubles as a rehydrate).
    fn restore_hot(
        &mut self,
        id: Arc<str>,
        checkpoint: PipelineCheckpoint,
        parked: Vec<Instance>,
        kind: RestoreKind,
        rehydrated_at: Option<Instant>,
    ) -> Result<(), RestoreFailure> {
        let stepper = match checkpoint.resume(&self.registry) {
            Ok(stepper) => stepper,
            Err(e) => {
                return Err(RestoreFailure {
                    error: e.into(),
                    bundle: Some(Box::new(MigrationBundle {
                        state: BundleState::Hot(checkpoint),
                        parked,
                    })),
                });
            }
        };
        let position = stepper.instances();
        self.admit(&id, stepper, checkpoint.schema, checkpoint.spec);
        // A live migration announces where the stream came from; a restore
        // from disk announces the stream like any fresh attach, so bus
        // subscribers see every serving stream either way. A reinstatement
        // after an aborted migration is silent — subscribers already saw
        // this stream attach.
        if let Some(kind) = restore_event(kind) {
            self.bus.publish(ServeEvent { stream: Arc::clone(&id), shard: self.index, kind });
        }
        if let Some(started) = rehydrated_at {
            self.note_rehydrated(&id, position, started, &self.rehydrated_on_migrate);
        }
        // Replay in arrival order: instances parked at the source first,
        // then whatever this shard parked while waiting for the state. The
        // park entry must be closed *before* replaying — `ingest` buffers
        // anything parked, so replaying through an open entry would cycle
        // the carried instances back into the buffer behind the local ones.
        // The whole replay is one ingest pass.
        let mut replay = parked;
        replay.extend(self.parked.remove(&id).unwrap_or_default());
        if !replay.is_empty() {
            self.ingest(&id, replay);
        }
        Ok(())
    }

    /// Removes `id` and finishes it. A cold stream resumes from its
    /// checkpoint first, so `finish` flushes its trailing micro-batch and
    /// reports the exact RunResult an always-hot run would; it takes no
    /// hot slot, since it leaves at once. On a failed resume the cold
    /// slot stays intact.
    fn finish_stream(
        &mut self,
        id: &Arc<str>,
        trigger: Arc<Counter>,
    ) -> Result<RunResult, ServeError> {
        let resumed = match self.streams.get(id) {
            None => return Err(ServeError::UnknownStream(id.to_string())),
            Some(StreamSlot::Hot(_)) => None,
            Some(StreamSlot::Cold(cold)) => {
                let checkpoint = cold_checkpoint(id, cold)?.checkpoint;
                let started = Instant::now();
                let stepper = checkpoint.resume(&self.registry)?;
                self.note_rehydrated(id, stepper.instances(), started, &trigger);
                Some(stepper)
            }
        };
        let stepper = match (self.streams.remove(id), resumed) {
            (Some(StreamSlot::Hot(state)), _) => {
                self.gauge.shift_tiers(-1, 0, 0);
                state.stepper
            }
            (Some(StreamSlot::Cold(cold)), Some(stepper)) => {
                self.gauge.shift_tiers(0, -1, -(cold.handle.resident_bytes() as i64));
                stepper
            }
            _ => unreachable!("the slot was looked up above"),
        };
        // Flush the trailing detector micro-batch (emitting its events),
        // then announce the detach with the final summary.
        let bus = &self.bus;
        let shard = self.index;
        let mut on_event = |event: &rbm_im_harness::pipeline::PipelineEvent<'_>| {
            bus.publish(ServeEvent {
                stream: Arc::clone(id),
                shard,
                kind: ServeEventKind::from_pipeline(event),
            });
        };
        let result = stepper.finish(id.to_string(), &mut on_event);
        self.bus.publish(ServeEvent {
            stream: Arc::clone(id),
            shard: self.index,
            kind: ServeEventKind::Detached { result: result.clone() },
        });
        Ok(result)
    }
}

/// Whether `instance` fits `schema`. A stepper panics on a wrong feature
/// count or a class outside `0..num_classes`, which would take the whole
/// shard and every stream on it down, so the shard drops such an instance
/// and counts it instead.
fn fits(schema: &StreamSchema, instance: &Instance) -> bool {
    instance.features.len() == schema.num_features && instance.class < schema.num_classes
}

/// The bus event a restore publishes, by restore kind.
fn restore_event(kind: RestoreKind) -> Option<ServeEventKind> {
    match kind {
        RestoreKind::Migration { from_shard } => Some(ServeEventKind::Migrated { from_shard }),
        RestoreKind::FromDisk => Some(ServeEventKind::Attached),
        RestoreKind::Reinstate => None,
    }
}

/// Non-destructive checkpoint of a cold stream: its handle is decoded
/// (memory bytes or the spill file) — the stream is **not** rehydrated.
/// The decoded checkpoint must name the stream and sit at the position
/// the stream was evicted at: after a clean eviction the spill file is the
/// stream's only state, so an older spill written over it must fail here
/// rather than silently rewind the stream.
fn cold_checkpoint(id: &Arc<str>, cold: &ColdStream) -> Result<StreamCheckpoint, ServeError> {
    let decoded: StreamCheckpoint = match &cold.handle {
        ColdHandle::Memory(bytes) => {
            codec::decode(bytes).map_err(|e| ServeError::Checkpoint(e.to_string()))?
        }
        ColdHandle::Disk(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", path.display())))?;
            codec::decode(&bytes)
                .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", path.display())))?
        }
    };
    if decoded.stream != id.as_ref() {
        return Err(ServeError::Checkpoint(format!(
            "cold checkpoint names stream `{}`, expected `{id}`",
            decoded.stream
        )));
    }
    let position =
        decoded.checkpoint.processed().map_err(|e| ServeError::Checkpoint(e.to_string()))?;
    if position != cold.position {
        return Err(ServeError::Checkpoint(format!(
            "cold checkpoint of `{id}` is at position {position}, expected {}",
            cold.position
        )));
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    //! Park replay accounting under a fault plane that force-hibernates the
    //! stepped stream after every ingest message: a replayed park buffer is
    //! one ingest pass, so it costs one eviction however long it is.

    use super::*;
    use crate::chaos::{FaultConfig, FaultRate};
    use rbm_im_streams::generators::GaussianMixtureGenerator;
    use rbm_im_streams::StreamExt;
    use std::sync::mpsc::{channel, sync_channel, SyncSender};

    const ID: &str = "feed-00";

    fn schema() -> StreamSchema {
        StreamSchema::new(ID, 6, 3)
    }

    fn spec() -> DetectorSpec {
        DetectorSpec::parse("rbm(minibatch=25, seed=7)").expect("spec")
    }

    /// A detector micro-batch of 7 against 20-instance messages, so park
    /// boundaries land mid-batch.
    fn run() -> RunConfig {
        RunConfig { metric_window: 100, detector_batch: 7, ..RunConfig::default() }
    }

    /// Shard workers on their own threads, sharing one metrics registry and
    /// one fault plane whose hibernate site fires at rate 1.
    struct Fleet {
        metrics: MetricsRegistry,
        inboxes: Vec<SyncSender<ShardMsg>>,
    }

    impl Fleet {
        fn start(shards: usize) -> Fleet {
            let metrics = MetricsRegistry::new();
            let plane = FaultConfig { hibernate: FaultRate::every(1.0), ..FaultConfig::quiet(3) };
            let faults = Arc::new(FaultPlane::new(plane));
            let registry = Arc::new(DetectorRegistry::with_defaults());
            let bus = Arc::new(EventBus::new());
            let hot_cap = Arc::new(AtomicUsize::new(usize::MAX));
            let inboxes = (0..shards)
                .map(|index| {
                    let gauge = Arc::new(ShardGauge::for_shard(&metrics, index));
                    let worker = ShardWorker::new(
                        index,
                        Arc::clone(&registry),
                        Arc::clone(&bus),
                        gauge,
                        &metrics,
                        Arc::clone(&hot_cap),
                        Some(Arc::clone(&faults)),
                    );
                    let (tx, rx) = sync_channel(64);
                    std::thread::spawn(move || worker.run(rx));
                    tx
                })
                .collect();
            Fleet { metrics, inboxes }
        }

        fn send(&self, shard: usize, msg: ShardMsg) {
            self.inboxes[shard].send(msg).expect("shard alive");
        }

        fn ask<T>(&self, shard: usize, msg: impl FnOnce(Sender<T>) -> ShardMsg) -> T {
            let (reply, answer) = channel();
            self.send(shard, msg(reply));
            answer.recv().expect("shard reply")
        }

        /// Attaches the stream on shard 0.
        fn attach(&self) {
            let (schema, spec, run) = (schema(), spec(), run());
            let attach = |reply| ShardMsg::Attach { id: Arc::from(ID), schema, spec, run, reply };
            self.ask(0, attach).expect("attach");
        }

        /// Sends `instances` as 20-instance ingest messages.
        fn ingest(&self, shard: usize, instances: &[Instance]) {
            for batch in instances.chunks(20) {
                self.send(shard, ShardMsg::Ingest { id: Arc::from(ID), instances: batch.to_vec() });
            }
        }

        fn park(&self, shard: usize) {
            self.ask(shard, |reply| ShardMsg::Park { ids: vec![Arc::from(ID)], reply });
        }

        fn dirty_hibernations(&self) -> u64 {
            self.metrics.counter("rbm_serve_hibernations_total", &[("kind", "dirty")]).get()
        }

        /// Detaches the stream from `shard`; its result must equal a
        /// sequential stepper's over `instances`, float bits included.
        fn detach_matches_sequential(&self, shard: usize, instances: &[Instance]) {
            let served = self.ask(shard, |reply| ShardMsg::Detach { id: Arc::from(ID), reply });
            let registry = DetectorRegistry::with_defaults();
            let mut stepper = PipelineStepper::from_spec(&registry, &spec(), &schema(), run())
                .expect("sequential stepper");
            for instance in instances {
                stepper.step(instance.clone(), &mut |_| {});
            }
            let bits = |r: &RunResult| {
                let floats = [r.pm_auc, r.pm_gmean, r.accuracy, r.kappa].map(f64::to_bits);
                (r.detector.clone(), r.instances, r.detections.clone(), floats)
            };
            let sequential = stepper.finish(ID, &mut |_| {});
            assert_eq!(bits(&served.expect("detach")), bits(&sequential));
        }
    }

    fn feed(len: usize) -> Vec<Instance> {
        GaussianMixtureGenerator::balanced(6, 3, 2, 11).take_instances(len)
    }

    /// Park, four ingest messages, then `Unpark` on the stream that never
    /// left: the buffer replays in place.
    #[test]
    fn unpark_replays_the_park_buffer_in_one_pass() {
        let fleet = Fleet::start(1);
        let instances = feed(240);
        fleet.attach();
        fleet.ingest(0, &instances[..60]);
        fleet.park(0);
        fleet.ingest(0, &instances[60..140]);
        fleet.ask(0, |reply| ShardMsg::Drain { reply });
        assert_eq!(fleet.dirty_hibernations(), 3, "parked messages do not step");
        let stragglers = fleet.ask(0, |reply| ShardMsg::Unpark { id: Arc::from(ID), reply });
        assert!(stragglers.is_empty(), "an attached stream replays its buffer in place");
        assert_eq!(fleet.dirty_hibernations(), 4, "one replay pass, one eviction");
        fleet.ingest(0, &instances[140..]);
        fleet.detach_matches_sequential(0, &instances);
    }

    /// A migration from shard 0 to shard 1 with instances parked on both
    /// sides: the carried buffer, then the target's own, replay as one
    /// pass. With no instances before the park the bundle is hot; after
    /// some, the plane has left the stream cold.
    #[test]
    fn restore_replays_carried_and_local_park_buffers_in_one_pass() {
        for head in [0, 60] {
            let fleet = Fleet::start(2);
            let instances = feed(300);
            fleet.attach();
            fleet.ingest(0, &instances[..head]);
            fleet.park(0);
            fleet.park(1);
            fleet.ingest(0, &instances[head..head + 80]);
            fleet.ingest(1, &instances[head + 80..head + 120]);
            let bundle = fleet.ask(0, |reply| ShardMsg::Extract { id: Arc::from(ID), reply });
            let bundle = bundle.expect("extract");
            assert_eq!(bundle.parked.len(), 80);
            assert_eq!(matches!(bundle.state, BundleState::Cold { .. }), head > 0);
            let stragglers = fleet.ask(0, |reply| ShardMsg::Unpark { id: Arc::from(ID), reply });
            assert!(stragglers.is_empty(), "nothing arrived after the extract");
            fleet.ask(1, |reply| ShardMsg::Drain { reply });
            let before = fleet.dirty_hibernations();
            assert_eq!(before, head as u64 / 20);
            let kind = RestoreKind::Migration { from_shard: 0 };
            fleet
                .ask(1, |reply| ShardMsg::Restore { id: Arc::from(ID), bundle, kind, reply })
                .expect("restore");
            assert_eq!(fleet.dirty_hibernations() - before, 1, "one replay pass, one eviction");
            fleet.ingest(1, &instances[head + 120..]);
            fleet.detach_matches_sequential(1, &instances);
        }
    }
}
