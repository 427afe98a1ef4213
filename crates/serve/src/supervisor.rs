//! The autonomic control plane: a background supervisor that makes the
//! serving fleet checkpoint and tier *itself*.
//!
//! The server's control operations — non-destructive
//! [`checkpoint_stream`](crate::server::ServerHandle::checkpoint_stream) /
//! [`checkpoint_all`](crate::server::ServerHandle::checkpoint_all), disk
//! spills via [`SnapshotSink`], and
//! [`hibernate_stream`](crate::server::ServerHandle::hibernate_stream) —
//! are all caller-triggered. The [`Supervisor`] closes the loop on them:
//!
//! * **background checkpointing** — every attached stream is spilled on a
//!   per-stream interval with a deterministic per-stream *jitter* phase
//!   (derived from the stream id, so a thousand streams never spill in
//!   one thundering herd), and *urgently* right after the stream signals
//!   a drift, because post-drift state is exactly the state worth
//!   preserving. Spills are RBMC binary checkpoints and land atomically;
//! * **tiered stream state** — with a [`TierPolicy`] configured, each tick
//!   scans the fleet's residency tiers and **hibernates** hot streams that
//!   are idle past the policy's age. Every eviction first spills a fresh
//!   checkpoint, so clean evictions reuse the disk file without encoding,
//!   and already-cold in-memory handles are demoted to disk the same way
//!   (a demotion never evicts a stream that woke since the scan).
//!   The hot-tier cap [`TierPolicy::max_hot_streams`] is not this loop's:
//!   [`Supervisor::start`] installs it on the server, the shards enforce
//!   it at admission with dirty evictions of their least-recently-active
//!   streams (which this demotion pass then moves to disk), and
//!   [`SupervisorHandle::stop`] lifts it. A cap installed while more
//!   streams are hot takes effect lazily, at each shard's next admission.
//!   Disk-authoritative cold streams are skipped by the periodic spill
//!   schedule (their checkpoint cannot go stale) until they rehydrate.
//!
//! The fleet size is the operator's: the supervisor never resizes, because
//! an open-loop load-step probe (25k → 100k → 25k inst/s over 64 RBF5
//! `rbm` streams, 10 seeds) found a load-driven resize policy no better
//! than a fixed 2-shard fleet in any phase. Live
//! [`resize_shards`](crate::server::ServerHandle::resize_shards) is an
//! operator call, and may run concurrently with a supervisor.
//!
//! The supervisor runs on its **own** thread and touches the data plane
//! only through the same public control operations callers use: ingest
//! hot paths are never locked by it, and — because checkpoints and
//! hibernations are non-destructive and resizes are bitwise-safe by
//! construction (the park/extract/replay protocol) — a supervised run
//! produces **bitwise identical** per-stream results to an unsupervised or
//! sequential run, whatever the supervisor decides, whenever it decides
//! it, and whatever resizes race it. The `tests/supervisor.rs` suite pins
//! exactly that, plus the cold-restart path: kill the server, reload the
//! latest background spills, resume, and the tail of the stream completes
//! bitwise-identically.

use crate::config::TierPolicy;
use crate::event::{ServeEvent, ServeEventKind};
use crate::server::{HibernateOutcome, ServeError, ServerHandle};
use crate::shard::TierKind;
use crate::sink::SnapshotSink;
use rbm_im_streams::source::derive_stream_seed;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the supervisor spills background checkpoints. A stream that
/// signals a drift is also spilled at the next tick (the post-drift state
/// is the state a warm restart most wants).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Per-stream spill interval.
    pub every: Duration,
    /// Fraction of `every` (in `[0, 1]`) used as a deterministic
    /// per-stream phase offset, staggering spills across the fleet. The
    /// offset is derived from the stream id, so it is stable across
    /// restarts.
    pub jitter: f64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every: Duration::from_secs(30), jitter: 0.5 }
    }
}

/// Supervisor configuration: the control-loop cadence plus the two
/// policies it enforces (checkpointing and tiering, each `None` to
/// disable). Build it from `..SupervisorConfig::default()` rather than
/// naming every field.
#[derive(Debug)]
pub struct SupervisorConfig {
    /// Control-loop cadence: how often schedules are checked and tiers
    /// scanned. Checkpoint intervals shorter than the tick are
    /// effectively rounded up to it.
    pub tick: Duration,
    /// Background checkpointing policy (`None` disables spilling).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Always `None`: the supervisor never resizes the fleet. The field
    /// exists only so that struct literals written as
    /// `SupervisorConfig { tick, checkpoint, resize: None, tier }` keep
    /// compiling; it is uninhabited, so it cannot carry a setting.
    pub resize: Option<std::convert::Infallible>,
    /// Hot/cold stream tiering (`None` keeps every stream hot — the
    /// pre-tiering behavior). See [`TierPolicy`].
    pub tier: Option<TierPolicy>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            tick: Duration::from_millis(250),
            checkpoint: Some(CheckpointPolicy::default()),
            resize: None,
            tier: None,
        }
    }
}

/// What a stopped supervisor hands back.
#[derive(Debug, Default)]
pub struct SupervisorReport {
    /// Periodic (interval-driven) checkpoints spilled.
    pub periodic_spills: u64,
    /// Urgent (drift-driven) checkpoints spilled.
    pub urgent_spills: u64,
    /// Streams the tier pass hibernated for idling past the policy's age.
    /// Each hibernation also spilled a fresh checkpoint. The shards'
    /// evictions under the hot-tier cap are not counted here (they show
    /// in `rbm_serve_hibernations_total{kind="dirty"}`).
    pub hibernations: u64,
    /// Cold streams whose in-memory checkpoint bytes were demoted to the
    /// spill file on disk.
    pub disk_demotions: u64,
    /// Control-plane errors the supervisor absorbed (a stream detached
    /// mid-checkpoint, a spill hitting a full disk, …). The supervisor
    /// never panics the fleet over these; they are reported for
    /// observability.
    pub errors: Vec<String>,
}

/// The background control-plane thread. Construct with
/// [`Supervisor::start`]; stop (and collect the report) with
/// [`SupervisorHandle::stop`].
pub struct Supervisor;

/// Handle to a running supervisor: owns its thread and stop signal.
pub struct SupervisorHandle {
    stop: Sender<()>,
    join: JoinHandle<SupervisorReport>,
}

impl Supervisor {
    /// Spawns the supervisor thread over a shared server handle and a
    /// spill sink, installing the tier policy's hot-tier cap, if any, on
    /// the server's shards.
    ///
    /// The supervisor holds its `Arc<ServerHandle>` until stopped, so the
    /// teardown order is: `handle.stop()` first, then
    /// `Arc::try_unwrap(server)` and
    /// [`shutdown`](crate::server::ServerHandle::shutdown).
    pub fn start(
        server: Arc<ServerHandle>,
        sink: SnapshotSink,
        config: SupervisorConfig,
    ) -> SupervisorHandle {
        let (stop, stop_rx) = channel();
        // The shards hold the hot tier to the cap from here on; the loop
        // lifts it again as it exits.
        if let Some(cap) = config.tier.and_then(|tier| tier.max_hot_streams) {
            server.set_hot_cap(Some(cap));
        }
        // Subscribed before the thread starts, so no drift event published
        // after `start` returns can be missed.
        let events = server.subscribe();
        let join = std::thread::Builder::new()
            .name("rbm-serve-supervisor".to_string())
            .spawn(move || run(server, sink, config, stop_rx, events))
            .expect("failed to spawn supervisor thread");
        SupervisorHandle { stop, join }
    }
}

impl SupervisorHandle {
    /// Stops the supervisor (finishing the tick in progress) and returns
    /// its report. The hot-tier cap it installed is lifted and its
    /// `Arc<ServerHandle>` released by the time this returns.
    pub fn stop(self) -> SupervisorReport {
        // A dropped receiver also stops the loop, so send errors (the
        // thread already exiting) are fine to ignore.
        let _ = self.stop.send(());
        self.join.join().expect("supervisor thread panicked")
    }
}

impl std::fmt::Debug for SupervisorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorHandle").finish()
    }
}

/// Per-stream checkpoint schedule entry.
struct StreamSchedule {
    next_due: Instant,
    /// A drift fired since the last spill — spill at the next tick.
    urgent: bool,
}

/// The supervisor loop body.
fn run(
    server: Arc<ServerHandle>,
    sink: SnapshotSink,
    config: SupervisorConfig,
    stop: Receiver<()>,
    events: Receiver<ServeEvent>,
) -> SupervisorReport {
    // Auto-wire telemetry: the sink records spill encode/write timings
    // into the server's registry, urgent spills are counted, and the
    // server's slow-path trace ring is drained to the sink every tick.
    let metrics = server.metrics();
    let sink = sink.with_metrics(&metrics);
    let urgent_spills = metrics.counter("rbm_supervisor_urgent_spills_total", &[]);
    let tracer = server.tracer();
    let mut report = SupervisorReport::default();
    let mut schedule: HashMap<String, StreamSchedule> = HashMap::new();
    // Cold streams whose spill file on disk *is* their state (clean
    // eviction or completed demotion): periodic spills skip them — the
    // bytes cannot go stale while the stream is cold. Membership ends at
    // the stream's `Rehydrated` (or `Detached`) event.
    let mut cold_disk: HashSet<String> = HashSet::new();
    // Streams attached before the supervisor started predate the bus
    // subscription; seed the schedule once from a fleet inventory. From
    // here on the schedule is maintained purely from bus events — an
    // inventory round-trip queues behind ingest backlog on every shard,
    // and a per-tick barrier would stall urgent spills exactly when the
    // fleet is overloaded.
    if let Some(policy) = config.checkpoint {
        let now = Instant::now();
        for id in server.attached_streams() {
            let next_due = now + jitter_offset(&policy, &id);
            schedule.insert(id, StreamSchedule { next_due, urgent: false });
        }
    }
    loop {
        // The stop channel doubles as the tick clock.
        match stop.recv_timeout(config.tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();

        // Fold the bus events since the last tick into the schedule and
        // the cold-disk set. Events arrive in publish order, and a
        // stream's `Attached` always precedes its `Drift`s, so an urgent
        // mark can never race the stream's first schedule entry. Draining
        // happens every tick regardless of policies, so the bus queue
        // cannot grow unboundedly behind a tier-only supervisor.
        for event in events.try_iter() {
            match &event.kind {
                ServeEventKind::Attached => {
                    if let Some(policy) = config.checkpoint {
                        let id = event.stream.to_string();
                        let next_due = now + jitter_offset(&policy, &id);
                        schedule.entry(id).or_insert(StreamSchedule { next_due, urgent: false });
                    }
                }
                ServeEventKind::Detached { .. } => {
                    schedule.remove(event.stream.as_ref());
                    cold_disk.remove(event.stream.as_ref());
                }
                ServeEventKind::Drift { .. } => {
                    if let Some(entry) = schedule.get_mut(event.stream.as_ref()) {
                        entry.urgent = true;
                    }
                }
                // Rehydrated state starts diverging from its spill the
                // moment it steps again — back onto the normal schedule.
                ServeEventKind::Rehydrated { .. } => {
                    cold_disk.remove(event.stream.as_ref());
                }
                _ => {}
            }
        }

        // Tier pass: hibernate idle hot streams and demote cold in-memory
        // handles to disk. Runs before the spill round (an
        // eviction's spill resets the stream's spill schedule, so the
        // round never redundantly re-spills what the tier pass just
        // wrote).
        if let Some(tier) = config.tier {
            let scan = server.tier_scan();
            // Hot streams idle past the policy's age, and cold in-memory
            // handles (the shards' cap evictions and manual hibernations):
            // re-spill at their (frozen) position and swap the resident
            // bytes for the disk file.
            let planned = scan.iter().filter(|e| match e.tier {
                TierKind::Hot => tier.idle_after.is_some_and(|after| e.idle >= after),
                TierKind::ColdMemory => true,
                TierKind::ColdDisk => false,
            });
            // The per-tick cap bounds this tick's encode+spill work; the
            // remainder drains over the following ticks (the scan re-finds
            // it).
            for entry in planned.take(tier.max_demotions_per_tick) {
                let id = &entry.id;
                let span = tracer.span("hibernate", id);
                let outcome = demote(&server, &sink, id, entry.tier == TierKind::Hot);
                span.finish();
                match outcome {
                    Ok((outcome, position)) => {
                        server.note_spill();
                        server.bus().publish(ServeEvent {
                            stream: Arc::from(id.as_ref()),
                            shard: server.shard_of(id),
                            kind: ServeEventKind::CheckpointSpilled { position, urgent: false },
                        });
                        match outcome {
                            HibernateOutcome::Hibernated { clean, .. } => {
                                report.hibernations += 1;
                                if clean {
                                    cold_disk.insert(id.to_string());
                                }
                            }
                            HibernateOutcome::DemotedToDisk { .. } => {
                                report.disk_demotions += 1;
                                cold_disk.insert(id.to_string());
                            }
                            HibernateOutcome::AlreadyCold { .. } => {
                                cold_disk.insert(id.to_string());
                            }
                            HibernateOutcome::Hot { .. } => {}
                        }
                        // The eviction just spilled a fresh checkpoint;
                        // push the stream's periodic slot out accordingly.
                        if let (Some(policy), Some(entry)) =
                            (config.checkpoint, schedule.get_mut(id.as_ref()))
                        {
                            entry.next_due = now + policy.every;
                        }
                    }
                    // Detached between the scan and the demote: the
                    // schedule entry dies at its Detached event.
                    Err(SpillError::Serve(ServeError::UnknownStream(_))) => {}
                    Err(e) => report.errors.push(format!("hibernate of `{id}`: {e}")),
                }
            }
        }

        // Spill everything due or urgent.
        if let Some(policy) = config.checkpoint {
            for (id, entry) in schedule.iter_mut() {
                let urgent = entry.urgent;
                if !urgent && now < entry.next_due {
                    continue;
                }
                if !urgent && cold_disk.contains(id) {
                    // The disk file already *is* this cold stream's state;
                    // a periodic spill would decode and rewrite identical
                    // bytes. (Urgent spills still run — a drift marked the
                    // state worth preserving before the stream went cold.)
                    entry.next_due = now + policy.every;
                    continue;
                }
                let span = tracer.span("spill", id);
                let outcome = spill(&server, &sink, id);
                span.finish();
                match outcome {
                    Ok(position) => {
                        server.note_spill();
                        if urgent {
                            report.urgent_spills += 1;
                            urgent_spills.inc();
                        } else {
                            report.periodic_spills += 1;
                        }
                        server.bus().publish(ServeEvent {
                            stream: Arc::from(id.as_str()),
                            shard: server.shard_of(id),
                            kind: ServeEventKind::CheckpointSpilled { position, urgent },
                        });
                    }
                    // The stream detached after this tick's event drain:
                    // not an error, the entry dies at its Detached event.
                    Err(SpillError::Serve(ServeError::UnknownStream(_))) => {}
                    Err(e) => report.errors.push(format!("checkpoint of `{id}`: {e}")),
                }
                entry.urgent = false;
                entry.next_due = now + policy.every;
            }
        }

        // Persist the slow-path spans accumulated this tick (spills above,
        // resize phases recorded by the server) to the sink's JSONL trace
        // log, which rotates at a fixed size.
        if !tracer.is_empty() {
            if let Err(e) = sink.spill_trace(&tracer.drain()) {
                report.errors.push(format!("trace spill: {e}"));
            }
        }
    }
    // Final flush so spans from the last partial tick are not lost.
    if !tracer.is_empty() {
        if let Err(e) = sink.spill_trace(&tracer.drain()) {
            report.errors.push(format!("trace spill: {e}"));
        }
    }
    if config.tier.is_some_and(|tier| tier.max_hot_streams.is_some()) {
        server.set_hot_cap(None);
    }
    report
}

/// The deterministic per-stream phase offset of the first spill.
fn jitter_offset(policy: &CheckpointPolicy, stream_id: &str) -> Duration {
    let jitter = policy.jitter.clamp(0.0, 1.0);
    if jitter == 0.0 {
        return Duration::ZERO;
    }
    // 53-bit uniform fraction derived from the stream id — stable across
    // restarts, independent of wall clock.
    let hash = derive_stream_seed(0x5e1f_ca7e, stream_id);
    let frac = (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    policy.every.mul_f64(jitter * frac)
}

/// Why a background spill failed.
enum SpillError {
    Serve(ServeError),
    Io(std::io::Error),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Serve(e) => write!(f, "{e}"),
            SpillError::Io(e) => write!(f, "spill I/O: {e}"),
        }
    }
}

/// Checkpoints one stream and spills it through the sink, returning the
/// checkpoint's resume position.
fn spill(server: &ServerHandle, sink: &SnapshotSink, id: &str) -> Result<u64, SpillError> {
    let checkpoint = server.checkpoint_stream(id).map_err(SpillError::Serve)?;
    let position = checkpoint.checkpoint.processed().unwrap_or(0);
    sink.spill_checkpoint(&checkpoint).map_err(SpillError::Io)?;
    Ok(position)
}

/// Demotes one stream toward the cold-disk tier: spill a fresh checkpoint,
/// then hand the shard its `(position, path)`. With `evict` (an idle hot
/// stream) the eviction reuses the file when the stream has not stepped
/// since (clean), or encodes on demand when it has (dirty — the in-memory
/// bytes are demoted by the next tick's pass, by which point the position
/// is frozen). Without it (a cold in-memory row) the shard only swaps the
/// bytes for the file, and leaves a stream that woke since the scan hot.
/// Returns the outcome plus the spilled position.
fn demote(
    server: &ServerHandle,
    sink: &SnapshotSink,
    id: &str,
    evict: bool,
) -> Result<(HibernateOutcome, u64), SpillError> {
    let checkpoint = server.checkpoint_stream(id).map_err(SpillError::Serve)?;
    let position = checkpoint.checkpoint.processed().unwrap_or(0);
    let path = sink.spill_checkpoint(&checkpoint).map_err(SpillError::Io)?;
    let spill = (position, path);
    let outcome =
        if evict { server.hibernate_with(id, Some(spill)) } else { server.demote_with(id, spill) };
    Ok((outcome.map_err(SpillError::Serve)?, position))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_offsets_are_deterministic_and_bounded() {
        let policy = CheckpointPolicy { every: Duration::from_secs(10), jitter: 0.5 };
        let a1 = jitter_offset(&policy, "feed-a");
        let a2 = jitter_offset(&policy, "feed-a");
        let b = jitter_offset(&policy, "feed-b");
        assert_eq!(a1, a2, "offset is a pure function of the id");
        assert_ne!(a1, b, "distinct ids stagger");
        assert!(a1 <= Duration::from_secs(5), "bounded by jitter × every");
        let none = CheckpointPolicy { jitter: 0.0, ..policy };
        assert_eq!(jitter_offset(&none, "feed-a"), Duration::ZERO);
    }
}
