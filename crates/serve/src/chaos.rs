//! Deterministic fault injection for the serving plane (`ARCHITECTURE.md`
//! §10): a seed-driven [`FaultPlane`] threaded through the shard workers,
//! the [`SnapshotSink`](crate::sink::SnapshotSink) I/O seam and the net
//! front-end, plus the replayable [`ChaosPlan`] schedule the chaos soak
//! harness executes.
//!
//! Every injection decision is a **pure function** of the plane's seed, a
//! per-site salt and caller-provided coordinates (shard index + message
//! ordinal, spill operation ordinal, connection reply ordinal). Two runs
//! with the same seed and the same per-site operation sequences inject
//! exactly the same faults — which is what lets the chaos suites assert
//! bitwise recovery instead of "it probably survived". The plane's only
//! mutable state is telemetry (per-site injected counts), budget
//! enforcement, and the *armed burst* counters a [`ChaosPlan`] tops up to
//! force the next N operations at a site to fault with certainty.
//!
//! Injectable fault sites:
//!
//! * **kill-shard** — a worker thread panics mid-ingest
//!   ([`FaultPlane::shard_panic`]); recovery is
//!   [`ServerHandle::revive_shard`](crate::server::ServerHandle::revive_shard)
//!   plus restore-from-spill;
//! * **hibernate storm** — a stream is force-evicted to its checkpoint
//!   right after a step ([`FaultPlane::chaos_hibernate`]), thrashing the
//!   rehydrate path; bitwise-invisible by construction;
//! * **spill I/O faults** — ENOSPC (partial write, then an error),
//!   short-write (silently truncated bytes, detected at load) and
//!   corrupt-on-read (a deterministic bit flip), injected through
//!   [`ChaosSpillIo`] behind the sink's
//!   [`SpillIo`](crate::sink::SpillIo) seam;
//! * **net faults** — delayed replies and a reply truncated mid-frame
//!   with the connection torn down (the "server died between write and
//!   flush" window), consumed by `rbm-im-net`'s reply path.
//!
//! The `RBM_CHAOS=<rate>` environment gate ([`env_plane`]) arms only the
//! **result-invisible** sites (hibernate storms, net delays) at the given
//! rate, so CI can run the ordinary determinism suites under a low-rate
//! fault plane and still demand bitwise-identical results. At
//! `RBM_CHAOS=1` every draw fires: each stream is evicted to cold after
//! every processed message, the worst-case tiering thrash.

use rbm_im_obs::{Counter, MetricsRegistry};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Number of distinct fault sites (length of [`FaultSite::ALL`]).
const SITES: usize = 7;

/// One injectable fault site of the serving plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Shard worker panic mid-ingest (kill-shard).
    ShardPanic,
    /// Forced hibernate right after a processed ingest message.
    Hibernate,
    /// Checkpoint spill write fails after a partial write (ENOSPC-style).
    SpillEnospc,
    /// Checkpoint spill write silently truncates its bytes (short write).
    SpillShortWrite,
    /// Checkpoint read returns bytes with a deterministic bit flip.
    SpillCorruptRead,
    /// Net reply delayed before the write.
    NetDelay,
    /// Net reply truncated mid-frame and the connection torn down.
    NetTruncate,
}

impl FaultSite {
    /// Every fault site, in stable order.
    pub const ALL: [FaultSite; SITES] = [
        FaultSite::ShardPanic,
        FaultSite::Hibernate,
        FaultSite::SpillEnospc,
        FaultSite::SpillShortWrite,
        FaultSite::SpillCorruptRead,
        FaultSite::NetDelay,
        FaultSite::NetTruncate,
    ];

    /// Stable label of the site (metric label, plan text).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ShardPanic => "shard_panic",
            FaultSite::Hibernate => "hibernate",
            FaultSite::SpillEnospc => "spill_enospc",
            FaultSite::SpillShortWrite => "spill_short_write",
            FaultSite::SpillCorruptRead => "spill_corrupt_read",
            FaultSite::NetDelay => "net_delay",
            FaultSite::NetTruncate => "net_truncate",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::ShardPanic => 0,
            FaultSite::Hibernate => 1,
            FaultSite::SpillEnospc => 2,
            FaultSite::SpillShortWrite => 3,
            FaultSite::SpillCorruptRead => 4,
            FaultSite::NetDelay => 5,
            FaultSite::NetTruncate => 6,
        }
    }

    /// Per-site hash salt: distinct sites sharing coordinates must draw
    /// independent decisions.
    fn salt(self) -> u64 {
        [
            0x5a1d_0001_c4a0_5001,
            0x5a1d_0002_c4a0_5002,
            0x5a1d_0003_c4a0_5003,
            0x5a1d_0004_c4a0_5004,
            0x5a1d_0005_c4a0_5005,
            0x5a1d_0006_c4a0_5006,
            0x5a1d_0007_c4a0_5007,
        ][self.index()]
    }
}

/// Probability (per eligible operation) and optional lifetime budget of
/// one fault site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRate {
    /// Injection probability per eligible operation, in `[0, 1]`.
    pub rate: f64,
    /// Maximum injections over the plane's lifetime (`None` = unlimited).
    /// Armed bursts ([`FaultPlane::arm`]) are not counted against it.
    pub budget: Option<u64>,
}

impl FaultRate {
    /// The site never fires (except via armed bursts).
    pub const OFF: FaultRate = FaultRate { rate: 0.0, budget: None };

    /// Fires with probability `rate`, unbounded.
    pub fn every(rate: f64) -> FaultRate {
        FaultRate { rate, budget: None }
    }

    /// Fires with probability `rate`, at most `budget` times.
    pub fn capped(rate: f64, budget: u64) -> FaultRate {
        FaultRate { rate, budget: Some(budget) }
    }
}

/// Full fault-plane configuration: the decision seed plus one
/// [`FaultRate`] per site. Serializable, so a chaos run's exact fault
/// posture can be recorded next to its [`ChaosPlan`] and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed all injection decisions derive from.
    pub seed: u64,
    /// Kill-shard: worker panic per ingest message.
    pub shard_panic: FaultRate,
    /// Forced hibernate per processed ingest message.
    pub hibernate: FaultRate,
    /// ENOSPC-style spill write failure per checkpoint write.
    pub spill_enospc: FaultRate,
    /// Silent short write per checkpoint write.
    pub spill_short_write: FaultRate,
    /// Deterministic bit flip per checkpoint read.
    pub spill_corrupt_read: FaultRate,
    /// Delayed net reply per reply.
    pub net_delay: FaultRate,
    /// Milliseconds a delayed reply sleeps before writing.
    pub net_delay_ms: u64,
    /// Truncate-and-close net reply per reply.
    pub net_truncate: FaultRate,
}

impl FaultConfig {
    /// A configuration with every site off — faults then fire only via
    /// armed bursts ([`FaultPlane::arm`]).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            shard_panic: FaultRate::OFF,
            hibernate: FaultRate::OFF,
            spill_enospc: FaultRate::OFF,
            spill_short_write: FaultRate::OFF,
            spill_corrupt_read: FaultRate::OFF,
            net_delay: FaultRate::OFF,
            net_delay_ms: 1,
            net_truncate: FaultRate::OFF,
        }
    }

    fn rate_of(&self, site: FaultSite) -> FaultRate {
        match site {
            FaultSite::ShardPanic => self.shard_panic,
            FaultSite::Hibernate => self.hibernate,
            FaultSite::SpillEnospc => self.spill_enospc,
            FaultSite::SpillShortWrite => self.spill_short_write,
            FaultSite::SpillCorruptRead => self.spill_corrupt_read,
            FaultSite::NetDelay => self.net_delay,
            FaultSite::NetTruncate => self.net_truncate,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::quiet(0xc4a0_5eed)
    }
}

/// Which spill-write fault a checkpoint write should suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillWriteFault {
    /// Write a partial prefix, then fail with an I/O error (the classic
    /// disk-full crash window: an orphan `.tmp` is left behind).
    Enospc,
    /// Write truncated bytes and report success — corruption that only
    /// surfaces when the file is read back.
    ShortWrite,
}

/// The deterministic fault-injection plane. Cheap to consult (one hash
/// per decision on the rate path), safe to share across shard workers,
/// the supervisor's sink and net connection threads.
pub struct FaultPlane {
    config: FaultConfig,
    /// Per-site injected counts (telemetry + budget enforcement).
    injected: [AtomicU64; SITES],
    /// Per-site armed-burst balances ([`FaultPlane::arm`]): consumed with
    /// certainty, one per eligible operation, before any rate draw.
    armed: [AtomicU64; SITES],
    /// Per-site operation ordinals for sites without a caller-side
    /// ordinal (spill and read operations).
    ops: [AtomicU64; SITES],
    /// Optional registry counters (`rbm_chaos_faults_injected_total{site}`).
    counters: OnceLock<Vec<Arc<Counter>>>,
}

impl fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlane")
            .field("config", &self.config)
            .field("total_injected", &self.total_injected())
            .finish()
    }
}

impl FaultPlane {
    /// A plane over `config`, with zeroed telemetry and no armed bursts.
    pub fn new(config: FaultConfig) -> FaultPlane {
        FaultPlane {
            config,
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            armed: std::array::from_fn(|_| AtomicU64::new(0)),
            ops: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: OnceLock::new(),
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Binds per-site injection counters
    /// (`rbm_chaos_faults_injected_total{site}`) into `metrics`, so the
    /// obs plane exports how many faults of each kind actually fired.
    /// First binding wins; later calls are no-ops.
    pub fn bind_metrics(&self, metrics: &MetricsRegistry) {
        let _ = self.counters.set(
            FaultSite::ALL
                .iter()
                .map(|site| {
                    metrics.counter("rbm_chaos_faults_injected_total", &[("site", site.name())])
                })
                .collect(),
        );
    }

    /// Arms `count` certain injections at `site`: the next `count`
    /// eligible operations there fault regardless of the configured rate.
    /// [`ChaosPlan`] burst events call this.
    pub fn arm(&self, site: FaultSite, count: u64) {
        self.armed[site.index()].fetch_add(count, Ordering::Relaxed);
    }

    /// Lifetime injections at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Lifetime injections across every site.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The single decision function: armed bursts consume first (with
    /// certainty); otherwise the site's rate draws from
    /// `mix(seed ^ salt ^ coords)` under its budget. Pure in `coords`
    /// apart from burst/budget bookkeeping.
    fn decide(&self, site: FaultSite, coords: u64) -> bool {
        let index = site.index();
        // Armed burst: consume one if any balance remains.
        if self.armed[index].load(Ordering::Relaxed) > 0
            && self.armed[index]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_ok()
        {
            self.note_injected(site);
            return true;
        }
        let FaultRate { rate, budget } = self.config.rate_of(site);
        if rate <= 0.0 {
            return false;
        }
        let draw = uniform(mix(self.config.seed ^ site.salt() ^ coords));
        if draw >= rate {
            return false;
        }
        // Budget: claim a slot atomically so concurrent callers cannot
        // overshoot it.
        if let Some(budget) = budget {
            if self.injected[index]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    (v < budget).then_some(v + 1)
                })
                .is_err()
            {
                return false;
            }
            if let Some(counters) = self.counters.get() {
                counters[index].inc();
            }
            return true;
        }
        self.note_injected(site);
        true
    }

    fn note_injected(&self, site: FaultSite) {
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(counters) = self.counters.get() {
            counters[site.index()].inc();
        }
    }

    /// Should the worker of `shard` panic while handling its `message`-th
    /// ingest message? Coordinates are per worker incarnation, so a
    /// revived shard draws a fresh, still-deterministic sequence.
    pub fn shard_panic(&self, shard: usize, message: u64) -> bool {
        self.decide(FaultSite::ShardPanic, ((shard as u64) << 48) ^ message)
    }

    /// Should the stream stepped by `shard`'s `message`-th ingest message
    /// be force-hibernated right after the step?
    pub fn chaos_hibernate(&self, shard: usize, message: u64) -> bool {
        self.decide(FaultSite::Hibernate, ((shard as u64) << 48) ^ message)
    }

    /// Which fault (if any) the next checkpoint write to `path` suffers.
    /// Ordered draw: short-write first, then ENOSPC, so both sites stay
    /// independently seeded.
    pub fn spill_write_fault(&self, path: &Path) -> Option<SpillWriteFault> {
        let coords = path_coords(path);
        let short_op = self.ops[FaultSite::SpillShortWrite.index()].fetch_add(1, Ordering::Relaxed);
        if self.decide(FaultSite::SpillShortWrite, coords ^ mix(short_op)) {
            return Some(SpillWriteFault::ShortWrite);
        }
        let enospc_op = self.ops[FaultSite::SpillEnospc.index()].fetch_add(1, Ordering::Relaxed);
        if self.decide(FaultSite::SpillEnospc, coords ^ mix(enospc_op)) {
            return Some(SpillWriteFault::Enospc);
        }
        None
    }

    /// Should the next checkpoint read of `path` return corrupted bytes?
    pub fn corrupt_read(&self, path: &Path) -> bool {
        let op = self.ops[FaultSite::SpillCorruptRead.index()].fetch_add(1, Ordering::Relaxed);
        self.decide(FaultSite::SpillCorruptRead, path_coords(path) ^ mix(op))
    }

    /// How long (if at all) the `reply`-th reply of a net connection
    /// should be delayed before its write.
    pub fn net_delay(&self, reply: u64) -> Option<Duration> {
        self.decide(FaultSite::NetDelay, reply)
            .then(|| Duration::from_millis(self.config.net_delay_ms))
    }

    /// Should the `reply`-th reply of a net connection be truncated
    /// mid-frame and the connection closed?
    pub fn net_truncate(&self, reply: u64) -> bool {
        self.decide(FaultSite::NetTruncate, reply)
    }
}

/// An injecting [`SpillIo`](crate::sink::SpillIo) implementation: routes
/// `SnapshotSink` writes and reads through a [`FaultPlane`]. Plug it in
/// with [`SnapshotSink::with_io`](crate::sink::SnapshotSink::with_io).
#[derive(Debug)]
pub struct ChaosSpillIo {
    plane: Arc<FaultPlane>,
}

impl ChaosSpillIo {
    /// Wraps `plane`.
    pub fn new(plane: Arc<FaultPlane>) -> ChaosSpillIo {
        ChaosSpillIo { plane }
    }
}

impl crate::sink::SpillIo for ChaosSpillIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.plane.spill_write_fault(path) {
            Some(SpillWriteFault::Enospc) => {
                // The disk filled mid-write: a partial prefix lands, then
                // the write errors. The caller never renames, so the
                // orphaned partial file is exactly the `.tmp` debris the
                // sink's startup sweep exists for.
                let prefix = bytes.len() / 2;
                let _ = std::fs::write(path, &bytes[..prefix]);
                Err(io::Error::other(format!("chaos: injected ENOSPC writing {}", path.display())))
            }
            Some(SpillWriteFault::ShortWrite) => {
                // Silent truncation: success is reported but the tail is
                // missing. Loaders must surface this as a clean error
                // naming the file, never as garbage state.
                let keep = (bytes.len() * 2 / 3).max(1).min(bytes.len().saturating_sub(1));
                std::fs::write(path, &bytes[..keep])
            }
            None => std::fs::write(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = std::fs::read(path)?;
        if self.plane.corrupt_read(path) && !bytes.is_empty() {
            // Flip a byte anywhere in the file, modelling a torn disk
            // block: the RBMC CRC32C trailer turns it into a *clean load
            // error*, never wrong state.
            let at = (mix(path_coords(path)) as usize) % bytes.len();
            bytes[at] ^= 0xa5;
        }
        Ok(bytes)
    }
}

/// One scheduled chaos action of a [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// Fires once the harness's ingest cursor crosses this many total
    /// instances.
    pub at_instances: u64,
    /// What to inject.
    pub fault: ChaosFault,
}

/// The injectable actions a [`ChaosPlan`] schedules. Harness-level
/// actions (kill, restart, storm) are driven by the soak loop; burst
/// actions top up the plane's armed counters so the next spill/net
/// operations fault with certainty.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Panic the worker of this shard (via an armed
    /// [`FaultSite::ShardPanic`] burst), then revive and restore.
    KillShard {
        /// Shard slot to kill.
        shard: usize,
    },
    /// Kill-process-style cold restart: drop the `ServerHandle`, start a
    /// fresh one, restore every stream from its latest durable spill.
    ColdRestart,
    /// Force-hibernate a batch of streams, thrashing rehydrate.
    HibernateStorm {
        /// How many streams to evict.
        streams: usize,
    },
    /// Arm `count` certain spill write faults
    /// ([`FaultSite::SpillEnospc`]).
    SpillFaultBurst {
        /// Operations to fault.
        count: u64,
    },
    /// Arm `count` certain net reply truncations
    /// ([`FaultSite::NetTruncate`]).
    NetFaultBurst {
        /// Replies to fault.
        count: u64,
    },
}

// The vendored serde derive covers structs and unit enums only, so the
// data-carrying fault enum gets a hand-written tagged-object encoding:
// `{"kind": "kill_shard", "shard": 2}`.
impl Serialize for ChaosFault {
    fn serialize_value(&self) -> serde::Value {
        use serde::Value;
        match self {
            ChaosFault::KillShard { shard } => Value::object(vec![
                ("kind", Value::String("kill_shard".to_string())),
                ("shard", shard.serialize_value()),
            ]),
            ChaosFault::ColdRestart => {
                Value::object(vec![("kind", Value::String("cold_restart".to_string()))])
            }
            ChaosFault::HibernateStorm { streams } => Value::object(vec![
                ("kind", Value::String("hibernate_storm".to_string())),
                ("streams", streams.serialize_value()),
            ]),
            ChaosFault::SpillFaultBurst { count } => Value::object(vec![
                ("kind", Value::String("spill_fault_burst".to_string())),
                ("count", count.serialize_value()),
            ]),
            ChaosFault::NetFaultBurst { count } => Value::object(vec![
                ("kind", Value::String("net_fault_burst".to_string())),
                ("count", count.serialize_value()),
            ]),
        }
    }
}

impl Deserialize for ChaosFault {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let kind: String = value.field("kind")?;
        match kind.as_str() {
            "kill_shard" => Ok(ChaosFault::KillShard { shard: value.field("shard")? }),
            "cold_restart" => Ok(ChaosFault::ColdRestart),
            "hibernate_storm" => {
                Ok(ChaosFault::HibernateStorm { streams: value.field("streams")? })
            }
            "spill_fault_burst" => Ok(ChaosFault::SpillFaultBurst { count: value.field("count")? }),
            "net_fault_burst" => Ok(ChaosFault::NetFaultBurst { count: value.field("count")? }),
            other => Err(serde::Error::msg(format!("unknown chaos fault kind `{other}`"))),
        }
    }
}

/// A seeded, serializable, replayable chaos schedule: which fault to
/// inject at which point of the ingest timeline. Generate one with
/// [`ChaosPlan::generate`], persist it with [`ChaosPlan::to_json`], and
/// the same plan JSON replays the same run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// The seed the schedule (and conventionally the run's
    /// [`FaultConfig`]) derives from.
    pub seed: u64,
    /// Scheduled events, sorted by [`ChaosEvent::at_instances`].
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Deterministically generates a schedule of `events` faults spread
    /// over an ingest timeline of `total_instances`, cycling through
    /// every fault kind so each seeded run exercises kill-shard, cold
    /// restart, hibernate storms and I/O bursts.
    pub fn generate(
        seed: u64,
        total_instances: u64,
        num_shards: usize,
        events: usize,
    ) -> ChaosPlan {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(state)
        };
        let slots = events.max(1) as u64;
        let mut scheduled = Vec::with_capacity(events);
        for i in 0..events {
            // Even spacing with seeded jitter inside each slot keeps every
            // event strictly inside the timeline.
            let slot = total_instances / (slots + 1);
            let at_instances = slot * (i as u64 + 1) + next() % slot.max(1);
            let fault = match next() % 5 {
                0 => ChaosFault::KillShard { shard: (next() % num_shards.max(1) as u64) as usize },
                1 => ChaosFault::ColdRestart,
                2 => ChaosFault::HibernateStorm { streams: 16 + (next() % 48) as usize },
                3 => ChaosFault::SpillFaultBurst { count: 1 + next() % 3 },
                _ => ChaosFault::NetFaultBurst { count: 1 + next() % 3 },
            };
            scheduled.push(ChaosEvent { at_instances, fault });
        }
        scheduled.sort_by_key(|e| e.at_instances);
        ChaosPlan { seed, events: scheduled }
    }

    /// Serializes the plan to pretty JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parses a plan back from [`ChaosPlan::to_json`] output.
    pub fn from_json(text: &str) -> Result<ChaosPlan, String> {
        let value = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        Deserialize::deserialize_value(&value).map_err(|e| e.to_string())
    }
}

/// The process-wide environment fault plane behind `RBM_CHAOS=<rate>`:
/// a plane arming only the **result-invisible** sites (hibernate storms
/// and net delays) at the given rate, seeded by `RBM_CHAOS_SEED`
/// (default `0xc4a05eed`). `None` unless the variable holds a positive
/// rate. Read once; fixed for the process lifetime. `ServerHandle::start`
/// adopts this plane automatically when no explicit one is supplied, so
/// CI can thrash every existing suite with faults that must stay
/// invisible in the results.
pub fn env_plane() -> Option<&'static Arc<FaultPlane>> {
    static PLANE: OnceLock<Option<Arc<FaultPlane>>> = OnceLock::new();
    PLANE
        .get_or_init(|| {
            let rate: f64 = std::env::var("RBM_CHAOS").ok()?.trim().parse().ok()?;
            if rate <= 0.0 || !rate.is_finite() {
                return None;
            }
            let seed = std::env::var("RBM_CHAOS_SEED")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(0xc4a0_5eed);
            let mut config = FaultConfig::quiet(seed);
            config.hibernate = FaultRate::every(rate);
            config.net_delay = FaultRate::every(rate);
            config.net_delay_ms = 1;
            Some(Arc::new(FaultPlane::new(config)))
        })
        .as_ref()
}

/// splitmix64 finalizer: the avalanche behind every injection decision.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a hash.
fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Stable coordinates of a path (its textual form hashed).
fn path_coords(path: &Path) -> u64 {
    rbm_im_streams::source::derive_stream_seed(0xc4a0_5a17, &path.to_string_lossy())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_and_coordinates() {
        let mut config = FaultConfig::quiet(7);
        config.shard_panic = FaultRate::every(0.25);
        let a = FaultPlane::new(config);
        let b = FaultPlane::new(config);
        let draws_a: Vec<bool> = (0..512).map(|m| a.shard_panic(1, m)).collect();
        let draws_b: Vec<bool> = (0..512).map(|m| b.shard_panic(1, m)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same coordinates, same decisions");
        let hits = draws_a.iter().filter(|&&d| d).count();
        assert!((64..192).contains(&hits), "rate 0.25 over 512 draws hit {hits} times");

        config.seed = 8;
        let c = FaultPlane::new(config);
        let draws_c: Vec<bool> = (0..512).map(|m| c.shard_panic(1, m)).collect();
        assert_ne!(draws_a, draws_c, "a different seed draws a different sequence");
    }

    #[test]
    fn budgets_cap_injections_and_bursts_fire_with_certainty() {
        let mut config = FaultConfig::quiet(3);
        config.hibernate = FaultRate::capped(1.0, 4);
        let plane = FaultPlane::new(config);
        let fired = (0..100).filter(|&m| plane.chaos_hibernate(0, m)).count();
        assert_eq!(fired, 4, "budget caps a certain rate");
        assert_eq!(plane.injected(FaultSite::Hibernate), 4);

        let quiet = FaultPlane::new(FaultConfig::quiet(3));
        assert!(!quiet.net_truncate(0), "quiet planes never fire");
        quiet.arm(FaultSite::NetTruncate, 2);
        assert!(quiet.net_truncate(1) && quiet.net_truncate(2), "armed bursts are certain");
        assert!(!quiet.net_truncate(3), "the burst is consumed");
        assert_eq!(quiet.injected(FaultSite::NetTruncate), 2);
    }

    #[test]
    fn chaos_plans_are_deterministic_and_round_trip_json() {
        let plan = ChaosPlan::generate(42, 100_000, 4, 12);
        assert_eq!(plan, ChaosPlan::generate(42, 100_000, 4, 12));
        assert_ne!(plan, ChaosPlan::generate(43, 100_000, 4, 12));
        assert_eq!(plan.events.len(), 12);
        assert!(plan.events.windows(2).all(|w| w[0].at_instances <= w[1].at_instances));
        assert!(plan.events.iter().all(|e| e.at_instances < 100_000));
        let json = plan.to_json().unwrap();
        assert_eq!(ChaosPlan::from_json(&json).unwrap(), plan);
    }
}
