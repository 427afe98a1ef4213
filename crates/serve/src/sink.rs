//! Disk persistence for served streams: spill per-stream RBMC
//! checkpoints, load them back for restart-from-disk, and keep the
//! supervisor's trace log.
//!
//! A [`SnapshotSink`] owns a directory. Two artifact kinds live in it:
//!
//! * `<stream>.checkpoint.bin` — one self-contained [`StreamCheckpoint`]
//!   per stream (schema, effective spec, run config and complete pipeline
//!   state), overwritten on every spill. It is written in the compact
//!   RBMC binary codec ([`rbm_im_harness::checkpoint::codec`]), the only
//!   checkpoint format there is. A restarted process loads
//!   these with [`SnapshotSink::load_checkpoints`] and hands each to
//!   [`ServerHandle::restore_stream`](crate::server::ServerHandle::restore_stream)
//!   so the stream resumes bitwise-identically;
//! * `trace.jsonl` — the slow-path spans the
//!   [`Supervisor`](crate::supervisor::Supervisor) drains from the
//!   server's tracer ([`SnapshotSink::spill_trace`]). Once it reaches
//!   [`TRACE_ROTATE_BYTES`] it is renamed over `trace.1.jsonl`, so the
//!   trace never holds more than two files on disk.
//!
//! Metric history is not kept here: the bus publishes a
//! [`Snapshot`](crate::event::ServeEventKind::Snapshot) event per stream
//! on the run's metric window, and a subscriber that wants the history
//! records it itself.
//!
//! Spills are atomic (a uniquely named temp file + rename), so a process
//! crash mid-spill leaves the previous checkpoint intact and concurrent
//! spills of one stream never touch each other's temp file. Spills are
//! not fsynced, so a power loss can still tear one; a truncated or
//! corrupt file fails the RBMC CRC32C check and is reported as a clean
//! [`io::Error`] at load — never silently skipped, never garbage state.
//!
//! Stream ids are sanitized into file names (alphanumerics, `-`, `_`, `.`
//! kept; everything else mapped to `_` plus a hash suffix on collision
//! risk), so arbitrary ids cannot escape the sink directory.

use crate::server::StreamCheckpoint;
use rbm_im_harness::checkpoint::codec;
use rbm_im_obs::{Histogram, MetricsRegistry, TraceEvent};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-wide spill counter: with the process id it gives every
/// checkpoint spill a temp file of its own, so two sinks spilling the same
/// stream into one directory never rename each other's temp file away.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Sequence numbers of this process's spills between their temp-file
/// write and its rename: the orphan sweep of [`SnapshotSink::new`] leaves
/// these temp files alone.
static IN_FLIGHT: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());

/// Size at which the live `trace.jsonl` is renamed over `trace.1.jsonl`:
/// the trace log holds at most this plus one drained batch per file.
pub const TRACE_ROTATE_BYTES: u64 = 1 << 20;

/// Checkpoint-spill timing instruments
/// (`rbm_supervisor_spill_seconds{phase=encode|write}`), bound via
/// [`SnapshotSink::with_metrics`]; recorded whenever instruments are bound.
struct SpillObs {
    encode: Arc<Histogram>,
    write: Arc<Histogram>,
}

impl fmt::Debug for SpillObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillObs").finish()
    }
}

/// The sink's injectable filesystem seam: every checkpoint **write**,
/// the atomic **rename** publishing it, and every checkpoint **read**
/// route through this trait. Production uses the [`OsSpillIo`]
/// passthrough; the chaos plane substitutes
/// [`ChaosSpillIo`](crate::chaos::ChaosSpillIo) to inject ENOSPC,
/// short-write and corrupt-on-read faults deterministically
/// ([`SnapshotSink::with_io`]). Directory scans and trace appends
/// stay on the raw filesystem — the fault surface under test is the
/// checkpoint durability path.
pub trait SpillIo: Send + Sync + fmt::Debug {
    /// Writes `bytes` to `path` (creating or truncating it).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The default [`SpillIo`]: a plain passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsSpillIo;

impl SpillIo for OsSpillIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

/// Spill directory for checkpoints and the trace log.
#[derive(Debug)]
pub struct SnapshotSink {
    dir: PathBuf,
    spill_obs: Option<SpillObs>,
    /// The filesystem seam checkpoint writes/renames/reads go through
    /// ([`OsSpillIo`] unless [`SnapshotSink::with_io`] swapped it).
    io: Arc<dyn SpillIo>,
    /// Persistent encode buffer reused across checkpoint spills: after the
    /// first spill its capacity covers the fleet's largest checkpoint, so
    /// steady-state background spilling stops allocating a fresh output
    /// vector per checkpoint (pinned by `tests/spill_alloc.rs`).
    encode_scratch: Mutex<Vec<u8>>,
}

impl SnapshotSink {
    /// Opens (creating if needed) a sink over `dir`.
    ///
    /// Opening sweeps orphan `*.checkpoint.bin.<pid>-<seq>.tmp` files out
    /// of the directory: a spill that died between its temp-file write and
    /// its rename (a crash, a full disk) leaves a partially written `.tmp`
    /// behind, and while the loaders never read those, letting them
    /// accumulate turns every crash into permanent disk debris. A `.tmp`
    /// is only ever the *incomplete* side of an atomic publish, never the
    /// authoritative checkpoint, but it may belong to a spill still in
    /// flight, so the sweep spares it while its spill can still finish:
    /// this process's own spills between write and rename, and any file
    /// whose `<pid>` has a `/proc/<pid>` entry. Without `/proc`, other
    /// processes' temp files are always swept.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.file_name().and_then(|n| n.to_str()).is_some_and(is_orphan_tmp) {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(SnapshotSink {
            dir,
            spill_obs: None,
            io: Arc::new(OsSpillIo),
            encode_scratch: Mutex::new(Vec::new()),
        })
    }

    /// Replaces the sink's filesystem seam ([`OsSpillIo`] by default):
    /// checkpoint writes, their atomic renames, and checkpoint reads all
    /// route through `io`. The chaos harness injects
    /// [`ChaosSpillIo`](crate::chaos::ChaosSpillIo) here.
    pub fn with_io(mut self, io: Arc<dyn SpillIo>) -> Self {
        self.io = io;
        self
    }

    /// Binds spill-timing instruments from `metrics`: every subsequent
    /// checkpoint spill records its encode and write durations into
    /// `rbm_supervisor_spill_seconds{phase=encode|write}`. The
    /// [`Supervisor`](crate::supervisor::Supervisor) wires the server's
    /// registry in automatically, so supervised runs get spill timing
    /// without caller involvement.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.spill_obs = Some(SpillObs {
            encode: metrics.histogram("rbm_supervisor_spill_seconds", &[("phase", "encode")]),
            write: metrics.histogram("rbm_supervisor_spill_seconds", &[("phase", "write")]),
        });
        self
    }

    /// The sink directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes (atomically, via a temp file + rename) one stream's
    /// checkpoint, overwriting any previous checkpoint of the same stream.
    /// Returns the file path.
    pub fn spill_checkpoint(&self, checkpoint: &StreamCheckpoint) -> io::Result<PathBuf> {
        let path = self.checkpoint_path(&checkpoint.stream);
        // Encode into the sink's persistent scratch buffer: cleared (not
        // shrunk) per spill, so once it has grown to the fleet's largest
        // checkpoint no further output allocations happen.
        let mut scratch = self.encode_scratch.lock().expect("encode scratch poisoned");
        scratch.clear();
        let encode_started = Instant::now();
        codec::encode_into(checkpoint, &mut scratch);
        if let Some(obs) = &self.spill_obs {
            obs.encode.record(encode_started.elapsed().as_nanos() as u64);
        }
        let write_started = Instant::now();
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("bin.{}-{seq}.tmp", std::process::id()));
        IN_FLIGHT.lock().expect("in-flight set poisoned").insert(seq);
        let published =
            self.io.write(&tmp, scratch.as_slice()).and_then(|()| self.io.rename(&tmp, &path));
        IN_FLIGHT.lock().expect("in-flight set poisoned").remove(&seq);
        published?;
        if let Some(obs) = &self.spill_obs {
            obs.write.record(write_started.elapsed().as_nanos() as u64);
        }
        Ok(path)
    }

    /// Spills a batch of checkpoints (e.g. the output of
    /// `ServerHandle::checkpoint_all`). Returns the written paths.
    pub fn spill_all(&self, checkpoints: &[StreamCheckpoint]) -> io::Result<Vec<PathBuf>> {
        checkpoints.iter().map(|c| self.spill_checkpoint(c)).collect()
    }

    /// Loads every `*.checkpoint.bin` in the sink directory, sorted by
    /// stream id. Files that fail to decode (truncated spill, corrupt
    /// bytes, a future codec version) are reported as errors naming the
    /// file, not skipped silently.
    pub fn load_checkpoints(&self) -> io::Result<Vec<StreamCheckpoint>> {
        let mut checkpoints = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".checkpoint.bin"))
            {
                checkpoints.push(self.read_checkpoint(&path)?);
            }
        }
        checkpoints.sort_by(|a, b| a.stream.cmp(&b.stream));
        Ok(checkpoints)
    }

    /// Loads one stream's checkpoint. Returns `Ok(None)` if the stream has
    /// no spill.
    pub fn load_checkpoint(&self, stream: &str) -> io::Result<Option<StreamCheckpoint>> {
        let path = self.checkpoint_path(stream);
        if !path.exists() {
            return Ok(None);
        }
        self.read_checkpoint(&path).map(Some)
    }

    /// Reads and decodes one checkpoint file through the I/O seam; a
    /// decode error names the file.
    fn read_checkpoint(&self, path: &Path) -> io::Result<StreamCheckpoint> {
        let bytes = self.io.read(path)?;
        codec::decode(&bytes).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })
    }

    /// Appends completed trace spans (one JSONL line each, see
    /// [`TraceEvent::to_jsonl`]) to the sink-wide `trace.jsonl`. Once the
    /// file reaches [`TRACE_ROTATE_BYTES`] it is renamed over
    /// `trace.1.jsonl`, replacing the previous sealed log. The supervisor
    /// drains the server's [`Tracer`](rbm_im_obs::Tracer) through this
    /// every tick. Returns whether the append triggered a rotation.
    pub fn spill_trace(&self, events: &[TraceEvent]) -> io::Result<bool> {
        if events.is_empty() {
            return Ok(false);
        }
        let live = self.trace_path();
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&live)?;
        for event in events {
            writeln!(file, "{}", event.to_jsonl())?;
        }
        if file.metadata()?.len() < TRACE_ROTATE_BYTES {
            return Ok(false);
        }
        drop(file);
        fs::rename(&live, self.dir.join("trace.1.jsonl"))?;
        Ok(true)
    }

    /// The live trace log path (`<dir>/trace.jsonl`).
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    fn checkpoint_path(&self, stream: &str) -> PathBuf {
        self.dir.join(format!("{}.checkpoint.bin", sanitize(stream)))
    }
}

/// Whether a sink-directory file name is spill debris the sweep may
/// delete: a `*.checkpoint.bin.*.tmp` whose `<pid>-<seq>` tag names
/// neither one of this process's in-flight spills nor a live process (an
/// untagged temp file is always debris).
fn is_orphan_tmp(name: &str) -> bool {
    if !(name.contains(".checkpoint.bin.") && name.ends_with(".tmp")) {
        return false;
    }
    let owner = name
        .strip_suffix(".tmp")
        .and_then(|stem| stem.rsplit_once(".checkpoint.bin."))
        .and_then(|(_, tag)| tag.split_once('-'))
        .and_then(|(pid, seq)| Some((pid.parse::<u32>().ok()?, seq.parse::<u64>().ok()?)));
    match owner {
        Some((pid, seq)) if pid == std::process::id() => {
            !IN_FLIGHT.lock().expect("in-flight set poisoned").contains(&seq)
        }
        Some((pid, _)) => !Path::new("/proc").join(pid.to_string()).exists(),
        None => true,
    }
}

/// Maps a stream id to a safe file stem: benign characters pass through,
/// everything else becomes `_`, and any id that needed mapping (or is
/// empty) gets a disambiguating hash suffix so distinct ids cannot collide
/// on the same file.
fn sanitize(stream: &str) -> String {
    let mapped: String = stream
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '_' })
        .collect();
    if mapped == stream && !mapped.is_empty() {
        mapped
    } else {
        let hash = rbm_im_streams::source::derive_stream_seed(0x51ac_c0de, stream);
        format!("{mapped}-{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_benign_ids_and_disambiguates_others() {
        assert_eq!(sanitize("feed-01"), "feed-01");
        assert_eq!(sanitize("a.b_c9"), "a.b_c9");
        let odd = sanitize("../escape");
        assert!(!odd.contains('/'), "{odd}");
        assert!(odd.ends_with(|c: char| c.is_ascii_hexdigit()), "{odd}: needs a hash suffix");
        assert_ne!(sanitize("a/b"), sanitize("a:b"), "mapped ids must stay distinct");
        assert!(!sanitize("").is_empty());
    }
}
