//! `SnapshotSink` durability contract: round trip, racing spills, error
//! paths and the trace log's size bound.
//!
//! Background spills are only worth having if a warm restart can trust
//! them, so every failure mode must surface as a clean error naming the
//! offending file: truncated spills, corrupt bytes, future codec
//! versions, unwritable directories. And two sinks spilling the same
//! stream into one directory at once must both succeed.

use rbm_im_harness::checkpoint::codec::BINARY_MAGIC;
use rbm_im_harness::checkpoint::PipelineCheckpoint;
use rbm_im_harness::pipeline::{PipelineEvent, RunConfig};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::stepper::PipelineStepper;
use rbm_im_serve::{SnapshotSink, SpillIo, StreamCheckpoint};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, StreamExt};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A pid no process can have: Linux caps pids at 2^22.
const DEAD_PID: u32 = u32::MAX;

/// A unique scratch directory under the target-adjacent temp root.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbm-sink-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small warmed checkpoint to spill (500 instances, ADWIN so it is
/// cheap).
fn sample_checkpoint(stream: &str) -> StreamCheckpoint {
    sample_checkpoint_at(stream, 500)
}

/// A warmed checkpoint capturing exactly `instances` processed instances.
fn sample_checkpoint_at(stream: &str, instances: usize) -> StreamCheckpoint {
    let mut gen = RandomRbfGenerator::new(6, 3, 2, 0.0, 11);
    let schema = gen.schema().clone();
    let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
    let run = RunConfig { metric_window: 100, detector_batch: 10, ..Default::default() };
    let mut stepper =
        PipelineStepper::from_spec(DetectorRegistry::global(), &spec, &schema, run).unwrap();
    let mut sink = |_: &PipelineEvent<'_>| {};
    for instance in gen.take_instances(instances) {
        stepper.step(instance, &mut sink);
    }
    StreamCheckpoint {
        stream: stream.to_string(),
        checkpoint: PipelineCheckpoint::capture(&stepper, schema, spec).unwrap(),
    }
}

fn checkpoint_file(dir: &Path, suffix: &str) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().ends_with(suffix))
        .unwrap_or_else(|| panic!("no *{suffix} in {}", dir.display()))
}

fn assert_no_tmp_files(dir: &Path) {
    for entry in fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(!name.to_string_lossy().ends_with(".tmp"), "leftover temp file {name:?}");
    }
}

#[test]
fn binary_spills_round_trip_without_leftover_tmp() {
    let checkpoint = sample_checkpoint("feed-a");
    let dir = scratch("bin");
    let sink = SnapshotSink::new(&dir).unwrap();
    let path = sink.spill_checkpoint(&checkpoint).unwrap();
    assert!(path.to_string_lossy().ends_with(".checkpoint.bin"));
    assert_eq!(&fs::read(&path).unwrap()[..4], &BINARY_MAGIC);

    assert_eq!(sink.load_checkpoints().unwrap(), vec![checkpoint.clone()]);
    assert_eq!(sink.load_checkpoint("feed-a").unwrap().unwrap(), checkpoint);
    assert!(sink.load_checkpoint("missing").unwrap().is_none());
    // No leftover temp files from the atomic write protocol.
    assert_no_tmp_files(&dir);
    let _ = fs::remove_dir_all(dir);
}

/// A [`SpillIo`] whose first write, once its temp file is on disk, runs a
/// rival sink's spill of the same stream into the same directory before
/// returning — the interleaving a supervisor and a second spiller hit when
/// both spill one stream at once.
#[derive(Debug)]
struct InterleavingIo {
    rival: SnapshotSink,
    rival_checkpoint: StreamCheckpoint,
    fired: AtomicBool,
}

impl SpillIo for InterleavingIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)?;
        if !self.fired.swap(true, Ordering::SeqCst) {
            self.rival.spill_checkpoint(&self.rival_checkpoint)?;
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

#[test]
fn interleaved_spills_of_one_stream_both_succeed() {
    let dir = scratch("interleaved");
    let older = sample_checkpoint_at("feed-i", 300);
    let fresh = sample_checkpoint_at("feed-i", 500);
    let io = InterleavingIo {
        rival: SnapshotSink::new(&dir).unwrap(),
        rival_checkpoint: older,
        fired: AtomicBool::new(false),
    };
    let sink = SnapshotSink::new(&dir).unwrap().with_io(Arc::new(io));
    // The rival's spill lands while this spill's temp file is written but
    // not yet renamed; each spill must publish its own temp file.
    sink.spill_checkpoint(&fresh).expect("a racing spill must not steal this spill's temp file");
    assert_eq!(sink.load_checkpoint("feed-i").unwrap().unwrap(), fresh, "the later rename wins");
    assert_no_tmp_files(&dir);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn opening_a_sink_sweeps_orphan_tmp_files() {
    // A crash (or injected ENOSPC) between the atomic-write protocol's
    // temp write and its rename leaves a `*.checkpoint.bin.<pid>-<seq>.tmp`
    // orphan behind. The next sink opened on the directory must sweep those so
    // debris never accumulates — while leaving real checkpoints and
    // unrelated files alone.
    let dir = scratch("tmp-sweep");
    let sink = SnapshotSink::new(&dir).unwrap();
    let checkpoint = sample_checkpoint("feed-g");
    sink.spill_checkpoint(&checkpoint).unwrap();
    let dead_tmp = format!("feed-g.checkpoint.bin.{DEAD_PID}-7.tmp");
    fs::write(dir.join(&dead_tmp), b"half-written").unwrap();
    fs::write(dir.join("other.checkpoint.bin.tmp"), b"half-written").unwrap();
    fs::write(dir.join("notes.tmp"), b"not checkpoint debris").unwrap();

    let reopened = SnapshotSink::new(&dir).unwrap();
    assert!(!dir.join(&dead_tmp).exists(), "orphan tmp must be swept");
    assert!(!dir.join("other.checkpoint.bin.tmp").exists(), "older-style orphan must be swept");
    assert!(dir.join("notes.tmp").exists(), "non-checkpoint tmp files are not ours to delete");
    assert_eq!(
        reopened.load_checkpoint("feed-g").unwrap().unwrap(),
        checkpoint,
        "the real checkpoint must survive the sweep"
    );
    // Loading the full directory sees exactly the one real spill.
    assert_eq!(reopened.load_checkpoints().unwrap().len(), 1);
    let _ = fs::remove_dir_all(dir);
}

/// A [`SpillIo`] that, once a spill's temp file is on disk and before its
/// rename, opens a second sink on the same directory: the orphan sweep
/// racing a live spill. Records whether the temp file survived the sweep.
#[derive(Debug)]
struct SweepMidSpillIo {
    dir: PathBuf,
    tmp_survived: Mutex<Option<bool>>,
}

impl SpillIo for SweepMidSpillIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)?;
        SnapshotSink::new(&self.dir)?;
        *self.tmp_survived.lock().unwrap() = Some(path.exists());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

#[test]
fn opening_a_sink_mid_spill_spares_live_temp_files() {
    let dir = scratch("live-tmp");
    let io = Arc::new(SweepMidSpillIo { dir: dir.clone(), tmp_survived: Mutex::new(None) });
    let sink = SnapshotSink::new(&dir).unwrap().with_io(Arc::clone(&io) as Arc<dyn SpillIo>);
    // Debris of a dead process and of one of this process's own spills
    // that failed (its sequence number is never in flight), beside a temp
    // file of a live process: pid 1 exists wherever `/proc` does.
    let dead = dir.join(format!("feed-d.checkpoint.bin.{DEAD_PID}-3.tmp"));
    let own_failed =
        dir.join(format!("feed-f.checkpoint.bin.{}-{}.tmp", std::process::id(), u64::MAX));
    let live = dir.join("feed-l.checkpoint.bin.1-3.tmp");
    for path in [&dead, &own_failed, &live] {
        fs::write(path, b"half-written").unwrap();
    }

    let checkpoint = sample_checkpoint("feed-s");
    let spilled = sink.spill_checkpoint(&checkpoint);
    assert_eq!(
        *io.tmp_survived.lock().unwrap(),
        Some(true),
        "the sweep must spare this process's in-flight temp file"
    );
    spilled.expect("the spill renames its surviving temp file into place");
    assert_eq!(sink.load_checkpoint("feed-s").unwrap().unwrap(), checkpoint);
    assert!(!dead.exists(), "a dead process's temp file is swept");
    assert!(!own_failed.exists(), "this process's failed spill's temp file is swept");
    assert_eq!(
        live.exists(),
        Path::new("/proc/1").exists(),
        "a live process's temp file is spared (swept only without /proc)"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn unwritable_directory_is_a_clean_error() {
    // A *file* where the sink directory should be: create_dir_all fails.
    let parent = scratch("unwritable");
    fs::create_dir_all(&parent).unwrap();
    let blocker = parent.join("occupied");
    fs::write(&blocker, b"not a directory").unwrap();
    assert!(SnapshotSink::new(&blocker).is_err(), "file in place of dir must fail to open");
    assert!(
        SnapshotSink::new(blocker.join("nested")).is_err(),
        "dir under a file must fail to open"
    );

    // A sink whose directory vanished after opening fails at spill, not
    // with a panic or a silent no-op.
    let vanishing = parent.join("vanishing");
    let sink = SnapshotSink::new(&vanishing).unwrap();
    fs::remove_dir_all(&vanishing).unwrap();
    assert!(sink.spill_checkpoint(&sample_checkpoint("feed-c")).is_err());
    let _ = fs::remove_dir_all(parent);
}

#[test]
fn truncated_and_corrupt_spills_error_at_load() {
    let dir = scratch("corrupt");
    let sink = SnapshotSink::new(&dir).unwrap();
    sink.spill_checkpoint(&sample_checkpoint("feed-d")).unwrap();
    let path = checkpoint_file(&dir, ".checkpoint.bin");

    // Truncate to half: load must fail and name the file.
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = sink.load_checkpoints().expect_err("truncated spill must not load");
    assert!(err.to_string().contains("checkpoint."), "error should name the file: {err}");
    let err = sink.load_checkpoint("feed-d").expect_err("single load must also fail");
    assert!(err.to_string().contains("checkpoint."), "{err}");

    // Arbitrary garbage: same clean failure.
    fs::write(&path, b"\xff\xfe\xfdgarbage").unwrap();
    assert!(sink.load_checkpoints().is_err());
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn future_codec_version_is_a_clean_error() {
    let dir = scratch("version");
    let sink = SnapshotSink::new(&dir).unwrap();
    sink.spill_checkpoint(&sample_checkpoint("feed-e")).unwrap();
    let path = checkpoint_file(&dir, ".checkpoint.bin");
    let mut bytes = fs::read(&path).unwrap();
    // Bump the version field (bytes 4–5, little endian) to a future one.
    bytes[4] = 0x2A;
    bytes[5] = 0x00;
    fs::write(&path, &bytes).unwrap();
    let err = sink.load_checkpoints().expect_err("future version must not load");
    let message = err.to_string();
    assert!(
        message.contains("version 42") && message.contains("not supported"),
        "version mismatch must be explicit: {message}"
    );
    let _ = fs::remove_dir_all(dir);
}

// ---- trace log rotation ----------------------------------------------------

use rbm_im_obs::TraceEvent;
use rbm_im_serve::sink::TRACE_ROTATE_BYTES;

/// The trace log is bounded without any setting: driven through two
/// rotations (more than twice the rotation size) in batches as large as
/// the server's tracer ring holds, `trace.jsonl` rotates over one
/// `trace.1.jsonl`, no second generation ever appears, and neither file
/// outgrows the rotation size plus the batch that crossed it. A log that
/// never rotates fails the size check, so the loop ends.
#[test]
fn trace_log_rotates_over_one_sealed_file() {
    const TRACER_CAPACITY: u64 = 4096;
    let dir = scratch("trace-rotate");
    let sink = SnapshotSink::new(&dir).unwrap();
    let sealed = dir.join("trace.1.jsonl");
    let mut rotations = 0;
    let mut batch_no = 0u64;
    while rotations < 2 {
        let batch: Vec<TraceEvent> = (0..TRACER_CAPACITY)
            .map(|i| TraceEvent {
                span: "spill".to_string(),
                detail: format!("feed-{:04}", i % 1000),
                start_ns: batch_no * 1_000_000_000 + i * 1_000,
                dur_ns: 20_000 + i,
            })
            .collect();
        let batch_bytes: u64 = batch.iter().map(|e| e.to_jsonl().len() as u64 + 1).sum();
        batch_no += 1;
        if sink.spill_trace(&batch).unwrap() {
            rotations += 1;
        }
        assert!(!dir.join("trace.2.jsonl").exists(), "a second sealed generation appeared");
        for path in [sink.trace_path(), sealed.clone()] {
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            assert!(
                len < TRACE_ROTATE_BYTES + batch_bytes,
                "{} holds {len} bytes after batch {batch_no}",
                path.display()
            );
        }
    }
    assert!(sealed.exists(), "the rotated trace is missing");
    let _ = fs::remove_dir_all(dir);
}
