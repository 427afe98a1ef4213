//! `rbm-im-serve` — sharded multi-stream serving of RBM-IM drift-detection
//! pipelines.
//!
//! The paper evaluates one stream at a time; production traffic is many
//! concurrent streams. This crate serves them on a share-nothing sharded
//! architecture built from the workspace's existing pieces:
//!
//! * a [`StreamRouter`] hashes stream ids onto N
//!   shards — stateless, so attach and ingest agree on placement with no
//!   coordination;
//! * each shard is a **dedicated worker thread** exclusively owning its
//!   streams' pipeline state: classifier, detector (any registry
//!   [`DetectorSpec`](rbm_im_harness::registry::DetectorSpec)), prequential
//!   evaluator. The worker thread also owns the one RBM training scratch
//!   (`rbm_im::Workspace`) that all its RBM streams borrow in turn, so a
//!   hot stream carries model state only;
//! * ingest flows through **bounded MPSC channels**, one client-side
//!   micro-batch per message: [`StreamClient::try_ingest_batch`] fails
//!   fast with [`IngestError::Full`] when a shard falls behind (explicit
//!   backpressure) and blocking `ingest_batch` waits; the pipeline's
//!   `detector_batch` micro-batching keeps the RBM hot path on the batched
//!   CD-k kernels;
//! * drifts (with per-class attribution), warnings and periodic per-stream
//!   metric snapshots are published on a subscriber
//!   [`EventBus`];
//! * shards step streams through the *same*
//!   [`PipelineStepper`](rbm_im_harness::stepper::PipelineStepper) code a
//!   sequential
//!   [`PipelineBuilder`](rbm_im_harness::pipeline::PipelineBuilder) run
//!   executes, and per-stream deterministic seeding decorrelates streams
//!   reproducibly — so results (drift offsets, metrics) are **bitwise
//!   independent of shard count and ingest interleaving**, pinned by the
//!   `tests/serving.rs` suite against sequential runs;
//! * the fleet is **elastic**: ids route over a consistent-hash ring, so
//!   [`ServerHandle::resize_shards`]
//!   grows or shrinks the shard count live, migrating only the streams
//!   whose ring ownership changed (checkpoint on the old shard → transfer
//!   → restore on the new one, ingest parked and replayed — nothing lost,
//!   nothing reordered; `tests/resharding.rs`), and
//!   [`SnapshotSink`] spills per-stream
//!   [`StreamCheckpoint`]s to disk — in the compact binary checkpoint
//!   codec ([`rbm_im_harness::checkpoint::codec`]) — for
//!   bitwise warm restarts;
//! * the fleet is **autonomic**: a background
//!   [`Supervisor`] closes the loop on those
//!   mechanisms — per-stream jittered background checkpointing (urgent
//!   after drifts) and hot/cold tiering, each spill published on the bus,
//!   bitwise-safe under concurrent operator resizes
//!   (`tests/supervisor.rs`). The fleet size stays the operator's call:
//!   a load-driven resize policy measured no better than a fixed fleet;
//! * stream state is **tiered**: under a supervisor [`TierPolicy`] (or an
//!   explicit [`ServerHandle::hibernate_stream`]), idle streams'
//!   in-memory pipeline state is evicted to their binary checkpoint —
//!   reusing the freshest background spill when clean — so fleets far
//!   larger than RAM would allow stay attached under a hot-tier cap the
//!   shards enforce at admission; the next ingest, checkpoint or detach rehydrates
//!   transparently and bitwise-identically (`tests/hibernate.rs`,
//!   `ARCHITECTURE.md` §9);
//! * the durability stack is **proven under attack**: a deterministic,
//!   seed-driven fault-injection plane ([`chaos`]) threads kill-shard
//!   panics, spill I/O faults (via the sink's injectable [`SpillIo`]
//!   seam), hibernate storms and net-reply faults through the serving
//!   stack from a replayable [`ChaosPlan`]; the chaos suites
//!   (`tests/chaos.rs`, `examples/chaos_soak.rs`) prove zero-loss,
//!   bitwise recovery — every surviving stream identical to a clean
//!   replay from its last durable point — with exact instance accounting
//!   (`ARCHITECTURE.md` §10).
//!
//! # Lifecycle
//!
//! ```
//! use rbm_im_harness::registry::DetectorSpec;
//! use rbm_im_serve::{ServeConfig, ServerHandle};
//! use rbm_im_streams::generators::GaussianMixtureGenerator;
//! use rbm_im_streams::{DataStream, StreamExt};
//!
//! let server = ServerHandle::start(ServeConfig { num_shards: 2, ..Default::default() });
//! let events = server.subscribe();
//!
//! // Attach a stream with any registry detector spec (tuned RBM hyper-
//! // parameters go right in the spec string).
//! let mut stream = GaussianMixtureGenerator::balanced(8, 3, 1, 7);
//! let spec = DetectorSpec::parse("rbm(minibatch=25)").unwrap();
//! let client = server.attach("feed-00", stream.schema().clone(), &spec).unwrap();
//!
//! // Ingest 50-instance micro-batches with explicit backpressure.
//! let instances = stream.take_instances(500);
//! for batch in instances.chunks(50) {
//!     let mut pending = batch.to_vec();
//!     while let Err(e) = client.try_ingest_batch(pending) {
//!         pending = e.into_rejected();
//!         std::thread::yield_now();
//!     }
//! }
//!
//! server.drain(); // barrier: everything above is now processed
//! let report = server.shutdown();
//! assert_eq!(report.streams.len(), 1);
//! assert_eq!(report.streams[0].result.instances, 500);
//! drop(events);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod event;
pub mod router;
pub mod server;
mod shard;
pub mod sink;
pub mod supervisor;

pub use chaos::{
    ChaosEvent, ChaosFault, ChaosPlan, ChaosSpillIo, FaultConfig, FaultPlane, FaultRate, FaultSite,
    SpillWriteFault,
};
pub use config::{ServeConfig, TierPolicy};
pub use event::{EventBus, ServeEvent, ServeEventKind};
pub use router::StreamRouter;
pub use server::{
    deterministic_spec, FrameDropBreakdown, HealthSnapshot, HibernateOutcome, IngestError,
    MigratedStream, ResizeReport, ServeError, ServeReport, ServerHandle, ShardHealth,
    StreamCheckpoint, StreamClient, StreamSummary,
};
pub use shard::{TierKind, TierScanEntry};
pub use sink::{OsSpillIo, SnapshotSink, SpillIo};
pub use supervisor::{
    CheckpointPolicy, Supervisor, SupervisorConfig, SupervisorHandle, SupervisorReport,
};
