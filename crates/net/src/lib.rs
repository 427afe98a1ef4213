//! `rbm-im-net` — the TCP wire front-end for the sharded serving plane.
//!
//! `rbm-im-serve` shards many concurrent streams inside one process; this
//! crate puts a wire in front of it, the prerequisite to multi-process
//! distribution. Three pieces:
//!
//! * [`wire`] — a length-prefixed binary frame grammar (`RBMW` magic,
//!   version, frame type, body) built on the RBMC checkpoint codec's
//!   varint/value framing, so wire captures decode with checkpoint
//!   tooling;
//! * [`NetServer`] — a `std::net` TCP listener (thread-per-connection; the
//!   build environment has no async runtime and needs none here: one OS
//!   thread per connection is exactly the serving plane's own
//!   thread-per-shard discipline) that terminates frames and drives the
//!   in-process [`ServerHandle`](rbm_im_serve::ServerHandle) /
//!   [`StreamClient`](rbm_im_serve::StreamClient) seam: attach/detach with
//!   full detector spec strings, blocking and fail-fast ingest (a blocking
//!   frame waits for shard queue space; a fail-fast one meets a full
//!   queue with a `Busy` reply carrying the rejected count),
//!   drain barrier, stream checkpoints, shutdown → final
//!   [`ServeReport`](rbm_im_serve::ServeReport), and a subscription mode
//!   streaming the drift-event bus to the client;
//! * [`NetClient`] / [`NetStreamClient`] — the matching blocking client,
//!   mirroring the in-process API (same method names, same
//!   [`IngestError`](rbm_im_serve::IngestError) contract) so feeder code
//!   runs unchanged over loopback.
//!
//! # Determinism contract
//!
//! The wire adds no nondeterminism: a fleet fed over N TCP connections
//! produces **bitwise-identical** drift offsets, metrics and final report
//! to the same feed through in-process `StreamClient`s — and, transitively,
//! to a sequential `PipelineBuilder` run per stream (`tests/determinism.rs`
//! pins the three-way chain). Per-stream arrival order is what matters;
//! connection interleaving, like thread interleaving, is free.
//!
//! # Loopback lifecycle
//!
//! ```
//! use rbm_im_harness::registry::DetectorSpec;
//! use rbm_im_net::{NetClient, NetServer};
//! use rbm_im_serve::ServeConfig;
//! use rbm_im_streams::generators::GaussianMixtureGenerator;
//! use rbm_im_streams::{DataStream, StreamExt};
//!
//! let server = NetServer::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let client = NetClient::connect(server.local_addr()).unwrap();
//!
//! let mut stream = GaussianMixtureGenerator::balanced(8, 3, 1, 7);
//! let spec = DetectorSpec::parse("rddm").unwrap();
//! let feed = client.attach("feed-00", stream.schema().clone(), &spec).unwrap();
//! feed.ingest_batch(stream.take_instances(200)).unwrap();
//!
//! client.drain().unwrap();
//! let report = client.shutdown().unwrap();
//! assert_eq!(report.streams.len(), 1);
//! assert_eq!(report.streams[0].result.instances, 200);
//! assert_eq!(report.frames_dropped, 0);
//! # server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetError, NetStreamClient};
pub use server::{NetServer, NetServerHandle};
pub use wire::{ErrorCode, Frame, WireError, MAX_FRAME_BYTES, WIRE_MAGIC, WIRE_VERSION};
