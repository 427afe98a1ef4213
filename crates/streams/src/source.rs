//! Stream-id'd, replayable stream sources.
//!
//! A fleet feeder needs a *named recipe* for a stream, not one live
//! iterator: a recipe that can be opened any number of times, each opening
//! yielding the identical instance sequence. [`StreamSource`] is that
//! recipe — an id, a schema, and a deterministic factory; the
//! `serve_fraud_feeds` examples open their fleets from it (the experiment
//! grid has its own `GridStream` in the harness). Replayability is what
//! makes end-to-end results pinnable: a serving run and a sequential
//! [`PipelineBuilder`] run over fresh openings of the same source must
//! agree bitwise.
//!
//! [`ReplayStream`] is the simplest source backing: a recorded instance
//! vector played back in order (tests record a live stream once, then
//! replay it into several systems under test). [`derive_stream_seed`] is
//! the canonical seed mix used to give every named stream of a fleet its
//! own decorrelated — but reproducible — RNG seed.
//!
//! [`PipelineBuilder`]: https://docs.rs/rbm-im-harness

use crate::instance::{Instance, StreamSchema};
use crate::stream::DataStream;
use std::fmt;
use std::sync::Arc;

/// Deterministic seed mix of a base seed and a stream id (FNV-1a over the
/// id, then SplitMix64-style finalization). Same base + same id ⇒ same
/// seed; different ids are decorrelated. This is the single definition the
/// whole workspace uses (the harness grid and the serving layer both
/// call it).
pub fn derive_stream_seed(base: u64, id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = base ^ hash;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

type SourceBuilder = Box<dyn Fn() -> Box<dyn DataStream + Send> + Send + Sync>;

/// A named, repeatable stream recipe: every call to [`StreamSource::open`]
/// yields an identical stream (the factory must be deterministic).
pub struct StreamSource {
    id: String,
    schema: StreamSchema,
    builder: SourceBuilder,
}

impl StreamSource {
    /// Wraps a deterministic stream factory under a stream id. The schema
    /// is captured by opening the factory once.
    pub fn new(
        id: impl Into<String>,
        builder: impl Fn() -> Box<dyn DataStream + Send> + Send + Sync + 'static,
    ) -> Self {
        let schema = builder().schema().clone();
        StreamSource { id: id.into(), schema, builder: Box::new(builder) }
    }

    /// A source that replays a recorded instance sequence (see
    /// [`ReplayStream`]). The recording is shared, not cloned, across
    /// openings.
    pub fn from_recording(
        id: impl Into<String>,
        schema: StreamSchema,
        instances: Vec<Instance>,
    ) -> Self {
        let id = id.into();
        let recording: Arc<[Instance]> = instances.into();
        let replay_schema = schema.clone();
        StreamSource {
            id,
            schema,
            builder: Box::new(move || {
                Box::new(ReplayStream::shared(replay_schema.clone(), Arc::clone(&recording)))
            }),
        }
    }

    /// The stream id (routing key, event label, seed-derivation input).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Schema shared by every opening.
    pub fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    /// Opens a fresh copy of the stream.
    pub fn open(&self) -> Box<dyn DataStream + Send> {
        (self.builder)()
    }
}

impl fmt::Debug for StreamSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamSource").field("id", &self.id).field("schema", &self.schema).finish()
    }
}

/// A [`DataStream`] playing back a recorded instance sequence in order.
/// Restart rewinds to the beginning, so the stream is replayable in place.
pub struct ReplayStream {
    schema: StreamSchema,
    instances: Arc<[Instance]>,
    cursor: usize,
}

impl ReplayStream {
    /// Replays an owned recording.
    pub fn new(schema: StreamSchema, instances: Vec<Instance>) -> Self {
        ReplayStream { schema, instances: instances.into(), cursor: 0 }
    }

    /// Replays a shared recording (no copy per opening).
    pub fn shared(schema: StreamSchema, instances: Arc<[Instance]>) -> Self {
        ReplayStream { schema, instances, cursor: 0 }
    }

    /// Number of recorded instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl DataStream for ReplayStream {
    fn next_instance(&mut self) -> Option<Instance> {
        let inst = self.instances.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(inst)
    }

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn restart(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GaussianMixtureGenerator;
    use crate::StreamExt;

    #[test]
    fn derive_stream_seed_is_stable_and_id_sensitive() {
        assert_eq!(derive_stream_seed(42, "feed-00"), derive_stream_seed(42, "feed-00"));
        assert_ne!(derive_stream_seed(42, "feed-00"), derive_stream_seed(42, "feed-01"));
        assert_ne!(derive_stream_seed(42, "feed-00"), derive_stream_seed(43, "feed-00"));
    }

    #[test]
    fn source_openings_are_identical() {
        let source =
            StreamSource::new("mix", || Box::new(GaussianMixtureGenerator::balanced(4, 3, 1, 11)));
        assert_eq!(source.id(), "mix");
        assert_eq!(source.schema().num_features, 4);
        let a = source.open().take_instances(200);
        let b = source.open().take_instances(200);
        assert_eq!(a, b);
    }

    #[test]
    fn recording_source_replays_and_restarts() {
        let mut live = GaussianMixtureGenerator::balanced(3, 2, 1, 5);
        let recorded = live.take_instances(50);
        let source = StreamSource::from_recording("rec", live.schema().clone(), recorded.clone());
        let mut opened = source.open();
        assert_eq!(opened.take_instances(100), recorded);
        assert!(opened.next_instance().is_none());
        opened.restart();
        assert_eq!(opened.take_instances(100), recorded);
    }

    #[test]
    fn replay_stream_len_and_empty() {
        let schema = StreamSchema::new("r", 2, 2);
        let mut empty = ReplayStream::new(schema.clone(), vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(empty.next_instance().is_none());
        let mut one = ReplayStream::new(schema, vec![Instance::new(vec![1.0, 2.0], 1)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.next_instance().unwrap().class, 1);
    }
}
