//! The drift-event bus: owned serving events and the subscriber fan-out.
//!
//! Shard workers and the supervisor publish; any number of subscribers
//! receive every event on their own unbounded channel. Every event belongs
//! to one stream. Publishing never blocks a shard — a slow or abandoned
//! subscriber only grows (or, once dropped, is pruned from) its own queue. Event order is preserved *per stream* (each stream lives on
//! exactly one shard thread); events of different streams interleave in
//! real arrival order, which differs run to run — consumers needing
//! determinism group by [`ServeEvent::stream`].

use rbm_im_harness::pipeline::{PipelineEvent, RunResult};
use rbm_im_metrics::PrequentialSnapshot;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// What happened on a served stream.
#[derive(Debug, Clone)]
pub enum ServeEventKind {
    /// The stream was attached and its pipeline state created.
    Attached,
    /// The stream's detector entered the warning zone.
    Warning {
        /// Per-stream instance offset of the triggering observation.
        position: u64,
    },
    /// The stream's detector signalled a drift.
    Drift {
        /// Per-stream instance offset of the triggering observation —
        /// identical to the position a sequential
        /// [`PipelineBuilder`](rbm_im_harness::pipeline::PipelineBuilder)
        /// run over the same instances would report, whatever the shard
        /// count or micro-batch boundaries.
        position: u64,
        /// Classes implicated by per-class detectors (empty for global
        /// detectors).
        classes: Vec<usize>,
    },
    /// Periodic windowed-metric snapshot (cadence =
    /// `RunConfig::snapshot_every` of the stream's pipeline config).
    Snapshot {
        /// Per-stream instance offset at which the snapshot was taken.
        position: u64,
        /// Windowed metric values.
        snapshot: PrequentialSnapshot,
    },
    /// The stream was detached (or the server shut down) and its pipeline
    /// closed; `result` is the stream's final prequential summary.
    Detached {
        /// Final run summary of the stream.
        result: RunResult,
    },
    /// The stream was live-migrated onto this shard by an elastic resize
    /// (`ServerHandle::resize_shards`): its checkpointed state moved
    /// losslessly and processing continues bitwise-identically.
    Migrated {
        /// Shard the stream lived on before the resize.
        from_shard: usize,
    },
    /// The supervisor spilled a background checkpoint of this stream to
    /// disk (fires after the bytes are durably renamed into place).
    CheckpointSpilled {
        /// Instances the checkpoint covers (its resume offset).
        position: u64,
        /// Whether the spill was triggered by a drift signal rather than
        /// the periodic interval.
        urgent: bool,
    },
    /// The stream's in-memory pipeline state was evicted to its binary
    /// checkpoint (the cold tier): only the checkpoint handle stays
    /// resident. The stream remains attached — the next ingest or detach
    /// transparently rehydrates it, bitwise-identically.
    Hibernated {
        /// Instances the cold checkpoint covers (its resume offset).
        position: u64,
        /// `true` when the eviction reused the freshest background spill
        /// on disk (no encode was needed); `false` when the state was
        /// dirty and had to be encoded on demand (held in memory until
        /// the supervisor demotes it to disk).
        clean: bool,
    },
    /// A hibernated stream's pipeline state was rebuilt from its cold
    /// checkpoint (triggered by ingest, detach, shutdown or a migration
    /// that had to replay buffered instances). Processing continues
    /// exactly where the hibernation left off.
    Rehydrated {
        /// Instances restored into the rebuilt state (== the `position`
        /// of the matching `Hibernated` event).
        position: u64,
    },
}

impl ServeEventKind {
    /// Owned conversion of a borrowed pipeline event.
    pub(crate) fn from_pipeline(event: &PipelineEvent<'_>) -> ServeEventKind {
        match event {
            PipelineEvent::Warning { position } => ServeEventKind::Warning { position: *position },
            PipelineEvent::Drift { position, classes } => {
                ServeEventKind::Drift { position: *position, classes: classes.to_vec() }
            }
            PipelineEvent::Snapshot { position, snapshot } => {
                ServeEventKind::Snapshot { position: *position, snapshot: *snapshot }
            }
        }
    }
}

/// One event published on the bus.
#[derive(Debug, Clone)]
pub struct ServeEvent {
    /// Id of the stream the event belongs to.
    pub stream: Arc<str>,
    /// Shard that owns the stream.
    pub shard: usize,
    /// What happened.
    pub kind: ServeEventKind,
}

/// Multi-subscriber event fan-out.
///
/// Subscribers receive every event published after they subscribe, in
/// publish order, on a private unbounded channel. Dropped receivers are
/// pruned lazily on the next publish.
#[derive(Debug, Default)]
pub struct EventBus {
    subscribers: std::sync::Mutex<Vec<Sender<ServeEvent>>>,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Registers a new subscriber and returns its receiving end.
    pub fn subscribe(&self) -> Receiver<ServeEvent> {
        let (tx, rx) = channel();
        self.subscribers.lock().expect("event bus poisoned").push(tx);
        rx
    }

    /// Publishes an event to every live subscriber (no-op without
    /// subscribers; never blocks).
    pub fn publish(&self, event: ServeEvent) {
        let mut subscribers = self.subscribers.lock().expect("event bus poisoned");
        subscribers.retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Number of currently registered subscribers (dropped subscribers are
    /// only pruned on publish, so this is an upper bound).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("event bus poisoned").len()
    }

    /// Disconnects every subscriber: their receivers see end-of-stream once
    /// they have drained what was already published. The server calls this
    /// at the end of a graceful shutdown — the bus itself may outlive the
    /// server inside lingering [`StreamClient`](crate::StreamClient)
    /// handles, and subscriber loops must still terminate.
    pub fn close(&self) {
        self.subscribers.lock().expect("event bus poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift(stream: &str, position: u64) -> ServeEvent {
        ServeEvent {
            stream: Arc::from(stream),
            shard: 0,
            kind: ServeEventKind::Drift { position, classes: vec![1] },
        }
    }

    #[test]
    fn every_subscriber_sees_every_event_in_order() {
        let bus = EventBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.publish(drift("s", 10));
        bus.publish(drift("s", 20));
        for rx in [a, b] {
            let events: Vec<ServeEvent> = rx.try_iter().collect();
            assert_eq!(events.len(), 2);
            assert!(matches!(events[0].kind, ServeEventKind::Drift { position: 10, .. }));
            assert!(matches!(events[1].kind, ServeEventKind::Drift { position: 20, .. }));
        }
    }

    #[test]
    fn dropped_subscribers_are_pruned_and_do_not_block() {
        let bus = EventBus::new();
        let rx = bus.subscribe();
        drop(rx);
        let live = bus.subscribe();
        bus.publish(drift("s", 1));
        assert_eq!(bus.subscriber_count(), 1, "dead subscriber pruned on publish");
        assert_eq!(live.try_iter().count(), 1);
    }

    #[test]
    fn late_subscribers_miss_earlier_events() {
        let bus = EventBus::new();
        bus.publish(drift("s", 1));
        let rx = bus.subscribe();
        bus.publish(drift("s", 2));
        let events: Vec<ServeEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, ServeEventKind::Drift { position: 2, .. }));
    }
}
