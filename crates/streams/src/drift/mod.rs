//! Concept-drift operators.
//!
//! The paper (Sec. II) distinguishes drifts by **speed** — sudden, gradual,
//! incremental — and by **locality** — global (all classes) vs local (a
//! subset of classes). This module provides:
//!
//! * [`DriftKind`] / [`DriftSchedule`] — when and how fast concepts change;
//! * [`ConceptSequenceStream`] — the MOA-style composition of several
//!   concept streams with scheduled transitions (sudden / gradual /
//!   incremental), used for *global* drift;
//! * [`local`] — the [`LocalDriftStream`] wrapper
//!   that applies real drift to a chosen subset of classes only.

pub mod local;

pub use local::LocalDriftStream;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::{Instance, StreamSchema};
use crate::stream::DataStream;

/// Speed profile of a concept transition (paper Eq. 2–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Abrupt switch at the drift position (Eq. 2).
    Sudden,
    /// Probabilistic oscillation between the old and new concept during the
    /// transition window, with the new concept appearing increasingly often
    /// (Eq. 5).
    Gradual,
    /// Deterministic mixing: instances are drawn from an interpolated
    /// distribution whose mixing weight moves linearly from 0 to 1 across
    /// the transition window (Eq. 3–4). For generator-based concepts this is
    /// realized by sampling the new concept with probability `α_j`.
    Incremental,
}

/// A scheduled transition from concept `i` to concept `i + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Stream position (instance index) at which the transition is centered.
    pub position: u64,
    /// Width of the transition window in instances (ignored for sudden).
    pub width: u64,
    /// Speed profile of the transition.
    pub kind: DriftKind,
}

/// A full drift schedule: a sequence of transitions applied in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftSchedule {
    /// The transitions, in increasing `position` order.
    pub events: Vec<DriftEvent>,
}

impl DriftSchedule {
    /// A schedule with no drift at all (stationary stream).
    pub fn stationary() -> Self {
        DriftSchedule { events: Vec::new() }
    }

    /// Evenly spaced transitions of the same kind/width across a stream of
    /// `stream_length` instances: `n_drifts` events at positions
    /// `stream_length * k / (n_drifts + 1)`.
    pub fn evenly_spaced(n_drifts: usize, stream_length: u64, width: u64, kind: DriftKind) -> Self {
        let events = (1..=n_drifts as u64)
            .map(|k| DriftEvent {
                position: stream_length * k / (n_drifts as u64 + 1),
                width,
                kind,
            })
            .collect();
        DriftSchedule { events }
    }

    /// Returns, for instance index `t`, the index of the active concept and
    /// the probability of drawing from the *next* concept (0.0 before a
    /// transition starts, 1.0 after it finishes).
    ///
    /// The active concept index equals the number of completed transitions.
    pub fn concept_at(&self, t: u64) -> (usize, f64) {
        let mut active = 0usize;
        for event in &self.events {
            let half = event.width / 2;
            let start = event.position.saturating_sub(half);
            let end = event.position + half;
            match event.kind {
                DriftKind::Sudden => {
                    if t >= event.position {
                        active += 1;
                    } else {
                        return (active, 0.0);
                    }
                }
                DriftKind::Gradual | DriftKind::Incremental => {
                    if t >= end {
                        active += 1;
                    } else if t >= start && event.width > 0 {
                        let alpha = (t - start) as f64 / event.width as f64;
                        return (active, alpha.clamp(0.0, 1.0));
                    } else {
                        return (active, 0.0);
                    }
                }
            }
        }
        (active, 0.0)
    }

    /// The positions of all drift events (useful for detection-delay
    /// evaluation).
    pub fn drift_positions(&self) -> Vec<u64> {
        self.events.iter().map(|e| e.position).collect()
    }
}

/// MOA-style composition of a sequence of concept streams with scheduled
/// transitions between consecutive concepts.
///
/// Concept `i` is the stream active after `i` completed transitions. During
/// a gradual/incremental transition window instances are drawn from the old
/// or new concept according to the transition probability `α`.
pub struct ConceptSequenceStream {
    schema: StreamSchema,
    concepts: Vec<Box<dyn DataStream + Send>>,
    schedule: DriftSchedule,
    rng: StdRng,
    seed: u64,
    counter: u64,
}

impl ConceptSequenceStream {
    /// Creates a stream from at least one concept. All concepts must share
    /// the same feature/class dimensions. There should be exactly
    /// `schedule.events.len() + 1` concepts; extra events beyond the last
    /// concept keep the final concept active.
    pub fn new(
        concepts: Vec<Box<dyn DataStream + Send>>,
        schedule: DriftSchedule,
        seed: u64,
    ) -> Self {
        assert!(!concepts.is_empty(), "need at least one concept");
        let schema =
            concepts[0].schema().renamed(format!("{}-drifting", concepts[0].schema().name));
        for c in &concepts {
            assert_eq!(
                c.schema().num_features,
                schema.num_features,
                "concepts must share feature count"
            );
            assert_eq!(
                c.schema().num_classes,
                schema.num_classes,
                "concepts must share class count"
            );
        }
        ConceptSequenceStream {
            schema,
            concepts,
            schedule,
            rng: StdRng::seed_from_u64(seed),
            seed,
            counter: 0,
        }
    }

    /// The drift schedule driving this stream.
    pub fn schedule(&self) -> &DriftSchedule {
        &self.schedule
    }

    /// Picks the concept the next instance comes from: the active one, or
    /// during a transition window the next one with probability `α` (one
    /// RNG draw, taken only inside a window).
    fn pick_concept(&mut self) -> &mut Box<dyn DataStream + Send> {
        let (active, alpha) = self.schedule.concept_at(self.counter);
        let active = active.min(self.concepts.len() - 1);
        let use_next =
            alpha > 0.0 && active + 1 < self.concepts.len() && self.rng.gen::<f64>() < alpha;
        let source = if use_next { active + 1 } else { active };
        &mut self.concepts[source]
    }
}

impl DataStream for ConceptSequenceStream {
    fn next_instance(&mut self) -> Option<Instance> {
        let mut inst = self.pick_concept().next_instance()?;
        inst.index = self.counter;
        self.counter += 1;
        Some(inst)
    }

    fn next_instance_of_class(&mut self, class: usize) -> Option<Option<Instance>> {
        let mut inst = self.pick_concept().next_instance_of_class(class)?;
        if let Some(inst) = inst.as_mut() {
            inst.index = self.counter;
        }
        self.counter += 1;
        Some(inst)
    }

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn restart(&mut self) {
        for c in self.concepts.iter_mut() {
            c.restart();
        }
        self.rng = StdRng::seed_from_u64(self.seed);
        self.counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{AgrawalGenerator, GaussianMixtureGenerator, RandomRbfGenerator};
    use crate::stream::lockstep::assert_class_pulls_agree;
    use crate::stream::StreamExt;

    #[test]
    fn schedule_concept_indexing_sudden() {
        let s = DriftSchedule {
            events: vec![
                DriftEvent { position: 100, width: 0, kind: DriftKind::Sudden },
                DriftEvent { position: 200, width: 0, kind: DriftKind::Sudden },
            ],
        };
        assert_eq!(s.concept_at(0), (0, 0.0));
        assert_eq!(s.concept_at(99), (0, 0.0));
        assert_eq!(s.concept_at(100), (1, 0.0));
        assert_eq!(s.concept_at(199), (1, 0.0));
        assert_eq!(s.concept_at(200), (2, 0.0));
        assert_eq!(s.drift_positions(), vec![100, 200]);
    }

    #[test]
    fn schedule_concept_indexing_gradual() {
        let s = DriftSchedule {
            events: vec![DriftEvent { position: 100, width: 40, kind: DriftKind::Gradual }],
        };
        assert_eq!(s.concept_at(50), (0, 0.0));
        let (c, a) = s.concept_at(100);
        assert_eq!(c, 0);
        assert!((a - 0.5).abs() < 1e-12);
        let (c, a) = s.concept_at(119);
        assert_eq!(c, 0);
        assert!(a > 0.9);
        assert_eq!(s.concept_at(120), (1, 0.0));
    }

    #[test]
    fn evenly_spaced_positions() {
        let s = DriftSchedule::evenly_spaced(3, 4000, 100, DriftKind::Incremental);
        assert_eq!(s.drift_positions(), vec![1000, 2000, 3000]);
        assert_eq!(s.events[0].width, 100);
    }

    #[test]
    fn stationary_schedule_never_advances() {
        let s = DriftSchedule::stationary();
        assert_eq!(s.concept_at(1_000_000), (0, 0.0));
    }

    #[test]
    fn sudden_concept_switch_changes_labeling() {
        // Two Agrawal concepts with identical seeds: features identical,
        // labels diverge after the drift position.
        let c0 = Box::new(AgrawalGenerator::new(0, 4, 5));
        let c1 = Box::new(AgrawalGenerator::new(5, 4, 5));
        let schedule = DriftSchedule {
            events: vec![DriftEvent { position: 500, width: 0, kind: DriftKind::Sudden }],
        };
        let mut stream = ConceptSequenceStream::new(vec![c0, c1], schedule, 1);
        let sample = stream.take_instances(1000);

        // Reference labels from a pure concept-0 stream.
        let mut reference = AgrawalGenerator::new(0, 4, 5);
        let ref_sample = reference.take_instances(1000);
        let pre_diff = sample[..500]
            .iter()
            .zip(ref_sample[..500].iter())
            .filter(|(a, b)| a.class != b.class)
            .count();
        assert_eq!(pre_diff, 0, "before the drift the stream must equal concept 0");
        // After the drift, labels come from concept 1 (different function) —
        // a noticeable share must differ from what concept 0 would produce.
        let post_diff = sample[500..]
            .iter()
            .zip(ref_sample[500..].iter())
            .filter(|(a, b)| a.class != b.class)
            .count();
        assert!(post_diff > 100, "after a sudden drift labels must change, got {post_diff}");
    }

    #[test]
    fn gradual_transition_mixes_concepts() {
        let c0 = Box::new(RandomRbfGenerator::new(5, 3, 2, 0.0, 11));
        let c1 = Box::new(RandomRbfGenerator::new(5, 3, 2, 0.0, 999));
        let schedule = DriftSchedule {
            events: vec![DriftEvent { position: 1000, width: 800, kind: DriftKind::Gradual }],
        };
        let mut stream = ConceptSequenceStream::new(vec![c0, c1], schedule, 7);
        let sample = stream.take_instances(2000);
        assert_eq!(sample.len(), 2000);
        // Indices are re-stamped by the wrapper.
        assert_eq!(sample[1999].index, 1999);
    }

    #[test]
    fn class_pulls_through_boxed_concepts_skip_in_lockstep() {
        // Gradual and incremental windows both draw α per pull; the second
        // concept is a mixture, so both class-first overrides sit behind the
        // `Box<dyn DataStream + Send>` forward.
        let build = || {
            let concepts: Vec<Box<dyn DataStream + Send>> = vec![
                Box::new(RandomRbfGenerator::new(6, 4, 2, 0.002, 21)),
                Box::new(GaussianMixtureGenerator::balanced(6, 4, 2, 22)),
                Box::new(RandomRbfGenerator::new(6, 4, 3, 0.0, 23)),
            ];
            let schedule = DriftSchedule {
                events: vec![
                    DriftEvent { position: 150, width: 120, kind: DriftKind::Gradual },
                    DriftEvent { position: 400, width: 160, kind: DriftKind::Incremental },
                ],
            };
            ConceptSequenceStream::new(concepts, schedule, 5)
        };
        let (mut a, mut b) = (build(), build());
        let targets = (0..200).map(|i| (i * 3 + i / 5) % 4);
        assert_class_pulls_agree(&mut a, &mut b, targets);
        assert!(a.counter > 560, "the pulls must cross both windows, got {}", a.counter);
    }

    #[test]
    fn restart_reproduces_drifting_stream() {
        let c0 = Box::new(AgrawalGenerator::new(1, 3, 2));
        let c1 = Box::new(AgrawalGenerator::new(2, 3, 2));
        let schedule = DriftSchedule::evenly_spaced(1, 600, 200, DriftKind::Gradual);
        let mut stream = ConceptSequenceStream::new(vec![c0, c1], schedule, 3);
        let a = stream.take_instances(600);
        stream.restart();
        let b = stream.take_instances(600);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn mismatched_concepts_rejected() {
        let c0: Box<dyn DataStream + Send> = Box::new(AgrawalGenerator::new(0, 3, 1));
        let c1: Box<dyn DataStream + Send> = Box::new(AgrawalGenerator::new(0, 5, 1));
        ConceptSequenceStream::new(vec![c0, c1], DriftSchedule::stationary(), 0);
    }
}
