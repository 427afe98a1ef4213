//! Concept drift detectors.
//!
//! This crate implements the reference detectors the paper compares RBM-IM
//! against in Table III, plus ADWIN, all behind one [`DriftDetector`]
//! trait:
//!
//! **Standard (error-monitoring) detectors**
//! * [`rddm::Rddm`] — Reactive Drift Detection Method
//! * [`fhddm::Fhddm`] — Fast Hoeffding Drift Detection Method
//! * [`wstd::Wstd`] — Wilcoxon rank-sum test drift detector
//! * [`adwin::Adwin`] — Adaptive Windowing (Bifet & Gavaldà, 2007), which
//!   the serving workloads attach and RBM-IM's trend tracker embeds
//!
//! **Skew-insensitive detectors**
//! * [`perfsim::PerfSim`] — monitors the whole confusion matrix
//! * [`ddm_oci::DdmOci`] — monitors per-class recall (online class
//!   imbalance)
//!
//! The trainable RBM-IM detector (the paper's contribution) lives in the
//! `rbm-im` crate and implements the same trait, so the harness can swap
//! detectors freely.
//!
//! # Interface
//!
//! Detectors are fed [`Observation`]s — the true class, the predicted class
//! and whether the prediction was correct (plus the raw feature vector,
//! which only trainable detectors use) — either one per test-then-train step
//! (`update`) or as contiguous slices (`update_batch`, whose default is the
//! per-observation loop, so both entry points report identical drift
//! positions). They answer with a [`DetectorState`] and expose per-class
//! drift attribution when they support it (`drifted_classes_into`).

#![warn(missing_docs)]

pub mod adwin;
pub mod ddm_oci;
pub mod fhddm;
pub mod perfsim;
pub mod rddm;
pub mod wstd;

pub use adwin::Adwin;
pub use ddm_oci::DdmOci;
pub use fhddm::Fhddm;
pub use perfsim::PerfSim;
pub use rddm::Rddm;
pub use wstd::Wstd;

/// One monitored prediction step, assembled by the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation<'a> {
    /// Feature vector of the tested instance (used by trainable detectors).
    pub features: &'a [f64],
    /// True class of the instance.
    pub true_class: usize,
    /// Class predicted by the monitored classifier.
    pub predicted_class: usize,
    /// Whether the prediction was correct (`predicted_class == true_class`).
    pub correct: bool,
}

impl<'a> Observation<'a> {
    /// Builds an observation, deriving `correct` from the two labels.
    pub fn new(features: &'a [f64], true_class: usize, predicted_class: usize) -> Self {
        Observation {
            features,
            true_class,
            predicted_class,
            correct: true_class == predicted_class,
        }
    }
}

/// State reported by a detector after each observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DetectorState {
    /// No evidence of change.
    Stable,
    /// The warning zone: change is suspected but not confirmed.
    Warning,
    /// A concept drift has been detected. The harness reacts by resetting
    /// the classifier (and the detector resets its own statistics).
    Drift,
}

impl DetectorState {
    /// Convenience predicate.
    pub fn is_drift(&self) -> bool {
        matches!(self, DetectorState::Drift)
    }

    /// Convenience predicate.
    pub fn is_warning(&self) -> bool {
        matches!(self, DetectorState::Warning)
    }
}

/// A concept drift detector consuming a stream of monitored predictions.
///
/// The trait is *batched*: [`DriftDetector::update`] handles one observation,
/// [`DriftDetector::update_batch`] a contiguous slice of them. The default
/// batch implementation is an update-per-observation loop, so the two entry
/// points always yield identical drift positions; detectors whose natural
/// unit of work is a mini-batch (RBM-IM) override `update_batch` to skip the
/// per-observation bookkeeping. Per-class drift attribution goes through the
/// caller-buffer method [`DriftDetector::drifted_classes_into`] so the hot
/// loop of an evaluation pipeline allocates nothing per signal.
pub trait DriftDetector {
    /// Processes one observation and returns the detector state after it.
    fn update(&mut self, observation: &Observation<'_>) -> DetectorState;

    /// Processes a batch of observations and returns the state after the
    /// last one. `drift_offsets` is cleared and filled with the
    /// batch-relative offset of every observation at which the detector
    /// signalled [`DetectorState::Drift`] — exactly the positions a
    /// per-observation [`DriftDetector::update`] loop would have reported.
    fn update_batch(
        &mut self,
        observations: &[Observation<'_>],
        drift_offsets: &mut Vec<usize>,
    ) -> DetectorState {
        drift_offsets.clear();
        let mut state = self.state();
        for (offset, observation) in observations.iter().enumerate() {
            state = self.update(observation);
            if state.is_drift() {
                drift_offsets.push(offset);
            }
        }
        state
    }

    /// The state after the most recent update.
    fn state(&self) -> DetectorState;

    /// Clears all internal statistics (called by the harness after it has
    /// reacted to a drift, and at stream restarts).
    fn reset(&mut self);

    /// Human-readable detector name (used in result tables).
    fn name(&self) -> &'static str;

    /// Whether the detector can attribute drifts to individual classes
    /// (RBM-IM and DDM-OCI can; global detectors cannot).
    fn per_class_detection(&self) -> bool {
        false
    }

    /// Caller-buffer variant of drift attribution: clears `out` and fills it
    /// with the classes implicated in the most recent drift signal. Global
    /// detectors leave the buffer empty. Evaluation loops keep one buffer
    /// alive across the whole stream instead of allocating per signal.
    fn drifted_classes_into(&self, out: &mut Vec<usize>) {
        out.clear();
    }

    /// Escape hatch for code that needs the concrete detector behind a
    /// `Box<dyn DriftDetector>` (e.g. a registry test reading an RBM-IM
    /// network's shape). Stateful detectors that want to opt in return
    /// `Some(self)`; the default opts out, so ordinary detectors need not
    /// care.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Captures the detector's complete mutable state as a serde
    /// [`Value`](serde::Value) — the checkpoint half of the workspace-wide
    /// snapshot/restore contract. Configuration (thresholds, window sizes,
    /// seeds) is deliberately **not** part of the snapshot: a snapshot is
    /// restored onto a freshly built, identically configured detector
    /// (typically rebuilt from the same registry
    /// `DetectorSpec`), after which the detector continues **bitwise
    /// identically** to one that was never checkpointed. Returns `None` for
    /// detectors that do not support checkpointing (the default, so
    /// third-party detectors keep compiling); every detector this workspace
    /// ships overrides it.
    fn snapshot_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`DriftDetector::snapshot_state`] onto
    /// this (identically configured, typically freshly built) detector.
    /// The default rejects restoration, matching the default
    /// `snapshot_state` of `None`.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Err(serde::Error::msg(format!("detector `{}` does not support checkpointing", self.name())))
    }
}

/// Non-overridable conveniences available on every detector. These live
/// outside [`DriftDetector`] deliberately: a detector migrating from the
/// pre-batched API that still tries to override `drifted_classes` gets a
/// compile error pointing it at `drifted_classes_into`, instead of
/// compiling and being silently ignored by evaluation pipelines.
pub trait DriftDetectorExt: DriftDetector {
    /// Allocating wrapper around [`DriftDetector::drifted_classes_into`]
    /// for examples and tests; hot loops should reuse a buffer instead.
    fn drifted_classes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.drifted_classes_into(&mut out);
        out
    }
}

impl<T: DriftDetector + ?Sized> DriftDetectorExt for T {}

/// Boxed detectors are detectors too (the harness stores them this way).
/// Every method forwards explicitly so overridden batch/attribution
/// implementations are not shadowed by the trait defaults.
impl DriftDetector for Box<dyn DriftDetector + Send> {
    fn update(&mut self, observation: &Observation<'_>) -> DetectorState {
        (**self).update(observation)
    }
    fn update_batch(
        &mut self,
        observations: &[Observation<'_>],
        drift_offsets: &mut Vec<usize>,
    ) -> DetectorState {
        (**self).update_batch(observations, drift_offsets)
    }
    fn state(&self) -> DetectorState {
        (**self).state()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn per_class_detection(&self) -> bool {
        (**self).per_class_detection()
    }
    fn drifted_classes_into(&self, out: &mut Vec<usize>) {
        (**self).drifted_classes_into(out)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        (**self).as_any_mut()
    }
    fn snapshot_state(&self) -> Option<serde::Value> {
        (**self).snapshot_state()
    }
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        (**self).restore_state(state)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for detector unit tests: synthetic error streams with
    //! a known change point.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Feeds a detector a Bernoulli error stream whose error rate jumps from
    /// `p_before` to `p_after` at `change_point`; returns the positions at
    /// which the detector signalled drift.
    pub fn run_error_stream(
        detector: &mut dyn DriftDetector,
        p_before: f64,
        p_after: f64,
        change_point: usize,
        length: usize,
        seed: u64,
    ) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut detections = Vec::new();
        let features = [0.0_f64; 1];
        for i in 0..length {
            let p = if i < change_point { p_before } else { p_after };
            let wrong = rng.gen::<f64>() < p;
            let obs = Observation {
                features: &features,
                true_class: 0,
                predicted_class: if wrong { 1 } else { 0 },
                correct: !wrong,
            };
            if detector.update(&obs).is_drift() {
                detections.push(i);
            }
        }
        detections
    }

    /// Asserts the standard detector contract on a synthetic abrupt change:
    /// at least one detection after the change point (within `max_delay`),
    /// and no more than `max_false_alarms` before it.
    pub fn assert_detects_abrupt_change(
        detector: &mut dyn DriftDetector,
        max_delay: usize,
        max_false_alarms: usize,
    ) {
        let change = 3000;
        let detections = run_error_stream(detector, 0.1, 0.5, change, 6000, 77);
        let false_alarms = detections.iter().filter(|&&p| p < change).count();
        let hit = detections.iter().find(|&&p| p >= change && p <= change + max_delay);
        assert!(
            hit.is_some(),
            "{}: no detection within {} instances of the change (detections: {:?})",
            detector.name(),
            max_delay,
            detections
        );
        assert!(
            false_alarms <= max_false_alarms,
            "{}: {} false alarms before the change (allowed {})",
            detector.name(),
            false_alarms,
            max_false_alarms
        );
    }

    /// Asserts that a detector stays silent on a stationary error stream.
    pub fn assert_quiet_on_stationary(detector: &mut dyn DriftDetector, max_alarms: usize) {
        let detections = run_error_stream(detector, 0.2, 0.2, usize::MAX, 8000, 5);
        assert!(
            detections.len() <= max_alarms,
            "{}: {} alarms on a stationary stream (allowed {})",
            detector.name(),
            detections.len(),
            max_alarms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_derives_correctness() {
        let f = [1.0, 2.0];
        let ok = Observation::new(&f, 3, 3);
        assert!(ok.correct);
        let bad = Observation::new(&f, 3, 1);
        assert!(!bad.correct);
    }

    #[test]
    fn detector_state_predicates() {
        assert!(DetectorState::Drift.is_drift());
        assert!(!DetectorState::Stable.is_drift());
        assert!(DetectorState::Warning.is_warning());
        assert!(!DetectorState::Drift.is_warning());
    }

    #[test]
    fn default_update_batch_matches_per_instance_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Build a fixed observation stream with an error-rate change.
        let mut rng = StdRng::seed_from_u64(4242);
        let outcomes: Vec<bool> =
            (0..6_000).map(|i| rng.gen::<f64>() < if i < 3_000 { 0.1 } else { 0.5 }).collect();
        let features = [0.0_f64; 1];
        let observations: Vec<Observation<'_>> = outcomes
            .iter()
            .map(|&wrong| Observation {
                features: &features,
                true_class: 0,
                predicted_class: usize::from(wrong),
                correct: !wrong,
            })
            .collect();

        let mut per_instance = Rddm::new();
        let mut sequential_positions = Vec::new();
        for (i, obs) in observations.iter().enumerate() {
            if per_instance.update(obs).is_drift() {
                sequential_positions.push(i);
            }
        }

        let mut batched = Rddm::new();
        let mut batched_positions = Vec::new();
        let mut offsets = Vec::new();
        for (chunk_index, chunk) in observations.chunks(97).enumerate() {
            batched.update_batch(chunk, &mut offsets);
            batched_positions.extend(offsets.iter().map(|o| chunk_index * 97 + o));
        }
        assert_eq!(sequential_positions, batched_positions);
        assert!(!sequential_positions.is_empty(), "change must be detected at all");
    }

    /// Every in-crate detector: snapshot at a cut point, serialize to JSON,
    /// restore onto a freshly built twin, continue — states and drift
    /// positions must match the uninterrupted run bitwise, whatever the cut.
    #[test]
    fn checkpoint_roundtrip_resumes_bitwise_for_every_detector() {
        use crate::ddm_oci::DdmOciConfig;
        use crate::perfsim::PerfSimConfig;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        type Factory = Box<dyn Fn() -> Box<dyn DriftDetector + Send>>;
        let factories: Vec<(&str, Factory)> = vec![
            ("rddm", Box::new(|| Box::new(Rddm::new()))),
            ("adwin", Box::new(|| Box::new(Adwin::new(0.002)))),
            ("fhddm", Box::new(|| Box::new(Fhddm::new()))),
            ("wstd", Box::new(|| Box::new(Wstd::new()))),
            ("perfsim", Box::new(|| Box::new(PerfSim::new(PerfSimConfig::for_classes(3))))),
            ("ddm-oci", Box::new(|| Box::new(DdmOci::new(DdmOciConfig::for_classes(3))))),
        ];

        // A 3-class stream whose error rate jumps at 3000 so most detectors
        // actually traverse warning/drift states during the run.
        let mut rng = StdRng::seed_from_u64(20_260_726);
        let labels: Vec<(usize, usize)> = (0..6_000)
            .map(|i| {
                let true_class = rng.gen_range(0..3usize);
                let p = if i < 3_000 { 0.1 } else { 0.5 };
                let predicted = if rng.gen::<f64>() < p {
                    (true_class + 1 + rng.gen_range(0..2usize)) % 3
                } else {
                    true_class
                };
                (true_class, predicted)
            })
            .collect();
        let features = [0.0_f64; 1];
        let observations: Vec<Observation<'_>> = labels
            .iter()
            .map(|&(true_class, predicted_class)| Observation {
                features: &features,
                true_class,
                predicted_class,
                correct: true_class == predicted_class,
            })
            .collect();

        for (name, make) in &factories {
            for cut in [0usize, 1, 997, 3_100] {
                let mut uninterrupted = make();
                let mut head = make();
                for obs in &observations[..cut] {
                    uninterrupted.update(obs);
                    head.update(obs);
                }
                let snapshot = head.snapshot_state().unwrap_or_else(|| {
                    panic!("{name}: every shipped detector must support checkpointing")
                });
                let json = serde_json::to_string(&snapshot).unwrap();
                let parsed = serde_json::parse_value(&json).unwrap();
                let mut resumed = make();
                resumed.restore_state(&parsed).unwrap_or_else(|e| panic!("{name}: restore: {e}"));
                assert_eq!(resumed.state(), uninterrupted.state(), "{name} @ cut {cut}");

                let mut expected_positions = Vec::new();
                let mut resumed_positions = Vec::new();
                for (offset, obs) in observations[cut..].iter().enumerate() {
                    let a = uninterrupted.update(obs);
                    let b = resumed.update(obs);
                    assert_eq!(a, b, "{name} @ cut {cut}, offset {offset}");
                    if a.is_drift() {
                        expected_positions.push(offset);
                        let mut lhs = Vec::new();
                        let mut rhs = Vec::new();
                        uninterrupted.drifted_classes_into(&mut lhs);
                        resumed.drifted_classes_into(&mut rhs);
                        assert_eq!(lhs, rhs, "{name} @ cut {cut}: drift attribution");
                    }
                    if b.is_drift() {
                        resumed_positions.push(offset);
                    }
                }
                assert_eq!(expected_positions, resumed_positions, "{name} @ cut {cut}");
            }
        }
    }

    #[test]
    fn drifted_classes_wrapper_mirrors_into_variant() {
        struct FixedAttribution;
        impl DriftDetector for FixedAttribution {
            fn update(&mut self, _observation: &Observation<'_>) -> DetectorState {
                DetectorState::Drift
            }
            fn state(&self) -> DetectorState {
                DetectorState::Drift
            }
            fn reset(&mut self) {}
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn per_class_detection(&self) -> bool {
                true
            }
            fn drifted_classes_into(&self, out: &mut Vec<usize>) {
                out.clear();
                out.extend([2, 5]);
            }
        }
        let detector = FixedAttribution;
        let mut buffer = vec![9, 9, 9];
        detector.drifted_classes_into(&mut buffer);
        assert_eq!(buffer, vec![2, 5]);
        assert_eq!(detector.drifted_classes(), vec![2, 5]);
    }
}
