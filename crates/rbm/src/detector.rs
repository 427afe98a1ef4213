//! RBM-IM: the complete trainable drift detector (paper Sec. V-B).
//!
//! Instances flow in one by one (the harness feeds every tested instance);
//! RBM-IM buffers them into mini-batches of `mini_batch_size` instances.
//! When a batch completes:
//!
//! 1. the per-class average reconstruction error of the batch is computed
//!    with the *current* network (Eq. 27),
//! 2. each class's [`TrendTracker`] is updated, yielding the new trend
//!    `Q_r(t)^m` (Eq. 28) and the verdict of the class's self-adaptive
//!    (ADWIN) window over the raw error level,
//! 3. the drift decision for class `m` applies three rules, each judging
//!    the batch error against the class's error window as it stood before
//!    the batch:
//!    * **adaptive window** — the class's adaptive window shrank (ADWIN
//!      detected a change in the reconstruction-error level, the
//!      self-adaptive mechanism the paper adopts from \[19\]) and the error
//!      rose; this rule fires at once, bypassing `persistence`;
//!    * **magnitude** — the error exceeds the window mean by more than
//!      `magnitude_sigmas` window standard deviations;
//!    * **guarded Granger** — the Granger causality test (first differences)
//!      between the older and the recent half of the trend history finds
//!      **no** causal relationship — the paper's criterion for "the new
//!      trend is not explainable from the old one" — **and** the error
//!      exceeds the window mean by more than 0.8 × `magnitude_sigmas`
//!      standard deviations (without this guard a perfectly flat, stable
//!      stream would also be flagged, because two constant series trivially
//!      exhibit no Granger causality);
//!
//!    the class is declared drifted once the magnitude or the Granger rule
//!    has held in `persistence` consecutive batches;
//! 4. the network is trained on the batch (CD-k with the class-balanced
//!    loss), so the detector keeps following the stream;
//! 5. if any class drifted, the detector reports [`DetectorState::Drift`]
//!    and lists the affected classes — local drifts affecting a single
//!    minority class are therefore visible, which is exactly what
//!    Experiment 2 measures.

use crate::network::{RbmNetwork, RbmNetworkConfig};
use crate::trend::TrendTracker;
use rbm_im_detectors::{DetectorState, DriftDetector, Observation};
use rbm_im_stats::granger::{granger_causality, GrangerConfig};
use rbm_im_streams::Instance;

/// Configuration of the RBM-IM detector (the RBM-IM rows of Tab. II plus
/// the detection-rule constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbmImConfig {
    /// Mini-batch size M (25–100 in the paper's grid).
    pub mini_batch_size: usize,
    /// Network hyper-parameters (hidden fraction, learning rate η, CD-k
    /// steps, class-balanced loss β).
    pub network: RbmNetworkConfig,
    /// Maximum length (in batches) of the per-class trend regression window.
    pub trend_window: usize,
    /// Number of trend values retained per class for the Granger test
    /// (split into an older and a recent half).
    pub trend_history: usize,
    /// Significance level of the Granger causality test.
    pub granger_alpha: f64,
    /// Confidence δ of the per-class adaptive (ADWIN) windows.
    pub adwin_delta: f64,
    /// Threshold of the magnitude rule: a batch error more than this many
    /// standard deviations of the class's error window above the window
    /// mean is over threshold. The Granger rule's guard is 0.8 × this.
    pub magnitude_sigmas: f64,
    /// Number of mini-batches used purely for initial training before any
    /// detection is attempted (the paper trains RBM-IM on the first batch;
    /// a short warm-up makes the reconstruction errors meaningful).
    pub warmup_batches: u64,
    /// Number of consecutive over-threshold batches required before the
    /// magnitude / Granger rules signal a drift. Per-class batch errors are
    /// means over a handful of instances and occasionally spike on a single
    /// hard-to-reconstruct instance; a genuine concept change keeps the
    /// error elevated for several batches, so requiring persistence trades a
    /// one-batch delay for a large reduction in false alarms.
    pub persistence: u32,
    /// Minimum number of batches a class's error window must hold before
    /// any detection is attempted for that class.
    pub min_window_batches: usize,
}

impl Default for RbmImConfig {
    fn default() -> Self {
        RbmImConfig {
            mini_batch_size: 50,
            network: RbmNetworkConfig::default(),
            trend_window: 30,
            trend_history: 16,
            granger_alpha: 0.05,
            adwin_delta: 0.002,
            magnitude_sigmas: 4.0,
            warmup_batches: 10,
            persistence: 2,
            min_window_batches: 10,
        }
    }
}

/// The RBM-IM drift detector.
pub struct RbmIm {
    config: RbmImConfig,
    num_features: usize,
    num_classes: usize,
    network: RbmNetwork,
    trackers: Vec<TrendTracker>,
    /// Per-class count of consecutive batches whose error exceeded the
    /// magnitude / Granger thresholds (the persistence mechanism).
    consecutive_high: Vec<u32>,
    /// Flat mini-batch buffer: `batch_classes.len()` rows of `num_features`
    /// feature values. Observations are copied here directly — no
    /// [`Instance`] is materialized or cloned on the hot path — and the
    /// buffer is handed to the network's batched detect/train kernels,
    /// then cleared in place so its capacity is reused forever.
    batch_features: Vec<f64>,
    batch_classes: Vec<usize>,
    /// Reusable per-class reconstruction-error buffer (Eq. 27 output).
    batch_errors: Vec<Option<f64>>,
    batch_counter: u64,
    state: DetectorState,
    drifted: Vec<usize>,
    /// Total drifts signalled (diagnostics).
    drift_count: u64,
}

impl RbmIm {
    /// Creates an RBM-IM detector for a stream with the given schema.
    pub fn new(num_features: usize, num_classes: usize, config: RbmImConfig) -> Self {
        assert!(config.mini_batch_size >= 5, "mini-batch must hold at least a few instances");
        assert!(config.trend_history >= 4 && config.trend_history.is_multiple_of(2));
        assert!(config.granger_alpha > 0.0 && config.granger_alpha < 1.0);
        assert!(config.magnitude_sigmas >= 0.0);
        assert!(config.persistence >= 1, "persistence must be at least one batch");
        let network = RbmNetwork::new(num_features, num_classes, config.network);
        let trackers = (0..num_classes)
            .map(|_| {
                TrendTracker::new(config.trend_window, config.trend_history, config.adwin_delta)
            })
            .collect();
        RbmIm {
            config,
            num_features,
            num_classes,
            network,
            trackers,
            consecutive_high: vec![0; num_classes],
            batch_features: Vec::with_capacity(config.mini_batch_size * num_features),
            batch_classes: Vec::with_capacity(config.mini_batch_size),
            batch_errors: Vec::with_capacity(num_classes),
            batch_counter: 0,
            state: DetectorState::Stable,
            drifted: Vec::new(),
            drift_count: 0,
        }
    }

    /// Creates a detector with the default configuration.
    pub fn with_defaults(num_features: usize, num_classes: usize) -> Self {
        Self::new(num_features, num_classes, RbmImConfig::default())
    }

    /// Access to the underlying network (examples / diagnostics).
    pub fn network(&self) -> &RbmNetwork {
        &self.network
    }

    /// The configuration this detector was built with (diagnostics — lets
    /// infrastructure verify which execution mode a spec resolved to).
    pub fn config(&self) -> &RbmImConfig {
        &self.config
    }

    /// Total number of drift signals raised so far.
    pub fn drift_count(&self) -> u64 {
        self.drift_count
    }

    /// Number of complete mini-batches processed.
    pub fn batches_processed(&self) -> u64 {
        self.batch_counter
    }

    /// Feeds one labeled instance directly (the natural API when RBM-IM is
    /// used standalone rather than through the [`DriftDetector`] trait).
    /// Returns the detector state after the instance.
    pub fn observe_instance(&mut self, instance: &Instance) -> DetectorState {
        self.push_observation(&instance.features, instance.class)
    }

    /// Copies one observation into the flat mini-batch buffer and runs the
    /// detect-then-train step when the batch completes.
    fn push_observation(&mut self, features: &[f64], class: usize) -> DetectorState {
        assert_eq!(features.len(), self.num_features, "feature count mismatch");
        self.batch_features.extend_from_slice(features);
        self.batch_classes.push(class);
        if self.batch_classes.len() < self.config.mini_batch_size {
            // A drift signal lasts for exactly one observation; afterwards
            // the detector returns to stable until the next batch decision.
            if self.state == DetectorState::Drift {
                self.state = DetectorState::Stable;
            }
            return self.state;
        }
        self.process_buffered_batch()
    }

    /// Processes the buffered mini-batch: detect first, then train, both on
    /// the flat buffers (no per-instance clones anywhere on this path).
    fn process_buffered_batch(&mut self) -> DetectorState {
        self.batch_counter += 1;
        self.drifted.clear();

        // Move the buffers out so the borrow checker lets the network (also
        // a field of `self`) consume them; moved back — still holding their
        // capacity — before returning.
        let features = std::mem::take(&mut self.batch_features);
        let classes = std::mem::take(&mut self.batch_classes);
        let mut errors = std::mem::take(&mut self.batch_errors);

        let warmed_up = self.batch_counter > self.config.warmup_batches;
        if warmed_up {
            // Score, then train, in one pass: the errors come from the
            // network as it was before this batch, so the decision is made
            // against the old concept representation (test-then-train at
            // the batch level).
            self.network.score_and_train_flat(&features, &classes, &mut errors);
            for (class, error) in errors.iter().enumerate() {
                let Some(error) = error else { continue };
                let drifted = self.update_class(class, *error);
                if drifted {
                    self.drifted.push(class);
                }
            }
        } else {
            self.network.train_flat(&features, &classes);
        }

        self.batch_features = features;
        self.batch_features.clear();
        self.batch_classes = classes;
        self.batch_classes.clear();
        self.batch_errors = errors;

        self.state = if self.drifted.is_empty() {
            DetectorState::Stable
        } else {
            self.drift_count += 1;
            // Forget the trend state of the drifted classes so monitoring
            // restarts on the new concept; the network itself keeps training
            // online (its trainable nature is what lets it re-align).
            for &class in &self.drifted {
                self.trackers[class].reset();
            }
            DetectorState::Drift
        };
        self.state
    }

    /// Updates one class's trackers with the batch error and decides whether
    /// that class drifted.
    ///
    /// Three triggers, evaluated against the window state *before* the new
    /// observation enters it (so the comparison is old-concept vs new batch):
    ///
    /// 1. **adaptive window** — ADWIN over the per-batch error series shrank
    ///    its window *and* the error moved upward (fires immediately: ADWIN
    ///    already demands sustained evidence);
    /// 2. **magnitude** — the batch error exceeds the window mean by more
    ///    than `magnitude_sigmas` window standard deviations (one-sided:
    ///    reconstruction-error *increases* indicate an unfamiliar concept,
    ///    decreases just mean the network is still improving);
    /// 3. **trend causality** — the Granger test finds no causal relation
    ///    between the older and recent halves of the trend history while the
    ///    error sits materially (80% of the magnitude threshold) above the
    ///    old level — the paper's rule, guarded so flat stable series do not
    ///    trigger it.
    ///
    /// Rule 2 or rule 3 must hold in `persistence` consecutive batches
    /// before the class is declared drifted.
    fn update_class(&mut self, class: usize, error: f64) -> bool {
        // Snapshot the old-concept error level before this observation
        // enters the window.
        let older_mean = self.trackers[class].window_mean();
        let older_std = self.trackers[class].window_std().max(1e-6);
        let older_len = self.trackers[class].window_len();

        let (_trend, adwin_change) = self.trackers[class].observe(error);
        if older_len < self.config.min_window_batches {
            // Not enough history on this class yet to judge anything.
            self.consecutive_high[class] = 0;
            return false;
        }
        let shift = error - older_mean;

        // Rule 1: the self-adaptive window flagged a change and the error
        // moved upward. ADWIN already requires sustained evidence, so it is
        // not subject to the persistence counter.
        if adwin_change && shift > 0.0 {
            self.consecutive_high[class] = 0;
            return true;
        }

        // Rule 2: one-sided magnitude test.
        let magnitude_exceeded = shift > self.config.magnitude_sigmas * older_std;
        // Rule 3: Granger causality between the older and recent halves of
        // the trend history, with a slightly reduced magnitude guard.
        let granger_exceeded = if shift > 0.8 * self.config.magnitude_sigmas * older_std {
            match self.trackers[class].trend_series() {
                Some((older_trends, recent_trends)) => {
                    let granger_cfg = GrangerConfig {
                        lags: 1,
                        alpha: self.config.granger_alpha,
                        first_difference: true,
                    };
                    match granger_causality(&older_trends, &recent_trends, &granger_cfg) {
                        Ok(res) => !res.causality_found,
                        // Too little data or degenerate series: no decision.
                        Err(_) => false,
                    }
                }
                None => false,
            }
        } else {
            false
        };

        if magnitude_exceeded || granger_exceeded {
            self.consecutive_high[class] += 1;
        } else {
            self.consecutive_high[class] = 0;
        }
        if self.consecutive_high[class] >= self.config.persistence {
            self.consecutive_high[class] = 0;
            return true;
        }
        false
    }
}

impl DriftDetector for RbmIm {
    fn update(&mut self, observation: &Observation<'_>) -> DetectorState {
        self.push_observation(observation.features, observation.true_class)
    }

    /// Mini-batches are RBM-IM's natural unit of work (Sec. V-B): each
    /// observation's features are copied straight into the flat mini-batch
    /// buffer (no `Instance` is ever materialized) and the batched
    /// detect-then-train kernels run whenever a mini-batch completes.
    /// Drift offsets are exactly the positions the per-observation loop
    /// would report (the observation whose arrival completed a drifting
    /// mini-batch).
    fn update_batch(
        &mut self,
        observations: &[Observation<'_>],
        drift_offsets: &mut Vec<usize>,
    ) -> DetectorState {
        drift_offsets.clear();
        let mut state = self.state;
        for (offset, observation) in observations.iter().enumerate() {
            assert_eq!(observation.features.len(), self.num_features, "feature count mismatch");
            self.batch_features.extend_from_slice(observation.features);
            self.batch_classes.push(observation.true_class);
            if self.batch_classes.len() >= self.config.mini_batch_size {
                state = self.process_buffered_batch();
                if state.is_drift() {
                    drift_offsets.push(offset);
                }
            } else if state == DetectorState::Drift {
                // Mirror `observe_instance`: a drift signal lasts exactly one
                // observation, then the detector reads stable again.
                state = DetectorState::Stable;
            }
        }
        self.state = state;
        state
    }

    fn state(&self) -> DetectorState {
        self.state
    }

    fn reset(&mut self) {
        *self = RbmIm::new(self.num_features, self.num_classes, self.config);
    }

    fn name(&self) -> &'static str {
        "RBM-IM"
    }

    fn per_class_detection(&self) -> bool {
        true
    }

    fn drifted_classes_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.drifted);
    }

    /// Opt in to downcasting so code holding `Box<dyn DriftDetector>` can
    /// reach RBM-IM's own accessors (e.g. [`RbmIm::network`]).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// Complete detector state: the RBM network (weights, momentum, RNG),
    /// every per-class trend tracker (regression window + embedded ADWIN),
    /// the partially filled mini-batch buffer and the drift bookkeeping.
    /// Training scratch belongs to the thread, so none is serialized.
    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::{Serialize, Value};
        let trackers: Vec<Value> = self.trackers.iter().map(|t| t.snapshot_state()).collect();
        Some(Value::object(vec![
            ("num_features", self.num_features.serialize_value()),
            ("num_classes", self.num_classes.serialize_value()),
            ("network", self.network.snapshot_state()),
            ("trackers", Value::Array(trackers)),
            ("consecutive_high", self.consecutive_high.serialize_value()),
            ("batch_features", self.batch_features.serialize_value()),
            ("batch_classes", self.batch_classes.serialize_value()),
            ("batch_counter", self.batch_counter.serialize_value()),
            ("state", self.state.serialize_value()),
            ("drifted", self.drifted.serialize_value()),
            ("drift_count", self.drift_count.serialize_value()),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_features: usize = state.field("num_features")?;
        let num_classes: usize = state.field("num_classes")?;
        if num_features != self.num_features || num_classes != self.num_classes {
            return Err(serde::Error::msg(format!(
                "rbm-im shape mismatch: snapshot is {num_features}×{num_classes}, detector is \
                 {}×{}",
                self.num_features, self.num_classes
            )));
        }
        self.network.restore_state(state.req("network")?)?;
        let serde::Value::Array(trackers) = state.req("trackers")? else {
            return Err(serde::Error::msg("rbm-im `trackers` must be an array"));
        };
        if trackers.len() != self.trackers.len() {
            return Err(serde::Error::msg("rbm-im tracker count mismatch"));
        }
        for (tracker, value) in self.trackers.iter_mut().zip(trackers) {
            tracker.restore_state(value)?;
        }
        let consecutive_high: Vec<u32> = state.field("consecutive_high")?;
        if consecutive_high.len() != self.num_classes {
            return Err(serde::Error::msg("rbm-im `consecutive_high` length mismatch"));
        }
        // Validate the buffered partial mini-batch before accepting it — a
        // corrupt snapshot must fail here, not panic inside the batched
        // kernels at the next flush. (Out-of-range class labels are legal:
        // the batch path skips them, exactly like live ingest does.)
        let batch_features: Vec<f64> = state.field("batch_features")?;
        let batch_classes: Vec<usize> = state.field("batch_classes")?;
        if batch_features.len() != batch_classes.len() * self.num_features {
            return Err(serde::Error::msg(format!(
                "rbm-im batch buffer mismatch: {} feature values for {} buffered instances of {} \
                 features",
                batch_features.len(),
                batch_classes.len(),
                self.num_features
            )));
        }
        if batch_classes.len() >= self.config.mini_batch_size {
            return Err(serde::Error::msg(
                "rbm-im batch buffer holds a full mini-batch; snapshots are only taken with a \
                 partial buffer",
            ));
        }
        self.consecutive_high = consecutive_high;
        self.batch_features = batch_features;
        self.batch_classes = batch_classes;
        self.batch_counter = state.field("batch_counter")?;
        self.state = state.field("state")?;
        self.drifted = state.field("drifted")?;
        self.drift_count = state.field("drift_count")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_detectors::DriftDetectorExt;
    use rbm_im_streams::generators::{GaussianMixtureGenerator, RandomRbfGenerator};
    use rbm_im_streams::imbalance::{ImbalanceProfile, ImbalancedStream};
    use rbm_im_streams::StreamExt;

    fn feed(detector: &mut RbmIm, instances: &[Instance]) -> Vec<(u64, Vec<usize>)> {
        let mut detections = Vec::new();
        for (i, inst) in instances.iter().enumerate() {
            if detector.observe_instance(inst).is_drift() {
                detections.push((i as u64, detector.drifted_classes()));
            }
        }
        detections
    }

    fn quick_config() -> RbmImConfig {
        RbmImConfig { mini_batch_size: 25, warmup_batches: 4, ..Default::default() }
    }

    #[test]
    fn stable_stream_stays_quiet() {
        let mut stream = GaussianMixtureGenerator::balanced(6, 4, 2, 11);
        let mut detector = RbmIm::new(6, 4, quick_config());
        let data = stream.take_instances(10_000);
        let detections = feed(&mut detector, &data);
        assert!(
            detections.len() <= 2,
            "stationary stream should produce (almost) no drift signals, got {detections:?}"
        );
        assert!(detector.batches_processed() > 300);
    }

    #[test]
    fn detects_global_sudden_drift() {
        let mut concept_a = RandomRbfGenerator::new(8, 4, 2, 0.0, 8);
        let mut detector = RbmIm::new(8, 4, quick_config());
        let before = concept_a.take_instances(6_000);
        concept_a.regenerate();
        let after = concept_a.take_instances(4_000);
        let pre_detections = feed(&mut detector, &before);
        let post_detections = feed(&mut detector, &after);
        assert!(
            !post_detections.is_empty(),
            "a global sudden drift must be detected (pre: {pre_detections:?})"
        );
        // The first post-drift detection should come reasonably quickly
        // (within ~40 mini-batches of 25 instances).
        assert!(post_detections[0].0 < 1_000, "detection too slow: {:?}", post_detections[0]);
        assert!(pre_detections.len() <= 2, "false alarms before the drift: {pre_detections:?}");
    }

    #[test]
    fn detects_local_drift_and_attributes_affected_class() {
        // Only class 3 changes its distribution; RBM-IM must notice and name it.
        let mut gen = RandomRbfGenerator::new(6, 4, 2, 0.0, 16);
        let mut detector = RbmIm::new(6, 4, quick_config());
        let before = gen.take_instances(6_000);
        gen.regenerate_classes(&[3]);
        let after = gen.take_instances(4_000);
        feed(&mut detector, &before);
        let detections = feed(&mut detector, &after);
        assert!(!detections.is_empty(), "local drift must be detected");
        let attributed: Vec<usize> =
            detections.iter().flat_map(|(_, classes)| classes.iter().copied()).collect();
        assert!(
            attributed.contains(&3),
            "the drifted class (3) must appear among the attributed classes: {attributed:?}"
        );
        // The stable classes should dominate far less often than the drifted one.
        let drifted_hits = attributed.iter().filter(|&&c| c == 3).count();
        let other_hits = attributed.iter().filter(|&&c| c != 3).count();
        assert!(
            drifted_hits >= other_hits,
            "attribution should favour the drifted class: class3 {drifted_hits}, others {other_hits}"
        );
    }

    #[test]
    fn detects_minority_class_drift_under_imbalance() {
        // 50:10:1 imbalance; the smallest class drifts. This is the paper's
        // headline capability (Experiment 2 with one drifting class).
        let base = RandomRbfGenerator::new(6, 3, 2, 0.0, 21);
        let profile = ImbalanceProfile::Static(vec![50.0, 10.0, 1.0]);
        let mut stream = ImbalancedStream::new(base, profile, 13);
        let mut detector = RbmIm::new(6, 3, quick_config());
        let before = stream.take_instances(8_000);
        feed(&mut detector, &before);
        // Drift the minority class only.
        let mut inner = stream; // take ownership to reach the generator
                                // Rebuild: easier to construct a fresh imbalanced stream around a
                                // drifted copy of the generator.
        let mut drifted_gen = RandomRbfGenerator::new(6, 3, 2, 0.0, 21);
        // Re-play the same number of draws the original generator performed
        // is unnecessary: regenerating class 2 gives a new concept regardless.
        drifted_gen.regenerate_classes(&[2]);
        let profile = ImbalanceProfile::Static(vec![50.0, 10.0, 1.0]);
        let mut drifted_stream = ImbalancedStream::new(drifted_gen, profile, 14);
        let after = drifted_stream.take_instances(8_000);
        let detections = feed(&mut detector, &after);
        let _ = &mut inner;
        assert!(
            !detections.is_empty(),
            "a drift in the minority class must not go unnoticed under 50:1 imbalance"
        );
    }

    #[test]
    fn trainable_detector_adapts_and_goes_quiet_after_drift() {
        let mut gen = RandomRbfGenerator::new(6, 3, 2, 0.0, 33);
        let mut detector = RbmIm::new(6, 3, quick_config());
        feed(&mut detector, &gen.take_instances(5_000));
        gen.regenerate();
        let after = gen.take_instances(10_000);
        let detections = feed(&mut detector, &after);
        assert!(!detections.is_empty());
        // After adapting to the new concept the detector should quiet down:
        // no signals in the last third of the post-drift stream.
        let late_alarms = detections.iter().filter(|(pos, _)| *pos > 7_000).count();
        assert!(late_alarms <= 1, "detector should re-stabilize after retraining: {detections:?}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut stream = GaussianMixtureGenerator::balanced(5, 3, 1, 2);
        let mut detector = RbmIm::new(5, 3, quick_config());
        feed(&mut detector, &stream.take_instances(2_000));
        detector.reset();
        assert_eq!(detector.state(), DetectorState::Stable);
        assert_eq!(detector.batches_processed(), 0);
        assert_eq!(detector.drift_count(), 0);
        assert!(detector.drifted_classes().is_empty());
        assert_eq!(detector.name(), "RBM-IM");
        assert!(detector.per_class_detection());
    }

    #[test]
    fn batched_updates_match_per_instance_updates() {
        // Same drifting stream, fed once through `update` and once through
        // `update_batch` with a chunk size deliberately misaligned with the
        // mini-batch size: detection positions must be identical.
        let mut gen = RandomRbfGenerator::new(8, 4, 2, 0.0, 8);
        let mut data = gen.take_instances(6_000);
        gen.regenerate();
        data.extend(gen.take_instances(4_000));

        let mut sequential = RbmIm::new(8, 4, quick_config());
        let mut sequential_positions = Vec::new();
        for (i, inst) in data.iter().enumerate() {
            let obs = Observation::new(&inst.features, inst.class, inst.class);
            if sequential.update(&obs).is_drift() {
                sequential_positions.push(i);
            }
        }

        let mut batched = RbmIm::new(8, 4, quick_config());
        let mut batched_positions = Vec::new();
        let mut offsets = Vec::new();
        let chunk_size = 37;
        for (chunk_index, chunk) in data.chunks(chunk_size).enumerate() {
            let observations: Vec<Observation<'_>> = chunk
                .iter()
                .map(|inst| Observation::new(&inst.features, inst.class, inst.class))
                .collect();
            batched.update_batch(&observations, &mut offsets);
            batched_positions.extend(offsets.iter().map(|o| chunk_index * chunk_size + o));
        }

        assert_eq!(sequential_positions, batched_positions);
        assert!(!sequential_positions.is_empty(), "the injected drift must be detected");
        assert_eq!(sequential.batches_processed(), batched.batches_processed());
    }

    /// Snapshot mid-mini-batch (an awkward cut), serialize to JSON, restore
    /// onto a fresh detector: drift positions, attributed classes, and the
    /// underlying network weights must match the uninterrupted run bitwise.
    #[test]
    fn checkpoint_roundtrip_resumes_bitwise() {
        let mut gen = RandomRbfGenerator::new(8, 4, 2, 0.0, 8);
        let mut data = gen.take_instances(6_000);
        gen.regenerate();
        data.extend(gen.take_instances(4_000));

        // Cut deliberately misaligned with the 25-instance mini-batch.
        let cut = 5_237;
        let mut uninterrupted = RbmIm::new(8, 4, quick_config());
        let mut head = RbmIm::new(8, 4, quick_config());
        for inst in &data[..cut] {
            uninterrupted.observe_instance(inst);
            head.observe_instance(inst);
        }
        let json = serde_json::to_string(&head.snapshot_state().unwrap()).unwrap();
        let mut resumed = RbmIm::new(8, 4, quick_config());
        resumed.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
        assert_eq!(resumed.batches_processed(), uninterrupted.batches_processed());

        let mut expected = Vec::new();
        let mut got = Vec::new();
        for (i, inst) in data[cut..].iter().enumerate() {
            let a = uninterrupted.observe_instance(inst);
            let b = resumed.observe_instance(inst);
            assert_eq!(a, b, "state diverged at offset {i}");
            if a.is_drift() {
                expected.push((i, uninterrupted.drifted_classes()));
            }
            if b.is_drift() {
                got.push((i, resumed.drifted_classes()));
            }
        }
        assert_eq!(expected, got);
        assert!(!expected.is_empty(), "the injected drift must be detected");
        assert_eq!(
            uninterrupted.network().w().as_slice(),
            resumed.network().w().as_slice(),
            "network weights must stay bitwise-identical"
        );
    }

    #[test]
    fn works_through_the_drift_detector_trait() {
        let mut stream = GaussianMixtureGenerator::balanced(4, 2, 1, 6);
        let mut detector: Box<dyn DriftDetector + Send> =
            Box::new(RbmIm::new(4, 2, quick_config()));
        for inst in stream.take_instances(1_000) {
            let obs = Observation::new(&inst.features, inst.class, inst.class);
            detector.update(&obs);
        }
        assert_eq!(detector.name(), "RBM-IM");
    }

    #[test]
    #[should_panic]
    fn mismatched_features_rejected() {
        let mut detector = RbmIm::with_defaults(4, 2);
        detector.observe_instance(&Instance::new(vec![1.0], 0));
    }

    #[test]
    #[should_panic]
    fn invalid_config_rejected() {
        RbmIm::new(4, 2, RbmImConfig { trend_history: 3, ..Default::default() });
    }
}
