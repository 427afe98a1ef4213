//! The prequential (test-then-train) evaluator.
//!
//! Every instance is first used to *test* the current classifier (its
//! prediction and per-class scores are recorded) and only then to train it.
//! Metrics are computed over a sliding window of `window_size` recent
//! predictions (the paper uses `W = 1000`), and the quantities reported in
//! Table III are the averages of those windowed metrics sampled once per
//! window over the whole stream.
//!
//! Each sample is computed once: the evaluator keeps the latest periodic
//! snapshot and hands it back from [`PrequentialEvaluator::snapshot`] until
//! the next instance is recorded, so a caller that also reports metrics at
//! window boundaries does not pay for a second pmAUC sweep.

use crate::auc::WindowedMultiClassAuc;
use crate::confusion::StreamingConfusionMatrix;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A point-in-time snapshot of the windowed metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrequentialSnapshot {
    /// Stream position at which the snapshot was taken.
    pub position: u64,
    /// Windowed multi-class AUC (pmAUC), in `[0, 1]`.
    pub pm_auc: f64,
    /// Windowed multi-class G-mean (pmGM), in `[0, 1]`.
    pub pm_gmean: f64,
    /// Windowed accuracy.
    pub accuracy: f64,
    /// Windowed Cohen's kappa.
    pub kappa: f64,
}

/// Sliding-window prequential evaluator combining pmAUC and pmGM.
#[derive(Debug, Clone)]
pub struct PrequentialEvaluator {
    num_classes: usize,
    window_size: usize,
    auc: WindowedMultiClassAuc,
    window_confusion: StreamingConfusionMatrix,
    /// Recent (true, predicted) pairs backing the windowed confusion
    /// matrix, as `u32`s: the class count is checked to fit at
    /// construction.
    recent: VecDeque<(u32, u32)>,
    /// The latest snapshot taken at a window boundary (one is taken every
    /// `window_size` instances; older ones live on only in the sums).
    last: Option<PrequentialSnapshot>,
    /// Total instances processed.
    count: u64,
    /// Running sums of the periodic samples and their count: the stream
    /// averages, which need no snapshot history.
    sum_auc: f64,
    sum_gmean: f64,
    samples: u64,
}

impl PrequentialEvaluator {
    /// Creates an evaluator with the given class count and window size.
    ///
    /// # Panics
    /// Panics if `window_size == 0`, or if the class count is below 2 or
    /// exceeds `u32::MAX`.
    pub fn new(num_classes: usize, window_size: usize) -> Self {
        assert!(window_size > 0, "window size must be > 0");
        PrequentialEvaluator {
            num_classes,
            window_size,
            auc: WindowedMultiClassAuc::new(num_classes, window_size),
            window_confusion: StreamingConfusionMatrix::new(num_classes),
            recent: VecDeque::with_capacity(window_size),
            last: None,
            count: 0,
            sum_auc: 0.0,
            sum_gmean: 0.0,
            samples: 0,
        }
    }

    /// Records one tested instance: the true class, the predicted class and
    /// the per-class scores used for AUC.
    pub fn record(&mut self, true_class: usize, predicted_class: usize, scores: &[f64]) {
        self.auc.record(scores, true_class);
        self.window_confusion.record(true_class, predicted_class);
        if self.recent.len() == self.window_size {
            let (t, p) = self.recent.pop_front().expect("window non-empty");
            self.window_confusion.unrecord(t as usize, p as usize);
        }
        // Lossless: both classes passed the range checks above, and the
        // class count fits in a u32.
        self.recent.push_back((true_class as u32, predicted_class as u32));
        self.count += 1;
        // Sample the windowed metrics once per full window (and once the
        // first window has filled), mirroring MOA's evaluation cadence.
        if self.count.is_multiple_of(self.window_size as u64) {
            let snap = self.compute_snapshot();
            self.sum_auc += snap.pm_auc;
            self.sum_gmean += snap.pm_gmean;
            self.samples += 1;
            self.last = Some(snap);
        }
    }

    /// Current windowed metrics. At a window boundary this is the periodic
    /// snapshot already taken there, not a recomputation.
    pub fn snapshot(&self) -> PrequentialSnapshot {
        match self.last {
            Some(snap) if snap.position == self.count => snap,
            _ => self.compute_snapshot(),
        }
    }

    fn compute_snapshot(&self) -> PrequentialSnapshot {
        PrequentialSnapshot {
            position: self.count,
            pm_auc: self.auc.auc(),
            pm_gmean: self.window_confusion.g_mean(),
            accuracy: self.window_confusion.accuracy(),
            kappa: self.window_confusion.kappa(),
        }
    }

    /// The latest periodic snapshot (taken once per full window), if any.
    pub fn last_snapshot(&self) -> Option<PrequentialSnapshot> {
        self.last
    }

    /// Stream-averaged pmAUC: the mean of the periodic windowed snapshots
    /// (falling back to the current window if the stream was shorter than
    /// one window).
    pub fn average_pm_auc(&self) -> f64 {
        if self.samples == 0 {
            self.auc.auc()
        } else {
            self.sum_auc / self.samples as f64
        }
    }

    /// Stream-averaged pmGM.
    pub fn average_pm_gmean(&self) -> f64 {
        if self.samples == 0 {
            self.window_confusion.g_mean()
        } else {
            self.sum_gmean / self.samples as f64
        }
    }

    /// Total number of instances processed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of classes being evaluated.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Captures the evaluator's complete mutable state — the AUC window,
    /// the windowed confusion matrix, the `(true, predicted)` window as two
    /// flat class arrays (`recent_true`, `recent_predicted`, oldest first),
    /// the latest periodic snapshot (as the `snapshots` list, holding at
    /// most one entry) and the running stream averages — as a serde value.
    /// Restored with [`PrequentialEvaluator::restore_state`] onto an
    /// evaluator built with the same class count and window size, the
    /// evaluator continues bitwise-identically to one that was never
    /// checkpointed.
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::Value;
        Value::object(vec![
            ("num_classes", self.num_classes.serialize_value()),
            ("window_size", self.window_size.serialize_value()),
            ("auc", self.auc.snapshot_state()),
            ("window_confusion", self.window_confusion.serialize_value()),
            (
                "recent_true",
                Value::Array(self.recent.iter().map(|(t, _)| t.serialize_value()).collect()),
            ),
            (
                "recent_predicted",
                Value::Array(self.recent.iter().map(|(_, p)| p.serialize_value()).collect()),
            ),
            ("snapshots", self.last.as_slice().serialize_value()),
            ("count", self.count.serialize_value()),
            ("sum_auc", self.sum_auc.serialize_value()),
            ("sum_gmean", self.sum_gmean.serialize_value()),
            ("samples", self.samples.serialize_value()),
        ])
    }

    /// Restores state captured by [`PrequentialEvaluator::snapshot_state`].
    /// Fails if the snapshot was taken with a different class count or
    /// window size, or if its class arrays differ in length, exceed the
    /// window or hold an out-of-range class. A longer `snapshots` history,
    /// as older checkpoints carry, restores its last entry.
    pub fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_classes: usize = state.field("num_classes")?;
        let window_size: usize = state.field("window_size")?;
        if num_classes != self.num_classes || window_size != self.window_size {
            return Err(serde::Error::msg(format!(
                "evaluator shape mismatch: snapshot is {num_classes} classes / window \
                 {window_size}, evaluator is {} / {}",
                self.num_classes, self.window_size
            )));
        }
        self.auc.restore_state(state.req("auc")?)?;
        self.window_confusion =
            StreamingConfusionMatrix::deserialize_value(state.req("window_confusion")?)?;
        if self.window_confusion.num_classes() != self.num_classes {
            return Err(serde::Error::msg("confusion matrix class count mismatch"));
        }
        let truth: Vec<usize> = state.field("recent_true")?;
        let predicted: Vec<usize> = state.field("recent_predicted")?;
        if truth.len() != predicted.len() {
            return Err(serde::Error::msg(format!(
                "evaluator window holds {} true and {} predicted classes",
                truth.len(),
                predicted.len()
            )));
        }
        if truth.len() > self.window_size {
            return Err(serde::Error::msg(format!(
                "evaluator window holds {} predictions, window size is {}",
                truth.len(),
                self.window_size
            )));
        }
        if let Some(class) = truth.iter().chain(&predicted).find(|&&c| c >= self.num_classes) {
            return Err(serde::Error::msg(format!(
                "evaluator window class {class} is out of range for {} classes",
                self.num_classes
            )));
        }
        self.recent.clear();
        self.recent.extend(truth.iter().zip(&predicted).map(|(&t, &p)| (t as u32, p as u32)));
        self.last = state.field::<Vec<PrequentialSnapshot>>("snapshots")?.pop();
        self.count = state.field("count")?;
        self.sum_auc = state.field("sum_auc")?;
        self.sum_gmean = state.field("sum_gmean")?;
        self.samples = state.field("samples")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot(n: usize, class: usize) -> Vec<f64> {
        (0..n).map(|c| if c == class { 0.9 } else { 0.1 / (n as f64 - 1.0) }).collect()
    }

    #[test]
    fn perfect_predictions_max_out_metrics() {
        let mut ev = PrequentialEvaluator::new(3, 100);
        for i in 0..1000u64 {
            let c = (i % 3) as usize;
            ev.record(c, c, &one_hot(3, c));
        }
        assert_eq!(ev.count(), 1000);
        assert!((ev.average_pm_auc() - 1.0).abs() < 1e-9);
        assert!((ev.average_pm_gmean() - 1.0).abs() < 1e-9);
        let snap = ev.snapshot();
        assert!((snap.accuracy - 1.0).abs() < 1e-12);
        assert!((snap.kappa - 1.0).abs() < 1e-12);
        assert_eq!(ev.last_snapshot().map(|s| s.position), Some(1000));
    }

    #[test]
    fn majority_guessing_scores_poorly_on_skew_aware_metrics() {
        // 95:5 imbalance, classifier always predicts the majority class with
        // a constant score: accuracy is high but pmAUC ≈ 0.5 and pmGM = 0.
        let mut ev = PrequentialEvaluator::new(2, 200);
        for i in 0..2000u64 {
            let true_class = if i % 20 == 0 { 1 } else { 0 };
            ev.record(true_class, 0, &[0.7, 0.3]);
        }
        let snap = ev.snapshot();
        assert!(snap.accuracy > 0.9);
        assert!((ev.average_pm_auc() - 0.5).abs() < 0.01, "pmAUC = {}", ev.average_pm_auc());
        assert_eq!(ev.average_pm_gmean(), 0.0);
        assert!(snap.kappa.abs() < 0.05);
    }

    #[test]
    fn windowed_metric_recovers_after_a_bad_phase() {
        let mut ev = PrequentialEvaluator::new(2, 100);
        // 500 bad predictions then 500 perfect ones: the final window view
        // must be perfect even though the average remembers the bad phase.
        for i in 0..500u64 {
            let c = (i % 2) as usize;
            ev.record(c, 1 - c, &one_hot(2, 1 - c));
        }
        for i in 0..500u64 {
            let c = (i % 2) as usize;
            ev.record(c, c, &one_hot(2, c));
        }
        let snap = ev.snapshot();
        assert!((snap.pm_auc - 1.0).abs() < 1e-9);
        assert!((snap.pm_gmean - 1.0).abs() < 1e-9);
        let avg = ev.average_pm_auc();
        assert!(avg > 0.4 && avg < 0.8, "average must blend both phases, got {avg}");
    }

    #[test]
    fn short_stream_falls_back_to_current_window() {
        let mut ev = PrequentialEvaluator::new(2, 1000);
        for i in 0..50u64 {
            let c = (i % 2) as usize;
            ev.record(c, c, &one_hot(2, c));
        }
        // No full window yet — averages come from the live window.
        assert!(ev.last_snapshot().is_none());
        assert!((ev.average_pm_auc() - 1.0).abs() < 1e-9);
        assert!((ev.average_pm_gmean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_positions_are_window_aligned() {
        let mut ev = PrequentialEvaluator::new(2, 50);
        let mut positions = Vec::new();
        for i in 0..175u64 {
            let c = (i % 2) as usize;
            ev.record(c, c, &one_hot(2, c));
            if let Some(snap) = ev.last_snapshot() {
                if positions.last() != Some(&snap.position) {
                    positions.push(snap.position);
                }
            }
        }
        assert_eq!(positions, vec![50, 100, 150]);
        assert_eq!(ev.window_size(), 50);
        assert_eq!(ev.num_classes(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        PrequentialEvaluator::new(2, 0);
    }

    /// Checkpoint at an awkward mid-window cut, serialize to JSON, restore
    /// into a fresh evaluator, continue: every metric must match the
    /// uninterrupted evaluator bitwise.
    #[test]
    fn checkpoint_roundtrip_is_bitwise_identical() {
        let mut uninterrupted = PrequentialEvaluator::new(3, 100);
        let mut head = PrequentialEvaluator::new(3, 100);
        let score = |i: u64, c: usize| {
            let mut s = one_hot(3, c);
            // Slightly noisy scores so AUC state is non-trivial.
            s[(i % 3) as usize] += 0.01 * ((i % 7) as f64);
            s
        };
        for i in 0..537u64 {
            let true_class = (i % 3) as usize;
            let predicted = if i % 5 == 0 { (true_class + 1) % 3 } else { true_class };
            uninterrupted.record(true_class, predicted, &score(i, true_class));
            head.record(true_class, predicted, &score(i, true_class));
        }
        let json = serde_json::to_string(&head.snapshot_state()).unwrap();
        let mut resumed = PrequentialEvaluator::new(3, 100);
        resumed.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
        for i in 537..1_483u64 {
            let true_class = (i % 3) as usize;
            let predicted = if i % 4 == 0 { (true_class + 2) % 3 } else { true_class };
            uninterrupted.record(true_class, predicted, &score(i, true_class));
            resumed.record(true_class, predicted, &score(i, true_class));
        }
        assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
        assert_eq!(resumed.average_pm_auc(), uninterrupted.average_pm_auc());
        assert_eq!(resumed.average_pm_gmean(), uninterrupted.average_pm_gmean());
        assert_eq!(resumed.last_snapshot(), uninterrupted.last_snapshot());
        assert_eq!(resumed.count(), uninterrupted.count());

        // Shape mismatches are rejected, not silently accepted.
        let mut wrong = PrequentialEvaluator::new(4, 100);
        assert!(wrong.restore_state(&serde_json::parse_value(&json).unwrap()).is_err());
    }

    fn assert_bitwise(label: &str, got: PrequentialSnapshot, want: PrequentialSnapshot) {
        assert_eq!(got.position, want.position, "{label}: position");
        for (name, g, w) in [
            ("pm_auc", got.pm_auc, want.pm_auc),
            ("pm_gmean", got.pm_gmean, want.pm_gmean),
            ("accuracy", got.accuracy, want.accuracy),
            ("kappa", got.kappa, want.kappa),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: {name}");
        }
    }

    /// Noisy 4-class records so every windowed metric is non-trivial.
    fn noisy_record(ev: &mut PrequentialEvaluator, i: u64) {
        let true_class = (i % 4) as usize;
        let predicted = if i.is_multiple_of(3) { (true_class + 1) % 4 } else { true_class };
        let mut scores = one_hot(4, predicted);
        scores[(i % 4) as usize] += 0.05 * ((i * 7 % 11) as f64);
        ev.record(true_class, predicted, &scores);
    }

    #[test]
    fn boundary_snapshot_is_the_stored_sample_and_matches_a_fresh_computation() {
        let mut ev = PrequentialEvaluator::new(4, 100);
        for i in 0..300u64 {
            noisy_record(&mut ev, i);
            let snap = ev.snapshot();
            assert_bitwise(&format!("position {}", i + 1), snap, ev.compute_snapshot());
            if (i + 1) % 100 == 0 {
                assert_eq!(ev.last_snapshot(), Some(snap), "the boundary sample is served");
            }
        }
    }

    #[test]
    fn restored_at_a_window_boundary_the_snapshot_is_bitwise_fresh() {
        let mut head = PrequentialEvaluator::new(4, 100);
        for i in 0..300u64 {
            noisy_record(&mut head, i);
        }
        let json = serde_json::to_string(&head.snapshot_state()).unwrap();
        let mut resumed = PrequentialEvaluator::new(4, 100);
        resumed.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
        assert_eq!(resumed.last_snapshot().map(|s| s.position), Some(300));
        assert_bitwise("restored", resumed.snapshot(), head.compute_snapshot());
        assert_bitwise("restored, recomputed", resumed.compute_snapshot(), head.compute_snapshot());
        for i in 300..450u64 {
            noisy_record(&mut head, i);
            noisy_record(&mut resumed, i);
            assert_bitwise(&format!("position {}", i + 1), resumed.snapshot(), head.snapshot());
        }
        assert_eq!(resumed.average_pm_auc().to_bits(), head.average_pm_auc().to_bits());
    }

    #[test]
    fn history_is_bounded_and_a_longer_legacy_history_keeps_its_last_entry() {
        let mut ev = PrequentialEvaluator::new(4, 50);
        for i in 0..520u64 {
            noisy_record(&mut ev, i);
        }
        let state = ev.snapshot_state();
        let history: Vec<PrequentialSnapshot> = state.field("snapshots").unwrap();
        assert_eq!(history, vec![ev.last_snapshot().unwrap()]);
        assert_eq!(history[0].position, 500);

        // An older checkpoint carried every periodic snapshot.
        let older = PrequentialSnapshot { position: 450, ..history[0] };
        let legacy = match state {
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .into_iter()
                    .map(|(key, value)| {
                        if key == "snapshots" {
                            (key, vec![older, history[0]].serialize_value())
                        } else {
                            (key, value)
                        }
                    })
                    .collect(),
            ),
            other => panic!("evaluator state is an object, got {other:?}"),
        };
        let mut restored = PrequentialEvaluator::new(4, 50);
        restored.restore_state(&legacy).unwrap();
        assert_eq!(restored.last_snapshot(), Some(history[0]));
        assert_eq!(restored.snapshot_state(), ev.snapshot_state());
    }

    #[test]
    fn restore_rejects_malformed_recent_windows() {
        let mut ev = PrequentialEvaluator::new(3, 4);
        for i in 0..3 {
            ev.record(i % 3, (i + 1) % 3, &one_hot(3, i % 3));
        }
        let state = ev.snapshot_state();
        let with_recent = |truth: &[usize], predicted: &[usize]| match &state {
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .iter()
                    .map(|(key, value)| match key.as_str() {
                        "recent_true" => (key.clone(), truth.serialize_value()),
                        "recent_predicted" => (key.clone(), predicted.serialize_value()),
                        _ => (key.clone(), value.clone()),
                    })
                    .collect(),
            ),
            other => panic!("evaluator state is an object, got {other:?}"),
        };
        let mut target = PrequentialEvaluator::new(3, 4);
        for (truth, predicted, case) in [
            (&[0, 1][..], &[0][..], "length mismatch"),
            (&[0, 1, 2, 0, 1][..], &[0, 1, 2, 0, 1][..], "over window size"),
            (&[3][..], &[0][..], "true class range"),
            (&[0][..], &[3][..], "predicted class range"),
        ] {
            assert!(target.restore_state(&with_recent(truth, predicted)).is_err(), "{case}");
        }
        target.restore_state(&with_recent(&[0, 1, 2], &[1, 2, 0])).unwrap();
        assert_eq!(target.snapshot_state(), state);
    }
}
