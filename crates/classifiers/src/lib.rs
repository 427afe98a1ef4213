//! Online classifiers for multi-class imbalanced data streams.
//!
//! The paper drives every drift detector through the same base classifier —
//! **Adaptive Cost-Sensitive Perceptron Trees** (Krawczyk & Skryjomski,
//! ECML-PKDD 2017) — so that differences in Table III are attributable to
//! the detector alone. The original implementation is not open source; this
//! crate re-implements its behaviourally relevant design (an incremental
//! decision tree whose leaves hold cost-sensitive perceptrons, with costs
//! derived from inverse class frequencies and adaptation gated by an
//! external drift detector) plus two simpler online learners used in tests,
//! examples and ablations:
//!
//! * [`perceptron::CostSensitivePerceptron`] — flat multi-class perceptron
//!   with skew-aware update scaling,
//! * [`naive_bayes::GaussianNaiveBayes`] — incremental Gaussian NB,
//! * [`cspt::CostSensitivePerceptronTree`] — the paper's base classifier.
//!
//! All classifiers implement [`OnlineClassifier`]: test-then-train usage is
//! `predict` / `predict_scores` followed by `learn`.

#![warn(missing_docs)]

pub mod cspt;
pub mod naive_bayes;
pub mod perceptron;
#[cfg(test)]
mod reference;

pub use cspt::CostSensitivePerceptronTree;
pub use naive_bayes::GaussianNaiveBayes;
pub use perceptron::CostSensitivePerceptron;

use rbm_im_streams::Instance;

/// An online (incremental) classifier operating on a fixed schema.
pub trait OnlineClassifier {
    /// Predicts the class of an instance (ties broken toward the lower
    /// class index; see [`argmax`]).
    fn predict(&self, features: &[f64]) -> usize {
        argmax(&self.predict_scores(features))
    }

    /// Per-class scores (higher = more likely); need not be normalized but
    /// every implementation here returns values in `[0, 1]` summing to 1 so
    /// they can feed the pmAUC estimator directly.
    fn predict_scores(&self, features: &[f64]) -> Vec<f64>;

    /// Caller-buffer variant of [`OnlineClassifier::predict_scores`]: clears
    /// `out` and fills it with the per-class scores. Evaluation hot loops
    /// keep one buffer alive for the whole stream instead of allocating a
    /// fresh `Vec` per instance; implementations should override this with
    /// an allocation-free fill where possible.
    fn predict_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.predict_scores(features));
    }

    /// Learns from one labeled instance.
    fn learn(&mut self, instance: &Instance);

    /// Number of classes.
    fn num_classes(&self) -> usize;

    /// Resets the model to its untrained state — called by the harness when
    /// the attached drift detector signals a change (the adaptation
    /// mechanism the paper's base classifier relies on).
    fn reset(&mut self);

    /// Captures the classifier's complete mutable state as a serde
    /// [`Value`](serde::Value) — the checkpoint half of the workspace-wide
    /// snapshot/restore contract. A snapshot is restored (with
    /// [`OnlineClassifier::restore_state`]) onto a freshly built classifier
    /// of the same shape and configuration, after which prediction and
    /// learning continue **bitwise identically** to a classifier that was
    /// never checkpointed. Returns `None` for classifiers that do not
    /// support checkpointing (the default); every classifier this workspace
    /// ships overrides it.
    fn snapshot_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`OnlineClassifier::snapshot_state`] onto
    /// this (identically configured, typically freshly built) classifier.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Err(serde::Error::msg("this classifier does not support checkpointing"))
    }
}

/// Index of the maximum score, with ties broken toward the lower class
/// index. This is the single argmax used by both
/// [`OnlineClassifier::predict`] and the evaluation pipeline, so the two can
/// never disagree on tie-breaking. Returns 0 for an empty slice; NaN scores
/// never win.
pub fn argmax(scores: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, &score) in scores.iter().enumerate() {
        if score > best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

/// Normalizes a non-negative score vector into a probability distribution;
/// degenerate vectors become uniform. Exposed for custom classifier
/// implementations that produce unnormalized scores.
pub fn normalize_scores(mut scores: Vec<f64>) -> Vec<f64> {
    let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
    if min < 0.0 {
        for s in scores.iter_mut() {
            *s -= min;
        }
    }
    let total: f64 = scores.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        let n = scores.len().max(1);
        return vec![1.0 / n as f64; n];
    }
    for s in scores.iter_mut() {
        *s /= total;
    }
    scores
}

/// Softmax with max-subtraction for numerical stability.
pub fn softmax(scores: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    softmax_into(scores, &mut out);
    out
}

/// Buffer-reusing [`softmax`]: clears `out` and fills it with the softmax of
/// `scores` (uniform for degenerate inputs). Allocation-free once `out` has
/// grown to the class count.
pub fn softmax_into(scores: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(scores);
    softmax_in_place(out);
}

/// In-place [`softmax`]: replaces raw scores with the softmax distribution
/// (uniform for degenerate inputs) without any allocation. Classifiers fill
/// the caller's score buffer with raw scores and finish with this.
///
/// Re-exported from [`rbm_im::linalg`] — the one shared implementation that
/// the RBM's class-layer reconstruction (Eq. 12) also runs on, so the
/// classifiers and the RBM can never disagree numerically.
pub use rbm_im::linalg::softmax_in_place;

/// Returns a copy of a snapshot with the value at `path` (object keys,
/// outermost first) replaced by `edit`'s result — for the tests that feed
/// `restore_state` malformed state.
#[cfg(test)]
pub(crate) fn edited(state: &serde::Value, path: &[&str], edit: serde::Value) -> serde::Value {
    let mut out = state.clone();
    let mut node = &mut out;
    for key in path {
        let serde::Value::Object(fields) = node else { panic!("`{key}` is not inside an object") };
        node = &mut fields.iter_mut().find(|(k, _)| k == key).expect("snapshot key").1;
    }
    *node = edit;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All three classifiers: snapshot mid-stream, serialize to JSON,
    /// restore onto a fresh twin, continue learning — predictions must stay
    /// bitwise-identical to the uninterrupted model.
    #[test]
    fn checkpoint_roundtrip_resumes_bitwise_for_every_classifier() {
        use rbm_im_streams::generators::GaussianMixtureGenerator;
        use rbm_im_streams::StreamExt;

        type Factory = Box<dyn Fn() -> Box<dyn OnlineClassifier>>;
        let factories: Vec<(&str, Factory)> = vec![
            ("perceptron", Box::new(|| Box::new(CostSensitivePerceptron::new(6, 3, 0.05)))),
            ("naive-bayes", Box::new(|| Box::new(GaussianNaiveBayes::new(6, 3)))),
            ("cspt", Box::new(|| Box::new(CostSensitivePerceptronTree::new(6, 3)))),
        ];
        let mut stream = GaussianMixtureGenerator::balanced(6, 3, 1, 77);
        // Enough data that the CSPT grows splits before the cut.
        let data = stream.take_instances(5_000);

        for (name, make) in &factories {
            for cut in [0usize, 1, 2_741] {
                let mut uninterrupted = make();
                let mut head = make();
                for inst in &data[..cut] {
                    uninterrupted.learn(inst);
                    head.learn(inst);
                }
                let snapshot = head
                    .snapshot_state()
                    .unwrap_or_else(|| panic!("{name}: must support checkpointing"));
                let json = serde_json::to_string(&snapshot).unwrap();
                let mut resumed = make();
                resumed
                    .restore_state(&serde_json::parse_value(&json).unwrap())
                    .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
                for (i, inst) in data[cut..].iter().enumerate() {
                    assert_eq!(
                        uninterrupted.predict_scores(&inst.features),
                        resumed.predict_scores(&inst.features),
                        "{name} @ cut {cut}, offset {i}"
                    );
                    uninterrupted.learn(inst);
                    resumed.learn(inst);
                }
            }
        }
    }

    #[test]
    fn normalize_scores_handles_degenerate_inputs() {
        assert_eq!(normalize_scores(vec![0.0, 0.0]), vec![0.5, 0.5]);
        let n = normalize_scores(vec![1.0, 3.0]);
        assert!((n[0] - 0.25).abs() < 1e-12);
        assert!((n[1] - 0.75).abs() < 1e-12);
        // Negative values are shifted before normalization.
        let n = normalize_scores(vec![-1.0, 1.0]);
        assert_eq!(n[0], 0.0);
        assert_eq!(n[1], 1.0);
    }

    #[test]
    fn argmax_breaks_ties_toward_lower_index() {
        assert_eq!(argmax(&[0.2, 0.5, 0.5, 0.1]), 1);
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[]), 0);
        // NaN scores never win.
        assert_eq!(argmax(&[f64::NAN, 0.3, f64::NAN]), 1);
    }

    #[test]
    fn softmax_into_reuses_buffer_and_matches_softmax() {
        let mut buffer = vec![9.0; 8];
        softmax_into(&[1.0, 2.0, 3.0], &mut buffer);
        assert_eq!(buffer, softmax(&[1.0, 2.0, 3.0]));
        softmax_into(&[f64::NEG_INFINITY, f64::NEG_INFINITY], &mut buffer);
        assert_eq!(buffer, vec![0.5, 0.5]);
    }

    #[test]
    fn softmax_is_a_distribution_and_order_preserving() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        // Large values do not overflow.
        let s = softmax(&[1000.0, 1001.0]);
        assert!(s[1] > s[0]);
        assert!(s.iter().all(|p| p.is_finite()));
    }
}
