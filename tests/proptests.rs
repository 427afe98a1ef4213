//! Property-based tests (proptest) on cross-crate invariants: metric bounds,
//! generator label control, imbalance-profile normalization, detection
//! scoring consistency and statistical-test sanity under arbitrary inputs.

use proptest::prelude::*;
use rbm_im_metrics::{evaluate_detections, StreamingConfusionMatrix, WindowedMultiClassAuc};
use rbm_im_stats::descriptive::rank_with_ties;
use rbm_im_stats::friedman::friedman_test;
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::imbalance::ImbalanceProfile;
use rbm_im_streams::StreamExt;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Confusion-matrix derived metrics always stay inside their bounds and
    /// the matrix total matches the number of recorded predictions.
    #[test]
    fn confusion_matrix_metrics_are_bounded(
        labels in prop::collection::vec((0usize..4, 0usize..4), 1..300)
    ) {
        let mut m = StreamingConfusionMatrix::new(4);
        for &(t, p) in &labels {
            m.record(t, p);
        }
        prop_assert_eq!(m.total() as usize, labels.len());
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
        prop_assert!((0.0..=1.0).contains(&m.g_mean()));
        prop_assert!((-1.0..=1.0).contains(&m.kappa()));
        for c in 0..4 {
            if let Some(r) = m.recall(c) {
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    /// The windowed multi-class AUC is always within [0, 1] whatever scores
    /// and labels arrive.
    #[test]
    fn windowed_auc_is_bounded(
        records in prop::collection::vec((prop::collection::vec(0.0f64..1.0, 3), 0usize..3), 1..200)
    ) {
        let mut auc = WindowedMultiClassAuc::new(3, 50);
        for (scores, label) in &records {
            auc.record(scores, *label);
        }
        let value = auc.auc();
        prop_assert!((0.0..=1.0).contains(&value), "auc = {}", value);
    }

    /// Midranks are a permutation-invariant quantity: their sum is always
    /// n(n+1)/2 and every rank lies in [1, n].
    #[test]
    fn ranks_sum_is_invariant(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let ranks = rank_with_ties(&values);
        let n = values.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        prop_assert!(ranks.iter().all(|&r| r >= 1.0 && r <= n));
    }

    /// Friedman average ranks always sum to k(k+1)/2 and the p-value is a
    /// probability, for any score matrix.
    #[test]
    fn friedman_ranks_always_consistent(
        scores in prop::collection::vec(prop::collection::vec(0.0f64..100.0, 4), 2..6)
    ) {
        let result = friedman_test(&scores, true).unwrap();
        let k = scores.len() as f64;
        let sum: f64 = result.average_ranks.iter().sum();
        prop_assert!((sum - k * (k + 1.0) / 2.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&result.p_value));
    }

    /// Imbalance profiles always yield a normalized probability vector and an
    /// imbalance ratio of at least 1.
    #[test]
    fn imbalance_profiles_normalize(num_classes in 2usize..8, ir in 1.0f64..400.0, t in 0u64..100_000) {
        let profile = ImbalanceProfile::geometric(num_classes, ir);
        let probs = profile.probabilities_at(t);
        prop_assert_eq!(probs.len(), num_classes);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(profile.imbalance_ratio_at(t) >= 1.0 - 1e-9);
    }

    /// Detection scoring: detected + missed always equals the number of true
    /// drifts, and precision/recall stay in [0, 1].
    #[test]
    fn detection_scoring_is_consistent(
        truths in prop::collection::vec(0u64..50_000, 0..6),
        alarms in prop::collection::vec(0u64..50_000, 0..20),
        horizon in 1u64..10_000
    ) {
        let q = evaluate_detections(&truths, &alarms, horizon);
        prop_assert_eq!(q.detected + q.missed, q.true_drifts);
        prop_assert!((0.0..=1.0).contains(&q.recall()));
        prop_assert!((0.0..=1.0).contains(&q.precision()));
        prop_assert!(q.false_alarms <= alarms.len());
    }

    /// The RBF generator always produces the declared number of features and
    /// valid class labels, for arbitrary (small) schema choices.
    #[test]
    fn rbf_generator_respects_schema(
        features in 1usize..12,
        classes in 2usize..6,
        seed in 0u64..1_000
    ) {
        let mut gen = RandomRbfGenerator::new(features, classes, 2, 0.0, seed);
        for inst in gen.take_instances(50) {
            prop_assert_eq!(inst.num_features(), features);
            prop_assert!(inst.class < classes);
            prop_assert!(inst.features.iter().all(|f| f.is_finite()));
        }
    }
}
