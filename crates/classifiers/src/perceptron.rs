//! Cost-sensitive multi-class online perceptron.
//!
//! One weight vector (plus bias) per class; prediction is the arg-max of the
//! linear scores, reported through a softmax so downstream AUC computation
//! receives calibrated-ish probabilities. The update is the classical
//! multi-class perceptron rule (promote the true class, demote the predicted
//! one on mistakes) with the learning rate scaled by the inverse relative
//! frequency of the true class — the cost-sensitivity mechanism used in the
//! paper's base classifier to avoid drowning minority classes.

use crate::{argmax, softmax_in_place, OnlineClassifier};
use rbm_im_streams::Instance;

/// Flat cost-sensitive multi-class perceptron.
#[derive(Debug, Clone)]
pub struct CostSensitivePerceptron {
    num_features: usize,
    num_classes: usize,
    learning_rate: f64,
    /// `weights[class][feature]`.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
    /// Per-class instance counts, used to derive misclassification costs.
    class_counts: Vec<u64>,
    total_seen: u64,
    /// Per-feature running mean/variance used for online standardization
    /// (streams such as Agrawal mix features of wildly different scales).
    feature_means: Vec<f64>,
    feature_m2: Vec<f64>,
    /// Per-feature standardization divisor derived from the statistics
    /// above: `sqrt(var)`, or `1.0` where `var <= 1e-12` (dividing by 1.0
    /// is exact, so a constant feature is only centred). Refreshed after
    /// every `learn` and `restore_state`, so scoring divides without
    /// recomputing a variance or a square root.
    divisors: Vec<f64>,
}

/// Features standardized per stack block when scoring: the block lives on
/// the stack, so scoring allocates nothing at any feature count.
const STANDARDIZE_BLOCK: usize = 32;

impl CostSensitivePerceptron {
    /// Creates an untrained perceptron.
    pub fn new(num_features: usize, num_classes: usize, learning_rate: f64) -> Self {
        assert!(num_features > 0);
        assert!(num_classes >= 2);
        assert!(learning_rate > 0.0);
        CostSensitivePerceptron {
            num_features,
            num_classes,
            learning_rate,
            weights: vec![vec![0.0; num_features]; num_classes],
            biases: vec![0.0; num_classes],
            class_counts: vec![0; num_classes],
            total_seen: 0,
            feature_means: vec![0.0; num_features],
            feature_m2: vec![0.0; num_features],
            divisors: vec![1.0; num_features],
        }
    }

    /// Misclassification cost of a class: `total / (num_classes * count)`,
    /// clamped to `[1, 100]`. Rare classes get proportionally larger
    /// updates; an unseen class gets the maximum cost.
    pub fn class_cost(&self, class: usize) -> f64 {
        if self.total_seen == 0 || self.class_counts[class] == 0 {
            return 100.0;
        }
        let cost =
            self.total_seen as f64 / (self.num_classes as f64 * self.class_counts[class] as f64);
        cost.clamp(1.0, 100.0)
    }

    /// Standardizes `features[start..start + out.len()]` into `out` with
    /// the running statistics (features pass through unchanged until two
    /// instances have been seen).
    fn standardize_block(&self, start: usize, features: &[f64], out: &mut [f64]) {
        let end = start + out.len();
        if self.total_seen < 2 {
            out.copy_from_slice(&features[start..end]);
            return;
        }
        for (((x, &f), &mean), &div) in out
            .iter_mut()
            .zip(&features[start..end])
            .zip(&self.feature_means[start..end])
            .zip(&self.divisors[start..end])
        {
            *x = (f - mean) / div;
        }
    }

    fn update_feature_stats(&mut self, features: &[f64]) {
        self.total_seen += 1;
        for (i, &x) in features.iter().enumerate() {
            let delta = x - self.feature_means[i];
            self.feature_means[i] += delta / self.total_seen as f64;
            self.feature_m2[i] += delta * (x - self.feature_means[i]);
        }
        self.refresh_divisors();
    }

    /// Re-derives [`CostSensitivePerceptron::divisors`] from the current
    /// statistics.
    fn refresh_divisors(&mut self) {
        if self.total_seen < 2 {
            return;
        }
        let n = (self.total_seen - 1) as f64;
        for (div, &m2) in self.divisors.iter_mut().zip(&self.feature_m2) {
            let var = m2 / n;
            *div = if var <= 1e-12 { 1.0 } else { var.sqrt() };
        }
    }

    /// Clears `out` and fills it with the linear score of every class,
    /// `bias + Σᵢ wᵢ·xᵢ` over the standardized features. Each class sums
    /// its products in feature order from `-0.0`, exactly as
    /// `Iterator::sum` does, so the scores are bitwise those of a
    /// standardize-then-dot implementation. No allocation once `out` holds
    /// `num_classes` values.
    fn raw_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.num_classes, -0.0);
        let mut block = [0.0; STANDARDIZE_BLOCK];
        for start in (0..self.num_features).step_by(STANDARDIZE_BLOCK) {
            let x = &mut block[..STANDARDIZE_BLOCK.min(self.num_features - start)];
            self.standardize_block(start, features, x);
            for (acc, weights) in out.iter_mut().zip(&self.weights) {
                for (w, xi) in weights[start..start + x.len()].iter().zip(x.iter()) {
                    *acc += w * xi;
                }
            }
        }
        for (acc, bias) in out.iter_mut().zip(&self.biases) {
            *acc += bias;
        }
    }

    /// [`OnlineClassifier::learn`] with a caller-owned buffer for the class
    /// scores, so a learner holding many perceptrons (the perceptron tree)
    /// can share one buffer and learn without allocating.
    pub(crate) fn learn_with(&mut self, instance: &Instance, scores: &mut Vec<f64>) {
        assert_eq!(instance.features.len(), self.num_features, "feature count mismatch");
        assert!(instance.class < self.num_classes, "class out of range");
        self.update_feature_stats(&instance.features);
        self.class_counts[instance.class] += 1;

        self.raw_scores_into(&instance.features, scores);
        let predicted = argmax(scores);
        if predicted != instance.class {
            let eta = self.learning_rate * self.class_cost(instance.class);
            let mut block = [0.0; STANDARDIZE_BLOCK];
            for start in (0..self.num_features).step_by(STANDARDIZE_BLOCK) {
                let x = &mut block[..STANDARDIZE_BLOCK.min(self.num_features - start)];
                self.standardize_block(start, &instance.features, x);
                let end = start + x.len();
                for (w, xi) in self.weights[instance.class][start..end].iter_mut().zip(x.iter()) {
                    *w += eta * xi;
                }
                for (w, xi) in self.weights[predicted][start..end].iter_mut().zip(x.iter()) {
                    *w -= eta * xi;
                }
            }
            self.biases[instance.class] += eta;
            self.biases[predicted] -= eta;
        }
    }
}

impl OnlineClassifier for CostSensitivePerceptron {
    fn predict_scores(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_scores_into(features, &mut out);
        out
    }

    fn predict_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(features.len(), self.num_features, "feature count mismatch");
        self.raw_scores_into(features, out);
        softmax_in_place(out);
    }

    fn learn(&mut self, instance: &Instance) {
        self.learn_with(instance, &mut Vec::with_capacity(self.num_classes));
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn reset(&mut self) {
        *self =
            CostSensitivePerceptron::new(self.num_features, self.num_classes, self.learning_rate);
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::{Serialize, Value};
        Some(Value::object(vec![
            ("num_features", self.num_features.serialize_value()),
            ("num_classes", self.num_classes.serialize_value()),
            ("weights", self.weights.serialize_value()),
            ("biases", self.biases.serialize_value()),
            ("class_counts", self.class_counts.serialize_value()),
            ("total_seen", self.total_seen.serialize_value()),
            ("feature_means", self.feature_means.serialize_value()),
            ("feature_m2", self.feature_m2.serialize_value()),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_features: usize = state.field("num_features")?;
        let num_classes: usize = state.field("num_classes")?;
        if num_features != self.num_features || num_classes != self.num_classes {
            return Err(serde::Error::msg(format!(
                "perceptron shape mismatch: snapshot is {num_features}×{num_classes}, model is \
                 {}×{}",
                self.num_features, self.num_classes
            )));
        }
        let weights: Vec<Vec<f64>> = state.field("weights")?;
        let biases: Vec<f64> = state.field("biases")?;
        let class_counts: Vec<u64> = state.field("class_counts")?;
        let feature_means: Vec<f64> = state.field("feature_means")?;
        let feature_m2: Vec<f64> = state.field("feature_m2")?;
        let total_seen: u64 = state.field("total_seen")?;
        // A wrong-shaped snapshot must fail here: scoring would otherwise
        // sum fewer terms silently (`zip` stops early) or index past a row.
        if weights.len() != num_classes || weights.iter().any(|row| row.len() != num_features) {
            return Err(serde::Error::msg(format!(
                "perceptron `weights` must be {num_classes} rows of {num_features} values"
            )));
        }
        for (name, len, want) in [
            ("biases", biases.len(), num_classes),
            ("class_counts", class_counts.len(), num_classes),
            ("feature_means", feature_means.len(), num_features),
            ("feature_m2", feature_m2.len(), num_features),
        ] {
            if len != want {
                return Err(serde::Error::msg(format!(
                    "perceptron `{name}` length mismatch: snapshot has {len}, expected {want}"
                )));
            }
        }
        self.weights = weights;
        self.biases = biases;
        self.class_counts = class_counts;
        self.total_seen = total_seen;
        self.feature_means = feature_means;
        self.feature_m2 = feature_m2;
        self.refresh_divisors();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rbm_im_streams::generators::GaussianMixtureGenerator;
    use rbm_im_streams::StreamExt;

    fn train_and_score(
        classifier: &mut dyn OnlineClassifier,
        train: &[Instance],
        test: &[Instance],
    ) -> f64 {
        for inst in train {
            classifier.learn(inst);
        }
        let correct = test.iter().filter(|i| classifier.predict(&i.features) == i.class).count();
        correct as f64 / test.len() as f64
    }

    #[test]
    fn learns_linearly_separable_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let make = |rng: &mut StdRng, n: usize| -> Vec<Instance> {
            (0..n)
                .map(|_| {
                    let class = rng.gen_range(0..3usize);
                    let offset = class as f64 * 5.0;
                    let features =
                        vec![offset + rng.gen_range(-1.0..1.0), offset + rng.gen_range(-1.0..1.0)];
                    Instance::new(features, class)
                })
                .collect()
        };
        let train = make(&mut rng, 2000);
        let test = make(&mut rng, 500);
        let mut p = CostSensitivePerceptron::new(2, 3, 0.1);
        let acc = train_and_score(&mut p, &train, &test);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn learns_gaussian_mixture_stream() {
        let mut stream = GaussianMixtureGenerator::balanced(6, 4, 1, 9);
        let train = stream.take_instances(3000);
        let test = stream.take_instances(500);
        let mut p = CostSensitivePerceptron::new(6, 4, 0.05);
        let acc = train_and_score(&mut p, &train, &test);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn scores_are_probabilities() {
        let mut p = CostSensitivePerceptron::new(3, 4, 0.1);
        p.learn(&Instance::new(vec![1.0, 2.0, 3.0], 1));
        let s = p.predict_scores(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 4);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn minority_class_cost_is_larger() {
        let mut p = CostSensitivePerceptron::new(2, 2, 0.1);
        for i in 0..100 {
            let class = if i % 10 == 0 { 1 } else { 0 };
            p.learn(&Instance::new(vec![i as f64, 0.0], class));
        }
        assert!(p.class_cost(1) > p.class_cost(0));
        assert!(p.class_cost(0) >= 1.0);
        assert!(p.class_cost(1) <= 100.0);
    }

    #[test]
    fn unseen_class_has_max_cost() {
        let p = CostSensitivePerceptron::new(2, 3, 0.1);
        assert_eq!(p.class_cost(2), 100.0);
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = CostSensitivePerceptron::new(2, 2, 0.1);
        for i in 0..200 {
            p.learn(&Instance::new(vec![i as f64, 1.0], (i % 2) as usize));
        }
        p.reset();
        let s = p.predict_scores(&[5.0, 1.0]);
        assert!((s[0] - 0.5).abs() < 1e-12, "reset model must be uninformative, got {s:?}");
        assert_eq!(p.num_classes(), 2);
    }

    /// The snapshot of a trained 3-feature, 2-class perceptron.
    fn trained_state() -> serde::Value {
        let mut p = CostSensitivePerceptron::new(3, 2, 0.1);
        for i in 0..20 {
            p.learn(&Instance::new(vec![i as f64, 1.0, -(i as f64)], i % 2));
        }
        p.snapshot_state().unwrap()
    }

    /// Restoring `trained_state()` with `field` replaced by each of `bad`
    /// must fail (the unedited snapshot restores).
    fn assert_rejected(field: &str, bad: Vec<serde::Value>) {
        let state = trained_state();
        let mut p = CostSensitivePerceptron::new(3, 2, 0.1);
        assert!(p.restore_state(&state).is_ok());
        for value in bad {
            let edited = crate::edited(&state, &[field], value.clone());
            assert!(p.restore_state(&edited).is_err(), "`{field}` = {value:?} accepted");
        }
    }

    #[test]
    fn restore_rejects_wrong_shaped_weights() {
        use serde::Serialize;
        assert_rejected(
            "weights",
            vec![
                vec![vec![0.0; 3]; 3].serialize_value(),
                vec![vec![0.0; 3], vec![0.0; 2]].serialize_value(),
            ],
        );
    }

    #[test]
    fn restore_rejects_wrong_length_biases() {
        use serde::Serialize;
        assert_rejected(
            "biases",
            vec![vec![0.0].serialize_value(), vec![0.0; 3].serialize_value()],
        );
    }

    #[test]
    fn restore_rejects_wrong_length_class_counts() {
        use serde::Serialize;
        assert_rejected("class_counts", vec![vec![5u64].serialize_value()]);
    }

    #[test]
    fn restore_rejects_wrong_length_feature_means() {
        use serde::Serialize;
        assert_rejected("feature_means", vec![vec![0.0; 2].serialize_value()]);
    }

    #[test]
    fn restore_rejects_wrong_length_feature_m2() {
        use serde::Serialize;
        assert_rejected("feature_m2", vec![vec![0.0; 4].serialize_value()]);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The perceptron against the retained original on random streams
        /// of 1–70 features (so scoring crosses its stack-block boundary)
        /// at random scales, including constant features, with resets and
        /// RBMC round trips mixed in: identical score bits and predictions
        /// before every `learn`.
        #[test]
        fn perceptron_matches_the_original_bitwise(
            shape in (1usize..71, 2usize..9, 50usize..600, 0u64..u64::MAX)
        ) {
            use rbm_im_harness::checkpoint::codec::{decode_value, encode_value};
            let (num_features, num_classes, length, seed) = shape;
            let mut rng = proptest::TestRng::seed(seed);
            let scales: Vec<f64> = (0..num_features)
                .map(|_| if rng.below(4) == 0 { 0.0 } else { 10f64.powi(rng.below(7) as i32 - 3) })
                .collect();
            let mut p = CostSensitivePerceptron::new(num_features, num_classes, 0.05);
            let mut reference = crate::reference::ReferencePerceptron::new(num_features, num_classes, 0.05);
            let (mut scores, mut reference_scores) = (Vec::new(), Vec::new());
            for n in 0..length {
                match rng.below(200) {
                    0 => {
                        p.reset();
                        reference = crate::reference::ReferencePerceptron::new(num_features, num_classes, 0.05);
                    }
                    1..=2 => {
                        let bytes = encode_value(&p.snapshot_state().unwrap());
                        p = CostSensitivePerceptron::new(num_features, num_classes, 0.05);
                        p.restore_state(&decode_value(&bytes).unwrap()).unwrap();
                    }
                    _ => {}
                }
                let class = rng.below(num_classes as u64) as usize;
                let features: Vec<f64> = scales
                    .iter()
                    .map(|&scale| (rng.unit_f64() + class as f64 * 0.3) * scale - scale * 0.5)
                    .collect();
                p.predict_scores_into(&features, &mut scores);
                reference.predict_scores_into(&features, &mut reference_scores);
                proptest::prop_assert_eq!(bits(&scores), bits(&reference_scores), "instance {}", n);
                proptest::prop_assert_eq!(argmax(&scores), argmax(&reference_scores));
                let instance = Instance::new(features, class);
                p.learn(&instance);
                reference.learn(&instance);
            }
        }
    }

    #[test]
    #[should_panic]
    fn feature_count_mismatch_rejected() {
        let p = CostSensitivePerceptron::new(3, 2, 0.1);
        p.predict_scores(&[1.0]);
    }
}
