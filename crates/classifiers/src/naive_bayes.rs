//! Incremental Gaussian naive Bayes.
//!
//! Maintains per-class, per-feature running means and variances (Welford)
//! and class priors; prediction combines the Gaussian log-likelihoods with
//! the log prior. Used as a lightweight reference learner in tests,
//! examples and ablations, and as the leaf fallback in the perceptron tree
//! before a leaf's perceptron has seen enough data.

use crate::{softmax_in_place, OnlineClassifier};
use rbm_im_streams::Instance;

/// Running Gaussian summary of one feature for one class.
#[derive(Debug, Clone, Default)]
struct FeatureStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl FeatureStats {
    fn update(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn variance(&self) -> f64 {
        if self.count < 2 {
            1.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(1e-6)
        }
    }

    fn log_likelihood(&self, x: f64) -> f64 {
        let var = self.variance();
        let diff = x - self.mean;
        -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var)
    }
}

/// Incremental Gaussian naive Bayes classifier.
#[derive(Debug, Clone)]
pub struct GaussianNaiveBayes {
    num_features: usize,
    num_classes: usize,
    /// `stats[class][feature]`.
    stats: Vec<Vec<FeatureStats>>,
    class_counts: Vec<u64>,
    total: u64,
}

impl GaussianNaiveBayes {
    /// Creates an untrained model.
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        assert!(num_features > 0);
        assert!(num_classes >= 2);
        GaussianNaiveBayes {
            num_features,
            num_classes,
            stats: vec![vec![FeatureStats::default(); num_features]; num_classes],
            class_counts: vec![0; num_classes],
            total: 0,
        }
    }

    /// Number of training instances seen so far.
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    /// Laplace-smoothed log prior of a class.
    fn log_prior(&self, class: usize) -> f64 {
        ((self.class_counts[class] + 1) as f64 / (self.total + self.num_classes as u64) as f64).ln()
    }
}

impl OnlineClassifier for GaussianNaiveBayes {
    fn predict_scores(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_scores_into(features, &mut out);
        out
    }

    fn predict_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(features.len(), self.num_features, "feature count mismatch");
        out.clear();
        out.extend((0..self.num_classes).map(|c| {
            let mut lp = self.log_prior(c);
            if self.class_counts[c] > 0 {
                for (f, stat) in features.iter().zip(self.stats[c].iter()) {
                    lp += stat.log_likelihood(*f);
                }
            }
            lp
        }));
        softmax_in_place(out);
    }

    fn learn(&mut self, instance: &Instance) {
        assert_eq!(instance.features.len(), self.num_features, "feature count mismatch");
        assert!(instance.class < self.num_classes, "class out of range");
        self.class_counts[instance.class] += 1;
        self.total += 1;
        for (f, stat) in instance.features.iter().zip(self.stats[instance.class].iter_mut()) {
            stat.update(*f);
        }
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn reset(&mut self) {
        *self = GaussianNaiveBayes::new(self.num_features, self.num_classes);
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::{Serialize, Value};
        let stats: Vec<Value> = self
            .stats
            .iter()
            .map(|per_class| {
                Value::Array(
                    per_class
                        .iter()
                        .map(|s| {
                            Value::object(vec![
                                ("count", s.count.serialize_value()),
                                ("mean", s.mean.serialize_value()),
                                ("m2", s.m2.serialize_value()),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        Some(Value::object(vec![
            ("num_features", self.num_features.serialize_value()),
            ("num_classes", self.num_classes.serialize_value()),
            ("stats", Value::Array(stats)),
            ("class_counts", self.class_counts.serialize_value()),
            ("total", self.total.serialize_value()),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_features: usize = state.field("num_features")?;
        let num_classes: usize = state.field("num_classes")?;
        if num_features != self.num_features || num_classes != self.num_classes {
            return Err(serde::Error::msg(format!(
                "naive bayes shape mismatch: snapshot is {num_features}×{num_classes}, model is \
                 {}×{}",
                self.num_features, self.num_classes
            )));
        }
        let serde::Value::Array(per_class_values) = state.req("stats")? else {
            return Err(serde::Error::msg("naive bayes `stats` must be an array"));
        };
        if per_class_values.len() != self.num_classes {
            return Err(serde::Error::msg("naive bayes `stats` class count mismatch"));
        }
        let mut stats = Vec::with_capacity(self.num_classes);
        for per_class in per_class_values {
            let serde::Value::Array(features) = per_class else {
                return Err(serde::Error::msg("naive bayes per-class stats must be an array"));
            };
            if features.len() != self.num_features {
                return Err(serde::Error::msg("naive bayes `stats` feature count mismatch"));
            }
            let mut row = Vec::with_capacity(self.num_features);
            for value in features {
                row.push(FeatureStats {
                    count: value.field("count")?,
                    mean: value.field("mean")?,
                    m2: value.field("m2")?,
                });
            }
            stats.push(row);
        }
        let class_counts: Vec<u64> = state.field("class_counts")?;
        if class_counts.len() != self.num_classes {
            // `predict_scores_into` indexes the counts by class.
            return Err(serde::Error::msg(format!(
                "naive bayes `class_counts` has {} classes, expected {}",
                class_counts.len(),
                self.num_classes
            )));
        }
        let total = state.field("total")?;
        self.stats = stats;
        self.class_counts = class_counts;
        self.total = total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbm_im_streams::generators::GaussianMixtureGenerator;
    use rbm_im_streams::StreamExt;

    #[test]
    fn separable_gaussians_are_classified_correctly() {
        let mut nb = GaussianNaiveBayes::new(2, 2);
        for i in 0..500 {
            let t = i as f64 * 0.001;
            nb.learn(&Instance::new(vec![0.0 + t, 0.0 - t], 0));
            nb.learn(&Instance::new(vec![10.0 + t, 10.0 - t], 1));
        }
        assert_eq!(nb.predict(&[0.5, -0.5]), 0);
        assert_eq!(nb.predict(&[9.5, 10.5]), 1);
        assert_eq!(nb.total_seen(), 1000);
    }

    #[test]
    fn untrained_model_is_uniform() {
        let nb = GaussianNaiveBayes::new(3, 4);
        let s = nb.predict_scores(&[1.0, 2.0, 3.0]);
        for p in &s {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn scores_sum_to_one_and_favor_likely_class() {
        let mut nb = GaussianNaiveBayes::new(1, 2);
        for _ in 0..200 {
            nb.learn(&Instance::new(vec![0.0], 0));
            nb.learn(&Instance::new(vec![5.0], 1));
        }
        let s = nb.predict_scores(&[0.1]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[0] > 0.95);
    }

    #[test]
    fn priors_reflect_imbalance() {
        let mut nb = GaussianNaiveBayes::new(1, 2);
        // Identical feature distributions; only the prior differs 9:1.
        for i in 0..1000 {
            let class = if i % 10 == 0 { 1 } else { 0 };
            nb.learn(&Instance::new(vec![(i % 7) as f64], class));
        }
        let s = nb.predict_scores(&[3.0]);
        assert!(s[0] > s[1], "majority prior should dominate when likelihoods are equal");
    }

    #[test]
    fn mixture_stream_accuracy_is_reasonable() {
        let mut stream = GaussianMixtureGenerator::balanced(5, 3, 1, 11);
        let train = stream.take_instances(3000);
        let test = stream.take_instances(500);
        let mut nb = GaussianNaiveBayes::new(5, 3);
        for inst in &train {
            nb.learn(inst);
        }
        let acc = test.iter().filter(|i| nb.predict(&i.features) == i.class).count() as f64
            / test.len() as f64;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn reset_restores_uniform_predictions() {
        let mut nb = GaussianNaiveBayes::new(2, 2);
        for _ in 0..100 {
            nb.learn(&Instance::new(vec![1.0, 1.0], 0));
        }
        nb.reset();
        let s = nb.predict_scores(&[1.0, 1.0]);
        assert!((s[0] - 0.5).abs() < 1e-12);
        assert_eq!(nb.total_seen(), 0);
    }

    #[test]
    fn restore_rejects_wrong_length_class_counts() {
        use serde::Serialize;
        let mut nb = GaussianNaiveBayes::new(2, 3);
        nb.learn(&Instance::new(vec![1.0, 2.0], 2));
        let state = nb.snapshot_state().unwrap();
        let mut fresh = GaussianNaiveBayes::new(2, 3);
        assert!(fresh.restore_state(&state).is_ok());
        for counts in [vec![0u64, 1], vec![0u64, 0, 1, 0]] {
            let bad = crate::edited(&state, &["class_counts"], counts.serialize_value());
            assert!(fresh.restore_state(&bad).is_err(), "{counts:?} accepted");
        }
    }

    #[test]
    #[should_panic]
    fn class_out_of_range_rejected() {
        GaussianNaiveBayes::new(2, 2).learn(&Instance::new(vec![0.0, 0.0], 7));
    }
}
