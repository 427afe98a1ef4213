//! The original perceptron tree and cost-sensitive perceptron, the ground
//! truth the optimized [`crate::cspt`] and [`crate::perceptron`] are
//! tested against.
//!
//! This is the code as it stood before split attempts computed their
//! per-attempt invariants once and the perceptron cached its divisors,
//! kept verbatim modulo naming and visibility: per-candidate parent
//! entropy, `std()` and branch-count vectors; a freshly allocated
//! standardized vector per prediction and two per `learn`; and a leaf
//! naive Bayes that learns every instance. Checkpointing is left out. The
//! equivalence tests in `cspt.rs` assert identical score bits,
//! predictions and splits. It is compiled only into the crate's unit
//! tests.

use crate::cspt::CsptConfig;
use crate::naive_bayes::GaussianNaiveBayes;
use crate::{argmax, softmax_in_place, OnlineClassifier};
use rbm_im_streams::Instance;

/// The original cost-sensitive perceptron.
#[derive(Debug, Clone)]
pub struct ReferencePerceptron {
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
}

impl ReferencePerceptron {
    /// Creates an untrained perceptron.
    pub fn new(num_features: usize, num_classes: usize, learning_rate: f64) -> Self {
        assert!(num_features > 0);
        assert!(num_classes >= 2);
        assert!(learning_rate > 0.0);
        ReferencePerceptron {
            num_features,
            num_classes,
            learning_rate,
            weights: vec![vec![0.0; num_features]; num_classes],
            biases: vec![0.0; num_classes],
            class_counts: vec![0; num_classes],
            total_seen: 0,
            feature_means: vec![0.0; num_features],
            feature_m2: vec![0.0; num_features],
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

    fn standardize(&self, features: &[f64]) -> Vec<f64> {
        features
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if self.total_seen < 2 {
                    return x;
                }
                let var = self.feature_m2[i] / (self.total_seen - 1) as f64;
                if var <= 1e-12 {
                    x - self.feature_means[i]
                } else {
                    (x - self.feature_means[i]) / var.sqrt()
                }
            })
            .collect()
    }

    fn update_feature_stats(&mut self, features: &[f64]) {
        self.total_seen += 1;
        for (i, &x) in features.iter().enumerate() {
            let delta = x - self.feature_means[i];
            self.feature_means[i] += delta / self.total_seen as f64;
            self.feature_m2[i] += delta * (x - self.feature_means[i]);
        }
    }

    fn raw_score(&self, class: usize, standardized: &[f64]) -> f64 {
        self.biases[class]
            + self.weights[class].iter().zip(standardized.iter()).map(|(w, x)| w * x).sum::<f64>()
    }

    fn raw_scores(&self, standardized: &[f64]) -> Vec<f64> {
        (0..self.num_classes).map(|c| self.raw_score(c, standardized)).collect()
    }

    pub fn predict_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(features.len(), self.num_features, "feature count mismatch");
        let standardized = self.standardize(features);
        out.clear();
        out.extend((0..self.num_classes).map(|c| self.raw_score(c, &standardized)));
        softmax_in_place(out);
    }

    pub fn learn(&mut self, instance: &Instance) {
        assert_eq!(instance.features.len(), self.num_features, "feature count mismatch");
        assert!(instance.class < self.num_classes, "class out of range");
        self.update_feature_stats(&instance.features);
        self.class_counts[instance.class] += 1;

        let x = self.standardize(&instance.features);
        let scores = self.raw_scores(&x);
        let predicted = argmax(&scores);
        if predicted != instance.class {
            let eta = self.learning_rate * self.class_cost(instance.class);
            for (w, xi) in self.weights[instance.class].iter_mut().zip(x.iter()) {
                *w += eta * xi;
            }
            self.biases[instance.class] += eta;
            for (w, xi) in self.weights[predicted].iter_mut().zip(x.iter()) {
                *w -= eta * xi;
            }
            self.biases[predicted] -= eta;
        }
    }
}

/// Per-class Gaussian summary of one feature at a leaf.
#[derive(Debug, Clone, Default)]
struct AttributeObserver {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl AttributeObserver {
    fn update(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn std(&self) -> f64 {
        if self.count < 2 {
            1e-3
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt().max(1e-6)
        }
    }

    /// Probability mass of this class's Gaussian falling below `threshold`
    /// (used to estimate the class distribution in each split branch).
    fn fraction_below(&self, threshold: f64) -> f64 {
        if self.count == 0 {
            return 0.5;
        }
        let z = (threshold - self.mean) / (self.std() * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf_approx(z))
    }
}

/// Abramowitz–Stegun erf approximation (sufficient for split scoring; the
/// exact special function lives in `rbm-im-stats`, which this crate does not
/// need to depend on for just this heuristic).
fn erf_approx(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// A leaf of the perceptron tree.
#[derive(Debug, Clone)]
struct Leaf {
    perceptron: ReferencePerceptron,
    /// Naive Bayes fallback for the cold-start phase of a fresh leaf.
    naive_bayes: GaussianNaiveBayes,
    /// `observers[class][feature]` Gaussian summaries for split scoring.
    observers: Vec<Vec<AttributeObserver>>,
    class_counts: Vec<u64>,
    seen: u64,
    seen_since_split_attempt: u64,
    depth: usize,
}

impl Leaf {
    fn new(num_features: usize, num_classes: usize, depth: usize, config: &CsptConfig) -> Self {
        Leaf {
            perceptron: ReferencePerceptron::new(num_features, num_classes, config.learning_rate),
            naive_bayes: GaussianNaiveBayes::new(num_features, num_classes),
            observers: vec![vec![AttributeObserver::default(); num_features]; num_classes],
            class_counts: vec![0; num_classes],
            seen: 0,
            seen_since_split_attempt: 0,
            depth,
        }
    }

    fn entropy(counts: &[u64]) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in counts {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Information gain of splitting at `threshold` on `feature`, estimated
    /// from the per-class Gaussian observers.
    fn split_gain(&self, feature: usize, threshold: f64) -> f64 {
        let num_classes = self.class_counts.len();
        let mut left = vec![0u64; num_classes];
        let mut right = vec![0u64; num_classes];
        for c in 0..num_classes {
            let n = self.class_counts[c];
            if n == 0 {
                continue;
            }
            let frac = self.observers[c][feature].fraction_below(threshold);
            let l = (frac * n as f64).round() as u64;
            left[c] = l.min(n);
            right[c] = n - left[c];
        }
        let n_left: u64 = left.iter().sum();
        let n_right: u64 = right.iter().sum();
        let total = n_left + n_right;
        if total == 0 || n_left == 0 || n_right == 0 {
            return 0.0;
        }
        let parent = Self::entropy(&self.class_counts);
        let child = (n_left as f64 / total as f64) * Self::entropy(&left)
            + (n_right as f64 / total as f64) * Self::entropy(&right);
        parent - child
    }

    /// Best `(feature, threshold, gain)` plus the runner-up gain.
    fn best_split(&self, config: &CsptConfig) -> Option<(usize, f64, f64, f64)> {
        let num_features = self.observers[0].len();
        let mut best: Option<(usize, f64, f64)> = None;
        let mut second_gain = 0.0;
        for feature in 0..num_features {
            // Candidate thresholds span the observed range of the feature.
            let (lo, hi) = self
                .observers
                .iter()
                .filter(|o| o[feature].count > 0)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), o| {
                    (lo.min(o[feature].min), hi.max(o[feature].max))
                });
            if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-9 {
                continue;
            }
            for k in 1..=config.candidate_thresholds {
                let threshold =
                    lo + (hi - lo) * k as f64 / (config.candidate_thresholds + 1) as f64;
                let gain = self.split_gain(feature, threshold);
                match best {
                    Some((_, _, g)) if gain <= g => {
                        if gain > second_gain {
                            second_gain = gain;
                        }
                    }
                    _ => {
                        if let Some((_, _, g)) = best {
                            second_gain = g;
                        }
                        best = Some((feature, threshold, gain));
                    }
                }
            }
        }
        best.map(|(f, t, g)| (f, t, g, second_gain))
    }
}

/// A tree node.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Box<Leaf>),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// The original perceptron tree (checkpointing left out: the reference
/// runs uninterrupted).
#[derive(Debug, Clone)]
pub struct ReferenceTree {
    num_features: usize,
    num_classes: usize,
    config: CsptConfig,
    root: Node,
    instances_seen: u64,
    n_splits: u64,
    n_resets: u64,
}

impl ReferenceTree {
    /// Creates an untrained tree with an explicit configuration.
    pub fn with_config(num_features: usize, num_classes: usize, config: CsptConfig) -> Self {
        ReferenceTree {
            num_features,
            num_classes,
            config,
            root: Node::Leaf(Box::new(Leaf::new(num_features, num_classes, 0, &config))),
            instances_seen: 0,
            n_splits: 0,
            n_resets: 0,
        }
    }

    /// Number of split nodes created so far.
    pub fn split_count(&self) -> u64 {
        self.n_splits
    }

    /// Every split node's `(feature, threshold)`, in pre-order.
    pub fn splits(&self) -> Vec<(usize, f64)> {
        fn walk(node: &Node, out: &mut Vec<(usize, f64)>) {
            if let Node::Split { feature, threshold, left, right } = node {
                out.push((*feature, *threshold));
                walk(left, out);
                walk(right, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    fn find_leaf<'a>(node: &'a Node, features: &[f64]) -> &'a Leaf {
        match node {
            Node::Leaf(leaf) => leaf,
            Node::Split { feature, threshold, left, right } => {
                if features[*feature] <= *threshold {
                    Self::find_leaf(left, features)
                } else {
                    Self::find_leaf(right, features)
                }
            }
        }
    }

    fn learn_recursive(
        node: &mut Node,
        instance: &Instance,
        num_features: usize,
        num_classes: usize,
        config: &CsptConfig,
        n_splits: &mut u64,
    ) {
        match node {
            Node::Split { feature, threshold, left, right } => {
                let child = if instance.features[*feature] <= *threshold { left } else { right };
                Self::learn_recursive(child, instance, num_features, num_classes, config, n_splits);
            }
            Node::Leaf(leaf) => {
                leaf.perceptron.learn(instance);
                leaf.naive_bayes.learn(instance);
                leaf.class_counts[instance.class] += 1;
                for (f, obs) in
                    instance.features.iter().zip(leaf.observers[instance.class].iter_mut())
                {
                    obs.update(*f);
                }
                leaf.seen += 1;
                leaf.seen_since_split_attempt += 1;

                if leaf.seen_since_split_attempt >= config.grace_period
                    && leaf.depth < config.max_depth
                {
                    leaf.seen_since_split_attempt = 0;
                    // Only consider splitting once at least two classes are
                    // present — otherwise the leaf is already pure.
                    let present = leaf.class_counts.iter().filter(|&&c| c > 0).count();
                    if present < 2 {
                        return;
                    }
                    if let Some((feature, threshold, gain, second)) = leaf.best_split(config) {
                        // Hoeffding bound over the information-gain range
                        // log2(num_classes).
                        let range = (num_classes as f64).log2();
                        let epsilon = (range * range * (1.0 / config.split_confidence).ln()
                            / (2.0 * leaf.seen as f64))
                            .sqrt();
                        let advantage = gain - second;
                        if gain > 1e-3 && (advantage > epsilon || epsilon < config.tie_threshold) {
                            let depth = leaf.depth;
                            let left = Node::Leaf(Box::new(Leaf::new(
                                num_features,
                                num_classes,
                                depth + 1,
                                config,
                            )));
                            let right = Node::Leaf(Box::new(Leaf::new(
                                num_features,
                                num_classes,
                                depth + 1,
                                config,
                            )));
                            *n_splits += 1;
                            *node = Node::Split {
                                feature,
                                threshold,
                                left: Box::new(left),
                                right: Box::new(right),
                            };
                        }
                    }
                }
            }
        }
    }

    pub fn predict_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(features.len(), self.num_features, "feature count mismatch");
        let leaf = Self::find_leaf(&self.root, features);
        // Cold leaves (right after a split or a reset) fall back to their
        // naive Bayes model, which is usable from the first instance.
        if leaf.seen < 30 {
            leaf.naive_bayes.predict_scores_into(features, out)
        } else {
            leaf.perceptron.predict_scores_into(features, out)
        }
    }

    pub fn learn(&mut self, instance: &Instance) {
        assert_eq!(instance.features.len(), self.num_features, "feature count mismatch");
        assert!(instance.class < self.num_classes, "class out of range");
        self.instances_seen += 1;
        let config = self.config;
        Self::learn_recursive(
            &mut self.root,
            instance,
            self.num_features,
            self.num_classes,
            &config,
            &mut self.n_splits,
        );
    }

    pub fn reset(&mut self) {
        self.root =
            Node::Leaf(Box::new(Leaf::new(self.num_features, self.num_classes, 0, &self.config)));
        self.n_resets += 1;
    }
}
