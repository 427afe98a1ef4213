//! Adaptive Cost-Sensitive Perceptron Tree (CSPT).
//!
//! Re-implementation of the behaviourally relevant design of "Cost-sensitive
//! perceptron decision trees for imbalanced drifting data streams"
//! (Krawczyk & Skryjomski, ECML-PKDD 2017), the base classifier used by the
//! paper for every drift detector:
//!
//! * an incremental (Hoeffding-style) decision tree over numeric features;
//! * leaves maintain per-class Gaussian attribute summaries and split on the
//!   information-gain of candidate thresholds once a grace period has
//!   elapsed and the Hoeffding bound separates the best split from the
//!   runner-up;
//! * each leaf carries a **cost-sensitive perceptron** (see
//!   [`crate::perceptron`]) that produces the actual predictions, with
//!   misclassification costs derived from the inverse class frequencies
//!   observed at that leaf;
//! * the tree is *adaptive through its drift detector*: the harness calls
//!   [`OnlineClassifier::reset`] when the attached detector fires, which
//!   rebuilds the tree from scratch (the paper's subtree-replacement
//!   strategy reduced to its essential effect — discarding the outdated
//!   model when told to).

use crate::naive_bayes::GaussianNaiveBayes;
use crate::perceptron::CostSensitivePerceptron;
use crate::OnlineClassifier;
use rbm_im_streams::Instance;

/// Configuration of the perceptron tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsptConfig {
    /// Number of instances a leaf accumulates between split attempts.
    pub grace_period: u64,
    /// Maximum tree depth (root = 0). Limits memory on fast streams.
    pub max_depth: usize,
    /// Hoeffding-bound confidence parameter δ.
    pub split_confidence: f64,
    /// Tie threshold: if the gain advantage of the best split is below the
    /// Hoeffding bound but the bound itself is below this value, split
    /// anyway (standard Hoeffding-tree tie breaking).
    pub tie_threshold: f64,
    /// Learning rate of the leaf perceptrons.
    pub learning_rate: f64,
    /// Number of candidate thresholds evaluated per feature.
    pub candidate_thresholds: usize,
}

impl Default for CsptConfig {
    fn default() -> Self {
        CsptConfig {
            grace_period: 200,
            max_depth: 6,
            split_confidence: 1e-6,
            tie_threshold: 0.05,
            learning_rate: 0.05,
            candidate_thresholds: 8,
        }
    }
}

/// A leaf predicts with its naive Bayes model until it has learned this
/// many instances, and with its perceptron afterwards. The naive Bayes
/// model learns only during that window: nothing reads it later.
const COLD_LEAF_INSTANCES: u64 = 30;

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

    /// `std()·√2`, the scale of this class's Gaussian in
    /// [`AttributeObserver::fraction_below`]. A split attempt computes it
    /// once per feature and class, not once per candidate threshold.
    fn erf_scale(&self) -> f64 {
        self.std() * std::f64::consts::SQRT_2
    }

    /// Probability mass of this class's Gaussian falling below `threshold`
    /// (used to estimate the class distribution in each split branch);
    /// `scale` is [`AttributeObserver::erf_scale`].
    fn fraction_below(&self, threshold: f64, scale: f64) -> f64 {
        if self.count == 0 {
            return 0.5;
        }
        let z = (threshold - self.mean) / scale;
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
    perceptron: CostSensitivePerceptron,
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
            perceptron: CostSensitivePerceptron::new(
                num_features,
                num_classes,
                config.learning_rate,
            ),
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
    /// from the per-class Gaussian observers. `parent` is the entropy of
    /// the leaf's class counts and `scales[c]` class `c`'s
    /// [`AttributeObserver::erf_scale`] on `feature`; both are fixed for a
    /// whole split attempt, so [`Leaf::best_split`] computes them once.
    /// `left` / `right` are per-class scratch of the class count's length.
    fn split_gain(
        &self,
        feature: usize,
        threshold: f64,
        parent: f64,
        scales: &[f64],
        left: &mut [u64],
        right: &mut [u64],
    ) -> f64 {
        for (c, &n) in self.class_counts.iter().enumerate() {
            if n == 0 {
                left[c] = 0;
                right[c] = 0;
                continue;
            }
            let frac = self.observers[c][feature].fraction_below(threshold, scales[c]);
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
        let child = (n_left as f64 / total as f64) * Self::entropy(left)
            + (n_right as f64 / total as f64) * Self::entropy(right);
        parent - child
    }

    /// Best `(feature, threshold, gain)` plus the runner-up gain. One
    /// attempt scores `candidate_thresholds` thresholds on every feature;
    /// its per-class scratch is allocated once per attempt.
    fn best_split(&self, config: &CsptConfig) -> Option<(usize, f64, f64, f64)> {
        let num_classes = self.class_counts.len();
        let num_features = self.observers[0].len();
        let parent = Self::entropy(&self.class_counts);
        let mut scales = vec![0.0; num_classes];
        let mut left = vec![0u64; num_classes];
        let mut right = vec![0u64; num_classes];
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
            for (scale, observers) in scales.iter_mut().zip(&self.observers) {
                *scale = observers[feature].erf_scale();
            }
            for k in 1..=config.candidate_thresholds {
                let threshold =
                    lo + (hi - lo) * k as f64 / (config.candidate_thresholds + 1) as f64;
                let gain =
                    self.split_gain(feature, threshold, parent, &scales, &mut left, &mut right);
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

// ---- checkpoint encoding -------------------------------------------------
//
// The tree serializes recursively: a leaf is `{"leaf": {...}}` (perceptron
// and naive-Bayes state via their own `OnlineClassifier::snapshot_state`,
// plus the per-class attribute observers), a split is
// `{"feature", "threshold", "left", "right"}`.

fn observer_to_value(o: &AttributeObserver) -> serde::Value {
    use serde::{Serialize, Value};
    Value::object(vec![
        ("count", o.count.serialize_value()),
        ("mean", o.mean.serialize_value()),
        ("m2", o.m2.serialize_value()),
        ("min", o.min.serialize_value()),
        ("max", o.max.serialize_value()),
    ])
}

fn observer_from_value(value: &serde::Value) -> Result<AttributeObserver, serde::Error> {
    Ok(AttributeObserver {
        count: value.field("count")?,
        mean: value.field("mean")?,
        m2: value.field("m2")?,
        min: value.field("min")?,
        max: value.field("max")?,
    })
}

fn leaf_to_value(leaf: &Leaf) -> serde::Value {
    use serde::{Serialize, Value};
    let observers: Vec<Value> = leaf
        .observers
        .iter()
        .map(|per_class| Value::Array(per_class.iter().map(observer_to_value).collect()))
        .collect();
    Value::object(vec![
        (
            "perceptron",
            leaf.perceptron.snapshot_state().expect("perceptron supports checkpointing"),
        ),
        (
            "naive_bayes",
            leaf.naive_bayes.snapshot_state().expect("naive bayes supports checkpointing"),
        ),
        ("observers", Value::Array(observers)),
        ("class_counts", leaf.class_counts.serialize_value()),
        ("seen", leaf.seen.serialize_value()),
        ("seen_since_split_attempt", leaf.seen_since_split_attempt.serialize_value()),
        ("depth", leaf.depth.serialize_value()),
    ])
}

fn leaf_from_value(
    value: &serde::Value,
    num_features: usize,
    num_classes: usize,
    config: &CsptConfig,
) -> Result<Leaf, serde::Error> {
    let depth: usize = value.field("depth")?;
    let mut leaf = Leaf::new(num_features, num_classes, depth, config);
    leaf.perceptron.restore_state(value.req("perceptron")?)?;
    leaf.naive_bayes.restore_state(value.req("naive_bayes")?)?;
    let serde::Value::Array(per_class_values) = value.req("observers")? else {
        return Err(serde::Error::msg("leaf `observers` must be an array"));
    };
    if per_class_values.len() != num_classes {
        return Err(serde::Error::msg("leaf observer class count mismatch"));
    }
    let mut observers = Vec::with_capacity(num_classes);
    for per_class in per_class_values {
        let serde::Value::Array(features) = per_class else {
            return Err(serde::Error::msg("leaf per-class observers must be an array"));
        };
        if features.len() != num_features {
            return Err(serde::Error::msg("leaf observer feature count mismatch"));
        }
        observers.push(
            features.iter().map(observer_from_value).collect::<Result<Vec<_>, serde::Error>>()?,
        );
    }
    leaf.observers = observers;
    let class_counts: Vec<u64> = value.field("class_counts")?;
    if class_counts.len() != num_classes {
        // Split scoring indexes the observers by class-count position.
        return Err(serde::Error::msg(format!(
            "leaf `class_counts` has {} classes, expected {num_classes}",
            class_counts.len()
        )));
    }
    leaf.class_counts = class_counts;
    leaf.seen = value.field("seen")?;
    leaf.seen_since_split_attempt = value.field("seen_since_split_attempt")?;
    Ok(leaf)
}

fn node_to_value(node: &Node) -> serde::Value {
    use serde::{Serialize, Value};
    match node {
        Node::Leaf(leaf) => Value::object(vec![("leaf", leaf_to_value(leaf))]),
        Node::Split { feature, threshold, left, right } => Value::object(vec![
            ("feature", feature.serialize_value()),
            ("threshold", threshold.serialize_value()),
            ("left", node_to_value(left)),
            ("right", node_to_value(right)),
        ]),
    }
}

fn node_from_value(
    value: &serde::Value,
    num_features: usize,
    num_classes: usize,
    config: &CsptConfig,
) -> Result<Node, serde::Error> {
    if let Some(leaf) = value.get("leaf") {
        return Ok(Node::Leaf(Box::new(leaf_from_value(leaf, num_features, num_classes, config)?)));
    }
    let feature: usize = value.field("feature")?;
    if feature >= num_features {
        // A corrupt snapshot must fail here, not panic at predict time
        // when `find_leaf` indexes the feature vector.
        return Err(serde::Error::msg(format!(
            "split feature index {feature} out of range for {num_features} features"
        )));
    }
    Ok(Node::Split {
        feature,
        threshold: value.field("threshold")?,
        left: Box::new(node_from_value(value.req("left")?, num_features, num_classes, config)?),
        right: Box::new(node_from_value(value.req("right")?, num_features, num_classes, config)?),
    })
}

/// The Adaptive Cost-Sensitive Perceptron Tree.
#[derive(Debug, Clone)]
pub struct CostSensitivePerceptronTree {
    num_features: usize,
    num_classes: usize,
    config: CsptConfig,
    root: Node,
    instances_seen: u64,
    n_splits: u64,
    n_resets: u64,
    /// Class-score scratch of the leaf perceptrons' `learn`, shared by the
    /// whole tree so no leaf carries a buffer of its own.
    scores: Vec<f64>,
}

impl CostSensitivePerceptronTree {
    /// Creates an untrained tree with the default configuration.
    pub fn new(num_features: usize, num_classes: usize) -> Self {
        Self::with_config(num_features, num_classes, CsptConfig::default())
    }

    /// Creates an untrained tree with an explicit configuration.
    pub fn with_config(num_features: usize, num_classes: usize, config: CsptConfig) -> Self {
        assert!(num_features > 0);
        assert!(num_classes >= 2);
        CostSensitivePerceptronTree {
            num_features,
            num_classes,
            config,
            root: Node::Leaf(Box::new(Leaf::new(num_features, num_classes, 0, &config))),
            instances_seen: 0,
            n_splits: 0,
            n_resets: 0,
            scores: Vec::with_capacity(num_classes),
        }
    }

    /// Number of split nodes created so far.
    pub fn split_count(&self) -> u64 {
        self.n_splits
    }

    /// Number of times the tree has been reset (drift adaptations).
    pub fn reset_count(&self) -> u64 {
        self.n_resets
    }

    /// Total instances learned.
    pub fn instances_seen(&self) -> u64 {
        self.instances_seen
    }

    /// Depth of the current tree.
    pub fn depth(&self) -> usize {
        fn depth_of(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 0,
                Node::Split { left, right, .. } => 1 + depth_of(left).max(depth_of(right)),
            }
        }
        depth_of(&self.root)
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
        scores: &mut Vec<f64>,
    ) {
        match node {
            Node::Split { feature, threshold, left, right } => {
                let child = if instance.features[*feature] <= *threshold { left } else { right };
                Self::learn_recursive(
                    child,
                    instance,
                    num_features,
                    num_classes,
                    config,
                    n_splits,
                    scores,
                );
            }
            Node::Leaf(leaf) => {
                leaf.perceptron.learn_with(instance, scores);
                if leaf.seen < COLD_LEAF_INSTANCES {
                    leaf.naive_bayes.learn(instance);
                }
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
}

impl OnlineClassifier for CostSensitivePerceptronTree {
    fn predict_scores(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_scores_into(features, &mut out);
        out
    }

    fn predict_scores_into(&self, features: &[f64], out: &mut Vec<f64>) {
        assert_eq!(features.len(), self.num_features, "feature count mismatch");
        let leaf = Self::find_leaf(&self.root, features);
        // Cold leaves (right after a split or a reset) fall back to their
        // naive Bayes model, which is usable from the first instance.
        if leaf.seen < COLD_LEAF_INSTANCES {
            leaf.naive_bayes.predict_scores_into(features, out)
        } else {
            leaf.perceptron.predict_scores_into(features, out)
        }
    }

    fn learn(&mut self, instance: &Instance) {
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
            &mut self.scores,
        );
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn reset(&mut self) {
        self.root =
            Node::Leaf(Box::new(Leaf::new(self.num_features, self.num_classes, 0, &self.config)));
        self.n_resets += 1;
    }

    fn snapshot_state(&self) -> Option<serde::Value> {
        use serde::{Serialize, Value};
        Some(Value::object(vec![
            ("num_features", self.num_features.serialize_value()),
            ("num_classes", self.num_classes.serialize_value()),
            ("root", node_to_value(&self.root)),
            ("instances_seen", self.instances_seen.serialize_value()),
            ("n_splits", self.n_splits.serialize_value()),
            ("n_resets", self.n_resets.serialize_value()),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_features: usize = state.field("num_features")?;
        let num_classes: usize = state.field("num_classes")?;
        if num_features != self.num_features || num_classes != self.num_classes {
            return Err(serde::Error::msg(format!(
                "perceptron tree shape mismatch: snapshot is {num_features}×{num_classes}, model \
                 is {}×{}",
                self.num_features, self.num_classes
            )));
        }
        self.root =
            node_from_value(state.req("root")?, self.num_features, self.num_classes, &self.config)?;
        self.instances_seen = state.field("instances_seen")?;
        self.n_splits = state.field("n_splits")?;
        self.n_resets = state.field("n_resets")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::argmax;
    use rbm_im_streams::generators::{GaussianMixtureGenerator, RandomRbfGenerator};
    use rbm_im_streams::imbalance::{ImbalanceProfile, ImbalancedStream};
    use rbm_im_streams::StreamExt;

    fn prequential_accuracy(classifier: &mut dyn OnlineClassifier, instances: &[Instance]) -> f64 {
        let mut correct = 0usize;
        for inst in instances {
            if classifier.predict(&inst.features) == inst.class {
                correct += 1;
            }
            classifier.learn(inst);
        }
        correct as f64 / instances.len() as f64
    }

    #[test]
    fn learns_mixture_stream_better_than_chance() {
        let mut stream = GaussianMixtureGenerator::balanced(8, 5, 2, 5);
        let data = stream.take_instances(6000);
        let mut tree = CostSensitivePerceptronTree::new(8, 5);
        let acc = prequential_accuracy(&mut tree, &data);
        assert!(acc > 0.5, "prequential accuracy {acc} (chance = 0.2)");
        assert_eq!(tree.instances_seen(), 6000);
    }

    #[test]
    fn splits_happen_on_structured_data() {
        let mut stream = RandomRbfGenerator::new(6, 4, 2, 0.0, 13);
        let data = stream.take_instances(8000);
        let mut tree = CostSensitivePerceptronTree::new(6, 4);
        for inst in &data {
            tree.learn(inst);
        }
        assert!(tree.split_count() > 0, "tree should have grown at least one split");
        assert!(tree.depth() >= 1);
        assert!(tree.depth() <= CsptConfig::default().max_depth);
    }

    #[test]
    fn respects_max_depth() {
        let config = CsptConfig { max_depth: 1, grace_period: 50, ..Default::default() };
        let mut stream = RandomRbfGenerator::new(5, 3, 2, 0.0, 13);
        let data = stream.take_instances(5000);
        let mut tree = CostSensitivePerceptronTree::with_config(5, 3, config);
        for inst in &data {
            tree.learn(inst);
        }
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn handles_imbalanced_stream_without_collapsing_to_majority() {
        let base = GaussianMixtureGenerator::balanced(6, 3, 1, 21);
        let profile = ImbalanceProfile::Static(vec![50.0, 5.0, 1.0]);
        let mut stream = ImbalancedStream::new(base, profile, 3);
        let data = stream.take_instances(8000);
        let mut tree = CostSensitivePerceptronTree::new(6, 3);
        // Prequential pass.
        let mut minority_correct = 0usize;
        let mut minority_total = 0usize;
        for inst in &data {
            let pred = tree.predict(&inst.features);
            if inst.class == 2 {
                minority_total += 1;
                if pred == 2 {
                    minority_correct += 1;
                }
            }
            tree.learn(inst);
        }
        assert!(minority_total > 20, "stream should contain minority instances");
        let recall = minority_correct as f64 / minority_total as f64;
        assert!(recall > 0.2, "minority recall should be well above zero, got {recall}");
    }

    #[test]
    fn reset_discards_learned_structure() {
        let mut stream = GaussianMixtureGenerator::balanced(5, 3, 1, 2);
        let data = stream.take_instances(4000);
        let mut tree = CostSensitivePerceptronTree::new(5, 3);
        for inst in &data {
            tree.learn(inst);
        }
        tree.reset();
        assert_eq!(tree.reset_count(), 1);
        assert_eq!(tree.depth(), 0);
        // After a reset predictions come from an untrained leaf (uniform-ish).
        let scores = tree.predict_scores(&data[0].features);
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        let min = scores.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 0.2, "fresh tree should be close to uniform, got {scores:?}");
    }

    #[test]
    fn adaptation_after_drift_improves_over_frozen_model() {
        // Train on one concept, then switch concepts: a tree that is reset at
        // the drift recovers faster than one that never adapts.
        let mut concept_a = RandomRbfGenerator::new(6, 4, 2, 0.0, 100);
        let mut concept_b = RandomRbfGenerator::new(6, 4, 2, 0.0, 200);
        let before = concept_a.take_instances(4000);
        let after = concept_b.take_instances(4000);

        let mut frozen = CostSensitivePerceptronTree::new(6, 4);
        let mut adaptive = CostSensitivePerceptronTree::new(6, 4);
        for inst in &before {
            frozen.learn(inst);
            adaptive.learn(inst);
        }
        adaptive.reset(); // simulated perfect drift signal
        let acc_frozen = prequential_accuracy(&mut frozen, &after);
        let acc_adaptive = prequential_accuracy(&mut adaptive, &after);
        assert!(
            acc_adaptive > acc_frozen - 0.02,
            "adaptive {acc_adaptive} should not trail frozen {acc_frozen}"
        );
    }

    #[test]
    fn scores_are_probability_vectors() {
        let mut tree = CostSensitivePerceptronTree::new(4, 6);
        tree.learn(&Instance::new(vec![0.1, 0.2, 0.3, 0.4], 2));
        let s = tree.predict_scores(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(s.len(), 6);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn wrong_feature_count_rejected() {
        CostSensitivePerceptronTree::new(3, 2).predict_scores(&[1.0]);
    }

    #[test]
    fn restore_rejects_leaf_class_counts_of_the_wrong_length() {
        use serde::Serialize;
        let mut tree = CostSensitivePerceptronTree::new(3, 2);
        tree.learn(&Instance::new(vec![0.1, 0.2, 0.3], 1));
        let state = tree.snapshot_state().unwrap();
        let mut fresh = CostSensitivePerceptronTree::new(3, 2);
        assert!(fresh.restore_state(&state).is_ok());
        for counts in [vec![0u64, 1, 0], vec![1u64]] {
            let bad =
                crate::edited(&state, &["root", "leaf", "class_counts"], counts.serialize_value());
            assert!(fresh.restore_state(&bad).is_err(), "{counts:?} accepted");
        }
    }

    /// Every split node's `(feature, threshold)`, in pre-order.
    fn splits(tree: &CostSensitivePerceptronTree) -> Vec<(usize, u64)> {
        fn walk(node: &Node, out: &mut Vec<(usize, u64)>) {
            if let Node::Split { feature, threshold, left, right } = node {
                out.push((*feature, threshold.to_bits()));
                walk(left, out);
                walk(right, out);
            }
        }
        let mut out = Vec::new();
        walk(&tree.root, &mut out);
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A random stream with structure a tree can split on: each feature is
    /// uniform at a random scale (1e-3 to 1e3), constant (the zero-variance
    /// divisor path) or quantized to three levels (tied thresholds); the
    /// class is mostly a skewed bucket of one uniform feature, otherwise
    /// noise.
    fn random_stream(
        rng: &mut proptest::TestRng,
        num_features: usize,
        num_classes: usize,
        length: usize,
    ) -> Vec<Instance> {
        let kinds: Vec<u64> = (0..num_features).map(|_| rng.below(3)).collect();
        let scales: Vec<f64> =
            (0..num_features).map(|_| 10f64.powi(rng.below(7) as i32 - 3)).collect();
        let offsets: Vec<f64> = (0..num_features).map(|_| rng.unit_f64() * 4.0 - 2.0).collect();
        let key = rng.below(num_features as u64) as usize;
        (0..length)
            .map(|_| {
                let mut bucket = rng.below(num_classes as u64) as usize;
                let features = (0..num_features)
                    .map(|i| match kinds[i] {
                        0 | 1 if i == key => {
                            let u = rng.unit_f64();
                            if rng.below(5) > 0 {
                                bucket =
                                    ((u * u * num_classes as f64) as usize).min(num_classes - 1);
                            }
                            u * scales[i] + offsets[i]
                        }
                        0 => rng.unit_f64() * scales[i] + offsets[i],
                        1 => offsets[i],
                        _ => rng.below(3) as f64 * scales[i],
                    })
                    .collect();
                Instance::new(features, bucket)
            })
            .collect()
    }

    /// Snapshot → RBMC bytes → a freshly built tree.
    fn rbmc_round_trip(tree: &CostSensitivePerceptronTree) -> CostSensitivePerceptronTree {
        use rbm_im_harness::checkpoint::codec::{decode_value, encode_value};
        let bytes = encode_value(&tree.snapshot_state().unwrap());
        let mut resumed = CostSensitivePerceptronTree::with_config(
            tree.num_features,
            tree.num_classes,
            tree.config,
        );
        resumed.restore_state(&decode_value(&bytes).unwrap()).unwrap();
        resumed
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The tree against the retained original on random streams of 1–40
        /// features and 2–10 classes with random grace periods, depths and
        /// candidate counts, with resets and RBMC round trips mixed in:
        /// identical score bits and predictions on every instance, and the
        /// same splits (feature, threshold bits) and split count throughout.
        #[test]
        fn tree_matches_the_original_bitwise(
            shape in (1usize..41, 2usize..11, 200usize..1500, 0u64..u64::MAX),
            tree_shape in (10u64..80, 1usize..7, 1usize..11)
        ) {
            let (num_features, num_classes, length, seed) = shape;
            let (grace_period, max_depth, candidate_thresholds) = tree_shape;
            let mut rng = proptest::TestRng::seed(seed);
            let config =
                CsptConfig { grace_period, max_depth, candidate_thresholds, ..Default::default() };
            let mut tree = CostSensitivePerceptronTree::with_config(num_features, num_classes, config);
            let mut reference =
                crate::reference::ReferenceTree::with_config(num_features, num_classes, config);
            let (mut scores, mut reference_scores) = (Vec::new(), Vec::new());
            for (n, instance) in random_stream(&mut rng, num_features, num_classes, length)
                .iter()
                .enumerate()
            {
                match rng.below(1000) {
                    0..=1 => {
                        tree.reset();
                        reference.reset();
                    }
                    2..=5 => tree = rbmc_round_trip(&tree),
                    _ => {}
                }
                tree.predict_scores_into(&instance.features, &mut scores);
                reference.predict_scores_into(&instance.features, &mut reference_scores);
                proptest::prop_assert_eq!(bits(&scores), bits(&reference_scores), "instance {}", n);
                proptest::prop_assert_eq!(argmax(&scores), argmax(&reference_scores));
                let before = tree.split_count();
                tree.learn(instance);
                reference.learn(instance);
                proptest::prop_assert_eq!(tree.split_count(), reference.split_count());
                if tree.split_count() != before {
                    let expected: Vec<(usize, u64)> =
                        reference.splits().iter().map(|&(f, t)| (f, t.to_bits())).collect();
                    proptest::prop_assert_eq!(splits(&tree), expected, "instance {}", n);
                }
            }
        }
    }
}
