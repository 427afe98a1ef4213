//! Synthetic data-stream generators.
//!
//! The paper's artificial benchmarks (Table I, bottom half) are produced by
//! four classical MOA generators — Agrawal, rotating Hyperplane, RandomRBF
//! and RandomTree — each instantiated with 5, 10 and 20 classes. This module
//! re-implements those generators natively, plus a Gaussian mixture
//! generator used by the real-world substitutes and the examples.
//!
//! All generators:
//!
//! * are seeded and fully deterministic (`restart` reproduces the exact
//!   sequence),
//! * produce roughly balanced classes by construction (multi-class label
//!   bands are calibrated on a pilot sample at construction time), so that
//!   the [`imbalance`](crate::imbalance) wrapper has full control over the
//!   class distribution via rejection sampling,
//! * expose a *concept parameter* (Agrawal function id, hyperplane weights,
//!   RBF centroid layout, tree shape) so the [`drift`](crate::drift)
//!   operators can switch or interpolate concepts.

mod agrawal;
mod hyperplane;
mod mixture;
mod random_tree;
mod rbf;

pub use agrawal::{AgrawalGenerator, NUM_AGRAWAL_FUNCTIONS};
pub use hyperplane::HyperplaneGenerator;
pub use mixture::{GaussianClass, GaussianMixtureGenerator};
pub use random_tree::RandomTreeGenerator;
pub use rbf::RandomRbfGenerator;

use rand::rngs::StdRng;
use rand::Rng;

/// Draws the features of one spherical-Gaussian instance: `m + z · spread`
/// per mean coordinate `m`, with `z` a Box–Muller standard normal from two
/// uniforms `u1`, `u2` drawn per feature.
///
/// With `keep == false` the same draws are consumed and nothing else is
/// done (no transcendental math, no allocation), so a class-first
/// generator can advance past an instance it would throw away with its RNG
/// in exactly the state building it would have left.
pub(crate) fn gaussian_features(
    rng: &mut StdRng,
    mean: &[f64],
    spread: f64,
    keep: bool,
) -> Vec<f64> {
    let mut features = if keep { Vec::with_capacity(mean.len()) } else { Vec::new() };
    for &m in mean {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        if keep {
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            features.push(m + z * spread);
        }
    }
    features
}

/// Calibrates `num_classes − 1` thresholds that split the empirical
/// distribution of `scores` into bands of (approximately) equal mass.
///
/// Used by score-based generators (Agrawal, Hyperplane) to turn a
/// continuous concept score into a roughly balanced multi-class label.
pub(crate) fn quantile_thresholds(scores: &mut [f64], num_classes: usize) -> Vec<f64> {
    assert!(num_classes >= 2);
    assert!(!scores.is_empty());
    scores.sort_by(|a, b| a.partial_cmp(b).expect("scores must not be NaN"));
    let n = scores.len();
    (1..num_classes)
        .map(|k| {
            let pos = (k * n) / num_classes;
            scores[pos.min(n - 1)]
        })
        .collect()
}

/// Maps a score to a class index given ascending `thresholds` (as produced
/// by [`quantile_thresholds`]).
pub(crate) fn class_from_score(score: f64, thresholds: &[f64]) -> usize {
    let mut class = 0usize;
    for &t in thresholds {
        if score > t {
            class += 1;
        } else {
            break;
        }
    }
    class
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{DataStream, StreamExt};

    #[test]
    fn quantile_thresholds_split_evenly() {
        let mut scores: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let t = quantile_thresholds(&mut scores, 4);
        assert_eq!(t.len(), 3);
        assert!((t[0] - 250.0).abs() <= 1.0);
        assert!((t[1] - 500.0).abs() <= 1.0);
        assert!((t[2] - 750.0).abs() <= 1.0);
    }

    #[test]
    fn class_from_score_respects_bands() {
        let thresholds = vec![1.0, 2.0, 3.0];
        assert_eq!(class_from_score(0.5, &thresholds), 0);
        assert_eq!(class_from_score(1.5, &thresholds), 1);
        assert_eq!(class_from_score(2.5, &thresholds), 2);
        assert_eq!(class_from_score(10.0, &thresholds), 3);
        // Boundary values stay in the lower band (score > t strictly).
        assert_eq!(class_from_score(1.0, &thresholds), 0);
    }

    /// Every generator should produce (a) the advertised schema, (b) a
    /// deterministic sequence under restart, and (c) a roughly balanced
    /// class distribution. This exercises all of them through one harness.
    fn check_generator(mut stream: Box<dyn DataStream + Send>, tolerance: f64) {
        let schema = stream.schema().clone();
        let sample = stream.take_instances(4000);
        assert_eq!(sample.len(), 4000);
        for inst in &sample {
            assert_eq!(inst.num_features(), schema.num_features, "{}", schema.name);
            assert!(inst.class < schema.num_classes, "{}", schema.name);
            assert!(inst.features.iter().all(|f| f.is_finite()), "{}", schema.name);
        }
        // Determinism.
        stream.restart();
        let again = stream.take_instances(100);
        assert_eq!(&sample[..100], &again[..], "{} must be deterministic", schema.name);
        // Rough balance.
        let mut counts = vec![0usize; schema.num_classes];
        for inst in &sample {
            counts[inst.class] += 1;
        }
        let expected = sample.len() as f64 / schema.num_classes as f64;
        for (c, &count) in counts.iter().enumerate() {
            assert!(
                (count as f64) > expected * tolerance,
                "{}: class {c} underrepresented ({count} / expected {expected})",
                schema.name
            );
        }
    }

    #[test]
    fn all_generators_satisfy_contract() {
        check_generator(Box::new(AgrawalGenerator::new(1, 5, 42)), 0.4);
        check_generator(Box::new(AgrawalGenerator::new(4, 10, 7)), 0.3);
        check_generator(Box::new(HyperplaneGenerator::new(20, 5, 0.001, 42)), 0.4);
        check_generator(Box::new(HyperplaneGenerator::new(40, 10, 0.0, 9)), 0.3);
        check_generator(Box::new(RandomRbfGenerator::new(20, 5, 3, 0.0, 42)), 0.5);
        check_generator(Box::new(RandomRbfGenerator::new(40, 10, 2, 0.001, 3)), 0.4);
        check_generator(Box::new(RandomTreeGenerator::new(20, 5, 4, 42)), 0.25);
        check_generator(Box::new(GaussianMixtureGenerator::balanced(8, 6, 2, 42)), 0.5);
    }
}
