//! Windowed multi-class AUC (the "pmAUC" of the paper).
//!
//! Following Wang & Minku (2020), the prequential multi-class AUC keeps a
//! sliding window of the most recent `(score vector, true class)` pairs and
//! computes the Hand & Till M-measure over the window: the average, over all
//! ordered class pairs `(i, j)`, of the probability that a random window
//! instance of class `i` receives a higher class-`i` score than a random
//! window instance of class `j` (ties count one half).
//!
//! The window makes the metric *prequential* (it follows the current state
//! of the stream) and the pairwise averaging makes it insensitive to class
//! imbalance — the property the paper's evaluation depends on.

/// Sliding-window multi-class AUC estimator.
///
/// The window is a flat ring: one row of `num_classes` scores per
/// prediction plus the prediction's true class (as a `u32`: the class
/// count is checked to fit once, at construction), so [`record`] copies
/// into preallocated storage and never touches the allocator once the
/// window is full.
///
/// [`record`]: WindowedMultiClassAuc::record
#[derive(Debug, Clone)]
pub struct WindowedMultiClassAuc {
    num_classes: usize,
    capacity: usize,
    /// Row-major score ring: row `r` holds the per-class scores of the
    /// prediction whose true class is `classes[r]`.
    scores: Vec<f64>,
    /// True class of each ring row.
    classes: Vec<u32>,
    /// Ring row of the oldest prediction (0 until the window wraps).
    head: usize,
    /// Number of predictions of each class in the window.
    class_counts: Vec<u64>,
}

impl WindowedMultiClassAuc {
    /// Creates an estimator over `num_classes` classes with a window of
    /// `capacity` recent predictions (the paper uses 1000).
    ///
    /// # Panics
    /// Panics if `num_classes < 2`, `num_classes` exceeds `u32::MAX` or
    /// `capacity == 0`.
    pub fn new(num_classes: usize, capacity: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        assert!(u32::try_from(num_classes).is_ok(), "class count must fit in a u32");
        assert!(capacity > 0, "window capacity must be > 0");
        WindowedMultiClassAuc {
            num_classes,
            capacity,
            scores: Vec::with_capacity(capacity * num_classes),
            classes: Vec::with_capacity(capacity),
            head: 0,
            class_counts: vec![0; num_classes],
        }
    }

    /// Adds one prediction (per-class scores and the true class).
    ///
    /// # Panics
    /// Panics if `scores.len() != num_classes` or `true_class` is out of
    /// range.
    pub fn record(&mut self, scores: &[f64], true_class: usize) {
        assert_eq!(scores.len(), self.num_classes, "score vector length mismatch");
        assert!(true_class < self.num_classes, "true class out of range");
        // Lossless: `true_class < num_classes`, which fits in a u32.
        let label = true_class as u32;
        if self.classes.len() < self.capacity {
            self.scores.extend_from_slice(scores);
            self.classes.push(label);
        } else {
            let row = self.head;
            self.class_counts[self.classes[row] as usize] -= 1;
            self.scores[row * self.num_classes..(row + 1) * self.num_classes]
                .copy_from_slice(scores);
            self.classes[row] = label;
            self.head = if row + 1 == self.capacity { 0 } else { row + 1 };
        }
        self.class_counts[true_class] += 1;
    }

    /// Number of predictions currently in the window.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The multi-class AUC over the current window: the mean of
    /// `A(i | j)` over all ordered pairs of classes present in the window,
    /// taken in `(i, j)` order. Returns 0.5 (chance level) if fewer than two
    /// classes are present.
    ///
    /// `A(i | j) = U_ij / (n_i · n_j)`, where `U_ij` counts the (class-`i`,
    /// class-`j`) instance pairs in which the class-`i` instance scores
    /// higher on class `i`, ties counting one half. One sort of the
    /// window's class-`i` score column yields `2·U_ij` for every `j` at
    /// once: walking the tie groups upwards, each class-`i` instance in a
    /// group adds 2 per class-`j` instance strictly below the group and 1
    /// per class-`j` instance inside it. The counts are exact integers, so
    /// the result is bitwise equal to the Mann–Whitney rank-sum form
    /// (whose midrank sums are exact multiples of ½), at O(C·W log W) per
    /// call instead of O(C²·W log W).
    ///
    /// # Panics
    /// Panics if two or more classes are present and the score column of a
    /// present class holds a NaN.
    pub fn auc(&self) -> f64 {
        let c = self.num_classes;
        if self.class_counts.iter().filter(|&&n| n > 0).count() < 2 {
            return 0.5;
        }
        let mut column: Vec<(f64, usize)> = Vec::with_capacity(self.len());
        let mut below = vec![0u64; c];
        let mut tied = vec![0u64; c];
        let mut twice_u = vec![0u64; c];
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..c {
            let n_i = self.class_counts[i];
            if n_i == 0 {
                continue;
            }
            column.clear();
            column.extend(
                self.scores[i..]
                    .iter()
                    .step_by(c)
                    .copied()
                    .zip(self.classes.iter().map(|&class| class as usize)),
            );
            assert!(column.iter().all(|(s, _)| !s.is_nan()), "scores must not be NaN");
            // `total_cmp` orders -0.0 just below +0.0; the `==` group walk
            // below still treats them as one tie group.
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            below.fill(0);
            twice_u.fill(0);
            let mut start = 0;
            while start < column.len() {
                let value = column[start].0;
                let mut end = start + 1;
                while end < column.len() && column[end].0 == value {
                    end += 1;
                }
                let group = &column[start..end];
                for &(_, class) in group {
                    tied[class] += 1;
                }
                // In half-points: each class-i instance in the group scores
                // 2 against every class-j instance below it and 1 against
                // every class-j instance tied with it.
                let tied_i = tied[i];
                if tied_i > 0 {
                    for ((u, &b), &t) in twice_u.iter_mut().zip(&below).zip(&tied) {
                        *u += tied_i * (2 * b + t);
                    }
                }
                for &(_, class) in group {
                    below[class] += 1;
                    tied[class] = 0;
                }
                start = end;
            }
            for (j, (&twice, &n_j)) in twice_u.iter().zip(&self.class_counts).enumerate() {
                if j == i || n_j == 0 {
                    continue;
                }
                let u = twice as f64 / 2.0;
                sum += u / (n_i as f64 * n_j as f64);
                count += 1;
            }
        }
        sum / count as f64
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.scores.clear();
        self.classes.clear();
        self.head = 0;
        self.class_counts.fill(0);
    }

    /// Captures the window contents as a serde value (checkpoint support);
    /// restored with [`WindowedMultiClassAuc::restore_state`] onto an
    /// estimator of the same shape. The window travels oldest row first as
    /// two flat arrays: `scores`, row-major with `num_classes` scores per
    /// row, and `classes`, the true class of each row.
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::{Serialize, Value};
        let split = self.head * self.num_classes;
        let scores = self.scores[split..].iter().chain(&self.scores[..split]);
        let classes = self.classes[self.head..].iter().chain(&self.classes[..self.head]);
        Value::object(vec![
            ("num_classes", self.num_classes.serialize_value()),
            ("capacity", self.capacity.serialize_value()),
            ("scores", Value::Array(scores.map(Serialize::serialize_value).collect())),
            ("classes", Value::Array(classes.map(Serialize::serialize_value).collect())),
        ])
    }

    /// Restores state captured by [`WindowedMultiClassAuc::snapshot_state`].
    /// A window over capacity, a `scores` array that is not `num_classes`
    /// per class entry, or an out-of-range class is rejected and leaves
    /// the estimator untouched.
    pub fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let num_classes: usize = state.field("num_classes")?;
        let capacity: usize = state.field("capacity")?;
        if num_classes != self.num_classes || capacity != self.capacity {
            return Err(serde::Error::msg(format!(
                "auc window shape mismatch: snapshot is {num_classes} classes / capacity \
                 {capacity}, estimator is {} / {}",
                self.num_classes, self.capacity
            )));
        }
        let scores: Vec<f64> = state.field("scores")?;
        let classes: Vec<usize> = state.field("classes")?;
        if classes.len() > capacity {
            return Err(serde::Error::msg(format!(
                "auc window holds {} predictions, capacity is {capacity}",
                classes.len()
            )));
        }
        if scores.len() != classes.len() * num_classes {
            return Err(serde::Error::msg(format!(
                "auc window holds {} scores for {} predictions of {num_classes} classes",
                scores.len(),
                classes.len()
            )));
        }
        if let Some(class) = classes.iter().find(|&&class| class >= num_classes) {
            return Err(serde::Error::msg(format!(
                "auc window class {class} is out of range for {num_classes} classes"
            )));
        }
        self.reset();
        self.scores.extend_from_slice(&scores);
        for &class in &classes {
            // Lossless: `class < num_classes`, which fits in a u32.
            self.classes.push(class as u32);
            self.class_counts[class] += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceAuc;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// One-hot score vector helper.
    fn one_hot(n: usize, class: usize, confidence: f64) -> Vec<f64> {
        let rest = (1.0 - confidence) / (n as f64 - 1.0);
        (0..n).map(|c| if c == class { confidence } else { rest }).collect()
    }

    #[test]
    fn perfect_scores_give_auc_one() {
        let mut auc = WindowedMultiClassAuc::new(3, 100);
        for i in 0..60 {
            let class = i % 3;
            auc.record(&one_hot(3, class, 0.9), class);
        }
        assert!((auc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_scores_give_auc_half() {
        let mut auc = WindowedMultiClassAuc::new(4, 400);
        // Identical scores for every instance: all pairwise comparisons tie.
        for i in 0..400 {
            auc.record(&[0.25, 0.25, 0.25, 0.25], i % 4);
        }
        assert!((auc.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let mut auc = WindowedMultiClassAuc::new(2, 100);
        for i in 0..100 {
            let class = i % 2;
            // Score is always higher for the wrong class.
            let scores = if class == 0 { vec![0.1, 0.9] } else { vec![0.9, 0.1] };
            auc.record(&scores, class);
        }
        assert!(auc.auc() < 1e-12);
    }

    #[test]
    fn imbalance_does_not_inflate_auc() {
        // A classifier that always scores class 0 highest: on a 99:1
        // imbalanced window its accuracy would be 99%, but its AUC must be
        // 0.5 because it cannot separate the classes.
        let mut auc = WindowedMultiClassAuc::new(2, 1000);
        for i in 0..1000 {
            let class = if i % 100 == 0 { 1 } else { 0 };
            auc.record(&[0.8, 0.2], class);
        }
        assert!((auc.auc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partial_separation_is_between_half_and_one() {
        let mut auc = WindowedMultiClassAuc::new(2, 200);
        for i in 0..200 {
            let class = i % 2;
            // Class-1 instances score a bit higher on class 1, with overlap.
            let s1 =
                if class == 1 { 0.5 + (i % 7) as f64 * 0.05 } else { 0.4 + (i % 5) as f64 * 0.05 };
            auc.record(&[1.0 - s1, s1], class);
        }
        let a = auc.auc();
        assert!(a > 0.55 && a < 0.95, "auc = {a}");
    }

    #[test]
    fn missing_class_falls_back_gracefully() {
        let mut auc = WindowedMultiClassAuc::new(3, 50);
        for _ in 0..20 {
            auc.record(&one_hot(3, 0, 0.9), 0);
        }
        // Only one class present → chance level by definition.
        assert_eq!(auc.auc(), 0.5);
        // Two of three classes present: only those pairs count.
        for _ in 0..20 {
            auc.record(&one_hot(3, 1, 0.9), 1);
        }
        assert!((auc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_slides() {
        let mut auc = WindowedMultiClassAuc::new(2, 10);
        // Fill with bad predictions, then push 10 perfect ones: the bad ones
        // must be evicted entirely.
        for i in 0..10 {
            let class = i % 2;
            let scores = if class == 0 { vec![0.1, 0.9] } else { vec![0.9, 0.1] };
            auc.record(&scores, class);
        }
        for i in 0..10 {
            let class = i % 2;
            auc.record(&one_hot(2, class, 0.95), class);
        }
        assert_eq!(auc.len(), 10);
        assert!((auc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_window() {
        let mut auc = WindowedMultiClassAuc::new(2, 10);
        auc.record(&[0.4, 0.6], 1);
        assert!(!auc.is_empty());
        auc.reset();
        assert!(auc.is_empty());
        assert_eq!(auc.auc(), 0.5);
    }

    #[test]
    #[should_panic]
    fn wrong_score_length_rejected() {
        WindowedMultiClassAuc::new(3, 10).record(&[0.5, 0.5], 0);
    }

    #[test]
    #[should_panic(expected = "scores must not be NaN")]
    fn nan_score_panics() {
        let mut auc = WindowedMultiClassAuc::new(3, 10);
        auc.record(&[0.2, 0.5, 0.3], 0);
        auc.record(&[0.2, f64::NAN, 0.3], 1);
        auc.auc();
    }

    /// Builds the same window in the estimator and in the rank-sum
    /// reference and checks that the two agree to the bit, in the metric
    /// and in the checkpoint value.
    fn assert_matches_reference(fast: &WindowedMultiClassAuc, reference: &ReferenceAuc) {
        assert_eq!(fast.auc().to_bits(), reference.auc().to_bits());
        assert_eq!(
            serde_json::to_string(&fast.snapshot_state()).unwrap(),
            serde_json::to_string(&reference.snapshot_state()).unwrap()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random windows: 2–12 classes, capacity 1–1,200 (filled part
        /// way, exactly, or wrapped), scores quantized to 2–1,000 levels
        /// around zero with both signs of zero, and a random subset of the
        /// classes absent from the stream.
        #[test]
        fn one_sweep_auc_matches_the_rank_sum_reference_bitwise(
            shape in (2usize..13, 1usize..1201, 2u64..1001, 0u64..u64::MAX),
            fill in 0usize..3
        ) {
            let (num_classes, capacity, levels, seed) = shape;
            let mut rng = TestRng::seed(seed);
            let mut classes: Vec<usize> = (0..num_classes).collect();
            for k in (1..classes.len()).rev() {
                classes.swap(k, rng.below(k as u64 + 1) as usize);
            }
            classes.truncate(1 + rng.below(num_classes as u64) as usize);
            let records = match fill {
                0 => 1 + rng.below(capacity as u64) as usize,
                1 => capacity,
                _ => capacity + 1 + rng.below(2 * capacity as u64) as usize,
            };
            let mut fast = WindowedMultiClassAuc::new(num_classes, capacity);
            let mut reference = ReferenceAuc::new(num_classes, capacity);
            let mut scores = vec![0.0; num_classes];
            for n in 0..records {
                for s in scores.iter_mut() {
                    let level = rng.below(levels) as f64 - (levels / 2) as f64;
                    *s = level / levels as f64;
                    if *s == 0.0 && rng.below(2) == 0 {
                        *s = -0.0;
                    }
                }
                let class = classes[rng.below(classes.len() as u64) as usize];
                fast.record(&scores, class);
                reference.record(&scores, class);
                if n == records / 2 {
                    assert_matches_reference(&fast, &reference);
                }
            }
            prop_assert_eq!(fast.len(), records.min(capacity));
            assert_matches_reference(&fast, &reference);

            // A restored window is the same window.
            let mut restored = WindowedMultiClassAuc::new(num_classes, capacity);
            restored.restore_state(&fast.snapshot_state()).unwrap();
            assert_matches_reference(&restored, &reference);
        }
    }

    #[test]
    fn restore_rejects_malformed_windows() {
        let mut auc = WindowedMultiClassAuc::new(2, 3);
        for (scores, class) in [(&[0.1, 0.9], 1), (&[0.8, 0.2], 0)] {
            auc.record(scores, class);
        }
        let state = auc.snapshot_state();
        let with_window = |scores: &str, classes: &str| {
            let json = serde_json::to_string(&state).unwrap();
            let start = json.find("\"scores\":").unwrap();
            let window = format!("\"scores\":{scores},\"classes\":{classes}}}");
            serde_json::parse_value(&format!("{}{window}", &json[..start])).unwrap()
        };
        let mut target = WindowedMultiClassAuc::new(2, 3);
        assert!(target.restore_state(&with_window("[0.5]", "[0]")).is_err(), "short score row");
        assert!(target.restore_state(&with_window("[0.5,0.5,0.5]", "[0]")).is_err(), "long row");
        assert!(target.restore_state(&with_window("[0.5,0.5]", "[2]")).is_err(), "class range");
        let four = with_window("[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]", "[0,0,1,1]");
        assert!(target.restore_state(&four).is_err(), "over capacity");
        assert!(target.is_empty(), "a rejected window leaves the estimator untouched");
        target.restore_state(&with_window("[0.5,0.5,0.7,0.3]", "[0,1]")).unwrap();
        assert_eq!(target.len(), 2);
        assert_eq!(target.auc(), 0.0);
    }
}
