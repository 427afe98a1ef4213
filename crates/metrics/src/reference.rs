//! The retained pairwise rank-sum pmAUC, the ground truth the one-sweep
//! [`crate::auc::WindowedMultiClassAuc`] is tested against.
//!
//! This is the original estimator kept verbatim (modulo visibility): a
//! `VecDeque` of owned score vectors, and one fresh filtered copy and one
//! Mann–Whitney rank-sum sort per ordered class pair, O(C²·W log W) per
//! call. The equivalence tests in `auc.rs` assert that both give the same
//! `to_bits()` and the same checkpoint value. It is compiled only into the
//! crate's unit tests.

use std::collections::VecDeque;

/// The original sliding-window multi-class AUC estimator.
#[derive(Debug, Clone)]
pub struct ReferenceAuc {
    num_classes: usize,
    capacity: usize,
    /// Window of (per-class scores, true class).
    window: VecDeque<(Vec<f64>, usize)>,
}

impl ReferenceAuc {
    /// Creates an estimator over `num_classes` classes with a window of
    /// `capacity` recent predictions.
    pub fn new(num_classes: usize, capacity: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        assert!(capacity > 0, "window capacity must be > 0");
        ReferenceAuc { num_classes, capacity, window: VecDeque::with_capacity(capacity) }
    }

    /// Adds one prediction (per-class scores and the true class).
    pub fn record(&mut self, scores: &[f64], true_class: usize) {
        assert_eq!(scores.len(), self.num_classes, "score vector length mismatch");
        assert!(true_class < self.num_classes, "true class out of range");
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back((scores.to_vec(), true_class));
    }

    /// Pairwise AUC `A(i | j)`: probability that class-`i` instances score
    /// higher on class `i` than class-`j` instances do. Returns `None` if
    /// either class is absent from the window.
    fn pairwise_auc(&self, class_i: usize, class_j: usize) -> Option<f64> {
        let scores_i: Vec<f64> =
            self.window.iter().filter(|(_, c)| *c == class_i).map(|(s, _)| s[class_i]).collect();
        let scores_j: Vec<f64> =
            self.window.iter().filter(|(_, c)| *c == class_j).map(|(s, _)| s[class_i]).collect();
        if scores_i.is_empty() || scores_j.is_empty() {
            return None;
        }
        // Rank-based computation: O((n+m) log(n+m)) via sorting.
        let mut combined: Vec<(f64, bool)> = scores_i
            .iter()
            .map(|&s| (s, true))
            .chain(scores_j.iter().map(|&s| (s, false)))
            .collect();
        combined.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("scores must not be NaN"));
        // Sum of ranks of class-i instances with midrank tie handling.
        let mut rank_sum_i = 0.0;
        let mut idx = 0usize;
        let n = combined.len();
        while idx < n {
            let mut j = idx;
            while j + 1 < n && combined[j + 1].0 == combined[idx].0 {
                j += 1;
            }
            let avg_rank = (idx + j) as f64 / 2.0 + 1.0;
            for item in &combined[idx..=j] {
                if item.1 {
                    rank_sum_i += avg_rank;
                }
            }
            idx = j + 1;
        }
        let n_i = scores_i.len() as f64;
        let n_j = scores_j.len() as f64;
        let u = rank_sum_i - n_i * (n_i + 1.0) / 2.0;
        Some(u / (n_i * n_j))
    }

    /// The mean of `A(i | j)` over all ordered pairs of classes present in
    /// the window; 0.5 if fewer than two classes are present.
    pub fn auc(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..self.num_classes {
            for j in 0..self.num_classes {
                if i == j {
                    continue;
                }
                if let Some(a) = self.pairwise_auc(i, j) {
                    sum += a;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.5
        } else {
            sum / count as f64
        }
    }

    /// Captures the window contents as a serde value, in the flat layout
    /// of [`crate::auc::WindowedMultiClassAuc::snapshot_state`].
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize;
        let scores: Vec<f64> = self.window.iter().flat_map(|(s, _)| s.iter().copied()).collect();
        let classes: Vec<usize> = self.window.iter().map(|&(_, c)| c).collect();
        serde::Value::object(vec![
            ("num_classes", self.num_classes.serialize_value()),
            ("capacity", self.capacity.serialize_value()),
            ("scores", scores.serialize_value()),
            ("classes", classes.serialize_value()),
        ])
    }
}
