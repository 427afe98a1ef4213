//! Online (incremental) statistics.
//!
//! * [`WelfordStats`] — numerically stable running mean / variance;
//! * [`SlidingWindowStats`] — fixed-capacity window with O(1) mean/variance
//!   updates.
//!
//! The detectors keep their own windows; nothing outside this crate's
//! tests and the workspace property tests calls these types.

use std::collections::VecDeque;

/// Numerically stable running mean and variance (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WelfordStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl WelfordStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn update(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0.0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (0.0 before any observation).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard deviation of the mean estimate of a Bernoulli variable with
    /// probability equal to the running mean — the `s_i = sqrt(p(1-p)/n)`
    /// quantity of DDM-style detectors.
    pub fn bernoulli_std(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = self.mean.clamp(0.0, 1.0);
        (p * (1.0 - p) / self.count as f64).sqrt()
    }

    /// Resets the accumulator.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Fixed-capacity sliding window with O(1) mean / variance maintenance.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindowStats {
    capacity: usize,
    window: VecDeque<f64>,
    sum: f64,
    sum_sq: f64,
}

impl SlidingWindowStats {
    /// Creates an empty window with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be > 0");
        SlidingWindowStats {
            capacity,
            window: VecDeque::with_capacity(capacity),
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Pushes a value, evicting the oldest when full. Returns the evicted
    /// value, if any.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let evicted = if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("window is full, front must exist");
            self.sum -= old;
            self.sum_sq -= old * old;
            Some(old)
        } else {
            None
        };
        self.window.push_back(x);
        self.sum += x;
        self.sum_sq += x * x;
        evicted
    }

    /// Number of values currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window currently holds no values.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.window.len() == self.capacity
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean of the values in the window (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.sum / self.window.len() as f64
        }
    }

    /// Population variance of the window (0.0 if empty). Clamped at zero to
    /// absorb floating-point cancellation.
    pub fn variance(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let n = self.window.len() as f64;
        let m = self.sum / n;
        (self.sum_sq / n - m * m).max(0.0)
    }

    /// Iterates over the window contents from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &f64> {
        self.window.iter()
    }

    /// Copies the window contents (oldest first) into a vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.window.iter().copied().collect()
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.window.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    #[test]
    fn welford_matches_batch_statistics() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = WelfordStats::new();
        for &x in &data {
            w.update(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - descriptive::mean(&data)).abs() < 1e-12);
        assert!((w.variance() - descriptive::variance(&data)).abs() < 1e-12);
        assert!((w.population_variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - descriptive::std_dev(&data)).abs() < 1e-12);
    }

    #[test]
    fn welford_bernoulli_std() {
        let mut w = WelfordStats::new();
        for i in 0..100 {
            w.update(if i % 4 == 0 { 1.0 } else { 0.0 });
        }
        let p = 0.25;
        assert!((w.bernoulli_std() - (p * (1.0 - p) / 100.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_reset_and_empty() {
        let mut w = WelfordStats::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.bernoulli_std(), 0.0);
        w.update(5.0);
        w.reset();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn sliding_window_evicts_and_tracks_moments() {
        let mut w = SlidingWindowStats::new(3);
        assert!(w.is_empty());
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), None);
        assert_eq!(w.push(3.0), None);
        assert!(w.is_full());
        assert_eq!(w.push(4.0), Some(1.0));
        assert_eq!(w.len(), 3);
        assert_eq!(w.to_vec(), vec![2.0, 3.0, 4.0]);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!((w.variance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_matches_batch_after_many_pushes() {
        let mut w = SlidingWindowStats::new(50);
        let mut reference = Vec::new();
        for i in 0..500 {
            let x = ((i as f64 * 0.37).sin() * 10.0) + i as f64 * 0.01;
            w.push(x);
            reference.push(x);
        }
        let tail = &reference[reference.len() - 50..];
        assert!((w.mean() - descriptive::mean(tail)).abs() < 1e-9);
        assert!((w.variance() - descriptive::population_variance(tail)).abs() < 1e-6);
    }

    #[test]
    fn sliding_window_clear() {
        let mut w = SlidingWindowStats::new(4);
        w.push(1.0);
        w.push(2.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.capacity(), 4);
    }

    #[test]
    #[should_panic]
    fn sliding_window_rejects_zero_capacity() {
        SlidingWindowStats::new(0);
    }
}
