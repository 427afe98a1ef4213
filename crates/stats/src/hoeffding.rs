//! The Hoeffding concentration bound.
//!
//! The FHDDM reference detector bases its decision rule on Hoeffding's
//! inequality: with probability `1 - δ` the empirical mean of `n`
//! independent observations bounded in `[0, 1]` deviates from its
//! expectation by at most `ε = sqrt(ln(1/δ) / (2n))`.

/// Hoeffding bound `ε = sqrt(ln(1/δ) / (2 n))` for `n` observations in
/// `[0, range]` and confidence `1 − δ`.
///
/// # Panics
/// Panics if `n == 0`, `δ ∉ (0, 1)` or `range <= 0`.
pub fn hoeffding_bound(range: f64, delta: f64, n: u64) -> f64 {
    assert!(n > 0, "hoeffding bound requires n > 0");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1), got {delta}");
    assert!(range > 0.0, "range must be > 0, got {range}");
    (range * range * (1.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_shrinks_with_more_data() {
        let e1 = hoeffding_bound(1.0, 0.05, 100);
        let e2 = hoeffding_bound(1.0, 0.05, 1000);
        let e3 = hoeffding_bound(1.0, 0.05, 10000);
        assert!(e1 > e2 && e2 > e3);
        // Known value: sqrt(ln(20)/200) ≈ 0.12238
        assert!((e1 - 0.122_38).abs() < 1e-4);
    }

    #[test]
    fn bound_grows_with_confidence() {
        let loose = hoeffding_bound(1.0, 0.1, 500);
        let tight = hoeffding_bound(1.0, 0.001, 500);
        assert!(tight > loose);
    }

    #[test]
    fn bound_scales_with_range() {
        let unit = hoeffding_bound(1.0, 0.05, 200);
        let doubled = hoeffding_bound(2.0, 0.05, 200);
        assert!((doubled - 2.0 * unit).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_observations() {
        hoeffding_bound(1.0, 0.05, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_delta() {
        hoeffding_bound(1.0, 1.5, 10);
    }
}
