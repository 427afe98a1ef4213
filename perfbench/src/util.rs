//! Small measurement helpers: quantiles, the metric table printed as the
//! result line, process memory and thread CPU readings, and a seeded
//! generator-side RNG.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank quantile of an ascending-sorted sample (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a sample in place and returns it, for [`quantile`].
pub fn sorted(mut sample: Vec<f64>) -> Vec<f64> {
    sample.sort_by(f64::total_cmp);
    sample
}

/// Median of an unsorted sample.
pub fn median(sample: &[f64]) -> f64 {
    quantile(&sorted(sample.to_vec()), 0.5)
}

/// Samples grouped into consecutive windows of a run (one-second windows,
/// or one pipeline pass), so a run reports the median over windows of a
/// per-window statistic: a disturbance shorter than a window moves one
/// window, not the result.
#[derive(Default)]
pub struct Windows {
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// Adds a sample to window `window`.
    pub fn push(&mut self, window: usize, value: f64) {
        if self.buckets.len() <= window {
            self.buckets.resize_with(window + 1, Vec::new);
        }
        self.buckets[window].push(value);
    }

    /// Median over the first `windows` windows of each window's `q`-quantile.
    pub fn median_of(&self, windows: usize, q: f64) -> f64 {
        self.across(windows, q, 0.5)
    }

    /// The `across`-quantile, over the first `windows` windows, of each
    /// window's `q`-quantile.
    pub fn across(&self, windows: usize, q: f64, across: f64) -> f64 {
        let per_window: Vec<f64> = self
            .buckets
            .iter()
            .take(windows)
            .filter(|b| !b.is_empty())
            .map(|b| quantile(&sorted(b.clone()), q))
            .collect();
        quantile(&sorted(per_window), across)
    }

    /// Number of samples in the first `windows` windows.
    pub fn count(&self, windows: usize) -> usize {
        self.buckets.iter().take(windows).map(Vec::len).sum()
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) one metric. Non-finite values are recorded as 0
    /// so the result line stays valid JSON.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The metrics as a JSON object: `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Resident set size of this process in bytes (0 when `/proc` is absent).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|statm| statm.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// CPU seconds (user + system) the calling thread has used so far, at the
/// kernel's 10 ms tick resolution (0 when `/proc` is absent).
pub fn thread_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let tail = stat.rsplit_once(')').map_or("", |(_, tail)| tail);
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak RSS growth over a baseline, sampled at most every 10 ms.
pub struct RssPeak {
    base: u64,
    peak: u64,
    last: Instant,
}

impl RssPeak {
    /// Takes the baseline reading now.
    pub fn new() -> Self {
        let base = rss_bytes();
        RssPeak { base, peak: base, last: Instant::now() }
    }

    /// Samples RSS if 10 ms passed since the last sample.
    pub fn tick(&mut self, now: Instant) {
        if now.duration_since(self.last).as_millis() >= 10 {
            self.sample();
            self.last = now;
        }
    }

    /// Samples RSS now.
    pub fn sample(&mut self) {
        self.peak = self.peak.max(rss_bytes());
    }

    /// Peak growth over the baseline, in MiB.
    pub fn growth_mib(&self) -> f64 {
        self.peak.saturating_sub(self.base) as f64 / (1024.0 * 1024.0)
    }
}

/// SplitMix64: the load generator's own seeded choice of target streams.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_report_the_median_window() {
        let mut w = Windows::default();
        for (window, value) in [(0, 1.0), (0, 3.0), (1, 10.0), (2, 4.0), (3, 1000.0)] {
            w.push(window, value);
        }
        // Per-window medians of the first three windows: 1, 10, 4.
        assert_eq!(w.median_of(3, 0.5), 4.0);
        assert_eq!(w.across(3, 0.5, 0.1), 1.0);
        assert_eq!(w.count(3), 4);
    }

    #[test]
    fn metrics_render_as_json_object() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        m.put("a", 2.0, "ms");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 2.0, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn splitmix_stays_in_range_and_repeats() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        for _ in 0..1000 {
            let x = a.below(512);
            assert!(x < 512);
            assert_eq!(x, b.below(512));
        }
    }
}
