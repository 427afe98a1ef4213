//! Lock-free metric instruments and the registry that names them.
//!
//! Registration (`counter` / `gauge` / `histogram`) is the cold path: it
//! takes a mutex, interns the metric id, and hands back an `Arc` handle.
//! Components capture their handles at construction and record through
//! them directly — the hot path never touches the registry, so `inc` /
//! `set` / `record` are single wait-free atomic ops with zero allocation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize, Value};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1. Wait-free, allocation-free.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`. Wait-free, allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depths, stream counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Replaces the value. Wait-free, allocation-free.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative). Wait-free, allocation-free.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Adds 1 unless the value is already at or above `limit`, in one
    /// compare-and-swap loop, and says whether it added. Of concurrent
    /// callers racing for the last unit below `limit`, exactly one gets
    /// it — a gauge doubles as a fleet-wide slot reservation this way.
    pub fn inc_below(&self, limit: i64) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| (v < limit).then_some(v + 1))
            .is_ok()
    }
}

/// Fully-qualified metric identity: name plus ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric family name (`rbm_serve_ingest_latency_seconds`, …).
    pub name: String,
    /// Label pairs in registration order (`[("shard", "3")]`).
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id from borrowed parts.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricId {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    /// Renders the `{k="v",…}` label suffix ("" when unlabeled).
    pub fn label_suffix(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let pairs: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
        format!("{{{}}}", pairs.join(","))
    }

    fn to_value(&self) -> Value {
        let labels: Vec<Value> = self
            .labels
            .iter()
            .map(|(k, v)| Value::Array(vec![Value::String(k.clone()), Value::String(v.clone())]))
            .collect();
        Value::object(vec![
            ("name", Value::String(self.name.clone())),
            ("labels", Value::Array(labels)),
        ])
    }

    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let name: String = value.field("name")?;
        let labels: Vec<(String, String)> = value.field("labels")?;
        Ok(MetricId { name, labels })
    }
}

/// Escapes a label value for Prometheus text exposition.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Instrument stores are hash maps, so registration and handle re-lookup
/// stay O(1) however many families a process holds. Hot paths bind their
/// handles once and never look them up per event.
/// Snapshots sort by id, so iteration order never leaks out.
struct Inner {
    counters: HashMap<MetricId, Arc<Counter>>,
    gauges: HashMap<MetricId, Arc<Gauge>>,
    histograms: HashMap<MetricId, Arc<Histogram>>,
}

/// Registry of named instruments. Cheap to clone handles out of; intended
/// to be shared as `Arc<MetricsRegistry>` per server (plus one process
/// global for context-free call sites like the CD-k kernels).
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Mutex::new(Inner {
                counters: HashMap::new(),
                gauges: HashMap::new(),
                histograms: HashMap::new(),
            }),
        }
    }

    /// Returns the counter for `name` + `labels`, registering it on first
    /// use. Cold path (mutex + allocation); hold the handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.counters.entry(id).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// Returns the gauge for `name` + `labels`, registering on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.gauges.entry(id).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// Returns the histogram for `name` + `labels`, registering on first
    /// use. Duration histograms are named `*_seconds` and record integer
    /// nanoseconds; exposition converts at render time.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.histograms.entry(id).or_insert_with(|| Arc::new(Histogram::new())))
    }

    /// Point-in-time copy of every registered instrument, sorted by metric
    /// id so snapshots are deterministic and diffable.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut counters: Vec<(MetricId, u64)> =
            inner.counters.iter().map(|(id, c)| (id.clone(), c.get())).collect();
        let mut gauges: Vec<(MetricId, i64)> =
            inner.gauges.iter().map(|(id, g)| (id.clone(), g.get())).collect();
        let mut histograms: Vec<(MetricId, HistogramSnapshot)> =
            inner.histograms.iter().map(|(id, h)| (id.clone(), h.snapshot())).collect();
        drop(inner);
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Owned snapshot of a [`MetricsRegistry`] — the payload of the `Metrics`
/// wire frame and the input to Prometheus rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by id.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values, sorted by id.
    pub gauges: Vec<(MetricId, i64)>,
    /// Histogram snapshots, sorted by id.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: same-id counters/histograms add, gauges
    /// take the later value, unseen ids append (re-sorted at the end).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (id, v) in &other.counters {
            match self.counters.iter_mut().find(|(i, _)| i == id) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((id.clone(), *v)),
            }
        }
        for (id, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(i, _)| i == id) {
                Some((_, mine)) => *mine = *v,
                None => self.gauges.push((id.clone(), *v)),
            }
        }
        for (id, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(i, _)| i == id) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((id.clone(), h.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Finds a histogram by family name, merging every label instance —
    /// e.g. the all-shards ingest latency distribution.
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for (id, h) in &self.histograms {
            if id.name == name {
                merged.merge(h);
            }
        }
        merged
    }

    /// Looks up a counter by family name, summing label instances.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(id, _)| id.name == name).map(|(_, v)| v).sum()
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize_value(&self) -> Value {
        let counters: Vec<Value> = self
            .counters
            .iter()
            .map(|(id, v)| {
                Value::object(vec![("id", id.to_value()), ("value", Value::from_u64_hex(*v))])
            })
            .collect();
        let gauges: Vec<Value> = self
            .gauges
            .iter()
            .map(|(id, v)| {
                Value::object(vec![("id", id.to_value()), ("value", Value::Number(*v as f64))])
            })
            .collect();
        let histograms: Vec<Value> = self
            .histograms
            .iter()
            .map(|(id, h)| Value::object(vec![("id", id.to_value()), ("value", h.to_value())]))
            .collect();
        Value::object(vec![
            ("counters", Value::Array(counters)),
            ("gauges", Value::Array(gauges)),
            ("histograms", Value::Array(histograms)),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        fn entries(value: &Value, key: &str) -> Result<Vec<Value>, serde::Error> {
            match value.req(key)? {
                Value::Array(items) => Ok(items.clone()),
                other => {
                    Err(serde::Error::msg(format!("`{key}`: expected array, found {other:?}")))
                }
            }
        }
        let mut counters = Vec::new();
        for entry in entries(value, "counters")? {
            let id = MetricId::from_value(entry.req("id")?)?;
            counters.push((id, entry.req("value")?.as_u64_hex()?));
        }
        let mut gauges = Vec::new();
        for entry in entries(value, "gauges")? {
            let id = MetricId::from_value(entry.req("id")?)?;
            gauges.push((id, entry.field("value")?));
        }
        let mut histograms = Vec::new();
        for entry in entries(value, "histograms")? {
            let id = MetricId::from_value(entry.req("id")?)?;
            histograms.push((id, HistogramSnapshot::from_value(entry.req("value")?)?));
        }
        Ok(MetricsSnapshot { counters, gauges, histograms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("shard", "0")]);
        let b = reg.counter("x_total", &[("shard", "0")]);
        let other = reg.counter("x_total", &[("shard", "1")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counter_total("x_total"), 4);
    }

    #[test]
    fn snapshot_round_trips_through_value() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[]).add(41);
        reg.gauge("g", &[("k", "v")]).set(-7);
        let h = reg.histogram("h_seconds", &[("shard", "2")]);
        h.record(1_000);
        h.record(2_000_000);
        let snap = reg.snapshot();
        let restored =
            MetricsSnapshot::deserialize_value(&snap.serialize_value()).expect("round trip");
        assert_eq!(snap, restored);
    }

    #[test]
    fn merged_histogram_spans_labels() {
        let reg = MetricsRegistry::new();
        reg.histogram("h_seconds", &[("shard", "0")]).record(10);
        reg.histogram("h_seconds", &[("shard", "1")]).record(20);
        let merged = reg.snapshot().merged_histogram("h_seconds");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.sum, 30);
    }

    #[test]
    fn inc_below_grants_the_last_unit_exactly_once() {
        const CAP: i64 = 64;
        for _ in 0..200 {
            let gauge = Gauge::new();
            gauge.set(CAP - 1);
            let start = std::sync::Barrier::new(2);
            let wins: usize = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            gauge.inc_below(CAP)
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| usize::from(r.join().unwrap())).sum()
            });
            assert_eq!(wins, 1, "exactly one racer reserves the last slot");
            assert_eq!(gauge.get(), CAP);
        }
        let gauge = Gauge::new();
        gauge.set(CAP + 3);
        assert!(!gauge.inc_below(CAP), "an over-full gauge grants nothing");
        assert_eq!(gauge.get(), CAP + 3);
    }
}
