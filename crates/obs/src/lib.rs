//! `rbm-im-obs`: the telemetry plane for the RBM-IM serving stack.
//!
//! Hand-rolled on vendored deps only, this crate provides the three
//! primitives the serving layers instrument themselves with:
//!
//! - [`MetricsRegistry`] — named atomic [`Counter`]s, [`Gauge`]s, and
//!   log-linear latency [`Histogram`]s. Registration is the cold path;
//!   recording through a captured handle is wait-free and
//!   allocation-free (enforced by `tests/no_alloc.rs` with the same
//!   counting-allocator harness as `crates/rbm`).
//! - [`ObsServer`] / [`render_prometheus`] — Prometheus text-format
//!   exposition over a plain `std::net` scrape listener, plus
//!   [`MetricsSnapshot`] as a serializable (RBMC-codec-friendly) value
//!   for wire exposition.
//! - [`Tracer`] — ring-buffered structured spans (begin/end with
//!   monotonic timestamps) drained to JSONL by the owning sink.
//!
//! # Naming scheme
//!
//! Families are `rbm_<layer>_<what>_<unit>`: `rbm_serve_*` (shard plane),
//! `rbm_net_*` (TCP front-end), `rbm_supervisor_*` (control plane),
//! `rbm_kernel_*` (CD-k kernels). Duration histograms end in `_seconds`
//! and record **integer nanoseconds**; exposition divides by 1e9. Counter
//! families end in `_total`.
//!
//! # Always on, never perturbing
//!
//! Telemetry has no process-wide switch: the timing around hot-path
//! operations (one clock pair per ingest message or request frame) and
//! the structural counters behind reports and health checks are always
//! recorded, so every benchmark figure includes their cost. The one
//! opt-in is the CD-k kernel timing, armed per detector by the spec
//! parameter `rbm(timing=on)`. Observability never perturbs results:
//! instruments only read clocks and bump atomics, and never branch on
//! what they measure — the determinism suites run bitwise-identical with
//! telemetry recording.

mod expose;
mod histogram;
mod registry;
mod trace;

pub use expose::{render_prometheus, scrape_text, ObsServer};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, MetricId, MetricsRegistry, MetricsSnapshot};
pub use trace::{SpanTimer, TraceEvent, Tracer};

use std::sync::{Arc, OnceLock};

/// The process-global registry, for call sites with no server context
/// (the CD-k kernels in `rbm_im::linalg`). Server-scoped metrics live in
/// per-`ServerHandle` registries instead, so concurrent servers (and
/// tests) never share counters.
pub fn global() -> &'static Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("rbm_test_global_total", &[]);
        let b = global().counter("rbm_test_global_total", &[]);
        a.inc();
        assert_eq!(b.get(), 1);
    }
}
