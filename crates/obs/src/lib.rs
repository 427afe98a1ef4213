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
//! # Gating and determinism
//!
//! Timing instrumentation (the clock reads around hot-path operations) is
//! gated by [`enabled`] — off by default, switched on with `RBM_OBS=on`
//! or programmatically via [`force_enabled`]. Structural counters
//! (frames dropped, queue gauges) are always live: they back reports and
//! health checks. Observability never perturbs results: instruments
//! only read clocks and bump atomics, and never branch on what they
//! measure — the determinism suites run bitwise-identical with `RBM_OBS`
//! on and off, which CI enforces.

mod expose;
mod histogram;
mod registry;
mod trace;

pub use expose::{render_prometheus, scrape_text, ObsServer};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, MetricId, MetricsRegistry, MetricsSnapshot};
pub use trace::{SpanTimer, TraceEvent, Tracer};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Tri-state: 0 = uninitialised (read `RBM_OBS` on first query), 1 = off,
/// 2 = on.
static OBS_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether timing instrumentation is enabled. First call reads the
/// `RBM_OBS` environment variable (`1` / `on` / `true` / `yes` enable);
/// [`force_enabled`] overrides at any time. Cheap enough to query on hot
/// paths (one relaxed atomic load after initialisation).
#[inline]
pub fn enabled() -> bool {
    match OBS_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("RBM_OBS")
                .map(|v| matches!(v.as_str(), "1" | "on" | "true" | "yes"))
                .unwrap_or(false);
            OBS_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatically switches timing instrumentation on or off,
/// overriding `RBM_OBS`. Used by examples (always-on demo telemetry) and
/// tests.
pub fn force_enabled(on: bool) {
    OBS_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

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
    fn force_enabled_overrides_env_state() {
        force_enabled(true);
        assert!(enabled());
        force_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("rbm_test_global_total", &[]);
        let b = global().counter("rbm_test_global_total", &[]);
        a.inc();
        assert_eq!(b.get(), 1);
    }
}
