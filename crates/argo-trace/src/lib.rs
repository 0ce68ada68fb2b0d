//! `argo-trace` — std-only hierarchical span tracing + metrics for the
//! ARGO toolflow.
//!
//! One crate unifies the repo's observability mechanisms:
//!
//! - **Spans** ([`Tracer`], [`Span`]): RAII guards forming a
//!   per-thread hierarchy (session → stage → sub-phase → per-point),
//!   recorded into a bounded ring buffer with atomic slot claim. The
//!   `argo-core` session driver opens one `stage.*` span per stage it
//!   runs.
//! - **Exporters** ([`chrome_trace`], [`flame_summary`]): Chrome
//!   trace-event JSON (open in Perfetto or `chrome://tracing`) and a
//!   text top-N self-time table, both behind `--trace out.json` on
//!   `argo-dse explore`, `argo-verify` and `argo-serve`.
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): atomic counters/gauges and fixed-bucket latency
//!   histograms with p50/p90/p99 derivation, rendered as Prometheus
//!   text exposition (the `argo-serve` `metrics` request).
//! - **JSON** ([`json`]): the workspace's one JSON reader
//!   ([`json::Value`]) and string escaper ([`json::escape`]), shared by
//!   every crate that writes or reads JSON.
//!
//! # Cost model
//!
//! Everything is **off by default** and gated on one relaxed atomic
//! load: [`spans_on`] for the global tracer, [`metrics_on`] for
//! hot-subsystem counters (annealer proposals, BnB expansions, WCET
//! fixpoint rounds). Instrumented inner loops count into locals and
//! publish once per call *after* checking the gate, so a disabled
//! build does no shared-memory traffic on the hot paths. `perfbench`
//! times this build in its untraced runs, and its `trace.overhead`
//! metric is the cost of turning tracing on. Request/IO-level metrics
//! (serve request latency, store get/put latency) are always on: one
//! histogram observe per request or file operation. Spans and metrics
//! are only ever surfaced through side channels (`--trace` files, the
//! `metrics` request, `stats --json`, stderr summaries) — never in
//! deterministic response bodies or CSV, so byte-identical replay
//! contracts are unaffected.
//!
//! # OBSERVABILITY
//!
//! Metric name → subsystem → meaning:
//!
//! | metric | subsystem | meaning |
//! |---|---|---|
//! | `argo_serve_request_latency_us{kind=…}` | argo-serve | Wall time per completed request, by request kind (histogram, µs). |
//! | `argo_serve_slow_requests_total` | argo-serve | Requests whose wall time exceeded the daemon's slow threshold (each is dumped to stderr). |
//! | `argo_store_hits_total` / `argo_store_misses_total` | argo-store | Artifact reads served / not served by the store (per-store registry; a self-healed corrupt read converts a hit into a miss). |
//! | `argo_store_corrupt_total` / `argo_store_version_skew_total` | argo-store | Reads rejected by checksum/fingerprint validation / by entry-version mismatch. |
//! | `argo_store_evictions_total` / `argo_store_write_errors_total` | argo-store | Entries removed by LRU GC / failed atomic writes. |
//! | `argo_store_get_latency_us` / `argo_store_put_latency_us` | argo-store | Read / write latency per store operation (histogram, µs). |
//! | `argo_dse_point_wall_us` | argo-dse | Wall time per evaluated design point (histogram, µs). |
//! | `argo_dse_worker_busy_us_total` / `argo_dse_worker_wall_us_total` | argo-dse | Executor busy time vs. elapsed wall time × workers; their ratio is worker utilization. |
//! | `argo_sched_anneal_proposals_total` / `argo_sched_anneal_accepts_total` | argo-sched | Simulated-annealing moves proposed / accepted (gated on [`metrics_on`]). |
//! | `argo_sched_bnb_expanded_total` / `argo_sched_bnb_pruned_total` | argo-sched | Branch-and-bound nodes expanded / subtrees cut by the lower bound (gated). |
//! | `argo_sched_bnb_unproven_total` | argo-sched | Branch-and-bound calls that ran out of node budget, so their schedule is not proven optimal (gated). |
//! | `argo_wcet_fixpoint_iters` | argo-wcet | Widening-fixpoint rounds per analyzed loop body (histogram, gated). |
//!
//! Span names: `stage.frontend` / `stage.seed-costs` / `stage.backend`
//! / `stage.verify` (one per pipeline stage execution, from the
//! session driver), `backend.round` (one per § II-E feedback round),
//! `dse.point` (one per design-point evaluation), `serve.request`
//! (one per daemon request actually executed).
//!
//! # Example
//!
//! ```
//! argo_trace::enable_spans();
//! {
//!     let _outer = argo_trace::span("stage.backend");
//!     let _inner = argo_trace::span("backend.round");
//! }
//! let records = argo_trace::global().snapshot();
//! assert!(records.iter().any(|r| r.name == "backend.round"));
//! let json = argo_trace::chrome_trace(&records);
//! assert!(json.contains("\"ph\":\"X\""));
//!
//! let lat = argo_trace::metrics()
//!     .histogram("doc_latency_us", argo_trace::LATENCY_US_BUCKETS);
//! lat.observe(120);
//! assert!(argo_trace::metrics().prometheus().contains("doc_latency_us_count 1"));
//! ```

mod export;
pub mod json;
mod metrics;
mod span;

pub use export::{chrome_trace, flame_rows, flame_summary, write_chrome_trace, FlameRow};
pub use metrics::{Counter, Gauge, Histogram, Registry, COUNT_BUCKETS, LATENCY_US_BUCKETS};
pub use span::{current_thread_id, thread_names, Span, SpanRecord, Tracer};

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Ring capacity of the [`global`] tracer (completed spans retained).
pub const GLOBAL_RING_CAPACITY: usize = 65_536;

static SPANS_ON: AtomicBool = AtomicBool::new(false);
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// The process-wide tracer (disabled until [`enable_spans`]).
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(GLOBAL_RING_CAPACITY))
}

/// The process-wide metrics registry. Always usable; whether
/// *hot-path* instrumentation feeds it is governed by [`metrics_on`].
pub fn metrics() -> &'static Registry {
    static METRICS: OnceLock<Registry> = OnceLock::new();
    METRICS.get_or_init(Registry::new)
}

/// Whether the global tracer records spans — one relaxed load, the
/// instrumentation fast path.
#[inline]
pub fn spans_on() -> bool {
    SPANS_ON.load(Ordering::Relaxed)
}

/// Whether gated hot-subsystem metrics publish — one relaxed load.
#[inline]
pub fn metrics_on() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turns on global span recording (`--trace` does this).
pub fn enable_spans() {
    global().enable();
    SPANS_ON.store(true, Ordering::Relaxed);
}

/// Turns on gated hot-subsystem metrics (the daemon and `--trace` do
/// this).
pub fn enable_metrics() {
    METRICS_ON.store(true, Ordering::Relaxed);
}

/// Opens a span on the [`global`] tracer; inert (and allocation-free)
/// while [`spans_on`] is false.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> Span<'static> {
    if spans_on() {
        global().span(name)
    } else {
        Span::inert()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_global_span_is_inert() {
        // Note: other tests (or the doctest) may have enabled the
        // global tracer; this only checks the inert constructor path.
        let guard = super::Span::inert();
        assert_eq!(guard.id(), 0);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = super::metrics().counter("argo_trace_selftest_total");
        c.inc();
        assert!(super::metrics().counter("argo_trace_selftest_total").get() >= 1);
    }
}
