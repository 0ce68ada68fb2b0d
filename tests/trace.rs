//! Integration tests for the `argo-trace` observability layer: span
//! well-nestedness under arbitrary trees and ring eviction (proptest),
//! histogram quantiles against a sorted-vector reference, the session
//! driver's stage spans on failing stages, and a Chrome-trace export of
//! a real pipeline run parsed with the `argo-serve` JSON reader.

use argo_adl::Platform;
use argo_core::{CollectingObserver, Diagnostic, ErrorCode, Stage, StageObserver, Toolflow};
use argo_trace::{chrome_trace, Histogram, Tracer, LATENCY_US_BUCKETS};
use proptest::prelude::*;
use std::collections::HashMap;

/// Replays a depth script against a tracer: each entry `d` closes open
/// spans down to depth `d`, then opens one more. Produces an arbitrary
/// well-nested span tree, one record per entry.
fn replay(tracer: &Tracer, depths: &[u8]) {
    let mut stack: Vec<argo_trace::Span<'_>> = Vec::new();
    for &d in depths {
        // Close innermost-first, like the RAII scopes the tracer is
        // used with (Vec::truncate would drop outer spans first).
        let keep = d as usize % (stack.len() + 1);
        while stack.len() > keep {
            stack.pop();
        }
        stack.push(tracer.span(format!("depth-{}", stack.len())));
    }
    while stack.pop().is_some() {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the nesting script, surviving records are well-nested:
    /// any present parent fully contains its present children, and
    /// eviction only ever removes *older* records (a present parent is
    /// never younger than its child).
    #[test]
    fn spans_stay_well_nested_under_ring_eviction(
        depths in proptest::collection::vec(0u8..6, 1..200),
    ) {
        const CAPACITY: usize = 32;
        let tracer = Tracer::new(CAPACITY);
        tracer.enable();
        replay(&tracer, &depths);

        let records = tracer.snapshot();
        prop_assert!(records.len() <= CAPACITY);
        prop_assert_eq!(
            tracer.evicted(),
            depths.len().saturating_sub(CAPACITY) as u64,
            "every record beyond capacity evicts exactly one"
        );

        let mut last_seq = None;
        let by_id: HashMap<u64, &argo_trace::SpanRecord> =
            records.iter().map(|r| (r.id, r)).collect();
        for r in &records {
            if let Some(prev) = last_seq {
                prop_assert!(r.seq > prev, "snapshot is seq-sorted");
            }
            last_seq = Some(r.seq);
            if r.parent == 0 {
                continue; // root
            }
            let Some(parent) = by_id.get(&r.parent) else {
                // Parent evicted: children complete (and are pushed)
                // before parents, so an evicted parent would have to be
                // *younger* than its surviving child — impossible under
                // oldest-first eviction unless the parent is still open
                // (never pushed). Treating the child as a root is safe.
                continue;
            };
            prop_assert!(parent.seq > r.seq, "children close before parents");
            prop_assert!(parent.start_ns <= r.start_ns, "parent starts first");
            prop_assert!(parent.end_ns() >= r.end_ns(), "parent ends last");
            prop_assert_eq!(parent.thread, r.thread, "links never cross threads");
        }
    }

    /// Histogram quantiles track a sorted-vector reference to within
    /// one bucket (the histogram's intrinsic resolution).
    #[test]
    fn histogram_quantiles_track_sorted_reference(
        samples in proptest::collection::vec(0u64..200_000, 1..400),
    ) {
        let h = Histogram::new(LATENCY_US_BUCKETS);
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let reference = sorted[rank - 1];
            // The enclosing bucket of the reference value, widened by
            // one bucket either side (rank rounding can shift the
            // crossing bucket by one sample).
            let idx = LATENCY_US_BUCKETS.partition_point(|&b| b < reference);
            let lo = if idx >= 2 { LATENCY_US_BUCKETS[idx - 2] } else { 0 };
            let hi = LATENCY_US_BUCKETS
                .get(idx + 1)
                .copied()
                .unwrap_or(u64::MAX);
            let got = h.quantile(q);
            prop_assert!(
                got >= lo as f64 && got <= hi as f64,
                "q={q}: got {got}, reference {reference} (bucket window [{lo}, {hi}])"
            );
        }
    }
}

/// Bucket boundaries are `le` (inclusive): a value equal to a bound
/// lands in that bound's bucket, one more spills into the next.
#[test]
fn histogram_bucket_boundaries_are_le_inclusive() {
    let h = Histogram::new(&[10, 100]);
    h.observe(10);
    h.observe(11);
    h.observe(100);
    h.observe(101); // overflow bucket
    let (rows, total) = h.cumulative();
    assert_eq!(rows, vec![(1, 10), (3, 100)]);
    assert_eq!(total, 4, "the 101 observation lands in the overflow bucket");
    assert_eq!(h.count(), 4);
    assert_eq!(h.sum(), 222);
}

/// The session driver's stage guard is the only source of `stage.*`
/// spans. A stage that fails still closes its span, exactly once; a
/// stage that the observer's checkpoint cancels never opens one. Other
/// tests share the global tracer, so only this thread's records count.
#[test]
fn driver_stage_spans_close_on_failure() {
    argo_trace::enable_spans();
    let me = argo_trace::current_thread_id();
    let stage_spans = || -> Vec<String> {
        argo_trace::global()
            .snapshot()
            .into_iter()
            .filter(|r| r.thread == me && r.name.starts_with("stage."))
            .map(|r| r.name.into_owned())
            .collect()
    };
    let program = argo_ir::parse::parse_program(
        "void main(real a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = 1.0; } }",
    )
    .unwrap();
    let platform = Platform::xentium_manycore(2);

    let obs = CollectingObserver::new();
    let err = Toolflow::new(program.clone(), "nonexistent")
        .platform(&platform)
        .observer(&obs)
        .run()
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownEntry);
    assert_eq!(obs.errors().len(), 1, "the failing stage is closed");
    assert_eq!(stage_spans(), vec!["stage.frontend".to_string()]);

    struct Cancelled;
    impl StageObserver for Cancelled {
        fn checkpoint(&self, stage: Stage) -> Result<(), Diagnostic> {
            Err(Diagnostic::new(
                stage,
                ErrorCode::DeadlineExceeded,
                "cancelled",
            ))
        }
    }
    let err = Toolflow::new(program, "main")
        .platform(&platform)
        .observer(&Cancelled)
        .run()
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    assert_eq!(
        stage_spans(),
        vec!["stage.frontend".to_string()],
        "a cancelled stage records no span"
    );
}

/// A Chrome trace exported from a real end-to-end run (the e1 toolflow
/// experiment with the global tracer enabled) is valid JSON whose
/// events are all complete `X` (or metadata `M`) events — balanced by
/// construction — and whose names cover the pipeline stages.
#[test]
fn chrome_export_of_e1_run_is_valid_and_complete() {
    argo_trace::enable_spans();
    let csv = argo_bench::e1_toolflow();
    assert!(csv.contains('\n'), "e1 produced a report");

    let records = argo_trace::global().snapshot();
    assert!(!records.is_empty(), "the run recorded spans");
    let json = chrome_trace(&records);
    let doc = argo_serve::Value::parse(&json).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .expect("top-level traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());

    let mut names = Vec::new();
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        match ph {
            "M" => assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name")),
            "X" => {
                assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
                names.push(ev.get("name").unwrap().as_str().unwrap().to_string());
            }
            other => panic!("unexpected event phase {other:?} (only M/X are emitted)"),
        }
    }
    // e1's configuration runs frontend and backend on every point
    // (seed-costs only runs for granularity sweeps that need it).
    for stage in ["stage.frontend", "stage.backend"] {
        assert!(
            names.iter().any(|n| n == stage),
            "missing {stage} span in {names:?}"
        );
    }
}
