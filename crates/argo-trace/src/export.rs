//! Exporters: Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and a text flame summary (top-N self-time by
//! span name).

use crate::json::escape;
use crate::span::{thread_names, SpanRecord};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders records as Chrome trace-event JSON: one complete (`"ph":
/// "X"`) event per span — balanced by construction, unlike paired B/E
/// events — plus one `thread_name` metadata event per recording
/// thread. Timestamps are microseconds since the tracer's epoch.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in thread_names() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&name)
        );
    }
    for r in records {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            r.thread,
            escape(&r.name),
            r.start_ns as f64 / 1_000.0,
            r.dur_ns as f64 / 1_000.0,
            r.id,
            r.parent,
        );
    }
    out.push_str("]}");
    out
}

/// Writes the global tracer's spans as Chrome trace JSON to `path` and
/// prints their top-12 flame summary to stderr: what `--trace PATH`
/// does on `argo-dse explore`, `argo-verify` and `argo-serve`.
pub fn write_trace(path: &std::path::Path) -> std::io::Result<()> {
    let records = crate::global().snapshot();
    std::fs::write(path, chrome_trace(&records))?;
    eprint!("{}", flame_summary(&records, 12));
    Ok(())
}

/// Per-name totals in a flame summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameRow {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Total (inclusive) nanoseconds.
    pub total_ns: u64,
    /// Self (exclusive) nanoseconds: total minus the time of child
    /// spans *present in the snapshot* (an evicted child's time stays
    /// attributed to its parent).
    pub self_ns: u64,
}

/// Aggregates records by name into self/total time, sorted by self
/// time descending. Parent ids that don't resolve within `records`
/// are treated as roots.
pub fn flame_rows(records: &[SpanRecord]) -> Vec<FlameRow> {
    let ids: HashMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut child_ns: Vec<u64> = vec![0; records.len()];
    for r in records {
        if r.parent != 0 {
            if let Some(&pi) = ids.get(&r.parent) {
                child_ns[pi] += r.dur_ns;
            }
        }
    }
    let mut by_name: HashMap<&str, FlameRow> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        let row = by_name.entry(r.name.as_ref()).or_insert_with(|| FlameRow {
            name: r.name.to_string(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += r.dur_ns;
        row.self_ns += r.dur_ns.saturating_sub(child_ns[i]);
    }
    let mut rows: Vec<FlameRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Renders the top-`n` flame rows as an aligned text table.
pub fn flame_summary(records: &[SpanRecord], n: usize) -> String {
    let rows = flame_rows(records);
    let mut out = format!(
        "flame summary — top {} of {} span names by self time\n{:>12}  {:>12}  {:>7}  name\n",
        n.min(rows.len()),
        rows.len(),
        "self",
        "total",
        "count"
    );
    for row in rows.iter().take(n) {
        let _ = writeln!(
            out,
            "{:>12}  {:>12}  {:>7}  {}",
            fmt_ms(row.self_ns),
            fmt_ms(row.total_ns),
            row.count,
            row.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use std::borrow::Cow;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            thread: 1,
            start_ns: start,
            dur_ns: dur,
            seq: id,
        }
    }

    #[test]
    fn self_time_subtracts_present_children_only() {
        let records = vec![
            rec(1, 2, "child", 100, 400_000),
            rec(2, 0, "parent", 0, 1_000_000),
            // Parent id 99 is not in the snapshot (evicted): treated
            // as a root, charged nowhere.
            rec(3, 99, "orphan", 2_000_000, 300_000),
        ];
        let rows = flame_rows(&records);
        let parent = rows.iter().find(|r| r.name == "parent").unwrap();
        assert_eq!(parent.total_ns, 1_000_000);
        assert_eq!(parent.self_ns, 600_000);
        let orphan = rows.iter().find(|r| r.name == "orphan").unwrap();
        assert_eq!(orphan.self_ns, 300_000);
        let text = flame_summary(&records, 10);
        assert!(text.contains("parent"), "{text}");
        assert!(text.contains("0.600ms"), "{text}");
    }

    #[test]
    fn chrome_trace_is_complete_events() {
        let t = Tracer::new(8);
        t.enable();
        {
            let _a = t.span("outer \"quoted\"");
            let _b = t.span("inner");
        }
        let json = chrome_trace(&t.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ph\":\"M\""), "thread metadata present");
        // Balanced braces/brackets — cheap structural sanity before
        // the real JSON-parse test in tests/trace.rs.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
