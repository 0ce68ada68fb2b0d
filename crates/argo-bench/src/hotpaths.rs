//! The `BENCH_hotpaths.json` perf record: one row type and one writer
//! shared by every binary that reports into it (`bench_hotpaths`,
//! `e10_serve`, `e13_chaos`).
//!
//! The file is a fixed-layout JSON object with one row per line under
//! `"benches"`. Each binary owns some of the rows and [`merge_rows`]
//! rewrites only those, so running one binary never drops another's
//! rows.

use std::fmt::Write as _;

/// The file a fresh merge starts from: schema header, no rows.
const EMPTY: &str = "{\n  \"schema\": \"argo-bench/hotpaths-v1\",\n  \"benches\": {\n  }\n}\n";

/// One measured row: median wall time plus derived throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Row key in the `"benches"` object.
    pub name: String,
    /// Median wall time per run (per request for replay passes).
    pub median_ns: u64,
    /// Work items per run (statements, loops, tasks, requests, …).
    pub items: u64,
    /// Unit of `items`.
    pub unit: &'static str,
    /// Items per second.
    pub throughput_per_s: f64,
    /// Trailing fields after `throughput_per_s`, in order, with their
    /// values already rendered as JSON numbers.
    pub extra: Vec<(&'static str, String)>,
}

impl BenchRow {
    /// A bench that processes `items` per run in a median of
    /// `median_ns`, with its throughput derived from both.
    pub fn timed(name: &str, median_ns: u64, items: u64, unit: &'static str) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            median_ns,
            items,
            unit,
            throughput_per_s: items as f64 / (median_ns as f64 * 1e-9),
            extra: Vec::new(),
        }
    }

    /// The row's line in the file, without the separating comma.
    fn render(&self) -> String {
        let mut line = format!(
            "    \"{}\": {{\"median_ns\": {}, \"items\": {}, \"unit\": \"{}\", \
             \"throughput_per_s\": {:.1}",
            self.name, self.median_ns, self.items, self.unit, self.throughput_per_s
        );
        for (key, value) in &self.extra {
            let _ = write!(line, ", \"{key}\": {value}");
        }
        line.push('}');
        line
    }
}

/// Latency summary of one request-replay pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassReport {
    /// Requests completed in the pass.
    pub requests: usize,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Median per-request latency.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency.
    pub p99_ns: u64,
}

impl PassReport {
    /// Summarizes per-request `latencies` (sorted in place) of a pass
    /// that took `wall_ns`.
    ///
    /// # Panics
    ///
    /// Panics when `latencies` is empty.
    pub fn of(latencies: &mut [u64], wall_ns: u64) -> PassReport {
        latencies.sort_unstable();
        let n = latencies.len();
        PassReport {
            requests: n,
            wall_ns,
            p50_ns: latencies[n / 2],
            p99_ns: latencies[(n * 99 / 100).min(n - 1)],
        }
    }

    /// Completed requests per second of pass wall time.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / (self.wall_ns as f64 * 1e-9)
    }

    /// Prints the one-line pass summary to stdout.
    pub fn print(&self, label: &str, detail: &str) {
        println!(
            "{label}: {} requests in {:.1} ms   p50 {:.1} us   p99 {:.1} us   \
             throughput {:.1} req/s   {detail}",
            self.requests,
            self.wall_ns as f64 / 1e6,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.throughput(),
        );
    }

    /// The pass as a perf-record row: p50 as `median_ns`, plus `p99_ns`.
    pub fn row(&self, name: &str) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            median_ns: self.p50_ns,
            items: self.requests as u64,
            unit: "requests",
            throughput_per_s: self.throughput(),
            extra: vec![("p99_ns", self.p99_ns.to_string())],
        }
    }
}

/// The key of a row line (`    "name": {...}`).
fn row_name(line: &str) -> Option<&str> {
    line.trim_start().strip_prefix('"')?.split('"').next()
}

/// Writes `rows` into the perf record at `path`, replacing only the
/// caller's own rows: those named like one of `rows` and, when
/// `row_prefix` is not empty, every row whose name starts with it (so a
/// row the caller no longer emits does not linger). An owned row is
/// replaced where it stands, new rows are appended, and every other row
/// is kept byte for byte. A missing file is created.
///
/// # Errors
///
/// Fails when the file cannot be read or written, or when it is not
/// laid out the way this writer lays it out.
pub fn merge_rows(path: &str, row_prefix: &str, rows: &[BenchRow]) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => EMPTY.to_string(),
        Err(e) => return Err(e),
    };
    let bad_layout = || {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path} is not a bench_hotpaths output"),
        )
    };
    let lines: Vec<&str> = text.lines().collect();
    let open = lines
        .iter()
        .position(|l| l.trim() == "\"benches\": {")
        .ok_or_else(bad_layout)?;
    let close = open
        + lines[open..]
            .iter()
            .position(|l| *l == "  }")
            .ok_or_else(bad_layout)?;

    let owns = |name: &str| {
        rows.iter().any(|r| r.name == name)
            || (!row_prefix.is_empty() && name.starts_with(row_prefix))
    };
    let mut body: Vec<String> = Vec::new();
    let mut placed = vec![false; rows.len()];
    for line in &lines[open + 1..close] {
        let name = row_name(line).ok_or_else(bad_layout)?;
        if !owns(name) {
            body.push(line.trim_end_matches(',').to_string());
        } else if let Some(i) = rows.iter().position(|r| r.name == name) {
            if !placed[i] {
                placed[i] = true;
                body.push(rows[i].render());
            }
        }
    }
    for (row, placed) in rows.iter().zip(placed) {
        if !placed {
            body.push(row.render());
        }
    }

    let mut out = String::new();
    for line in &lines[..=open] {
        out.push_str(line);
        out.push('\n');
    }
    let last = body.len().saturating_sub(1);
    for (i, line) in body.iter().enumerate() {
        out.push_str(line);
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    for line in &lines[close..] {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("argo-bench-{tag}-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    const OTHERS: [&str; 3] = [
        "    \"interp_egpws\": {\"median_ns\": 216893, \"items\": 5251, \"unit\": \"stmts\", \"throughput_per_s\": 24210094.4, \"before_median_ns\": 234333, \"speedup\": 1.08}",
        "    \"e10_serve_cold\": {\"median_ns\": 4261274, \"items\": 16, \"unit\": \"requests\", \"throughput_per_s\": 782.8, \"p99_ns\": 9200948}",
        "    \"e10_serve_hot\": {\"median_ns\": 109393, \"items\": 16, \"unit\": \"requests\", \"throughput_per_s\": 9612.2, \"p99_ns\": 1076180}",
    ];

    #[test]
    fn merge_keeps_other_binaries_rows_and_replaces_its_own() {
        let path = temp_path("merge");
        let stale_faulty = "    \"e13_chaos_faulty\": {\"median_ns\": 1, \"items\": 1, \"unit\": \"requests\", \"throughput_per_s\": 1.0, \"p99_ns\": 1}";
        let stale_restart = "    \"e13_chaos_restart\": {\"median_ns\": 2, \"items\": 2, \"unit\": \"requests\", \"throughput_per_s\": 2.0, \"p99_ns\": 2}";
        let file = format!(
            "{{\n  \"schema\": \"argo-bench/hotpaths-v1\",\n  \"benches\": {{\n{},\n{},\n{},\n{},\n{}\n  }}\n}}\n",
            OTHERS[0], stale_faulty, OTHERS[1], stale_restart, OTHERS[2]
        );
        std::fs::write(&path, &file).unwrap();

        // The caller (e13) now emits only its faulty row: it replaces
        // that row in place and drops its stale restart row.
        let faulty = PassReport {
            requests: 36,
            wall_ns: 49_000_000,
            p50_ns: 2_290_714,
            p99_ns: 16_024_358,
        };
        merge_rows(&path, "e13_chaos_", &[faulty.row("e13_chaos_faulty")]).unwrap();
        let merged = std::fs::read_to_string(&path).unwrap();
        let rows: Vec<&str> = merged
            .lines()
            .filter(|l| l.starts_with("    \""))
            .map(|l| l.trim_end_matches(','))
            .collect();
        assert_eq!(
            rows,
            vec![
                OTHERS[0],
                "    \"e13_chaos_faulty\": {\"median_ns\": 2290714, \"items\": 36, \"unit\": \"requests\", \"throughput_per_s\": 734.7, \"p99_ns\": 16024358}",
                OTHERS[1],
                OTHERS[2],
            ]
        );
        assert!(
            merged.starts_with("{\n  \"schema\": \"argo-bench/hotpaths-v1\",\n  \"benches\": {\n")
        );
        assert!(merged.ends_with("p99_ns\": 1076180}\n  }\n}\n"), "{merged}");

        // A caller without a prefix owns exactly the rows it writes; a
        // new row is appended after everyone else's.
        let row = BenchRow::timed("e1_toolflow", 10, 3, "use-cases");
        merge_rows(&path, "", &[row]).unwrap();
        let again = std::fs::read_to_string(&path).unwrap();
        for other in OTHERS {
            assert!(again.contains(other), "lost {other}");
        }
        assert!(again.contains(
            "    \"e1_toolflow\": {\"median_ns\": 10, \"items\": 3, \"unit\": \"use-cases\", \"throughput_per_s\": 300000000.0}\n  }"
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_creates_a_missing_file_and_rejects_foreign_layouts() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let pass = PassReport {
            requests: 4,
            wall_ns: 1_000_000,
            p50_ns: 100,
            p99_ns: 200,
        };
        merge_rows(&path, "e10_serve_", &[pass.row("e10_serve_hot")]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"schema\": \"argo-bench/hotpaths-v1\",\n  \"benches\": {\n    \"e10_serve_hot\": {\"median_ns\": 100, \"items\": 4, \"unit\": \"requests\", \"throughput_per_s\": 4000.0, \"p99_ns\": 200}\n  }\n}\n"
        );
        std::fs::write(&path, "not json\n").unwrap();
        let err = merge_rows(&path, "e10_serve_", &[]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }
}
