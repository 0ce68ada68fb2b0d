//! `argo-store` — inspect and maintain a persistent artifact store.
//!
//! ```sh
//! argo-store stats --dir .argo-store
//! argo-store stats --dir .argo-store --json
//! argo-store ls    --dir .argo-store
//! argo-store gc    --dir .argo-store --budget 67108864
//! argo-store fsck  --dir .argo-store [--repair] [--json]
//! argo-store clear --dir .argo-store
//! ```
//!
//! Exits 0 on success, 2 on usage or I/O errors. `fsck` additionally
//! exits 1 when it finds problems (corrupt, version-skewed or
//! orphan-tmp files), so scripts can gate on store health.

use argo_store::{FsckReport, Store};
use argo_trace::json::escape;
use std::process::ExitCode;
use std::time::SystemTime;

const USAGE: &str = "argo-store — persistent artifact store maintenance

USAGE:
    argo-store stats --dir DIR [--json]  entry count, bytes, counters
    argo-store ls    --dir DIR           all entries, newest-used first
    argo-store gc    --dir DIR --budget BYTES
                                         evict LRU entries over the budget
    argo-store fsck  --dir DIR [--repair] [--json]
                                         audit every entry; exit 1 on findings
    argo-store clear --dir DIR           remove every entry
    argo-store help
";

struct Options {
    dir: String,
    budget: Option<u64>,
    json: bool,
    repair: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut dir = None;
    let mut budget = None;
    let mut json = false;
    let mut repair = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--dir" => dir = Some(value()?.to_string()),
            "--budget" => {
                budget = Some(value()?.parse().map_err(|_| "bad --budget".to_string())?);
            }
            "--json" => json = true,
            "--repair" => repair = true,
            other => return Err(format!("unknown flag `{other}` (see `argo-store help`)")),
        }
    }
    Ok(Options {
        dir: dir.ok_or("missing --dir DIR")?,
        budget,
        json,
        repair,
    })
}

/// One histogram as a JSON fragment: `{"p50_us": …, "p99_us": …,
/// "count": …}`. Quantiles are 0 when the histogram is empty.
fn latency_json(h: &argo_trace::Histogram) -> String {
    format!(
        "{{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"count\": {}}}",
        h.p50(),
        h.p99(),
        h.count()
    )
}

/// `stats --json` output: one machine-readable object, keys matching
/// the `StoreStats`/`StoreCounters` field names, so the `argo-serve`
/// health endpoint and CI scripts can parse counters without scraping
/// the human-readable text. The `latency` object carries this handle's
/// get/put histograms (for a CLI run that means the `stats` walk
/// itself — cold handles start at zero).
fn stats_json(dir: &str, store: &Store) -> String {
    let stats = store.stats();
    let c = stats.counters;
    let get = store
        .registry()
        .get_histogram("argo_store_get_latency_us")
        .expect("store registry always has the get histogram");
    let put = store
        .registry()
        .get_histogram("argo_store_put_latency_us")
        .expect("store registry always has the put histogram");
    format!(
        "{{\"store\": \"{}\", \"entries\": {}, \"bytes\": {}, \"counters\": \
         {{\"hits\": {}, \"misses\": {}, \"corrupt\": {}, \"version_skew\": {}, \
         \"evictions\": {}, \"write_errors\": {}}}, \"latency\": \
         {{\"get\": {}, \"put\": {}}}}}",
        escape(dir),
        stats.entries,
        stats.bytes,
        c.hits,
        c.misses,
        c.corrupt,
        c.version_skew,
        c.evictions,
        c.write_errors,
        latency_json(&get),
        latency_json(&put)
    )
}

/// `fsck --json` output: per-class counts plus the flagged paths.
fn fsck_json(report: &FsckReport) -> String {
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"class\": \"{}\", \"path\": \"{}\"}}",
                f.class.label(),
                escape(&f.path.display().to_string())
            )
        })
        .collect();
    format!(
        "{{\"scanned\": {}, \"valid\": {}, \"corrupt\": {}, \"version_skew\": {}, \
         \"tmp_orphans\": {}, \"repaired\": {}, \"problems\": {}, \"findings\": [{}]}}",
        report.scanned,
        report.valid,
        report.corrupt,
        report.version_skew,
        report.tmp_orphans,
        report.repaired,
        report.problems(),
        findings.join(", ")
    )
}

fn run(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_args(args)?;
    let store = Store::open(&opts.dir).map_err(|e| format!("opening {}: {e}", opts.dir))?;
    match cmd {
        "stats" => {
            if opts.json {
                println!("{}", stats_json(&opts.dir, &store));
                return Ok(ExitCode::SUCCESS);
            }
            let stats = store.stats();
            println!("store: {}", opts.dir);
            println!("entries: {}", stats.entries);
            println!("bytes: {}", stats.bytes);
            let c = stats.counters;
            println!(
                "counters: {} hits, {} misses, {} corrupt, {} version-skew, \
                 {} evictions, {} write-errors",
                c.hits, c.misses, c.corrupt, c.version_skew, c.evictions, c.write_errors
            );
            Ok(ExitCode::SUCCESS)
        }
        "ls" => {
            let now = SystemTime::now();
            for entry in store.ls() {
                let age = now
                    .duration_since(entry.last_used)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                println!(
                    "{:<12} {:016x} {:>10} B  used {age}s ago",
                    entry.namespace, entry.key.0, entry.bytes
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let budget = opts.budget.ok_or("gc needs --budget BYTES")?;
            let gc = store.gc(budget);
            println!(
                "evicted {} entries ({} B), swept {} tmp orphans, {} B remain",
                gc.evicted, gc.reclaimed_bytes, gc.tmp_swept, gc.remaining_bytes
            );
            Ok(ExitCode::SUCCESS)
        }
        "fsck" => {
            let report = store.fsck(opts.repair);
            if opts.json {
                println!("{}", fsck_json(&report));
            } else {
                for finding in &report.findings {
                    println!("{:<12} {}", finding.class.label(), finding.path.display());
                }
                println!(
                    "scanned {} entries: {} valid, {} corrupt, {} version-skew, \
                     {} tmp orphans{}",
                    report.scanned,
                    report.valid,
                    report.corrupt,
                    report.version_skew,
                    report.tmp_orphans,
                    if opts.repair {
                        format!("; repaired {}", report.repaired)
                    } else {
                        String::new()
                    }
                );
            }
            Ok(if report.problems() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "clear" => {
            store
                .clear()
                .map_err(|e| format!("clearing {}: {e}", opts.dir))?;
            println!("cleared {}", opts.dir);
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(cmd) => match run(cmd, &args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("argo-store: {e}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_core::Fingerprint;
    use argo_trace::json::Value;

    #[test]
    fn args_parse() {
        let args: Vec<String> = ["--dir", "/tmp/s", "--budget", "1024"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.dir, "/tmp/s");
        assert_eq!(o.budget, Some(1024));
        assert!(!o.json);
        assert!(!o.repair);
        assert!(parse_args(&[]).is_err(), "--dir is required");
        assert!(parse_args(&["--budget".to_string(), "x".into()]).is_err());
        assert!(parse_args(&["--frob".to_string()]).is_err());

        let args: Vec<String> = ["--dir", "/tmp/s", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).unwrap().json);

        let args: Vec<String> = ["--dir", "/tmp/s", "--repair"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).unwrap().repair);
    }

    /// A fresh store directory whose name needs JSON escaping.
    fn awkward_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "argo-store-{tag}-{}-o'brien \"q\" back\\slash café",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fsck_json_shape() {
        let dir = awkward_dir("fsck");
        let store = Store::open(&dir).unwrap();
        store.put_value("unit", Fingerprint(1), &vec![1u64; 8]);
        let orphan = dir.join("tmp").join("1-0.tmp");
        std::fs::write(&orphan, b"half").unwrap();
        let json = fsck_json(&store.fsck(false));
        assert!(json.contains("\"scanned\": 1"), "{json}");
        assert!(json.contains("\"valid\": 1"), "{json}");
        assert!(json.contains("\"tmp_orphans\": 1"), "{json}");
        assert!(json.contains("\"problems\": 1"), "{json}");
        assert!(json.contains("\"class\": \"tmp-orphan\""), "{json}");
        let doc = Value::parse(&json).expect("fsck --json is valid JSON");
        let findings = doc.get("findings").and_then(Value::as_arr).unwrap();
        assert_eq!(findings.len(), 1, "{json}");
        assert_eq!(
            findings[0].get("path").and_then(Value::as_str),
            Some(orphan.display().to_string().as_str()),
            "the finding path round-trips"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_shape() {
        let dir = awkward_dir("cli");
        let store = Store::open(&dir).unwrap();
        for i in 0..3u64 {
            store.put_value("unit", Fingerprint(i), &vec![i; 8]);
        }
        let _ = store.get_value::<Vec<u64>>("unit", Fingerprint(0));
        let _ = store.get_value::<Vec<u64>>("unit", Fingerprint(9)); // miss
        let dir_text = dir.display().to_string();
        let json = stats_json(&dir_text, &store);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"entries\": 3"), "{json}");
        assert!(json.contains("\"hits\": 1"), "{json}");
        assert!(json.contains("\"misses\": 1"), "{json}");
        assert!(json.contains("\"write_errors\": 0"), "{json}");
        assert!(json.contains("\"latency\""), "{json}");
        assert!(json.contains("\"get\": {\"p50_us\""), "{json}");
        assert!(json.contains("\"put\": {\"p50_us\""), "{json}");
        assert!(
            json.contains("\"count\": 3"),
            "put histogram saw 3 writes: {json}"
        );
        let doc = Value::parse(&json).expect("stats --json is valid JSON");
        assert_eq!(
            doc.get("store").and_then(Value::as_str),
            Some(dir_text.as_str()),
            "the store path round-trips"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
