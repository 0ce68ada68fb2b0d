//! `perfbench` — the ARGO toolflow benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: set-up (repeated, timed), a timed
//! phase with tracing off, then a check of every output against an
//! independent oracle. With `--trace 1` a second, traced timed phase
//! follows the untraced one and the per-layer metrics are reported in
//! place of the end-to-end ones. The metric names, units and
//! directions live in `BENCHMARK.json`, which the benchmark reads, so
//! the document and the output cannot drift apart.
//!
//! The last stdout line is one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`; the lines before it record the environment
//! and every metric with its sample count. A failed check makes
//! `correct` false and the exit code 1.

mod check;
mod clock;
mod compile;
mod serve;
mod stats;
mod sweep;

use argo::serve::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What one invocation was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Process start, for the first set-up repetition.
    pub started: Instant,
}

/// What a workload reports: op counts and named metric values with
/// their sample counts.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Free-form lines printed before the metric table.
    pub notes: Vec<String>,
    failed_checks: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Records a failed check: counted against `success_share` and
    /// printed to stderr (the first few of each run).
    pub fn fail(&mut self, ops: u64, why: impl std::fmt::Display) {
        if ops == 0 {
            return;
        }
        if self.failed_checks < 5 {
            eprintln!("check failed ({ops} ops): {why}");
        }
        self.failed_checks += 1;
        self.failed += ops;
    }
}

/// One metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    better: String,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1), started) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload compile|sweep|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let (workload, run) = args;
    let declared = match declared_metrics() {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };

    let outcome = match workload.as_str() {
        "compile" => compile::run(&run),
        "sweep" => sweep::run(&run),
        "serve" => serve::run(&run),
        other => unreachable!("workload `{other}` passed argument checks"),
    };
    report(&workload, &run, &declared, outcome)
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
    started: Instant,
) -> Result<(String, Run), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("`{flag} {value}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["compile", "sweep", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let run = Run {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        started,
    };
    Ok((workload, run))
}

/// The repository checkout the benchmark was built in.
fn checkout() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
}

/// The `end_to_end` and `per_layer` metric lists of `BENCHMARK.json`,
/// read with the daemon's own JSON reader.
fn declared_metrics() -> Result<[Vec<Declared>; 2], String> {
    let path = checkout().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|m| {
                Some(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: field(m, "better")?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or(format!(
                "BENCHMARK.json `{key}` entries need name, unit and better"
            ))
    };
    Ok([list("end_to_end")?, list("per_layer")?])
}

/// A workload's set-up, timed [`SETUP_REPS`] times per run: once from
/// process start, giving the state the timed phases use, and again
/// after them, each repeat dropped at once. `setup_s` is the median of
/// the host-speed-scaled times (see [`clock`]).
///
/// Timing from process start counts process and input start-up; the
/// repeats catch work moved into set-up without resting on one cold
/// start; and running them last leaves the allocator state the timed
/// phases saw untouched, so `peak_rss_mb` does not depend on them.
pub struct SetUp<F> {
    set_up: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetUp<F> {
    /// Runs the first set-up, timed from process start.
    pub fn first(run: &Run, mut set_up: F) -> (T, SetUp<F>) {
        let state = set_up();
        let raw = run.started.elapsed().as_secs_f64();
        let after = clock::probe_s(3);
        let times = vec![raw * clock::scale(after, after)];
        (state, SetUp { set_up, times })
    }

    /// Runs the remaining repetitions and returns `(median seconds,
    /// repetitions)`.
    pub fn median_s(mut self) -> (f64, usize) {
        while self.times.len() < SETUP_REPS {
            let before = clock::probe_s(3);
            let t0 = Instant::now();
            let state = (self.set_up)();
            let raw = t0.elapsed().as_secs_f64();
            self.times
                .push(raw * clock::scale(before, clock::probe_s(3)));
            drop(state);
        }
        eprintln!("set-up repetitions (s): {:?}", self.times);
        (stats::median(&self.times), self.times.len())
    }
}

/// Switches on span recording and the gated hot-path metrics.
pub fn enable_tracing() {
    argo::trace::enable_spans();
    argo::trace::enable_metrics();
}

/// `(count, mean ms)` of the recorded spans named `name`.
pub fn span_mean_ms(records: &[argo::trace::SpanRecord], name: &str) -> (usize, f64) {
    let durations: Vec<f64> = records
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_ns as f64 / 1e6)
        .collect();
    let mean = durations.iter().sum::<f64>() / durations.len().max(1) as f64;
    (durations.len(), mean)
}

/// Writes the traced phase's Chrome trace and flame summary under
/// `perfbench/out/` and adds the summary and file names to the notes.
pub fn export_trace(workload: &str, outcome: &mut Outcome) {
    let tracer = argo::trace::global();
    let records = tracer.snapshot();
    if tracer.evicted() > 0 {
        outcome.notes.push(format!(
            "{} spans were evicted from the trace ring; the export holds the latest {}",
            tracer.evicted(),
            records.len()
        ));
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let chrome = dir.join(format!("{workload}-trace.json"));
    let flame = dir.join(format!("{workload}-flame.txt"));
    let summary = argo::trace::flame_summary(&records, 16);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&chrome, argo::trace::chrome_trace(&records)))
        .and_then(|()| std::fs::write(&flame, &summary));
    match written {
        Ok(()) => outcome.notes.push(format!(
            "trace: {} spans -> {} and {}",
            records.len(),
            chrome.display(),
            flame.display()
        )),
        Err(e) => outcome.notes.push(format!("trace export failed: {e}")),
    }
    outcome
        .notes
        .extend(summary.lines().map(|line| format!("  {line}")));
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = checkout().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|rev| rev.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Prints the environment, notes and metric table, then the JSON
/// result line, and picks the exit code.
fn report(
    workload: &str,
    run: &Run,
    declared: &[Vec<Declared>; 2],
    mut outcome: Outcome,
) -> ExitCode {
    let [end_to_end, per_layer] = declared;
    let shown = if run.trace { per_layer } else { end_to_end };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} nproc={nproc} git={}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        git_revision()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }

    let attempted = outcome.attempted.max(1);
    let mut failed = outcome.failed.min(attempted);
    if !run.trace {
        let ok = (attempted - failed) as f64 / attempted as f64;
        outcome.set("success_share", ok, attempted as usize);
    }
    let mut json = Vec::new();
    println!(
        "# {:<38} {:>16} {:<10} {:>8}  better",
        "metric", "value", "unit", "samples"
    );
    for m in shown {
        let (value, samples) = match outcome.metrics.get(m.name.as_str()) {
            Some(&(value, samples)) if value.is_finite() => (value, Some(samples)),
            Some(_) => {
                eprintln!("metric {} is not a finite number", m.name);
                failed = failed.max(1);
                (0.0, None)
            }
            // Every traced run lists every per-layer metric; one that is
            // not on this workload's path did no work here and reads 0.
            None if run.trace => (0.0, None),
            None => {
                eprintln!("workload {workload} does not measure {}", m.name);
                failed = failed.max(1);
                (0.0, None)
            }
        };
        let samples = samples.map_or("n/a".to_string(), |s| s.to_string());
        println!(
            "# {:<38} {:>16.6} {:<10} {:>8}  {}",
            m.name, value, m.unit, samples, m.better
        );
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for name in outcome.metrics.keys() {
        if !end_to_end.iter().chain(per_layer).any(|m| m.name == *name) {
            eprintln!("metric {name} is measured but not declared in BENCHMARK.json");
            failed = failed.max(1);
        }
    }

    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
