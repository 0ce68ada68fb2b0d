//! Machine-readable hot-path benchmark harness → `BENCH_hotpaths.json`.
//!
//! Times the inner-loop hot paths of the tool-chain (interpreter
//! statement execution, value-analysis fixpoint, list scheduling, one
//! full post-backend verification pass, one persistent-store round
//! trip of a `BackendResult`, one hot `argo-serve` request/response
//! roundtrip over a local socket) plus the end-to-end e1/e2
//! experiment wall time, and merges one row per bench, with
//! `median_ns` and a derived throughput, into a JSON file whose other
//! rows (those of `e10_serve` and `e13_chaos`) it keeps. When a baseline
//! file is given (`--baseline PATH`, a previous output of this harness),
//! each bench also records `before_median_ns` and the resulting
//! `speedup`, so the perf trajectory of the repo is recorded as data
//! instead of prose.
//!
//! Usage:
//!
//! ```text
//! bench_hotpaths [--out PATH] [--baseline PATH] [--samples N]
//! ```
//!
//! Defaults: `--out BENCH_hotpaths.json`, no baseline, 15 samples for
//! the micro benches (5 for the end-to-end drivers).

use argo_bench::hotpaths::{merge_rows, BenchRow};
use argo_ir::interp::{CountingHook, Interp, NullHook};
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{SchedCtx, Scheduler};
use argo_wcet::value::{loop_bounds, ValueCtx};
use std::time::Instant;

fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_n<F: FnMut()>(samples: usize, mut f: F) -> u64 {
    f(); // warm-up
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_nanos() as u64);
    }
    median_ns(&mut out)
}

fn bench_interp_egpws(samples: usize) -> BenchRow {
    let uc = argo_apps::egpws::use_case(42);
    // Steady state: the resolution is a cached frontend artifact, so
    // the measured quantity is pure statement execution.
    let resolution = argo_ir::resolve::Resolution::of(&uc.program);
    // Count statements once (workload size for the throughput figure).
    let mut counter = CountingHook::default();
    Interp::with_resolution(&uc.program, &resolution)
        .call_full(uc.entry, uc.args.clone(), &mut counter)
        .expect("egpws runs");
    let median = time_n(samples, || {
        let mut interp = Interp::with_resolution(&uc.program, &resolution);
        let out = interp
            .call_full(uc.entry, uc.args.clone(), &mut NullHook)
            .expect("egpws runs");
        std::hint::black_box(out.ret);
    });
    BenchRow::timed("interp_egpws", median, counter.stmts, "stmts")
}

fn bench_value_weaa(samples: usize) -> BenchRow {
    let uc = argo_apps::weaa::use_case(42);
    let ctx = ValueCtx::default();
    let resolution = argo_ir::resolve::Resolution::of(&uc.program);
    let bounds = loop_bounds(&uc.program, uc.entry, &ctx).expect("weaa bounds");
    let median = time_n(samples, || {
        let b = argo_wcet::value::loop_bounds_resolved(&resolution, uc.entry, &ctx)
            .expect("weaa bounds");
        std::hint::black_box(b.len());
    });
    BenchRow::timed("value_weaa", median, bounds.len() as u64, "loops")
}

fn bench_list_1000(samples: usize) -> BenchRow {
    let params = RandomGraphParams {
        tasks: 1000,
        layers: 25,
        ..Default::default()
    };
    let g = random_task_graph(7, &params);
    let platform = argo_adl::Platform::xentium_manycore(4);
    let ctx = SchedCtx::new(&platform);
    let median = time_n(samples, || {
        let s = ListScheduler::new().schedule(&g, &ctx);
        std::hint::black_box(s.makespan());
    });
    BenchRow::timed("sched_list_1000", median, g.len() as u64, "tasks")
}

fn bench_verify(samples: usize) -> BenchRow {
    // Steady state: the pipeline result is compiled once outside the
    // timer; the measured quantity is one full verification pass
    // (race matrix, schedule/placement checks, IR lints).
    let uc = argo_apps::egpws::use_case(42);
    let platform = argo_adl::Platform::xentium_manycore(4);
    let result = argo_core::Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .run()
        .expect("egpws compiles");
    let cfg = argo_verify::VerifyConfig::default();
    let tasks = result.parallel.graph.len() as u64;
    let median = time_n(samples, || {
        let report = argo_verify::verify_backend(&result, &platform, &cfg);
        std::hint::black_box(report.findings.len());
    });
    BenchRow::timed("verify_egpws", median, tasks, "tasks")
}

fn bench_store_roundtrip(samples: usize) -> BenchRow {
    // Steady state: the pipeline result is compiled once outside the
    // timer; the measured quantity is one full persistent-store round
    // trip of a `BackendResult` — serialize, atomic write (tmp +
    // rename + fsync), read back, validate (magic/version/checksum/
    // content fingerprint) and deserialize. This is the per-entry cost
    // a warm-started exploration pays instead of a backend run.
    let uc = argo_apps::egpws::use_case(42);
    let platform = argo_adl::Platform::xentium_manycore(4);
    let result = argo_core::Toolflow::borrowed(&uc.program, uc.entry)
        .platform(&platform)
        .run()
        .expect("egpws compiles");
    let bytes = argo_core::codec::Codec::to_bytes(&result).len() as u64;
    let dir = std::env::temp_dir().join(format!("argo-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = argo_store::Store::open(&dir).expect("store opens");
    let key = argo_core::Fingerprint(0xbe9c);
    let median = time_n(samples, || {
        store.put_artifact("bench", key, &result);
        let back = store
            .get_artifact::<argo_core::BackendResult>("bench", key)
            .expect("entry reads back");
        std::hint::black_box(back.system.bound);
    });
    let _ = std::fs::remove_dir_all(&dir);
    BenchRow::timed("store_roundtrip", median, bytes, "bytes")
}

fn bench_serve_roundtrip(samples: usize) -> BenchRow {
    // Steady state: an in-process `argo-serve` daemon over a populated
    // store; the warm-up request fills the point archive, so the
    // measured quantity is one local-socket request → cached-response
    // roundtrip (wire parse, single-flight entry, archive read,
    // response emit) — the latency a hot client pays per request.
    let dir = std::env::temp_dir().join(format!("argo-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = argo_store::Store::open(&dir).expect("store opens");
    let explorer = argo_dse::Explorer::with_threads(2).with_store(std::sync::Arc::new(store));
    let server = argo_serve::Server::start(
        argo_serve::Listener::tcp("127.0.0.1:0").expect("bind"),
        explorer,
        argo_serve::ServeConfig::default(),
    )
    .expect("server starts");
    let mut client = argo_serve::Client::connect_tcp(server.addr()).expect("connect");
    let request = r#"{"id": 1, "kind": "compile", "app": "egpws", "cores": 2}"#;
    let median = time_n(samples, || {
        let reply = client.request(request).expect("roundtrip");
        assert!(reply.is_ok(), "{}", reply.terminal);
        std::hint::black_box(reply.terminal.len());
    });
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    BenchRow::timed("serve_roundtrip", median, 1, "requests")
}

fn bench_e1(samples: usize) -> BenchRow {
    let median = time_n(samples, || {
        std::hint::black_box(argo_bench::e1_toolflow().len());
    });
    BenchRow::timed("e1_toolflow", median, 3, "use-cases")
}

fn bench_e2(samples: usize) -> BenchRow {
    let median = time_n(samples, || {
        std::hint::black_box(argo_bench::e2_wcet_speedup(&[1, 2, 4]).len());
    });
    BenchRow::timed("e2_wcet_speedup", median, 9, "compiles")
}

/// Extracts `"median_ns": N` for `bench` from a previous harness output
/// (good enough for the fixed format this harness itself writes).
fn baseline_median(baseline: &str, bench: &str) -> Option<u64> {
    let key = format!("\"{bench}\"");
    let obj = &baseline[baseline.find(&key)? + key.len()..];
    let obj = &obj[..obj.find('}')?];
    let field = "\"median_ns\": ";
    let v = &obj[obj.find(field)? + field.len()..];
    let end = v.find(|c: char| !c.is_ascii_digit())?;
    v[..end].parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH_hotpaths.json");
    let mut baseline_path: Option<String> = None;
    let mut samples = 15usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out PATH"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline PATH")),
            "--samples" => samples = args.next().expect("--samples N").parse().expect("number"),
            other => {
                eprintln!("usage: bench_hotpaths [--out PATH] [--baseline PATH] [--samples N]");
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let baseline = baseline_path.map(|p| std::fs::read_to_string(&p).expect("readable baseline"));

    let e2e_samples = samples.div_ceil(3).max(3);
    let mut rows = [
        bench_interp_egpws(samples),
        bench_value_weaa(samples),
        bench_list_1000(samples),
        bench_verify(samples),
        bench_store_roundtrip(samples),
        bench_serve_roundtrip(samples),
        bench_e1(e2e_samples),
        bench_e2(e2e_samples),
    ];

    let mut regressions: Vec<(String, f64)> = Vec::new();
    for row in &mut rows {
        eprintln!(
            "{:<16} median {:>12} ns   ({:.1} {}/s)",
            row.name, row.median_ns, row.throughput_per_s, row.unit
        );
        if let Some(before) = baseline
            .as_deref()
            .and_then(|b| baseline_median(b, &row.name))
        {
            let speedup = before as f64 / row.median_ns.max(1) as f64;
            row.extra.push(("before_median_ns", before.to_string()));
            row.extra.push(("speedup", format!("{speedup:.2}")));
            if speedup < 0.9 {
                regressions.push((row.name.clone(), speedup));
            }
        }
    }
    // The rows share no name prefix: this binary owns exactly the rows
    // it writes.
    merge_rows(&out_path, "", &rows).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("merged {} rows into {out_path}", rows.len());
    for (name, speedup) in &regressions {
        eprintln!(
            "WARNING: {name} regressed to {speedup:.2}x of the baseline \
             (>10% slower) — rerun on a quiet machine, then profile \
             (`--trace` flame summary) before accepting the new numbers"
        );
    }
}
