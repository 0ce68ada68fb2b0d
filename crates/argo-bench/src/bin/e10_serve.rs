//! **E10 — daemon traffic replay**: N concurrent clients replay a
//! mixed hot/cold request trace against an `argo-serve` daemon and
//! report request-latency percentiles and throughput.
//!
//! The trace has two passes over D distinct compile requests:
//!
//! * **cold** — every client sends all D requests concurrently. The
//!   single-flight layer and the shared store guarantee the pipeline
//!   runs exactly once per distinct fingerprint, however the N·D
//!   arrivals interleave.
//! * **hot** — every client replays the same D requests again. Every
//!   one is answered without a pipeline stage (point-archive hit or
//!   coalesced onto one), which the driver asserts as a 100% combined
//!   store-hit rate on repeats.
//!
//! By default the daemon is booted in-process over a throwaway store;
//! `--connect ADDR` replays against an external daemon instead (the
//! assertions then use stats-counter *deltas*, so a pre-warmed daemon
//! is fine — the cold pass simply finds fewer fresh fingerprints).
//!
//! ```text
//! e10_serve [--clients N] [--connect ADDR]
//! ```
//!
//! Exits non-zero if any invariant fails.

use argo_bench::PassReport;
use argo_serve::{Client, Listener, ServeConfig, Server, Value};
use std::time::Instant;

/// Pipeline/store counters scraped from a `stats` response.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    backend_runs: u64,
    point_store_hits: u64,
    point_store_misses: u64,
}

fn stats_counters(addr: &str) -> Counters {
    let mut client = Client::connect_tcp(addr).expect("connect for stats");
    let reply = client
        .request(r#"{"id": 0, "kind": "stats"}"#)
        .expect("stats roundtrip");
    let frame = reply.frame().expect("stats frame parses");
    let result = frame.get("result").expect("stats result");
    let field = |obj: &Value, key: &str| obj.get(key).and_then(Value::as_u64).unwrap_or(0);
    let stages = result.get("stages").expect("stages");
    let cache = result.get("cache").expect("cache");
    Counters {
        backend_runs: field(stages, "backend_runs"),
        point_store_hits: field(cache, "point_store_hits"),
        point_store_misses: field(cache, "point_store_misses"),
    }
}

/// One replay pass: every client sends every request once,
/// concurrently. Returns all per-request latencies in nanoseconds.
fn replay_pass(addr: &str, clients: usize, requests: &[String]) -> Vec<u64> {
    let all: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect_tcp(addr).expect("client connects");
                    requests
                        .iter()
                        .map(|request| {
                            let t0 = Instant::now();
                            let reply = client.request(request).expect("request roundtrip");
                            assert!(reply.is_ok(), "request failed: {}", reply.terminal);
                            t0.elapsed().as_nanos() as u64
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    all.into_iter().flatten().collect()
}

fn main() {
    let mut clients = 4usize;
    let mut connect: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => clients = args.next().expect("--clients N").parse().expect("number"),
            "--connect" => connect = Some(args.next().expect("--connect ADDR")),
            other => {
                eprintln!("usage: e10_serve [--clients N] [--connect ADDR]");
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    // Boot in-process over a throwaway store unless pointed elsewhere.
    let mut temp_store = None;
    let (addr, server) = match connect {
        Some(addr) => (addr, None),
        None => {
            let dir = std::env::temp_dir().join(format!("argo-e10-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = argo_store::Store::open(&dir).expect("store opens");
            let explorer =
                argo_dse::Explorer::with_threads(2).with_store(std::sync::Arc::new(store));
            let server = Server::start(
                Listener::tcp("127.0.0.1:0").expect("bind"),
                explorer,
                ServeConfig::default(),
            )
            .expect("server starts");
            temp_store = Some(dir);
            (server.addr().to_string(), Some(server))
        }
    };

    let requests = argo_bench::replay_requests();
    let distinct = requests.len();
    println!(
        "e10_serve: {clients} clients × {distinct} distinct requests, cold+hot replay \
         against {addr}"
    );

    let before = stats_counters(&addr);

    let t0 = Instant::now();
    let mut cold_lat = replay_pass(&addr, clients, &requests);
    let cold_wall = t0.elapsed().as_nanos() as u64;
    let after_cold = stats_counters(&addr);

    let t0 = Instant::now();
    let mut hot_lat = replay_pass(&addr, clients, &requests);
    let hot_wall = t0.elapsed().as_nanos() as u64;
    let after_hot = stats_counters(&addr);

    // Invariant 1: one pipeline execution per distinct fresh
    // fingerprint, no matter how the N·D cold arrivals interleaved.
    let cold_runs = after_cold.backend_runs - before.backend_runs;
    let cold_misses = after_cold.point_store_misses - before.point_store_misses;
    assert_eq!(
        cold_runs, cold_misses,
        "every archive miss must trigger exactly one pipeline execution"
    );
    assert!(
        cold_runs <= distinct as u64,
        "more pipeline executions ({cold_runs}) than distinct fingerprints ({distinct})"
    );
    if server.is_some() {
        assert_eq!(
            cold_runs, distinct as u64,
            "a fresh store must execute each distinct fingerprint exactly once"
        );
    }

    // Invariant 2: the hot pass never reaches the pipeline — zero new
    // archive misses, zero new stage runs: 100% combined store hits.
    let hot_runs = after_hot.backend_runs - after_cold.backend_runs;
    let hot_misses = after_hot.point_store_misses - after_cold.point_store_misses;
    assert_eq!(hot_runs, 0, "hot pass must not run the pipeline");
    assert_eq!(hot_misses, 0, "hot pass must not miss the archive");
    let hot_hits = after_hot.point_store_hits - after_cold.point_store_hits;

    let cold = PassReport::of(&mut cold_lat, cold_wall);
    let hot = PassReport::of(&mut hot_lat, hot_wall);
    cold.print(
        "cold",
        &format!("pipeline executions: {cold_runs} (one per distinct fingerprint)"),
    );
    hot.print(
        "hot ",
        &format!("combined store hits on repeats: 100% ({hot_hits} archive hits, 0 misses)"),
    );

    if let Some(server) = server {
        let mut client = Client::connect_tcp(&addr).expect("connect for shutdown");
        client
            .request(r#"{"id": 0, "kind": "shutdown"}"#)
            .expect("shutdown");
        server.join();
    }
    if let Some(dir) = temp_store {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
