//! **E13 — chaos replay**: the e10 traffic pattern replayed against a
//! daemon whose store runs on a seeded fault-injection backend
//! ([`argo_chaos::ChaosIo`]), plus a panic-isolation phase and a
//! drain/restart phase over a shared store.
//!
//! Three phases, each with hard invariants (any violation panics, so
//! the driver exits non-zero):
//!
//! 1. **faulty** — N retrying clients × R rounds of the D distinct
//!    compile requests against an io-storm store (write/torn/rename/
//!    read errors + latency). Every reply must be `ok` and
//!    byte-identical to a fault-free reference daemon's reply: injected
//!    store faults may only surface as counted misses, never as wrong
//!    data, an unstructured failure, or a daemon crash.
//! 2. **panic isolation** — a store that injects read-path panics. Each
//!    injected panic must come back as exactly one structured
//!    `internal-error` frame; everything else stays byte-identical, and
//!    the daemon keeps serving afterwards.
//! 3. **restart** — traffic through a `RetryClient` spanning a graceful
//!    drain of daemon A and a warm boot of daemon B on the same Unix
//!    socket and store directory. The retried replies must be
//!    byte-identical to daemon A's, and daemon B must answer them
//!    without a single pipeline stage (100% warm-start archive hits).
//!
//! ```text
//! e13_chaos [--clients N] [--rounds R] [--seed S] [--rate PERMILLE] [--merge PATH]
//! ```
//!
//! `--merge` appends/replaces `e13_chaos_faulty` / `e13_chaos_restart`
//! rows in a `bench_hotpaths` output file, preserving every other row.

use argo_bench::hotpaths::{merge_rows, PassReport};
use argo_chaos::{ChaosIo, FaultPlan};
use argo_serve::{
    Client, Listener, RetryClient, RetryPolicy, ServeConfig, Server, ServerHandle, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boots an in-process daemon over `store` (TCP on an OS port).
fn boot_tcp(store: argo_store::Store) -> ServerHandle {
    let explorer = argo_dse::Explorer::with_threads(2).with_store(Arc::new(store));
    Server::start(
        Listener::tcp("127.0.0.1:0").expect("bind"),
        explorer,
        ServeConfig::default(),
    )
    .expect("server starts")
}

fn shutdown_tcp(server: ServerHandle) {
    let mut client = Client::connect_tcp(server.addr()).expect("connect for shutdown");
    let _ = client.request(r#"{"id": 0, "kind": "shutdown"}"#);
    server.join();
}

/// The error code of an error frame, if `line` is one.
fn error_code(line: &str) -> Option<String> {
    if !line.starts_with("{\"frame\":\"error\"") {
        return None;
    }
    let frame = Value::parse(line).ok()?;
    Some(
        frame
            .get("error")?
            .get("code")?
            .as_str()
            .unwrap_or("<non-string code>")
            .to_string(),
    )
}

/// Fault-free reference bodies: request line → terminal frame line.
fn reference_bodies(requests: &[String]) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("argo-e13-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = argo_store::Store::open(&dir).expect("reference store opens");
    let server = boot_tcp(store);
    let mut client = Client::connect_tcp(server.addr()).expect("reference client");
    let bodies = requests
        .iter()
        .map(|request| {
            let reply = client.request(request).expect("reference roundtrip");
            assert!(
                reply.is_ok(),
                "reference request failed: {}",
                reply.terminal
            );
            reply.terminal
        })
        .collect();
    drop(client);
    shutdown_tcp(server);
    let _ = std::fs::remove_dir_all(&dir);
    bodies
}

/// Phase 1: concurrent retrying clients against an io-storm store.
/// Returns the latency report. Panics on any wrong-data event.
fn faulty_phase(
    requests: &[String],
    reference: &[String],
    clients: usize,
    rounds: usize,
    seed: u64,
    rate: u16,
) -> PassReport {
    let dir = std::env::temp_dir().join(format!("argo-e13-faulty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = Arc::new(ChaosIo::new(FaultPlan {
        latency_sleep: Duration::from_micros(200),
        ..FaultPlan::io_storm(seed, rate)
    }));
    let store = argo_store::Store::open_with_io(&dir, io.clone() as Arc<dyn argo_store::IoBackend>)
        .expect("chaos store opens");
    let server = boot_tcp(store);
    let addr = server.addr().to_string();

    let t0 = Instant::now();
    let all: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = RetryClient::tcp(
                        addr,
                        RetryPolicy {
                            seed: seed ^ c as u64,
                            ..RetryPolicy::default()
                        },
                    );
                    let mut latencies = Vec::new();
                    for _ in 0..rounds {
                        for (i, request) in requests.iter().enumerate() {
                            let t = Instant::now();
                            let reply = client.request(request).expect("chaos roundtrip");
                            latencies.push(t.elapsed().as_nanos() as u64);
                            // Zero tolerance: under a no-panic storm,
                            // every reply is ok and byte-identical.
                            assert_eq!(
                                reply.terminal, reference[i],
                                "wrong data under chaos (client {c})"
                            );
                        }
                    }
                    latencies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut latencies: Vec<u64> = all.into_iter().flatten().collect();

    // The daemon is alive and the store shows the faults as counted
    // misses/write-errors, not as anything the client could observe.
    let mut client = Client::connect_tcp(&addr).expect("post-chaos stats connect");
    let reply = client
        .request(r#"{"id": 0, "kind": "stats"}"#)
        .expect("daemon alive after chaos");
    assert!(reply.is_ok(), "stats after chaos: {}", reply.terminal);
    let injected = io.injected();
    assert!(
        injected.total() > 0,
        "the storm injected nothing — rate {rate} too low for this trace"
    );
    drop(client);
    shutdown_tcp(server);
    let _ = std::fs::remove_dir_all(&dir);

    let report = PassReport::of(&mut latencies, wall_ns);
    println!(
        "faulty: injected faults: {} write, {} torn, {} rename, {} read, {} delayed \
         — all absorbed",
        injected.write_errors,
        injected.torn_writes,
        injected.rename_errors,
        injected.read_errors,
        injected.latencies
    );
    report
}

/// Phase 2: a read-path panic store. One sequential client; every
/// injected panic must surface as exactly one `internal-error` frame.
fn panic_phase(requests: &[String], reference: &[String], rounds: usize, seed: u64) {
    let dir = std::env::temp_dir().join(format!("argo-e13-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = Arc::new(ChaosIo::new(FaultPlan {
        panic: 400,
        ..FaultPlan::quiet(seed)
    }));
    let store = argo_store::Store::open_with_io(&dir, io.clone() as Arc<dyn argo_store::IoBackend>)
        .expect("panic store opens");
    let server = boot_tcp(store);
    let mut client = Client::connect_tcp(server.addr()).expect("panic-phase client");

    let mut by_code: BTreeMap<String, u64> = BTreeMap::new();
    let mut ok = 0u64;
    for _ in 0..rounds {
        for (i, request) in requests.iter().enumerate() {
            let reply = client.request(request).expect("panic-phase roundtrip");
            match error_code(&reply.terminal) {
                Some(code) => {
                    assert!(
                        code == "internal-error" || code == "leader-failed",
                        "unexpected error class under panic injection: {}",
                        reply.terminal
                    );
                    *by_code.entry(code).or_default() += 1;
                }
                None => {
                    assert_eq!(
                        reply.terminal, reference[i],
                        "wrong data under panic injection"
                    );
                    ok += 1;
                }
            }
        }
    }
    let errors: u64 = by_code.values().sum();
    let injected = io.injected().panics;
    assert_eq!(
        errors, injected,
        "each injected panic must yield exactly one structured error frame"
    );

    // Still serving: the panics were isolated per request.
    let reply = client
        .request(r#"{"id": 0, "kind": "stats"}"#)
        .expect("daemon alive after panics");
    assert!(reply.is_ok());
    drop(client);
    shutdown_tcp(server);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "panic : {injected} injected panics -> {errors} structured error frames \
         ({} ok replies, zero crashes)",
        ok
    );
}

/// Phase 3 (Unix only): a retrying client rides out a graceful drain
/// of daemon A and a warm restart as daemon B on the same socket path
/// and store directory. Returns the replay latency report.
#[cfg(unix)]
fn restart_phase(requests: &[String], seed: u64) -> PassReport {
    let dir = std::env::temp_dir().join(format!("argo-e13-restart-{}", std::process::id()));
    let sock = std::env::temp_dir().join(format!("argo-e13-{}.sock", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sock_str = sock.to_str().expect("utf-8 socket path").to_string();

    let boot = |dir: &std::path::Path| {
        let store = argo_store::Store::open(dir).expect("restart store opens");
        let explorer = argo_dse::Explorer::with_threads(2).with_store(Arc::new(store));
        Server::start(
            Listener::unix(&sock_str).expect("bind unix"),
            explorer,
            ServeConfig::default(),
        )
        .expect("server starts")
    };

    // Daemon A: cold pass, recording the canonical bodies.
    let server_a = boot(&dir);
    let mut client = Client::connect_unix(&sock_str).expect("cold client");
    let cold: Vec<String> = requests
        .iter()
        .map(|request| {
            let reply = client.request(request).expect("cold roundtrip");
            assert!(reply.is_ok(), "cold request failed: {}", reply.terminal);
            reply.terminal
        })
        .collect();
    drop(client);

    // Replay through a RetryClient while A drains and B boots. The
    // drain window hands out transport errors (EOF/refused) and
    // `shutting-down` frames; both must resolve to byte-identical
    // replies once B is up.
    let t0 = Instant::now();
    let (latencies, server_b) = std::thread::scope(|scope| {
        let replayer = scope.spawn(|| {
            let mut client = RetryClient::unix(
                &sock_str,
                RetryPolicy {
                    attempts: 60,
                    base: Duration::from_millis(5),
                    cap: Duration::from_millis(100),
                    seed,
                },
            );
            let mut latencies = Vec::new();
            for (i, request) in requests.iter().enumerate() {
                let t = Instant::now();
                loop {
                    let reply = client.request(request).expect("replay roundtrip");
                    // A terminal `shutting-down` frame is the drain
                    // talking; resend until the fresh daemon answers.
                    if error_code(&reply.terminal).as_deref() == Some("shutting-down") {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    assert_eq!(
                        reply.terminal, cold[i],
                        "retried reply across restart must be byte-identical"
                    );
                    break;
                }
                latencies.push(t.elapsed().as_nanos() as u64);
            }
            latencies
        });
        // Drain A mid-replay, then boot B over the same socket + store.
        std::thread::sleep(Duration::from_millis(10));
        server_a.shutdown();
        server_a.join();
        let server_b = boot(&dir);
        (replayer.join().unwrap(), server_b)
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;

    // Warm start: B answered every replayed request from the archive.
    let mut client = Client::connect_unix(&sock_str).expect("warm stats client");
    let reply = client
        .request(r#"{"id": 0, "kind": "stats"}"#)
        .expect("stats roundtrip");
    let frame = reply.frame().expect("stats frame parses");
    let stages = frame
        .get("result")
        .and_then(|r| r.get("stages"))
        .expect("stages");
    let backend_runs = stages
        .get("backend_runs")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    assert_eq!(
        backend_runs, 0,
        "daemon B must warm-start: zero pipeline stages on the replay"
    );
    let _ = client.request(r#"{"id": 0, "kind": "shutdown"}"#);
    drop(client);
    server_b.join();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&sock);

    let mut latencies = latencies;
    PassReport::of(&mut latencies, wall_ns)
}

fn main() {
    let mut clients = 3usize;
    let mut rounds = 3usize;
    let mut seed = 7u64;
    let mut rate = 150u16;
    let mut merge: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => clients = args.next().expect("--clients N").parse().expect("number"),
            "--rounds" => rounds = args.next().expect("--rounds R").parse().expect("number"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("number"),
            "--rate" => {
                rate = args
                    .next()
                    .expect("--rate PERMILLE")
                    .parse()
                    .expect("number")
            }
            "--merge" => merge = Some(args.next().expect("--merge PATH")),
            other => {
                eprintln!(
                    "usage: e13_chaos [--clients N] [--rounds R] [--seed S] \
                     [--rate PERMILLE] [--merge PATH]"
                );
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let requests = argo_bench::replay_requests();
    println!(
        "e13_chaos: {clients} clients × {rounds} rounds × {} distinct requests, \
         seed {seed}, storm rate {rate}‰",
        requests.len()
    );

    let reference = reference_bodies(&requests);
    let faulty = faulty_phase(&requests, &reference, clients, rounds, seed, rate);
    faulty.print("faulty", "zero wrong-data events, zero crashes");
    panic_phase(&requests, &reference, rounds, seed);

    #[cfg(unix)]
    let restart = Some(restart_phase(&requests, seed));
    #[cfg(not(unix))]
    let restart: Option<PassReport> = None;
    if let Some(restart) = &restart {
        restart.print(
            "restart",
            "byte-identical across drain + warm boot, zero pipeline stages on replay",
        );
    }

    if let Some(path) = merge {
        let mut rows = vec![faulty.row("e13_chaos_faulty")];
        rows.extend(restart.map(|r| r.row("e13_chaos_restart")));
        merge_rows(&path, "e13_chaos_", &rows)
            .unwrap_or_else(|e| panic!("merging into {path}: {e}"));
        eprintln!("merged e13 rows into {path}");
    }
    println!("e13_chaos: all chaos invariants held");
}
