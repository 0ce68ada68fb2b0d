//! Integration tests for the `argo-serve` daemon: wire-protocol
//! roundtrips, single-flight dedupe of concurrent identical requests,
//! hot replay through a shared persistent store, admission control,
//! and the hardening paths — panic isolation, deadlines, graceful
//! drain, and retry across a daemon restart.

use argo_dse::Explorer;
use argo_ir::parse::parse_program;
use argo_serve::{
    Client, Listener, RetryClient, RetryPolicy, ServeConfig, Server, ServerHandle, Value,
};
use argo_store::Store;
use std::sync::Arc;

/// Small but non-trivial: two parallelizable loops over 64 elements.
const TINY: &str = r#"
    real main(real a[64], real b[64]) {
        real s; int i;
        s = 0.0;
        for (i = 0; i < 64; i = i + 1) {
            b[i] = sqrt(a[i]) * 2.0 + sin(a[i]);
        }
        for (i = 0; i < 64; i = i + 1) { s = s + b[i]; }
        return s;
    }
"#;

fn tiny_explorer(store_dir: Option<&std::path::Path>) -> Explorer {
    let mut ex = Explorer::with_threads(2);
    ex.register_program("tiny", parse_program(TINY).unwrap(), "main");
    match store_dir {
        Some(dir) => ex.with_store(Arc::new(Store::open(dir).unwrap())),
        None => ex,
    }
}

fn boot(store_dir: Option<&std::path::Path>, cfg: ServeConfig) -> ServerHandle {
    Server::start(
        Listener::tcp("127.0.0.1:0").unwrap(),
        tiny_explorer(store_dir),
        cfg,
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("argo-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const COMPILE: &str =
    r#"{"id": 7, "kind": "compile", "app": "tiny", "cores": 2, "progress": true}"#;

#[test]
fn compile_roundtrip_streams_seq_stamped_progress() {
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();

    let reply = client.request(COMPILE).unwrap();
    assert!(reply.is_ok(), "compile failed: {}", reply.terminal);
    let frame = reply.frame().unwrap();
    assert_eq!(frame.get("id").unwrap().as_u64(), Some(7));
    assert_eq!(frame.get("kind").unwrap().as_str(), Some("compile"));
    let result = frame.get("result").unwrap();
    assert_eq!(
        result.get("label").unwrap().as_str(),
        Some("tiny/bus/2c/list/loop/chunk/spm=default")
    );
    let metrics = result.get("body").unwrap();
    assert!(metrics.get("par_bound").unwrap().as_u64().unwrap() > 0);

    // A cold compile runs all four stages; their progress frames carry
    // the per-session seq, strictly increasing in emission order.
    assert!(
        reply.progress.len() >= 8,
        "expected start+finish frames for four stages, got {:?}",
        reply.progress
    );
    let seqs: Vec<u64> = reply
        .progress
        .iter()
        .map(|f| {
            let v = Value::parse(f).unwrap();
            assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
            v.get("seq").unwrap().as_u64().unwrap()
        })
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seqs not strictly increasing: {seqs:?}"
    );
    assert_eq!(seqs[0], 0, "a fresh session starts its counter at 0");

    // The stats control request reflects the served work.
    let stats = client.request(r#"{"id": 8, "kind": "stats"}"#).unwrap();
    let frame = stats.frame().unwrap();
    let result = frame.get("result").unwrap();
    let requests = result.get("requests").unwrap();
    assert_eq!(requests.get("compile").unwrap().as_u64(), Some(1));
    let stages = result.get("stages").unwrap();
    assert_eq!(stages.get("backend_runs").unwrap().as_u64(), Some(1));
    assert_eq!(
        result.get("store").unwrap(),
        &Value::Null,
        "no store attached in this test"
    );

    client.request(r#"{"id": 9, "kind": "shutdown"}"#).unwrap();
    server.join();
}

/// Satellite: M concurrent identical requests → exactly one pipeline
/// execution, M byte-identical responses. The assertion is
/// deterministic regardless of arrival timing: overlapping requests
/// coalesce on the in-flight leader, and any straggler that misses the
/// flight window is answered by the store's point archive — either
/// way the pipeline (backend stage) runs once.
#[test]
fn concurrent_identical_requests_run_the_pipeline_once() {
    const M: usize = 6;
    let dir = temp_dir("dedupe");
    let server = boot(Some(&dir), ServeConfig::default());

    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..M)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect_tcp(server.addr()).unwrap();
                    let request = r#"{"id": 3, "kind": "compile", "app": "tiny", "cores": 4}"#;
                    client.request(request).unwrap().terminal
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses[1..] {
        assert_eq!(
            response, &responses[0],
            "coalesced responses must be byte-identical"
        );
    }
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);

    let timing = server.stage_timings();
    assert_eq!(timing.backend.runs, 1, "exactly one pipeline execution");
    assert_eq!(timing.verify.runs, 1);
    let cache = server.cache_stats();
    assert_eq!(
        cache.point_store_misses, 1,
        "only the one executing request consulted the archive cold"
    );
    let (executed, coalesced) = server.singleflight_counts();
    assert_eq!(
        executed + coalesced,
        M as u64,
        "every request is a single-flight leader or follower"
    );
    assert_eq!(
        executed,
        1 + cache.point_store_hits,
        "each non-coalesced straggler was answered by the archive"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shared store makes repeats free across daemon restarts: a new
/// server over the populated directory answers the same request with
/// zero pipeline stages, no progress frames, and identical bytes.
#[test]
fn warm_store_replays_with_zero_stage_runs() {
    let dir = temp_dir("warm");

    let cold = {
        let server = boot(Some(&dir), ServeConfig::default());
        let mut client = Client::connect_tcp(server.addr()).unwrap();
        let reply = client.request(COMPILE).unwrap();
        assert!(reply.is_ok(), "{}", reply.terminal);
        assert!(!reply.progress.is_empty(), "cold run streams stages");
        server.shutdown();
        server.join();
        reply.terminal
    };

    let server = boot(Some(&dir), ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let reply = client.request(COMPILE).unwrap();
    assert_eq!(reply.terminal, cold, "hot replay is byte-identical");
    assert!(
        reply.progress.is_empty(),
        "an archive hit runs no stages, so no frames stream: {:?}",
        reply.progress
    );
    let timing = server.stage_timings();
    assert_eq!(
        timing.frontend.runs + timing.backend.runs + timing.verify.runs,
        0,
        "a warm store answers without the pipeline"
    );
    assert_eq!(server.cache_stats().point_store_hits, 1);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a `RetryClient` request that spans a daemon restart — the
/// old daemon is fully gone before the new one boots — recovers through
/// its transport retries and gets a reply byte-identical to the cold
/// one, served without a single pipeline stage (warm store).
#[cfg(unix)]
#[test]
fn retry_spanning_daemon_restart_is_byte_identical() {
    use std::time::Duration;

    let dir = temp_dir("retry-restart");
    let sock = std::env::temp_dir().join(format!("argo-retry-{}.sock", std::process::id()));
    let sock_str = sock.to_str().unwrap().to_string();
    let boot_unix = |dir: &std::path::Path| {
        Server::start(
            Listener::unix(&sock_str).unwrap(),
            tiny_explorer(Some(dir)),
            ServeConfig::default(),
        )
        .unwrap()
    };

    // Cold pass on daemon A, then take A down completely.
    let server = boot_unix(&dir);
    let mut client = Client::connect_unix(&sock_str).unwrap();
    let request = r#"{"id": 7, "kind": "compile", "app": "tiny", "cores": 2}"#;
    let cold = client.request(request).unwrap();
    assert!(cold.is_ok(), "{}", cold.terminal);
    drop(client);
    server.shutdown();
    server.join();

    // The retrying client dials a dead socket; daemon B boots over the
    // same path and store a few backoffs later.
    let (reply, retries, server) = std::thread::scope(|scope| {
        let booter = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(40));
            boot_unix(&dir)
        });
        let mut retry = RetryClient::unix(
            &sock_str,
            RetryPolicy {
                attempts: 50,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                seed: 11,
            },
        );
        let reply = retry.request(request).unwrap();
        (reply, retry.retries(), booter.join().unwrap())
    });
    assert!(retries > 0, "the request must actually have been retried");
    assert_eq!(
        reply.terminal, cold.terminal,
        "the retried reply across the restart must be byte-identical"
    );
    assert_eq!(
        server.stage_timings().backend.runs,
        0,
        "daemon B answers the retried request from the warm store"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&sock);
}

/// Satellite: a request whose deadline elapsed before a worker picked
/// it up is answered with a structured `deadline-exceeded` error frame
/// — and a later request on the same connection still works once the
/// deadline pressure is off (nothing transient was memoized).
#[test]
fn expired_deadline_yields_a_structured_error_frame() {
    let server = boot(
        None,
        ServeConfig {
            // A zero deadline is already expired at admission.
            deadline_ms: Some(0),
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let reply = client
        .request(r#"{"id": 4, "kind": "compile", "app": "tiny", "cores": 2}"#)
        .unwrap();
    assert!(
        reply.terminal.contains("\"frame\":\"error\"")
            && reply.terminal.contains("\"code\":\"deadline-exceeded\""),
        "{}",
        reply.terminal
    );
    // Control requests have no deadline.
    let stats = client.request(r#"{"id": 5, "kind": "stats"}"#).unwrap();
    assert!(stats.is_ok());
    let frame = stats.frame().unwrap();
    let faults = frame.get("result").unwrap().get("faults").unwrap();
    assert!(
        faults.get("deadline_exceeded").unwrap().as_u64().unwrap() >= 1,
        "the deadline shows up in the fault counters"
    );
    server.shutdown();
    server.join();
}

/// Satellite: a panic inside request execution (here injected via a
/// chaos store that panics on reads) is isolated to that request — the
/// client gets a structured `internal-error` (or `leader-failed`)
/// frame, and the daemon keeps serving.
#[test]
fn injected_panics_become_structured_errors_and_daemon_survives() {
    use argo_chaos::{ChaosIo, FaultPlan};

    let dir = temp_dir("panic-iso");
    let io = Arc::new(ChaosIo::new(FaultPlan {
        panic: 1000,
        ..FaultPlan::quiet(3)
    }));
    let store = Store::open_with_io(&dir, io as Arc<dyn argo_store::IoBackend>).unwrap();
    let mut explorer = Explorer::with_threads(2);
    explorer.register_program("tiny", parse_program(TINY).unwrap(), "main");
    let explorer = explorer.with_store(Arc::new(store));
    let server = Server::start(
        Listener::tcp("127.0.0.1:0").unwrap(),
        explorer,
        ServeConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.addr()).unwrap();

    for id in 0..3 {
        let reply = client
            .request(&format!(
                "{{\"id\": {id}, \"kind\": \"compile\", \"app\": \"tiny\", \"cores\": 2}}"
            ))
            .unwrap();
        assert!(
            reply.terminal.contains("\"frame\":\"error\"")
                && (reply.terminal.contains("\"code\":\"internal-error\"")
                    || reply.terminal.contains("\"code\":\"leader-failed\"")),
            "expected a structured panic-isolation frame: {}",
            reply.terminal
        );
    }
    // Still alive, still answering.
    let stats = client.request(r#"{"id": 9, "kind": "stats"}"#).unwrap();
    assert!(stats.is_ok(), "{}", stats.terminal);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: graceful drain. After shutdown begins, an already-open
/// connection gets `shutting-down` error frames for new work, while
/// control requests are still answered.
#[test]
fn drain_rejects_new_work_with_shutting_down() {
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();

    let reply = client
        .request(r#"{"id": 1, "kind": "compile", "app": "tiny", "cores": 2}"#)
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.terminal);

    server.shutdown();
    let reply = client
        .request(r#"{"id": 2, "kind": "compile", "app": "tiny", "cores": 4}"#)
        .unwrap();
    assert!(
        reply.terminal.contains("\"frame\":\"error\"")
            && reply.terminal.contains("\"code\":\"shutting-down\""),
        "{}",
        reply.terminal
    );
    let stats = client.request(r#"{"id": 3, "kind": "stats"}"#).unwrap();
    assert!(
        stats.is_ok(),
        "control requests still answered during drain"
    );

    server.join();
}

#[test]
fn explore_sweeps_report_pareto_and_coarse_progress() {
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();

    let reply = client
        .request(
            r#"{"id": 5, "kind": "explore", "progress": true, "apps": ["tiny"], "cores": [1, 2], "schedulers": ["list", "anneal"]}"#,
        )
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.terminal);
    let frame = reply.frame().unwrap();
    let result = frame.get("result").unwrap();
    assert_eq!(result.get("points").unwrap().as_u64(), Some(4));
    assert_eq!(result.get("failures").unwrap().as_u64(), Some(0));
    assert!(
        !result.get("pareto").unwrap().as_arr().unwrap().is_empty(),
        "a successful sweep has a non-empty front"
    );

    // Sweep progress is the done/total counter: one frame before the
    // first point, then one per finished point, in order.
    let done: Vec<u64> = reply
        .progress
        .iter()
        .map(|f| {
            let v = Value::parse(f).unwrap();
            assert_eq!(v.get("total").unwrap().as_u64(), Some(4), "{f}");
            v.get("done").unwrap().as_u64().unwrap()
        })
        .collect();
    assert_eq!(done, vec![0, 1, 2, 3, 4]);

    server.shutdown();
    server.join();
}

#[test]
fn protocol_errors_are_structured() {
    let cfg = ServeConfig {
        max_points: 4,
        ..ServeConfig::default()
    };
    let server = boot(None, cfg);
    let mut client = Client::connect_tcp(server.addr()).unwrap();

    // Malformed JSON → bad-request.
    let reply = client.request("this is not json").unwrap();
    assert!(
        reply.terminal.contains("\"frame\":\"error\""),
        "{}",
        reply.terminal
    );
    assert!(
        reply.terminal.contains("\"code\":\"bad-request\""),
        "{}",
        reply.terminal
    );

    // Unknown enum label → bad-request, with the parse message.
    let reply = client
        .request(r#"{"id": 1, "kind": "compile", "scheduler": "magic"}"#)
        .unwrap();
    assert!(
        reply.terminal.contains("\"code\":\"bad-request\""),
        "{}",
        reply.terminal
    );

    // A space over the admission limit → space-too-large.
    let reply = client
        .request(r#"{"id": 2, "kind": "explore", "apps": ["tiny"], "cores": [1, 2, 3, 4, 6]}"#)
        .unwrap();
    assert!(
        reply.terminal.contains("\"code\":\"space-too-large\""),
        "{}",
        reply.terminal
    );

    // A zero-capacity queue rejects all work deterministically.
    let full = Server::start(
        Listener::tcp("127.0.0.1:0").unwrap(),
        tiny_explorer(None),
        ServeConfig {
            queue_limit: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client2 = Client::connect_tcp(full.addr()).unwrap();
    let reply = client2
        .request(r#"{"id": 3, "kind": "compile", "app": "tiny"}"#)
        .unwrap();
    assert!(
        reply.terminal.contains("\"code\":\"over-capacity\""),
        "{}",
        reply.terminal
    );
    full.shutdown();
    full.join();

    server.shutdown();
    server.join();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("argo-serve-sock-{}.sock", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let server = Server::start(
        Listener::unix(&path_str).unwrap(),
        tiny_explorer(None),
        ServeConfig::default(),
    )
    .unwrap();

    let mut client = Client::connect_unix(&path_str).unwrap();
    let reply = client
        .request(r#"{"id": 1, "kind": "compile", "app": "tiny", "cores": 2}"#)
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.terminal);

    client.request(r#"{"id": 2, "kind": "shutdown"}"#).unwrap();
    server.join();
    let _ = std::fs::remove_file(&path);
}

/// Each request counts its own stages and merges them into one daemon
/// total once it finishes: two sessions' distinct compiles show up as
/// two backend runs, both in `ServerHandle::stage_timings` and in the
/// `stats` reply.
#[test]
fn stats_stage_wall_equals_sum_of_per_session_spans() {
    let server = boot(None, ServeConfig::default());

    // Two sessions, distinct points (no coalescing, no cache hits).
    let mut a = Client::connect_tcp(server.addr()).unwrap();
    let mut b = Client::connect_tcp(server.addr()).unwrap();
    let ra = a
        .request(r#"{"id": 1, "kind": "compile", "app": "tiny", "cores": 2}"#)
        .unwrap();
    let rb = b
        .request(r#"{"id": 2, "kind": "compile", "app": "tiny", "cores": 4}"#)
        .unwrap();
    assert!(ra.is_ok() && rb.is_ok());

    assert_eq!(server.stage_timings().backend.runs, 2);
    let stats = a.request(r#"{"id": 3, "kind": "stats"}"#).unwrap();
    let frame = stats.frame().unwrap();
    let result = frame.get("result").unwrap();
    let stages = result.get("stages").unwrap();
    assert_eq!(stages.get("backend_runs").unwrap().as_u64(), Some(2));
    let sessions = result.get("sessions").unwrap();
    assert_eq!(sessions.get("active").unwrap().as_u64(), Some(2));

    server.shutdown();
    server.join();
}

/// A compile that differs from an earlier one only in its scratchpad
/// capacity reuses the earlier seed-cost table: `seed_cost_runs` stays
/// put, and the reply is byte-identical to a fresh daemon's.
#[test]
fn an_spm_only_change_reuses_the_seed_costs() {
    const SPM: &str = r#"{"id": 2, "kind": "compile", "app": "polka", "platform": "bus", "cores": 8, "spm": 1048576}"#;
    let seed_cost_runs = |client: &mut Client| {
        let stats = client.request(r#"{"id": 0, "kind": "stats"}"#).unwrap();
        let frame = stats.frame().unwrap();
        let stages = frame.get("result").unwrap().get("stages").unwrap();
        stages.get("seed_cost_runs").unwrap().as_u64().unwrap()
    };
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let first = client
        .request(r#"{"id": 1, "kind": "compile", "app": "polka", "platform": "bus", "cores": 8}"#)
        .unwrap();
    assert!(first.is_ok(), "{}", first.terminal);
    assert_eq!(seed_cost_runs(&mut client), 1);
    let warm = client.request(SPM).unwrap();
    assert!(warm.is_ok(), "{}", warm.terminal);
    assert_eq!(seed_cost_runs(&mut client), 1);

    let fresh = boot(None, ServeConfig::default());
    let cold = Client::connect_tcp(fresh.addr())
        .unwrap()
        .request(SPM)
        .unwrap();
    assert_eq!(warm.terminal, cold.terminal);
    for handle in [server, fresh] {
        handle.shutdown();
        handle.join();
    }
}

/// Two compiles that differ only between two scratchpad capacities that
/// both hold every array place memory alike, so each feedback round
/// schedules the same task graph in the same scheduling context: the
/// second compile builds no schedule (`sched_misses` stays put), and
/// its reply is byte-identical to a fresh daemon's.
#[test]
fn an_spm_only_change_that_keeps_the_placement_reuses_the_schedules() {
    const FIRST: &str = r#"{"id": 1, "kind": "compile", "app": "polka", "platform": "bus", "cores": 8, "spm": 1048576}"#;
    const SECOND: &str = r#"{"id": 2, "kind": "compile", "app": "polka", "platform": "bus", "cores": 8, "spm": 1048584}"#;
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let first = client.request(FIRST).unwrap();
    assert!(first.is_ok(), "{}", first.terminal);
    let misses = server.cache_stats().sched_misses;
    assert!(misses > 0);
    let warm = client.request(SECOND).unwrap();
    assert!(warm.is_ok(), "{}", warm.terminal);
    assert_eq!(server.cache_stats().sched_misses, misses);

    let fresh = boot(None, ServeConfig::default());
    let cold = Client::connect_tcp(fresh.addr())
        .unwrap()
        .request(SECOND)
        .unwrap();
    assert_eq!(warm.terminal, cold.terminal);
    for handle in [server, fresh] {
        handle.shutdown();
        handle.join();
    }
}

/// A scratchpad far larger than the program (1 TiB) compiles: the
/// placement knapsack is sized by the candidates, not by the capacity,
/// and the daemon answers the next request.
#[test]
fn a_terabyte_scratchpad_compiles_and_the_daemon_answers_on() {
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let reply = client
        .request(
            r#"{"id": 1, "kind": "compile", "app": "egpws", "cores": 1, "spm": 1099511627776}"#,
        )
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.terminal);
    let stats = client.request(r#"{"id": 2, "kind": "stats"}"#).unwrap();
    assert!(stats.is_ok(), "{}", stats.terminal);
    server.shutdown();
    server.join();
}

/// A search request runs like an explore request: its points' stages
/// are counted in `stats`, on the request's thread budget.
#[test]
fn search_requests_count_their_stages() {
    let server = boot(None, ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let backend_runs = |client: &mut Client| {
        let stats = client.request(r#"{"id": 0, "kind": "stats"}"#).unwrap();
        let frame = stats.frame().unwrap();
        let stages = frame.get("result").unwrap().get("stages").unwrap();
        stages.get("backend_runs").unwrap().as_u64().unwrap()
    };
    assert_eq!(backend_runs(&mut client), 0);

    let reply = client
        .request(
            r#"{"id": 1, "kind": "search", "strategy": "ga", "budget": 3, "apps": ["tiny"], "cores": [1, 2, 4], "schedulers": ["list", "anneal"]}"#,
        )
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.terminal);
    let frame = reply.frame().unwrap();
    let evaluated = frame
        .get("result")
        .unwrap()
        .get("evaluated")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(evaluated > 0 && evaluated <= 3, "{}", reply.terminal);
    assert_eq!(backend_runs(&mut client), evaluated);
    assert_eq!(server.stage_timings().backend.runs, evaluated);

    server.shutdown();
    server.join();
}

/// Satellite: the `metrics` control request answers with Prometheus
/// text exposition covering request-latency histograms and the backing
/// store's hit/miss counters.
#[test]
fn metrics_request_returns_prometheus_text() {
    let dir = temp_dir("metrics");
    let server = boot(Some(&dir), ServeConfig::default());
    let mut client = Client::connect_tcp(server.addr()).unwrap();

    let reply = client
        .request(r#"{"id": 1, "kind": "compile", "app": "tiny", "cores": 2}"#)
        .unwrap();
    assert!(reply.is_ok(), "{}", reply.terminal);

    let reply = client.request(r#"{"id": 2, "kind": "metrics"}"#).unwrap();
    let frame = reply.frame().unwrap();
    assert_eq!(frame.get("kind").unwrap().as_str(), Some("metrics"));
    let text = frame
        .get("result")
        .unwrap()
        .get("prometheus")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(!text.is_empty());
    assert!(text.contains("# TYPE"), "{text}");
    assert!(
        text.contains("argo_serve_request_latency_us_bucket{kind=\"compile\",le="),
        "per-kind latency histogram missing:\n{text}"
    );
    // The registry is process-global, so other in-process servers of
    // this test binary contribute too — assert presence, not an exact
    // count.
    assert!(
        text.contains("argo_serve_request_latency_us_count{kind=\"compile\"}"),
        "compile latency count missing:\n{text}"
    );
    assert!(text.contains("argo_store_hits_total"), "{text}");
    assert!(text.contains("argo_store_misses_total"), "{text}");
    assert!(
        text.contains("argo_store_put_latency_us_count"),
        "store put latency histogram missing:\n{text}"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
