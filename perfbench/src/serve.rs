//! `serve`: an in-process `argo-serve` daemon driven by two closed-loop
//! client connections (callers of the daemon block on each reply).
//!
//! Set-up boots the daemon over a fresh store and answers a fixed hot
//! set of `compile` and `verify` requests once. In the timed phase
//! every tenth request of each client is a fresh design point (a new
//! SPM capacity from that client's own pool); the rest are seeded draws
//! from the hot set. The hot 90% exercises the wire, the queue,
//! single-flight and point-archive reads with no pipeline work; the
//! cold 10% adds store writes and the backend. The fixed positions keep
//! p50 inside the hot class and p99 inside the cold class.
//!
//! The store sits on an in-process memory-backed filesystem ([`MemFs`]),
//! so the virtual disk's latency stays out of the numbers while the
//! store's own code runs unchanged.

use crate::check::{self, App};
use crate::clock;
use crate::stats::{
    bucket_delta, bucket_quantile, completion_windows, geomean, median, median_rate, percentile,
    Prometheus,
};
use crate::{enable_tracing, export_trace, peak_rss_mb, SetUp};
use crate::{Outcome, Run};
use argo::dse::Explorer;
use argo::serve::Value;
use argo::serve::{parse_request, Client, Listener, Request, ServeConfig, Server, ServerHandle};
use argo::store::{DirEntryInfo, IoBackend, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Instant, SystemTime};

const CLIENTS: usize = 2;
/// Every `COLD_EVERY`-th request of a client is a fresh design point.
const COLD_EVERY: usize = 10;
/// Completions per work unit of `ops_per_s`.
const WINDOW: usize = 100;
/// Segments per timed phase: the clients pause together between
/// segments while the host's speed is probed, and start each segment
/// in step.
const SEGMENTS: usize = 25;
/// The cold pool: SPM capacities from 1 MiB up, one `COLD_SPM_STEP`
/// apart, interleaved between clients. Every program's data fits, so
/// every cold point does the same work.
const COLD_SPM_BASE: u64 = 1024 * 1024;
const COLD_SPM_STEP: u64 = 8;
/// Set-up replays of the hot set by every client, so connections,
/// daemon threads and the store are warm when timing starts.
const WARM_ROUNDS: usize = 20;

/// Requests per client in the untraced phase for `--seconds` (the pair
/// of clients completes ~2,200 requests per second on a 2-vCPU x86-64
/// VM); at least 25,000, so every segment has twenty samples beyond its
/// p99. The traced phase runs half as many: its figures are means,
/// medians and exact counts, and a traced run stays well inside its
/// time limit on a slow host.
fn requests_per_client(seconds: u64) -> usize {
    (seconds as usize * 1_250).max(25_000)
}

/// The hot set: every app on both platforms at 1, 2, 4 and 8 cores,
/// each point as a `compile` and a `verify` request.
fn hot_requests() -> Vec<String> {
    let mut lines = Vec::new();
    for app in ["egpws", "polka", "weaa"] {
        for platform in ["bus", "noc"] {
            for cores in [1, 2, 4, 8] {
                for kind in ["compile", "verify"] {
                    lines.push(format!(
                        "{{\"id\": {}, \"kind\": \"{kind}\", \"app\": \"{app}\", \
                         \"platform\": \"{platform}\", \"cores\": {cores}}}",
                        lines.len() + 1
                    ));
                }
            }
        }
    }
    lines
}

/// The `k`-th cold request of `client`: a point no other request names.
/// Cold points are the heaviest hot-set program, so a cold request is
/// several milliseconds of pipeline work and the host's scheduling
/// stalls stay a small part of the cold class's tail.
fn cold_request(client: usize, k: usize) -> String {
    let spm = COLD_SPM_BASE + (k * CLIENTS + client + 1) as u64 * COLD_SPM_STEP;
    format!(
        "{{\"id\": {}, \"kind\": \"compile\", \"app\": \"polka\", \"cores\": 8, \"spm\": {spm}}}",
        1_000 + k
    )
}

/// A memory-backed filesystem for the store: files and directories in
/// a map, behind the store's own I/O seam. The store's code — entry
/// encoding, checksums, the tmp-then-rename protocol, the LRU clock —
/// runs unchanged; only the kernel's file work is gone. On the virtual
/// disk that work (an `fsync` per write, and journalled metadata even
/// without it) made a cold request 2–4× slower and its tail swing by
/// tens of percent between runs.
#[derive(Debug, Default)]
struct MemFs {
    inner: Mutex<MemFsInner>,
}

#[derive(Debug, Default)]
struct MemFsInner {
    files: HashMap<PathBuf, (Vec<u8>, SystemTime)>,
    dirs: HashSet<PathBuf>,
}

impl MemFs {
    fn lock(&self) -> std::sync::MutexGuard<'_, MemFsInner> {
        self.inner
            .lock()
            .expect("no store I/O panics while holding the map")
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl IoBackend for MemFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        for dir in path.ancestors() {
            fs.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fs = self.lock();
        fs.files
            .get(path)
            .map(|(bytes, _)| bytes.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut fs = self.lock();
        if !path.parent().is_some_and(|dir| fs.dirs.contains(dir)) {
            return Err(not_found(path));
        }
        fs.files
            .insert(path.to_path_buf(), (bytes.to_vec(), SystemTime::now()));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        let file = fs.files.remove(from).ok_or_else(|| not_found(from))?;
        fs.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        fs.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        let fs = self.lock();
        if !fs.dirs.contains(path) {
            return Err(not_found(path));
        }
        let name = |p: &Path| p.file_name().map(|n| n.to_string_lossy().into_owned());
        let dirs = fs.dirs.iter().filter(|d| d.parent() == Some(path));
        let files = fs.files.iter().filter(|(f, _)| f.parent() == Some(path));
        Ok(dirs
            .filter_map(|d| {
                Some(DirEntryInfo {
                    name: name(d)?,
                    is_dir: true,
                    len: 0,
                    modified: SystemTime::UNIX_EPOCH,
                })
            })
            .chain(files.filter_map(|(f, (bytes, modified))| {
                Some(DirEntryInfo {
                    name: name(f)?,
                    is_dir: false,
                    len: bytes.len() as u64,
                    modified: *modified,
                })
            }))
            .collect())
    }

    fn set_modified(&self, path: &Path, t: SystemTime) -> io::Result<()> {
        let mut fs = self.lock();
        let (_, modified) = fs.files.get_mut(path).ok_or_else(|| not_found(path))?;
        *modified = t;
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.lock();
        fs.files.retain(|f, _| !f.starts_with(path));
        fs.dirs.retain(|d| !d.starts_with(path));
        Ok(())
    }
}

/// A booted daemon with its connections and the hot set's set-up
/// replies. Dropping it drains the daemon.
struct Daemon {
    server: Option<ServerHandle>,
    control: Client,
    clients: Vec<Client>,
    /// `(request line, terminal frame it got in set-up)`.
    hot: Vec<(String, String)>,
}

impl Daemon {
    fn boot() -> Daemon {
        let store = Store::open_with_io("store", Arc::new(MemFs::default()))
            .expect("the memory-backed store opens");
        let explorer = Explorer::with_threads(1).with_store(Arc::new(store));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = ServeConfig {
            workers: CLIENTS.min(nproc),
            eval_threads: 1,
            ..ServeConfig::default()
        };
        let listener = Listener::tcp("127.0.0.1:0").expect("bind a loopback port");
        let server = Server::start(listener, explorer, cfg).expect("daemon starts");
        let connect = || Client::connect_tcp(server.addr()).expect("client connects");
        let control = connect();
        let mut clients: Vec<Client> = (0..CLIENTS).map(|_| connect()).collect();
        let hot: Vec<(String, String)> = hot_requests()
            .into_iter()
            .map(|line| {
                let reply = clients[0].request(&line).expect("hot request answered");
                assert!(reply.is_ok(), "hot request failed: {}", reply.terminal);
                (line, reply.terminal)
            })
            .collect();
        std::thread::scope(|scope| {
            for client in &mut clients {
                let hot = &hot;
                scope.spawn(move || {
                    for (line, first) in hot.iter().cycle().take(WARM_ROUNDS * hot.len()) {
                        let reply = client.request(line).expect("warm-up request answered");
                        assert_eq!(reply.terminal, *first, "warm-up reply differs from set-up");
                    }
                });
            }
        });
        Daemon {
            server: Some(server),
            control,
            clients,
            hot,
        }
    }

    /// The daemon's `stats` and `metrics` replies, parsed.
    fn scrape(&mut self) -> Scrape {
        let mut result = |line: &str| -> Value {
            let reply = self
                .control
                .request(line)
                .expect("control request answered");
            let frame = reply.frame().expect("control reply parses");
            frame
                .get("result")
                .cloned()
                .expect("control reply has a result")
        };
        let stats = result(r#"{"id": 0, "kind": "stats"}"#);
        let metrics = result(r#"{"id": 0, "kind": "metrics"}"#);
        let text = metrics
            .get("prometheus")
            .and_then(Value::as_str)
            .unwrap_or("");
        Scrape {
            stats,
            prom: Prometheus::parse(text),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

struct Scrape {
    stats: Value,
    prom: Prometheus,
}

impl Scrape {
    fn stat(&self, section: &str, field: &str) -> f64 {
        self.stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    }
}

/// One request as a client saw it.
struct Record {
    segment: usize,
    cold: bool,
    /// Wall-clock latency.
    ms: f64,
    /// Completion, seconds since the phase start.
    done: f64,
}

/// What one client saw in one timed phase.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    cold_replies: Vec<String>,
    /// Hot replies that differ from set-up, transport errors, and
    /// error frames.
    bad: u64,
}

/// One timed phase of both clients. Times are scaled to the nominal
/// host speed; `raw_*` keep the wall-clock figures.
struct Phase {
    /// Medians over the segments of each segment's p50 and p99: a burst
    /// of host contention inside one segment moves one of 50 values.
    p50_ms: f64,
    p99_ms: f64,
    latencies_ms: Vec<f64>,
    cold_latencies_ms: Vec<f64>,
    units: Vec<(f64, f64)>,
    raw_latencies_ms: Vec<f64>,
    raw_units: Vec<(f64, f64)>,
    clock: clock::Units,
    cold_replies: Vec<String>,
    cold: u64,
    bad: u64,
    before: Scrape,
    after: Scrape,
}

impl Phase {
    fn delta(&self, section: &str, field: &str) -> f64 {
        self.after.stat(section, field) - self.before.stat(section, field)
    }

    fn prom_delta(&self, name: &str) -> f64 {
        self.after.prom.sum(name) - self.before.prom.sum(name)
    }

    fn requests(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// What every client of one timed phase shares.
struct Plan<'a> {
    hot: &'a [(String, String)],
    seed: u64,
    phase_index: usize,
    /// Index of this phase's first cold point in each client's pool.
    cold_base: usize,
    /// Requests per client.
    requests: usize,
    /// Where the clients and the prober meet between segments.
    barrier: &'a Barrier,
    start: Instant,
}

/// Client `c`'s closed loop over its requests, in segments that start
/// and end together with the other clients' at the plan's barrier.
fn client_loop(client: &mut Client, c: usize, plan: &Plan) -> ClientLog {
    let Plan {
        hot,
        seed,
        phase_index,
        cold_base,
        requests,
        barrier,
        start,
    } = *plan;
    let mut rng = StdRng::seed_from_u64(
        seed ^ ((phase_index * CLIENTS + c + 1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut log = ClientLog::default();
    let per_segment = requests.div_ceil(SEGMENTS);
    for segment in 0..SEGMENTS {
        barrier.wait();
        for i in segment * per_segment..((segment + 1) * per_segment).min(requests) {
            let cold = (i + c * COLD_EVERY / CLIENTS) % COLD_EVERY == COLD_EVERY - 1;
            let (line, expected) = if cold {
                let k = cold_base + i / COLD_EVERY;
                (cold_request(c, k), None)
            } else {
                let (line, reply) = &hot[rng.gen_range(0..hot.len())];
                (line.clone(), Some(reply))
            };
            let t0 = Instant::now();
            let reply = {
                let _op = argo::trace::span(if cold {
                    "op.serve.cold"
                } else {
                    "op.serve.hot"
                });
                client.request(&line)
            };
            log.records.push(Record {
                segment,
                cold,
                ms: t0.elapsed().as_secs_f64() * 1e3,
                done: start.elapsed().as_secs_f64(),
            });
            match (reply, expected) {
                (Ok(reply), Some(expected)) if reply.terminal == *expected => {}
                (Ok(reply), None) => log.cold_replies.push(reply.terminal),
                _ => log.bad += 1,
            }
        }
        barrier.wait();
    }
    log
}

/// One timed phase of `requests` requests per client, its cold points
/// drawn from each client's pool from index `cold_base` on.
fn timed(
    daemon: &mut Daemon,
    seed: u64,
    phase_index: usize,
    requests: usize,
    cold_base: usize,
) -> Phase {
    let before = daemon.scrape();
    let barrier = Barrier::new(CLIENTS + 1);
    let mut clock = clock::Units::start(3);
    let start = Instant::now();
    let plan = Plan {
        hot: &daemon.hot,
        seed,
        phase_index,
        cold_base,
        requests,
        barrier: &barrier,
        start,
    };
    let mut segment_start = Vec::with_capacity(SEGMENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let plan = &plan;
                scope.spawn(move || client_loop(client, c, plan))
            })
            .collect();
        // The host is probed between segments, while every client waits.
        for segment in 0..SEGMENTS {
            barrier.wait();
            segment_start.push(start.elapsed().as_secs_f64());
            barrier.wait();
            if segment + 1 < SEGMENTS {
                clock.sample();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread finished"))
            .collect()
    });
    let after = daemon.scrape();
    // One scale for the phase, from every probe in it: the phase's
    // latency distribution keeps its shape, and probe noise stays out
    // of its tail.
    let scale = clock.close();

    let records: Vec<&Record> = logs.iter().flat_map(|l| &l.records).collect();
    let mut phase = Phase {
        p50_ms: f64::NAN,
        p99_ms: f64::NAN,
        latencies_ms: records.iter().map(|r| r.ms * scale).collect(),
        cold_latencies_ms: records
            .iter()
            .filter(|r| r.cold)
            .map(|r| r.ms * scale)
            .collect(),
        units: Vec::new(),
        raw_latencies_ms: records.iter().map(|r| r.ms).collect(),
        raw_units: Vec::new(),
        clock,
        cold_replies: logs
            .iter()
            .flat_map(|l| l.cold_replies.iter().cloned())
            .collect(),
        cold: records.iter().filter(|r| r.cold).count() as u64,
        bad: logs.iter().map(|l| l.bad).sum(),
        before,
        after,
    };
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for (segment, &from) in segment_start.iter().enumerate() {
        let (done, ms): (Vec<f64>, Vec<f64>) = records
            .iter()
            .filter(|r| r.segment == segment)
            .map(|r| (r.done, r.ms * scale))
            .unzip();
        for (ops, secs) in completion_windows(from, &done, WINDOW) {
            phase.raw_units.push((ops, secs));
            phase.units.push((ops, secs * scale));
        }
        p50s.extend(percentile(&ms, 50.0));
        p99s.extend(percentile(&ms, 99.0));
    }
    // A segment too small for its percentile leaves the figure unset,
    // which the report flags.
    if p99s.len() == SEGMENTS {
        phase.p50_ms = median(&p50s);
        phase.p99_ms = median(&p99s);
    }
    phase
}

/// `(seq_bound, par_bound)` of a successful compile reply.
fn bounds(terminal: &str) -> Option<(u64, u64)> {
    let frame = Value::parse(terminal).ok()?;
    if frame.get("frame")?.as_str()? != "response" || !frame.get("ok")?.as_bool()? {
        return None;
    }
    let body = frame.get("result")?.get("body")?;
    Some((
        body.get("seq_bound")?.as_u64()?,
        body.get("par_bound")?.as_u64()?,
    ))
}

/// Checks one phase against the daemon's own counters; returns the
/// number of failed ops.
fn check_phase(phase: &Phase, outcome: &mut Outcome) {
    outcome.attempted += phase.requests();
    outcome.fail(
        phase.bad,
        "hot replies differ from set-up, or requests failed",
    );
    let failed_cold = phase
        .cold_replies
        .iter()
        .filter(|reply| bounds(reply).is_none())
        .count() as u64;
    outcome.fail(failed_cold, "cold requests failed");
    let cold = phase.cold as f64;
    for (section, field) in [("stages", "backend_runs"), ("cache", "point_store_misses")] {
        let delta = phase.delta(section, field);
        if delta != cold {
            outcome.fail(
                phase.cold,
                format!("{section}.{field} moved by {delta} over {cold} cold requests"),
            );
        }
    }
}

pub fn run(run: &Run) -> Outcome {
    let (mut daemon, setup) = SetUp::first(run, Daemon::boot);
    let requests = requests_per_client(run.seconds);
    let mut outcome = Outcome::default();
    outcome.notes.push(format!(
        "store: in-process memory-backed filesystem; {CLIENTS} clients, {} workers",
        CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
    ));

    let untraced = timed(&mut daemon, run.seed, 0, requests, 0);
    let peak_mb = peak_rss_mb();
    let untraced_rate = median_rate(&untraced.units);
    check_phase(&untraced, &mut outcome);
    outcome.notes.push(clock::note(
        &untraced.clock.scales,
        &untraced.raw_units,
        &untraced.raw_latencies_ms,
    ));
    outcome.notes.push(format!(
        "store after the timed phase: {} entries, {} bytes",
        untraced.after.stat("store", "entries"),
        untraced.after.stat("store", "bytes")
    ));
    let cold = &untraced.cold_latencies_ms;
    outcome.notes.push(format!(
        "cold requests: {} of {}, p50 {:.3} ms, p90 {:.3} ms",
        cold.len(),
        untraced.latencies_ms.len(),
        percentile(cold, 50.0).unwrap_or(f64::NAN),
        percentile(cold, 90.0).unwrap_or(f64::NAN),
    ));

    if run.trace {
        enable_tracing();
        let pool_used = requests.div_ceil(COLD_EVERY);
        let traced = timed(&mut daemon, run.seed, 1, requests / 2, pool_used);
        check_phase(&traced, &mut outcome);
        outcome.notes.push(format!(
            "traced phase: {}",
            clock::note(
                &traced.clock.scales,
                &traced.raw_units,
                &traced.raw_latencies_ms
            )
        ));
        let latency = |scrape: &Scrape| scrape.prom.histogram("argo_serve_request_latency_us");
        let server = bucket_delta(&latency(&traced.after), &latency(&traced.before));
        let server_p50_us = bucket_quantile(&server, 0.5);
        let client_p50_us = percentile(&traced.latencies_ms, 50.0).unwrap_or(f64::NAN) * 1e3;
        let n = traced.requests() as usize;
        let mean_us = |name: &str| {
            traced.prom_delta(&format!("{name}_sum"))
                / traced.prom_delta(&format!("{name}_count")).max(1.0)
        };
        let cold = traced.cold as f64;
        outcome.set("argo-serve.server.p50_us", server_p50_us, n);
        outcome.set("argo-serve.wait.p50_us", client_p50_us - server_p50_us, n);
        outcome.set(
            "argo-store.get.mean_us",
            mean_us("argo_store_get_latency_us"),
            n,
        );
        outcome.set(
            "argo-store.put.mean_us",
            mean_us("argo_store_put_latency_us"),
            n,
        );
        outcome.set(
            "argo-store.puts_per_cold",
            traced.prom_delta("argo_store_put_latency_us_count") / cold.max(1.0),
            traced.cold as usize,
        );
        let hits = traced.delta("cache", "point_store_hits");
        let misses = traced.delta("cache", "point_store_misses");
        outcome.set(
            "argo-dse.point_archive.hit_rate",
            hits / (hits + misses).max(1.0),
            n,
        );
        outcome.set(
            "argo-core.backend_runs",
            traced.delta("stages", "backend_runs"),
            n,
        );
        outcome.set(
            "argo-serve.singleflight.coalesced",
            traced.delta("singleflight", "coalesced"),
            n,
        );
        let client_mean_us = traced.latencies_ms.iter().sum::<f64>() * 1e3 / n.max(1) as f64;
        outcome.set(
            "trace.layer_coverage",
            mean_us("argo_serve_request_latency_us") / client_mean_us,
            n,
        );
        outcome.set(
            "trace.overhead",
            median_rate(&traced.units) / untraced_rate - 1.0,
            traced.units.len(),
        );
        export_trace("serve", &mut outcome);
    }

    // Quality over the distinct points answered: the hot set's (replayed
    // in the simulator after a local recompile that must agree with the
    // daemon) and the untraced phase's cold points (from their replies).
    let mut speedups = Vec::new();
    let mut tightness = Vec::new();
    let apps: Vec<App> = ["egpws", "polka", "weaa"]
        .into_iter()
        .map(App::new)
        .collect();
    for (i, (line, reply)) in daemon.hot.iter().enumerate() {
        let Some((seq, par)) = bounds(reply) else {
            continue; // a verify reply: its point is the compile's
        };
        let Ok(envelope) = parse_request(line) else {
            outcome.fail(1, format!("hot request does not parse: {line}"));
            continue;
        };
        let Request::Compile(spec) = &envelope.request else {
            continue;
        };
        let (point, space) = (spec.point(), spec.space());
        let app = apps
            .iter()
            .find(|a| a.uc.name == point.app)
            .expect("hot requests name built apps");
        let verdict = check::compile(app, &point, &space)
            .map_err(|d| d.to_string())
            .and_then(|r| {
                if r.system.bound != par {
                    return Err(format!(
                        "{line}: daemon bound {par}, session {}",
                        r.system.bound
                    ));
                }
                app.simulate(&point, &r, run.seed.wrapping_add(i as u64))
            });
        match verdict {
            Ok(cycles) => {
                speedups.push(seq as f64 / par as f64);
                tightness.push(par as f64 / cycles as f64);
            }
            Err(why) => outcome.fail(1, why),
        }
    }
    speedups.extend(
        untraced
            .cold_replies
            .iter()
            .filter_map(|reply| bounds(reply))
            .map(|(seq, par)| seq as f64 / par as f64),
    );

    // Drain this daemon before set-up is repeated.
    drop(daemon);

    if !run.trace {
        let lat = &untraced.latencies_ms;
        let (setup_s, reps) = setup.median_s();
        outcome.set("setup_s", setup_s, reps);
        outcome.set("ops_per_s", untraced_rate, untraced.units.len());
        outcome.set("p50_ms", untraced.p50_ms, lat.len());
        outcome.set("p99_ms", untraced.p99_ms, lat.len());
        outcome.set("peak_rss_mb", peak_mb, 1);
        outcome.set("wcet_speedup_geomean", geomean(&speedups), speedups.len());
        outcome.set(
            "bound_tightness_geomean",
            geomean(&tightness),
            tightness.len(),
        );
    }
    outcome
}
