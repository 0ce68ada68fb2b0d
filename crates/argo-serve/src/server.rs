//! The daemon: a bounded worker pool serving typed toolflow requests
//! over JSON lines, with single-flight dedupe and a shared
//! persistent store.
//!
//! One reader thread per connection parses request lines and performs
//! admission control; accepted work requests are queued for a fixed
//! pool of worker threads. `stats` and `shutdown` are control requests
//! and are answered inline by the reader. Every work request is routed
//! through [`SingleFlight`] on its canonical fingerprint, so
//! concurrent identical requests (same or different connections) run
//! the pipeline exactly once and share one response body, byte for
//! byte. Because the [`Explorer`]'s cache can be backed by an
//! [`argo_store`] directory — safe to share across processes thanks to
//! its atomic writes — a warm store answers repeated requests with
//! zero pipeline stages: the point archive serves the finished
//! outcome directly.

use crate::proto::{self, Envelope, PointSpec, Request, SearchSpec};
use crate::singleflight::{LeaderFailed, SingleFlight};
use argo_core::diag::panic_message;
use argo_core::{
    CancelToken, Diagnostic, Fanout, FeedbackSnapshot, NullObserver, Stage, StageObserver,
    StageSummary,
};
use argo_dse::executor::parallel_map;
use argo_dse::{pareto_front, DesignSpace, Explorer, ReportRow, StageTimings, TimingObserver};
use argo_search::Budget;
use argo_trace::json::escape;
use argo_trace::{Counter, Histogram, LATENCY_US_BUCKETS};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control and worker-pool knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads executing queued requests.
    pub workers: usize,
    /// Maximum queued (admitted, not yet executing) requests; beyond
    /// this, requests are rejected with an `over-capacity` error.
    pub queue_limit: usize,
    /// Maximum design-space size an `explore` request may ask for.
    pub max_points: usize,
    /// Hard cap on a `search` request's evaluation budget (requested
    /// budgets are clamped, not rejected).
    pub max_evaluations: usize,
    /// Threads that evaluate the points of one explore or search
    /// request.
    pub eval_threads: usize,
    /// Work requests slower than this are logged to stderr with their
    /// per-stage breakdown and counted in
    /// `argo_serve_slow_requests_total` (`None` = no slow log).
    pub slow_request_ms: Option<u64>,
    /// Per-request deadline, measured from *admission* (so queue wait
    /// counts). A request past its deadline gets a `deadline-exceeded`
    /// error frame: immediately if it expired while queued, otherwise
    /// at the next stage boundary via the session's [`CancelToken`]
    /// checkpoint. `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_limit: 64,
            max_points: 256,
            max_evaluations: 256,
            eval_threads: 2,
            slow_request_ms: None,
            deadline_ms: None,
        }
    }
}

/// A bound listening endpoint.
pub enum Listener {
    /// TCP (use port 0 to let the OS pick).
    Tcp(TcpListener),
    /// Unix domain socket.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener on `addr` (e.g. `127.0.0.1:0`).
    pub fn tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix socket listener at `path` (removed first if stale).
    #[cfg(unix)]
    pub fn unix(path: &str) -> io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        Ok(Listener::Unix(UnixListener::bind(path)?))
    }

    /// Human-readable bound address (`127.0.0.1:4100` or a path).
    fn describe(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".into()),
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".into()),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                // One-line request/response frames: latency beats
                // batching, so disable Nagle.
                let _ = stream.set_nodelay(true);
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One accepted connection (either family), readable and writable.
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-socket stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A connection's write half, shared between the reader thread (error
/// and control frames) and whichever worker executes its requests.
/// Frames are written whole-line under the lock, so frames from
/// concurrent requests interleave only at line granularity.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<Conn>>);

impl SharedWriter {
    /// Writes one frame and its newline with a single write (with
    /// `TCP_NODELAY`, two writes would leave as two segments); errors
    /// are swallowed (a client that hung up mid-request loses its
    /// frames, nothing else).
    fn line(&self, frame: String) {
        self.line_with(|| frame);
    }

    /// Like [`SharedWriter::line`], but renders the frame under the
    /// write lock, so frames that read a shared counter leave in the
    /// order they read it.
    fn line_with(&self, frame: impl FnOnce() -> String) {
        let mut conn = self.0.lock().unwrap();
        let mut frame = frame();
        frame.push('\n');
        let _ = conn.write_all(frame.as_bytes());
        let _ = conn.flush();
    }
}

/// An admitted work request waiting for a worker.
struct Job {
    envelope: Envelope,
    writer: SharedWriter,
    /// Admission time; the per-request deadline (if configured) is
    /// measured from here, so time spent queued counts against it.
    enqueued: Instant,
}

/// Forwards a session's stage events to the client as progress frames,
/// stamped with the per-session `seq` so the client can restore
/// emission order.
struct ForwardObserver {
    writer: SharedWriter,
    id: u64,
}

impl StageObserver for ForwardObserver {
    fn on_stage_start(&self, stage: Stage, seq: u64) {
        self.writer.line(format!(
            "{{\"frame\":\"progress\",\"id\":{},\"seq\":{},\"event\":\"start\",\"stage\":\"{}\"}}",
            self.id,
            seq,
            stage.label()
        ));
    }

    fn on_stage_finish(&self, summary: &StageSummary) {
        self.writer.line(format!(
            "{{\"frame\":\"progress\",\"id\":{},\"seq\":{},\"event\":\"finish\",\
             \"stage\":\"{}\",\"detail\":\"{}\",\"elapsed_us\":{},\"fingerprint\":\"{}\"}}",
            self.id,
            summary.seq,
            summary.stage.label(),
            escape(&summary.detail),
            summary.elapsed.as_micros(),
            summary.fingerprint
        ));
    }

    fn on_stage_error(&self, stage: Stage, seq: u64, diagnostic: &Diagnostic) {
        self.writer.line(format!(
            "{{\"frame\":\"progress\",\"id\":{},\"seq\":{},\"event\":\"error\",\
             \"stage\":\"{}\",\"error\":{}}}",
            self.id,
            seq,
            stage.label(),
            proto::diag_json(diagnostic)
        ));
    }

    fn on_feedback_round(&self, snapshot: &FeedbackSnapshot) {
        self.writer.line(format!(
            "{{\"frame\":\"progress\",\"id\":{},\"seq\":{},\"event\":\"feedback\",\
             \"round\":{},\"makespan\":{}}}",
            self.id, snapshot.seq, snapshot.round, snapshot.makespan
        ));
    }
}

#[derive(Default)]
struct RequestCounters {
    compile: AtomicU64,
    verify: AtomicU64,
    explore: AtomicU64,
    search: AtomicU64,
    stats: AtomicU64,
    rejected: AtomicU64,
}

/// Per-kind request-latency histograms
/// (`argo_serve_request_latency_us{kind=…}`), resolved once at
/// [`Server::start`] so the request path never touches the registry
/// lock.
struct LatencyHandles {
    compile: Arc<Histogram>,
    verify: Arc<Histogram>,
    explore: Arc<Histogram>,
    search: Arc<Histogram>,
}

impl LatencyHandles {
    fn resolve() -> LatencyHandles {
        let m = argo_trace::metrics();
        let h = |kind: &str| {
            m.histogram(
                &format!("argo_serve_request_latency_us{{kind=\"{kind}\"}}"),
                LATENCY_US_BUCKETS,
            )
        };
        LatencyHandles {
            compile: h("compile"),
            verify: h("verify"),
            explore: h("explore"),
            search: h("search"),
        }
    }

    fn for_request(&self, request: &Request) -> &Histogram {
        match request {
            Request::Compile(_) => &self.compile,
            Request::Verify(_) => &self.verify,
            Request::Explore(_) => &self.explore,
            Request::Search(_) => &self.search,
            Request::Stats | Request::Metrics | Request::Shutdown => {
                unreachable!("control requests are not timed")
            }
        }
    }
}

struct Inner {
    explorer: Explorer,
    flight: SingleFlight,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Open connections: counted up at accept, down when the reader
    /// exits.
    active_sessions: AtomicUsize,
    served_total: AtomicU64,
    counters: RequestCounters,
    /// Stage runs and wall time of every finished request: each request
    /// counts its own stages and merges them here once.
    stages: Mutex<StageTimings>,
    /// Per-kind request latency histograms in the global registry.
    latency: LatencyHandles,
    /// `argo_serve_slow_requests_total` — requests over the slow-log
    /// threshold.
    slow_requests: Arc<Counter>,
    /// `argo_serve_panics_total` — request executions that panicked
    /// and were isolated into an `internal-error` frame.
    panics: Arc<Counter>,
    /// `argo_serve_deadline_exceeded_total` — requests answered with a
    /// `deadline-exceeded` frame (expired in queue or mid-pipeline).
    deadlines: Arc<Counter>,
    /// How to dial ourselves to unblock `accept` on shutdown.
    self_addr: String,
    unix: bool,
}

/// A running server: join it, query it, or shut it down.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: String,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Constructor namespace for the daemon (see [`Server::start`]).
pub struct Server;

impl Server {
    /// Starts the daemon on `listener`, serving `explorer` (already
    /// configured: thread count, optional [`argo_store`] backing,
    /// registered extra programs) with `cfg`'s admission limits.
    /// Returns once the acceptor and worker threads are running.
    pub fn start(
        listener: Listener,
        explorer: Explorer,
        cfg: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let addr = listener.describe();
        // The daemon always keeps its metrics registry live: gated
        // instrumentation in the schedulers/WCET/executor publishes,
        // and the `metrics` request exposes it.
        argo_trace::enable_metrics();
        let inner = Arc::new(Inner {
            explorer,
            flight: SingleFlight::new(),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            served_total: AtomicU64::new(0),
            counters: RequestCounters::default(),
            stages: Mutex::new(StageTimings::default()),
            latency: LatencyHandles::resolve(),
            slow_requests: argo_trace::metrics().counter("argo_serve_slow_requests_total"),
            panics: argo_trace::metrics().counter("argo_serve_panics_total"),
            deadlines: argo_trace::metrics().counter("argo_serve_deadline_exceeded_total"),
            self_addr: addr.clone(),
            unix: !matches!(listener, Listener::Tcp(_)),
        });

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.accept_loop(listener))
        };

        Ok(ServerHandle {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (`host:port`, or the socket path).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests a clean shutdown (same effect as a `shutdown` request).
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Waits for the acceptor and all workers to exit.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Cache counters of the shared explorer (for tests and drivers).
    pub fn cache_stats(&self) -> argo_dse::CacheStats {
        self.inner.explorer.cache_stats()
    }

    /// Daemon-wide stage-run counters: every finished request's stage
    /// timings, merged (for tests and drivers; `stats` reports the
    /// same total).
    pub fn stage_timings(&self) -> StageTimings {
        *self.inner.stages.lock().unwrap()
    }

    /// `(executed, coalesced)` single-flight counters.
    pub fn singleflight_counts(&self) -> (u64, u64) {
        (self.inner.flight.executed(), self.inner.flight.coalesced())
    }

    /// Single-flight leaders that panicked (their followers received
    /// `leader-failed` error frames).
    pub fn leader_failures(&self) -> u64 {
        self.inner.flight.leader_failures()
    }
}

impl Inner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        // Unblock the acceptor with a throwaway connection to ourselves.
        if self.unix {
            #[cfg(unix)]
            {
                let _ = UnixStream::connect(&self.self_addr);
            }
        } else {
            let _ = TcpStream::connect(&self.self_addr);
        }
    }

    fn accept_loop(self: Arc<Inner>, listener: Listener) {
        loop {
            let conn = match listener.accept() {
                Ok(conn) => conn,
                Err(_) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            self.active_sessions.fetch_add(1, Ordering::Relaxed);
            let inner = Arc::clone(&self);
            // Reader threads are detached: they exit when their client
            // hangs up, and die with the process on shutdown.
            std::thread::spawn(move || inner.reader_loop(conn));
        }
    }

    fn reader_loop(self: Arc<Inner>, conn: Conn) {
        if let Ok(clone) = conn.try_clone() {
            let writer = SharedWriter(Arc::new(Mutex::new(conn)));
            for line in BufReader::new(clone).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                // During a graceful drain the reader keeps answering:
                // control requests still work, and `dispatch` rejects new
                // work with a `shutting-down` frame instead of silently
                // dropping the connection mid-request.
                match proto::parse_request(&line) {
                    Err(message) => {
                        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        writer.line(protocol_error(0, "bad-request", &message));
                    }
                    Ok(envelope) => self.dispatch(envelope, &writer),
                }
            }
        }
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    fn served(&self) {
        self.served_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control + routing for one parsed request.
    fn dispatch(&self, envelope: Envelope, writer: &SharedWriter) {
        match &envelope.request {
            Request::Stats => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                let body = self.stats_body();
                writer.line(format!(
                    "{{\"frame\":\"response\",\"id\":{},{}}}",
                    envelope.id, body
                ));
                self.served();
            }
            Request::Metrics => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                let body = self.metrics_body();
                writer.line(format!(
                    "{{\"frame\":\"response\",\"id\":{},{}}}",
                    envelope.id, body
                ));
                self.served();
            }
            Request::Shutdown => {
                writer.line(format!(
                    "{{\"frame\":\"response\",\"id\":{},\"ok\":true,\"kind\":\"shutdown\"}}",
                    envelope.id
                ));
                self.served();
                self.begin_shutdown();
            }
            Request::Explore(space) | Request::Search(SearchSpec { sweep: space, .. })
                if space.len() > self.cfg.max_points =>
            {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                writer.line(protocol_error(
                    envelope.id,
                    "space-too-large",
                    &format!(
                        "design space has {} points, limit is {}",
                        space.len(),
                        self.cfg.max_points
                    ),
                ));
            }
            Request::Compile(_) | Request::Verify(_) | Request::Explore(_) | Request::Search(_) => {
                // Graceful drain: once shutdown begins, in-flight and
                // queued work still completes, but no new work enters.
                if self.shutdown.load(Ordering::SeqCst) {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    writer.line(protocol_error(
                        envelope.id,
                        "shutting-down",
                        "daemon is draining; resend to a fresh instance",
                    ));
                    return;
                }
                let mut queue = self.queue.lock().unwrap();
                if queue.len() >= self.cfg.queue_limit {
                    drop(queue);
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    writer.line(protocol_error(
                        envelope.id,
                        "over-capacity",
                        &format!("request queue is full ({} pending)", self.cfg.queue_limit),
                    ));
                    return;
                }
                queue.push_back(Job {
                    envelope,
                    writer: writer.clone(),
                    enqueued: Instant::now(),
                });
                drop(queue);
                self.queue_cv.notify_one();
            }
        }
    }

    fn worker_loop(self: Arc<Inner>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self.queue_cv.wait(queue).unwrap();
                }
            };
            self.run_job(job);
        }
    }

    fn run_job(&self, job: Job) {
        let Job {
            envelope,
            writer,
            enqueued,
        } = job;
        let counter = match &envelope.request {
            Request::Compile(_) => &self.counters.compile,
            Request::Verify(_) => &self.counters.verify,
            Request::Explore(_) => &self.counters.explore,
            Request::Search(_) => &self.counters.search,
            Request::Stats | Request::Metrics | Request::Shutdown => {
                unreachable!("control requests answered inline")
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // The deadline clock started at admission: a request that
        // expired while queued is answered without running anything.
        let token = match self.cfg.deadline_ms {
            Some(ms) => CancelToken::with_deadline(enqueued + Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        if token.is_expired() {
            self.deadlines.inc();
            writer.line(protocol_error(
                envelope.id,
                "deadline-exceeded",
                "request deadline elapsed while queued",
            ));
            self.served();
            return;
        }
        // This request's own stage counts: exact for the slow-request
        // log even while other requests run, merged into the daemon
        // total once the request is done.
        let obs = TimingObserver::new();
        let counted = Fanout(&token, &obs);
        let t0 = Instant::now();
        let span = argo_trace::span("serve.request");

        let key = envelope
            .request
            .fingerprint()
            .expect("work requests have a fingerprint");
        let progress = envelope.progress.then(|| ForwardObserver {
            writer: writer.clone(),
            id: envelope.id,
        });
        // The body is deterministic (no ids, no timings), so coalesced
        // followers can reuse the leader's bytes verbatim. Progress
        // frames stream only from the executing leader, to its client.
        //
        // Panic isolation: a panicking execution is caught *inside*
        // the flight closure, so leader and followers all get the same
        // structured `internal-error` body and the worker thread
        // survives. The `LeaderFailed` arm below is defence in depth —
        // it fires only if a panic escapes this catch.
        let body = self.flight.run(key, || {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.execute(
                    &envelope.request,
                    envelope.id,
                    &token,
                    &counted,
                    progress.as_ref().map(|p| p as &(dyn StageObserver + Sync)),
                    progress.as_ref().map(|_| &writer),
                )
            }));
            attempt.unwrap_or_else(|payload| {
                self.panics.inc();
                eprintln!(
                    "argo-serve: request id={} kind={} panicked: {}",
                    envelope.id,
                    envelope.request.kind(),
                    panic_message(&*payload)
                );
                error_body(
                    "internal-error",
                    &format!("request execution panicked: {}", panic_message(&*payload)),
                )
            })
        });
        let body: Arc<str> = body.unwrap_or_else(|failure: LeaderFailed| {
            Arc::from(error_body("leader-failed", &failure.to_string()))
        });
        drop(span);
        let elapsed = t0.elapsed();
        self.latency
            .for_request(&envelope.request)
            .observe_duration_us(elapsed);
        let timings = obs.snapshot();
        // A request that ran no stage (an archive hit, a coalesced
        // follower) has nothing to merge.
        if timings != StageTimings::default() {
            self.stages.lock().unwrap().merge(&timings);
        }
        if let Some(threshold) = self.cfg.slow_request_ms {
            if elapsed.as_millis() as u64 >= threshold {
                self.slow_requests.inc();
                self.log_slow_request(&envelope, elapsed, &timings);
            }
        }
        // Bodies produced by `error_body` become error frames; all
        // others are responses. (Failure *diagnostics* from the
        // pipeline stay `"ok":false` responses — error frames are the
        // infrastructure talking, not the toolflow.)
        let frame = if body.starts_with("\"error\":") {
            "error"
        } else {
            "response"
        };
        writer.line(format!(
            "{{\"frame\":\"{frame}\",\"id\":{},{}}}",
            envelope.id, body
        ));
        self.served();
    }

    /// Slow-request log line: total latency plus this request's own
    /// per-stage wall time. Coalesced followers show zero stage time —
    /// the leader ran the pipeline.
    fn log_slow_request(&self, envelope: &Envelope, elapsed: Duration, timings: &StageTimings) {
        eprintln!(
            "argo-serve: slow request id={} kind={} took {:.1}ms \
             (frontend {:.1}ms, seed-costs {:.1}ms, backend {:.1}ms, verify {:.1}ms)",
            envelope.id,
            envelope.request.kind(),
            elapsed.as_secs_f64() * 1e3,
            timings.frontend.ms(),
            timings.seed_costs.ms(),
            timings.backend.ms(),
            timings.verify.ms(),
        );
    }

    /// Executes one work request and renders its deterministic body.
    ///
    /// `counted` carries `token` and the request's stage counter to
    /// every evaluated point. A deadline that trips mid-pipeline (via
    /// `token`'s stage-boundary checkpoints) turns the whole request
    /// into a `deadline-exceeded` error body — a transient outcome the
    /// lower tiers neither memoize nor archive, so a retry after the
    /// deadline recomputes cleanly.
    fn execute(
        &self,
        request: &Request,
        id: u64,
        token: &CancelToken,
        counted: &Fanout<'_>,
        forward: Option<&(dyn StageObserver + Sync)>,
        progress_writer: Option<&SharedWriter>,
    ) -> String {
        match request {
            Request::Compile(spec) => {
                let row = self.evaluate_one(spec, counted, forward);
                self.transient_error_body(&row)
                    .unwrap_or_else(|| point_body("compile", &row, proto::metrics_json))
            }
            Request::Verify(spec) => {
                let row = self.evaluate_one(spec, counted, forward);
                self.transient_error_body(&row).unwrap_or_else(|| {
                    point_body("verify", &row, |m| {
                        format!("{{\"verified\":true,\"findings\":{}}}", m.verify_findings)
                    })
                })
            }
            Request::Explore(space) => {
                let rows = self.evaluate_space(space, id, counted, progress_writer);
                if token.is_tripped() {
                    self.deadlines.inc();
                    let done = rows.iter().filter(|r| r.outcome.is_ok()).count();
                    return error_body(
                        "deadline-exceeded",
                        &format!(
                            "deadline elapsed during the sweep ({done} of {} points finished)",
                            rows.len()
                        ),
                    );
                }
                sweep_body("explore", &rows, None)
            }
            Request::Search(spec) => {
                let strategy = argo_search::parse_strategy(&spec.strategy)
                    .expect("strategy validated at parse time");
                let evaluations = spec
                    .budget
                    .unwrap_or(self.cfg.max_evaluations)
                    .min(self.cfg.max_evaluations);
                let mut budget = Budget::evaluations(evaluations);
                if let Some(stall) = spec.stall {
                    budget = budget.with_stall(stall);
                }
                let report = self.explorer.search_observed(
                    &spec.sweep,
                    &*strategy,
                    budget,
                    self.cfg.eval_threads,
                    counted,
                );
                // Points past the deadline stopped at a stage boundary;
                // the request as a whole is then answered as expired.
                if token.is_tripped() {
                    self.deadlines.inc();
                    return error_body("deadline-exceeded", "deadline elapsed during the search");
                }
                let extra = format!(
                    "\"strategy\":\"{}\",\"lattice\":{},\"evaluated\":{},",
                    escape(&spec.strategy),
                    spec.sweep.len(),
                    report.rows.len()
                );
                sweep_body("search", &report.rows, Some(&extra))
            }
            Request::Stats | Request::Metrics | Request::Shutdown => {
                unreachable!("control requests answered inline")
            }
        }
    }

    /// The error body for a single-point row whose outcome is a
    /// *transient* infrastructure failure (deadline, isolated panic) —
    /// those travel as error frames, not `"ok":false` responses,
    /// because they say nothing about the design point itself.
    fn transient_error_body(&self, row: &ReportRow) -> Option<String> {
        match &row.outcome {
            Err(d) if d.code.is_transient() => {
                if d.code == argo_core::ErrorCode::DeadlineExceeded {
                    self.deadlines.inc();
                }
                Some(error_body(d.code.label(), &d.message))
            }
            _ => None,
        }
    }

    fn evaluate_one(
        &self,
        spec: &PointSpec,
        counted: &Fanout<'_>,
        forward: Option<&(dyn StageObserver + Sync)>,
    ) -> ReportRow {
        self.explorer.evaluate_point_observed(
            spec.point(),
            &spec.space(),
            &Fanout(counted, forward.unwrap_or(&NullObserver)),
        )
    }

    /// Evaluates a whole space on this request's thread budget. With
    /// progress on, one `done: 0` frame leaves first, then each worker
    /// writes one frame per finished point; the counter is bumped under
    /// the write lock, so `done` rises by one per frame up to `total`.
    fn evaluate_space(
        &self,
        space: &DesignSpace,
        id: u64,
        observers: &Fanout<'_>,
        progress_writer: Option<&SharedWriter>,
    ) -> Vec<ReportRow> {
        let total = space.len();
        let frame = |done: usize| {
            format!("{{\"frame\":\"progress\",\"id\":{id},\"done\":{done},\"total\":{total}}}")
        };
        if let Some(writer) = progress_writer {
            writer.line(frame(0));
        }
        let done = AtomicUsize::new(0);
        parallel_map(space.points(), self.cfg.eval_threads, &|_i, point| {
            let row = self
                .explorer
                .evaluate_point_observed(point, space, observers);
            if let Some(writer) = progress_writer {
                writer.line_with(|| frame(done.fetch_add(1, Ordering::Relaxed) + 1));
            }
            row
        })
    }

    fn stats_body(&self) -> String {
        let queue_depth = self.queue.lock().unwrap().len();
        let c = &self.counters;
        let timing = *self.stages.lock().unwrap();
        let cache = self.explorer.cache_stats();
        let store = match self.explorer.store() {
            Some(store) => {
                let s = store.stats();
                let sc = s.counters;
                format!(
                    "{{\"entries\":{},\"bytes\":{},\"counters\":{{\"hits\":{},\"misses\":{},\
                     \"corrupt\":{},\"version_skew\":{},\"evictions\":{},\"write_errors\":{}}}}}",
                    s.entries,
                    s.bytes,
                    sc.hits,
                    sc.misses,
                    sc.corrupt,
                    sc.version_skew,
                    sc.evictions,
                    sc.write_errors
                )
            }
            None => "null".into(),
        };
        format!(
            "\"ok\":true,\"kind\":\"stats\",\"result\":{{\
             \"sessions\":{{\"active\":{},\"served\":{}}},\
             \"requests\":{{\"compile\":{},\"verify\":{},\"explore\":{},\"search\":{},\
             \"stats\":{},\"rejected\":{}}},\
             \"singleflight\":{{\"executed\":{},\"coalesced\":{},\"leader_failures\":{}}},\
             \"faults\":{{\"panics\":{},\"deadline_exceeded\":{}}},\
             \"queue\":{{\"depth\":{},\"limit\":{}}},\"workers\":{},\
             \"stages\":{{\"frontend_runs\":{},\"seed_cost_runs\":{},\"backend_runs\":{},\
             \"verify_runs\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"store_hits\":{},\"store_misses\":{},\
             \"point_store_hits\":{},\"point_store_misses\":{},\"combined_hit_rate\":{:.4}}},\
             \"store\":{}}}",
            self.active_sessions.load(Ordering::Relaxed),
            self.served_total.load(Ordering::Relaxed),
            c.compile.load(Ordering::Relaxed),
            c.verify.load(Ordering::Relaxed),
            c.explore.load(Ordering::Relaxed),
            c.search.load(Ordering::Relaxed),
            c.stats.load(Ordering::Relaxed),
            c.rejected.load(Ordering::Relaxed),
            self.flight.executed(),
            self.flight.coalesced(),
            self.flight.leader_failures(),
            self.panics.get(),
            self.deadlines.get(),
            queue_depth,
            self.cfg.queue_limit,
            self.cfg.workers,
            timing.frontend.runs,
            timing.seed_costs.runs,
            timing.backend.runs,
            timing.verify.runs,
            cache.hits(),
            cache.misses(),
            cache.store_hits(),
            cache.store_misses(),
            cache.point_store_hits,
            cache.point_store_misses,
            cache.combined_hit_rate(),
            store
        )
    }

    /// The `metrics` response: Prometheus text exposition of the
    /// process-global registry (request latency, slow requests, the
    /// gated scheduler/WCET/executor metrics) concatenated with the
    /// backing store's per-handle registry, if any.
    fn metrics_body(&self) -> String {
        let mut text = argo_trace::metrics().prometheus();
        if let Some(store) = self.explorer.store() {
            text.push_str(&store.registry().prometheus());
        }
        format!(
            "\"ok\":true,\"kind\":\"metrics\",\"result\":{{\"prometheus\":\"{}\"}}",
            escape(&text)
        )
    }
}

/// Renders the body of an error frame. Bodies with this shape (leading
/// `"error":`) are emitted as `"frame":"error"` by the response path —
/// the convention that lets a coalesced body carry its frame kind.
fn error_body(code: &str, message: &str) -> String {
    format!(
        "\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}",
        code,
        escape(message)
    )
}

/// Renders a complete error frame (request never reached a worker).
fn protocol_error(id: u64, code: &str, message: &str) -> String {
    format!(
        "{{\"frame\":\"error\",\"id\":{},{}}}",
        id,
        error_body(code, message)
    )
}

/// Deterministic body for a one-point request.
fn point_body(
    kind: &str,
    row: &ReportRow,
    result: impl Fn(&argo_dse::PointMetrics) -> String,
) -> String {
    let label = escape(&row.point.label());
    match &row.outcome {
        Ok(metrics) => format!(
            "\"ok\":true,\"kind\":\"{kind}\",\"result\":{{\"label\":\"{label}\",\
             \"spm_effective\":{},\"body\":{}}}",
            row.spm_effective,
            result(metrics)
        ),
        Err(diagnostic) => format!(
            "\"ok\":false,\"kind\":\"{kind}\",\"label\":\"{label}\",\"error\":{}",
            proto::diag_json(diagnostic)
        ),
    }
}

/// Deterministic body for a sweep/search: totals plus the Pareto set.
fn sweep_body(kind: &str, rows: &[ReportRow], extra: Option<&str>) -> String {
    let failures = rows.iter().filter(|r| r.outcome.is_err()).count();
    let objectives: Vec<_> = rows.iter().filter_map(ReportRow::objectives).collect();
    let succeeded: Vec<&ReportRow> = rows.iter().filter(|r| r.outcome.is_ok()).collect();
    let front = pareto_front(&objectives);
    let mut pareto = String::new();
    for (i, &idx) in front.iter().enumerate() {
        let row = succeeded[idx];
        let metrics = row.outcome.as_ref().expect("pareto rows succeeded");
        if i > 0 {
            pareto.push(',');
        }
        pareto.push_str(&format!(
            "{{\"label\":\"{}\",\"cores\":{},\"par_bound\":{},\"spm\":{},\"speedup\":{:.4}}}",
            escape(&row.point.label()),
            row.point.cores,
            metrics.par_bound,
            row.spm_effective,
            metrics.speedup
        ));
    }
    format!(
        "\"ok\":true,\"kind\":\"{kind}\",\"result\":{{{}\"points\":{},\"failures\":{},\
         \"pareto\":[{}]}}",
        extra.unwrap_or(""),
        rows.len(),
        failures,
        pareto
    )
}
