//! `argo-serve` — a long-running daemon serving the ARGO toolflow to
//! concurrent clients over a JSON-lines wire protocol.
//!
//! A compile server for WCET-aware parallelization: instead of paying
//! the full pipeline per CLI invocation, clients connect to one daemon
//! that keeps the three-tier artifact cache warm, coalesces concurrent
//! identical requests ([`SingleFlight`]) and shares one persistent
//! [`argo_store`] directory across every session — a warm store
//! answers a repeated request with zero pipeline stages.
//!
//! # Transport
//!
//! TCP or a Unix domain socket. Each direction carries one JSON object
//! per `\n`-terminated line; no framing beyond that. A connection is a
//! *session*: requests on it may be pipelined, and each carries a
//! client-chosen `id` echoed on every frame emitted for it.
//!
//! # Request frames (client → server)
//!
//! ```text
//! {"id": N, "kind": "...", "progress": bool, ...kind-specific fields}
//! ```
//!
//! | `kind`     | fields | reply |
//! |------------|--------|-------|
//! | `compile`  | point spec (below) | point metrics |
//! | `verify`   | point spec | verification verdict |
//! | `explore`  | sweep spec (below) | totals + Pareto front |
//! | `search`   | sweep spec + `strategy`, `budget`, `stall` | totals + Pareto front |
//! | `stats`    | — | server/session/cache/store counters |
//! | `metrics`  | — | Prometheus text exposition (below) |
//! | `shutdown` | — | `ok`, then the daemon exits |
//!
//! **Point spec** (`compile`/`verify`; all fields optional, defaults in
//! parens): `app` (`"egpws"`), `platform` `bus|noc` (`bus`), `cores`
//! (4), `scheduler` `list|bnb|anneal` (`list`), `granularity`
//! `loop|block|stmt` (`loop`), `chunk` (true), `spm` bytes or null
//! (null = platform default), `mhp` `naive|static|windows` (`static`),
//! `seed` (42), `rounds` (3).
//!
//! **Sweep spec** (`explore`/`search`): the same axes pluralized as
//! arrays — `apps`, `platforms`, `cores`, `schedulers`,
//! `granularities`, `chunking`, `spms` — plus scalar `mhp`, `seed`,
//! `rounds`. Omitted axes default to one-element lists matching the
//! point-spec defaults.
//!
//! # Reply frames (server → client)
//!
//! Terminal frame, exactly one per request — either a response:
//!
//! ```text
//! {"frame":"response","id":N,"ok":true,"kind":"compile","result":{...}}
//! {"frame":"response","id":N,"ok":false,"kind":"compile","label":"...",
//!  "error":{"stage":"...","code":"...","entity":...,"message":"..."}}
//! ```
//!
//! or an error frame:
//!
//! ```text
//! {"frame":"error","id":N,"error":{"code":"...","message":"..."}}
//! ```
//!
//! Error frames carry one of these codes:
//!
//! | code | meaning | resend? |
//! |------|---------|---------|
//! | `bad-request` | the line did not parse as a request | no |
//! | `over-capacity` | admission queue full | later |
//! | `space-too-large` | explore/search space over `max_points` | no |
//! | `shutting-down` | daemon is draining; no new work accepted | to a fresh instance |
//! | `deadline-exceeded` | per-request deadline (measured from admission) elapsed, in queue or at a stage boundary | yes — nothing was memoized |
//! | `internal-error` | request execution panicked; the panic was isolated to this request | yes, once |
//! | `leader-failed` | this request coalesced onto a leader that panicked | yes — a resend elects a fresh leader |
//!
//! Pipeline failures are `"ok":false` responses carrying the toolflow's
//! structured [`Diagnostic`](argo_core::Diagnostic) (stage / code /
//! entity / message) — they are deterministic verdicts about the design
//! point. Error frames are the *infrastructure* talking: admission
//! refusals and the transient outcomes above. Transient outcomes are
//! never memoized or archived by the lower tiers, so a resend after a
//! `deadline-exceeded`, `internal-error` or `leader-failed` frame
//! recomputes from clean state. Response bodies are deterministic — no
//! timestamps, ids or timings — so coalesced requests share the
//! leader's bytes and a warm-store replay is byte-identical to the
//! cold run.
//!
//! # Retries and idempotency
//!
//! Requests are idempotent by construction: work is keyed by the
//! request's canonical fingerprint, bodies are deterministic in the
//! request content, and store writes are atomic and content-addressed,
//! so resending a line can never double-apply anything. The bundled
//! [`RetryClient`] exploits this — on a *transport* failure (connect
//! refused, send failure, connection dropped mid-reply) it reconnects
//! and resends with capped exponential backoff and decorrelated
//! jitter. Error frames are terminal and are not retried by the
//! client; the table above says which ones are worth resending at the
//! application level.
//!
//! # Graceful shutdown
//!
//! A `shutdown` request (or [`ServerHandle::shutdown`]) begins a
//! *drain*: queued and executing work runs to completion and every
//! response is delivered, while newly arriving work requests are
//! rejected with a `shutting-down` error frame (control requests are
//! still answered). Workers exit once the queue is empty;
//! [`ServerHandle::join`] returns when the drain is complete. Because
//! the store's writes are atomic, even a `kill -9` instead of a drain
//! loses at most in-flight responses — never stored artifacts; a
//! restarted daemon warm-starts from the same store directory and
//! replays answered requests byte-identically.
//!
//! Before the terminal frame, a request sent with `"progress": true`
//! streams progress frames. For point requests these mirror the
//! session's [`StageObserver`](argo_core::StageObserver) events,
//! stamped with the per-session monotonic `seq`:
//!
//! ```text
//! {"frame":"progress","id":N,"seq":S,"event":"start","stage":"frontend"}
//! {"frame":"progress","id":N,"seq":S,"event":"finish","stage":"backend",
//!  "detail":"...","elapsed_us":U,"fingerprint":"0123456789abcdef"}
//! {"frame":"progress","id":N,"seq":S,"event":"error","stage":"...","error":{...}}
//! {"frame":"progress","id":N,"seq":S,"event":"feedback","round":R,"makespan":M}
//! ```
//!
//! `seq` is strictly increasing in emission order within one pipeline
//! run, so a client can restore order and spot gaps. A point answered
//! from the store's archive emits *no* stage frames — silence before
//! the response is the signature of a hot hit. An `explore` sweep
//! reports coarser progress: one frame with `done` 0 before any point
//! runs, then one frame per finished point, in order, so `done` rises
//! by one per frame and the last frame reads `done` = `total` (a sweep
//! of T points sends T + 1 frames). A `search` sends no progress frames.
//!
//! ```text
//! {"frame":"progress","id":N,"done":D,"total":T}
//! ```
//!
//! Only the request that actually executes streams progress; a request
//! coalesced onto another's in-flight execution gets the response body
//! without frames.
//!
//! # The `metrics` request
//!
//! `{"id": N, "kind": "metrics"}` is a control request, answered
//! inline like `stats`:
//!
//! ```text
//! {"frame":"response","id":N,"ok":true,"kind":"metrics",
//!  "result":{"prometheus":"# TYPE argo_serve_request_latency_us histogram\n..."}}
//! ```
//!
//! The `prometheus` field is the standard text exposition format
//! (JSON-escaped, `\n`-separated) over two registries: the
//! process-global [`argo_trace::metrics`] registry — per-kind request
//! latency histograms `argo_serve_request_latency_us{kind="compile"}`
//! …, `argo_serve_slow_requests_total`, and whatever the gated
//! scheduler/WCET/executor instrumentation published — concatenated
//! with the backing store's per-handle registry (`argo_store_*`
//! counters and get/put latency histograms), when a store is
//! configured. See the `argo_trace` crate docs for the full
//! metric-name → subsystem table.
//!
//! ```
//! use argo_serve::{Client, Listener, ServeConfig, Server, Value};
//!
//! let listener = Listener::tcp("127.0.0.1:0").unwrap();
//! let server = Server::start(listener, argo_dse::Explorer::with_threads(1),
//!                            ServeConfig::default()).unwrap();
//! let mut client = Client::connect_tcp(server.addr()).unwrap();
//!
//! // Do some work, then scrape.
//! client.request(r#"{"id": 1, "kind": "compile", "app": "egpws"}"#).unwrap();
//! let reply = client.request(r#"{"id": 2, "kind": "metrics"}"#).unwrap();
//! let frame = Value::parse(&reply.terminal).unwrap();
//! let text = frame.get("result").unwrap().get("prometheus").unwrap()
//!     .as_str().unwrap().to_string();
//! assert!(text.contains("argo_serve_request_latency_us"));
//!
//! client.request(r#"{"id": 3, "kind": "shutdown"}"#).unwrap();
//! server.join();
//! ```
//!
//! # Quickstart
//!
//! Boot a daemon and talk to it (see `examples/serve_client.rs` for
//! the same flow against an external daemon):
//!
//! ```
//! use argo_serve::{Client, Listener, ServeConfig, Server};
//!
//! let listener = Listener::tcp("127.0.0.1:0").unwrap();
//! let server = Server::start(listener, argo_dse::Explorer::with_threads(1),
//!                            ServeConfig::default()).unwrap();
//!
//! let mut client = Client::connect_tcp(server.addr()).unwrap();
//! let reply = client
//!     .request(r#"{"id": 1, "kind": "compile", "app": "egpws", "cores": 2}"#)
//!     .unwrap();
//! assert!(reply.is_ok());
//!
//! client.request(r#"{"id": 2, "kind": "shutdown"}"#).unwrap();
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod singleflight;

/// The JSON value that requests and reply frames parse into.
pub use argo_trace::json::Value;
pub use client::{Client, Reply, RetryClient, RetryPolicy};
pub use proto::{parse_request, Envelope, PointSpec, Request, SearchSpec};
pub use server::{Listener, ServeConfig, Server, ServerHandle};
pub use singleflight::{LeaderFailed, SingleFlight};
