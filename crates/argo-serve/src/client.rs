//! A small blocking client for the wire protocol — used by the replay
//! driver, the benches, the tests and the quickstart example.
//!
//! Two clients live here: the bare [`Client`] (one connection, no
//! recovery — an I/O error is the caller's problem) and the
//! [`RetryClient`], which reconnects and resends on *transport*
//! failures with capped exponential backoff and decorrelated jitter.
//!
//! # Idempotency
//!
//! Resending a request line is safe: the daemon keys work by the
//! request's canonical fingerprint, response bodies are deterministic
//! in the request content, and the store's writes are atomic and
//! content-addressed — a duplicate execution produces byte-identical
//! artifacts, never a double effect. That is what makes blind
//! retry-on-drop correct. Error *frames* are terminal and are never
//! retried: they are the daemon's considered answer (bad request, over
//! capacity, deadline exceeded, …), not a transport failure — resend
//! decisions for those belong to the application.

use crate::server::Conn;
use argo_trace::json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// The reply to one request: the terminal frame plus any progress
/// frames that streamed before it.
#[derive(Debug)]
pub struct Reply {
    /// Progress frames, in arrival order (raw lines).
    pub progress: Vec<String>,
    /// The terminal frame line (`"frame":"response"` or `"frame":"error"`).
    pub terminal: String,
}

impl Reply {
    /// Parses the terminal frame.
    pub fn frame(&self) -> Result<Value, String> {
        Value::parse(&self.terminal)
    }

    /// Whether the terminal frame is a successful response.
    pub fn is_ok(&self) -> bool {
        self.frame()
            .ok()
            .and_then(|f| f.get("ok").and_then(Value::as_bool))
            .unwrap_or(false)
    }
}

/// One connection to a running `argo-serve` daemon.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl Client {
    /// Connects over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single lines awaiting a reply — never batch.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(Conn::Tcp(stream.try_clone()?));
        Ok(Client {
            reader,
            writer: Conn::Tcp(stream),
        })
    }

    /// Connects over a Unix socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &str) -> io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(Conn::Unix(stream.try_clone()?));
        Ok(Client {
            reader,
            writer: Conn::Unix(stream),
        })
    }

    /// Sends one request line (a complete JSON object, no newline).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next frame line.
    pub fn read_frame(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a request and collects frames until its terminal frame
    /// (response or protocol error) arrives. Progress frames — this
    /// request's or interleaved ones from other in-flight requests on
    /// this connection — are accumulated in [`Reply::progress`].
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.send_line(line)?;
        let mut progress = Vec::new();
        loop {
            let frame = self.read_frame()?;
            if frame.starts_with("{\"frame\":\"response\"")
                || frame.starts_with("{\"frame\":\"error\"")
            {
                return Ok(Reply {
                    progress,
                    terminal: frame,
                });
            }
            progress.push(frame);
        }
    }
}

/// Backoff knobs for [`RetryClient`]: `attempts` total tries, sleeps
/// drawn by decorrelated jitter in `[base, 3×previous]` capped at
/// `cap`. The jitter PRNG is seeded, so a given client's retry
/// schedule is reproducible.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// First backoff sleep, and the lower bound of every later one.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter PRNG (0 is remapped to 1).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 1,
        }
    }
}

/// Where a [`RetryClient`] dials (re)connections.
enum Endpoint {
    Tcp(String),
    #[cfg(unix)]
    Unix(String),
}

/// A [`Client`] wrapper that survives connection drops: on any
/// *transport* error (connect failure, send failure, mid-reply EOF) it
/// tears down the connection, sleeps a capped decorrelated-jitter
/// backoff, reconnects and resends — up to
/// [`RetryPolicy::attempts`] times. See the module docs for why blind
/// resends are safe (canonical-fingerprint idempotency) and why error
/// frames are never retried.
///
/// Every resend bumps the process-global `argo_client_retries_total`
/// counter as well as the per-client [`retries`](RetryClient::retries)
/// count.
pub struct RetryClient {
    endpoint: Endpoint,
    policy: RetryPolicy,
    client: Option<Client>,
    /// xorshift64 state for the jitter; never zero.
    rng: u64,
    /// Previous sleep in ms — the decorrelated-jitter upper bound feed.
    prev_ms: u64,
    retries: u64,
}

impl RetryClient {
    /// A retrying client for a TCP endpoint (`host:port`). Connects
    /// lazily, on the first request.
    pub fn tcp(addr: &str, policy: RetryPolicy) -> RetryClient {
        RetryClient::new(Endpoint::Tcp(addr.to_string()), policy)
    }

    /// A retrying client for a Unix-socket endpoint. Connects lazily.
    #[cfg(unix)]
    pub fn unix(path: &str, policy: RetryPolicy) -> RetryClient {
        RetryClient::new(Endpoint::Unix(path.to_string()), policy)
    }

    fn new(endpoint: Endpoint, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            endpoint,
            policy,
            client: None,
            rng: policy.seed.max(1),
            prev_ms: policy.base.as_millis() as u64,
            retries: 0,
        }
    }

    /// Transport-level resends performed by this client so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Decorrelated jitter: sleep uniformly in `[base, 3×previous]`,
    /// capped. Spreads simultaneous retriers apart instead of letting
    /// them re-collide in synchronized waves.
    fn backoff(&mut self) -> Duration {
        let base = (self.policy.base.as_millis() as u64).max(1);
        let cap = (self.policy.cap.as_millis() as u64).max(base);
        let upper = self.prev_ms.saturating_mul(3).clamp(base, cap);
        let span = upper - base + 1;
        let ms = base + self.next_u64() % span;
        self.prev_ms = ms;
        Duration::from_millis(ms)
    }

    fn connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let client = match &self.endpoint {
                Endpoint::Tcp(addr) => Client::connect_tcp(addr)?,
                #[cfg(unix)]
                Endpoint::Unix(path) => Client::connect_unix(path)?,
            };
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Sends `line` and awaits its terminal frame, retrying transport
    /// failures per the policy. Returns the last transport error once
    /// the attempts are exhausted.
    ///
    /// # Errors
    ///
    /// The final attempt's I/O error, when every attempt failed at the
    /// transport level.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        let attempts = self.policy.attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                argo_trace::metrics()
                    .counter("argo_client_retries_total")
                    .inc();
                let sleep = self.backoff();
                std::thread::sleep(sleep);
            }
            match self.connected().and_then(|c| c.request(line)) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // The connection is suspect — rebuild it next try.
                    self.client = None;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_bounded_and_deterministic_in_the_seed() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 42,
        };
        let mut a = RetryClient::tcp("127.0.0.1:1", policy);
        let mut b = RetryClient::tcp("127.0.0.1:1", policy);
        let seq_a: Vec<Duration> = (0..16).map(|_| a.backoff()).collect();
        let seq_b: Vec<Duration> = (0..16).map(|_| b.backoff()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        for d in &seq_a {
            assert!(*d >= policy.base && *d <= policy.cap, "{d:?}");
        }
        let mut c = RetryClient::tcp("127.0.0.1:1", RetryPolicy { seed: 43, ..policy });
        let seq_c: Vec<Duration> = (0..16).map(|_| c.backoff()).collect();
        assert_ne!(seq_a, seq_c, "different seed, different schedule");
    }

    #[test]
    fn exhausted_attempts_return_the_transport_error() {
        // Nothing listens on a reserved port of the discard range;
        // connect fails fast and the client gives up after `attempts`.
        let mut client = RetryClient::tcp(
            "127.0.0.1:1",
            RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                seed: 7,
            },
        );
        let err = client.request(r#"{"id":1,"kind":"stats"}"#);
        assert!(err.is_err());
        assert_eq!(client.retries(), 2, "attempts - 1 resends");
    }
}
