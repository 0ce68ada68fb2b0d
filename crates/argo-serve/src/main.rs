//! `argo-serve` — the toolflow daemon.
//!
//! ```sh
//! argo-serve --listen 127.0.0.1:4100 --store .argo-store
//! argo-serve --socket /tmp/argo.sock --workers 8
//! ```
//!
//! Runs until a client sends `{"kind": "shutdown"}`. See the crate
//! docs (`argo_serve`) for the wire protocol.

use argo_serve::{Listener, ServeConfig, Server};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "argo-serve — concurrent toolflow daemon

USAGE:
    argo-serve --listen ADDR | --socket PATH [OPTIONS]

OPTIONS:
    --listen ADDR        bind a TCP listener (e.g. 127.0.0.1:4100)
    --socket PATH        bind a Unix domain socket instead
    --store DIR          back the artifact cache with a persistent store
    --workers N          worker threads (default 4)
    --queue N            admission queue limit (default 64)
    --max-points N       largest explore space accepted (default 256)
    --max-evals N        search evaluation budget cap (default 256)
    --eval-threads N     threads evaluating one explore or search
                         request's points (default 2)
    --slow-ms N          log requests slower than N ms to stderr
    --deadline-ms N      per-request deadline from admission; expired
                         requests get a deadline-exceeded error frame
    --trace PATH         record spans; write a Chrome trace-event JSON
                         there on shutdown (flame summary to stderr)
    --help               this text
";

struct Options {
    listen: Option<String>,
    socket: Option<String>,
    store: Option<String>,
    trace: Option<String>,
    cfg: ServeConfig,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        listen: None,
        socket: None,
        store: None,
        trace: None,
        cfg: ServeConfig::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let parse_n = |v: &str, flag: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("bad {flag} value `{v}`"))
        };
        match flag.as_str() {
            "--listen" => opts.listen = Some(value()?.to_string()),
            "--socket" => opts.socket = Some(value()?.to_string()),
            "--store" => opts.store = Some(value()?.to_string()),
            "--workers" => opts.cfg.workers = parse_n(value()?, "--workers")?.max(1),
            "--queue" => opts.cfg.queue_limit = parse_n(value()?, "--queue")?.max(1),
            "--max-points" => opts.cfg.max_points = parse_n(value()?, "--max-points")?.max(1),
            "--max-evals" => opts.cfg.max_evaluations = parse_n(value()?, "--max-evals")?.max(1),
            "--eval-threads" => opts.cfg.eval_threads = parse_n(value()?, "--eval-threads")?.max(1),
            "--slow-ms" => opts.cfg.slow_request_ms = Some(parse_n(value()?, "--slow-ms")? as u64),
            "--deadline-ms" => {
                opts.cfg.deadline_ms = Some(parse_n(value()?, "--deadline-ms")?.max(1) as u64)
            }
            "--trace" => opts.trace = Some(value()?.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if opts.listen.is_some() == opts.socket.is_some() {
        return Err(format!(
            "need exactly one of --listen or --socket\n\n{USAGE}"
        ));
    }
    Ok(opts)
}

fn run(opts: Options) -> Result<(), String> {
    if opts.trace.is_some() {
        argo_trace::enable_spans();
        argo_trace::enable_metrics();
    }
    let listener = match (&opts.listen, &opts.socket) {
        (Some(addr), None) => Listener::tcp(addr).map_err(|e| format!("binding {addr}: {e}"))?,
        (None, Some(path)) => {
            #[cfg(unix)]
            {
                Listener::unix(path).map_err(|e| format!("binding {path}: {e}"))?
            }
            #[cfg(not(unix))]
            {
                return Err(format!("--socket {path} is only supported on Unix"));
            }
        }
        _ => unreachable!("validated in parse_args"),
    };

    let mut explorer = argo_dse::Explorer::new();
    if let Some(dir) = &opts.store {
        let store = argo_store::Store::open(dir).map_err(|e| format!("opening {dir}: {e}"))?;
        explorer = explorer.with_store(Arc::new(store));
    }

    let server =
        Server::start(listener, explorer, opts.cfg).map_err(|e| format!("starting server: {e}"))?;
    eprintln!("argo-serve: listening on {}", server.addr());
    server.join();
    if let Some(path) = &opts.trace {
        argo_trace::write_trace(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    eprintln!("argo-serve: shut down");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("argo-serve: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse() {
        let o = parse_args(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--store",
            "/tmp/s",
            "--workers",
            "8",
            "--queue",
            "16",
        ]))
        .unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.store.as_deref(), Some("/tmp/s"));
        assert_eq!(o.cfg.workers, 8);
        assert_eq!(o.cfg.queue_limit, 16);
        assert_eq!(o.cfg.slow_request_ms, None);

        let o = parse_args(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--slow-ms",
            "250",
            "--trace",
            "/tmp/t.json",
        ]))
        .unwrap();
        assert_eq!(o.cfg.slow_request_ms, Some(250));
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(o.cfg.deadline_ms, None);

        let o = parse_args(&args(&["--listen", "127.0.0.1:0", "--deadline-ms", "500"])).unwrap();
        assert_eq!(o.cfg.deadline_ms, Some(500));

        assert!(parse_args(&[]).is_err(), "an endpoint is required");
        assert!(
            parse_args(&args(&["--listen", "a", "--socket", "b"])).is_err(),
            "endpoints are exclusive"
        );
        assert!(parse_args(&args(&["--workers", "x"])).is_err());
        assert!(parse_args(&args(&["--frob"])).is_err());
    }
}
