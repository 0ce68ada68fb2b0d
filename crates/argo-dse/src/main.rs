//! `argo-dse` — command-line driver for design-space exploration.
//!
//! ```sh
//! argo-dse explore --app egpws --cores 1..8 --schedulers list,bnb,anneal
//! argo-dse explore --app polka --platforms bus,noc --cores 1,2,4,8 \
//!     --spm default,0,4096,16384 --csv sweep.csv --json sweep.json
//! argo-dse list-apps
//! ```
//!
//! Exits 0 on a clean sweep, 1 if any exploration point failed, 2 on
//! usage errors.

use argo_core::SchedulerKind;
use argo_dse::{DesignSpace, Explorer, PlatformKind};
use argo_htg::Granularity;
use argo_search::{parse_strategy, Budget, SearchStrategy};
use argo_wcet::system::MhpMode;
use std::process::ExitCode;

const USAGE: &str = "argo-dse — WCET-aware design-space exploration (ARGO toolflow)

USAGE:
    argo-dse explore [OPTIONS]
    argo-dse list-apps
    argo-dse help

EXPLORE OPTIONS:
    --app NAME[,NAME...]       use cases to explore (default: egpws)
    --platforms LIST           bus,noc (default: bus)
    --cores SPEC               e.g. 1,2,4,8 or 1..8 (default: 4)
    --schedulers LIST          list,bnb,anneal or all (default: list)
    --granularities LIST       loop,block,stmt (default: loop)
    --chunk MODE               on|off|both (default: on)
    --spm LIST                 per-core bytes; `default` = platform value
                               e.g. default,0,4096 (default: default)
    --mhp MODE                 naive|static|windows (default: static)
    --feedback-rounds N        iterative optimization budget (default: 3)
    --seed N                   synthetic input + search seed (default: 42)
    --strategy NAME            exhaustive|ga|anneal|halving (default:
                               exhaustive — evaluate every lattice point)
    --budget N                 max point evaluations for a steered search
                               (default: a quarter of the lattice, min 16)
    --stall N                  also stop a steered search after N points
                               without a Pareto-front improvement
    --threads N                worker threads (default: all cores)
    --store DIR                persistent artifact store: artifacts and
                               point outcomes are written through and a
                               later run over the same DIR warm-starts,
                               re-evaluating only changed points
    --csv PATH                 also write the CSV report
    --json PATH                also write the JSON report
    --trace PATH               record spans and write a Chrome trace-event
                               JSON there; a flame summary goes to stderr
    --quiet                    suppress the text report
";

fn split_list(s: &str) -> Vec<&str> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

/// Parses a core spec: a comma list of counts and/or `lo..hi` inclusive
/// ranges, e.g. `1,2,4,8` or `1..8` or `1..4,8,16`.
fn parse_cores(spec: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in split_list(spec) {
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: usize = lo.parse().map_err(|_| format!("bad core range `{part}`"))?;
            let hi: usize = hi.parse().map_err(|_| format!("bad core range `{part}`"))?;
            if lo == 0 || hi < lo {
                return Err(format!("bad core range `{part}`"));
            }
            out.extend(lo..=hi);
        } else {
            let n: usize = part
                .parse()
                .map_err(|_| format!("bad core count `{part}`"))?;
            if n == 0 {
                return Err("core count must be >= 1".into());
            }
            out.push(n);
        }
    }
    if out.is_empty() {
        return Err("empty core spec".into());
    }
    Ok(out)
}

fn parse_spm(spec: &str) -> Result<Vec<Option<u64>>, String> {
    split_list(spec)
        .into_iter()
        .map(|p| {
            if p == "default" {
                Ok(None)
            } else {
                p.parse::<u64>()
                    .map(Some)
                    .map_err(|_| format!("bad SPM capacity `{p}`"))
            }
        })
        .collect()
}

fn parse_chunk(spec: &str) -> Result<Vec<bool>, String> {
    match spec {
        "on" => Ok(vec![true]),
        "off" => Ok(vec![false]),
        "both" => Ok(vec![true, false]),
        other => Err(format!("bad chunk mode `{other}` (expected on|off|both)")),
    }
}

struct Options {
    space: DesignSpace,
    strategy: Option<Box<dyn SearchStrategy>>,
    budget: Option<usize>,
    stall: Option<usize>,
    threads: Option<usize>,
    store: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    quiet: bool,
}

fn parse_explore_args(args: &[String]) -> Result<Options, String> {
    let mut space = DesignSpace::new();
    let mut strategy: Option<Box<dyn SearchStrategy>> = None;
    let mut budget = None;
    let mut stall = None;
    let mut threads = None;
    let mut store = None;
    let mut csv = None;
    let mut json = None;
    let mut trace = None;
    let mut quiet = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--app" | "--apps" => {
                let v = value()?;
                for a in split_list(v) {
                    space.apps.push(a.to_string());
                }
            }
            "--platforms" => {
                space.platforms = split_list(value()?)
                    .into_iter()
                    .map(PlatformKind::parse)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--cores" => space.cores = parse_cores(value()?)?,
            "--schedulers" => {
                let v = value()?;
                space.schedulers = if v == "all" {
                    SchedulerKind::ALL.to_vec()
                } else {
                    split_list(v)
                        .into_iter()
                        .map(SchedulerKind::parse)
                        .collect::<Result<Vec<_>, _>>()?
                };
            }
            "--granularities" => {
                space.granularities = split_list(value()?)
                    .into_iter()
                    .map(Granularity::parse)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--chunk" => space.chunking = parse_chunk(value()?)?,
            "--spm" => space.spm_capacities = parse_spm(value()?)?,
            "--mhp" => space.mhp = MhpMode::parse(value()?)?,
            "--feedback-rounds" => {
                space.feedback_rounds = value()?
                    .parse()
                    .map_err(|_| "bad --feedback-rounds".to_string())?;
            }
            "--seed" => space.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--strategy" => {
                let v = value()?;
                strategy = if v == "exhaustive" {
                    None
                } else {
                    Some(parse_strategy(v)?)
                };
            }
            "--budget" => {
                budget = Some(value()?.parse().map_err(|_| "bad --budget".to_string())?);
            }
            "--stall" => {
                stall = Some(value()?.parse().map_err(|_| "bad --stall".to_string())?);
            }
            "--threads" => {
                threads = Some(value()?.parse().map_err(|_| "bad --threads".to_string())?);
            }
            "--store" => store = Some(value()?.to_string()),
            "--csv" => csv = Some(value()?.to_string()),
            "--json" => json = Some(value()?.to_string()),
            "--trace" => trace = Some(value()?.to_string()),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown flag `{other}` (see `argo-dse help`)")),
        }
    }
    if space.apps.is_empty() {
        space.apps.push("egpws".to_string());
    }
    // A budget without a strategy would silently run the full lattice —
    // reject instead of dropping the user's limit on the floor.
    if strategy.is_none() && (budget.is_some() || stall.is_some()) {
        return Err(
            "--budget/--stall require a steered search: add --strategy ga|anneal|halving".into(),
        );
    }
    Ok(Options {
        space,
        strategy,
        budget,
        stall,
        threads,
        store,
        csv,
        json,
        trace,
        quiet,
    })
}

fn run_explore(args: &[String]) -> Result<bool, String> {
    let opts = parse_explore_args(args)?;
    if opts.trace.is_some() {
        argo_trace::enable_spans();
        argo_trace::enable_metrics();
    }
    let mut explorer = match opts.threads {
        Some(t) => Explorer::with_threads(t),
        None => Explorer::new(),
    };
    if let Some(dir) = &opts.store {
        let store =
            argo_store::Store::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
        explorer = explorer.with_store(std::sync::Arc::new(store));
    }
    let report = match &opts.strategy {
        None => explorer.explore(&opts.space),
        Some(strategy) => {
            // Default budget: a quarter of the lattice (the point of a
            // steered search), but never fewer than 16 evaluations.
            let max = opts
                .budget
                .unwrap_or_else(|| (opts.space.len() / 4).max(16));
            let mut budget = Budget::evaluations(max);
            if let Some(n) = opts.stall {
                budget = budget.with_stall(n);
            }
            explorer.search(&opts.space, strategy.as_ref(), budget)
        }
    };
    if let Some(path) = &opts.csv {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &opts.trace {
        argo_trace::write_trace(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if !opts.quiet {
        print!("{}", report.to_text());
    }
    Ok(report.failures() == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => match run_explore(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("argo-dse: some exploration points failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("argo-dse: {e}");
                ExitCode::from(2)
            }
        },
        Some("list-apps") => {
            for (name, title, _) in argo_apps::USE_CASES {
                println!("{name:<6} — {title}");
            }
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("argo-dse: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_specs_parse() {
        assert_eq!(parse_cores("1,2,4,8").unwrap(), vec![1, 2, 4, 8]);
        assert_eq!(parse_cores("1..4").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_cores("1..2,8").unwrap(), vec![1, 2, 8]);
        assert!(parse_cores("0").is_err());
        assert!(parse_cores("4..2").is_err());
        assert!(parse_cores("x").is_err());
    }

    #[test]
    fn spm_and_chunk_specs_parse() {
        assert_eq!(
            parse_spm("default,0,4096").unwrap(),
            vec![None, Some(0), Some(4096)]
        );
        assert!(parse_spm("lots").is_err());
        assert_eq!(parse_chunk("both").unwrap(), vec![true, false]);
        assert!(parse_chunk("maybe").is_err());
    }

    #[test]
    fn explore_args_build_a_space() {
        let args: Vec<String> = [
            "--app",
            "egpws,polka",
            "--platforms",
            "bus,noc",
            "--cores",
            "1..4",
            "--schedulers",
            "all",
            "--threads",
            "3",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_explore_args(&args).unwrap();
        assert_eq!(o.space.apps, vec!["egpws", "polka"]);
        assert_eq!(o.space.platforms.len(), 2);
        assert_eq!(o.space.cores, vec![1, 2, 3, 4]);
        assert_eq!(o.space.schedulers.len(), 3);
        assert_eq!(o.space.len(), 2 * 2 * 4 * 3);
        assert_eq!(o.threads, Some(3));
        assert!(o.quiet);
    }

    #[test]
    fn strategy_flags_parse() {
        let args: Vec<String> = ["--strategy", "ga", "--budget", "64", "--stall", "16"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_explore_args(&args).unwrap();
        assert_eq!(o.strategy.as_ref().unwrap().name(), "ga");
        assert_eq!(o.budget, Some(64));
        assert_eq!(o.stall, Some(16));

        let exhaustive =
            parse_explore_args(&["--strategy".to_string(), "exhaustive".into()]).unwrap();
        assert!(exhaustive.strategy.is_none());

        assert!(parse_explore_args(&["--strategy".to_string(), "tabu".into()]).is_err());
        assert!(parse_explore_args(&["--budget".to_string(), "x".into()]).is_err());
        // Budget/stall without a strategy would be silently ignored —
        // rejected instead.
        let err = match parse_explore_args(&["--budget".to_string(), "64".into()]) {
            Err(e) => e,
            Ok(_) => panic!("--budget without --strategy must be rejected"),
        };
        assert!(err.contains("--strategy"), "{err}");
        assert!(parse_explore_args(&[
            "--strategy".to_string(),
            "exhaustive".into(),
            "--stall".into(),
            "8".into()
        ])
        .is_err());
    }

    #[test]
    fn store_flag_parses() {
        let o = parse_explore_args(&["--store".to_string(), "/tmp/argo-store".into()]).unwrap();
        assert_eq!(o.store.as_deref(), Some("/tmp/argo-store"));
        assert!(parse_explore_args(&["--store".to_string()]).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let args = vec!["--frobnicate".to_string()];
        assert!(parse_explore_args(&args).is_err());
    }
}
