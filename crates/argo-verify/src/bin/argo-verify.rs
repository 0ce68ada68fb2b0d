//! `argo-verify` — standalone verification of the seed use cases.
//!
//! ```sh
//! argo-verify --app all --mhp all --cores 4
//! argo-verify --app egpws --mhp static --platform noc --allow dead-store
//! ```
//!
//! Compiles each requested use case through the full toolflow, then
//! runs the independent verifier (race detection, schedule/placement
//! validation, IR lints) over the result. Exits 0 when every report
//! passes the default gate (no error-severity findings), 1 when any
//! gate fails, 2 on usage errors.

use argo_adl::Platform;
use argo_core::{ErrorCode, ToolchainConfig, Toolflow};
use argo_verify::{parse_code, verify_backend, VerifyConfig};
use argo_wcet::system::MhpMode;
use std::process::ExitCode;

const USAGE: &str = "argo-verify — independent static verification (ARGO toolflow)

USAGE:
    argo-verify [OPTIONS]
    argo-verify help

OPTIONS:
    --app NAME[,NAME...]   use cases: egpws, weaa, polka or all (default: all)
    --mhp MODE[,MODE...]   naive|static|windows or all (default: all)
    --platform KIND        bus|noc (default: bus)
    --cores N              core count (default: 4)
    --spm BYTES            per-core scratchpad override (default: platform value)
    --allow CODE           drop findings with this code (repeatable),
                           e.g. --allow dead-store --allow uninit-read
    --seed N               synthetic input seed (default: 42)
    --trace PATH           record spans and write a Chrome trace-event
                           JSON there; a flame summary goes to stderr
    --quiet                only print failing reports
";

fn parse_mhp_list(spec: &str) -> Result<Vec<MhpMode>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part {
            "all" => out.extend([MhpMode::Naive, MhpMode::Static, MhpMode::Windows]),
            mode => out.push(MhpMode::parse(mode)?),
        }
    }
    if out.is_empty() {
        return Err("empty MHP list".into());
    }
    Ok(out)
}

struct Opts {
    apps: Vec<String>,
    mhp: Vec<MhpMode>,
    noc: bool,
    cores: usize,
    spm: Option<u64>,
    allow: Vec<ErrorCode>,
    seed: u64,
    trace: Option<String>,
    quiet: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        apps: vec!["egpws".into(), "weaa".into(), "polka".into()],
        mhp: vec![MhpMode::Naive, MhpMode::Static, MhpMode::Windows],
        noc: false,
        cores: 4,
        spm: None,
        allow: Vec::new(),
        seed: 42,
        trace: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--app" => {
                let v = value()?;
                if v == "all" {
                    opts.apps = vec!["egpws".into(), "weaa".into(), "polka".into()];
                } else {
                    opts.apps = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
            }
            "--mhp" => opts.mhp = parse_mhp_list(&value()?)?,
            "--platform" => match value()?.as_str() {
                "bus" => opts.noc = false,
                "noc" => opts.noc = true,
                other => return Err(format!("unknown platform `{other}`")),
            },
            "--cores" => {
                opts.cores = value()?
                    .parse()
                    .map_err(|_| "bad --cores value".to_string())?;
                if opts.cores == 0 {
                    return Err("--cores must be >= 1".into());
                }
            }
            "--spm" => {
                opts.spm = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --spm value".to_string())?,
                )
            }
            "--allow" => {
                let v = value()?;
                opts.allow
                    .push(parse_code(&v).ok_or_else(|| format!("unknown finding code `{v}`"))?);
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?
            }
            "--trace" => opts.trace = Some(value()?.to_string()),
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn build_platform(opts: &Opts) -> Platform {
    let mut platform = if opts.noc {
        // Squarest grid holding the requested core count.
        let rows = (1..=opts.cores)
            .filter(|&r| opts.cores.is_multiple_of(r))
            .min_by_key(|&r| (opts.cores / r).abs_diff(r))
            .unwrap_or(1);
        Platform::kit_tile_noc(rows, opts.cores / rows)
    } else {
        Platform::xentium_manycore(opts.cores)
    };
    if let Some(spm) = opts.spm {
        for core in &mut platform.cores {
            core.spm_bytes = spm;
        }
    }
    platform
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "help" || a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.trace.is_some() {
        argo_trace::enable_spans();
        argo_trace::enable_metrics();
    }
    let platform = build_platform(&opts);
    let use_cases = argo_apps::all_use_cases(opts.seed);

    let mut failed = false;
    for name in &opts.apps {
        let Some(uc) = use_cases.iter().find(|u| u.name == name.as_str()) else {
            eprintln!("error: unknown app `{name}` (expected egpws, weaa or polka)");
            return ExitCode::from(2);
        };
        for &mhp in &opts.mhp {
            let cfg = ToolchainConfig {
                mhp,
                ..Default::default()
            };
            let flow = Toolflow::borrowed(&uc.program, uc.entry)
                .platform(&platform)
                .config(cfg);
            let result = match flow.run() {
                Ok(r) => r,
                Err(d) => {
                    eprintln!("{name} [{mhp}]: pipeline failed: {d}");
                    failed = true;
                    continue;
                }
            };
            let vcfg = VerifyConfig {
                mhp,
                allow: opts.allow.clone(),
            };
            let report = verify_backend(&result, &platform, &vcfg);
            let gated = report.gate().is_err();
            failed |= gated;
            if !opts.quiet || gated {
                print!("{name}: {}", report.render_text());
            }
        }
    }
    if let Some(path) = &opts.trace {
        if let Err(e) =
            argo_trace::write_chrome_trace(argo_trace::global(), std::path::Path::new(path))
        {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
        eprint!(
            "{}",
            argo_trace::flame_summary(&argo_trace::global().snapshot(), 12)
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
