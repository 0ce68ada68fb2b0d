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

use argo_adl::PlatformKind;
use argo_core::{ErrorCode, ToolchainConfig, Toolflow};
use argo_verify::{parse_code, verify_backend, VerifyConfig};
use argo_wcet::system::MhpMode;
use std::process::ExitCode;

fn usage() -> String {
    let apps = argo_apps::USE_CASES.map(|(name, ..)| name).join(", ");
    format!(
        "argo-verify — independent static verification (ARGO toolflow)

USAGE:
    argo-verify [OPTIONS]
    argo-verify help

OPTIONS:
    --app NAME[,NAME...]   use cases: {apps} or all (default: all)
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
"
    )
}

fn parse_mhp_list(spec: &str) -> Result<Vec<MhpMode>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part {
            "all" => out.extend(MhpMode::ALL),
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
    platform: PlatformKind,
    cores: usize,
    spm: Option<u64>,
    allow: Vec<ErrorCode>,
    seed: u64,
    trace: Option<String>,
    quiet: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        apps: argo_apps::USE_CASES.map(|(name, ..)| name.into()).to_vec(),
        mhp: MhpMode::ALL.to_vec(),
        platform: PlatformKind::Bus,
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
                    opts.apps = argo_apps::USE_CASES.map(|(name, ..)| name.into()).to_vec();
                } else {
                    opts.apps = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
            }
            "--mhp" => opts.mhp = parse_mhp_list(&value()?)?,
            "--platform" => opts.platform = PlatformKind::parse(&value()?)?,
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "help" || a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.trace.is_some() {
        argo_trace::enable_spans();
        argo_trace::enable_metrics();
    }
    let platform = opts.platform.build(opts.cores, opts.spm);

    let mut failed = false;
    for name in &opts.apps {
        let Some(uc) = argo_apps::use_case(name, opts.seed) else {
            let names = argo_apps::USE_CASES.map(|(name, ..)| name);
            let (last, rest) = names.split_last().expect("use cases are registered");
            eprintln!(
                "error: unknown app `{name}` (expected {} or {last})",
                rest.join(", ")
            );
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
        if let Err(e) = argo_trace::write_trace(std::path::Path::new(path)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
