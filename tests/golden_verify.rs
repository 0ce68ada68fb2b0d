//! Golden tests pinning the verifier's rendered report byte-identical
//! for the three use cases across all MHP modes (satellite of PR 6).
//!
//! Diagnostic *stability* is part of the verifier's contract: the same
//! program under the same mode must produce the identical report on
//! every run and on every thread count, so CI gates and DSE failure
//! classes never flap. Each combination is rendered twice per test run
//! (fresh pipeline each time) and must agree with itself before being
//! compared against the pinned golden.
//!
//! Every report above reads `clean`, so a second golden pins the race
//! detector's *racy* output: `verify_races.txt` holds, per seed app ×
//! MHP mode × 4- and 8-core bus, every finding `check_races` reports
//! once the task graph's dependence edges are cleared (the lost-edge
//! bug class `tests/verify_oracle.rs` re-seeds), one per line, in the
//! detector's own order.
//!
//! Regenerate (only after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_verify
//! ```

use argo_adl::Platform;
use argo_core::{BackendResult, ToolchainConfig, Toolflow};
use argo_verify::{race::check_races, verify_backend, VerifyConfig};
use argo_wcet::system::MhpMode;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_or_update(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden `{}` ({e}); run with GOLDEN_UPDATE=1", name));
    assert_eq!(
        expected, actual,
        "verify report for `{name}` drifted from the pinned golden"
    );
}

fn compile(name: &str, mhp: MhpMode, platform: &Platform) -> BackendResult {
    let uc = argo_apps::all_use_cases(42)
        .into_iter()
        .find(|u| u.name == name)
        .expect("known use case");
    let cfg = ToolchainConfig {
        mhp,
        ..Default::default()
    };
    Toolflow::new(uc.program, uc.entry)
        .platform(platform)
        .config(cfg)
        .run()
        .expect("compile")
}

fn rendered(name: &str, mhp: MhpMode, platform: &Platform) -> String {
    let r = compile(name, mhp, platform);
    let report = verify_backend(&r, platform, &VerifyConfig { mhp, allow: vec![] });
    report.render_text()
}

#[test]
fn verify_reports_match_goldens_and_are_run_to_run_stable() {
    let platform = Platform::xentium_manycore(4);
    for app in ["egpws", "weaa", "polka"] {
        for mhp in MhpMode::ALL {
            let first = rendered(app, mhp, &platform);
            let second = rendered(app, mhp, &platform);
            assert_eq!(first, second, "{app} [{mhp}] not run-to-run stable");
            check_or_update(&format!("verify_{app}_{mhp}.txt"), &first);
        }
    }
}

#[test]
fn race_findings_on_edgeless_task_graphs_match_the_golden() {
    let mut out = String::new();
    for cores in [4, 8] {
        let platform = Platform::xentium_manycore(cores);
        for app in ["egpws", "weaa", "polka"] {
            for mhp in MhpMode::ALL {
                let mut r = compile(app, mhp, &platform);
                r.parallel.graph.edges.clear();
                if mhp == MhpMode::Windows {
                    // The published windows of an unmutated schedule
                    // never overlap across an edge; opening them all
                    // at cycle 0 lets this mode report races too.
                    r.system.start.iter_mut().for_each(|s| *s = 0);
                }
                let findings = check_races(&r, mhp);
                out.push_str(&format!(
                    "== {app} {mhp} {cores}-core bus: {} findings\n",
                    findings.len()
                ));
                for f in &findings {
                    out.push_str(&format!("{f}\n"));
                }
            }
        }
    }
    check_or_update("verify_races.txt", &out);
}
