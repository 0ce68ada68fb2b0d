//! Golden tests pinning `BackendResult::report()` byte-identical for the
//! three use cases across all MHP modes, the frontend and seed-cost
//! stages digest by digest across granularities, core counts and
//! chunking, and the stage fingerprints and store encodings that
//! clients and the artifact store see.
//!
//! The golden files under `tests/golden/` were generated from the
//! pre-slot-resolution tool-chain, so these tests prove the interning /
//! slot-resolution rework is a pure performance change: every analysis
//! number, schedule assignment and contender count in the human report
//! is unchanged to the byte.
//!
//! Regenerate (only after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_reports
//! ```

use argo_adl::{CacheConfig, Platform};
use argo_core::{
    Artifact, Codec, CollectingObserver, ErrorCode, FingerprintHasher, SchedulerKind, Stage,
    StageEvent, ToolchainConfig, Toolflow,
};
use argo_dse::PlatformKind;
use argo_htg::Granularity;
use argo_wcet::system::MhpMode;
use std::fmt::Write as _;
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
        "report for `{name}` drifted from the pinned golden"
    );
}

#[test]
fn reports_match_pre_resolution_goldens() {
    let platform = Platform::xentium_manycore(4);
    for uc in argo_apps::all_use_cases(42) {
        for mhp in MhpMode::ALL {
            let cfg = ToolchainConfig {
                mhp,
                ..Default::default()
            };
            let r = Toolflow::new(uc.program.clone(), uc.entry)
                .platform(&platform)
                .config(cfg)
                .run()
                .expect("compile");
            check_or_update(&format!("{}_{}.report.txt", uc.name, mhp), &r.report());
        }
    }
}

/// The FNV-1a digest of one rendering, as 16 hex digits.
fn digest(text: &str) -> String {
    FingerprintHasher::new().write_str(text).finish().to_hex()
}

/// Pins the frontend and seed-cost stages on every app × granularity ×
/// core count × chunking choice. Each line digests the printed program,
/// the loop bounds, the `{:?}` of the whole HTG (edge `vars` and
/// `conflicts` and the tasks' read/write/live-read sets, which the
/// HTG's fingerprint leaves out) and the round-0 cost tables on the
/// bus, the NoC and the bus with `CacheConfig::small()` data caches.
#[test]
fn frontend_and_seed_costs_match_digests() {
    let mut actual = String::new();
    for uc in argo_apps::all_use_cases(42) {
        for (label, granularity) in [
            ("loop", Granularity::Loop),
            ("block", Granularity::Block),
            ("stmt", Granularity::Stmt),
        ] {
            for cores in [1, 2, 3, 4, 8] {
                for chunk_loops in [true, false] {
                    let cfg = ToolchainConfig {
                        granularity,
                        chunk_loops,
                        ..Default::default()
                    };
                    let bus = PlatformKind::Bus.build(cores, None);
                    let noc = PlatformKind::Noc.build(cores, None);
                    let cached = bus.clone().with_caches(CacheConfig::small());
                    let artifact = Toolflow::borrowed(&uc.program, uc.entry)
                        .platform(&bus)
                        .config(cfg.clone())
                        .run_frontend()
                        .expect("frontend");
                    let seed = |platform: &Platform| {
                        let table = Toolflow::borrowed(&uc.program, uc.entry)
                            .platform(platform)
                            .config(cfg.clone())
                            .run_seed_costs(&artifact)
                            .expect("seed costs");
                        digest(&format!("{table:?}"))
                    };
                    writeln!(
                        actual,
                        "{} {label} cores={cores} chunk={} program={} bounds={} htg={} \
                         bus={} noc={} cached={}",
                        uc.name,
                        if chunk_loops { "on" } else { "off" },
                        digest(&argo_ir::printer::print_program(&artifact.program)),
                        digest(&format!("{:?}", artifact.bounds)),
                        digest(&format!("{:?}", artifact.htg)),
                        seed(&bus),
                        seed(&noc),
                        seed(&cached),
                    )
                    .expect("write to String");
                }
            }
        }
    }
    check_or_update("frontend_digests.txt", &actual);
}

/// Pins the stage fingerprints and the store encodings on every app ×
/// platform × MHP mode × scheduler. Each line holds the frontend
/// artifact, seed-cost and backend-result fingerprints of the staged
/// run, the frontend and backend fingerprints of the one-shot `run()`
/// (as its observer saw them), and digests of the frontend artifact's
/// and cost table's `Codec` bytes. Serve progress frames carry these
/// fingerprints, and the artifact store validates every read against
/// them.
#[test]
fn stage_fingerprints_and_encodings_match_golden() {
    let platforms = [
        ("bus1", Platform::xentium_manycore(1)),
        ("bus4", Platform::xentium_manycore(4)),
        ("noc2x2", Platform::kit_tile_noc(2, 2)),
        (
            "cached-bus4",
            Platform::xentium_manycore(4).with_caches(CacheConfig::small()),
        ),
    ];
    let bytes_digest = |bytes: &[u8]| {
        FingerprintHasher::new()
            .write_bytes(bytes)
            .finish()
            .to_hex()
    };
    let mut actual = String::new();
    for uc in argo_apps::all_use_cases(42) {
        for (label, platform) in &platforms {
            for mhp in MhpMode::ALL {
                for scheduler in [SchedulerKind::List, SchedulerKind::Anneal] {
                    let cfg = ToolchainConfig {
                        mhp,
                        scheduler,
                        ..Default::default()
                    };
                    let flow = Toolflow::borrowed(&uc.program, uc.entry)
                        .platform(platform)
                        .config(cfg.clone());
                    let artifact = flow.run_frontend().expect("frontend");
                    let costs = flow.run_seed_costs(&artifact).expect("seed costs");
                    let frontend_bytes = bytes_digest(&artifact.to_bytes());
                    let frontend_fp = artifact.fingerprint();
                    let staged = flow.run_backend(artifact, Some(&costs)).expect("backend");

                    let obs = CollectingObserver::new();
                    let one_shot = Toolflow::borrowed(&uc.program, uc.entry)
                        .platform(platform)
                        .config(cfg)
                        .observer(&obs)
                        .run()
                        .expect("run");
                    let observed = |stage: Stage| {
                        obs.events()
                            .iter()
                            .find_map(|e| match e {
                                StageEvent::Finished(s) if s.stage == stage => Some(s.fingerprint),
                                _ => None,
                            })
                            .expect("stage finished")
                    };
                    assert_eq!(observed(Stage::Backend), one_shot.fingerprint());
                    writeln!(
                        actual,
                        "{} {label} {mhp} {} frontend={} seed={} backend={} \
                         run_frontend={} run_backend={} frontend_bytes={frontend_bytes} \
                         seed_bytes={}",
                        uc.name,
                        scheduler.label(),
                        frontend_fp.to_hex(),
                        costs.fingerprint().to_hex(),
                        staged.fingerprint().to_hex(),
                        observed(Stage::Frontend).to_hex(),
                        one_shot.fingerprint().to_hex(),
                        bytes_digest(&costs.to_bytes()),
                    )
                    .expect("write to String");
                }
            }
        }
    }
    check_or_update("stage_fingerprints.txt", &actual);
}

/// Every `Stage` and `ErrorCode` label with the one byte the codec
/// writes for it. The point archive stores these bytes inside archived
/// diagnostics, so a reordered or renumbered variant must fail here.
const STAGE_TAGS: [(&str, u8); 4] = [
    ("frontend", 0),
    ("seed-costs", 1),
    ("backend", 2),
    ("verify", 3),
];
const ERROR_CODE_TAGS: [(&str, u8); 22] = [
    ("invalid-program", 0),
    ("unknown-program", 1),
    ("unknown-entry", 2),
    ("missing-platform", 3),
    ("invalid-platform", 4),
    ("transform-failed", 5),
    ("unbounded-loop", 6),
    ("extraction-failed", 7),
    ("empty-htg", 8),
    ("code-wcet-failed", 9),
    ("mem-assign-failed", 10),
    ("parallel-model-failed", 11),
    ("data-race", 12),
    ("unsound-schedule", 13),
    ("placement-overflow", 14),
    ("comm-ordering", 15),
    ("uninit-read", 16),
    ("dead-store", 17),
    ("unreachable-stmt", 18),
    ("internal-error", 19),
    ("deadline-exceeded", 20),
    ("leader-failed", 21),
];

/// Decodes every one-byte input as `T` and returns the (label, byte)
/// pairs that decode, after checking each re-encodes to its byte.
fn decodable_tags<T: Codec>(label: impl Fn(&T) -> &'static str) -> Vec<(&'static str, u8)> {
    (0..=u8::MAX)
        .filter_map(|b| {
            let v = T::from_bytes(&[b]).ok()?;
            assert_eq!(v.to_bytes(), [b], "{} re-encodes to its tag", label(&v));
            Some((label(&v), b))
        })
        .collect()
}

#[test]
fn diagnostic_tags_match_the_pinned_byte_table() {
    assert_eq!(decodable_tags::<Stage>(Stage::label), STAGE_TAGS);
    assert_eq!(
        decodable_tags::<ErrorCode>(ErrorCode::label),
        ERROR_CODE_TAGS
    );
}
