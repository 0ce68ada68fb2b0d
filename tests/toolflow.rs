//! Integration suite for the `Toolflow` session API:
//!
//! 1. **Equivalence** — the staged session run (`run_frontend` →
//!    `run_seed_costs` → `run_backend`) produces a byte-identical
//!    `report()` to the one-shot `Toolflow::run()` for every bundled
//!    use case, across every MHP analysis mode.
//! 2. **Observer discipline** (property) — stage events are well-nested
//!    `(start, finish)` pairs for arbitrary configurations, with one
//!    feedback snapshot per backend round.
//! 3. **Fingerprint stability** — canonical platform/config
//!    fingerprints are pinned to fixed expected hashes, so any process,
//!    build or refactor that changes the encoding fails this regression
//!    (the contract persistent caches rely on).

use argo_adl::Platform;
use argo_core::{
    Artifact, CollectingObserver, Fingerprintable, SchedulerKind, Stage, ToolchainConfig, Toolflow,
};
use argo_htg::Granularity;
use argo_wcet::system::MhpMode;
use proptest::prelude::*;

/// Staged session output (with seeded round-0 costs) is bit-identical
/// to the one-shot `Toolflow::run()` on all three bundled apps (egpws,
/// polka, weaa), for every MHP mode.
#[test]
fn staged_session_report_is_byte_identical_to_one_shot_run() {
    for uc in argo_apps::all_use_cases(42) {
        for mhp in [MhpMode::Naive, MhpMode::Static, MhpMode::Windows] {
            let platform = Platform::xentium_manycore(4);
            let cfg = ToolchainConfig {
                mhp,
                ..Default::default()
            };
            let one_shot = Toolflow::new(uc.program.clone(), uc.entry)
                .platform(&platform)
                .config(cfg.clone())
                .run()
                .unwrap_or_else(|e| panic!("{} ({mhp}): {e}", uc.name));
            let flow = Toolflow::new(uc.program.clone(), uc.entry)
                .platform(&platform)
                .config(cfg);
            let artifact = flow.run_frontend().unwrap();
            let costs = flow.run_seed_costs(&artifact).unwrap();
            let staged = flow.run_backend(artifact, Some(&costs)).unwrap();
            assert_eq!(
                one_shot.report(),
                staged.report(),
                "{} ({mhp}): staged report differs from the one-shot run",
                uc.name
            );
            assert_eq!(
                one_shot.fingerprint(),
                staged.fingerprint(),
                "{} ({mhp}): result fingerprints differ",
                uc.name
            );
        }
    }
}

const TINY: &str = r#"
    real main(real a[32], real b[32]) {
        real s; int i;
        s = 0.0;
        for (i = 0; i < 32; i = i + 1) {
            b[i] = sqrt(a[i]) + a[i] * 2.0;
        }
        for (i = 0; i < 32; i = i + 1) { s = s + b[i]; }
        return s;
    }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary configurations, observer events are well-nested
    /// `(start, finish)` pairs per stage — one pair per stage run, with
    /// feedback snapshots only inside the backend.
    #[test]
    fn observer_events_are_well_nested_for_arbitrary_configs(
        cores in 1usize..5,
        sched in prop_oneof![
            Just(SchedulerKind::List),
            Just(SchedulerKind::BranchAndBound),
            Just(SchedulerKind::Anneal),
        ],
        gran in prop_oneof![
            Just(Granularity::Loop),
            Just(Granularity::Block),
            Just(Granularity::Stmt),
        ],
        chunk in any::<bool>(),
        rounds in 1u32..4,
        seeded in any::<bool>(),
    ) {
        let program = argo_ir::parse::parse_program(TINY).unwrap();
        let platform = Platform::xentium_manycore(cores);
        let cfg = ToolchainConfig {
            granularity: gran,
            chunk_loops: chunk,
            scheduler: sched,
            feedback_rounds: rounds,
            ..Default::default()
        };
        let obs = CollectingObserver::new();
        let flow = Toolflow::new(program, "main")
            .platform(&platform)
            .config(cfg)
            .observer(&obs);
        let artifact = flow.run_frontend().unwrap();
        let r = if seeded {
            let costs = flow.run_seed_costs(&artifact).unwrap();
            flow.run_backend(artifact, Some(&costs)).unwrap()
        } else {
            flow.run_backend(artifact, None).unwrap()
        };
        prop_assert!(obs.well_nested(), "events not well-nested: {:?}", obs.events());
        prop_assert_eq!(obs.finished_count(Stage::Frontend), 1);
        prop_assert_eq!(obs.finished_count(Stage::SeedCosts), usize::from(seeded));
        prop_assert_eq!(obs.finished_count(Stage::Backend), 1);
        prop_assert_eq!(obs.feedback_rounds().len() as u32, r.feedback_iterations);
    }
}

/// Canonical fingerprints are *pinned*: these constants were produced
/// by a separate process and must reproduce forever. A failure here
/// means the canonical encoding changed — which invalidates every
/// persisted cache key downstream, so it must be a deliberate,
/// versioned decision, never an accident.
#[test]
fn platform_and_config_fingerprints_are_stable_across_processes() {
    assert_eq!(
        Platform::xentium_manycore(4).fingerprint().to_hex(),
        "05a5b7431a94a350"
    );
    assert_eq!(
        Platform::kit_tile_noc(2, 2).fingerprint().to_hex(),
        "5e00179844742f32"
    );
    assert_eq!(
        ToolchainConfig::default().fingerprint().to_hex(),
        "b2b8817ad8ba11f6"
    );
}

/// The same inputs fingerprint identically through independently built
/// sessions (the in-process half of cross-process stability), and the
/// hex rendering round-trips the raw value.
#[test]
fn session_stage_fingerprints_reproduce() {
    let platform = Platform::xentium_manycore(4);
    let a = Toolflow::new(argo_ir::parse::parse_program(TINY).unwrap(), "main").platform(&platform);
    let b = Toolflow::new(argo_ir::parse::parse_program(TINY).unwrap(), "main").platform(&platform);
    let fa = a.frontend_fingerprint().unwrap();
    assert_eq!(fa, b.frontend_fingerprint().unwrap());
    assert_eq!(
        a.seed_cost_fingerprint().unwrap(),
        b.seed_cost_fingerprint().unwrap()
    );
    assert_eq!(fa.to_hex().len(), 16);
    assert_eq!(u64::from_str_radix(&fa.to_hex(), 16).unwrap(), fa.0);
}

/// Observer events carry a per-session sequence number: one shared
/// counter across all event kinds, strictly increasing in emission
/// order with no gaps — the contract `argo-serve` relies on to let
/// clients restore order over a reordering transport. Pinned here so a
/// refactor that forks the counter per event kind (or starts it
/// anywhere but 0) fails loudly.
#[test]
fn observer_seq_is_contiguous_across_all_event_kinds() {
    let platform = Platform::xentium_manycore(2);
    let obs = CollectingObserver::new();
    let flow = Toolflow::new(argo_ir::parse::parse_program(TINY).unwrap(), "main")
        .platform(&platform)
        .config(ToolchainConfig {
            feedback_rounds: 2,
            ..Default::default()
        })
        .observer(&obs);
    let artifact = flow.run_frontend().unwrap();
    let costs = flow.run_seed_costs(&artifact).unwrap();
    flow.run_backend(artifact, Some(&costs)).unwrap();

    let seqs = obs.seqs();
    let expected: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(
        seqs, expected,
        "seq must be contiguous from 0 in arrival order (starts, finishes \
         and feedback rounds share one counter)"
    );
    // Three stages ran and two feedback rounds fired: 3×(start+finish)+2.
    assert_eq!(seqs.len(), 8);

    // A second session starts its own counter at 0.
    let obs2 = CollectingObserver::new();
    let flow2 = Toolflow::new(argo_ir::parse::parse_program(TINY).unwrap(), "main")
        .platform(&platform)
        .observer(&obs2);
    flow2.run_frontend().unwrap();
    assert_eq!(obs2.seqs(), vec![0, 1]);
}
