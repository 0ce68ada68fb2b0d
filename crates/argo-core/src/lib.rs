//! # argo-core — the ARGO tool-chain driver (paper Fig. 1)
//!
//! Chains every stage of the ARGO design workflow:
//!
//! ```text
//! model/mini-C ──► transforms ──► HTG extraction ──► scheduling/mapping
//!      ▲                                                    │
//!      │                                                    ▼
//!      └─── iterative optimisation ◄── system-level ◄── parallel model
//!                (§ II-E feedback)       WCET (§ II-D)     (§ II-C)
//! ```
//!
//! The phase-ordering problem the paper calls out — task WCETs depend on
//! memory placement, placement depends on the schedule, the schedule
//! depends on task WCETs — is resolved exactly as § II-E prescribes:
//! "WCET information is fed back to the previous compilation phases to
//! enable an iterative optimization of the parallelization process".
//! The backend starts from a conservative all-shared placement, then
//! re-costs, re-schedules and re-places until the assignment stabilises
//! (bounded by [`ToolchainConfig::feedback_rounds`]).
//!
//! ## The `Toolflow` session API
//!
//! The driver is a typed, observable, fingerprint-native session:
//! [`Toolflow`] binds program, entry, platform, config and (optionally)
//! a [`StageObserver`], then runs the pipeline whole
//! (`Toolflow::new(program, "main").platform(&platform).config(cfg).run()`)
//! or stage by stage ([`Toolflow::run_frontend`] →
//! [`Toolflow::run_seed_costs`] → [`Toolflow::run_backend`]). Each
//! stage yields an [`Artifact`]:
//! [`FrontendArtifact`] → [`CostTable`] → [`BackendResult`], every one
//! carrying a canonical content [`Fingerprint`] (the backend result
//! shares the frontend artifact's program, resolution and HTG through
//! `Arc`s);
//! [`Platform`](argo_adl::Platform) and [`ToolchainConfig`] are
//! [`Fingerprintable`] too, so caches (see `argo-dse`) key on API-owned
//! hashes instead of `Debug` formatting. Observers receive paired
//! start/finish events and per-feedback-round schedule/placement
//! snapshots; the canonical per-stage input fingerprints
//! ([`Toolflow::frontend_fingerprint`],
//! [`Toolflow::seed_cost_fingerprint`]) are the `argo-dse` cache keys.
//! Failures are structured [`Diagnostic`]s (a [`Stage`], an
//! [`ErrorCode`], the offending entity, a rendered message).
//!
//! ## Cache keys
//!
//! Each key hashes exactly what its stage reads:
//!
//! | `argo-dse` tier | key | inputs |
//! |-----------------|-----|--------|
//! | 1, frontend | [`Toolflow::frontend_fingerprint`] | program text, entry, granularity, chunking, value context, core count |
//! | 2, seed costs | [`Toolflow::seed_cost_fingerprint`] | the frontend key and core 0's [`CostView`](argo_adl::CostView): its timing, scratchpad latency, cache and isolated shared-access price |
//! | 3, schedule | [`schedule_fingerprint`] | task graph (costs and edges), the scheduling context's comm model, core count and per-core all-contender shared-access prices, scheduler |
//!
//! ## Error codes
//!
//! [`Diagnostic::code`] classifies every failure; the stage that emits
//! each code:
//!
//! | [`ErrorCode`] | [`Stage`] |
//! |---------------|-----------|
//! | [`ErrorCode::InvalidProgram`] | frontend |
//! | [`ErrorCode::UnknownProgram`] (name-resolving drivers) | frontend |
//! | [`ErrorCode::UnknownEntry`] | frontend |
//! | [`ErrorCode::TransformFailed`] | frontend |
//! | [`ErrorCode::UnboundedLoop`] | frontend |
//! | [`ErrorCode::ExtractionFailed`] | frontend |
//! | [`ErrorCode::EmptyHtg`] | frontend/backend |
//! | [`ErrorCode::InvalidPlatform`] | seed-costs/backend |
//! | [`ErrorCode::MissingPlatform`] | backend |
//! | [`ErrorCode::CodeWcetFailed`] | seed-costs/backend |
//! | [`ErrorCode::MemAssignFailed`] | backend |
//! | [`ErrorCode::ParallelModelFailed`] | backend |
//! | [`ErrorCode::DataRace`] (`argo-verify` race detector) | verify |
//! | [`ErrorCode::UnsoundSchedule`] (`argo-verify` schedule validator) | verify |
//! | [`ErrorCode::PlacementOverflow`] (`argo-verify` placement validator) | verify |
//! | [`ErrorCode::CommOrdering`] (`argo-verify` comm-ordering check) | verify |
//! | [`ErrorCode::UninitRead`], [`ErrorCode::DeadStore`], [`ErrorCode::UnreachableStmt`] (`argo-verify` lints) | verify |

pub mod artifact;
pub mod cancel;
pub mod codec;
pub mod diag;
pub mod fingerprint;
pub mod observer;
pub mod session;

pub use artifact::{Artifact, BackendResult, CostTable, FrontendArtifact};
pub use cancel::CancelToken;
pub use codec::{Codec, DecodeError, Decoder, Encoder};
pub use diag::{Diagnostic, ErrorCode, Stage};
pub use fingerprint::{schedule_fingerprint, Fingerprint, FingerprintHasher, Fingerprintable};
pub use observer::{
    CollectingObserver, Fanout, FeedbackSnapshot, NullObserver, StageEvent, StageObserver,
    StageSummary, TraceObserver,
};
pub use session::{ScheduleCache, Toolflow};

pub(crate) use session::feed_frontend_config;

use argo_htg::Granularity;
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::{SchedCtx, Schedule, Scheduler, TaskGraph};
use argo_wcet::system::MhpMode;
use argo_wcet::value::ValueCtx;

/// Which scheduler the mapping stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// HEFT-style list scheduling (default).
    List,
    /// Exact branch-and-bound (small graphs).
    BranchAndBound,
    /// Simulated annealing refinement.
    Anneal,
}

impl SchedulerKind {
    /// Every scheduler, in the order the CLI lists them.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::List,
        SchedulerKind::BranchAndBound,
        SchedulerKind::Anneal,
    ];

    /// Stable lower-case label, shared by reports, CLI parsing and the
    /// canonical fingerprint encodings (a single source of truth: a new
    /// variant fails to compile until it has a label).
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::List => "list",
            SchedulerKind::BranchAndBound => "bnb",
            SchedulerKind::Anneal => "anneal",
        }
    }

    /// Schedules `graph` in `ctx` with this kind's scheduler at its
    /// default parameters.
    pub fn schedule(&self, graph: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
        match self {
            SchedulerKind::List => ListScheduler::new().schedule(graph, ctx),
            SchedulerKind::BranchAndBound => BranchAndBound::new().schedule(graph, ctx),
            SchedulerKind::Anneal => SimulatedAnnealing::new().schedule(graph, ctx),
        }
    }

    /// Parses a [`SchedulerKind::label`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted labels.
    pub fn parse(s: &str) -> Result<SchedulerKind, String> {
        let labels = SchedulerKind::ALL.map(|k| k.label());
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| format!("unknown scheduler `{s}` (expected {})", labels.join("|")))
    }
}

/// Tool-chain configuration.
#[derive(Debug, Clone)]
pub struct ToolchainConfig {
    /// Task extraction granularity.
    pub granularity: Granularity,
    /// Chunk parallelizable loops into `core_count` chunks first.
    pub chunk_loops: bool,
    /// Scheduler for the mapping stage.
    pub scheduler: SchedulerKind,
    /// MHP precision of the system-level analysis.
    pub mhp: MhpMode,
    /// Maximum feedback iterations (≥ 1).
    pub feedback_rounds: u32,
    /// Ranges for entry-function integer parameters (loop bounds).
    pub value_ctx: ValueCtx,
}

impl Default for ToolchainConfig {
    fn default() -> ToolchainConfig {
        ToolchainConfig {
            granularity: Granularity::Loop,
            chunk_loops: true,
            scheduler: SchedulerKind::List,
            // Static precedence MHP is sound for any dispatch timing;
            // window MHP is tighter but assumes time-triggered release.
            mhp: MhpMode::Static,
            feedback_rounds: 3,
            value_ctx: ValueCtx::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_adl::Platform;
    use argo_ir::ast::Program;
    use argo_ir::parse::parse_program;
    use argo_sched::{CommModel, SchedCtx};

    // A compute-heavy map + reduction, the shape of the paper's use-case
    // kernels (transcendental math per element). Compute-to-traffic ratio
    // matters: memory-bound kernels gain little guaranteed speedup because
    // contention inflation eats the overlap — exactly the trade-off
    // experiment E2 sweeps.
    const MAP_REDUCE: &str = r#"
        real main(real a[256], real b[256]) {
            real s; int i;
            s = 0.0;
            for (i = 0; i < 256; i = i + 1) {
                b[i] = sqrt(a[i]) * 2.0 + sin(a[i]) + pow(a[i], 2.0);
            }
            for (i = 0; i < 256; i = i + 1) { s = s + b[i]; }
            return s;
        }
    "#;

    /// One-shot session run: the whole pipeline through [`Toolflow::run`].
    fn run(
        program: Program,
        entry: &str,
        platform: &Platform,
        cfg: ToolchainConfig,
    ) -> Result<BackendResult, Diagnostic> {
        Toolflow::new(program, entry)
            .platform(platform)
            .config(cfg)
            .run()
    }

    #[test]
    fn end_to_end_compiles_and_improves_wcet() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(4);
        let r = run(program, "main", &platform, ToolchainConfig::default()).unwrap();
        r.parallel.validate().unwrap();
        assert!(r.system.bound > 0);
        assert!(
            r.wcet_speedup() > 1.2,
            "parallel WCET should beat sequential: speedup {}",
            r.wcet_speedup()
        );
    }

    #[test]
    fn single_core_has_speedup_one() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(1);
        let r = run(program, "main", &platform, ToolchainConfig::default()).unwrap();
        assert_eq!(r.parallel.sync_count(), 0);
        assert!((r.wcet_speedup() - 1.0).abs() < 0.01);
    }

    #[test]
    fn feedback_loop_terminates_and_stabilises() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let cfg = ToolchainConfig {
            feedback_rounds: 5,
            ..Default::default()
        };
        let r = run(program, "main", &platform, cfg).unwrap();
        assert!(r.feedback_iterations <= 5);
    }

    #[test]
    fn all_schedulers_produce_valid_results() {
        for sk in SchedulerKind::ALL {
            let program = parse_program(MAP_REDUCE).unwrap();
            let platform = Platform::xentium_manycore(2);
            let cfg = ToolchainConfig {
                scheduler: sk,
                ..Default::default()
            };
            let r = run(program, "main", &platform, cfg).unwrap();
            r.parallel.validate().unwrap();
        }
    }

    #[test]
    fn report_mentions_key_numbers() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let r = run(program, "main", &platform, ToolchainConfig::default()).unwrap();
        let rep = r.report();
        assert!(rep.contains("parallel   WCET bound"));
        assert!(rep.contains("guaranteed speedup"));
    }

    #[test]
    fn unknown_entry_is_reported_with_code_and_entity() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let err = run(
            program,
            "nonexistent",
            &platform,
            ToolchainConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.stage, Stage::Frontend);
        assert_eq!(err.code, ErrorCode::UnknownEntry);
        assert_eq!(err.entity.as_deref(), Some("nonexistent"));
    }

    #[test]
    fn zero_core_platform_is_an_invalid_platform_diagnostic() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(0);
        let err = run(program, "main", &platform, ToolchainConfig::default()).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidPlatform);
        assert_eq!(err.stage, Stage::Backend);
        assert!(err.message.contains("no cores"), "{err}");
    }

    #[test]
    fn empty_function_body_is_an_empty_htg_diagnostic() {
        let src = "void main(real a[8]) { }";
        let program = parse_program(src).unwrap();
        let platform = Platform::xentium_manycore(2);
        let err = run(program, "main", &platform, ToolchainConfig::default()).unwrap_err();
        assert_eq!(err.code, ErrorCode::EmptyHtg);
        assert_eq!(err.entity.as_deref(), Some("main"));
    }

    #[test]
    fn unbounded_loop_is_an_unbounded_loop_diagnostic() {
        let src = r#"
            void main(int n, real a[8]) {
                int i;
                for (i = 0; i < n; i = i + 1) { a[0] = a[0] + 1.0; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let platform = Platform::xentium_manycore(2);
        // No value context bounds `n`, so the trip count is unboundable.
        let err = run(program, "main", &platform, ToolchainConfig::default()).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnboundedLoop);
        assert_eq!(err.stage, Stage::Frontend);
    }

    #[test]
    fn session_without_platform_reports_missing_platform() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let flow = Toolflow::new(program, "main");
        let err = flow.run().unwrap_err();
        assert_eq!(err.code, ErrorCode::MissingPlatform);
        // The diagnostic names the stage of the operation that was
        // attempted, not a fixed one.
        assert_eq!(
            flow.frontend_fingerprint().unwrap_err().stage,
            Stage::Frontend
        );
        assert_eq!(
            flow.seed_cost_fingerprint().unwrap_err().stage,
            Stage::SeedCosts
        );
        assert_eq!(flow.run_frontend().unwrap_err().stage, Stage::Frontend);
    }

    #[test]
    fn failing_stage_emits_error_event_and_stays_well_nested() {
        let obs = CollectingObserver::new();
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let flow = Toolflow::new(program, "nonexistent")
            .platform(&platform)
            .observer(&obs);
        let err = flow.run_frontend().unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownEntry);
        // A failing stage is still closed: started → errored, never a
        // dangling start (a shared observer must survive failing points).
        assert!(obs.well_nested());
        let errors = obs.errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, Stage::Frontend);
        assert_eq!(errors[0].1.code, ErrorCode::UnknownEntry);
        assert_eq!(obs.finished_count(Stage::Frontend), 0);
    }

    #[test]
    fn borrowed_session_with_fingerprint_hint_matches_owned() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(4);
        let owned = Toolflow::new(program.clone(), "main").platform(&platform);
        let fp = owned.program_fingerprint();
        let hinted = Toolflow::borrowed(&program, "main")
            .platform(&platform)
            .with_program_fingerprint(fp);
        assert_eq!(hinted.program_fingerprint(), fp);
        assert_eq!(
            owned.frontend_fingerprint().unwrap(),
            hinted.frontend_fingerprint().unwrap()
        );
        assert_eq!(
            owned.seed_cost_fingerprint().unwrap(),
            hinted.seed_cost_fingerprint().unwrap()
        );
        let a = owned.run_frontend().unwrap();
        let b = hinted.run_frontend().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn sequential_loop_is_not_parallelized_but_compiles() {
        let src = r#"
            void main(real b[64]) {
                int i;
                for (i = 1; i < 64; i = i + 1) { b[i] = b[i-1] + 1.0; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let platform = Platform::xentium_manycore(4);
        let r = run(program, "main", &platform, ToolchainConfig::default()).unwrap();
        assert!(r.wcet_speedup() <= 1.05);
    }

    #[test]
    fn noc_platform_compiles() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::kit_tile_noc(2, 2);
        let r = run(program, "main", &platform, ToolchainConfig::default()).unwrap();
        assert!(r.system.bound > 0);
    }

    #[test]
    fn staged_session_matches_one_shot_run() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(4);
        let flow = Toolflow::new(program, "main").platform(&platform);
        let whole = flow.run().unwrap();
        let art = flow.run_frontend().unwrap();
        let staged = flow.run_backend(art, None).unwrap();
        assert_eq!(whole.system, staged.system);
        assert_eq!(whole.sequential_bound, staged.sequential_bound);
        assert_eq!(whole.feedback_iterations, staged.feedback_iterations);
        assert_eq!(whole.report(), staged.report());
        assert_eq!(whole.fingerprint(), staged.fingerprint());
    }

    #[test]
    fn seeded_backend_matches_unseeded() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(4);
        for sk in SchedulerKind::ALL {
            let cfg = ToolchainConfig {
                scheduler: sk,
                ..Default::default()
            };
            let flow = Toolflow::new(program.clone(), "main")
                .platform(&platform)
                .config(cfg);
            let art = flow.run_frontend().unwrap();
            let costs = flow.run_seed_costs(&art).unwrap();
            let seeded = flow.run_backend(art.clone(), Some(&costs)).unwrap();
            let plain = flow.run_backend(art, None).unwrap();
            assert_eq!(seeded.system, plain.system);
            assert_eq!(seeded.sequential_bound, plain.sequential_bound);
        }
    }

    #[test]
    fn frontend_is_deterministic_for_equal_inputs() {
        let platform = Platform::xentium_manycore(4);
        let frontend = || {
            Toolflow::new(parse_program(MAP_REDUCE).unwrap(), "main")
                .platform(&platform)
                .run_frontend()
                .unwrap()
        };
        let (a, b) = (frontend(), frontend());
        assert_eq!(
            argo_ir::printer::print_program(&a.program),
            argo_ir::printer::print_program(&b.program)
        );
        assert_eq!(a.htg, b.htg);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn stage_fingerprints_separate_what_stages_observe() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let p4 = Platform::xentium_manycore(4);
        let p4b = Platform::xentium_manycore(4);
        let p2 = Platform::xentium_manycore(2);
        let base = Toolflow::new(program.clone(), "main").platform(&p4);
        let same = Toolflow::new(program.clone(), "main").platform(&p4b);
        // Equal inputs → equal keys.
        assert_eq!(
            base.frontend_fingerprint().unwrap(),
            same.frontend_fingerprint().unwrap()
        );
        assert_eq!(
            base.seed_cost_fingerprint().unwrap(),
            same.seed_cost_fingerprint().unwrap()
        );
        // A backend-only axis (scheduler) leaves both stage keys alone.
        let sched = Toolflow::new(program.clone(), "main")
            .platform(&p4)
            .config(ToolchainConfig {
                scheduler: SchedulerKind::Anneal,
                ..Default::default()
            });
        assert_eq!(
            base.frontend_fingerprint().unwrap(),
            sched.frontend_fingerprint().unwrap()
        );
        assert_eq!(
            base.seed_cost_fingerprint().unwrap(),
            sched.seed_cost_fingerprint().unwrap()
        );
        // Core count changes the frontend key (chunking observes it).
        let cores = Toolflow::new(program.clone(), "main").platform(&p2);
        assert_ne!(
            base.frontend_fingerprint().unwrap(),
            cores.frontend_fingerprint().unwrap()
        );
        // An SPM-only platform change keeps both keys: round 0 places
        // every array in shared memory, and the seed key reads only
        // core 0's cost view.
        let mut spm_platform = Platform::xentium_manycore(4);
        spm_platform.cores[0].spm_bytes = 1234;
        let spm = Toolflow::new(program.clone(), "main").platform(&spm_platform);
        assert_eq!(
            base.frontend_fingerprint().unwrap(),
            spm.frontend_fingerprint().unwrap()
        );
        assert_eq!(
            base.seed_cost_fingerprint().unwrap(),
            spm.seed_cost_fingerprint().unwrap()
        );
        // A core-0 timing or shared-latency change keeps the frontend
        // key but moves the seed-costs key.
        let mut timing_platform = Platform::xentium_manycore(4);
        timing_platform.cores[0].timing.float_mul += 1;
        let mut latency_platform = Platform::xentium_manycore(4);
        latency_platform.shared.latency += 1;
        for moved in [&timing_platform, &latency_platform] {
            let flow = Toolflow::new(program.clone(), "main").platform(moved);
            assert_eq!(
                base.frontend_fingerprint().unwrap(),
                flow.frontend_fingerprint().unwrap()
            );
            assert_ne!(
                base.seed_cost_fingerprint().unwrap(),
                flow.seed_cost_fingerprint().unwrap()
            );
        }
        // A platform without cores is a diagnostic, not a panic.
        let mut coreless = Platform::xentium_manycore(1);
        coreless.cores.clear();
        let flow = Toolflow::new(program, "main").platform(&coreless);
        let art = flow.run_frontend().unwrap();
        for err in [
            flow.seed_cost_fingerprint().unwrap_err(),
            flow.run_seed_costs(&art).unwrap_err(),
        ] {
            assert_eq!(
                (err.stage, err.code),
                (Stage::SeedCosts, ErrorCode::InvalidPlatform)
            );
        }
    }

    #[test]
    fn observer_sees_paired_events_and_feedback_rounds() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(4);
        let obs = CollectingObserver::new();
        let flow = Toolflow::new(program, "main")
            .platform(&platform)
            .observer(&obs);
        let art = flow.run_frontend().unwrap();
        let costs = flow.run_seed_costs(&art).unwrap();
        let r = flow.run_backend(art, Some(&costs)).unwrap();
        assert!(obs.well_nested());
        assert_eq!(obs.finished_count(Stage::Frontend), 1);
        assert_eq!(obs.finished_count(Stage::SeedCosts), 1);
        assert_eq!(obs.finished_count(Stage::Backend), 1);
        let rounds = obs.feedback_rounds();
        assert_eq!(rounds.len() as u32, r.feedback_iterations);
        assert!(rounds.last().unwrap().stable || rounds.len() == 3);
        for snap in &rounds {
            assert_eq!(snap.assignment.len(), r.parallel.graph.len());
        }
    }

    #[test]
    fn schedule_cache_is_hit_by_graph_preserving_axes_and_preserves_results() {
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        #[derive(Default)]
        struct CountingCache {
            map: Mutex<HashMap<Fingerprint, argo_sched::Schedule>>,
            hits: AtomicU64,
            misses: AtomicU64,
        }
        impl ScheduleCache for CountingCache {
            fn schedule(
                &self,
                key: Fingerprint,
                build: &mut dyn FnMut() -> argo_sched::Schedule,
            ) -> argo_sched::Schedule {
                let mut map = self.map.lock().unwrap();
                if let Some(s) = map.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return s.clone();
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                let s = build();
                map.insert(key, s.clone());
                s
            }
        }

        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(4);
        let cache = CountingCache::default();
        let run = |mhp, cache: Option<&dyn ScheduleCache>| {
            let mut flow = Toolflow::new(program.clone(), "main")
                .platform(&platform)
                .config(ToolchainConfig {
                    mhp,
                    ..Default::default()
                });
            if let Some(c) = cache {
                flow = flow.schedule_cache(c);
            }
            flow.run().unwrap()
        };
        use argo_wcet::system::MhpMode;
        let plain = run(MhpMode::Static, None);
        let cached = run(MhpMode::Static, Some(&cache));
        assert_eq!(plain.system, cached.system, "cache must be transparent");
        assert_eq!(plain.report(), cached.report());
        // Hits can already happen within one run: consecutive feedback
        // rounds whose re-costing converges produce identical graphs.
        let misses_after_first = cache.misses.load(Ordering::Relaxed);
        let hits_after_first = cache.hits.load(Ordering::Relaxed);
        assert!(misses_after_first > 0);

        // The MHP axis leaves graph, platform and scheduler alone: a
        // re-run under a different MHP mode is served from the cache.
        let windows = run(MhpMode::Windows, Some(&cache));
        assert_eq!(
            cache.misses.load(Ordering::Relaxed),
            misses_after_first,
            "MHP-only change must not rebuild schedules"
        );
        assert_eq!(
            cache.hits.load(Ordering::Relaxed) - hits_after_first,
            u64::from(windows.feedback_iterations),
            "every round of the re-run hits"
        );
        assert_eq!(windows.parallel.graph.len(), cached.parallel.graph.len());
    }

    #[test]
    fn task_graph_fingerprint_ignores_labels_but_sees_structure() {
        use argo_sched::TaskGraph;
        let base = TaskGraph {
            cost: vec![5, 7, 9],
            edges: vec![(0, 1, 16), (1, 2, 8)],
            names: vec!["a".into(), "b".into(), "c".into()],
            htg_ids: vec![],
        };
        let mut renamed = base.clone();
        renamed.names = vec!["x".into(), "y".into(), "z".into()];
        assert_eq!(base.fingerprint(), renamed.fingerprint());
        let mut recosted = base.clone();
        recosted.cost[1] = 8;
        assert_ne!(base.fingerprint(), recosted.fingerprint());
        let mut rewired = base.clone();
        rewired.edges[0] = (0, 2, 16);
        assert_ne!(base.fingerprint(), rewired.fingerprint());
        // The composite key separates scheduler kinds, comm models and
        // scheduling contexts, and has no platform-worst-case form.
        let (p, q) = (Platform::xentium_manycore(2), Platform::xentium_manycore(3));
        let signal = SchedCtx::with_comm(&p, CommModel::SignalOnly);
        let list = |ctx: &SchedCtx<'_>| schedule_fingerprint(&base, ctx, SchedulerKind::List);
        let anneal = schedule_fingerprint(&base, &signal, SchedulerKind::Anneal);
        assert_ne!(list(&signal), anneal);
        assert_ne!(
            list(&signal),
            list(&SchedCtx::with_comm(&q, CommModel::SignalOnly))
        );
        assert_ne!(
            list(&signal),
            list(&SchedCtx::with_comm(&p, CommModel::Free))
        );
        assert!(std::panic::catch_unwind(|| list(&SchedCtx::new(&p))).is_err());
    }

    #[test]
    fn finer_granularity_yields_more_tasks() {
        let program = parse_program(MAP_REDUCE).unwrap();
        let platform = Platform::xentium_manycore(2);
        let coarse = run(
            program.clone(),
            "main",
            &platform,
            ToolchainConfig {
                granularity: Granularity::Loop,
                ..Default::default()
            },
        )
        .unwrap();
        let fine = run(
            program,
            "main",
            &platform,
            ToolchainConfig {
                granularity: Granularity::Stmt,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(fine.parallel.graph.len() >= coarse.parallel.graph.len());
    }
}
