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
//! 4. **Code-level WCET** — per-task costs through one `TaskCoster`
//!    equal the one-shot `stmt_ids_wcet`, and functions the entry never
//!    calls are not costed.
//! 5. **One owner per fact** — the parallel program shares the frontend
//!    artifact's program, resolution and HTG, and carries the feedback loop's last
//!    placement, equal to a fresh one of the final schedule.
//! 6. **Frontend transformations** — constant subscripts are folded
//!    before DOALL chunking, so the chunker sees them as affine.
//! 7. **Access counts** — a task's worst-case accesses to a shared
//!    array count both branches of a conditional.
//! 8. **Seed-cost key** (property) — the seed-cost table and its key
//!    ignore every platform field outside core 0's cost view, and the
//!    key moves with every field inside it.
//! 9. **Schedule key** (property) — on a fixed task graph, the schedule
//!    every scheduler builds and its key ignore every platform field
//!    outside the scheduling context's view, and the key moves with
//!    every field inside it.

use argo_adl::{
    Arbitration, CacheConfig, CoreId, Interconnect, MemSpace, MemoryMap, Placement, Platform,
};
use argo_core::{
    schedule_fingerprint, Artifact, CollectingObserver, CostTable, Fingerprint, Fingerprintable,
    SchedulerKind, Stage, ToolchainConfig, Toolflow,
};
use argo_dse::PlatformKind;
use argo_htg::Granularity;
use argo_parir::mem_assign;
use argo_sched::{CommModel, SchedCtx, TaskGraph};
use argo_wcet::cost::{program_symbols, CostCtx};
use argo_wcet::schema::{function_wcets, stmt_ids_wcet, TaskCoster};
use argo_wcet::system::MhpMode;
use proptest::prelude::*;
use std::sync::Arc;

/// Staged session output (with seeded round-0 costs) is bit-identical
/// to the one-shot `Toolflow::run()` on all three bundled apps (egpws,
/// polka, weaa), for every MHP mode.
#[test]
fn staged_session_report_is_byte_identical_to_one_shot_run() {
    for uc in argo_apps::all_use_cases(42) {
        for mhp in MhpMode::ALL {
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

/// A function the entry never calls is not costed. The value analysis
/// bounds loops only in the functions the entry reaches, so costing
/// `helper` (whose loop runs to a parameter) used to fail both the seed
/// stage and the backend with `no loop bound`.
#[test]
fn functions_the_entry_never_calls_are_not_costed() {
    const HELPER: &str = "void helper(real a[8], int n) { int i; \
        for (i = 0; i < n; i = i + 1) { a[i] = 0.0; } }";
    let platform = Platform::xentium_manycore(2);
    let compile = |src: &str| {
        let flow =
            Toolflow::new(argo_ir::parse::parse_program(src).unwrap(), "main").platform(&platform);
        let artifact = flow.run_frontend().expect("frontend");
        let seed = flow.run_seed_costs(&artifact).expect("seed costs");
        let bound = flow.run().expect("compile").system.bound;
        ((*seed).clone(), bound)
    };
    assert_eq!(compile(&format!("{HELPER}\n{TINY}")), compile(TINY));
}

/// The conservative round-0 placement the backend starts from: every
/// array of `entry` in shared memory, packed in symbol-table order.
fn all_shared(program: &argo_ir::ast::Program, entry: &str) -> MemoryMap {
    let mut map = MemoryMap::new();
    let mut cursor = 0;
    let f = program.function(entry).expect("entry exists");
    for (name, ty) in argo_ir::validate::symbol_table(f) {
        if ty.is_array() {
            map.insert(
                name,
                Placement {
                    space: MemSpace::Shared,
                    base_addr: cursor,
                    size_bytes: ty.size_bytes(),
                },
            );
            cursor += ty.size_bytes();
        }
    }
    map
}

/// Costing tasks through one `TaskCoster` (an index of the entry's
/// top-level statements and a callee table over the functions the entry
/// reaches) gives, for every top-level task on every core, exactly what
/// the one-shot `stmt_ids_wcet` gives over the whole-program
/// `function_wcets` table; and the tasks sum to the entry body's WCET.
/// Checked on the bus, the NoC and the cached bus, under the all-shared
/// placement and under the placement of a finished run (which puts
/// arrays in the scratchpads of non-zero cores).
#[test]
fn task_coster_matches_one_shot_stmt_ids_wcet() {
    let mut spm_views = 0;
    for uc in argo_apps::all_use_cases(42) {
        for granularity in Granularity::ALL {
            for cores in [1, 2, 4, 8] {
                let cfg = ToolchainConfig {
                    granularity,
                    ..Default::default()
                };
                let bus = PlatformKind::Bus.build(cores, None);
                let noc = PlatformKind::Noc.build(cores, None);
                let cached = bus.clone().with_caches(CacheConfig::small());
                let flow = |platform| {
                    Toolflow::borrowed(&uc.program, uc.entry)
                        .platform(platform)
                        .config(cfg.clone())
                };
                let artifact = flow(&bus).run_frontend().expect("frontend");
                let (program, bounds) = (&artifact.program, &artifact.bounds);
                let symbols = program_symbols(program);
                let coster =
                    TaskCoster::new(program, &artifact.resolution, uc.entry).expect("entry exists");
                let shared = all_shared(program, uc.entry);
                for platform in [&bus, &noc, &cached] {
                    let finished = flow(platform)
                        .run_backend(artifact.clone(), None)
                        .expect("backend");
                    for mem in [&shared, &finished.parallel.memory_map] {
                        for core in 0..cores {
                            if core > 0
                                && mem
                                    .iter()
                                    .any(|(_, p)| p.space == MemSpace::Spm(CoreId(core)))
                            {
                                spm_views += 1;
                            }
                            let ctx = CostCtx::with_symbols(
                                program,
                                platform,
                                CoreId(core),
                                mem,
                                &symbols,
                            );
                            let callees = coster.callee_wcets(&ctx, bounds).expect("callees");
                            let all = function_wcets(&ctx, bounds).expect("all functions");
                            let mut sum = 0u64;
                            for &tid in &artifact.htg.top_level {
                                let task = artifact.htg.task(tid);
                                let new = coster.task_wcet(&ctx, bounds, &callees, &task.stmts);
                                let old = stmt_ids_wcet(&ctx, bounds, &all, uc.entry, &task.stmts);
                                assert_eq!(
                                    new, old,
                                    "{} {granularity:?} {} core {core} {}",
                                    uc.name, platform.name, task.name
                                );
                                sum = sum.saturating_add(new.expect("cost"));
                            }
                            assert_eq!(sum, all[uc.entry], "{} tasks sum to the body", uc.name);
                        }
                    }
                }
            }
        }
    }
    assert!(
        spm_views > 0,
        "no finished run placed an array in a non-zero core's SPM"
    );
}

/// The backend shares the frontend artifact's program, resolution and
/// HTG instead of copying them, and the parallel model takes the placement the
/// feedback loop's last round computed instead of placing again: its
/// memory map equals a fresh `mem_assign::assign` of the final program,
/// HTG, graph and schedule. One-round runs are included because there
/// an earlier round's placement (the all-shared one) differs from the
/// final one on every platform with a scratchpad.
#[test]
fn parallel_program_shares_the_artifact_and_the_last_placement() {
    for uc in argo_apps::all_use_cases(42) {
        for granularity in Granularity::ALL {
            for cores in [1, 2, 4, 8] {
                let bus = PlatformKind::Bus.build(cores, None);
                let noc = PlatformKind::Noc.build(cores, None);
                let cached = bus.clone().with_caches(CacheConfig::small());
                let artifact = Toolflow::borrowed(&uc.program, uc.entry)
                    .platform(&bus)
                    .config(ToolchainConfig {
                        granularity,
                        ..Default::default()
                    })
                    .run_frontend()
                    .expect("frontend");
                for platform in [&bus, &noc, &cached] {
                    for feedback_rounds in [1, 3] {
                        let flow = Toolflow::borrowed(&uc.program, uc.entry)
                            .platform(platform)
                            .config(ToolchainConfig {
                                granularity,
                                feedback_rounds,
                                ..Default::default()
                            });
                        let costs = flow.run_seed_costs(&artifact).expect("seed costs");
                        let result = flow
                            .run_backend(artifact.clone(), Some(&costs))
                            .expect("backend");
                        let pp = &result.parallel;
                        let at = format!(
                            "{} {granularity:?} {} {feedback_rounds} rounds",
                            uc.name, platform.name
                        );
                        assert!(Arc::ptr_eq(&artifact.program, &pp.program), "{at}");
                        assert!(Arc::ptr_eq(&artifact.resolution, &pp.resolution), "{at}");
                        assert!(Arc::ptr_eq(&artifact.htg, &pp.htg), "{at}");
                        let fresh = mem_assign::assign(
                            &pp.program,
                            &pp.htg,
                            &pp.graph,
                            &pp.schedule,
                            platform,
                        )
                        .expect("placement");
                        assert_eq!(pp.memory_map, fresh, "{at}");
                    }
                }
            }
        }
    }
}

/// `classify_loop` reads `b[2 * 1 * i]` as non-affine until the
/// subscript is folded, so the frontend folds before chunking as well
/// as after: this loop must split into one chunk per core.
#[test]
fn constant_subscripts_are_folded_before_chunking() {
    let src = "void main(real a[128], real b[128]) { int i; \
               for (i = 0; i < 4 * 16; i = i + 1) { b[2 * 1 * i] = a[i] * 2.0; } }";
    let program = argo_ir::parse::parse_program(src).unwrap();
    let platform = Platform::xentium_manycore(4);
    let artifact = Toolflow::new(program, "main")
        .platform(&platform)
        .run_frontend()
        .expect("frontend");
    let htg = &artifact.htg;
    let loops = htg
        .top_level
        .iter()
        .filter(|&&t| matches!(htg.task(t).kind, argo_htg::TaskKind::LoopNode { .. }))
        .count();
    assert_eq!(htg.top_level.len(), 5, "init task plus the chunk loops");
    assert_eq!(loops, 4, "one chunk loop per core");
}

/// Two loops read the shared array `a` on different cores, once before
/// and once in the `else` branch of a conditional: each loop's
/// worst-case count of shared accesses is 2 × 64, not just the 64
/// before the branch.
#[test]
fn shared_accesses_count_accesses_in_both_branches() {
    let src = "void main(real a[64], real b[64], real c[64], int k) { int i; real y; \
               for (i = 0; i < 64; i = i + 1) { \
                 y = a[i]; if (k > 0) { b[i] = 1.0; } else { b[i] = a[i]; } } \
               for (i = 0; i < 64; i = i + 1) { \
                 y = a[i]; if (k > 0) { c[i] = 1.0; } else { c[i] = a[i]; } } }";
    let program = argo_ir::parse::parse_program(src).unwrap();
    let platform = Platform::xentium_manycore(4);
    let result = Toolflow::new(program, "main")
        .platform(&platform)
        .config(ToolchainConfig {
            chunk_loops: false,
            mhp: MhpMode::Static,
            ..Default::default()
        })
        .run()
        .expect("toolflow");
    let pp = &result.parallel;
    assert_ne!(pp.schedule.assignment[1], pp.schedule.assignment[2]);
    assert_eq!(pp.memory_map.space_of("a"), MemSpace::Shared);
    assert_eq!(result.shared_accesses, [0, 128, 128]);
}

/// A named platform edit for the seed-key property tests.
type Perturbation = (&'static str, fn(&mut Platform));

/// The seed-key property tests' base platforms: the 4-core bus, the
/// 2×2 NoC and the cached 4-core bus.
fn seed_key_platforms() -> [Platform; 3] {
    [
        Platform::xentium_manycore(4),
        Platform::kit_tile_noc(2, 2),
        Platform::xentium_manycore(4).with_caches(CacheConfig::small()),
    ]
}

/// Runs `check` on every seed app × seed-key platform × perturbation
/// that changes the platform, with the unperturbed session's frontend
/// artifact, seed key and cost table; returns how many ran.
fn for_each_perturbed_seed_point(
    perturbations: &[Perturbation],
    check: impl Fn(&str, &Toolflow<'_>, &argo_core::FrontendArtifact, Fingerprint, &CostTable),
) -> usize {
    let mut checked = 0;
    for uc in argo_apps::all_use_cases(42) {
        for base in seed_key_platforms() {
            let flow = Toolflow::new(uc.program.clone(), uc.entry).platform(&base);
            let artifact = flow.run_frontend().expect("frontend");
            let key = flow.seed_cost_fingerprint().unwrap();
            let table = flow.run_seed_costs(&artifact).expect("seed costs");
            for (what, perturb) in perturbations {
                let mut p = base.clone();
                perturb(&mut p);
                if p == base {
                    continue;
                }
                let perturbed = Toolflow::new(uc.program.clone(), uc.entry).platform(&p);
                assert_eq!(
                    perturbed.frontend_fingerprint().unwrap(),
                    flow.frontend_fingerprint().unwrap()
                );
                let case = format!("{} on {}: {what}", uc.name, base.name);
                check(&case, &perturbed, &artifact, key, &table);
                checked += 1;
            }
        }
    }
    checked
}

/// Round 0 costs every task on core 0 under the all-shared placement,
/// so an edit outside core 0's cost view — any scratchpad capacity,
/// another core's timing, cache or scratchpad latency, the name, the
/// shared memory's size, the arbitration weights — leaves both the
/// seed-cost table and its key unchanged.
#[test]
fn seed_costs_and_key_ignore_fields_outside_core_zeros_view() {
    let outside: [Perturbation; 10] = [
        ("every core's spm_bytes = 0", |p| {
            p.cores.iter_mut().for_each(|c| c.spm_bytes = 0)
        }),
        ("every core's spm_bytes = 1 MiB", |p| {
            p.cores.iter_mut().for_each(|c| c.spm_bytes = 1 << 20)
        }),
        ("core 0's spm_bytes + 4096", |p| {
            p.cores[0].spm_bytes += 4096
        }),
        ("core 1's timing", |p| p.cores[1].timing.float_mul += 3),
        ("core 1's cache", |p| {
            p.cores[1].cache = Some(CacheConfig::large())
        }),
        ("core 1's spm_latency", |p| p.cores[1].spm_latency += 5),
        ("core 3's intrinsics", |p| {
            p.cores[3].timing.intrinsic_default += 7
        }),
        ("name", |p| p.name.push_str("-renamed")),
        ("shared.size_bytes", |p| p.shared.size_bytes *= 2),
        ("arbitration weights", |p| match &mut p.interconnect {
            Interconnect::Bus {
                arbitration: Arbitration::Wrr { weights, .. },
            } => weights[1..].iter_mut().for_each(|w| *w += 2),
            Interconnect::Noc { wrr_weight, .. } => *wrr_weight += 2,
            Interconnect::Bus { .. } => {}
        }),
    ];
    let checked =
        for_each_perturbed_seed_point(&outside, |case, perturbed, artifact, key, table| {
            assert_eq!(perturbed.seed_cost_fingerprint().unwrap(), key, "{case}");
            let costs = perturbed.run_seed_costs(artifact).expect("seed costs");
            assert_eq!(&costs, table, "{case}");
        });
    // The cached bus has no scratchpad to empty.
    assert_eq!(checked, 3 * (3 * outside.len() - 1));
}

/// An edit inside core 0's cost view — a timing entry, its scratchpad
/// latency or cache, the shared memory's latency, the NoC's router
/// latency — moves the seed key.
#[test]
fn seed_key_moves_with_fields_inside_core_zeros_view() {
    let inside: [Perturbation; 6] = [
        ("core 0's float_mul", |p| p.cores[0].timing.float_mul += 1),
        ("core 0's local_access", |p| {
            p.cores[0].timing.local_access += 1
        }),
        ("core 0's spm_latency", |p| p.cores[0].spm_latency += 1),
        ("core 0's cache", |p| {
            let cache = p.cores[0].cache.get_or_insert(CacheConfig::small());
            cache.miss_penalty += 1;
        }),
        ("shared.latency", |p| p.shared.latency += 1),
        ("router_latency", |p| {
            if let Interconnect::Noc { router_latency, .. } = &mut p.interconnect {
                *router_latency += 1;
            }
        }),
    ];
    let checked = for_each_perturbed_seed_point(&inside, |case, perturbed, _, key, _| {
        assert_ne!(perturbed.seed_cost_fingerprint().unwrap(), key, "{case}");
    });
    // The router latency exists on the NoC only.
    assert_eq!(checked, 3 * (3 * inside.len() - 2));
}

/// Runs `check` on every seed app × seed-key platform × perturbation
/// that changes the platform, with the app's final task graph on the
/// unperturbed platform held fixed and the signal-only scheduling
/// contexts of both platforms; returns how many ran.
fn for_each_perturbed_schedule_point(
    perturbations: &[Perturbation],
    check: impl Fn(&str, &TaskGraph, &SchedCtx<'_>, &SchedCtx<'_>),
) -> usize {
    let mut checked = 0;
    for uc in argo_apps::all_use_cases(42) {
        for base in seed_key_platforms() {
            let result = Toolflow::borrowed(&uc.program, uc.entry)
                .platform(&base)
                .run()
                .expect("pipeline");
            let base_ctx = SchedCtx::with_comm(&base, CommModel::SignalOnly);
            for (what, perturb) in perturbations {
                let mut p = base.clone();
                perturb(&mut p);
                if p == base {
                    continue;
                }
                let ctx = SchedCtx::with_comm(&p, CommModel::SignalOnly);
                let case = format!("{} on {}: {what}", uc.name, base.name);
                check(&case, &result.parallel.graph, &base_ctx, &ctx);
                checked += 1;
            }
        }
    }
    checked
}

/// A signal-only scheduler reads the core count and each core's
/// all-contender shared-access price, so an edit outside that view —
/// any scratchpad capacity, a core's timing, scratchpad latency or
/// cache, the name, the shared memory's size — leaves both the schedule
/// every scheduler builds and its key unchanged.
#[test]
fn schedules_and_key_ignore_fields_outside_the_scheduling_view() {
    let outside: [Perturbation; 9] = [
        ("every core's spm_bytes = 0", |p| {
            p.cores.iter_mut().for_each(|c| c.spm_bytes = 0)
        }),
        ("every core's spm_bytes = 1 MiB", |p| {
            p.cores.iter_mut().for_each(|c| c.spm_bytes = 1 << 20)
        }),
        ("core 2's spm_bytes + 4096", |p| {
            p.cores[2].spm_bytes += 4096
        }),
        ("core 0's timing", |p| p.cores[0].timing.float_mul += 3),
        ("core 1's timing", |p| p.cores[1].timing.local_access += 1),
        ("core 0's spm_latency", |p| p.cores[0].spm_latency += 5),
        ("core 1's cache", |p| {
            p.cores[1].cache = Some(CacheConfig::large())
        }),
        ("name", |p| p.name.push_str("-renamed")),
        ("shared.size_bytes", |p| p.shared.size_bytes *= 2),
    ];
    let checked = for_each_perturbed_schedule_point(&outside, |case, graph, base, perturbed| {
        for kind in SchedulerKind::ALL {
            let case = format!("{case} ({})", kind.label());
            assert_eq!(
                schedule_fingerprint(graph, perturbed, kind),
                schedule_fingerprint(graph, base, kind),
                "{case}"
            );
            assert_eq!(
                kind.schedule(graph, perturbed),
                kind.schedule(graph, base),
                "{case}"
            );
        }
    });
    // The cached bus has no scratchpad to empty.
    assert_eq!(checked, 3 * (3 * outside.len() - 1));
}

/// An edit inside the scheduling view — the core count, the shared
/// memory's latency, the arbitration weights, the NoC's router latency
/// — moves the schedule key.
#[test]
fn schedule_key_moves_with_fields_inside_the_scheduling_view() {
    let inside: [Perturbation; 4] = [
        ("core count", |p| {
            p.cores.pop();
            if let Interconnect::Bus {
                arbitration: Arbitration::Wrr { weights, .. },
            } = &mut p.interconnect
            {
                weights.pop();
            }
        }),
        ("shared.latency", |p| p.shared.latency += 1),
        ("arbitration weights", |p| match &mut p.interconnect {
            Interconnect::Bus {
                arbitration: Arbitration::Wrr { weights, .. },
            } => weights[1..].iter_mut().for_each(|w| *w += 2),
            Interconnect::Noc { wrr_weight, .. } => *wrr_weight += 2,
            Interconnect::Bus { .. } => {}
        }),
        ("router_latency", |p| {
            if let Interconnect::Noc { router_latency, .. } = &mut p.interconnect {
                *router_latency += 1;
            }
        }),
    ];
    let checked = for_each_perturbed_schedule_point(&inside, |case, graph, base, perturbed| {
        for kind in SchedulerKind::ALL {
            assert_ne!(
                schedule_fingerprint(graph, perturbed, kind),
                schedule_fingerprint(graph, base, kind),
                "{case} ({})",
                kind.label()
            );
        }
    });
    // The router latency exists on the NoC only.
    assert_eq!(checked, 3 * (3 * inside.len() - 2));
}
