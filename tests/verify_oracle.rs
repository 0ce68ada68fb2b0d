//! Mutation harness and simulator-backed differential oracle for
//! `argo-verify`.
//!
//! Two directions of evidence that the verifier separates sound from
//! unsound parallelizations:
//!
//! * **Mutations** — re-seed the PR 1 dependence bug (an extractor
//!   that loses the edges ordering array accesses after their
//!   allocation), corrupt schedule start times, overflow a scratchpad
//!   and drop a synchronization wait; every mutation must be flagged,
//!   while the unmutated pipeline output stays clean.
//! * **Differential oracle** (property) — any verifier-clean schedule,
//!   replayed in the cycle-charging simulator, produces exactly the
//!   outputs of the sequential reference interpretation.

use argo_adl::{CoreId, MemSpace, MemoryMap, Placement, Platform};
use argo_core::{ErrorCode, SchedulerKind, ToolchainConfig, Toolflow};
use argo_ir::interp::{ArgVal, ArrayData, ScalarVal};
use argo_ir::parse::parse_program;
use argo_ir::types::Scalar;
use argo_sim::{sequential_reference, simulate, SimConfig};
use argo_verify::{race::check_races, schedule::check_plans, schedule::check_schedule};
use argo_verify::{verify_backend, VerifyConfig};
use argo_wcet::system::MhpMode;
use proptest::prelude::*;

/// The PR 1 regression shape: a local array whose declaration
/// (allocation + implicit whole-array definition) must order before
/// the loops that use it.
const DECL_BEFORE_USE: &str = r#"
    void main(real out[16]) {
        real buf[16];
        int i;
        for (i = 0; i < 16; i = i + 1) { buf[i] = 2.0; }
        for (i = 0; i < 16; i = i + 1) { out[i] = buf[i] + 1.0; }
    }
"#;

/// Map + reduce fixture for the differential oracle.
const MAP_REDUCE: &str = r#"
    void main(real a[32], real b[32], real acc[4]) {
        int i;
        real s;
        s = 0.0;
        for (i = 0; i < 32; i = i + 1) { b[i] = a[i] * 2.0 + 1.0; }
        for (i = 0; i < 32; i = i + 1) { s = s + b[i]; }
        acc[0] = s;
    }
"#;

fn compile(src: &str, platform: &Platform, cfg: ToolchainConfig) -> argo_core::BackendResult {
    let program = parse_program(src).expect("fixture parses");
    Toolflow::new(program, "main")
        .platform(platform)
        .config(cfg)
        .run()
        .expect("fixture compiles")
}

#[test]
fn unmutated_pipeline_is_clean_and_seeded_reorder_bug_is_caught() {
    let platform = Platform::xentium_manycore(2);
    let result = compile(DECL_BEFORE_USE, &platform, ToolchainConfig::default());

    // Control: the real pipeline races nowhere, under any MHP notion.
    for mode in MhpMode::ALL {
        assert!(
            check_races(&result, mode).is_empty(),
            "false positive under {mode}"
        );
    }

    // Mutation: an extractor that lost its dependence edges — the PR 1
    // bug class, where schedulers become free to reorder the array
    // accesses before the allocation/initialization.
    let mut mutated = result;
    mutated.parallel.graph.edges.clear();
    let races = check_races(&mutated, MhpMode::Naive);
    assert!(!races.is_empty(), "dropped edges must surface as races");
    assert!(
        races.iter().any(|f| {
            f.diagnostic.code == ErrorCode::DataRace
                && f.diagnostic.entity.as_deref() == Some("buf")
        }),
        "expected a data race on `buf`, got: {races:?}"
    );
}

#[test]
fn mutated_schedule_start_time_is_flagged_unsound() {
    let platform = Platform::xentium_manycore(2);
    let result = compile(DECL_BEFORE_USE, &platform, ToolchainConfig::default());
    let graph = &result.parallel.graph;

    // Control.
    assert!(check_schedule(graph, &platform, &result.parallel.schedule, None).is_empty());

    // Yank a dependent task to cycle 0: its predecessor now finishes
    // after it starts.
    let &(f, t, _) = graph
        .edges
        .iter()
        .find(|&&(f, _, _)| result.parallel.schedule.finish[f] > 0)
        .expect("fixture has dependence edges");
    let mut sched = result.parallel.schedule.clone();
    sched.start[t] = 0;
    sched.finish[t] = graph.cost[t];
    let findings = check_schedule(graph, &platform, &sched, None);
    assert!(
        findings
            .iter()
            .any(|x| x.diagnostic.code == ErrorCode::UnsoundSchedule),
        "start-time mutation on edge ({f},{t}) must be flagged, got: {findings:?}"
    );
}

#[test]
fn scratchpad_overflow_is_flagged() {
    let platform = Platform::xentium_manycore(2);
    let result = compile(DECL_BEFORE_USE, &platform, ToolchainConfig::default());
    let mut mem = MemoryMap::new();
    mem.insert(
        "huge",
        Placement {
            space: MemSpace::Spm(CoreId(0)),
            base_addr: 0,
            size_bytes: 1 << 30,
        },
    );
    let findings = check_schedule(
        &result.parallel.graph,
        &platform,
        &result.parallel.schedule,
        Some(&mem),
    );
    assert!(
        findings
            .iter()
            .any(|f| f.diagnostic.code == ErrorCode::PlacementOverflow),
        "1 GiB in a 16 KiB scratchpad must overflow, got: {findings:?}"
    );
}

#[test]
fn dropped_wait_step_is_flagged_as_comm_ordering() {
    let platform = Platform::xentium_manycore(2);
    let cfg = ToolchainConfig::default();
    let result = compile(MAP_REDUCE, &platform, cfg);
    let pp = &result.parallel;
    assert!(check_plans(pp).is_empty(), "control plans must be clean");

    // Find a plan containing a Wait and drop it.
    let mut mutated = pp.clone();
    let mut dropped = false;
    for plan in &mut mutated.plans {
        if let Some(pos) = plan
            .steps
            .iter()
            .position(|s| matches!(s, argo_parir::Step::Wait { .. }))
        {
            plan.steps.remove(pos);
            dropped = true;
            break;
        }
    }
    if !dropped {
        // Single-core placement this round — nothing to desynchronize.
        return;
    }
    let findings = check_plans(&mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.diagnostic.code == ErrorCode::CommOrdering),
        "missing wait must be flagged, got: {findings:?}"
    );
}

fn real_array(n: usize, f: impl Fn(usize) -> f64) -> ArgVal {
    ArgVal::Array(ArrayData {
        elem: Scalar::Real,
        dims: vec![n],
        data: (0..n).map(|i| ScalarVal::Real(f(i))).collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Verifier-clean schedules replayed in the simulator agree with
    /// the sequential interpretation, across random core counts,
    /// schedulers and MHP modes.
    #[test]
    fn verifier_clean_schedules_replay_to_sequential_outputs(
        cores in 1usize..5,
        sched_pick in 0u8..3,
        mhp_pick in 0u8..3,
        seed in 0u64..512,
    ) {
        let scheduler = match sched_pick {
            0 => SchedulerKind::List,
            1 => SchedulerKind::BranchAndBound,
            _ => SchedulerKind::Anneal,
        };
        let mhp = MhpMode::ALL[mhp_pick as usize];
        let cfg = ToolchainConfig { scheduler, mhp, ..Default::default() };
        let platform = Platform::xentium_manycore(cores);
        let result = compile(MAP_REDUCE, &platform, cfg);

        let report = verify_backend(&result, &platform, &VerifyConfig { mhp, allow: vec![] });
        prop_assert!(report.gate().is_ok(), "{}", report.render_text());

        let args = vec![
            real_array(32, |i| (seed as f64) * 0.5 + i as f64),
            real_array(32, |_| 0.0),
            real_array(4, |_| 0.0),
        ];
        let program = parse_program(MAP_REDUCE).unwrap();
        let expected = sequential_reference(&program, "main", args.clone())
            .expect("sequential reference runs");
        let sim = simulate(&result.parallel, &platform, args, &SimConfig::default())
            .expect("parallel simulation runs");
        prop_assert_eq!(sim.outputs, expected);
    }
}
