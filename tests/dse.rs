//! Integration tests for the `argo-dse` design-space exploration engine:
//! Pareto-front correctness as a property over arbitrary objective sets,
//! and end-to-end determinism with artifact-cache reuse across runs.

use argo_core::SchedulerKind;
use argo_dse::pareto::{dominates, pareto_front};
use argo_dse::{DesignSpace, Explorer, PlatformKind};
use argo_htg::Granularity;
use argo_ir::parse::parse_program;
use argo_store::Store;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The extracted front never contains a dominated point, and every
    /// excluded point is dominated by someone.
    #[test]
    fn pareto_front_contains_no_dominated_point(
        objs in proptest::collection::vec((1u64..9, 1u64..500, 0u64..5), 1..40),
    ) {
        let objs: Vec<[u64; 3]> =
            objs.into_iter().map(|(c, w, s)| [c, w, s * 4096]).collect();
        let front = pareto_front(&objs);
        prop_assert!(!front.is_empty(), "a non-empty set has a non-empty front");
        for &i in &front {
            for o in &objs {
                prop_assert!(
                    !dominates(o, &objs[i]),
                    "front member {:?} dominated by {:?}",
                    objs[i],
                    o
                );
            }
        }
        for i in 0..objs.len() {
            if !front.contains(&i) {
                prop_assert!(
                    objs.iter().any(|o| dominates(o, &objs[i])),
                    "excluded point {:?} is dominated by nobody",
                    objs[i]
                );
            }
        }
    }
}

const TINY: &str = r#"
    real main(real a[64], real b[64]) {
        real s; int i;
        s = 0.0;
        for (i = 0; i < 64; i = i + 1) {
            b[i] = sqrt(a[i]) * 2.0 + sin(a[i]);
        }
        for (i = 0; i < 64; i = i + 1) { s = s + b[i]; }
        return s;
    }
"#;

fn tiny_space() -> DesignSpace {
    DesignSpace::new()
        .app("tiny")
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::Anneal])
}

/// Two runs of the same `DesignSpace` on one explorer produce identical
/// reports, and the second run is served entirely from the artifact
/// cache (every frontend/seed-cost lookup hits).
#[test]
fn repeated_exploration_is_deterministic_and_cached() {
    let mut explorer = Explorer::with_threads(4);
    explorer.register_program("tiny", parse_program(TINY).unwrap(), "main");
    let space = tiny_space();

    let first = explorer.explore(&space);
    let after_first = explorer.cache_stats();
    let second = explorer.explore(&space);
    let after_second = explorer.cache_stats();

    assert_eq!(first.rows.len(), 12);
    assert_eq!(first.failures(), 0);
    assert!(!first.pareto.is_empty());
    assert_eq!(
        first.to_csv(),
        second.to_csv(),
        "reports must be byte-identical"
    );
    assert_eq!(first.pareto, second.pareto);

    // The first run misses at least once; the second run adds hits only
    // (across all three tiers — frontend, seed costs and schedules).
    assert!(after_first.misses() > 0);
    assert!(
        after_first.sched_misses > 0,
        "backend rounds must populate the schedule tier"
    );
    assert_eq!(
        after_second.misses(),
        after_first.misses(),
        "second run must not rebuild in any tier"
    );
    let second_run_hits = after_second.hits() - after_first.hits();
    assert!(
        second_run_hits >= 12 * 2,
        "every point hits the frontend and seed-cost tiers on the second \
         run (plus one schedule hit per feedback round): got {second_run_hits}"
    );
    assert_eq!(
        after_second.sched_hits - after_first.sched_hits,
        after_first.sched_hits + after_first.sched_misses,
        "the second run repeats the first run's schedule lookups, all hits"
    );

    // Shared-prefix reuse already within the first run: the scheduler
    // axis (2 values) shares artifacts, so hits happen before run two.
    assert!(
        after_first.hits() > 0,
        "shared-prefix points must hit within one run"
    );

    // The PR 2 acceptance bar, on the tiers it was written for: with
    // the canonical fingerprint keys, the re-explored sweep keeps an
    // artifact-tier (frontend + seed-cost) hit rate of at least 75%.
    let artifact_hits = after_second.frontend_hits + after_second.cost_hits;
    let artifact_total = artifact_hits + after_second.frontend_misses + after_second.cost_misses;
    let artifact_rate = artifact_hits as f64 / artifact_total as f64;
    assert!(
        artifact_rate >= 0.75,
        "artifact-tier hit rate dropped below 75%: {artifact_rate:.2}"
    );
    // The third tier is colder on a single sweep (most points are
    // distinct scheduler inputs) but must reach 50% once the sweep has
    // been repeated — every second-run lookup hits.
    let sched_rate = after_second.sched_hits as f64
        / (after_second.sched_hits + after_second.sched_misses) as f64;
    assert!(
        sched_rate >= 0.5,
        "schedule-tier hit rate below 50% after a repeat sweep: {sched_rate:.2}"
    );
}

/// The persistent path of the same guarantee: a *fresh* explorer (the
/// cold-process shape — its in-memory cache is empty) over a store dir
/// populated by an earlier explorer replays every point from the
/// archive, reports a ≥95% combined hit rate, and emits byte-identical
/// reports.
#[test]
fn cold_explorer_over_a_populated_store_warm_starts() {
    let dir = std::env::temp_dir().join(format!("argo-dse-warm-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let space = tiny_space();

    let cold_report = {
        let mut ex = Explorer::with_threads(4);
        ex.register_program("tiny", parse_program(TINY).unwrap(), "main");
        let ex = ex.with_store(Arc::new(Store::open(&dir).unwrap()));
        let report = ex.explore(&space);
        // The cold run misses the store everywhere (tiers and archive)
        // but populates it.
        assert_eq!(report.cache.point_store_hits, 0);
        assert_eq!(report.cache.point_store_misses, 12);
        assert!(report.cache.store_hits() == 0);
        report
    };
    assert_eq!(cold_report.failures(), 0);

    let warm_report = {
        let mut ex = Explorer::with_threads(4);
        ex.register_program("tiny", parse_program(TINY).unwrap(), "main");
        let ex = ex.with_store(Arc::new(Store::open(&dir).unwrap()));
        ex.explore(&space)
    };

    // Every point replays from the archive: no pipeline stage runs.
    assert_eq!(warm_report.cache.point_store_hits, 12);
    assert_eq!(warm_report.cache.point_store_misses, 0);
    assert_eq!(
        warm_report.timing.frontend.runs + warm_report.timing.backend.runs,
        0,
        "a full warm start runs no stages"
    );
    let combined = warm_report.cache.combined_hit_rate();
    assert!(
        combined >= 0.95,
        "combined hit rate through the populated store must be ≥95%: {combined:.2}"
    );

    // And the replayed report is byte-identical to the cold one.
    assert_eq!(cold_report.to_csv(), warm_report.to_csv());
    assert_eq!(cold_report.pareto, warm_report.pareto);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The incremental half of the contract: after a program edit, the
/// point fingerprints differ, so a warm explorer re-evaluates the
/// changed points instead of replaying stale outcomes — and the
/// original program still replays from its own entries.
#[test]
fn changed_fingerprints_re_evaluate_instead_of_replaying() {
    let dir = std::env::temp_dir().join(format!("argo-dse-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let space = DesignSpace::new()
        .app("tiny")
        .cores(vec![2])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::Anneal]);
    // The "edit": same shape, one constant changed.
    let edited = TINY.replace("* 2.0", "* 3.0");
    assert_ne!(edited, TINY);

    let run = |src: &str| {
        let mut ex = Explorer::with_threads(2);
        ex.register_program("tiny", parse_program(src).unwrap(), "main");
        let ex = ex.with_store(Arc::new(Store::open(&dir).unwrap()));
        ex.explore(&space).cache
    };

    let first = run(TINY);
    assert_eq!((first.point_store_hits, first.point_store_misses), (0, 2));

    // Edited program → different content fingerprint → every point key
    // changes → all archive lookups miss and re-evaluate.
    let after_edit = run(&edited);
    assert_eq!(
        (after_edit.point_store_hits, after_edit.point_store_misses),
        (0, 2),
        "changed inputs must not replay archived outcomes"
    );

    // Both versions now sit in the archive: each replays fully.
    let original_again = run(TINY);
    assert_eq!(
        (
            original_again.point_store_hits,
            original_again.point_store_misses
        ),
        (2, 0)
    );
    let edited_again = run(&edited);
    assert_eq!(
        (
            edited_again.point_store_hits,
            edited_again.point_store_misses
        ),
        (2, 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seed-cost tier keys on core 0's cost view and the schedule tier
/// on the scheduling context's view, neither of which a scratchpad
/// capacity reaches: across an SPM axis the round-0 table is built once
/// per (app, platform kind, core count), a schedule is built once per
/// distinct task graph, and every row still equals the same point
/// evaluated alone by a fresh explorer.
#[test]
fn spm_axis_shares_one_seed_cost_table() {
    let space = DesignSpace::new()
        .apps(["egpws", "polka", "weaa"].map(String::from))
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 4, 8])
        .spm_capacities(vec![None, Some(0), Some(4096), Some(1 << 20)]);
    let explorer = Explorer::with_threads(1);
    let report = explorer.explore(&space);
    assert_eq!(report.rows.len(), 72);
    assert_eq!(report.failures(), 0);
    let stats = explorer.cache_stats();
    assert_eq!(
        (stats.cost_misses, stats.cost_hits),
        (18, 54),
        "one seed-cost build per app × platform kind × core count"
    );
    assert_eq!(
        (stats.sched_misses, stats.sched_hits),
        (49, 119),
        "the SPM axis shares schedules wherever the task graph matches"
    );
    for row in &report.rows {
        let alone = Explorer::with_threads(1).evaluate_point(row.point.clone(), &space);
        assert_eq!(&alone, row, "{}", row.point.label());
    }
}

/// The same space explored by a fresh explorer with a different thread
/// count yields the same CSV — ordering is deterministic, not luck.
#[test]
fn thread_count_is_invisible_in_reports() {
    let mut reports = Vec::new();
    for threads in [1, 3, 8] {
        let mut ex = Explorer::with_threads(threads);
        ex.register_program("tiny", parse_program(TINY).unwrap(), "main");
        reports.push(ex.explore(&tiny_space()).to_csv());
    }
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

/// End-to-end over a real use case: the sweep from the issue's acceptance
/// criterion shape (one app × 2 platforms × cores × schedulers) completes
/// with a non-empty front and nonzero cache reuse.
#[test]
fn egpws_acceptance_shape_sweep() {
    let explorer = Explorer::new();
    let space = DesignSpace::new()
        .app("egpws")
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::Anneal]);
    let report = explorer.explore(&space);
    assert_eq!(report.rows.len(), 8);
    assert_eq!(report.failures(), 0);
    assert!(!report.pareto.is_empty());
    assert!(
        report.cache.hits() > 0,
        "scheduler axis must share artifacts"
    );
    // Single-core rows must have speedup 1.
    for (_, m) in report.successes() {
        assert!(m.par_bound > 0);
    }
    let json = report.to_json();
    assert!(json.contains("\"cache\""));
}

/// Branch-and-bound over the three apps on both platforms at 1–8 cores
/// reproduces `tests/golden/sweep_bnb.csv` byte for byte. The golden is
/// the CLI's output for the same space:
/// `argo-dse explore --app egpws,polka,weaa --platforms bus,noc
/// --cores 1,2,4,8 --schedulers bnb --threads 1 --csv <file>`.
#[test]
fn bnb_sweep_matches_golden_csv() {
    let space = DesignSpace::new()
        .apps(["egpws", "polka", "weaa"].map(String::from))
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4, 8])
        .schedulers(vec![SchedulerKind::BranchAndBound]);
    let csv = Explorer::with_threads(1).explore(&space).to_csv();
    assert_eq!(
        csv,
        include_str!("golden/sweep_bnb.csv"),
        "branch-and-bound sweep drifted from the golden CSV"
    );
}

/// The granularity and chunking axes through the whole toolflow: list
/// scheduling over the three apps on both platforms at 1–8 cores, at
/// loop, block and statement granularity with chunking on and off,
/// reproduces `tests/golden/sweep_granularity.csv` byte for byte. The
/// golden is the CLI's output for the same space:
/// `argo-dse explore --app egpws,polka,weaa --platforms bus,noc
/// --cores 1,2,4,8 --granularities loop,block,stmt --chunk both
/// --threads 1 --csv <file>`.
#[test]
fn granularity_sweep_matches_golden_csv() {
    let space = DesignSpace::new()
        .apps(["egpws", "polka", "weaa"].map(String::from))
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4, 8])
        .granularities(Granularity::ALL.to_vec())
        .chunking(vec![true, false]);
    let csv = Explorer::with_threads(1).explore(&space).to_csv();
    assert_eq!(
        csv,
        include_str!("golden/sweep_granularity.csv"),
        "granularity/chunking sweep drifted from the golden CSV"
    );
}

/// The annealer's answers through the whole toolflow: the bus and NoC
/// sweep reproduces `tests/golden/sweep_anneal.csv` byte for byte. The
/// golden is the CLI's output for the same space:
/// `argo-dse explore --app egpws,polka,weaa --platforms bus,noc
/// --cores 1,2,4,8 --schedulers anneal --threads 1 --csv <file>`.
#[test]
fn anneal_sweep_matches_golden_csv() {
    let space = DesignSpace::new()
        .apps(["egpws", "polka", "weaa"].map(String::from))
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4, 8])
        .schedulers(vec![SchedulerKind::Anneal]);
    let csv = Explorer::with_threads(1).explore(&space).to_csv();
    assert_eq!(
        csv,
        include_str!("golden/sweep_anneal.csv"),
        "annealing sweep drifted from the golden CSV"
    );
}

/// `PlatformKind::Noc` lays `n` cores out on the grid the squarest
/// divisor pair gives: the first `rows` dividing `n` that minimises
/// `|n / rows - rows|`.
#[test]
fn noc_platforms_match_the_divisor_grid_rule() {
    for n in 1..=64usize {
        let rows = (1..=n)
            .filter(|&r| n.is_multiple_of(r))
            .min_by_key(|&r| (n / r).abs_diff(r))
            .unwrap();
        assert_eq!(
            PlatformKind::Noc.build(n, None),
            argo_adl::Platform::kit_tile_noc(rows, n / rows),
            "{n} cores"
        );
    }
}
