//! Integration tests for `argo-search` steering `argo-dse`:
//! Pareto-front algebra (permutation invariance, idempotence), seeded
//! determinism and thread-count invariance for every strategy, budget
//! and stall enforcement, and the acceptance regression — on a
//! 512-point lattice over a bench use case, every strategy evaluates at
//! most 25% of the points while recovering at least 90% of the
//! exhaustive Pareto front.

use argo_core::SchedulerKind;
use argo_dse::pareto::{dominates, pareto_front};
use argo_dse::{DesignSpace, Explorer, PlatformKind};
use argo_htg::Granularity;
use argo_ir::parse::parse_program;
use argo_search::{all_strategies, Budget};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The front is a property of the *set*: permuting the input only
    /// permutes the reported indices, never the selected vectors.
    #[test]
    fn pareto_front_is_invariant_under_permutation(
        objs in proptest::collection::vec((1u64..9, 1u64..500, 0u64..5), 1..40),
        shuffle_seed in any::<u64>(),
    ) {
        let objs: Vec<[u64; 3]> =
            objs.into_iter().map(|(c, w, s)| [c, w, s * 4096]).collect();

        // Deterministic Fisher–Yates driven by the generated seed.
        let mut perm: Vec<usize> = (0..objs.len()).collect();
        let mut state = shuffle_seed | 1;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % (i + 1);
            perm.swap(i, j);
        }
        let shuffled: Vec<[u64; 3]> = perm.iter().map(|&i| objs[i]).collect();

        let front_vectors = |objs: &[[u64; 3]]| -> Vec<[u64; 3]> {
            let mut v: Vec<[u64; 3]> =
                pareto_front(objs).into_iter().map(|i| objs[i]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        prop_assert_eq!(front_vectors(&objs), front_vectors(&shuffled));
    }

    /// Extracting the front of a front is the identity: every member of
    /// a front is non-dominated within it.
    #[test]
    fn pareto_front_is_idempotent(
        objs in proptest::collection::vec((1u64..9, 1u64..500, 0u64..5), 1..40),
    ) {
        let objs: Vec<[u64; 3]> =
            objs.into_iter().map(|(c, w, s)| [c, w, s * 4096]).collect();
        let front: Vec<[u64; 3]> =
            pareto_front(&objs).into_iter().map(|i| objs[i]).collect();
        let again = pareto_front(&front);
        prop_assert_eq!(again, (0..front.len()).collect::<Vec<_>>());
        // And its members are mutually non-dominating.
        for a in &front {
            for b in &front {
                prop_assert!(!dominates(a, b) || !dominates(b, a));
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

fn tiny_explorer(threads: usize) -> Explorer {
    let mut ex = Explorer::with_threads(threads);
    ex.register_program("tiny", parse_program(TINY).unwrap(), "main");
    ex
}

/// A 48-point space over the registered tiny program (fast to evaluate).
fn tiny_space(seed: u64) -> DesignSpace {
    DesignSpace::new()
        .app("tiny")
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::Anneal])
        .chunking(vec![true, false])
        .spm_capacities(vec![None, Some(4096)])
        .seed(seed)
}

/// Every strategy is deterministic for a fixed seed: two fresh
/// explorers produce byte-identical searched reports, and a different
/// seed explores a different point set.
#[test]
fn searches_are_seed_deterministic() {
    for strategy in all_strategies() {
        let run = |seed: u64| {
            tiny_explorer(4)
                .search(
                    &tiny_space(seed),
                    strategy.as_ref(),
                    Budget::evaluations(12),
                )
                .to_csv()
        };
        assert_eq!(run(7), run(7), "{} must be deterministic", strategy.name());
        assert_ne!(
            run(7),
            run(8),
            "{} must actually use its seed",
            strategy.name()
        );
    }
}

/// Thread count is invisible in searched reports: the strategy sees the
/// same evaluation results in the same order however the engine fans
/// each batch out.
#[test]
fn searches_are_thread_count_invariant() {
    for strategy in all_strategies() {
        let csv: Vec<String> = [1, 3, 8]
            .iter()
            .map(|&t| {
                tiny_explorer(t)
                    .search(&tiny_space(42), strategy.as_ref(), Budget::evaluations(16))
                    .to_csv()
            })
            .collect();
        assert_eq!(csv[0], csv[1], "{}", strategy.name());
        assert_eq!(csv[1], csv[2], "{}", strategy.name());
    }
}

/// The evaluation budget is a hard cap, and the report's rows are
/// exactly the evaluated subset.
#[test]
fn budgets_are_hard_caps() {
    for strategy in all_strategies() {
        for budget in [1usize, 5, 12] {
            let report = tiny_explorer(4).search(
                &tiny_space(42),
                strategy.as_ref(),
                Budget::evaluations(budget),
            );
            let info = report.search.as_ref().expect("search metadata");
            assert!(
                info.evaluated <= budget,
                "{} spent {} of {budget}",
                strategy.name(),
                info.evaluated
            );
            assert_eq!(report.rows.len(), info.evaluated);
        }
    }
}

/// A stall budget stops a sweep that no longer improves the front
/// (ROADMAP item (d)) well before the lattice is exhausted.
#[test]
fn stall_budget_stops_unimproving_searches() {
    for strategy in all_strategies() {
        let space = tiny_space(42);
        let report =
            tiny_explorer(4).search(&space, strategy.as_ref(), Budget::unlimited().with_stall(6));
        let info = report.search.as_ref().expect("search metadata");
        assert!(
            info.evaluated < space.len(),
            "{} evaluated the whole lattice despite the stall budget",
            strategy.name()
        );
        assert!(!report.pareto.is_empty());
    }
}

/// Distinct objective vectors on a report's Pareto front.
fn front_vectors(report: &argo_dse::ExplorationReport) -> BTreeSet<[u64; 3]> {
    report
        .pareto
        .iter()
        .filter_map(|&i| report.rows[i].objectives())
        .collect()
}

/// The acceptance regression (deterministic across runs and thread
/// counts): on a 512-point lattice over the EGPWS bench use case, each
/// seeded strategy evaluates at most 25% of the points while recovering
/// at least 90% of the exhaustive Pareto front's distinct objective
/// vectors.
#[test]
fn strategies_recover_the_front_of_a_512_point_lattice_within_a_quarter_budget() {
    let space = DesignSpace::new()
        .app("egpws")
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4, 6])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::BranchAndBound])
        .granularities(vec![Granularity::Loop, Granularity::Block])
        .chunking(vec![true, false])
        .spm_capacities(vec![
            None,
            Some(512),
            Some(1024),
            Some(2048),
            Some(4096),
            Some(8192),
            Some(12288),
            Some(16384),
        ])
        .seed(7);
    assert_eq!(space.len(), 512);
    let budget = space.len() / 4; // 128 = 25%

    let explorer = Explorer::new();
    let exhaustive = explorer.explore(&space);
    assert_eq!(exhaustive.failures(), 0);
    let reference = front_vectors(&exhaustive);
    assert!(
        reference.len() >= 8,
        "front must be non-trivial: {reference:?}"
    );

    for strategy in all_strategies() {
        // Two runs with different worker counts: byte-identical reports
        // (determinism across thread counts *and* across runs), then
        // the quality bar on the front.
        let run = |threads: usize| {
            let ex = Explorer::with_threads(threads);
            ex.search(&space, strategy.as_ref(), Budget::evaluations(budget))
        };
        let a = run(2);
        let b = run(5);
        assert_eq!(a.to_csv(), b.to_csv(), "{}", strategy.name());

        let info = a.search.as_ref().expect("search metadata");
        assert!(
            info.evaluated <= budget,
            "{} evaluated {} > 25% of the lattice",
            strategy.name(),
            info.evaluated
        );
        let found = front_vectors(&a);
        let recovered = reference.iter().filter(|v| found.contains(*v)).count();
        let recovery = recovered as f64 / reference.len() as f64;
        assert!(
            recovery >= 0.9,
            "{} recovered only {recovered}/{} front vectors ({recovery:.2})",
            strategy.name(),
            reference.len()
        );
    }
}
