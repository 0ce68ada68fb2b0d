//! # argo-search — budgeted metaheuristic search over the design space
//!
//! PR 1's `argo-dse` engine enumerates the full cartesian lattice and
//! evaluates every point; the ROADMAP flags that as the blocking cost
//! for sweeps with 10⁴+ points. The ARGO toolflow is explicitly
//! *iterative* — WCET feedback steers the parallelization choices — so
//! the search over configurations should be steered too. This crate is
//! that steering layer: adaptive, budget-aware [`SearchStrategy`]
//! implementations that evaluate only a promising fraction of a
//! [`Lattice`] while chasing the same Pareto front the exhaustive sweep
//! would find.
//!
//! The crate deliberately knows nothing about platforms, schedulers or
//! WCETs: the domain is an abstract mixed-radix [`Lattice`] (axis sizes
//! only) and a batch evaluation function mapping flat indices to
//! [`pareto::Objectives`] vectors. `argo-dse` supplies both — its
//! `Explorer::search` wires the design-space axes and the cached
//! toolflow evaluation underneath — which keeps the dependency arrow
//! pointing from the engine to the strategies, never back.
//!
//! ## Choosing a strategy
//!
//! | strategy | CLI label | reach for it when |
//! |----------|-----------|-------------------|
//! | [`Genetic`] | `ga` | default choice: best front coverage per evaluation on mixed axes; crossover exploits axis separability (a good scheduler choice stays good across SPM sizes) |
//! | [`Annealing`] | `anneal` | the lattice is locally smooth (neighboring configurations have similar WCETs) and you want cheap, simple convergence; restart chains with distinct scalarizations cover the front corners |
//! | [`SuccessiveHalving`] | `halving` | whole sub-families of configurations are expected to be bad (wrong platform, hopeless core counts): racing contiguous strata abandons them after a handful of samples |
//!
//! All three respect the same [`Budget`] and the same [`Evaluator`]
//! archive, so they are interchangeable in drivers and comparable in
//! benches (`argo-bench` E9 races them against the exhaustive sweep).
//!
//! ## Budget semantics
//!
//! A [`Budget`] bounds **fresh** evaluations (`max_evaluations`) and
//! front stagnation (`stall`: consecutive requested points without a
//! Pareto-archive improvement — ROADMAP item (d)). Memoized re-requests
//! cost no budget but *do* count as stagnation. Strategies additionally
//! carry internal iteration caps, so even `Budget::unlimited()`
//! terminates.
//!
//! ## Determinism contract
//!
//! For a fixed `(lattice, seed, evaluation function)` triple every
//! strategy requests the same points in the same order and produces the
//! same archive — all randomness flows from the caller's seed through
//! the workspace's deterministic `StdRng` shim, all iteration is over
//! ordered containers, and batch results are consumed in request order
//! regardless of how the backing engine parallelizes them. The
//! `tests/search.rs` suite pins this across runs *and* across worker
//! thread counts.

pub mod anneal;
pub mod budget;
pub mod ga;
pub mod halving;
pub mod lattice;
pub mod pareto;
pub mod strategy;

pub use anneal::Annealing;
pub use budget::Budget;
pub use ga::Genetic;
pub use halving::SuccessiveHalving;
pub use lattice::Lattice;
pub use pareto::{crowding_distance, dominates, pareto_front, pareto_rank, Objectives};
pub use strategy::{BatchEvalFn, Evaluator, SearchStrategy};

/// Parses a strategy CLI label into a boxed strategy with default
/// parameters (`exhaustive` is not a strategy — drivers treat it as
/// "skip the search layer").
pub fn parse_strategy(label: &str) -> Result<Box<dyn SearchStrategy>, String> {
    let mut strategies = all_strategies();
    if let Some(i) = strategies.iter().position(|s| s.name() == label) {
        return Ok(strategies.swap_remove(i));
    }
    let names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
    Err(format!(
        "unknown strategy `{label}` (expected exhaustive|{})",
        names.join("|")
    ))
}

/// All built-in strategies with default parameters, in CLI-label order
/// (for benches and tests that race every strategy).
pub fn all_strategies() -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(Genetic::new()),
        Box::new(Annealing::new()),
        Box::new(SuccessiveHalving::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels_parse() {
        for label in ["ga", "anneal", "halving"] {
            assert_eq!(parse_strategy(label).unwrap().name(), label);
        }
        assert!(parse_strategy("exhaustive").is_err());
        assert_eq!(
            parse_strategy("tabu").err().unwrap(),
            "unknown strategy `tabu` (expected exhaustive|ga|anneal|halving)"
        );
        assert_eq!(all_strategies().len(), 3);
    }
}
