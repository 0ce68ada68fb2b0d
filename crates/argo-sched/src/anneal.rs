//! Simulated-annealing schedule refinement.
//!
//! Starts from the list schedule and explores the assignment space with
//! single-task core moves and task swaps, accepting uphill moves with the
//! Metropolis criterion. Deterministic for a fixed seed — important both
//! for reproducibility of the benches and for the tool-chain's iterative
//! optimisation loop (§ II-E), which re-runs the scheduler with inflated
//! costs and must not jitter.
//!
//! Proposals are made in place: a move or swap rewrites at most two
//! entries of the current assignment, one [`Evaluator`] built per call
//! prices it, and a rejection writes the two saved cores back. A swap
//! of two tasks on the same core changes nothing; it is accepted
//! without an evaluation, as an equal makespan always is.

use crate::list::ListScheduler;
use crate::{Evaluator, SchedCtx, Schedule, Scheduler, TaskGraph};
use argo_adl::CoreId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// RNG seed (fixed ⇒ deterministic result).
    pub seed: u64,
    /// Number of proposal iterations.
    pub iterations: u32,
    /// Initial temperature as a fraction of the seed makespan.
    pub initial_temp_frac: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> SimulatedAnnealing {
        SimulatedAnnealing {
            seed: 0xA6_60,
            iterations: 4000,
            initial_temp_frac: 0.1,
        }
    }
}

impl SimulatedAnnealing {
    /// Creates an annealer with the default parameters.
    pub fn new() -> SimulatedAnnealing {
        SimulatedAnnealing::default()
    }

    /// Creates an annealer with an explicit seed.
    pub fn with_seed(seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing {
            seed,
            ..SimulatedAnnealing::default()
        }
    }
}

impl Scheduler for SimulatedAnnealing {
    fn schedule(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
        let n = g.len();
        let cores = ctx.cores();
        let idx = g.index();
        let seed_sched = ListScheduler::new().schedule_indexed(g, &idx, ctx);
        if n == 0 || cores < 2 {
            return seed_sched;
        }
        // One evaluator for the seed, every proposal and the result.
        let mut eval = Evaluator::new(g, &idx, ctx);
        let mut current = seed_sched.assignment.clone();
        // Evaluate the seed assignment with the same (non-insertion)
        // kernel the proposals use, so acceptance is consistent.
        let mut current_ms = eval.makespan(&current);
        let mut best = current.clone();
        let mut best_ms = current_ms;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let t0 = (current_ms as f64 * self.initial_temp_frac).max(1.0);

        // Counted in locals, published once after the loop when the
        // metrics gate is on — the proposal loop stays free of shared
        // memory traffic either way.
        let mut accepts = 0u64;
        for it in 0..self.iterations {
            let temp = t0 * (1.0 - it as f64 / self.iterations as f64).max(1e-6);
            // A proposal gives task `a` core `ca` and task `b` core `cb`
            // (the same task and core for a move), in place; a rejection
            // restores the two saved cores.
            let (a, ca, b, cb) = if n >= 2 && rng.gen_bool(0.3) {
                // Swap the cores of two tasks.
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if current[a] == current[b] {
                    // Nothing changes, so neither does the makespan, and
                    // an equal makespan is always accepted.
                    accepts += 1;
                    continue;
                }
                (a, current[b], b, current[a])
            } else {
                // Move one task to a random other core.
                let t = rng.gen_range(0..n);
                let mut c = rng.gen_range(0..cores);
                if CoreId(c) == current[t] {
                    c = (c + 1) % cores;
                }
                (t, CoreId(c), t, CoreId(c))
            };
            let saved = (current[a], current[b]);
            (current[a], current[b]) = (ca, cb);
            let ms = eval.makespan(&current);
            let accept = ms <= current_ms || {
                let delta = (ms - current_ms) as f64;
                rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0))
            };
            if accept {
                accepts += 1;
                current_ms = ms;
                if ms < best_ms {
                    best_ms = ms;
                    best.copy_from_slice(&current);
                }
            } else {
                (current[a], current[b]) = saved;
            }
        }
        if argo_trace::metrics_on() {
            let m = argo_trace::metrics();
            m.counter("argo_sched_anneal_proposals_total")
                .add(self.iterations as u64);
            m.counter("argo_sched_anneal_accepts_total").add(accepts);
        }
        let annealed = eval.schedule(&best);
        // The list seed uses gap insertion, which the plain evaluation
        // kernel cannot reproduce; never return worse than the seed.
        if annealed.makespan() <= seed_sched.makespan() {
            annealed
        } else {
            seed_sched
        }
    }

    fn name(&self) -> &'static str {
        "sim-anneal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs::{diamond, fork_join};
    use crate::CommModel;
    use argo_adl::Platform;

    #[test]
    fn produces_valid_schedules() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(6, 120)] {
            let s = SimulatedAnnealing::new().schedule(&g, &ctx);
            s.validate(&g, &ctx).unwrap();
        }
    }

    #[test]
    fn never_worse_than_list_seed() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(9, 333), fork_join(5, 50)] {
            let sa = SimulatedAnnealing::new().schedule(&g, &ctx);
            let ls = ListScheduler::new().schedule(&g, &ctx);
            assert!(sa.makespan() <= ls.makespan());
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        let g = fork_join(7, 99);
        let a = SimulatedAnnealing::with_seed(7).schedule(&g, &ctx);
        let b = SimulatedAnnealing::with_seed(7).schedule(&g, &ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn improves_a_deliberately_unbalanced_case() {
        // Independent tasks with unequal sizes: list scheduling by rank is
        // already decent, but SA must find a balanced split too.
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::with_comm(&p, CommModel::Free);
        let g = TaskGraph {
            cost: vec![8, 7, 6, 5, 4, 3, 3],
            edges: vec![],
            names: (0..7).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        let s = SimulatedAnnealing::new().schedule(&g, &ctx);
        // Total 36, optimum 18.
        assert_eq!(s.makespan(), 18);
    }

    #[test]
    fn single_core_returns_seed() {
        let p = Platform::xentium_manycore(1);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let s = SimulatedAnnealing::new().schedule(&g, &ctx);
        assert_eq!(s.makespan(), g.total_work());
    }
}
