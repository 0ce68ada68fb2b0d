//! Seeded random task-graph generation for the scheduler ablation (E4).
//!
//! Generates layered DAGs — the shape real HTGs take after loop chunking:
//! a few layers of parallel tasks with cross-layer dependences.

use crate::TaskGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random layered-DAG generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomGraphParams {
    /// Total number of tasks.
    pub tasks: usize,
    /// Number of layers (≥ 1); tasks are distributed round-robin.
    pub layers: usize,
    /// Probability of an edge between tasks in adjacent layers.
    pub edge_prob: f64,
    /// Task cost range (inclusive).
    pub cost_range: (u64, u64),
    /// Edge communication volume range in bytes (inclusive).
    pub bytes_range: (u64, u64),
}

impl Default for RandomGraphParams {
    fn default() -> RandomGraphParams {
        RandomGraphParams {
            tasks: 12,
            layers: 4,
            edge_prob: 0.4,
            cost_range: (50, 500),
            bytes_range: (8, 2048),
        }
    }
}

/// Generates a random layered DAG with the given seed.
///
/// Tasks in layer `k` may depend only on tasks in layer `k-1`, so the
/// result is acyclic by construction; every non-first-layer task gets at
/// least one predecessor (no spurious extra sources).
pub fn random_task_graph(seed: u64, params: &RandomGraphParams) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.tasks;
    let layers = params.layers.max(1);
    let layer_of: Vec<usize> = (0..n).map(|i| i * layers / n.max(1)).collect();
    let mut g = TaskGraph {
        cost: (0..n)
            .map(|_| rng.gen_range(params.cost_range.0..=params.cost_range.1))
            .collect(),
        edges: Vec::new(),
        names: (0..n).map(|i| format!("r{i}")).collect(),
        htg_ids: vec![],
    };
    for t in 0..n {
        if layer_of[t] == 0 {
            continue;
        }
        let preds: Vec<usize> = (0..n).filter(|&p| layer_of[p] == layer_of[t] - 1).collect();
        if preds.is_empty() {
            continue;
        }
        let mut got_one = false;
        for &p in &preds {
            if rng.gen_bool(params.edge_prob) {
                let bytes = rng.gen_range(params.bytes_range.0..=params.bytes_range.1);
                g.edges.push((p, t, bytes));
                got_one = true;
            }
        }
        if !got_one {
            let p = preds[rng.gen_range(0..preds.len())];
            let bytes = rng.gen_range(params.bytes_range.0..=params.bytes_range.1);
            g.edges.push((p, t, bytes));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_are_acyclic_and_sized() {
        for seed in 0..20 {
            let g = random_task_graph(seed, &RandomGraphParams::default());
            assert_eq!(g.len(), 12);
            // topo_order panics on cycles.
            assert_eq!(g.topo_order().len(), 12);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let p = RandomGraphParams::default();
        assert_eq!(random_task_graph(42, &p), random_task_graph(42, &p));
        assert_ne!(random_task_graph(42, &p), random_task_graph(43, &p));
    }

    #[test]
    fn costs_within_range() {
        let p = RandomGraphParams {
            cost_range: (10, 20),
            ..Default::default()
        };
        let g = random_task_graph(1, &p);
        assert!(g.cost.iter().all(|&c| (10..=20).contains(&c)));
    }

    #[test]
    fn non_source_tasks_have_predecessors() {
        let p = RandomGraphParams {
            tasks: 20,
            layers: 5,
            edge_prob: 0.05,
            ..Default::default()
        };
        let g = random_task_graph(9, &p);
        let layer_of: Vec<usize> = (0..20).map(|i| i * 5 / 20).collect();
        let idx = g.index();
        for (t, &layer) in layer_of.iter().enumerate() {
            if layer > 0 {
                assert!(
                    !idx.preds(t).is_empty(),
                    "task {t} in layer {layer} has no preds"
                );
            }
        }
    }
}
