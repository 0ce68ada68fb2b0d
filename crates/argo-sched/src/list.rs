//! HEFT-style list scheduling.
//!
//! The workhorse heuristic: tasks are prioritised by *upward rank* (the
//! longest cost+comm path to a sink) and greedily placed on the core that
//! gives the earliest finish time, with insertion into idle gaps. This is
//! the "advanced heuristics" leg of the paper's § III-C strategy; for
//! homogeneous ARGO platforms the computation cost term of classical HEFT
//! degenerates to the task WCET.

use crate::{SchedCtx, Schedule, Scheduler, TaskGraph, TaskGraphIndex};
use argo_adl::CoreId;

/// HEFT-style list scheduler with gap insertion.
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScheduler {
    /// When `true`, tasks may be inserted into idle gaps between already
    /// scheduled tasks (classical HEFT insertion policy).
    pub insertion: bool,
}

impl ListScheduler {
    /// Creates the default (insertion-enabled) list scheduler.
    pub fn new() -> ListScheduler {
        ListScheduler { insertion: true }
    }

    /// Upward ranks: `rank(t) = cost(t) + max over succs (comm + rank)`.
    /// Communication is averaged over distinct core pairs, per HEFT.
    ///
    /// Builds the adjacency index on each call; callers that already
    /// hold one should use [`ListScheduler::upward_ranks_indexed`].
    pub fn upward_ranks(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Vec<f64> {
        self.upward_ranks_indexed(g, &g.index(), ctx)
    }

    /// [`ListScheduler::upward_ranks`] over a prebuilt index.
    pub fn upward_ranks_indexed(
        &self,
        g: &TaskGraph,
        idx: &TaskGraphIndex,
        ctx: &SchedCtx<'_>,
    ) -> Vec<f64> {
        let mut rank = vec![0f64; g.len()];
        let cores = ctx.cores();
        // Mean cross-core communication cost per byte-volume edge.
        let mean_comm = |bytes: u64| -> f64 {
            if cores < 2 {
                return 0.0;
            }
            // Representative pair (0, 1); homogeneous interconnects make
            // this exact for buses, a good proxy for meshes.
            ctx.comm_cost(CoreId(0), CoreId(1), bytes) as f64 * (cores as f64 - 1.0) / cores as f64
        };
        for &t in idx.topo_order().iter().rev() {
            let down = idx
                .succs(t)
                .iter()
                .map(|&(s, bytes)| mean_comm(bytes) + rank[s])
                .fold(0f64, f64::max);
            rank[t] = g.cost[t] as f64 + down;
        }
        rank
    }

    /// [`Scheduler::schedule`] over a prebuilt index.
    pub fn schedule_indexed(
        &self,
        g: &TaskGraph,
        idx: &TaskGraphIndex,
        ctx: &SchedCtx<'_>,
    ) -> Schedule {
        let n = g.len();
        let cores = ctx.cores();
        let rank = self.upward_ranks_indexed(g, idx, ctx);

        // Priority order: descending rank, ties by index (deterministic).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| rank[b].partial_cmp(&rank[a]).unwrap().then(a.cmp(&b)));

        let mut assignment = vec![CoreId(0); n];
        let mut start = vec![0u64; n];
        let mut finish = vec![0u64; n];
        let mut scheduled = vec![false; n];
        // Per-core sorted list of (start, finish) busy intervals.
        let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores];

        for &t in &order {
            // HEFT requires preds scheduled first; descending upward rank
            // guarantees it on DAGs.
            debug_assert!(idx.preds(t).iter().all(|&(p, _)| scheduled[p]));
            let mut best: Option<(u64, u64, usize)> = None; // (finish, start, core)
            for (c, busy_c) in busy.iter().enumerate() {
                let mut ready = 0u64;
                for &(p, bytes) in idx.preds(t) {
                    let comm = if assignment[p] == CoreId(c) {
                        0
                    } else {
                        ctx.comm_cost(assignment[p], CoreId(c), bytes)
                    };
                    ready = ready.max(finish[p] + comm);
                }
                let st = self.earliest_slot(busy_c, ready, g.cost[t]);
                let fin = st + g.cost[t];
                let cand = (fin, st, c);
                if best.is_none() || cand < best.unwrap() {
                    best = Some(cand);
                }
            }
            let (fin, st, c) = best.expect("at least one core");
            assignment[t] = CoreId(c);
            start[t] = st;
            finish[t] = fin;
            scheduled[t] = true;
            let pos = busy[c].partition_point(|&(s, _)| s < st);
            busy[c].insert(pos, (st, fin));
        }
        Schedule {
            assignment,
            start,
            finish,
        }
    }

    /// Earliest start ≥ `ready` where a task of length `len` fits on a
    /// core with the given busy intervals.
    fn earliest_slot(&self, busy: &[(u64, u64)], ready: u64, len: u64) -> u64 {
        if !self.insertion {
            let last = busy.last().map_or(0, |&(_, f)| f);
            return ready.max(last);
        }
        let mut cand = ready;
        for &(s, f) in busy {
            if cand + len <= s {
                return cand;
            }
            cand = cand.max(f);
        }
        cand
    }
}

impl Scheduler for ListScheduler {
    fn schedule(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
        self.schedule_indexed(g, &g.index(), ctx)
    }

    fn name(&self) -> &'static str {
        "list-heft"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_task_graph, RandomGraphParams};
    use crate::test_graphs::{diamond, fork_join};
    use crate::{sequential_schedule, CommModel};
    use argo_adl::Platform;

    #[test]
    fn produces_valid_schedules() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(8, 100)] {
            let s = ListScheduler::new().schedule(&g, &ctx);
            s.validate(&g, &ctx).unwrap();
        }
    }

    #[test]
    fn schedules_a_thousand_task_graph_validly() {
        let g = random_task_graph(
            7,
            &RandomGraphParams {
                tasks: 1000,
                layers: 25,
                ..Default::default()
            },
        );
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&p);
        let s = ListScheduler::new().schedule_indexed(&g, &g.index(), &ctx);
        s.validate(&g, &ctx).unwrap();
    }

    #[test]
    fn parallelises_fork_join() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx {
            platform: &p,
            comm: CommModel::Free,
        };
        let g = fork_join(8, 1000);
        let s = ListScheduler::new().schedule(&g, &ctx);
        let seq = sequential_schedule(&g, &ctx);
        // 8 equal tasks on 4 cores: near-4x on the middle stage.
        assert!(s.makespan() <= seq.makespan() / 3);
        // Lower bound: critical path.
        assert!(s.makespan() >= g.critical_path());
    }

    #[test]
    fn keeps_chain_on_one_core_when_comm_is_costly() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&p);
        // A pure chain with heavy data: splitting would only add comm.
        let g = TaskGraph {
            cost: vec![100, 100, 100],
            edges: vec![(0, 1, 4096), (1, 2, 4096)],
            names: vec!["a".into(), "b".into(), "c".into()],
            htg_ids: vec![],
        };
        let s = ListScheduler::new().schedule(&g, &ctx);
        s.validate(&g, &ctx).unwrap();
        assert_eq!(s.assignment[0], s.assignment[1]);
        assert_eq!(s.assignment[1], s.assignment[2]);
        assert_eq!(s.makespan(), 300);
    }

    #[test]
    fn upward_ranks_decrease_along_edges() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let r = ListScheduler::new().upward_ranks(&g, &ctx);
        for &(f, t, _) in &g.edges {
            assert!(r[f] > r[t]);
        }
    }

    #[test]
    fn insertion_never_hurts() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx {
            platform: &p,
            comm: CommModel::Free,
        };
        let g = fork_join(7, 350);
        let with_ins = ListScheduler { insertion: true }.schedule(&g, &ctx);
        let without = ListScheduler { insertion: false }.schedule(&g, &ctx);
        with_ins.validate(&g, &ctx).unwrap();
        without.validate(&g, &ctx).unwrap();
        assert!(with_ins.makespan() <= without.makespan());
    }

    #[test]
    fn single_core_equals_sequential() {
        let p = Platform::xentium_manycore(1);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let s = ListScheduler::new().schedule(&g, &ctx);
        assert_eq!(s.makespan(), g.total_work());
    }

    #[test]
    fn empty_graph_is_fine() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let g = TaskGraph::default();
        let s = ListScheduler::new().schedule(&g, &ctx);
        assert_eq!(s.makespan(), 0);
    }
}
