//! Exact branch-and-bound scheduler.
//!
//! The "exact techniques" leg of § III-C. A depth-first search over
//! task→core assignments in lexicographic order: tasks in a fixed
//! topological order that pops the highest upward rank first, cores in
//! ascending index order at every depth. Each task is appended to the
//! end of its core, as early as its predecessors and communication
//! allow (the *search model*). The list schedule seeds the incumbent,
//! and a leaf replaces it only on a strictly smaller makespan. A search
//! that runs to completion therefore returns the lexicographically first
//! optimal assignment, or the list seed when no assignment beats it.
//!
//! Task costs do not depend on the core, so the search sees cores only
//! through [`SchedCtx::comm_cost`]. Three rules cut the tree:
//!
//! * **Core classes.** Cores `i` and `j` share a class when their
//!   communication cost to and from every other core, and between each
//!   other in both directions, is equal for every edge volume of the
//!   graph. Swapping two cores of a class then changes no makespan, so a
//!   task goes to a used core or to the lowest-index unused core of a
//!   class, never to another unused one. A bus (or any model that prices
//!   all pairs alike) is one class; on a mesh under
//!   [`CommModel::SignalOnly`](crate::CommModel::SignalOnly), tiles at
//!   equal hop distance from the shared memory share one.
//! * **Twin ordering.** Two tasks adjacent in the search order with
//!   equal cost and equal predecessor and successor lists (volumes
//!   included) can swap cores without changing any start time of the
//!   rest, so the second never takes a lower core than the first.
//! * **Lower bound.** A node is cut once
//!   `max(max over placed tasks of start + bottom level,
//!   ceil((Σ core availability + remaining work) / cores))` reaches the
//!   incumbent. The bottom level is a task's cost plus the longest cost
//!   path below it, ignoring communication: communication is never
//!   negative, so every chain runs at least that long. (HEFT upward ranks
//!   average communication costs, so they are no bound.) The first term
//!   dominates the partial makespan and equals the makespan at a leaf.
//!
//! The bound only cuts subtrees that cannot beat the incumbent, and the
//! two symmetry rules only cut assignments that have a lexicographically
//! smaller twin with the same makespan, so none of them changes the
//! answer. The search allocates nothing per node: per-depth arrays hold
//! the next-core cursor, the saved availability of the core used (for
//! undo) and the running tail bound.
//!
//! The search is still exponential in the worst case, so `node_budget`
//! caps the nodes expanded. When it runs out, the best incumbent so far
//! is returned with [`BnbOutcome::proven_optimal`] set to `false`: the
//! schedule is valid and never worse than the list schedule, but a
//! better assignment may exist.

use crate::list::ListScheduler;
use crate::{CommTable, Evaluator, SchedCtx, Schedule, Scheduler, TaskGraph, TaskGraphIndex};
use argo_adl::CoreId;

/// Exact branch-and-bound scheduler with a node-expansion budget.
#[derive(Debug, Clone, Copy)]
pub struct BranchAndBound {
    /// Maximum number of search-tree nodes to expand before falling back
    /// to the best incumbent (keeps worst-case runtime bounded).
    pub node_budget: u64,
}

impl Default for BranchAndBound {
    fn default() -> BranchAndBound {
        BranchAndBound {
            node_budget: 2_000_000,
        }
    }
}

/// What one [`BranchAndBound::schedule_counted`] call found.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Search-tree nodes expanded.
    pub expanded: u64,
    /// `false` exactly when the node budget ran out before the search
    /// completed, so a better assignment may exist.
    pub proven_optimal: bool,
}

impl BranchAndBound {
    /// Creates a solver with the default node budget.
    pub fn new() -> BranchAndBound {
        BranchAndBound::default()
    }

    /// Schedules `g` and reports the search effort and whether the
    /// result was proven optimal.
    pub fn schedule_counted(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> BnbOutcome {
        let idx = g.index();
        let mut eval = Evaluator::new(g, &idx, ctx);
        if g.is_empty() {
            return BnbOutcome {
                schedule: eval.schedule(&[]),
                expanded: 0,
                proven_optimal: true,
            };
        }
        // Incumbent from the list scheduler.
        let seed = ListScheduler::new().schedule_indexed(g, &idx, ctx);
        let found = Model::new(g, &idx, ctx, &eval.comm).search(seed.makespan(), self.node_budget);

        // Locals published once per call, behind the metrics gate —
        // the search loop itself stays free of shared memory traffic.
        if argo_trace::metrics_on() {
            let m = argo_trace::metrics();
            m.counter("argo_sched_bnb_expanded_total")
                .add(found.expanded);
            m.counter("argo_sched_bnb_pruned_total").add(found.pruned);
            m.counter("argo_sched_bnb_unproven_total")
                .add(u64::from(!found.proven));
        }
        let best = found.improved.as_deref().unwrap_or(&seed.assignment);
        let result = eval.schedule(best);
        // The list seed uses gap insertion, which plain re-evaluation of
        // the same assignment cannot always reproduce; never return a
        // schedule worse than the seed.
        BnbOutcome {
            schedule: if result.makespan() <= seed.makespan() {
                result
            } else {
                seed
            },
            expanded: found.expanded,
            proven_optimal: found.proven,
        }
    }
}

/// What one search found.
struct Found {
    /// The best assignment found (after a complete search, the
    /// lexicographically first of least makespan), or `None` when
    /// nothing beat the seed.
    improved: Option<Vec<CoreId>>,
    expanded: u64,
    pruned: u64,
    proven: bool,
}

/// The search model of one graph on one platform, indexed by depth
/// (position in the search order) rather than by task.
struct Model<'c> {
    cores: usize,
    /// Depth → task.
    order: Vec<usize>,
    cost: Vec<u64>,
    /// Communication-free bottom level per depth.
    bottom: Vec<u64>,
    /// `rest[d]`: total cost of depths `d..` (one extra trailing zero).
    rest: Vec<u64>,
    /// CSR predecessors per depth: `(pred depth, comm table offset)`.
    pred_off: Vec<usize>,
    preds: Vec<(usize, usize)>,
    /// The evaluator's comm table; zero on the diagonal, as the search
    /// charges no same-core comm.
    comm: &'c CommTable,
    /// Core → the next lower core of its class, if any.
    prev_in_class: Vec<Option<usize>>,
    /// `twin[d]`: the tasks at depths `d - 1` and `d` are twins.
    twin: Vec<bool>,
}

impl<'c> Model<'c> {
    fn new(
        g: &TaskGraph,
        idx: &TaskGraphIndex,
        ctx: &SchedCtx<'_>,
        comm: &'c CommTable,
    ) -> Model<'c> {
        let n = g.len();
        let cores = ctx.cores();
        // Deterministic topological order, prioritising long ranks to
        // tighten pruning early: Kahn with max-rank pops keeps
        // topological validity while visiting critical tasks first.
        let ranks = ListScheduler::new().upward_ranks_indexed(g, idx, ctx);
        let order = topo_by_rank(idx, &ranks);
        let mut depth_of = vec![0; n];
        for (d, &t) in order.iter().enumerate() {
            depth_of[t] = d;
        }

        let same_class = |i: usize, j: usize| {
            comm.cost.chunks_exact(cores * cores).all(|table| {
                let at = |from: usize, to: usize| table[from * cores + to];
                at(i, j) == at(j, i)
                    && (0..cores)
                        .filter(|&k| k != i && k != j)
                        .all(|k| at(i, k) == at(j, k) && at(k, i) == at(k, j))
            })
        };
        // Sharing a class is an equivalence (the swaps compose), so the
        // nearest lower member is the only one to look for.
        let prev_in_class = (0..cores)
            .map(|c| (0..c).rev().find(|&q| same_class(q, c)))
            .collect();

        let mut bottom_of = vec![0u64; n];
        for &t in idx.topo_order().iter().rev() {
            let below = idx.succs(t).iter().map(|&(s, _)| bottom_of[s]).max();
            bottom_of[t] = g.cost[t] + below.unwrap_or(0);
        }
        let cost: Vec<u64> = order.iter().map(|&t| g.cost[t]).collect();
        let mut rest = vec![0u64; n + 1];
        for d in (0..n).rev() {
            rest[d] = rest[d + 1] + cost[d];
        }

        let mut pred_off = Vec::with_capacity(n + 1);
        let mut preds = Vec::with_capacity(g.edges.len());
        pred_off.push(0);
        for &t in &order {
            for &(p, bytes) in idx.preds(t) {
                preds.push((depth_of[p], comm.offset(bytes)));
            }
            pred_off.push(preds.len());
        }

        let signature = |t: usize| {
            let mut p = idx.preds(t).to_vec();
            let mut s = idx.succs(t).to_vec();
            p.sort_unstable();
            s.sort_unstable();
            (g.cost[t], p, s)
        };
        let mut twin = vec![false; n];
        for d in 1..n {
            twin[d] = signature(order[d - 1]) == signature(order[d]);
        }

        Model {
            cores,
            bottom: order.iter().map(|&t| bottom_of[t]).collect(),
            order,
            cost,
            rest,
            pred_off,
            preds,
            comm,
            prev_in_class,
            twin,
        }
    }

    /// Depth-first search for an assignment with a makespan below
    /// `incumbent`, expanding at most `budget` nodes.
    fn search(&self, incumbent: u64, budget: u64) -> Found {
        let (n, m) = (self.order.len(), self.cores);
        let mut best = incumbent;
        let mut improved: Option<Vec<CoreId>> = None;
        // Per-depth state: the core used, the next core to try, the
        // placed finish time, the used core's availability before the
        // placement (for undo), and the tail bound of depths `< d`.
        let mut core_at = vec![0usize; n];
        let mut cursor = vec![0usize; n];
        let mut finish = vec![0u64; n];
        let mut saved = vec![0u64; n];
        let mut tail = vec![0u64; n];
        // Per-core state: availability and task count, plus Σ avail.
        let mut avail = vec![0u64; m];
        let mut used = vec![0u32; m];
        let mut sum_avail = 0u64;
        let (mut expanded, mut pruned) = (0u64, 0u64);

        let mut d = 0;
        let proven = loop {
            let c = cursor[d];
            if c == m {
                // Depth exhausted: undo the placement one level up.
                if d == 0 {
                    break true;
                }
                d -= 1;
                let u = core_at[d];
                sum_avail -= avail[u] - saved[d];
                avail[u] = saved[d];
                used[u] -= 1;
                continue;
            }
            cursor[d] = c + 1;
            // The used cores of a class are a prefix of it, so `c` is
            // unused here and the lower unused core is equivalent.
            if self.prev_in_class[c].is_some_and(|q| used[q] == 0) {
                continue;
            }
            expanded += 1;
            if expanded > budget {
                break false;
            }

            let mut est = avail[c];
            for &(p, off) in &self.preds[self.pred_off[d]..self.pred_off[d + 1]] {
                est = est.max(finish[p] + self.comm.cost[off + core_at[p] * m + c]);
            }
            let fin = est + self.cost[d];
            let tail_lb = tail[d].max(est + self.bottom[d]);
            let work_lb = (sum_avail - avail[c] + fin + self.rest[d + 1]).div_ceil(m as u64);
            if tail_lb.max(work_lb) >= best {
                pruned += 1;
                continue;
            }
            core_at[d] = c;
            if d + 1 == n {
                // At a leaf the tail bound is the makespan.
                best = tail_lb;
                let assignment = improved.get_or_insert_with(|| vec![CoreId(0); n]);
                for (&t, &core) in self.order.iter().zip(&core_at) {
                    assignment[t] = CoreId(core);
                }
                continue;
            }
            finish[d] = fin;
            saved[d] = avail[c];
            sum_avail += fin - avail[c];
            avail[c] = fin;
            used[c] += 1;
            tail[d + 1] = tail_lb;
            d += 1;
            cursor[d] = if self.twin[d] { c } else { 0 };
        };
        Found {
            improved,
            expanded,
            pruned,
            proven,
        }
    }
}

/// Kahn's algorithm popping the highest-rank ready task first.
fn topo_by_rank(idx: &TaskGraphIndex, ranks: &[f64]) -> Vec<usize> {
    let mut indeg: Vec<usize> = (0..idx.len()).map(|t| idx.indegree(t)).collect();
    let mut ready: Vec<usize> = (0..idx.len()).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(idx.len());
    while !ready.is_empty() {
        ready.sort_by(|&a, &b| ranks[b].partial_cmp(&ranks[a]).unwrap().then(a.cmp(&b)));
        let t = ready.remove(0);
        order.push(t);
        for &(s, _) in idx.succs(t) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

impl Scheduler for BranchAndBound {
    fn schedule(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
        self.schedule_counted(g, ctx).schedule
    }

    fn name(&self) -> &'static str {
        "bnb-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_task_graph, RandomGraphParams};
    use crate::test_graphs::{diamond, fork_join};
    use crate::{evaluate_assignment, sequential_schedule, CommModel};
    use argo_adl::Platform;

    #[test]
    fn produces_valid_schedules() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(5, 77)] {
            let s = BranchAndBound::new().schedule(&g, &ctx);
            s.validate(&g, &ctx).unwrap();
        }
    }

    #[test]
    fn never_worse_than_list() {
        let p = Platform::xentium_manycore(3);
        let ctx = SchedCtx::new(&p);
        for g in [diamond(), fork_join(6, 200), fork_join(4, 13)] {
            let exact = BranchAndBound::new().schedule(&g, &ctx);
            let heur = ListScheduler::new().schedule(&g, &ctx);
            assert!(
                exact.makespan() <= heur.makespan(),
                "exact {} vs list {}",
                exact.makespan(),
                heur.makespan()
            );
        }
    }

    #[test]
    fn optimal_on_independent_tasks() {
        // 4 independent unit tasks on 2 cores: optimum = 2 per core.
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::with_comm(&p, CommModel::Free);
        let g = TaskGraph {
            cost: vec![10, 10, 10, 10],
            edges: vec![],
            names: (0..4).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        let out = BranchAndBound::new().schedule_counted(&g, &ctx);
        assert_eq!(out.schedule.makespan(), 20);
        assert!(out.proven_optimal);
    }

    #[test]
    fn optimal_on_asymmetric_loads() {
        // Costs 7,5,4,4,3 on 2 cores; total 23, optimum = 12 (7+5 | 4+4+3).
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::with_comm(&p, CommModel::Free);
        let g = TaskGraph {
            cost: vec![7, 5, 4, 4, 3],
            edges: vec![],
            names: (0..5).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        let out = BranchAndBound::new().schedule_counted(&g, &ctx);
        assert_eq!(out.schedule.makespan(), 12);
        assert!(out.proven_optimal);
    }

    #[test]
    fn beats_list_down_to_the_work_bound() {
        // Costs 3,3,2,2,2 on 2 cores: greedy earliest-finish puts the
        // two 3s on separate cores and ends at 7; the optimum 3+3 | 2+2+2
        // meets the work bound 12 / 2 exactly, one below the seed.
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::with_comm(&p, CommModel::Free);
        let g = TaskGraph {
            cost: vec![3, 3, 2, 2, 2],
            edges: vec![],
            names: (0..5).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        assert_eq!(ListScheduler::new().schedule(&g, &ctx).makespan(), 7);
        let out = BranchAndBound::new().schedule_counted(&g, &ctx);
        assert_eq!(out.schedule.makespan(), 6);
        assert!(out.proven_optimal);
    }

    #[test]
    fn respects_critical_path_bound() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::with_comm(&p, CommModel::Free);
        let g = diamond();
        let s = BranchAndBound::new().schedule(&g, &ctx);
        assert!(s.makespan() >= g.critical_path());
        assert!(s.makespan() <= sequential_schedule(&g, &ctx).makespan());
    }

    #[test]
    fn budget_exhaustion_still_returns_valid_schedule() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let g = fork_join(10, 50);
        let out = BranchAndBound { node_budget: 10 }.schedule_counted(&g, &ctx);
        out.schedule.validate(&g, &ctx).unwrap();
        assert!(!out.proven_optimal);
        assert_eq!(out.expanded, 11);
    }

    #[test]
    fn empty_graph() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let out = BranchAndBound::new().schedule_counted(&TaskGraph::default(), &ctx);
        assert_eq!(out.schedule.makespan(), 0);
        assert_eq!(out.expanded, 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn core_classes_follow_the_comm_costs() {
        let g = diamond();
        let bus = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&bus);
        let table = CommTable::new(&g, &ctx);
        let model = Model::new(&g, &g.index(), &ctx, &table);
        assert_eq!(model.prev_in_class, [None, Some(0), Some(1), Some(2)]);
        // Under signal-only comm a 2×4 mesh prices a core by its hop
        // distance from the shared memory at tile (0, 0).
        let noc = Platform::kit_tile_noc(2, 4);
        let ctx = SchedCtx::with_comm(&noc, CommModel::SignalOnly);
        let table = CommTable::new(&g, &ctx);
        let model = Model::new(&g, &g.index(), &ctx, &table);
        assert_eq!(
            model.prev_in_class,
            [None, None, None, None, Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn twins_are_adjacent_equal_tasks() {
        let p = Platform::xentium_manycore(2);
        let g = fork_join(3, 77);
        let ctx = SchedCtx::new(&p);
        let table = CommTable::new(&g, &ctx);
        let model = Model::new(&g, &g.index(), &ctx, &table);
        // Source, the three middle tasks, sink.
        assert_eq!(model.twin, [false, false, true, true, false]);
    }

    /// Makespan of `core` (per task) in the search model: tasks in
    /// `order`, each appended to the end of its core.
    fn model_makespan(
        g: &TaskGraph,
        idx: &TaskGraphIndex,
        ctx: &SchedCtx<'_>,
        order: &[usize],
        core: &[CoreId],
    ) -> u64 {
        let mut finish = vec![0u64; g.len()];
        let mut avail = vec![0u64; ctx.cores()];
        for &t in order {
            let c = core[t];
            let mut est = avail[c.0];
            for &(p, bytes) in idx.preds(t) {
                let comm = if core[p] == c {
                    0
                } else {
                    ctx.comm_cost(core[p], c, bytes)
                };
                est = est.max(finish[p] + comm);
            }
            finish[t] = est + g.cost[t];
            avail[c.0] = finish[t];
        }
        finish.into_iter().max().unwrap_or(0)
    }

    /// The lexicographically first assignment (cores listed in search
    /// order) of least search-model makespan, by trying every one.
    fn brute_force(
        g: &TaskGraph,
        idx: &TaskGraphIndex,
        ctx: &SchedCtx<'_>,
        order: &[usize],
    ) -> (u64, Vec<CoreId>) {
        struct Walk<'a> {
            g: &'a TaskGraph,
            idx: &'a TaskGraphIndex,
            ctx: &'a SchedCtx<'a>,
            order: &'a [usize],
            core: Vec<CoreId>,
            finish: Vec<u64>,
            avail: Vec<u64>,
            best: (u64, Vec<CoreId>),
        }
        fn walk(w: &mut Walk<'_>, d: usize, makespan: u64) {
            let Some(&t) = w.order.get(d) else {
                if makespan < w.best.0 {
                    w.best = (makespan, w.core.clone());
                }
                return;
            };
            for c in (0..w.ctx.cores()).map(CoreId) {
                let mut est = w.avail[c.0];
                for &(p, bytes) in w.idx.preds(t) {
                    let comm = if w.core[p] == c {
                        0
                    } else {
                        w.ctx.comm_cost(w.core[p], c, bytes)
                    };
                    est = est.max(w.finish[p] + comm);
                }
                let saved = w.avail[c.0];
                w.core[t] = c;
                w.finish[t] = est + w.g.cost[t];
                w.avail[c.0] = w.finish[t];
                walk(w, d + 1, makespan.max(w.finish[t]));
                w.avail[c.0] = saved;
            }
        }
        let mut w = Walk {
            g,
            idx,
            ctx,
            order,
            core: vec![CoreId(0); g.len()],
            finish: vec![0; g.len()],
            avail: vec![0; ctx.cores()],
            best: (u64::MAX, Vec::new()),
        };
        walk(&mut w, 0, 0);
        w.best
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let platforms = [
            Platform::xentium_manycore(2),
            Platform::xentium_manycore(3),
            Platform::xentium_manycore(4),
            Platform::kit_tile_noc(2, 2),
        ];
        // Wide layered graphs, where the list schedule is often beaten:
        // random costs and volumes, then near-uniform ones with dense
        // layers, where twins and equal finish times are common.
        let families = [
            RandomGraphParams {
                layers: 2,
                ..Default::default()
            },
            RandomGraphParams {
                layers: 3,
                ..Default::default()
            },
            RandomGraphParams {
                layers: 2,
                edge_prob: 0.9,
                cost_range: (10, 11),
                bytes_range: (8, 8),
                ..Default::default()
            },
            RandomGraphParams {
                layers: 3,
                edge_prob: 0.9,
                cost_range: (10, 11),
                bytes_range: (8, 8),
                ..Default::default()
            },
        ];
        let comms = [
            CommModel::Free,
            CommModel::SignalOnly,
            CommModel::PlatformWorstCase,
        ];
        for platform in &platforms {
            for comm in comms {
                let ctx = SchedCtx::with_comm(platform, comm);
                for (seed, (tasks, family)) in
                    (3..=8).flat_map(|n| families.map(|f| (n, f))).enumerate()
                {
                    let g = random_task_graph(seed as u64, &RandomGraphParams { tasks, ..family });
                    let idx = g.index();
                    let list = ListScheduler::new().schedule(&g, &ctx);
                    let table = CommTable::new(&g, &ctx);
                    let model = Model::new(&g, &idx, &ctx, &table);
                    let (bf_ms, bf) = brute_force(&g, &idx, &ctx, &model.order);
                    let case = format!("{} {comm:?} seed {seed}", platform.name);

                    let found = model.search(list.makespan(), u64::MAX);
                    assert!(found.proven, "{case}");
                    let optimum = found.improved.as_ref().map_or(list.makespan(), |a| {
                        model_makespan(&g, &idx, &ctx, &model.order, a)
                    });
                    assert_eq!(optimum, bf_ms.min(list.makespan()), "{case}");
                    let pick = (bf_ms < list.makespan()).then_some(bf);
                    assert_eq!(found.improved, pick, "{case}");

                    let out = BranchAndBound::new().schedule_counted(&g, &ctx);
                    assert!(out.proven_optimal, "{case}");
                    let eval =
                        evaluate_assignment(&g, &ctx, pick.as_deref().unwrap_or(&list.assignment));
                    let expected = if eval.makespan() <= list.makespan() {
                        eval
                    } else {
                        list
                    };
                    assert_eq!(out.schedule, expected, "{case}");
                }
            }
        }
    }
}
