//! # argo-sched — WCET-aware static scheduling and mapping
//!
//! "Parallelizing a real-time application on a multi-core involves a static
//! scheduling and mapping stage. Such a problem is known to be a
//! challenging (NP-hard) combinatorial optimization problem … we envision
//! an approach using a combination of exact techniques and advanced
//! heuristics." (paper § III-C)
//!
//! This crate provides exactly that combination:
//!
//! * [`list::ListScheduler`] — a HEFT-style upward-rank list scheduler
//!   (polynomial, scales to thousands of tasks);
//! * [`bnb::BranchAndBound`] — an exact depth-first branch-and-bound
//!   solver with core-class and twin-task symmetry breaking and a
//!   bottom-level/work lower bound; it reports whether it proved its
//!   schedule optimal within the node budget (dozens of tasks);
//! * [`anneal::SimulatedAnnealing`] — a metaheuristic that refines the
//!   list schedule.
//!
//! All schedulers consume a flattened [`TaskGraph`] (derived from the
//! top level of an HTG plus per-task WCETs) through its precomputed
//! [`TaskGraphIndex`] (CSR adjacency + cached topological order, built
//! once per graph instead of once per call) and produce a [`Schedule`]
//! whose makespan *is* the parallel WCET estimate before system-level
//! interference inflation. Because the schedule is fully static, "at any
//! point in time, all shared resource contenders are known" (§ II) — the
//! property the system-level WCET analysis exploits.
//!
//! One kernel, [`Evaluator`], turns a fixed task→core assignment into a
//! schedule: the annealer's proposals, branch-and-bound's final
//! re-evaluation, the system-level WCET rounds and the one-shot
//! [`evaluate_assignment`] all run through it. It rests on two facts.
//! The dispatch order — Kahn's algorithm popping the smallest ready
//! task index — is fixed by the graph and never by the assignment, so
//! it is computed once. An edge's communication cost depends only on
//! its volume and its two cores, so a comm table holds, per distinct
//! edge volume, the [`SchedCtx::comm_cost`] of every ordered pair of
//! cores, zero on the diagonal. An evaluation is then one pass over the
//! order with table lookups; the makespan of an assignment allocates
//! nothing.

pub mod anneal;
pub mod bnb;
pub mod list;
pub mod random;

use argo_adl::{CoreId, Platform};
use argo_htg::{Htg, TaskId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A flattened task DAG: the scheduling view of one HTG hierarchy level.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    /// Per-task WCET in cycles (code-level, isolation).
    pub cost: Vec<u64>,
    /// Directed edges `(from, to, bytes)`. The graph must be acyclic.
    pub edges: Vec<(usize, usize, u64)>,
    /// Human-readable task names (same length as `cost`).
    pub names: Vec<String>,
    /// Original HTG task ids (empty when the graph is synthetic).
    pub htg_ids: Vec<TaskId>,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.cost.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.cost.is_empty()
    }

    /// Builds the scheduling view of the top level of an HTG.
    ///
    /// `costs` maps every top-level HTG task to its code-level WCET.
    /// Callers that re-cost the same HTG repeatedly (the backend's
    /// feedback loop) should build one [`TaskGraph::skeleton_from_htg`]
    /// and call [`TaskGraph::set_costs`] per round instead — the
    /// skeleton (names, ids, edges) never changes between rounds.
    ///
    /// # Panics
    ///
    /// Panics if a top-level task has no cost entry.
    pub fn from_htg(htg: &Htg, costs: &BTreeMap<TaskId, u64>) -> TaskGraph {
        let mut g = TaskGraph::skeleton_from_htg(htg);
        g.set_costs(costs);
        g
    }

    /// Builds the cost-free scheduling skeleton of an HTG's top level:
    /// names, HTG ids and edges, with every cost zero. The edge
    /// endpoints are mapped through a dense `TaskId`-indexed table
    /// rather than a per-call `BTreeMap`, and task names are cloned
    /// exactly once per skeleton.
    pub fn skeleton_from_htg(htg: &Htg) -> TaskGraph {
        // Dense TaskId → task-graph index map (TaskIds index htg.tasks).
        let mut idx_of = vec![u32::MAX; htg.tasks.len()];
        let mut g = TaskGraph::default();
        g.cost.resize(htg.top_level.len(), 0);
        g.names.reserve(htg.top_level.len());
        g.htg_ids.reserve(htg.top_level.len());
        for (i, &t) in htg.top_level.iter().enumerate() {
            idx_of[t.0] = i as u32;
            g.names.push(htg.task(t).name.clone());
            g.htg_ids.push(t);
        }
        for e in &htg.edges {
            let (f, t) = (idx_of[e.from.0], idx_of[e.to.0]);
            if f != u32::MAX && t != u32::MAX {
                g.edges.push((f as usize, t as usize, e.bytes));
            }
        }
        g
    }

    /// Overwrites the per-task costs from an HTG cost table, in place.
    ///
    /// # Panics
    ///
    /// Panics if a task has no cost entry.
    pub fn set_costs(&mut self, costs: &BTreeMap<TaskId, u64>) {
        for (slot, tid) in self.cost.iter_mut().zip(&self.htg_ids) {
            *slot = costs[tid];
        }
    }

    /// A topological order of the tasks.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn topo_order(&self) -> Vec<usize> {
        self.index().topo_order().to_vec()
    }

    /// Builds the precomputed adjacency index (CSR predecessor and
    /// successor lists, indegrees and a cached topological order) that
    /// the schedulers and the assignment evaluator consume.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn index(&self) -> TaskGraphIndex {
        TaskGraphIndex::new(self)
    }

    /// Length of the critical path ignoring communication — a lower bound
    /// on any schedule's makespan.
    pub fn critical_path(&self) -> u64 {
        let idx = self.index();
        let mut dist = vec![0u64; self.len()];
        let mut best = 0;
        for &t in idx.topo_order() {
            let in_max = idx
                .preds(t)
                .iter()
                .map(|&(p, _)| dist[p])
                .max()
                .unwrap_or(0);
            dist[t] = in_max + self.cost[t];
            best = best.max(dist[t]);
        }
        best
    }

    /// Sum of all task costs — the single-core makespan.
    pub fn total_work(&self) -> u64 {
        self.cost.iter().sum()
    }
}

/// Precomputed adjacency index of a [`TaskGraph`]: CSR predecessor and
/// successor lists, initial indegrees and a cached topological order.
///
/// Built once per graph and shared by the schedulers and
/// [`Evaluator::new`], so their inner loops (the annealer's runs once
/// per *proposal*) allocate no adjacency.
#[derive(Debug, Clone)]
pub struct TaskGraphIndex {
    pred_off: Vec<u32>,
    pred_adj: Vec<(usize, u64)>,
    succ_off: Vec<u32>,
    succ_adj: Vec<(usize, u64)>,
    indeg: Vec<u32>,
    topo: Vec<usize>,
}

impl TaskGraphIndex {
    /// Builds the index for `g`.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn new(g: &TaskGraph) -> TaskGraphIndex {
        let n = g.len();
        let mut pred_off = vec![0u32; n + 1];
        let mut succ_off = vec![0u32; n + 1];
        for &(f, t, _) in &g.edges {
            pred_off[t + 1] += 1;
            succ_off[f + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
            succ_off[i + 1] += succ_off[i];
        }
        let mut pred_adj = vec![(0usize, 0u64); g.edges.len()];
        let mut succ_adj = vec![(0usize, 0u64); g.edges.len()];
        let mut pred_cur: Vec<u32> = pred_off[..n].to_vec();
        let mut succ_cur: Vec<u32> = succ_off[..n].to_vec();
        for &(f, t, b) in &g.edges {
            pred_adj[pred_cur[t] as usize] = (f, b);
            pred_cur[t] += 1;
            succ_adj[succ_cur[f] as usize] = (t, b);
            succ_cur[f] += 1;
        }
        let indeg: Vec<u32> = (0..n).map(|i| pred_off[i + 1] - pred_off[i]).collect();
        // Cached topological order (identical pop discipline to the
        // historical `TaskGraph::topo_order`).
        let mut remaining = indeg.clone();
        let mut queue: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(t) = queue.pop() {
            topo.push(t);
            let lo = succ_off[t] as usize;
            let hi = succ_off[t + 1] as usize;
            for &(s, _) in &succ_adj[lo..hi] {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(topo.len(), n, "task graph contains a cycle");
        TaskGraphIndex {
            pred_off,
            pred_adj,
            succ_off,
            succ_adj,
            indeg,
            topo,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.indeg.len()
    }

    /// Returns `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.indeg.is_empty()
    }

    /// Predecessors of `t` as `(pred, bytes)`.
    #[inline]
    pub fn preds(&self, t: usize) -> &[(usize, u64)] {
        &self.pred_adj[self.pred_off[t] as usize..self.pred_off[t + 1] as usize]
    }

    /// Successors of `t` as `(succ, bytes)`.
    #[inline]
    pub fn succs(&self, t: usize) -> &[(usize, u64)] {
        &self.succ_adj[self.succ_off[t] as usize..self.succ_off[t + 1] as usize]
    }

    /// Initial indegree of `t`.
    #[inline]
    pub fn indegree(&self, t: usize) -> usize {
        self.indeg[t] as usize
    }

    /// The cached topological order.
    #[inline]
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }
}

/// Communication-cost model used during scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommModel {
    /// Communication is free (ideal shared memory; useful as an ablation).
    Free,
    /// Worst-case platform communication with all cores as contenders
    /// (conservative but sound before the system-level analysis refines
    /// contender sets). Use for abstract task graphs whose node costs do
    /// NOT already include the data movement.
    PlatformWorstCase,
    /// Only the synchronization handshake is charged (flag write + flag
    /// read through shared memory), independent of the data volume. This
    /// is the correct model when task WCETs were computed from real code
    /// with a memory map: the producer's writes and the consumer's reads
    /// of the shared buffer are already inside the task WCETs, and
    /// charging volume-proportional costs again would double-count.
    SignalOnly,
}

/// Scheduling context: the target platform plus cost-model knobs.
///
/// The constructors price one shared-memory access per core with every
/// core contending, `worst_case_shared_access(c, core_count)`, once,
/// whatever the comm model: [`CommModel::SignalOnly`] reads that table
/// instead of re-running the arbitration bound per query, and it stays
/// right after a later write to `comm`.
#[derive(Debug, Clone)]
pub struct SchedCtx<'a> {
    /// The target platform (core count, comm costs).
    platform: &'a Platform,
    /// Communication model.
    pub comm: CommModel,
    /// Core → its all-contender shared-access price on `platform`.
    shared_access: Vec<u64>,
}

impl<'a> SchedCtx<'a> {
    /// Creates a context with the conservative platform comm model.
    pub fn new(platform: &'a Platform) -> SchedCtx<'a> {
        SchedCtx::with_comm(platform, CommModel::PlatformWorstCase)
    }

    /// Creates a context with the comm model `comm`.
    pub fn with_comm(platform: &'a Platform, comm: CommModel) -> SchedCtx<'a> {
        let k = platform.core_count();
        SchedCtx {
            platform,
            comm,
            shared_access: (0..k)
                .map(|c| platform.worst_case_shared_access(CoreId(c), k))
                .collect(),
        }
    }

    /// Cost of moving `bytes` from `from` to `to`.
    pub fn comm_cost(&self, from: CoreId, to: CoreId, bytes: u64) -> u64 {
        match self.comm {
            CommModel::Free => 0,
            CommModel::PlatformWorstCase => {
                self.platform
                    .worst_case_comm(from, to, bytes, self.platform.core_count())
            }
            CommModel::SignalOnly => self.shared_access[from.0] + self.shared_access[to.0],
        }
    }

    /// Number of cores available.
    pub fn cores(&self) -> usize {
        self.platform.core_count()
    }

    /// Core → its all-contender shared-access price: everything a
    /// [`CommModel::SignalOnly`] context reads of the platform besides
    /// the core count.
    pub fn shared_access(&self) -> &[u64] {
        &self.shared_access
    }
}

/// A static schedule: mapping + start times.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Task → core.
    pub assignment: Vec<CoreId>,
    /// Task → start cycle.
    pub start: Vec<u64>,
    /// Task → finish cycle.
    pub finish: Vec<u64>,
}

impl Schedule {
    /// The schedule makespan (parallel WCET before interference
    /// inflation).
    pub fn makespan(&self) -> u64 {
        self.finish.iter().copied().max().unwrap_or(0)
    }

    /// Tasks assigned to `core`, ordered by start time.
    pub fn tasks_on(&self, core: CoreId) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.assignment.len())
            .filter(|&t| self.assignment[t] == core)
            .collect();
        v.sort_by_key(|&t| (self.start[t], t));
        v
    }

    /// Checks precedence and per-core exclusivity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Result<(), String> {
        if self.assignment.len() != g.len() {
            return Err("assignment length mismatch".into());
        }
        for t in 0..g.len() {
            if self.finish[t] != self.start[t] + g.cost[t] {
                return Err(format!("task {t}: finish != start + cost"));
            }
        }
        for &(f, t, bytes) in &g.edges {
            let comm = if self.assignment[f] == self.assignment[t] {
                0
            } else {
                ctx.comm_cost(self.assignment[f], self.assignment[t], bytes)
            };
            if self.start[t] < self.finish[f] + comm {
                return Err(format!(
                    "precedence violated: task {t} starts at {} but pred {f} \
                     finishes at {} (+{comm} comm)",
                    self.start[t], self.finish[f]
                ));
            }
        }
        for core in 0..ctx.cores() {
            let tasks = self.tasks_on(CoreId(core));
            for w in tasks.windows(2) {
                if self.start[w[1]] < self.finish[w[0]] {
                    return Err(format!("core {core}: tasks {} and {} overlap", w[0], w[1]));
                }
            }
        }
        Ok(())
    }
}

/// Evaluates a fixed task→core `assignment` into a full [`Schedule`]:
/// tasks are dispatched in the graph's dispatch order, each appended to
/// the end of its core as early as its predecessors and their
/// communication allow.
///
/// The kernel relies on the dispatch order being Kahn's algorithm
/// popping the smallest ready task index: it is fixed by the graph, so
/// it is computed once, never per assignment. Communication comes from
/// a comm table holding, for each distinct edge volume, the
/// [`SchedCtx::comm_cost`] of every ordered pair of cores (zero on the
/// diagonal, as same-core edges cost nothing), since an edge's cost
/// depends only on its volume and its two cores.
///
/// A one-shot convenience over [`Evaluator`]; callers evaluating many
/// assignments or cost vectors of one graph should build one evaluator
/// and reuse it.
pub fn evaluate_assignment(g: &TaskGraph, ctx: &SchedCtx<'_>, assignment: &[CoreId]) -> Schedule {
    Evaluator::new(g, &g.index(), ctx).schedule(assignment)
}

/// The communication cost of every distinct edge volume of a graph
/// between every ordered pair of cores, filled once from
/// [`SchedCtx::comm_cost`]: an edge's cost depends only on its volume
/// and its two cores, never on the rest of the assignment.
#[derive(Debug, Clone)]
pub(crate) struct CommTable {
    cores: usize,
    /// The graph's distinct edge volumes, ascending.
    volumes: Vec<u64>,
    /// `cost[offset(bytes) + from * cores + to]`: one `cores × cores`
    /// block per volume, zero on the diagonal, where no communication
    /// is charged.
    pub(crate) cost: Vec<u64>,
}

impl CommTable {
    pub(crate) fn new(g: &TaskGraph, ctx: &SchedCtx<'_>) -> CommTable {
        let cores = ctx.cores();
        let mut volumes: Vec<u64> = g.edges.iter().map(|e| e.2).collect();
        volumes.sort_unstable();
        volumes.dedup();
        let mut cost = vec![0u64; volumes.len() * cores * cores];
        for (v, &bytes) in volumes.iter().enumerate() {
            for from in 0..cores {
                for to in (0..cores).filter(|&to| to != from) {
                    cost[(v * cores + from) * cores + to] =
                        ctx.comm_cost(CoreId(from), CoreId(to), bytes);
                }
            }
        }
        CommTable {
            cores,
            volumes,
            cost,
        }
    }

    /// Offset of the block of `bytes`, which must be an edge volume of
    /// the graph.
    pub(crate) fn offset(&self, bytes: u64) -> usize {
        let v = self
            .volumes
            .binary_search(&bytes)
            .expect("volume of a graph edge");
        v * self.cores * self.cores
    }
}

/// The assignment evaluation kernel (see the [crate docs](crate)):
/// turns task→core assignments of one graph on one [`SchedCtx`] into
/// makespans or full [`Schedule`]s.
///
/// Built once per graph and context, it holds everything that does not
/// depend on the assignment: the dispatch order, the predecessors of
/// each dispatch position, the comm table and the reusable finish-time
/// and core-availability buffers. Building it costs one
/// [`SchedCtx::comm_cost`] call per distinct edge volume and ordered
/// pair of distinct cores (the seed apps' graphs have one to three
/// volumes). [`Evaluator::set_costs`] swaps in new task costs, as the
/// system-level WCET analysis does every round.
#[derive(Debug, Clone)]
pub struct Evaluator {
    cores: usize,
    /// Dispatch position → task.
    order: Vec<usize>,
    /// Task → cost.
    cost: Vec<u64>,
    /// CSR predecessors per dispatch position: `(pred task, comm offset)`.
    pred_off: Vec<usize>,
    preds: Vec<(usize, usize)>,
    /// Shared with branch-and-bound's search model.
    pub(crate) comm: CommTable,
    /// Task → finish time of the last evaluation.
    finish: Vec<u64>,
    /// Core → time it becomes free.
    avail: Vec<u64>,
}

impl Evaluator {
    /// Builds the evaluator of `g` (with its index `idx`) on `ctx`.
    pub fn new(g: &TaskGraph, idx: &TaskGraphIndex, ctx: &SchedCtx<'_>) -> Evaluator {
        let n = g.len();
        let comm = CommTable::new(g, ctx);
        // Kahn's algorithm popping the smallest ready index: the order
        // depends on the graph alone, so every assignment is dispatched
        // alike. (`TaskGraphIndex::topo_order` pops LIFO; it would
        // sequence the tasks of a core differently and move makespans.)
        let mut indeg: Vec<usize> = (0..n).map(|t| idx.indegree(t)).collect();
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&t| indeg[t] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(t)) = ready.pop() {
            order.push(t);
            for &(s, _) in idx.succs(t) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(Reverse(s));
                }
            }
        }
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut preds = Vec::with_capacity(g.edges.len());
        pred_off.push(0);
        for &t in &order {
            preds.extend(idx.preds(t).iter().map(|&(p, b)| (p, comm.offset(b))));
            pred_off.push(preds.len());
        }
        Evaluator {
            cores: ctx.cores(),
            order,
            cost: g.cost.clone(),
            pred_off,
            preds,
            comm,
            finish: vec![0; n],
            avail: vec![0; ctx.cores()],
        }
    }

    /// Replaces the per-task costs (the system-level analysis inflates
    /// them round by round); the graph's shape stays.
    ///
    /// # Panics
    ///
    /// Panics if `cost` does not have one entry per task.
    pub fn set_costs(&mut self, cost: &[u64]) {
        self.cost.copy_from_slice(cost);
    }

    /// The makespan of `assignment`, touching only preallocated buffers.
    pub fn makespan(&mut self, assignment: &[CoreId]) -> u64 {
        let Evaluator {
            cores,
            order,
            cost,
            pred_off,
            preds,
            comm,
            finish,
            avail,
        } = self;
        avail.fill(0);
        let mut makespan = 0;
        for (d, &t) in order.iter().enumerate() {
            let core = assignment[t].0;
            let mut est = avail[core];
            for &(p, off) in &preds[pred_off[d]..pred_off[d + 1]] {
                est = est.max(finish[p] + comm.cost[off + assignment[p].0 * *cores + core]);
            }
            finish[t] = est + cost[t];
            avail[core] = finish[t];
            makespan = makespan.max(finish[t]);
        }
        makespan
    }

    /// The full schedule of `assignment`.
    pub fn schedule(&mut self, assignment: &[CoreId]) -> Schedule {
        self.makespan(assignment);
        Schedule {
            assignment: assignment.to_vec(),
            start: self
                .finish
                .iter()
                .zip(&self.cost)
                .map(|(f, c)| f - c)
                .collect(),
            finish: self.finish.clone(),
        }
    }
}

/// The common scheduler interface.
pub trait Scheduler {
    /// Computes a schedule of `g` on the context platform.
    fn schedule(&self, g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule;

    /// Short identifier for reports.
    fn name(&self) -> &'static str;
}

/// The trivial single-core schedule (baseline for WCET speedup numbers).
pub fn sequential_schedule(g: &TaskGraph, ctx: &SchedCtx<'_>) -> Schedule {
    evaluate_assignment(g, ctx, &vec![CoreId(0); g.len()])
}

#[cfg(test)]
pub(crate) mod test_graphs {
    use super::TaskGraph;

    /// A diamond: 0 → {1, 2} → 3.
    pub fn diamond() -> TaskGraph {
        TaskGraph {
            cost: vec![10, 20, 20, 10],
            edges: vec![(0, 1, 64), (0, 2, 64), (1, 3, 64), (2, 3, 64)],
            names: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            htg_ids: vec![],
        }
    }

    /// A wide fork-join: 0 → {1..=w} → w+1, each middle task `cost`.
    pub fn fork_join(w: usize, cost: u64) -> TaskGraph {
        let n = w + 2;
        let mut g = TaskGraph {
            cost: vec![1; n],
            edges: Vec::new(),
            names: (0..n).map(|i| format!("t{i}")).collect(),
            htg_ids: vec![],
        };
        for i in 1..=w {
            g.cost[i] = cost;
            g.edges.push((0, i, 8));
            g.edges.push((i, w + 1, 8));
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::random::{random_task_graph, RandomGraphParams};
    use super::test_graphs::diamond;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The straightforward ready-set kernel that [`Evaluator`] must
    /// match: it re-sorts the ready list before every dispatch and
    /// prices every cross-core edge through [`SchedCtx::comm_cost`].
    fn reference_evaluate(
        g: &TaskGraph,
        idx: &TaskGraphIndex,
        ctx: &SchedCtx<'_>,
        assignment: &[CoreId],
    ) -> Schedule {
        let mut start = vec![0u64; g.len()];
        let mut finish = vec![0u64; g.len()];
        let mut core_avail = vec![0u64; ctx.cores()];
        let mut indeg: Vec<u32> = (0..g.len()).map(|t| idx.indegree(t) as u32).collect();
        let mut ready: Vec<usize> = (0..g.len()).filter(|&i| indeg[i] == 0).collect();
        while !ready.is_empty() {
            ready.sort_unstable();
            let t = ready.remove(0);
            let core = assignment[t];
            let mut est = core_avail[core.0];
            for &(p, bytes) in idx.preds(t) {
                let comm = if assignment[p] == core {
                    0
                } else {
                    ctx.comm_cost(assignment[p], core, bytes)
                };
                est = est.max(finish[p] + comm);
            }
            start[t] = est;
            finish[t] = est + g.cost[t];
            core_avail[core.0] = finish[t];
            for &(s, _) in idx.succs(t) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        Schedule {
            assignment: assignment.to_vec(),
            start,
            finish,
        }
    }

    /// `g` with its tasks relabelled by a seeded random permutation, so
    /// that edges run from higher to lower indices too (the generator
    /// numbers tasks layer by layer, which makes every dispatch order
    /// the identity).
    fn shuffled(g: &TaskGraph, rng: &mut StdRng) -> TaskGraph {
        let n = g.len();
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let mut out = g.clone();
        for (t, &l) in label.iter().enumerate() {
            out.cost[l] = g.cost[t];
        }
        for e in &mut out.edges {
            *e = (label[e.0], label[e.1], e.2);
        }
        out
    }

    #[test]
    fn evaluator_matches_the_ready_set_reference() {
        let platforms = [
            Platform::xentium_manycore(1),
            Platform::xentium_manycore(2),
            Platform::xentium_manycore(3),
            Platform::xentium_manycore(4),
            Platform::xentium_manycore(8),
            Platform::kit_tile_noc(2, 2),
        ];
        let comms = [
            CommModel::Free,
            CommModel::SignalOnly,
            CommModel::PlatformWorstCase,
        ];
        let mut rng = StdRng::seed_from_u64(15);
        let mut cases = 0;
        for platform in &platforms {
            for comm in comms {
                let ctx = SchedCtx::with_comm(platform, comm);
                let m = ctx.cores();
                for seed in 0..8u64 {
                    let params = RandomGraphParams {
                        tasks: 1 + rng.gen_range(0..24usize),
                        layers: 1 + rng.gen_range(0..5usize),
                        edge_prob: rng.gen_range(0.1..0.9),
                        bytes_range: (8, 64 + rng.gen_range(0..2048u64)),
                        ..Default::default()
                    };
                    let g = shuffled(&random_task_graph(seed, &params), &mut rng);
                    let idx = g.index();
                    // One evaluator across every assignment and cost
                    // update of this graph: no state may leak between
                    // calls.
                    let mut reused = Evaluator::new(&g, &idx, &ctx);
                    for round in 0..8 {
                        let assignment: Vec<CoreId> =
                            (0..g.len()).map(|_| CoreId(rng.gen_range(0..m))).collect();
                        let mut costed = g.clone();
                        if round > 0 {
                            for c in &mut costed.cost {
                                *c += rng.gen_range(0..400u64);
                            }
                        }
                        let case = format!("{} {comm:?} seed {seed} round {round}", platform.name);
                        let reference = reference_evaluate(&costed, &idx, &ctx, &assignment);
                        reused.set_costs(&costed.cost);
                        assert_eq!(reused.makespan(&assignment), reference.makespan(), "{case}");
                        assert_eq!(reused.schedule(&assignment), reference, "{case}");
                        let fresh = Evaluator::new(&costed, &idx, &ctx).schedule(&assignment);
                        assert_eq!(fresh, reference, "{case}");
                        assert_eq!(evaluate_assignment(&costed, &ctx, &assignment), reference);
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 1000, "{cases} cases");
    }

    /// The context's per-core price table gives what the formulas give,
    /// whichever model the context was built with, on presets beyond
    /// the equal-weight WRR ones the goldens reach.
    #[test]
    fn comm_cost_equals_the_direct_formula() {
        use argo_adl::Arbitration;
        let platforms = [
            Platform::xentium_manycore(1),
            Platform::xentium_manycore(2),
            Platform::xentium_manycore(3),
            Platform::xentium_manycore(4),
            Platform::xentium_manycore(8),
            Platform::kit_tile_noc(2, 2),
            Platform::kit_tile_noc(2, 4),
            Platform::generic_bus(
                4,
                Arbitration::Tdma {
                    slot_cycles: 8,
                    total_slots: 4,
                },
            ),
            Platform::generic_bus(
                4,
                Arbitration::FixedPriority {
                    priorities: vec![2, 0, 3, 1],
                },
            ),
            Platform::generic_bus(
                4,
                Arbitration::Wrr {
                    weights: vec![3, 1, 2, 5],
                    slot_cycles: 4,
                },
            ),
        ];
        let comms = [
            CommModel::Free,
            CommModel::PlatformWorstCase,
            CommModel::SignalOnly,
        ];
        for p in &platforms {
            let n = p.core_count();
            for built in comms {
                let mut ctx = SchedCtx::with_comm(p, built);
                for comm in comms {
                    ctx.comm = comm;
                    for (from, to) in (0..n).flat_map(|f| (0..n).map(move |t| (f, t))) {
                        let (from, to) = (CoreId(from), CoreId(to));
                        for bytes in [0, 8, 64, 4096] {
                            let direct = match comm {
                                CommModel::Free => 0,
                                CommModel::PlatformWorstCase => {
                                    p.worst_case_comm(from, to, bytes, n)
                                }
                                CommModel::SignalOnly => {
                                    p.worst_case_shared_access(from, n)
                                        + p.worst_case_shared_access(to, n)
                                }
                            };
                            assert_eq!(
                                ctx.comm_cost(from, to, bytes),
                                direct,
                                "{} built {built:?} queried {comm:?} {from}->{to} {bytes} B",
                                p.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let order = g.topo_order();
        let pos: BTreeMap<usize, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for &(f, t, _) in &g.edges {
            assert!(pos[&f] < pos[&t]);
        }
    }

    #[test]
    fn critical_path_and_total_work() {
        let g = diamond();
        assert_eq!(g.critical_path(), 40);
        assert_eq!(g.total_work(), 60);
    }

    #[test]
    fn sequential_schedule_is_total_work() {
        let p = Platform::xentium_manycore(4);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let s = sequential_schedule(&g, &ctx);
        assert_eq!(s.makespan(), g.total_work());
        s.validate(&g, &ctx).unwrap();
    }

    #[test]
    fn evaluate_assignment_respects_comm() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let a = vec![CoreId(0), CoreId(0), CoreId(1), CoreId(0)];
        let s = evaluate_assignment(&g, &ctx, &a);
        s.validate(&g, &ctx).unwrap();
        let comm = ctx.comm_cost(CoreId(0), CoreId(1), 64);
        assert!(comm > 0);
        assert!(s.start[2] >= s.finish[0] + comm);
    }

    #[test]
    fn free_comm_model_is_cheaper() {
        let p = Platform::xentium_manycore(2);
        let ctx_wc = SchedCtx::new(&p);
        let ctx_free = SchedCtx::with_comm(&p, CommModel::Free);
        let g = diamond();
        let a = vec![CoreId(0), CoreId(0), CoreId(1), CoreId(0)];
        let s_wc = evaluate_assignment(&g, &ctx_wc, &a);
        let s_free = evaluate_assignment(&g, &ctx_free, &a);
        assert!(s_free.makespan() <= s_wc.makespan());
    }

    #[test]
    fn validate_catches_overlap() {
        let p = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&p);
        let g = diamond();
        let mut s = sequential_schedule(&g, &ctx);
        s.start[1] = s.start[0];
        s.finish[1] = s.start[1] + g.cost[1];
        assert!(s.validate(&g, &ctx).is_err());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_graph_panics() {
        let g = TaskGraph {
            cost: vec![1, 1],
            edges: vec![(0, 1, 0), (1, 0, 0)],
            names: vec!["x".into(), "y".into()],
            htg_ids: vec![],
        };
        g.topo_order();
    }
}
