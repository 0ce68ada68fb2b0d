//! System-level WCET analysis.
//!
//! "System-level WCET estimation builds on the parallel program
//! representation to precisely identify resource conflicts. This is
//! achieved through (i) a static analysis that determines as accurately
//! as possible if several code snippets may happen in parallel and (ii) a
//! cost model of the interference derived from the platform abstract
//! models." (paper § II-D)
//!
//! Three may-happen-in-parallel (MHP) precisions are provided, from
//! coarsest to finest:
//!
//! * [`MhpMode::Naive`] — contention-oblivious: every shared access is
//!   charged the all-cores-contend worst case (what a tool without
//!   schedule knowledge must assume — the parMERASA observation \[4\]);
//! * [`MhpMode::Static`] — time-independent precedence reachability over
//!   dependence edges plus same-core ordering; sound regardless of actual
//!   execution times;
//! * [`MhpMode::Windows`] — time-window overlap, iterated to a fixed
//!   point with monotone contender growth (tightest).
//!
//! Inflation model: a task with `A` shared accesses and `k` worst-case
//! contenders pays `A × (wc(k) − wc(1))` extra cycles over its isolated
//! WCET, with `wc(·)` the platform's worst-case shared-access cost.

use argo_adl::{MemSpace, MemoryMap, Platform};
use argo_htg::Htg;
use argo_parir::ParallelProgram;
use argo_sched::{CommModel, Evaluator, SchedCtx, TaskGraph};

/// MHP precision of the system-level analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MhpMode {
    /// All cores contend on every access (no schedule knowledge).
    Naive,
    /// Precedence-based MHP (sound, time-independent).
    Static,
    /// Time-window MHP with fixed-point iteration (tightest).
    Windows,
}

impl MhpMode {
    /// Every mode, from the loosest to the tightest.
    pub const ALL: [MhpMode; 3] = [MhpMode::Naive, MhpMode::Static, MhpMode::Windows];

    /// Stable short label, shared by CLI flags, wire requests and
    /// fingerprints (`Display` gives the longer report names).
    pub fn label(&self) -> &'static str {
        match self {
            MhpMode::Naive => "naive",
            MhpMode::Static => "static",
            MhpMode::Windows => "windows",
        }
    }

    /// Parses a [`MhpMode::label`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted labels.
    pub fn parse(s: &str) -> Result<MhpMode, String> {
        let labels = MhpMode::ALL.map(|m| m.label());
        MhpMode::ALL
            .into_iter()
            .find(|m| m.label() == s)
            .ok_or_else(|| format!("unknown MHP mode `{s}` (expected {})", labels.join("|")))
    }
}

impl std::fmt::Display for MhpMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MhpMode::Naive => "naive",
            MhpMode::Static => "static-mhp",
            MhpMode::Windows => "window-mhp",
        })
    }
}

/// Result of the system-level analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemWcet {
    /// The parallel WCET bound (schedule makespan under inflated costs).
    pub bound: u64,
    /// Per-task isolated WCET (input, echoed for reports).
    pub iso_wcet: Vec<u64>,
    /// Per-task inflated WCET.
    pub task_wcet: Vec<u64>,
    /// Per-task worst-case contender count used for inflation.
    pub contenders: Vec<usize>,
    /// Final per-task start times.
    pub start: Vec<u64>,
    /// Final per-task finish times.
    pub finish: Vec<u64>,
    /// Fixed-point iterations performed.
    pub iterations: u32,
}

/// Per-task worst-case number of *shared-memory* accesses: the HTG
/// tasks' access counts, filtered by the memory map.
pub fn task_shared_accesses(htg: &Htg, graph: &TaskGraph, mem: &MemoryMap) -> Vec<u64> {
    graph
        .htg_ids
        .iter()
        .map(|&tid| {
            htg.task(tid)
                .access_counts
                .iter()
                .filter(|(v, _)| mem.space_of(v) == MemSpace::Shared)
                .map(|(_, &n)| n)
                .sum()
        })
        .collect()
}

/// Runs the system-level analysis on a parallel program.
///
/// `iso_wcet[t]` must be the isolated code-level WCET of task `t` (what
/// [`crate::cost::CostCtx`] prices: one contender); `shared_accesses[t]`
/// its worst-case shared-access count (see [`task_shared_accesses`]).
///
/// # Panics
///
/// Panics if the slices' lengths disagree with the task graph.
pub fn analyze(
    pp: &ParallelProgram,
    platform: &Platform,
    iso_wcet: &[u64],
    shared_accesses: &[u64],
    mode: MhpMode,
) -> SystemWcet {
    let n = pp.graph.len();
    assert_eq!(iso_wcet.len(), n, "iso_wcet length");
    assert_eq!(shared_accesses.len(), n, "shared_accesses length");
    let ctx = SchedCtx::with_comm(platform, CommModel::SignalOnly);

    let delta = |t: usize, k: usize| -> u64 {
        let core = pp.schedule.assignment[t];
        let wc_k = platform.worst_case_shared_access(core, k);
        let wc_1 = platform.worst_case_shared_access(core, 1);
        shared_accesses[t].saturating_mul(wc_k.saturating_sub(wc_1))
    };

    let inflate = |contenders: &[usize]| -> Vec<u64> {
        (0..n)
            .map(|t| iso_wcet[t].saturating_add(delta(t, contenders[t])))
            .collect()
    };

    // One evaluator per analysis: every round re-schedules the same
    // graph and assignment, only the inflated costs change.
    let mut evaluator = Evaluator::new(&pp.graph, &pp.graph.index(), &ctx);
    let mut evaluate = |costs: &[u64]| {
        evaluator.set_costs(costs);
        evaluator.schedule(&pp.schedule.assignment)
    };

    match mode {
        MhpMode::Naive => {
            let contenders = vec![platform.core_count(); n];
            let task_wcet = inflate(&contenders);
            let s = evaluate(&task_wcet);
            SystemWcet {
                bound: s.makespan(),
                iso_wcet: iso_wcet.to_vec(),
                task_wcet,
                contenders,
                start: s.start,
                finish: s.finish,
                iterations: 1,
            }
        }
        MhpMode::Static => {
            let mhp = static_mhp(pp);
            let contenders = contenders_from_mhp_sets(pp, shared_accesses, &mhp);
            let task_wcet = inflate(&contenders);
            let s = evaluate(&task_wcet);
            SystemWcet {
                bound: s.makespan(),
                iso_wcet: iso_wcet.to_vec(),
                task_wcet,
                contenders,
                start: s.start,
                finish: s.finish,
                iterations: 1,
            }
        }
        MhpMode::Windows => {
            // Start from isolated costs; grow contender sets monotonically
            // from window overlaps until a fixed point.
            let mut contenders = vec![1usize; n];
            let mut sched = evaluate(iso_wcet);
            let mut iterations = 0;
            loop {
                iterations += 1;
                let mut changed = false;
                let window_mhp = windows_mhp(pp, &sched.start, &sched.finish);
                let next = contenders_from_mhp_sets(pp, shared_accesses, &window_mhp);
                for t in 0..n {
                    if next[t] > contenders[t] {
                        contenders[t] = next[t];
                        changed = true;
                    }
                }
                let task_wcet = inflate(&contenders);
                sched = evaluate(&task_wcet);
                if !changed || iterations >= 10 {
                    return SystemWcet {
                        bound: sched.makespan(),
                        iso_wcet: iso_wcet.to_vec(),
                        task_wcet,
                        contenders,
                        start: sched.start,
                        finish: sched.finish,
                        iterations,
                    };
                }
            }
        }
    }
}

/// Precedence-based MHP: `mhp[a][b]` iff neither task reaches the other
/// through dependence edges or same-core schedule order.
fn static_mhp(pp: &ParallelProgram) -> Vec<Vec<bool>> {
    let n = pp.graph.len();
    let mut reach = vec![vec![false; n]; n];
    for &(f, t, _) in &pp.graph.edges {
        reach[f][t] = true;
    }
    // Same-core order is also a precedence.
    for core in 0..pp.plans.len() {
        let tasks = pp.schedule.tasks_on(argo_adl::CoreId(core));
        for w in tasks.windows(2) {
            reach[w[0]][w[1]] = true;
        }
    }
    // Transitive closure (n ≤ a few hundred).
    for k in 0..n {
        // Snapshot of row k: writes to row i==k are no-ops against it.
        let row_k = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (dst, &via_k) in row.iter_mut().zip(&row_k) {
                    *dst |= via_k;
                }
            }
        }
    }
    let mut mhp = vec![vec![false; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a != b && !reach[a][b] && !reach[b][a] {
                mhp[a][b] = true;
            }
        }
    }
    mhp
}

fn windows_mhp(pp: &ParallelProgram, start: &[u64], finish: &[u64]) -> Vec<Vec<bool>> {
    let n = pp.graph.len();
    let mut mhp = vec![vec![false; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b || pp.schedule.assignment[a] == pp.schedule.assignment[b] {
                continue;
            }
            let overlap = start[a] < finish[b] && start[b] < finish[a];
            if overlap {
                mhp[a][b] = true;
            }
        }
    }
    mhp
}

fn contenders_from_mhp_sets(
    pp: &ParallelProgram,
    shared_accesses: &[u64],
    mhp: &[Vec<bool>],
) -> Vec<usize> {
    let n = pp.graph.len();
    (0..n)
        .map(|t| {
            let mut cores: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            for u in 0..n {
                if mhp[t][u]
                    && shared_accesses[u] > 0
                    && pp.schedule.assignment[u] != pp.schedule.assignment[t]
                {
                    cores.insert(pp.schedule.assignment[u].0);
                }
            }
            1 + cores.len()
        })
        .collect()
}

/// The parMERASA-style bound for a *manually* parallelized fork-join
/// version of the same task graph (paper § III-C and ref \[4\]): no
/// schedule knowledge (all cores contend on every access) and a global
/// barrier after every precedence level, each barrier costing a full
/// all-core flag exchange through shared memory.
pub fn manual_fork_join_bound(
    graph: &TaskGraph,
    platform: &Platform,
    iso_wcet: &[u64],
    shared_accesses: &[u64],
) -> u64 {
    let n = graph.len();
    assert_eq!(iso_wcet.len(), n);
    assert_eq!(shared_accesses.len(), n);
    let cores = platform.core_count();
    let wc_all = platform.worst_case_shared_access(argo_adl::CoreId(0), cores);
    let wc_1 = platform.worst_case_shared_access(argo_adl::CoreId(0), 1);
    // Level = longest edge-path depth (one index build serves both the
    // topological order and the predecessor lists).
    let idx = graph.index();
    let mut level = vec![0usize; n];
    let mut max_level = 0;
    for &t in idx.topo_order() {
        let l = idx
            .preds(t)
            .iter()
            .map(|&(p, _)| level[p] + 1)
            .max()
            .unwrap_or(0);
        level[t] = l;
        max_level = max_level.max(l);
    }
    // Per level: tasks are spread over cores; the level takes at least
    // ceil(work / cores) but at most the max task; use a list bound:
    // max task + (sum - max)/cores, all with naive inflation.
    let barrier = 2 * cores as u64 * wc_all;
    let mut total = 0u64;
    for l in 0..=max_level {
        let tasks: Vec<usize> = (0..n).filter(|&t| level[t] == l).collect();
        if tasks.is_empty() {
            continue;
        }
        let inflated: Vec<u64> = tasks
            .iter()
            .map(|&t| iso_wcet[t] + shared_accesses[t].saturating_mul(wc_all.saturating_sub(wc_1)))
            .collect();
        let max = inflated.iter().copied().max().unwrap_or(0);
        let sum: u64 = inflated.iter().sum();
        let level_time = max.max(sum.div_ceil(cores as u64).max(max));
        total += level_time + barrier;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_htg::{extract::extract, Granularity};
    use argo_ir::parse::parse_program;
    use argo_ir::resolve::Resolution;
    use argo_sched::list::ListScheduler;
    use argo_sched::Scheduler;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Two independent loops + a join loop, on 2 cores.
    fn fixture() -> (ParallelProgram, Platform, Vec<u64>, Vec<u64>) {
        let src = r#"
            void main(real a[64], real b[64], real c[64], real d[64]) {
                int i;
                for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }
                for (i = 0; i < 64; i = i + 1) { c[i] = a[i] + 1.0; }
                for (i = 0; i < 64; i = i + 1) { d[i] = b[i] + c[i]; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<_, _> = htg.top_level.iter().map(|&t| (t, 5000u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = Platform::xentium_manycore(4);
        let ctx = SchedCtx::with_comm(&platform, CommModel::SignalOnly);
        let schedule = ListScheduler::new().schedule(&graph, &ctx);
        let mem =
            argo_parir::mem_assign::assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        let (program, htg) = (Arc::new(program), Arc::new(htg));
        let resolution = Arc::new(Resolution::of(&program));
        let pp = ParallelProgram::build(program, resolution, htg, graph, schedule, mem, &platform)
            .unwrap();
        let iso: Vec<u64> = pp.graph.cost.clone();
        let acc = task_shared_accesses(&pp.htg, &pp.graph, &pp.memory_map);
        (pp, platform, iso, acc)
    }

    #[test]
    fn naive_dominates_static_dominates_windows() {
        let (pp, platform, iso, acc) = fixture();
        let naive = analyze(&pp, &platform, &iso, &acc, MhpMode::Naive);
        let stat = analyze(&pp, &platform, &iso, &acc, MhpMode::Static);
        let win = analyze(&pp, &platform, &iso, &acc, MhpMode::Windows);
        assert!(
            naive.bound >= stat.bound,
            "naive {} < static {}",
            naive.bound,
            stat.bound
        );
        assert!(
            stat.bound >= win.bound,
            "static {} < windows {}",
            stat.bound,
            win.bound
        );
    }

    #[test]
    fn bounds_never_undercut_isolated_schedule() {
        let (pp, platform, iso, acc) = fixture();
        let base = pp.schedule.makespan();
        for mode in MhpMode::ALL {
            let r = analyze(&pp, &platform, &iso, &acc, mode);
            assert!(r.bound >= base.min(r.bound), "mode {mode}");
            // Inflated task WCETs dominate isolated ones.
            for (inflated, isolated) in r.task_wcet.iter().zip(&iso) {
                assert!(inflated >= isolated);
            }
        }
    }

    #[test]
    fn contenders_bounded_by_core_count() {
        let (pp, platform, iso, acc) = fixture();
        for mode in MhpMode::ALL {
            let r = analyze(&pp, &platform, &iso, &acc, mode);
            for &k in &r.contenders {
                assert!(k >= 1 && k <= platform.core_count());
            }
        }
    }

    #[test]
    fn single_core_schedule_has_no_inflation_under_static_mhp() {
        let src = r#"
            void main(real a[32], real b[32]) {
                int i;
                for (i = 0; i < 32; i = i + 1) { b[i] = a[i] * 2.0; }
                for (i = 0; i < 32; i = i + 1) { a[i] = b[i] + 1.0; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<_, _> = htg.top_level.iter().map(|&t| (t, 100u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = Platform::xentium_manycore(1);
        let ctx = SchedCtx::new(&platform);
        let schedule = ListScheduler::new().schedule(&graph, &ctx);
        let iso = graph.cost.clone();
        let acc_src = task_shared_accesses(&htg, &graph, &MemoryMap::new());
        let mem =
            argo_parir::mem_assign::assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        let (program, htg) = (Arc::new(program), Arc::new(htg));
        let resolution = Arc::new(Resolution::of(&program));
        let pp = ParallelProgram::build(program, resolution, htg, graph, schedule, mem, &platform)
            .unwrap();
        let r = analyze(&pp, &platform, &iso, &acc_src, MhpMode::Static);
        assert_eq!(
            r.task_wcet, r.iso_wcet,
            "nothing runs in parallel on 1 core"
        );
    }

    #[test]
    fn shared_accesses_filter_by_memory_map() {
        let (_pp, _platform, _iso, acc) = fixture();
        // The fixture's arrays are multi-core → Shared → counted.
        assert!(acc.iter().any(|&a| a > 0));
    }

    #[test]
    fn manual_fork_join_is_more_pessimistic_than_argo() {
        let (pp, platform, iso, acc) = fixture();
        let manual = manual_fork_join_bound(&pp.graph, &platform, &iso, &acc);
        let argo = analyze(&pp, &platform, &iso, &acc, MhpMode::Windows);
        assert!(
            manual > argo.bound,
            "manual {} should exceed ARGO {}",
            manual,
            argo.bound
        );
    }

    #[test]
    fn window_iteration_terminates() {
        let (pp, platform, iso, acc) = fixture();
        let r = analyze(&pp, &platform, &iso, &acc, MhpMode::Windows);
        assert!(r.iterations <= 10);
    }
}
