//! May-happen-in-parallel data-race detection.
//!
//! Re-derives, independently of the extractor and the scheduler, which
//! task pairs of the final [`TaskGraph`] may overlap in time — under
//! the same three MHP notions the system-level WCET analysis uses —
//! and reports every unordered pair with conflicting accesses to a
//! common variable:
//!
//! * [`MhpMode::Naive`] — dependence-edge reachability only (no
//!   schedule knowledge): two tasks are ordered iff the task graph
//!   orders them transitively. This checks the *extractor's* claim
//!   that its edges cover every conflict, for any schedule.
//! * [`MhpMode::Static`] — edge reachability plus same-core execution
//!   order from the concrete schedule, closed transitively (the exact
//!   relation `argo_wcet::system` builds). This checks the pair
//!   (extractor, scheduler).
//! * [`MhpMode::Windows`] — time-window overlap of the
//!   interference-inflated start/finish times the analysis published:
//!   different-core tasks whose windows overlap may run in parallel.
//!
//! Conflicts are computed from the HTG's transitive read/write sets
//! (whole subtree), minus the variables the parallel model privatized
//! per core. Array conflicts are refined with
//! [`argo_htg::deps::array_access_range`]: a pair only races on an
//! array if some written index range may intersect the other task's
//! read or written range ([`argo_htg::deps::AccessRange::disjoint`]
//! proves the complement). Scalars keep whole-cell treatment.

use crate::{Finding, Severity};
use argo_core::{BackendResult, Diagnostic, ErrorCode, Stage};
use argo_htg::deps::array_access_range;
use argo_ir::ast::{Stmt, StmtId};
use argo_ir::validate::symbol_table;
use argo_sched::TaskGraph;
use argo_wcet::system::MhpMode;
use std::collections::BTreeMap;

/// Pairwise may-happen-in-parallel relation over the `n` tasks of a
/// flat task graph (symmetric, irreflexive).
fn mhp_matrix(result: &BackendResult, mode: MhpMode) -> Vec<Vec<bool>> {
    let pp = &result.parallel;
    let n = pp.graph.len();
    let mut reach = vec![vec![false; n]; n];
    for &(f, t, _) in &pp.graph.edges {
        reach[f][t] = true;
    }
    if mode != MhpMode::Naive {
        // Same-core execution order is also a happens-before source.
        for core in 0..pp.plans.len() {
            let on_core = pp.schedule.tasks_on(argo_adl::CoreId(core));
            for w in on_core.windows(2) {
                reach[w[0]][w[1]] = true;
            }
        }
    }
    // Transitive closure (Floyd–Warshall over the boolean matrix).
    for k in 0..n {
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
            mhp[a][b] = a != b && !reach[a][b] && !reach[b][a];
        }
    }
    if mode == MhpMode::Windows {
        // Tighten further: the analysis claims tasks only overlap when
        // their published (inflated) time windows do and they sit on
        // different cores.
        let (start, finish) = (&result.system.start, &result.system.finish);
        for a in 0..n {
            for b in 0..n {
                if pp.schedule.assignment[a] == pp.schedule.assignment[b] {
                    mhp[a][b] = false;
                } else {
                    mhp[a][b] &= start[a] < finish[b] && start[b] < finish[a];
                }
            }
        }
    }
    mhp
}

/// The conflict kinds a pair of tasks can exhibit on one variable.
fn conflict_kinds(
    stmts_a: &[&Stmt],
    stmts_b: &[&Stmt],
    var: &str,
    is_array: bool,
) -> Vec<&'static str> {
    if !is_array {
        // Scalars are single cells; the set intersection already
        // proved the conflict.
        return vec!["scalar"];
    }
    let wa = array_access_range(stmts_a, var, true);
    let ra = array_access_range(stmts_a, var, false);
    let wb = array_access_range(stmts_b, var, true);
    let rb = array_access_range(stmts_b, var, false);
    let mut kinds = Vec::new();
    if !wa.disjoint(wb) {
        kinds.push("write/write");
    }
    if !wa.disjoint(rb) {
        kinds.push("write/read");
    }
    if !ra.disjoint(wb) {
        kinds.push("read/write");
    }
    kinds
}

/// Detects data races in a finished backend result under `mode`.
///
/// Returns one [`ErrorCode::DataRace`] finding per (task pair,
/// variable) whose accesses conflict and whose tasks are unordered
/// under `mode`, in deterministic (pair, variable) order.
pub fn check_races(result: &BackendResult, mode: MhpMode) -> Vec<Finding> {
    let pp = &result.parallel;
    let htg = &pp.htg;
    let graph: &TaskGraph = &pp.graph;
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    let mhp = mhp_matrix(result, mode);

    // StmtId → AST statement, for the array-range refinement. Task
    // stmt ids refer to the transformed program the parallel model
    // carries.
    let entry_fn = pp
        .program
        .function(pp.entry())
        .expect("parallel program entry exists");
    let mut by_id: BTreeMap<StmtId, &Stmt> = BTreeMap::new();
    argo_ir::visit::walk_stmts(&entry_fn.body, &mut |s| {
        by_id.insert(s.id, s);
    });
    let symbols = symbol_table(entry_fn);
    let task_stmts = |g_idx: usize| -> Vec<&Stmt> {
        htg.task(graph.htg_ids[g_idx])
            .stmts
            .iter()
            .filter_map(|id| by_id.get(id).copied())
            .collect()
    };

    let mut findings = Vec::new();
    for (a, row) in mhp.iter().enumerate() {
        for (b, &parallel) in row.iter().enumerate().skip(a + 1) {
            if !parallel {
                continue;
            }
            let ta = htg.task(graph.htg_ids[a]);
            let tb = htg.task(graph.htg_ids[b]);
            // Conflict variables: one side writes, the other touches.
            let mut vars: Vec<&String> = ta
                .writes
                .iter()
                .filter(|v| tb.reads.contains(*v) || tb.writes.contains(*v))
                .chain(tb.writes.iter().filter(|v| ta.reads.contains(*v)))
                .filter(|v| !pp.privatized().contains(*v))
                .collect();
            vars.sort();
            vars.dedup();
            if vars.is_empty() {
                continue;
            }
            let (sa, sb) = (task_stmts(a), task_stmts(b));
            for var in vars {
                let is_array = symbols.get(var).is_some_and(|ty| ty.is_array());
                let kinds = conflict_kinds(&sa, &sb, var, is_array);
                if kinds.is_empty() {
                    continue; // ranges proved disjoint
                }
                let message = format!(
                    "tasks `{}` and `{}` may happen in parallel under {mode} \
                     and conflict on `{var}` ({})",
                    ta.name,
                    tb.name,
                    kinds.join("+"),
                );
                findings.push(Finding::new(
                    Severity::Error,
                    Diagnostic::new(Stage::Verify, ErrorCode::DataRace, message)
                        .with_entity(var.clone()),
                ));
            }
        }
    }
    findings
}
