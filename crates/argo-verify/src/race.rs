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
//!
//! Each task's access summary is derived once per result, not once per
//! MHP pair: its read and write sets become bitsets over one
//! name-sorted table of the shared (non-privatized) variables, the MHP
//! relation is one bitset row per task, and a task's write and read
//! ranges on an array are computed the first time a pair needs them
//! and kept in a sparse per-task memo. A pair test is then a few word
//! operations plus, for arrays, range comparisons.

use crate::{Finding, Severity};
use argo_core::{BackendResult, Diagnostic, ErrorCode, Stage};
use argo_htg::deps::{array_access_range, AccessRange};
use argo_ir::ast::{Stmt, StmtId, StmtKind};
use argo_parir::ParallelProgram;
use argo_sched::TaskGraph;
use argo_wcet::system::MhpMode;
use std::collections::BTreeMap;

/// Equal-width bitset rows in one flat buffer.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, width: usize) -> BitRows {
        let words = width.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    fn set(&mut self, r: usize, c: usize) {
        self.bits[r * self.words + c / 64] |= 1 << (c % 64);
    }

    fn get(&self, r: usize, c: usize) -> bool {
        self.bits[r * self.words + c / 64] & (1 << (c % 64)) != 0
    }
}

/// Indices of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

/// Pairwise may-happen-in-parallel relation over the `n` tasks of a
/// flat task graph (symmetric, irreflexive), one bitset row per task.
fn mhp_rows(result: &BackendResult, mode: MhpMode) -> BitRows {
    let pp = &result.parallel;
    let n = pp.graph.len();
    let mut reach = BitRows::new(n, n);
    for &(f, t, _) in &pp.graph.edges {
        reach.set(f, t);
    }
    if mode != MhpMode::Naive {
        // Same-core execution order is also a happens-before source.
        for core in 0..pp.plans.len() {
            let on_core = pp.schedule.tasks_on(argo_adl::CoreId(core));
            for w in on_core.windows(2) {
                reach.set(w[0], w[1]);
            }
        }
    }
    // Transitive closure (Warshall, a word at a time).
    let words = reach.words;
    let mut row_k = vec![0u64; words];
    for k in 0..n {
        row_k.copy_from_slice(reach.row(k));
        for i in 0..n {
            if reach.get(i, k) {
                let row = &mut reach.bits[i * words..(i + 1) * words];
                for (dst, &via_k) in row.iter_mut().zip(&row_k) {
                    *dst |= via_k;
                }
            }
        }
    }
    // Unordered pairs may run in parallel. Window MHP tightens this
    // further: the analysis claims tasks only overlap when their
    // published (inflated) time windows do and they sit on different
    // cores.
    let (start, finish) = (&result.system.start, &result.system.finish);
    let core = &pp.schedule.assignment;
    let mut mhp = BitRows::new(n, n);
    for a in 0..n {
        for b in 0..n {
            let ordered = a == b || reach.get(a, b) || reach.get(b, a);
            let apart = mode == MhpMode::Windows
                && (core[a] == core[b] || start[a] >= finish[b] || start[b] >= finish[a]);
            if !ordered && !apart {
                mhp.set(a, b);
            }
        }
    }
    mhp
}

/// One task's write and read ranges on one array.
#[derive(Clone, Copy)]
struct Ranges {
    write: AccessRange,
    read: AccessRange,
}

/// The verifier's per-task access summaries for one result.
struct Summaries<'a> {
    pp: &'a ParallelProgram,
    /// Shared variables, name-sorted: bit `v` of a set is `vars[v]`.
    vars: Vec<&'a str>,
    /// Whether `vars[v]` is an array of the entry function.
    is_array: Vec<bool>,
    reads: BitRows,
    writes: BitRows,
    /// Every statement of the entry function, by id.
    by_id: BTreeMap<StmtId, &'a Stmt>,
    /// Per task, the statements it covers (filled on first use).
    stmts: Vec<Option<Vec<&'a Stmt>>>,
    /// Per task, the ranges of the arrays a pair needed so far.
    ranges: Vec<Vec<(usize, Ranges)>>,
}

impl<'a> Summaries<'a> {
    fn new(result: &'a BackendResult) -> Summaries<'a> {
        let pp = &result.parallel;
        let graph: &TaskGraph = &pp.graph;
        let n = graph.len();
        let task = |t: usize| pp.htg.task(graph.htg_ids[t]);
        let mut vars: Vec<&str> = (0..n)
            .flat_map(|t| task(t).reads.iter().chain(&task(t).writes))
            .map(String::as_str)
            .filter(|v| !pp.privatized().contains(*v))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let mut reads = BitRows::new(n, vars.len());
        let mut writes = BitRows::new(n, vars.len());
        for t in 0..n {
            for (set, bits) in [(&task(t).reads, &mut reads), (&task(t).writes, &mut writes)] {
                for v in set {
                    if let Ok(i) = vars.binary_search(&v.as_str()) {
                        bits.set(t, i);
                    }
                }
            }
        }

        // Task stmt ids refer to the transformed program the parallel
        // model carries. One walk indexes its statements and finds the
        // arrays; a later declaration of a name wins, as in
        // `argo_ir::validate::symbol_table`.
        let entry_fn = pp
            .program
            .function(pp.entry())
            .expect("parallel program entry exists");
        let mut is_array = vec![false; vars.len()];
        let mut declare = |name: &str, array: bool| {
            if let Ok(i) = vars.binary_search(&name) {
                is_array[i] = array;
            }
        };
        for p in &entry_fn.params {
            declare(&p.name, p.ty.is_array());
        }
        let mut by_id = BTreeMap::new();
        argo_ir::visit::walk_stmts(&entry_fn.body, &mut |s| {
            by_id.insert(s.id, s);
            if let StmtKind::Decl { name, ty, .. } = &s.kind {
                declare(name, ty.is_array());
            }
        });
        Summaries {
            pp,
            vars,
            is_array,
            reads,
            writes,
            by_id,
            stmts: vec![None; n],
            ranges: vec![Vec::new(); n],
        }
    }

    /// Task `t`'s write and read ranges on array `vars[v]`, computed
    /// on first use.
    fn ranges(&mut self, t: usize, v: usize) -> Ranges {
        if let Some(&(_, r)) = self.ranges[t].iter().find(|(var, _)| *var == v) {
            return r;
        }
        let (pp, by_id) = (self.pp, &self.by_id);
        let stmts = self.stmts[t].get_or_insert_with(|| {
            pp.task_stmts(t)
                .iter()
                .filter_map(|id| by_id.get(id).copied())
                .collect()
        });
        let array = self.vars[v];
        let r = Ranges {
            write: array_access_range(stmts, array, true),
            read: array_access_range(stmts, array, false),
        };
        self.ranges[t].push((v, r));
        r
    }
}

/// The conflict kinds of two tasks' ranges on one array.
fn conflict_kinds(a: Ranges, b: Ranges) -> Vec<&'static str> {
    let mut kinds = Vec::new();
    if !a.write.disjoint(b.write) {
        kinds.push("write/write");
    }
    if !a.write.disjoint(b.read) {
        kinds.push("write/read");
    }
    if !a.read.disjoint(b.write) {
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
    let graph: &TaskGraph = &pp.graph;
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    let mhp = mhp_rows(result, mode);
    let mut sum = Summaries::new(result);

    let mut conflicts = vec![0u64; sum.reads.words];
    let mut findings = Vec::new();
    for a in 0..n {
        for b in ones(mhp.row(a)).filter(|&b| b > a) {
            // Conflict variables: one side writes, the other touches.
            let (ra, wa) = (sum.reads.row(a), sum.writes.row(a));
            let (rb, wb) = (sum.reads.row(b), sum.writes.row(b));
            let mut any = 0;
            for (i, c) in conflicts.iter_mut().enumerate() {
                *c = wa[i] & (rb[i] | wb[i]) | wb[i] & ra[i];
                any |= *c;
            }
            if any == 0 {
                continue;
            }
            let ta = pp.htg.task(graph.htg_ids[a]);
            let tb = pp.htg.task(graph.htg_ids[b]);
            for v in ones(&conflicts) {
                let kinds = if sum.is_array[v] {
                    conflict_kinds(sum.ranges(a, v), sum.ranges(b, v))
                } else {
                    // Scalars are single cells; the set intersection
                    // already proved the conflict.
                    vec!["scalar"]
                };
                if kinds.is_empty() {
                    continue; // ranges proved disjoint
                }
                let var = sum.vars[v];
                let message = format!(
                    "tasks `{}` and `{}` may happen in parallel under {mode} \
                     and conflict on `{var}` ({})",
                    ta.name,
                    tb.name,
                    kinds.join("+"),
                );
                findings.push(Finding::new(
                    Severity::Error,
                    Diagnostic::new(Stage::Verify, ErrorCode::DataRace, message).with_entity(var),
                ));
            }
        }
    }
    findings
}
