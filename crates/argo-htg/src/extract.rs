//! Task extraction: from a mini-C function to the HTG.
//!
//! Extraction walks the entry function's statement list, grouping
//! statements into tasks according to the chosen [`Granularity`], and
//! recursing into loop bodies to build the hierarchy ("loops are enclosed
//! in an additional hierarchy level", § II-B). Each task is created with
//! its worst-case access counts ([`crate::accesses`]). Dependence edges
//! between siblings are derived from transitive read/write sets, with
//! array accesses refined by [`AccessRange::disjoint`]; flow edges carry
//! the communication volume in bytes.

use crate::accesses::count_task;
use crate::deps::{array_access_range, classify_loop, AccessRange, LoopParallelism};
use crate::{DepEdge, Granularity, Htg, Task, TaskId, TaskKind};
use argo_ir::ast::*;
use argo_ir::validate::{symbol_table, SymbolTable};
use argo_ir::visit;
use argo_ir::StmtId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error from task extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractError {
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "extract error: {}", self.msg)
    }
}

impl std::error::Error for ExtractError {}

/// Extracts the HTG of function `func` at the given granularity, every
/// task carrying its worst-case access counts ([`Task::access_counts`]).
/// `bounds` maps loop statement ids to iteration bounds (the value
/// analysis's loop-bound map); the counter falls back to a loop's
/// constant trip count, then to 1.
///
/// # Errors
///
/// Returns [`ExtractError`] if `func` does not exist in `program`.
pub fn extract(
    program: &Program,
    func: &str,
    granularity: Granularity,
    bounds: &BTreeMap<StmtId, u64>,
) -> Result<Htg, ExtractError> {
    let f = program.function(func).ok_or_else(|| ExtractError {
        msg: format!("no function `{func}`"),
    })?;
    let symbols = symbol_table(f);
    let mut ex = Extractor {
        htg: Htg {
            function: func.into(),
            ..Htg::default()
        },
        symbols,
        granularity,
        program,
        bounds,
        task_bodies: Vec::new(),
        ranges: Vec::new(),
    };
    let top = ex.extract_level(&f.body.stmts, None);
    ex.connect_siblings(&top);
    ex.htg.top_level = top;
    ex.apply_privatization();
    Ok(ex.htg)
}

struct Extractor<'p> {
    htg: Htg,
    symbols: SymbolTable,
    granularity: Granularity,
    program: &'p Program,
    bounds: &'p BTreeMap<StmtId, u64>,
    /// The statements of each task, borrowed from the program, kept only
    /// for the range-based array-disjointness test during edge
    /// construction.
    task_bodies: Vec<Vec<&'p Stmt>>,
    /// Per task, the `[read, write]` ranges of each array that edge
    /// construction has asked for, so that each is computed once.
    ranges: Vec<BTreeMap<String, [Option<AccessRange>; 2]>>,
}

impl<'p> Extractor<'p> {
    fn new_task(
        &mut self,
        name: String,
        kind: TaskKind,
        stmts: Vec<&'p Stmt>,
        parent: Option<TaskId>,
    ) -> TaskId {
        let id = TaskId(self.htg.tasks.len());
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        for s in &stmts {
            let (r, w) = visit::stmt_rw(s);
            reads.extend(r);
            writes.extend(w);
        }
        let live_reads = visit::live_in_reads(stmts.iter().copied());
        let access_counts = count_task(&stmts, self.program, self.bounds);
        self.htg.tasks.push(Task {
            id,
            name,
            kind,
            stmts: stmts.iter().map(|s| s.id).collect(),
            reads,
            live_reads,
            writes,
            children: Vec::new(),
            parent,
            access_counts,
        });
        self.task_bodies.push(stmts);
        self.ranges.push(BTreeMap::new());
        if let Some(p) = parent {
            self.htg.tasks[p.0].children.push(id);
        }
        id
    }

    /// Range of leading subscripts task `t` uses on array `v` (reads or
    /// writes), computed on first use.
    fn range_of(&mut self, t: TaskId, v: &str, writes: bool) -> AccessRange {
        let memo = &mut self.ranges[t.0];
        if !memo.contains_key(v) {
            memo.insert(v.to_string(), [None; 2]);
        }
        let slot = &mut memo.get_mut(v).expect("inserted above")[usize::from(writes)];
        *slot.get_or_insert_with(|| array_access_range(&self.task_bodies[t.0], v, writes))
    }

    /// Extracts one hierarchy level from a statement list; returns sibling
    /// task ids in program order.
    fn extract_level(&mut self, stmts: &'p [Stmt], parent: Option<TaskId>) -> Vec<TaskId> {
        let mut siblings: Vec<TaskId> = Vec::new();
        let mut group: Vec<&'p Stmt> = Vec::new();

        macro_rules! flush_group {
            () => {
                if !group.is_empty() {
                    let first = group[0].id;
                    let name = if group
                        .iter()
                        .all(|s| matches!(s.kind, StmtKind::Decl { .. }))
                    {
                        format!("init@{first}")
                    } else {
                        format!("seq@{first}")
                    };
                    let taken = std::mem::take(&mut group);
                    let id = self.new_task(name, TaskKind::Simple, taken, parent);
                    siblings.push(id);
                }
            };
        }

        for s in stmts {
            let splits = match (&s.kind, self.granularity) {
                // Loops always split.
                (StmtKind::For { .. } | StmtKind::While { .. }, _) => true,
                // Calls always split (natural task parallelism).
                (StmtKind::Call { .. }, _) => true,
                // Conditionals split except at Loop granularity.
                (StmtKind::If { .. }, Granularity::Loop) => false,
                (StmtKind::If { .. }, _) => true,
                // Simple statements split only at Stmt granularity.
                (_, Granularity::Stmt) => true,
                _ => false,
            };
            if !splits {
                group.push(s);
                continue;
            }
            flush_group!();
            match &s.kind {
                StmtKind::For { var, body, .. } => {
                    let parallelism = classify_loop(s);
                    let id = self.new_task(
                        format!("for({var})@{}", s.id),
                        TaskKind::LoopNode { parallelism },
                        vec![s],
                        parent,
                    );
                    siblings.push(id);
                    let children = self.extract_level(&body.stmts, Some(id));
                    self.connect_siblings(&children);
                }
                StmtKind::While { body, .. } => {
                    let id = self.new_task(
                        format!("while@{}", s.id),
                        TaskKind::LoopNode {
                            parallelism: LoopParallelism::Sequential,
                        },
                        vec![s],
                        parent,
                    );
                    siblings.push(id);
                    let children = self.extract_level(&body.stmts, Some(id));
                    self.connect_siblings(&children);
                }
                StmtKind::Call { name, .. } => {
                    let id = self.new_task(
                        format!("call({name})@{}", s.id),
                        TaskKind::CallNode {
                            callee: name.clone(),
                        },
                        vec![s],
                        parent,
                    );
                    siblings.push(id);
                }
                StmtKind::If { .. } => {
                    let id =
                        self.new_task(format!("if@{}", s.id), TaskKind::CondNode, vec![s], parent);
                    siblings.push(id);
                }
                _ => {
                    // Stmt granularity: single-statement Simple task.
                    let id =
                        self.new_task(format!("stmt@{}", s.id), TaskKind::Simple, vec![s], parent);
                    siblings.push(id);
                }
            }
        }
        flush_group!();
        siblings
    }

    /// Adds dependence edges between ordered sibling pairs.
    ///
    /// Flow edges use the consumer's *live-in* read set, so a task that
    /// definitely overwrites a scalar before reading it (e.g. a loop
    /// re-initialising a reused induction variable) does not falsely
    /// depend on earlier writers of that scalar.
    fn connect_siblings(&mut self, siblings: &[TaskId]) {
        for (i, &a) in siblings.iter().enumerate() {
            for &b in &siblings[i + 1..] {
                let ta = &self.htg.tasks[a.0];
                let tb = &self.htg.tasks[b.0];
                let mut flow: BTreeSet<String> =
                    ta.writes.intersection(&tb.live_reads).cloned().collect();
                let mut conflicts: BTreeSet<String> = ta
                    .reads
                    .intersection(&tb.writes)
                    .chain(ta.writes.intersection(&tb.writes))
                    .cloned()
                    .collect();
                // Array refinement: accesses to provably disjoint index
                // ranges (chunked loops!) impose no dependence.
                let arrays: Vec<String> = flow
                    .iter()
                    .chain(conflicts.iter())
                    .filter(|v| self.symbols.get(*v).is_some_and(|t| t.is_array()))
                    .cloned()
                    .collect();
                for v in arrays {
                    let wr_a = self.range_of(a, &v, true);
                    let rd_a = self.range_of(a, &v, false);
                    let wr_b = self.range_of(b, &v, true);
                    let rd_b = self.range_of(b, &v, false);
                    if wr_a.disjoint(rd_b) {
                        flow.remove(&v);
                    }
                    let anti = !rd_a.disjoint(wr_b);
                    let output = !wr_a.disjoint(wr_b);
                    if !anti && !output {
                        conflicts.remove(&v);
                    }
                }
                conflicts.retain(|v| !flow.contains(v));
                if flow.is_empty() && conflicts.is_empty() {
                    continue;
                }
                let bytes: u64 = flow
                    .iter()
                    .map(|v| self.symbols.get(v).map_or(8, |t| t.size_bytes()))
                    .sum();
                self.htg.edges.push(DepEdge {
                    from: a,
                    to: b,
                    vars: flow,
                    conflicts,
                    bytes,
                    ordering_only: bytes == 0,
                });
            }
        }
    }

    /// Computes the privatizable-scalar set and removes ordering-only
    /// edges that exist solely because of conflicts on such scalars.
    ///
    /// A scalar is privatizable when it never carries a flow dependence
    /// between two tasks and it is not an array (arrays stay shared). Each
    /// core then keeps a private copy, so anti/output conflicts on it need
    /// no ordering (classical scalar privatization).
    fn apply_privatization(&mut self) {
        let mut flow_vars: BTreeSet<String> = BTreeSet::new();
        for e in &self.htg.edges {
            flow_vars.extend(e.vars.iter().cloned());
        }
        let mut privatizable: BTreeSet<String> = BTreeSet::new();
        for e in &self.htg.edges {
            for v in &e.conflicts {
                let is_array = self.symbols.get(v).is_some_and(|t| t.is_array());
                if !is_array && !flow_vars.contains(v) {
                    privatizable.insert(v.clone());
                }
            }
        }
        self.htg.edges.retain(|e| {
            if !e.vars.is_empty() {
                return true;
            }
            // Ordering-only edge: keep unless every conflict var is
            // privatizable.
            !e.conflicts.iter().all(|v| privatizable.contains(v))
        });
        self.htg.privatizable = privatizable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::parse::parse_program;

    const PIPE: &str = r#"
        void main(real a[64], real b[64], real c[64], real d[64]) {
            int i;
            for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }
            for (i = 0; i < 64; i = i + 1) { c[i] = a[i] + 1.0; }
            for (i = 0; i < 64; i = i + 1) { d[i] = b[i] + c[i]; }
        }
    "#;

    fn htg_of(src: &str, g: Granularity) -> Htg {
        let p = parse_program(src).unwrap();
        argo_ir::validate::validate(&p).unwrap();
        extract(&p, "main", g, &BTreeMap::new()).unwrap()
    }

    #[test]
    fn pipeline_structure_at_loop_granularity() {
        let h = htg_of(PIPE, Granularity::Loop);
        // init (decl of i) + 3 loop tasks.
        assert_eq!(h.top_level.len(), 4);
        let loops: Vec<&Task> = h
            .top_level
            .iter()
            .map(|&t| h.task(t))
            .filter(|t| matches!(t.kind, TaskKind::LoopNode { .. }))
            .collect();
        assert_eq!(loops.len(), 3);
        // Loop 1 and 2 both feed loop 3 via b and c.
        let l3 = loops[2].id;
        let feeders: Vec<TaskId> = h
            .edges
            .iter()
            .filter(|e| e.to == l3 && !e.vars.is_empty())
            .map(|e| e.from)
            .collect();
        assert!(feeders.contains(&loops[0].id));
        assert!(feeders.contains(&loops[1].id));
    }

    #[test]
    fn flow_edges_carry_volume() {
        let h = htg_of(PIPE, Granularity::Loop);
        let e = h
            .edges
            .iter()
            .find(|e| e.vars.contains("b"))
            .expect("edge through b");
        // real[64] = 512 bytes; the edge between loop1 and loop3 carries
        // b (and possibly the scalar i).
        assert!(e.bytes >= 512);
        assert!(!e.ordering_only);
    }

    #[test]
    fn independent_loops_have_no_flow_edge() {
        let h = htg_of(PIPE, Granularity::Loop);
        let loops: Vec<TaskId> = h
            .top_level
            .iter()
            .copied()
            .filter(|&t| matches!(h.task(t).kind, TaskKind::LoopNode { .. }))
            .collect();
        // loop1 (writes b) and loop2 (writes c) share no flow data;
        // any edge between them must be ordering-only... and in fact both
        // write nothing in common and read disjoint outputs, but both
        // write `i` — which is an output dependence (ordering only).
        let between: Vec<&DepEdge> = h
            .edges
            .iter()
            .filter(|e| e.from == loops[0] && e.to == loops[1])
            .collect();
        for e in between {
            assert!(
                e.ordering_only,
                "edge between independent loops carries data: {e:?}"
            );
        }
    }

    #[test]
    fn loop_hierarchy_has_children() {
        let h = htg_of(PIPE, Granularity::Loop);
        let l = h
            .top_level
            .iter()
            .map(|&t| h.task(t))
            .find(|t| matches!(t.kind, TaskKind::LoopNode { .. }))
            .unwrap();
        assert!(!l.children.is_empty());
        for &c in &l.children {
            assert_eq!(h.task(c).parent, Some(l.id));
        }
    }

    #[test]
    fn doall_classification_is_attached() {
        let h = htg_of(PIPE, Granularity::Loop);
        for &t in &h.top_level {
            if let TaskKind::LoopNode { parallelism } = &h.task(t).kind {
                assert_eq!(*parallelism, LoopParallelism::Doall);
            }
        }
    }

    #[test]
    fn stmt_granularity_is_finer_than_block() {
        let src = r#"
            void main(real a[8]) {
                real x; real y; real z;
                x = a[0] + 1.0;
                y = x * 2.0;
                z = y - 3.0;
                a[1] = z;
            }
        "#;
        let fine = htg_of(src, Granularity::Stmt);
        let coarse = htg_of(src, Granularity::Block);
        assert!(fine.top_level.len() > coarse.top_level.len());
        // Block granularity groups the whole straight-line body.
        assert_eq!(coarse.top_level.len(), 1);
    }

    #[test]
    fn chain_dependences_at_stmt_granularity() {
        let src = r#"
            void main(real a[8]) {
                real x; real y;
                x = a[0] + 1.0;
                y = x * 2.0;
                a[1] = y;
            }
        "#;
        let h = htg_of(src, Granularity::Stmt);
        // x flows into y's task, y flows into the store task.
        assert!(h.edges.iter().any(|e| e.vars.contains("x")));
        assert!(h.edges.iter().any(|e| e.vars.contains("y")));
        assert!(h.edges_are_acyclic());
    }

    #[test]
    fn calls_become_call_nodes() {
        let src = r#"
            void stage(real buf[16]) { int i;
                for (i=0;i<16;i=i+1) { buf[i] = buf[i] + 1.0; } }
            void main(real buf[16]) {
                stage(buf);
                stage(buf);
            }
        "#;
        let h = htg_of(src, Granularity::Loop);
        let calls: Vec<&Task> = h
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::CallNode { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        // Second call depends on the first (both write buf).
        assert!(h
            .edges
            .iter()
            .any(|e| e.from == calls[0].id && e.to == calls[1].id));
    }

    #[test]
    fn conditional_becomes_cond_node_at_fine_granularity() {
        let src = r#"
            void main(real a[8], int k) {
                real x; x = 0.0;
                if (k > 0) { x = a[0]; } else { x = a[1]; }
                a[2] = x;
            }
        "#;
        let h = htg_of(src, Granularity::Block);
        assert!(h.tasks.iter().any(|t| matches!(t.kind, TaskKind::CondNode)));
    }

    #[test]
    fn unknown_function_errors() {
        let p = parse_program("void main() { }").unwrap();
        assert!(extract(&p, "nope", Granularity::Loop, &BTreeMap::new()).is_err());
    }

    #[test]
    fn edges_always_respect_program_order() {
        let h = htg_of(PIPE, Granularity::Stmt);
        assert!(h.edges_are_acyclic());
    }
}
