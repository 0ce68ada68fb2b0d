//! Control-flow graph construction from the structured AST.
//!
//! Because mini-C is fully structured (no `goto`), every function's CFG is
//! *reducible by construction*: loops form a tree, and removing back edges
//! leaves a DAG. The IPET WCET engine in `argo-wcet` exploits this shape —
//! it computes longest paths per loop body (innermost first), multiplies by
//! the loop bound and collapses the loop to a single node.

use crate::ast::*;

/// Index of a basic block within a [`Cfg`].
pub type NodeId = usize;

/// One entry of a basic block: either a whole simple statement, or the
/// condition/bookkeeping part of a compound statement (the part that
/// executes *in this block* even though the statement spans several blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgItem {
    /// A simple statement executes entirely in this block.
    Stmt(StmtId),
    /// The condition of an `if` (block ends with a two-way branch).
    Cond(StmtId),
    /// The per-iteration test/increment of a loop header.
    LoopTest(StmtId),
}

impl CfgItem {
    /// The id of the underlying statement.
    pub fn stmt_id(self) -> StmtId {
        match self {
            CfgItem::Stmt(s) | CfgItem::Cond(s) | CfgItem::LoopTest(s) => s,
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock {
    /// Straight-line contents.
    pub items: Vec<CfgItem>,
    /// Successor blocks. Two successors = conditional branch
    /// (`succs[0]` = taken/then/loop-body, `succs[1]` = else/loop-exit).
    pub succs: Vec<NodeId>,
}

/// A natural loop of the CFG (always corresponds to one `for`/`while`
/// statement, thanks to structuredness).
#[derive(Debug, Clone)]
pub struct LoopScope {
    /// The `for`/`while` statement this loop was built from.
    pub stmt: StmtId,
    /// Header block (contains the [`CfgItem::LoopTest`]).
    pub header: NodeId,
    /// Latch block (jumps back to the header).
    pub latch: NodeId,
    /// The block control reaches when the loop exits.
    pub exit: NodeId,
    /// All blocks strictly inside the loop (header and latch included).
    pub nodes: Vec<NodeId>,
    /// Child loops (indices into [`Cfg::loops`]).
    pub children: Vec<usize>,
    /// Statically known iteration bound: constant trip count for `for`
    /// loops with literal bounds, the declared `#pragma bound` for `while`
    /// loops, `None` when the value analysis must provide it.
    pub bound_hint: Option<u64>,
}

/// Control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All basic blocks.
    pub blocks: Vec<BasicBlock>,
    /// Entry block id (always 0).
    pub entry: NodeId,
    /// Exit block id (unique; `return` statements jump here).
    pub exit: NodeId,
    /// All loops, in discovery (outer-before-inner) order.
    pub loops: Vec<LoopScope>,
    /// Indices of top-level (non-nested) loops.
    pub top_loops: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of a function.
    pub fn build(f: &Function) -> Cfg {
        let mut b = Builder {
            blocks: vec![BasicBlock::default()],
            loops: Vec::new(),
            top_loops: Vec::new(),
            loop_stack: Vec::new(),
            exit: usize::MAX,
        };
        let exit = b.new_block();
        b.exit = exit;
        let last = b.lower_block(&f.body, 0);
        b.edge(last, exit);
        let cfg = Cfg {
            entry: 0,
            exit,
            blocks: b.blocks,
            loops: b.loops,
            top_loops: b.top_loops,
        };
        cfg.prune_unreachable()
    }

    /// Removes blocks not reachable from the entry (created as
    /// continuations after `return`) and remaps all ids.
    fn prune_unreachable(mut self) -> Cfg {
        let n = self.blocks.len();
        let mut reach = vec![false; n];
        let mut stack = vec![self.entry];
        reach[self.entry] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !reach[s] {
                    reach[s] = true;
                    stack.push(s);
                }
            }
        }
        // The exit must survive even for non-terminating shapes.
        reach[self.exit] = true;
        if reach.iter().all(|&r| r) {
            return self;
        }
        let mut remap = vec![usize::MAX; n];
        let mut next = 0usize;
        for i in 0..n {
            if reach[i] {
                remap[i] = next;
                next += 1;
            }
        }
        let mut blocks = Vec::with_capacity(next);
        for (i, mut blk) in self.blocks.drain(..).enumerate() {
            if !reach[i] {
                continue;
            }
            blk.succs.retain(|&s| reach[s]);
            for s in &mut blk.succs {
                *s = remap[*s];
            }
            blocks.push(blk);
        }
        let mut loops = Vec::new();
        let mut loop_remap = vec![usize::MAX; self.loops.len()];
        for (i, mut l) in self.loops.drain(..).enumerate() {
            if !reach[l.header] {
                continue;
            }
            l.header = remap[l.header];
            l.latch = remap[l.latch];
            l.exit = remap[l.exit];
            l.nodes.retain(|&nd| reach[nd]);
            for nd in &mut l.nodes {
                *nd = remap[*nd];
            }
            loop_remap[i] = loops.len();
            loops.push(l);
        }
        for l in &mut loops {
            l.children.retain(|&c| loop_remap[c] != usize::MAX);
            for c in &mut l.children {
                *c = loop_remap[*c];
            }
        }
        let mut top_loops: Vec<usize> = self
            .top_loops
            .iter()
            .filter(|&&t| loop_remap[t] != usize::MAX)
            .map(|&t| loop_remap[t])
            .collect();
        top_loops.sort_unstable();
        Cfg {
            entry: remap[self.entry],
            exit: remap[self.exit],
            blocks,
            loops,
            top_loops,
        }
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the CFG has no blocks (never happens for built
    /// CFGs; included for API completeness).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            for &s in &b.succs {
                out.push((i, s));
            }
        }
        out
    }

    /// Back edges (`latch → header` of each loop).
    pub fn back_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.loops.iter().map(|l| (l.latch, l.header)).collect()
    }

    /// Reverse post-order of the acyclic graph obtained by removing back
    /// edges. The result starts at [`Cfg::entry`].
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        let back: std::collections::HashSet<(NodeId, NodeId)> =
            self.back_edges().into_iter().collect();
        let mut visited = vec![false; self.blocks.len()];
        let mut order = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with explicit post-order bookkeeping.
        let mut stack: Vec<(NodeId, usize)> = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let succs = &self.blocks[node].succs;
            let mut advanced = false;
            while *idx < succs.len() {
                let s = succs[*idx];
                *idx += 1;
                if back.contains(&(node, s)) || visited[s] {
                    continue;
                }
                visited[s] = true;
                stack.push((s, 0));
                advanced = true;
                break;
            }
            if !advanced {
                order.push(node);
                stack.pop();
            }
        }
        order.reverse();
        order
    }
}

struct Builder {
    blocks: Vec<BasicBlock>,
    loops: Vec<LoopScope>,
    top_loops: Vec<usize>,
    loop_stack: Vec<usize>,
    exit: NodeId,
}

impl Builder {
    fn new_block(&mut self) -> NodeId {
        self.blocks.push(BasicBlock::default());
        let id = self.blocks.len() - 1;
        // Register node in every loop currently open.
        for &l in &self.loop_stack {
            self.loops[l].nodes.push(id);
        }
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        self.blocks[from].succs.push(to);
    }

    /// Lowers a block starting in `cur`; returns the block in which control
    /// continues (which may be unreachable if the block ended in `return`).
    fn lower_block(&mut self, b: &Block, mut cur: NodeId) -> NodeId {
        for s in &b.stmts {
            cur = self.lower_stmt(s, cur);
        }
        cur
    }

    fn lower_stmt(&mut self, s: &Stmt, cur: NodeId) -> NodeId {
        match &s.kind {
            StmtKind::Decl { .. } | StmtKind::Assign { .. } | StmtKind::Call { .. } => {
                self.blocks[cur].items.push(CfgItem::Stmt(s.id));
                cur
            }
            StmtKind::Return { .. } => {
                self.blocks[cur].items.push(CfgItem::Stmt(s.id));
                let exit = self.exit;
                self.edge(cur, exit);
                // Continue in a fresh (unreachable) block so later dead
                // statements don't corrupt the graph.
                self.new_block()
            }
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                self.blocks[cur].items.push(CfgItem::Cond(s.id));
                let then_entry = self.new_block();
                let else_entry = self.new_block();
                self.edge(cur, then_entry);
                self.edge(cur, else_entry);
                let then_end = self.lower_block(then_blk, then_entry);
                let else_end = self.lower_block(else_blk, else_entry);
                let join = self.new_block();
                self.edge(then_end, join);
                self.edge(else_end, join);
                join
            }
            StmtKind::For {
                lo, hi, step, body, ..
            } => {
                let bound_hint = match (lo.as_int_const(), hi.as_int_const()) {
                    (Some(l), Some(h)) if h > l => Some(((h - l) as u64).div_ceil(*step as u64)),
                    (Some(l), Some(h)) if h <= l => Some(0),
                    _ => None,
                };
                self.lower_loop(s.id, body, cur, bound_hint)
            }
            StmtKind::While { bound, body, .. } => self.lower_loop(s.id, body, cur, Some(*bound)),
        }
    }

    fn lower_loop(
        &mut self,
        stmt: StmtId,
        body: &Block,
        cur: NodeId,
        bound_hint: Option<u64>,
    ) -> NodeId {
        let loop_idx = self.loops.len();
        if let Some(&parent) = self.loop_stack.last() {
            self.loops[parent].children.push(loop_idx);
        } else {
            self.top_loops.push(loop_idx);
        }
        self.loops.push(LoopScope {
            stmt,
            header: 0,
            latch: 0,
            exit: 0,
            nodes: Vec::new(),
            children: Vec::new(),
            bound_hint,
        });
        self.loop_stack.push(loop_idx);
        let header = self.new_block();
        self.blocks[header].items.push(CfgItem::LoopTest(stmt));
        self.edge(cur, header);
        let body_entry = self.new_block();
        self.edge(header, body_entry);
        let body_end = self.lower_block(body, body_entry);
        // body_end doubles as the latch.
        self.edge(body_end, header);
        self.loop_stack.pop();
        let exit = self.new_block();
        self.edge(header, exit);
        let l = &mut self.loops[loop_idx];
        l.header = header;
        l.latch = body_end;
        l.exit = exit;
        exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse_program(src).unwrap();
        Cfg::build(&p.functions[0])
    }

    #[test]
    fn straight_line_has_entry_and_exit() {
        let c = cfg_of("void f() { int x; x = 1; x = 2; }");
        assert_eq!(c.blocks[c.entry].items.len(), 3);
        assert_eq!(c.blocks[c.entry].succs, vec![c.exit]);
        assert!(c.loops.is_empty());
    }

    #[test]
    fn if_makes_diamond() {
        let c = cfg_of("void f(int x) { int y; if (x > 0) { y = 1; } else { y = 2; } y = 3; }");
        // entry has 2 successors; both lead to a join.
        assert_eq!(c.blocks[c.entry].succs.len(), 2);
        let t = c.blocks[c.entry].succs[0];
        let e = c.blocks[c.entry].succs[1];
        assert_eq!(c.blocks[t].succs, c.blocks[e].succs);
    }

    #[test]
    fn for_loop_structure_and_bound() {
        let c = cfg_of("void f() { int i; int s; s = 0; for (i=0;i<10;i=i+2) { s = s + i; } }");
        assert_eq!(c.loops.len(), 1);
        let l = &c.loops[0];
        assert_eq!(l.bound_hint, Some(5));
        // Header branches into body and exit; latch returns to header.
        assert_eq!(c.blocks[l.header].succs.len(), 2);
        assert!(c.blocks[l.latch].succs.contains(&l.header));
        assert_eq!(c.back_edges(), vec![(l.latch, l.header)]);
    }

    #[test]
    fn degenerate_loop_bound_is_zero() {
        let c = cfg_of("void f() { int i; for (i=5;i<5;i=i+1) { } }");
        assert_eq!(c.loops[0].bound_hint, Some(0));
    }

    #[test]
    fn nonconstant_bound_is_none() {
        let c = cfg_of("void f(int n) { int i; for (i=0;i<n;i=i+1) { } }");
        assert_eq!(c.loops[0].bound_hint, None);
    }

    #[test]
    fn while_bound_comes_from_pragma() {
        let c = cfg_of("void f() { int x; x = 0; #pragma bound 7\nwhile (x < 5) { x = x + 1; } }");
        assert_eq!(c.loops[0].bound_hint, Some(7));
    }

    #[test]
    fn nested_loops_form_tree() {
        let c = cfg_of(
            "void f() { int i; int j; \
             for (i=0;i<4;i=i+1) { for (j=0;j<8;j=j+1) { } } \
             for (i=0;i<2;i=i+1) { } }",
        );
        assert_eq!(c.loops.len(), 3);
        assert_eq!(c.top_loops.len(), 2);
        let outer = c.top_loops[0];
        assert_eq!(c.loops[outer].children.len(), 1);
        let inner = c.loops[outer].children[0];
        assert_eq!(c.loops[inner].bound_hint, Some(8));
        // Inner loop nodes are a subset of outer loop nodes.
        for n in &c.loops[inner].nodes {
            assert!(c.loops[outer].nodes.contains(n));
        }
    }

    #[test]
    fn return_jumps_to_exit() {
        let c = cfg_of("int f(int x) { if (x > 0) { return 1; } else { } return 0; }");
        // Two blocks have an edge to exit (the return in then-branch and
        // the trailing return).
        let into_exit = c.edges().iter().filter(|(_, t)| *t == c.exit).count();
        assert_eq!(into_exit, 2);
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_respects_dag() {
        let c = cfg_of(
            "void f(int n) { int i; int s; s = 0; \
             for (i=0;i<n;i=i+1) { if (s > 3) { s = 0; } else { s = s + 1; } } }",
        );
        let order = c.reverse_postorder();
        assert_eq!(order[0], c.entry);
        // Every forward edge goes from earlier to later in the order.
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let back: std::collections::HashSet<_> = c.back_edges().into_iter().collect();
        for (f, t) in c.edges() {
            if back.contains(&(f, t)) {
                continue;
            }
            if let (Some(&pf), Some(&pt)) = (pos.get(&f), pos.get(&t)) {
                assert!(pf < pt, "edge {f}->{t} violates RPO");
            }
        }
    }
}
