//! IPET-style WCET on the control-flow graph.
//!
//! The classical implicit-path-enumeration formulation reduces, on the
//! reducible CFGs our structured language produces, to innermost-first
//! *loop collapsing*: compute the longest path through each loop body,
//! multiply by the loop bound, replace the loop by a super-node, and
//! finish with a DAG longest path from entry to exit.
//!
//! The engine is deliberately independent from the timing-schema engine
//! ([`crate::schema`]) so the two can cross-validate: on structured
//! programs they must agree exactly, and the test suite asserts it.

use crate::cost::CostCtx;
use crate::schema::FunctionWcets;
use crate::value::LoopBounds;
use crate::WcetError;
use argo_ir::ast::*;
use argo_ir::cfg::{Cfg, CfgItem, NodeId};
use argo_ir::interp::OpClass;
use argo_ir::StmtId;
use std::collections::{BTreeMap, HashSet};

/// Computes the WCET of `func` by CFG longest path with loop collapsing.
///
/// # Errors
///
/// Returns [`WcetError`] on missing loop bounds or unknown functions.
pub fn function_wcet_ipet(
    ctx: &CostCtx<'_>,
    bounds: &LoopBounds,
    fn_wcets: &FunctionWcets,
    func: &str,
) -> Result<u64, WcetError> {
    let f = ctx
        .program
        .function(func)
        .ok_or_else(|| WcetError::new(format!("no function `{func}`")))?;
    let cfg = Cfg::build(f);
    let stmts = index_stmts(f);

    // Per-item costs.
    let item_cost = |item: &CfgItem| -> Result<u64, WcetError> {
        let s = stmts
            .get(&item.stmt_id())
            .ok_or_else(|| WcetError::new("dangling stmt id in CFG"))?;
        let mut calls = Vec::new();
        let c = match item {
            CfgItem::Stmt(_) => {
                // Simple statements only (Decl/Assign/Call/Return).
                return crate::schema::stmt_wcet(ctx, bounds, fn_wcets, func, s);
            }
            CfgItem::Cond(_) => match &s.kind {
                StmtKind::If { cond, .. } => {
                    ctx.expr_cost(cond, func, &mut calls) + ctx.op_cost(OpClass::Branch)
                }
                _ => return Err(WcetError::new("Cond item on non-if")),
            },
            CfgItem::LoopTest(_) => match &s.kind {
                StmtKind::For { var, .. } => {
                    ctx.op_cost(OpClass::LoopOverhead) + ctx.access_cost(var)
                }
                StmtKind::While { cond, .. } => {
                    ctx.expr_cost(cond, func, &mut calls) + ctx.op_cost(OpClass::Branch)
                }
                _ => return Err(WcetError::new("LoopTest item on non-loop")),
            },
        };
        let mut total = c;
        for callee in calls {
            total += fn_wcets
                .get(&callee)
                .copied()
                .ok_or_else(|| WcetError::new(format!("unresolved callee `{callee}`")))?;
        }
        Ok(total)
    };

    let mut node_cost = vec![0u64; cfg.len()];
    for (n, b) in cfg.blocks.iter().enumerate() {
        let mut c = 0u64;
        for it in &b.items {
            c = c.saturating_add(item_cost(it)?);
        }
        node_cost[n] = c;
    }

    // Loop pre-costs (bound-expression evaluation, charged once).
    let mut pre_cost: BTreeMap<StmtId, u64> = BTreeMap::new();
    for l in &cfg.loops {
        if let Some(s) = stmts.get(&l.stmt) {
            if let StmtKind::For { lo, hi, .. } = &s.kind {
                let mut calls = Vec::new();
                let mut c =
                    ctx.expr_cost(lo, func, &mut calls) + ctx.expr_cost(hi, func, &mut calls);
                for callee in calls {
                    c += fn_wcets.get(&callee).copied().unwrap_or(0);
                }
                pre_cost.insert(l.stmt, c);
            }
        }
    }

    let back: HashSet<(NodeId, NodeId)> = cfg.back_edges().into_iter().collect();
    let rpo = cfg.reverse_postorder();

    // Collapse loops innermost-first (children are discovered after their
    // parents, so reverse discovery order visits children first).
    let mut collapsed: BTreeMap<NodeId, (u64, NodeId)> = BTreeMap::new(); // header -> (cost, exit)
    for li in (0..cfg.loops.len()).rev() {
        let l = &cfg.loops[li];
        let bound = bounds
            .get(&l.stmt)
            .copied()
            .or(l.bound_hint)
            .ok_or_else(|| WcetError::new(format!("no loop bound for {} (IPET)", l.stmt)))?;
        // Level membership: in l.nodes, and not strictly inside a child
        // (child headers allowed — they act as super-nodes).
        let child_headers: HashSet<NodeId> =
            l.children.iter().map(|&c| cfg.loops[c].header).collect();
        let strictly_inner: HashSet<NodeId> = l
            .children
            .iter()
            .flat_map(|&c| cfg.loops[c].nodes.iter().copied())
            .filter(|n| !child_headers.contains(n))
            .collect();
        let in_level = |n: NodeId| l.nodes.contains(&n) && !strictly_inner.contains(&n);

        let dist = level_distances(
            &cfg, &rpo, &node_cost, &collapsed, &back, l.header, &in_level,
        );
        // One iteration costs at most the longest path from the header to
        // the latch — or, when the body can leave the loop early (a
        // `return` jumping to the function exit), to any node with an
        // out-of-loop successor: any real iteration follows one of these
        // prefixes, so their maximum is a sound per-iteration bound.
        let mut iter_path = dist[l.latch];
        for &n in &l.nodes {
            if !in_level(n) || dist[n].is_none() {
                continue;
            }
            let escapes = cfg.blocks[n]
                .succs
                .iter()
                .any(|s| !l.nodes.contains(s) && *s != l.exit);
            if escapes {
                iter_path = match (iter_path, dist[n]) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (None, d) => d,
                    (d, None) => d,
                };
            }
        }
        let path = iter_path.ok_or_else(|| WcetError::new("loop latch unreachable from header"))?;
        // The failing (exiting) test: a `for` header only re-evaluates the
        // bound bookkeeping; a `while` header evaluates the condition.
        let exit_test = match stmts.get(&l.stmt).map(|s| &s.kind) {
            Some(StmtKind::For { .. }) => ctx.op_cost(OpClass::LoopOverhead),
            _ => node_cost[l.header],
        };
        let pre = pre_cost.get(&l.stmt).copied().unwrap_or(0);
        let total = pre
            .saturating_add(bound.saturating_mul(path))
            .saturating_add(exit_test);
        collapsed.insert(l.header, (total, l.exit));
    }

    // Top level: everything not strictly inside a top loop.
    let top_headers: HashSet<NodeId> = cfg.top_loops.iter().map(|&t| cfg.loops[t].header).collect();
    let strictly_inner: HashSet<NodeId> = cfg
        .top_loops
        .iter()
        .flat_map(|&t| cfg.loops[t].nodes.iter().copied())
        .filter(|n| !top_headers.contains(n))
        .collect();
    let in_level = |n: NodeId| !strictly_inner.contains(&n);
    let dist = level_distances(
        &cfg, &rpo, &node_cost, &collapsed, &back, cfg.entry, &in_level,
    );
    dist[cfg.exit].ok_or_else(|| WcetError::new("exit unreachable from entry"))
}

/// Longest-path distances from `from` over level nodes, treating collapsed
/// loop headers as super-nodes that jump to their exit. `dist[n]` includes
/// the cost of `n` itself (or its collapsed total).
fn level_distances(
    cfg: &Cfg,
    rpo: &[NodeId],
    node_cost: &[u64],
    collapsed: &BTreeMap<NodeId, (u64, NodeId)>,
    back: &HashSet<(NodeId, NodeId)>,
    from: NodeId,
    in_level: &dyn Fn(NodeId) -> bool,
) -> Vec<Option<u64>> {
    // `from` is never a collapsed header at its own level.
    let mut dist: Vec<Option<u64>> = vec![None; cfg.len()];
    let enter_cost = |n: NodeId| -> u64 { collapsed.get(&n).map_or(node_cost[n], |&(c, _)| c) };
    dist[from] = Some(node_cost[from]);
    for &n in rpo {
        if !in_level(n) && n != from {
            continue;
        }
        let Some(d) = dist[n] else { continue };
        // Successors: collapsed headers jump straight to their loop exit.
        let succs: Vec<NodeId> = if n != from && collapsed.contains_key(&n) {
            vec![collapsed[&n].1]
        } else {
            cfg.blocks[n]
                .succs
                .iter()
                .copied()
                .filter(|&s| !back.contains(&(n, s)))
                .collect()
        };
        for s in succs {
            if !in_level(s) {
                continue;
            }
            let cand = d.saturating_add(enter_cost(s));
            if dist[s].is_none_or(|cur| cand > cur) {
                dist[s] = Some(cand);
            }
        }
    }
    dist
}

fn index_stmts(f: &Function) -> BTreeMap<StmtId, &Stmt> {
    let mut m = BTreeMap::new();
    argo_ir::visit::walk_stmts(&f.body, &mut |s| {
        m.insert(s.id, s);
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::function_wcets;
    use crate::value::{loop_bounds, ValueCtx};
    use argo_adl::{CoreId, MemoryMap, Platform};
    use argo_ir::parse::parse_program;

    fn both_wcets(src: &str) -> (u64, u64) {
        let p = parse_program(src).unwrap();
        argo_ir::validate::validate(&p).unwrap();
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let bounds = loop_bounds(&p, "main", &ValueCtx::default()).unwrap();
        let fw = function_wcets(&ctx, &bounds).unwrap();
        let schema = fw["main"];
        let ipet = function_wcet_ipet(&ctx, &bounds, &fw, "main").unwrap();
        (schema, ipet)
    }

    #[test]
    fn agrees_with_schema_on_straight_line() {
        let (s, i) = both_wcets("void main() { int x; int y; x = 1; y = x * 3; }");
        assert_eq!(s, i);
    }

    #[test]
    fn agrees_with_schema_on_conditionals() {
        let (s, i) = both_wcets(
            "void main(bool c, real v) { real x; \
             if (c) { x = sqrt(v); } else { x = v + 1.0; } }",
        );
        assert_eq!(s, i);
    }

    #[test]
    fn agrees_with_schema_on_loops() {
        let (s, i) = both_wcets(
            "void main(real a[32]) { int k; \
             for (k=0;k<32;k=k+1) { a[k] = a[k] * 2.0; } }",
        );
        assert_eq!(s, i);
    }

    #[test]
    fn agrees_with_schema_on_nested_loops_with_branches() {
        let (s, i) = both_wcets(
            "void main(real m[8][8], bool flag) { int r; int c; \
             for (r=0;r<8;r=r+1) { \
               for (c=0;c<8;c=c+1) { \
                 if (flag) { m[r][c] = 1.0; } else { m[r][c] = m[r][c] + 0.5; } \
               } \
             } }",
        );
        assert_eq!(s, i);
    }

    #[test]
    fn agrees_with_schema_on_sequential_loops() {
        let (s, i) = both_wcets(
            "void main(real a[16], real b[16]) { int k; \
             for (k=0;k<16;k=k+1) { a[k] = 0.0; } \
             for (k=0;k<16;k=k+1) { b[k] = 1.0; } }",
        );
        assert_eq!(s, i);
    }

    #[test]
    fn agrees_with_schema_on_calls() {
        let (s, i) = both_wcets(
            "real square(real x) { return x * x; } \
             void main(real a[8]) { int k; \
             for (k=0;k<8;k=k+1) { a[k] = square(a[k]); } }",
        );
        assert_eq!(s, i);
    }

    #[test]
    fn agrees_on_while_loops() {
        let (s, i) = both_wcets(
            "void main() { int x; x = 0; #pragma bound 9\n \
             while (x < 9) { x = x + 1; } }",
        );
        assert_eq!(s, i);
    }

    #[test]
    fn early_return_is_bounded_by_full_path() {
        // IPET may be ≥ the true longest path but never below schema's
        // (which assumes no early exit). They agree here because both
        // take the full-loop path.
        let (s, i) = both_wcets(
            "int main(real a[16]) { int k; \
             for (k=0;k<16;k=k+1) { if (a[k] > 0.5) { return k; } } \
             return -1; }",
        );
        assert_eq!(s, i);
    }
}
