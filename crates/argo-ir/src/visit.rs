//! Read-only walkers over the AST.
//!
//! These helpers centralise the recursion patterns that the dependence
//! analysis, the HTG extractor and the WCET engines all need: visiting every
//! statement, every expression, and collecting read/write sets of variables.

use crate::ast::*;
use std::collections::BTreeSet;

/// Calls `f` on every statement of the block, in depth-first pre-order.
pub fn walk_stmts<'a>(b: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &b.stmts {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                walk_stmts(then_blk, f);
                walk_stmts(else_blk, f);
            }
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

/// Calls `f` on every expression reachable from the statement (its own
/// expressions plus, recursively, nested statements' expressions).
pub fn walk_exprs<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        StmtKind::Assign { target, value } => {
            if let LValue::ArrayElem { indices, .. } = target {
                for i in indices {
                    walk_expr(i, f);
                }
            }
            walk_expr(value, f);
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            walk_expr(cond, f);
            for st in &then_blk.stmts {
                walk_exprs(st, f);
            }
            for st in &else_blk.stmts {
                walk_exprs(st, f);
            }
        }
        StmtKind::For { lo, hi, body, .. } => {
            walk_expr(lo, f);
            walk_expr(hi, f);
            for st in &body.stmts {
                walk_exprs(st, f);
            }
        }
        StmtKind::While { cond, body, .. } => {
            walk_expr(cond, f);
            for st in &body.stmts {
                walk_exprs(st, f);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        StmtKind::Return { value } => {
            if let Some(e) = value {
                walk_expr(e, f);
            }
        }
    }
}

/// Calls `f` on `e` and all sub-expressions, pre-order.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::ArrayElem { indices, .. } => {
            for i in indices {
                walk_expr(i, f);
            }
        }
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => walk_expr(arg, f),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Call { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        _ => {}
    }
}

/// Variables read by an expression (array reads report the array name).
pub fn expr_reads(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk_expr(e, &mut |sub| match sub {
        Expr::Var(n) => {
            out.insert(n.clone());
        }
        Expr::ArrayElem { array, .. } => {
            out.insert(array.clone());
        }
        _ => {}
    });
    out
}

/// Read/write sets of a single statement (without descending into nested
/// statements for writes vs reads asymmetry: nested statements ARE included,
/// so this is the footprint of the whole subtree rooted at `s`).
///
/// For call statements, every array argument is conservatively counted as
/// both read and written; scalar arguments are reads.
pub fn stmt_rw(s: &Stmt) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    collect_rw(s, &mut reads, &mut writes);
    (reads, writes)
}

fn collect_rw(s: &Stmt, reads: &mut BTreeSet<String>, writes: &mut BTreeSet<String>) {
    match &s.kind {
        StmtKind::Decl { name, init, .. } => {
            if let Some(e) = init {
                reads.extend(expr_reads(e));
            }
            writes.insert(name.clone());
        }
        StmtKind::Assign { target, value } => {
            reads.extend(expr_reads(value));
            if let LValue::ArrayElem { indices, .. } = target {
                for i in indices {
                    reads.extend(expr_reads(i));
                }
            }
            writes.insert(target.base().to_string());
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            reads.extend(expr_reads(cond));
            for st in &then_blk.stmts {
                collect_rw(st, reads, writes);
            }
            for st in &else_blk.stmts {
                collect_rw(st, reads, writes);
            }
        }
        StmtKind::For {
            var, lo, hi, body, ..
        } => {
            reads.extend(expr_reads(lo));
            reads.extend(expr_reads(hi));
            writes.insert(var.clone());
            reads.insert(var.clone());
            for st in &body.stmts {
                collect_rw(st, reads, writes);
            }
        }
        StmtKind::While { cond, body, .. } => {
            reads.extend(expr_reads(cond));
            for st in &body.stmts {
                collect_rw(st, reads, writes);
            }
        }
        StmtKind::Call { args, .. } => {
            // Conservative: array args may be read and written by the callee.
            for a in args {
                reads.extend(expr_reads(a));
                if let Expr::Var(n) = a {
                    writes.insert(n.clone());
                }
            }
        }
        StmtKind::Return { value } => {
            if let Some(e) = value {
                reads.extend(expr_reads(e));
            }
        }
    }
}

/// Live-in reads of a statement sequence: variables that may be read
/// before being definitely written, walking the sequence in order.
///
/// This is the flow-*sensitive* counterpart of [`stmt_rw`]'s read set and
/// is what task-level dependence analysis needs: a `for` loop that begins
/// by assigning its induction variable does **not** read the variable's
/// incoming value, so reusing `i` across loops must not create a false
/// flow dependence.
///
/// Kill rules are conservative: only unconditional scalar assignments at
/// the current nesting level kill; array writes never kill (partial);
/// branches kill only what both arms kill; loop bodies are analysed as a
/// single iteration (sound: later iterations read values written within
/// the task itself).
pub fn live_in_reads<'a>(stmts: impl IntoIterator<Item = &'a Stmt>) -> BTreeSet<String> {
    let mut live = BTreeSet::new();
    let mut killed = BTreeSet::new();
    for s in stmts {
        live_stmt(s, &mut killed, &mut live);
    }
    live
}

fn live_expr(e: &Expr, killed: &BTreeSet<String>, live: &mut BTreeSet<String>) {
    for v in expr_reads(e) {
        if !killed.contains(&v) {
            live.insert(v);
        }
    }
}

fn live_stmt(s: &Stmt, killed: &mut BTreeSet<String>, live: &mut BTreeSet<String>) {
    match &s.kind {
        StmtKind::Decl { name, init, .. } => {
            if let Some(e) = init {
                live_expr(e, killed, live);
                // Only an initialised declaration defines a value.
                killed.insert(name.clone());
            }
        }
        StmtKind::Assign { target, value } => {
            live_expr(value, killed, live);
            match target {
                LValue::Var(n) => {
                    killed.insert(n.clone());
                }
                LValue::ArrayElem { array, indices } => {
                    for i in indices {
                        live_expr(i, killed, live);
                    }
                    // Partial write: does not kill, and the write target
                    // array itself is not a *read*.
                    let _ = array;
                }
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            live_expr(cond, killed, live);
            let mut k_then = killed.clone();
            let mut k_else = killed.clone();
            for st in &then_blk.stmts {
                live_stmt(st, &mut k_then, live);
            }
            for st in &else_blk.stmts {
                live_stmt(st, &mut k_else, live);
            }
            // Only definite-on-both-paths writes kill.
            *killed = k_then.intersection(&k_else).cloned().collect();
        }
        StmtKind::For {
            var, lo, hi, body, ..
        } => {
            live_expr(lo, killed, live);
            live_expr(hi, killed, live);
            // The induction variable is assigned before any body read.
            killed.insert(var.clone());
            let mut k_body = killed.clone();
            for st in &body.stmts {
                live_stmt(st, &mut k_body, live);
            }
            // Body may not execute (zero trip count): keep outer kills.
        }
        StmtKind::While { cond, body, .. } => {
            live_expr(cond, killed, live);
            let mut k_body = killed.clone();
            for st in &body.stmts {
                live_stmt(st, &mut k_body, live);
            }
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                live_expr(a, killed, live);
            }
            // Callee may write array args (partial): no kills.
        }
        StmtKind::Return { value } => {
            if let Some(e) = value {
                live_expr(e, killed, live);
            }
        }
    }
}

/// Names of all functions called anywhere under statement `s`, by call
/// statements and call expressions alike. Each nested statement is
/// visited once, and each name is copied once.
pub fn called_functions(s: &Stmt) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut add = |name: &String| {
        if !out.contains(name) {
            out.insert(name.clone());
        }
    };
    // `walk_exprs` already reaches the expressions of nested statements;
    // only call *statements* need the statement walk.
    walk_exprs(s, &mut |e| {
        if let Expr::Call { name, .. } = e {
            add(name);
        }
    });
    let mut call_stmt = |st: &Stmt| {
        if let StmtKind::Call { name, .. } = &st.kind {
            add(name);
        }
    };
    call_stmt(s);
    match &s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            walk_stmts(then_blk, &mut call_stmt);
            walk_stmts(else_blk, &mut call_stmt);
        }
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
            walk_stmts(body, &mut call_stmt)
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn first_fn(src: &str) -> Function {
        parse_program(src).unwrap().functions.remove(0)
    }

    #[test]
    fn walk_stmts_visits_nested() {
        let f = first_fn("void f(int n) { int i; for (i=0;i<n;i=i+1) { if (i<2) { i = i; } } }");
        let mut count = 0;
        walk_stmts(&f.body, &mut |_| count += 1);
        assert_eq!(count, 4); // decl, for, if, assign
    }

    #[test]
    fn rw_sets_of_assignment() {
        let f = first_fn("void f(real a[8], int i) { a[i] = a[i+1] * 2.0; }");
        let (r, w) = stmt_rw(&f.body.stmts[0]);
        assert!(r.contains("a") && r.contains("i"));
        assert_eq!(w.iter().collect::<Vec<_>>(), vec!["a"]);
    }

    #[test]
    fn rw_sets_of_loop_include_induction_var() {
        let f =
            first_fn("void f(int n) { int i; int s; s = 0; for (i=0;i<n;i=i+1) { s = s + i; } }");
        let (r, w) = stmt_rw(&f.body.stmts[3]);
        assert!(r.contains("n") && r.contains("i") && r.contains("s"));
        assert!(w.contains("i") && w.contains("s"));
    }

    #[test]
    fn call_args_conservative_rw() {
        let f = first_fn("void f(real buf[4]) { g(buf, 3); }");
        let (r, w) = stmt_rw(&f.body.stmts[0]);
        assert!(r.contains("buf"));
        assert!(w.contains("buf"));
    }

    #[test]
    fn live_in_excludes_killed_scalars() {
        let f =
            first_fn("void f(int n) { int i; int s; s = 0; for (i=0;i<n;i=i+1) { s = s + i; } }");
        let live = live_in_reads(&f.body.stmts);
        assert!(live.contains("n"));
        assert!(!live.contains("i"), "induction var assigned before read");
        assert!(!live.contains("s"), "s = 0 kills before the loop reads it");
    }

    #[test]
    fn live_in_includes_read_before_write() {
        let f = first_fn("void f(int x) { int y; y = x + 1; x = 0; }");
        let live = live_in_reads(&f.body.stmts);
        assert!(live.contains("x"));
        assert!(!live.contains("y"));
    }

    #[test]
    fn branch_kills_require_both_arms() {
        let f = first_fn("void f(bool c) { int x; if (c) { x = 1; } else { } int y; y = x; }");
        let live = live_in_reads(&f.body.stmts);
        assert!(live.contains("x"), "x only written on one path");
        let f2 =
            first_fn("void f(bool c) { int x; if (c) { x = 1; } else { x = 2; } int y; y = x; }");
        let live2 = live_in_reads(&f2.body.stmts);
        assert!(!live2.contains("x"), "x written on both paths");
    }

    #[test]
    fn array_writes_never_kill() {
        let f = first_fn("void f(real a[4]) { a[0] = 1.0; real x; x = a[1]; }");
        let live = live_in_reads(&f.body.stmts);
        assert!(live.contains("a"), "partial write does not kill the array");
    }

    #[test]
    fn finds_called_functions_in_exprs() {
        let f = first_fn("void f() { int x; x = g(1) + h(2); k(x); }");
        let calls: BTreeSet<String> = f.body.stmts.iter().flat_map(called_functions).collect();
        assert_eq!(calls.into_iter().collect::<Vec<_>>(), vec!["g", "h", "k"]);
        let f = first_fn(
            "void f(bool c, real a[4]) { int i; for (i = 0; i < 4; i = i + 1) { \
             if (c) { p(a); } else { #pragma bound 2\n\
             while (c) { a[i] = q(a[i]); } } } }",
        );
        let calls = called_functions(&f.body.stmts[1]);
        assert_eq!(calls.into_iter().collect::<Vec<_>>(), vec!["p", "q"]);
    }
}
