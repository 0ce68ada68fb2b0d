//! Worst-case shared-resource access counting.
//!
//! Every HTG task node carries "additional information on possible shared
//! resource accesses (list of shared resources, and worst case number of
//! accesses)" (§ II-B). [`crate::extract::extract`] counts them as it
//! creates each task: per variable, an upper bound on the number of
//! accesses, found by walking the task's statements and multiplying by
//! enclosing loop bounds. Conditionals contribute the per-variable
//! *maximum* over their branches.
//!
//! Loop bounds come from three sources, in priority order: the loop-bound
//! map of the value analysis in `argo-wcet`, constant trip counts, and 1.
//! On the pipeline path the value analysis bounds every loop the counter
//! can reach, or the frontend fails.

use argo_ir::ast::*;
use argo_ir::StmtId;
use std::collections::BTreeMap;

/// Per-variable access counts.
pub type AccessCounts = BTreeMap<String, u64>;

/// Loop bounds by loop statement id.
type Bounds = BTreeMap<StmtId, u64>;

/// Worst-case access counts of one task's statements.
pub(crate) fn count_task(stmts: &[&Stmt], program: &Program, bounds: &Bounds) -> AccessCounts {
    let mut counts = AccessCounts::new();
    for s in stmts {
        count_stmt(s, 1, program, bounds, &mut counts);
    }
    counts
}

/// Counts worst-case accesses of a single statement subtree with an
/// iteration multiplier.
fn count_stmt(s: &Stmt, mult: u64, program: &Program, bounds: &Bounds, out: &mut AccessCounts) {
    match &s.kind {
        StmtKind::Decl { name, init, .. } => {
            if let Some(e) = init {
                count_expr(e, mult, program, bounds, out);
                bump(out, name, mult);
            }
        }
        StmtKind::Assign { target, value } => {
            count_expr(value, mult, program, bounds, out);
            match target {
                LValue::Var(n) => bump(out, n, mult),
                LValue::ArrayElem { array, indices } => {
                    for i in indices {
                        count_expr(i, mult, program, bounds, out);
                    }
                    bump(out, array, mult);
                }
            }
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            count_expr(cond, mult, program, bounds, out);
            let mut then_counts = AccessCounts::new();
            for st in &then_blk.stmts {
                count_stmt(st, mult, program, bounds, &mut then_counts);
            }
            let mut else_counts = AccessCounts::new();
            for st in &else_blk.stmts {
                count_stmt(st, mult, program, bounds, &mut else_counts);
            }
            // Worst case per variable: max over the union of both
            // branches' variables.
            for (k, v) in then_counts {
                let e = else_counts.remove(&k).unwrap_or(0);
                bump(out, &k, v.max(e));
            }
            for (k, v) in else_counts {
                bump(out, &k, v);
            }
        }
        StmtKind::For {
            var, lo, hi, body, ..
        } => {
            count_expr(lo, mult, program, bounds, out);
            count_expr(hi, mult, program, bounds, out);
            let b = loop_bound(s, bounds);
            bump(out, var, mult * (b + 1)); // induction variable updates
            for st in &body.stmts {
                count_stmt(st, mult * b, program, bounds, out);
            }
        }
        StmtKind::While { cond, body, bound } => {
            let b = bounds.get(&s.id).copied().unwrap_or(*bound);
            count_expr(cond, mult * (b + 1), program, bounds, out);
            for st in &body.stmts {
                count_stmt(st, mult * b, program, bounds, out);
            }
        }
        StmtKind::Call { name, args } => {
            count_call(name, args, mult, program, bounds, out);
        }
        StmtKind::Return { value } => {
            if let Some(e) = value {
                count_expr(e, mult, program, bounds, out);
            }
        }
    }
}

fn count_expr(e: &Expr, mult: u64, program: &Program, bounds: &Bounds, out: &mut AccessCounts) {
    match e {
        Expr::Var(n) => bump(out, n, mult),
        Expr::ArrayElem { array, indices } => {
            for i in indices {
                count_expr(i, mult, program, bounds, out);
            }
            bump(out, array, mult);
        }
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => {
            count_expr(arg, mult, program, bounds, out)
        }
        Expr::Binary { lhs, rhs, .. } => {
            count_expr(lhs, mult, program, bounds, out);
            count_expr(rhs, mult, program, bounds, out);
        }
        Expr::Call { name, args } => count_call(name, args, mult, program, bounds, out),
        _ => {}
    }
}

fn count_call(
    name: &str,
    args: &[Expr],
    mult: u64,
    program: &Program,
    bounds: &Bounds,
    out: &mut AccessCounts,
) {
    if argo_ir::intrinsics::is_intrinsic(name) {
        for a in args {
            count_expr(a, mult, program, bounds, out);
        }
        return;
    }
    let Some(callee) = program.function(name) else {
        for a in args {
            count_expr(a, mult, program, bounds, out);
        }
        return;
    };
    // Scalar arguments are evaluated (read); array arguments are passed
    // by reference — no element access happens at the call site itself.
    for (a, p) in args.iter().zip(&callee.params) {
        if !p.ty.is_array() {
            count_expr(a, mult, program, bounds, out);
        }
    }
    // Count the callee body with array parameters renamed to the caller's
    // argument arrays (arrays alias across the call).
    let mut inner = AccessCounts::new();
    for st in &callee.body.stmts {
        count_stmt(st, mult, program, bounds, &mut inner);
    }
    let mut rename: BTreeMap<&str, &str> = BTreeMap::new();
    for (p, a) in callee.params.iter().zip(args) {
        if p.ty.is_array() {
            if let Expr::Var(arg_name) = a {
                rename.insert(p.name.as_str(), arg_name.as_str());
            }
        }
    }
    for (var, n) in inner {
        match rename.get(var.as_str()) {
            Some(outer) => bump(out, outer, n),
            // Callee-local variables are that core's locals; attribute
            // them under a scoped name so they never collide with caller
            // variables.
            None => bump(out, &format!("{name}::{var}"), n),
        }
    }
}

fn loop_bound(s: &Stmt, bounds: &Bounds) -> u64 {
    if let Some(b) = bounds.get(&s.id) {
        return *b;
    }
    if let StmtKind::For { lo, hi, step, .. } = &s.kind {
        if let (Some(l), Some(h)) = (lo.as_int_const(), hi.as_int_const()) {
            if h > l {
                return ((h - l) as u64).div_ceil(*step as u64);
            }
            return 0;
        }
    }
    1
}

fn bump(out: &mut AccessCounts, var: &str, n: u64) {
    *out.entry(var.to_string()).or_insert(0) += n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract::extract, Granularity};
    use argo_ir::parse::parse_program;

    fn counts_of(src: &str, task_name_frag: &str) -> AccessCounts {
        let p = parse_program(src).unwrap();
        task_counts(&p, &Bounds::new(), task_name_frag)
    }

    fn task_counts(p: &Program, bounds: &Bounds, task_name_frag: &str) -> AccessCounts {
        let h = extract(p, "main", Granularity::Loop, bounds).unwrap();
        h.tasks
            .iter()
            .find(|t| t.name.contains(task_name_frag))
            .unwrap_or_else(|| panic!("no task matching `{task_name_frag}`"))
            .access_counts
            .clone()
    }

    #[test]
    fn loop_multiplies_accesses() {
        let c = counts_of(
            "void main(real a[64], real b[64]) { int i; \
             for (i=0;i<64;i=i+1) { b[i] = a[i] * 2.0; } }",
            "for(i)",
        );
        assert_eq!(c["a"], 64);
        assert_eq!(c["b"], 64);
        // i: written 65 times (64 iterations + final), read in subscripts.
        assert!(c["i"] >= 64);
    }

    #[test]
    fn nested_loops_multiply() {
        let c = counts_of(
            "void main(real m[8][8]) { int i; int j; \
             for (i=0;i<8;i=i+1) { for (j=0;j<8;j=j+1) { m[i][j] = 0.0; } } }",
            "for(i)",
        );
        assert_eq!(c["m"], 64);
    }

    #[test]
    fn branches_take_per_var_max() {
        let src = "void main(real a[16], real b[16], int k) { int i; \
             for (i=0;i<16;i=i+1) { \
               if (k > 0) { a[i] = 1.0; a[i] = 2.0; } else { b[i] = 1.0; } } }";
        let c = counts_of(src, "for(i)");
        // Worst case: then-branch touches a twice per iteration, else
        // touches b once; per-var max gives both.
        assert_eq!(c["a"], 32);
        assert_eq!(c["b"], 16);
    }

    #[test]
    fn else_branch_counts_variables_accessed_before_the_branch() {
        let src = "void main(real a[16], real b[16], int k) { int i; real y; \
             for (i=0;i<16;i=i+1) { \
               y = a[i]; if (k > 0) { b[i] = 1.0; } else { b[i] = a[i]; } } }";
        let c = counts_of(src, "for(i)");
        // `a` is read once before the branch and once in the else branch.
        assert_eq!(c["a"], 32);
        assert_eq!(c["b"], 16);
    }

    #[test]
    fn while_uses_declared_bound() {
        let c = counts_of(
            "void main(real a[4]) { real x; x = 100.0; int g; g = 0; \
             #pragma bound 10\n while (x > 1.0) { x = x / 2.0; a[0] = x; g = g + 1; } }",
            "while",
        );
        assert_eq!(c["a"], 10);
    }

    #[test]
    fn provided_bounds_override_defaults() {
        let src = "void main(real a[64], int n) { int i; \
             for (i=0;i<n;i=i+1) { a[i] = 0.0; } }";
        let p = parse_program(src).unwrap();
        let loop_sid = p
            .function("main")
            .unwrap()
            .body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::For { .. }))
            .unwrap()
            .id;
        let c = task_counts(&p, &Bounds::from([(loop_sid, 40)]), "for");
        assert_eq!(c["a"], 40);
    }

    #[test]
    fn calls_attribute_accesses_to_caller_arrays() {
        let c = counts_of(
            "void fill(real buf[32]) { int i; \
               for (i=0;i<32;i=i+1) { buf[i] = 0.0; } } \
             void main(real data[32]) { fill(data); }",
            "call(fill)",
        );
        assert_eq!(c["data"], 32);
        // Callee-local loop var is scoped.
        assert!(c.contains_key("fill::i"));
    }
}
