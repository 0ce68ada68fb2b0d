//! # argo-transform — predictability-enhancing program transformations
//!
//! The GeCoS role of the tool flow: "the IR is used as input by the GeCoS
//! source-to-source transformation framework, which performs several
//! predictability enhancing program transformations (scratchpad management
//! for data, predictability oriented task parallelism extraction through
//! loop transformations, etc.)" (paper § II-B).
//!
//! Transformation catalogue:
//!
//! * [`fold`] — constant folding (enables static loop bounds);
//! * [`chunk`] — DOALL/reduction loop chunking across cores: the
//!   transformation that actually *extracts task parallelism* from loops;
//! * [`spm`] — WCET-directed scratchpad allocation (knapsack; ref \[6\]).
//!
//! The `argo-core` frontend runs [`fold::fold_program`], then (when
//! chunking is on) [`chunk::chunk_all_parallel_loops`] and a second
//! fold, and renumbers and re-validates the program afterwards.

pub mod chunk;
pub mod fold;
pub mod spm;

use argo_ir::ast::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error from a transformation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformError {
    /// Human-readable message.
    pub msg: String,
}

impl TransformError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> TransformError {
        TransformError { msg: msg.into() }
    }
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transform error: {}", self.msg)
    }
}

impl std::error::Error for TransformError {}

/// All variable names already used in a function (params + decls + loop
/// vars); used to generate fresh names.
pub fn taken_names(f: &Function) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
    argo_ir::visit::walk_stmts(&f.body, &mut |s| match &s.kind {
        StmtKind::Decl { name, .. } => {
            names.insert(name.clone());
        }
        StmtKind::For { var, .. } => {
            names.insert(var.clone());
        }
        _ => {}
    });
    names
}

/// Generates a fresh name with the given base, registering it in `taken`.
pub fn fresh_name(taken: &mut BTreeSet<String>, base: &str) -> String {
    if !taken.contains(base) {
        taken.insert(base.to_string());
        return base.to_string();
    }
    for i in 0.. {
        let cand = format!("{base}_{i}");
        if !taken.contains(&cand) {
            taken.insert(cand.clone());
            return cand;
        }
    }
    unreachable!()
}

/// Substitutes every read of scalar `var` in `e` with `replacement`.
pub fn subst_var(e: &Expr, var: &str, replacement: &Expr) -> Expr {
    match e {
        Expr::Var(n) if n == var => replacement.clone(),
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) | Expr::Var(_) => e.clone(),
        Expr::ArrayElem { array, indices } => Expr::ArrayElem {
            array: array.clone(),
            indices: indices
                .iter()
                .map(|i| subst_var(i, var, replacement))
                .collect(),
        },
        Expr::Unary { op, arg } => Expr::Unary {
            op: *op,
            arg: Box::new(subst_var(arg, var, replacement)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(subst_var(lhs, var, replacement)),
            rhs: Box::new(subst_var(rhs, var, replacement)),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| subst_var(a, var, replacement))
                .collect(),
        },
        Expr::Cast { to, arg } => Expr::Cast {
            to: *to,
            arg: Box::new(subst_var(arg, var, replacement)),
        },
    }
}

/// The old→new name map of [`rename_stmt`] and [`rename_expr`].
pub type Renames<'a> = BTreeMap<&'a str, String>;

/// Renames every occurrence of each variable in `renames` (reads **and**
/// writes, declarations and loop headers, through the whole subtree —
/// renaming is not substitution, so shadowing does not stop it) to its
/// new name, in one pass. A new name is not renamed again. Used by loop
/// chunking to give each copy private locals.
pub fn rename_stmt(s: &Stmt, renames: &Renames<'_>) -> Stmt {
    let rn = |n: &String| renames.get(n.as_str()).unwrap_or(n).clone();
    let re = |e: &Expr| rename_expr(e, renames);
    let kind = match &s.kind {
        StmtKind::Decl { name, ty, init } => StmtKind::Decl {
            name: rn(name),
            ty: ty.clone(),
            init: init.as_ref().map(&re),
        },
        StmtKind::Assign { target, value } => StmtKind::Assign {
            target: match target {
                LValue::Var(n) => LValue::Var(rn(n)),
                LValue::ArrayElem { array, indices } => LValue::ArrayElem {
                    array: rn(array),
                    indices: indices.iter().map(&re).collect(),
                },
            },
            value: re(value),
        },
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => StmtKind::If {
            cond: re(cond),
            then_blk: rename_block(then_blk, renames),
            else_blk: rename_block(else_blk, renames),
        },
        StmtKind::For {
            var,
            lo,
            hi,
            step,
            body,
        } => StmtKind::For {
            var: rn(var),
            lo: re(lo),
            hi: re(hi),
            step: *step,
            body: rename_block(body, renames),
        },
        StmtKind::While { cond, bound, body } => StmtKind::While {
            cond: re(cond),
            bound: *bound,
            body: rename_block(body, renames),
        },
        StmtKind::Call { name, args } => StmtKind::Call {
            name: name.clone(),
            args: args.iter().map(&re).collect(),
        },
        StmtKind::Return { value } => StmtKind::Return {
            value: value.as_ref().map(&re),
        },
    };
    Stmt { id: s.id, kind }
}

fn rename_block(b: &Block, renames: &Renames<'_>) -> Block {
    Block::of(b.stmts.iter().map(|s| rename_stmt(s, renames)).collect())
}

/// Renames each variable in `renames` in an expression, in one pass —
/// both scalar reads and array bases (unlike [`subst_var`], which
/// substitutes scalar reads only).
pub fn rename_expr(e: &Expr, renames: &Renames<'_>) -> Expr {
    let rn = |n: &String| renames.get(n.as_str()).unwrap_or(n).clone();
    match e {
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) => e.clone(),
        Expr::Var(n) => Expr::Var(rn(n)),
        Expr::ArrayElem { array, indices } => Expr::ArrayElem {
            array: rn(array),
            indices: indices.iter().map(|i| rename_expr(i, renames)).collect(),
        },
        Expr::Unary { op, arg } => Expr::Unary {
            op: *op,
            arg: Box::new(rename_expr(arg, renames)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rename_expr(lhs, renames)),
            rhs: Box::new(rename_expr(rhs, renames)),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| rename_expr(a, renames)).collect(),
        },
        Expr::Cast { to, arg } => Expr::Cast {
            to: *to,
            arg: Box::new(rename_expr(arg, renames)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::parse::{parse_expr, parse_program};
    use argo_ir::printer::print_expr;

    #[test]
    fn fresh_names_avoid_collisions() {
        let mut taken: BTreeSet<String> = ["i".to_string(), "i_0".to_string()].into();
        assert_eq!(fresh_name(&mut taken, "j"), "j");
        assert_eq!(fresh_name(&mut taken, "i"), "i_1");
        assert_eq!(fresh_name(&mut taken, "i"), "i_2");
    }

    #[test]
    fn subst_replaces_reads_only() {
        let e = parse_expr("a[i] + i * 2").unwrap();
        let r = subst_var(&e, "i", &Expr::int(5));
        assert_eq!(print_expr(&r), "(a[5] + (5 * 2))");
    }

    #[test]
    fn rename_touches_reads_and_writes() {
        let p = parse_program("void f() { int s; s = 0; s = s + 1; }").unwrap();
        let renames = Renames::from([("s", "s_p".to_string())]);
        let s2 = rename_stmt(&p.functions[0].body.stmts[2], &renames);
        match &s2.kind {
            StmtKind::Assign {
                target: LValue::Var(n),
                value,
            } => {
                assert_eq!(n, "s_p");
                assert_eq!(argo_ir::printer::print_expr(value), "(s_p + 1)");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rename_is_one_pass() {
        // `a → b` and `b → c` at once swap nothing into `c` twice: the
        // `b` that `a` became stays `b`.
        let e = parse_expr("a[b] + b * a").unwrap();
        let renames = Renames::from([("a", "b".to_string()), ("b", "c".to_string())]);
        assert_eq!(print_expr(&rename_expr(&e, &renames)), "(b[c] + (c * b))");
    }

    #[test]
    fn taken_names_include_everything() {
        let p = parse_program(
            "void f(int n, real a[4]) { int i; for (i=0;i<n;i=i+1) { real t; t = 0.0; } }",
        )
        .unwrap();
        let names = taken_names(&p.functions[0]);
        for n in ["n", "a", "i", "t"] {
            assert!(names.contains(n));
        }
    }
}
