//! Constant folding.
//!
//! Folds literal subexpressions bottom-up and applies safe algebraic
//! identities (`x+0`, `x*1`, `x*0` for ints). Folding loop bounds to
//! literals is what turns `for (i = 0; i < 4 * 16; …)` into a loop the
//! CFG can bound statically — a predictability enabler, not a speed
//! optimisation.

use argo_ir::ast::*;

/// Folds every function body of `program` in place; returns `true` if
/// anything changed. Statement ids are left as they were: callers
/// renumber once after their last structural pass.
pub fn fold_program(program: &mut Program) -> bool {
    let mut changed = false;
    for f in &mut program.functions {
        changed |= fold_block(&mut f.body);
    }
    changed
}

fn fold_block(b: &mut Block) -> bool {
    let mut changed = false;
    for s in &mut b.stmts {
        changed |= fold_stmt(s);
    }
    changed
}

fn fold_stmt(s: &mut Stmt) -> bool {
    match &mut s.kind {
        StmtKind::Decl { init, .. } => init.as_mut().is_some_and(fold_expr),
        StmtKind::Assign { target, value } => {
            let mut c = fold_expr(value);
            if let LValue::ArrayElem { indices, .. } = target {
                for i in indices {
                    c |= fold_expr(i);
                }
            }
            c
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            let mut c = fold_expr(cond);
            c |= fold_block(then_blk);
            c |= fold_block(else_blk);
            c
        }
        StmtKind::For { lo, hi, body, .. } => {
            let mut c = fold_expr(lo);
            c |= fold_expr(hi);
            c |= fold_block(body);
            c
        }
        StmtKind::While { cond, body, .. } => {
            let mut c = fold_expr(cond);
            c |= fold_block(body);
            c
        }
        StmtKind::Call { args, .. } => {
            let mut c = false;
            for a in args {
                c |= fold_expr(a);
            }
            c
        }
        StmtKind::Return { value } => value.as_mut().is_some_and(fold_expr),
    }
}

/// Folds an expression in place; returns `true` if anything changed.
pub fn fold_expr(e: &mut Expr) -> bool {
    let mut changed = false;
    if let Expr::ArrayElem { indices, .. } = e {
        for i in indices {
            changed |= fold_expr(i);
        }
        return changed;
    }
    if let Expr::Unary { arg, .. } | Expr::Cast { arg, .. } = e {
        changed |= fold_expr(arg);
    }
    if let Expr::Binary { lhs, rhs, .. } = e {
        changed |= fold_expr(lhs);
        changed |= fold_expr(rhs);
    }
    if let Expr::Call { args, .. } = e {
        for a in args {
            changed |= fold_expr(a);
        }
    }
    if let Some(folded) = try_fold(e) {
        *e = folded;
        return true;
    }
    changed
}

fn try_fold(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Unary { op: UnOp::Neg, arg } => match **arg {
            Expr::IntLit(v) => Some(Expr::IntLit(v.wrapping_neg())),
            Expr::RealLit(v) => Some(Expr::RealLit(-v)),
            _ => None,
        },
        Expr::Unary { op: UnOp::Not, arg } => match **arg {
            Expr::BoolLit(v) => Some(Expr::BoolLit(!v)),
            _ => None,
        },
        Expr::Cast { to, arg } => match (&**arg, to) {
            (Expr::IntLit(v), argo_ir::Scalar::Real) => Some(Expr::RealLit(*v as f64)),
            (Expr::IntLit(v), argo_ir::Scalar::Int) => Some(Expr::IntLit(*v)),
            (Expr::RealLit(v), argo_ir::Scalar::Real) => Some(Expr::RealLit(*v)),
            _ => None,
        },
        Expr::Binary { op, lhs, rhs } => {
            // Literal-literal folding.
            if let (Expr::IntLit(a), Expr::IntLit(b)) = (&**lhs, &**rhs) {
                return fold_int(*op, *a, *b);
            }
            if let (Expr::RealLit(a), Expr::RealLit(b)) = (&**lhs, &**rhs) {
                return fold_real(*op, *a, *b);
            }
            if let (Expr::BoolLit(a), Expr::BoolLit(b)) = (&**lhs, &**rhs) {
                return fold_bool(*op, *a, *b);
            }
            // Identities (int only: float identities are unsafe for NaN).
            match (op, &**lhs, &**rhs) {
                (BinOp::Add, x, Expr::IntLit(0)) | (BinOp::Add, Expr::IntLit(0), x) => {
                    Some(x.clone())
                }
                (BinOp::Sub, x, Expr::IntLit(0)) => Some(x.clone()),
                (BinOp::Mul, x, Expr::IntLit(1)) | (BinOp::Mul, Expr::IntLit(1), x) => {
                    Some(x.clone())
                }
                (BinOp::Mul, _, Expr::IntLit(0)) | (BinOp::Mul, Expr::IntLit(0), _) => {
                    // Mini-C expressions are side-effect free, so dropping
                    // the other operand is safe.
                    Some(Expr::IntLit(0))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn fold_int(op: BinOp, a: i64, b: i64) -> Option<Expr> {
    Some(match op {
        BinOp::Add => Expr::IntLit(a.wrapping_add(b)),
        BinOp::Sub => Expr::IntLit(a.wrapping_sub(b)),
        BinOp::Mul => Expr::IntLit(a.wrapping_mul(b)),
        BinOp::Div => {
            if b == 0 {
                return None; // preserve runtime error
            }
            Expr::IntLit(a.wrapping_div(b))
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            Expr::IntLit(a.wrapping_rem(b))
        }
        BinOp::Eq => Expr::BoolLit(a == b),
        BinOp::Ne => Expr::BoolLit(a != b),
        BinOp::Lt => Expr::BoolLit(a < b),
        BinOp::Le => Expr::BoolLit(a <= b),
        BinOp::Gt => Expr::BoolLit(a > b),
        BinOp::Ge => Expr::BoolLit(a >= b),
        BinOp::And | BinOp::Or => return None,
    })
}

fn fold_real(op: BinOp, a: f64, b: f64) -> Option<Expr> {
    Some(match op {
        BinOp::Add => Expr::RealLit(a + b),
        BinOp::Sub => Expr::RealLit(a - b),
        BinOp::Mul => Expr::RealLit(a * b),
        BinOp::Div => Expr::RealLit(a / b),
        BinOp::Eq => Expr::BoolLit(a == b),
        BinOp::Ne => Expr::BoolLit(a != b),
        BinOp::Lt => Expr::BoolLit(a < b),
        BinOp::Le => Expr::BoolLit(a <= b),
        BinOp::Gt => Expr::BoolLit(a > b),
        BinOp::Ge => Expr::BoolLit(a >= b),
        _ => return None,
    })
}

fn fold_bool(op: BinOp, a: bool, b: bool) -> Option<Expr> {
    Some(match op {
        BinOp::And => Expr::BoolLit(a && b),
        BinOp::Or => Expr::BoolLit(a || b),
        BinOp::Eq => Expr::BoolLit(a == b),
        BinOp::Ne => Expr::BoolLit(a != b),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::parse::{parse_expr, parse_program};
    use argo_ir::printer::print_expr;

    fn fold_str(src: &str) -> String {
        let mut e = parse_expr(src).unwrap();
        fold_expr(&mut e);
        print_expr(&e)
    }

    #[test]
    fn folds_arithmetic() {
        assert_eq!(fold_str("1 + 2 * 3"), "7");
        assert_eq!(fold_str("4 * 16"), "64");
        assert_eq!(fold_str("10 / 3"), "3");
        assert_eq!(fold_str("1.5 * 2.0"), "3.0");
    }

    #[test]
    fn folds_comparisons_and_logic() {
        assert_eq!(fold_str("3 < 4"), "true");
        assert_eq!(fold_str("(1 == 2) || (3 <= 3)"), "true");
        assert_eq!(fold_str("!(1 < 2)"), "false");
    }

    #[test]
    fn applies_identities() {
        assert_eq!(fold_str("x + 0"), "x");
        assert_eq!(fold_str("1 * y"), "y");
        assert_eq!(fold_str("z * 0"), "0");
        assert_eq!(fold_str("x - 0"), "x");
    }

    #[test]
    fn preserves_division_by_zero() {
        assert_eq!(fold_str("1 / 0"), "(1 / 0)");
        assert_eq!(fold_str("1 % 0"), "(1 % 0)");
    }

    #[test]
    fn does_not_fold_float_identities() {
        // x + 0.0 must not fold: x could be -0.0 or NaN semantics-bearing.
        assert_eq!(fold_str("x + 0.0"), "(x + 0.0)");
    }

    #[test]
    fn folds_loop_bounds_in_program() {
        let mut p = parse_program(
            "void f(real a[64]) { int i; for (i = 0; i < 4 * 16; i = i + 1) { a[i] = 0.0; } }",
        )
        .unwrap();
        assert!(fold_program(&mut p));
        match &p.functions[0].body.stmts[1].kind {
            StmtKind::For { hi, .. } => assert_eq!(hi.as_int_const(), Some(64)),
            _ => panic!(),
        }
        // Second run: fixpoint.
        assert!(!fold_program(&mut p));
    }

    #[test]
    fn folds_casts() {
        assert_eq!(fold_str("(real) 3"), "3.0");
        let mut e = parse_expr("(real) 3").unwrap();
        fold_expr(&mut e);
        assert_eq!(e, Expr::RealLit(3.0));
    }

    #[test]
    fn folds_nested_neg() {
        assert_eq!(fold_str("-(2 + 3)"), "-5");
    }
}
