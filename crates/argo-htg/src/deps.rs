//! Dependence analysis: loop parallelism and array access ranges.
//!
//! Two analyses live here:
//!
//! 1. **Loop parallelism classification** — the affine-subscript DOALL test
//!    plus reduction recognition. This is what lets the transform stage
//!    chunk a loop into parallel tasks, the core enabler of the paper's
//!    "predictability oriented task parallelism extraction through loop
//!    transformations" (§ II-B).
//! 2. **Array access ranges** — [`array_access_range`] bounds the
//!    leading subscripts with which a statement list reads or writes an
//!    array, and [`AccessRange::disjoint`] tells whether two such ranges
//!    can touch the same element.
//!
//! The task-level dependence edges are built during extraction
//! (`extract::connect_siblings`), from each task's transitive read and
//! write sets: an array that both tasks touch yields an edge unless the
//! access ranges prove the accesses disjoint (chunked loops). The
//! `argo-verify` race detector re-derives ranges on its own to refine
//! whether an *unordered* pair can really collide.

use argo_ir::ast::*;
use argo_ir::visit;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parallelism classification of a `for` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopParallelism {
    /// Iterations are independent: the loop can be chunked across cores.
    Doall,
    /// Iterations only interact through commutative/associative updates of
    /// the named scalars; parallelizable with a final combine step.
    Reduction(Vec<String>),
    /// Loop-carried dependences force sequential execution.
    Sequential,
}

impl fmt::Display for LoopParallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopParallelism::Doall => write!(f, "doall"),
            LoopParallelism::Reduction(vars) => write!(f, "reduction({})", vars.join(",")),
            LoopParallelism::Sequential => write!(f, "sequential"),
        }
    }
}

impl LoopParallelism {
    /// Returns `true` if the loop can be split across cores (DOALL or
    /// reduction).
    pub fn is_parallelizable(&self) -> bool {
        !matches!(self, LoopParallelism::Sequential)
    }
}

/// Decomposes `e` as `coef * var + rest`; returns the constant `coef` if
/// the decomposition exists, `rest` does not mention `var`, and `coef` is
/// statically known. `Some(0)` means `e` does not mention `var` at all.
pub fn affine_coef(e: &Expr, var: &str) -> Option<i64> {
    match e {
        Expr::IntLit(_) => Some(0),
        Expr::Var(n) => Some(if n == var { 1 } else { 0 }),
        Expr::Binary { op, lhs, rhs } => {
            let l = affine_coef(lhs, var)?;
            let r = affine_coef(rhs, var)?;
            match op {
                BinOp::Add => Some(l + r),
                BinOp::Sub => Some(l - r),
                BinOp::Mul => {
                    // Affine only if at most one side mentions `var` and
                    // the other side is a constant.
                    match (l, r) {
                        (0, 0) => Some(0),
                        (0, c) => lhs.as_int_const().map(|k| k * c),
                        (c, 0) => rhs.as_int_const().map(|k| k * c),
                        _ => None, // var * var — not affine
                    }
                }
                _ => {
                    if l == 0 && r == 0 {
                        Some(0)
                    } else {
                        None
                    }
                }
            }
        }
        Expr::Unary { op: UnOp::Neg, arg } => affine_coef(arg, var).map(|c| -c),
        Expr::Cast { arg, .. } => affine_coef(arg, var),
        // Calls, array reads: treat as non-affine unless they avoid `var`.
        _ => {
            let mut mentions = false;
            visit::walk_expr(e, &mut |sub| {
                if let Expr::Var(n) = sub {
                    if n == var {
                        mentions = true;
                    }
                }
            });
            if mentions {
                None
            } else {
                Some(0)
            }
        }
    }
}

/// Classifies the parallelism of a `for` loop statement.
///
/// The test is deliberately conservative (syntactic, single-subscript
/// disjointness): a loop is DOALL if
///
/// * every array written in the body is written only at subscripts whose
///   leading dimension is affine in the induction variable with a nonzero
///   coefficient (distinct iterations touch distinct elements), and every
///   read of that same array uses a subscript with the *same* leading
///   affine form;
/// * every scalar written in the body is declared inside the body (purely
///   iteration-local);
/// * all calls are scalar-only (mini-C has no globals, so such calls are
///   pure).
///
/// Scalars violating the second rule but only updated as `s = s ⊕ expr`
/// with `⊕ ∈ {+, *}` or `s = fmin/fmax/imin/imax(s, expr)` where `expr`
/// does not read `s` make the loop a [`LoopParallelism::Reduction`].
///
/// # Panics
///
/// Panics if `stmt` is not a `for` loop.
pub fn classify_loop(stmt: &Stmt) -> LoopParallelism {
    let StmtKind::For { var, body, .. } = &stmt.kind else {
        panic!("classify_loop requires a for statement");
    };
    classify_for(var, body)
}

fn classify_for(ivar: &str, body: &Block) -> LoopParallelism {
    // Collect all statements of the body subtree.
    let mut stmts: Vec<&Stmt> = Vec::new();
    visit::walk_stmts(body, &mut |s| stmts.push(s));

    // Locally declared scalars are iteration-private.
    let mut local: BTreeSet<&str> = BTreeSet::new();
    for s in &stmts {
        if let StmtKind::Decl { name, .. } = &s.kind {
            local.insert(name);
        }
    }

    // Inner loop induction variables are also iteration-local *if* they
    // are initialised by their own loop header (they always are).
    for s in &stmts {
        if let StmtKind::For { var, .. } = &s.kind {
            local.insert(var);
        }
    }

    let mut reduction_vars: BTreeSet<String> = BTreeSet::new();

    for s in &stmts {
        match &s.kind {
            StmtKind::Decl { .. } => {}
            StmtKind::Assign { target, value } => match target {
                LValue::Var(n) => {
                    if local.contains(n.as_str()) {
                        continue;
                    }
                    if let Some(op_ok) = reduction_pattern(n, value) {
                        if op_ok {
                            reduction_vars.insert(n.clone());
                            continue;
                        }
                    }
                    return LoopParallelism::Sequential;
                }
                LValue::ArrayElem { array, indices } => {
                    // Leading subscript must be affine in ivar with
                    // nonzero coefficient.
                    let Some(c) = affine_coef(&indices[0], ivar) else {
                        return LoopParallelism::Sequential;
                    };
                    if c == 0 {
                        return LoopParallelism::Sequential;
                    }
                    // Remaining subscripts must not depend on anything
                    // written by other iterations: affine check suffices
                    // because iteration-local vars are fine.
                    let _ = array;
                }
            },
            StmtKind::If { .. } | StmtKind::For { .. } => {}
            StmtKind::While { .. } => {
                // Bounded while inside: fine for parallelism as long as
                // its writes pass the rules above (already walked).
            }
            StmtKind::Call { args, .. } => {
                // Calls with array arguments may write those arrays at
                // unknown subscripts.
                if args.iter().any(|a| matches!(a, Expr::Var(_))) {
                    // Scalar `Expr::Var` args are indistinguishable from
                    // array vars here without types; be conservative only
                    // for names that are *written* according to stmt_rw.
                    let (_, w) = visit::stmt_rw(s);
                    let nonlocal_writes: Vec<&String> =
                        w.iter().filter(|n| !local.contains(n.as_str())).collect();
                    if !nonlocal_writes.is_empty() {
                        return LoopParallelism::Sequential;
                    }
                }
            }
            StmtKind::Return { .. } => return LoopParallelism::Sequential,
        }
    }

    // Cross-check reads of written arrays: every read of an array that is
    // also written must use an identical leading subscript expression,
    // otherwise iteration i may read an element written by iteration j.
    let mut written_arrays: BTreeSet<&str> = BTreeSet::new();
    let mut write_subscripts: Vec<(&str, &Expr)> = Vec::new();
    for s in &stmts {
        if let StmtKind::Assign {
            target: LValue::ArrayElem { array, indices },
            ..
        } = &s.kind
        {
            written_arrays.insert(array);
            write_subscripts.push((array, &indices[0]));
        }
    }
    let mut conflict = false;
    for s in &stmts {
        visit::walk_exprs(s, &mut |e| {
            if let Expr::ArrayElem { array, indices } = e {
                if written_arrays.contains(array.as_str()) {
                    let same_form = write_subscripts
                        .iter()
                        .filter(|(a, _)| a == array)
                        .all(|(_, w)| *w == &indices[0]);
                    if !same_form {
                        conflict = true;
                    }
                }
            }
        });
    }
    if conflict {
        return LoopParallelism::Sequential;
    }

    // A reduction variable must not be read anywhere except inside its own
    // reduction updates — `b[i] = s; s = s + a[i]` exposes intermediate
    // values of `s` and is NOT parallelizable. Each statement's *own*
    // expressions are checked (nested statements are visited separately
    // because `stmts` is the flattened subtree).
    for r in &reduction_vars {
        for s in &stmts {
            if matches!(&s.kind, StmtKind::Assign { target: LValue::Var(n), .. } if n == r) {
                continue; // the update itself may read r
            }
            let reads_r = own_exprs(s)
                .iter()
                .any(|e| visit::expr_reads(e).contains(r));
            if reads_r {
                return LoopParallelism::Sequential;
            }
        }
    }

    if reduction_vars.is_empty() {
        LoopParallelism::Doall
    } else {
        LoopParallelism::Reduction(reduction_vars.into_iter().collect())
    }
}

/// Range of leading-dimension indices a task may touch on one array.
///
/// Used for chunk disjointness: two tasks writing `b[0..64)` and
/// `b[64..128)` do **not** conflict, which is what makes chunked loops
/// schedulable in parallel. If the leading subscript cannot be bounded
/// statically the range is [`AccessRange::Unknown`] (conservative
/// overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessRange {
    /// The task never accesses the array (in the queried mode).
    None,
    /// All leading subscripts lie in `[lo, hi]` (inclusive).
    Range(i64, i64),
    /// Could not be bounded.
    Unknown,
}

impl AccessRange {
    fn join(self, other: AccessRange) -> AccessRange {
        match (self, other) {
            (AccessRange::None, x) | (x, AccessRange::None) => x,
            (AccessRange::Range(a, b), AccessRange::Range(c, d)) => {
                AccessRange::Range(a.min(c), b.max(d))
            }
            _ => AccessRange::Unknown,
        }
    }

    /// Returns `true` when the two ranges provably cannot touch the same
    /// element.
    pub fn disjoint(self, other: AccessRange) -> bool {
        match (self, other) {
            (AccessRange::None, _) | (_, AccessRange::None) => true,
            (AccessRange::Range(a, b), AccessRange::Range(c, d)) => b < c || d < a,
            _ => false,
        }
    }
}

/// Computes the leading-subscript range with which `stmts` read (or
/// write, per `want_writes`) array `array`. Loop variables with literal
/// bounds contribute their iteration interval; anything else makes the
/// result [`AccessRange::Unknown`]. Calls passing the array are treated
/// as unknown full-array accesses.
pub fn array_access_range(stmts: &[&Stmt], array: &str, want_writes: bool) -> AccessRange {
    let mut env: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    let mut out = AccessRange::None;
    for s in stmts {
        range_stmt(s, array, want_writes, &mut env, &mut out);
    }
    out
}

fn range_stmt(
    s: &Stmt,
    array: &str,
    want_writes: bool,
    env: &mut BTreeMap<String, (i64, i64)>,
    out: &mut AccessRange,
) {
    // Reads inside any expression of this statement.
    if !want_writes {
        for e in own_exprs(s) {
            range_expr_reads(e, array, env, out);
        }
    } else if let StmtKind::Assign {
        target: LValue::ArrayElem { array: a, indices },
        ..
    } = &s.kind
    {
        if a == array {
            let r = eval_idx_interval(&indices[0], env)
                .map_or(AccessRange::Unknown, |(lo, hi)| AccessRange::Range(lo, hi));
            *out = out.join(r);
        }
    } else if let StmtKind::Decl { name, .. } = &s.kind {
        // Declaring an array zero-initialises every element: a whole-array
        // write. Without this, a task holding the declaration looks
        // range-disjoint from every user and the init task can be
        // scheduled after its readers/writers.
        if name == array {
            *out = AccessRange::Unknown;
        }
    }
    match &s.kind {
        StmtKind::If {
            then_blk, else_blk, ..
        } => {
            for st in then_blk.stmts.iter().chain(&else_blk.stmts) {
                range_stmt(st, array, want_writes, env, out);
            }
        }
        StmtKind::For {
            var, lo, hi, body, ..
        } => {
            let bounds = match (eval_idx_interval(lo, env), eval_idx_interval(hi, env)) {
                (Some((l, _)), Some((_, h))) if h > l => Some((l, h - 1)),
                (Some((l, _)), Some((_, h))) if h <= l => Some((l, l)), // empty-ish
                _ => None,
            };
            match bounds {
                Some(b) => {
                    let old = env.insert(var.clone(), b);
                    for st in &body.stmts {
                        range_stmt(st, array, want_writes, env, out);
                    }
                    match old {
                        Some(o) => {
                            env.insert(var.clone(), o);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                }
                None => {
                    // Unbounded loop: any access inside is unknown.
                    let mut probe = AccessRange::None;
                    let mut e2 = BTreeMap::new();
                    for st in &body.stmts {
                        range_stmt(st, array, want_writes, &mut e2, &mut probe);
                    }
                    if probe != AccessRange::None {
                        *out = AccessRange::Unknown;
                    }
                }
            }
        }
        StmtKind::While { body, .. } => {
            for st in &body.stmts {
                range_stmt(st, array, want_writes, env, out);
            }
        }
        StmtKind::Call { args, .. }
            // Array passed to a call: the callee may touch anything.
            if args.iter().any(|a| matches!(a, Expr::Var(n) if n == array)) => {
                *out = AccessRange::Unknown;
            }
        _ => {}
    }
}

fn range_expr_reads(
    e: &Expr,
    array: &str,
    env: &BTreeMap<String, (i64, i64)>,
    out: &mut AccessRange,
) {
    visit::walk_expr(e, &mut |sub| {
        if let Expr::ArrayElem { array: a, indices } = sub {
            if a == array {
                let r = eval_idx_interval(&indices[0], env)
                    .map_or(AccessRange::Unknown, |(lo, hi)| AccessRange::Range(lo, hi));
                *out = out.join(r);
            }
        }
    });
}

/// Interval evaluation of an index expression over literal loop-variable
/// ranges. Returns inclusive `(lo, hi)`.
fn eval_idx_interval(e: &Expr, env: &BTreeMap<String, (i64, i64)>) -> Option<(i64, i64)> {
    match e {
        Expr::IntLit(v) => Some((*v, *v)),
        Expr::Var(n) => env.get(n).copied(),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = eval_idx_interval(lhs, env)?;
            let (c, d) = eval_idx_interval(rhs, env)?;
            match op {
                BinOp::Add => Some((a.checked_add(c)?, b.checked_add(d)?)),
                BinOp::Sub => Some((a.checked_sub(d)?, b.checked_sub(c)?)),
                BinOp::Mul => {
                    let p = [
                        a.checked_mul(c)?,
                        a.checked_mul(d)?,
                        b.checked_mul(c)?,
                        b.checked_mul(d)?,
                    ];
                    Some((*p.iter().min()?, *p.iter().max()?))
                }
                BinOp::Div if c == d && c > 0 => {
                    let p = [a / c, b / c];
                    Some((*p.iter().min()?, *p.iter().max()?))
                }
                _ => None,
            }
        }
        Expr::Unary { op: UnOp::Neg, arg } => {
            let (a, b) = eval_idx_interval(arg, env)?;
            Some((-b, -a))
        }
        _ => None,
    }
}

/// The expressions evaluated by a statement itself (excluding nested
/// statements' expressions).
fn own_exprs(s: &Stmt) -> Vec<&Expr> {
    match &s.kind {
        StmtKind::Decl { init, .. } => init.iter().collect(),
        StmtKind::Assign { target, value } => {
            let mut v = vec![value];
            if let LValue::ArrayElem { indices, .. } = target {
                v.extend(indices.iter());
            }
            v
        }
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => vec![cond],
        StmtKind::For { lo, hi, .. } => vec![lo, hi],
        StmtKind::Call { args, .. } => args.iter().collect(),
        StmtKind::Return { value } => value.iter().collect(),
    }
}

/// Checks whether `value` is a reduction update of scalar `n`:
/// `n + e`, `e + n`, `n * e`, `e * n`, or `fmin/fmax/imin/imax(n, e)`,
/// where `e` does not read `n`. Returns `Some(true)` for a valid
/// reduction, `Some(false)` for an update that reads `n` otherwise,
/// `None` when `value` does not read `n` at all (plain overwrite — still
/// a loop-carried output dependence, so not parallel-safe unless local).
fn reduction_pattern(n: &str, value: &Expr) -> Option<bool> {
    let reads_n = |e: &Expr| visit::expr_reads(e).contains(n);
    if !reads_n(value) {
        return Some(false); // overwrite of non-local scalar: output dep
    }
    match value {
        Expr::Binary {
            op: BinOp::Add | BinOp::Mul,
            lhs,
            rhs,
        } => {
            if matches!(&**lhs, Expr::Var(v) if v == n) && !reads_n(rhs) {
                return Some(true);
            }
            if matches!(&**rhs, Expr::Var(v) if v == n) && !reads_n(lhs) {
                return Some(true);
            }
            Some(false)
        }
        Expr::Call { name, args }
            if matches!(name.as_str(), "fmin" | "fmax" | "imin" | "imax") && args.len() == 2 =>
        {
            let a0_is_n = matches!(&args[0], Expr::Var(v) if v == n);
            let a1_is_n = matches!(&args[1], Expr::Var(v) if v == n);
            if a0_is_n && !reads_n(&args[1]) {
                return Some(true);
            }
            if a1_is_n && !reads_n(&args[0]) {
                return Some(true);
            }
            Some(false)
        }
        _ => Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::parse::parse_program;

    fn classify(src: &str) -> LoopParallelism {
        let p = parse_program(src).unwrap();
        let loop_stmt = p
            .functions
            .iter()
            .flat_map(|f| f.body.stmts.iter())
            .find(|s| matches!(s.kind, StmtKind::For { .. }))
            .expect("no for loop in source");
        classify_loop(loop_stmt)
    }

    #[test]
    fn disjoint_adjacent_ranges_do_not_touch() {
        // Inclusive bounds: [0,63] and [64,127] share no element, but
        // [0,64] and [64,127] share element 64.
        assert!(AccessRange::Range(0, 63).disjoint(AccessRange::Range(64, 127)));
        assert!(AccessRange::Range(64, 127).disjoint(AccessRange::Range(0, 63)));
        assert!(!AccessRange::Range(0, 64).disjoint(AccessRange::Range(64, 127)));
    }

    #[test]
    fn disjoint_overlapping_and_nested_ranges_conflict() {
        assert!(!AccessRange::Range(0, 10).disjoint(AccessRange::Range(5, 15)));
        assert!(!AccessRange::Range(0, 100).disjoint(AccessRange::Range(40, 60)));
        // A single element overlapping itself.
        assert!(!AccessRange::Range(7, 7).disjoint(AccessRange::Range(7, 7)));
        assert!(AccessRange::Range(7, 7).disjoint(AccessRange::Range(8, 8)));
    }

    #[test]
    fn disjoint_unknown_is_never_disjoint_except_from_none() {
        // Unknown must stay conservative against everything that might
        // access the array...
        assert!(!AccessRange::Unknown.disjoint(AccessRange::Range(0, 1)));
        assert!(!AccessRange::Range(0, 1).disjoint(AccessRange::Unknown));
        assert!(!AccessRange::Unknown.disjoint(AccessRange::Unknown));
        // ...but a task that provably never touches the array is
        // disjoint from anything, Unknown included.
        assert!(AccessRange::None.disjoint(AccessRange::Unknown));
        assert!(AccessRange::Unknown.disjoint(AccessRange::None));
        assert!(AccessRange::None.disjoint(AccessRange::None));
        assert!(AccessRange::None.disjoint(AccessRange::Range(0, 5)));
    }

    #[test]
    fn map_loop_is_doall() {
        let c = classify(
            "void f(real a[64], real b[64]) { int i; \
             for (i=0;i<64;i=i+1) { b[i] = a[i] * 2.0; } }",
        );
        assert_eq!(c, LoopParallelism::Doall);
    }

    #[test]
    fn strided_write_is_doall() {
        let c = classify(
            "void f(real b[64]) { int i; \
             for (i=0;i<32;i=i+1) { b[2*i] = 1.0; } }",
        );
        assert_eq!(c, LoopParallelism::Doall);
    }

    #[test]
    fn stencil_read_is_sequential() {
        // Reads b[i-1] while writing b[i]: loop-carried flow dependence.
        let c = classify(
            "void f(real b[64]) { int i; \
             for (i=1;i<64;i=i+1) { b[i] = b[i-1] + 1.0; } }",
        );
        assert_eq!(c, LoopParallelism::Sequential);
    }

    #[test]
    fn reading_other_array_with_offset_is_doall() {
        // Reads a[i+1] but only writes b[i]; a is never written.
        let c = classify(
            "void f(real a[65], real b[64]) { int i; \
             for (i=0;i<64;i=i+1) { b[i] = a[i+1] - a[i]; } }",
        );
        assert_eq!(c, LoopParallelism::Doall);
    }

    #[test]
    fn sum_is_reduction() {
        let c = classify(
            "real f(real a[64]) { real s; int i; s = 0.0; \
             for (i=0;i<64;i=i+1) { s = s + a[i]; } return s; }",
        );
        assert_eq!(c, LoopParallelism::Reduction(vec!["s".into()]));
    }

    #[test]
    fn max_via_intrinsic_is_reduction() {
        let c = classify(
            "real f(real a[64]) { real m; int i; m = 0.0; \
             for (i=0;i<64;i=i+1) { m = fmax(m, a[i]); } return m; }",
        );
        assert_eq!(c, LoopParallelism::Reduction(vec!["m".into()]));
    }

    #[test]
    fn nonassociative_update_is_sequential() {
        let c = classify(
            "real f(real a[64]) { real s; int i; s = 0.0; \
             for (i=0;i<64;i=i+1) { s = s / 2.0 + a[i]; } return s; }",
        );
        assert_eq!(c, LoopParallelism::Sequential);
    }

    #[test]
    fn scalar_overwrite_is_sequential_unless_local() {
        let seq = classify(
            "void f(real a[64], real out[64]) { real t; int i; t = 0.0; \
             for (i=0;i<64;i=i+1) { t = a[i]; out[i] = t; } }",
        );
        assert_eq!(seq, LoopParallelism::Sequential);
        let par = classify(
            "void f(real a[64], real out[64]) { int i; \
             for (i=0;i<64;i=i+1) { real t; t = a[i]; out[i] = t; } }",
        );
        assert_eq!(par, LoopParallelism::Doall);
    }

    #[test]
    fn constant_subscript_write_is_sequential() {
        let c = classify(
            "void f(real b[64]) { int i; \
             for (i=0;i<64;i=i+1) { b[0] = b[0] + 1.0; } }",
        );
        assert_eq!(c, LoopParallelism::Sequential);
    }

    #[test]
    fn nested_loop_inner_var_is_private() {
        let c = classify(
            "void f(real a[8][8], real b[8]) { int i; int j; \
             for (i=0;i<8;i=i+1) { real s; s = 0.0; \
               for (j=0;j<8;j=j+1) { s = s + a[i][j]; } \
               b[i] = s; } }",
        );
        // `j` and `s` are iteration-local/loop-local; outer loop is DOALL.
        // (s is declared inside the outer body.)
        assert_eq!(c, LoopParallelism::Doall);
    }

    #[test]
    fn call_writing_array_is_sequential() {
        let c = classify(
            "void g(real buf[64]) { buf[0] = 1.0; } \
             void f(real buf[64]) { int i; \
             for (i=0;i<4;i=i+1) { g(buf); } }",
        );
        assert_eq!(c, LoopParallelism::Sequential);
    }

    /// Regression: a task that only *declares* a local array must precede
    /// every task that reads or writes it. The range refinement used to
    /// see the declaration as a zero-range write and drop the edge, which
    /// let schedulers run users before the allocation (observed via the
    /// model frontend, whose lowering declares internal buffers locally).
    #[test]
    fn array_decl_orders_before_users() {
        let src = r#"
            void main(real a[16], real out[16]) {
                real buf[16];
                int i;
                for (i = 0; i < 16; i = i + 1) { buf[i] = a[i] * 2.0; }
                for (i = 0; i < 16; i = i + 1) { out[i] = buf[i] + 1.0; }
            }
        "#;
        let p = parse_program(src).unwrap();
        let htg = crate::extract::extract(&p, "main", crate::Granularity::Loop, &BTreeMap::new())
            .unwrap();
        let decl_task = htg
            .top_level
            .iter()
            .position(|&t| htg.task(t).name.starts_with("init"))
            .expect("init task");
        let writer = htg
            .top_level
            .iter()
            .position(|&t| {
                htg.task(t).writes.contains("buf") && !htg.task(t).name.starts_with("init")
            })
            .expect("writer task");
        let has_edge = |from: usize, to: usize| {
            htg.edges
                .iter()
                .any(|e| e.from == htg.top_level[from] && e.to == htg.top_level[to])
        };
        assert!(
            has_edge(decl_task, writer),
            "declaration must precede the first writer"
        );
    }

    #[test]
    fn affine_coef_basics() {
        use argo_ir::parse::parse_expr;
        let e = parse_expr("2*i + 3").unwrap();
        assert_eq!(affine_coef(&e, "i"), Some(2));
        let e = parse_expr("i").unwrap();
        assert_eq!(affine_coef(&e, "i"), Some(1));
        let e = parse_expr("j + 7").unwrap();
        assert_eq!(affine_coef(&e, "i"), Some(0));
        let e = parse_expr("i*i").unwrap();
        assert_eq!(affine_coef(&e, "i"), None);
        let e = parse_expr("n - i").unwrap();
        assert_eq!(affine_coef(&e, "i"), Some(-1));
        let e = parse_expr("(i + 1) * 4").unwrap();
        assert_eq!(affine_coef(&e, "i"), Some(4));
    }
}
