//! DOALL / reduction loop chunking.
//!
//! The transformation that turns a parallelizable loop into `k` sibling
//! loops over disjoint index ranges — after task extraction these become
//! `k` independent tasks the scheduler can map to different cores. This is
//! the concrete mechanism behind the paper's "task parallelism extraction
//! through loop transformations" (§ II-B).
//!
//! For a loop `for (i = lo; i < hi; i = i + 1)` and `k` chunks, chunk `c`
//! iterates over `[lo + d*c/k, lo + d*(c+1)/k)` with `d = hi - lo`; the
//! integer-division bounds telescope, so the union of chunks is exactly
//! the original range even when `d` is not divisible by `k` or the bounds
//! are runtime expressions.
//!
//! Reduction loops (`s = s + e`, `s = s * e`, `s = fmin/fmax/imin/imax(s,
//! e)`) get per-chunk accumulators initialised to the operator identity
//! (or a copy of `s` for min/max) and a combine epilogue.

use crate::{fresh_name, rename_stmt, taken_names, Renames, TransformError};
use argo_htg::deps::{classify_loop, LoopParallelism};
use argo_ir::ast::*;
use argo_ir::types::{Scalar, Type};
use argo_ir::validate::symbol_table;
use argo_ir::StmtId;
use std::collections::BTreeSet;

/// Outcome of chunking one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkReport {
    /// How many chunk loops were produced.
    pub chunks: usize,
    /// The parallelism class that allowed chunking.
    pub class: String,
}

/// Chunks the top-level `for` loop with statement id `loop_id` of
/// function `func` into `k` sibling loops.
///
/// # Errors
///
/// Returns [`TransformError`] if the function or loop is missing, the
/// loop has a non-unit step, or the dependence analysis classifies it as
/// sequential.
pub fn chunk_loop(
    program: &mut Program,
    func: &str,
    loop_id: StmtId,
    k: usize,
) -> Result<ChunkReport, TransformError> {
    chunk_loop_with(program, func, loop_id, k, chunk_body)
}

/// The names one chunk copy of a loop body is renamed with.
struct ChunkNames<'a> {
    /// The loop's induction variable.
    var: &'a str,
    /// This chunk's fresh induction variable.
    iv: &'a str,
    /// The reduction accumulators, in classification order.
    reductions: &'a [String],
    /// This chunk's fresh partial accumulator per reduction.
    partials: &'a [String],
    /// The chunk index.
    c: usize,
}

/// Builds the body of one chunk copy: `body` with every name of `names`
/// and every body-local declaration renamed, registering the fresh
/// names it invents in `taken`.
type ChunkBody = fn(&Block, &ChunkNames<'_>, &mut BTreeSet<String>) -> Vec<Stmt>;

fn chunk_loop_with(
    program: &mut Program,
    func: &str,
    loop_id: StmtId,
    k: usize,
    chunk_body: ChunkBody,
) -> Result<ChunkReport, TransformError> {
    if k < 2 {
        return Err(TransformError::new("chunk count must be at least 2"));
    }
    let f = program
        .function_mut(func)
        .ok_or_else(|| TransformError::new(format!("no function `{func}`")))?;
    let pos = f
        .body
        .stmts
        .iter()
        .position(|s| s.id == loop_id)
        .ok_or_else(|| TransformError::new(format!("no top-level statement {loop_id}")))?;
    let symbols = symbol_table(f);
    let stmt = f.body.stmts[pos].clone();
    let StmtKind::For {
        var,
        lo,
        hi,
        step,
        body,
    } = &stmt.kind
    else {
        return Err(TransformError::new(format!("{loop_id} is not a for loop")));
    };
    if *step != 1 {
        return Err(TransformError::new("only unit-step loops can be chunked"));
    }
    let class = classify_loop(&stmt);
    let reductions = match &class {
        LoopParallelism::Sequential => {
            return Err(TransformError::new(
                "loop is sequential (loop-carried dependence); cannot chunk",
            ))
        }
        LoopParallelism::Doall => Vec::new(),
        LoopParallelism::Reduction(vars) => vars.clone(),
    };

    let mut taken = taken_names(f);
    let d = Expr::bin(BinOp::Sub, hi.clone(), lo.clone());

    // Fresh induction vars and (for reductions) per-chunk accumulators.
    let mut new_stmts: Vec<Stmt> = Vec::new();
    let mut partial_names: Vec<Vec<String>> = Vec::new(); // [chunk][red]
    let mut red_ops: Vec<ReductionOp> = Vec::new();
    for r in &reductions {
        let op = find_reduction_op(body, r).ok_or_else(|| {
            TransformError::new(format!("could not identify reduction operator for `{r}`"))
        })?;
        red_ops.push(op);
    }

    let mut iv_names: Vec<String> = Vec::with_capacity(k);
    for c in 0..k {
        let iv = fresh_name(&mut taken, &format!("{var}__chunk{c}"));
        new_stmts.push(Stmt::new(StmtKind::Decl {
            name: iv.clone(),
            ty: Type::Scalar(Scalar::Int),
            init: None,
        }));
        iv_names.push(iv);
        let mut chunk_partials = Vec::new();
        for (r, op) in reductions.iter().zip(&red_ops) {
            let pn = fresh_name(&mut taken, &format!("{r}_p{c}"));
            let rty = symbols
                .get(r)
                .cloned()
                .unwrap_or(Type::Scalar(Scalar::Real));
            let init = match op {
                ReductionOp::Add => Some(zero_of(rty.elem())),
                ReductionOp::Mul => Some(one_of(rty.elem())),
                // Min/max partials start from a copy of the accumulator:
                // idempotent, so combining with `s` again is harmless.
                ReductionOp::Min(_) | ReductionOp::Max(_) => Some(Expr::Var(var_read(r))),
            };
            new_stmts.push(Stmt::new(StmtKind::Decl {
                name: pn.clone(),
                ty: rty,
                init,
            }));
            chunk_partials.push(pn);
        }
        partial_names.push(chunk_partials);
    }

    // Build the k chunk loops.
    let mut chunk_loops: Vec<Stmt> = Vec::new();
    for c in 0..k {
        let iv = iv_names[c].clone();
        // Bounds: lo + d*c/k  and  lo + d*(c+1)/k.
        let lo_c = Expr::bin(
            BinOp::Add,
            lo.clone(),
            Expr::bin(
                BinOp::Div,
                Expr::bin(BinOp::Mul, d.clone(), Expr::int(c as i64)),
                Expr::int(k as i64),
            ),
        );
        let hi_c = Expr::bin(
            BinOp::Add,
            lo.clone(),
            Expr::bin(
                BinOp::Div,
                Expr::bin(BinOp::Mul, d.clone(), Expr::int(c as i64 + 1)),
                Expr::int(k as i64),
            ),
        );
        let names = ChunkNames {
            var,
            iv: &iv,
            reductions: &reductions,
            partials: &partial_names[c],
            c,
        };
        let new_body_stmts = chunk_body(body, &names, &mut taken);
        chunk_loops.push(Stmt::new(StmtKind::For {
            var: iv,
            lo: lo_c,
            hi: hi_c,
            step: 1,
            body: Block::of(new_body_stmts),
        }));
    }
    new_stmts.extend(chunk_loops);

    // Combine epilogue for reductions.
    for (idx, (r, op)) in reductions.iter().zip(&red_ops).enumerate() {
        for partial in partial_names.iter().take(k) {
            let pn = &partial[idx];
            let combined = match op {
                ReductionOp::Add => {
                    Expr::bin(BinOp::Add, Expr::Var(var_read(r)), Expr::Var(pn.clone()))
                }
                ReductionOp::Mul => {
                    Expr::bin(BinOp::Mul, Expr::Var(var_read(r)), Expr::Var(pn.clone()))
                }
                ReductionOp::Min(name) | ReductionOp::Max(name) => Expr::Call {
                    name: name.clone(),
                    args: vec![Expr::Var(var_read(r)), Expr::Var(pn.clone())],
                },
            };
            new_stmts.push(Stmt::new(StmtKind::Assign {
                target: LValue::Var(r.clone()),
                value: combined,
            }));
        }
    }

    let f = program.function_mut(func).expect("checked above");
    f.body.stmts.splice(pos..=pos, new_stmts);
    program.renumber();
    Ok(ChunkReport {
        chunks: k,
        class: class.to_string(),
    })
}

/// Chunks every parallelizable top-level `for` loop of `func` into `k`
/// chunks; returns how many loops were chunked.
///
/// # Errors
///
/// Propagates lookup errors; loops that are sequential or non-unit-step
/// are silently skipped.
pub fn chunk_all_parallel_loops(
    program: &mut Program,
    func: &str,
    k: usize,
) -> Result<usize, TransformError> {
    chunk_all_with(program, func, k, chunk_body)
}

fn chunk_all_with(
    program: &mut Program,
    func: &str,
    k: usize,
    chunk_body: ChunkBody,
) -> Result<usize, TransformError> {
    if k < 2 {
        return Ok(0);
    }
    let mut chunked = 0;
    loop {
        let f = program
            .function(func)
            .ok_or_else(|| TransformError::new(format!("no function `{func}`")))?;
        let candidate = f.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::For { step: 1, var, .. } if !var.contains("__chunk") => {
                classify_loop(s).is_parallelizable().then_some(s.id)
            }
            _ => None,
        });
        match candidate {
            Some(id) => {
                chunk_loop_with(program, func, id, k, chunk_body)?;
                chunked += 1;
            }
            None => break,
        }
    }
    Ok(chunked)
}

/// One chunk copy of `body`, renamed in one pass through one old→new
/// map: the induction variable to the chunk's, each reduction
/// accumulator to its partial, and each body-local declaration to a
/// fresh per-chunk name, so the function stays single-declaration.
/// (Inner loop variables declared *outside* the loop stay shared: they
/// are privatized at the task level, not re-declared.) Every target is
/// a fresh name, so one pass equals renaming one name at a time.
fn chunk_body(body: &Block, names: &ChunkNames<'_>, taken: &mut BTreeSet<String>) -> Vec<Stmt> {
    let mut renames = Renames::new();
    renames.insert(names.var, names.iv.to_string());
    for (r, pn) in names.reductions.iter().zip(names.partials) {
        renames.entry(r).or_insert_with(|| pn.clone());
    }
    // (name after the renames above, name in the body) per declaration.
    let mut decls: Vec<(String, &str)> = Vec::new();
    argo_ir::visit::walk_stmts(body, &mut |s| {
        if let StmtKind::Decl { name, .. } = &s.kind {
            let renamed = renames.get(name.as_str()).unwrap_or(name);
            decls.push((renamed.clone(), name));
        }
    });
    decls.sort();
    decls.dedup();
    for (renamed, name) in decls {
        let fresh = fresh_name(taken, &format!("{renamed}__k{}", names.c));
        renames.insert(name, fresh);
    }
    body.stmts
        .iter()
        .map(|s| rename_stmt(s, &renames))
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ReductionOp {
    Add,
    Mul,
    Min(String),
    Max(String),
}

fn find_reduction_op(body: &Block, var: &str) -> Option<ReductionOp> {
    let mut found = None;
    argo_ir::visit::walk_stmts(body, &mut |s| {
        if found.is_some() {
            return;
        }
        if let StmtKind::Assign {
            target: LValue::Var(n),
            value,
        } = &s.kind
        {
            if n == var {
                found = match value {
                    Expr::Binary { op: BinOp::Add, .. } => Some(ReductionOp::Add),
                    Expr::Binary { op: BinOp::Mul, .. } => Some(ReductionOp::Mul),
                    Expr::Call { name, .. } if name == "fmin" || name == "imin" => {
                        Some(ReductionOp::Min(name.clone()))
                    }
                    Expr::Call { name, .. } if name == "fmax" || name == "imax" => {
                        Some(ReductionOp::Max(name.clone()))
                    }
                    _ => None,
                };
            }
        }
    });
    found
}

fn var_read(name: &str) -> String {
    name.to_string()
}

fn zero_of(s: Scalar) -> Expr {
    match s {
        Scalar::Int => Expr::int(0),
        Scalar::Real => Expr::real(0.0),
        Scalar::Bool => Expr::BoolLit(false),
    }
}

fn one_of(s: Scalar) -> Expr {
    match s {
        Scalar::Int => Expr::int(1),
        Scalar::Real => Expr::real(1.0),
        Scalar::Bool => Expr::BoolLit(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::interp::{ArgVal, ArrayData, Interp, NullHook, ScalarVal};
    use argo_ir::parse::parse_program;
    use argo_ir::validate::validate;

    fn first_loop_id(p: &Program, func: &str) -> StmtId {
        p.function(func)
            .unwrap()
            .body
            .stmts
            .iter()
            .find(|s| matches!(s.kind, StmtKind::For { .. }))
            .unwrap()
            .id
    }

    /// Chunked and original programs must compute identical results.
    fn check_equivalence(src: &str, k: usize, arr_params: &[(&str, usize)]) {
        let original = parse_program(src).unwrap();
        validate(&original).unwrap();
        let mut chunked = original.clone();
        let lid = first_loop_id(&chunked, "main");
        chunk_loop(&mut chunked, "main", lid, k).unwrap();
        validate(&chunked).expect("chunked program must still validate");

        let mk_args = || -> Vec<ArgVal> {
            arr_params
                .iter()
                .map(|&(_, n)| {
                    let vals: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 + 1.0).collect();
                    ArgVal::Array(ArrayData::from_reals(&vals))
                })
                .collect()
        };
        let mut i1 = Interp::new(&original);
        let out1 = i1.call_full("main", mk_args(), &mut NullHook).unwrap();
        let mut i2 = Interp::new(&chunked);
        let out2 = i2.call_full("main", mk_args(), &mut NullHook).unwrap();
        assert_eq!(out1.ret, out2.ret);
        assert_eq!(out1.arrays, out2.arrays);
    }

    #[test]
    fn doall_chunking_preserves_semantics() {
        check_equivalence(
            "void main(real a[64], real b[64]) { int i; \
             for (i=0;i<64;i=i+1) { b[i] = a[i] * 2.0 + 1.0; } }",
            4,
            &[("a", 64), ("b", 64)],
        );
    }

    #[test]
    fn uneven_division_covers_all_iterations() {
        check_equivalence(
            "void main(real a[61], real b[61]) { int i; \
             for (i=0;i<61;i=i+1) { b[i] = a[i] + 3.0; } }",
            4,
            &[("a", 61), ("b", 61)],
        );
    }

    #[test]
    fn nonzero_lower_bound() {
        check_equivalence(
            "void main(real a[64], real b[64]) { int i; \
             for (i=5;i<59;i=i+1) { b[i] = a[i] - 1.0; } }",
            3,
            &[("a", 64), ("b", 64)],
        );
    }

    #[test]
    fn sum_reduction_preserves_semantics() {
        check_equivalence(
            "real main(real a[64]) { real s; int i; s = 10.0; \
             for (i=0;i<64;i=i+1) { s = s + a[i]; } return s; }",
            4,
            &[("a", 64)],
        );
    }

    #[test]
    fn max_reduction_preserves_semantics() {
        check_equivalence(
            "real main(real a[64]) { real m; int i; m = 0.0; \
             for (i=0;i<64;i=i+1) { m = fmax(m, a[i]); } return m; }",
            8,
            &[("a", 64)],
        );
    }

    #[test]
    fn chunk_count_matches_k() {
        let src = "void main(real a[32], real b[32]) { int i; \
             for (i=0;i<32;i=i+1) { b[i] = a[i]; } }";
        let mut p = parse_program(src).unwrap();
        let lid = first_loop_id(&p, "main");
        let report = chunk_loop(&mut p, "main", lid, 4).unwrap();
        assert_eq!(report.chunks, 4);
        let loops = p
            .function("main")
            .unwrap()
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::For { .. }))
            .count();
        assert_eq!(loops, 4);
    }

    #[test]
    fn sequential_loop_is_rejected() {
        let src = "void main(real b[64]) { int i; \
             for (i=1;i<64;i=i+1) { b[i] = b[i-1] + 1.0; } }";
        let mut p = parse_program(src).unwrap();
        let lid = first_loop_id(&p, "main");
        let err = chunk_loop(&mut p, "main", lid, 4).unwrap_err();
        assert!(err.msg.contains("sequential"));
    }

    #[test]
    fn runtime_bounds_chunk_correctly() {
        // Bound is a parameter: chunk bounds are expressions.
        let original = parse_program(
            "void main(real a[64], real b[64], int n) { int i; \
             for (i=0;i<n;i=i+1) { b[i] = a[i] * 2.0; } }",
        )
        .unwrap();
        let mut chunked = original.clone();
        let lid = first_loop_id(&chunked, "main");
        chunk_loop(&mut chunked, "main", lid, 4).unwrap();
        validate(&chunked).unwrap();
        for n in [0i64, 1, 17, 64] {
            let args = || {
                vec![
                    ArgVal::Array(ArrayData::from_reals(&vec![2.0; 64])),
                    ArgVal::Array(ArrayData::from_reals(&vec![0.0; 64])),
                    ArgVal::Scalar(ScalarVal::Int(n)),
                ]
            };
            let mut i1 = Interp::new(&original);
            let o1 = i1.call_full("main", args(), &mut NullHook).unwrap();
            let mut i2 = Interp::new(&chunked);
            let o2 = i2.call_full("main", args(), &mut NullHook).unwrap();
            assert_eq!(o1.arrays, o2.arrays, "n={n}");
        }
    }

    #[test]
    fn chunk_all_parallel_loops_handles_multiple() {
        let mut p = parse_program(
            "void main(real a[32], real b[32], real c[32]) { int i; \
             for (i=0;i<32;i=i+1) { b[i] = a[i]; } \
             for (i=0;i<32;i=i+1) { c[i] = b[i] + b[i]; } }",
        )
        .unwrap();
        let n = chunk_all_parallel_loops(&mut p, "main", 2).unwrap();
        assert_eq!(n, 2);
        validate(&p).unwrap();
        let loops = p
            .function("main")
            .unwrap()
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::For { .. }))
            .count();
        assert_eq!(loops, 4);
    }

    /// The renaming [`chunk_body`] replaced, kept as its reference: one
    /// clone of the body per renamed name, first the induction variable,
    /// then each reduction accumulator, then each body-local declaration
    /// as named after those renames, in sorted order.
    fn chunk_body_chained(
        body: &Block,
        names: &ChunkNames<'_>,
        taken: &mut BTreeSet<String>,
    ) -> Vec<Stmt> {
        let rename = |s: &Stmt, old: &str, new: &str| {
            rename_stmt(s, &Renames::from([(old, new.to_string())]))
        };
        let mut new_body_stmts: Vec<Stmt> = Vec::new();
        for s in &body.stmts {
            let mut ns = rename(s, names.var, names.iv);
            for (r, pn) in names.reductions.iter().zip(names.partials) {
                ns = rename(&ns, r, pn);
            }
            new_body_stmts.push(ns);
        }
        let mut local_decls: Vec<String> = Vec::new();
        for s in &new_body_stmts {
            argo_ir::visit::walk_stmts(&Block::of(vec![s.clone()]), &mut |st| {
                if let StmtKind::Decl { name, .. } = &st.kind {
                    local_decls.push(name.clone());
                }
            });
        }
        local_decls.sort();
        local_decls.dedup();
        for d in local_decls {
            let fresh = fresh_name(taken, &format!("{d}__k{}", names.c));
            new_body_stmts = new_body_stmts
                .iter()
                .map(|s| rename(s, &d, &fresh))
                .collect();
        }
        new_body_stmts
    }

    /// Loops with body-local declarations (nested ones too) and add,
    /// mul, min and max reductions over real and int accumulators.
    const RENAMING: &[&str] = &[
        "real main(real a[64], real b[64]) { real s; real p; real lo; real hi; int i; \
         s = 0.0; p = 1.0; lo = 0.0; hi = 0.0; \
         for (i = 0; i < 64; i = i + 1) { real t; real u; t = a[i] * 2.0; u = t + 1.0; \
         b[i] = u; s = s + t; p = p * u; lo = fmin(lo, t); hi = fmax(hi, u); } \
         return s + p + lo + hi; }",
        "int main(int a[40], int b[40][4]) { int m; int n; int i; int j; m = 0; n = 9; \
         for (i = 3; i < 37; i = i + 1) { int t; t = a[i] * 3; \
         for (j = 0; j < 4; j = j + 1) { int w; w = t + j; b[i][j] = w; } \
         m = imax(m, t); n = imin(n, t - 1); } return m + n; }",
        "real main(real a[16], int n) { real s; int i; int i__chunk0; s = 1.0; \
         i__chunk0 = 0; for (i = 0; i < n; i = i + 1) { real t__k0; real t; \
         t__k0 = a[i]; t = t__k0 * 0.5; if (t > 0.0) { real v; v = t; s = s * v; } } \
         return s + i__chunk0; }",
    ];

    /// Chunks every parallel loop of `func` with body renamer `chunk_body`
    /// and prints the result.
    fn chunked_text(program: &Program, func: &str, k: usize, chunk_body: ChunkBody) -> String {
        let mut p = program.clone();
        let chunked = chunk_all_with(&mut p, func, k, chunk_body).unwrap();
        assert!(chunked > 0, "nothing to chunk in {func}");
        validate(&p).expect("chunked program must still validate");
        argo_ir::printer::print_program(&p)
    }

    #[test]
    fn one_pass_renaming_matches_the_rename_chain() {
        let mut programs: Vec<(Program, &str)> = argo_apps::all_use_cases(42)
            .into_iter()
            .map(|uc| {
                let mut p = uc.program;
                crate::fold::fold_program(&mut p);
                p.renumber();
                (p, uc.entry)
            })
            .collect();
        for src in RENAMING {
            let p = parse_program(src).unwrap();
            validate(&p).unwrap();
            programs.push((p, "main"));
        }
        for (program, func) in &programs {
            for k in 2..=8 {
                assert_eq!(
                    chunked_text(program, func, k, chunk_body),
                    chunked_text(program, func, k, chunk_body_chained),
                    "k = {k}"
                );
            }
        }
    }

    #[test]
    fn k_of_one_is_rejected() {
        let mut p =
            parse_program("void main(real b[8]) { int i; for (i=0;i<8;i=i+1) { b[i] = 0.0; } }")
                .unwrap();
        let lid = first_loop_id(&p, "main");
        assert!(chunk_loop(&mut p, "main", lid, 1).is_err());
    }
}
