//! Tree-based (timing-schema) code-level WCET.
//!
//! The structured mini-C AST admits the classical compositional WCET
//! rules: sequences add, conditionals take the conditional cost plus the
//! maximum branch, loops multiply the body by the loop bound. Every
//! charge mirrors one event the interpreter reports to its hook, so the
//! bound dominates any simulated execution by construction.
//!
//! Function WCETs are computed bottom-up over the (acyclic) call graph.

use crate::cache::{loop_fill_cost, loop_is_persistent};
use crate::cost::CostCtx;
use crate::value::LoopBounds;
use crate::WcetError;
use argo_adl::MemSpace;
use argo_ir::ast::*;
use argo_ir::interp::OpClass;
use argo_ir::resolve::Resolution;
use argo_ir::StmtId;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Per-function WCETs (body cost, excluding caller-side call overhead).
pub type FunctionWcets = BTreeMap<String, u64>;

/// Computes the WCET of every function, bottom-up over the call DAG.
///
/// # Errors
///
/// Returns [`WcetError`] if a loop bound is missing for some loop (run
/// [`crate::value::loop_bounds`] first or rely on literal bounds).
pub fn function_wcets(ctx: &CostCtx<'_>, bounds: &LoopBounds) -> Result<FunctionWcets, WcetError> {
    wcets_of(ctx, bounds, ctx.program.functions.iter().collect())
}

/// The WCETs of `functions`, bottom-up over their call DAG; each may
/// call only functions of the same list.
fn wcets_of(
    ctx: &CostCtx<'_>,
    bounds: &LoopBounds,
    functions: Vec<&Function>,
) -> Result<FunctionWcets, WcetError> {
    let mut done = FunctionWcets::new();
    // Iterate until all functions are resolved (call DAG: each pass
    // resolves at least the leaves).
    let passes = functions.len() + 1;
    let mut remaining = functions;
    let mut guard = 0;
    while !remaining.is_empty() {
        guard += 1;
        if guard > passes {
            return Err(WcetError::new("call graph is not acyclic"));
        }
        let mut next = Vec::new();
        for f in remaining {
            match body_wcet(ctx, bounds, &done, f) {
                Ok(w) => {
                    done.insert(f.name.clone(), w);
                }
                Err(e) if e.msg.starts_with("unresolved-callee:") => next.push(f),
                Err(e) => return Err(e),
            }
        }
        remaining = next;
    }
    Ok(done)
}

fn body_wcet(
    ctx: &CostCtx<'_>,
    bounds: &LoopBounds,
    fn_wcets: &FunctionWcets,
    f: &Function,
) -> Result<u64, WcetError> {
    stmts_wcet(ctx, bounds, fn_wcets, &f.name, &f.body.stmts)
}

/// WCET of a statement sequence inside `func`.
///
/// # Errors
///
/// See [`function_wcets`].
pub fn stmts_wcet(
    ctx: &CostCtx<'_>,
    bounds: &LoopBounds,
    fn_wcets: &FunctionWcets,
    func: &str,
    stmts: &[Stmt],
) -> Result<u64, WcetError> {
    let mut total = 0u64;
    for s in stmts {
        total = total.saturating_add(stmt_wcet(ctx, bounds, fn_wcets, func, s)?);
    }
    Ok(total)
}

/// WCET of a single statement (with its whole subtree).
///
/// # Errors
///
/// See [`function_wcets`].
pub fn stmt_wcet(
    ctx: &CostCtx<'_>,
    bounds: &LoopBounds,
    fn_wcets: &FunctionWcets,
    func: &str,
    s: &Stmt,
) -> Result<u64, WcetError> {
    let mut calls = Vec::new();
    let base = match &s.kind {
        StmtKind::Decl { name, init, .. } => match init {
            Some(e) => ctx.expr_cost(e, func, &mut calls) + ctx.access_cost(name),
            None => 0,
        },
        StmtKind::Assign { target, value } => {
            let v = ctx.expr_cost(value, func, &mut calls);
            let t = match target {
                LValue::Var(n) => ctx.access_cost(n),
                LValue::ArrayElem { array, indices } => {
                    let idx: u64 = indices
                        .iter()
                        .map(|i| ctx.expr_cost(i, func, &mut calls) + ctx.op_cost(OpClass::IntAlu))
                        .sum();
                    idx + ctx.access_cost(array)
                }
            };
            v + t
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            let c = ctx.expr_cost(cond, func, &mut calls);
            let t = stmts_wcet(ctx, bounds, fn_wcets, func, &then_blk.stmts)?;
            let e = stmts_wcet(ctx, bounds, fn_wcets, func, &else_blk.stmts)?;
            c + ctx.op_cost(OpClass::Branch) + t.max(e)
        }
        StmtKind::For {
            var, lo, hi, body, ..
        } => {
            let b = loop_bound_of(ctx, bounds, s)?;
            let head = ctx.expr_cost(lo, func, &mut calls) + ctx.expr_cost(hi, func, &mut calls);
            // Cache persistence refinement: if this loop's data fits the
            // core's cache for sure, body accesses to those arrays cost a
            // hit and the fill is charged once.
            let (body_ctx, fill) = cache_refined_ctx(ctx, func, s);
            let body_cost = stmts_wcet(&body_ctx, bounds, fn_wcets, func, &body.stmts)?;
            let per_iter = ctx.op_cost(OpClass::LoopOverhead) + ctx.access_cost(var) + body_cost;
            head + fill + b.saturating_mul(per_iter) + ctx.op_cost(OpClass::LoopOverhead)
        }
        StmtKind::While { cond, body, .. } => {
            let b = loop_bound_of(ctx, bounds, s)?;
            let c = ctx.expr_cost(cond, func, &mut calls) + ctx.op_cost(OpClass::Branch);
            let body_cost = stmts_wcet(ctx, bounds, fn_wcets, func, &body.stmts)?;
            (b + 1).saturating_mul(c) + b.saturating_mul(body_cost)
        }
        StmtKind::Call { name, args } => {
            let e = Expr::Call {
                name: name.clone(),
                args: args.clone(),
            };
            ctx.expr_cost(&e, func, &mut calls)
        }
        StmtKind::Return { value } => match value {
            Some(e) => ctx.expr_cost(e, func, &mut calls),
            None => 0,
        },
    };
    // Add memoized callee bodies for every user call in this statement's
    // own expressions.
    let mut total = base;
    for callee in calls {
        match fn_wcets.get(&callee) {
            Some(w) => total = total.saturating_add(*w),
            None => return Err(WcetError::new(format!("unresolved-callee:{callee}"))),
        }
    }
    Ok(total)
}

/// The top-level statements of one function, indexed by id, and the
/// functions it reaches through calls: what costing many tasks of that
/// function needs. Build it once per stage run; then, per core view,
/// cost the reached functions once ([`TaskCoster::callee_wcets`]) and
/// every task as the sum of its statements ([`TaskCoster::task_wcet`]).
#[derive(Debug, Clone)]
pub struct TaskCoster<'p> {
    func: &'p str,
    stmts: BTreeMap<StmtId, &'p Stmt>,
    /// Every function `func` reaches through calls, in program order;
    /// never `func` itself.
    callees: Vec<&'p Function>,
}

impl<'p> TaskCoster<'p> {
    /// Indexes the top-level statements of `func` and takes the
    /// functions it reaches from `resolution` (which must resolve
    /// `program`): the same functions whose loops the value analysis
    /// ([`crate::value::loop_bounds_resolved`]) bounds.
    ///
    /// # Errors
    ///
    /// Returns [`WcetError`] if `program` has no function `func`.
    pub fn new(
        program: &'p Program,
        resolution: &Resolution,
        func: &str,
    ) -> Result<TaskCoster<'p>, WcetError> {
        let entry = resolution
            .function_index(func)
            .ok_or_else(|| WcetError::new(format!("no function `{func}`")))?;
        let f = &program.functions[entry];
        Ok(TaskCoster {
            func: &f.name,
            stmts: f.body.stmts.iter().map(|s| (s.id, s)).collect(),
            callees: resolution
                .reached_from(entry)
                .into_iter()
                .map(|i| &program.functions[i])
                .collect(),
        })
    }

    /// The WCETs of the functions the indexed function reaches, on
    /// `ctx`'s core view: the table [`TaskCoster::task_wcet`] reads.
    /// Functions it never calls are not costed.
    ///
    /// # Errors
    ///
    /// See [`function_wcets`].
    pub fn callee_wcets(
        &self,
        ctx: &CostCtx<'_>,
        bounds: &LoopBounds,
    ) -> Result<FunctionWcets, WcetError> {
        wcets_of(ctx, bounds, self.callees.clone())
    }

    /// WCET of the top-level statements `ids` (one task) on `ctx`'s
    /// core view: the saturating sum of their [`stmt_wcet`].
    ///
    /// # Errors
    ///
    /// Returns [`WcetError`] if an id is not a top-level statement of
    /// the indexed function, or as [`stmt_wcet`] does.
    pub fn task_wcet(
        &self,
        ctx: &CostCtx<'_>,
        bounds: &LoopBounds,
        fn_wcets: &FunctionWcets,
        ids: &[StmtId],
    ) -> Result<u64, WcetError> {
        let mut total = 0u64;
        for id in ids {
            let s = self.stmts.get(id).ok_or_else(|| {
                WcetError::new(format!("no top-level statement {id} in `{}`", self.func))
            })?;
            total = total.saturating_add(stmt_wcet(ctx, bounds, fn_wcets, self.func, s)?);
        }
        Ok(total)
    }
}

/// WCET of the top-level statements with the given ids inside `func`,
/// for one task. It resolves the program and indexes `func` on every
/// call; to cost many tasks, build one [`TaskCoster`] and call
/// [`TaskCoster::task_wcet`].
///
/// # Errors
///
/// Returns [`WcetError`] if `func` does not exist or an id is not one
/// of its top-level statements.
pub fn stmt_ids_wcet(
    ctx: &CostCtx<'_>,
    bounds: &LoopBounds,
    fn_wcets: &FunctionWcets,
    func: &str,
    ids: &[StmtId],
) -> Result<u64, WcetError> {
    let resolution = Resolution::of(ctx.program);
    TaskCoster::new(ctx.program, &resolution, func)?.task_wcet(ctx, bounds, fn_wcets, ids)
}

fn loop_bound_of(_ctx: &CostCtx<'_>, bounds: &LoopBounds, s: &Stmt) -> Result<u64, WcetError> {
    if let Some(b) = bounds.get(&s.id) {
        return Ok(*b);
    }
    match &s.kind {
        StmtKind::For { lo, hi, step, .. } => match (lo.as_int_const(), hi.as_int_const()) {
            (Some(l), Some(h)) if h > l => Ok(((h - l) as u64).div_ceil(*step as u64)),
            (Some(l), Some(h)) if h <= l => Ok(0),
            _ => Err(WcetError::new(format!(
                "no loop bound for {} (run the value analysis)",
                s.id
            ))),
        },
        StmtKind::While { bound, .. } => Ok(*bound),
        _ => Err(WcetError::new(format!("{} is not a loop", s.id))),
    }
}

/// Builds a body context with cache-persistence overrides for a `for`
/// loop, plus the one-time fill cost. Returns the caller's context,
/// borrowed, and zero fill when the core has no cache, the loop's
/// footprint is not provably persistent, or the refinement is already
/// active.
fn cache_refined_ctx<'c, 'a>(
    ctx: &'c CostCtx<'a>,
    func: &str,
    loop_stmt: &Stmt,
) -> (Cow<'c, CostCtx<'a>>, u64) {
    let Some(cache) = ctx.view.cache else {
        return (Cow::Borrowed(ctx), 0);
    };
    // Collect shared arrays accessed in the loop subtree.
    let (reads, writes) = argo_ir::visit::stmt_rw(loop_stmt);
    let syms = ctx.symbols(func);
    let mut arrays: Vec<(String, u64, u64)> = Vec::new(); // (name, base, size)
    let mut seen = BTreeSet::new();
    for v in reads.union(&writes) {
        if !seen.insert(v.clone()) {
            continue;
        }
        if !syms.get(v).is_some_and(|t| t.is_array()) {
            continue;
        }
        if ctx.mem.space_of(v) != MemSpace::Shared {
            continue;
        }
        if ctx.overrides.contains_key(v) {
            // Already refined by an enclosing loop.
            return (Cow::Borrowed(ctx), 0);
        }
        let p = ctx.mem.placement(v);
        let (base, size) = p.map_or((0, 0), |p| (p.base_addr, p.size_bytes));
        arrays.push((v.clone(), base, size));
    }
    if arrays.is_empty() || !loop_is_persistent(&arrays, &cache) {
        return (Cow::Borrowed(ctx), 0);
    }
    let mut refined = ctx.clone();
    for (name, _, _) in &arrays {
        refined.overrides.insert(name.clone(), cache.hit_cycles);
    }
    let fill = loop_fill_cost(&arrays, &cache, ctx.shared_access_cost());
    (Cow::Owned(refined), fill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{loop_bounds, ValueCtx};
    use argo_adl::{CoreId, MemoryMap, Platform};
    use argo_ir::parse::parse_program;

    fn wcet_of(src: &str) -> u64 {
        let p = parse_program(src).unwrap();
        argo_ir::validate::validate(&p).unwrap();
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let bounds = loop_bounds(&p, "main", &ValueCtx::default()).unwrap();
        function_wcets(&ctx, &bounds).unwrap()["main"]
    }

    #[test]
    fn straight_line_adds_costs() {
        // x = 1 (write 1) ; y = x + 2 (read 1 + alu 1 + write 1).
        let w = wcet_of("void main() { int x; int y; x = 1; y = x + 2; }");
        assert_eq!(w, 1 + (1 + 1 + 1));
    }

    #[test]
    fn conditional_takes_max_branch() {
        let w = wcet_of(
            "void main(bool c) { real x; \
             if (c) { x = sqrt(2.0); } else { x = 1.0; } }",
        );
        // cond read (1) + branch (2) + max(sqrt 20 + write 1, write 1).
        assert_eq!(w, 1 + 2 + 21);
    }

    #[test]
    fn loop_multiplies_body() {
        let w8 = wcet_of("void main() { int s; int i; s = 0; for (i=0;i<8;i=i+1) { s = s + 1; } }");
        let w16 =
            wcet_of("void main() { int s; int i; s = 0; for (i=0;i<16;i=i+1) { s = s + 1; } }");
        // Doubling the trip roughly doubles the loop part.
        assert!(w16 > w8);
        assert!(w16 < 2 * w8 + 10);
    }

    #[test]
    fn nested_loops_multiply() {
        let w = wcet_of(
            "void main(real a[4][4]) { int i; int j; \
             for (i=0;i<4;i=i+1) { for (j=0;j<4;j=j+1) { a[i][j] = 0.0; } } }",
        );
        let w_flat = wcet_of(
            "void main(real a[4][4]) { int i; int j; \
             for (i=0;i<4;i=i+1) { } for (j=0;j<4;j=j+1) { } }",
        );
        assert!(w > w_flat);
    }

    #[test]
    fn function_calls_add_callee_wcet() {
        let w_inline = wcet_of("void main() { real x; x = sqrt(4.0) + sqrt(9.0); }");
        let w_called = wcet_of(
            "real s2(real v) { return sqrt(v); } \
             void main() { real x; x = s2(4.0) + s2(9.0); }",
        );
        // Called version pays call overhead twice.
        assert!(w_called > w_inline);
    }

    #[test]
    fn while_uses_declared_bound() {
        let w = wcet_of(
            "void main() { int x; x = 0; #pragma bound 5\n \
             while (x < 3) { x = x + 1; } }",
        );
        // Bound 5 dominates actual 3 iterations — WCET uses 5.
        let w_smaller = wcet_of(
            "void main() { int x; x = 0; #pragma bound 3\n \
             while (x < 3) { x = x + 1; } }",
        );
        assert!(w > w_smaller);
    }

    #[test]
    fn missing_bound_is_an_error() {
        let p = parse_program(
            "void main(real a[64], int n) { int i; for (i=0;i<n;i=i+1) { a[i] = 0.0; } }",
        )
        .unwrap();
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let err = function_wcets(&ctx, &LoopBounds::new()).unwrap_err();
        assert!(err.msg.contains("no loop bound"));
    }

    #[test]
    fn leon3_wcet_exceeds_xentium_for_float_kernels() {
        let src = "void main(real a[32]) { int i; \
             for (i=0;i<32;i=i+1) { a[i] = a[i] * 2.0 + 1.0; } }";
        let p = parse_program(src).unwrap();
        let mem = MemoryMap::new();
        let bounds = loop_bounds(&p, "main", &ValueCtx::default()).unwrap();
        let x = Platform::xentium_manycore(1);
        let l = Platform::kit_tile_noc(1, 1);
        let wx = function_wcets(&CostCtx::new(&p, &x, CoreId(0), &mem), &bounds).unwrap()["main"];
        let wl = function_wcets(&CostCtx::new(&p, &l, CoreId(0), &mem), &bounds).unwrap()["main"];
        assert!(wl > wx);
    }

    #[test]
    fn task_level_wcet_via_ids() {
        let src = "void main(real a[16], real b[16]) { int i; \
             for (i=0;i<16;i=i+1) { a[i] = 0.0; } \
             for (i=0;i<16;i=i+1) { b[i] = 1.0; } }";
        let p = parse_program(src).unwrap();
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let bounds = loop_bounds(&p, "main", &ValueCtx::default()).unwrap();
        let fw = function_wcets(&ctx, &bounds).unwrap();
        let f = p.function("main").unwrap();
        let loop_ids: Vec<StmtId> = f
            .body
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::For { .. }))
            .map(|s| s.id)
            .collect();
        let t1 = stmt_ids_wcet(&ctx, &bounds, &fw, "main", &loop_ids[..1]).unwrap();
        let t2 = stmt_ids_wcet(&ctx, &bounds, &fw, "main", &loop_ids[1..]).unwrap();
        let whole = fw["main"];
        // The two loop tasks together account for the whole body.
        assert!(t1 + t2 <= whole);
        assert!(t1 + t2 >= whole - 5, "decl statements cost ~0");
    }
}
