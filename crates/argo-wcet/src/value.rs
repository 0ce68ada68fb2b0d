//! Interval value analysis for loop bounds.
//!
//! A small abstract interpreter over the integer interval domain. Its one
//! job is the classical aiT-style *loop bound analysis*: derive, for every
//! `for` loop, a static upper bound on the trip count, given optional
//! ranges for the entry function's integer parameters.
//!
//! Reals and booleans are tracked as ⊤. Loop bodies are analysed to a
//! fixpoint with widening after a fixed number of rounds, so the analysis
//! always terminates.

use crate::WcetError;
use argo_ir::ast::*;
use argo_ir::resolve::{RCall, RExpr, RFunction, RLValue, RStmt, RStmtKind, Resolution};
use argo_ir::StmtId;
use std::collections::BTreeMap;

/// An integer interval `[lo, hi]`; `None` endpoints mean unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower endpoint (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper endpoint (`None` = +∞).
    pub hi: Option<i64>,
}

impl Interval {
    /// The unbounded interval ⊤.
    pub const TOP: Interval = Interval { lo: None, hi: None };

    /// A singleton interval.
    pub fn exact(v: i64) -> Interval {
        Interval {
            lo: Some(v),
            hi: Some(v),
        }
    }

    /// A bounded interval `[lo, hi]`.
    pub fn range(lo: i64, hi: i64) -> Interval {
        Interval {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// Join (union hull).
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Abstract addition.
    #[allow(clippy::should_implement_trait)] // interval ops, not `std::ops` (no Output inference games)
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.lo).and_then(|(a, b)| a.checked_add(b)),
            hi: self.hi.zip(other.hi).and_then(|(a, b)| a.checked_add(b)),
        }
    }

    /// Abstract subtraction.
    #[allow(clippy::should_implement_trait)] // interval ops, not `std::ops` (no Output inference games)
    pub fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.hi).and_then(|(a, b)| a.checked_sub(b)),
            hi: self.hi.zip(other.lo).and_then(|(a, b)| a.checked_sub(b)),
        }
    }

    /// Abstract multiplication (corner products).
    #[allow(clippy::should_implement_trait)] // interval ops, not `std::ops` (no Output inference games)
    pub fn mul(self, other: Interval) -> Interval {
        let corners = |a: Option<i64>, b: Option<i64>| a.zip(b).and_then(|(x, y)| x.checked_mul(y));
        let products = [
            corners(self.lo, other.lo),
            corners(self.lo, other.hi),
            corners(self.hi, other.lo),
            corners(self.hi, other.hi),
        ];
        if products.iter().any(|p| p.is_none())
            || self.lo.is_none()
            || self.hi.is_none()
            || other.lo.is_none()
            || other.hi.is_none()
        {
            return Interval::TOP;
        }
        let vals: Vec<i64> = products.iter().map(|p| p.unwrap()).collect();
        Interval {
            lo: vals.iter().copied().min(),
            hi: vals.iter().copied().max(),
        }
    }

    /// Abstract truncating division (conservative corner division).
    #[allow(clippy::should_implement_trait)] // interval ops, not `std::ops` (no Output inference games)
    pub fn div(self, other: Interval) -> Interval {
        // Division by an interval possibly containing 0: ⊤ (runtime error
        // path aside, stay sound).
        match (other.lo, other.hi) {
            (Some(l), Some(h)) if l > 0 || h < 0 => {
                let (Some(a), Some(b)) = (self.lo, self.hi) else {
                    return Interval::TOP;
                };
                let candidates = [a / l, a / h, b / l, b / h];
                Interval {
                    lo: candidates.iter().copied().min(),
                    hi: candidates.iter().copied().max(),
                }
            }
            _ => Interval::TOP,
        }
    }
}

/// Analysis context: ranges for entry-function integer parameters.
#[derive(Debug, Clone, Default)]
pub struct ValueCtx {
    /// Parameter name → interval. Parameters without an entry are ⊤.
    pub param_ranges: BTreeMap<String, Interval>,
}

impl ValueCtx {
    /// Context with one bounded parameter.
    pub fn with_param(name: impl Into<String>, lo: i64, hi: i64) -> ValueCtx {
        let mut c = ValueCtx::default();
        c.param_ranges.insert(name.into(), Interval::range(lo, hi));
        c
    }
}

/// Result of the analysis: an upper trip-count bound per `for`/`while`
/// loop statement id.
pub type LoopBounds = BTreeMap<StmtId, u64>;

/// Computes loop bounds for `func` in `program`.
///
/// Resolves the program first; drivers that already hold a
/// [`Resolution`] (the `argo-core` frontend) should call
/// [`loop_bounds_resolved`] instead to skip the extra pass.
///
/// # Errors
///
/// Returns [`WcetError`] if a `for` loop's trip count cannot be bounded
/// (WCET analysis would be impossible) or the function is unknown.
pub fn loop_bounds(program: &Program, func: &str, ctx: &ValueCtx) -> Result<LoopBounds, WcetError> {
    let resolution = Resolution::of(program);
    loop_bounds_resolved(&resolution, func, ctx)
}

/// Computes loop bounds for `func` over a prebuilt [`Resolution`].
///
/// The analysis runs entirely on the slot-resolved mirror: environments
/// are flat `Vec<Interval>`s indexed by frame slot, and the widening
/// fixpoint compares slots positionally instead of materialising key
/// vectors — no string hashing or cloning anywhere in the loop.
///
/// # Errors
///
/// See [`loop_bounds`].
pub fn loop_bounds_resolved(
    resolution: &Resolution,
    func: &str,
    ctx: &ValueCtx,
) -> Result<LoopBounds, WcetError> {
    let entry = resolution
        .function_index(func)
        .ok_or_else(|| WcetError::new(format!("no function `{func}`")))?;
    let mut bounds = LoopBounds::new();
    // Entry: parameter ranges from the context.
    {
        let rfunc = resolution.function(entry);
        let mut env = vec![Interval::TOP; rfunc.frame_len as usize];
        for p in &rfunc.params {
            if !p.is_array {
                let name = resolution.name(rfunc.slot_symbols[p.slot.idx()]);
                if let Some(&iv) = ctx.param_ranges.get(name) {
                    env[p.slot.idx()] = iv;
                }
            }
        }
        let mut an = Analyzer {
            resolution,
            fixpoint_rounds: 0,
            rfunc,
            bounds: &mut bounds,
        };
        an.block(&rfunc.body, &mut env)?;
        an.publish_fixpoint_rounds();
    }
    // Callee loops: analyse every function reachable from `func` with ⊤
    // parameters (conservative: their own literal bounds must suffice).
    for fi in resolution.reached_from(entry) {
        let rfunc = resolution.function(fi);
        let mut env = vec![Interval::TOP; rfunc.frame_len as usize];
        let mut an = Analyzer {
            resolution,
            fixpoint_rounds: 0,
            rfunc,
            bounds: &mut bounds,
        };
        an.block(&rfunc.body, &mut env)?;
        an.publish_fixpoint_rounds();
    }
    Ok(bounds)
}

/// Slot-indexed abstract environment: one interval per frame slot
/// (array and untouched slots stay ⊤).
type Env = Vec<Interval>;

/// The `argo_wcet_fixpoint_iters` histogram handle, resolved once.
fn fixpoint_histogram() -> &'static std::sync::Arc<argo_trace::Histogram> {
    static HIST: std::sync::OnceLock<std::sync::Arc<argo_trace::Histogram>> =
        std::sync::OnceLock::new();
    HIST.get_or_init(|| {
        argo_trace::metrics().histogram("argo_wcet_fixpoint_iters", argo_trace::COUNT_BUCKETS)
    })
}

struct Analyzer<'a> {
    resolution: &'a Resolution,
    /// Widening-fixpoint rounds run while analysing this function
    /// (a plain local count; published to the gated
    /// `argo_wcet_fixpoint_iters` histogram once per function).
    fixpoint_rounds: u64,
    rfunc: &'a RFunction,
    bounds: &'a mut LoopBounds,
}

impl<'a> Analyzer<'a> {
    /// Publishes this function's fixpoint-round count to the
    /// `argo_wcet_fixpoint_iters` histogram. Gated — a metrics-off
    /// process pays one relaxed load per analysed function.
    fn publish_fixpoint_rounds(&self) {
        if argo_trace::metrics_on() {
            fixpoint_histogram().observe(self.fixpoint_rounds);
        }
    }

    fn block(&mut self, block: &[u32], env: &mut Env) -> Result<(), WcetError> {
        for &i in block {
            self.stmt(self.rfunc.stmt(i), env)?;
        }
        Ok(())
    }

    /// Widens every slot that moved since `before` to ⊤ (the
    /// changed-set is the positional diff — no key materialisation),
    /// excluding `keep` (the pinned induction variable, if any).
    fn widen_changed(env: &mut Env, before: &Env, keep: Option<usize>) {
        for (i, (cur, prev)) in env.iter_mut().zip(before).enumerate() {
            if cur != prev && Some(i) != keep {
                *cur = Interval::TOP;
            }
        }
    }

    fn stmt(&mut self, s: &RStmt, env: &mut Env) -> Result<(), WcetError> {
        match &s.kind {
            RStmtKind::DeclScalar { slot, init, .. } => {
                env[slot.idx()] = match init {
                    Some(e) => self.eval(e, env),
                    None => Interval::TOP,
                };
                Ok(())
            }
            RStmtKind::DeclArray { .. } => Ok(()),
            RStmtKind::Assign { target, value } => {
                if let RLValue::Var(slot) = target {
                    env[slot.idx()] = self.eval(value, env);
                }
                Ok(())
            }
            RStmtKind::If {
                then_blk, else_blk, ..
            } => {
                let mut env_then = env.clone();
                let mut env_else = env.clone();
                self.block(then_blk, &mut env_then)?;
                self.block(else_blk, &mut env_else)?;
                // Join, slot-wise.
                for (slot, (a, b)) in env_then.iter().zip(&env_else).enumerate() {
                    env[slot] = a.join(*b);
                }
                Ok(())
            }
            RStmtKind::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo_iv = self.eval(lo, env);
                let hi_iv = self.eval(hi, env);
                let trip = match (lo_iv.lo, hi_iv.hi) {
                    (Some(l), Some(h)) if h > l => ((h - l) as u64).div_ceil(*step as u64),
                    (Some(l), Some(h)) if h <= l => 0,
                    _ => {
                        return Err(WcetError::new(format!(
                            "cannot bound loop {} over `{}`: bounds not statically bounded",
                            s.id,
                            self.resolution.name(self.rfunc.slot_symbols[var.idx()])
                        )))
                    }
                };
                self.bounds.insert(s.id, trip);
                // Body fixpoint with widening after 2 rounds; the
                // induction variable is pinned to its in-loop range.
                let in_loop = Interval {
                    lo: lo_iv.lo,
                    hi: hi_iv.hi.map(|h| h - 1),
                };
                let mut body_env = env.clone();
                body_env[var.idx()] = in_loop;
                let mut before = Env::new();
                for round in 0..4 {
                    self.fixpoint_rounds += 1;
                    before.clone_from(&body_env);
                    self.block(body, &mut body_env)?;
                    body_env[var.idx()] = in_loop;
                    if body_env == before {
                        break;
                    }
                    if round >= 2 {
                        Self::widen_changed(&mut body_env, &before, Some(var.idx()));
                    }
                }
                // After the loop: merge body effects; induction var ends
                // in [lo, hi+step-1] hull.
                for (slot, v) in body_env.into_iter().enumerate() {
                    env[slot] = env[slot].join(v);
                }
                env[var.idx()] = lo_iv.join(hi_iv.add(Interval::exact(*step - 1)));
                Ok(())
            }
            RStmtKind::While { bound, body, .. } => {
                self.bounds.insert(s.id, *bound);
                // Analyse body to a widened fixpoint.
                let mut body_env = env.clone();
                let mut before = Env::new();
                for round in 0..4 {
                    self.fixpoint_rounds += 1;
                    before.clone_from(&body_env);
                    self.block(body, &mut body_env)?;
                    if body_env == before {
                        break;
                    }
                    if round >= 2 {
                        Self::widen_changed(&mut body_env, &before, None);
                    }
                }
                for (slot, v) in body_env.into_iter().enumerate() {
                    env[slot] = env[slot].join(v);
                }
                Ok(())
            }
            RStmtKind::Call(_) | RStmtKind::Return { .. } => Ok(()),
        }
    }

    fn eval(&self, e: &RExpr, env: &Env) -> Interval {
        match e {
            RExpr::Int(v) => Interval::exact(*v),
            RExpr::Var(slot) => env[slot.idx()],
            RExpr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, env);
                let b = self.eval(rhs, env);
                match op {
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Div => a.div(b),
                    BinOp::Rem => match (b.lo, b.hi) {
                        (Some(l), Some(h)) if l > 0 => Interval::range(0, h - 1),
                        _ => Interval::TOP,
                    },
                    _ => Interval::TOP,
                }
            }
            RExpr::Unary { op: UnOp::Neg, arg } => Interval::exact(0).sub(self.eval(arg, env)),
            RExpr::Cast {
                to: argo_ir::Scalar::Int,
                arg,
            } => {
                // Casting an int-valued expression is the identity; real
                // sources are ⊤ (we don't track reals).
                match &**arg {
                    RExpr::Int(v) => Interval::exact(*v),
                    RExpr::Var(slot) => env[slot.idx()],
                    _ => Interval::TOP,
                }
            }
            RExpr::Call(RCall::Intrinsic { sig, args }) => match sig.name {
                "imin" if args.len() == 2 => {
                    let a = self.eval(&args[0], env);
                    let b = self.eval(&args[1], env);
                    Interval {
                        lo: a.lo.zip(b.lo).map(|(x, y)| x.min(y)).or(a.lo).or(b.lo),
                        hi: match (a.hi, b.hi) {
                            (Some(x), Some(y)) => Some(x.min(y)),
                            (Some(x), None) | (None, Some(x)) => Some(x),
                            (None, None) => None,
                        },
                    }
                }
                "imax" if args.len() == 2 => {
                    let a = self.eval(&args[0], env);
                    let b = self.eval(&args[1], env);
                    Interval {
                        lo: match (a.lo, b.lo) {
                            (Some(x), Some(y)) => Some(x.max(y)),
                            (Some(x), None) | (None, Some(x)) => Some(x),
                            (None, None) => None,
                        },
                        hi: a.hi.zip(b.hi).map(|(x, y)| x.max(y)).or(a.hi).or(b.hi),
                    }
                }
                "iabs" if args.len() == 1 => {
                    let a = self.eval(&args[0], env);
                    match (a.lo, a.hi) {
                        (Some(l), Some(h)) => {
                            let m = l.abs().max(h.abs());
                            Interval::range(0, m)
                        }
                        _ => Interval {
                            lo: Some(0),
                            hi: None,
                        },
                    }
                }
                _ => Interval::TOP,
            },
            _ => Interval::TOP,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::parse::parse_program;

    fn bounds_of(src: &str, ctx: &ValueCtx) -> Result<Vec<u64>, WcetError> {
        let p = parse_program(src).unwrap();
        let b = loop_bounds(&p, "main", ctx)?;
        let mut v: Vec<(StmtId, u64)> = b.into_iter().collect();
        v.sort();
        Ok(v.into_iter().map(|(_, n)| n).collect())
    }

    #[test]
    fn constant_bounds() {
        let b = bounds_of(
            "void main(real a[64]) { int i; for (i=0;i<64;i=i+1) { a[i] = 0.0; } }",
            &ValueCtx::default(),
        )
        .unwrap();
        assert_eq!(b, vec![64]);
    }

    #[test]
    fn stepped_and_nested_bounds() {
        let b = bounds_of(
            "void main(real a[8][8]) { int i; int j; \
             for (i=0;i<8;i=i+2) { for (j=0;j<8;j=j+1) { a[i][j] = 0.0; } } }",
            &ValueCtx::default(),
        )
        .unwrap();
        assert_eq!(b, vec![4, 8]);
    }

    #[test]
    fn parameter_ranges_bound_loops() {
        let ctx = ValueCtx::with_param("n", 0, 100);
        let b = bounds_of(
            "void main(real a[128], int n) { int i; for (i=0;i<n;i=i+1) { a[i] = 0.0; } }",
            &ctx,
        )
        .unwrap();
        assert_eq!(b, vec![100]);
    }

    #[test]
    fn unbounded_parameter_is_an_error() {
        let err = bounds_of(
            "void main(real a[128], int n) { int i; for (i=0;i<n;i=i+1) { a[i] = 0.0; } }",
            &ValueCtx::default(),
        )
        .unwrap_err();
        assert!(err.msg.contains("cannot bound"));
    }

    #[test]
    fn derived_bounds_through_arithmetic() {
        let ctx = ValueCtx::with_param("n", 1, 16);
        let b = bounds_of(
            "void main(real a[64], int n) { int i; int m; m = n * 2 + 1; \
             for (i=0;i<m;i=i+1) { a[i] = 0.0; } }",
            &ctx,
        )
        .unwrap();
        assert_eq!(b, vec![33]);
    }

    #[test]
    fn while_uses_pragma_bound() {
        let b = bounds_of(
            "void main() { real x; x = 100.0; #pragma bound 12\n \
             while (x > 1.0) { x = x / 2.0; } }",
            &ValueCtx::default(),
        )
        .unwrap();
        assert_eq!(b, vec![12]);
    }

    #[test]
    fn branch_join_takes_hull() {
        let ctx = ValueCtx::with_param("k", 0, 1);
        let b = bounds_of(
            "void main(real a[32], int k) { int m; int i; \
             if (k > 0) { m = 8; } else { m = 20; } \
             for (i=0;i<m;i=i+1) { a[i] = 0.0; } }",
            &ctx,
        )
        .unwrap();
        assert_eq!(b, vec![20]);
    }

    #[test]
    fn loop_body_updates_widen_safely() {
        // `acc` grows in the loop: widening must not diverge, and the
        // loop bound stays 10.
        let b = bounds_of(
            "void main(real a[16]) { int i; int acc; acc = 0; \
             for (i=0;i<10;i=i+1) { acc = acc + 3; a[0] = 0.0; } }",
            &ValueCtx::default(),
        )
        .unwrap();
        assert_eq!(b, vec![10]);
    }

    #[test]
    fn chunked_bounds_divide() {
        // The shapes produced by the chunking transformation:
        // lo + d*c/k style bounds must stay bounded.
        let b = bounds_of(
            "void main(real a[64]) { int i0; int i1; \
             for (i0 = 0 + (64 - 0) * 0 / 2; i0 < 0 + (64 - 0) * 1 / 2; i0 = i0 + 1) { a[i0] = 0.0; } \
             for (i1 = 0 + (64 - 0) * 1 / 2; i1 < 0 + (64 - 0) * 2 / 2; i1 = i1 + 1) { a[i1] = 1.0; } }",
            &ValueCtx::default(),
        )
        .unwrap();
        // Each chunk: analysis sees [0,32) and [32,64): exactly 32 each.
        assert_eq!(b, vec![32, 32]);
    }

    #[test]
    fn callee_loops_are_bounded_too() {
        let src = "void helper(real a[8]) { int i; for (i=0;i<8;i=i+1) { a[i] = 0.0; } } \
                   void main(real a[8]) { helper(a); }";
        let p = parse_program(src).unwrap();
        let b = loop_bounds(&p, "main", &ValueCtx::default()).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(*b.values().next().unwrap(), 8);
    }

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval::range(2, 5);
        let b = Interval::range(-1, 3);
        assert_eq!(a.add(b), Interval::range(1, 8));
        assert_eq!(a.sub(b), Interval::range(-1, 6));
        assert_eq!(a.mul(b), Interval::range(-5, 15));
        assert_eq!(a.join(b), Interval::range(-1, 5));
        assert_eq!(
            Interval::range(10, 20).div(Interval::exact(3)),
            Interval::range(3, 6)
        );
    }
}
