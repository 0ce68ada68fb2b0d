//! The worst-case cost model: cycles per operation and per memory access.
//!
//! [`CostCtx`] charges, statically, what the platform simulator charges
//! dynamically through the interpreter's `ExecHook`, and both read the
//! one price list argo-adl owns: `CoreTiming::op_cost` and
//! `CoreTiming::intrinsic` price operations, `Platform::private_access`
//! prices local and own-scratchpad accesses and routes every other access
//! to shared memory. Reading the same prices is what makes the
//! `observed ≤ bound` soundness tests meaningful rather than vacuous.
//!
//! Code-level costs are isolated: a shared access is priced as if its
//! core were the only one on the interconnect. Contention is added once,
//! by the system-level analysis (`crate::system`).

use argo_adl::{CoreId, CostView, MemoryMap, Platform};
use argo_ir::ast::*;
use argo_ir::interp::OpClass;
use argo_ir::types::Scalar;
use argo_ir::validate::{symbol_table, SymbolTable};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Per-function symbol tables of a whole program — computed once per
/// program and shareable across every [`CostCtx`] built from it (the
/// backend's feedback loop builds one context per task per round).
pub type ProgramSymbols = BTreeMap<String, SymbolTable>;

/// Builds the symbol tables of every function in `program`.
pub fn program_symbols(program: &Program) -> ProgramSymbols {
    program
        .functions
        .iter()
        .map(|f| (f.name.clone(), symbol_table(f)))
        .collect()
}

/// Static cost-model context for one core: the platform's prices under
/// one placement, in isolation (no contenders).
///
/// The core's [`CostView`] is taken once, when the context is built:
/// timing, cache and the isolated shared-access price come from it, so
/// no access re-derives the arbitration bound.
#[derive(Debug, Clone)]
pub struct CostCtx<'a> {
    /// The program under analysis.
    pub program: &'a Program,
    /// The target platform.
    platform: &'a Platform,
    /// The core the analysed code runs on.
    core: CoreId,
    /// The core's prices.
    pub(crate) view: CostView<'a>,
    /// Variable placements.
    pub mem: &'a MemoryMap,
    /// Per-variable access-cost overrides (used by the cache persistence
    /// refinement); takes precedence over the memory map.
    pub overrides: BTreeMap<String, u64>,
    /// Per-function symbol tables (owned, or borrowed from a shared
    /// [`ProgramSymbols`]).
    symbols: Cow<'a, ProgramSymbols>,
}

impl<'a> CostCtx<'a> {
    /// Creates a context, computing the symbol tables of every
    /// function. Sweep drivers constructing many contexts for one
    /// program should compute [`program_symbols`] once and use
    /// [`CostCtx::with_symbols`].
    pub fn new(
        program: &'a Program,
        platform: &'a Platform,
        core: CoreId,
        mem: &'a MemoryMap,
    ) -> CostCtx<'a> {
        CostCtx {
            program,
            platform,
            core,
            view: platform.cost_view(core),
            mem,
            overrides: BTreeMap::new(),
            symbols: Cow::Owned(program_symbols(program)),
        }
    }

    /// Creates a context borrowing precomputed symbol tables (which
    /// must have been built from the same `program`).
    pub fn with_symbols(
        program: &'a Program,
        platform: &'a Platform,
        core: CoreId,
        mem: &'a MemoryMap,
        symbols: &'a ProgramSymbols,
    ) -> CostCtx<'a> {
        CostCtx {
            program,
            platform,
            core,
            view: platform.cost_view(core),
            mem,
            overrides: BTreeMap::new(),
            symbols: Cow::Borrowed(symbols),
        }
    }

    /// The timing table of the analysed core.
    pub fn timing(&self) -> &argo_adl::CoreTiming {
        self.view.timing
    }

    /// Symbol table of `func`.
    ///
    /// # Panics
    ///
    /// Panics if `func` is unknown (programs are validated beforehand).
    pub fn symbols(&self, func: &str) -> &SymbolTable {
        &self.symbols[func]
    }

    /// Worst-case cost of one access to `var` from this core.
    pub fn access_cost(&self, var: &str) -> u64 {
        if let Some(&c) = self.overrides.get(var) {
            return c;
        }
        self.platform
            .private_access(self.core, self.mem.space_of(var))
            .unwrap_or_else(|| self.shared_access_cost())
    }

    /// Worst-case cost of one uncontended shared-memory access, through
    /// the data cache when the core has one (conservatively a miss
    /// unless an override says otherwise).
    pub fn shared_access_cost(&self) -> u64 {
        let base = self.view.shared_access;
        match self.view.cache {
            Some(cache) => cache.hit_cycles + cache.miss_penalty + base,
            None => base,
        }
    }

    /// Worst-case latency of an operation class.
    pub fn op_cost(&self, op: OpClass) -> u64 {
        self.timing().op_cost(op)
    }

    /// Worst-case latency of a named intrinsic.
    pub fn intrinsic_cost(&self, name: &str) -> u64 {
        self.timing().intrinsic(name)
    }

    /// The scalar type of an expression inside `func` (programs are
    /// assumed validated, so this cannot fail meaningfully).
    pub fn expr_type(&self, e: &Expr, func: &str) -> Scalar {
        let syms = &self.symbols[func];
        expr_type_in(e, syms, self.program)
    }

    /// Worst-case cycles to evaluate expression `e` inside `func`,
    /// *excluding* user-function call bodies: the cost of each user call
    /// is `call_overhead + scalar-arg evaluation`, and the callee's body
    /// cost is reported separately through `calls_out` so the schema can
    /// add memoized function WCETs.
    pub fn expr_cost(&self, e: &Expr, func: &str, calls_out: &mut Vec<String>) -> u64 {
        match e {
            Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) => 0,
            Expr::Var(n) => self.access_cost(n),
            Expr::ArrayElem { array, indices } => {
                let idx: u64 = indices
                    .iter()
                    .map(|i| self.expr_cost(i, func, calls_out) + self.op_cost(OpClass::IntAlu))
                    .sum();
                idx + self.access_cost(array)
            }
            Expr::Unary { op, arg } => {
                let a = self.expr_cost(arg, func, calls_out);
                let oc = match op {
                    UnOp::Neg => {
                        if self.expr_type(arg, func) == Scalar::Real {
                            OpClass::FloatAdd
                        } else {
                            OpClass::IntAlu
                        }
                    }
                    UnOp::Not => OpClass::Logic,
                };
                a + self.op_cost(oc)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr_cost(lhs, func, calls_out);
                let r = self.expr_cost(rhs, func, calls_out);
                l + r + self.op_cost(self.binop_class(*op, lhs, rhs, func))
            }
            Expr::Call { name, args } => {
                if argo_ir::intrinsics::is_intrinsic(name) {
                    let a: u64 = args
                        .iter()
                        .map(|x| self.expr_cost(x, func, calls_out))
                        .sum();
                    return a + self.intrinsic_cost(name);
                }
                calls_out.push(name.clone());
                let callee = self.program.function(name);
                let mut total = self.op_cost(OpClass::CallOverhead);
                for (i, a) in args.iter().enumerate() {
                    let is_array_param = callee
                        .and_then(|f| f.params.get(i))
                        .is_some_and(|p| p.ty.is_array());
                    if !is_array_param {
                        total += self.expr_cost(a, func, calls_out);
                    }
                }
                total
            }
            Expr::Cast { arg, .. } => {
                self.expr_cost(arg, func, calls_out) + self.op_cost(OpClass::Cast)
            }
        }
    }

    fn binop_class(&self, op: BinOp, lhs: &Expr, rhs: &Expr, func: &str) -> OpClass {
        if op.is_logical() {
            return OpClass::Logic;
        }
        if op.is_comparison() {
            return OpClass::Cmp;
        }
        let real =
            self.expr_type(lhs, func) == Scalar::Real || self.expr_type(rhs, func) == Scalar::Real;
        match (op, real) {
            (BinOp::Add | BinOp::Sub, false) => OpClass::IntAlu,
            (BinOp::Add | BinOp::Sub, true) => OpClass::FloatAdd,
            (BinOp::Mul, false) => OpClass::IntMul,
            (BinOp::Mul, true) => OpClass::FloatMul,
            (BinOp::Div, false) | (BinOp::Rem, _) => OpClass::IntDiv,
            (BinOp::Div, true) => OpClass::FloatDiv,
            _ => OpClass::IntAlu,
        }
    }
}

fn expr_type_in(e: &Expr, syms: &SymbolTable, program: &Program) -> Scalar {
    match e {
        Expr::IntLit(_) => Scalar::Int,
        Expr::RealLit(_) => Scalar::Real,
        Expr::BoolLit(_) => Scalar::Bool,
        Expr::Var(n) => syms.get(n).map_or(Scalar::Int, |t| t.elem()),
        Expr::ArrayElem { array, .. } => syms.get(array).map_or(Scalar::Real, |t| t.elem()),
        Expr::Unary { op, arg } => match op {
            UnOp::Neg => expr_type_in(arg, syms, program),
            UnOp::Not => Scalar::Bool,
        },
        Expr::Binary { op, lhs, rhs } => {
            if op.is_comparison() || op.is_logical() {
                Scalar::Bool
            } else {
                let l = expr_type_in(lhs, syms, program);
                let r = expr_type_in(rhs, syms, program);
                if l == Scalar::Real || r == Scalar::Real {
                    Scalar::Real
                } else {
                    Scalar::Int
                }
            }
        }
        Expr::Call { name, .. } => {
            if let Some(sig) = argo_ir::intrinsics::lookup(name) {
                sig.ret
            } else {
                program
                    .function(name)
                    .and_then(|f| f.ret)
                    .unwrap_or(Scalar::Int)
            }
        }
        Expr::Cast { to, .. } => *to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_adl::MemSpace;
    use argo_ir::parse::{parse_expr, parse_program};

    fn ctx_fixture() -> (Program, Platform, MemoryMap) {
        let p =
            parse_program("real f(real a[8], int i, real x) { return a[i] * x + 1.0; }").unwrap();
        let platform = Platform::xentium_manycore(2);
        let mem = MemoryMap::new();
        (p, platform, mem)
    }

    #[test]
    fn literals_cost_nothing() {
        let (p, platform, mem) = ctx_fixture();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let mut calls = Vec::new();
        assert_eq!(ctx.expr_cost(&Expr::int(5), "f", &mut calls), 0);
        assert_eq!(ctx.expr_cost(&Expr::real(2.5), "f", &mut calls), 0);
    }

    #[test]
    fn float_ops_cost_more_than_int_on_leon3() {
        let p = parse_program("real f(real x, int n) { return x; }").unwrap();
        let platform = Platform::kit_tile_noc(1, 2);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let mut calls = Vec::new();
        let fexpr = parse_expr("x + x").unwrap();
        let iexpr = parse_expr("n + n").unwrap();
        let fc = ctx.expr_cost(&fexpr, "f", &mut calls);
        let ic = ctx.expr_cost(&iexpr, "f", &mut calls);
        // Same access pattern, so difference is pure op cost.
        assert!(fc > ic);
    }

    #[test]
    fn array_access_includes_index_cost() {
        let (p, platform, mem) = ctx_fixture();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let mut calls = Vec::new();
        let simple = parse_expr("x").unwrap();
        let indexed = parse_expr("a[i]").unwrap();
        assert!(ctx.expr_cost(&indexed, "f", &mut calls) > ctx.expr_cost(&simple, "f", &mut calls));
    }

    #[test]
    fn shared_placement_is_expensive() {
        let (p, platform, mut mem) = ctx_fixture();
        mem.insert(
            "a",
            argo_adl::Placement {
                space: MemSpace::Shared,
                base_addr: 0,
                size_bytes: 64,
            },
        );
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let e = parse_expr("a[0]").unwrap();
        let mut calls = Vec::new();
        let c1 = ctx.expr_cost(&e, "f", &mut calls);
        assert!(c1 > ctx.timing().local_access);
    }

    #[test]
    fn another_cores_spm_costs_a_shared_access() {
        let (p, platform, mut mem) = ctx_fixture();
        mem.insert(
            "a",
            argo_adl::Placement {
                space: MemSpace::Spm(CoreId(1)),
                base_addr: 0,
                size_bytes: 64,
            },
        );
        let remote = CostCtx::new(&p, &platform, CoreId(0), &mem);
        assert_eq!(remote.access_cost("a"), remote.shared_access_cost());
        let owner = CostCtx::new(&p, &platform, CoreId(1), &mem);
        assert_eq!(owner.access_cost("a"), platform.core(CoreId(1)).spm_latency);
    }

    #[test]
    fn overrides_take_precedence() {
        let (p, platform, mut mem) = ctx_fixture();
        mem.insert(
            "a",
            argo_adl::Placement {
                space: MemSpace::Shared,
                base_addr: 0,
                size_bytes: 64,
            },
        );
        let mut ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        ctx.overrides.insert("a".into(), 1);
        assert_eq!(ctx.access_cost("a"), 1);
    }

    #[test]
    fn intrinsics_charge_by_name() {
        let (p, platform, mem) = ctx_fixture();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let mut calls = Vec::new();
        let sqrt = parse_expr("sqrt(x)").unwrap();
        let fmax = parse_expr("fmax(x, x)").unwrap();
        let cs = ctx.expr_cost(&sqrt, "f", &mut calls);
        let cf = ctx.expr_cost(&fmax, "f", &mut calls);
        // sqrt costs 20 on xentium, fmax 2; both also read x.
        assert!(cs > cf);
        assert!(calls.is_empty(), "intrinsics are not user calls");
    }

    #[test]
    fn user_calls_are_reported() {
        let p = parse_program(
            "real g(real y) { return y + 1.0; } real f(real x) { return g(x) * 2.0; }",
        )
        .unwrap();
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let mut calls = Vec::new();
        let e = parse_expr("g(x) * 2.0").unwrap();
        let c = ctx.expr_cost(&e, "f", &mut calls);
        assert_eq!(calls, vec!["g".to_string()]);
        assert!(c >= ctx.op_cost(OpClass::CallOverhead));
    }

    #[test]
    fn cache_makes_shared_accesses_dearer() {
        let (p, platform, mut mem) = ctx_fixture();
        mem.insert(
            "a",
            argo_adl::Placement {
                space: MemSpace::Shared,
                base_addr: 0,
                size_bytes: 64,
            },
        );
        let cached = platform.clone().with_caches(argo_adl::CacheConfig::small());
        let ctx_plain = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let ctx_cache = CostCtx::new(&p, &cached, CoreId(0), &mem);
        assert!(ctx_cache.shared_access_cost() > ctx_plain.shared_access_cost());
    }
}
