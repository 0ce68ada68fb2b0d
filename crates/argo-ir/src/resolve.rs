//! Name resolution: interned symbols, frame-slot binding and the
//! slot-resolved statement mirror.
//!
//! The AST ([`crate::ast`]) is deliberately *stringly*: every variable,
//! array and call site carries its source name, which keeps parsing,
//! printing and the transformation passes simple. The execution-shaped
//! consumers — the interpreter behind `argo-sim`, the interval value
//! analysis in `argo-wcet` — used to pay for that with a string-keyed
//! map lookup (and frequently a `String` clone) on every variable
//! touch. This module removes those costs once and for all by
//! computing, in a single pass per program:
//!
//! * a [`Symbol`] table interning every identifier into a dense `u32`
//!   (one global [`Interner`] per [`Resolution`]);
//! * a **frame layout** per function: every distinct name referenced in
//!   the function body is assigned a dense [`Slot`] index
//!   (parameters first, then first-reference order), so an activation
//!   frame is a flat `Vec` indexed in O(1) with zero hashing;
//! * a **resolved mirror** of every statement ([`RStmt`]) and
//!   expression ([`RExpr`]) in which all variable/array references are
//!   pre-bound to slots and all call sites are pre-bound to their
//!   callee (user function index, intrinsic signature, or a recorded
//!   unknown) — the AST itself is never mutated;
//! * a [`StmtId`]-keyed lookup table so drivers that execute statements
//!   individually (the platform simulator's task replay) reach the
//!   resolved form of any statement in O(1).
//!
//! # Invariants
//!
//! * Resolution is **total**: it never fails, even for invalid
//!   programs. Name errors the old string-keyed interpreter reported at
//!   runtime (unbound variables, unknown callees, arity mismatches) are
//!   recorded in the mirror (`Unbound` slots start in that state at
//!   runtime; [`RCall::Unknown`] / [`RCall::UserBadArity`] carry the
//!   failure) and surface at execution time with the same messages.
//! * Resolution is a pure function of the program: equal programs
//!   resolve to equal mirrors, which is what makes the resolution
//!   artifact cacheable and fingerprintable (`argo-core` hashes the
//!   frame layouts and mirror shape; see `Fingerprintable` there).
//! * Statement-id lookup requires the program to have been
//!   [renumbered](crate::ast::Program::renumber) (ids unique). When ids
//!   are not unique the mirror itself still works — only by-id lookup
//!   ([`Resolution::stmt_loc`]) is disabled.
//! * Slot order is deterministic: parameters in declaration order, then
//!   body names in depth-first first-reference order. Two sessions
//!   resolving equal programs therefore agree on every slot index —
//!   the property the `argo-dse` cache tiers rely on when they reuse a
//!   resolved frontend artifact across design points.

use crate::ast::*;
use crate::intrinsics::{self, Signature};
use crate::types::{Scalar, Type};
use std::collections::HashMap;

/// An interned identifier: index into the resolution's [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// A frame-slot index within one function's activation frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(pub u32);

impl Slot {
    /// The slot as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Dense string interner: every distinct identifier in the program maps
/// to one [`Symbol`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    /// Interns `name`, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.ids.get(name) {
            return Symbol(id);
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        Symbol(id)
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.ids.get(name).map(|&id| Symbol(id))
    }

    /// The string of a symbol.
    #[inline]
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.0 as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A resolved function parameter.
#[derive(Debug, Clone, Copy)]
pub struct RParam {
    /// The parameter's frame slot (parameters occupy the first slots in
    /// declaration order).
    pub slot: Slot,
    /// `true` for array parameters (bound by reference).
    pub is_array: bool,
    /// Scalar type (element type for arrays).
    pub elem: Scalar,
}

/// A resolved lvalue.
#[derive(Debug, Clone)]
pub enum RLValue {
    /// Scalar variable slot.
    Var(Slot),
    /// Array-element store.
    Elem {
        /// Array variable slot.
        array: Slot,
        /// One resolved index expression per dimension.
        indices: Vec<RExpr>,
    },
}

/// A resolved call argument (user functions only).
#[derive(Debug, Clone)]
pub enum RArg {
    /// Scalar argument, coerced to the parameter type at the call.
    Scalar {
        /// The argument expression.
        expr: RExpr,
        /// Target parameter scalar type.
        to: Scalar,
    },
    /// Array argument: the caller's array slot (aliased by reference).
    Array {
        /// Caller-frame slot holding the array.
        slot: Slot,
    },
    /// An array parameter whose argument was not a plain variable —
    /// surfaces the classic runtime error at the call site.
    ArrayMismatch {
        /// Parameter name (for the error message).
        param: String,
    },
}

/// A resolved call site (statement or expression position).
#[derive(Debug, Clone)]
pub enum RCall {
    /// Intrinsic call: signature pre-looked-up, arguments paired with
    /// their parameter types (extra arguments, if any, are dropped
    /// exactly as the string-keyed evaluation dropped them).
    Intrinsic {
        /// The intrinsic's signature (name, params, return).
        sig: &'static Signature,
        /// Resolved argument expressions (zipped with `sig.params`).
        args: Vec<RExpr>,
    },
    /// User-function call with matching arity.
    User {
        /// Callee index into [`Resolution::functions`].
        func: u32,
        /// Resolved arguments in parameter order.
        args: Vec<RArg>,
    },
    /// User-function call with mismatched arity (runtime error).
    UserBadArity {
        /// Callee index into [`Resolution::functions`].
        func: u32,
    },
    /// Call to a name that is neither an intrinsic nor a program
    /// function (runtime error: ``no function `name```).
    Unknown {
        /// The unresolved callee name.
        name: Symbol,
    },
}

/// A resolved expression: structurally the AST expression with every
/// name reference replaced by a [`Slot`] and every call pre-bound.
#[derive(Debug, Clone)]
pub enum RExpr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Boolean literal.
    Bool(bool),
    /// Scalar variable read.
    Var(Slot),
    /// Array element read.
    Elem {
        /// Array variable slot.
        array: Slot,
        /// One resolved index expression per dimension.
        indices: Vec<RExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Box<RExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<RExpr>,
        /// Right operand.
        rhs: Box<RExpr>,
    },
    /// Call in expression position.
    Call(RCall),
    /// Explicit cast.
    Cast {
        /// Target scalar type.
        to: Scalar,
        /// Operand.
        arg: Box<RExpr>,
    },
}

/// A resolved statement (with its original [`StmtId`] preserved).
#[derive(Debug, Clone)]
pub struct RStmt {
    /// The statement's program-unique id.
    pub id: StmtId,
    /// The resolved statement kind.
    pub kind: RStmtKind,
}

/// Resolved statement kinds. Child blocks are stored as index lists
/// into the owning function's statement arena ([`RFunction::stmts`]).
#[derive(Debug, Clone)]
pub enum RStmtKind {
    /// Scalar declaration.
    DeclScalar {
        /// Target slot.
        slot: Slot,
        /// Declared scalar type.
        scalar: Scalar,
        /// Optional initialiser.
        init: Option<RExpr>,
    },
    /// Array declaration (zero-initialised allocation).
    DeclArray {
        /// Target slot.
        slot: Slot,
        /// Element type.
        elem: Scalar,
        /// Dimensions, outermost first.
        dims: Vec<usize>,
    },
    /// Assignment.
    Assign {
        /// Resolved target.
        target: RLValue,
        /// Resolved right-hand side.
        value: RExpr,
    },
    /// Two-armed conditional.
    If {
        /// Condition.
        cond: RExpr,
        /// Then-branch statement indices.
        then_blk: Vec<u32>,
        /// Else-branch statement indices.
        else_blk: Vec<u32>,
    },
    /// Counted loop.
    For {
        /// Induction-variable slot.
        var: Slot,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Constant positive step.
        step: i64,
        /// Body statement indices.
        body: Vec<u32>,
    },
    /// Bounded condition loop.
    While {
        /// Condition.
        cond: RExpr,
        /// Declared iteration bound.
        bound: u64,
        /// Body statement indices.
        body: Vec<u32>,
    },
    /// Call in statement position.
    Call(RCall),
    /// Return.
    Return {
        /// Returned value, if any.
        value: Option<RExpr>,
    },
}

/// The resolved view of one function: frame layout plus statement
/// arena.
#[derive(Debug, Clone)]
pub struct RFunction {
    /// Function name.
    pub name: Symbol,
    /// Number of frame slots (activation-frame length).
    pub frame_len: u32,
    /// Slot → symbol (for diagnostics and hook callbacks).
    pub slot_symbols: Vec<Symbol>,
    /// Sorted `(symbol, slot)` pairs for boundary name lookups.
    slot_by_symbol: Vec<(u32, u32)>,
    /// Resolved parameters in declaration order.
    pub params: Vec<RParam>,
    /// Top-level statement indices into [`RFunction::stmts`].
    pub body: Vec<u32>,
    /// The statement arena (every statement of the function).
    pub stmts: Vec<RStmt>,
    /// User functions called anywhere in the body (deduplicated,
    /// first-call order), as indices into [`Resolution::functions`].
    pub callees: Vec<u32>,
}

impl RFunction {
    /// The slot bound to `sym`, if the function references that name.
    pub fn slot_of_symbol(&self, sym: Symbol) -> Option<Slot> {
        self.slot_by_symbol
            .binary_search_by_key(&sym.0, |&(s, _)| s)
            .ok()
            .map(|i| Slot(self.slot_by_symbol[i].1))
    }

    /// The statement at arena index `i`.
    #[inline]
    pub fn stmt(&self, i: u32) -> &RStmt {
        &self.stmts[i as usize]
    }
}

/// The complete resolution of one program: interner, per-function frame
/// layouts and resolved statement mirrors, and the by-id lookup table.
#[derive(Debug, Clone)]
pub struct Resolution {
    interner: Interner,
    /// Resolved functions, parallel to `Program::functions`.
    pub functions: Vec<RFunction>,
    func_by_symbol: HashMap<u32, u32>,
    /// `StmtId.0` → `(function index, arena index)`; `u32::MAX`
    /// sentinel for unused ids. Only trusted when `ids_unique`.
    stmt_loc: Vec<(u32, u32)>,
    ids_unique: bool,
    stmt_total: u32,
}

impl Resolution {
    /// Resolves `program`. Total: never fails (see module docs).
    pub fn of(program: &Program) -> Resolution {
        let mut interner = Interner::default();
        let mut func_by_symbol = HashMap::with_capacity(program.functions.len());
        for (i, f) in program.functions.iter().enumerate() {
            let sym = interner.intern(&f.name);
            // First definition wins on (invalid) duplicate names, like
            // `Program::function` lookup does.
            func_by_symbol.entry(sym.0).or_insert(i as u32);
        }
        let mut functions = Vec::with_capacity(program.functions.len());
        let mut max_id = 0u32;
        for f in &program.functions {
            crate::visit::walk_stmts(&f.body, &mut |s| max_id = max_id.max(s.id.0));
        }
        let mut stmt_loc = vec![(u32::MAX, u32::MAX); max_id as usize + 2];
        let mut ids_unique = true;
        let mut stmt_total = 0u32;
        for (fi, f) in program.functions.iter().enumerate() {
            let rf = FnResolver {
                program,
                interner: &mut interner,
                func_by_symbol: &func_by_symbol,
                slots: HashMap::new(),
                slot_symbols: Vec::new(),
                arena: Vec::new(),
                callees: Vec::new(),
            }
            .resolve(f);
            for (si, s) in rf.stmts.iter().enumerate() {
                stmt_total += 1;
                let loc = &mut stmt_loc[s.id.0 as usize];
                if loc.0 != u32::MAX {
                    ids_unique = false;
                }
                *loc = (fi as u32, si as u32);
            }
            functions.push(rf);
        }
        Resolution {
            interner,
            functions,
            func_by_symbol,
            stmt_loc,
            ids_unique,
            stmt_total,
        }
    }

    /// The string of a symbol.
    #[inline]
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.name(sym)
    }

    /// Looks up an interned name.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.interner.lookup(name)
    }

    /// Index of the function named `name`.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        let sym = self.interner.lookup(name)?;
        self.func_by_symbol.get(&sym.0).map(|&i| i as usize)
    }

    /// The resolved function at `idx`.
    #[inline]
    pub fn function(&self, idx: usize) -> &RFunction {
        &self.functions[idx]
    }

    /// Indices of every function that function `entry` reaches through
    /// calls ([`RFunction::callees`], transitively), in program order;
    /// never `entry` itself.
    pub fn reached_from(&self, entry: usize) -> Vec<usize> {
        let mut reached = vec![false; self.functions.len()];
        reached[entry] = true;
        let mut queue = vec![entry];
        while let Some(fi) = queue.pop() {
            for &ci in &self.functions[fi].callees {
                if !std::mem::replace(&mut reached[ci as usize], true) {
                    queue.push(ci as usize);
                }
            }
        }
        reached[entry] = false;
        (0..reached.len()).filter(|&i| reached[i]).collect()
    }

    /// `(function index, arena index)` of the statement with `id`, or
    /// `None` if the id is unknown or ids are not unique (program not
    /// renumbered).
    pub fn stmt_loc(&self, id: StmtId) -> Option<(usize, u32)> {
        if !self.ids_unique {
            return None;
        }
        let loc = *self.stmt_loc.get(id.0 as usize)?;
        (loc.0 != u32::MAX).then_some((loc.0 as usize, loc.1))
    }

    /// The slot bound to `name` in function `func_idx`.
    pub fn slot_of(&self, func_idx: usize, name: &str) -> Option<Slot> {
        let sym = self.interner.lookup(name)?;
        self.functions[func_idx].slot_of_symbol(sym)
    }

    /// Total number of resolved statements.
    pub fn stmt_count(&self) -> usize {
        self.stmt_total as usize
    }

    /// Number of interned symbols.
    pub fn symbol_count(&self) -> usize {
        self.interner.len()
    }

    /// `true` when statement ids were unique (program renumbered) and
    /// [`Resolution::stmt_loc`] is usable.
    pub fn ids_unique(&self) -> bool {
        self.ids_unique
    }
}

struct FnResolver<'p> {
    program: &'p Program,
    interner: &'p mut Interner,
    func_by_symbol: &'p HashMap<u32, u32>,
    slots: HashMap<u32, u32>,
    slot_symbols: Vec<Symbol>,
    arena: Vec<RStmt>,
    callees: Vec<u32>,
}

impl<'p> FnResolver<'p> {
    fn slot_for(&mut self, name: &str) -> Slot {
        let sym = self.interner.intern(name);
        if let Some(&s) = self.slots.get(&sym.0) {
            return Slot(s);
        }
        let s = self.slot_symbols.len() as u32;
        self.slots.insert(sym.0, s);
        self.slot_symbols.push(sym);
        Slot(s)
    }

    fn resolve(mut self, f: &Function) -> RFunction {
        let name = self.interner.intern(&f.name);
        let params: Vec<RParam> = f
            .params
            .iter()
            .map(|p| RParam {
                slot: self.slot_for(&p.name),
                is_array: p.ty.is_array(),
                elem: p.ty.elem(),
            })
            .collect();
        let body = self.resolve_block(&f.body);
        let mut slot_by_symbol: Vec<(u32, u32)> =
            self.slots.iter().map(|(&sym, &slot)| (sym, slot)).collect();
        slot_by_symbol.sort_unstable();
        RFunction {
            name,
            frame_len: self.slot_symbols.len() as u32,
            slot_symbols: self.slot_symbols,
            slot_by_symbol,
            params,
            body,
            stmts: self.arena,
            callees: self.callees,
        }
    }

    fn resolve_block(&mut self, b: &Block) -> Vec<u32> {
        let mut out = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            let kind = match &s.kind {
                StmtKind::Decl { name, ty, init } => {
                    let slot = self.slot_for(name);
                    match ty {
                        Type::Scalar(sc) => RStmtKind::DeclScalar {
                            slot,
                            scalar: *sc,
                            init: init.as_ref().map(|e| self.resolve_expr(e)),
                        },
                        Type::Array { elem, dims } => RStmtKind::DeclArray {
                            slot,
                            elem: *elem,
                            dims: dims.clone(),
                        },
                    }
                }
                StmtKind::Assign { target, value } => RStmtKind::Assign {
                    target: match target {
                        LValue::Var(n) => RLValue::Var(self.slot_for(n)),
                        LValue::ArrayElem { array, indices } => RLValue::Elem {
                            array: self.slot_for(array),
                            indices: indices.iter().map(|e| self.resolve_expr(e)).collect(),
                        },
                    },
                    value: self.resolve_expr(value),
                },
                StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                } => RStmtKind::If {
                    cond: self.resolve_expr(cond),
                    then_blk: self.resolve_block(then_blk),
                    else_blk: self.resolve_block(else_blk),
                },
                StmtKind::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => RStmtKind::For {
                    var: self.slot_for(var),
                    lo: self.resolve_expr(lo),
                    hi: self.resolve_expr(hi),
                    step: *step,
                    body: self.resolve_block(body),
                },
                StmtKind::While { cond, bound, body } => RStmtKind::While {
                    cond: self.resolve_expr(cond),
                    bound: *bound,
                    body: self.resolve_block(body),
                },
                StmtKind::Call { name, args } => RStmtKind::Call(self.resolve_call(name, args)),
                StmtKind::Return { value } => RStmtKind::Return {
                    value: value.as_ref().map(|e| self.resolve_expr(e)),
                },
            };
            let idx = self.arena.len() as u32;
            self.arena.push(RStmt { id: s.id, kind });
            out.push(idx);
        }
        out
    }

    fn resolve_expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::IntLit(v) => RExpr::Int(*v),
            Expr::RealLit(v) => RExpr::Real(*v),
            Expr::BoolLit(v) => RExpr::Bool(*v),
            Expr::Var(n) => RExpr::Var(self.slot_for(n)),
            Expr::ArrayElem { array, indices } => RExpr::Elem {
                array: self.slot_for(array),
                indices: indices.iter().map(|e| self.resolve_expr(e)).collect(),
            },
            Expr::Unary { op, arg } => RExpr::Unary {
                op: *op,
                arg: Box::new(self.resolve_expr(arg)),
            },
            Expr::Binary { op, lhs, rhs } => RExpr::Binary {
                op: *op,
                lhs: Box::new(self.resolve_expr(lhs)),
                rhs: Box::new(self.resolve_expr(rhs)),
            },
            Expr::Call { name, args } => RExpr::Call(self.resolve_call(name, args)),
            Expr::Cast { to, arg } => RExpr::Cast {
                to: *to,
                arg: Box::new(self.resolve_expr(arg)),
            },
        }
    }

    fn resolve_call(&mut self, name: &str, args: &[Expr]) -> RCall {
        if let Some(sig) = intrinsics::lookup(name) {
            // Zip with the parameter list exactly like evaluation did:
            // surplus arguments are dropped (validation rejects them
            // anyway), missing ones surface at evaluation.
            let args = args
                .iter()
                .zip(sig.params)
                .map(|(a, _)| self.resolve_expr(a))
                .collect();
            return RCall::Intrinsic { sig, args };
        }
        let sym = self.interner.intern(name);
        let Some(&fi) = self.func_by_symbol.get(&sym.0) else {
            return RCall::Unknown { name: sym };
        };
        if !self.callees.contains(&fi) {
            self.callees.push(fi);
        }
        let callee = &self.program.functions[fi as usize];
        if callee.params.len() != args.len() {
            return RCall::UserBadArity { func: fi };
        }
        let args = args
            .iter()
            .zip(&callee.params)
            .map(|(a, p)| {
                if p.ty.is_array() {
                    match a {
                        Expr::Var(arg_name) => RArg::Array {
                            slot: self.slot_for(arg_name),
                        },
                        _ => RArg::ArrayMismatch {
                            param: p.name.clone(),
                        },
                    }
                } else {
                    RArg::Scalar {
                        expr: self.resolve_expr(a),
                        to: p.ty.elem(),
                    }
                }
            })
            .collect();
        RCall::User { func: fi, args }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    const SRC: &str = "int helper(int v) { return v + 1; }\n\
                       int main(int n, real a[4]) { int i; int s; s = 0;\n\
                       for (i = 0; i < n; i = i + 1) { s = s + helper(i); a[0] = 1.0; }\n\
                       return s; }";

    #[test]
    fn params_get_the_first_slots_in_order() {
        let p = parse_program(SRC).unwrap();
        let r = Resolution::of(&p);
        let main = &r.functions[r.function_index("main").unwrap()];
        assert_eq!(main.params.len(), 2);
        assert_eq!(main.params[0].slot, Slot(0));
        assert_eq!(main.params[1].slot, Slot(1));
        assert!(main.params[1].is_array);
        assert_eq!(r.name(main.slot_symbols[0]), "n");
        assert_eq!(r.name(main.slot_symbols[1]), "a");
    }

    #[test]
    fn every_referenced_name_gets_exactly_one_slot() {
        let p = parse_program(SRC).unwrap();
        let r = Resolution::of(&p);
        let main = &r.functions[r.function_index("main").unwrap()];
        // n, a, i, s — each once.
        assert_eq!(main.frame_len, 4);
        let slot_i = r.slot_of(r.function_index("main").unwrap(), "i").unwrap();
        let slot_s = r.slot_of(r.function_index("main").unwrap(), "s").unwrap();
        assert_ne!(slot_i, slot_s);
    }

    #[test]
    fn calls_are_prebound_and_callees_recorded() {
        let p = parse_program(SRC).unwrap();
        let r = Resolution::of(&p);
        let hi = r.function_index("helper").unwrap();
        let main = &r.functions[r.function_index("main").unwrap()];
        assert_eq!(main.callees, vec![hi as u32]);
    }

    #[test]
    fn stmt_ids_map_to_arena_locations() {
        let p = parse_program(SRC).unwrap();
        let r = Resolution::of(&p);
        assert!(r.ids_unique());
        assert_eq!(r.stmt_count(), p.stmt_count());
        // Every id round-trips.
        crate::visit::walk_stmts(&p.functions[1].body, &mut |s| {
            let (fi, si) = r.stmt_loc(s.id).expect("located");
            assert_eq!(r.functions[fi].stmt(si).id, s.id);
        });
    }

    #[test]
    fn unknown_callee_is_recorded_not_fatal() {
        // Bypass validation: hand-built program with an unknown call.
        let p = parse_program("void f() { }").unwrap();
        let mut p = p;
        p.functions[0].body.stmts.push(Stmt::new(StmtKind::Call {
            name: "mystery".into(),
            args: vec![],
        }));
        p.renumber();
        let r = Resolution::of(&p);
        let f = &r.functions[0];
        match &f.stmts.last().unwrap().kind {
            RStmtKind::Call(RCall::Unknown { name }) => assert_eq!(r.name(*name), "mystery"),
            other => panic!("expected unknown call, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_ids_disable_by_id_lookup() {
        // Hand-built, un-renumbered AST: every statement carries id 0.
        let p = Program {
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                ret: None,
                body: Block::of(vec![
                    Stmt::new(StmtKind::Return { value: None }),
                    Stmt::new(StmtKind::Return { value: None }),
                ]),
            }],
        };
        let r = Resolution::of(&p);
        assert!(!r.ids_unique());
        assert!(r.stmt_loc(StmtId(0)).is_none());
    }

    #[test]
    fn resolution_is_deterministic() {
        let p = parse_program(SRC).unwrap();
        let a = Resolution::of(&p);
        let b = Resolution::of(&p);
        assert_eq!(a.symbol_count(), b.symbol_count());
        for (fa, fb) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.frame_len, fb.frame_len);
            assert_eq!(fa.slot_symbols, fb.slot_symbols);
            assert_eq!(fa.body, fb.body);
        }
    }
}
