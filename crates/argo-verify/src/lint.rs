//! IR lints over the slot-resolved mirror ([`argo_ir::resolve`]).
//!
//! Four lints, all [`Severity::Warning`] (they flag suspicious code,
//! not demonstrated unsoundness, so they never fail the default gate):
//!
//! * **uninit-read** — definite-assignment dataflow over slot-indexed
//!   bitsets (the same shape as the interval fixpoint of the value
//!   analysis): a scalar slot read on some path before any assignment
//!   reaches it. Branch joins intersect; a branch that definitely
//!   returns is excluded from the join; loop bodies may run zero
//!   times, so their definitions are not definite afterwards.
//! * **dead-store** — a scalar assigned somewhere but never read
//!   anywhere in its function (parameters and loop induction
//!   variables are exempt).
//! * **unreachable-stmt** — a statement following a `return` in the
//!   same block (one finding per block, at the first dead statement).
//! * **unbounded-loop** — a `while` with no annotated trip-count bound
//!   (`bound == 0`); the frontend rejects these before WCET analysis,
//!   so this fires only in standalone lint runs.
//!
//! One finding per (function, slot) or (function, statement);
//! deterministic order (functions in program order, slots/statements
//! in visit order) before the report-level stable sort.

use crate::{Finding, Severity};
use argo_core::{Diagnostic, ErrorCode, Stage};
use argo_ir::ast::Program;
use argo_ir::resolve::{RArg, RCall, RExpr, RFunction, RLValue, RStmtKind, Resolution, Slot};

/// Lints every function of `program` on its slot-resolved mirror.
pub fn lint_program(program: &Program) -> Vec<Finding> {
    lint_resolution(&Resolution::of(program))
}

/// Lints every function of an already resolved program: the
/// resolution is a pure function of the program, so a caller holding
/// one (a [`argo_parir::ParallelProgram`] shares the frontend's) skips
/// resolving again and gets [`lint_program`]'s findings.
pub fn lint_resolution(res: &Resolution) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &res.functions {
        FnLinter::new(res, f).run(&mut findings);
    }
    findings
}

struct FnLinter<'a> {
    res: &'a Resolution,
    f: &'a RFunction,
    /// Slots already reported as possibly-uninitialized reads.
    uninit_reported: Vec<bool>,
    /// Slots read anywhere (any path, any position).
    read: Vec<bool>,
    /// Scalar slots assigned anywhere.
    stored: Vec<bool>,
    /// Slots exempt from dead-store (params, loop vars, arrays).
    exempt: Vec<bool>,
    findings: Vec<Finding>,
}

impl<'a> FnLinter<'a> {
    fn new(res: &'a Resolution, f: &'a RFunction) -> FnLinter<'a> {
        let n = f.frame_len as usize;
        let mut exempt = vec![false; n];
        for p in &f.params {
            exempt[p.slot.idx()] = true;
        }
        FnLinter {
            res,
            f,
            uninit_reported: vec![false; n],
            read: vec![false; n],
            stored: vec![false; n],
            exempt,
            findings: Vec::new(),
        }
    }

    fn fn_name(&self) -> &str {
        self.res.name(self.f.name)
    }

    fn slot_name(&self, slot: Slot) -> &str {
        self.res.name(self.f.slot_symbols[slot.idx()])
    }

    fn warn(&mut self, code: ErrorCode, entity: String, message: String) {
        self.findings.push(Finding::new(
            Severity::Warning,
            Diagnostic::new(Stage::Verify, code, message).with_entity(entity),
        ));
    }

    fn run(mut self, out: &mut Vec<Finding>) {
        let mut defined = vec![false; self.f.frame_len as usize];
        for p in &self.f.params {
            defined[p.slot.idx()] = true;
        }
        let body: Vec<u32> = self.f.body.clone();
        self.scan_block(&body, &mut defined);
        for slot in 0..self.stored.len() {
            if self.stored[slot] && !self.read[slot] && !self.exempt[slot] {
                let var = self.slot_name(Slot(slot as u32)).to_string();
                let func = self.fn_name().to_string();
                self.warn(
                    ErrorCode::DeadStore,
                    format!("{func}::{var}"),
                    format!("`{var}` is assigned in `{func}` but its value is never read"),
                );
            }
        }
        out.append(&mut self.findings);
    }

    /// Scans a statement list; returns `true` when the block
    /// definitely returns on every path.
    fn scan_block(&mut self, stmts: &[u32], defined: &mut Vec<bool>) -> bool {
        for (i, &si) in stmts.iter().enumerate() {
            let returns = self.scan_stmt(si, defined);
            if returns {
                if i + 1 < stmts.len() {
                    let next = self.f.stmt(stmts[i + 1]);
                    let func = self.fn_name().to_string();
                    self.warn(
                        ErrorCode::UnreachableStmt,
                        format!("{func}@s{}", next.id.0),
                        format!(
                            "statement s{} in `{func}` follows a return and can never execute",
                            next.id.0
                        ),
                    );
                    // Keep linting the dead tail (secondary findings),
                    // but on a throwaway state: it never executes.
                    let mut dead_state = defined.clone();
                    for &sj in &stmts[i + 1..] {
                        self.scan_stmt(sj, &mut dead_state);
                    }
                }
                return true;
            }
        }
        false
    }

    /// Scans one statement; returns `true` when it definitely returns.
    fn scan_stmt(&mut self, si: u32, defined: &mut Vec<bool>) -> bool {
        // Clone the kind handle implicitly by splitting borrows: the
        // statement is read-only, the linter state is mutable.
        let stmt = self.f.stmt(si);
        match &stmt.kind {
            RStmtKind::DeclScalar { slot, init, .. } => {
                if let Some(e) = init {
                    self.scan_expr(e, defined);
                    self.stored[slot.idx()] = true;
                }
                defined[slot.idx()] = init.is_some();
                false
            }
            RStmtKind::DeclArray { slot, .. } => {
                defined[slot.idx()] = true;
                self.exempt[slot.idx()] = true;
                false
            }
            RStmtKind::Assign { target, value } => {
                self.scan_expr(value, defined);
                match target {
                    RLValue::Var(slot) => {
                        self.stored[slot.idx()] = true;
                        defined[slot.idx()] = true;
                    }
                    RLValue::Elem { array, indices } => {
                        for e in indices {
                            self.scan_expr(e, defined);
                        }
                        // Writing an element is a use of the array.
                        self.read[array.idx()] = true;
                    }
                }
                false
            }
            RStmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.scan_expr(cond, defined);
                let mut s_then = defined.clone();
                let mut s_else = defined.clone();
                let r_then = self.scan_block(then_blk, &mut s_then);
                let r_else = self.scan_block(else_blk, &mut s_else);
                match (r_then, r_else) {
                    (true, true) => return true,
                    (true, false) => *defined = s_else,
                    (false, true) => *defined = s_then,
                    (false, false) => {
                        for (d, (&a, &b)) in
                            defined.iter_mut().zip(s_then.iter().zip(s_else.iter()))
                        {
                            *d = a && b;
                        }
                    }
                }
                false
            }
            RStmtKind::For {
                var, lo, hi, body, ..
            } => {
                self.scan_expr(lo, defined);
                self.scan_expr(hi, defined);
                defined[var.idx()] = true;
                self.exempt[var.idx()] = true;
                // Zero-trip possible: body definitions are not definite.
                let mut s_body = defined.clone();
                self.scan_block(body, &mut s_body);
                false
            }
            RStmtKind::While { cond, bound, body } => {
                if *bound == 0 {
                    let func = self.fn_name().to_string();
                    self.warn(
                        ErrorCode::UnboundedLoop,
                        format!("{func}@s{}", stmt.id.0),
                        format!(
                            "while loop s{} in `{func}` carries no trip-count bound; \
                             WCET analysis will reject it",
                            stmt.id.0
                        ),
                    );
                }
                self.scan_expr(cond, defined);
                let mut s_body = defined.clone();
                self.scan_block(body, &mut s_body);
                false
            }
            RStmtKind::Call(call) => {
                self.scan_call(call, defined);
                false
            }
            RStmtKind::Return { value } => {
                if let Some(e) = value {
                    self.scan_expr(e, defined);
                }
                true
            }
        }
    }

    fn scan_expr(&mut self, e: &RExpr, defined: &[bool]) {
        match e {
            RExpr::Int(_) | RExpr::Real(_) | RExpr::Bool(_) => {}
            RExpr::Var(slot) => {
                self.read[slot.idx()] = true;
                if !defined[slot.idx()] && !self.uninit_reported[slot.idx()] {
                    self.uninit_reported[slot.idx()] = true;
                    let var = self.slot_name(*slot).to_string();
                    let func = self.fn_name().to_string();
                    self.warn(
                        ErrorCode::UninitRead,
                        format!("{func}::{var}"),
                        format!("`{var}` may be read in `{func}` before any assignment reaches it"),
                    );
                }
            }
            RExpr::Elem { array, indices } => {
                self.read[array.idx()] = true;
                for i in indices {
                    self.scan_expr(i, defined);
                }
            }
            RExpr::Unary { arg, .. } => self.scan_expr(arg, defined),
            RExpr::Binary { lhs, rhs, .. } => {
                self.scan_expr(lhs, defined);
                self.scan_expr(rhs, defined);
            }
            RExpr::Call(call) => self.scan_call(call, defined),
            RExpr::Cast { arg, .. } => self.scan_expr(arg, defined),
        }
    }

    fn scan_call(&mut self, call: &RCall, defined: &[bool]) {
        match call {
            RCall::Intrinsic { args, .. } => {
                for a in args {
                    self.scan_expr(a, defined);
                }
            }
            RCall::User { args, .. } => {
                for a in args {
                    match a {
                        RArg::Scalar { expr, .. } => self.scan_expr(expr, defined),
                        RArg::Array { slot } => {
                            // Passing an array is a use (and the callee
                            // may write it; arrays stay defined).
                            self.read[slot.idx()] = true;
                        }
                        RArg::ArrayMismatch { .. } => {}
                    }
                }
            }
            // The validator rejects these before linting matters.
            RCall::UserBadArity { .. } | RCall::Unknown { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::parse::parse_program;

    #[test]
    fn each_lint_fires_and_a_shared_resolution_gives_the_same_findings() {
        let program = parse_program(
            "void main(real out[4]) { int x; int y; int k; \
             y = x + 1; k = 3; \
             #pragma bound 0\n while (y > 0) { y = y - 1; } \
             out[0] = 1.0; return; out[1] = 2.0; }",
        )
        .unwrap();
        let findings = lint_program(&program);
        let entities: Vec<(&str, &str)> = findings
            .iter()
            .map(|f| {
                let d = &f.diagnostic;
                (d.code.label(), d.entity.as_deref().unwrap_or(""))
            })
            .collect();
        for expected in [
            ("uninit-read", "main::x"),
            ("dead-store", "main::k"),
            ("unbounded-loop", "main@s5"),
            ("unreachable-stmt", "main@s9"),
        ] {
            assert!(entities.contains(&expected), "{expected:?} in {entities:?}");
        }
        assert!(findings.iter().all(|f| f.severity == Severity::Warning));
        assert_eq!(findings, lint_resolution(&Resolution::of(&program)));
    }
}
