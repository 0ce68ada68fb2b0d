//! Reference interpreter for the mini-C IR.
//!
//! The interpreter serves two roles in the reproduction:
//!
//! 1. **Functional oracle** — the sequential semantics against which the
//!    parallelized program (executed by `argo-sim`) is checked for bitwise
//!    equality.
//! 2. **Execution engine of the platform simulator** — `argo-sim` drives
//!    the interpreter statement-by-statement through an [`ExecHook`] that
//!    observes every operation and memory access and charges platform
//!    cycles for them.
//!
//! Since the slot-resolution rework the interpreter executes the
//! [resolved mirror](crate::resolve) of the program, not the AST:
//! [`Interp::new`] resolves the program once (or borrows a prebuilt
//! [`Resolution`] via [`Interp::with_resolution`]), and every activation
//! [`Frame`] is a flat `Vec` of bindings indexed by frame slot — the
//! per-statement execution path performs no string hashing and no
//! string clones. Hooks still receive variable *names* (`&str`
//! borrowed from the resolution's interner) so address- and
//! placement-sensitive timing models keep working unchanged.
//!
//! Runtime errors (out-of-bounds indexing, exceeded `while` bounds,
//! division by zero) are reported, never ignored: an exceeded loop bound
//! means a WCET annotation was unsound and the tests treat that as fatal.

use crate::ast::*;
use crate::resolve::{RArg, RCall, RExpr, RFunction, RLValue, RStmt, RStmtKind, Resolution, Slot};
use crate::types::{Scalar, Type};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarVal {
    /// 64-bit integer value.
    Int(i64),
    /// 64-bit float value.
    Real(f64),
    /// Boolean value.
    Bool(bool),
}

impl ScalarVal {
    /// The scalar type of this value.
    pub fn scalar(&self) -> Scalar {
        match self {
            ScalarVal::Int(_) => Scalar::Int,
            ScalarVal::Real(_) => Scalar::Real,
            ScalarVal::Bool(_) => Scalar::Bool,
        }
    }

    fn as_int(&self) -> Result<i64, RuntimeError> {
        match self {
            ScalarVal::Int(v) => Ok(*v),
            other => Err(RuntimeError::new(format!("expected int, found {other:?}"))),
        }
    }

    fn as_real(&self) -> Result<f64, RuntimeError> {
        match self {
            ScalarVal::Real(v) => Ok(*v),
            ScalarVal::Int(v) => Ok(*v as f64),
            other => Err(RuntimeError::new(format!("expected real, found {other:?}"))),
        }
    }

    fn as_bool(&self) -> Result<bool, RuntimeError> {
        match self {
            ScalarVal::Bool(v) => Ok(*v),
            other => Err(RuntimeError::new(format!("expected bool, found {other:?}"))),
        }
    }
}

impl fmt::Display for ScalarVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarVal::Int(v) => write!(f, "{v}"),
            ScalarVal::Real(v) => write!(f, "{v}"),
            ScalarVal::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Flat storage for an array variable.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayData {
    /// Element type.
    pub elem: Scalar,
    /// Dimensions, outermost first.
    pub dims: Vec<usize>,
    /// Row-major element storage.
    pub data: Vec<ScalarVal>,
}

impl ArrayData {
    /// Creates a zero-initialised array of the given shape.
    pub fn zeroed(elem: Scalar, dims: Vec<usize>) -> ArrayData {
        let n: usize = dims.iter().product();
        let z = match elem {
            Scalar::Int => ScalarVal::Int(0),
            Scalar::Real => ScalarVal::Real(0.0),
            Scalar::Bool => ScalarVal::Bool(false),
        };
        ArrayData {
            elem,
            dims,
            data: vec![z; n],
        }
    }

    /// Creates a 1-D real array from a slice.
    pub fn from_reals(values: &[f64]) -> ArrayData {
        ArrayData {
            elem: Scalar::Real,
            dims: vec![values.len()],
            data: values.iter().map(|&v| ScalarVal::Real(v)).collect(),
        }
    }

    /// Creates a 1-D int array from a slice.
    pub fn from_ints(values: &[i64]) -> ArrayData {
        ArrayData {
            elem: Scalar::Int,
            dims: vec![values.len()],
            data: values.iter().map(|&v| ScalarVal::Int(v)).collect(),
        }
    }

    /// Extracts all elements as `f64` (ints are widened).
    ///
    /// # Panics
    ///
    /// Panics if the array contains booleans.
    pub fn to_reals(&self) -> Vec<f64> {
        self.data
            .iter()
            .map(|v| match v {
                ScalarVal::Real(x) => *x,
                ScalarVal::Int(x) => *x as f64,
                ScalarVal::Bool(_) => panic!("bool array has no real view"),
            })
            .collect()
    }

    fn flat_index(&self, idx: &[i64]) -> Result<usize, RuntimeError> {
        if idx.len() != self.dims.len() {
            return Err(RuntimeError::new("index dimensionality mismatch"));
        }
        let mut flat = 0usize;
        for (k, (&i, &d)) in idx.iter().zip(&self.dims).enumerate() {
            if i < 0 || i as usize >= d {
                return Err(RuntimeError::new(format!(
                    "index {i} out of bounds for dimension {k} (extent {d})"
                )));
            }
            flat = flat * d + i as usize;
        }
        Ok(flat)
    }
}

/// Classes of primitive operations, reported to the [`ExecHook`] so the
/// platform timing model can charge cycles per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer add/sub/rem and address arithmetic.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Float add/sub.
    FloatAdd,
    /// Float multiply.
    FloatMul,
    /// Float divide.
    FloatDiv,
    /// Comparison (any type).
    Cmp,
    /// Boolean logic.
    Logic,
    /// Scalar cast.
    Cast,
    /// Intrinsic call (name available via [`ExecHook::on_intrinsic`]).
    Intrinsic,
    /// Taken/not-taken branch resolution.
    Branch,
    /// Per-iteration loop bookkeeping (increment + bound test).
    LoopOverhead,
    /// Function call/return linkage overhead.
    CallOverhead,
}

/// Observer of interpreter execution, used by the platform simulator to
/// attach a timing model. It sees exactly the events that carry a price:
/// operations, intrinsics and variable accesses. All methods have empty
/// defaults.
pub trait ExecHook {
    /// A primitive operation executes.
    fn on_op(&mut self, _op: OpClass) {}
    /// An intrinsic with the given name executes.
    fn on_intrinsic(&mut self, _name: &str) {}
    /// A variable is read or written. `base` is the variable name in the
    /// *currently executing function's* frame.
    fn on_access(&mut self, _base: &str) {}
    /// An array element is read or written, with the flat element index
    /// (for address-sensitive models such as caches). The default
    /// forwards to [`ExecHook::on_access`].
    fn on_access_elem(&mut self, base: &str, _flat: u64) {
        self.on_access(base);
    }
}

/// A hook that observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl ExecHook for NullHook {}

/// A hook that counts operations and accesses — handy in tests.
#[derive(Debug, Default, Clone)]
pub struct CountingHook {
    /// Number of primitive ops by class.
    pub ops: HashMap<OpClass, u64>,
    /// Number of memory accesses (scalar + array).
    pub accesses: u64,
    /// Number of array-element accesses only.
    pub array_accesses: u64,
}

impl ExecHook for CountingHook {
    fn on_op(&mut self, op: OpClass) {
        *self.ops.entry(op).or_insert(0) += 1;
    }
    fn on_access(&mut self, _base: &str) {
        self.accesses += 1;
    }
    fn on_access_elem(&mut self, base: &str, _flat: u64) {
        self.array_accesses += 1;
        self.on_access(base);
    }
}

/// Error raised during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// Human-readable message.
    pub msg: String,
}

impl RuntimeError {
    fn new(msg: impl Into<String>) -> RuntimeError {
        RuntimeError { msg: msg.into() }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.msg)
    }
}

impl std::error::Error for RuntimeError {}

/// Argument value for a function invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Scalar argument (by value).
    Scalar(ScalarVal),
    /// Array argument (by reference; final contents retrievable after the
    /// call through [`CallOutcome::arrays`]).
    Array(ArrayData),
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> ArgVal {
        ArgVal::Scalar(ScalarVal::Int(v))
    }
}

impl From<f64> for ArgVal {
    fn from(v: f64) -> ArgVal {
        ArgVal::Scalar(ScalarVal::Real(v))
    }
}

impl From<ArrayData> for ArgVal {
    fn from(a: ArrayData) -> ArgVal {
        ArgVal::Array(a)
    }
}

/// Result of [`Interp::call_full`]: the return value plus final contents of
/// each array parameter, in parameter order.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// Scalar return value, if any.
    pub ret: Option<ScalarVal>,
    /// `(parameter name, final contents)` for each array parameter.
    pub arrays: Vec<(String, ArrayData)>,
}

/// One frame-slot binding. Every slot starts [`Binding::Unbound`]; a
/// declaration or parameter binding moves it to a live state.
#[derive(Debug, Clone)]
enum Binding {
    /// No declaration has executed for this slot yet.
    Unbound,
    /// Live scalar value.
    Scalar(ScalarVal),
    /// Declared but uninitialised scalar.
    Uninit(Scalar),
    /// Array handle (index into the interpreter's array store).
    Array(usize),
}

/// A function activation frame: the slot-indexed bindings of one
/// function body (flat `Vec`, O(1) access, no hashing).
///
/// Frames are exposed publicly so the platform simulator can hold the entry
/// function's frame open while executing individual task statements.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Index of the frame's function in the resolution.
    func: u32,
    bindings: Vec<Binding>,
}

/// Control-flow outcome of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow {
    /// Execution continues with the next statement.
    Normal,
    /// A `return` executed.
    Return(Option<ScalarVal>),
}

/// The interpreter. Holds the array store; frames reference arrays by id so
/// array parameters alias (C semantics). Execution runs over the
/// program's [`Resolution`] (built once in [`Interp::new`], or shared
/// via [`Interp::with_resolution`]).
pub struct Interp<'p> {
    program: &'p Program,
    resolved: Cow<'p, Resolution>,
    arrays: Vec<ArrayData>,
    /// Remaining execution fuel (statements); errors out at zero.
    fuel: u64,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for `program` with a large default fuel
    /// budget (2^40 statements). Resolves the program once.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            resolved: Cow::Owned(Resolution::of(program)),
            arrays: Vec::new(),
            fuel: 1 << 40,
        }
    }

    /// Creates an interpreter sharing a prebuilt [`Resolution`] —
    /// sweep drivers that execute one program many times resolve once
    /// and pass the artifact here. `resolution` **must** have been
    /// built from an equal `program`; executing with a foreign
    /// resolution produces nonsense.
    pub fn with_resolution(program: &'p Program, resolution: &'p Resolution) -> Interp<'p> {
        Interp {
            program,
            resolved: Cow::Borrowed(resolution),
            arrays: Vec::new(),
            fuel: 1 << 40,
        }
    }

    /// The resolution this interpreter executes.
    pub fn resolution(&self) -> &Resolution {
        &self.resolved
    }

    /// Sets the execution fuel (number of statement executions allowed).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Calls a function whose arguments are all scalars and discards array
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates any [`RuntimeError`].
    pub fn call_scalar(
        &mut self,
        name: &str,
        args: &[ScalarVal],
    ) -> Result<Option<ScalarVal>, RuntimeError> {
        let args: Vec<ArgVal> = args.iter().map(|&s| ArgVal::Scalar(s)).collect();
        Ok(self.call_full(name, args, &mut NullHook)?.ret)
    }

    /// Calls a function with arbitrary arguments and a hook, returning the
    /// scalar result plus final array-parameter contents.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on arity mismatch, out-of-bounds access,
    /// integer division by zero, exceeded `while` bounds or exhausted fuel.
    pub fn call_full<H: ExecHook + ?Sized>(
        &mut self,
        name: &str,
        args: Vec<ArgVal>,
        hook: &mut H,
    ) -> Result<CallOutcome, RuntimeError> {
        let func = self
            .program
            .function(name)
            .ok_or_else(|| RuntimeError::new(format!("no function `{name}`")))?;
        let mut frame = self.make_frame(func, args)?;
        let fidx = frame.func as usize;
        let mut ret = None;
        {
            let mut m = self.machine();
            let resolved = m.resolved;
            let rfunc = resolved.function(fidx);
            if let Flow::Return(v) = m.exec_block(rfunc, &mut frame, &rfunc.body, hook)? {
                ret = v;
            }
        }
        let rfunc = self.resolved.function(fidx);
        let mut arrays = Vec::new();
        for (p, rp) in func.params.iter().zip(&rfunc.params) {
            if rp.is_array {
                if let Binding::Array(id) = frame.bindings[rp.slot.idx()] {
                    arrays.push((p.name.clone(), self.arrays[id].clone()));
                }
            }
        }
        Ok(CallOutcome { ret, arrays })
    }

    /// Builds an activation frame for `func` from argument values. Exposed
    /// for the platform simulator, which executes task statements one at a
    /// time inside a long-lived frame.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on arity or shape mismatch.
    pub fn make_frame(
        &mut self,
        func: &Function,
        args: Vec<ArgVal>,
    ) -> Result<Frame, RuntimeError> {
        let fidx = self
            .resolved
            .function_index(&func.name)
            .ok_or_else(|| RuntimeError::new(format!("no function `{}`", func.name)))?;
        let rfunc = self.resolved.function(fidx);
        if args.len() != func.params.len() {
            return Err(RuntimeError::new(format!(
                "`{}` expects {} argument(s), got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        if rfunc.params.len() != func.params.len() {
            return Err(RuntimeError::new(format!(
                "function `{}` does not match the interpreter's program",
                func.name
            )));
        }
        let mut bindings = vec![Binding::Unbound; rfunc.frame_len as usize];
        for ((p, rp), a) in func.params.iter().zip(&rfunc.params).zip(args) {
            let binding = match (a, &p.ty) {
                (ArgVal::Scalar(v), Type::Scalar(s)) => {
                    let v = coerce(v, *s)?;
                    Binding::Scalar(v)
                }
                (ArgVal::Array(data), Type::Array { elem, dims }) => {
                    if data.elem != *elem || &data.dims != dims {
                        return Err(RuntimeError::new(format!(
                            "array argument shape mismatch for `{}`",
                            p.name
                        )));
                    }
                    self.arrays.push(data);
                    Binding::Array(self.arrays.len() - 1)
                }
                _ => {
                    return Err(RuntimeError::new(format!(
                        "argument kind mismatch for `{}`",
                        p.name
                    )))
                }
            };
            bindings[rp.slot.idx()] = binding;
        }
        Ok(Frame {
            func: fidx as u32,
            bindings,
        })
    }

    /// Reads the current contents of an array variable in `frame`.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if `name` is not a bound array.
    pub fn array_of(&self, frame: &Frame, name: &str) -> Result<&ArrayData, RuntimeError> {
        match self
            .resolved
            .slot_of(frame.func as usize, name)
            .map(|s| &frame.bindings[s.idx()])
        {
            Some(Binding::Array(id)) => Ok(&self.arrays[*id]),
            _ => Err(RuntimeError::new(format!("`{name}` is not a bound array"))),
        }
    }

    /// Resets a scalar binding in `frame` to the uninitialised state.
    ///
    /// This is the privatization primitive of the parallel executor: a
    /// privatized scalar is reset before each task, so tasks can never
    /// observe each other's values through it (any read-before-write then
    /// fails loudly instead of silently racing). Names the frame's
    /// function does not reference are ignored.
    pub fn reset_scalar(&self, frame: &mut Frame, name: &str, scalar: Scalar) {
        if let Some(s) = self.resolved.slot_of(frame.func as usize, name) {
            frame.bindings[s.idx()] = Binding::Uninit(scalar);
        }
    }

    /// Executes one statement in `frame`, reporting events to `hook`.
    ///
    /// The statement is located by its [`StmtId`] in the resolution, so
    /// the program must have been renumbered (every parsed or
    /// transformed program is).
    ///
    /// # Errors
    ///
    /// See [`Interp::call_full`].
    pub fn exec_stmt<H: ExecHook + ?Sized>(
        &mut self,
        frame: &mut Frame,
        s: &Stmt,
        hook: &mut H,
    ) -> Result<Flow, RuntimeError> {
        self.exec_stmt_id(frame, s.id, hook)
    }

    /// Executes the statement with the given id in `frame` — the entry
    /// point the platform simulator uses to replay task statement lists
    /// without cloning any AST.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the id is unknown, belongs to a
    /// different function than `frame`, or execution fails (see
    /// [`Interp::call_full`]).
    pub fn exec_stmt_id<H: ExecHook + ?Sized>(
        &mut self,
        frame: &mut Frame,
        id: StmtId,
        hook: &mut H,
    ) -> Result<Flow, RuntimeError> {
        let (fidx, sidx) = self
            .resolved
            .stmt_loc(id)
            .ok_or_else(|| RuntimeError::new(format!("no statement {id}")))?;
        if fidx as u32 != frame.func {
            return Err(RuntimeError::new(format!(
                "statement {id} is not part of the frame's function"
            )));
        }
        let mut m = self.machine();
        let resolved = m.resolved;
        let rfunc = resolved.function(fidx);
        m.exec_stmt(rfunc, frame, rfunc.stmt(sidx), hook)
    }

    fn machine(&mut self) -> Machine<'_> {
        Machine {
            resolved: &self.resolved,
            arrays: &mut self.arrays,
            fuel: &mut self.fuel,
        }
    }
}

/// The execution engine: shared resolution + mutable interpreter state,
/// split so resolved statements (borrowed from the resolution) can be
/// walked while the array store mutates.
struct Machine<'a> {
    resolved: &'a Resolution,
    arrays: &'a mut Vec<ArrayData>,
    fuel: &'a mut u64,
}

impl<'a> Machine<'a> {
    #[inline]
    fn slot_name(&self, rfunc: &RFunction, slot: Slot) -> &'a str {
        self.resolved.name(rfunc.slot_symbols[slot.idx()])
    }

    fn exec_block<H: ExecHook + ?Sized>(
        &mut self,
        rfunc: &'a RFunction,
        frame: &mut Frame,
        block: &'a [u32],
        hook: &mut H,
    ) -> Result<Flow, RuntimeError> {
        for &i in block {
            if let Flow::Return(v) = self.exec_stmt(rfunc, frame, rfunc.stmt(i), hook)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt<H: ExecHook + ?Sized>(
        &mut self,
        rfunc: &'a RFunction,
        frame: &mut Frame,
        s: &'a RStmt,
        hook: &mut H,
    ) -> Result<Flow, RuntimeError> {
        if *self.fuel == 0 {
            return Err(RuntimeError::new("execution fuel exhausted"));
        }
        *self.fuel -= 1;
        match &s.kind {
            RStmtKind::DeclScalar { slot, scalar, init } => {
                let binding = match init {
                    Some(e) => {
                        let v = self.eval(rfunc, frame, e, hook)?;
                        let v = coerce(v, *scalar)?;
                        hook.on_access(self.slot_name(rfunc, *slot));
                        Binding::Scalar(v)
                    }
                    None => Binding::Uninit(*scalar),
                };
                // Redeclaration in a loop body resets the variable,
                // matching C block-scope semantics.
                frame.bindings[slot.idx()] = binding;
                Ok(Flow::Normal)
            }
            RStmtKind::DeclArray { slot, elem, dims } => {
                // Arrays are re-allocated zeroed on redeclaration.
                self.arrays.push(ArrayData::zeroed(*elem, dims.clone()));
                frame.bindings[slot.idx()] = Binding::Array(self.arrays.len() - 1);
                Ok(Flow::Normal)
            }
            RStmtKind::Assign { target, value } => {
                let v = self.eval(rfunc, frame, value, hook)?;
                match target {
                    RLValue::Var(slot) => {
                        let sc = match &frame.bindings[slot.idx()] {
                            Binding::Scalar(old) => old.scalar(),
                            Binding::Uninit(sc) => *sc,
                            Binding::Array(_) => {
                                return Err(RuntimeError::new(format!(
                                    "cannot assign whole array `{}`",
                                    self.slot_name(rfunc, *slot)
                                )))
                            }
                            Binding::Unbound => {
                                return Err(RuntimeError::new(format!(
                                    "unbound `{}`",
                                    self.slot_name(rfunc, *slot)
                                )))
                            }
                        };
                        frame.bindings[slot.idx()] = Binding::Scalar(coerce(v, sc)?);
                        hook.on_access(self.slot_name(rfunc, *slot));
                    }
                    RLValue::Elem { array, indices } => {
                        let mut idx_buf = IndexBuf::default();
                        self.eval_indices(rfunc, frame, indices, hook, &mut idx_buf)?;
                        let id = match &frame.bindings[array.idx()] {
                            Binding::Array(id) => *id,
                            _ => {
                                return Err(RuntimeError::new(format!(
                                    "`{}` is not an array",
                                    self.slot_name(rfunc, *array)
                                )))
                            }
                        };
                        let arr = &mut self.arrays[id];
                        let flat = arr.flat_index(idx_buf.as_slice())?;
                        arr.data[flat] = coerce(v, arr.elem)?;
                        hook.on_access_elem(self.slot_name(rfunc, *array), flat as u64);
                    }
                }
                Ok(Flow::Normal)
            }
            RStmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval(rfunc, frame, cond, hook)?.as_bool()?;
                hook.on_op(OpClass::Branch);
                let blk = if c { then_blk } else { else_blk };
                self.exec_block(rfunc, frame, blk, hook)
            }
            RStmtKind::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.eval(rfunc, frame, lo, hook)?.as_int()?;
                let hi = self.eval(rfunc, frame, hi, hook)?.as_int()?;
                let var_name = self.slot_name(rfunc, *var);
                let mut i = lo;
                while i < hi {
                    hook.on_op(OpClass::LoopOverhead);
                    frame.bindings[var.idx()] = Binding::Scalar(ScalarVal::Int(i));
                    hook.on_access(var_name);
                    if let Flow::Return(v) = self.exec_block(rfunc, frame, body, hook)? {
                        return Ok(Flow::Return(v));
                    }
                    i += *step;
                }
                // Final bound test.
                hook.on_op(OpClass::LoopOverhead);
                frame.bindings[var.idx()] = Binding::Scalar(ScalarVal::Int(i));
                Ok(Flow::Normal)
            }
            RStmtKind::While { cond, bound, body } => {
                let mut iters = 0u64;
                loop {
                    let c = self.eval(rfunc, frame, cond, hook)?.as_bool()?;
                    hook.on_op(OpClass::Branch);
                    if !c {
                        break;
                    }
                    iters += 1;
                    if iters > *bound {
                        return Err(RuntimeError::new(format!(
                            "while loop exceeded its declared bound of {bound} iterations \
                             (unsound WCET annotation)"
                        )));
                    }
                    if let Flow::Return(v) = self.exec_block(rfunc, frame, body, hook)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            RStmtKind::Call(call) => {
                self.eval_call(rfunc, frame, call, hook)?;
                Ok(Flow::Normal)
            }
            RStmtKind::Return { value } => {
                let v = match value {
                    Some(e) => Some(self.eval(rfunc, frame, e, hook)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
        }
    }

    fn eval_indices<H: ExecHook + ?Sized>(
        &mut self,
        rfunc: &'a RFunction,
        frame: &mut Frame,
        indices: &'a [RExpr],
        hook: &mut H,
        out: &mut IndexBuf,
    ) -> Result<(), RuntimeError> {
        for e in indices {
            let v = self.eval(rfunc, frame, e, hook)?.as_int()?;
            // Address computation cost.
            hook.on_op(OpClass::IntAlu);
            out.push(v);
        }
        Ok(())
    }

    fn eval<H: ExecHook + ?Sized>(
        &mut self,
        rfunc: &'a RFunction,
        frame: &mut Frame,
        e: &'a RExpr,
        hook: &mut H,
    ) -> Result<ScalarVal, RuntimeError> {
        match e {
            RExpr::Int(v) => Ok(ScalarVal::Int(*v)),
            RExpr::Real(v) => Ok(ScalarVal::Real(*v)),
            RExpr::Bool(v) => Ok(ScalarVal::Bool(*v)),
            RExpr::Var(slot) => {
                let v = match &frame.bindings[slot.idx()] {
                    Binding::Scalar(v) => *v,
                    Binding::Uninit(_) => {
                        return Err(RuntimeError::new(format!(
                            "read of uninitialised `{}`",
                            self.slot_name(rfunc, *slot)
                        )))
                    }
                    _ => {
                        return Err(RuntimeError::new(format!(
                            "`{}` is not a bound scalar",
                            self.slot_name(rfunc, *slot)
                        )))
                    }
                };
                hook.on_access(self.slot_name(rfunc, *slot));
                Ok(v)
            }
            RExpr::Elem { array, indices } => {
                let mut idx_buf = IndexBuf::default();
                self.eval_indices(rfunc, frame, indices, hook, &mut idx_buf)?;
                let id = match &frame.bindings[array.idx()] {
                    Binding::Array(id) => *id,
                    _ => {
                        return Err(RuntimeError::new(format!(
                            "`{}` is not an array",
                            self.slot_name(rfunc, *array)
                        )))
                    }
                };
                let arr = &self.arrays[id];
                let flat = arr.flat_index(idx_buf.as_slice())?;
                let v = arr.data[flat];
                hook.on_access_elem(self.slot_name(rfunc, *array), flat as u64);
                Ok(v)
            }
            RExpr::Unary { op, arg } => {
                let v = self.eval(rfunc, frame, arg, hook)?;
                match op {
                    UnOp::Neg => match v {
                        ScalarVal::Int(x) => {
                            hook.on_op(OpClass::IntAlu);
                            Ok(ScalarVal::Int(x.wrapping_neg()))
                        }
                        ScalarVal::Real(x) => {
                            hook.on_op(OpClass::FloatAdd);
                            Ok(ScalarVal::Real(-x))
                        }
                        ScalarVal::Bool(_) => Err(RuntimeError::new("cannot negate bool")),
                    },
                    UnOp::Not => {
                        hook.on_op(OpClass::Logic);
                        Ok(ScalarVal::Bool(!v.as_bool()?))
                    }
                }
            }
            RExpr::Binary { op, lhs, rhs } => {
                // Note: && and || are evaluated non-short-circuit; mini-C
                // expressions are side-effect free so this is semantics-
                // preserving and keeps WCET paths simple.
                let l = self.eval(rfunc, frame, lhs, hook)?;
                let r = self.eval(rfunc, frame, rhs, hook)?;
                eval_binop(*op, l, r, hook)
            }
            RExpr::Call(call) => {
                let v = self.eval_call(rfunc, frame, call, hook)?;
                v.ok_or_else(|| {
                    RuntimeError::new(format!(
                        "void function `{}` used in expression",
                        self.call_name(call)
                    ))
                })
            }
            RExpr::Cast { to, arg } => {
                let v = self.eval(rfunc, frame, arg, hook)?;
                hook.on_op(OpClass::Cast);
                cast(v, *to)
            }
        }
    }

    fn call_name(&self, call: &RCall) -> &'a str {
        match call {
            RCall::Intrinsic { sig, .. } => sig.name,
            RCall::User { func, .. } | RCall::UserBadArity { func } => {
                let rf = self.resolved.function(*func as usize);
                self.resolved.name(rf.name)
            }
            RCall::Unknown { name } => self.resolved.name(*name),
        }
    }

    fn eval_call<H: ExecHook + ?Sized>(
        &mut self,
        rfunc: &'a RFunction,
        frame: &mut Frame,
        call: &'a RCall,
        hook: &mut H,
    ) -> Result<Option<ScalarVal>, RuntimeError> {
        match call {
            RCall::Intrinsic { sig, args } => {
                // Sized by the compile-time-checked maximum intrinsic
                // arity, so no heap allocation per call.
                let mut vals = [ScalarVal::Int(0); crate::intrinsics::MAX_PARAMS];
                let mut n = 0;
                for (a, &pt) in args.iter().zip(sig.params) {
                    let v = self.eval(rfunc, frame, a, hook)?;
                    vals[n] = coerce(v, pt)?;
                    n += 1;
                }
                hook.on_op(OpClass::Intrinsic);
                hook.on_intrinsic(sig.name);
                Ok(Some(eval_intrinsic(sig.name, &vals[..n])?))
            }
            RCall::Unknown { name } => Err(RuntimeError::new(format!(
                "no function `{}`",
                self.resolved.name(*name)
            ))),
            RCall::UserBadArity { func } => {
                hook.on_op(OpClass::CallOverhead);
                let name = self.call_name(call);
                let _ = func;
                Err(RuntimeError::new(format!(
                    "arity mismatch calling `{name}`"
                )))
            }
            RCall::User { func, args } => {
                let callee = self.resolved.function(*func as usize);
                hook.on_op(OpClass::CallOverhead);
                let mut callee_frame = Frame {
                    func: *func,
                    bindings: vec![Binding::Unbound; callee.frame_len as usize],
                };
                // Evaluate arguments in the caller frame, in parameter
                // order (errors interleave exactly as evaluation does).
                for (a, rp) in args.iter().zip(&callee.params) {
                    let binding = match a {
                        RArg::Scalar { expr, to } => {
                            let v = self.eval(rfunc, frame, expr, hook)?;
                            Binding::Scalar(coerce(v, *to)?)
                        }
                        RArg::Array { slot } => match &frame.bindings[slot.idx()] {
                            Binding::Array(id) => Binding::Array(*id),
                            _ => {
                                return Err(RuntimeError::new(format!(
                                    "`{}` is not an array",
                                    self.slot_name(rfunc, *slot)
                                )))
                            }
                        },
                        RArg::ArrayMismatch { param } => {
                            return Err(RuntimeError::new(format!(
                                "array parameter `{param}` needs an array variable argument"
                            )))
                        }
                    };
                    callee_frame.bindings[rp.slot.idx()] = binding;
                }
                match self.exec_block(callee, &mut callee_frame, &callee.body, hook)? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(None),
                }
            }
        }
    }
}

/// Small inline buffer for evaluated array indices (arrays are 1-D or
/// 2-D in practice; deeper shapes spill to the heap).
#[derive(Default)]
struct IndexBuf {
    inline: [i64; 4],
    len: usize,
    spill: Vec<i64>,
}

impl IndexBuf {
    fn push(&mut self, v: i64) {
        if self.spill.is_empty() && self.len < self.inline.len() {
            self.inline[self.len] = v;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.push(v);
        }
    }

    fn as_slice(&self) -> &[i64] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

fn coerce(v: ScalarVal, to: Scalar) -> Result<ScalarVal, RuntimeError> {
    match (v, to) {
        (ScalarVal::Int(x), Scalar::Real) => Ok(ScalarVal::Real(x as f64)),
        (v, to) if v.scalar() == to => Ok(v),
        (v, to) => Err(RuntimeError::new(format!(
            "cannot implicitly convert {:?} to {to}",
            v.scalar()
        ))),
    }
}

fn cast(v: ScalarVal, to: Scalar) -> Result<ScalarVal, RuntimeError> {
    Ok(match (v, to) {
        (ScalarVal::Int(x), Scalar::Int) => ScalarVal::Int(x),
        (ScalarVal::Int(x), Scalar::Real) => ScalarVal::Real(x as f64),
        (ScalarVal::Int(x), Scalar::Bool) => ScalarVal::Bool(x != 0),
        (ScalarVal::Real(x), Scalar::Int) => ScalarVal::Int(x as i64),
        (ScalarVal::Real(x), Scalar::Real) => ScalarVal::Real(x),
        (ScalarVal::Real(x), Scalar::Bool) => ScalarVal::Bool(x != 0.0),
        (ScalarVal::Bool(x), Scalar::Int) => ScalarVal::Int(x as i64),
        (ScalarVal::Bool(x), Scalar::Real) => ScalarVal::Real(x as i64 as f64),
        (ScalarVal::Bool(x), Scalar::Bool) => ScalarVal::Bool(x),
    })
}

fn eval_binop<H: ExecHook + ?Sized>(
    op: BinOp,
    l: ScalarVal,
    r: ScalarVal,
    hook: &mut H,
) -> Result<ScalarVal, RuntimeError> {
    use BinOp::*;
    if op.is_logical() {
        hook.on_op(OpClass::Logic);
        let l = l.as_bool()?;
        let r = r.as_bool()?;
        return Ok(ScalarVal::Bool(match op {
            And => l && r,
            Or => l || r,
            _ => unreachable!(),
        }));
    }
    if op.is_comparison() {
        hook.on_op(OpClass::Cmp);
        // bool == bool / bool != bool allowed.
        if l.scalar() == Scalar::Bool || r.scalar() == Scalar::Bool {
            let l = l.as_bool()?;
            let r = r.as_bool()?;
            return Ok(ScalarVal::Bool(match op {
                Eq => l == r,
                Ne => l != r,
                _ => return Err(RuntimeError::new("ordering comparison on bool")),
            }));
        }
        if l.scalar() == Scalar::Int && r.scalar() == Scalar::Int {
            let l = l.as_int()?;
            let r = r.as_int()?;
            return Ok(ScalarVal::Bool(match op {
                Eq => l == r,
                Ne => l != r,
                Lt => l < r,
                Le => l <= r,
                Gt => l > r,
                Ge => l >= r,
                _ => unreachable!(),
            }));
        }
        let l = l.as_real()?;
        let r = r.as_real()?;
        return Ok(ScalarVal::Bool(match op {
            Eq => l == r,
            Ne => l != r,
            Lt => l < r,
            Le => l <= r,
            Gt => l > r,
            Ge => l >= r,
            _ => unreachable!(),
        }));
    }
    // Arithmetic.
    if l.scalar() == Scalar::Int && r.scalar() == Scalar::Int {
        let a = l.as_int()?;
        let b = r.as_int()?;
        let v = match op {
            Add => {
                hook.on_op(OpClass::IntAlu);
                a.wrapping_add(b)
            }
            Sub => {
                hook.on_op(OpClass::IntAlu);
                a.wrapping_sub(b)
            }
            Mul => {
                hook.on_op(OpClass::IntMul);
                a.wrapping_mul(b)
            }
            Div => {
                hook.on_op(OpClass::IntDiv);
                if b == 0 {
                    return Err(RuntimeError::new("integer division by zero"));
                }
                a.wrapping_div(b)
            }
            Rem => {
                hook.on_op(OpClass::IntDiv);
                if b == 0 {
                    return Err(RuntimeError::new("integer remainder by zero"));
                }
                a.wrapping_rem(b)
            }
            _ => unreachable!(),
        };
        return Ok(ScalarVal::Int(v));
    }
    let a = l.as_real()?;
    let b = r.as_real()?;
    let v = match op {
        Add => {
            hook.on_op(OpClass::FloatAdd);
            a + b
        }
        Sub => {
            hook.on_op(OpClass::FloatAdd);
            a - b
        }
        Mul => {
            hook.on_op(OpClass::FloatMul);
            a * b
        }
        Div => {
            hook.on_op(OpClass::FloatDiv);
            a / b
        }
        Rem => return Err(RuntimeError::new("`%` requires int operands")),
        _ => unreachable!(),
    };
    Ok(ScalarVal::Real(v))
}

fn eval_intrinsic(name: &str, args: &[ScalarVal]) -> Result<ScalarVal, RuntimeError> {
    let r = |i: usize| args[i].as_real();
    let n = |i: usize| args[i].as_int();
    Ok(match name {
        "sqrt" => ScalarVal::Real(r(0)?.sqrt()),
        "sin" => ScalarVal::Real(r(0)?.sin()),
        "cos" => ScalarVal::Real(r(0)?.cos()),
        "tan" => ScalarVal::Real(r(0)?.tan()),
        "atan2" => ScalarVal::Real(r(0)?.atan2(r(1)?)),
        "exp" => ScalarVal::Real(r(0)?.exp()),
        "log" => ScalarVal::Real(r(0)?.ln()),
        "pow" => ScalarVal::Real(r(0)?.powf(r(1)?)),
        "floor" => ScalarVal::Real(r(0)?.floor()),
        "fabs" => ScalarVal::Real(r(0)?.abs()),
        "fmin" => ScalarVal::Real(r(0)?.min(r(1)?)),
        "fmax" => ScalarVal::Real(r(0)?.max(r(1)?)),
        "iabs" => ScalarVal::Int(n(0)?.wrapping_abs()),
        "imin" => ScalarVal::Int(n(0)?.min(n(1)?)),
        "imax" => ScalarVal::Int(n(0)?.max(n(1)?)),
        _ => return Err(RuntimeError::new(format!("unknown intrinsic `{name}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn run_int(src: &str, func: &str, args: &[i64]) -> i64 {
        let p = parse_program(src).unwrap();
        crate::validate::validate(&p).unwrap();
        let mut it = Interp::new(&p);
        let args: Vec<ScalarVal> = args.iter().map(|&v| ScalarVal::Int(v)).collect();
        match it.call_scalar(func, &args).unwrap() {
            Some(ScalarVal::Int(v)) => v,
            other => panic!("expected int result, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_loops() {
        let src = "int tri(int n) { int s; int i; s = 0; \
                   for (i = 1; i <= n; i = i + 1) { s = s + i; } return s; }";
        assert_eq!(run_int(src, "tri", &[10]), 55);
        assert_eq!(run_int(src, "tri", &[0]), 0);
    }

    #[test]
    fn nested_loops_and_arrays() {
        let src = "int f() { int a[4][4]; int i; int j; int s; s = 0;
            for (i=0;i<4;i=i+1) { for (j=0;j<4;j=j+1) { a[i][j] = i*4+j; } }
            for (i=0;i<4;i=i+1) { s = s + a[i][i]; }
            return s; }";
        assert_eq!(run_int(src, "f", &[]), 5 + 10 + 15);
    }

    #[test]
    fn conditionals_and_while() {
        let src = "int collatz_steps(int n) { int c; c = 0;
            #pragma bound 200
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                c = c + 1;
            }
            return c; }";
        assert_eq!(run_int(src, "collatz_steps", &[6]), 8);
    }

    #[test]
    fn while_bound_violation_is_an_error() {
        let src = "int f() { int x; x = 0;
            #pragma bound 3
            while (x < 10) { x = x + 1; }
            return x; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let err = it.call_scalar("f", &[]).unwrap_err();
        assert!(err.msg.contains("exceeded"));
    }

    #[test]
    fn function_calls_and_intrinsics() {
        let src = "real hyp(real a, real b) { return sqrt(a*a + b*b); }
                   real f() { return hyp(3.0, 4.0); }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let v = it.call_scalar("f", &[]).unwrap().unwrap();
        assert_eq!(v, ScalarVal::Real(5.0));
    }

    #[test]
    fn arrays_pass_by_reference() {
        let src = "void fill(int buf[4], int v) { int i;
                       for (i=0;i<4;i=i+1) { buf[i] = v + i; } }
                   void f(int buf[4]) { fill(buf, 10); }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let out = it
            .call_full(
                "f",
                vec![ArgVal::Array(ArrayData::from_ints(&[0, 0, 0, 0]))],
                &mut NullHook,
            )
            .unwrap();
        let (name, arr) = &out.arrays[0];
        assert_eq!(name, "buf");
        assert_eq!(arr.data[3], ScalarVal::Int(13));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let src = "int f(int i) { int a[4]; return a[i]; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let err = it.call_scalar("f", &[ScalarVal::Int(4)]).unwrap_err();
        assert!(err.msg.contains("out of bounds"));
        let mut it = Interp::new(&p);
        assert!(it.call_scalar("f", &[ScalarVal::Int(-1)]).is_err());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = "int f(int d) { return 10 / d; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        assert!(it.call_scalar("f", &[ScalarVal::Int(0)]).is_err());
        let mut it = Interp::new(&p);
        assert_eq!(
            it.call_scalar("f", &[ScalarVal::Int(2)]).unwrap(),
            Some(ScalarVal::Int(5))
        );
    }

    #[test]
    fn uninitialised_read_is_an_error() {
        let src = "int f() { int x; return x; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let err = it.call_scalar("f", &[]).unwrap_err();
        assert!(err.msg.contains("uninitialised"));
    }

    #[test]
    fn counting_hook_observes_ops_and_accesses() {
        let src = "int f() { int s; int i; s = 0;
            for (i=0;i<8;i=i+1) { s = s + i * i; } return s; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let mut hook = CountingHook::default();
        let out = it.call_full("f", vec![], &mut hook).unwrap();
        assert_eq!(out.ret, Some(ScalarVal::Int(140)));
        assert_eq!(hook.ops[&OpClass::IntMul], 8);
        // 8 adds in body + loop bookkeeping is counted separately.
        assert_eq!(hook.ops[&OpClass::IntAlu], 8);
        assert_eq!(hook.ops[&OpClass::LoopOverhead], 9);
        assert!(hook.accesses > 0);
    }

    #[test]
    fn fuel_exhaustion_is_an_error() {
        let src = "int f() { int s; int i; s = 0;
            for (i=0;i<1000;i=i+1) { s = s + 1; } return s; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        it.set_fuel(10);
        assert!(it.call_scalar("f", &[]).unwrap_err().msg.contains("fuel"));
    }

    #[test]
    fn casts_round_trip() {
        let src = "int f(real x) { return (int) x; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        assert_eq!(
            it.call_scalar("f", &[ScalarVal::Real(3.7)]).unwrap(),
            Some(ScalarVal::Int(3))
        );
    }

    #[test]
    fn early_return_from_loop() {
        let src = "int find(int a[8], int v) { int i;
            for (i=0;i<8;i=i+1) { if (a[i] == v) { return i; } }
            return -1; }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let arr = ArrayData::from_ints(&[5, 9, 2, 7, 1, 3, 8, 4]);
        let out = it
            .call_full(
                "find",
                vec![ArgVal::Array(arr), ArgVal::Scalar(ScalarVal::Int(7))],
                &mut NullHook,
            )
            .unwrap();
        assert_eq!(out.ret, Some(ScalarVal::Int(3)));
    }

    #[test]
    fn intrinsic_values_match_std() {
        let src = "real f(real x, real y) { return atan2(x, y) + pow(x, 2.0) + fmax(x, y); }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let got = it
            .call_scalar("f", &[ScalarVal::Real(1.5), ScalarVal::Real(2.5)])
            .unwrap()
            .unwrap();
        let want = 1.5f64.atan2(2.5) + 1.5f64.powf(2.0) + 2.5;
        match got {
            ScalarVal::Real(v) => assert!((v - want).abs() < 1e-12),
            _ => panic!("wrong type"),
        }
    }

    #[test]
    fn exec_stmt_id_replays_individual_statements() {
        let src = "void f(int a[4]) { int i;
            for (i=0;i<4;i=i+1) { a[i] = i; } }";
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p);
        let func = p.function("f").unwrap();
        let mut frame = it
            .make_frame(func, vec![ArgVal::Array(ArrayData::from_ints(&[0; 4]))])
            .unwrap();
        let loop_id = func.body.stmts[1].id;
        let flow = it.exec_stmt_id(&mut frame, loop_id, &mut NullHook).unwrap();
        assert_eq!(flow, Flow::Normal);
        assert_eq!(it.array_of(&frame, "a").unwrap().data[3], ScalarVal::Int(3));
        // Unknown ids are runtime errors, not panics.
        assert!(it
            .exec_stmt_id(&mut frame, StmtId(999), &mut NullHook)
            .is_err());
    }

    #[test]
    fn shared_resolution_matches_owned() {
        let src = "int tri(int n) { int s; int i; s = 0; \
                   for (i = 1; i <= n; i = i + 1) { s = s + i; } return s; }";
        let p = parse_program(src).unwrap();
        let resolution = crate::resolve::Resolution::of(&p);
        let mut shared = Interp::with_resolution(&p, &resolution);
        let mut owned = Interp::new(&p);
        let args = [ScalarVal::Int(10)];
        assert_eq!(
            shared.call_scalar("tri", &args).unwrap(),
            owned.call_scalar("tri", &args).unwrap()
        );
    }
}
