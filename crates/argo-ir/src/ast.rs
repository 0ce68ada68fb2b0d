//! Abstract syntax tree of the mini-C IR.
//!
//! The AST is *structured*: control flow is expressed only through `if`,
//! bounded `for` loops and (explicitly bounded) `while` loops. This is the
//! property the ARGO paper's predictability requirements rest on — every
//! statement has a statically known iteration space, so WCET analysis and
//! task extraction never meet irreducible control flow.

use crate::types::{Scalar, Type};
use std::fmt;

/// Unique identifier of a statement within a [`Program`].
///
/// Ids are assigned by [`Program::renumber`] in depth-first pre-order and are
/// used by the HTG extractor, the scheduler and the WCET engines to refer to
/// program points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Returns `true` for comparison operators (result type `bool`).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Returns `true` for logical operators (operands and result `bool`).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Surface-syntax token.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Real literal.
    RealLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// Scalar variable read.
    Var(String),
    /// Array element read, `a[i]` / `a[i][j]`.
    ArrayElem {
        /// Array variable name.
        array: String,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call in expression position (user function or intrinsic).
    Call {
        /// Callee name.
        name: String,
        /// Argument expressions (array variables are passed by name).
        args: Vec<Expr>,
    },
    /// Explicit cast to a scalar type.
    Cast {
        /// Target scalar type.
        to: Scalar,
        /// Operand.
        arg: Box<Expr>,
    },
}

impl Expr {
    /// `Expr::IntLit` convenience.
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    /// `Expr::RealLit` convenience.
    pub fn real(v: f64) -> Expr {
        Expr::RealLit(v)
    }

    /// `Expr::Var` convenience.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Builds `lhs op rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds `a[i]` for a 1-D access.
    pub fn idx1(array: impl Into<String>, i: Expr) -> Expr {
        Expr::ArrayElem {
            array: array.into(),
            indices: vec![i],
        }
    }

    /// Returns the constant integer value if this is an `IntLit`.
    pub fn as_int_const(&self) -> Option<i64> {
        match self {
            Expr::IntLit(v) => Some(*v),
            _ => None,
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(String),
    /// An array element.
    ArrayElem {
        /// Array variable name.
        array: String,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
}

impl LValue {
    /// Name of the underlying variable.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::ArrayElem { array, .. } => array,
        }
    }
}

/// A (possibly empty) sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in program order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// Creates a block from statements.
    pub fn of(stmts: Vec<Stmt>) -> Block {
        Block { stmts }
    }
}

/// A statement together with its program-unique id.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Program-unique id (0 until [`Program::renumber`] runs).
    pub id: StmtId,
    /// The statement proper.
    pub kind: StmtKind,
}

impl Stmt {
    /// Wraps a [`StmtKind`] with a placeholder id.
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt {
            id: StmtId(0),
            kind,
        }
    }
}

/// Statement kinds of the structured mini-C subset.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local variable declaration with optional scalar initialiser.
    Decl {
        /// Variable name (unique within the function).
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initialiser (scalars only).
        init: Option<Expr>,
    },
    /// Assignment `target = value;`.
    Assign {
        /// Assigned location.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// Two-armed conditional (else branch may be empty).
    If {
        /// Condition (type `bool`).
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Else branch.
        else_blk: Block,
    },
    /// Canonical counted loop `for (v = lo; v < hi; v = v + step)`.
    ///
    /// `step` is a positive compile-time constant, which makes the trip
    /// count `max(0, ceil((hi - lo) / step))` computable by the value
    /// analysis whenever `lo`/`hi` bounds are known.
    For {
        /// Induction variable (a declared `int`).
        var: String,
        /// Lower bound (inclusive).
        lo: Expr,
        /// Upper bound (exclusive).
        hi: Expr,
        /// Constant positive step.
        step: i64,
        /// Loop body.
        body: Block,
    },
    /// Condition-controlled loop with a mandatory static iteration bound
    /// (`#pragma bound N` in the surface syntax) so WCET stays computable.
    While {
        /// Loop condition.
        cond: Expr,
        /// Static bound on the number of iterations.
        bound: u64,
        /// Loop body.
        body: Block,
    },
    /// Procedure call in statement position.
    Call {
        /// Callee name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Return from the enclosing function.
    Return {
        /// Returned value (`None` for `void` functions).
        value: Option<Expr>,
    },
}

/// A function parameter. Scalars are passed by value; arrays by reference
/// (C semantics), which is how tasks exchange buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within the program).
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type (`None` = `void`).
    pub ret: Option<Scalar>,
    /// Function body.
    pub body: Block,
}

impl Function {
    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }
}

/// A complete mini-C program: a set of functions. By convention the
/// tool-chain entry point is the function named `main` unless a different
/// root is requested.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Mutable lookup of a function by name.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Assigns fresh, program-unique [`StmtId`]s in depth-first pre-order.
    ///
    /// Returns the total number of statements. Must be re-run after any
    /// structural transformation.
    pub fn renumber(&mut self) -> u32 {
        let mut next = 0u32;
        for f in &mut self.functions {
            renumber_block(&mut f.body, &mut next);
        }
        next
    }

    /// Total number of statements (after [`Program::renumber`]).
    pub fn stmt_count(&self) -> usize {
        fn count(b: &Block) -> usize {
            b.stmts
                .iter()
                .map(|s| {
                    1 + match &s.kind {
                        StmtKind::If {
                            then_blk, else_blk, ..
                        } => count(then_blk) + count(else_blk),
                        StmtKind::For { body, .. } | StmtKind::While { body, .. } => count(body),
                        _ => 0,
                    }
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.body)).sum()
    }
}

fn renumber_block(b: &mut Block, next: &mut u32) {
    for s in &mut b.stmts {
        s.id = StmtId(*next);
        *next += 1;
        match &mut s.kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                renumber_block(then_blk, next);
                renumber_block(else_blk, next);
            }
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
                renumber_block(body, next);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        // int f() { int i; for (i=0;i<4;i=i+1) { if (i<2) {} else {} } return i; }
        let body = Block::of(vec![
            Stmt::new(StmtKind::Decl {
                name: "i".into(),
                ty: Scalar::Int.into(),
                init: None,
            }),
            Stmt::new(StmtKind::For {
                var: "i".into(),
                lo: Expr::int(0),
                hi: Expr::int(4),
                step: 1,
                body: Block::of(vec![Stmt::new(StmtKind::If {
                    cond: Expr::bin(BinOp::Lt, Expr::var("i"), Expr::int(2)),
                    then_blk: Block::new(),
                    else_blk: Block::new(),
                })]),
            }),
            Stmt::new(StmtKind::Return {
                value: Some(Expr::var("i")),
            }),
        ]);
        Program {
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                ret: Some(Scalar::Int),
                body,
            }],
        }
    }

    #[test]
    fn renumber_assigns_unique_preorder_ids() {
        let mut p = sample_program();
        let n = p.renumber();
        assert_eq!(n, 4);
        let f = p.function("f").unwrap();
        assert_eq!(f.body.stmts[0].id, StmtId(0));
        assert_eq!(f.body.stmts[1].id, StmtId(1));
        match &f.body.stmts[1].kind {
            StmtKind::For { body, .. } => assert_eq!(body.stmts[0].id, StmtId(2)),
            _ => panic!("expected for"),
        }
        assert_eq!(f.body.stmts[2].id, StmtId(3));
    }

    #[test]
    fn stmt_count_matches_renumber() {
        let mut p = sample_program();
        let n = p.renumber();
        assert_eq!(p.stmt_count() as u32, n);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1));
        match e {
            Expr::Binary { op: BinOp::Add, .. } => {}
            _ => panic!("builder produced wrong shape"),
        }
        assert_eq!(Expr::int(7).as_int_const(), Some(7));
        assert_eq!(Expr::var("x").as_int_const(), None);
    }

    #[test]
    fn lvalue_base_name() {
        assert_eq!(LValue::Var("x".into()).base(), "x");
        let lv = LValue::ArrayElem {
            array: "a".into(),
            indices: vec![Expr::int(0)],
        };
        assert_eq!(lv.base(), "a");
    }
}
