//! # argo-model — Xcos-like dataflow modelling frontend
//!
//! "In ARGO, the end users describe their applications using a combination
//! of dataflow modeling, using the open-source Xcos modeling framework,
//! and high-level programming using Scilab. … the behavior of all Xcos
//! components used in ARGO is also described in the Scilab language."
//! (paper § II-A)
//!
//! This crate provides that modelling layer: a [`Model`] is a DAG of
//! blocks connected by typed signal wires; block behaviours are written as
//! small Scilab-like expressions over the block inputs (`u`, `u1`, `u2`).
//! [`Model::lower`] compiles the model to the mini-C IR — "the Xcos/Scilab
//! models are then compiled to an intermediate program representation (IR)
//! based on a subset of the C language" (§ II-B) — after which the whole
//! ARGO tool-chain (transforms, HTG, scheduling, WCET) applies unchanged.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use argo_model::Model;
//!
//! let mut m = Model::new("demo", 64);
//! let src = m.add_input("samples");
//! let scaled = m.add_map("scale", "u * 2.0 + 1.0", src)?;
//! let energy = m.add_reduce("energy", argo_model::ReduceOp::Sum, scaled);
//! m.mark_output(scaled);
//! m.mark_output(energy);
//! let program = m.lower()?;
//! assert!(program.function("demo").is_some());
//! # Ok(()) }
//! ```

use argo_ir::ast::Block as IrBlock;
use argo_ir::ast::{BinOp, Expr, Function, LValue, Param, Program, Stmt, StmtKind};
use argo_ir::types::{Scalar, Type};
use argo_transform::subst_var;
use std::fmt;

/// Identifier of a block within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// Reduction operator of a reduce block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of all elements.
    Sum,
    /// Product of all elements.
    Product,
    /// Minimum element.
    Min,
    /// Maximum element.
    Max,
}

/// Behaviour of a block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockKind {
    /// An external input signal (becomes an entry-function parameter).
    Input,
    /// Element-wise map of one input; the Scilab-like expression reads
    /// the current element as `u`.
    Map {
        /// Behaviour expression over `u`.
        expr: Expr,
        /// The single upstream block.
        input: BlockId,
    },
    /// Element-wise combination of two inputs, read as `u1` and `u2`.
    Zip {
        /// Behaviour expression over `u1`, `u2`.
        expr: Expr,
        /// First upstream block.
        a: BlockId,
        /// Second upstream block.
        b: BlockId,
    },
    /// Reduce the input signal to a width-1 signal.
    Reduce {
        /// Operator.
        op: ReduceOp,
        /// Upstream block.
        input: BlockId,
    },
    /// 3-point stencil `f(u_prev, u, u_next)` with clamped borders; the
    /// expression reads `u1` (previous), `u2` (centre), `u3` (next).
    Stencil3 {
        /// Behaviour expression over `u1`, `u2`, `u3`.
        expr: Expr,
        /// Upstream block.
        input: BlockId,
    },
}

/// One block instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block id.
    pub id: BlockId,
    /// Unique block name (becomes the buffer/parameter name).
    pub name: String,
    /// Behaviour.
    pub kind: BlockKind,
    /// Signal width of the block's output.
    pub width: usize,
    /// Marked as a model output (becomes an out-parameter)?
    pub is_output: bool,
}

/// A dataflow model: a DAG of blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name (becomes the entry function name).
    pub name: String,
    /// Default signal width.
    pub width: usize,
    /// Blocks in creation order (topological by construction: blocks may
    /// only reference earlier blocks).
    pub blocks: Vec<Block>,
}

/// Error from model construction or lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelError {
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model error: {}", self.msg)
    }
}

impl std::error::Error for ModelError {}

impl Model {
    /// Creates an empty model whose signals default to `width` elements.
    pub fn new(name: impl Into<String>, width: usize) -> Model {
        Model {
            name: name.into(),
            width,
            blocks: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, kind: BlockKind, width: usize) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(Block {
            id,
            name: name.to_string(),
            kind,
            width,
            is_output: false,
        });
        id
    }

    /// Adds an external input signal.
    pub fn add_input(&mut self, name: &str) -> BlockId {
        self.push(name, BlockKind::Input, self.width)
    }

    /// Adds an element-wise map block with a Scilab-like behaviour
    /// expression over `u`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the expression does not parse or `input`
    /// is unknown.
    pub fn add_map(
        &mut self,
        name: &str,
        expr: &str,
        input: BlockId,
    ) -> Result<BlockId, ModelError> {
        let expr = parse_behaviour(expr)?;
        self.check_block(input)?;
        Ok(self.push(
            name,
            BlockKind::Map { expr, input },
            self.blocks[input.0].width,
        ))
    }

    /// Adds an element-wise two-input block (`u1`, `u2`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the expression does not parse, a block id
    /// is unknown, or the input widths differ.
    pub fn add_zip(
        &mut self,
        name: &str,
        expr: &str,
        a: BlockId,
        b: BlockId,
    ) -> Result<BlockId, ModelError> {
        let expr = parse_behaviour(expr)?;
        self.check_block(a)?;
        self.check_block(b)?;
        if self.blocks[a.0].width != self.blocks[b.0].width {
            return Err(ModelError {
                msg: format!(
                    "zip `{name}`: input widths differ ({} vs {})",
                    self.blocks[a.0].width, self.blocks[b.0].width
                ),
            });
        }
        Ok(self.push(name, BlockKind::Zip { expr, a, b }, self.blocks[a.0].width))
    }

    /// Adds a 3-point stencil block (`u1`=prev, `u2`=centre, `u3`=next,
    /// clamped at the borders).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the expression does not parse or the
    /// input is unknown.
    pub fn add_stencil3(
        &mut self,
        name: &str,
        expr: &str,
        input: BlockId,
    ) -> Result<BlockId, ModelError> {
        let expr = parse_behaviour(expr)?;
        self.check_block(input)?;
        Ok(self.push(
            name,
            BlockKind::Stencil3 { expr, input },
            self.blocks[input.0].width,
        ))
    }

    /// Adds a reduction block (output width 1).
    pub fn add_reduce(&mut self, name: &str, op: ReduceOp, input: BlockId) -> BlockId {
        self.push(name, BlockKind::Reduce { op, input }, 1)
    }

    /// Marks a block's signal as a model output.
    pub fn mark_output(&mut self, id: BlockId) {
        self.blocks[id.0].is_output = true;
    }

    fn check_block(&self, id: BlockId) -> Result<(), ModelError> {
        if id.0 >= self.blocks.len() {
            return Err(ModelError {
                msg: format!("unknown block id {}", id.0),
            });
        }
        Ok(())
    }

    /// Compiles the model to a mini-C program with one entry function
    /// named after the model. Inputs become `in` array parameters,
    /// outputs become `out` array parameters (`<name>_out`), internal
    /// signals become local buffers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the model is empty, has duplicate block
    /// names, or produces an invalid program (reported with the underlying
    /// validation message).
    pub fn lower(&self) -> Result<Program, ModelError> {
        if self.blocks.is_empty() {
            return Err(ModelError {
                msg: "model has no blocks".into(),
            });
        }
        let mut names = std::collections::BTreeSet::new();
        for b in &self.blocks {
            if !names.insert(&b.name) {
                return Err(ModelError {
                    msg: format!("duplicate block name `{}`", b.name),
                });
            }
        }

        let mut params: Vec<Param> = Vec::new();
        let mut stmts: Vec<Stmt> = Vec::new();

        // Inputs and outputs are parameters.
        for b in &self.blocks {
            if matches!(b.kind, BlockKind::Input) {
                params.push(Param {
                    name: b.name.clone(),
                    ty: Type::array1(Scalar::Real, b.width),
                });
            }
        }
        for b in &self.blocks {
            if b.is_output {
                params.push(Param {
                    name: format!("{}_out", b.name),
                    ty: Type::array1(Scalar::Real, b.width),
                });
            }
        }

        // Internal buffers for every non-input block.
        for b in &self.blocks {
            if !matches!(b.kind, BlockKind::Input) {
                stmts.push(Stmt::new(StmtKind::Decl {
                    name: b.name.clone(),
                    ty: Type::array1(Scalar::Real, b.width),
                    init: None,
                }));
            }
        }
        stmts.push(Stmt::new(StmtKind::Decl {
            name: "idx".into(),
            ty: Type::Scalar(Scalar::Int),
            init: None,
        }));

        // One loop per block, in dataflow (creation) order.
        for b in &self.blocks {
            match &b.kind {
                BlockKind::Input => {}
                BlockKind::Map { expr, input } => {
                    let u = Expr::idx1(self.blocks[input.0].name.clone(), Expr::var("idx"));
                    let body = subst_var(expr, "u", &u);
                    stmts.push(elementwise_loop(&b.name, b.width, body));
                }
                BlockKind::Zip { expr, a, b: bb } => {
                    let u1 = Expr::idx1(self.blocks[a.0].name.clone(), Expr::var("idx"));
                    let u2 = Expr::idx1(self.blocks[bb.0].name.clone(), Expr::var("idx"));
                    let body = subst_var(&subst_var(expr, "u1", &u1), "u2", &u2);
                    stmts.push(elementwise_loop(&b.name, b.width, body));
                }
                BlockKind::Stencil3 { expr, input } => {
                    let src = &self.blocks[input.0].name;
                    let w = b.width as i64;
                    // Clamped neighbours: imax(idx-1, 0), imin(idx+1, w-1).
                    let prev = Expr::idx1(
                        src.clone(),
                        Expr::Call {
                            name: "imax".into(),
                            args: vec![
                                Expr::bin(BinOp::Sub, Expr::var("idx"), Expr::int(1)),
                                Expr::int(0),
                            ],
                        },
                    );
                    let mid = Expr::idx1(src.clone(), Expr::var("idx"));
                    let next = Expr::idx1(
                        src.clone(),
                        Expr::Call {
                            name: "imin".into(),
                            args: vec![
                                Expr::bin(BinOp::Add, Expr::var("idx"), Expr::int(1)),
                                Expr::int(w - 1),
                            ],
                        },
                    );
                    let body = subst_var(
                        &subst_var(&subst_var(expr, "u1", &prev), "u2", &mid),
                        "u3",
                        &next,
                    );
                    stmts.push(elementwise_loop(&b.name, b.width, body));
                }
                BlockKind::Reduce { op, input } => {
                    let src = &self.blocks[input.0].name;
                    let acc = format!("{}_acc", b.name);
                    let init = match op {
                        ReduceOp::Sum => Expr::real(0.0),
                        ReduceOp::Product => Expr::real(1.0),
                        // Min/max seeded from the first element.
                        ReduceOp::Min | ReduceOp::Max => Expr::idx1(src.clone(), Expr::int(0)),
                    };
                    stmts.push(Stmt::new(StmtKind::Decl {
                        name: acc.clone(),
                        ty: Type::Scalar(Scalar::Real),
                        init: Some(init),
                    }));
                    let elem = Expr::idx1(src.clone(), Expr::var("idx"));
                    let update = match op {
                        ReduceOp::Sum => Expr::bin(BinOp::Add, Expr::var(acc.clone()), elem),
                        ReduceOp::Product => Expr::bin(BinOp::Mul, Expr::var(acc.clone()), elem),
                        ReduceOp::Min => Expr::Call {
                            name: "fmin".into(),
                            args: vec![Expr::var(acc.clone()), elem],
                        },
                        ReduceOp::Max => Expr::Call {
                            name: "fmax".into(),
                            args: vec![Expr::var(acc.clone()), elem],
                        },
                    };
                    let in_width = self.blocks[input.0].width;
                    stmts.push(Stmt::new(StmtKind::For {
                        var: "idx".into(),
                        lo: Expr::int(0),
                        hi: Expr::int(in_width as i64),
                        step: 1,
                        body: IrBlock::of(vec![Stmt::new(StmtKind::Assign {
                            target: LValue::Var(acc.clone()),
                            value: update,
                        })]),
                    }));
                    stmts.push(Stmt::new(StmtKind::Assign {
                        target: LValue::ArrayElem {
                            array: b.name.clone(),
                            indices: vec![Expr::int(0)],
                        },
                        value: Expr::var(acc),
                    }));
                }
            }
            // Copy to output parameter if marked.
            if b.is_output {
                let copy = Stmt::new(StmtKind::For {
                    var: "idx".into(),
                    lo: Expr::int(0),
                    hi: Expr::int(b.width as i64),
                    step: 1,
                    body: IrBlock::of(vec![Stmt::new(StmtKind::Assign {
                        target: LValue::ArrayElem {
                            array: format!("{}_out", b.name),
                            indices: vec![Expr::var("idx")],
                        },
                        value: Expr::idx1(b.name.clone(), Expr::var("idx")),
                    })]),
                });
                stmts.push(copy);
            }
        }

        let mut program = Program {
            functions: vec![Function {
                name: self.name.clone(),
                params,
                ret: None,
                body: IrBlock::of(stmts),
            }],
        };
        program.renumber();
        argo_ir::validate::validate(&program).map_err(|e| ModelError {
            msg: format!("lowered program invalid: {e}"),
        })?;
        Ok(program)
    }
}

fn elementwise_loop(out: &str, width: usize, value: Expr) -> Stmt {
    Stmt::new(StmtKind::For {
        var: "idx".into(),
        lo: Expr::int(0),
        hi: Expr::int(width as i64),
        step: 1,
        body: IrBlock::of(vec![Stmt::new(StmtKind::Assign {
            target: LValue::ArrayElem {
                array: out.to_string(),
                indices: vec![Expr::var("idx")],
            },
            value,
        })]),
    })
}

/// Parses a Scilab-like behaviour expression (delegates to the mini-C
/// expression grammar, which is a superset).
///
/// # Errors
///
/// Returns [`ModelError`] with the parser's message.
pub fn parse_behaviour(src: &str) -> Result<Expr, ModelError> {
    argo_ir::parse::parse_expr(src).map_err(|e| ModelError {
        msg: format!("behaviour expression: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_ir::interp::{ArgVal, ArrayData, Interp, NullHook};

    fn run_model(m: &Model, inputs: Vec<ArrayData>) -> Vec<(String, ArrayData)> {
        let p = m.lower().unwrap();
        let f = p.function(&m.name).unwrap();
        let mut args = Vec::new();
        let mut it = inputs.into_iter();
        for param in &f.params {
            if param.name.ends_with("_out") {
                args.push(ArgVal::Array(ArrayData::zeroed(
                    Scalar::Real,
                    param.ty.dims().to_vec(),
                )));
            } else {
                args.push(ArgVal::Array(it.next().expect("enough inputs")));
            }
        }
        let mut interp = Interp::new(&p);
        let out = interp.call_full(&m.name, args, &mut NullHook).unwrap();
        out.arrays
    }

    #[test]
    fn map_block_computes_elementwise() {
        let mut m = Model::new("m", 8);
        let x = m.add_input("x");
        let y = m.add_map("y", "u * 2.0 + 1.0", x).unwrap();
        m.mark_output(y);
        let outs = run_model(&m, vec![ArrayData::from_reals(&[1.0; 8])]);
        let (name, data) = outs.iter().find(|(n, _)| n == "y_out").unwrap();
        assert_eq!(name, "y_out");
        assert_eq!(data.to_reals(), vec![3.0; 8]);
    }

    #[test]
    fn zip_block_combines_two_signals() {
        let mut m = Model::new("m", 4);
        let a = m.add_input("a");
        let b = m.add_input("b");
        let c = m.add_zip("c", "u1 * u2", a, b).unwrap();
        m.mark_output(c);
        let outs = run_model(
            &m,
            vec![
                ArrayData::from_reals(&[1.0, 2.0, 3.0, 4.0]),
                ArrayData::from_reals(&[10.0, 10.0, 10.0, 10.0]),
            ],
        );
        let (_, data) = outs.iter().find(|(n, _)| n == "c_out").unwrap();
        assert_eq!(data.to_reals(), vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn reduce_blocks_compute_all_ops() {
        for (op, expect) in [
            (ReduceOp::Sum, 10.0),
            (ReduceOp::Product, 24.0),
            (ReduceOp::Min, 1.0),
            (ReduceOp::Max, 4.0),
        ] {
            let mut m = Model::new("m", 4);
            let x = m.add_input("x");
            let r = m.add_reduce("r", op, x);
            m.mark_output(r);
            let outs = run_model(&m, vec![ArrayData::from_reals(&[3.0, 1.0, 4.0, 2.0])]);
            let (_, data) = outs.iter().find(|(n, _)| n == "r_out").unwrap();
            assert_eq!(data.to_reals(), vec![expect], "{op:?}");
        }
    }

    #[test]
    fn stencil_clamps_borders() {
        let mut m = Model::new("m", 4);
        let x = m.add_input("x");
        // Moving average of 3 with clamped borders.
        let s = m.add_stencil3("s", "(u1 + u2 + u3) / 3.0", x).unwrap();
        m.mark_output(s);
        let outs = run_model(&m, vec![ArrayData::from_reals(&[3.0, 6.0, 9.0, 12.0])]);
        let (_, data) = outs.iter().find(|(n, _)| n == "s_out").unwrap();
        let got = data.to_reals();
        assert!((got[0] - 4.0).abs() < 1e-12); // (3+3+6)/3
        assert!((got[1] - 6.0).abs() < 1e-12); // (3+6+9)/3
        assert!((got[3] - 11.0).abs() < 1e-12); // (9+12+12)/3
    }

    #[test]
    fn pipeline_of_blocks_chains() {
        let mut m = Model::new("m", 8);
        let x = m.add_input("x");
        let y = m.add_map("y", "u + 1.0", x).unwrap();
        let z = m.add_map("z", "u * u", y).unwrap();
        m.mark_output(z);
        let outs = run_model(&m, vec![ArrayData::from_reals(&[2.0; 8])]);
        let (_, data) = outs.iter().find(|(n, _)| n == "z_out").unwrap();
        assert_eq!(data.to_reals(), vec![9.0; 8]);
    }

    #[test]
    fn rejects_bad_expression() {
        let mut m = Model::new("m", 8);
        let x = m.add_input("x");
        assert!(m.add_map("y", "u +", x).is_err());
    }

    #[test]
    fn rejects_width_mismatch_zip() {
        let mut m = Model::new("m", 8);
        let a = m.add_input("a");
        let r = m.add_reduce("r", ReduceOp::Sum, a);
        assert!(m.add_zip("z", "u1 + u2", a, r).is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut m = Model::new("m", 4);
        let a = m.add_input("x");
        let _ = m.add_map("x", "u", a);
        assert!(m.lower().is_err());
    }

    #[test]
    fn lowered_model_is_parallelizable_by_the_toolchain() {
        // The lowered loops are DOALL maps: the HTG must classify them so.
        let mut m = Model::new("m", 32);
        let x = m.add_input("x");
        let y = m.add_map("y", "sqrt(u) + 1.0", x).unwrap();
        m.mark_output(y);
        let p = m.lower().unwrap();
        let htg =
            argo_htg::extract::extract(&p, "m", argo_htg::Granularity::Loop, &Default::default())
                .unwrap();
        let any_doall = htg.tasks.iter().any(|t| {
            matches!(
                &t.kind,
                argo_htg::TaskKind::LoopNode {
                    parallelism: argo_htg::deps::LoopParallelism::Doall
                }
            )
        });
        assert!(any_doall);
    }
}
