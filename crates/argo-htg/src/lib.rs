//! # argo-htg — Hierarchical Task Graph
//!
//! "A task extraction stage is applied to the program, from which we obtain
//! a Hierarchical Task Graph (HTG). In a HTG, loops are enclosed in an
//! additional hierarchy level, resulting in a hierarchy of acyclic task
//! graphs. Task dependencies embed information on the variables and the
//! buffers that need to be communicated between tasks, while task nodes
//! include additional information on possible shared resource accesses
//! (list of shared resources, and worst case number of accesses)."
//! (paper § II-B)
//!
//! This crate implements exactly that object:
//!
//! * [`extract`] builds the HTG from a mini-C function at a configurable
//!   [`Granularity`] (the "very fine grain task decomposition" of
//!   § III-C), with the dependence edges between sibling tasks: scalar
//!   def-use plus array dependences refined by access ranges;
//! * [`deps`] classifies loops as DOALL / reduction / sequential via an
//!   affine-subscript test, and holds the array access-range analysis
//!   the edges are refined with;
//! * [`accesses`] counts each task's worst-case shared-resource accesses,
//!   which extraction stores on the task as it creates it.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     void main(real a[64], real b[64], real c[64]) {
//!         int i;
//!         for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }
//!         for (i = 0; i < 64; i = i + 1) { c[i] = b[i] + 1.0; }
//!     }
//! "#;
//! let program = argo_ir::parse::parse_program(src)?;
//! let bounds = std::collections::BTreeMap::new();
//! let htg = argo_htg::extract::extract(&program, "main", argo_htg::Granularity::Loop, &bounds)?;
//! // Two top-level loop tasks with a flow dependence through `b`.
//! assert!(htg.edges.iter().any(|e| e.vars.contains("b")));
//! // Each task carries its worst-case access counts.
//! assert_eq!(htg.task(htg.top_level[1]).access_counts["a"], 64);
//! # Ok(()) }
//! ```

pub mod accesses;
pub mod deps;
pub mod extract;

use argo_ir::StmtId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a task within an [`Htg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Task granularity of the extraction — the trade-off § III-C calls out:
/// finer grain exposes more parallelism but blows up the scheduling
/// problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One task per statement.
    Stmt,
    /// Maximal straight-line statement groups become one task; control
    /// structures split.
    Block,
    /// Only loops and calls split; everything between them is grouped.
    Loop,
}

impl Granularity {
    /// Every granularity, from the coarsest to the finest.
    pub const ALL: [Granularity; 3] = [Granularity::Loop, Granularity::Block, Granularity::Stmt];

    /// Stable lower-case label, shared by reports, CLI flags, wire
    /// requests and fingerprints.
    pub fn label(&self) -> &'static str {
        match self {
            Granularity::Loop => "loop",
            Granularity::Block => "block",
            Granularity::Stmt => "stmt",
        }
    }

    /// Parses a [`Granularity::label`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted labels.
    pub fn parse(s: &str) -> Result<Granularity, String> {
        let labels = Granularity::ALL.map(|g| g.label());
        Granularity::ALL
            .into_iter()
            .find(|g| g.label() == s)
            .ok_or_else(|| format!("unknown granularity `{s}` (expected {})", labels.join("|")))
    }
}

/// What a task contains.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// A group of simple statements (ids in program order).
    Simple,
    /// A whole loop; its body forms a child hierarchy level.
    LoopNode {
        /// Classification from the dependence analysis.
        parallelism: deps::LoopParallelism,
    },
    /// A conditional; both branches belong to the task.
    CondNode,
    /// A procedure call in statement position.
    CallNode {
        /// Callee name.
        callee: String,
    },
}

/// One node of the hierarchical task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task id (== index in [`Htg::tasks`]).
    pub id: TaskId,
    /// Human-readable name (`"for@s7"` style).
    pub name: String,
    /// Payload kind.
    pub kind: TaskKind,
    /// Statement ids covered by this task (for loop/cond nodes: the
    /// compound statement itself; children carry the body).
    pub stmts: Vec<StmtId>,
    /// Variables read (transitively, whole subtree, flow-insensitive).
    pub reads: BTreeSet<String>,
    /// Variables that may be read *before* the task writes them — the
    /// flow-sensitive live-in set used for true-dependence edges.
    pub live_reads: BTreeSet<String>,
    /// Variables written (transitively, whole subtree).
    pub writes: BTreeSet<String>,
    /// Child tasks (one hierarchy level down, e.g. a loop body).
    pub children: Vec<TaskId>,
    /// Parent task, `None` for top-level tasks.
    pub parent: Option<TaskId>,
    /// Worst-case number of accesses per shared variable, counted by
    /// [`extract::extract`] when it creates the task (see [`accesses`]).
    /// Keys are variable names; this is the "list of shared resources,
    /// and worst case number of accesses" of § II-B.
    pub access_counts: BTreeMap<String, u64>,
}

/// A dependence edge between two sibling tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct DepEdge {
    /// Producer (earlier in program order).
    pub from: TaskId,
    /// Consumer.
    pub to: TaskId,
    /// Variables carrying a true (flow) dependence.
    pub vars: BTreeSet<String>,
    /// Variables causing only anti/output conflicts on this edge.
    pub conflicts: BTreeSet<String>,
    /// Communication volume in bytes if the tasks end up on different
    /// cores (sum of flow-dependent variable footprints).
    pub bytes: u64,
    /// `true` if the edge only exists because of an anti/output dependence
    /// (ordering required, but no data flows).
    pub ordering_only: bool,
}

/// The hierarchical task graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Htg {
    /// All tasks (every hierarchy level).
    pub tasks: Vec<Task>,
    /// Dependence edges between *sibling* tasks (same hierarchy level).
    pub edges: Vec<DepEdge>,
    /// Top-level task ids, in program order.
    pub top_level: Vec<TaskId>,
    /// Name of the function the HTG was extracted from.
    pub function: String,
    /// Scalars that never carry a flow dependence between tasks: each task
    /// (core) may keep a private copy, so pure anti/output conflicts on
    /// them impose no ordering. The extractor drops such edges; the
    /// parallel-model construction must privatise these variables.
    pub privatizable: BTreeSet<String>,
}

impl Htg {
    /// Looks up a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Number of tasks across all hierarchy levels.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Checks that sibling edges form a DAG consistent with program order
    /// (`from < to` in extraction ordering). Used by property tests.
    pub fn edges_are_acyclic(&self) -> bool {
        // Edges always point from an earlier-extracted task to a later
        // one, so id order is a topological order.
        self.edges.iter().all(|e| e.from.0 < e.to.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(4).to_string(), "t4");
    }

    #[test]
    fn empty_htg_properties() {
        let h = Htg::default();
        assert!(h.is_empty());
        assert!(h.edges_are_acyclic());
    }
}
