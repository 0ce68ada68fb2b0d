//! Root crate re-exporting the complete ARGO reproduction workspace.
//!
//! Reproduction of *"WCET-aware parallelization of model-based
//! applications for multi-cores: The ARGO approach"* (DATE 2017). Each
//! member crate owns one stage of the toolflow; this facade re-exports
//! them all so `argo::Toolflow`, `argo::dse::Explorer`, … resolve
//! from a single dependency.
//!
//! * [`ir`] — mini-C frontend IR: AST, parser, CFG, interpreter;
//! * [`model`] — Xcos-like dataflow model frontend lowering to mini-C;
//! * [`adl`] — architecture description: platforms, memories, interference;
//! * [`transform`] — predictability transformations (§ II-B);
//! * [`htg`] — hierarchical task graph extraction;
//! * [`sched`] — mapping/scheduling (list, branch-and-bound, annealing);
//! * [`parir`] — explicitly parallel program model (§ II-C);
//! * [`wcet`] — code- and system-level WCET analysis (§ II-D);
//! * [`core`] — the staged [`Toolflow`] session driver chaining it all
//!   (§ II-E): typed stage artifacts, structured [`Diagnostic`]s,
//!   canonical [`Fingerprint`]s and [`StageObserver`] hooks;
//! * [`sim`] — cycle-charging simulator validating the bounds;
//! * [`apps`] — the three evaluation use cases (§ IV);
//! * [`dse`] — parallel design-space exploration with three-tier
//!   artifact caching and Pareto reporting (§ III);
//! * [`store`] — persistent content-addressed artifact store backing
//!   the `dse` cache tiers and the per-point outcome archive, enabling
//!   warm-started, incremental re-exploration across processes;
//! * [`search`] — budgeted metaheuristic search strategies (genetic,
//!   simulated annealing, successive halving) steering `dse` sweeps
//!   over large lattices;
//! * [`verify`] — independent static verification: MHP race detection,
//!   schedule/placement soundness, IR lints — the gate every schedule
//!   must pass;
//! * [`serve`] — the long-running toolflow daemon: JSON-lines wire
//!   protocol, single-flight request coalescing, bounded worker pool,
//!   all sessions sharing one persistent store;
//! * [`chaos`] — deterministic fault injection for the store's I/O
//!   backend, proving every injected fault degrades to a counted miss;
//! * [`trace`] — span tracing, metrics, and the workspace's one JSON
//!   reader and string escaper ([`trace::json`]).
//!
//! The experiment drivers (E1–E10, `e13_chaos`) live in the
//! `argo-bench` crate, which builds on this facade's members but is not
//! re-exported by it. The benchmark, `perfbench/`, is a package of its
//! own that depends on this facade.

// The session driver API, re-exported at the facade root so downstream
// code can spell `argo::Toolflow` / `argo::Diagnostic` directly.
pub use argo_core::{
    Artifact, Diagnostic, ErrorCode, Fingerprint, Fingerprintable, ScheduleCache, Stage,
    StageObserver, Toolflow,
};
// The search-layer vocabulary types, for the same reason:
// `argo::Budget`, `argo::SearchStrategy`.
pub use argo_search::{Budget, SearchStrategy};
// The verifier's session surface: `argo::ToolflowVerifyExt` brings
// `run_verify` into scope next to `argo::Toolflow`.
pub use argo_verify::{ToolflowVerifyExt, VerifyConfig, VerifyReport};

pub use argo_adl as adl;
pub use argo_apps as apps;
pub use argo_chaos as chaos;
pub use argo_core as core;
pub use argo_dse as dse;
pub use argo_htg as htg;
pub use argo_ir as ir;
pub use argo_model as model;
pub use argo_parir as parir;
pub use argo_sched as sched;
pub use argo_search as search;
pub use argo_serve as serve;
pub use argo_sim as sim;
pub use argo_store as store;
pub use argo_trace as trace;
pub use argo_transform as transform;
pub use argo_verify as verify;
pub use argo_wcet as wcet;
