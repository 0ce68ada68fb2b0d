//! # argo-dse — parallel design-space exploration over the ARGO toolflow
//!
//! The ARGO paper (§ III) describes a *toolflow*, not a single compiler
//! invocation: the parallelization result depends on a lattice of design
//! decisions — which platform family (§ III-B: the Recore Xentium
//! many-core bus architecture vs the KIT tile NoC), how many cores, which
//! mapping/scheduling strategy, which predictability transformations and
//! task granularity (§ III-C), and how much scratchpad memory each core
//! owns (WCET-directed SPM allocation). Navigating that lattice under
//! WCET constraints *is* the design process the paper advocates; this
//! crate makes it a first-class, parallel, cached, *steerable* subsystem:
//!
//! * [`space::DesignSpace`] — a builder enumerating [`space::ExplorationPoint`]s
//!   as the cartesian product of the axes above (use case × platform ×
//!   core count × scheduler × granularity × chunking × SPM capacity);
//! * [`executor`] — a parallel map over one shared job queue (std
//!   threads and a mutex only) that compiles and analyzes points
//!   concurrently while keeping result order deterministic, so reports
//!   are byte-stable regardless of thread count;
//! * [`cache::ArtifactCache`] — a three-tier content-hash keyed artifact
//!   store exploiting the staged [`argo_core`] pipeline: points sharing
//!   `(program, transforms, core count)` reuse one
//!   [`argo_core::FrontendArtifact`] (HTG extraction), points sharing
//!   that and core 0's cost view additionally reuse the round-0
//!   code-level WCET table ([`argo_core::Toolflow::run_seed_costs`]),
//!   whatever their scratchpad capacities, and backend
//!   feedback rounds sharing the task graph, the scheduling context's
//!   core count and shared-access prices, and the scheduler reuse the
//!   mapping-stage schedule through the [`argo_core::ScheduleCache`]
//!   hook, again whatever the scratchpad capacities. Hit/miss counters for every tier are surfaced in every
//!   report;
//! * [`Explorer::explore`] / [`Explorer::search`] — the exhaustive sweep
//!   and the budgeted steered sweep: `search` hands point selection to an
//!   `argo-search` [`argo_search::SearchStrategy`] (genetic, simulated
//!   annealing, successive halving) under an [`argo_search::Budget`],
//!   evaluating only a promising fraction of large lattices while
//!   recovering the exhaustive Pareto front; both are layered on the
//!   reusable per-point API [`Explorer::evaluate_point`];
//! * [`observe`] — a [`argo_core::StageObserver`] wired into every
//!   point's session, so reports attribute wall time per pipeline stage
//!   and per cache tier;
//! * [`pareto`] — re-exported from `argo-search` (dominance, fronts,
//!   NSGA-II ranks/crowding) over the objective triple (core count,
//!   guaranteed parallel WCET bound, SPM bytes), i.e. the § II-E
//!   trade-off between resources and guaranteed timing;
//! * [`report`] — text, JSON and CSV emission of the sweep, the front,
//!   per-stage timing, failure-class aggregation over structured
//!   [`argo_core::Diagnostic`]s, and the search metadata;
//! * the `argo-dse` CLI binary, e.g.
//!   `argo-dse explore --app egpws --cores 1..8 --schedulers list,bnb,anneal`
//!   or, steered,
//!   `argo-dse explore --app egpws --cores 1..8 --spm default,0,4096,16384 \
//!    --strategy ga --budget 64 --seed 7`.
//!
//! The experiment drivers in `argo-bench` (E4 scheduler ablation, E5 SPM
//! sweep, E7 granularity sweep, E9 search-vs-exhaustive front quality)
//! run on top of this engine.

pub mod cache;
pub mod executor;
pub mod explore;
pub mod observe;
pub mod report;
pub mod space;

pub use argo_search::pareto;

pub use cache::{ArtifactCache, CacheStats};
pub use explore::Explorer;
pub use observe::{StageTimings, TierTiming, TimingObserver};
pub use pareto::pareto_front;
pub use report::{ExplorationReport, PointMetrics, ReportRow, SearchInfo};
pub use space::{DesignSpace, ExplorationPoint, PlatformKind};
