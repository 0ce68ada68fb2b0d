//! The [`Toolflow`] session: a typed, observable, fingerprint-native
//! driver for the ARGO pipeline.
//!
//! A session binds a program, its entry function, a target platform, a
//! [`ToolchainConfig`] and (optionally) a [`StageObserver`], then runs
//! the pipeline either whole ([`Toolflow::run`]) or stage by stage
//! ([`Toolflow::run_frontend`] → [`Toolflow::run_seed_costs`] →
//! [`Toolflow::run_backend`]), each stage yielding an [`Artifact`]
//! type. Stage input fingerprints
//! ([`Toolflow::frontend_fingerprint`],
//! [`Toolflow::seed_cost_fingerprint`]) are API-owned content hashes —
//! two sessions with equal stage fingerprints produce identical stage
//! artifacts, which is the contract the `argo-dse` artifact cache keys
//! on.

use crate::artifact::{Artifact, BackendResult, CostTable, FrontendArtifact};
use crate::diag::{Diagnostic, ErrorCode, Stage};
use crate::fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
use crate::observer::{FeedbackSnapshot, StageObserver, StageSummary};
use crate::ToolchainConfig;
use argo_adl::{CoreId, MemSpace, MemoryMap, Placement, Platform};
use argo_htg::extract::extract;
use argo_htg::TaskId;
use argo_ir::ast::Program;
use argo_parir::ParallelProgram;
use argo_sched::{evaluate_assignment, CommModel, SchedCtx, Schedule, TaskGraph};
use argo_transform::chunk::chunk_all_parallel_loops;
use argo_transform::fold::fold_program;
use argo_wcet::cost::{program_symbols, CostCtx, ProgramSymbols};
use argo_wcet::schema::TaskCoster;
use argo_wcet::system::{analyze, task_shared_accesses};
use argo_wcet::value::loop_bounds_resolved;
use argo_wcet::WcetError;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Feeds the configuration fields the *frontend* stage observes —
/// shared between the full config fingerprint and the frontend stage
/// fingerprint so the two can never drift apart.
pub(crate) fn feed_frontend_config(cfg: &ToolchainConfig, h: &mut FingerprintHasher) {
    h.write_str(cfg.granularity.label());
    h.write_bool(cfg.chunk_loops);
    cfg.value_ctx.feed(h);
}

/// Cache hook for mapping-stage results, keyed by
/// [`crate::fingerprint::schedule_fingerprint`] — the third cache tier
/// of `argo-dse` (ROADMAP item (c)).
///
/// The backend's § II-E feedback loop invokes the scheduler once per
/// round on the round's re-costed task graph. Sweep axes that move
/// neither the graph nor the scheduling context's core count and
/// shared-access prices (the MHP mode, the feedback budget, scratchpad
/// capacities) re-derive byte-identical schedules; a cache bound via
/// [`Toolflow::schedule_cache`] intercepts each invocation and may
/// serve it from a previous session. Implementations must be
/// `Sync` (DSE workers share one cache) and must return exactly what
/// `build()` would return for the key — every workspace scheduler is a
/// deterministic function of the key's inputs, so memoization is
/// sound.
pub trait ScheduleCache: Sync {
    /// Returns the schedule for `key`, calling `build` on a miss.
    fn schedule(&self, key: Fingerprint, build: &mut dyn FnMut() -> Schedule) -> Schedule;
}

/// One toolflow invocation: program + entry + platform + config (+
/// observer), with typed staged execution and canonical stage
/// fingerprints.
///
/// Built with a fluent builder:
///
/// ```
/// use argo_adl::Platform;
/// use argo_core::{Toolflow, ToolchainConfig};
///
/// let src = "real main(real a[16], real b[16]) {
///                real s; int i;
///                s = 0.0;
///                for (i = 0; i < 16; i = i + 1) { b[i] = a[i] * 2.0; }
///                for (i = 0; i < 16; i = i + 1) { s = s + b[i]; }
///                return s;
///            }";
/// let program = argo_ir::parse::parse_program(src).unwrap();
/// let platform = Platform::xentium_manycore(2);
/// let result = Toolflow::new(program, "main")
///     .platform(&platform)
///     .config(ToolchainConfig::default())
///     .run()
///     .unwrap();
/// assert!(result.system.bound > 0);
/// ```
///
/// Run methods take `&self`, so one session can drive several stage
/// executions. Callers that sweep many sessions over one resolved
/// program (the design-space explorer) construct sessions with
/// [`Toolflow::borrowed`] — no per-session deep clone — and forward the
/// once-computed [`Toolflow::program_fingerprint`] via
/// [`Toolflow::with_program_fingerprint`] so fingerprinting stays off
/// the cache-hit hot path.
pub struct Toolflow<'a> {
    program: Cow<'a, Program>,
    entry: String,
    platform: Option<&'a Platform>,
    cfg: ToolchainConfig,
    observer: Option<&'a dyn StageObserver>,
    sched_cache: Option<&'a dyn ScheduleCache>,
    /// Memoized content fingerprint of the (printed) program.
    program_fp: OnceLock<Fingerprint>,
    /// Per-session observer-event sequence counter (see
    /// [`StageObserver`]): shared by every stage this session runs, so
    /// event `seq` numbers are strictly increasing across the whole
    /// session, including extension stages.
    seq: AtomicU64,
}

impl<'a> Toolflow<'a> {
    /// New session owning `program`, starting at `entry`, with the
    /// default configuration and no platform bound yet.
    pub fn new(program: Program, entry: &str) -> Toolflow<'a> {
        Toolflow {
            program: Cow::Owned(program),
            entry: entry.to_string(),
            platform: None,
            cfg: ToolchainConfig::default(),
            observer: None,
            sched_cache: None,
            program_fp: OnceLock::new(),
            seq: AtomicU64::new(0),
        }
    }

    /// New session borrowing `program` — no deep clone until a stage
    /// actually needs an owned copy (the frontend, on a cache miss).
    /// This is the constructor for sweep drivers that evaluate many
    /// configurations of one program.
    pub fn borrowed(program: &'a Program, entry: &str) -> Toolflow<'a> {
        Toolflow {
            program: Cow::Borrowed(program),
            entry: entry.to_string(),
            platform: None,
            cfg: ToolchainConfig::default(),
            observer: None,
            sched_cache: None,
            program_fp: OnceLock::new(),
            seq: AtomicU64::new(0),
        }
    }

    /// Binds the target platform (required by every run method).
    #[must_use]
    pub fn platform(mut self, platform: &'a Platform) -> Toolflow<'a> {
        self.platform = Some(platform);
        self
    }

    /// Replaces the toolchain configuration.
    #[must_use]
    pub fn config(mut self, cfg: ToolchainConfig) -> Toolflow<'a> {
        self.cfg = cfg;
        self
    }

    /// Attaches a stage observer. Every run method emits paired
    /// start/terminal events for the stages it runs (`finish` on
    /// success, `error` on failure); the backend also emits one
    /// [`FeedbackSnapshot`] per § II-E feedback round.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn StageObserver) -> Toolflow<'a> {
        self.observer = Some(observer);
        self
    }

    /// Attaches a schedule cache (the `argo-dse` third cache tier):
    /// every mapping-stage invocation inside the backend's feedback
    /// loop is routed through it, keyed by
    /// [`crate::fingerprint::schedule_fingerprint`].
    #[must_use]
    pub fn schedule_cache(mut self, cache: &'a dyn ScheduleCache) -> Toolflow<'a> {
        self.sched_cache = Some(cache);
        self
    }

    /// Seeds the memoized program fingerprint with a value previously
    /// returned by [`Toolflow::program_fingerprint`] for an *equal*
    /// program, skipping the print-and-hash pass on this session.
    /// Sweep drivers compute the fingerprint once per resolved program
    /// and forward it to every point's session; passing a fingerprint
    /// of a different program corrupts cache keys.
    #[must_use]
    pub fn with_program_fingerprint(self, fp: Fingerprint) -> Toolflow<'a> {
        let _ = self.program_fp.set(fp);
        self
    }

    /// The session's entry function name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The session's configuration.
    pub fn cfg(&self) -> &ToolchainConfig {
        &self.cfg
    }

    /// The platform bound via [`Toolflow::platform`], if any. Extension
    /// layers (e.g. the `argo-verify` checker) use this to re-derive
    /// platform-dependent facts from the same description the backend
    /// saw.
    pub fn configured_platform(&self) -> Option<&'a Platform> {
        self.platform
    }

    /// Allocates the next observer-event sequence number from the
    /// session's counter.
    fn next_observer_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn require_platform(&self, stage: Stage) -> Result<&'a Platform, Diagnostic> {
        self.platform.ok_or_else(|| {
            Diagnostic::new(
                stage,
                ErrorCode::MissingPlatform,
                "session has no platform; call Toolflow::platform(..) before running",
            )
        })
    }

    /// Canonical content fingerprint of the session's program (a hash
    /// of its printed text), memoized per session and seedable via
    /// [`Toolflow::with_program_fingerprint`].
    pub fn program_fingerprint(&self) -> Fingerprint {
        *self.program_fp.get_or_init(|| {
            FingerprintHasher::new()
                .write_str("program")
                .write_str(&argo_ir::printer::print_program(&self.program))
                .finish()
        })
    }

    /// Canonical fingerprint of the frontend stage *inputs*: program
    /// content, entry, the frontend-relevant configuration
    /// (granularity, chunking, value context) and the platform's core
    /// count — the only platform property the frontend observes. Two
    /// sessions with equal frontend fingerprints produce identical
    /// [`FrontendArtifact`]s, so this is the first-tier cache key of
    /// `argo-dse`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::MissingPlatform`] when no platform is bound.
    pub fn frontend_fingerprint(&self) -> Result<Fingerprint, Diagnostic> {
        let platform = self.require_platform(Stage::Frontend)?;
        let mut h = FingerprintHasher::new();
        h.write_str("frontend-inputs");
        h.write_fingerprint(self.program_fingerprint())
            .write_str(&self.entry);
        feed_frontend_config(&self.cfg, &mut h);
        h.write_u64(platform.core_count() as u64);
        Ok(h.finish())
    }

    /// Canonical fingerprint of the seed-costs stage *inputs*: the
    /// frontend fingerprint plus core 0's [`CostView`](argo_adl::CostView)
    /// — the second-tier cache key of `argo-dse`. Round 0 costs every
    /// task on core 0 under the all-shared placement, so the table reads
    /// nothing of the platform beyond that view: scratchpad capacities,
    /// other cores, tiles and arbitration weights reach it only through
    /// core 0's isolated shared-access price, and points that differ
    /// only in them (an SPM axis) share one table. The scheduler, MHP
    /// mode and feedback budget never reach it.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::MissingPlatform`] when no platform is bound,
    /// [`ErrorCode::InvalidPlatform`] when it has no cores.
    pub fn seed_cost_fingerprint(&self) -> Result<Fingerprint, Diagnostic> {
        let platform = self.require_seed_platform()?;
        let mut h = FingerprintHasher::new();
        h.write_str("seed-cost-inputs");
        h.write_fingerprint(self.frontend_fingerprint()?);
        platform.cost_view(CoreId(0)).feed(&mut h);
        Ok(h.finish())
    }

    /// The platform round 0 costs on: bound, with a core 0.
    fn require_seed_platform(&self) -> Result<&'a Platform, Diagnostic> {
        let platform = self.require_platform(Stage::SeedCosts)?;
        if platform.cores.is_empty() {
            return Err(Diagnostic::new(
                Stage::SeedCosts,
                ErrorCode::InvalidPlatform,
                "platform has no cores",
            )
            .with_entity(&platform.name));
        }
        Ok(platform)
    }

    /// Runs `body` as pipeline stage `stage`, bracketed by observer
    /// events: a start event first, then exactly one terminal event
    /// (finish with the artifact summary, or error with the
    /// diagnostic). When no observer is attached, the summary
    /// (fingerprint + detail) is never computed. Extension stages (e.g.
    /// `argo-verify`'s `run_verify`) run through this too, so their
    /// events share the session's `seq` counter and their checkpoint.
    ///
    /// Before anything starts, the observer's
    /// [`StageObserver::checkpoint`] is polled; a cancelled/expired
    /// request aborts here with the checkpoint's diagnostic and emits
    /// *no* events for the stage — the event stream stays well-nested
    /// and no partial stage ever runs.
    ///
    /// # Errors
    ///
    /// The checkpoint's diagnostic, or `body`'s.
    pub fn run_stage<T: Artifact>(
        &self,
        stage: Stage,
        body: impl FnOnce() -> Result<T, Diagnostic>,
    ) -> Result<T, Diagnostic> {
        if let Some(obs) = self.observer {
            obs.checkpoint(stage)?;
        }
        // Stage span on the global tracer (inert unless `--trace` enabled
        // it); sub-phase and per-point spans opened inside `body` nest
        // under it on the same thread.
        let _span = argo_trace::span(stage.span_name());
        let Some(obs) = self.observer else {
            return body();
        };
        obs.on_stage_start(stage, self.next_observer_seq());
        let t0 = Instant::now();
        match body() {
            Ok(artifact) => {
                obs.on_stage_finish(&StageSummary {
                    seq: self.next_observer_seq(),
                    stage,
                    fingerprint: artifact.fingerprint(),
                    detail: artifact.summary(),
                    elapsed: t0.elapsed(),
                });
                Ok(artifact)
            }
            Err(diagnostic) => {
                obs.on_stage_error(stage, self.next_observer_seq(), &diagnostic);
                Err(diagnostic)
            }
        }
    }

    /// Runs the frontend stage: validation, predictability
    /// transformations (§ II-B), loop-bound value analysis and HTG task
    /// extraction, which counts each task's worst-case accesses. The
    /// platform's core count is the only platform property the frontend
    /// observes: it controls DOALL chunking.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the failing step (see the
    /// error-code table in the [crate docs](crate)).
    pub fn run_frontend(&self) -> Result<FrontendArtifact, Diagnostic> {
        let core_count = self.require_platform(Stage::Frontend)?.core_count();
        let entry = self.entry.as_str();
        let cfg = &self.cfg;
        let mut program = self.program.as_ref().clone();
        self.run_stage(Stage::Frontend, move || {
            argo_ir::validate::validate(&program)
                .map_err(|e| frontend_err(ErrorCode::InvalidProgram, e))?;
            if program.function(entry).is_none() {
                return Err(Diagnostic::new(
                    Stage::Frontend,
                    ErrorCode::UnknownEntry,
                    format!("no function `{entry}` in program"),
                )
                .with_entity(entry));
            }

            // --- Program analysis & predictability transformations (§ II-B).
            // Fold before chunking too: `classify_loop` reads an unfolded
            // subscript such as `b[2 * 1 * i]` as non-affine.
            fold_program(&mut program);
            program.renumber();
            if cfg.chunk_loops && core_count > 1 {
                chunk_all_parallel_loops(&mut program, entry, core_count)
                    .map_err(|e| frontend_err(ErrorCode::TransformFailed, e))?;
                fold_program(&mut program);
                program.renumber();
            }
            argo_ir::validate::validate(&program)
                .map_err(|e| frontend_err(ErrorCode::InvalidProgram, e))?;

            // --- Slot resolution of the final (transformed, renumbered)
            // program: one pass, read by the value analysis below and
            // kept in the artifact, whose fingerprint hashes it.
            let resolution = argo_ir::resolve::Resolution::of(&program);

            // --- Loop bounds (value analysis).
            let bounds = loop_bounds_resolved(&resolution, entry, &cfg.value_ctx)
                .map_err(|e| frontend_err(ErrorCode::UnboundedLoop, e).with_entity(entry))?;

            // --- Task extraction (HTG), each task with its access counts.
            let htg = extract(&program, entry, cfg.granularity, &bounds)
                .map_err(|e| frontend_err(ErrorCode::ExtractionFailed, e))?;
            if htg.top_level.is_empty() {
                return Err(Diagnostic::new(
                    Stage::Frontend,
                    ErrorCode::EmptyHtg,
                    format!("entry `{entry}` produced no top-level tasks (empty function body?)"),
                )
                .with_entity(entry));
            }

            Ok(FrontendArtifact {
                program: Arc::new(program),
                resolution: Arc::new(resolution),
                bounds: Arc::new(bounds),
                htg: Arc::new(htg),
            })
        })
    }

    /// Runs the seed-costs stage on a frontend artifact: feedback round
    /// 0, every task costed on core 0 under the conservative all-shared
    /// placement. The table depends only on the artifact, the entry and
    /// core 0's cost view ([`Toolflow::seed_cost_fingerprint`]), so
    /// design-space points that share a program and that view reuse it
    /// (the second cache tier of `argo-dse`).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] if the platform has no cores or the
    /// code-level analysis fails.
    pub fn run_seed_costs(&self, artifact: &FrontendArtifact) -> Result<CostTable, Diagnostic> {
        let platform = self.require_seed_platform()?;
        let entry = self.entry.as_str();
        self.run_stage(Stage::SeedCosts, || {
            let program = &artifact.program;
            let mem = all_shared_map(program, entry);
            let symbols = program_symbols(program);
            let coster = TaskCoster::new(program, &artifact.resolution, entry).map_err(seed_err)?;
            let costs = task_costs(artifact, &coster, &symbols, platform, &mem, None).map_err(
                |(e, task)| match task {
                    Some(task) => seed_err(e).with_entity(task),
                    None => seed_err(e),
                },
            )?;
            Ok(CostTable::from(costs))
        })
    }

    /// Runs the backend stage on a frontend artifact: the iterative
    /// schedule ↔ placement ↔ WCET feedback loop (§ II-E), parallel
    /// model construction (§ II-C), system-level WCET analysis
    /// (§ II-D) and the sequential baseline.
    ///
    /// `seed` optionally supplies the round-0 task costs (as produced
    /// by [`Toolflow::run_seed_costs`] for the same artifact on any
    /// platform with the same [`Toolflow::seed_cost_fingerprint`], such
    /// as this one with another scratchpad capacity), skipping the first
    /// code-level WCET pass; the result is identical either way.
    ///
    /// The result's parallel program shares the artifact's program and
    /// HTG. A caller that keeps the artifact (a cache) passes a clone,
    /// which only bumps reference counts.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the failing step.
    pub fn run_backend(
        &self,
        artifact: FrontendArtifact,
        seed: Option<&CostTable>,
    ) -> Result<BackendResult, Diagnostic> {
        let platform = self.require_platform(Stage::Backend)?;
        validate_platform(platform)?;
        let entry = self.entry.as_str();
        let cfg = &self.cfg;
        self.run_stage(Stage::Backend, move || {
            if artifact.htg.top_level.is_empty() {
                return Err(Diagnostic::new(
                    Stage::Backend,
                    ErrorCode::EmptyHtg,
                    format!("artifact for `{entry}` has no top-level tasks"),
                )
                .with_entity(entry));
            }

            // --- Iterative schedule ↔ placement ↔ WCET loop (§ II-E).
            let (program, htg) = (&*artifact.program, &*artifact.htg);
            let mut mem = all_shared_map(program, entry);
            let mut schedule: Option<Schedule> = None;
            // Hoisted out of the feedback loop: the symbol tables, the
            // index of the entry's top-level statements with the set of
            // functions it reaches, and the task-graph skeleton (names,
            // ids, edges) depend only on the program/HTG, not on the
            // round — each round only re-costs.
            let symbols = program_symbols(program);
            let coster = TaskCoster::new(program, &artifact.resolution, entry)
                .map_err(|e| backend_err(ErrorCode::CodeWcetFailed, e))?;
            let mut graph = TaskGraph::skeleton_from_htg(htg);
            // One scheduling context prices each core's shared access
            // once, for every round, the gate and the baseline.
            let ctx = SchedCtx::with_comm(platform, CommModel::SignalOnly);
            let mut iterations = 0;
            for round in 0..cfg.feedback_rounds.max(1) {
                let _round_span = argo_trace::span("backend.round");
                iterations = round + 1;
                // Code-level WCET per task, on its (current) core,
                // isolated, under the current placement.
                let computed;
                let costs = match (round, seed) {
                    (0, Some(seeded)) => &**seeded,
                    _ => {
                        let assignment = schedule.as_ref().map(|s| s.assignment.as_slice());
                        computed =
                            task_costs(&artifact, &coster, &symbols, platform, &mem, assignment)
                                .map_err(|(e, _)| backend_err(ErrorCode::CodeWcetFailed, e))?;
                        &computed
                    }
                };
                graph.set_costs(costs);

                // Mapping/scheduling stage, routed through the schedule
                // cache when one is bound (third `argo-dse` cache tier):
                // the key covers everything a scheduler observes — the
                // graph (costs + edges), the context's core count and
                // shared-access prices, and the scheduler kind — so a
                // hit is byte-identical to a rebuild.
                let mut build = || cfg.scheduler.schedule(&graph, &ctx);
                let sched: Schedule = match self.sched_cache {
                    Some(cache) => {
                        let key =
                            crate::fingerprint::schedule_fingerprint(&graph, &ctx, cfg.scheduler);
                        cache.schedule(key, &mut build)
                    }
                    None => build(),
                };
                let stable = schedule
                    .as_ref()
                    .is_some_and(|s| s.assignment == sched.assignment);

                // Memory placement for the new mapping (WCET fed back).
                // The last round's placement is the final one.
                mem = argo_parir::mem_assign::assign(program, htg, &graph, &sched, platform)
                    .map_err(|e| backend_err(ErrorCode::MemAssignFailed, e))?;

                if let Some(obs) = self.observer {
                    let spm_resident = mem
                        .iter()
                        .filter(|(_, p)| matches!(p.space, MemSpace::Spm(_)))
                        .count();
                    obs.on_feedback_round(&FeedbackSnapshot {
                        seq: self.next_observer_seq(),
                        round,
                        assignment: sched.assignment.clone(),
                        makespan: sched.makespan(),
                        spm_resident,
                        shared_resident: mem.len() - spm_resident,
                        stable,
                    });
                }
                schedule = Some(sched);
                if stable {
                    break;
                }
            }
            let schedule = schedule.expect("at least one round");

            // In-backend soundness gate (debug builds): the schedule the
            // feedback loop settled on must satisfy its own precedence
            // and exclusivity constraints before we build the parallel
            // model on top of it. Release builds skip this;
            // `argo-verify` is the always-on external check.
            #[cfg(debug_assertions)]
            {
                if let Err(e) = schedule.validate(&graph, &ctx) {
                    panic!("backend produced an unsound schedule: {e}");
                }
            }

            // --- Parallel program model (§ II-C), sharing the artifact's
            // program, resolution and HTG.
            let parallel = ParallelProgram::build(
                artifact.program,
                artifact.resolution,
                artifact.htg,
                graph,
                schedule,
                mem,
                platform,
            )
            .map_err(|e| backend_err(ErrorCode::ParallelModelFailed, e))?;

            // --- System-level WCET (§ II-D), on the final round's
            // isolated costs.
            let shared_accesses =
                task_shared_accesses(&parallel.htg, &parallel.graph, &parallel.memory_map);
            let system = analyze(
                &parallel,
                platform,
                &parallel.graph.cost,
                &shared_accesses,
                cfg.mhp,
            );

            // --- Sequential baseline: same tasks, one core, no overlap.
            let seq = evaluate_assignment(
                &parallel.graph,
                &ctx,
                &vec![CoreId(0); parallel.graph.len()],
            );
            let sequential_bound = seq.makespan();

            Ok(BackendResult {
                parallel,
                system,
                sequential_bound,
                shared_accesses,
                feedback_iterations: iterations,
            })
        })
    }

    /// Runs the complete pipeline: platform validation, frontend,
    /// backend. Equivalent to the staged sequence
    /// ([`Toolflow::run_frontend`] → [`Toolflow::run_seed_costs`] →
    /// [`Toolflow::run_backend`]): the report and the result
    /// fingerprint are byte-identical either way.
    ///
    /// # Errors
    ///
    /// Returns the first stage's [`Diagnostic`].
    pub fn run(&self) -> Result<BackendResult, Diagnostic> {
        let platform = self.require_platform(Stage::Backend)?;
        validate_platform(platform)?;
        let artifact = self.run_frontend()?;
        self.run_backend(artifact, None)
    }
}

/// Maps a platform-validation failure to a backend diagnostic.
fn validate_platform(platform: &Platform) -> Result<(), Diagnostic> {
    platform.validate().map_err(|e| {
        Diagnostic::new(Stage::Backend, ErrorCode::InvalidPlatform, e.to_string())
            .with_entity(&platform.name)
    })
}

fn frontend_err(code: ErrorCode, e: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::new(Stage::Frontend, code, e.to_string())
}

fn seed_err(e: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::new(Stage::SeedCosts, ErrorCode::CodeWcetFailed, e.to_string())
}

fn backend_err(code: ErrorCode, e: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::new(Stage::Backend, code, e.to_string())
}

/// Isolated code-level WCET of every top-level task of `artifact`: the
/// task at index `i` of `htg.top_level` runs on `assignment[i]` (core 0
/// when `assignment` is `None`) under the placement `mem`. This is
/// round 0 of the § II-E loop (the seed costs) and every later round.
/// The callee table depends only on the core, so it is built once per
/// distinct core, over the functions the entry reaches; a task costs
/// the sum of its top-level statements, at least 1 cycle. An error
/// names the task when the task's own statements failed.
fn task_costs<'a>(
    artifact: &'a FrontendArtifact,
    coster: &TaskCoster<'_>,
    symbols: &ProgramSymbols,
    platform: &Platform,
    mem: &MemoryMap,
    assignment: Option<&[CoreId]>,
) -> Result<BTreeMap<TaskId, u64>, (WcetError, Option<&'a str>)> {
    let (htg, bounds) = (&*artifact.htg, &*artifact.bounds);
    let mut by_core = BTreeMap::new();
    let mut costs = BTreeMap::new();
    for (idx, &tid) in htg.top_level.iter().enumerate() {
        let core = assignment.map_or(CoreId(0), |a| a[idx]);
        let (ctx, fw) = match by_core.entry(core) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let ctx = CostCtx::with_symbols(&artifact.program, platform, core, mem, symbols);
                let fw = coster.callee_wcets(&ctx, bounds).map_err(|e| (e, None))?;
                e.insert((ctx, fw))
            }
        };
        let task = htg.task(tid);
        let w = coster
            .task_wcet(ctx, bounds, fw, &task.stmts)
            .map_err(|e| (e, Some(task.name.as_str())))?;
        costs.insert(tid, w.max(1));
    }
    Ok(costs)
}

/// The conservative round-0 placement: every array in shared memory.
fn all_shared_map(program: &Program, entry: &str) -> MemoryMap {
    let mut map = MemoryMap::new();
    let Some(f) = program.function(entry) else {
        return map;
    };
    let mut cursor = 0u64;
    for (name, ty) in argo_ir::validate::symbol_table(f) {
        if ty.is_array() {
            map.insert(
                name,
                Placement {
                    space: argo_adl::MemSpace::Shared,
                    base_addr: cursor,
                    size_bytes: ty.size_bytes(),
                },
            );
            cursor += ty.size_bytes();
        }
    }
    map
}
