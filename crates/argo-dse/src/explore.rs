//! The exploration engine: resolves programs, fans points out onto the
//! parallel executor, shares artifacts through the content-hash
//! cache and assembles the deterministic report.
//!
//! Two entry points:
//!
//! * [`Explorer::explore`] — the exhaustive sweep: every lattice point
//!   is evaluated;
//! * [`Explorer::search`] — the steered sweep: an `argo-search`
//!   [`SearchStrategy`] picks which points to evaluate under a
//!   [`Budget`], the engine evaluates each requested batch in parallel,
//!   and the report covers the evaluated subset (plus the strategy
//!   metadata).
//!
//! Both share [`Explorer::evaluate_point`], the reusable per-point
//! evaluation API layered on toolflow sessions: canonical fingerprints
//! key all three cache tiers, a [`TimingObserver`] attributes wall time
//! per stage, and failures surface as structured
//! [`Diagnostic`]s.

use crate::cache::ArtifactCache;
use crate::executor::{default_threads, parallel_map};
use crate::observe::{TierTiming, TimingObserver};
use crate::pareto::{pareto_front, Objectives};
use crate::report::{ExplorationReport, PointMetrics, ReportRow, SearchInfo, StoredPoint};
use crate::space::{DesignSpace, ExplorationPoint};
use argo_core::diag::panic_message;
use argo_core::{
    Diagnostic, ErrorCode, Fanout, Fingerprint, FingerprintHasher, Fingerprintable, NullObserver,
    Stage, ToolchainConfig, Toolflow,
};
use argo_ir::ast::Program;
use argo_search::{Budget, Evaluator, Lattice, SearchStrategy};
use argo_store::Store;
use argo_verify::ToolflowVerifyExt;
use argo_wcet::value::ValueCtx;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `argo_dse_point_wall_us` histogram handle, resolved once.
fn point_wall_histogram() -> &'static Arc<argo_trace::Histogram> {
    static HIST: std::sync::OnceLock<Arc<argo_trace::Histogram>> = std::sync::OnceLock::new();
    HIST.get_or_init(|| {
        argo_trace::metrics().histogram("argo_dse_point_wall_us", argo_trace::LATENCY_US_BUCKETS)
    })
}

/// A program ready to explore: IR, entry point, and the program's
/// canonical content fingerprint, computed once at resolution so
/// per-point sessions skip the print-and-hash pass (cache keys stay
/// API-owned: the value comes from `Toolflow::program_fingerprint`).
struct ResolvedApp {
    program: Program,
    entry: String,
    program_fp: Fingerprint,
}

impl ResolvedApp {
    fn new(program: Program, entry: &str) -> ResolvedApp {
        let program_fp = Toolflow::borrowed(&program, entry).program_fingerprint();
        ResolvedApp {
            program,
            entry: entry.to_string(),
            program_fp,
        }
    }
}

/// Memoized built-in use-case resolutions, keyed by `(name, seed)`.
type ResolvedMemo = Mutex<HashMap<(String, u64), Result<Arc<ResolvedApp>, Diagnostic>>>;

/// Drives [`DesignSpace`] sweeps. The artifact cache lives on the
/// explorer, so repeated [`Explorer::explore`]/[`Explorer::search`]
/// calls (and overlapping spaces) keep sharing artifacts across all
/// three tiers.
pub struct Explorer {
    threads: usize,
    cache: ArtifactCache,
    custom: HashMap<String, Arc<ResolvedApp>>,
    /// Built-in use cases resolved at most once per `(name, seed)`,
    /// shared by every entry point (`explore` pre-resolves its apps,
    /// `evaluate_point` resolves lazily).
    resolved: ResolvedMemo,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// Explorer using all available hardware threads.
    pub fn new() -> Explorer {
        Explorer::with_threads(default_threads())
    }

    /// Explorer with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> Explorer {
        Explorer {
            threads: threads.max(1),
            cache: ArtifactCache::new(),
            custom: HashMap::new(),
            resolved: Mutex::new(HashMap::new()),
        }
    }

    /// Worker threads this explorer uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Backs this explorer's cache onto a persistent [`Store`]: all
    /// three artifact tiers read back / write through, and whole point
    /// outcomes are archived under the `point` namespace. A later
    /// explorer (typically a new process) over the same store dir
    /// warm-starts: points whose input fingerprints are unchanged are
    /// replayed from the archive without running any pipeline stage,
    /// while points whose program/platform/config changed miss their
    /// keys and re-evaluate — incremental re-exploration.
    pub fn with_store(mut self, store: Arc<Store>) -> Explorer {
        self.cache.set_store(store);
        self
    }

    /// The persistent store backing this explorer, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.cache.store()
    }

    /// Registers a custom program under `name`, shadowing the built-in
    /// use cases. Useful for exploring programs that are not part of
    /// `argo_apps` (and for fast tests).
    pub fn register_program(&mut self, name: &str, program: Program, entry: &str) {
        self.custom
            .insert(name.to_string(), Arc::new(ResolvedApp::new(program, entry)));
    }

    /// Current artifact-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    fn resolve(&self, name: &str, seed: u64) -> Result<Arc<ResolvedApp>, Diagnostic> {
        if let Some(app) = self.custom.get(name) {
            return Ok(Arc::clone(app));
        }
        let mut memo = self.resolved.lock().unwrap();
        if let Some(cached) = memo.get(&(name.to_string(), seed)) {
            return cached.clone();
        }
        let resolved = argo_apps::use_case(name, seed)
            .map(|uc| Arc::new(ResolvedApp::new(uc.program, uc.entry)))
            .ok_or_else(|| {
                let names = argo_apps::USE_CASES.map(|(name, ..)| name);
                Diagnostic::new(
                    Stage::Frontend,
                    ErrorCode::UnknownProgram,
                    format!(
                        "unknown use case `{name}` (built-ins: {}; or register a custom program)",
                        names.join(", ")
                    ),
                )
                .with_entity(name)
            });
        memo.insert((name.to_string(), seed), resolved.clone());
        resolved
    }

    /// Evaluates one fully-specified point: resolves its app by name
    /// (memoized per `(name, seed)`), drives a toolflow session through
    /// the shared three-tier cache and returns the report row. This is
    /// the per-point API the search strategies and external drivers
    /// reuse; `space` supplies the cross-point knobs (feedback rounds,
    /// synthetic-input seed).
    pub fn evaluate_point(&self, point: ExplorationPoint, space: &DesignSpace) -> ReportRow {
        self.evaluate_observed(point, space, None)
    }

    /// Like [`Explorer::evaluate_point`], but attaches `obs` to the
    /// point's toolflow session so stage events stream to the caller
    /// while the evaluation runs — a point answered entirely from the
    /// point archive emits no events. This is the per-request entry
    /// point of `argo-serve`, which forwards the events to clients as
    /// progress frames.
    pub fn evaluate_point_observed(
        &self,
        point: ExplorationPoint,
        space: &DesignSpace,
        obs: &dyn argo_core::StageObserver,
    ) -> ReportRow {
        self.evaluate_observed(point, space, Some(obs))
    }

    fn evaluate_observed(
        &self,
        point: ExplorationPoint,
        space: &DesignSpace,
        obs: Option<&dyn argo_core::StageObserver>,
    ) -> ReportRow {
        // Per-point span (stage spans opened inside nest under it) and
        // wall-time histogram. One histogram observe per multi-ms
        // evaluation is noise; the handle is cached in a static so the
        // registry mutex is off this path.
        let _span = argo_trace::span("dse.point");
        let t0 = Instant::now();
        let row = match self.resolve(&point.app, space.seed) {
            // Panic isolation: a bug surfacing mid-evaluation (or an
            // injected chaos panic in the store backend) becomes one
            // failed row with a transient `internal-error` diagnostic
            // instead of tearing down the sweep — and since the panic
            // aborted before the point archive was written, nothing
            // poisonous persists.
            Ok(app) => {
                let p = point.clone();
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.evaluate(&app, p, space, obs)
                })) {
                    Ok(row) => row,
                    Err(payload) => {
                        argo_trace::metrics()
                            .counter("argo_dse_point_panics_total")
                            .inc();
                        let spm_effective = point.spm_bytes.unwrap_or(0);
                        ReportRow {
                            point,
                            spm_effective,
                            outcome: Err(Diagnostic::new(
                                Stage::Backend,
                                ErrorCode::InternalError,
                                format!("point evaluation panicked: {}", panic_message(&*payload)),
                            )),
                        }
                    }
                }
            }
            Err(diagnostic) => {
                let spm_effective = point.spm_bytes.unwrap_or(0);
                ReportRow {
                    point,
                    spm_effective,
                    outcome: Err(diagnostic),
                }
            }
        };
        point_wall_histogram().observe(t0.elapsed().as_micros() as u64);
        row
    }

    /// Runs the full sweep and returns the report. Rows are in
    /// [`DesignSpace::points`] order regardless of thread count.
    pub fn explore(&self, space: &DesignSpace) -> ExplorationReport {
        let t0 = Instant::now();
        let points = space.points();

        // Resolve each distinct app once, sequentially and in order —
        // use-case construction is itself seeded and deterministic.
        for p in &points {
            let _ = self.resolve(&p.app, space.seed);
        }

        let timing_obs = TimingObserver::new();
        let stats_before = self.cache.stats();
        let rows = parallel_map(points, self.threads, &|_idx, point: ExplorationPoint| {
            self.evaluate_observed(point, space, Some(&timing_obs))
        });
        let pareto = front_of(&rows);
        self.finish_report(rows, pareto, t0, &timing_obs, stats_before, None)
    }

    /// Runs a budgeted, strategy-steered sweep: only the points the
    /// strategy requests are evaluated (each batch fanned out over the
    /// worker pool), and the report contains exactly the evaluated
    /// subset in lattice order. Deterministic for a fixed
    /// `(space, strategy, budget)` triple, for any thread count — the
    /// search seed is the space's seed.
    pub fn search(
        &self,
        space: &DesignSpace,
        strategy: &dyn SearchStrategy,
        budget: Budget,
    ) -> ExplorationReport {
        self.search_observed(space, strategy, budget, self.threads, &NullObserver)
    }

    /// Like [`Explorer::search`], but evaluates each batch on `threads`
    /// workers and attaches `obs` to every evaluated point's session,
    /// as [`Explorer::evaluate_point_observed`] does for one point:
    /// `argo-serve` passes its per-request thread budget, timing
    /// observer and cancel token here.
    pub fn search_observed(
        &self,
        space: &DesignSpace,
        strategy: &dyn SearchStrategy,
        budget: Budget,
        threads: usize,
        obs: &(dyn argo_core::StageObserver + Sync),
    ) -> ExplorationReport {
        let t0 = Instant::now();
        let threads = threads.max(1);
        let points = space.points();
        let lattice = Lattice::new(vec![
            space.apps.len(),
            space.platforms.len(),
            space.cores.len(),
            space.schedulers.len(),
            space.granularities.len(),
            space.chunking.len(),
            space.spm_capacities.len(),
        ]);
        debug_assert_eq!(lattice.len(), points.len(), "lattice mirrors points()");

        let timing_obs = TimingObserver::new();
        let observers = Fanout(&timing_obs, obs);
        let stats_before = self.cache.stats();
        let evaluated_rows: Mutex<BTreeMap<usize, ReportRow>> = Mutex::new(BTreeMap::new());
        let evaluations;
        {
            let mut eval_fn = |batch: &[usize]| -> Vec<Option<Objectives>> {
                let jobs: Vec<usize> = batch.to_vec();
                let rows = parallel_map(jobs, threads, &|_j, idx: usize| {
                    (
                        idx,
                        self.evaluate_observed(points[idx].clone(), space, Some(&observers)),
                    )
                });
                let objectives = rows.iter().map(|(_, row)| row.objectives()).collect();
                evaluated_rows.lock().unwrap().extend(rows);
                objectives
            };
            let mut evaluator = Evaluator::new(budget, &mut eval_fn);
            strategy.search(&lattice, space.seed, &mut evaluator);
            evaluations = evaluator.evaluations();
        }

        let rows: Vec<ReportRow> = evaluated_rows.into_inner().unwrap().into_values().collect();
        let pareto = front_of(&rows);
        let info = SearchInfo {
            strategy: strategy.name(),
            seed: space.seed,
            budget,
            lattice_points: lattice.len(),
            evaluated: evaluations,
        };
        ExplorationReport {
            threads,
            ..self.finish_report(rows, pareto, t0, &timing_obs, stats_before, Some(info))
        }
    }

    fn finish_report(
        &self,
        rows: Vec<ReportRow>,
        pareto: Vec<usize>,
        t0: Instant,
        timing_obs: &TimingObserver,
        stats_before: crate::cache::CacheStats,
        search: Option<SearchInfo>,
    ) -> ExplorationReport {
        let stats_after = self.cache.stats();
        let mut timing = timing_obs.snapshot();
        timing.schedule_builds = TierTiming {
            runs: stats_after.sched_misses - stats_before.sched_misses,
            nanos: stats_after.sched_build_ns - stats_before.sched_build_ns,
        };
        ExplorationReport {
            rows,
            pareto,
            cache: stats_after,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            threads: self.threads,
            timing,
            search,
        }
    }

    fn evaluate(
        &self,
        app: &ResolvedApp,
        point: ExplorationPoint,
        space: &DesignSpace,
        obs: Option<&dyn argo_core::StageObserver>,
    ) -> ReportRow {
        let cfg = ToolchainConfig {
            granularity: point.granularity,
            chunk_loops: point.chunk_loops,
            scheduler: point.scheduler,
            mhp: point.mhp,
            feedback_rounds: space.feedback_rounds,
            value_ctx: ValueCtx::default(),
        };
        let platform = point.platform.build(point.cores, point.spm_bytes);
        let spm_effective = platform.cores.first().map(|c| c.spm_bytes).unwrap_or(0);

        // Point archive: the key fingerprints every evaluation input —
        // program content, entry point, platform parameters, toolchain
        // configuration. The whole pipeline is deterministic in those
        // inputs, so an archived outcome (success or diagnostic) can be
        // replayed verbatim; any edit changes a fingerprint and the
        // point re-evaluates.
        let point_key = FingerprintHasher::new()
            .write_str("point-inputs")
            .write_fingerprint(app.program_fp)
            .write_str(&app.entry)
            .write_fingerprint(platform.fingerprint())
            .write_fingerprint(cfg.fingerprint())
            .finish();
        if let Some(stored) = self.cache.point_get::<StoredPoint>(point_key) {
            return ReportRow {
                point,
                spm_effective: stored.spm_effective,
                outcome: stored.outcome,
            };
        }
        let outcome = self.evaluate_uncached(app, &cfg, &platform, obs);
        // Ordinary diagnostics are deterministic in those same inputs
        // and archive with the outcome; transient ones (deadline,
        // caught panic, leader failure) are not — archiving one would
        // replay the infrastructure failure verbatim forever.
        if !matches!(&outcome, Err(d) if d.code.is_transient()) {
            self.cache.point_put(
                point_key,
                &StoredPoint {
                    spm_effective,
                    outcome: outcome.clone(),
                },
            );
        }
        ReportRow {
            point,
            spm_effective,
            outcome,
        }
    }

    /// Runs the full staged pipeline for one point (all cache tiers
    /// consulted, point archive already missed).
    fn evaluate_uncached(
        &self,
        app: &ResolvedApp,
        cfg: &ToolchainConfig,
        platform: &argo_adl::Platform,
        obs: Option<&dyn argo_core::StageObserver>,
    ) -> Result<PointMetrics, Diagnostic> {
        if let Err(e) = platform.validate() {
            return Err(
                Diagnostic::new(Stage::Backend, ErrorCode::InvalidPlatform, e.to_string())
                    .with_entity(&platform.name),
            );
        }
        // One session drives the whole point: it owns the canonical
        // per-stage input fingerprints (the cache keys) and the staged
        // builds on a miss. The session borrows the resolved program
        // and reuses its once-computed fingerprint, so a cache hit
        // costs neither a deep clone nor a print-and-hash pass. The
        // schedule cache (third tier) intercepts every mapping-stage
        // invocation inside the backend's feedback loop.
        let mut flow = Toolflow::borrowed(&app.program, &app.entry)
            .platform(platform)
            .config(cfg.clone())
            .with_program_fingerprint(app.program_fp)
            .schedule_cache(&self.cache);
        if let Some(obs) = obs {
            flow = flow.observer(obs);
        }

        // Tier 1: frontend artifact — shared by every point with the same
        // program text, entry, transform options and core count.
        let frontend_key = flow
            .frontend_fingerprint()
            .expect("platform is bound on the session");
        let artifact = self.cache.frontend(frontend_key, || flow.run_frontend())?;

        // Tier 2: round-0 code-level WCETs — shared by every point with
        // the same frontend artifact and core 0's cost view (e.g. the
        // scheduler, MHP and SPM axes).
        let cost_key = flow
            .seed_cost_fingerprint()
            .expect("platform is bound on the session");
        let costs = self
            .cache
            .seed_costs(cost_key, || flow.run_seed_costs(&artifact))?;

        let r = flow.run_backend((*artifact).clone(), Some(&costs))?;

        // Independent verification gates every successful point: an
        // error-severity finding turns the row into a structured
        // failure (class `verify/<code>`), warnings are surfaced as a
        // count in the metrics.
        let verdict = flow.run_verify(&r)?;
        verdict.gate()?;
        Ok(PointMetrics {
            tasks: r.parallel.graph.len(),
            signals: r.parallel.sync_count(),
            seq_bound: r.sequential_bound,
            par_bound: r.system.bound,
            speedup: r.wcet_speedup(),
            feedback_iterations: r.feedback_iterations,
            verify_findings: verdict.findings.len(),
        })
    }
}

/// Pareto front over the successful rows (indices into `rows`).
fn front_of(rows: &[ReportRow]) -> Vec<usize> {
    let successes: Vec<(usize, Objectives)> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some(i).zip(r.objectives()))
        .collect();
    let objectives: Vec<Objectives> = successes.iter().map(|&(_, o)| o).collect();
    pareto_front(&objectives)
        .into_iter()
        .map(|k| successes[k].0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PlatformKind;
    use argo_core::SchedulerKind;
    use argo_ir::parse::parse_program;
    use argo_search::Genetic;

    const MAP_REDUCE: &str = r#"
        real main(real a[64], real b[64]) {
            real s; int i;
            s = 0.0;
            for (i = 0; i < 64; i = i + 1) {
                b[i] = sqrt(a[i]) * 2.0 + sin(a[i]);
            }
            for (i = 0; i < 64; i = i + 1) { s = s + b[i]; }
            return s;
        }
    "#;

    fn tiny_explorer() -> Explorer {
        let mut ex = Explorer::with_threads(4);
        ex.register_program("tiny", parse_program(MAP_REDUCE).unwrap(), "main");
        ex
    }

    fn tiny_space() -> DesignSpace {
        DesignSpace::new()
            .app("tiny")
            .cores(vec![1, 2, 4])
            .schedulers(vec![SchedulerKind::List, SchedulerKind::Anneal])
    }

    #[test]
    fn sweep_produces_ordered_successful_rows_and_front() {
        let ex = tiny_explorer();
        let report = ex.explore(&tiny_space());
        assert_eq!(report.rows.len(), 6);
        assert_eq!(report.failures(), 0);
        assert!(!report.pareto.is_empty());
        // Row order follows the axis order (cores slowest of the two).
        assert_eq!(report.rows[0].point.cores, 1);
        assert_eq!(report.rows[0].point.scheduler, SchedulerKind::List);
        assert_eq!(report.rows[1].point.scheduler, SchedulerKind::Anneal);
        assert_eq!(report.rows[5].point.cores, 4);
        // The timing observer attributed the builds: one frontend per
        // core count, one backend per point.
        assert_eq!(report.timing.frontend.runs, 3);
        assert_eq!(report.timing.backend.runs, 6);
        // … and one verification pass per backend build, all clean.
        assert_eq!(report.timing.verify.runs, 6);
        for (_, m) in report.successes() {
            assert_eq!(m.verify_findings, 0);
        }
        assert!(report.search.is_none());
    }

    #[test]
    fn scheduler_axis_shares_both_artifact_tiers() {
        let ex = tiny_explorer();
        ex.explore(
            &DesignSpace::new()
                .app("tiny")
                .cores(vec![2])
                .schedulers(SchedulerKind::ALL.to_vec()),
        );
        let s = ex.cache_stats();
        // One frontend and one cost table, shared across 3 schedulers.
        assert_eq!(s.frontend_misses, 1);
        assert_eq!(s.frontend_hits, 2);
        assert_eq!(s.cost_misses, 1);
        assert_eq!(s.cost_hits, 2);
    }

    #[test]
    fn evaluate_point_matches_explore_rows() {
        let ex = tiny_explorer();
        let space = tiny_space();
        let report = ex.explore(&space);
        for (row, point) in report.rows.iter().zip(space.points()) {
            let single = ex.evaluate_point(point, &space);
            assert_eq!(&single, row, "single-point API must agree with sweeps");
        }
    }

    #[test]
    fn unknown_app_yields_error_rows_not_panics() {
        let ex = Explorer::with_threads(2);
        let report = ex.explore(&DesignSpace::new().app("nope"));
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.failures(), 1);
        assert!(report.pareto.is_empty());
        let err = report.rows[0].outcome.as_ref().unwrap_err();
        assert_eq!(err.code, argo_core::ErrorCode::UnknownProgram);
        assert_eq!(err.entity.as_deref(), Some("nope"));
        assert!(err.message.contains("unknown use case"));
        assert_eq!(
            report.failure_classes(),
            vec![("frontend/unknown-program".to_string(), 1)]
        );
    }

    /// Panic isolation: an injected chaos panic inside the store
    /// backend surfaces as one transient `internal-error` row; the
    /// sweep and the process survive, and nothing poisonous is
    /// archived — a later evaluation over a healthy backend succeeds.
    #[test]
    fn panicking_point_becomes_an_internal_error_row_and_is_not_archived() {
        use argo_chaos::{ChaosIo, FaultPlan};
        let dir = std::env::temp_dir().join(format!("argo-dse-chaos-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let space = tiny_space();
        {
            let plan = FaultPlan {
                panic: 1000,
                ..FaultPlan::quiet(5)
            };
            let store = Arc::new(Store::open_with_io(&dir, Arc::new(ChaosIo::new(plan))).unwrap());
            let mut ex = Explorer::with_threads(2);
            ex.register_program("tiny", parse_program(MAP_REDUCE).unwrap(), "main");
            let ex = ex.with_store(store);
            let report = ex.explore(&space);
            assert_eq!(report.rows.len(), 6, "the sweep completed");
            assert_eq!(report.failures(), 6, "every point hit the panic");
            for row in &report.rows {
                let err = row.outcome.as_ref().unwrap_err();
                assert_eq!(err.code, argo_core::ErrorCode::InternalError);
                assert!(err.message.contains("panicked"), "{}", err.message);
                assert!(
                    err.message.contains("chaos: injected panic"),
                    "the row carries the panic's own text: {}",
                    err.message
                );
            }
        }
        // Same store dir, healthy backend: had the panic rows been
        // archived, these would replay internal-error; instead every
        // point evaluates cleanly.
        let store = Arc::new(Store::open(&dir).unwrap());
        let mut ex = Explorer::with_threads(2);
        ex.register_program("tiny", parse_program(MAP_REDUCE).unwrap(), "main");
        let ex = ex.with_store(store);
        let report = ex.explore(&space);
        assert_eq!(report.failures(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A deadline tripping at a stage boundary yields a transient
    /// `deadline-exceeded` row, and neither the point archive nor the
    /// in-memory tiers replay it once the pressure is gone.
    #[test]
    fn deadline_exceeded_rows_are_transient_not_cached() {
        use argo_core::CancelToken;

        let dir = std::env::temp_dir().join(format!("argo-dse-deadline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let mut ex = Explorer::with_threads(1);
        ex.register_program("tiny", parse_program(MAP_REDUCE).unwrap(), "main");
        let ex = ex.with_store(store);
        let space = tiny_space();
        let point = space.points().remove(0);

        let token = CancelToken::new();
        token.cancel();
        let row = ex.evaluate_point_observed(point.clone(), &space, &token);
        let err = row.outcome.unwrap_err();
        assert_eq!(err.code, argo_core::ErrorCode::DeadlineExceeded);

        // Without the deadline the same point now evaluates for real.
        let row = ex.evaluate_point(point, &space);
        assert!(row.outcome.is_ok(), "{:?}", row.outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let space = tiny_space();
        let csv: Vec<String> = [1, 2, 8]
            .iter()
            .map(|&t| {
                let mut ex = Explorer::with_threads(t);
                ex.register_program("tiny", parse_program(MAP_REDUCE).unwrap(), "main");
                ex.explore(&space).to_csv()
            })
            .collect();
        assert_eq!(csv[0], csv[1]);
        assert_eq!(csv[1], csv[2]);
    }

    #[test]
    fn noc_points_compile_too() {
        let ex = tiny_explorer();
        let report = ex.explore(
            &DesignSpace::new()
                .app("tiny")
                .platforms(vec![PlatformKind::Noc])
                .cores(vec![4]),
        );
        assert_eq!(report.failures(), 0);
        let m = report.rows[0].outcome.as_ref().unwrap();
        assert!(m.par_bound > 0);
    }

    #[test]
    fn searched_sweep_stays_within_budget_and_reports_metadata() {
        let ex = tiny_explorer();
        let space = tiny_space()
            .granularities(vec![
                argo_htg::Granularity::Loop,
                argo_htg::Granularity::Block,
            ])
            .chunking(vec![true, false]);
        assert_eq!(space.len(), 24);
        let report = ex.search(&space, &Genetic::new(), Budget::evaluations(12));
        let info = report.search.as_ref().expect("search metadata");
        assert_eq!(info.strategy, "ga");
        assert_eq!(info.lattice_points, 24);
        assert!(info.evaluated <= 12);
        assert_eq!(report.rows.len(), info.evaluated);
        assert!(!report.pareto.is_empty());
        // Rows arrive in lattice order: strictly increasing point labels
        // under the DesignSpace enumeration.
        let all_points = space.points();
        let mut cursor = 0;
        for row in &report.rows {
            let pos = all_points[cursor..]
                .iter()
                .position(|p| *p == row.point)
                .expect("row must be a lattice point, in order");
            cursor += pos + 1;
        }
    }
}
