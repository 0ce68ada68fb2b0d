//! # argo-bench — experiment drivers for the evaluation suite
//!
//! One driver per experiment (E1–E9). Each driver returns the table
//! text it prints, so the binaries (`src/bin/eN_*.rs`) and the unit
//! tests below run the exact same code paths. The daemon drivers
//! `e10_serve` and `e13_chaos` share [`replay_requests`] and
//! [`PassReport`].
//!
//! The source paper (DATE 2017 project overview) contains a single figure
//! — the tool-flow diagram — and no quantitative tables; the experiments
//! quantify each claim of §§ I–III instead.
//!
//! Performance is measured by the `perfbench` benchmark at the
//! repository root, not here: these drivers assert invariants and print
//! tables.

use argo_adl::{Arbitration, CacheConfig, Platform};
use argo_core::{CollectingObserver, SchedulerKind, Stage, ToolchainConfig, Toolflow};
use argo_htg::Granularity;
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{SchedCtx, Scheduler};
use argo_sim::{simulate, SimConfig, SimMode};
use argo_wcet::system::MhpMode;
use std::fmt::Write as _;

/// E1 (Fig. 1): the complete tool flow on all three use cases.
///
/// Driven through observed [`Toolflow`] sessions: the trailing line
/// counts the paired stage events the driver emitted, pinning the
/// observability contract into the experiment table (deterministic —
/// no wall-clock values reach stdout).
pub fn e1_toolflow() -> String {
    let mut out = String::from(
        "E1 (Fig.1) end-to-end tool flow — 4-core WRR bus\n\
         use-case     tasks  signals  seq-WCET   par-WCET  speedup  observed  sound\n",
    );
    let platform = Platform::xentium_manycore(4);
    let obs = CollectingObserver::new();
    for uc in argo_apps::all_use_cases(42) {
        let r = Toolflow::new(uc.program.clone(), uc.entry)
            .platform(&platform)
            .observer(&obs)
            .run()
            .expect("compile");
        let sim = simulate(
            &r.parallel,
            &platform,
            uc.args.clone(),
            &SimConfig::default(),
        )
        .expect("simulate");
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>8} {:>9} {:>10} {:>7.2}x {:>9}  {}",
            uc.name,
            r.parallel.graph.len(),
            r.parallel.sync_count(),
            r.sequential_bound,
            r.system.bound,
            r.wcet_speedup(),
            sim.cycles,
            if sim.cycles <= r.system.bound {
                "yes"
            } else {
                "NO!"
            },
        );
    }
    assert!(obs.well_nested(), "stage events must be well-nested");
    let _ = writeln!(
        out,
        "(toolflow stages observed: {} frontend / {} backend pairs, {} feedback rounds)",
        obs.finished_count(Stage::Frontend),
        obs.finished_count(Stage::Backend),
        obs.feedback_rounds().len(),
    );
    out
}

/// E2: guaranteed WCET speedup vs core count, per use case.
pub fn e2_wcet_speedup(core_counts: &[usize]) -> String {
    let mut out = String::from("E2 guaranteed WCET speedup vs cores (WRR bus)\nuse-case    ");
    for &c in core_counts {
        let _ = write!(out, "{c:>8}c");
    }
    out.push('\n');
    for uc in argo_apps::all_use_cases(42) {
        let _ = write!(out, "{:<12}", uc.name);
        for &cores in core_counts {
            let platform = Platform::xentium_manycore(cores);
            let r = Toolflow::new(uc.program.clone(), uc.entry)
                .platform(&platform)
                .run()
                .expect("compile");
            let _ = write!(out, "{:>8.2}x", r.wcet_speedup());
        }
        out.push('\n');
    }
    out
}

/// E3: bound tightness per MHP mode vs simulator observation.
///
/// Two workloads: POLKA (fully parallel chunks — all modes coincide, the
/// contention is real) and a pipelined two-chain program where only the
/// schedule proves that at most two tasks overlap — there the MHP
/// precision ladder separates.
pub fn e3_tightness() -> String {
    let mut out = String::from(
        "E3 system-level WCET bound per MHP precision (4-core WRR)\n\
         workload   mhp-mode     bound      observed  bound/observed\n",
    );
    let platform = Platform::xentium_manycore(4);
    let polka = argo_apps::use_case("polka", 42).expect("polka is a built-in use case");
    let pipe_src = r#"
        void main(real a[256], real b[256], real c[256], real d[256], real e[256]) {
            int i;
            for (i = 1; i < 256; i = i + 1) { b[i] = b[i-1] * 0.5 + a[i]; }
            for (i = 1; i < 256; i = i + 1) { c[i] = c[i-1] * 0.25 + b[i]; }
            for (i = 1; i < 256; i = i + 1) { d[i] = d[i-1] * 0.5 + a[i] * 2.0; }
            for (i = 1; i < 256; i = i + 1) { e[i] = e[i-1] * 0.25 + d[i]; }
        }
    "#;
    let pipe_program = argo_ir::parse::parse_program(pipe_src).expect("pipe source");
    let pipe_args: Vec<argo_ir::interp::ArgVal> = (0..5)
        .map(|_| {
            argo_ir::interp::ArgVal::Array(argo_ir::interp::ArrayData::from_reals(&[1.0; 256]))
        })
        .collect();
    let workloads: Vec<(&str, &argo_ir::Program, &str, Vec<argo_ir::interp::ArgVal>)> = vec![
        ("polka", &polka.program, polka.entry, polka.args.clone()),
        ("pipelines", &pipe_program, "main", pipe_args),
    ];
    for (wname, program, entry, args) in workloads {
        for mhp in MhpMode::ALL {
            let cfg = ToolchainConfig {
                mhp,
                ..Default::default()
            };
            let r = Toolflow::new(program.clone(), entry)
                .platform(&platform)
                .config(cfg)
                .run()
                .expect("compile");
            let sim = simulate(&r.parallel, &platform, args.clone(), &SimConfig::default())
                .expect("simulate");
            let _ = writeln!(
                out,
                "{wname:<10} {:<12} {:>9} {:>12} {:>13.2}x",
                mhp.to_string(),
                r.system.bound,
                sim.cycles,
                r.system.bound as f64 / sim.cycles.max(1) as f64
            );
        }
    }
    out.push_str("(window MHP requires time-triggered dispatch; static is the sound default)\n");
    out
}

/// E4: scheduler ablation on random layered DAGs — makespan and runtime.
///
/// Runs on the `argo-dse` parallel executor: each DAG size is an
/// independent job, evaluated in parallel with deterministic row order.
pub fn e4_sched_ablation(sizes: &[usize]) -> String {
    let mut out = String::from(
        "E4 scheduler ablation (random layered DAGs, 4 cores, mean of 5 seeds)\n\
         tasks   list-ms   bnb-ms    sa-ms   bnb/list  sa/list   bnb-nodes  proven\n",
    );
    let platform = Platform::xentium_manycore(4);
    let ctx = SchedCtx::new(&platform);
    let rows = argo_dse::executor::parallel_map(
        sizes.to_vec(),
        argo_dse::executor::default_threads(),
        &|_idx, n| {
            let params = RandomGraphParams {
                tasks: n,
                ..Default::default()
            };
            let (mut l, mut b, mut s, mut nodes, mut proven) = (0f64, 0f64, 0f64, 0u64, 0u64);
            const SEEDS: u64 = 5;
            for seed in 0..SEEDS {
                let g = random_task_graph(seed, &params);
                l += ListScheduler::new().schedule(&g, &ctx).makespan() as f64;
                let exact = BranchAndBound::new().schedule_counted(&g, &ctx);
                b += exact.schedule.makespan() as f64;
                nodes += exact.expanded;
                proven += u64::from(exact.proven_optimal);
                s += SimulatedAnnealing::with_seed(seed)
                    .schedule(&g, &ctx)
                    .makespan() as f64;
            }
            let (l, b, s) = (l / SEEDS as f64, b / SEEDS as f64, s / SEEDS as f64);
            format!(
                "{n:>5} {l:>9.0} {b:>8.0} {s:>8.0} {:>9.3} {:>8.3} {:>11} {:>5}/{SEEDS}\n",
                b / l,
                s / l,
                nodes / SEEDS,
                proven
            )
        },
    );
    for row in rows {
        out.push_str(&row);
    }
    out
}

/// E5: WCET-directed scratchpad allocation — bound vs SPM capacity.
///
/// Runs as an `argo-dse` design-space sweep along the SPM axis (EGPWS,
/// one core); capacities sharing the frontend artifact hit the cache.
pub fn e5_spm(capacities: &[u64]) -> String {
    let mut out = String::from(
        "E5 scratchpad allocation (EGPWS, 1 core: all arrays single-core)\n\
         spm-bytes   seq-WCET-bound   vs-no-spm\n",
    );
    let space = argo_dse::DesignSpace::new()
        .app("egpws")
        .cores(vec![1])
        .spm_capacities(capacities.iter().map(|&c| Some(c)).collect());
    let report = argo_dse::Explorer::new().explore(&space);
    // Baseline for the ratio column: the no-SPM row wherever it appears
    // in the list, else the first row (the binary accepts arbitrary
    // capacity lists, so 0 is not guaranteed to lead).
    let bound_of = |row: &argo_dse::ReportRow| row.outcome.as_ref().expect("compile").par_bound;
    let base = report
        .rows
        .iter()
        .find(|r| r.point.spm_bytes == Some(0))
        .or_else(|| report.rows.first())
        .map(&bound_of)
        .unwrap_or(0);
    for row in &report.rows {
        let cap = row.point.spm_bytes.expect("explicit capacity axis");
        let bound = bound_of(row);
        let _ = writeln!(
            out,
            "{cap:>9} {:>16} {:>10.2}x",
            bound,
            base as f64 / bound.max(1) as f64
        );
    }
    out
}

/// E6: architecture-predictability ablation (§ III-B guidelines).
pub fn e6_arch_predictability() -> String {
    let mut out = String::from(
        "E6 architecture predictability (POLKA, 4 cores): bound and tightness\n\
         variant            bound      observed  bound/obs\n",
    );
    let uc = argo_apps::use_case("polka", 42).expect("polka is a built-in use case");
    let variants: Vec<(String, Platform)> = vec![
        ("wrr-spm".into(), Platform::xentium_manycore(4)),
        (
            "tdma-spm".into(),
            Platform::generic_bus(
                4,
                Arbitration::Tdma {
                    slot_cycles: 12,
                    total_slots: 4,
                },
            ),
        ),
        (
            "fixedprio-spm".into(),
            Platform::generic_bus(
                4,
                Arbitration::FixedPriority {
                    priorities: vec![0, 1, 2, 3],
                },
            ),
        ),
        (
            "wrr-cache".into(),
            Platform::xentium_manycore(4).with_caches(CacheConfig::small()),
        ),
    ];
    for (name, platform) in variants {
        let r = Toolflow::new(uc.program.clone(), uc.entry)
            .platform(&platform)
            .run()
            .expect("compile");
        let sim = simulate(
            &r.parallel,
            &platform,
            uc.args.clone(),
            &SimConfig::default(),
        )
        .expect("simulate");
        let _ = writeln!(
            out,
            "{name:<18} {:>9} {:>12} {:>9.2}x",
            r.system.bound,
            sim.cycles,
            r.system.bound as f64 / sim.cycles.max(1) as f64
        );
    }
    out
}

/// E7: task-granularity sweep (§ III-C trade-off).
///
/// Runs as an `argo-dse` design-space sweep along the granularity axis
/// (WEAA, 4 cores), with the three granularities explored in parallel.
pub fn e7_granularity() -> String {
    let mut out = String::from(
        "E7 granularity sweep (WEAA, 4 cores)\n\
         granularity  tasks  signals  par-WCET   speedup\n",
    );
    let space = argo_dse::DesignSpace::new()
        .app("weaa")
        .cores(vec![4])
        .granularities(Granularity::ALL.to_vec());
    let report = argo_dse::Explorer::new().explore(&space);
    for row in &report.rows {
        let m = row.outcome.as_ref().expect("compile");
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>8} {:>9} {:>8.2}x",
            row.point.granularity.label(),
            m.tasks,
            m.signals,
            m.par_bound,
            m.speedup
        );
    }
    out
}

/// E8: ARGO schedule-aware bound vs manual fork-join (parMERASA, ref \[4\]).
///
/// ARGO uses the window-MHP bound — legitimate because the generated
/// schedule is enforced time-triggered; the manual version has no
/// schedule knowledge, so every access is all-contend and every level
/// pays a barrier. This is precisely the asymmetry ref \[4\] observed.
pub fn e8_parmerasa() -> String {
    let mut out = String::from(
        "E8 manual fork-join vs ARGO schedule-aware WCET (4-core WRR)\n\
         use-case     manual-bound  argo-bound  pessimism\n",
    );
    let platform = Platform::xentium_manycore(4);
    let cfg = ToolchainConfig {
        mhp: MhpMode::Windows,
        ..Default::default()
    };
    for uc in argo_apps::all_use_cases(42) {
        let r = Toolflow::new(uc.program.clone(), uc.entry)
            .platform(&platform)
            .config(cfg.clone())
            .run()
            .expect("compile");
        let manual = argo_wcet::system::manual_fork_join_bound(
            &r.parallel.graph,
            &platform,
            &r.system.iso_wcet,
            &r.shared_accesses,
        );
        let _ = writeln!(
            out,
            "{:<12} {:>13} {:>11} {:>9.2}x",
            uc.name,
            manual,
            r.system.bound,
            manual as f64 / r.system.bound.max(1) as f64
        );
    }
    // Pipelined synthetic program: two independent 2-stage chains of
    // *sequential* (non-chunkable) filters. The schedule proves that at
    // most two tasks overlap (k=2); the manual analysis must assume all
    // cores contend (k=4) — where schedule knowledge really pays.
    let src = r#"
        void main(real a[256], real b[256], real c[256], real d[256], real e[256]) {
            int i;
            for (i = 1; i < 256; i = i + 1) { b[i] = b[i-1] * 0.5 + a[i]; }
            for (i = 1; i < 256; i = i + 1) { c[i] = c[i-1] * 0.25 + b[i]; }
            for (i = 1; i < 256; i = i + 1) { d[i] = d[i-1] * 0.5 + a[i] * 2.0; }
            for (i = 1; i < 256; i = i + 1) { e[i] = e[i-1] * 0.25 + d[i]; }
        }
    "#;
    let program = argo_ir::parse::parse_program(src).expect("pipeline source");
    let r = Toolflow::new(program, "main")
        .platform(&platform)
        .config(cfg)
        .run()
        .expect("compile");
    let manual = argo_wcet::system::manual_fork_join_bound(
        &r.parallel.graph,
        &platform,
        &r.system.iso_wcet,
        &r.shared_accesses,
    );
    let _ = writeln!(
        out,
        "{:<12} {:>13} {:>11} {:>9.2}x",
        "pipelines",
        manual,
        r.system.bound,
        manual as f64 / r.system.bound.max(1) as f64
    );
    out
}

/// E2 auxiliary: average-vs-worst-case gap per use case (motivates the
/// WCET "tightness" discussion of § I).
pub fn e2b_wcet_gap() -> String {
    let mut out = String::from(
        "E2b bound vs average observed (4-core WRR)\n\
         use-case     bound     avg-observed  gap\n",
    );
    let platform = Platform::xentium_manycore(4);
    for uc in argo_apps::all_use_cases(42) {
        let r = Toolflow::new(uc.program.clone(), uc.entry)
            .platform(&platform)
            .run()
            .expect("compile");
        let avg = simulate(
            &r.parallel,
            &platform,
            uc.args.clone(),
            &SimConfig {
                mode: SimMode::Random { seed: 9 },
            },
        )
        .expect("simulate");
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>13} {:>6.2}x",
            uc.name,
            r.system.bound,
            avg.cycles,
            r.system.bound as f64 / avg.cycles.max(1) as f64
        );
    }
    out
}

/// E9: search-vs-exhaustive Pareto-front quality on a 512-point lattice
/// (the acceptance-criterion shape).
///
/// Races every `argo-search` strategy (genetic, annealing, successive
/// halving) at a 25% evaluation budget against the exhaustive sweep on
/// one EGPWS design space, reporting how much of the exhaustive front's
/// distinct objective vectors each strategy recovers. All strategies
/// run on one shared [`argo_dse::Explorer`], so artifact-cache reuse
/// mirrors how a designer would actually iterate. The table is
/// deterministic: evaluation counts and recovery are seed-pinned, and
/// no wall-clock values reach stdout.
pub fn e9_search_quality() -> String {
    use argo_dse::{DesignSpace, Explorer, PlatformKind};
    use std::collections::BTreeSet;

    let space = DesignSpace::new()
        .app("egpws")
        .platforms(PlatformKind::ALL.to_vec())
        .cores(vec![1, 2, 4, 6])
        .schedulers(vec![SchedulerKind::List, SchedulerKind::BranchAndBound])
        .granularities(vec![Granularity::Loop, Granularity::Block])
        .chunking(vec![true, false])
        .spm_capacities(vec![
            None,
            Some(512),
            Some(1024),
            Some(2048),
            Some(4096),
            Some(8192),
            Some(12288),
            Some(16384),
        ])
        .seed(7);
    let lattice = space.len();
    let budget = lattice / 4;

    let explorer = Explorer::new();
    let exhaustive = explorer.explore(&space);
    assert_eq!(exhaustive.failures(), 0, "exhaustive sweep must be clean");
    let front: BTreeSet<[u64; 3]> = exhaustive
        .pareto
        .iter()
        .filter_map(|&i| exhaustive.rows[i].objectives())
        .collect();
    assert!(!front.is_empty());

    let mut out = format!(
        "E9 search vs exhaustive front quality (EGPWS, {lattice}-point lattice, \
         budget {budget} = 25%)\n\
         strategy     evals  coverage  front-found  recovery\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>8}% {:>8}/{:<3} {:>8}%",
        "exhaustive",
        lattice,
        100,
        front.len(),
        front.len(),
        100
    );
    for strategy in argo_search::all_strategies() {
        let report = explorer.search(
            &space,
            strategy.as_ref(),
            argo_search::Budget::evaluations(budget),
        );
        let info = report.search.as_ref().expect("search metadata");
        assert!(info.evaluated <= budget, "{} overspent", strategy.name());
        let found: BTreeSet<[u64; 3]> = report
            .pareto
            .iter()
            .filter_map(|&i| report.rows[i].objectives())
            .collect();
        let recovered = front.iter().filter(|v| found.contains(*v)).count();
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>8.0}% {:>8}/{:<3} {:>8.0}%",
            strategy.name(),
            info.evaluated,
            info.coverage() * 100.0,
            recovered,
            front.len(),
            recovered as f64 / front.len() as f64 * 100.0
        );
    }
    out
}

/// Entry point shared by the `eN_*` experiment binaries: runs the driver,
/// prints its table, and converts panics into a nonzero exit with the
/// failure on stderr (experiment drivers assert their own invariants and
/// panic on violation).
pub fn run_binary(
    name: &str,
    table: impl FnOnce() -> String + std::panic::UnwindSafe,
) -> std::process::ExitCode {
    match std::panic::catch_unwind(table) {
        Ok(t) => {
            print!("{t}");
            std::process::ExitCode::SUCCESS
        }
        Err(payload) => {
            let msg = argo_core::diag::panic_message(&*payload);
            eprintln!("{name}: FAILED: {msg}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Parses a comma-separated numeric list CLI argument, falling back to
/// `default` when absent; exits with usage on malformed input.
pub fn parse_list_arg<T>(usage: &str, default: &[T]) -> Vec<T>
where
    T: std::str::FromStr + Copy,
{
    match std::env::args().nth(1) {
        None => default.to_vec(),
        Some(arg) => match arg.split(',').map(str::trim).map(str::parse).collect() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        },
    }
}

/// The D distinct compile requests the `e10_serve` and `e13_chaos`
/// replay traces are built from: one use case, two core counts × two
/// schedulers.
pub fn replay_requests() -> Vec<String> {
    let mut requests = Vec::new();
    for cores in [2usize, 4] {
        for scheduler in ["list", "anneal"] {
            requests.push(format!(
                "{{\"id\": 1, \"kind\": \"compile\", \"app\": \"egpws\", \
                 \"cores\": {cores}, \"scheduler\": \"{scheduler}\"}}"
            ));
        }
    }
    requests
}

/// Latency summary of one request-replay pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassReport {
    /// Requests completed in the pass.
    pub requests: usize,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Median per-request latency.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency.
    pub p99_ns: u64,
}

impl PassReport {
    /// Summarizes per-request `latencies` (sorted in place) of a pass
    /// that took `wall_ns`.
    ///
    /// # Panics
    ///
    /// Panics when `latencies` is empty.
    pub fn of(latencies: &mut [u64], wall_ns: u64) -> PassReport {
        latencies.sort_unstable();
        let n = latencies.len();
        PassReport {
            requests: n,
            wall_ns,
            p50_ns: latencies[n / 2],
            p99_ns: latencies[(n * 99 / 100).min(n - 1)],
        }
    }

    /// Completed requests per second of pass wall time.
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / (self.wall_ns as f64 * 1e-9)
    }

    /// Prints the one-line pass summary to stdout.
    pub fn print(&self, label: &str, detail: &str) {
        println!(
            "{label}: {} requests in {:.1} ms   p50 {:.1} us   p99 {:.1} us   \
             throughput {:.1} req/s   {detail}",
            self.requests,
            self.wall_ns as f64 / 1e6,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.throughput(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_sound_rows_for_all_use_cases() {
        let t = e1_toolflow();
        assert_eq!(t.matches("yes").count(), 3);
        assert!(!t.contains("NO!"));
    }

    #[test]
    fn e3_naive_is_loosest() {
        let t = e3_tightness();
        // The `pipelines` rows separate the MHP precision ladder.
        let bounds: Vec<u64> = t
            .lines()
            .filter(|l| l.starts_with("pipelines"))
            .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
            .collect();
        assert_eq!(bounds.len(), 3);
        assert!(
            bounds[0] > bounds[1],
            "naive must exceed static on pipelines"
        );
        assert!(bounds[1] >= bounds[2]);
    }

    #[test]
    fn e4_exact_never_worse() {
        let t = e4_sched_ablation(&[8]);
        let row = t.lines().nth(2).unwrap();
        let ratio: f64 = row.split_whitespace().nth(4).unwrap().parse().unwrap();
        assert!(ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn e5_dse_rows_match_direct_compile() {
        let caps = [0u64, 16384];
        let table = e5_spm(&caps);
        for (line, &cap) in table.lines().skip(2).zip(&caps) {
            let mut platform = Platform::xentium_manycore(1);
            platform.cores[0].spm_bytes = cap;
            let uc = argo_apps::egpws::use_case(42);
            let direct = Toolflow::new(uc.program.clone(), uc.entry)
                .platform(&platform)
                .run()
                .expect("compile");
            let bound: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert_eq!(bound, direct.system.bound, "capacity {cap}: {line}");
        }
    }

    #[test]
    fn e7_dse_rows_match_direct_compile() {
        let table = e7_granularity();
        let platform = Platform::xentium_manycore(4);
        let uc = argo_apps::weaa::use_case(42);
        for (line, g) in table.lines().skip(2).zip(Granularity::ALL) {
            let cfg = ToolchainConfig {
                granularity: g,
                ..Default::default()
            };
            let direct = Toolflow::new(uc.program.clone(), uc.entry)
                .platform(&platform)
                .config(cfg)
                .run()
                .expect("compile");
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(
                cols[1].parse::<usize>().unwrap(),
                direct.parallel.graph.len(),
                "{line}"
            );
            assert_eq!(
                cols[3].parse::<u64>().unwrap(),
                direct.system.bound,
                "{line}"
            );
        }
    }

    #[test]
    fn e9_races_every_strategy_against_the_exhaustive_sweep() {
        // Shape only: the driver itself asserts budget compliance and a
        // clean exhaustive sweep, and the ≥ 90%-recovery-at-≤ 25%-budget
        // quality bar is pinned (with structured assertions, on the same
        // 512-point space) by tests/search.rs — not re-asserted here by
        // parsing our own table.
        let t = e9_search_quality();
        assert_eq!(t.lines().count(), 6, "header + exhaustive + 3 strategies");
        assert!(t.lines().nth(2).unwrap().starts_with("exhaustive"));
        for name in ["ga", "anneal", "halving"] {
            assert!(
                t.lines().any(|l| l.starts_with(name)),
                "{name} missing from:\n{t}"
            );
        }
    }

    #[test]
    fn e8_manual_is_more_pessimistic() {
        let t = e8_parmerasa();
        let mut ratios = Vec::new();
        for line in t.lines().skip(2) {
            let p: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            // Never meaningfully better than ARGO (display rounding aside)…
            assert!(p >= 0.99, "manual beat ARGO: {line}");
            ratios.push(p);
        }
        // …and clearly worse where parallelism exists.
        assert!(
            ratios.iter().any(|&p| p > 1.2),
            "no pessimism shown: {ratios:?}"
        );
    }
}
