//! Exploration reports: text tables, CSV and JSON emission.
//!
//! Determinism contract: [`ExplorationReport::to_csv`] contains only
//! values derived from the design space itself (configuration and
//! analysis results), never wall-clock times or cache counters — two runs
//! of the same space produce byte-identical CSV. The text and JSON forms
//! additionally surface timing (total, per stage and per cache tier) and
//! cache statistics for humans/tooling.
//!
//! Failures are structured [`Diagnostic`]s, not rendered strings: rows
//! carry the stage/code/entity triple so sweeps can aggregate failure
//! *classes* (the text report prints one `failures by class:` line, the
//! JSON emits the fields separately), and the CSV renders the canonical
//! `Diagnostic` display form in its `error` column.

use crate::cache::CacheStats;
use crate::observe::{StageTimings, TierTiming};
use crate::pareto::Objectives;
use crate::space::ExplorationPoint;
use argo_core::codec::{Codec, DecodeError, Decoder, Encoder};
use argo_core::Diagnostic;
use argo_search::Budget;
use argo_trace::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Analysis results of one successfully compiled point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Tasks in the parallel program.
    pub tasks: usize,
    /// Synchronization signals in the parallel program.
    pub signals: usize,
    /// Sequential WCET bound (one core, same task set).
    pub seq_bound: u64,
    /// Guaranteed parallel WCET bound.
    pub par_bound: u64,
    /// Guaranteed WCET speedup (`seq_bound / par_bound`).
    pub speedup: f64,
    /// Feedback iterations the backend performed.
    pub feedback_iterations: u32,
    /// Findings the independent verifier reported for this point.
    /// Error-severity findings never reach the metrics — they fail the
    /// row with a `verify/<code>` class — so this counts the warnings
    /// and notes that survived the gate.
    pub verify_findings: usize,
}

impl Codec for PointMetrics {
    fn encode(&self, e: &mut Encoder) {
        self.tasks.encode(e);
        self.signals.encode(e);
        self.seq_bound.encode(e);
        self.par_bound.encode(e);
        self.speedup.encode(e);
        e.u32(self.feedback_iterations);
        self.verify_findings.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<PointMetrics, DecodeError> {
        Ok(PointMetrics {
            tasks: usize::decode(d)?,
            signals: usize::decode(d)?,
            seq_bound: u64::decode(d)?,
            par_bound: u64::decode(d)?,
            speedup: f64::decode(d)?,
            feedback_iterations: d.u32()?,
            verify_findings: usize::decode(d)?,
        })
    }
}

/// A whole per-point outcome as archived in the persistent store's
/// `point` namespace: everything [`crate::Explorer`] needs to replay a
/// row without re-running any pipeline stage. Keyed by the fingerprint
/// of all evaluation inputs (program, entry, platform, toolchain
/// config), so editing any input changes the key and the point is
/// re-evaluated — the store mechanism behind incremental
/// re-exploration. Diagnostics are archived too: a point that failed
/// deterministically will fail identically on replay.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPoint {
    /// Effective per-core SPM capacity, as in [`ReportRow`].
    pub spm_effective: u64,
    /// The archived outcome.
    pub outcome: Result<PointMetrics, Diagnostic>,
}

impl Codec for StoredPoint {
    fn encode(&self, e: &mut Encoder) {
        self.spm_effective.encode(e);
        self.outcome.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<StoredPoint, DecodeError> {
        Ok(StoredPoint {
            spm_effective: u64::decode(d)?,
            outcome: Result::<PointMetrics, Diagnostic>::decode(d)?,
        })
    }
}

/// One row of the sweep: the point plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// The explored configuration.
    pub point: ExplorationPoint,
    /// Effective per-core SPM capacity in bytes (override or platform
    /// default) — the third Pareto objective.
    pub spm_effective: u64,
    /// Metrics, or the structured toolflow diagnostic.
    pub outcome: Result<PointMetrics, Diagnostic>,
}

impl ReportRow {
    /// Objective vector (cores, parallel WCET bound, SPM bytes) for
    /// successful rows.
    pub fn objectives(&self) -> Option<Objectives> {
        self.outcome
            .as_ref()
            .ok()
            .map(|m| [self.point.cores as u64, m.par_bound, self.spm_effective])
    }
}

/// How a report's rows were selected: the search-strategy metadata of a
/// steered exploration ([`crate::Explorer::search`]); `None` on
/// exhaustive sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchInfo {
    /// Strategy label (`ga`, `anneal`, `halving`).
    pub strategy: &'static str,
    /// Search seed (the design space's seed).
    pub seed: u64,
    /// The budget the search ran under.
    pub budget: Budget,
    /// Total points in the design-space lattice.
    pub lattice_points: usize,
    /// Fresh evaluations the strategy spent.
    pub evaluated: usize,
}

impl SearchInfo {
    /// Evaluated fraction of the lattice in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.lattice_points == 0 {
            0.0
        } else {
            self.evaluated as f64 / self.lattice_points as f64
        }
    }
}

/// The full result of one design-space exploration.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// One row per evaluated point, in `DesignSpace::points` order
    /// (searched reports contain only the evaluated subset).
    pub rows: Vec<ReportRow>,
    /// Indices into `rows` of the Pareto-optimal points.
    pub pareto: Vec<usize>,
    /// Artifact-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Wall-clock time of the sweep in milliseconds.
    pub wall_ms: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time per pipeline stage / cache tier for this run.
    pub timing: StageTimings,
    /// Search-strategy metadata (`None` for exhaustive sweeps).
    pub search: Option<SearchInfo>,
}

fn fmt_spm(row: &ReportRow) -> String {
    match row.point.spm_bytes {
        Some(b) => b.to_string(),
        None => format!("{}*", row.spm_effective),
    }
}

fn fmt_tier(t: &TierTiming) -> String {
    format!("{}x/{:.1}ms", t.runs, t.ms())
}

impl ExplorationReport {
    /// Successful rows only: `(row index, metrics)`.
    pub fn successes(&self) -> impl Iterator<Item = (usize, &PointMetrics)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some(i).zip(r.outcome.as_ref().ok()))
    }

    /// Number of failed points.
    pub fn failures(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// Failure counts aggregated by `(stage, code)` class, in
    /// deterministic label order.
    pub fn failure_classes(&self) -> Vec<(String, usize)> {
        let mut classes: BTreeMap<String, usize> = BTreeMap::new();
        for row in &self.rows {
            if let Err(d) = &row.outcome {
                *classes
                    .entry(format!("{}/{}", d.stage.label(), d.code.label()))
                    .or_insert(0) += 1;
            }
        }
        classes.into_iter().collect()
    }

    /// Human-readable table with the Pareto front, timing and cache
    /// statistics.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "argo-dse exploration — {} points, {} threads, {:.0} ms",
            self.rows.len(),
            self.threads,
            self.wall_ms
        );
        if let Some(info) = &self.search {
            let _ = writeln!(
                s,
                "search: {} (seed {}, {}) — evaluated {} of {} lattice points ({:.0}%)",
                info.strategy,
                info.seed,
                info.budget,
                info.evaluated,
                info.lattice_points,
                info.coverage() * 100.0
            );
        }
        let _ = writeln!(
            s,
            "{:<10} {:<4} {:>5} {:<7} {:<6} {:<8} {:>9} {:>12} {:>12} {:>8}  pareto",
            "app",
            "plat",
            "cores",
            "sched",
            "gran",
            "spm-B",
            "tasks",
            "seq-WCET",
            "par-WCET",
            "speedup"
        );
        for (i, row) in self.rows.iter().enumerate() {
            let mark = if self.pareto.contains(&i) { "*" } else { "" };
            match &row.outcome {
                Ok(m) => {
                    let _ = writeln!(
                        s,
                        "{:<10} {:<4} {:>5} {:<7} {:<6} {:<8} {:>9} {:>12} {:>12} {:>7.2}x  {}",
                        row.point.app,
                        row.point.platform.label(),
                        row.point.cores,
                        row.point.scheduler.label(),
                        row.point.granularity.label(),
                        fmt_spm(row),
                        m.tasks,
                        m.seq_bound,
                        m.par_bound,
                        m.speedup,
                        mark,
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        s,
                        "{:<10} {:<4} {:>5} {:<7} {:<6} {:<8} ERROR: {e}",
                        row.point.app,
                        row.point.platform.label(),
                        row.point.cores,
                        row.point.scheduler.label(),
                        row.point.granularity.label(),
                        fmt_spm(row),
                    );
                }
            }
        }
        if self.failures() > 0 {
            let classes: Vec<String> = self
                .failure_classes()
                .into_iter()
                .map(|(class, n)| format!("{class} x{n}"))
                .collect();
            let _ = writeln!(
                s,
                "failures by class ({} total): {}",
                self.failures(),
                classes.join(", ")
            );
        }
        let _ = writeln!(
            s,
            "pareto front ({} of {}): minimize (cores, par-WCET, spm-bytes); * = platform default SPM",
            self.pareto.len(),
            self.rows.len()
        );
        for &i in &self.pareto {
            if let Ok(m) = &self.rows[i].outcome {
                let _ = writeln!(
                    s,
                    "  {} -> par-WCET {} ({:.2}x)",
                    self.rows[i].point.label(),
                    m.par_bound,
                    m.speedup
                );
            }
        }
        let c = &self.cache;
        let _ = writeln!(
            s,
            "cache: frontend {}/{} hits, seed-costs {}/{} hits, schedules {}/{} hits, overall hit rate {:.0}%",
            c.frontend_hits,
            c.frontend_hits + c.frontend_misses,
            c.cost_hits,
            c.cost_hits + c.cost_misses,
            c.sched_hits,
            c.sched_hits + c.sched_misses,
            c.hit_rate() * 100.0
        );
        let _ = writeln!(
            s,
            "store: frontend {}/{} hits, seed-costs {}/{} hits, schedules {}/{} hits, \
             points {}/{} hits, combined hit rate {:.0}%",
            c.frontend_store_hits,
            c.frontend_store_hits + c.frontend_store_misses,
            c.cost_store_hits,
            c.cost_store_hits + c.cost_store_misses,
            c.sched_store_hits,
            c.sched_store_hits + c.sched_store_misses,
            c.point_store_hits,
            c.point_store_hits + c.point_store_misses,
            c.combined_hit_rate() * 100.0
        );
        let t = &self.timing;
        let _ = writeln!(
            s,
            "stage wall: frontend {}, seed-costs {}, backend {}, verify {}; schedule builds {}",
            fmt_tier(&t.frontend),
            fmt_tier(&t.seed_costs),
            fmt_tier(&t.backend),
            fmt_tier(&t.verify),
            fmt_tier(&t.schedule_builds),
        );
        s
    }

    /// CSV (deterministic across runs — no timing or cache columns).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "app,platform,cores,scheduler,granularity,chunk,spm_bytes,\
             tasks,signals,seq_wcet,par_wcet,speedup,feedback_iterations,verify_findings,\
             pareto,error\n",
        );
        for (i, row) in self.rows.iter().enumerate() {
            let p = &row.point;
            let _ = write!(
                s,
                "{},{},{},{},{},{},{},",
                csv_escape(&p.app),
                p.platform.label(),
                p.cores,
                p.scheduler.label(),
                p.granularity.label(),
                p.chunk_loops,
                row.spm_effective,
            );
            match &row.outcome {
                Ok(m) => {
                    let _ = writeln!(
                        s,
                        "{},{},{},{},{:.4},{},{},{},",
                        m.tasks,
                        m.signals,
                        m.seq_bound,
                        m.par_bound,
                        m.speedup,
                        m.feedback_iterations,
                        m.verify_findings,
                        self.pareto.contains(&i),
                    );
                }
                Err(e) => {
                    let _ = writeln!(s, ",,,,,,,false,{}", csv_escape(&e.to_string()));
                }
            }
        }
        s
    }

    /// JSON document with rows, Pareto front, cache stats, per-stage
    /// timing and (for searched reports) the strategy metadata.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let p = &row.point;
            let _ = write!(
                s,
                "    {{\"app\": \"{}\", \"platform\": \"{}\", \"cores\": {}, \"scheduler\": \"{}\", \
                 \"granularity\": \"{}\", \"chunk\": {}, \"spm_bytes\": {}, \"pareto\": {}",
                escape(&p.app),
                p.platform.label(),
                p.cores,
                p.scheduler.label(),
                p.granularity.label(),
                p.chunk_loops,
                row.spm_effective,
                self.pareto.contains(&i),
            );
            match &row.outcome {
                Ok(m) => {
                    let _ = write!(
                        s,
                        ", \"tasks\": {}, \"signals\": {}, \"seq_wcet\": {}, \"par_wcet\": {}, \
                         \"speedup\": {:.4}, \"feedback_iterations\": {}, \"verify_findings\": {}",
                        m.tasks,
                        m.signals,
                        m.seq_bound,
                        m.par_bound,
                        m.speedup,
                        m.feedback_iterations,
                        m.verify_findings
                    );
                }
                Err(e) => {
                    let _ = write!(
                        s,
                        ", \"error\": {{\"stage\": \"{}\", \"code\": \"{}\", \"entity\": {}, \
                         \"message\": \"{}\"}}",
                        e.stage.label(),
                        e.code.label(),
                        match &e.entity {
                            Some(entity) => format!("\"{}\"", escape(entity)),
                            None => "null".to_string(),
                        },
                        escape(&e.message)
                    );
                }
            }
            let _ = writeln!(s, "}}{}", if i + 1 < self.rows.len() { "," } else { "" });
        }
        let c = &self.cache;
        let _ = write!(
            s,
            "  ],\n  \"pareto\": {:?},\n  \"cache\": {{\"frontend_hits\": {}, \"frontend_misses\": {}, \
             \"cost_hits\": {}, \"cost_misses\": {}, \"sched_hits\": {}, \"sched_misses\": {}, \
             \"hit_rate\": {:.4}, \
             \"frontend_store_hits\": {}, \"frontend_store_misses\": {}, \
             \"cost_store_hits\": {}, \"cost_store_misses\": {}, \
             \"sched_store_hits\": {}, \"sched_store_misses\": {}, \
             \"point_store_hits\": {}, \"point_store_misses\": {}, \
             \"combined_hit_rate\": {:.4}}},\n",
            self.pareto,
            c.frontend_hits,
            c.frontend_misses,
            c.cost_hits,
            c.cost_misses,
            c.sched_hits,
            c.sched_misses,
            c.hit_rate(),
            c.frontend_store_hits,
            c.frontend_store_misses,
            c.cost_store_hits,
            c.cost_store_misses,
            c.sched_store_hits,
            c.sched_store_misses,
            c.point_store_hits,
            c.point_store_misses,
            c.combined_hit_rate(),
        );
        let t = &self.timing;
        let _ = writeln!(
            s,
            "  \"timing\": {{\"frontend_runs\": {}, \"frontend_ms\": {:.3}, \
             \"seed_cost_runs\": {}, \"seed_cost_ms\": {:.3}, \
             \"backend_runs\": {}, \"backend_ms\": {:.3}, \
             \"verify_runs\": {}, \"verify_ms\": {:.3}, \
             \"schedule_builds\": {}, \"schedule_build_ms\": {:.3}}},\n",
            t.frontend.runs,
            t.frontend.ms(),
            t.seed_costs.runs,
            t.seed_costs.ms(),
            t.backend.runs,
            t.backend.ms(),
            t.verify.runs,
            t.verify.ms(),
            t.schedule_builds.runs,
            t.schedule_builds.ms(),
        );
        if let Some(info) = &self.search {
            let _ = writeln!(
                s,
                "  \"search\": {{\"strategy\": \"{}\", \"seed\": {}, \"max_evaluations\": {}, \
                 \"stall\": {}, \"lattice_points\": {}, \"evaluated\": {}, \"coverage\": {:.4}}},\n",
                info.strategy,
                info.seed,
                match info.budget.max_evaluations {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                },
                match info.budget.stall {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                },
                info.lattice_points,
                info.evaluated,
                info.coverage(),
            );
        }
        let _ = write!(
            s,
            "  \"threads\": {},\n  \"wall_ms\": {:.1}\n}}\n",
            self.threads, self.wall_ms
        );
        s
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PlatformKind;
    use argo_core::{ErrorCode, SchedulerKind, Stage};
    use argo_htg::Granularity;
    use argo_wcet::system::MhpMode;

    fn sample_report() -> ExplorationReport {
        let point = |cores: usize, sched| ExplorationPoint {
            app: "egpws".into(),
            platform: PlatformKind::Bus,
            cores,
            scheduler: sched,
            granularity: Granularity::Loop,
            chunk_loops: true,
            spm_bytes: Some(4096),
            mhp: MhpMode::Static,
        };
        let metrics = |par: u64| PointMetrics {
            tasks: 5,
            signals: 4,
            seq_bound: 1000,
            par_bound: par,
            speedup: 1000.0 / par as f64,
            feedback_iterations: 2,
            verify_findings: 0,
        };
        ExplorationReport {
            rows: vec![
                ReportRow {
                    point: point(1, SchedulerKind::List),
                    spm_effective: 4096,
                    outcome: Ok(metrics(1000)),
                },
                ReportRow {
                    point: point(4, SchedulerKind::List),
                    spm_effective: 4096,
                    outcome: Ok(metrics(400)),
                },
                ReportRow {
                    point: point(4, SchedulerKind::Anneal),
                    spm_effective: 4096,
                    outcome: Err(Diagnostic::new(
                        Stage::Backend,
                        ErrorCode::ParallelModelFailed,
                        "scheduler exploded",
                    )
                    .with_entity("t3")),
                },
            ],
            pareto: vec![0, 1],
            cache: CacheStats {
                frontend_hits: 2,
                frontend_misses: 1,
                cost_hits: 1,
                cost_misses: 2,
                sched_hits: 3,
                sched_misses: 3,
                sched_build_ns: 1_500_000,
                frontend_store_hits: 1,
                frontend_store_misses: 0,
                cost_store_hits: 0,
                cost_store_misses: 2,
                sched_store_hits: 0,
                sched_store_misses: 3,
                point_store_hits: 2,
                point_store_misses: 1,
            },
            wall_ms: 12.0,
            threads: 4,
            timing: StageTimings {
                frontend: TierTiming {
                    runs: 1,
                    nanos: 2_000_000,
                },
                seed_costs: TierTiming {
                    runs: 2,
                    nanos: 1_000_000,
                },
                backend: TierTiming {
                    runs: 3,
                    nanos: 7_000_000,
                },
                verify: TierTiming {
                    runs: 2,
                    nanos: 500_000,
                },
                schedule_builds: TierTiming {
                    runs: 3,
                    nanos: 1_500_000,
                },
            },
            search: None,
        }
    }

    #[test]
    fn text_report_mentions_everything() {
        let t = sample_report().to_text();
        assert!(t.contains("pareto front (2 of 3)"));
        assert!(t.contains("egpws"));
        assert!(t.contains("ERROR: toolflow error [backend/parallel-model-failed]"));
        assert!(t.contains("scheduler exploded"));
        assert!(t.contains("failures by class (1 total): backend/parallel-model-failed x1"));
        assert!(t.contains("cache: frontend 2/3 hits"));
        assert!(t.contains("schedules 3/6 hits"));
        assert!(t.contains("hit rate 50%"));
        // Persistent-store counters: 6 memory hits + 3 store hits over
        // 12 stage lookups + 3 point-archive lookups = 60% combined.
        assert!(t.contains(
            "store: frontend 1/1 hits, seed-costs 0/2 hits, schedules 0/3 hits, \
             points 2/3 hits, combined hit rate 60%"
        ));
        assert!(t.contains("stage wall: frontend 1x/2.0ms"));
        assert!(t.contains("verify 2x/0.5ms"));
        assert!(t.contains("schedule builds 3x/1.5ms"));
        assert!(
            !t.contains("search:"),
            "exhaustive reports have no search line"
        );
    }

    #[test]
    fn search_line_appears_for_steered_reports() {
        let mut r = sample_report();
        r.search = Some(SearchInfo {
            strategy: "ga",
            seed: 42,
            budget: Budget::evaluations(128).with_stall(32),
            lattice_points: 512,
            evaluated: 128,
        });
        let t = r.to_text();
        assert!(
            t.contains("search: ga (seed 42, max=128 stall=32) — evaluated 128 of 512 lattice points (25%)"),
            "{t}"
        );
        let j = r.to_json();
        assert!(j.contains("\"strategy\": \"ga\""));
        assert!(j.contains("\"max_evaluations\": 128"));
        assert!(j.contains("\"coverage\": 0.2500"));
    }

    #[test]
    fn csv_has_one_line_per_row_plus_header() {
        let r = sample_report();
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("feedback_iterations,verify_findings,pareto,error"));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("egpws,bus,1,list,loop,true,4096,"));
        assert!(csv.contains("scheduler exploded"));
        // No timing / cache / store columns → deterministic: a cold and
        // a warm run over the same space emit byte-identical CSV.
        assert!(!csv.contains("wall"));
        assert!(!csv.contains("store"));
        assert!(!csv.contains("hit"));
    }

    #[test]
    fn json_is_structurally_sane() {
        let j = sample_report().to_json();
        assert!(j.contains("\"pareto\": [0, 1]"));
        assert!(j.contains("\"frontend_hits\": 2"));
        assert!(j.contains("\"sched_hits\": 3"));
        assert!(j.contains("\"frontend_store_hits\": 1"));
        assert!(j.contains("\"cost_store_misses\": 2"));
        assert!(j.contains("\"sched_store_misses\": 3"));
        assert!(j.contains("\"point_store_hits\": 2"));
        assert!(j.contains("\"combined_hit_rate\": 0.6000"));
        assert!(j.contains(
            "\"error\": {\"stage\": \"backend\", \"code\": \"parallel-model-failed\", \
             \"entity\": \"t3\", \"message\": \"scheduler exploded\"}"
        ));
        assert!(j.contains("\"timing\": {\"frontend_runs\": 1"));
        assert!(j.contains("\"verify_runs\": 2"));
        assert!(j.contains("\"verify_findings\": 0"));
        assert_eq!(j.matches("\"app\"").count(), 3);
        // Balanced braces (cheap structural check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_bytes_are_pinned() {
        let expected = r#"{
  "rows": [
    {"app": "egpws", "platform": "bus", "cores": 1, "scheduler": "list", "granularity": "loop", "chunk": true, "spm_bytes": 4096, "pareto": true, "tasks": 5, "signals": 4, "seq_wcet": 1000, "par_wcet": 1000, "speedup": 1.0000, "feedback_iterations": 2, "verify_findings": 0},
    {"app": "egpws", "platform": "bus", "cores": 4, "scheduler": "list", "granularity": "loop", "chunk": true, "spm_bytes": 4096, "pareto": true, "tasks": 5, "signals": 4, "seq_wcet": 1000, "par_wcet": 400, "speedup": 2.5000, "feedback_iterations": 2, "verify_findings": 0},
    {"app": "egpws", "platform": "bus", "cores": 4, "scheduler": "anneal", "granularity": "loop", "chunk": true, "spm_bytes": 4096, "pareto": false, "error": {"stage": "backend", "code": "parallel-model-failed", "entity": "t3", "message": "scheduler exploded"}}
  ],
  "pareto": [0, 1],
  "cache": {"frontend_hits": 2, "frontend_misses": 1, "cost_hits": 1, "cost_misses": 2, "sched_hits": 3, "sched_misses": 3, "hit_rate": 0.5000, "frontend_store_hits": 1, "frontend_store_misses": 0, "cost_store_hits": 0, "cost_store_misses": 2, "sched_store_hits": 0, "sched_store_misses": 3, "point_store_hits": 2, "point_store_misses": 1, "combined_hit_rate": 0.6000},
  "timing": {"frontend_runs": 1, "frontend_ms": 2.000, "seed_cost_runs": 2, "seed_cost_ms": 1.000, "backend_runs": 3, "backend_ms": 7.000, "verify_runs": 2, "verify_ms": 0.500, "schedule_builds": 3, "schedule_build_ms": 1.500},

  "threads": 4,
  "wall_ms": 12.0
}
"#;
        assert_eq!(sample_report().to_json(), expected);

        // Strings that need escaping: app name, entity and message.
        let mut r = sample_report();
        r.rows[2].point.app = "o'brien \"café\"".into();
        r.rows[2].outcome = Err(Diagnostic::new(
            Stage::Backend,
            ErrorCode::ParallelModelFailed,
            "line\none\ttab\\ \u{1}",
        )
        .with_entity("t\"3\""));
        let j = r.to_json();
        let row = j.lines().nth(4).unwrap();
        assert_eq!(
            row,
            r#"    {"app": "o'brien \"café\"", "platform": "bus", "cores": 4, "scheduler": "anneal", "granularity": "loop", "chunk": true, "spm_bytes": 4096, "pareto": false, "error": {"stage": "backend", "code": "parallel-model-failed", "entity": "t\"3\"", "message": "line\none\ttab\\ \u0001"}}"#
        );
    }

    #[test]
    fn stored_point_round_trips_both_outcomes() {
        let ok = StoredPoint {
            spm_effective: 4096,
            outcome: Ok(PointMetrics {
                tasks: 5,
                signals: 4,
                seq_bound: 1000,
                par_bound: 400,
                speedup: 2.5,
                feedback_iterations: 2,
                verify_findings: 1,
            }),
        };
        assert_eq!(StoredPoint::from_bytes(&ok.to_bytes()).unwrap(), ok);
        let err = StoredPoint {
            spm_effective: 0,
            outcome: Err(Diagnostic::new(
                Stage::Backend,
                ErrorCode::ParallelModelFailed,
                "scheduler exploded",
            )
            .with_entity("t3")),
        };
        assert_eq!(StoredPoint::from_bytes(&err.to_bytes()).unwrap(), err);
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
    }
}
