//! The typed stage artifacts of the toolflow pipeline and the common
//! [`Artifact`] trait.
//!
//! Each pipeline stage yields one artifact:
//!
//! | stage                              | artifact           |
//! |------------------------------------|--------------------|
//! | [`Stage::Frontend`]   | [`FrontendArtifact`] |
//! | [`Stage::SeedCosts`]  | [`CostTable`]        |
//! | [`Stage::Backend`]    | [`BackendResult`]    |
//!
//! The frontend artifact is the one owner of the transformed program,
//! its resolution, its loop bounds and its HTG, each behind an `Arc`:
//! cloning it bumps reference counts, and the backend result's
//! [`ParallelProgram`] shares the same program, resolution and HTG
//! instead of copying them.
//!
//! All three implement [`Artifact`], whose `fingerprint()` is the
//! canonical content hash caches key on (see [`crate::fingerprint`]).
//!
//! [`Stage::Frontend`]: crate::Stage::Frontend
//! [`Stage::SeedCosts`]: crate::Stage::SeedCosts
//! [`Stage::Backend`]: crate::Stage::Backend

use crate::fingerprint::{Fingerprint, FingerprintHasher, Fingerprintable};
use argo_htg::{Htg, TaskId};
use argo_ir::ast::Program;
use argo_ir::resolve::Resolution;
use argo_parir::ParallelProgram;
use argo_wcet::system::SystemWcet;
use argo_wcet::value::LoopBounds;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A typed pipeline artifact with a canonical content fingerprint.
pub trait Artifact {
    /// Canonical content hash: equal contents hash equal across
    /// processes and runs.
    fn fingerprint(&self) -> Fingerprint;

    /// Short human-readable description for observer summaries.
    fn summary(&self) -> String;
}

/// The reusable result of the program-side compilation stages: the
/// transformed program, its loop bounds and the HTG with each task's
/// worst-case access counts.
///
/// Two sessions that share `(program, entry, granularity, chunking,
/// core count, value context)` produce *identical* frontend artifacts
/// regardless of platform, scheduler or memory configuration — which is
/// what makes them cacheable across a design-space sweep (see the
/// `argo-dse` crate and [`crate::Toolflow::frontend_fingerprint`]).
/// Every part sits behind an `Arc`, so a clone shares them.
#[derive(Debug, Clone)]
pub struct FrontendArtifact {
    /// The program after predictability transformations.
    pub program: Arc<Program>,
    /// The slot resolution of the transformed program: interned
    /// symbols, per-function frame layouts and the resolved statement
    /// mirror. Computed once per frontend run; the frontend's value
    /// analysis reads it, and [`Artifact::fingerprint`] hashes it. The
    /// backend's [`ParallelProgram`] shares it, so the simulator's
    /// interpreter and `argo-verify`'s lint read it too instead of
    /// resolving the program again.
    pub resolution: Arc<Resolution>,
    /// Loop bounds from the value analysis.
    pub bounds: Arc<LoopBounds>,
    /// The extracted HTG. Extraction counts each task's worst-case
    /// accesses under `bounds` as it creates the task, so every task
    /// carries its `access_counts`.
    pub htg: Arc<Htg>,
}

impl Fingerprintable for Htg {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("htg").write_str(&self.function);
        h.write_u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.write_u64(t.id.0 as u64).write_str(&t.name);
            h.write_u64(t.stmts.len() as u64);
            for s in &t.stmts {
                h.write_u64(s.0 as u64);
            }
            h.write_u64(t.access_counts.len() as u64);
            for (var, n) in &t.access_counts {
                h.write_str(var).write_u64(*n);
            }
        }
        h.write_u64(self.edges.len() as u64);
        for e in &self.edges {
            h.write_u64(e.from.0 as u64)
                .write_u64(e.to.0 as u64)
                .write_u64(e.bytes)
                .write_bool(e.ordering_only);
        }
        h.write_u64(self.top_level.len() as u64);
        for t in &self.top_level {
            h.write_u64(t.0 as u64);
        }
        h.write_u64(self.privatizable.len() as u64);
        for v in &self.privatizable {
            h.write_str(v);
        }
    }
}

impl Artifact for FrontendArtifact {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str("frontend-artifact");
        h.write_str(&argo_ir::printer::print_program(&self.program));
        self.resolution.feed(&mut h);
        h.write_u64(self.bounds.len() as u64);
        for (sid, bound) in self.bounds.iter() {
            h.write_u64(sid.0 as u64).write_u64(*bound);
        }
        self.htg.feed(&mut h);
        h.finish()
    }

    fn summary(&self) -> String {
        format!(
            "{} tasks ({} top-level), {} bounded loops",
            self.htg.len(),
            self.htg.top_level.len(),
            self.bounds.len()
        )
    }
}

/// Per-task isolated code-level WCETs, keyed by HTG task id — the
/// seed-costs stage artifact (feedback round 0, all-shared placement).
///
/// Dereferences to the underlying `BTreeMap<TaskId, u64>`, so map
/// iteration and lookups work unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostTable {
    costs: BTreeMap<TaskId, u64>,
}

impl CostTable {
    /// Empty table.
    pub fn new() -> CostTable {
        CostTable::default()
    }
}

impl From<BTreeMap<TaskId, u64>> for CostTable {
    fn from(costs: BTreeMap<TaskId, u64>) -> CostTable {
        CostTable { costs }
    }
}

impl std::ops::Deref for CostTable {
    type Target = BTreeMap<TaskId, u64>;

    fn deref(&self) -> &BTreeMap<TaskId, u64> {
        &self.costs
    }
}

impl std::ops::DerefMut for CostTable {
    fn deref_mut(&mut self) -> &mut BTreeMap<TaskId, u64> {
        &mut self.costs
    }
}

impl Artifact for CostTable {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str("cost-table");
        h.write_u64(self.costs.len() as u64);
        for (tid, w) in &self.costs {
            h.write_u64(tid.0 as u64).write_u64(*w);
        }
        h.finish()
    }

    fn summary(&self) -> String {
        format!(
            "{} task WCETs, total {} cycles",
            self.costs.len(),
            self.costs.values().sum::<u64>()
        )
    }
}

/// Everything the backend produced for one program/platform pair — the
/// final pipeline artifact. The program, its resolution and the HTG
/// are those of [`ParallelProgram`], and the final round's isolated task WCETs are
/// `system.iso_wcet`.
#[derive(Debug, Clone)]
pub struct BackendResult {
    /// The explicitly parallel program (schedule, plans, memory map).
    pub parallel: ParallelProgram,
    /// System-level WCET analysis result; `system.bound` is the headline
    /// guaranteed parallel WCET.
    pub system: SystemWcet,
    /// WCET bound of the same task set executed sequentially on one core
    /// (with the same memory map) — the speedup baseline.
    pub sequential_bound: u64,
    /// Per-task worst-case shared-access counts.
    pub shared_accesses: Vec<u64>,
    /// Feedback iterations actually performed.
    pub feedback_iterations: u32,
}

impl BackendResult {
    /// Guaranteed WCET speedup of the parallel version over sequential
    /// execution (values < 1 mean parallelization did not pay off).
    pub fn wcet_speedup(&self) -> f64 {
        self.sequential_bound as f64 / self.system.bound.max(1) as f64
    }

    /// Human-readable summary report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ARGO tool-chain report — entry `{}`",
            self.parallel.entry()
        );
        let _ = writeln!(
            s,
            "  tasks: {}   signals: {}   feedback iterations: {}",
            self.parallel.graph.len(),
            self.parallel.sync_count(),
            self.feedback_iterations
        );
        let _ = writeln!(
            s,
            "  sequential WCET bound: {:>12} cycles",
            self.sequential_bound
        );
        let _ = writeln!(
            s,
            "  parallel   WCET bound: {:>12} cycles",
            self.system.bound
        );
        let _ = writeln!(s, "  guaranteed speedup:    {:>12.2}x", self.wcet_speedup());
        let _ = writeln!(s, "  per-task (iso → inflated, contenders):");
        for t in 0..self.parallel.graph.len() {
            let _ = writeln!(
                s,
                "    {:<24} core{} {:>9} → {:>9}  k={}",
                self.parallel.graph.names[t],
                self.parallel.schedule.assignment[t].0,
                self.system.iso_wcet[t],
                self.system.task_wcet[t],
                self.system.contenders[t],
            );
        }
        s
    }
}

impl Artifact for BackendResult {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str("backend-result");
        h.write_str(self.parallel.entry());
        h.write_u64(self.system.bound)
            .write_u64(self.sequential_bound)
            .write_u64(self.feedback_iterations as u64);
        // `system.iso_wcet` fills two slots: the first keeps the layout,
        // and so the values, of fingerprints that clients and stores
        // have already recorded.
        for series in [
            &self.system.iso_wcet,
            &self.shared_accesses,
            &self.system.iso_wcet,
            &self.system.task_wcet,
        ] {
            h.write_u64(series.len() as u64);
            for v in series {
                h.write_u64(*v);
            }
        }
        h.write_u64(self.system.contenders.len() as u64);
        for k in &self.system.contenders {
            h.write_u64(*k as u64);
        }
        h.write_u64(self.parallel.schedule.assignment.len() as u64);
        for c in &self.parallel.schedule.assignment {
            h.write_u64(c.0 as u64);
        }
        h.finish()
    }

    fn summary(&self) -> String {
        format!(
            "{} tasks, bound {} (seq {}), speedup {:.2}x, {} feedback rounds",
            self.parallel.graph.len(),
            self.system.bound,
            self.sequential_bound,
            self.wcet_speedup(),
            self.feedback_iterations
        )
    }
}
