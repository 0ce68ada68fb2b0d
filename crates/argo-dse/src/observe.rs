//! Per-stage wall-time attribution for exploration runs.
//!
//! The [`crate::Explorer`] attaches a [`TimingObserver`] — a
//! [`StageObserver`] — to every point's toolflow session, so a sweep's
//! report can say where its wall time went: frontend builds, seed-cost
//! builds, backend runs. Because the frontend and seed-cost stages only
//! *run* on a cache miss (hits return the shared artifact without
//! touching the session), the per-stage totals double as per-cache-tier
//! build-cost attribution; the third tier's build time (schedule
//! results, charged inside the backend) is measured by the cache itself
//! and reported as [`StageTimings::schedule_builds`].
//!
//! The totals are kept on every run. The session driver's `stage.*`
//! tracer spans time the same stage executions, but they are recorded
//! only while tracing is on (`--trace`), and the `stage wall:` report
//! line, the daemon's `stats` reply and the benchmark's per-stage
//! figures need the totals without it.

use argo_core::{Stage, StageObserver, StageSummary};
use std::sync::atomic::{AtomicU64, Ordering};

/// Accumulated runs and wall time of one stage or cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTiming {
    /// Completed runs (stage executions, or tier builds).
    pub runs: u64,
    /// Total wall time in nanoseconds.
    pub nanos: u64,
}

impl TierTiming {
    /// Total wall time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Wall-time totals of one exploration, per pipeline stage and for the
/// schedule cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Frontend stage executions (= first-tier cache misses).
    pub frontend: TierTiming,
    /// Seed-cost stage executions (= second-tier cache misses).
    pub seed_costs: TierTiming,
    /// Backend stage executions (one per evaluated point).
    pub backend: TierTiming,
    /// Verification runs (one per point that survives the backend).
    pub verify: TierTiming,
    /// Mapping-stage builds charged through the third cache tier
    /// (a subset of the backend time).
    pub schedule_builds: TierTiming,
}

impl StageTimings {
    /// Adds another snapshot's runs and wall time into this one
    /// (`argo-serve` merges each finished request's observer into its
    /// daemon-wide total).
    pub fn merge(&mut self, other: &StageTimings) {
        for (mine, theirs) in [
            (&mut self.frontend, other.frontend),
            (&mut self.seed_costs, other.seed_costs),
            (&mut self.backend, other.backend),
            (&mut self.verify, other.verify),
            (&mut self.schedule_builds, other.schedule_builds),
        ] {
            mine.runs += theirs.runs;
            mine.nanos += theirs.nanos;
        }
    }

    /// Sum over the four pipeline stages (`schedule_builds` is a
    /// subset of the backend and not double-counted).
    pub fn stage_total(&self) -> TierTiming {
        let mut total = TierTiming::default();
        for t in [self.frontend, self.seed_costs, self.backend, self.verify] {
            total.runs += t.runs;
            total.nanos += t.nanos;
        }
        total
    }
}

/// Thread-safe observer summing stage wall time across the concurrent
/// sessions of one sweep. Stage events from different worker threads
/// interleave freely — only per-stage totals are kept, so no nesting
/// assumptions are made.
#[derive(Debug, Default)]
pub struct TimingObserver {
    /// Runs and total nanoseconds per stage, indexed by `Stage as usize`.
    totals: [(AtomicU64, AtomicU64); 4],
}

impl TimingObserver {
    /// Observer with zeroed totals.
    pub fn new() -> TimingObserver {
        TimingObserver::default()
    }

    /// Snapshot of the accumulated totals (the `schedule_builds` tier
    /// is filled in by the explorer from cache counters). A stage's runs
    /// and time are read one after the other, so a snapshot taken while
    /// a stage finishes may count its run but not yet its time.
    pub fn snapshot(&self) -> StageTimings {
        let tier = |stage: Stage| {
            let (runs, nanos) = &self.totals[stage as usize];
            TierTiming {
                runs: runs.load(Ordering::Relaxed),
                nanos: nanos.load(Ordering::Relaxed),
            }
        };
        StageTimings {
            frontend: tier(Stage::Frontend),
            seed_costs: tier(Stage::SeedCosts),
            backend: tier(Stage::Backend),
            verify: tier(Stage::Verify),
            schedule_builds: TierTiming::default(),
        }
    }
}

impl StageObserver for TimingObserver {
    fn on_stage_finish(&self, summary: &StageSummary) {
        let (runs, nanos) = &self.totals[summary.stage as usize];
        runs.fetch_add(1, Ordering::Relaxed);
        nanos.fetch_add(summary.elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_core::Fingerprint;
    use std::time::Duration;

    fn summary(stage: Stage, ms: u64) -> StageSummary {
        StageSummary {
            seq: 0,
            stage,
            fingerprint: Fingerprint(1),
            detail: String::new(),
            elapsed: Duration::from_millis(ms),
        }
    }

    #[test]
    fn totals_accumulate_per_stage() {
        let obs = TimingObserver::new();
        obs.on_stage_finish(&summary(Stage::Frontend, 2));
        obs.on_stage_finish(&summary(Stage::Frontend, 3));
        obs.on_stage_finish(&summary(Stage::Backend, 7));
        let t = obs.snapshot();
        assert_eq!(t.frontend.runs, 2);
        assert!((t.frontend.ms() - 5.0).abs() < 1e-9);
        assert_eq!(t.backend.runs, 1);
        assert_eq!(t.seed_costs, TierTiming::default());
        assert_eq!(t.stage_total().runs, 3);
        assert_eq!(t.stage_total().nanos, 12_000_000);
    }

    #[test]
    fn shared_across_threads() {
        let obs = TimingObserver::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| obs.on_stage_finish(&summary(Stage::SeedCosts, 1)));
            }
        });
        assert_eq!(obs.snapshot().seed_costs.runs, 8);
    }
}
