//! Content-hash keyed artifact cache for shared-prefix exploration points.
//!
//! The staged `argo_core` pipeline factors one compile into
//! `frontend → seed_costs → backend`. Only the backend depends on the
//! scheduler and the memory/interference configuration, so a sweep along
//! the scheduler axis (or any axis that leaves program and platform
//! alone) re-derives identical frontends and identical round-0 WCET
//! tables. This cache keys both artifact tiers by the driver's canonical
//! [`Fingerprint`]s — [`argo_core::Toolflow::frontend_fingerprint`] and
//! [`argo_core::Toolflow::seed_cost_fingerprint`] — so *any* two points
//! that would recompute the same artifact share one entry, even across
//! different `DesignSpace`s or repeated runs on one [`crate::Explorer`].
//!
//! ## Persistent backing
//!
//! Fingerprints are API-owned content hashes, stable across processes —
//! which is what lets every tier optionally back onto an on-disk
//! [`Store`] ([`ArtifactCache::set_store`]): a memory miss first reads
//! the store (`frontend` / `seed-costs` / `schedule` namespaces) before
//! building, and a successful build writes through. A fourth,
//! store-only tier (`point` namespace, see [`ArtifactCache::point_get`])
//! archives whole per-point outcomes, so a cold process on an unchanged
//! workspace re-starts at ~100% combined hits without re-running any
//! stage — and after a program or platform edit, only the points whose
//! fingerprints changed are re-evaluated. Failures are cached in memory
//! but never persisted: only the point tier records diagnostics (as
//! part of the point outcome), so a transient environment problem can't
//! poison the store. *Transient* diagnostics
//! ([`argo_core::ErrorCode::is_transient`]: deadlines, caught panics,
//! leader failures) are not even memory-cached — their slot is dropped
//! after the failing build, so the next request re-evaluates instead of
//! replaying an infrastructure failure forever. Store reads validate checksums, schema versions
//! and (for artifact tiers) content fingerprints; anything invalid
//! degrades to a counted miss and the entry is rebuilt.
//!
//! Concurrency: each key maps to an `Arc<OnceLock>` slot; the map lock is
//! held only to find/create the slot, and the (expensive) build — and
//! any store read/write — runs under the slot's own once-initialization,
//! so two workers never build the same artifact twice and distinct keys
//! never serialize each other.

use argo_core::codec::Codec;
use argo_core::{Artifact, CostTable, Diagnostic, Fingerprint, FrontendArtifact, ScheduleCache};
use argo_sched::Schedule;
use argo_store::Store;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Store namespace of the frontend-artifact tier.
pub const NS_FRONTEND: &str = "frontend";
/// Store namespace of the seed-cost tier.
pub const NS_COSTS: &str = "seed-costs";
/// Store namespace of the schedule tier.
pub const NS_SCHEDULE: &str = "schedule";
/// Store namespace of the per-point outcome archive.
pub const NS_POINT: &str = "point";

/// Hit/miss counters for all cache tiers, in-memory and persistent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frontend artifacts served from memory.
    pub frontend_hits: u64,
    /// Frontend artifacts not in memory (store-read or built).
    pub frontend_misses: u64,
    /// Seed-cost tables served from memory.
    pub cost_hits: u64,
    /// Seed-cost tables not in memory (store-read or built).
    pub cost_misses: u64,
    /// Schedules served from memory (third tier, one lookup per backend
    /// feedback round).
    pub sched_hits: u64,
    /// Schedules not in memory (store-read or built).
    pub sched_misses: u64,
    /// Wall time spent building third-tier schedules, in nanoseconds
    /// (store reads are not builds and are not charged here).
    pub sched_build_ns: u64,
    /// Frontend artifacts read back from the persistent store.
    pub frontend_store_hits: u64,
    /// Frontend store lookups that fell through to a build.
    pub frontend_store_misses: u64,
    /// Seed-cost tables read back from the persistent store.
    pub cost_store_hits: u64,
    /// Seed-cost store lookups that fell through to a build.
    pub cost_store_misses: u64,
    /// Schedules read back from the persistent store.
    pub sched_store_hits: u64,
    /// Schedule store lookups that fell through to a build.
    pub sched_store_misses: u64,
    /// Whole point outcomes served from the persistent archive.
    pub point_store_hits: u64,
    /// Point-archive lookups that fell through to a full evaluation.
    pub point_store_misses: u64,
}

impl CacheStats {
    /// Total in-memory hits across the three stage tiers.
    pub fn hits(&self) -> u64 {
        self.frontend_hits + self.cost_hits + self.sched_hits
    }

    /// Total in-memory misses across the three stage tiers.
    pub fn misses(&self) -> u64 {
        self.frontend_misses + self.cost_misses + self.sched_misses
    }

    /// In-memory hit rate in `[0, 1]` (0 when nothing was requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Total persistent-store hits across all four tiers.
    pub fn store_hits(&self) -> u64 {
        self.frontend_store_hits
            + self.cost_store_hits
            + self.sched_store_hits
            + self.point_store_hits
    }

    /// Total persistent-store misses across all four tiers.
    pub fn store_misses(&self) -> u64 {
        self.frontend_store_misses
            + self.cost_store_misses
            + self.sched_store_misses
            + self.point_store_misses
    }

    /// Combined hit rate over *logical* lookups: a stage-tier lookup is
    /// a hit if memory **or** the store served it (store reads happen
    /// exactly on memory misses, so `hits + misses` counts each logical
    /// stage lookup once), and a point-archive lookup is a hit if the
    /// store held the whole outcome. A warm process on an unchanged
    /// workspace scores ~1.0: every point is served from the archive.
    pub fn combined_hit_rate(&self) -> f64 {
        let lookups = self.hits() + self.misses() + self.point_store_hits + self.point_store_misses;
        if lookups == 0 {
            0.0
        } else {
            (self.hits() + self.store_hits()) as f64 / lookups as f64
        }
    }
}

/// One cache tier: a once-initialized slot per key, the tier's store
/// namespace and its memory and store hit/miss counters.
struct Tier<V> {
    namespace: &'static str,
    slots: Mutex<HashMap<Fingerprint, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
}

impl<V: Clone> Tier<V> {
    fn new(namespace: &'static str) -> Tier<V> {
        Tier {
            namespace,
            slots: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
        }
    }

    /// The value under `key`: from memory, else read back from `store`,
    /// else built (`build` writes through itself). Counts a memory hit
    /// or miss and, when the slot is filled with a store attached, a
    /// store hit or miss. A value that `keep` rejects is returned but
    /// its slot is dropped, so the next lookup fills it afresh.
    fn get(
        &self,
        key: Fingerprint,
        store: Option<&Store>,
        read: impl FnOnce(&Store) -> Option<V>,
        build: impl FnOnce() -> V,
        keep: impl FnOnce(&V) -> bool,
    ) -> V {
        let (slot, created) = {
            let mut slots = self.slots.lock().unwrap();
            match slots.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(OnceLock::new());
                    slots.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        let counter = if created { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        let value = slot
            .get_or_init(|| {
                if let Some(store) = store {
                    if let Some(value) = read(store) {
                        self.store_hits.fetch_add(1, Ordering::Relaxed);
                        return value;
                    }
                    self.store_misses.fetch_add(1, Ordering::Relaxed);
                }
                build()
            })
            .clone();
        if !keep(&value) {
            let mut slots = self.slots.lock().unwrap();
            if slots.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                slots.remove(&key);
            }
        }
        value
    }

    /// `[hits, misses, store hits, store misses]`.
    fn counts(&self) -> [u64; 4] {
        [
            &self.hits,
            &self.misses,
            &self.store_hits,
            &self.store_misses,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

/// An artifact tier's slot value: failures are cached like successes.
type Built<T> = Result<Arc<T>, Diagnostic>;

/// Four-tier artifact cache: frontend artifacts, seed-cost tables,
/// mapping-stage schedules (all in-memory, optionally store-backed) and
/// a store-only per-point outcome archive. The schedule tier implements
/// [`argo_core::ScheduleCache`], so binding the whole cache to a
/// session via [`argo_core::Toolflow::schedule_cache`] is enough to
/// share schedules across points whose feedback rounds re-derive
/// identical `(task graph, platform, scheduler)` inputs (ROADMAP item
/// (c)) — e.g. the MHP axis, or converged rounds within one backend.
pub struct ArtifactCache {
    store: Option<Arc<Store>>,
    frontend: Tier<Built<FrontendArtifact>>,
    costs: Tier<Built<CostTable>>,
    schedules: Tier<Schedule>,
    sched_build_ns: AtomicU64,
    point_store_hits: AtomicU64,
    point_store_misses: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache {
            store: None,
            frontend: Tier::new(NS_FRONTEND),
            costs: Tier::new(NS_COSTS),
            schedules: Tier::new(NS_SCHEDULE),
            sched_build_ns: AtomicU64::new(0),
            point_store_hits: AtomicU64::new(0),
            point_store_misses: AtomicU64::new(0),
        }
    }
}

impl ArtifactCache {
    /// Empty, memory-only cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Backs every tier onto a persistent [`Store`]: memory misses read
    /// from it before building, successful builds write through, and
    /// the point archive ([`ArtifactCache::point_get`]) activates.
    pub fn set_store(&mut self, store: Arc<Store>) {
        self.store = Some(store);
    }

    /// The persistent store backing this cache, if one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// An artifact tier lookup: store entries are fingerprint-validated
    /// on read, only successes are written through, and transient
    /// failures (deadline, caught panic, leader failure) are not
    /// memoized — they are not deterministic in the key, so replaying
    /// one would fail every later request for this artifact. Waiters
    /// already parked on a transient slot share the error, which is
    /// itself retryable.
    fn get_or_build<T: Codec + Artifact>(
        &self,
        tier: &Tier<Built<T>>,
        key: Fingerprint,
        build: impl FnOnce() -> Result<T, Diagnostic>,
    ) -> Built<T> {
        let store = self.store.as_deref();
        tier.get(
            key,
            store,
            |store| {
                store
                    .get_artifact(tier.namespace, key)
                    .map(|v| Ok(Arc::new(v)))
            },
            || {
                let result = build().map(Arc::new);
                if let (Some(store), Ok(value)) = (store, &result) {
                    store.put_artifact(tier.namespace, key, &**value);
                }
                result
            },
            |result| !matches!(result, Err(d) if d.code.is_transient()),
        )
    }

    /// Returns the frontend artifact for `key`, building it at most once
    /// per process (and, with a store attached, at most once per
    /// workspace — write-through on build, read-back on a cold start).
    ///
    /// # Errors
    ///
    /// Returns the builder's [`Diagnostic`]; failures are cached (in
    /// memory only), so a failing point does not rebuild per retry.
    pub fn frontend(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Result<FrontendArtifact, Diagnostic>,
    ) -> Result<Arc<FrontendArtifact>, Diagnostic> {
        self.get_or_build(&self.frontend, key, build)
    }

    /// Returns the seed-cost table for `key`, building it at most once
    /// (persistence as for [`ArtifactCache::frontend`]).
    ///
    /// # Errors
    ///
    /// Returns the builder's [`Diagnostic`] (cached like a success).
    pub fn seed_costs(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Result<CostTable, Diagnostic>,
    ) -> Result<Arc<CostTable>, Diagnostic> {
        self.get_or_build(&self.costs, key, build)
    }

    /// Reads a whole point outcome from the persistent archive. Returns
    /// `None` (and counts nothing) when no store is attached; otherwise
    /// counts a point-tier store hit or miss.
    pub fn point_get<T: Codec>(&self, key: Fingerprint) -> Option<T> {
        let store = self.store.as_ref()?;
        match store.get_value::<T>(NS_POINT, key) {
            Some(value) => {
                self.point_store_hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.point_store_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Archives a whole point outcome (no-op without a store).
    pub fn point_put<T: Codec>(&self, key: Fingerprint, value: &T) {
        if let Some(store) = &self.store {
            store.put_value(NS_POINT, key, value);
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let [frontend_hits, frontend_misses, frontend_store_hits, frontend_store_misses] =
            self.frontend.counts();
        let [cost_hits, cost_misses, cost_store_hits, cost_store_misses] = self.costs.counts();
        let [sched_hits, sched_misses, sched_store_hits, sched_store_misses] =
            self.schedules.counts();
        CacheStats {
            frontend_hits,
            frontend_misses,
            cost_hits,
            cost_misses,
            sched_hits,
            sched_misses,
            sched_build_ns: self.sched_build_ns.load(Ordering::Relaxed),
            frontend_store_hits,
            frontend_store_misses,
            cost_store_hits,
            cost_store_misses,
            sched_store_hits,
            sched_store_misses,
            point_store_hits: self.point_store_hits.load(Ordering::Relaxed),
            point_store_misses: self.point_store_misses.load(Ordering::Relaxed),
        }
    }
}

/// The third tier: schedules never fail, so slots hold plain values;
/// build wall time is charged to `sched_build_ns` for the per-tier
/// timing attribution in exploration reports (store read-backs are not
/// builds and charge nothing).
impl ScheduleCache for ArtifactCache {
    fn schedule(&self, key: Fingerprint, build: &mut dyn FnMut() -> Schedule) -> Schedule {
        let store = self.store.as_deref();
        let tier = &self.schedules;
        tier.get(
            key,
            store,
            |store| store.get_value(tier.namespace, key),
            || {
                let t0 = Instant::now();
                let schedule = build();
                self.sched_build_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if let Some(store) = store {
                    store.put_value(tier.namespace, key, &schedule);
                }
                schedule
            },
            |_| true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_core::Toolflow;
    use argo_ir::parse::parse_program;

    const SRC: &str = "void main(real a[8], real b[8]) {\n\
                       int i;\n\
                       for (i = 0; i < 8; i = i + 1) { b[i] = a[i] * 2.0; }\n\
                       }";

    /// Runs the frontend of [`SRC`] from `entry` for a 2-core platform.
    fn frontend(entry: &str) -> Result<FrontendArtifact, Diagnostic> {
        let platform = argo_adl::Platform::xentium_manycore(2);
        Toolflow::new(parse_program(SRC).unwrap(), entry)
            .platform(&platform)
            .run_frontend()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = ArtifactCache::new();
        let build = || frontend("main");
        let a = cache.frontend(Fingerprint(7), build).unwrap();
        let b = cache.frontend(Fingerprint(7), build).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.frontend_hits, s.frontend_misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        // Memory-only: the store tiers see no traffic, and the combined
        // rate collapses to the in-memory rate.
        assert_eq!(s.store_hits() + s.store_misses(), 0);
        assert!((s.combined_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_keys_build_independently() {
        let cache = ArtifactCache::new();
        for key in [1u64, 2, 3] {
            cache
                .frontend(Fingerprint(key), || frontend("main"))
                .unwrap();
        }
        assert_eq!(cache.stats().frontend_misses, 3);
        assert_eq!(cache.stats().frontend_hits, 0);
    }

    #[test]
    fn failures_are_cached() {
        let cache = ArtifactCache::new();
        let mut calls = 0;
        for _ in 0..2 {
            let r = cache.frontend(Fingerprint(9), || {
                calls += 1;
                frontend("nonexistent")
            });
            assert!(r.is_err());
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_failures_are_not_memoized() {
        use argo_core::{Diagnostic, ErrorCode, Stage};
        let cache = ArtifactCache::new();
        let mut calls = 0;
        // First build fails with a transient (infrastructure) code…
        let r = cache.frontend(Fingerprint(13), || {
            calls += 1;
            Err(Diagnostic::new(
                Stage::Frontend,
                ErrorCode::DeadlineExceeded,
                "request deadline elapsed",
            ))
        });
        assert_eq!(r.unwrap_err().code, ErrorCode::DeadlineExceeded);
        // …so the retry rebuilds — and its success is memoized again.
        for _ in 0..2 {
            cache
                .frontend(Fingerprint(13), || {
                    calls += 1;
                    frontend("main")
                })
                .unwrap();
        }
        assert_eq!(calls, 2, "one transient failure, one rebuild");
    }

    #[test]
    fn schedule_tier_builds_once_and_charges_build_time() {
        let cache = ArtifactCache::new();
        let calls = std::cell::Cell::new(0);
        let mut build = || {
            calls.set(calls.get() + 1);
            Schedule {
                assignment: vec![argo_adl::CoreId(0)],
                start: vec![0],
                finish: vec![9],
            }
        };
        let a = cache.schedule(Fingerprint(5), &mut build);
        let b = cache.schedule(Fingerprint(5), &mut build);
        assert_eq!(calls.get(), 1, "second lookup must not rebuild");
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.sched_hits, s.sched_misses), (1, 1));
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        // Distinct key → distinct build.
        cache.schedule(Fingerprint(6), &mut build);
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = ArtifactCache::new();
        let built = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache
                        .frontend(Fingerprint(1), || {
                            built.fetch_add(1, Ordering::Relaxed);
                            frontend("main")
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!(s.frontend_hits + s.frontend_misses, 8);
        assert_eq!(s.frontend_misses, 1);
    }

    #[test]
    fn store_backed_tiers_survive_a_cold_cache() {
        let dir = std::env::temp_dir().join(format!("argo-dse-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let key = Fingerprint(0xf00d);

        let mut warm = ArtifactCache::new();
        warm.set_store(Arc::clone(&store));
        warm.frontend(key, || frontend("main")).unwrap();
        let s = warm.stats();
        assert_eq!((s.frontend_store_hits, s.frontend_store_misses), (0, 1));

        // A cold cache (new process, same workspace) reads the artifact
        // back instead of rebuilding.
        let mut cold = ArtifactCache::new();
        cold.set_store(Arc::clone(&store));
        let built = std::cell::Cell::new(false);
        let artifact = cold
            .frontend(key, || {
                built.set(true);
                frontend("main")
            })
            .unwrap();
        assert!(!built.get(), "cold cache must not rebuild");
        let s = cold.stats();
        assert_eq!((s.frontend_store_hits, s.frontend_store_misses), (1, 0));
        assert!((s.combined_hit_rate() - 1.0).abs() < 1e-9);
        let rebuilt = frontend("main").unwrap();
        assert_eq!(artifact.fingerprint(), rebuilt.fingerprint());

        // Failures are never persisted: a failing key touches the store
        // for the read but writes nothing.
        let fail_key = Fingerprint(0xdead);
        let r = cold.frontend(fail_key, || frontend("nonexistent"));
        assert!(r.is_err());
        let mut colder = ArtifactCache::new();
        colder.set_store(Arc::clone(&store));
        assert!(colder
            .frontend(fail_key, || frontend("nonexistent"))
            .is_err());
        assert_eq!(colder.stats().frontend_store_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_tier_round_trips_through_the_store() {
        let dir = std::env::temp_dir().join(format!("argo-dse-sched-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let schedule = Schedule {
            assignment: vec![argo_adl::CoreId(0), argo_adl::CoreId(1)],
            start: vec![0, 3],
            finish: vec![3, 9],
        };
        let mut warm = ArtifactCache::new();
        warm.set_store(Arc::clone(&store));
        let mut build = || schedule.clone();
        warm.schedule(Fingerprint(0xcafe), &mut build);

        let mut cold = ArtifactCache::new();
        cold.set_store(store);
        let mut must_not_run = || panic!("cold schedule lookup must hit the store");
        let back = cold.schedule(Fingerprint(0xcafe), &mut must_not_run);
        assert_eq!(back, schedule);
        let s = cold.stats();
        assert_eq!((s.sched_store_hits, s.sched_store_misses), (1, 0));
        assert_eq!(s.sched_build_ns, 0, "store reads charge no build time");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
