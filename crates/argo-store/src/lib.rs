//! # argo-store — persistent content-addressed artifact store
//!
//! An on-disk, content-addressed cache for pipeline artifacts, keyed by
//! the canonical cross-process-stable [`Fingerprint`]s of PR 2. It is
//! the persistence layer behind `argo-dse`'s cache tiers and the
//! prerequisite for the `argo-serve` service direction: a cold process
//! on an unchanged workspace reads every artifact back instead of
//! recomputing it.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   tmp/                       in-flight writes (unique per process)
//!   <namespace>/
//!     <16-hex-digit key>.bin   one entry per fingerprint
//! ```
//!
//! Namespaces separate the cache tiers (`frontend`, `seed-costs`,
//! `schedule`, `point`, …); the file name is the entry's key
//! fingerprint in fixed-width hex. Nothing else is stored — the store
//! is a pure content-addressed map, and a directory listing is the
//! index.
//!
//! ## Entry format and schema versioning
//!
//! Every entry file is self-describing:
//!
//! ```text
//! magic  b"ARGO"                          4 bytes
//! schema version                          u32 LE
//! namespace                               u64 LE length + UTF-8 bytes
//! key fingerprint                         u64 LE
//! content fingerprint (0 = checksum-only) u64 LE
//! payload length                          u64 LE
//! payload FNV-1a checksum                 u64 LE
//! payload                                 length bytes
//! ```
//!
//! A reader validates all of it: magic, schema version (an entry
//! written by a different schema is counted in `version_skew` and
//! treated as a miss — never misread), namespace and key echo (a
//! mis-addressed file is corruption), payload length against the actual
//! file size, and the FNV-1a checksum. Typed reads decode the payload
//! with [`argo_core::codec`] and, for [`Artifact`] types, re-derive the
//! content fingerprint and compare it to the recorded one — so any
//! round-trip infidelity degrades to a counted miss instead of a wrong
//! artifact. Corrupt entries are unlinked on sight (self-healing); all
//! failure classes are counted, none panic.
//!
//! ## Atomicity and concurrency
//!
//! Writes go to `tmp/<pid>-<seq>.tmp` and are published with
//! [`std::fs::rename`], which is atomic on POSIX when source and target
//! share a filesystem (they do — `tmp/` lives inside the store
//! directory). Concurrent processes sharing a store directory therefore
//! never observe a torn entry: a reader sees either the old complete
//! file, the new complete file, or no file. A crash mid-write leaves
//! only a `tmp/` orphan that no reader ever opens; orphans older than
//! an hour are swept by [`Store::gc`]. Two processes racing to publish
//! the same key both write valid content (the store is
//! content-addressed — same key ⇒ same payload), so either rename
//! winning is correct.
//!
//! ## Garbage collection
//!
//! [`Store::gc`] enforces a byte budget with LRU eviction: entries are
//! ranked by file modification time, which [`Store`] refreshes on every
//! hit, and the oldest are unlinked until the store fits the budget.
//! GC may run in another process while a daemon or sweep reads the
//! same directory (the `argo-store gc` CLI), so nothing is pinned: a
//! read loads the whole file in one call, and a read that races an
//! eviction sees either the complete entry or a counted miss that the
//! caller recomputes and re-stores.
//!
//! ## Failure modes
//!
//! Every filesystem operation goes through an injectable [`IoBackend`]
//! ([`Store::open_with_io`]), which is how the `argo-chaos` fault
//! layer proves the degradation contract below on the *live* I/O path.
//! The store never panics on and never propagates an I/O failure to a
//! pipeline; each class degrades to a counted outcome:
//!
//! | failure | observed as | counter | entry afterwards |
//! |---|---|---|---|
//! | write/create error | dropped write | `write_errors` | absent (old value, if any, survives) |
//! | failed fsync | dropped write | `write_errors` | absent; partial `tmp/` orphan, swept by gc |
//! | failed rename (publish) | dropped write | `write_errors` | absent; tmp file unlinked best-effort |
//! | torn/short write (crash, chaos) | corrupt miss on next read | `misses` + `corrupt` | unlinked on sight (self-heal) |
//! | read error | plain miss | `misses` | left intact (may hit later) |
//! | checksum / header mismatch | corrupt miss | `misses` + `corrupt` | unlinked on sight |
//! | undecodable / infidel payload | corrupt miss | `misses` + `corrupt` | unlinked on sight |
//! | other schema version | version-skew miss | `misses` + `version_skew` | left intact (gc may evict) |
//! | induced latency | slower op | latency histograms | unchanged |
//!
//! Because a dropped write leaves the previous (or no) entry and a
//! corrupt entry is rejected before decoding, a reader sees either the
//! exact bytes that were stored or a miss — **never wrong data** —
//! which is what makes warm-start replay byte-identical even after a
//! faulty run. [`Store::fsck`] audits a store offline against the same
//! classes and (with repair) unlinks what it finds.

use argo_core::codec::Codec;
use argo_core::{Artifact, Fingerprint};
use argo_trace::{Counter, Histogram, Registry, LATENCY_US_BUCKETS};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

pub mod backend;
pub use backend::{DirEntryInfo, IoBackend, RealIo};

/// Current on-disk schema version. Bump whenever the entry header or
/// any [`Codec`] encoding changes shape; old entries then read as
/// `version_skew` misses and are rewritten, never misread. Bump it too
/// when a fix changes what unchanged inputs produce: entries are keyed
/// by input fingerprints, so without the bump a store written before
/// the fix would replay the artifacts and archived points the fixed
/// code no longer computes. Version 2 is the first such fix: worst-case
/// access counts that take both branches of a conditional.
pub const SCHEMA_VERSION: u32 = 2;

/// Entry file magic, the first four bytes of every valid entry.
pub const MAGIC: [u8; 4] = *b"ARGO";

/// Tmp-file orphans older than this are swept by [`Store::gc`] (a
/// crashed writer's leftovers; live writers publish within
/// milliseconds).
const TMP_SWEEP_AGE: Duration = Duration::from_secs(3600);

const HEX_KEY_LEN: usize = 16;

/// Process-global tmp-file sequence: two [`Store`] handles over the
/// same directory in one process (the `argo-serve` shape) must not
/// reuse each other's in-flight names — pid alone is not unique enough.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Monotonic cumulative counters of one [`Store`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Reads that returned a valid entry.
    pub hits: u64,
    /// Reads that found no entry (including entries rejected below).
    pub misses: u64,
    /// Entries rejected for corruption: bad magic, truncation, checksum
    /// or fingerprint mismatch, undecodable payload, mis-addressed
    /// header. Each is also counted as a miss.
    pub corrupt: u64,
    /// Entries rejected because they were written by a different schema
    /// version. Each is also counted as a miss.
    pub version_skew: u64,
    /// Entries unlinked by [`Store::gc`] to satisfy the byte budget.
    pub evictions: u64,
    /// Writes dropped because of filesystem errors (the store degrades
    /// to pass-through; callers never see the error).
    pub write_errors: u64,
}

impl StoreCounters {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One entry as listed by [`Store::ls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// Namespace (tier) directory the entry lives in.
    pub namespace: String,
    /// Key fingerprint parsed from the file name.
    pub key: Fingerprint,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-use time (file mtime; refreshed on every hit).
    pub last_used: SystemTime,
}

/// Point-in-time summary returned by [`Store::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live entry count across all namespaces.
    pub entries: u64,
    /// Total bytes of live entries.
    pub bytes: u64,
    /// Cumulative counters of this handle.
    pub counters: StoreCounters,
}

/// Outcome of one [`Store::gc`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entries unlinked to satisfy the budget.
    pub evicted: u64,
    /// Bytes reclaimed from evicted entries.
    pub reclaimed_bytes: u64,
    /// Live bytes remaining after the run.
    pub remaining_bytes: u64,
    /// Stale tmp-file orphans swept.
    pub tmp_swept: u64,
}

/// A persistent, content-addressed artifact store rooted at one
/// directory. See the [module docs](self) for layout, versioning,
/// atomicity and GC semantics.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    io: Arc<dyn IoBackend>,
    /// Per-handle metrics registry (`argo_store_*` names). Deliberately
    /// NOT the process-global [`argo_trace::metrics`] registry: tests
    /// and `argo-serve` open several stores per process, and each
    /// handle's counts must stay isolated.
    registry: Registry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    corrupt: Arc<Counter>,
    version_skew: Arc<Counter>,
    evictions: Arc<Counter>,
    write_errors: Arc<Counter>,
    get_latency: Arc<Histogram>,
    put_latency: Arc<Histogram>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] if the directory (or its
    /// `tmp/` subdirectory) cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        Store::open_with_io(dir, Arc::new(RealIo))
    }

    /// Opens a store whose every filesystem operation goes through
    /// `io` — the hook the `argo-chaos` fault layer uses to inject
    /// deterministic I/O failures on the live path. Production callers
    /// use [`Store::open`] (a [`RealIo`] passthrough).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] if the directory (or its
    /// `tmp/` subdirectory) cannot be created.
    pub fn open_with_io(dir: impl Into<PathBuf>, io: Arc<dyn IoBackend>) -> io::Result<Store> {
        let dir = dir.into();
        io.create_dir_all(&dir.join("tmp"))?;
        let registry = Registry::new();
        Ok(Store {
            dir,
            io,
            hits: registry.counter("argo_store_hits_total"),
            misses: registry.counter("argo_store_misses_total"),
            corrupt: registry.counter("argo_store_corrupt_total"),
            version_skew: registry.counter("argo_store_version_skew_total"),
            evictions: registry.counter("argo_store_evictions_total"),
            write_errors: registry.counter("argo_store_write_errors_total"),
            get_latency: registry.histogram("argo_store_get_latency_us", LATENCY_US_BUCKETS),
            put_latency: registry.histogram("argo_store_put_latency_us", LATENCY_US_BUCKETS),
            registry,
        })
    }

    /// The handle's metrics registry: the counters plus
    /// `argo_store_get_latency_us` / `argo_store_put_latency_us`
    /// histograms. `argo-serve`'s `metrics` endpoint and the CLI's
    /// `stats --json` render from here.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the cumulative counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            corrupt: self.corrupt.get(),
            version_skew: self.version_skew.get(),
            evictions: self.evictions.get(),
            write_errors: self.write_errors.get(),
        }
    }

    fn entry_path(&self, namespace: &str, key: Fingerprint) -> PathBuf {
        self.dir.join(namespace).join(format!("{:016x}.bin", key.0))
    }

    // --- writes ---------------------------------------------------------

    /// Stores an [`Artifact`] under its namespace and key, recording
    /// the artifact's content fingerprint for end-to-end validation on
    /// read-back. Filesystem errors are absorbed (counted in
    /// [`StoreCounters::write_errors`]); the store never fails a
    /// pipeline run.
    pub fn put_artifact<T: Codec + Artifact>(&self, namespace: &str, key: Fingerprint, value: &T) {
        self.put_raw(namespace, key, value.fingerprint(), &value.to_bytes());
    }

    /// Stores any [`Codec`] value (checksum-integrity only — no content
    /// fingerprint re-derivation on read-back).
    pub fn put_value<T: Codec>(&self, namespace: &str, key: Fingerprint, value: &T) {
        self.put_raw(namespace, key, Fingerprint(0), &value.to_bytes());
    }

    fn put_raw(&self, namespace: &str, key: Fingerprint, content: Fingerprint, payload: &[u8]) {
        let t0 = Instant::now();
        if self.try_put(namespace, key, content, payload).is_err() {
            self.write_errors.inc();
        }
        self.put_latency.observe_duration_us(t0.elapsed());
    }

    fn try_put(
        &self,
        namespace: &str,
        key: Fingerprint,
        content: Fingerprint,
        payload: &[u8],
    ) -> io::Result<()> {
        let final_path = self.entry_path(namespace, key);
        if let Some(parent) = final_path.parent() {
            self.io.create_dir_all(parent)?;
        }
        let mut bytes = Vec::with_capacity(payload.len() + 64);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(namespace.len() as u64).to_le_bytes());
        bytes.extend_from_slice(namespace.as_bytes());
        bytes.extend_from_slice(&key.0.to_le_bytes());
        bytes.extend_from_slice(&content.0.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
        bytes.extend_from_slice(payload);

        // Unique tmp name per process and write: concurrent writers
        // (threads or processes) never share an in-flight file, and the
        // final rename is atomic — readers see old, new, or nothing.
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join("tmp")
            .join(format!("{}-{seq}.tmp", std::process::id()));
        // A failed write_file may leave a partial tmp file — the same
        // residue as a crashed writer; gc sweeps it, readers never see
        // it. The caller counts the dropped write.
        self.io.write_file(&tmp, &bytes)?;
        match self.io.rename(&tmp, &final_path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = self.io.remove_file(&tmp);
                Err(e)
            }
        }
    }

    // --- reads ----------------------------------------------------------

    /// Reads an [`Artifact`] back, validating header, checksum, payload
    /// decode **and** the re-derived content fingerprint. Any failure
    /// is a counted miss (`corrupt` / `version_skew`), never an error.
    pub fn get_artifact<T: Codec + Artifact>(
        &self,
        namespace: &str,
        key: Fingerprint,
    ) -> Option<T> {
        let (content, payload) = self.get_raw(namespace, key)?;
        match T::from_bytes(&payload) {
            Ok(value) if value.fingerprint() == content => self.accept(value),
            Ok(_) => {
                // Decoded cleanly but to different content than was
                // stored — round-trip infidelity. Reject and self-heal.
                self.reject_corrupt(namespace, key)
            }
            Err(_) => self.reject_corrupt(namespace, key),
        }
    }

    /// Reads any [`Codec`] value back (checksum-integrity only).
    pub fn get_value<T: Codec>(&self, namespace: &str, key: Fingerprint) -> Option<T> {
        let (_, payload) = self.get_raw(namespace, key)?;
        match T::from_bytes(&payload) {
            Ok(value) => self.accept(value),
            Err(_) => self.reject_corrupt(namespace, key),
        }
    }

    /// Counts the hit of a read whose payload was accepted.
    fn accept<T>(&self, value: T) -> Option<T> {
        self.hits.inc();
        Some(value)
    }

    fn reject_corrupt<T>(&self, namespace: &str, key: Fingerprint) -> Option<T> {
        self.misses.inc();
        self.corrupt.inc();
        let _ = self.io.remove_file(&self.entry_path(namespace, key));
        None
    }

    /// Reads and validates one raw entry, returning the recorded
    /// content fingerprint and payload. Counts a (possibly
    /// corrupt/skewed) miss; a valid envelope's hit is counted by the
    /// caller once the payload decodes. Refreshes the entry's LRU clock.
    fn get_raw(&self, namespace: &str, key: Fingerprint) -> Option<(Fingerprint, Vec<u8>)> {
        let t0 = Instant::now();
        let out = self.get_raw_inner(namespace, key);
        self.get_latency.observe_duration_us(t0.elapsed());
        out
    }

    fn get_raw_inner(&self, namespace: &str, key: Fingerprint) -> Option<(Fingerprint, Vec<u8>)> {
        let path = self.entry_path(namespace, key);
        // A read error (missing file, or an injected fault) is a plain
        // miss: the entry — if any — is left intact for a later retry.
        let Ok(bytes) = self.io.read(&path) else {
            self.misses.inc();
            return None;
        };
        match self.parse_entry(&bytes, namespace, key) {
            EntryParse::Valid { content, payload } => {
                // LRU clock: gc ranks by mtime, so refresh it on use.
                let _ = self.io.set_modified(&path, SystemTime::now());
                Some((content, payload))
            }
            EntryParse::VersionSkew => {
                self.misses.inc();
                self.version_skew.inc();
                // Leave the file for gc: a *newer* schema's entry must
                // survive this process, and an older one is harmless.
                None
            }
            EntryParse::Corrupt => {
                self.misses.inc();
                self.corrupt.inc();
                let _ = self.io.remove_file(&path);
                None
            }
        }
    }

    fn parse_entry(&self, bytes: &[u8], namespace: &str, key: Fingerprint) -> EntryParse {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Option<&[u8]> {
            let s = bytes.get(pos..pos + n)?;
            pos += n;
            Some(s)
        };
        let Some(magic) = take(4) else {
            return EntryParse::Corrupt;
        };
        if magic != MAGIC {
            return EntryParse::Corrupt;
        }
        let Some(ver) = take(4) else {
            return EntryParse::Corrupt;
        };
        if u32::from_le_bytes(ver.try_into().unwrap()) != SCHEMA_VERSION {
            return EntryParse::VersionSkew;
        }
        let Some(ns_len) = take(8) else {
            return EntryParse::Corrupt;
        };
        let Ok(ns_len) = usize::try_from(u64::from_le_bytes(ns_len.try_into().unwrap())) else {
            return EntryParse::Corrupt;
        };
        if ns_len > bytes.len() {
            return EntryParse::Corrupt;
        }
        let Some(ns) = take(ns_len) else {
            return EntryParse::Corrupt;
        };
        if ns != namespace.as_bytes() {
            return EntryParse::Corrupt;
        }
        let (Some(k), Some(content), Some(len), Some(sum)) = (take(8), take(8), take(8), take(8))
        else {
            return EntryParse::Corrupt;
        };
        if u64::from_le_bytes(k.try_into().unwrap()) != key.0 {
            return EntryParse::Corrupt;
        }
        let content = Fingerprint(u64::from_le_bytes(content.try_into().unwrap()));
        let Ok(len) = usize::try_from(u64::from_le_bytes(len.try_into().unwrap())) else {
            return EntryParse::Corrupt;
        };
        let sum = u64::from_le_bytes(sum.try_into().unwrap());
        let Some(payload) = take(len) else {
            return EntryParse::Corrupt;
        };
        if pos != bytes.len() || fnv1a(payload) != sum {
            return EntryParse::Corrupt;
        }
        EntryParse::Valid {
            content,
            payload: payload.to_vec(),
        }
    }

    // --- maintenance ----------------------------------------------------

    /// Lists all live entries, newest-used first.
    pub fn ls(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        let Ok(namespaces) = self.io.read_dir(&self.dir) else {
            return out;
        };
        for ns in namespaces {
            if ns.name == "tmp" || !ns.is_dir {
                continue;
            }
            let Ok(entries) = self.io.read_dir(&self.dir.join(&ns.name)) else {
                continue;
            };
            for entry in entries {
                let Some(hex) = entry
                    .name
                    .strip_suffix(".bin")
                    .filter(|h| h.len() == HEX_KEY_LEN)
                else {
                    continue;
                };
                let Ok(key) = u64::from_str_radix(hex, 16) else {
                    continue;
                };
                out.push(EntryInfo {
                    namespace: ns.name.clone(),
                    key: Fingerprint(key),
                    bytes: entry.len,
                    last_used: entry.modified,
                });
            }
        }
        out.sort_by(|a, b| {
            b.last_used
                .cmp(&a.last_used)
                .then_with(|| a.namespace.cmp(&b.namespace))
                .then_with(|| a.key.0.cmp(&b.key.0))
        });
        out
    }

    /// Total bytes of live entries.
    pub fn total_bytes(&self) -> u64 {
        self.ls().iter().map(|e| e.bytes).sum()
    }

    /// Point-in-time stats (entry count, bytes, counters).
    pub fn stats(&self) -> StoreStats {
        let entries = self.ls();
        StoreStats {
            entries: entries.len() as u64,
            bytes: entries.iter().map(|e| e.bytes).sum(),
            counters: self.counters(),
        }
    }

    /// Evicts least-recently-used entries until the store fits
    /// `budget_bytes`, sweeping stale tmp orphans along the way.
    pub fn gc(&self, budget_bytes: u64) -> GcStats {
        let mut stats = GcStats::default();

        // Sweep crashed writers' orphans (never readable — writes that
        // completed were renamed out of tmp/).
        let tmp_dir = self.dir.join("tmp");
        if let Ok(entries) = self.io.read_dir(&tmp_dir) {
            let now = SystemTime::now();
            for entry in entries {
                let stale = now
                    .duration_since(entry.modified)
                    .is_ok_and(|age| age >= TMP_SWEEP_AGE);
                if stale && self.io.remove_file(&tmp_dir.join(&entry.name)).is_ok() {
                    stats.tmp_swept += 1;
                }
            }
        }

        let entries = self.ls();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        // ls() is newest-first; walk from the oldest end.
        for entry in entries.iter().rev() {
            if total <= budget_bytes {
                break;
            }
            let path = self.entry_path(&entry.namespace, entry.key);
            if self.io.remove_file(&path).is_ok() {
                total -= entry.bytes;
                stats.evicted += 1;
                stats.reclaimed_bytes += entry.bytes;
                self.evictions.inc();
            }
        }
        stats.remaining_bytes = total;
        stats
    }

    /// Removes every entry (counters are kept — `clear` is an
    /// operation on the data, not the handle).
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error encountered.
    pub fn clear(&self) -> io::Result<()> {
        let Ok(namespaces) = self.io.read_dir(&self.dir) else {
            return Ok(());
        };
        for ns in namespaces {
            if ns.is_dir {
                self.io.remove_dir_all(&self.dir.join(&ns.name))?;
            }
        }
        self.io.create_dir_all(&self.dir.join("tmp"))?;
        Ok(())
    }

    /// Audits every entry in the store offline, classifying each as
    /// valid, corrupt (bad magic/header/checksum/truncation) or
    /// version-skewed, and every file under `tmp/` as an orphan (fsck
    /// runs against a quiescent store; live writers publish within
    /// milliseconds). Reads are raw-envelope checks only — no payload
    /// decode, no counters bumped, no LRU refresh, no self-healing.
    ///
    /// With `repair`, findings are unlinked: corrupt entries (as a
    /// read would), tmp orphans (as gc eventually would) and — unlike
    /// the read path, which preserves them for newer schemas —
    /// version-skewed entries too: fsck repair is an explicit operator
    /// action to reclaim a store in place.
    pub fn fsck(&self, repair: bool) -> FsckReport {
        let mut report = FsckReport::default();
        for entry in self.ls() {
            report.scanned += 1;
            let path = self.entry_path(&entry.namespace, entry.key);
            let class = match self.io.read(&path) {
                Ok(bytes) => match self.parse_entry(&bytes, &entry.namespace, entry.key) {
                    EntryParse::Valid { .. } => {
                        report.valid += 1;
                        continue;
                    }
                    EntryParse::VersionSkew => {
                        report.version_skew += 1;
                        FsckClass::VersionSkew
                    }
                    EntryParse::Corrupt => {
                        report.corrupt += 1;
                        FsckClass::Corrupt
                    }
                },
                // Vanished or unreadable mid-scan: count it corrupt but
                // never unlink what we could not inspect.
                Err(_) => {
                    report.corrupt += 1;
                    report.findings.push(FsckFinding {
                        path,
                        class: FsckClass::Corrupt,
                    });
                    continue;
                }
            };
            if repair && self.io.remove_file(&path).is_ok() {
                report.repaired += 1;
            }
            report.findings.push(FsckFinding { path, class });
        }
        let tmp_dir = self.dir.join("tmp");
        if let Ok(entries) = self.io.read_dir(&tmp_dir) {
            for entry in entries {
                report.tmp_orphans += 1;
                let path = tmp_dir.join(&entry.name);
                if repair && self.io.remove_file(&path).is_ok() {
                    report.repaired += 1;
                }
                report.findings.push(FsckFinding {
                    path,
                    class: FsckClass::TmpOrphan,
                });
            }
        }
        report
    }
}

/// Classification of one [`Store::fsck`] finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckClass {
    /// Bad magic, truncated/mis-addressed header, checksum mismatch,
    /// or the file could not be read at all.
    Corrupt,
    /// Written by a different schema version.
    VersionSkew,
    /// An in-flight tmp file, orphaned by a crashed (or killed) writer.
    TmpOrphan,
}

impl FsckClass {
    /// Stable kebab-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FsckClass::Corrupt => "corrupt",
            FsckClass::VersionSkew => "version-skew",
            FsckClass::TmpOrphan => "tmp-orphan",
        }
    }
}

/// One problematic file found by [`Store::fsck`].
#[derive(Debug, Clone)]
pub struct FsckFinding {
    /// Absolute path of the offending file.
    pub path: PathBuf,
    /// Why it was flagged.
    pub class: FsckClass,
}

/// Outcome of one [`Store::fsck`] run.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Entries examined (tmp orphans are extra).
    pub scanned: u64,
    /// Entries that passed every envelope check.
    pub valid: u64,
    /// Entries flagged [`FsckClass::Corrupt`].
    pub corrupt: u64,
    /// Entries flagged [`FsckClass::VersionSkew`].
    pub version_skew: u64,
    /// Files under `tmp/` ([`FsckClass::TmpOrphan`]).
    pub tmp_orphans: u64,
    /// Files unlinked (repair mode only).
    pub repaired: u64,
    /// Every flagged file, in scan order.
    pub findings: Vec<FsckFinding>,
}

impl FsckReport {
    /// Total problems found (corrupt + version-skew + tmp orphans).
    pub fn problems(&self) -> u64 {
        self.corrupt + self.version_skew + self.tmp_orphans
    }
}

enum EntryParse {
    Valid {
        content: Fingerprint,
        payload: Vec<u8>,
    },
    VersionSkew,
    Corrupt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, File};
    use std::sync::atomic::AtomicU32;

    static TEST_DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// Unique per-test store dir under the system temp dir (std-only;
    /// no tempfile crate in the container). Removed on drop.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new() -> TestDir {
            let seq = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("argo-store-test-{}-{seq}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn put_get_value_round_trips(store: &Store) {
        let key = Fingerprint(0xabcd);
        let value: Vec<u64> = vec![1, 2, 3, 99];
        store.put_value("unit", key, &value);
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), Some(value));
    }

    #[test]
    fn round_trip_and_counters() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        put_get_value_round_trips(&store);
        assert_eq!(store.get_value::<Vec<u64>>("unit", Fingerprint(7)), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.corrupt), (1, 1, 0));
    }

    #[test]
    fn cold_handle_reads_back() {
        let td = TestDir::new();
        {
            let store = Store::open(&td.0).unwrap();
            put_get_value_round_trips(&store);
        }
        // Fresh handle over the same dir: the write must persist.
        let cold = Store::open(&td.0).unwrap();
        assert_eq!(
            cold.get_value::<Vec<u64>>("unit", Fingerprint(0xabcd)),
            Some(vec![1, 2, 3, 99])
        );
        assert_eq!(cold.counters().hits, 1);
    }

    #[test]
    fn truncated_entry_is_a_counted_miss_and_self_heals() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let key = Fingerprint(0x11);
        store.put_value("unit", key, &vec![1u64; 64]);
        let path = store.entry_path("unit", key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), None);
        let c = store.counters();
        assert_eq!((c.misses, c.corrupt), (1, 1));
        assert!(!path.exists(), "corrupt entry is unlinked");
        // The next lookup is a plain miss, not corrupt again.
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), None);
        assert_eq!(store.counters().corrupt, 1);
    }

    #[test]
    fn garbage_bytes_are_a_counted_miss() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let key = Fingerprint(0x22);
        let path = store.entry_path("unit", key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let garbage: Vec<u8> = (0..512u32).map(|i| (i * 31 % 251) as u8).collect();
        fs::write(&path, garbage).unwrap();
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), None);
        let c = store.counters();
        assert_eq!((c.misses, c.corrupt), (1, 1));
    }

    #[test]
    fn checksum_passes_but_payload_undecodable_is_corrupt() {
        // A valid envelope around a payload that fails Codec decode:
        // the typed read rejects and self-heals.
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let key = Fingerprint(0x33);
        store.put_raw("unit", key, Fingerprint(0), &[0xff; 3]);
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.corrupt), (0, 1, 1));
        assert!(!store.entry_path("unit", key).exists());
    }

    #[test]
    fn wrong_schema_version_is_version_skew_not_corrupt() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let key = Fingerprint(0x44);
        store.put_value("unit", key, &vec![5u64]);
        let path = store.entry_path("unit", key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), None);
        let c = store.counters();
        assert_eq!((c.misses, c.version_skew, c.corrupt), (1, 1, 0));
        assert!(path.exists(), "future-schema entries are left intact");
    }

    #[test]
    fn crash_mid_write_leaves_only_an_unreadable_tmp_orphan() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        // Simulate a crash: the in-flight bytes reached tmp/ but the
        // rename never happened.
        fs::write(td.0.join("tmp").join("9999-0.tmp"), b"half an entry").unwrap();
        let key = Fingerprint(0x55);
        assert_eq!(store.get_value::<Vec<u64>>("unit", key), None);
        let c = store.counters();
        assert_eq!((c.misses, c.corrupt), (1, 0), "orphan is a plain miss");
        assert_eq!(store.ls().len(), 0, "tmp orphans are not entries");
    }

    #[test]
    fn mis_addressed_entry_is_corrupt() {
        // A file copied to the wrong key (or wrong namespace) must not
        // serve under that address.
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        store.put_value("unit", Fingerprint(0x66), &vec![9u64]);
        let src = store.entry_path("unit", Fingerprint(0x66));
        let dst = store.entry_path("unit", Fingerprint(0x77));
        fs::copy(&src, &dst).unwrap();
        assert_eq!(store.get_value::<Vec<u64>>("unit", Fingerprint(0x77)), None);
        assert_eq!(store.counters().corrupt, 1);
        let other = store.entry_path("other", Fingerprint(0x66));
        fs::create_dir_all(other.parent().unwrap()).unwrap();
        fs::copy(&src, &other).unwrap();
        assert_eq!(
            store.get_value::<Vec<u64>>("other", Fingerprint(0x66)),
            None
        );
        assert_eq!(store.counters().corrupt, 2);
    }

    #[test]
    fn gc_respects_budget_and_lru_order() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        for i in 0..8u64 {
            store.put_value("unit", Fingerprint(i), &vec![i; 32]);
        }
        let per_entry = store.total_bytes() / 8;
        // Touch entry 0 so it becomes the most recently used.
        let now = SystemTime::now();
        for (i, age) in (0..8u64).zip((1..9u64).rev()) {
            let path = store.entry_path("unit", Fingerprint(i));
            let f = File::options().write(true).open(&path).unwrap();
            f.set_modified(now - Duration::from_secs(age * 10)).unwrap();
        }
        assert_eq!(
            store.get_value::<Vec<u64>>("unit", Fingerprint(0)),
            Some(vec![0u64; 32])
        );
        let budget = per_entry * 4;
        let gc = store.gc(budget);
        assert_eq!(gc.evicted, 4);
        assert!(gc.remaining_bytes <= budget);
        // The freshly-used entry 0 survives; the stalest (1..=4) go.
        assert!(store.entry_path("unit", Fingerprint(0)).exists());
        for i in 1..5u64 {
            assert!(
                !store.entry_path("unit", Fingerprint(i)).exists(),
                "entry {i}"
            );
        }
        assert_eq!(store.counters().evictions, 4);
    }

    #[test]
    fn gc_sweeps_stale_tmp_orphans_only() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let stale = td.0.join("tmp").join("1-0.tmp");
        let fresh = td.0.join("tmp").join("1-1.tmp");
        fs::write(&stale, b"old").unwrap();
        fs::write(&fresh, b"new").unwrap();
        File::options()
            .write(true)
            .open(&stale)
            .unwrap()
            .set_modified(SystemTime::now() - TMP_SWEEP_AGE * 2)
            .unwrap();
        let gc = store.gc(u64::MAX);
        assert_eq!(gc.tmp_swept, 1);
        assert!(!stale.exists());
        assert!(fresh.exists(), "a live writer's tmp file survives");
    }

    #[test]
    fn ls_stats_and_clear() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        store.put_value("a", Fingerprint(1), &vec![1u64; 16]);
        store.put_value("b", Fingerprint(2), &vec![2u64; 16]);
        let entries = store.ls();
        assert_eq!(entries.len(), 2);
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, store.total_bytes());
        store.clear().unwrap();
        assert_eq!(store.ls().len(), 0);
        assert_eq!(store.get_value::<Vec<u64>>("a", Fingerprint(1)), None);
    }

    #[test]
    fn registry_tracks_latency_and_counters_per_handle() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let other = Store::open(&td.0).unwrap();
        for i in 0..5u64 {
            store.put_value("unit", Fingerprint(i), &vec![i; 16]);
        }
        for i in 0..5u64 {
            assert!(store
                .get_value::<Vec<u64>>("unit", Fingerprint(i))
                .is_some());
        }
        assert!(store
            .get_value::<Vec<u64>>("unit", Fingerprint(99))
            .is_none());
        let get = store
            .registry()
            .get_histogram("argo_store_get_latency_us")
            .unwrap();
        let put = store
            .registry()
            .get_histogram("argo_store_put_latency_us")
            .unwrap();
        assert_eq!(put.count(), 5);
        assert_eq!(get.count(), 6, "hits and misses both time the read path");
        assert!(get.p99() >= get.p50());
        // Registries are per handle: the second store saw none of it.
        let cold = other
            .registry()
            .get_histogram("argo_store_get_latency_us")
            .unwrap();
        assert_eq!(cold.count(), 0);
        let text = store.registry().prometheus();
        assert!(text.contains("argo_store_hits_total 5"), "{text}");
        assert!(text.contains("argo_store_misses_total 1"), "{text}");
        assert!(text.contains("argo_store_get_latency_us_count 6"), "{text}");
    }

    #[test]
    fn fsck_classifies_and_repairs() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        // Two healthy entries, one truncated, one version-skewed, one
        // tmp orphan.
        for i in 0..4u64 {
            store.put_value("unit", Fingerprint(i), &vec![i; 32]);
        }
        let truncated = store.entry_path("unit", Fingerprint(2));
        let bytes = fs::read(&truncated).unwrap();
        fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let skewed = store.entry_path("unit", Fingerprint(3));
        let mut bytes = fs::read(&skewed).unwrap();
        bytes[4..8].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        fs::write(&skewed, &bytes).unwrap();
        fs::write(td.0.join("tmp").join("1-0.tmp"), b"half").unwrap();

        let report = store.fsck(false);
        assert_eq!(report.scanned, 4);
        assert_eq!(report.valid, 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.version_skew, 1);
        assert_eq!(report.tmp_orphans, 1);
        assert_eq!(report.problems(), 3);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.findings.len(), 3);
        assert!(truncated.exists(), "report mode never unlinks");
        // fsck bumps no counters and heals nothing by itself.
        assert_eq!(store.counters(), StoreCounters::default());

        let report = store.fsck(true);
        assert_eq!(report.repaired, 3);
        assert!(!truncated.exists());
        assert!(!skewed.exists());
        assert_eq!(store.fsck(false).problems(), 0);
        // The healthy entries still read back after repair.
        assert_eq!(
            store.get_value::<Vec<u64>>("unit", Fingerprint(0)),
            Some(vec![0u64; 32])
        );
    }

    #[test]
    fn open_with_io_routes_through_the_backend() {
        /// Counts operations, delegating to [`RealIo`].
        #[derive(Debug, Default)]
        struct CountingIo {
            reads: AtomicU64,
            writes: AtomicU64,
        }
        impl IoBackend for CountingIo {
            fn create_dir_all(&self, path: &Path) -> io::Result<()> {
                RealIo.create_dir_all(path)
            }
            fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
                self.reads.fetch_add(1, Ordering::Relaxed);
                RealIo.read(path)
            }
            fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
                self.writes.fetch_add(1, Ordering::Relaxed);
                RealIo.write_file(path, bytes)
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                RealIo.rename(from, to)
            }
            fn remove_file(&self, path: &Path) -> io::Result<()> {
                RealIo.remove_file(path)
            }
            fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
                RealIo.read_dir(path)
            }
            fn set_modified(&self, path: &Path, t: SystemTime) -> io::Result<()> {
                RealIo.set_modified(path, t)
            }
            fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
                RealIo.remove_dir_all(path)
            }
        }

        let td = TestDir::new();
        let io = Arc::new(CountingIo::default());
        let store = Store::open_with_io(&td.0, io.clone()).unwrap();
        put_get_value_round_trips(&store);
        assert_eq!(io.writes.load(Ordering::Relaxed), 1);
        assert_eq!(io.reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_writers_and_readers_share_a_dir_safely() {
        let td = TestDir::new();
        let store = Store::open(&td.0).unwrap();
        let second = Store::open(&td.0).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = if t % 2 == 0 { &store } else { &second };
                s.spawn(move || {
                    for i in 0..50u64 {
                        let key = Fingerprint(i % 8);
                        store.put_value("race", key, &vec![i % 8; 64]);
                        if let Some(v) = store.get_value::<Vec<u64>>("race", key) {
                            assert_eq!(v, vec![i % 8; 64], "torn or mixed read");
                        }
                    }
                });
            }
        });
        let c = store.counters();
        assert_eq!(c.corrupt, 0, "no torn writes observed");
        assert_eq!(second.counters().corrupt, 0);
    }
}
