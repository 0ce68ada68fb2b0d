//! Canonical, API-owned content fingerprints for tool-flow inputs and
//! artifacts.
//!
//! A [`Fingerprint`] is a stable 64-bit content hash: equal inputs hash
//! equal in every process, on every run, on every platform — which is
//! what makes fingerprints usable as cross-process cache keys (the
//! `argo-dse` artifact cache, the ROADMAP's persistent/third-tier
//! caches). The encoding is owned by this module, *not* derived from
//! `Debug` formatting: every field a stage observes is fed explicitly,
//! length-prefixed, so adding cosmetic fields (names, display strings)
//! cannot silently change keys, and `["ab","c"]` never collides with
//! `["a","bc"]`.
//!
//! Two kinds of things carry fingerprints:
//!
//! * **inputs** — [`Platform`], [`CostView`] and [`ToolchainConfig`]
//!   implement [`Fingerprintable`]; a platform's cosmetic `name` is
//!   deliberately excluded (two platforms differing only in name behave
//!   identically);
//! * **artifacts** — [`FrontendArtifact`](crate::FrontendArtifact),
//!   [`CostTable`](crate::CostTable) and
//!   [`BackendResult`](crate::BackendResult) implement the
//!   [`Artifact`](crate::Artifact) trait whose `fingerprint()` hashes
//!   the artifact *content*.

use argo_adl::{
    Arbitration, CacheConfig, Core, CoreKind, CoreTiming, CostView, Interconnect, Platform,
};
use argo_sched::{CommModel, SchedCtx, TaskGraph};
use argo_wcet::value::ValueCtx;
use std::fmt;

use crate::{SchedulerKind, ToolchainConfig};

/// A stable 64-bit content hash (FNV-1a over length-prefixed parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Canonical 16-digit lower-case hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a hasher with length-prefixed parts.
///
/// Every `write_*` call prefixes its payload with the byte length, so
/// part boundaries are part of the hash and concatenation ambiguities
/// cannot collide.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    h: u64,
}

impl Default for FingerprintHasher {
    fn default() -> FingerprintHasher {
        FingerprintHasher::new()
    }
}

impl FingerprintHasher {
    /// Hasher at the FNV-1a offset basis.
    pub fn new() -> FingerprintHasher {
        FingerprintHasher {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one length-prefixed byte part.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.eat(&(bytes.len() as u64).to_le_bytes());
        self.eat(bytes);
        self
    }

    /// Feeds a UTF-8 string part.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    /// Feeds an unsigned integer part.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds a signed integer part.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds a boolean part.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_bytes(&[v as u8])
    }

    /// Feeds an optional signed integer (absence hashes distinctly from
    /// every present value).
    pub fn write_opt_i64(&mut self, v: Option<i64>) -> &mut Self {
        match v {
            None => self.write_bytes(b"none"),
            Some(v) => {
                self.write_bytes(b"some");
                self.write_i64(v)
            }
        }
    }

    /// Feeds a nested fingerprint.
    pub fn write_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.write_u64(fp.0)
    }

    /// Finishes the hash.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.h)
    }
}

/// Types with a canonical, API-owned content fingerprint.
///
/// Implementations feed every *behavior-relevant* field to the hasher
/// in a fixed documented order; cosmetic fields (display names) are
/// excluded.
pub trait Fingerprintable {
    /// Feeds this value's canonical encoding into `h`.
    fn feed(&self, h: &mut FingerprintHasher);

    /// The value's standalone fingerprint.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        self.feed(&mut h);
        h.finish()
    }
}

impl Fingerprintable for CoreTiming {
    fn feed(&self, h: &mut FingerprintHasher) {
        for v in [
            self.int_alu,
            self.int_mul,
            self.int_div,
            self.float_add,
            self.float_mul,
            self.float_div,
            self.cmp,
            self.logic,
            self.cast,
            self.branch,
            self.loop_overhead,
            self.call_overhead,
            self.local_access,
            self.intrinsic_default,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.intrinsic_latency.len() as u64);
        for (name, lat) in &self.intrinsic_latency {
            h.write_str(name).write_u64(*lat);
        }
    }
}

impl Fingerprintable for CacheConfig {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_u64(self.sets as u64)
            .write_u64(self.ways as u64)
            .write_u64(self.line_bytes)
            .write_u64(self.hit_cycles)
            .write_u64(self.miss_penalty);
    }
}

impl Fingerprintable for Arbitration {
    fn feed(&self, h: &mut FingerprintHasher) {
        match self {
            Arbitration::Tdma {
                slot_cycles,
                total_slots,
            } => {
                h.write_str("tdma")
                    .write_u64(*slot_cycles)
                    .write_u64(*total_slots);
            }
            Arbitration::Wrr {
                weights,
                slot_cycles,
            } => {
                h.write_str("wrr").write_u64(*slot_cycles);
                h.write_u64(weights.len() as u64);
                for w in weights {
                    h.write_u64(*w);
                }
            }
            Arbitration::FixedPriority { priorities } => {
                h.write_str("fixed-priority");
                h.write_u64(priorities.len() as u64);
                for p in priorities {
                    h.write_u64(*p as u64);
                }
            }
        }
    }
}

fn feed_cache(cache: Option<&CacheConfig>, h: &mut FingerprintHasher) {
    match cache {
        None => {
            h.write_str("no-cache");
        }
        Some(cfg) => {
            h.write_str("cache");
            cfg.feed(h);
        }
    }
}

fn feed_core(core: &Core, h: &mut FingerprintHasher) {
    h.write_u64(core.id.0 as u64);
    h.write_str(match core.kind {
        CoreKind::XentiumDsp => "xentium",
        CoreKind::Leon3Risc => "leon3",
        CoreKind::Custom => "custom",
    });
    core.timing.feed(h);
    h.write_u64(core.spm_bytes).write_u64(core.spm_latency);
    feed_cache(core.cache.as_ref(), h);
    h.write_u64(core.tile.0 as u64)
        .write_u64(core.tile.1 as u64);
}

/// Canonical fingerprint of one core's cost view: its timing table,
/// scratchpad latency, data cache and isolated shared-access price —
/// everything the code-level analysis reads for the core.
impl Fingerprintable for CostView<'_> {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("cost-view");
        self.timing.feed(h);
        h.write_u64(self.spm_latency);
        feed_cache(self.cache.as_ref(), h);
        h.write_u64(self.shared_access);
    }
}

/// Canonical platform fingerprint.
///
/// Covers every behavior-relevant field — cores (timing tables,
/// scratchpads, caches, tiles), shared memory and interconnect — and
/// deliberately **excludes** the cosmetic [`Platform::name`]: two
/// platforms differing only in name produce identical analysis results
/// and must share cache entries.
impl Fingerprintable for Platform {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("platform");
        h.write_u64(self.cores.len() as u64);
        for core in &self.cores {
            feed_core(core, h);
        }
        h.write_u64(self.shared.size_bytes)
            .write_u64(self.shared.latency);
        match &self.interconnect {
            Interconnect::Bus { arbitration } => {
                h.write_str("bus");
                arbitration.feed(h);
            }
            Interconnect::Noc {
                rows,
                cols,
                router_latency,
                link_latency,
                flit_bytes,
                wrr_weight,
            } => {
                h.write_str("noc")
                    .write_u64(*rows as u64)
                    .write_u64(*cols as u64)
                    .write_u64(*router_latency)
                    .write_u64(*link_latency)
                    .write_u64(*flit_bytes)
                    .write_u64(*wrr_weight);
            }
        }
    }
}

/// Canonical task-graph fingerprint: per-task costs and the dependence
/// edges — everything a scheduler observes. The cosmetic task `names`
/// and the `htg_ids` back-references are deliberately excluded: two
/// graphs differing only in labels schedule identically and must share
/// schedule-cache entries.
impl Fingerprintable for TaskGraph {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("task-graph");
        h.write_u64(self.cost.len() as u64);
        for &c in &self.cost {
            h.write_u64(c);
        }
        h.write_u64(self.edges.len() as u64);
        for &(from, to, bytes) in &self.edges {
            h.write_u64(from as u64)
                .write_u64(to as u64)
                .write_u64(bytes);
        }
    }
}

/// Canonical cache key for one mapping-stage invocation — the third
/// cache tier of `argo-dse`: the task graph (costs + edges), the
/// scheduling context's view (its comm model, core count and per-core
/// [`SchedCtx::shared_access`] prices) and the scheduler kind. Under
/// [`CommModel::SignalOnly`] or [`CommModel::Free`] that view is all a
/// scheduler reads of the platform, and every scheduler in the
/// workspace is a deterministic function of these inputs (the
/// annealer's seed is fixed), so two invocations with equal keys
/// produce identical [`argo_sched::Schedule`]s. A scratchpad capacity,
/// a timing table or a cache does not move the key.
///
/// # Panics
///
/// Panics on a [`CommModel::PlatformWorstCase`] context: its edge
/// prices read the interconnect and the edge volumes, not the table.
pub fn schedule_fingerprint(
    graph: &TaskGraph,
    ctx: &SchedCtx<'_>,
    scheduler: SchedulerKind,
) -> Fingerprint {
    let comm = match ctx.comm {
        CommModel::Free => "free",
        CommModel::SignalOnly => "signal-only",
        CommModel::PlatformWorstCase => {
            panic!("schedule_fingerprint does not cover platform-worst-case comm prices")
        }
    };
    let mut h = FingerprintHasher::new();
    h.write_str("schedule-inputs");
    graph.feed(&mut h);
    h.write_str(comm).write_u64(ctx.cores() as u64);
    for &price in ctx.shared_access() {
        h.write_u64(price);
    }
    h.write_str(scheduler.label());
    h.finish()
}

/// Canonical fingerprint of a program's slot resolution: per-function
/// frame layouts (name, frame length, slot symbol names in slot order,
/// parameter slots) plus the mirror's statement count. Resolution is a
/// pure function of the program, so this fingerprint is derivable from
/// the program fingerprint — feeding it into artifact hashes documents
/// the execution-shaped layout a cached artifact was built with, and
/// pins slot-assignment determinism cross-process (a resolver change
/// that reorders slots changes every artifact fingerprint loudly).
impl Fingerprintable for argo_ir::resolve::Resolution {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("resolution");
        h.write_u64(self.symbol_count() as u64);
        h.write_u64(self.stmt_count() as u64);
        h.write_u64(self.functions.len() as u64);
        for f in &self.functions {
            h.write_str(self.name(f.name));
            h.write_u64(f.frame_len as u64);
            for &sym in &f.slot_symbols {
                h.write_str(self.name(sym));
            }
            h.write_u64(f.params.len() as u64);
            for p in &f.params {
                h.write_u64(p.slot.0 as u64).write_bool(p.is_array);
            }
        }
    }
}

impl Fingerprintable for ValueCtx {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("value-ctx");
        h.write_u64(self.param_ranges.len() as u64);
        for (name, iv) in &self.param_ranges {
            h.write_str(name).write_opt_i64(iv.lo).write_opt_i64(iv.hi);
        }
    }
}

/// Canonical configuration fingerprint over every field, including the
/// backend-only ones (scheduler, MHP mode, feedback budget). Stage
/// cache keys use the narrower per-stage fingerprints on
/// [`Toolflow`](crate::Toolflow) instead, so sweeping a backend-only
/// axis still shares frontend artifacts.
impl Fingerprintable for ToolchainConfig {
    fn feed(&self, h: &mut FingerprintHasher) {
        h.write_str("toolchain-config");
        crate::feed_frontend_config(self, h);
        h.write_str(self.scheduler.label());
        h.write_str(self.mhp.label());
        h.write_u64(self.feedback_rounds as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_prefixing_separates_parts() {
        let a = FingerprintHasher::new()
            .write_str("ab")
            .write_str("c")
            .finish();
        let b = FingerprintHasher::new()
            .write_str("a")
            .write_str("bc")
            .finish();
        assert_ne!(a, b);
        let empty = FingerprintHasher::new().finish();
        let one_empty = FingerprintHasher::new().write_str("").finish();
        assert_ne!(empty, one_empty);
    }

    #[test]
    fn platform_fingerprint_ignores_cosmetic_name() {
        let a = Platform::xentium_manycore(4);
        let mut b = Platform::xentium_manycore(4);
        b.name = "renamed".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn platform_fingerprint_sees_behavioral_fields() {
        let base = Platform::xentium_manycore(4);
        assert_ne!(
            base.fingerprint(),
            Platform::xentium_manycore(2).fingerprint()
        );
        let mut spm = Platform::xentium_manycore(4);
        spm.cores[0].spm_bytes = 1;
        assert_ne!(base.fingerprint(), spm.fingerprint());
        assert_ne!(
            base.fingerprint(),
            Platform::kit_tile_noc(2, 2).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            Platform::xentium_manycore(4)
                .with_caches(CacheConfig::small())
                .fingerprint()
        );
    }

    #[test]
    fn config_fingerprint_sees_every_axis() {
        let base = ToolchainConfig::default();
        let variants = vec![
            ToolchainConfig {
                chunk_loops: false,
                ..base.clone()
            },
            ToolchainConfig {
                scheduler: SchedulerKind::Anneal,
                ..base.clone()
            },
            ToolchainConfig {
                mhp: argo_wcet::system::MhpMode::Windows,
                ..base.clone()
            },
            ToolchainConfig {
                feedback_rounds: 7,
                ..base.clone()
            },
            ToolchainConfig {
                granularity: argo_htg::Granularity::Stmt,
                ..base.clone()
            },
            ToolchainConfig {
                value_ctx: ValueCtx::with_param("n", 0, 9),
                ..base
            },
        ];
        let base_fp = base.fingerprint();
        for v in variants {
            assert_ne!(base_fp, v.fingerprint(), "variant not hashed: {v:?}");
        }
        assert_eq!(base_fp, ToolchainConfig::default().fingerprint());
    }
}
