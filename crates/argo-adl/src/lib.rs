//! # argo-adl — Architecture Description Language
//!
//! "The supported hardware platforms are also specified using a model-based
//! approach thanks to the ARGO Architecture Description Language (ADL). The
//! proposed ADL provides all the information required by the tool-chain
//! (processors, memory, interconnect, etc.) to calculate WCETs." (paper
//! § II-A).
//!
//! This crate models the two platform families of § IV-C as parameterised,
//! fully deterministic abstract machines:
//!
//! * a **Xentium-like DSP many-core** (Recore) — single-cycle integer ALU,
//!   fast MAC, scratchpad memories, shared bus;
//! * a **Leon3 + iNoC tile many-core** (KIT) — slower in-order RISC cores on
//!   a 2-D mesh NoC whose routers arbitrate with weighted round-robin
//!   (WRR), giving the bandwidth/latency guarantees \[12\] the system-level
//!   WCET analysis needs.
//!
//! [`PlatformKind`] names the two families for the command-line drivers
//! and the design-space explorer, and builds either one for a core
//! count (the NoC on a near-square grid).
//!
//! The module layout:
//!
//! * [`timing`] — per-operation worst-case core timing tables;
//! * [`interference`] — worst-case shared-resource arbitration bounds
//!   (TDMA, WRR, fixed-priority bus; mesh NoC links);
//! * [`cache`] — optional data-cache configuration + LRU set model (used
//!   for the cache-vs-scratchpad predictability ablation);
//! * [`mem`] — memory spaces and the array → memory placement map.
//!
//! # Examples
//!
//! ```
//! use argo_adl::{Platform, CoreId};
//!
//! let p = Platform::xentium_manycore(4);
//! assert_eq!(p.cores.len(), 4);
//! // Worst-case shared-memory access cost with all 4 cores contending
//! // is strictly higher than the uncontended cost:
//! let wc = p.worst_case_shared_access(CoreId(0), 4);
//! assert!(p.worst_case_shared_access(CoreId(0), 1) < wc);
//! ```

pub mod cache;
pub mod interference;
pub mod mem;
pub mod timing;

pub use cache::CacheConfig;
pub use interference::{noc_worst_route_latency, Arbitration};
pub use mem::{MemSpace, MemoryMap, Placement};
pub use timing::CoreTiming;

use std::fmt;

/// Identifier of a core within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Family of a core's timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Xentium-like VLIW DSP (Recore Systems).
    XentiumDsp,
    /// Leon3-like in-order RISC (KIT tile).
    Leon3Risc,
    /// Fully custom timing table.
    Custom,
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CoreKind::XentiumDsp => "xentium",
            CoreKind::Leon3Risc => "leon3",
            CoreKind::Custom => "custom",
        })
    }
}

/// One processing core.
#[derive(Debug, Clone, PartialEq)]
pub struct Core {
    /// Core id (== index in [`Platform::cores`]).
    pub id: CoreId,
    /// Timing-model family.
    pub kind: CoreKind,
    /// Worst-case per-operation timing table.
    pub timing: CoreTiming,
    /// Private scratchpad capacity in bytes (0 = no scratchpad).
    pub spm_bytes: u64,
    /// Scratchpad access latency in cycles.
    pub spm_latency: u64,
    /// Optional private data cache (used instead of the scratchpad for the
    /// predictability ablation — paper § III-B advises against caches).
    pub cache: Option<CacheConfig>,
    /// Tile coordinates on the NoC mesh (`(0, i)` for bus platforms).
    pub tile: (usize, usize),
}

/// Shared-memory parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemory {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Raw (uncontended) access latency in cycles, excluding arbitration.
    pub latency: u64,
}

/// The interconnect between cores and shared memory.
#[derive(Debug, Clone, PartialEq)]
pub enum Interconnect {
    /// A single shared bus with the given arbitration policy.
    Bus {
        /// Arbitration policy.
        arbitration: Arbitration,
    },
    /// A 2-D mesh NoC with XY routing and per-link WRR arbitration
    /// (the iNoC model, paper ref \[12\]).
    Noc {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
        /// Per-hop router traversal latency in cycles.
        router_latency: u64,
        /// Per-flit link traversal latency in cycles.
        link_latency: u64,
        /// Payload bytes per flit.
        flit_bytes: u64,
        /// WRR weight of every requestor at each link.
        wrr_weight: u64,
    },
}

/// A complete platform description: the ADL object model.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Platform name (for reports).
    pub name: String,
    /// Cores, indexed by [`CoreId`].
    pub cores: Vec<Core>,
    /// The single shared memory visible to all cores.
    pub shared: SharedMemory,
    /// Interconnect between cores and shared memory.
    pub interconnect: Interconnect,
}

/// One core's prices as the code-level analysis reads them
/// ([`Platform::cost_view`]): two cores with equal views cost every
/// statement alike under the same placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostView<'a> {
    /// The core's timing table.
    pub timing: &'a CoreTiming,
    /// The core's scratchpad latency.
    pub spm_latency: u64,
    /// The core's data cache, if any.
    pub cache: Option<CacheConfig>,
    /// One shared-memory access with no other contender:
    /// `worst_case_shared_access(core, 1)`.
    pub shared_access: u64,
}

/// Error for malformed platform descriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformError {
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "platform error: {}", self.msg)
    }
}

impl std::error::Error for PlatformError {}

impl Platform {
    /// A homogeneous Xentium-like DSP many-core with `n` cores, 16 KiB
    /// scratchpads and a WRR shared bus — the Recore-style platform of
    /// § IV-C.
    pub fn xentium_manycore(n: usize) -> Platform {
        let cores = (0..n)
            .map(|i| Core {
                id: CoreId(i),
                kind: CoreKind::XentiumDsp,
                timing: CoreTiming::xentium(),
                spm_bytes: 16 * 1024,
                spm_latency: 1,
                cache: None,
                tile: (0, i),
            })
            .collect();
        Platform {
            name: format!("xentium{n}-wrr"),
            cores,
            shared: SharedMemory {
                size_bytes: 16 << 20,
                latency: 12,
            },
            interconnect: Interconnect::Bus {
                arbitration: Arbitration::Wrr {
                    weights: vec![1; n],
                    slot_cycles: 4,
                },
            },
        }
    }

    /// A KIT-style tile many-core: Leon3-like cores on a `rows × cols`
    /// mesh with WRR (iNoC) routers, 8 KiB scratchpads.
    pub fn kit_tile_noc(rows: usize, cols: usize) -> Platform {
        let mut cores = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                cores.push(Core {
                    id: CoreId(r * cols + c),
                    kind: CoreKind::Leon3Risc,
                    timing: CoreTiming::leon3(),
                    spm_bytes: 8 * 1024,
                    spm_latency: 2,
                    cache: None,
                    tile: (r, c),
                });
            }
        }
        Platform {
            name: format!("kit-{rows}x{cols}-inoc"),
            cores,
            shared: SharedMemory {
                size_bytes: 64 << 20,
                latency: 20,
            },
            interconnect: Interconnect::Noc {
                rows,
                cols,
                router_latency: 3,
                link_latency: 1,
                flit_bytes: 8,
                wrr_weight: 1,
            },
        }
    }

    /// A generic homogeneous bus platform with an explicit arbitration
    /// policy — used by the architecture-predictability ablation (E6).
    pub fn generic_bus(n: usize, arbitration: Arbitration) -> Platform {
        let mut p = Platform::xentium_manycore(n);
        p.name = format!("generic{n}-{arbitration}");
        p.interconnect = Interconnect::Bus { arbitration };
        p
    }

    /// Replaces every core's scratchpad with a data cache (predictability
    /// ablation: § III-B recommends scratchpads *over* caches).
    pub fn with_caches(mut self, cfg: CacheConfig) -> Platform {
        for c in &mut self.cores {
            c.spm_bytes = 0;
            c.cache = Some(cfg);
        }
        self.name = format!("{}-cached", self.name);
        self
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Looks up a core.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.0]
    }

    /// Validates internal consistency (ids, mesh shape, weights).
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.cores.is_empty() {
            return Err(PlatformError {
                msg: "platform has no cores".into(),
            });
        }
        for (i, c) in self.cores.iter().enumerate() {
            if c.id.0 != i {
                return Err(PlatformError {
                    msg: format!("core at index {i} has id {}", c.id.0),
                });
            }
            if c.spm_bytes > 0 && c.cache.is_some() {
                return Err(PlatformError {
                    msg: format!("{} has both a scratchpad and a cache", c.id),
                });
            }
        }
        match &self.interconnect {
            Interconnect::Bus { arbitration } => {
                if let Arbitration::Wrr { weights, .. } = arbitration {
                    if weights.len() != self.cores.len() {
                        return Err(PlatformError {
                            msg: format!(
                                "WRR weight count {} != core count {}",
                                weights.len(),
                                self.cores.len()
                            ),
                        });
                    }
                    if weights.contains(&0) {
                        return Err(PlatformError {
                            msg: "WRR weights must be positive".into(),
                        });
                    }
                }
                if let Arbitration::FixedPriority { priorities } = arbitration {
                    if priorities.len() != self.cores.len() {
                        return Err(PlatformError {
                            msg: "fixed-priority list length != core count".into(),
                        });
                    }
                }
            }
            Interconnect::Noc { rows, cols, .. } => {
                if rows * cols < self.cores.len() {
                    return Err(PlatformError {
                        msg: format!(
                            "mesh {rows}x{cols} too small for {} cores",
                            self.cores.len()
                        ),
                    });
                }
                for c in &self.cores {
                    if c.tile.0 >= *rows || c.tile.1 >= *cols {
                        return Err(PlatformError {
                            msg: format!("{} tile {:?} outside mesh", c.id, c.tile),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Worst-case cost in cycles for `core` to access a variable in
    /// `space` without the interconnect: the core's `local_access` for
    /// [`MemSpace::Local`], its `spm_latency` for its own scratchpad.
    /// Any other space gives `None` and the access is a shared one
    /// ([`Platform::worst_case_shared_access`], behind the data cache if
    /// the core has one) — including another core's scratchpad, which
    /// placement never assigns. The code-level analysis and the
    /// simulator both route every access through here.
    pub fn private_access(&self, core: CoreId, space: MemSpace) -> Option<u64> {
        let c = self.core(core);
        match space {
            MemSpace::Local => Some(c.timing.local_access),
            MemSpace::Spm(owner) if owner == core => Some(c.spm_latency),
            MemSpace::Spm(_) | MemSpace::Shared => None,
        }
    }

    /// Everything the code-level analysis prices on `core`: its timing
    /// table, its scratchpad latency, its data cache and its isolated
    /// shared-access price. Scratchpad capacities, other cores, tiles
    /// and arbitration parameters reach the core's costs only through
    /// that one price.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cost_view(&self, core: CoreId) -> CostView<'_> {
        let c = self.core(core);
        CostView {
            timing: &c.timing,
            spm_latency: c.spm_latency,
            cache: c.cache,
            shared_access: self.worst_case_shared_access(core, 1),
        }
    }

    /// Worst-case cost in cycles for `core` to complete one shared-memory
    /// access when at most `contenders` cores (including `core`) may
    /// access the shared resource concurrently.
    ///
    /// This is the cost model the system-level WCET analysis uses: "a cost
    /// model of the interference derived from the platform abstract
    /// models" (paper § II-D). The returned value includes the raw memory
    /// latency plus the worst-case arbitration wait.
    pub fn worst_case_shared_access(&self, core: CoreId, contenders: usize) -> u64 {
        let contenders = contenders.clamp(1, self.cores.len());
        match &self.interconnect {
            Interconnect::Bus { arbitration } => {
                self.shared.latency
                    + arbitration.worst_wait(core.0, contenders, self.shared.latency)
            }
            Interconnect::Noc {
                rows: _,
                cols,
                router_latency,
                link_latency,
                flit_bytes,
                wrr_weight,
            } => {
                // Shared memory sits at tile (0, 0); worst-case route from
                // the core's tile, one 8-byte word per access.
                let tile = self.core(core).tile;
                let hops = (tile.0 + tile.1) as u64 + 1;
                let flits = 8u64.div_ceil(*flit_bytes).max(1);
                // The memory controller port serializes transactions:
                // up to (k-1) queued requests plus one in flight.
                let port_wait = if contenders > 1 {
                    contenders as u64 * self.shared.latency
                } else {
                    0
                };
                self.shared.latency
                    + port_wait
                    + noc_worst_route_latency(
                        hops,
                        flits,
                        *router_latency,
                        *link_latency,
                        // On an XY-routed mesh at most 3 other input ports
                        // (plus local) compete per output link; bounded by
                        // the remaining contenders.
                        (contenders as u64 - 1).min(4.min(*cols as u64 + 1)),
                        *wrr_weight,
                    )
            }
        }
    }

    /// Worst-case cost of communicating `bytes` from `from` to `to`
    /// (through shared memory on bus platforms, across the mesh on NoC
    /// platforms) with `contenders` concurrent requestors.
    pub fn worst_case_comm(&self, from: CoreId, to: CoreId, bytes: u64, contenders: usize) -> u64 {
        if from == to {
            return 0;
        }
        let words = bytes.div_ceil(8).max(1);
        match &self.interconnect {
            Interconnect::Bus { .. } => {
                // Producer writes then consumer reads each word.
                words
                    * (self.worst_case_shared_access(from, contenders)
                        + self.worst_case_shared_access(to, contenders))
            }
            Interconnect::Noc {
                router_latency,
                link_latency,
                flit_bytes,
                wrr_weight,
                ..
            } => {
                let a = self.core(from).tile;
                let b = self.core(to).tile;
                let hops = (a.0.abs_diff(b.0) + a.1.abs_diff(b.1)) as u64;
                let flits = (words * 8).div_ceil(*flit_bytes).max(1);
                noc_worst_route_latency(
                    hops.max(1),
                    flits,
                    *router_latency,
                    *link_latency,
                    (contenders as u64).saturating_sub(1).min(4),
                    *wrr_weight,
                )
            }
        }
    }
}

/// The two target platform families of § III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// Recore Xentium-style many-core on a WRR shared bus
    /// ([`Platform::xentium_manycore`]).
    Bus,
    /// KIT tile-based NoC, cores on a near-square grid
    /// ([`Platform::kit_tile_noc`]).
    Noc,
}

impl PlatformKind {
    /// Every family, in the order the CLIs list them.
    pub const ALL: [PlatformKind; 2] = [PlatformKind::Bus, PlatformKind::Noc];

    /// Short label used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            PlatformKind::Bus => "bus",
            PlatformKind::Noc => "noc",
        }
    }

    /// Parses a [`PlatformKind::label`]; the error names the accepted
    /// labels.
    pub fn parse(s: &str) -> Result<PlatformKind, String> {
        let labels = PlatformKind::ALL.map(|k| k.label());
        PlatformKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| format!("unknown platform `{s}` (expected {})", labels.join("|")))
    }

    /// Builds the concrete platform for `cores` cores, optionally
    /// overriding every core's scratchpad capacity.
    pub fn build(&self, cores: usize, spm_bytes: Option<u64>) -> Platform {
        let mut platform = match self {
            PlatformKind::Bus => Platform::xentium_manycore(cores),
            PlatformKind::Noc => {
                let (rows, cols) = near_square_grid(cores);
                Platform::kit_tile_noc(rows, cols)
            }
        };
        if let Some(bytes) = spm_bytes {
            for core in &mut platform.cores {
                core.spm_bytes = bytes;
            }
        }
        platform
    }
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Factors `n` into the most square `rows × cols` grid with `rows ≤ cols`.
fn near_square_grid(n: usize) -> (usize, usize) {
    let n = n.max(1);
    let mut rows = (n as f64).sqrt() as usize;
    while rows > 1 && !n.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), n / rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Platform::xentium_manycore(4).validate().unwrap();
        Platform::kit_tile_noc(2, 3).validate().unwrap();
        Platform::generic_bus(
            2,
            Arbitration::Tdma {
                slot_cycles: 8,
                total_slots: 2,
            },
        )
        .validate()
        .unwrap();
    }

    #[test]
    fn contention_increases_worst_case_cost() {
        let p = Platform::xentium_manycore(8);
        let c = CoreId(0);
        let mut prev = 0;
        for k in 1..=8 {
            let wc = p.worst_case_shared_access(c, k);
            assert!(wc >= prev, "monotone in contenders");
            prev = wc;
        }
        assert!(p.worst_case_shared_access(c, 8) > p.worst_case_shared_access(c, 1));
    }

    #[test]
    fn private_access_prices_local_and_own_spm_only() {
        for p in [Platform::xentium_manycore(4), Platform::kit_tile_noc(2, 2)] {
            let (c0, c1) = (CoreId(0), CoreId(1));
            assert_eq!(
                p.private_access(c0, MemSpace::Local),
                Some(p.core(c0).timing.local_access),
                "{}",
                p.name
            );
            assert_eq!(
                p.private_access(c1, MemSpace::Spm(c1)),
                Some(p.core(c1).spm_latency),
                "{}",
                p.name
            );
            assert_eq!(p.private_access(c0, MemSpace::Spm(c1)), None, "{}", p.name);
            assert_eq!(p.private_access(c0, MemSpace::Shared), None, "{}", p.name);
        }
    }

    #[test]
    fn contenders_clamped_to_core_count() {
        let p = Platform::xentium_manycore(2);
        assert_eq!(
            p.worst_case_shared_access(CoreId(0), 2),
            p.worst_case_shared_access(CoreId(0), 99)
        );
    }

    #[test]
    fn noc_cost_grows_with_distance() {
        let p = Platform::kit_tile_noc(4, 4);
        let near = p.worst_case_shared_access(CoreId(0), 1); // tile (0,0)
        let far = p.worst_case_shared_access(CoreId(15), 1); // tile (3,3)
        assert!(far > near);
    }

    #[test]
    fn comm_cost_zero_on_same_core() {
        let p = Platform::kit_tile_noc(2, 2);
        assert_eq!(p.worst_case_comm(CoreId(1), CoreId(1), 4096, 4), 0);
        assert!(p.worst_case_comm(CoreId(0), CoreId(3), 4096, 4) > 0);
    }

    #[test]
    fn comm_cost_scales_with_volume() {
        let p = Platform::xentium_manycore(4);
        let small = p.worst_case_comm(CoreId(0), CoreId(1), 64, 2);
        let big = p.worst_case_comm(CoreId(0), CoreId(1), 6400, 2);
        assert!(big > small * 50);
    }

    #[test]
    fn validation_catches_bad_wrr_weights() {
        let mut p = Platform::xentium_manycore(4);
        p.interconnect = Interconnect::Bus {
            arbitration: Arbitration::Wrr {
                weights: vec![1, 1],
                slot_cycles: 4,
            },
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_cache_plus_spm() {
        let mut p = Platform::xentium_manycore(2);
        p.cores[0].cache = Some(CacheConfig::small());
        assert!(p.validate().is_err());
        let p2 = Platform::xentium_manycore(2).with_caches(CacheConfig::small());
        p2.validate().unwrap();
    }

    #[test]
    fn near_square_grids_are_exact() {
        for n in 1..=32 {
            let (r, c) = near_square_grid(n);
            assert_eq!(r * c, n, "grid for {n}");
            assert!(r <= c);
        }
        assert_eq!(near_square_grid(4), (2, 2));
        assert_eq!(near_square_grid(8), (2, 4));
        assert_eq!(near_square_grid(7), (1, 7));
    }

    #[test]
    fn platform_build_applies_spm_override() {
        let p = PlatformKind::Bus.build(2, Some(4096));
        assert!(p.cores.iter().all(|c| c.spm_bytes == 4096));
        assert_eq!(p.core_count(), 2);
        let q = PlatformKind::Noc.build(6, None);
        assert_eq!(q.core_count(), 6);
        q.validate().unwrap();
    }

    #[test]
    fn validation_catches_mesh_overflow() {
        let mut p = Platform::kit_tile_noc(2, 2);
        p.cores[3].tile = (5, 5);
        assert!(p.validate().is_err());
    }
}
