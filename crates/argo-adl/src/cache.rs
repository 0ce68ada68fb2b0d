//! Data-cache configuration and a dynamic LRU set-associative model.
//!
//! The paper's § III-B argues that "scratchpad memories are preferred to
//! caches because they enable more precise WCET estimation". The E6
//! ablation quantifies that argument: the same kernel is analysed and
//! simulated once with scratchpads and once with this cache. The static
//! side (must/persistence classification) lives in `argo-wcet`; this module
//! provides the configuration shared by analysis and simulation plus the
//! dynamic LRU model the simulator executes.

/// Configuration of a private LRU set-associative data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_cycles: u64,
    /// Additional miss penalty in cycles (shared-memory refill, before
    /// arbitration interference).
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// A small 1 KiB, 2-way cache with 32-byte lines — deliberately tight
    /// so the ablation shows capacity misses.
    pub fn small() -> CacheConfig {
        CacheConfig {
            sets: 16,
            ways: 2,
            line_bytes: 32,
            hit_cycles: 1,
            miss_penalty: 12,
        }
    }

    /// A 16 KiB, 4-way cache with 32-byte lines.
    pub fn large() -> CacheConfig {
        CacheConfig {
            sets: 128,
            ways: 4,
            line_bytes: 32,
            hit_cycles: 1,
            miss_penalty: 12,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Number of distinct lines the cache can hold.
    pub fn capacity_lines(&self) -> u64 {
        self.sets as u64 * self.ways as u64
    }

    /// The memory block (line address) containing byte address `addr`.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// The set index of a block.
    pub fn set_of(&self, block: u64) -> usize {
        (block % self.sets as u64) as usize
    }
}

/// Dynamic LRU cache state, used by the platform simulator.
#[derive(Debug, Clone)]
pub struct LruCache {
    cfg: CacheConfig,
    /// Per set: blocks ordered most-recently-used first.
    sets: Vec<Vec<u64>>,
    /// Statistics: total hits.
    pub hits: u64,
    /// Statistics: total misses.
    pub misses: u64,
}

impl LruCache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> LruCache {
        LruCache {
            cfg,
            sets: vec![Vec::new(); cfg.sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Performs an access to byte address `addr`; returns the latency and
    /// whether it hit.
    pub fn access(&mut self, addr: u64) -> (u64, bool) {
        let block = self.cfg.block_of(addr);
        let set = self.cfg.set_of(block);
        let lru = &mut self.sets[set];
        if let Some(pos) = lru.iter().position(|&b| b == block) {
            lru.remove(pos);
            lru.insert(0, block);
            self.hits += 1;
            (self.cfg.hit_cycles, true)
        } else {
            lru.insert(0, block);
            if lru.len() > self.cfg.ways {
                lru.pop();
            }
            self.misses += 1;
            (self.cfg.hit_cycles + self.cfg.miss_penalty, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let c = CacheConfig::small();
        assert_eq!(c.capacity_bytes(), 1024);
        assert_eq!(c.capacity_lines(), 32);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = LruCache::new(CacheConfig::small());
        let (_, hit) = c.access(0x100);
        assert!(!hit);
        let (lat, hit) = c.access(0x104); // same 32-byte line
        assert!(hit);
        assert_eq!(lat, 1);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way: after touching 3 blocks mapping to the same set, the
        // first is evicted.
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 32,
            hit_cycles: 1,
            miss_penalty: 10,
        };
        let mut c = LruCache::new(cfg);
        c.access(0); // block 0
        c.access(32); // block 1
        c.access(64); // block 2 — evicts block 0
        let (_, hit) = c.access(0);
        assert!(!hit, "block 0 must have been evicted");
        let (_, hit) = c.access(64);
        assert!(hit, "block 2 still resident");
    }

    #[test]
    fn lru_promotion_on_hit() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 32,
            hit_cycles: 1,
            miss_penalty: 10,
        };
        let mut c = LruCache::new(cfg);
        c.access(0);
        c.access(32);
        c.access(0); // promote block 0
        c.access(64); // evicts block 1 (LRU), not block 0
        let (_, hit) = c.access(0);
        assert!(hit);
    }

    #[test]
    fn working_set_within_capacity_eventually_all_hits() {
        let cfg = CacheConfig::small();
        let mut c = LruCache::new(cfg);
        let addrs: Vec<u64> = (0..cfg.capacity_lines())
            .map(|i| i * cfg.line_bytes)
            .collect();
        for &a in &addrs {
            c.access(a);
        }
        let before = c.misses;
        for _ in 0..3 {
            for &a in &addrs {
                c.access(a);
            }
        }
        assert_eq!(c.misses, before, "steady state: no further misses");
    }
}
