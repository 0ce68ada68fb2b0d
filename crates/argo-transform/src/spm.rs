//! WCET-directed scratchpad allocation (paper ref \[6\]).
//!
//! Chooses which arrays to place in a core's scratchpad to maximise the
//! WCET cycles saved, subject to the SPM capacity — a 0/1 knapsack. Two
//! solvers are provided: an exact dynamic program (capacity quantised to
//! words) and the greedy density heuristic; the E5 ablation compares both
//! against shared-memory-only placement.
//!
//! The *gain* of placing a variable is
//! `accesses × (shared_cost − spm_cost)`: access counts are the HTG
//! tasks' worst-case counts (§ II-B), costs come from the ADL.

/// One placement candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmCandidate {
    /// Variable name.
    pub name: String,
    /// Footprint in bytes.
    pub size_bytes: u64,
    /// WCET cycles saved if placed in the scratchpad.
    pub gain_cycles: u64,
}

/// Result of an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmAllocation {
    /// Names chosen for the scratchpad.
    pub chosen: Vec<String>,
    /// Total bytes used.
    pub used_bytes: u64,
    /// Total WCET cycles saved.
    pub saved_cycles: u64,
}

/// Exact 0/1-knapsack allocation via dynamic programming over capacity
/// quantised to 8-byte words. Exact as long as all sizes are multiples of
/// 8 (always true for mini-C arrays of `int`/`real`).
///
/// The table spans `min(capacity, Σ candidate sizes)` words, so its size
/// follows the program, not the requested capacity. That stays exact:
/// once every candidate fits, each backtrack step sees a capacity of at
/// least the remaining candidates' total, so the table takes exactly the
/// positive-gain candidates, as a full-width one does.
pub fn allocate_exact(candidates: &[SpmCandidate], capacity_bytes: u64) -> SpmAllocation {
    let n = candidates.len();
    if n == 0 || capacity_bytes / 8 == 0 {
        return SpmAllocation {
            chosen: vec![],
            used_bytes: 0,
            saved_cycles: 0,
        };
    }
    let total_words = candidates
        .iter()
        .fold(0u64, |sum, c| sum.saturating_add(c.size_bytes.div_ceil(8)));
    let words = (capacity_bytes / 8).min(total_words) as usize;
    // dp[w] = best gain with capacity w; keep choice bits per item.
    let mut dp = vec![0u64; words + 1];
    let mut take = vec![vec![false; words + 1]; n];
    for (i, c) in candidates.iter().enumerate() {
        let item_words = (c.size_bytes.div_ceil(8)) as usize;
        if item_words > words {
            continue;
        }
        for w in (item_words..=words).rev() {
            let cand = dp[w - item_words] + c.gain_cycles;
            if cand > dp[w] {
                dp[w] = cand;
                take[i][w] = true;
            }
        }
    }
    // Backtrack.
    let mut w = words;
    let mut chosen = Vec::new();
    let mut used = 0u64;
    let mut saved = 0u64;
    for i in (0..n).rev() {
        if take[i][w] {
            let c = &candidates[i];
            chosen.push(c.name.clone());
            used += c.size_bytes;
            saved += c.gain_cycles;
            w -= (c.size_bytes.div_ceil(8)) as usize;
        }
    }
    chosen.reverse();
    SpmAllocation {
        chosen,
        used_bytes: used,
        saved_cycles: saved,
    }
}

/// Greedy allocation by gain density (cycles saved per byte).
pub fn allocate_greedy(candidates: &[SpmCandidate], capacity_bytes: u64) -> SpmAllocation {
    let mut order: Vec<&SpmCandidate> = candidates.iter().filter(|c| c.size_bytes > 0).collect();
    order.sort_by(|a, b| {
        let da = a.gain_cycles as f64 / a.size_bytes as f64;
        let db = b.gain_cycles as f64 / b.size_bytes as f64;
        db.partial_cmp(&da).unwrap().then(a.name.cmp(&b.name))
    });
    let mut used = 0u64;
    let mut saved = 0u64;
    let mut chosen = Vec::new();
    for c in order {
        if used + c.size_bytes <= capacity_bytes {
            used += c.size_bytes;
            saved += c.gain_cycles;
            chosen.push(c.name.clone());
        }
    }
    SpmAllocation {
        chosen,
        used_bytes: used,
        saved_cycles: saved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(name: &str, size: u64, gain: u64) -> SpmCandidate {
        SpmCandidate {
            name: name.into(),
            size_bytes: size,
            gain_cycles: gain,
        }
    }

    #[test]
    fn exact_beats_or_matches_greedy() {
        // Classic greedy trap: one dense small item + one large item that
        // together overflow; optimal takes the two mid items.
        let cands = vec![
            cand("a", 512, 600),
            cand("b", 512, 600),
            cand("c", 1024, 1100),
            cand("d", 64, 150),
        ];
        for cap in [512u64, 1024, 1088, 2048] {
            let e = allocate_exact(&cands, cap);
            let g = allocate_greedy(&cands, cap);
            assert!(e.saved_cycles >= g.saved_cycles, "cap={cap}");
            assert!(e.used_bytes <= cap);
            assert!(g.used_bytes <= cap);
        }
    }

    #[test]
    fn exact_finds_known_optimum() {
        let cands = vec![cand("x", 600, 60), cand("y", 600, 60), cand("z", 1000, 95)];
        // Capacity 1200: exact takes x+y (120), greedy by density takes
        // x+y too (density 0.1 > 0.095) — craft a trap instead:
        let trap = vec![
            cand("dense", 700, 100),
            cand("a", 600, 80),
            cand("b", 600, 80),
        ];
        let e = allocate_exact(&trap, 1200);
        assert_eq!(e.saved_cycles, 160, "optimal skips the dense item");
        let g = allocate_greedy(&trap, 1200);
        assert_eq!(g.saved_cycles, 100, "greedy falls into the density trap");
        let _ = cands;
    }

    #[test]
    fn zero_capacity_places_nothing() {
        let cands = vec![cand("a", 8, 100)];
        assert!(allocate_exact(&cands, 0).chosen.is_empty());
        assert!(allocate_greedy(&cands, 0).chosen.is_empty());
    }

    #[test]
    fn everything_fits_when_capacity_is_large() {
        let cands = vec![cand("a", 100, 10), cand("b", 200, 20)];
        let e = allocate_exact(&cands, 1 << 20);
        assert_eq!(e.chosen.len(), 2);
        assert_eq!(e.saved_cycles, 30);
    }

    #[test]
    fn capacity_beyond_the_candidates_total_places_as_the_total() {
        let cands = vec![
            cand("a", 100, 10),
            cand("b", 200, 0),
            cand("c", 64, 7),
            cand("d", 8, 1),
        ];
        let total: u64 = cands.iter().map(|c| c.size_bytes.div_ceil(8) * 8).sum();
        let at_total = allocate_exact(&cands, total);
        assert_eq!(allocate_exact(&cands, u64::MAX), at_total);
        assert_eq!(allocate_exact(&cands, 1 << 40), at_total);
        assert_eq!(at_total.chosen, vec!["a", "c", "d"]);
    }

    #[test]
    fn oversized_items_are_skipped() {
        let cands = vec![cand("huge", 1 << 20, 1_000_000), cand("small", 64, 10)];
        let e = allocate_exact(&cands, 1024);
        assert_eq!(e.chosen, vec!["small".to_string()]);
    }

    #[test]
    fn greedy_is_deterministic_under_ties() {
        let cands = vec![cand("b", 64, 64), cand("a", 64, 64)];
        let g1 = allocate_greedy(&cands, 64);
        let g2 = allocate_greedy(&cands, 64);
        assert_eq!(g1, g2);
        assert_eq!(g1.chosen, vec!["a".to_string()]);
    }
}
