//! Worst-case arbitration bounds for shared resources.
//!
//! The paper's central architectural requirement (§ III-B) is a
//! *predictable interconnect*: "(i) worst-case delay for gaining access to
//! the interconnect; (ii) worst-case delay for copying/getting the
//! information, once access is granted". This module provides exactly those
//! two bounds for three bus arbitration policies and for an XY-routed mesh
//! NoC with WRR link arbitration (the iNoC model of ref \[12\]).
//!
//! All bounds are *analytic worst cases*; `argo-sim` implements the same
//! policies dynamically, and the integration tests check
//! `simulated wait ≤ analytic bound` for every policy.

use std::fmt;

/// Bus arbitration policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arbitration {
    /// Time-division multiple access: each core owns one fixed slot of
    /// `slot_cycles` in a round of `total_slots` slots (one per platform
    /// core). Fully time-compositional: the bound does not depend on the
    /// number of *active* contenders at all.
    Tdma {
        /// Slot length in cycles (extended to the transaction length when
        /// transactions are longer).
        slot_cycles: u64,
        /// Slots per round — the total number of cores on the platform.
        total_slots: u64,
    },
    /// Weighted round-robin: requestor `i` is served at most after every
    /// other *active* contender has used its weight's worth of slots.
    Wrr {
        /// Per-core weights (index = core id).
        weights: Vec<u64>,
        /// Cycles per slot.
        slot_cycles: u64,
    },
    /// Fixed priority (lower index in `priorities` = served first).
    /// Predictable only for the highest-priority core; low-priority cores
    /// suffer a bound that grows with every higher-priority contender —
    /// the paper's argument for avoiding such schemes.
    FixedPriority {
        /// `priorities[c]` is the priority rank of core `c` (0 = highest).
        priorities: Vec<usize>,
    },
}

impl fmt::Display for Arbitration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arbitration::Tdma { .. } => write!(f, "tdma"),
            Arbitration::Wrr { .. } => write!(f, "wrr"),
            Arbitration::FixedPriority { .. } => write!(f, "fixedprio"),
        }
    }
}

impl Arbitration {
    /// Worst-case number of cycles core `core` waits for the bus grant,
    /// given that at most `contenders` cores (including `core`) may
    /// request concurrently and one granted transaction occupies the bus
    /// for `txn_cycles`.
    pub fn worst_wait(&self, core: usize, contenders: usize, txn_cycles: u64) -> u64 {
        let others = contenders.saturating_sub(1) as u64;
        match self {
            // TDMA: the request can just miss the core's slot and must
            // wait for the full remaining round, regardless of actual
            // contention (predictable but wasteful at low load).
            Arbitration::Tdma {
                slot_cycles,
                total_slots,
            } => {
                let slot = (*slot_cycles).max(txn_cycles);
                slot * total_slots.saturating_sub(1) + slot.saturating_sub(1)
            }
            // WRR: at most Σ w_j slots of other *active* contenders are
            // served first; each occupied slot blocks for slot_cycles
            // (slots sized to cover one transaction's bus occupancy). At
            // most `others` contenders are simultaneously active, and for
            // a sound bound we must assume the *largest-weight* subset is.
            Arbitration::Wrr {
                weights,
                slot_cycles,
            } => {
                // Sum of the `others` largest weights excluding `core`,
                // by repeated selection over the (small) weight table —
                // this sits under every comm/shared-access bound the
                // schedulers and WCET analyses compute, so it must not
                // allocate or sort per call.
                let mut w_others = 0u64;
                let mut prev = (u64::MAX, usize::MAX);
                let mut remaining = others;
                while remaining > 0 {
                    let mut best: Option<(u64, usize)> = None;
                    for (j, &w) in weights.iter().enumerate() {
                        if j == core || (w, j) >= prev {
                            continue;
                        }
                        if best.is_none_or(|b| (w, j) > b) {
                            best = Some((w, j));
                        }
                    }
                    let Some((w, j)) = best else { break };
                    w_others += w;
                    prev = (w, j);
                    remaining -= 1;
                }
                // One non-preemptible transaction may already be in
                // service when the request arrives (blocking term).
                let blocking = if others > 0 { txn_cycles } else { 0 };
                w_others * (*slot_cycles).max(txn_cycles) + blocking
            }
            // Fixed priority with hardware anti-starvation aging (the
            // simulator's arbiter): a request is overtaken by at most
            // `higher` fresh higher-priority requests before it ages;
            // aged requests are served FCFS, so at most `others` aged
            // requests plus one in-flight transaction precede it. Without
            // the aging guarantee no finite bound exists under sustained
            // higher-priority traffic — exactly the predictability
            // problem § III-B warns about.
            Arbitration::FixedPriority { priorities } => {
                if others == 0 {
                    return 0;
                }
                let my_rank = priorities.get(core).copied().unwrap_or(usize::MAX);
                let higher: u64 = priorities
                    .iter()
                    .enumerate()
                    .filter(|&(j, &r)| j != core && r < my_rank)
                    .count()
                    .min(others as usize) as u64;
                (higher + others + 1) * txn_cycles
            }
        }
    }
}

/// Worst-case latency for a packet of `flits` flits to traverse `hops`
/// router hops on an XY mesh, where each output link arbitrates WRR over
/// at most `link_contenders` other requestors of weight `contender_weight`.
///
/// The bound follows the iNoC guarantee structure \[12\]: per hop, the head
/// flit waits at most one full WRR round of the other contenders, then the
/// packet streams at one flit per `link_latency` (wormhole, no preemption
/// within a packet because WRR slots are packet-sized).
pub fn noc_worst_route_latency(
    hops: u64,
    flits: u64,
    router_latency: u64,
    link_latency: u64,
    link_contenders: u64,
    contender_weight: u64,
) -> u64 {
    let blocking = if link_contenders > 0 {
        link_latency * flits
    } else {
        0
    };
    let per_hop_wait = link_contenders * contender_weight * link_latency * flits + blocking;
    let head = hops * (router_latency + link_latency + per_hop_wait);
    let body = flits.saturating_sub(1) * link_latency;
    head + body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdma_bound_is_contender_independent() {
        let a = Arbitration::Tdma {
            slot_cycles: 8,
            total_slots: 4,
        };
        let w1 = a.worst_wait(0, 1, 10);
        let w4 = a.worst_wait(0, 4, 10);
        // The bound is identical regardless of how many cores actually
        // contend: full time compositionality (§ III-B).
        assert_eq!(w1, w4);
        // Round of 4 slots of max(8, 10)=10: wait 3*10 + 9.
        assert_eq!(w4, 39);
    }

    #[test]
    fn wrr_wait_grows_with_contenders() {
        let a = Arbitration::Wrr {
            weights: vec![1; 8],
            slot_cycles: 4,
        };
        let mut prev = 0;
        for k in 1..=8 {
            let w = a.worst_wait(0, k, 12);
            assert!(w >= prev);
            prev = w;
        }
        assert_eq!(a.worst_wait(0, 1, 12), 0, "no contention, no wait");
    }

    #[test]
    fn wrr_respects_weights() {
        // Core 0 has weight 4, others weight 1: core 1 waits longer than
        // core 0 would with the roles reversed.
        let a = Arbitration::Wrr {
            weights: vec![4, 1, 1, 1],
            slot_cycles: 4,
        };
        let wait_of_low = a.worst_wait(1, 2, 12); // may wait for weight-4 core
        let b = Arbitration::Wrr {
            weights: vec![1, 1, 1, 1],
            slot_cycles: 4,
        };
        let wait_uniform = b.worst_wait(1, 2, 12);
        assert!(wait_of_low > wait_uniform);
    }

    #[test]
    fn fixed_priority_favours_high_priority() {
        let a = Arbitration::FixedPriority {
            priorities: vec![0, 1, 2, 3],
        };
        let top = a.worst_wait(0, 4, 12);
        let bottom = a.worst_wait(3, 4, 12);
        assert!(bottom > top);
        // Highest priority: no fresh overtakes, but up to 3 aged requests
        // plus one in flight.
        assert_eq!(top, 48);
        assert_eq!(bottom, 84);
    }

    #[test]
    fn fixed_priority_no_contention_no_wait() {
        let a = Arbitration::FixedPriority {
            priorities: vec![0, 1],
        };
        assert_eq!(a.worst_wait(1, 1, 12), 0);
    }

    #[test]
    fn noc_latency_monotone_in_all_parameters() {
        let base = noc_worst_route_latency(2, 4, 3, 1, 1, 1);
        assert!(noc_worst_route_latency(3, 4, 3, 1, 1, 1) > base, "hops");
        assert!(noc_worst_route_latency(2, 8, 3, 1, 1, 1) > base, "flits");
        assert!(
            noc_worst_route_latency(2, 4, 3, 1, 3, 1) > base,
            "contenders"
        );
        assert!(noc_worst_route_latency(2, 4, 3, 1, 1, 4) > base, "weights");
    }

    #[test]
    fn noc_uncontended_is_pure_pipeline() {
        // 1 hop, 1 flit, no contenders: router + link.
        assert_eq!(noc_worst_route_latency(1, 1, 3, 1, 0, 1), 4);
        // 4 flits stream behind the head.
        assert_eq!(noc_worst_route_latency(1, 4, 3, 1, 0, 1), 4 + 3);
    }
}
