//! Worst-case per-operation core timing tables.
//!
//! Every operation class the interpreter reports ([`OpClass`]) has a
//! worst-case latency in cycles, read through [`CoreTiming::op_cost`];
//! intrinsics are priced by name through [`CoreTiming::intrinsic`]. These
//! two functions and [`crate::Platform::private_access`] are the one
//! price list of the toolflow: the code-level WCET analysis (`argo-wcet`)
//! charges them statically and the platform simulator (`argo-sim`)
//! charges them per executed event, so the two sides cannot drift apart.
//! The tables are deliberately simple — in-order, fully
//! timing-compositional cores, as § III-B demands ("the contribution of
//! individual components to the overall system's timing can be considered
//! separately").

use argo_ir::interp::OpClass;
use std::collections::BTreeMap;

/// Worst-case latency table of one core.
///
/// Latencies are *architectural worst cases*: the code-level WCET analysis
/// charges exactly these values, and the simulator never exceeds them
/// (its per-op cost is drawn in `[best, worst]`, see `argo-sim`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreTiming {
    /// Integer add/sub/bit/address ops.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide / remainder.
    pub int_div: u64,
    /// Float add/sub/neg.
    pub float_add: u64,
    /// Float multiply.
    pub float_mul: u64,
    /// Float divide.
    pub float_div: u64,
    /// Comparison.
    pub cmp: u64,
    /// Boolean logic.
    pub logic: u64,
    /// Scalar cast.
    pub cast: u64,
    /// Branch resolution (no dynamic prediction: fixed cost — § III-B
    /// forbids hard-to-predict speculative mechanisms).
    pub branch: u64,
    /// Per-iteration loop bookkeeping (increment + test + back jump).
    pub loop_overhead: u64,
    /// Call/return linkage.
    pub call_overhead: u64,
    /// Local (register/stack scalar) access.
    pub local_access: u64,
    /// Per-intrinsic worst-case latencies; [`CoreTiming::intrinsic`] falls
    /// back to `intrinsic_default` for names not in the map.
    pub intrinsic_latency: BTreeMap<String, u64>,
    /// Fallback intrinsic latency.
    pub intrinsic_default: u64,
}

impl CoreTiming {
    /// Xentium-like DSP: single-cycle ALU and MAC, hardware FP, modest
    /// divide.
    pub fn xentium() -> CoreTiming {
        CoreTiming {
            int_alu: 1,
            int_mul: 1,
            int_div: 12,
            float_add: 2,
            float_mul: 2,
            float_div: 16,
            cmp: 1,
            logic: 1,
            cast: 1,
            branch: 2,
            loop_overhead: 2,
            call_overhead: 6,
            local_access: 1,
            intrinsic_latency: standard_intrinsics(20),
            intrinsic_default: 30,
        }
    }

    /// Leon3-like in-order RISC: slower multiplier and software-ish FP.
    pub fn leon3() -> CoreTiming {
        CoreTiming {
            int_alu: 1,
            int_mul: 4,
            int_div: 35,
            float_add: 4,
            float_mul: 4,
            float_div: 24,
            cmp: 1,
            logic: 1,
            cast: 2,
            branch: 3,
            loop_overhead: 3,
            call_overhead: 10,
            local_access: 1,
            intrinsic_latency: standard_intrinsics(40),
            intrinsic_default: 60,
        }
    }

    /// Worst-case latency of one operation of class `op`.
    /// [`OpClass::Intrinsic`] costs 0 here: intrinsics are charged by
    /// name through [`CoreTiming::intrinsic`].
    pub fn op_cost(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::IntDiv => self.int_div,
            OpClass::FloatAdd => self.float_add,
            OpClass::FloatMul => self.float_mul,
            OpClass::FloatDiv => self.float_div,
            OpClass::Cmp => self.cmp,
            OpClass::Logic => self.logic,
            OpClass::Cast => self.cast,
            OpClass::Intrinsic => 0,
            OpClass::Branch => self.branch,
            OpClass::LoopOverhead => self.loop_overhead,
            OpClass::CallOverhead => self.call_overhead,
        }
    }

    /// Worst-case latency of a named intrinsic.
    pub fn intrinsic(&self, name: &str) -> u64 {
        self.intrinsic_latency
            .get(name)
            .copied()
            .unwrap_or(self.intrinsic_default)
    }
}

impl Default for CoreTiming {
    fn default() -> CoreTiming {
        CoreTiming::xentium()
    }
}

fn standard_intrinsics(base: u64) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for (name, factor) in [
        ("sqrt", 1),
        ("sin", 2),
        ("cos", 2),
        ("tan", 3),
        ("atan2", 3),
        ("exp", 2),
        ("log", 2),
        ("pow", 4),
        ("floor", 1),
        ("fabs", 1),
        ("fmin", 1),
        ("fmax", 1),
        ("iabs", 1),
        ("imin", 1),
        ("imax", 1),
    ] {
        // Cheap select-style intrinsics cost a couple of cycles, the
        // transcendental ones scale with `base`.
        let cycles = if factor == 1
            && matches!(
                name,
                "fabs" | "fmin" | "fmax" | "iabs" | "imin" | "imax" | "floor"
            ) {
            2
        } else {
            base * factor
        };
        m.insert(name.to_string(), cycles);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operation class, in declaration order.
    const ALL_OPS: [OpClass; 13] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FloatAdd,
        OpClass::FloatMul,
        OpClass::FloatDiv,
        OpClass::Cmp,
        OpClass::Logic,
        OpClass::Cast,
        OpClass::Intrinsic,
        OpClass::Branch,
        OpClass::LoopOverhead,
        OpClass::CallOverhead,
    ];

    fn op_total(t: &CoreTiming) -> u64 {
        ALL_OPS.iter().map(|&op| t.op_cost(op)).sum()
    }

    #[test]
    fn presets_are_distinct_and_sane() {
        let x = CoreTiming::xentium();
        let l = CoreTiming::leon3();
        assert!(
            l.op_cost(OpClass::FloatMul) > x.op_cost(OpClass::FloatMul),
            "leon3 FP slower than DSP"
        );
        assert!(x.op_cost(OpClass::IntAlu) >= 1 && l.op_cost(OpClass::IntAlu) >= 1);
        assert!(op_total(&l) > op_total(&x));
    }

    #[test]
    fn every_priced_op_costs_at_least_a_cycle_on_every_preset() {
        for t in [CoreTiming::xentium(), CoreTiming::leon3()] {
            for op in ALL_OPS {
                let c = t.op_cost(op);
                if op == OpClass::Intrinsic {
                    assert_eq!(c, 0, "intrinsics are charged by name");
                } else {
                    assert!(c >= 1, "{op:?} costs {c}");
                }
            }
        }
    }

    #[test]
    fn intrinsic_lookup_and_fallback() {
        let t = CoreTiming::xentium();
        assert_eq!(t.intrinsic("sqrt"), 20);
        assert_eq!(t.intrinsic("fmax"), 2);
        assert_eq!(t.intrinsic("unknown_intrinsic"), t.intrinsic_default);
    }

    #[test]
    fn transcendental_costs_exceed_selects() {
        let t = CoreTiming::leon3();
        assert!(t.intrinsic("atan2") > t.intrinsic("fmin"));
        assert!(t.intrinsic("pow") > t.intrinsic("sqrt"));
    }
}
