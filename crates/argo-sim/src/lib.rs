//! # argo-sim — deterministic multi-core platform simulator
//!
//! Executes a `argo_parir::ParallelProgram` on an `argo_adl::Platform`
//! model and reports the observed cycle count. The simulator plays the
//! role the FPGA prototypes play in the project (§ IV-C): the testbed on
//! which WCET bounds are *validated* — every integration test asserts
//! `observed cycles ≤ analysed bound`.
//!
//! Two phases:
//!
//! 1. **Trace** ([`trace`]) — tasks execute functionally through the
//!    `argo-ir` interpreter in schedule order on a shared frame (with
//!    per-task privatized-scalar resets), while a hook converts every
//!    operation and memory access into a per-task event timeline
//!    (`Compute(n)` / `SharedAccess`) at argo-adl's prices, the ones the
//!    code-level analysis (`argo-wcet`) charges: operations
//!    (`CoreTiming::op_cost`), intrinsics (`CoreTiming::intrinsic`) and
//!    the local and own-scratchpad accesses `Platform::private_access`
//!    prices accrue as compute; any other access is shared, where a
//!    cache hit accrues as compute and a miss (after its refill cycles)
//!    or an uncached access becomes a `SharedAccess` for the replay
//!    below to arbitrate. Task statement lists are replayed by id
//!    through the interpreter's slot-resolved program mirror
//!    (`argo_ir::resolve`), so the per-statement drive path performs no
//!    AST lookups, statement clones or string hashing. Task-level
//!    determinacy (guaranteed by the dependence analysis) makes the
//!    trace independent of the interleaving, so functional results
//!    equal the sequential reference.
//! 2. **Timed replay** ([`bus`]) — a discrete-event simulation replays the
//!    timelines on the cores, arbitrating every shared access through the
//!    platform's bus model (TDMA / WRR / fixed-priority) and honouring the
//!    explicit signal/wait synchronization. NoC platforms are modelled as
//!    the memory-port bottleneck plus deterministic per-core route
//!    latency (the analytic bound covers in-route contention, so the
//!    simulation under-approximates it — sound for validation).
//!
//! [`SimMode::WorstCase`] charges architectural worst-case latencies per
//! operation; [`SimMode::Random`] draws per-operation latencies uniformly
//! from `[1, worst]` (seeded), which is how the average-vs-worst-case gap
//! experiments are produced.

pub mod bus;
pub mod trace;

use argo_adl::{CoreId, Interconnect, Platform};
use argo_ir::interp::{ArgVal, ArrayData, Interp, RuntimeError};
use argo_parir::ParallelProgram;
use std::fmt;

/// Simulation timing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Every operation takes its architectural worst-case latency.
    WorstCase,
    /// Per-operation latencies drawn uniformly from `[1, worst]` with the
    /// given seed (average-case behaviour).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Timing mode.
    pub mode: SimMode,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            mode: SimMode::WorstCase,
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Observed makespan in cycles.
    pub cycles: u64,
    /// Observed per-task start times.
    pub task_start: Vec<u64>,
    /// Observed per-task finish times.
    pub task_finish: Vec<u64>,
    /// Total cycles spent waiting for bus grants (arbitration).
    pub bus_wait_cycles: u64,
    /// Number of shared-memory transactions issued.
    pub bus_transactions: u64,
    /// Final contents of the entry function's array parameters.
    pub outputs: Vec<(String, ArrayData)>,
    /// Per-core cache statistics `(hits, misses)`; zeros without caches.
    pub cache_stats: Vec<(u64, u64)>,
}

/// Simulation error.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError {
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.msg)
    }
}

impl std::error::Error for SimError {}

impl From<RuntimeError> for SimError {
    fn from(e: RuntimeError) -> SimError {
        SimError { msg: e.msg }
    }
}

/// Runs the parallel program on the platform with the given entry
/// arguments.
///
/// # Errors
///
/// Returns [`SimError`] on interpreter runtime errors (out-of-bounds,
/// exceeded loop bounds — i.e. unsound annotations), plan inconsistencies
/// or deadlocks.
pub fn simulate(
    pp: &ParallelProgram,
    platform: &Platform,
    args: Vec<ArgVal>,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    pp.validate().map_err(|msg| SimError { msg })?;
    // Phase 1: functional execution + per-task traces.
    let mut interp = Interp::with_resolution(&pp.program, &pp.resolution);
    let traced = trace::trace_tasks(&mut interp, pp, platform, args, cfg)?;

    // Phase 2: timed replay.
    let replay = bus::replay(pp, platform, &traced.traces)?;

    // Collect outputs (entry array parameters).
    let entry = pp.program.function(pp.entry()).ok_or_else(|| SimError {
        msg: format!("no entry `{}`", pp.entry()),
    })?;
    let mut outputs = Vec::new();
    for p in &entry.params {
        if p.ty.is_array() {
            let arr = interp
                .array_of(&traced.frame, &p.name)
                .map_err(SimError::from)?
                .clone();
            outputs.push((p.name.clone(), arr));
        }
    }
    Ok(SimResult {
        cycles: replay.makespan,
        task_start: replay.task_start,
        task_finish: replay.task_finish,
        bus_wait_cycles: replay.bus_wait_cycles,
        bus_transactions: replay.bus_transactions,
        outputs,
        cache_stats: traced.cache_stats,
    })
}

/// Runs the *sequential* program through the interpreter and returns the
/// final array-parameter contents — the functional oracle.
///
/// # Errors
///
/// Propagates interpreter runtime errors.
pub fn sequential_reference(
    program: &argo_ir::Program,
    entry: &str,
    args: Vec<ArgVal>,
) -> Result<Vec<(String, ArrayData)>, SimError> {
    let mut interp = Interp::new(program);
    let out = interp
        .call_full(entry, args, &mut argo_ir::interp::NullHook)
        .map_err(SimError::from)?;
    Ok(out.arrays)
}

/// Deterministic per-core route latency used for NoC platforms: the
/// uncontended XY route to the memory tile at `(0, 0)`.
pub(crate) fn noc_route_latency(platform: &Platform, core: CoreId) -> u64 {
    match &platform.interconnect {
        Interconnect::Bus { .. } => 0,
        Interconnect::Noc {
            router_latency,
            link_latency,
            ..
        } => {
            let tile = platform.core(core).tile;
            let hops = (tile.0 + tile.1) as u64 + 1;
            hops * (router_latency + link_latency)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_worst_case() {
        assert_eq!(SimConfig::default().mode, SimMode::WorstCase);
    }

    #[test]
    fn noc_route_latency_grows_with_distance() {
        let p = Platform::kit_tile_noc(2, 2);
        assert!(noc_route_latency(&p, CoreId(3)) > noc_route_latency(&p, CoreId(0)));
        let bus = Platform::xentium_manycore(2);
        assert_eq!(noc_route_latency(&bus, CoreId(1)), 0);
    }
}
