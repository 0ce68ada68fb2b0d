//! Trace phase: functional execution producing per-task event timelines.
//!
//! Tasks run in schedule start order on a single shared frame (task-level
//! determinacy makes the order irrelevant for functional results);
//! privatized scalars are reset to the uninitialised state before every
//! task, so a task can never observe another task's value through them.
//! The `TimingHook` turns operations and accesses into events, at the
//! prices argo-adl lists (`CoreTiming::op_cost`, `CoreTiming::intrinsic`,
//! `Platform::private_access`) — the list the code-level analysis
//! charges: compute cycles accumulate locally, shared-memory accesses
//! become arbitration events for the timed replay.

use crate::{SimConfig, SimError, SimMode};
use argo_adl::cache::LruCache;
use argo_adl::{CoreId, Platform};
use argo_ir::interp::{ArgVal, ExecHook, Frame, Interp, OpClass};
use argo_ir::types::Scalar;
use argo_parir::ParallelProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One event of a task's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Local computation (ops + local/SPM accesses + cache hits) lasting
    /// the given number of cycles.
    Compute(u64),
    /// One shared-memory transaction (goes through the bus arbiter).
    SharedAccess,
}

/// The trace of one task: its event timeline.
pub type TaskTrace = Vec<Ev>;

/// Output of the trace phase.
pub struct Traced {
    /// Per-task timelines (indexed like the task graph).
    pub traces: Vec<TaskTrace>,
    /// The entry frame after all tasks ran (for output extraction).
    pub frame: Frame,
    /// Per-core cache statistics.
    pub cache_stats: Vec<(u64, u64)>,
}

/// Runs all tasks functionally and collects timelines.
///
/// # Errors
///
/// Returns [`SimError`] on interpreter errors or malformed plans.
pub fn trace_tasks(
    interp: &mut Interp<'_>,
    pp: &ParallelProgram,
    platform: &Platform,
    args: Vec<ArgVal>,
    cfg: &SimConfig,
) -> Result<Traced, SimError> {
    let entry = pp.program.function(pp.entry()).ok_or_else(|| SimError {
        msg: format!("no entry `{}`", pp.entry()),
    })?;
    let mut frame = interp.make_frame(entry, args)?;

    // Scalar types of privatized vars (for resets).
    let symbols = argo_ir::validate::symbol_table(entry);
    let privatized: Vec<(String, Scalar)> = pp
        .privatized()
        .iter()
        .filter_map(|v| symbols.get(v).map(|t| (v.clone(), t.elem())))
        .collect();

    // Per-core cache state persists across that core's tasks.
    let mut caches: Vec<Option<LruCache>> = platform
        .cores
        .iter()
        .map(|c| c.cache.map(LruCache::new))
        .collect();

    // Execute tasks in schedule start order (a valid topological order).
    let mut order: Vec<usize> = (0..pp.graph.len()).collect();
    order.sort_by_key(|&t| (pp.schedule.start[t], t));

    let mut rng = match cfg.mode {
        SimMode::WorstCase => None,
        SimMode::Random { seed } => Some(StdRng::seed_from_u64(seed)),
    };

    let mut traces: Vec<TaskTrace> = vec![Vec::new(); pp.graph.len()];
    for &t in &order {
        let core = pp.schedule.assignment[t];
        for (name, scalar) in &privatized {
            interp.reset_scalar(&mut frame, name, *scalar);
        }
        let mut hook = TimingHook {
            platform,
            core,
            mem: &pp.memory_map,
            events: Vec::new(),
            pending_compute: 0,
            cache: caches[core.0].take(),
            rng: rng.as_mut(),
        };
        for sid in pp.task_stmts(t) {
            // Statements are replayed through the slot-resolved mirror
            // by id — no AST lookup, no statement clone. A stale id
            // (plan out of sync with the program) is attributed to the
            // task up front, so genuine runtime errors propagate with
            // their messages untouched.
            if interp.resolution().stmt_loc(*sid).is_none() {
                return Err(SimError {
                    msg: format!("task {t}: no statement {sid}"),
                });
            }
            interp.exec_stmt_id(&mut frame, *sid, &mut hook)?;
        }
        hook.flush();
        caches[core.0] = hook.cache.take();
        traces[t] = hook.events;
    }

    let cache_stats = caches
        .iter()
        .map(|c| c.as_ref().map_or((0, 0), |c| (c.hits, c.misses)))
        .collect();
    Ok(Traced {
        traces,
        frame,
        cache_stats,
    })
}

/// The hook converting interpreter events into timeline events.
struct TimingHook<'a> {
    platform: &'a Platform,
    core: CoreId,
    mem: &'a argo_adl::MemoryMap,
    events: Vec<Ev>,
    pending_compute: u64,
    cache: Option<LruCache>,
    rng: Option<&'a mut StdRng>,
}

impl TimingHook<'_> {
    fn charge(&mut self, worst: u64) {
        let c = match self.rng.as_mut() {
            Some(rng) if worst > 0 => rng.gen_range(1..=worst),
            _ => worst,
        };
        self.pending_compute += c;
    }

    fn flush(&mut self) {
        if self.pending_compute > 0 {
            self.events.push(Ev::Compute(self.pending_compute));
            self.pending_compute = 0;
        }
    }

    fn shared_access(&mut self, var: &str, flat: Option<u64>) {
        match self.cache.as_mut() {
            Some(cache) => {
                // Concrete address from the memory map.
                let addr = match flat {
                    Some(i) => self.mem.elem_addr(var, i),
                    None => self.mem.placement(var).map_or(0, |p| p.base_addr),
                };
                let (_, hit) = cache.access(addr);
                let cfg = *cache.config();
                if hit {
                    self.charge(cfg.hit_cycles);
                } else {
                    // Miss: hit-detect latency locally, then the refill
                    // transaction goes through the bus.
                    self.charge(cfg.hit_cycles + cfg.miss_penalty);
                    self.flush();
                    self.events.push(Ev::SharedAccess);
                }
            }
            None => {
                self.flush();
                self.events.push(Ev::SharedAccess);
            }
        }
    }

    fn access(&mut self, base: &str, flat: Option<u64>) {
        match self
            .platform
            .private_access(self.core, self.mem.space_of(base))
        {
            Some(c) => self.charge(c),
            None => self.shared_access(base, flat),
        }
    }
}

impl ExecHook for TimingHook<'_> {
    fn on_op(&mut self, op: OpClass) {
        let c = self.platform.core(self.core).timing.op_cost(op);
        self.charge(c);
    }

    fn on_intrinsic(&mut self, name: &str) {
        let c = self.platform.core(self.core).timing.intrinsic(name);
        self.charge(c);
    }

    fn on_access(&mut self, base: &str) {
        self.access(base, None);
    }

    fn on_access_elem(&mut self, base: &str, flat: u64) {
        self.access(base, Some(flat));
    }
}

/// Total compute cycles (excluding bus time) of a trace — used by tests.
pub fn compute_cycles(trace: &TaskTrace) -> u64 {
    trace
        .iter()
        .map(|e| match e {
            Ev::Compute(c) => *c,
            Ev::SharedAccess => 0,
        })
        .sum()
}

/// Number of shared transactions in a trace.
pub fn shared_count(trace: &TaskTrace) -> u64 {
    trace
        .iter()
        .filter(|e| matches!(e, Ev::SharedAccess))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_adl::Platform;
    use argo_ir::resolve::Resolution;
    use argo_sched::evaluate_assignment;
    use argo_sched::{CommModel, SchedCtx, TaskGraph};
    use std::sync::Arc;

    fn build_pp(src: &str, platform: &Platform) -> ParallelProgram {
        let program = argo_ir::parse::parse_program(src).unwrap();
        let htg = argo_htg::extract::extract(
            &program,
            "main",
            argo_htg::Granularity::Loop,
            &Default::default(),
        )
        .unwrap();
        let costs: std::collections::BTreeMap<_, _> =
            htg.top_level.iter().map(|&t| (t, 10u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let ctx = SchedCtx::with_comm(platform, CommModel::Free);
        let schedule = evaluate_assignment(&graph, &ctx, &vec![CoreId(0); graph.len()]);
        let mem =
            argo_parir::mem_assign::assign(&program, &htg, &graph, &schedule, platform).unwrap();
        let (program, htg) = (Arc::new(program), Arc::new(htg));
        let resolution = Arc::new(Resolution::of(&program));
        ParallelProgram::build(program, resolution, htg, graph, schedule, mem, platform).unwrap()
    }

    const SRC: &str = r#"
        void main(real a[8], real b[8]) {
            int i;
            for (i = 0; i < 8; i = i + 1) { b[i] = a[i] * 2.0 + 1.0; }
        }
    "#;

    fn args() -> Vec<ArgVal> {
        vec![
            ArgVal::Array(argo_ir::interp::ArrayData::from_reals(&[1.0; 8])),
            ArgVal::Array(argo_ir::interp::ArrayData::from_reals(&[0.0; 8])),
        ]
    }

    #[test]
    fn consecutive_compute_coalesces() {
        // Single-core platform: arrays land in the SPM, so the whole task
        // is pure compute — the timeline must be a single Compute event.
        let platform = Platform::xentium_manycore(1);
        let pp = build_pp(SRC, &platform);
        let mut interp = Interp::new(&pp.program);
        let traced =
            trace_tasks(&mut interp, &pp, &platform, args(), &SimConfig::default()).unwrap();
        for t in &traced.traces {
            let computes = t.iter().filter(|e| matches!(e, Ev::Compute(_))).count();
            let shared = shared_count(t);
            if shared == 0 && !t.is_empty() {
                assert_eq!(computes, 1, "adjacent compute must coalesce: {t:?}");
            }
        }
    }

    #[test]
    fn shared_placement_emits_access_events() {
        // Force shared placement by shrinking the scratchpad to zero.
        let mut platform = Platform::xentium_manycore(1);
        platform.cores[0].spm_bytes = 0;
        let pp = build_pp(SRC, &platform);
        let mut interp = Interp::new(&pp.program);
        let traced =
            trace_tasks(&mut interp, &pp, &platform, args(), &SimConfig::default()).unwrap();
        let total_shared: u64 = traced.traces.iter().map(shared_count).sum();
        // 8 iterations × (read a + write b) = 16 element transactions.
        assert_eq!(total_shared, 16);
    }

    #[test]
    fn random_mode_charges_at_most_worst_case() {
        let platform = Platform::xentium_manycore(1);
        let pp = build_pp(SRC, &platform);
        let mut i1 = Interp::new(&pp.program);
        let worst = trace_tasks(&mut i1, &pp, &platform, args(), &SimConfig::default()).unwrap();
        let mut i2 = Interp::new(&pp.program);
        let rnd = trace_tasks(
            &mut i2,
            &pp,
            &platform,
            args(),
            &SimConfig {
                mode: SimMode::Random { seed: 3 },
            },
        )
        .unwrap();
        for (w, r) in worst.traces.iter().zip(&rnd.traces) {
            assert!(compute_cycles(r) <= compute_cycles(w));
            assert_eq!(
                shared_count(r),
                shared_count(w),
                "structure is timing-independent"
            );
        }
    }

    #[test]
    fn functional_outputs_match_reference() {
        let platform = Platform::xentium_manycore(1);
        let pp = build_pp(SRC, &platform);
        let mut interp = Interp::new(&pp.program);
        let traced =
            trace_tasks(&mut interp, &pp, &platform, args(), &SimConfig::default()).unwrap();
        let b = interp.array_of(&traced.frame, "b").unwrap().to_reals();
        assert_eq!(b, vec![3.0; 8]);
    }

    #[test]
    fn cache_statistics_are_collected() {
        let platform = Platform::xentium_manycore(1).with_caches(argo_adl::CacheConfig::small());
        let pp = build_pp(SRC, &platform);
        let mut interp = Interp::new(&pp.program);
        let traced =
            trace_tasks(&mut interp, &pp, &platform, args(), &SimConfig::default()).unwrap();
        let (hits, misses) = traced.cache_stats[0];
        assert!(misses > 0, "cold cache must miss");
        assert!(
            hits > 0,
            "8-element arrays share 32-byte lines: hits expected"
        );
    }
}
