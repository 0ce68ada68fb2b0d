//! # argo-parir — explicitly parallel program model
//!
//! "The result of the scheduling/mapping stage is used to transform the
//! initial program representation into an explicit parallel program model,
//! in which the synchronizations are made explicit, and the final memory
//! address mapping of the variables and the buffers is obtained." (paper
//! § II-C)
//!
//! A [`ParallelProgram`] is the frontend's program, its slot
//! resolution and its HTG, shared behind `Arc`s rather than copied,
//! plus the mapping:
//!
//! * the scheduled task graph and its [`Schedule`];
//! * per-core [`CorePlan`]s — ordered task executions interleaved with
//!   explicit [`Step::Signal`]/[`Step::Wait`] operations, one signal per
//!   cross-core dependence edge;
//! * the final [`argo_adl::MemoryMap`] assigning every variable to a
//!   memory space and address, as computed by [`mem_assign::assign`]
//!   for that schedule.
//!
//! The entry function, the privatized-scalar set the executor must
//! honour and each task's statements are read from the HTG
//! ([`ParallelProgram::entry`], [`ParallelProgram::privatized`],
//! [`ParallelProgram::task_stmts`]).
//!
//! The platform simulator (`argo-sim`) executes this object; the
//! system-level WCET analysis (`argo-wcet`) analyses it. [`emit`] renders
//! it as per-core pseudo-C for inspection.

pub mod emit;
pub mod mem_assign;

use argo_adl::{CoreId, MemoryMap, Platform};
use argo_htg::Htg;
use argo_ir::ast::Program;
use argo_ir::resolve::Resolution;
use argo_ir::StmtId;
use argo_sched::{Schedule, TaskGraph};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Identifier of a synchronization signal (one per cross-core edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub usize);

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig{}", self.0)
    }
}

/// One step of a core's static plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Execute task `task` (index into the [`TaskGraph`]).
    Exec {
        /// Task index.
        task: usize,
    },
    /// Block until `signal` has been raised.
    Wait {
        /// The signal to wait for.
        signal: SignalId,
        /// The task whose completion this signal conveys (for reports).
        producer: usize,
    },
    /// Raise `signal` (after the producing task finished and its data is
    /// visible).
    Signal {
        /// The signal to raise.
        signal: SignalId,
        /// The consuming task (for reports).
        consumer: usize,
    },
}

/// The static plan of one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePlan {
    /// The core this plan runs on.
    pub core: CoreId,
    /// Ordered steps.
    pub steps: Vec<Step>,
}

/// A fully constructed explicitly parallel program.
#[derive(Debug, Clone)]
pub struct ParallelProgram {
    /// The (transformed) IR the tasks refer to, shared with the
    /// frontend artifact it came from.
    pub program: Arc<Program>,
    /// The slot resolution of `program`, shared likewise; the
    /// simulator's interpreter and `argo-verify`'s lint execute it.
    pub resolution: Arc<Resolution>,
    /// The HTG the task graph was built from, shared likewise.
    pub htg: Arc<Htg>,
    /// The task graph that was scheduled.
    pub graph: TaskGraph,
    /// The schedule (mapping + times).
    pub schedule: Schedule,
    /// Per-core plans with explicit synchronization.
    pub plans: Vec<CorePlan>,
    /// Final variable placement.
    pub memory_map: MemoryMap,
    /// Total number of signals allocated.
    pub signal_count: usize,
}

/// Error from parallel-model construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ParirError {
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel model error: {}", self.msg)
    }
}

impl std::error::Error for ParirError {}

impl ParallelProgram {
    /// Builds the explicit parallel model from the scheduling artefacts
    /// and the memory map [`mem_assign::assign`] computed for them.
    /// `resolution` must be [`Resolution::of`] an equal `program`.
    ///
    /// One signal is allocated per dependence edge whose endpoints are on
    /// different cores; the producer raises it immediately after the task,
    /// the consumer waits immediately before.
    ///
    /// # Errors
    ///
    /// Returns [`ParirError`] if the schedule and graph disagree.
    pub fn build(
        program: Arc<Program>,
        resolution: Arc<Resolution>,
        htg: Arc<Htg>,
        graph: TaskGraph,
        schedule: Schedule,
        memory_map: MemoryMap,
        platform: &Platform,
    ) -> Result<ParallelProgram, ParirError> {
        if schedule.assignment.len() != graph.len() {
            return Err(ParirError {
                msg: format!(
                    "schedule covers {} tasks but graph has {}",
                    schedule.assignment.len(),
                    graph.len()
                ),
            });
        }
        // Signals for cross-core edges.
        let mut signals: Vec<(usize, usize, SignalId)> = Vec::new(); // (from, to, id)
        for &(f, t, _) in &graph.edges {
            if schedule.assignment[f] != schedule.assignment[t] {
                let id = SignalId(signals.len());
                signals.push((f, t, id));
            }
        }
        // Per-core ordered tasks.
        let mut plans = Vec::with_capacity(platform.core_count());
        for c in 0..platform.core_count() {
            let core = CoreId(c);
            let mut steps = Vec::new();
            for t in schedule.tasks_on(core) {
                // Waits first (one per incoming cross-core edge).
                for &(f, to, id) in &signals {
                    if to == t {
                        steps.push(Step::Wait {
                            signal: id,
                            producer: f,
                        });
                    }
                }
                steps.push(Step::Exec { task: t });
                for &(from, to, id) in &signals {
                    if from == t {
                        steps.push(Step::Signal {
                            signal: id,
                            consumer: to,
                        });
                    }
                }
            }
            plans.push(CorePlan { core, steps });
        }
        Ok(ParallelProgram {
            program,
            resolution,
            htg,
            graph,
            schedule,
            plans,
            memory_map,
            signal_count: signals.len(),
        })
    }

    /// Entry function name.
    pub fn entry(&self) -> &str {
        &self.htg.function
    }

    /// Scalars the executor must privatize per task (reset to their
    /// program-initial value before each task executes).
    pub fn privatized(&self) -> &BTreeSet<String> {
        &self.htg.privatizable
    }

    /// Statement ids of task `t` (indexed like [`ParallelProgram::graph`]).
    pub fn task_stmts(&self, t: usize) -> &[StmtId] {
        &self.htg.task(self.graph.htg_ids[t]).stmts
    }

    /// Checks plan sanity: every task appears exactly once, every signal
    /// is raised exactly once and awaited exactly once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let mut exec_seen = vec![0usize; self.graph.len()];
        let mut raised = vec![0usize; self.signal_count];
        let mut awaited = vec![0usize; self.signal_count];
        for plan in &self.plans {
            for s in &plan.steps {
                match s {
                    Step::Exec { task } => exec_seen[*task] += 1,
                    Step::Signal { signal, .. } => raised[signal.0] += 1,
                    Step::Wait { signal, .. } => awaited[signal.0] += 1,
                }
            }
        }
        for (t, &n) in exec_seen.iter().enumerate() {
            if n != 1 {
                return Err(format!("task {t} executed {n} times"));
            }
        }
        for s in 0..self.signal_count {
            if raised[s] != 1 || awaited[s] != 1 {
                return Err(format!(
                    "signal {s} raised {} times, awaited {} times",
                    raised[s], awaited[s]
                ));
            }
        }
        Ok(())
    }

    /// The number of cross-core synchronizations — a headline metric of
    /// the parallelization ("the number of shared resource contenders …
    /// is reduced during parallelization", § II).
    pub fn sync_count(&self) -> usize {
        self.signal_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_htg::{extract::extract, Granularity};
    use argo_ir::parse::parse_program;
    use argo_sched::list::ListScheduler;
    use argo_sched::{SchedCtx, Scheduler};
    use std::collections::BTreeMap;

    const PIPE: &str = r#"
        void main(real a[64], real b[64], real c[64], real d[64]) {
            int i;
            for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }
            for (i = 0; i < 64; i = i + 1) { c[i] = a[i] + 1.0; }
            for (i = 0; i < 64; i = i + 1) { d[i] = b[i] + c[i]; }
        }
    "#;

    fn build_pipe(cores: usize) -> ParallelProgram {
        let program = parse_program(PIPE).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<_, _> = htg.top_level.iter().map(|&t| (t, 1000u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = argo_adl::Platform::xentium_manycore(cores);
        let ctx = SchedCtx::new(&platform);
        let schedule = ListScheduler::new().schedule(&graph, &ctx);
        let mem = mem_assign::assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        let (program, htg) = (Arc::new(program), Arc::new(htg));
        let resolution = Arc::new(Resolution::of(&program));
        ParallelProgram::build(program, resolution, htg, graph, schedule, mem, &platform).unwrap()
    }

    #[test]
    fn builds_and_validates() {
        let pp = build_pipe(2);
        pp.validate().unwrap();
        assert_eq!(pp.plans.len(), 2);
    }

    #[test]
    fn single_core_has_no_signals() {
        let pp = build_pipe(1);
        pp.validate().unwrap();
        assert_eq!(pp.sync_count(), 0);
        let execs: Vec<usize> = pp.plans[0]
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Exec { task } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(execs.len(), pp.graph.len());
    }

    #[test]
    fn cross_core_edges_get_signals() {
        let pp = build_pipe(2);
        let cross = pp
            .graph
            .edges
            .iter()
            .filter(|&&(f, t, _)| pp.schedule.assignment[f] != pp.schedule.assignment[t])
            .count();
        assert_eq!(pp.sync_count(), cross);
    }

    #[test]
    fn induction_variable_is_privatized() {
        let pp = build_pipe(2);
        assert!(pp.privatized().contains("i"));
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        let program = parse_program(PIPE).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<_, _> = htg.top_level.iter().map(|&t| (t, 10u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = argo_adl::Platform::xentium_manycore(2);
        let bad = Schedule {
            assignment: vec![CoreId(0)],
            start: vec![0],
            finish: vec![10],
        };
        let (program, htg) = (Arc::new(program), Arc::new(htg));
        let resolution = Arc::new(Resolution::of(&program));
        let built = ParallelProgram::build(
            program,
            resolution,
            htg,
            graph,
            bad,
            MemoryMap::new(),
            &platform,
        );
        assert!(built.is_err());
    }
}
