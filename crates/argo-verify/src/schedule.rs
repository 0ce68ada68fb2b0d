//! Schedule, placement and communication-ordering validation.
//!
//! [`check_schedule`] re-checks a [`Schedule`] against the
//! [`TaskGraph`] it claims to realize — every constraint the
//! schedulers promise to uphold is re-derived here independently:
//!
//! * structural sanity (assignment length, core ids in range, finish =
//!   start + cost);
//! * acyclicity of the graph itself (a Kahn pass, so a cyclic graph
//!   yields a finding instead of the [`TaskGraphIndex`] panic);
//! * precedence: every edge's consumer starts after its producer's
//!   finish plus the cross-core communication cost, walked through the
//!   CSR [`TaskGraphIndex`];
//! * per-core exclusivity: no two tasks on one core overlap;
//! * scratchpad budgets: the placement fits every core's SPM
//!   ([`ErrorCode::PlacementOverflow`]).
//!
//! [`check_plans`] validates the explicitly parallel program's
//! synchronization: every task executed exactly once, every signal
//! raised/awaited exactly once, signals raised only after their
//! producing task, waits issued before their consuming task, and every
//! cross-core edge protected by some signal/wait pair
//! ([`ErrorCode::CommOrdering`]).

use crate::{Finding, Severity};
use argo_adl::{CoreId, MemoryMap, Platform};
use argo_core::{Diagnostic, ErrorCode, Stage};
use argo_parir::{ParallelProgram, Step};
use argo_sched::{CommModel, SchedCtx, Schedule, TaskGraph, TaskGraphIndex};

fn err(code: ErrorCode, message: String) -> Finding {
    Finding::new(
        Severity::Error,
        Diagnostic::new(Stage::Verify, code, message),
    )
}

fn err_at(code: ErrorCode, entity: String, message: String) -> Finding {
    Finding::new(
        Severity::Error,
        Diagnostic::new(Stage::Verify, code, message).with_entity(entity),
    )
}

/// Kahn's algorithm; `true` iff the graph is acyclic.
fn is_acyclic(g: &TaskGraph) -> bool {
    let n = g.len();
    let mut indeg = vec![0usize; n];
    for &(_, t, _) in &g.edges {
        indeg[t] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(t) = queue.pop() {
        seen += 1;
        for &(f, s, _) in &g.edges {
            if f == t {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
    }
    seen == n
}

/// Validates `schedule` against `graph` on `platform`; when a memory
/// map is given, its scratchpad usage is checked against the per-core
/// budgets too.
///
/// Uses the same [`CommModel::SignalOnly`] cost model the backend
/// schedules under, so a schedule the backend accepted and this pass
/// rejects is a genuine soundness bug in one of them. Collects *all*
/// violations (no first-error short-circuit) in deterministic order.
pub fn check_schedule(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    mem: Option<&MemoryMap>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let n = graph.len();
    if schedule.assignment.len() != n || schedule.start.len() != n || schedule.finish.len() != n {
        findings.push(err(
            ErrorCode::UnsoundSchedule,
            format!(
                "schedule length mismatch: {} tasks in graph, {} assignments, \
                 {} start times, {} finish times",
                n,
                schedule.assignment.len(),
                schedule.start.len(),
                schedule.finish.len()
            ),
        ));
        return findings; // nothing below is index-safe
    }
    if !is_acyclic(graph) {
        findings.push(err(
            ErrorCode::UnsoundSchedule,
            "task graph contains a cycle; no schedule can satisfy it".to_string(),
        ));
        return findings; // the index below would panic
    }

    let cores = platform.core_count();
    for t in 0..n {
        if schedule.assignment[t].0 >= cores {
            findings.push(err_at(
                ErrorCode::UnsoundSchedule,
                format!("t{t}"),
                format!(
                    "task {t} assigned to {} but the platform has {cores} cores",
                    schedule.assignment[t]
                ),
            ));
        }
        if schedule.finish[t] != schedule.start[t] + graph.cost[t] {
            findings.push(err_at(
                ErrorCode::UnsoundSchedule,
                format!("t{t}"),
                format!(
                    "task {t}: finish {} != start {} + cost {}",
                    schedule.finish[t], schedule.start[t], graph.cost[t]
                ),
            ));
        }
    }

    let ctx = SchedCtx::with_comm(platform, CommModel::SignalOnly);
    let idx = TaskGraphIndex::new(graph);
    for t in 0..n {
        for &(f, bytes) in idx.preds(t) {
            let comm = if schedule.assignment[f] == schedule.assignment[t] {
                0
            } else {
                ctx.comm_cost(schedule.assignment[f], schedule.assignment[t], bytes)
            };
            if schedule.start[t] < schedule.finish[f] + comm {
                findings.push(err_at(
                    ErrorCode::UnsoundSchedule,
                    format!("t{t}"),
                    format!(
                        "precedence violated: task {t} starts at {} but its \
                         predecessor {f} finishes at {} (+{comm} comm)",
                        schedule.start[t], schedule.finish[f]
                    ),
                ));
            }
        }
    }

    for core in 0..cores {
        let tasks = schedule.tasks_on(CoreId(core));
        for w in tasks.windows(2) {
            if schedule.start[w[1]] < schedule.finish[w[0]] {
                findings.push(err_at(
                    ErrorCode::UnsoundSchedule,
                    format!("core{core}"),
                    format!("core {core}: tasks {} and {} overlap in time", w[0], w[1]),
                ));
            }
        }
    }

    if let Some(mem) = mem {
        if let Err(e) = mem.check_capacity(platform) {
            findings.push(err(ErrorCode::PlacementOverflow, e));
        }
    }
    findings
}

/// Validates the per-core plans of an explicitly parallel program:
/// structural signal accounting, signal-after-producer and
/// wait-before-consumer ordering, and cross-core edge coverage.
pub fn check_plans(pp: &ParallelProgram) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Err(e) = pp.validate() {
        findings.push(err(ErrorCode::CommOrdering, e));
        return findings; // accounting broken; positions are meaningless
    }

    // Task → (plan, step index) of its unique Exec (validate() above
    // guaranteed exactly one per task).
    let n = pp.graph.len();
    let mut exec_pos = vec![(0usize, 0usize); n];
    for (pi, plan) in pp.plans.iter().enumerate() {
        for (si, step) in plan.steps.iter().enumerate() {
            if let Step::Exec { task } = step {
                exec_pos[*task] = (pi, si);
            }
        }
    }

    for (pi, plan) in pp.plans.iter().enumerate() {
        for (si, step) in plan.steps.iter().enumerate() {
            match step {
                Step::Signal { signal, consumer } => {
                    // The raise must follow every Exec in this plan that
                    // the consumer's graph edges say it conveys: find the
                    // producing task (the edge (f, consumer) whose f runs
                    // on this core before the raise).
                    let producer_here = plan.steps[..si].iter().any(|s| {
                        matches!(s, Step::Exec { task }
                            if pp.graph.edges.iter().any(|&(f, t, _)| f == *task && t == *consumer))
                    });
                    if !producer_here {
                        findings.push(err_at(
                            ErrorCode::CommOrdering,
                            format!("{signal}"),
                            format!(
                                "plan {pi} raises {signal} (for consumer task \
                                 {consumer}) before executing any producer of it"
                            ),
                        ));
                    }
                }
                Step::Wait { signal, producer } => {
                    // The wait must precede the Exec of the task the
                    // signal's edge feeds on this core.
                    let consumed_later = plan.steps[si + 1..].iter().any(|s| {
                        matches!(s, Step::Exec { task }
                            if pp.graph.edges.iter().any(|&(f, t, _)| f == *producer && t == *task))
                    });
                    if !consumed_later {
                        findings.push(err_at(
                            ErrorCode::CommOrdering,
                            format!("{signal}"),
                            format!(
                                "plan {pi} waits for {signal} (producer task \
                                 {producer}) but never executes a consumer after it"
                            ),
                        ));
                    }
                }
                Step::Exec { .. } => {}
            }
        }
    }

    // Every cross-core edge must be protected: the consumer's plan must
    // wait on some signal from the producer before executing the
    // consumer task.
    for &(f, t, _) in &pp.graph.edges {
        if pp.schedule.assignment[f] == pp.schedule.assignment[t] {
            continue;
        }
        let (cons_plan, cons_idx) = exec_pos[t];
        let protected = pp.plans[cons_plan].steps[..cons_idx]
            .iter()
            .any(|s| matches!(s, Step::Wait { producer, .. } if *producer == f));
        if !protected {
            findings.push(err_at(
                ErrorCode::CommOrdering,
                format!("t{f}->t{t}"),
                format!(
                    "cross-core edge t{f} -> t{t} has no wait in the consumer's \
                     plan before task {t} executes"
                ),
            ));
        }
    }
    findings
}
