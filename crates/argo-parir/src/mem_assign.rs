//! Final memory address mapping of variables and buffers (§ II-C).
//!
//! Placement policy:
//!
//! * scalars live in core-local storage ([`MemSpace::Local`]) — they are
//!   either task-local, privatized, or communicated through signal
//!   payloads;
//! * arrays accessed by tasks on **more than one core** must be visible
//!   everywhere: they go to [`MemSpace::Shared`] (contended);
//! * arrays accessed from exactly **one** core are scratchpad candidates
//!   for that core; the WCET-directed knapsack (`argo-transform::spm`,
//!   paper ref \[6\]) selects the subset maximising saved worst-case cycles,
//!   the rest spills to shared memory;
//! * every placed variable gets a base address (bump allocation per
//!   space) so the cache model has concrete addresses.

use argo_adl::{CoreId, MemSpace, MemoryMap, Placement, Platform};
use argo_htg::Htg;
use argo_ir::ast::Program;
use argo_ir::validate::symbol_table;
use argo_sched::{Schedule, TaskGraph};
use argo_transform::spm::{allocate_exact, SpmCandidate};
use std::collections::{BTreeMap, BTreeSet};

/// Builds the memory map for a scheduled program.
///
/// # Errors
///
/// Returns a message if placements overflow the platform capacities
/// (cannot normally happen: spills go to shared memory, which is checked
/// last).
pub fn assign(
    program: &Program,
    htg: &Htg,
    graph: &TaskGraph,
    schedule: &Schedule,
    platform: &Platform,
) -> Result<MemoryMap, String> {
    let f = program
        .function(&htg.function)
        .ok_or_else(|| format!("no function `{}`", htg.function))?;
    let symbols = symbol_table(f);

    // Which cores touch each array (task read/write sets), and its
    // worst-case access count per core (the SPM gain estimate).
    let mut cores_of: BTreeMap<&str, BTreeSet<CoreId>> = BTreeMap::new();
    let mut access_gain: BTreeMap<(&str, CoreId), u64> = BTreeMap::new();
    for (idx, &tid) in graph.htg_ids.iter().enumerate() {
        let task = htg.task(tid);
        let core = schedule.assignment[idx];
        for v in task.reads.union(&task.writes) {
            if symbols.get(v).is_some_and(|t| t.is_array()) {
                cores_of.entry(v.as_str()).or_default().insert(core);
            }
        }
        for (v, n) in &task.access_counts {
            if symbols.get(v).is_some_and(|t| t.is_array()) {
                *access_gain.entry((v.as_str(), core)).or_insert(0) += n;
            }
        }
    }

    let mut map = MemoryMap::new();
    let mut shared_cursor = 0u64;

    // Partition arrays into single-core (SPM candidates per core) and
    // multi-core (shared).
    let mut spm_candidates: BTreeMap<CoreId, Vec<SpmCandidate>> = BTreeMap::new();
    let mut shared_arrays: Vec<&str> = Vec::new();
    // Each candidate core's all-contender shared-access price, priced
    // once per call.
    let mut shared_cost: Vec<Option<u64>> = vec![None; platform.core_count()];
    for (v, ty) in &symbols {
        if !ty.is_array() {
            continue; // scalars default to Local via MemoryMap::space_of
        }
        let owners = cores_of.get(v.as_str()).cloned().unwrap_or_default();
        if owners.len() == 1 {
            let core = *owners.iter().next().expect("len 1");
            let accesses = access_gain.get(&(v.as_str(), core)).copied().unwrap_or(1);
            let shared_cost = *shared_cost[core.0].get_or_insert_with(|| {
                platform.worst_case_shared_access(core, platform.core_count())
            });
            let spm_cost = platform.core(core).spm_latency;
            let gain = accesses.saturating_mul(shared_cost.saturating_sub(spm_cost));
            spm_candidates.entry(core).or_default().push(SpmCandidate {
                name: v.clone(),
                size_bytes: ty.size_bytes(),
                gain_cycles: gain,
            });
        } else {
            // Multi-core (or untouched) arrays go to shared memory.
            shared_arrays.push(v);
        }
    }

    for (core, cands) in &spm_candidates {
        let capacity = platform.core(*core).spm_bytes;
        let chosen = allocate_exact(cands, capacity);
        let chosen_set: BTreeSet<&String> = chosen.chosen.iter().collect();
        let mut spm_cursor = 0u64;
        for c in cands {
            let ty = &symbols[&c.name];
            if chosen_set.contains(&c.name) {
                map.insert(
                    c.name.clone(),
                    Placement {
                        space: MemSpace::Spm(*core),
                        base_addr: spm_cursor,
                        size_bytes: ty.size_bytes(),
                    },
                );
                spm_cursor += ty.size_bytes();
            } else {
                map.insert(
                    c.name.clone(),
                    Placement {
                        space: MemSpace::Shared,
                        base_addr: shared_cursor,
                        size_bytes: ty.size_bytes(),
                    },
                );
                shared_cursor += ty.size_bytes();
            }
        }
    }
    for v in shared_arrays {
        let ty = &symbols[v];
        map.insert(
            v,
            Placement {
                space: MemSpace::Shared,
                base_addr: shared_cursor,
                size_bytes: ty.size_bytes(),
            },
        );
        shared_cursor += ty.size_bytes();
    }

    map.check_capacity(platform)?;
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_htg::{extract::extract, Granularity, TaskId};
    use argo_ir::parse::parse_program;
    use argo_sched::evaluate_assignment;
    use argo_sched::SchedCtx;

    /// Two loops touching different arrays; mapped to different cores the
    /// arrays are single-core and should land in SPMs.
    const TWO_KERNELS: &str = r#"
        void main(real a[128], real b[128]) {
            int i;
            for (i = 0; i < 128; i = i + 1) { a[i] = a[i] * 2.0; }
            for (i = 0; i < 128; i = i + 1) { b[i] = b[i] + 1.0; }
        }
    "#;

    fn setup(cores: usize, split: bool) -> (Program, Htg, TaskGraph, Schedule, Platform) {
        let program = parse_program(TWO_KERNELS).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<TaskId, u64> = htg.top_level.iter().map(|&t| (t, 500u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = Platform::xentium_manycore(cores);
        let ctx = SchedCtx::new(&platform);
        // Manual assignment: loop tasks on separate cores when split.
        let assignment: Vec<CoreId> = (0..graph.len())
            .map(|t| {
                if split && graph.names[t].starts_with("for") && t >= 2 {
                    CoreId(1)
                } else {
                    CoreId(0)
                }
            })
            .collect();
        let schedule = evaluate_assignment(&graph, &ctx, &assignment);
        (program, htg, graph, schedule, platform)
    }

    #[test]
    fn single_core_arrays_go_to_spm() {
        let (program, htg, graph, schedule, platform) = setup(2, true);
        let map = assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        // a touched only by core 0's loop, b only by core 1's.
        assert_eq!(map.space_of("a"), MemSpace::Spm(CoreId(0)));
        assert_eq!(map.space_of("b"), MemSpace::Spm(CoreId(1)));
    }

    #[test]
    fn scalars_stay_local() {
        let (program, htg, graph, schedule, platform) = setup(2, true);
        let map = assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        assert_eq!(map.space_of("i"), MemSpace::Local);
    }

    #[test]
    fn oversized_arrays_spill_to_shared() {
        let src = r#"
            void main(real big[4096]) {
                int i;
                for (i = 0; i < 4096; i = i + 1) { big[i] = 0.0; }
            }
        "#;
        // 4096 reals = 32 KiB > 16 KiB SPM.
        let program = parse_program(src).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<TaskId, u64> = htg.top_level.iter().map(|&t| (t, 1u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = Platform::xentium_manycore(1);
        let ctx = SchedCtx::new(&platform);
        let schedule = evaluate_assignment(&graph, &ctx, &vec![CoreId(0); graph.len()]);
        let map = assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        assert_eq!(map.space_of("big"), MemSpace::Shared);
    }

    #[test]
    fn multi_core_arrays_are_shared() {
        let src = r#"
            void main(real shared_buf[64], real out0[64], real out1[64]) {
                int i;
                for (i = 0; i < 64; i = i + 1) { out0[i] = shared_buf[i] * 2.0; }
                for (i = 0; i < 64; i = i + 1) { out1[i] = shared_buf[i] + 1.0; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<TaskId, u64> = htg.top_level.iter().map(|&t| (t, 1u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&platform);
        // Put the two loops on different cores.
        let assignment: Vec<CoreId> = (0..graph.len())
            .map(|t| if t >= 2 { CoreId(1) } else { CoreId(0) })
            .collect();
        let schedule = evaluate_assignment(&graph, &ctx, &assignment);
        let map = assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        assert_eq!(map.space_of("shared_buf"), MemSpace::Shared);
    }

    #[test]
    fn addresses_do_not_overlap_within_a_space() {
        let (program, htg, graph, schedule, platform) = setup(1, false);
        let map = assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (_, p) in map.iter() {
            if p.space == MemSpace::Shared {
                spans.push((p.base_addr, p.base_addr + p.size_bytes));
            }
        }
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping shared placements");
        }
    }
}
