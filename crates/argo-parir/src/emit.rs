//! Per-core pseudo-C emission of the parallel program model.
//!
//! "… generate C code following the WCET-aware programming model for the
//! target platforms" (§ II-C). The emitter renders each core's plan as a
//! C-like listing with explicit `argo_wait`/`argo_signal` calls and a
//! memory-placement header — the human-inspectable artefact of the flow.

use crate::{ParallelProgram, Step};
use argo_adl::MemSpace;
use std::fmt::Write as _;

/// Renders the whole parallel program as per-core pseudo-C.
pub fn emit_pseudo_c(pp: &ParallelProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* ARGO parallel program model — entry `{}` */",
        pp.entry()
    );
    let _ = writeln!(
        out,
        "/* {} tasks, {} cores, {} signals */",
        pp.graph.len(),
        pp.plans.len(),
        pp.signal_count
    );
    out.push('\n');

    // Memory placement header.
    let _ = writeln!(out, "/* memory map */");
    for (var, p) in pp.memory_map.iter() {
        let space = match p.space {
            MemSpace::Local => "local".to_string(),
            MemSpace::Spm(c) => format!("spm({c})"),
            MemSpace::Shared => "shared".to_string(),
        };
        let _ = writeln!(
            out,
            "/*   {var:<16} -> {space:<12} @0x{:04x} ({} B) */",
            p.base_addr, p.size_bytes
        );
    }
    if !pp.privatized().is_empty() {
        let vars: Vec<&str> = pp.privatized().iter().map(|s| s.as_str()).collect();
        let _ = writeln!(out, "/* privatized scalars: {} */", vars.join(", "));
    }
    out.push('\n');

    for plan in &pp.plans {
        let _ = writeln!(out, "void core{}_main(void) {{", plan.core.0);
        for step in &plan.steps {
            match step {
                Step::Exec { task } => {
                    let _ = writeln!(
                        out,
                        "    task_{task}(); /* {} : [{}, {}) */",
                        pp.graph.names[*task], pp.schedule.start[*task], pp.schedule.finish[*task]
                    );
                }
                Step::Wait { signal, producer } => {
                    let _ = writeln!(
                        out,
                        "    argo_wait({signal}); /* data from task {producer} */"
                    );
                }
                Step::Signal { signal, consumer } => {
                    let _ = writeln!(out, "    argo_signal({signal}); /* -> task {consumer} */");
                }
            }
        }
        out.push_str("}\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use argo_htg::{extract::extract, Granularity};
    use argo_ir::parse::parse_program;
    use argo_ir::resolve::Resolution;
    use argo_sched::list::ListScheduler;
    use argo_sched::{SchedCtx, Scheduler, TaskGraph};
    use std::collections::BTreeMap;

    #[test]
    fn emits_plans_and_memory_map() {
        let src = r#"
            void main(real a[64], real b[64], real c[64]) {
                int i;
                for (i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }
                for (i = 0; i < 64; i = i + 1) { c[i] = b[i] + 1.0; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let htg = extract(&program, "main", Granularity::Loop, &BTreeMap::new()).unwrap();
        let costs: BTreeMap<_, _> = htg.top_level.iter().map(|&t| (t, 100u64)).collect();
        let graph = TaskGraph::from_htg(&htg, &costs);
        let platform = argo_adl::Platform::xentium_manycore(2);
        let ctx = SchedCtx::new(&platform);
        let schedule = ListScheduler::new().schedule(&graph, &ctx);
        let mem = crate::mem_assign::assign(&program, &htg, &graph, &schedule, &platform).unwrap();
        let (program, htg) = (std::sync::Arc::new(program), std::sync::Arc::new(htg));
        let resolution = std::sync::Arc::new(Resolution::of(&program));
        let pp = crate::ParallelProgram::build(
            program, resolution, htg, graph, schedule, mem, &platform,
        )
        .unwrap();
        let text = emit_pseudo_c(&pp);
        assert!(text.contains("core0_main"));
        assert!(text.contains("core1_main"));
        assert!(text.contains("memory map"));
        // Every task appears exactly once.
        for t in 0..pp.graph.len() {
            assert_eq!(text.matches(&format!("task_{t}()")).count(), 1);
        }
        // Signals appear iff cross-core edges exist.
        if pp.signal_count > 0 {
            assert!(text.contains("argo_wait"));
            assert!(text.contains("argo_signal"));
        }
    }
}
