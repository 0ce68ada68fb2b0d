//! Property-based tests over randomly generated mini-C programs and task
//! graphs (proptest).
//!
//! The generators produce *valid* structured programs (declared-before-use,
//! literal loop bounds, in-bounds constant subscript offsets), so every
//! property exercises the real pipeline rather than error paths:
//!
//! * parser/printer round-trip;
//! * timing-schema ≡ IPET cross-validation on arbitrary programs;
//! * interpreter values stay within the interval analysis' loop bounds;
//! * DOALL chunking preserves semantics on arbitrary map loops;
//! * schedulers produce valid schedules with makespan between the
//!   critical-path lower bound and the sequential upper bound.

use argo_adl::{CoreId, MemoryMap, Platform};
use argo_ir::ast::{BinOp, Expr};
use argo_ir::interp::{ArgVal, ArrayData, Interp, NullHook};
use argo_ir::parse::parse_program;
use argo_sched::anneal::SimulatedAnnealing;
use argo_sched::bnb::BranchAndBound;
use argo_sched::list::ListScheduler;
use argo_sched::random::{random_task_graph, RandomGraphParams};
use argo_sched::{sequential_schedule, SchedCtx, Scheduler};
use argo_wcet::cost::CostCtx;
use argo_wcet::ipet::function_wcet_ipet;
use argo_wcet::schema::function_wcets;
use argo_wcet::value::{loop_bounds, ValueCtx};
use proptest::prelude::*;

const ARRAY: usize = 24;

/// A generated arithmetic expression over `x` (real scalar), `i` (int
/// loop var) and `a[...]` (real array reads with safe offsets).
fn arb_real_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0u32..5).prop_map(|v| format!("{v}.5")),
        Just("x".to_string()),
        (0usize..4).prop_map(|o| format!("a[imin(i + {o}, {})]", ARRAY - 1)),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} + {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} * {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} - {r})")),
            inner.clone().prop_map(|e| format!("sqrt(fabs({e}))")),
            inner.prop_map(|e| format!("fmin({e}, 100.0)")),
        ]
    })
    .boxed()
}

/// A generated single-function program with loops, branches and array
/// traffic — always valid and always terminating.
fn arb_program() -> BoxedStrategy<String> {
    (
        arb_real_expr(2),
        arb_real_expr(2),
        1usize..=ARRAY,
        1usize..=8,
        any::<bool>(),
    )
        .prop_map(|(e1, e2, trip, inner_trip, with_branch)| {
            let body = if with_branch {
                format!("if (x > 2.0) {{ b[i] = {e1}; }} else {{ b[i] = {e2}; }}")
            } else {
                format!("b[i] = {e1};")
            };
            format!(
                "void main(real a[{ARRAY}], real b[{ARRAY}]) {{\n\
                   real x; int i; int j;\n\
                   x = 1.0;\n\
                   for (i = 0; i < {trip}; i = i + 1) {{\n\
                     for (j = 0; j < {inner_trip}; j = j + 1) {{ x = x + a[j] * 0.125; }}\n\
                     {body}\n\
                   }}\n\
                 }}"
            )
        })
        .boxed()
}

fn input_args(seed: u64) -> Vec<ArgVal> {
    let vals: Vec<f64> = (0..ARRAY)
        .map(|k| ((k as u64 * 7 + seed) % 13) as f64 * 0.5)
        .collect();
    vec![
        ArgVal::Array(ArrayData::from_reals(&vals)),
        ArgVal::Array(ArrayData::from_reals(&[0.0; ARRAY])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Printing a parsed program and re-parsing yields the same AST
    /// (modulo statement ids, which the printer does not emit).
    #[test]
    fn print_parse_round_trip(src in arb_program()) {
        let p1 = parse_program(&src).expect("generated program parses");
        argo_ir::validate::validate(&p1).expect("generated program validates");
        let printed = argo_ir::printer::print_program(&p1);
        let p2 = parse_program(&printed).expect("printed program re-parses");
        // Compare via a second print (ids differ, text must agree).
        prop_assert_eq!(printed.clone(), argo_ir::printer::print_program(&p2));
    }

    /// The two independent code-level WCET engines agree exactly.
    #[test]
    fn schema_equals_ipet(src in arb_program()) {
        let p = parse_program(&src).expect("parses");
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let bounds = loop_bounds(&p, "main", &ValueCtx::default()).expect("bounded");
        let fw = function_wcets(&ctx, &bounds).expect("schema");
        let ipet = function_wcet_ipet(&ctx, &bounds, &fw, "main").expect("ipet");
        prop_assert_eq!(fw["main"], ipet);
    }

    /// The code-level WCET bound dominates the simulator-style worst-case
    /// charge of an actual sequential run (same cost tables).
    #[test]
    fn schema_bounds_interpreter_charge(src in arb_program(), seed in 0u64..32) {
        let p = parse_program(&src).expect("parses");
        let platform = Platform::xentium_manycore(1);
        let mem = MemoryMap::new();
        let ctx = CostCtx::new(&p, &platform, CoreId(0), &mem);
        let bounds = loop_bounds(&p, "main", &ValueCtx::default()).expect("bounded");
        let fw = function_wcets(&ctx, &bounds).expect("schema");

        // Charge the sequential run with the same worst-case tables.
        struct ChargeHook<'a> {
            ctx: &'a CostCtx<'a>,
            total: u64,
        }
        impl argo_ir::interp::ExecHook for ChargeHook<'_> {
            fn on_op(&mut self, op: argo_ir::interp::OpClass) {
                self.total += self.ctx.op_cost(op);
            }
            fn on_intrinsic(&mut self, name: &str) {
                self.total += self.ctx.intrinsic_cost(name);
            }
            fn on_access(&mut self, base: &str) {
                self.total += self.ctx.access_cost(base);
            }
        }
        let mut hook = ChargeHook { ctx: &ctx, total: 0 };
        let mut interp = Interp::new(&p);
        interp.call_full("main", input_args(seed), &mut hook).expect("runs");
        prop_assert!(
            hook.total <= fw["main"],
            "observed charge {} exceeds WCET {}",
            hook.total,
            fw["main"]
        );
    }

    /// Chunking a generated DOALL map loop preserves the program outputs
    /// exactly, for every chunk count.
    #[test]
    fn chunking_preserves_semantics(
        e in arb_real_expr(2),
        trip in 2usize..=ARRAY,
        k in 2usize..=5,
        seed in 0u64..16,
    ) {
        let src = format!(
            "void main(real a[{ARRAY}], real b[{ARRAY}]) {{\n\
               real x; int i;\n\
               x = 2.0;\n\
               for (i = 0; i < {trip}; i = i + 1) {{ b[i] = {e}; }}\n\
             }}"
        );
        let original = parse_program(&src).expect("parses");
        let loop_id = original
            .function("main").unwrap().body.stmts.iter()
            .find(|s| matches!(s.kind, argo_ir::StmtKind::For { .. }))
            .unwrap().id;
        let mut chunked = original.clone();
        match argo_transform::chunk::chunk_loop(&mut chunked, "main", loop_id, k) {
            Ok(_) => {
                argo_ir::validate::validate(&chunked).expect("chunked validates");
                let o1 = Interp::new(&original)
                    .call_full("main", input_args(seed), &mut NullHook).expect("orig runs");
                let o2 = Interp::new(&chunked)
                    .call_full("main", input_args(seed), &mut NullHook).expect("chunked runs");
                prop_assert_eq!(o1.arrays, o2.arrays);
            }
            // Some generated loops are legitimately sequential (e.g. the
            // expression reads `x` which the classifier treats as shared).
            Err(err) => prop_assert!(err.msg.contains("sequential"), "{}", err.msg),
        }
    }

    /// Every scheduler yields a valid schedule with makespan in
    /// [critical path, sequential total].
    #[test]
    fn schedulers_are_valid_and_bounded(seed in 0u64..64, n in 4usize..14, cores in 1usize..5) {
        let g = random_task_graph(seed, &RandomGraphParams { tasks: n, ..Default::default() });
        let platform = Platform::xentium_manycore(cores);
        let ctx = SchedCtx::new(&platform);
        let seq = sequential_schedule(&g, &ctx).makespan();
        prop_assert!(seq >= g.total_work());
        let list = ListScheduler::new().schedule(&g, &ctx);
        let exact = BranchAndBound { node_budget: 50_000 }.schedule_counted(&g, &ctx);
        prop_assert!(exact.proven_optimal, "{} nodes", exact.expanded);
        let bnb = exact.schedule;
        let sa = SimulatedAnnealing { iterations: 300, ..SimulatedAnnealing::with_seed(seed) }
            .schedule(&g, &ctx);
        for s in [&list, &bnb, &sa] {
            prop_assert!(s.validate(&g, &ctx).is_ok());
            prop_assert!(s.makespan() >= g.critical_path());
        }
        // BnB and SA are seeded by the list schedule and keep the best
        // incumbent, so they can never be worse. (No upper bound vs the
        // sequential schedule exists for greedy EFT under worst-case
        // communication — the E4 finding.)
        prop_assert!(bnb.makespan() <= list.makespan());
        prop_assert!(sa.makespan() <= list.makespan());
    }

    /// Constant folding never changes program results.
    #[test]
    fn folding_preserves_semantics(src in arb_program(), seed in 0u64..16) {
        let original = parse_program(&src).expect("parses");
        let mut folded = original.clone();
        argo_transform::fold::fold_program(&mut folded);
        folded.renumber();
        let o1 = Interp::new(&original)
            .call_full("main", input_args(seed), &mut NullHook).expect("runs");
        let o2 = Interp::new(&folded)
            .call_full("main", input_args(seed), &mut NullHook).expect("runs");
        prop_assert_eq!(o1.arrays, o2.arrays);
    }

    /// HTG extraction yields acyclic sibling edges at every granularity,
    /// and the scheduling view round-trips through a valid topo order.
    #[test]
    fn extraction_is_acyclic(src in arb_program(), g in 0usize..3) {
        let p = parse_program(&src).expect("parses");
        let gran = [
            argo_htg::Granularity::Stmt,
            argo_htg::Granularity::Block,
            argo_htg::Granularity::Loop,
        ][g];
        let htg = argo_htg::extract::extract(&p, "main", gran, &Default::default())
            .expect("extracts");
        prop_assert!(htg.edges_are_acyclic());
        let costs: std::collections::BTreeMap<_, _> =
            htg.top_level.iter().map(|&t| (t, 10u64)).collect();
        let graph = argo_sched::TaskGraph::from_htg(&htg, &costs);
        prop_assert_eq!(graph.topo_order().len(), graph.len());
    }

    /// The exact knapsack never saves fewer cycles than the greedy one,
    /// and both respect capacity.
    #[test]
    fn spm_exact_dominates_greedy(
        sizes in proptest::collection::vec((1u64..64, 1u64..1000), 1..10),
        cap_words in 1u64..64,
    ) {
        use argo_transform::spm::{allocate_exact, allocate_greedy, SpmCandidate};
        let cands: Vec<SpmCandidate> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(words, gain))| SpmCandidate {
                name: format!("v{i}"),
                size_bytes: words * 8,
                gain_cycles: gain,
            })
            .collect();
        let cap = cap_words * 8;
        let e = allocate_exact(&cands, cap);
        let g = allocate_greedy(&cands, cap);
        prop_assert!(e.used_bytes <= cap);
        prop_assert!(g.used_bytes <= cap);
        prop_assert!(e.saved_cycles >= g.saved_cycles);
    }

    /// Interval arithmetic of the value analysis is sound for addition
    /// and multiplication over sampled points.
    #[test]
    fn interval_arithmetic_is_sound(
        a in -50i64..50, b in -50i64..50,
        c in -50i64..50, d in -50i64..50,
        x in 0i64..100, y in 0i64..100,
    ) {
        use argo_wcet::value::Interval;
        let (alo, ahi) = (a.min(b), a.max(b));
        let (clo, chi) = (c.min(d), c.max(d));
        let iv1 = Interval::range(alo, ahi);
        let iv2 = Interval::range(clo, chi);
        // Sample points inside each interval.
        let p1 = alo + x % (ahi - alo + 1);
        let p2 = clo + y % (chi - clo + 1);
        let sum = iv1.add(iv2);
        prop_assert!(sum.lo.unwrap() <= p1 + p2 && p1 + p2 <= sum.hi.unwrap());
        let prod = iv1.mul(iv2);
        prop_assert!(prod.lo.unwrap() <= p1 * p2 && p1 * p2 <= prod.hi.unwrap());
        let diff = iv1.sub(iv2);
        prop_assert!(diff.lo.unwrap() <= p1 - p2 && p1 - p2 <= diff.hi.unwrap());
    }
}

/// Deterministic sanity check that the generators themselves are healthy
/// (kept outside proptest so a generator regression fails loudly).
#[test]
fn generated_programs_have_expected_shape() {
    let src = "void main(real a[24], real b[24]) {\n\
               real x; int i; int j;\n\
               x = 1.0;\n\
               for (i = 0; i < 8; i = i + 1) {\n\
                 for (j = 0; j < 3; j = j + 1) { x = x + a[j] * 0.125; }\n\
                 b[i] = (x + a[imin(i + 1, 23)]);\n\
               }\n\
             }";
    let p = parse_program(src).unwrap();
    argo_ir::validate::validate(&p).unwrap();
    let htg =
        argo_htg::extract::extract(&p, "main", argo_htg::Granularity::Loop, &Default::default())
            .unwrap();
    assert!(!htg.is_empty());
    let _ = (Expr::int(1), BinOp::Add); // exercise re-exports used above
}
