//! `compile`: cold single-point compiles, one thread, closed loop.
//!
//! Each op is a fresh `Toolflow` session over one of the 216 list-
//! scheduler points (apps × bus/noc × 1/2/4/8 cores × three
//! granularities × three MHP modes), so no op shares work with another
//! and the frontend does the most of it. The annealer and the
//! branch-and-bound scheduler stay out: at 8 cores they take tens to
//! hundreds of times a list op and would open a gap in the latency
//! distribution exactly where the percentiles sit.

use crate::check::{self, App};
use crate::clock;
use crate::stats::{geomean, median_rate, percentile};
use crate::{enable_tracing, export_trace, peak_rss_mb, span_mean_ms, Outcome, Run, SetUp};
use argo::core::SchedulerKind;
use argo::dse::{DesignSpace, ExplorationPoint, PlatformKind};
use argo::htg::Granularity;
use argo::wcet::system::MhpMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const APPS: [&str; 3] = ["egpws", "polka", "weaa"];
/// Ops between two host-speed probes inside a pass.
const PROBE_EVERY: usize = 24;

/// Passes over the points for `--seconds` (one pass takes ~0.9 s on a
/// 2-vCPU x86-64 VM), and never fewer than five: 1,080 ops keep ten
/// samples beyond p99.
fn passes(seconds: u64) -> usize {
    (seconds as usize).max(5)
}

/// The 216 distinct points, all list-scheduled.
fn points() -> Vec<ExplorationPoint> {
    let axes = DesignSpace::new()
        .apps(APPS.map(String::from))
        .platforms(vec![PlatformKind::Bus, PlatformKind::Noc])
        .cores(vec![1, 2, 4, 8])
        .schedulers(vec![SchedulerKind::List])
        .granularities(vec![
            Granularity::Loop,
            Granularity::Block,
            Granularity::Stmt,
        ]);
    [MhpMode::Naive, MhpMode::Static, MhpMode::Windows]
        .into_iter()
        .flat_map(|mhp| axes.clone().mhp(mhp).points())
        .collect()
}

struct Inputs {
    apps: Vec<App>,
    space: DesignSpace,
    points: Vec<ExplorationPoint>,
    /// Each point's system bound in the warm-up pass: every later
    /// compile of the point must report it again.
    first_bound: Vec<Option<u64>>,
}

impl Inputs {
    fn app(&self, point: &ExplorationPoint) -> &App {
        self.apps
            .iter()
            .find(|a| a.uc.name == point.app)
            .expect("points only name built apps")
    }
}

/// Per-op and per-point record of one timed phase. Times are scaled
/// to the nominal host speed; `raw_*` keep the wall-clock figures.
struct Phase {
    latencies_ms: Vec<f64>,
    passes: Vec<(f64, f64)>,
    raw_latencies_ms: Vec<f64>,
    raw_passes: Vec<(f64, f64)>,
    units: clock::Units,
    /// Feedback rounds and task count summed over successful ops.
    rounds: u64,
    tasks: u64,
    ok_ops: u64,
}

pub fn run(run: &Run) -> Outcome {
    let (inputs, setup) = SetUp::first(run, || {
        let apps = APPS.map(App::new).into();
        let space = DesignSpace::new();
        let points = points();
        let mut inputs = Inputs {
            apps,
            space,
            points,
            first_bound: Vec::new(),
        };
        // Warm-up: one untimed pass over the distinct points.
        inputs.first_bound = inputs
            .points
            .iter()
            .map(|p| {
                check::compile(inputs.app(p), p, &inputs.space)
                    .ok()
                    .map(|r| r.system.bound)
            })
            .collect();
        inputs
    });

    let n = inputs.points.len();
    let passes = passes(run.seconds);
    let mut rng = StdRng::seed_from_u64(run.seed);
    // Failed timed ops per point, and timed ops per point.
    let mut failed_ops = vec![0u64; n];
    let mut ops = vec![0u64; n];
    let mut outcome = Outcome::default();

    let untraced = timed(&inputs, passes, &mut rng, &mut failed_ops, &mut ops);
    let peak_mb = peak_rss_mb();
    let untraced_rate = median_rate(&untraced.passes);
    outcome.notes.push(clock::note(
        &untraced.units.scales,
        &untraced.raw_passes,
        &untraced.raw_latencies_ms,
    ));

    if run.trace {
        enable_tracing();
        let fixpoint = || {
            argo::trace::metrics()
                .get_histogram("argo_wcet_fixpoint_iters")
                .map_or(0, |h| h.sum())
        };
        let fixpoint_before = fixpoint();
        let traced = timed(&inputs, passes, &mut rng, &mut failed_ops, &mut ops);
        let fixpoint_iters = fixpoint() - fixpoint_before;
        outcome.notes.push(format!(
            "traced phase: {}",
            clock::note(
                &traced.units.scales,
                &traced.raw_passes,
                &traced.raw_latencies_ms
            )
        ));
        let records = argo::trace::global().snapshot();
        let (op_count, op_ms) = span_mean_ms(&records, "op.compile");
        let mut layer_sum = 0.0;
        for (metric, span) in [
            ("argo-core.frontend.ms", "argo-core.frontend"),
            ("argo-core.seed_costs.ms", "argo-core.seed_costs"),
            ("argo-core.backend.ms", "argo-core.backend"),
            ("argo-verify.ms", "argo-verify"),
        ] {
            let (count, ms) = span_mean_ms(&records, span);
            layer_sum += ms;
            outcome.set(metric, ms, count);
        }
        let ok = traced.ok_ops.max(1);
        outcome.set(
            "argo-core.backend.rounds",
            traced.rounds as f64 / ok as f64,
            ok as usize,
        );
        outcome.set(
            "argo-htg.tasks",
            traced.tasks as f64 / ok as f64,
            ok as usize,
        );
        outcome.set(
            "argo-wcet.fixpoint_iters",
            fixpoint_iters as f64 / passes as f64,
            passes,
        );
        let coverage = layer_sum / op_ms;
        outcome.set("trace.layer_coverage", coverage, op_count);
        outcome.set(
            "trace.overhead",
            median_rate(&traced.passes) / untraced_rate - 1.0,
            passes,
        );
        outcome.notes.push(format!(
            "traced op {op_ms:.3} ms mean over {op_count} ops; the four layer spans cover {:.1}% of it",
            coverage * 100.0
        ));
        export_trace("compile", &mut outcome);
    }

    // Checks, outside every timing: recompile each distinct point once
    // and replay it in the simulator.
    let mut speedups = Vec::with_capacity(n);
    let mut tightness = Vec::with_capacity(n);
    for (i, point) in inputs.points.iter().enumerate() {
        let app = inputs.app(point);
        let verdict = check::compile(app, point, &inputs.space)
            .map_err(|d| format!("{}: {d}", point.label()))
            .and_then(|r| {
                if Some(r.system.bound) != inputs.first_bound[i] {
                    return Err(format!("{}: bound changed on recompile", point.label()));
                }
                let cycles = app.simulate(point, &r, run.seed.wrapping_add(i as u64))?;
                Ok((
                    r.sequential_bound as f64,
                    r.system.bound as f64,
                    cycles as f64,
                ))
            });
        match verdict {
            Ok((seq, par, cycles)) => {
                speedups.push(seq / par);
                tightness.push(par / cycles);
                outcome.fail(
                    failed_ops[i],
                    format!("{}: timed ops failed", point.label()),
                );
            }
            // Every timed op of a point that fails the oracle failed.
            Err(why) => outcome.fail(ops[i], why),
        }
    }
    outcome.attempted = ops.iter().sum();

    if !run.trace {
        let lat = &untraced.latencies_ms;
        let (setup_s, reps) = setup.median_s();
        outcome.set("setup_s", setup_s, reps);
        outcome.set("ops_per_s", untraced_rate, untraced.passes.len());
        outcome.set(
            "p50_ms",
            percentile(lat, 50.0).unwrap_or(f64::NAN),
            lat.len(),
        );
        outcome.set(
            "p99_ms",
            percentile(lat, 99.0).unwrap_or(f64::NAN),
            lat.len(),
        );
        outcome.set("peak_rss_mb", peak_mb, 1);
        outcome.set("wcet_speedup_geomean", geomean(&speedups), speedups.len());
        outcome.set(
            "bound_tightness_geomean",
            geomean(&tightness),
            tightness.len(),
        );
    }
    outcome
}

/// One timed phase: `passes` passes over every point, each in a fresh
/// seeded order, one op at a time.
fn timed(
    inputs: &Inputs,
    passes: usize,
    rng: &mut StdRng,
    failed_ops: &mut [u64],
    ops: &mut [u64],
) -> Phase {
    let n = inputs.points.len();
    let mut phase = Phase {
        latencies_ms: Vec::with_capacity(passes * n),
        passes: Vec::with_capacity(passes),
        raw_latencies_ms: Vec::with_capacity(passes * n),
        raw_passes: Vec::with_capacity(passes),
        units: clock::Units::start(3),
        rounds: 0,
        tasks: 0,
        ok_ops: 0,
    };
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..passes {
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let first_op = phase.raw_latencies_ms.len();
        let pass_start = Instant::now();
        let mut probing = 0.0;
        for (k, &i) in order.iter().enumerate() {
            if k > 0 && k % PROBE_EVERY == 0 {
                probing += phase.units.sample();
            }
            let point = &inputs.points[i];
            let t0 = Instant::now();
            let result = {
                let _op = argo::trace::span("op.compile");
                check::compile(inputs.app(point), point, &inputs.space)
            };
            phase
                .raw_latencies_ms
                .push(t0.elapsed().as_secs_f64() * 1e3);
            ops[i] += 1;
            match result {
                Ok(r) if Some(r.system.bound) == inputs.first_bound[i] => {
                    phase.rounds += u64::from(r.feedback_iterations);
                    phase.tasks += r.parallel.graph.len() as u64;
                    phase.ok_ops += 1;
                }
                _ => failed_ops[i] += 1,
            }
        }
        let wall = pass_start.elapsed().as_secs_f64() - probing;
        let scale = phase.units.close();
        phase.raw_passes.push((n as f64, wall));
        phase.passes.push((n as f64, wall * scale));
        let scaled = phase.raw_latencies_ms[first_op..]
            .iter()
            .map(|ms| ms * scale);
        phase.latencies_ms.extend(scaled);
    }
    phase
}
