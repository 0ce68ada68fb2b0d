//! `sweep`: the all-scheduler design-space sweep of the ROADMAP,
//! verbatim — `Explorer::with_threads(1).explore` over {egpws, polka,
//! weaa} × {1, 2, 4, 8} cores × {list, bnb, anneal} on a bus, 36
//! points with default settings.
//!
//! Every sweep gets a fresh `Explorer`, so it pays for cold cache tiers
//! as a user's does; one thread keeps the cache counts exact. Schedule
//! builds, mostly the three 8-core branch-and-bound calls, take ~99% of
//! a sweep, so this workload moves with `argo-sched` and barely with the
//! frontend — the mirror image of `compile`. A sweep's user waits for
//! the whole sweep, so its latency op is the sweep: `p50_ms` is the
//! median sweep and `p99_ms` the slowest one (a handful of samples, far
//! from enough for a true 99th percentile).
//!
//! Sweep times are wall-clock, not host-scaled: a sweep cannot pause,
//! so a probe could only run at its two ends, and ten runs spread more
//! with such scaling (6–13%) than without it (5–12%).

use crate::check::{self, App};
use crate::stats::{geomean, median, median_rate};
use crate::{enable_tracing, export_trace, peak_rss_mb, Outcome, Run, SetUp};
use argo::core::SchedulerKind;
use argo::dse::{DesignSpace, ExplorationReport, Explorer};
use std::time::Instant;

const APPS: [&str; 3] = ["egpws", "polka", "weaa"];

/// Sweeps per timed phase for `--seconds` (one sweep takes ~9 s on a
/// 2-vCPU x86-64 VM); at least three, so the median sweep is a middle
/// one and the sweeps can be compared.
fn sweeps(seconds: u64) -> usize {
    ((seconds as usize + 5) / 10).max(3)
}

fn space(schedulers: Vec<SchedulerKind>) -> DesignSpace {
    DesignSpace::new()
        .apps(APPS.map(String::from))
        .cores(vec![1, 2, 4, 8])
        .schedulers(schedulers)
}

/// What one timed phase saw.
struct Phase {
    /// `(points, seconds)` per sweep.
    units: Vec<(f64, f64)>,
    reports: Vec<ExplorationReport>,
}

/// The rows of one sweep reduced to what must repeat exactly: point,
/// parallel WCET bound and task count.
fn digest(report: &ExplorationReport) -> Vec<Option<(String, u64, usize)>> {
    report
        .rows
        .iter()
        .map(|row| {
            let m = row.outcome.as_ref().ok()?;
            Some((row.point.label(), m.par_bound, m.tasks))
        })
        .collect()
}

fn timed(space: &DesignSpace, sweeps: usize) -> Phase {
    let mut phase = Phase {
        units: Vec::with_capacity(sweeps),
        reports: Vec::with_capacity(sweeps),
    };
    for _ in 0..sweeps {
        let explorer = Explorer::with_threads(1);
        let t0 = Instant::now();
        let report = {
            let _op = argo::trace::span("op.sweep");
            explorer.explore(space)
        };
        let wall = t0.elapsed().as_secs_f64();
        phase.units.push((report.rows.len() as f64, wall));
        phase.reports.push(report);
    }
    phase
}

fn counter(name: &str) -> u64 {
    argo::trace::metrics()
        .get_counter(name)
        .map_or(0, |c| c.get())
}

pub fn run(run: &Run) -> Outcome {
    let (space, setup) = SetUp::first(run, || {
        // A throwaway explorer warms the process on the same apps and
        // cores without the branch-and-bound calls, which would make
        // set-up as long as a sweep; the timed explorers stay cold.
        let warm = Explorer::with_threads(1)
            .explore(&space(vec![SchedulerKind::List, SchedulerKind::Anneal]));
        assert_eq!(warm.failures(), 0, "warm-up sweep failed");
        space(vec![
            SchedulerKind::List,
            SchedulerKind::BranchAndBound,
            SchedulerKind::Anneal,
        ])
    });

    let sweeps = sweeps(run.seconds);
    let mut outcome = Outcome::default();
    let untraced = timed(&space, sweeps);
    let peak_mb = peak_rss_mb();
    let untraced_rate = median_rate(&untraced.units);
    let walls: Vec<String> = untraced
        .units
        .iter()
        .map(|u| format!("{:.3}", u.1))
        .collect();
    outcome
        .notes
        .push(format!("sweep wall times (s): {}", walls.join(", ")));
    let mut phases = vec![untraced];

    if run.trace {
        enable_tracing();
        let names = [
            "argo_sched_bnb_expanded_total",
            "argo_sched_bnb_pruned_total",
            "argo_sched_anneal_proposals_total",
            "argo_sched_anneal_accepts_total",
        ];
        let before = names.map(counter);
        let traced = timed(&space, sweeps);
        let delta = |k: usize| (counter(names[k]) - before[k]) as f64;
        let (expanded, pruned, proposals, accepts) = (delta(0), delta(1), delta(2), delta(3));
        let per_sweep = |x: f64| x / sweeps as f64;
        let mean_ms = |f: &dyn Fn(&ExplorationReport) -> f64| {
            traced.reports.iter().map(f).sum::<f64>() / sweeps as f64
        };
        outcome.set(
            "argo-dse.frontend.ms",
            mean_ms(&|r| r.timing.frontend.ms()),
            sweeps,
        );
        outcome.set(
            "argo-dse.seed_costs.ms",
            mean_ms(&|r| r.timing.seed_costs.ms()),
            sweeps,
        );
        outcome.set(
            "argo-dse.backend.ms",
            mean_ms(&|r| r.timing.backend.ms()),
            sweeps,
        );
        outcome.set(
            "argo-dse.verify.ms",
            mean_ms(&|r| r.timing.verify.ms()),
            sweeps,
        );
        outcome.set(
            "argo-dse.schedule_builds.ms",
            mean_ms(&|r| r.timing.schedule_builds.ms()),
            sweeps,
        );
        // A fresh explorer per sweep: its counters are that sweep's.
        let c = &traced.reports[0].cache;
        let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        outcome.set(
            "argo-dse.cache.frontend_hit_rate",
            rate(c.frontend_hits, c.frontend_misses),
            1,
        );
        outcome.set(
            "argo-dse.cache.seed_costs_hit_rate",
            rate(c.cost_hits, c.cost_misses),
            1,
        );
        outcome.set(
            "argo-dse.cache.schedule_hit_rate",
            rate(c.sched_hits, c.sched_misses),
            1,
        );
        outcome.set("argo-sched.bnb.expanded", per_sweep(expanded), sweeps);
        outcome.set("argo-sched.bnb.pruned", per_sweep(pruned), sweeps);
        outcome.set("argo-sched.anneal.proposals", per_sweep(proposals), sweeps);
        outcome.set(
            "argo-sched.anneal.accept_rate",
            accepts / proposals.max(1.0),
            sweeps,
        );
        let stage_ms = mean_ms(&|r| r.timing.stage_total().ms());
        let wall_ms = traced.units.iter().map(|u| u.1).sum::<f64>() * 1e3 / sweeps as f64;
        outcome.set("trace.layer_coverage", stage_ms / wall_ms, sweeps);
        outcome.set(
            "trace.overhead",
            median_rate(&traced.units) / untraced_rate - 1.0,
            sweeps,
        );
        outcome.notes.push(format!(
            "traced sweep {wall_ms:.1} ms mean; the four stage totals cover {:.1}% of it",
            stage_ms / wall_ms * 100.0
        ));
        export_trace("sweep", &mut outcome);
        phases.push(traced);
    }

    // Checks, outside every timing. Every row of every sweep succeeded
    // and matches the first sweep's.
    let reference = digest(&phases[0].reports[0]);
    let per_point = phases.len() * sweeps;
    let mut bad_point = vec![false; reference.len()];
    for report in phases.iter().flat_map(|p| &p.reports) {
        outcome.attempted += report.rows.len() as u64;
        for (i, row) in digest(report).into_iter().enumerate() {
            if row.is_none() || row != reference[i] {
                bad_point[i] = true;
            }
        }
    }
    // Recompile each point in a session of its own and replay it in
    // the simulator: the sweep's bound must be the session's.
    let apps: Vec<App> = APPS.into_iter().map(App::new).collect();
    let rows = &phases[0].reports[0].rows;
    let mut speedups = Vec::with_capacity(rows.len());
    let mut tightness = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let point = &row.point;
        let app = apps
            .iter()
            .find(|a| a.uc.name == point.app)
            .expect("sweep points name built apps");
        let verdict = match (&row.outcome, bad_point[i]) {
            (Err(d), _) => Err(format!("{}: {d}", point.label())),
            (Ok(_), true) => Err(format!("{}: differs between sweeps", point.label())),
            (Ok(m), false) => check::compile(app, point, &space)
                .map_err(|d| format!("{}: {d}", point.label()))
                .and_then(|r| {
                    if r.system.bound != m.par_bound {
                        return Err(format!("{}: session bound differs", point.label()));
                    }
                    let cycles = app.simulate(point, &r, run.seed.wrapping_add(i as u64))?;
                    Ok((m.seq_bound as f64, m.par_bound as f64, cycles as f64))
                }),
        };
        match verdict {
            Ok((seq, par, cycles)) => {
                speedups.push(seq / par);
                tightness.push(par / cycles);
            }
            Err(why) => outcome.fail(per_point as u64, why),
        }
    }

    if !run.trace {
        let walls_ms: Vec<f64> = phases[0].units.iter().map(|u| u.1 * 1e3).collect();
        let (setup_s, reps) = setup.median_s();
        outcome.set("setup_s", setup_s, reps);
        outcome.set("ops_per_s", untraced_rate, sweeps);
        outcome.set("p50_ms", median(&walls_ms), sweeps);
        outcome.set(
            "p99_ms",
            walls_ms.iter().copied().fold(0.0, f64::max),
            sweeps,
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
