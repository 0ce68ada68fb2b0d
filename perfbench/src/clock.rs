//! Host-speed-normalized time.
//!
//! On a shared VM the speed of a vCPU drifts. A fixed CPU-bound kernel
//! run back to back on a 2-vCPU x86-64 VM took 31–65 ms per iteration
//! over 40 s, in plateaus lasting seconds, and ten 20-second `compile`
//! runs of one build spread 16% in ops per second (interquartile range
//! over median) — with under 1% steal time, and user CPU time differing
//! just as much, so neither longer runs nor CPU time remove it.
//!
//! The times of `compile` and `serve` are therefore scaled to a nominal
//! host speed: a small probe, independent of the program under test,
//! runs on the measuring thread right before and right after each work
//! unit (and between its ops where the workload can pause), and the
//! unit's wall time is multiplied by [`NOMINAL_PROBE_S`] over the mean
//! of its probes. A change to the program moves the unit's wall time but
//! not the probe, so it shows in full; a host slowdown moves both and
//! cancels — the same ten `compile` runs spread 3% once scaled.
//! Unscaled figures are printed beside the scaled ones.
//!
//! The probe runs only while the workload is paused: probing from a
//! second thread during a run measured the scheduler's placement of
//! that thread more than the host, and added noise instead of removing
//! it. A loopback round-trip probe, tried for `serve`, tracked the
//! daemon's speed worse than this one.

use crate::stats::{median_rate, percentile};
use std::time::Instant;

/// The probe's duration on the 2-vCPU x86-64 VM the benchmark was
/// calibrated on: a scale of 1 means that speed.
const NOMINAL_PROBE_S: f64 = 0.001;

/// Runs the probe kernel `runs` times and returns the median duration
/// in seconds; the median keeps an interrupted run out.
pub fn probe_s(runs: usize) -> f64 {
    let mut times: Vec<f64> = (0..runs.max(1)).map(|_| kernel_s()).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A fixed CPU-bound kernel (integer hashing, vector growth, sorting)
/// of about a millisecond.
fn kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut v: Vec<u64> = Vec::with_capacity(4_200);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..50_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        v.push(x ^ i);
        if v.len() > 4_096 {
            v.sort_unstable();
            v.truncate(64);
        }
    }
    std::hint::black_box(v);
    t0.elapsed().as_secs_f64()
}

/// The factor that turns wall time measured between probes `before`
/// and `after` into nominal-host time.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_PROBE_S / ((before + after) / 2.0)
}

/// Consecutive work units, each timed between probes: one at each
/// end, shared with the neighbouring unit, plus any taken inside it.
pub struct Units {
    /// Kernel runs per probe: a few where probes come often, many where
    /// a long unit has only its two ends.
    runs: usize,
    probes: Vec<f64>,
    /// Scale factors of the units so far.
    pub scales: Vec<f64>,
}

impl Units {
    /// Probes once, ahead of the first unit.
    pub fn start(runs: usize) -> Units {
        Units {
            runs,
            probes: vec![probe_s(runs)],
            scales: Vec::new(),
        }
    }

    /// Probes inside a unit (between two of its ops) and returns the
    /// seconds the probe took, which the caller leaves out of the
    /// unit's wall time.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        self.probes.push(probe_s(self.runs));
        t0.elapsed().as_secs_f64()
    }

    /// Probes after a unit and returns its scale: the nominal probe
    /// time over the mean of the unit's probes. The closing probe also
    /// opens the next unit.
    pub fn close(&mut self) -> f64 {
        let last = probe_s(self.runs);
        self.probes.push(last);
        let mean = self.probes.iter().sum::<f64>() / self.probes.len() as f64;
        let scale = NOMINAL_PROBE_S / mean;
        self.probes = vec![last];
        self.scales.push(scale);
        scale
    }
}

/// A note on the host's speed over a phase's units (their `scales`)
/// and the phase's unscaled figures: `raw_units` as `(ops, wall
/// seconds)`, `raw_ms` the unscaled op latencies (empty when the
/// workload reports none per op).
pub fn note(scales: &[f64], raw_units: &[(f64, f64)], raw_ms: &[f64]) -> String {
    let lo = scales.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = scales.iter().copied().fold(0.0, f64::max);
    let mut note = format!(
        "host speed scale {lo:.3}–{hi:.3} over {} units; unscaled ops_per_s {:.4}",
        scales.len(),
        median_rate(raw_units)
    );
    if let (Some(p50), Some(p99)) = (percentile(raw_ms, 50.0), percentile(raw_ms, 99.0)) {
        note.push_str(&format!(", p50_ms {p50:.4}, p99_ms {p99:.4}"));
    }
    note
}
