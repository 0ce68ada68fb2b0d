//! Metrics: atomic counters, fixed-bucket histograms with
//! quantile derivation, and a registry with Prometheus text exposition.
//!
//! Metric names follow Prometheus conventions
//! (`subsystem_quantity_unit`, `_total` suffix on counters) and may
//! carry a literal label set: `argo_serve_request_latency_us{kind="compile"}`
//! is one registry entry; the exposition splits the base name from the
//! labels so `# TYPE` lines and histogram `_bucket` series come out
//! well-formed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Microsecond latency buckets: 1 µs – 10 s, roughly ×2–×2.5 steps.
pub const LATENCY_US_BUCKETS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Small-count buckets (iteration/round counts): 1 – 128.
pub const COUNT_BUCKETS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128];

/// Fixed-bucket histogram: bucket `i` counts observations `<=
/// bounds[i]` (Prometheus `le` semantics) plus one overflow bucket.
/// Observation and quantile reads are lock-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[u64]>,
    /// `bounds.len() + 1` buckets; the last is the `+Inf` overflow.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = match self.bounds.binary_search(&v) {
            Ok(i) | Err(i) => i,
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    pub fn observe_duration_us(&self, d: std::time::Duration) {
        self.observe(d.as_micros() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside
    /// the bucket that crosses the target rank. Values in the overflow
    /// bucket clamp to the largest bound; an empty histogram reads 0.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
        let mut cum = 0u64;
        let mut lower = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            let upper = self.bounds.get(i).copied();
            if c > 0 && (cum + c) as f64 >= target {
                let Some(upper) = upper else {
                    // Overflow bucket: no upper bound to interpolate to.
                    return lower as f64;
                };
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lower as f64 + frac * (upper - lower) as f64;
            }
            cum += c;
            if let Some(u) = upper {
                lower = u;
            }
        }
        lower as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// `(cumulative_count, bound)` pairs plus the `+Inf` total, for
    /// exposition.
    pub fn cumulative(&self) -> (Vec<(u64, u64)>, u64) {
        let mut cum = 0u64;
        let mut rows = Vec::with_capacity(self.bounds.len());
        for (i, bound) in self.bounds.iter().enumerate() {
            cum += self.buckets[i].load(Ordering::Relaxed);
            rows.push((cum, *bound));
        }
        cum += self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        (rows, cum)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A named-metric registry. Get-or-create lookups take a mutex (call
/// them at setup, hold the `Arc` on hot paths); the exposition walks
/// the map in name order, so output is deterministic for a given set
/// of values.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The histogram named `name`, created over `bounds` on first use
    /// (later calls keep the original bounds).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match metric {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// The histogram named `name`, if registered.
    pub fn get_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// The counter named `name`, if registered.
    pub fn get_counter(&self, name: &str) -> Option<Arc<Counter>> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(c.clone()),
            _ => None,
        }
    }

    /// Prometheus text exposition (format 0.0.4) of every registered
    /// metric, in name order.
    pub fn prometheus(&self) -> String {
        let metrics = self.metrics.lock().unwrap();
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, metric) in metrics.iter() {
            let (base, labels) = split_labels(name);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Histogram(_) => "histogram",
            };
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Histogram(h) => {
                    let (rows, total) = h.cumulative();
                    for (cum, bound) in rows {
                        let series = merge_label(base, labels, &format!("le=\"{bound}\""));
                        let _ = writeln!(out, "{series} {cum}");
                    }
                    let series = merge_label(base, labels, "le=\"+Inf\"");
                    let _ = writeln!(out, "{series} {total}");
                    let suffix = labels.map(|l| format!("{{{l}}}")).unwrap_or_default();
                    let _ = writeln!(out, "{base}_sum{suffix} {}", h.sum());
                    let _ = writeln!(out, "{base}_count{suffix} {total}");
                }
            }
        }
        out
    }
}

/// Splits `name{a="b"}` into (`name`, Some(`a="b"`)).
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) if name.ends_with('}') => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Builds `base_bucket{existing,extra}`.
fn merge_label(base: &str, labels: Option<&str>, extra: &str) -> String {
    match labels {
        Some(l) => format!("{base}_bucket{{{l},{extra}}}"),
        None => format!("{base}_bucket{{{extra}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let r = Registry::new();
        let c = r.counter("argo_test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(
            r.counter("argo_test_total").get(),
            5,
            "get-or-create returns the same cell"
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        let h = Histogram::new(&[10, 20, 30]);
        // A value exactly on a bound lands in that bound's bucket.
        h.observe(10);
        h.observe(11);
        h.observe(30);
        h.observe(31); // overflow
        let (rows, total) = h.cumulative();
        assert_eq!(rows, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(total, 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 82);
    }

    /// Reference quantile on the raw sorted sample: nearest-rank.
    fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The histogram's enclosing-bucket bounds for a value.
    fn bucket_bounds(bounds: &[u64], v: u64) -> (u64, u64) {
        let mut lower = 0;
        for &b in bounds {
            if v <= b {
                return (lower, b);
            }
            lower = b;
        }
        (lower, u64::MAX)
    }

    #[test]
    fn quantiles_match_sorted_reference_within_bucket_width() {
        // Deterministic pseudo-random samples (LCG), heavy tail.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut samples: Vec<u64> = (0..500)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 900_000 + 1
            })
            .collect();
        let h = Histogram::new(LATENCY_US_BUCKETS);
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let reference = reference_quantile(&samples, q);
            let (lo, hi) = bucket_bounds(LATENCY_US_BUCKETS, reference);
            let estimate = h.quantile(q);
            assert!(
                estimate >= lo as f64 && estimate <= hi as f64,
                "q={q}: estimate {estimate} outside reference bucket [{lo}, {hi}] (ref {reference})"
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[10, 20]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reads 0");
        h.observe(5);
        assert!(h.quantile(0.0) > 0.0, "q=0 targets the first observation");
        h.observe(1_000); // overflow bucket
        assert_eq!(h.quantile(1.0), 20.0, "overflow clamps to the top bound");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("argo_req_total{kind=\"compile\"}").add(3);
        r.counter("argo_req_total{kind=\"verify\"}").inc();
        let h = r.histogram("argo_lat_us{kind=\"compile\"}", &[10, 100]);
        h.observe(7);
        h.observe(50);
        h.observe(5_000);
        let text = r.prometheus();
        assert!(text.contains("# TYPE argo_req_total counter"));
        assert_eq!(
            text.matches("# TYPE argo_req_total counter").count(),
            1,
            "one TYPE line per base name:\n{text}"
        );
        assert!(text.contains("argo_req_total{kind=\"compile\"} 3"));
        assert!(text.contains("argo_lat_us_bucket{kind=\"compile\",le=\"10\"} 1"));
        assert!(text.contains("argo_lat_us_bucket{kind=\"compile\",le=\"+Inf\"} 3"));
        assert!(text.contains("argo_lat_us_sum{kind=\"compile\"} 5057"));
        assert!(text.contains("argo_lat_us_count{kind=\"compile\"} 3"));
    }
}
