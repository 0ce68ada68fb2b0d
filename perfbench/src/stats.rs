//! Statistics helpers: the percentile rule, the median-over-work-units
//! rate, the geometric mean, and a reader for the daemon's Prometheus
//! `metrics` text.

/// Median of `xs` (the mean of the two middle values for an even
/// count; 0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (`0 < p < 100`) of `xs`, linearly interpolated
/// between the closest ranks — or `None` when fewer than ten samples
/// lie beyond it. A percentile with fewer samples beyond it is set by a
/// handful of ops, so it is not reported.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let beyond = n as f64 * (1.0 - p / 100.0);
    if n == 0 || beyond < 10.0 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Some(sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median over equal work units of ops per second: each unit is
/// `(ops, seconds)`. A rate per unit, rather than all ops over all
/// time, keeps one disturbed unit from moving the figure.
pub fn median_rate(units: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = units.iter().map(|&(ops, secs)| ops / secs).collect();
    median(&rates)
}

/// Splits a completion timeline into consecutive windows of `per_window`
/// completions each and returns one `(ops, seconds)` unit per window.
/// `start` is the phase start; `completions` are completion times in
/// seconds on the same clock, in any order. A trailing partial window
/// is dropped so every unit holds the same work.
pub fn completion_windows(start: f64, completions: &[f64], per_window: usize) -> Vec<(f64, f64)> {
    let mut sorted = completions.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut units = Vec::new();
    let mut from = start;
    for window in sorted.chunks_exact(per_window.max(1)) {
        let to = window[window.len() - 1];
        units.push((window.len() as f64, (to - from).max(f64::MIN_POSITIVE)));
        from = to;
    }
    units
}

/// Geometric mean of positive values (0 for no values).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One sample line of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A parsed Prometheus text exposition (format 0.0.4, as the daemon's
/// `metrics` request renders it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prometheus {
    samples: Vec<Sample>,
}

/// Cumulative bucket counts of one histogram: `(le, count)` pairs in
/// increasing `le` order, the `+Inf` bucket last with `le = inf`.
pub type Buckets = Vec<(f64, f64)>;

impl Prometheus {
    /// Parses the exposition; comment lines and lines that are not
    /// `name{labels} value` are skipped.
    pub fn parse(text: &str) -> Prometheus {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(parse_sample)
            .collect();
        Prometheus { samples }
    }

    /// Sum of every series named `name` (over all label sets); 0 when
    /// absent.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The histogram `name`, its buckets summed over every label set
    /// other than `le` (so per-kind histograms merge into one).
    pub fn histogram(&self, name: &str) -> Buckets {
        let bucket = format!("{name}_bucket");
        let mut merged: Buckets = Vec::new();
        for s in self.samples.iter().filter(|s| s.name == bucket) {
            let Some((_, le)) = s.labels.iter().find(|(k, _)| k == "le") else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            match merged.iter_mut().find(|(b, _)| *b == le) {
                Some(entry) => entry.1 += s.value,
                None => merged.push((le, s.value)),
            }
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        merged
    }
}

/// `after − before`, bucket by bucket (both from [`Prometheus::histogram`]
/// of the same histogram): the observations made in between.
pub fn bucket_delta(after: &Buckets, before: &Buckets) -> Buckets {
    after
        .iter()
        .map(|&(le, count)| {
            let earlier = before
                .iter()
                .find(|(b, _)| *b == le)
                .map_or(0.0, |&(_, c)| c);
            (le, count - earlier)
        })
        .collect()
}

/// The `q`-quantile (`0..=1`) of cumulative `buckets`, interpolated
/// linearly inside the bucket that crosses the target rank — the rule
/// `argo_trace::Histogram::quantile` uses, so the figure matches the
/// daemon's own. Observations in the `+Inf` bucket clamp to the largest
/// finite bound; no observations read 0.
pub fn bucket_quantile(buckets: &Buckets, q: f64) -> f64 {
    let total = buckets.last().map_or(0.0, |&(_, c)| c);
    if total <= 0.0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total).max(1.0);
    let (mut lower, mut below) = (0.0, 0.0);
    for &(le, cum) in buckets {
        let inside = cum - below;
        if inside > 0.0 && cum >= target {
            if le.is_infinite() {
                return lower;
            }
            let frac = ((target - below) / inside).clamp(0.0, 1.0);
            return lower + frac * (le - lower);
        }
        below = cum;
        if le.is_finite() {
            lower = le;
        }
    }
    lower
}

fn parse_sample(line: &str) -> Option<Sample> {
    let line = line.trim();
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
        None => (series, Vec::new()),
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `a="x",b="y"` (label values never contain `"` or `,` in this
/// exposition).
fn parse_labels(text: &str) -> Option<Vec<(String, String)>> {
    text.split(',')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (key, value) = pair.split_once('=')?;
            let value = value.strip_prefix('"')?.strip_suffix('"')?;
            Some((key.to_string(), value.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 99.0),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).expect("1000 samples leave 10 beyond p99");
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.5));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&xs, 99.0);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&xs, 99.0));
    }

    #[test]
    fn median_rate_resists_one_slow_unit() {
        let units = [(100.0, 1.0), (100.0, 1.0), (100.0, 10.0)];
        assert_eq!(median_rate(&units), 100.0);
    }

    #[test]
    fn completion_windows_hold_equal_work() {
        let done = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0];
        let units = completion_windows(0.0, &done, 2);
        assert_eq!(units, vec![(2.0, 1.0), (2.0, 1.0), (2.0, 2.0)]);
        assert_eq!(median_rate(&units), 2.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    const TEXT: &str = "\
# TYPE argo_serve_request_latency_us histogram
argo_serve_request_latency_us_bucket{kind=\"compile\",le=\"100\"} 2
argo_serve_request_latency_us_bucket{kind=\"compile\",le=\"250\"} 6
argo_serve_request_latency_us_bucket{kind=\"compile\",le=\"+Inf\"} 8
argo_serve_request_latency_us_sum{kind=\"compile\"} 2000
argo_serve_request_latency_us_count{kind=\"compile\"} 8
argo_serve_request_latency_us_bucket{kind=\"verify\",le=\"100\"} 2
argo_serve_request_latency_us_bucket{kind=\"verify\",le=\"250\"} 2
argo_serve_request_latency_us_bucket{kind=\"verify\",le=\"+Inf\"} 2
argo_serve_request_latency_us_sum{kind=\"verify\"} 100
argo_serve_request_latency_us_count{kind=\"verify\"} 2
# TYPE argo_store_put_latency_us histogram
argo_store_put_latency_us_sum 350
argo_store_put_latency_us_count 10
# TYPE argo_sched_bnb_expanded_total counter
argo_sched_bnb_expanded_total 6934209
";

    #[test]
    fn reads_counters_and_label_sums() {
        let p = Prometheus::parse(TEXT);
        assert_eq!(p.sum("argo_sched_bnb_expanded_total"), 6_934_209.0);
        assert_eq!(p.sum("argo_serve_request_latency_us_count"), 10.0);
        assert_eq!(p.sum("argo_store_put_latency_us_sum"), 350.0);
        assert_eq!(p.sum("argo_no_such_metric"), 0.0);
    }

    #[test]
    fn merges_histograms_across_labels() {
        let p = Prometheus::parse(TEXT);
        let h = p.histogram("argo_serve_request_latency_us");
        assert_eq!(h, vec![(100.0, 4.0), (250.0, 8.0), (f64::INFINITY, 10.0)]);
        // Median: rank 5 of 10 is the first of the four in (100, 250].
        assert!((bucket_quantile(&h, 0.5) - 137.5).abs() < 1e-9);
        // The top rank sits in the overflow bucket: clamp to 250.
        assert_eq!(bucket_quantile(&h, 1.0), 250.0);
    }

    #[test]
    fn bucket_quantile_matches_the_registry() {
        let registry = argo::trace::Registry::new();
        let h = registry.histogram("lat_us", argo::trace::LATENCY_US_BUCKETS);
        for v in [3, 40, 40, 120, 180, 900, 1_200, 7_000, 7_000, 30_000] {
            h.observe(v);
        }
        let buckets = Prometheus::parse(&registry.prometheus()).histogram("lat_us");
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert!(
                (bucket_quantile(&buckets, q) - h.quantile(q)).abs() < 1e-9,
                "q={q}"
            );
        }
    }

    #[test]
    fn deltas_subtract_bucket_by_bucket() {
        let before = vec![(100.0, 1.0), (f64::INFINITY, 2.0)];
        let after = vec![(100.0, 4.0), (f64::INFINITY, 9.0)];
        assert_eq!(
            bucket_delta(&after, &before),
            vec![(100.0, 3.0), (f64::INFINITY, 7.0)]
        );
        assert_eq!(bucket_quantile(&vec![], 0.5), 0.0);
    }
}
