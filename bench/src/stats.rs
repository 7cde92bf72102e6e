//! Robust aggregation: a measured phase is cut into fixed-op segments,
//! and every reported number is a median over segments or over the
//! pooled samples, so one stalled segment cannot move it.

/// Nearest-rank percentile of an ascending slice; `q` in 0..=1.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// Median with the midpoint rule for even counts (matches Python's
/// `statistics.median`, which the driver uses).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `statistics.quantiles(values, n=4)` (exclusive method): the first
/// and third quartile, used for the calibration spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// One fixed-op slice of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub ops: u64,
    pub wall_s: f64,
    /// Process CPU time spent while the segment ran, microseconds.
    pub cpu_us: f64,
    /// Per-operation latencies in microseconds.
    pub samples_us: Vec<f64>,
}

/// The measured phase of one operation kind.
#[derive(Debug, Clone, Default)]
pub struct Segments(pub Vec<Segment>);

impl Segments {
    pub fn ops(&self) -> u64 {
        self.0.iter().map(|s| s.ops).sum()
    }

    pub fn samples(&self) -> usize {
        self.0.iter().map(|s| s.samples_us.len()).sum()
    }

    /// Median of the per-segment rates (ops/s).
    pub fn rate_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .0
            .iter()
            .filter(|s| s.wall_s > 0.0)
            .map(|s| s.ops as f64 / s.wall_s)
            .collect();
        median(&rates)
    }

    /// Median of the per-segment process CPU time per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        let per: Vec<f64> = self
            .0
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| s.cpu_us / s.ops as f64)
            .collect();
        median(&per)
    }

    fn pooled(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .0
            .iter()
            .flat_map(|s| s.samples_us.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Percentile of all samples pooled (p50, and the p99 diagnostics).
    pub fn pooled_percentile(&self, q: f64) -> f64 {
        percentile_sorted(&self.pooled(), q)
    }

    /// Median of the per-segment percentiles: a tail estimate that one
    /// bad segment cannot move.
    pub fn segment_percentile(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .0
            .iter()
            .filter(|s| !s.samples_us.is_empty())
            .map(|s| percentile(&s.samples_us, q))
            .collect();
        median(&per)
    }

    /// Smallest per-segment sample count (printed beside the p95 so a
    /// reader can see it rests on enough samples).
    pub fn min_segment_samples(&self) -> usize {
        self.0.iter().map(|s| s.samples_us.len()).min().unwrap_or(0)
    }
}

/// Cut `(ordinal, latency)` samples into the segments whose ordinal
/// ranges are given by `bounds` (ascending end ordinals, exclusive).
pub fn bucket_by_ordinal(samples: &[(u64, f64)], first: u64, bounds: &[u64]) -> Segments {
    let mut segs = vec![Segment::default(); bounds.len()];
    for &(ord, us) in samples {
        if ord < first {
            continue;
        }
        if let Some(i) = bounds.iter().position(|&end| ord < end) {
            segs[i].samples_us.push(us);
            segs[i].ops += 1;
        }
    }
    Segments(segs)
}

/// Cut `(completion time, latency)` samples into the segments whose
/// `[start, end)` intervals are given; each segment's rate is its sample
/// count over its own length.
pub fn bucket_by_time(samples: &[(i64, f64)], times: &[(i64, i64)]) -> Segments {
    let mut segs: Vec<Segment> = times
        .iter()
        .map(|&(a, b)| Segment {
            ops: 0,
            wall_s: (b - a) as f64 / 1e6,
            cpu_us: 0.0,
            samples_us: Vec::new(),
        })
        .collect();
    for &(at, us) in samples {
        if let Some(i) = times.iter().position(|&(a, b)| a <= at && at < b) {
            segs[i].samples_us.push(us);
            segs[i].ops += 1;
        }
    }
    Segments(segs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        let mut segs = Vec::new();
        for i in 0..9 {
            segs.push(Segment {
                ops: 100,
                wall_s: 1.0,
                cpu_us: 2_000.0,
                samples_us: vec![10.0 + i as f64; 100],
            });
        }
        segs.push(Segment {
            ops: 100,
            wall_s: 50.0,
            cpu_us: 90_000.0,
            samples_us: vec![5000.0; 100],
        });
        let s = Segments(segs);
        assert_eq!(s.rate_per_s(), 100.0);
        assert_eq!(s.cpu_us_per_op(), 20.0);
        assert!(s.segment_percentile(0.95) < 20.0);
        assert_eq!(s.ops(), 1000);
        assert_eq!(s.min_segment_samples(), 100);
    }

    #[test]
    fn bucketing_by_time_gives_each_segment_its_own_rate() {
        let samples: Vec<(i64, f64)> = (0..300).map(|i| (i * 10_000, 5.0)).collect();
        let s = bucket_by_time(&samples, &[(1_000_000, 2_000_000), (2_000_000, 2_500_000)]);
        assert_eq!((s.0[0].ops, s.0[1].ops), (100, 50));
        assert_eq!(s.rate_per_s(), 100.0);
    }

    #[test]
    fn bucketing_follows_ordinals() {
        let samples: Vec<(u64, f64)> = (0..30).map(|i| (i, i as f64)).collect();
        let s = bucket_by_ordinal(&samples, 10, &[20, 30]);
        assert_eq!(s.0[0].ops, 10);
        assert_eq!(s.0[1].samples_us[0], 20.0);
    }
}
