//! Timing statistics: percentiles, the justified-tail summary, self time and
//! a log2 duration histogram.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice;
/// NaN when the slice is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of an unsorted sample; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// The tail ladder [`TailSummary::of`] climbs, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 75.0];

/// Median plus the highest percentile the sample can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The highest percentile on the ladder (p99.99, p99.9, p99, p90, p75)
    /// with at least ten samples beyond it; `None` below 40 samples.
    pub tail: Option<(f64, f64)>,
}

impl TailSummary {
    /// Summarize an unsorted sample.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            .map(|&p| (p, percentile_sorted(&v, p)));
        TailSummary {
            n,
            p50: percentile_sorted(&v, 50.0),
            tail,
        }
    }
}

/// Self time of a span: inclusive time minus the time spent in its children,
/// clamped at zero (clock granularity can make a child look longer than its
/// parent).
pub fn self_time(inclusive_ns: u64, child_ns: u64) -> u64 {
    inclusive_ns.saturating_sub(child_ns)
}

/// Call durations bucketed by power of two: bucket `i` counts calls of
/// `[2^(i-1), 2^i)` ns (bucket 0 holds zero-length calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket call counts.
    pub buckets: [u64; 64],
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Log2Histogram { buckets: [0; 64] }
    }

    /// Count one call of `ns` nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let i = (64 - ns.leading_zeros()) as usize;
        self.buckets[i.min(63)] += 1;
    }

    /// Calls recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper edge (ns) of the bucket holding the `p`-th percentile call;
    /// 0 when empty.
    pub fn percentile_upper_ns(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    /// Add another histogram's counts into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let sample = |n: usize| -> Vec<f64> { (0..n).rev().map(|i| i as f64).collect() };
        assert_eq!(TailSummary::of(&sample(39)).tail, None);
        let s = TailSummary::of(&sample(40));
        assert_eq!(s.tail.map(|t| t.0), Some(75.0));
        assert_eq!(TailSummary::of(&sample(100)).tail.map(|t| t.0), Some(90.0));
        assert_eq!(TailSummary::of(&sample(999)).tail.map(|t| t.0), Some(90.0));
        let s = TailSummary::of(&sample(1000));
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert_eq!(s.p50, 499.0);
        assert_eq!(
            TailSummary::of(&sample(100_000)).tail.map(|t| t.0),
            Some(99.99)
        );
    }

    #[test]
    fn self_time_is_inclusive_minus_children_and_never_negative() {
        assert_eq!(self_time(1_000, 400), 600);
        assert_eq!(self_time(1_000, 1_000), 0);
        assert_eq!(self_time(1_000, 1_200), 0);
    }

    #[test]
    fn log2_histogram_buckets_and_percentiles() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(3);
        for _ in 0..97 {
            h.record(1_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 97);
        assert_eq!(h.percentile_upper_ns(50.0), 1024);
        assert_eq!(h.percentile_upper_ns(1.0), 0);
        let mut g = Log2Histogram::new();
        g.merge(&h);
        assert_eq!(g, h);
    }
}
