//! Log-bucketed latency histograms (an HdrHistogram-like sketch).

/// Nanosecond latency histogram with logarithmic major buckets and linear
/// sub-buckets — constant memory, ~3 % relative error, cheap record path.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// buckets[major][sub]: major = floor(log2(v)) clamped, 32 sub-buckets.
    buckets: Vec<[u64; Histogram::SUBS]>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    const MAJORS: usize = 44; // up to ~17.6 s in ns
    const SUBS: usize = 32;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![[0; Histogram::SUBS]; Histogram::MAJORS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn slot(v: u64) -> (usize, usize) {
        let v = v.max(1);
        let major = (63 - v.leading_zeros() as usize).min(Histogram::MAJORS - 1);
        let sub = if major < 5 {
            0
        } else {
            ((v >> (major - 5)) & 0x1f) as usize
        };
        (major, sub)
    }

    /// Record one latency value (nanoseconds).
    pub fn record(&mut self, v: u64) {
        let (major, sub) = Histogram::slot(v);
        self.buckets[major][sub] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (m, subs) in other.buckets.iter().enumerate() {
            for (s, c) in subs.iter().enumerate() {
                self.buckets[m][s] += c;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (ns).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]` (ns).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // q = 0 would give target 0, which the leading *empty* buckets
        // satisfy (0 >= 0) — selecting a bucket below every sample. The
        // smallest meaningful rank is the first sample.
        let target = (((q.clamp(0.0, 1.0)) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (m, subs) in self.buckets.iter().enumerate() {
            for (s, c) in subs.iter().enumerate() {
                seen += c;
                if seen >= target {
                    // Representative value of the bucket: its lower bound,
                    // clamped to the observed range — the lower bound of a
                    // sample's bucket can sit below the sample itself (e.g.
                    // a single 1000 lands in the bucket starting at 992),
                    // and a quantile below the minimum is nonsense.
                    let base = 1u64 << m;
                    let width = if m < 5 { 1 } else { 1u64 << (m - 5) };
                    return (base + s as u64 * width).clamp(self.min, self.max);
                }
            }
        }
        self.max
    }

    /// Condensed summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_ns: self.mean(),
            min_ns: if self.count == 0 { 0 } else { self.min },
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            p999_ns: self.quantile(0.999),
            p9999_ns: self.quantile(0.9999),
            max_ns: self.max,
        }
    }
}

/// Percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Minimum (ns).
    pub min_ns: u64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// 99.9th percentile (ns).
    pub p999_ns: u64,
    /// 99.99th percentile (ns).
    pub p9999_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

impl HistogramSummary {
    /// Render as `mean/p50/p99/p9999/max` in microseconds.
    pub fn display_us(&self) -> String {
        format!(
            "mean {:.1}us p50 {:.1}us p99 {:.1}us p99.99 {:.1}us max {:.1}us",
            self.mean_ns / 1e3,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.p9999_ns as f64 / 1e3,
            self.max_ns as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1..1000 us
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean_ns - 500_500.0).abs() < 1000.0);
        // ~3% bucket error, allow 10%.
        let p50 = s.p50_ns as f64;
        assert!((450_000.0..=550_000.0).contains(&p50), "p50 {p50}");
        let p99 = s.p99_ns as f64;
        assert!((900_000.0..=1_010_000.0).contains(&p99), "p99 {p99}");
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.min_ns, 1000);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.summary().max_ns, 1_000_000);
        assert_eq!(a.summary().min_ns, 100);
    }

    #[test]
    fn merged_percentiles_match_single_combined_histogram() {
        // Three per-worker histograms vs one histogram fed every sample:
        // merge must be lossless, so every percentile matches exactly.
        let mut combined = Histogram::new();
        let mut merged = Histogram::new();
        let mut x = 7u64;
        for w in 0..3u64 {
            let mut part = Histogram::new();
            for i in 0..5_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(w * 1_000 + i);
                let v = x % 5_000_000 + 1;
                part.record(v);
                combined.record(v);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), combined.count());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            assert_eq!(
                merged.quantile(q),
                combined.quantile(q),
                "quantile {q} diverged after merge"
            );
        }
        assert_eq!(merged.summary(), combined.summary());
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
        assert_eq!(s.mean_ns, 0.0);
    }

    #[test]
    fn extreme_values_clamp() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn quantile_zero_is_the_minimum() {
        // Regression: target rank 0 used to match the leading empty
        // bucket and return 1, below every recorded sample.
        let mut h = Histogram::new();
        for v in [5_000u64, 9_000, 123_456] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
        assert!(h.quantile(0.0) >= 4_800, "q=0 must sit at the min bucket");
        assert!(h.quantile(0.0) <= 5_000);
    }

    #[test]
    fn single_sample_quantiles_never_undercut_the_sample() {
        // Regression: the bucket lower bound for 1000 is 992; every
        // quantile of a single-sample histogram must be exactly it.
        let mut h = Histogram::new();
        h.record(1000);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1000, "q={q}");
        }
        let s = h.summary();
        assert_eq!(s.min_ns, 1000);
        assert_eq!(s.p50_ns, 1000);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 3_000] {
            h.record(v);
        }
        let before = h.summary();
        h.merge(&Histogram::new());
        assert_eq!(h.summary(), before, "merging an empty histogram in");
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty.summary(), before, "merging into an empty histogram");
        // And empty-into-empty stays a well-formed empty histogram.
        let mut e2 = Histogram::new();
        e2.merge(&Histogram::new());
        assert_eq!(e2.count(), 0);
        assert_eq!(e2.quantile(0.5), 0);
        assert_eq!(e2.summary().min_ns, 0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 10_000_000 + 1);
        }
        let qs: Vec<u64> = [0.1, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|q| h.quantile(*q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "{qs:?}");
        }
    }
}
