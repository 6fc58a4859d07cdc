//! Percentiles over raw samples and over the scheduler's log₂ histograms.

use usf_nosv::HistogramSnapshot;

/// A fixed-memory latency histogram: log-spaced buckets 1% wide from 0.1 µs to about
/// 100 s, each with the sum of its samples, so recording millions of samples neither
/// allocates nor moves the process's peak memory. A quantile is the mean of the samples
/// in its bucket: exact to 1%, and the sample itself where the bucket holds one.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    sums: Vec<f64>,
    n: u64,
}

const HIST_MIN_US: f64 = 0.1;
const HIST_STEP: f64 = 1.01;
const HIST_BUCKETS: usize = 2_090;

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; HIST_BUCKETS],
            sums: vec![0.0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    pub fn record(&mut self, us: f64) {
        let i =
            (((us / HIST_MIN_US).max(1.0).ln() / HIST_STEP.ln()) as usize).min(HIST_BUCKETS - 1);
        self.counts[i] += 1;
        self.sums[i] += us;
        self.n += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for i in 0..HIST_BUCKETS {
            self.counts[i] += other.counts[i];
            self.sums[i] += other.sums[i];
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank `q`-quantile in microseconds: the mean of the samples in the bucket
    /// holding that rank; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.sums[i] / c as f64;
            }
        }
        f64::NAN
    }
}

/// Nearest-rank `q`-quantile (`0.0..=1.0`) of `values`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Number of samples strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: u64, q: f64) -> u64 {
    n - ((q * n as f64).ceil() as u64).min(n)
}

/// The `q`-quantile of a log₂-bucketed histogram, in nanoseconds, interpolated linearly
/// by rank inside the bucket that holds it (the histogram's own `percentile` reports the
/// bucket's upper edge, which reads the same on every run). NaN when empty.
pub fn hist_quantile_ns(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        let b = b as f64;
        if seen + b >= rank {
            let (lo, hi) = if i == 0 {
                (0.0, 0.0)
            } else {
                ((1u64 << (i - 1)) as f64, ((1u128 << i) - 1) as f64)
            };
            let hi = hi.min(h.max_ns as f64).max(lo);
            return lo + (hi - lo) * (rank - seen) / b;
        }
        seen += b;
    }
    h.max_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn log_hist_quantiles_are_within_a_percent() {
        let mut h = LogHist::default();
        (1..=1000).for_each(|v| h.record(f64::from(v)));
        for (q, want) in [(0.5, 500.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 1e-2, "{q}: {got}");
        }
        assert!(LogHist::default().quantile(0.5).is_nan());
        let mut halves = [LogHist::default(), LogHist::default()];
        (1..=1000).for_each(|v| halves[v as usize % 2].record(f64::from(v)));
        let [mut merged, odd] = halves;
        merged.merge(&odd);
        assert_eq!(merged.len(), 1000);
        assert_eq!(merged.quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let h = usf_nosv::Histogram::new(1);
        for ns in [1_000u64, 1_100, 1_200, 5_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        let p50 = hist_quantile_ns(&s, 0.5);
        // The second sample, 1100 ns, lies in the bucket [1024, 2047].
        assert!((1_024.0..=2_047.0).contains(&p50), "{p50}");
        assert!(hist_quantile_ns(&s, 1.0) <= 5_000.0);
    }
}
