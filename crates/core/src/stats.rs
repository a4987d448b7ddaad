//! Small statistics toolkit shared by the runtime, the simulator and
//! the benchmark harness: a log-bucketed latency histogram with
//! percentile queries, and exact percentile helpers for offline
//! analysis. No external dependencies — the histogram sits on hot
//! paths.

use crate::time::Micros;

/// Number of linear sub-buckets per power of two. 32 gives ~3% relative
/// error on percentile queries, plenty for latency reporting.
const SUBBUCKETS: usize = 32;
const BUCKETS: usize = 64 * SUBBUCKETS;

/// A log-bucketed histogram of microsecond values. Recording is O(1);
/// memory is fixed (~16 KiB).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUBBUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize;
        let shift = exp - SUBBUCKETS.trailing_zeros() as usize;
        let sub = ((v >> shift) as usize) & (SUBBUCKETS - 1);
        // Buckets for exponent `exp` start at (exp - log2(SUB) + 1) * SUB.
        (exp - SUBBUCKETS.trailing_zeros() as usize + 1) * SUBBUCKETS + sub
    }

    /// Representative (lower-bound) value of bucket `i`.
    fn bucket_low(i: usize) -> u64 {
        let log_sub = SUBBUCKETS.trailing_zeros() as usize;
        if i < SUBBUCKETS {
            return i as u64;
        }
        let group = i / SUBBUCKETS; // >= 1
        let sub = i % SUBBUCKETS;
        let exp = group - 1 + log_sub;
        (1u64 << exp) + ((sub as u64) << (exp - log_sub))
    }

    /// Record one observation.
    pub fn record(&mut self, v: Micros) {
        let x = v.0;
        self.counts[Self::index(x).min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of all observations (zero when empty).
    pub fn mean(&self) -> Micros {
        if self.total == 0 {
            Micros::ZERO
        } else {
            Micros((self.sum / self.total as u128) as u64)
        }
    }

    /// Smallest observation (zero when empty).
    pub fn min(&self) -> Micros {
        if self.total == 0 {
            Micros::ZERO
        } else {
            Micros(self.min)
        }
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> Micros {
        Micros(self.max)
    }

    /// Percentile query, `q` in [0, 100]. Returns the lower bound of the
    /// bucket containing the q-th percentile observation.
    pub fn percentile(&self, q: f64) -> Micros {
        if self.total == 0 {
            return Micros::ZERO;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Micros(Self::bucket_low(i).min(self.max).max(self.min));
            }
        }
        Micros(self.max)
    }

    /// The 50th percentile (same bucket bounds as [`percentile`](Self::percentile)).
    pub fn median(&self) -> Micros {
        self.percentile(50.0)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p50", &self.median())
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

/// Exact percentile of a sample set (sorts a copy; for offline
/// analysis, not hot paths). `q` in [0, 100].
pub fn exact_percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), Micros::ZERO);
        assert_eq!(h.mean(), Micros::ZERO);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBBUCKETS as u64 {
            h.record(Micros(v));
        }
        assert_eq!(h.min(), Micros(0));
        assert_eq!(h.max(), Micros(SUBBUCKETS as u64 - 1));
        assert_eq!(h.percentile(100.0).0, SUBBUCKETS as u64 - 1);
    }

    #[test]
    fn percentiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(Micros(v));
        }
        let p50 = h.median().0 as f64;
        let p99 = h.percentile(99.0).0 as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.07, "p50 = {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.07, "p99 = {p99}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(Micros(100));
        h.record(Micros(300));
        assert_eq!(h.mean(), Micros(200));
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Micros(10));
        b.record(Micros(1_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Micros(10));
        assert_eq!(a.max(), Micros(1_000));
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        // bucket_low(index(v)) <= v for all v, and relative error < 1/16.
        for shift in 0..60 {
            for off in [0u64, 1, 3, 7] {
                let v = (1u64 << shift) + off * (1u64 << shift) / 8;
                let low = Histogram::bucket_low(Histogram::index(v));
                assert!(low <= v, "low {low} > v {v}");
                if v >= SUBBUCKETS as u64 {
                    assert!(
                        (v - low) as f64 / v as f64 <= 1.0 / 16.0,
                        "error too large: v={v} low={low}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_percentile_works() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile(&samples, 50.0), 50);
        assert_eq!(exact_percentile(&samples, 99.0), 99);
        assert_eq!(exact_percentile(&samples, 100.0), 100);
        assert_eq!(exact_percentile(&[], 50.0), 0);
    }
}
