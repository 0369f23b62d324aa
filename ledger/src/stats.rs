//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile `p` of unsorted `samples`, or 0 when there are
/// none.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p).unwrap_or(0.0)
}

/// Median of unsorted `samples` (mean of the two middle ones when the
/// count is even), or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut samples = samples.to_vec();
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// Samples pooled into buckets 1/128 of their value wide (values below 128
/// are exact), so that a percentile over millions of samples costs a fixed
/// 40 KiB and does not show in `peak_rss_mb`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

/// Sub-buckets per power of two, as a shift.
const SUB_BITS: u32 = 7;
/// Values at or above `2^MAX_BITS` land in the last bucket.
const MAX_BITS: u32 = 44;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; ((MAX_BITS - SUB_BITS + 1) as usize) << SUB_BITS],
            count: 0,
        }
    }
}

impl Histogram {
    fn index(value: u64) -> usize {
        let value = value.min((1 << MAX_BITS) - 1);
        let top = 63 - value.max(1).leading_zeros();
        if top < SUB_BITS {
            return value as usize;
        }
        let shift = top - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + ((value >> shift) as usize & ((1 << SUB_BITS) - 1))
    }

    /// Smallest value of bucket `index` and the bucket's width.
    fn bounds(index: usize) -> (u64, u64) {
        let (row, sub) = (index >> SUB_BITS, (index & ((1 << SUB_BITS) - 1)) as u64);
        if row == 0 {
            return (sub, 1);
        }
        let shift = row as u32 - 1;
        (((1 << SUB_BITS) + sub) << shift, 1 << shift)
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` of the pooled samples, placed inside its
    /// bucket by the sample's rank there; 0 when there are none.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut below = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if below + n >= rank {
                let (low, width) = Self::bounds(i);
                let inside = (rank - below) as f64 - 0.5;
                return low as f64 + (width - 1) as f64 * inside / n as f64;
            }
            below += n;
        }
        0.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// has no ratio to report).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&v, 5.0), Some(15));
        assert_eq!(percentile(&v, 30.0), Some(20));
        assert_eq!(percentile(&v, 40.0), Some(20));
        assert_eq!(percentile(&v, 50.0), Some(35));
        assert_eq!(percentile(&v, 99.0), Some(50));
        assert_eq!(percentile(&v, 100.0), Some(50));
        assert_eq!(percentile(&v, 0.0), Some(15));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // 1000 samples: p99 is the 990th, leaving ten beyond it.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), Some(990));
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_the_exact_ones() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0.0);
        // Exact below 128.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(99.0), 99.0);
        // A long-tailed sample: within 1/128 of the exact nearest rank.
        let mut h = Histogram::default();
        let mut exact: Vec<u64> = (0..100_000u64)
            .map(|i| 1_000 + i * i % 977 * (i % 89) * 31)
            .collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        assert_eq!(h.count(), 100_000);
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = percentile(&exact, p).unwrap() as f64;
            let got = h.percentile(p);
            assert!((got - want).abs() <= want / 128.0, "p{p}: {got} vs {want}");
        }
        // Out-of-range values are kept, in the last bucket.
        h.record(u64::MAX);
        assert!(h.percentile(100.0) >= (1u64 << 43) as f64);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
