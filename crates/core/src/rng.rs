//! A tiny, dependency-free, seeded PRNG.
//!
//! Workload generation and fuzzing both need *reproducible*
//! randomness: the same seed must yield the same programs so that runs
//! are comparable across algorithms and across machines. An xorshift64
//! generator is more than enough for that — statistical quality only has
//! to beat "adversarially boring", not cryptography.

/// A seeded xorshift64 generator.
///
/// # Examples
///
/// ```
/// use pushpull_core::rng::Xorshift64;
/// let mut a = Xorshift64::new(42);
/// let mut b = Xorshift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Creates a generator from a seed (0 is mapped to a fixed non-zero
    /// value — xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A value uniform in `lo..hi` (half-open; `hi > lo` required).
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.end > range.start, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// A value uniform in `0..n` as a `usize` (`n > 0` required).
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0..n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 bits of mantissa: exact for every representable p in [0,1].
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xorshift64::new(7);
        let mut b = Xorshift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Xorshift64::new(3);
        for _ in 0..1000 {
            let v = r.gen_range(5..17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Xorshift64::new(9);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut r = Xorshift64::new(11);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads={heads}");
    }
}
