//! Deterministic random number generation for the data generators.
//!
//! TPC-H's `dbgen` owes its reproducibility to per-column random substreams
//! with documented seeds. We follow the same discipline with PCG32
//! (O'Neill 2014): tiny state, excellent statistical quality, and — the
//! property `rand` does not guarantee across versions — a value sequence
//! that is fixed forever by this implementation. `derive_stream` splits
//! independent substreams per (table, column, row) so rows can be generated
//! in any order or in parallel with identical results.

/// A PCG-XSH-RR 64/32 generator.
///
/// ```
/// use bitempo_core::Pcg32;
///
/// let root = Pcg32::new(42, 0);
/// // Per-row substreams are independent of generation order:
/// let mut row_7a = root.derive_stream(7);
/// let mut row_7b = root.derive_stream(7);
/// assert_eq!(row_7a.int_range(1, 100), row_7b.int_range(1, 100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Creates a generator from a seed and a stream id. Different stream ids
    /// yield statistically independent sequences for the same seed.
    pub fn new(seed: u64, stream: u64) -> Pcg32 {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Derives an independent substream keyed by `salt` (e.g. a row number),
    /// mixing with SplitMix64 so nearby salts do not correlate.
    #[must_use]
    pub fn derive_stream(&self, salt: u64) -> Pcg32 {
        let mixed = splitmix64(self.inc ^ salt.wrapping_mul(0x9E3779B97F4A7C15));
        Pcg32::new(splitmix64(self.state ^ salt), mixed)
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform integer in `[lo, hi]` (inclusive, like dbgen's `RANDOM`).
    /// Uses Lemire rejection to avoid modulo bias.
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "int_range: lo {lo} > hi {hi}");
        let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
        if span == 0 {
            // Full 64-bit range requested.
            return self.next_u64() as i64;
        }
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
                low = m as u64;
            }
        }
        lo.wrapping_add((m >> 64) as i64)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Picks an index from a discrete distribution given by `weights`
    /// (need not be normalized). Panics if all weights are zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "pick_weighted: zero total weight");
        let mut x = self.unit_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Picks a uniformly random element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int_range(0, items.len() as i64 - 1) as usize]
    }

    /// A draw from a bounded Zipf-like distribution over `[1, n]` with
    /// exponent `s`, via rejection sampling. Used for the non-uniform
    /// application-time distributions the benchmark calls for (paper §3:
    /// "non-uniform distributions along the application time dimension").
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        debug_assert!(n >= 1);
        // Rejection method of Devroye for Zipf; good enough for generator use.
        let t = ((n as f64).powf(1.0 - s) - s) / (1.0 - s);
        loop {
            let u = self.unit_f64() * t;
            let x = if u <= 1.0 {
                u
            } else {
                (u * (1.0 - s) + s).powf(1.0 / (1.0 - s))
            };
            let k = x.floor().max(1.0) as u64;
            if k > n {
                continue;
            }
            let ratio = (k as f64).powf(-s) / if k == 1 { 1.0 } else { x.powf(-s) };
            if self.unit_f64() < ratio {
                return k;
            }
        }
    }
}

/// SplitMix64 mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 1);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = Pcg32::new(42, 1);
        let mut b = Pcg32::new(42, 2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_stream_is_deterministic_and_independent() {
        let root = Pcg32::new(7, 0);
        let mut s1 = root.derive_stream(10);
        let mut s1b = root.derive_stream(10);
        let mut s2 = root.derive_stream(11);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn int_range_bounds_and_coverage() {
        let mut rng = Pcg32::new(1, 1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.int_range(10, 14);
            assert!((10..=14).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range hit");
        // Degenerate range.
        assert_eq!(rng.int_range(3, 3), 3);
    }

    #[test]
    fn int_range_is_roughly_uniform() {
        let mut rng = Pcg32::new(9, 3);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.int_range(0, 9) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!((f64::from(c) - expected).abs() < expected * 0.05);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = Pcg32::new(5, 5);
        for _ in 0..1000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn weighted_pick_matches_weights() {
        let mut rng = Pcg32::new(11, 0);
        let weights = [0.1, 0.6, 0.3];
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let frac = f64::from(counts[i]) / f64::from(n);
            assert!((frac - w).abs() < 0.02, "weight {i}: {frac} vs {w}");
        }
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut rng = Pcg32::new(3, 3);
        let mut ones = 0;
        for _ in 0..2000 {
            let v = rng.zipf(100, 1.1);
            assert!((1..=100).contains(&v));
            if v == 1 {
                ones += 1;
            }
        }
        // Rank 1 should dominate heavily under s = 1.1.
        assert!(ones > 400, "zipf not skewed: {ones} ones of 2000");
    }

    #[test]
    fn chance_probability() {
        let mut rng = Pcg32::new(13, 1);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }
}
