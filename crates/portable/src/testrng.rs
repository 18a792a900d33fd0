//! Deterministic pseudo-random numbers for tests, benchmarks, and fault
//! injection.
//!
//! The workspace builds hermetically (no external crates), so the small
//! slice of the `rand` API the test suites and the fault injector need is
//! provided here: a seedable 64-bit generator ([SplitMix64], Steele et
//! al., OOPSLA 2014) with `gen_range` / `gen_bool` methods. The same seed
//! always yields the same stream on every platform — which is precisely
//! what reproducible failure-injection experiments require. **Not** a
//! cryptographic generator.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::ops::{Range, RangeInclusive};

/// A tiny deterministic generator with a rand-like surface.
///
/// ```
/// use pp_portable::TestRng;
/// let mut rng = TestRng::seed_from_u64(42);
/// let x = rng.gen_range(-1.0..1.0);
/// assert!((-1.0..1.0).contains(&x));
/// let n = rng.gen_range(8usize..30);
/// assert!((8..30).contains(&n));
/// // Identical seeds give identical streams.
/// let mut again = TestRng::seed_from_u64(42);
/// assert_eq!(again.gen_range(-1.0..1.0), x);
/// ```
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the generator. Named after the `rand` constructor it replaces.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from a range; supports `f64`, `usize`, and `u64`
    /// half-open ranges plus inclusive `usize` ranges, mirroring the
    /// call sites `rand::Rng::gen_range` used to serve.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

/// Ranges [`TestRng::gen_range`] can draw from.
pub trait SampleRange {
    /// Element type produced by the draw.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut TestRng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty f64 range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "gen_range: empty usize range");
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty inclusive range");
        lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "gen_range: empty u64 range");
        self.start + rng.next_u64() % (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut r = TestRng::seed_from_u64(7);
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::seed_from_u64(7);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = TestRng::seed_from_u64(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&x));
            let n = rng.gen_range(5usize..9);
            assert!((5..9).contains(&n));
            let m = rng.gen_range(1usize..=5);
            assert!((1..=5).contains(&m));
            let u = rng.gen_range(0u64..100);
            assert!(u < 100);
        }
    }

    #[test]
    fn f64_is_unit_interval_and_not_constant() {
        let mut rng = TestRng::seed_from_u64(3);
        let draws: Vec<f64> = (0..100).map(|_| rng.gen_f64()).collect();
        assert!(draws.iter().all(|x| (0.0..1.0).contains(x)));
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = TestRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
