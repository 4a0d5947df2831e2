//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the narrow slice of the rand 0.10 API it actually uses:
//! [`SeedableRng::seed_from_u64`], [`RngExt::random`],
//! [`RngExt::random_range`], [`rngs::SmallRng`] / [`rngs::StdRng`] and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256++ seeded via
//! SplitMix64 — deterministic across platforms and runs, which is all the
//! simulator and benchmarks require (statistical quality is far beyond
//! their needs, cryptographic quality is explicitly *not* provided).

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;

    /// Build a generator from OS entropy. The shim derives it from the
    /// system clock — benchmarks only; tests always seed explicitly.
    fn from_os_rng() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        Self::seed_from_u64(nanos)
    }
}

/// Types samplable uniformly over their whole domain via [`RngExt::random`].
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for i8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u8::sample(rng) as i8
    }
}

impl Standard for i16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u16::sample(rng) as i16
    }
}

impl Standard for i32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u32::sample(rng) as i32
    }
}

impl Standard for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Standard for isize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as isize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2^-53.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with [`RngExt::random_range`].
pub trait SampleRange {
    type Output;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "random_range: empty range");
                let span = (self.end as u128 - self.start as u128) as u64;
                // Multiply-shift bounded sampling (Lemire); the modulo bias
                // of a plain `% span` would be harmless here, but this is
                // just as cheap.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + hi as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "random_range: empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return <$t as Standard>::sample(rng) as $t;
                }
                let span = (end as i128 - start as i128 + 1) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (start as i128 + hi as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "random_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing sampling methods (rand 0.10 spells this `RngExt`; the
/// old `Rng` name is re-exported below for call sites that import both).
pub trait RngExt: RngCore {
    /// Sample a value uniformly over `T`'s whole domain (`f64`: `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a range.
    fn random_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output {
        range.sample(self)
    }

    /// Probability-`p` coin flip.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let n = rest.len();
            rest.copy_from_slice(&self.next_u64().to_le_bytes()[..n]);
        }
    }
}

impl<T: RngCore + ?Sized> RngExt for T {}

/// Legacy alias: older rand spells the extension trait `Rng`.
pub use RngExt as Rng;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// xoshiro256++ core shared by both named generators.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; splitmix cannot produce it
        // from any seed, but keep the guard for clarity.
        if s == [0; 4] {
            s[0] = 1;
        }
        Xoshiro256 { s }
    }
}

impl RngCore for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng, Xoshiro256};

    /// Small fast generator (xoshiro256++ here, like upstream).
    #[derive(Debug, Clone)]
    pub struct SmallRng(Xoshiro256);

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng(Xoshiro256::from_u64(seed))
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// The "standard" generator. Upstream uses ChaCha12; the shim reuses
    /// xoshiro256++ with a domain-separated seed — nothing in this
    /// workspace needs cryptographic randomness.
    #[derive(Debug, Clone)]
    pub struct StdRng(Xoshiro256);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(Xoshiro256::from_u64(seed ^ 0x51d5_7a2f_8c6b_e3a1))
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{RngCore, RngExt};

    /// Shuffling and random selection over slices.
    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{SmallRng, StdRng};
    use super::seq::SliceRandom;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.random_range(10u32..20);
            assert!((10..20).contains(&v));
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            let r = rng.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&r));
            let i = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn range_sampling_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[rng.random_range(0..3u8) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "seeded shuffle should move something");
    }
}
