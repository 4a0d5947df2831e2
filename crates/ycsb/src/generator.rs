//! YCSB request-key generators.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// FNV-1a 64-bit hash, used by YCSB's scrambled zipfian generator.
pub fn fnv1a_64(mut x: u64) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(PRIME);
        x >>= 8;
    }
    h
}

/// A source of record numbers in `[0, item_count)`.
pub trait Generator: Send {
    /// Next record number.
    fn next(&mut self) -> u64;
    /// Inform the generator that the item space grew (inserts).
    fn set_item_count(&mut self, n: u64);
}

/// Uniform distribution over the item space.
pub struct UniformGenerator {
    n: u64,
    rng: SmallRng,
}

impl UniformGenerator {
    /// Uniform over `[0, n)`.
    pub fn new(n: u64, seed: u64) -> UniformGenerator {
        UniformGenerator {
            n: n.max(1),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Generator for UniformGenerator {
    fn next(&mut self) -> u64 {
        self.rng.random_range(0..self.n)
    }
    fn set_item_count(&mut self, n: u64) {
        self.n = n.max(1);
    }
}

/// The YCSB zipfian generator (Gray et al.'s algorithm), skewed toward low
/// record numbers with the standard constant θ = 0.99.
pub struct ZipfianGenerator {
    items: u64,
    base: u64,
    theta: f64,
    zeta_n: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
    rng: SmallRng,
}

impl ZipfianGenerator {
    const THETA: f64 = 0.99;

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for the item counts this harness uses (scaled datasets).
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Zipfian over `[0, n)`.
    pub fn new(n: u64, seed: u64) -> ZipfianGenerator {
        let n = n.max(1);
        let theta = Self::THETA;
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        ZipfianGenerator {
            items: n,
            base: 0,
            theta,
            zeta_n,
            zeta2,
            alpha,
            eta,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn sample(&mut self) -> u64 {
        let u: f64 = self.rng.random();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return self.base;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return self.base + 1;
        }
        self.base + ((self.items as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
    }
}

impl Generator for ZipfianGenerator {
    fn next(&mut self) -> u64 {
        self.sample().min(self.base + self.items - 1)
    }

    fn set_item_count(&mut self, n: u64) {
        // Incremental zeta, as YCSB computes it: growth extends the sum
        // term by term (O(delta)); shrinking recomputes.
        let n = n.max(1);
        if n == self.items {
            return;
        }
        if n > self.items {
            for i in self.items + 1..=n {
                self.zeta_n += 1.0 / (i as f64).powf(self.theta);
            }
        } else {
            self.zeta_n = Self::zeta(n, self.theta);
        }
        self.items = n;
        self.eta =
            (1.0 - (2.0 / n as f64).powf(1.0 - self.theta)) / (1.0 - self.zeta2 / self.zeta_n);
    }
}

/// Scrambled zipfian: zipfian popularity spread over the key space by
/// hashing, as YCSB does for its default `zipfian` request distribution.
pub struct ScrambledZipfianGenerator {
    inner: ZipfianGenerator,
    n: u64,
}

impl ScrambledZipfianGenerator {
    /// Scrambled zipfian over `[0, n)`.
    pub fn new(n: u64, seed: u64) -> ScrambledZipfianGenerator {
        ScrambledZipfianGenerator {
            inner: ZipfianGenerator::new(n, seed),
            n: n.max(1),
        }
    }
}

impl Generator for ScrambledZipfianGenerator {
    fn next(&mut self) -> u64 {
        fnv1a_64(self.inner.next()) % self.n
    }
    fn set_item_count(&mut self, n: u64) {
        self.n = n.max(1);
        self.inner.set_item_count(n);
    }
}

/// The `latest` distribution: recency-skewed — most requests target
/// recently inserted records (used by workload D).
pub struct LatestGenerator {
    inner: ZipfianGenerator,
    n: u64,
}

impl LatestGenerator {
    /// Latest-skewed over `[0, n)`.
    pub fn new(n: u64, seed: u64) -> LatestGenerator {
        LatestGenerator {
            inner: ZipfianGenerator::new(n, seed),
            n: n.max(1),
        }
    }
}

impl Generator for LatestGenerator {
    fn next(&mut self) -> u64 {
        let off = self.inner.next();
        self.n - 1 - off.min(self.n - 1)
    }
    fn set_item_count(&mut self, n: u64) {
        self.n = n.max(1);
        self.inner.set_item_count(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut g = UniformGenerator::new(10, 1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[g.next() as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn zipfian_skews_to_head() {
        let mut g = ZipfianGenerator::new(1000, 42);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[g.next() as usize] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[500..510].iter().sum();
        assert!(
            head > tail * 20,
            "zipfian head ({head}) must dominate tail ({tail})"
        );
        // Popularity is monotonically roughly decreasing.
        assert!(counts[0] > counts[100]);
        assert!(counts[1] > counts[500]);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut g = ScrambledZipfianGenerator::new(1000, 7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[g.next() as usize] += 1;
        }
        // Still skewed: some key is much hotter than the median...
        let max = *counts.iter().max().unwrap();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[500];
        assert!(max > median * 10, "max {max} median {median}");
        // ...but the hottest keys are not all clustered at the low end.
        let head: u32 = counts[..10].iter().sum();
        assert!(head < 50_000, "scrambling must spread the head");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut g = LatestGenerator::new(1000, 3);
        let mut newest = 0u32;
        let mut oldest = 0u32;
        for _ in 0..100_000 {
            let k = g.next();
            if k >= 990 {
                newest += 1;
            }
            if k < 10 {
                oldest += 1;
            }
        }
        assert!(
            newest > oldest * 20,
            "latest skews to recent: {newest} vs {oldest}"
        );
    }

    #[test]
    fn generators_track_growth() {
        let mut g = LatestGenerator::new(10, 3);
        g.set_item_count(1_000_000);
        let mut max = 0;
        for _ in 0..10_000 {
            max = max.max(g.next());
        }
        assert!(max > 500_000, "grew item space (max {max})");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a_64(0), fnv1a_64(0));
        assert_ne!(fnv1a_64(1), fnv1a_64(2));
    }

    #[test]
    fn zipfian_bounds() {
        let mut g = ZipfianGenerator::new(100, 5);
        for _ in 0..10_000 {
            assert!(g.next() < 100);
        }
    }
}
