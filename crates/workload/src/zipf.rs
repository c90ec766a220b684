//! YCSB-style zipfian key selection.
//!
//! Implements the Gray et al. quick zipfian sampler used by YCSB
//! (`ZipfianGenerator`), plus the scrambled variant that hashes ranks so
//! popular keys spread across the keyspace (and therefore across
//! partitions), as YCSB's `ScrambledZipfianGenerator` does.

use std::sync::{Mutex, PoisonError};

use rand::rngs::SmallRng;
use rand::Rng;

/// Default skew parameter (YCSB's `zipfian_const`).
pub const DEFAULT_THETA: f64 = 0.99;

/// A zipfian sampler over ranks `0..n`, immutable after construction so one
/// instance can be shared by every client of a deployment.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^theta`, the rank-1 acceptance threshold — hoisted out of
    /// [`Zipfian::sample`] so the hot path pays no `powf` for it. The cached
    /// value is the identical f64, so samples are bit-for-bit unchanged.
    rank1_bound: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// How many `(n, theta)` sums [`ZETAS`] keeps.
const ZETAS_KEPT: usize = 32;

/// Every `zeta(n, theta)` this process has summed, keyed by
/// `(n, theta.to_bits())`; `n == 0` marks a free entry. A deployment builds
/// one sampler per site over the same keyspace, and a test binary builds
/// many on many threads; each pair is summed once. Inline, so the memo
/// allocates nothing; once it is full, a further pair is summed each time.
static ZETAS: Mutex<[(u64, u64, f64); ZETAS_KEPT]> = Mutex::new([(0, 0, 0.0); ZETAS_KEPT]);

/// `zeta(n, theta)`, summed on the first call per `(n, theta)` and read
/// from [`ZETAS`] after: the identical f64, so samples are unchanged.
fn memo_zeta(n: u64, theta: f64) -> f64 {
    let bits = theta.to_bits();
    // The lock is held across the sum, so concurrent builders of one pair
    // wait for it rather than sum it again. Nothing can panic while it is
    // held, but a poisoned memo would still hold only finished sums.
    let mut zetas = ZETAS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, _, zetan)) = zetas.iter().find(|&&(m, b, _)| (m, b) == (n, bits)) {
        return zetan;
    }
    let zetan = zeta(n, theta);
    if let Some(free) = zetas.iter_mut().find(|&&mut (m, _, _)| m == 0) {
        *free = (n, bits, zetan);
    }
    zetan
}

impl Zipfian {
    /// Builds a sampler over `n` items with skew `theta`.
    ///
    /// The first construction per `(n, theta)` in a process is `O(n)` (the
    /// zeta sum); later ones read the sum from a process-wide memo. The
    /// instance is still worth sharing between clients.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        Zipfian::with_zetan(n, theta, memo_zeta(n, theta))
    }

    /// The sampler over `n` items with skew `theta` whose zeta sum is
    /// `zetan`.
    fn with_zetan(n: u64, theta: f64, zetan: f64) -> Self {
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        // Gray's eta is 0/0 at n == 2 (zetan == zeta2) and meaningless at
        // n == 1. Both keyspaces resolve entirely through the exact rank-0/
        // rank-1 branches of `sample` (uz never exceeds rank1_bound), so the
        // power-curve tail is unreachable — but a NaN here would poison any
        // future use. Pin eta to 0 for the degenerate sizes.
        let eta = if n <= 2 {
            0.0
        } else {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        };
        Zipfian {
            n,
            alpha,
            zetan,
            eta,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Samples a *scrambled* item: the rank is hashed so hot items spread
    /// uniformly over the keyspace.
    pub fn sample_scrambled(&self, rng: &mut SmallRng) -> u64 {
        fnv1a(self.sample(rng)) % self.n
    }
}

/// FNV-1a over the 8 bytes of `x` — YCSB's rank scrambler.
fn fnv1a(x: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every field of `z`, floats as their bits.
    fn bits(z: &Zipfian) -> [u64; 5] {
        [
            z.n,
            z.alpha.to_bits(),
            z.zetan.to_bits(),
            z.eta.to_bits(),
            z.rank1_bound.to_bits(),
        ]
    }

    /// The sampler `Zipfian::new` would build with no memo.
    fn fresh(n: u64, theta: f64) -> Zipfian {
        Zipfian::with_zetan(n, theta, zeta(n, theta))
    }

    #[test]
    fn a_memoised_sampler_is_the_fresh_one_bit_for_bit() {
        // n <= 2 includes the degenerate eta; 400 000 is workload C's
        // keyspace in the benchmark's convoy deployment. The grid has pairs
        // that share n and differ in theta, and neighbouring n that share
        // theta, so a memo entry matched on n alone, or on theta alone,
        // would be handed out.
        for n in [1, 2, 3, 8_000, 400_000] {
            for theta in [0.5, DEFAULT_THETA] {
                let want = bits(&fresh(n, theta));
                // The first build may sum or hit; the second hits.
                assert_eq!(bits(&Zipfian::new(n, theta)), want, "n={n} theta={theta}");
                assert_eq!(bits(&Zipfian::new(n, theta)), want, "n={n} theta={theta}");
            }
        }
    }

    #[test]
    fn concurrent_builders_of_one_keyspace_agree() {
        // A pair no other test builds, so the four threads race for the
        // first sum.
        let (n, theta) = (123_457, 0.77);
        #[expect(
            clippy::disallowed_methods,
            reason = "the memo is process-wide; the test suite builds samplers on many threads"
        )]
        let built: Vec<[u64; 5]> = std::thread::scope(|s| {
            let builders: Vec<_> = (0..4)
                .map(|_| s.spawn(move || bits(&Zipfian::new(n, theta))))
                .collect();
            builders.into_iter().map(|b| b.join().unwrap()).collect()
        });
        let want = bits(&fresh(n, theta));
        assert!(built.iter().all(|b| *b == want), "{built:?} vs {want:?}");
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(100, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
            assert!(z.sample_scrambled(&mut rng) < 100);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = Zipfian::new(10_000, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(2);
        let draws = 100_000;
        let hot = (0..draws)
            .filter(|_| z.sample(&mut rng) < 100) // top 1% of ranks
            .count();
        // Under theta=0.99 the top 1% of ranks draws roughly half the mass;
        // uniform would draw 1%.
        assert!(
            hot as f64 / draws as f64 > 0.3,
            "zipfian skew missing: top-1% share = {}",
            hot as f64 / draws as f64
        );
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let z = Zipfian::new(10_000, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(3);
        // The most common scrambled keys should not be clustered at low ids.
        let mut counts = vec![0u32; 10_000];
        for _ in 0..100_000 {
            counts[z.sample_scrambled(&mut rng) as usize] += 1;
        }
        let top = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap();
        assert!(top > 100, "hottest scrambled key {top} is suspiciously low");
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipfian::new(1000, DEFAULT_THETA);
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "empty keyspace")]
    fn zero_items_rejected() {
        let _ = Zipfian::new(0, DEFAULT_THETA);
    }

    #[test]
    fn single_item_keyspace() {
        // A 1-key keyspace (e.g. keys_per_partition=1 under a million
        // clients hammering one partition) must always yield rank 0 and
        // never produce NaN-derived garbage.
        let z = Zipfian::new(1, DEFAULT_THETA);
        assert!(
            z.eta.is_finite(),
            "eta must be finite at n=1, got {}",
            z.eta
        );
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert_eq!(z.sample(&mut rng), 0);
            assert_eq!(z.sample_scrambled(&mut rng), 0);
        }
    }

    #[test]
    fn two_item_keyspace() {
        // n == 2 is the 0/0 corner of Gray's eta formula (zetan == zeta2).
        // Samples must stay in {0, 1}, skew toward rank 0, and eta must be
        // a real number rather than NaN.
        let z = Zipfian::new(2, DEFAULT_THETA);
        assert!(
            z.eta.is_finite(),
            "eta must be finite at n=2, got {}",
            z.eta
        );
        let mut rng = SmallRng::seed_from_u64(10);
        let draws = 20_000u32;
        let mut counts = [0u32; 2];
        for _ in 0..draws {
            let r = z.sample(&mut rng) as usize;
            assert!(r < 2, "rank {r} out of range for n=2");
            counts[r] += 1;
            assert!(z.sample_scrambled(&mut rng) < 2);
        }
        // Exact two-point zipf: P(0) = 1/zeta_2, P(1) = 0.5^theta/zeta_2.
        let zeta2 = zeta(2, DEFAULT_THETA);
        let expect0 = 1.0 / zeta2;
        let got0 = f64::from(counts[0]) / f64::from(draws);
        assert!(
            (got0 - expect0).abs() < 0.02,
            "rank-0 mass {got0:.4} vs analytic {expect0:.4}"
        );
        assert!(counts[1] > 0, "rank 1 never drawn");
    }

    #[test]
    fn empirical_mass_matches_analytic_zipf() {
        // Distribution smoke test: the empirical frequency of the top
        // ranks must match the analytic zipfian mass 1/(r+1)^theta / zeta_n.
        // Ranks 0 and 1 are exact in the Gray sampler; deeper ranks go
        // through the power-curve approximation, so they get a looser band.
        let n = 1000;
        let z = Zipfian::new(n, DEFAULT_THETA);
        let mut rng = SmallRng::seed_from_u64(42);
        let draws = 200_000u32;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let zetan = zeta(n, DEFAULT_THETA);
        for (rank, tolerance) in [(0usize, 0.05), (1, 0.05), (5, 0.25), (20, 0.35)] {
            let expect = (1.0 / ((rank + 1) as f64).powf(DEFAULT_THETA)) / zetan;
            let got = f64::from(counts[rank]) / f64::from(draws);
            assert!(
                (got - expect).abs() <= expect * tolerance + 1e-3,
                "rank {rank}: empirical {got:.5} vs analytic {expect:.5}"
            );
        }
    }
}
