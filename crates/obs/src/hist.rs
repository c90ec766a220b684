//! Fixed-bucket log-linear histograms with nearest-rank quantiles.
//!
//! The bucket layout is static (a function of nothing but the recorded
//! value), so comparing and snapshotting histograms is exact and
//! bit-identical across same-seed runs: no wall clock, no allocation-order
//! dependence, no floating-point accumulation on the record path.

/// Sub-bucket resolution: values ≥ `LINEAR_MAX` fall into one of
/// `2^SUB_BITS` sub-buckets per power-of-two octave, bounding the relative
/// quantile error at `2^-SUB_BITS` (≈ 1.6%).
const SUB_BITS: u32 = 6;
/// Values below this are recorded exactly (one bucket per value).
const LINEAR_MAX: u64 = 1 << SUB_BITS;
/// Octaves above the linear range: exponents `SUB_BITS..=63`.
const OCTAVES: usize = (64 - SUB_BITS) as usize;
/// Total bucket count (linear range + `OCTAVES` × sub-buckets).
const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * (1 << SUB_BITS);

/// A log-linear histogram over `u64` samples.
///
/// Values `< 64` are exact; larger values land in one of 64 sub-buckets per
/// octave. Quantiles use the *nearest-rank* definition (rank `⌈p·n⌉`) and
/// report the upper bound of the bucket holding that rank, so they never
/// under-report — fixing the truncating-index bias the harness used to have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < LINEAR_MAX {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let sub = ((v >> (msb - SUB_BITS)) & (LINEAR_MAX - 1)) as usize;
            LINEAR_MAX as usize + (msb - SUB_BITS) as usize * LINEAR_MAX as usize + sub
        }
    }

    /// Inclusive upper bound of bucket `idx` — the value quantiles report.
    fn bucket_high(idx: usize) -> u64 {
        let lin = LINEAR_MAX as usize;
        if idx < lin {
            idx as u64
        } else {
            let octave = SUB_BITS + ((idx - lin) / lin) as u32;
            let sub = ((idx - lin) % lin) as u64;
            let width = 1u64 << (octave - SUB_BITS);
            (1u64 << octave) + sub * width + (width - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: the upper bound of the bucket holding rank
    /// `⌈p·n⌉` (clamped to `[1, n]`), itself clamped to the exact recorded
    /// maximum — `quantile(p) <= max()` for every `p`, so quantiles never
    /// report a value larger than anything actually observed. Returns 0
    /// when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The bucket upper bound can exceed the true maximum when
                // the rank falls in the max's (log-width) bucket.
                return Self::bucket_high(idx).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        // One bucket per value below LINEAR_MAX: recording v and querying
        // any quantile returns v itself.
        for v in [0u64, 1, 5, 63] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.5), v);
            assert_eq!(h.quantile(1.0), v);
        }
    }

    #[test]
    fn log_bucket_edges() {
        // 64 is the first log bucket: [64, 64] (width 1 in the first octave).
        assert_eq!(Histogram::bucket_of(63), 63);
        assert_eq!(Histogram::bucket_of(64), 64);
        assert_eq!(Histogram::bucket_high(Histogram::bucket_of(64)), 64);
        // Octave [128, 256) has width-2 buckets: 128 and 129 share one.
        assert_eq!(Histogram::bucket_of(128), Histogram::bucket_of(129));
        assert_ne!(Histogram::bucket_of(129), Histogram::bucket_of(130));
        assert_eq!(Histogram::bucket_high(Histogram::bucket_of(128)), 129);
        // Bucket bounds bracket the value with ≤ 2^-6 relative error.
        for v in [1u64 << 20, (1 << 30) + 12345, u64::MAX / 3] {
            let hi = Histogram::bucket_high(Histogram::bucket_of(v));
            assert!(hi >= v);
            assert!((hi - v) as f64 / (v as f64) < 1.0 / 64.0 + 1e-9);
        }
        // The top bucket covers u64::MAX.
        assert_eq!(
            Histogram::bucket_high(Histogram::bucket_of(u64::MAX)),
            u64::MAX
        );
    }

    #[test]
    fn nearest_rank_n1() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.99), 5);
        assert_eq!(h.quantile(0.0), 5, "rank clamps to 1");
    }

    #[test]
    fn nearest_rank_n2() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(3);
        // ⌈0.5·2⌉ = 1 → first sample; ⌈0.99·2⌉ = 2 → second.
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 3);
    }

    #[test]
    fn nearest_rank_n100() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Sub-64 ranks are exact; above, the bucket upper bound is
        // reported, clamped to the recorded maximum.
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.quantile(1.0), 100, "clamped to max, not bucket_high");
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        // Log buckets above 64 have width > 1, so bucket_high can exceed
        // the true maximum for *every* p whose rank lands in max's bucket,
        // not just p = 1.0. Exhaustively check the invariant.
        let mut h = Histogram::new();
        for v in [65u64, 66, 130, 1 << 20, (1 << 20) + 1] {
            h.record(v);
        }
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            assert!(
                h.quantile(p) <= h.max(),
                "quantile({p}) = {} > max {}",
                h.quantile(p),
                h.max()
            );
        }
        // A single sample in a wide bucket: every quantile is that sample.
        let mut single = Histogram::new();
        single.record(1000);
        assert_eq!(single.quantile(0.5), 1000);
        assert_eq!(single.quantile(1.0), 1000);
    }
}
