//! The benchmark's own arithmetic: nearest-rank percentiles with the
//! sample-count rule, and median / quartiles over repetitions.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the samples at or below it. `None` on an empty slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of `p`.
/// A percentile is only worth reporting with enough of them (the benchmark
/// asks for [`MIN_SAMPLES_BEYOND`] behind its p99).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank_of(n, p).map_or(0, |rank| n - rank)
}

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 80;

fn rank_of(n: usize, p: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
    if n == 0 {
        return None;
    }
    Some(((p * n as f64).ceil() as usize).clamp(1, n))
}

/// Median and quartiles of a set of repetitions, as Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` give them
/// (the driver's acceptance check uses those).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "no repetitions to summarise");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // Exclusive method: the i-th of m cut points sits at i*(n+1)/m,
        // counted from 1, linearly interpolated and clamped to the data.
        let cut = |i: usize, m: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let pos = i * (n + 1);
            let j = (pos / m).clamp(1, n - 1);
            let delta = (pos as f64 - (j * m) as f64) / m as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Spread {
            n,
            median: cut(1, 2),
            q1: cut(1, 4),
            q3: cut(3, 4),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5));
        assert_eq!(nearest_rank(&v, 0.99), Some(10));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&v, 1.0), Some(10));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // An odd count has a true middle; an even count takes the lower one.
        assert_eq!(nearest_rank(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), Some(2));
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(samples_beyond(10_000, 0.99), 100);
        assert_eq!(samples_beyond(8_000, 0.99), 80);
        assert!(samples_beyond(7_999, 0.99) < MIN_SAMPLES_BEYOND);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn spread_matches_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::of(&[10., 9., 8., 7., 6., 5., 4., 3., 2., 1.]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Spread::of(&[1., 2., 4.]);
        assert_eq!((s.q1, s.median, s.q3), (1., 2., 4.));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5] (extrapolates)
        let s = Spread::of(&[5., 3.]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4., 5.5));
        let s = Spread::of(&[2.]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2., 2., 2., 1));
        assert_eq!(Spread::of(&[4., 4., 4.]).relative_iqr(), 0.0);
    }
}
