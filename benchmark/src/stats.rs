//! The percentile rule every timing in the report follows.
//!
//! A timing is reported as its median and the highest percentile that still has
//! at least [`MIN_BEYOND`] samples beyond it, together with the sample count.
//! Percentiles use the nearest-rank definition: the `p`-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p / 100 * n)`, so
//! `n - ceil(p / 100 * n)` samples lie beyond it. A miss (a refused, shed or
//! failed request) enters as `f64::INFINITY`, so it can only push a tail up.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 60.0, 50.0];

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// One reported percentile: which one, its value, and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
}

impl Samples {
    /// Sorts `values` (misses as `f64::INFINITY` sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Pools two sample sets.
    pub fn merge(self, other: Samples) -> Samples {
        let mut values = self.sorted;
        values.extend(other.sorted);
        Samples::new(values)
    }

    /// The samples in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.sorted.iter().copied()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Rank (1-based) of the `pct`-th percentile under nearest rank.
    fn rank(&self, pct: f64) -> usize {
        let n = self.sorted.len();
        // Multiply before dividing so whole ranks stay exact (99 * 1000 / 100).
        ((pct * n as f64 / 100.0).ceil() as usize).clamp(1, n)
    }

    /// Samples strictly beyond the `pct`-th percentile.
    pub fn beyond(&self, pct: f64) -> usize {
        self.sorted.len() - self.rank(pct)
    }

    /// The nearest-rank `pct`-th percentile, or `None` for an empty set.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(pct) - 1])
    }

    /// The median.
    pub fn p50(&self) -> Option<Quantile> {
        self.percentile(50.0).map(|value| Quantile { pct: 50.0, value, n: self.len() })
    }

    /// The highest percentile no higher than `max_pct` with at least
    /// [`MIN_BEYOND`] samples beyond it; the median when even that lacks them.
    pub fn tail(&self, max_pct: f64) -> Option<Quantile> {
        if self.sorted.is_empty() {
            return None;
        }
        let pct = TAIL_LADDER
            .iter()
            .copied()
            .filter(|&p| p <= max_pct)
            .find(|&p| self.beyond(p) >= MIN_BEYOND)
            .unwrap_or(50.0);
        self.percentile(pct).map(|value| Quantile { pct, value, n: self.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn uniform_thousand_supports_p99() {
        let s = one_to(1000);
        assert_eq!(s.p50().unwrap().value, 500.0);
        let tail = s.tail(99.0).unwrap();
        assert_eq!((tail.pct, tail.value, tail.n), (99.0, 990.0, 1000));
        assert_eq!(s.beyond(99.0), 10);
    }

    #[test]
    fn too_small_for_p99_falls_back_to_the_highest_supported_percentile() {
        // 999 samples leave only 9 beyond p99; p98 has 19.
        let s = one_to(999);
        assert_eq!(s.beyond(99.0), 9);
        let tail = s.tail(99.0).unwrap();
        assert_eq!((tail.pct, tail.value), (98.0, 980.0));
        // 500 samples: p98 has exactly 10 beyond it.
        let tail = one_to(500).tail(99.0).unwrap();
        assert_eq!((tail.pct, tail.value), (98.0, 490.0));
    }

    #[test]
    fn tiny_sets_report_the_median_only() {
        let s = one_to(12);
        let tail = s.tail(99.0).unwrap();
        assert_eq!((tail.pct, tail.value), (50.0, 6.0));
        assert!(Samples::new(Vec::new()).tail(99.0).is_none());
    }

    #[test]
    fn high_cap_allows_p999_on_large_sets() {
        let s = one_to(20_000);
        assert_eq!(s.tail(99.9).unwrap().pct, 99.9);
        assert_eq!(s.tail(99.0).unwrap().value, 19_800.0);
    }

    #[test]
    fn misses_count_as_infinitely_slow() {
        // 1000 samples, 11 of them misses: p99 lands on a miss.
        let mut v: Vec<f64> = (1..=989).map(|v| v as f64).collect();
        v.extend([f64::INFINITY; 11]);
        let s = Samples::new(v);
        assert!(s.tail(99.0).unwrap().value.is_infinite());
        assert_eq!(s.p50().unwrap().value, 500.0);
    }

    #[test]
    fn skewed_distribution_tail() {
        // 990 fast samples at 1.0 and 10 slow ones at 100.0: p99 is still fast,
        // p99.9 is not supported (only 1 beyond), so the tail caps at p99.
        let mut v = vec![1.0; 990];
        v.extend(vec![100.0; 10]);
        let s = Samples::new(v);
        let tail = s.tail(99.9).unwrap();
        assert_eq!((tail.pct, tail.value), (99.0, 1.0));
        assert_eq!(s.percentile(99.1), Some(100.0));
    }
}
