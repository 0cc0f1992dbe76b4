//! Statistics primitives for simulation metrics.
//!
//! The paper's figures are built from event counts (plain `u64` fields,
//! turned into rates by [`ratio`]), accumulated latencies attributed to
//! named buckets (Fig. 3/12, [`LatencyAccumulator`]) and distributions
//! (queue depths, [`Histogram`]).

use crate::Cycle;

/// Ratio of two counters, returning 0 for an empty denominator.
///
/// ```
/// assert_eq!(sim_core::stats::ratio(1, 4), 0.25);
/// assert_eq!(sim_core::stats::ratio(1, 0), 0.0);
/// ```
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Accumulates total latency and sample count for one named bucket.
///
/// # Examples
///
/// ```
/// use sim_core::stats::LatencyAccumulator;
///
/// let mut acc = LatencyAccumulator::default();
/// acc.record(100);
/// acc.record(300);
/// assert_eq!(acc.total(), 400);
/// assert_eq!(acc.count(), 2);
/// assert_eq!(acc.mean(), 200.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyAccumulator {
    total: u64,
    count: u64,
    max: u64,
}

impl LatencyAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Cycle) {
        self.total += latency;
        self.count += 1;
        self.max = self.max.max(latency);
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.total, self.count)
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyAccumulator) {
        self.total += other.total;
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// A power-of-two bucketed histogram for latencies and queue depths.
///
/// Bucket `i` covers `[2^(i-1), 2^i)`; bucket 0 covers the value 0..=1.
///
/// # Examples
///
/// ```
/// use sim_core::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(5);
/// assert_eq!(h.count(), 3);
/// assert!(h.mean() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            (64 - (value - 1).leading_zeros()) as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.total += value;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        ratio(self.total, self.count)
    }

    /// Bucket counts, from smallest values upward.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// An upper bound on the `frac` quantile: the inclusive upper edge of
    /// the first bucket whose cumulative count reaches `frac` of all
    /// samples (0 when empty). With power-of-two buckets this is within 2×
    /// of the true quantile — good enough for "p99 stays bounded" checks.
    ///
    /// ```
    /// use sim_core::stats::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// for _ in 0..99 { h.record(10); }
    /// h.record(1_000);
    /// assert!(h.percentile_bound(0.50) <= 16);
    /// assert!(h.percentile_bound(0.999) >= 1_000);
    /// ```
    pub fn percentile_bound(&self, frac: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let need = (frac.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= need {
                return 1u64 << i;
            }
        }
        1u64 << self.buckets.len().saturating_sub(1)
    }
}

/// Computes the arithmetic mean of an `f64` slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(2, 8), 0.25);
    }

    #[test]
    fn latency_accumulator_tracks_mean_and_max() {
        let mut a = LatencyAccumulator::new();
        assert_eq!(a.mean(), 0.0);
        a.record(10);
        a.record(30);
        a.record(20);
        assert_eq!(a.total(), 60);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 30);
        assert_eq!(a.mean(), 20.0);
    }

    #[test]
    fn latency_accumulator_merge() {
        let mut a = LatencyAccumulator::new();
        a.record(10);
        let mut b = LatencyAccumulator::new();
        b.record(50);
        a.merge(&b);
        assert_eq!(a.total(), 60);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 50);
    }

    #[test]
    fn histogram_buckets_are_correct() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(8), 3);
        assert_eq!(Histogram::bucket_of(9), 4);
    }

    #[test]
    fn histogram_mean_and_fraction() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.75).abs() < 1e-9);
        assert_eq!(h.percentile_bound(0.75), 1);
        assert_eq!(h.percentile_bound(1.0), 128);
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }
}
