//! Descriptive statistics over machine-level telemetry samples.
//!
//! KEA's Performance Monitor aggregates raw per-machine observations into
//! hourly and daily summaries (Table 2 of the paper). The routines here are
//! the numerical core of that aggregation: numerically stable means and
//! variances (Welford), an interpolated percentile over a sorted sample,
//! and the five-number-plus [`Summary`] of a machine group's daily
//! metric. The Experiment Module sizes its groups from the same mean and
//! standard deviation.

use crate::error::{check_finite, StatsError};

/// Arithmetic mean of a sample.
///
/// # Errors
/// Returns [`StatsError::EmptyInput`] on an empty slice and
/// [`StatsError::NonFiniteInput`] if the sample contains NaN/inf.
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    check_finite(data)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased (n−1) sample variance, computed with Welford's algorithm for
/// numerical stability on long telemetry streams.
///
/// # Errors
/// Requires at least two observations.
pub fn variance(data: &[f64]) -> Result<f64, StatsError> {
    if data.len() < 2 {
        return Err(StatsError::InsufficientData {
            required: 2,
            actual: data.len(),
        });
    }
    check_finite(data)?;
    let mut acc = Welford::new();
    for &v in data {
        acc.push(v);
    }
    Ok(acc.sample_variance())
}

/// Unbiased sample standard deviation. See [`variance`].
pub fn stddev(data: &[f64]) -> Result<f64, StatsError> {
    variance(data).map(f64::sqrt)
}

/// Percentile of an ascending-sorted slice, with linear interpolation
/// between closest ranks (the "exclusive" definition used by most
/// telemetry systems). `p` is in percent: `percentile_of_sorted(s, 99.0)`
/// is the p99. Sort once and call this per percentile, as
/// [`Summary::of`] does.
///
/// Total in every build profile: an empty slice gives NaN, `p` above 100
/// gives the maximum, and `p` below 0 or NaN gives the minimum.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0]; // kea-lint: allow(index-in-library) — len == 1 in this branch
    }
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize; // kea-lint: allow(truncating-as-cast) — rank ∈ [0, len-1]: p clamped finite above
    let hi = rank.ceil() as usize; // kea-lint: allow(truncating-as-cast) — same bound as `lo`
    if lo == hi {
        sorted[lo] // kea-lint: allow(index-in-library) — lo = hi in [0, len-1] by the rank clamp
    } else {
        let frac = rank - lo as f64;
        // kea-lint: allow(index-in-library) — lo, hi in [0, len-1] by the rank clamp
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Welford's online algorithm for streaming mean/variance.
///
/// The Performance Monitor computes hourly machine aggregates in one pass
/// over the event stream, so a streaming accumulator avoids buffering raw
/// samples.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Running mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0.0 with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// Five-number-plus summary of a sample, the unit of KEA's daily
/// machine-group aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased standard deviation (0.0 for singleton samples).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 99th percentile (reported for queueing latency in Fig 12).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Errors
    /// Fails on empty or non-finite input.
    pub fn of(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        check_finite(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut acc = Welford::new();
        for &v in data {
            acc.push(v);
        }
        Ok(Summary {
            count: data.len(),
            mean: acc.mean(),
            stddev: acc.sample_variance().sqrt(),
            min: sorted[0], // kea-lint: allow(index-in-library) — emptiness rejected at the top of this function
            p25: percentile_of_sorted(&sorted, 25.0),
            median: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max: sorted.last().copied().unwrap_or(f64::NAN), // non-empty checked above
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_sample() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
    }

    #[test]
    fn mean_rejects_empty() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn mean_rejects_nan() {
        assert_eq!(mean(&[1.0, f64::NAN]), Err(StatsError::NonFiniteInput));
    }

    #[test]
    fn variance_matches_hand_computation() {
        // var([2,4,4,4,5,5,7,9]) = 4.571428... (sample, n-1)
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_points() {
        assert_eq!(
            variance(&[1.0]),
            Err(StatsError::InsufficientData {
                required: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn stddev_is_sqrt_of_variance() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!((stddev(&data).unwrap().powi(2) - variance(&data).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints() {
        let data = [10.0, 20.0, 30.0];
        assert_eq!(percentile_of_sorted(&data, 0.0), 10.0);
        assert_eq!(percentile_of_sorted(&data, 100.0), 30.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert!((percentile_of_sorted(&data, 25.0) - 2.5).abs() < 1e-12);
    }

    /// The contract holds in every build profile: empty input gives NaN,
    /// and NaN or out-of-range `p` clamps to the nearest end.
    #[test]
    fn percentile_of_sorted_is_total() {
        assert!(percentile_of_sorted(&[], 50.0).is_nan());
        let data = [1.0, 2.0, 4.0];
        assert_eq!(percentile_of_sorted(&data, f64::NAN), 1.0);
        assert_eq!(percentile_of_sorted(&data, 150.0), 4.0);
        assert_eq!(percentile_of_sorted(&data, -3.0), 1.0);
    }

    #[test]
    fn welford_matches_batch_variance() {
        let data = [1.5, -2.0, 3.25, 0.0, 7.5, 4.0];
        let mut acc = Welford::new();
        for &v in &data {
            acc.push(v);
        }
        assert!((acc.mean() - mean(&data).unwrap()).abs() < 1e-12);
        assert!((acc.sample_variance() - variance(&data).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn summary_fields_consistent() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!(s.p25 < s.median && s.median < s.p75 && s.p75 < s.p99);
    }

    #[test]
    fn summary_singleton() {
        let s = Summary::of(&[42.0]).unwrap();
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.stddev, 0.0);
    }
}
