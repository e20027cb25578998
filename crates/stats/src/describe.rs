//! Descriptive statistics over machine-level telemetry samples.
//!
//! The arithmetic mean, and Welford's numerically stable streaming mean
//! and variance.

use crate::error::{check_finite, StatsError};

/// Arithmetic mean of a sample.
///
/// # Errors
/// Returns [`StatsError::EmptyInput`] on an empty slice and
/// [`StatsError::NonFiniteInput`] if the sample contains NaN/inf.
pub(crate) fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    check_finite(data)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Welford's online algorithm for streaming mean/variance.
///
/// The Performance Monitor computes hourly machine aggregates in one pass
/// over the event stream, so a streaming accumulator avoids buffering raw
/// samples.
#[derive(Debug, Clone, Default)]
pub(crate) struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Running mean; 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (n−1) sample variance; 0.0 with fewer than two
    /// observations.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn welford_of(data: &[f64]) -> Welford {
        let mut acc = Welford::new();
        for &v in data {
            acc.push(v);
        }
        acc
    }

    /// The textbook two-pass mean and unbiased (n−1) variance: sum, then
    /// squared deviations from that mean.
    fn two_pass_moments(data: &[f64]) -> (f64, f64) {
        let n = data.len() as f64;
        let m = data.iter().sum::<f64>() / n;
        let ss = data.iter().map(|v| (v - m) * (v - m)).sum::<f64>();
        (m, ss / (n - 1.0))
    }

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
        let acc = welford_of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((acc.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_points() {
        // One observation has no spread to measure: the accumulator
        // reports 0.0 until a second point arrives.
        assert_eq!(welford_of(&[]).sample_variance(), 0.0);
        assert_eq!(welford_of(&[1.0]).sample_variance(), 0.0);
        assert_eq!(welford_of(&[1.0, 3.0]).sample_variance(), 2.0);
    }

    #[test]
    fn welford_matches_batch_variance() {
        let data = [1.5, -2.0, 3.25, 0.0, 7.5, 4.0];
        let acc = welford_of(&data);
        let (m, v) = two_pass_moments(&data);
        assert!((acc.mean() - m).abs() < 1e-12);
        assert!((acc.mean() - mean(&data).unwrap()).abs() < 1e-12);
        assert!((acc.sample_variance() - v).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn welford_matches_batch_moments(data in prop::collection::vec(-1.0e6..1.0e6f64, 2..60)) {
            let acc = welford_of(&data);
            let (m, v) = two_pass_moments(&data);
            prop_assert!((acc.mean() - m).abs() <= 1e-6 * m.abs().max(1.0));
            prop_assert!((acc.sample_variance() - v).abs() <= 1e-6 * v.abs().max(1.0));
        }
    }
}
