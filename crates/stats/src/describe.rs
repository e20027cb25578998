//! Descriptive statistics over machine-level telemetry samples.
//!
//! Numerically stable means and variances (Welford) over telemetry
//! samples. The Experiment Module sizes its groups from the mean and
//! standard deviation of a pilot sample.

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
    fn welford_matches_batch_variance() {
        let data = [1.5, -2.0, 3.25, 0.0, 7.5, 4.0];
        let mut acc = Welford::new();
        for &v in &data {
            acc.push(v);
        }
        assert!((acc.mean() - mean(&data).unwrap()).abs() < 1e-12);
        assert!((acc.sample_variance() - variance(&data).unwrap()).abs() < 1e-12);
    }
}
