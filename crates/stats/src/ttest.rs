//! Welch's two-sample t-test.
//!
//! KEA validates every flighting round and production roll-out with t-tests
//! (§5.2.2 reports t = 4.45 and 7.13 for the YARN roll-out; Table 4 reports
//! t = 40.4 and 27.1 for SC1 vs SC2). Every comparison in the pipeline is
//! two-sample, and machine groups with different SKUs rarely share a
//! variance, so the one test here is Welch's unequal-variance test.

use crate::describe::Welford;
use crate::dist::StudentsT;
use crate::error::{check_finite, StatsError};

/// Sidedness of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alternative {
    /// H1: the means differ (default in the paper's analyses).
    TwoSided,
    /// H1: mean of the first sample is greater.
    Greater,
    /// H1: mean of the first sample is less.
    Less,
}

/// Result of a t-test.
#[derive(Debug, Clone, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom (fractional in general).
    pub df: f64,
    /// p-value under the chosen [`Alternative`].
    pub p_value: f64,
    /// Difference in means: `mean(a) − mean(b)`.
    pub mean_diff: f64,
    /// Standard error of the mean difference.
    pub std_err: f64,
    /// Which alternative hypothesis was tested.
    pub alternative: Alternative,
}

impl TTestResult {
    /// Convenience: is the result significant at level `alpha`?
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

fn moments(data: &[f64]) -> Result<(f64, f64, f64), StatsError> {
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
    Ok((acc.mean(), acc.sample_variance(), data.len() as f64))
}

/// Welch's unequal-variance two-sample t-test with the
/// Welch–Satterthwaite degrees of freedom. This is the default test used by
/// KEA's Experiment Module.
///
/// # Errors
/// Each sample needs at least two finite observations, and at least one
/// sample must have non-zero variance.
pub fn t_test_welch(a: &[f64], b: &[f64], alt: Alternative) -> Result<TTestResult, StatsError> {
    let (ma, va, na) = moments(a)?;
    let (mb, vb, nb) = moments(b)?;
    let se2a = va / na;
    let se2b = vb / nb;
    let se2 = se2a + se2b;
    if se2 == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let std_err = se2.sqrt();
    let t = (ma - mb) / std_err;
    let df = se2 * se2 / (se2a * se2a / (na - 1.0) + se2b * se2b / (nb - 1.0));
    // df > 0 here (both samples have n ≥ 2 and se2 > 0); an invalid df
    // would degrade to a NaN p-value ("no evidence") instead of aborting.
    let p_value = match StudentsT::new(df) {
        Ok(dist) => match alt {
            Alternative::TwoSided => dist.p_two_sided(t),
            Alternative::Greater => dist.sf(t),
            Alternative::Less => dist.cdf(t),
        },
        Err(_) => f64::NAN,
    };
    Ok(TTestResult {
        t,
        df,
        p_value,
        mean_diff: ma - mb,
        std_err,
        alternative: alt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [30.02, 29.99, 30.11, 29.97, 30.01, 29.99, 30.05, 30.10, 29.95, 30.03];
    const B: [f64; 10] = [29.89, 29.93, 29.72, 29.98, 30.02, 29.98, 29.87, 29.90, 29.95, 29.97];

    #[test]
    fn welch_matches_reference() {
        // Reference values computed independently (Welch formulas + numeric
        // t-distribution integration): t = 3.20729, df = 15.023, p = 0.005866.
        let res = t_test_welch(&A, &B, Alternative::TwoSided).unwrap();
        assert!((res.t - 3.20729).abs() < 1e-4, "t = {}", res.t);
        assert!((res.df - 15.023).abs() < 0.01, "df = {}", res.df);
        assert!((res.p_value - 0.005866).abs() < 1e-5, "p = {}", res.p_value);
        assert!(res.significant_at(0.05));
    }

    #[test]
    fn identical_samples_give_t_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let res = t_test_welch(&x, &x, Alternative::TwoSided).unwrap();
        assert!(res.t.abs() < 1e-12);
        assert!((res.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_sided_p_is_half_of_two_sided_for_positive_t() {
        let two = t_test_welch(&A, &B, Alternative::TwoSided).unwrap();
        let greater = t_test_welch(&A, &B, Alternative::Greater).unwrap();
        let less = t_test_welch(&A, &B, Alternative::Less).unwrap();
        assert!((greater.p_value - two.p_value / 2.0).abs() < 1e-9);
        assert!((greater.p_value + less.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn swapping_samples_flips_sign() {
        let ab = t_test_welch(&A, &B, Alternative::TwoSided).unwrap();
        let ba = t_test_welch(&B, &A, Alternative::TwoSided).unwrap();
        assert!((ab.t + ba.t).abs() < 1e-12);
        assert!((ab.p_value - ba.p_value).abs() < 1e-12);
        assert!((ab.mean_diff + ba.mean_diff).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_rejected() {
        let flat = [5.0, 5.0, 5.0];
        assert_eq!(
            t_test_welch(&flat, &flat, Alternative::TwoSided),
            Err(StatsError::ZeroVariance)
        );
    }

    #[test]
    fn too_small_samples_rejected() {
        assert!(matches!(
            t_test_welch(&[1.0], &[1.0, 2.0], Alternative::TwoSided),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn nan_input_rejected() {
        assert_eq!(
            t_test_welch(&[1.0, f64::NAN, 2.0], &B, Alternative::TwoSided),
            Err(StatsError::NonFiniteInput)
        );
    }

    #[test]
    fn large_separation_gives_large_t() {
        // The paper reports t-values as large as 40.4 (Table 4); ensure the
        // p-value machinery stays finite and monotone out there.
        let a: Vec<f64> = (0..200).map(|i| 100.0 + (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..200).map(|i| 90.0 + (i % 7) as f64 * 0.1).collect();
        let res = t_test_welch(&a, &b, Alternative::TwoSided).unwrap();
        assert!(res.t > 30.0);
        assert!(res.p_value >= 0.0 && res.p_value < 1e-10);
    }
}
