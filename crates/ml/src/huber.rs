//! Huber robust regression for a line, fitted with IRLS.
//!
//! §5.2.1: "We used a Huber Regressor for the prediction of the set of
//! performance metrics in the What-if Engine, which is more robust to
//! outliers compared to the Least Squares Regression." Cluster telemetry is
//! full of outliers — machines draining for repair, transient hot spots —
//! so robustness is not optional.
//!
//! The estimator minimizes `Σ ρ_δ(r_i / s)` where `ρ_δ` is the Huber loss
//! (quadratic within `δ`, linear outside) and `s` is a robust scale
//! estimate. We fit by iteratively reweighted least squares (IRLS): at
//! each step, observations with standardized residual beyond `δ` get
//! down-weighted by `δ·s/|r|`, then a weighted least-squares problem is
//! solved in closed form. Scale is re-estimated each iteration from the
//! median absolute deviation (MAD).

use crate::error::MlError;
use crate::matrix::{self, NormalEquations};

/// Huber threshold in robust standard deviations; 1.345 gives 95%
/// efficiency under normal errors (the standard choice, also
/// scikit-learn's default modulo its different parameterization).
const DELTA: f64 = 1.345;

/// IRLS iteration budget. If it runs out (rare; degenerate leverage
/// configurations such as near-vertical clouds from saturated telemetry)
/// the last iterate is returned — a telemetry pipeline must degrade, not
/// fall over.
const MAX_ITER: usize = 100;

/// IRLS has converged once no coefficient moves by this much.
const TOL: f64 = 1e-8;

/// Huber `(intercept, slope)` on validated input, by IRLS starting from
/// OLS (unit weights).
pub(crate) fn fit(x: &[f64], y: &[f64]) -> Result<(f64, f64), MlError> {
    let mut w = vec![1.0; y.len()];
    let mut beta = matrix::solve(weighted_normal_equations(x, y, &w))?;
    let mut abs_residuals = vec![0.0; y.len()];
    let mut buf = Vec::with_capacity(y.len());
    for _ in 0..MAX_ITER {
        let (intercept, slope) = beta;
        for ((r, &xi), &yi) in abs_residuals.iter_mut().zip(x).zip(y) {
            *r = (yi - (intercept + slope * xi)).abs();
        }
        let scale = mad_scale(&abs_residuals, &mut buf);
        if scale < 1e-12 {
            // Perfect (or near-perfect) fit for over half the data; the
            // Huber solution is the current one.
            return Ok(beta);
        }
        let threshold = DELTA * scale;
        for (wi, &a) in w.iter_mut().zip(&abs_residuals) {
            *wi = if a <= threshold { 1.0 } else { threshold / a };
        }
        let next = matrix::solve(weighted_normal_equations(x, y, &w))?;
        // `f64::max` ignores NaN, so a NaN change (an overflowed fit) reads
        // as converged.
        let max_change = 0.0_f64
            .max((next.0 - intercept).abs())
            .max((next.1 - slope).abs());
        beta = next;
        if max_change < TOL {
            return Ok(beta);
        }
    }
    Ok(beta)
}

/// Weighted least squares `(Xᵀ W X) β = Xᵀ W y` for the design `[1, x]`.
fn weighted_normal_equations(x: &[f64], y: &[f64], w: &[f64]) -> NormalEquations {
    let (mut sw, mut swx, mut swxx, mut swy, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for ((&xi, &yi), &wi) in x.iter().zip(y).zip(w) {
        let wxi = wi * xi;
        sw += wi;
        swx += wxi;
        swxx += wxi * xi;
        swy += wi * yi;
        swxy += wxi * yi;
    }
    ([[sw, swx], [swx, swxx]], [swy, swxy])
}

/// MAD-based robust scale of residuals given by absolute value, scaled to
/// be consistent with the standard deviation under normality (factor
/// 1.4826). `buf` is reused across IRLS iterations.
fn mad_scale(abs_residuals: &[f64], buf: &mut Vec<f64>) -> f64 {
    buf.clear();
    buf.extend_from_slice(abs_residuals);
    let mid = buf.len() / 2;
    let (lower, &mut upper, _) = buf.select_nth_unstable_by(mid, f64::total_cmp);
    let median = if abs_residuals.len() % 2 == 1 {
        upper
    } else {
        let below = lower
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(upper);
        0.5 * (below + upper)
    };
    1.4826 * median
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearModel1D;

    fn noisy_line_with_outliers() -> (Vec<f64>, Vec<f64>) {
        // y = 10 + 2x with small deterministic noise, plus 10% gross
        // outliers (telemetry from draining machines).
        (0..100)
            .map(|i| {
                let xi = i as f64 * 0.5;
                let noise = ((i * 37) % 11) as f64 * 0.02 - 0.1;
                let yi = if i % 10 == 3 {
                    10.0 + 2.0 * xi + 80.0
                } else {
                    10.0 + 2.0 * xi + noise
                };
                (xi, yi)
            })
            .unzip()
    }

    #[test]
    fn exact_line_recovered() {
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 5.0 - 0.5 * v).collect();
        let m = LinearModel1D::fit_huber(&x, &y).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-6);
        assert!((m.slope() + 0.5).abs() < 1e-6);
    }

    #[test]
    fn robust_to_gross_outliers_where_ols_is_not() {
        let (x, y) = noisy_line_with_outliers();
        let huber = LinearModel1D::fit_huber(&x, &y).unwrap();
        let ols = LinearModel1D::fit_ols(&x, &y).unwrap();
        // Huber slope should be very close to the true 2.0; OLS is pulled
        // away by the +80 outliers.
        let huber_err = (huber.slope() - 2.0).abs();
        let ols_err = (ols.slope() - 2.0).abs();
        assert!(huber_err < 0.05, "huber slope err {huber_err}");
        assert!(
            huber.intercept() - 10.0 < 1.0,
            "huber intercept {}",
            huber.intercept()
        );
        assert!(
            huber_err < ols_err,
            "huber ({huber_err}) should beat OLS ({ols_err})"
        );
        // OLS intercept is biased upward by roughly outlier_mass ≈ 8.
        assert!(ols.intercept() > huber.intercept() + 2.0);
    }

    #[test]
    fn perfect_fit_short_circuits() {
        // An exact line leaves (rounding-level) residuals at the OLS start,
        // so the MAD scale is below the 1e-12 cut-off and IRLS returns that
        // start as it is.
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        let start = matrix::solve(weighted_normal_equations(&x, &y, &[1.0; 10])).unwrap();
        let abs_residuals: Vec<f64> = x
            .iter()
            .zip(&y)
            .map(|(&xi, &yi)| (yi - (start.0 + start.1 * xi)).abs())
            .collect();
        assert!(mad_scale(&abs_residuals, &mut Vec::new()) < 1e-12);
        assert_eq!(fit(&x, &y), Ok(start));
        assert!((start.1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shape_and_finiteness_checked() {
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0, 2.0], &[1.0]),
            Err(MlError::ShapeMismatch {
                x_rows: 2,
                y_len: 1
            })
        );
        assert_eq!(
            LinearModel1D::fit_huber(&[], &[]),
            Err(MlError::InsufficientData {
                required: 2,
                actual: 0
            })
        );
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0, f64::NAN, 2.0], &[1.0, 2.0, 3.0]),
            Err(MlError::NonFiniteInput)
        );
        assert_eq!(
            LinearModel1D::fit_huber(&[1.0, 2.0, 3.0], &[1.0, f64::INFINITY, 3.0]),
            Err(MlError::NonFiniteInput)
        );
    }

    #[test]
    fn constant_x_is_singular() {
        let x = [2.0; 10];
        let y: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(
            LinearModel1D::fit_huber(&x, &y),
            Err(MlError::SingularSystem)
        );
    }

    #[test]
    fn mad_scale_matches_a_full_sort() {
        // The median by selection must be the sorted middle (odd n) or the
        // mean of the two middles (even n).
        let mut buf = Vec::new();
        assert_eq!(mad_scale(&[3.0, 1.0, 2.0], &mut buf), 1.4826 * 2.0);
        assert_eq!(mad_scale(&[4.0, 1.0, 3.0, 2.0], &mut buf), 1.4826 * 2.5);
    }
}
