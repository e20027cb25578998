//! Ordinary least squares for a line: the normal equations `XᵀX β = Xᵀy`
//! of the design `[1, x]`.

use crate::error::MlError;
use crate::matrix::{self, NormalEquations};

/// OLS `(intercept, slope)` on validated input.
pub(crate) fn fit(x: &[f64], y: &[f64]) -> Result<(f64, f64), MlError> {
    matrix::solve(normal_equations(x, y))
}

/// Least squares `XᵀX β = Xᵀy` for the design `[1, x]`.
fn normal_equations(x: &[f64], y: &[f64]) -> NormalEquations {
    let (mut sx, mut sxx) = (0.0, 0.0);
    for &xi in x {
        sx += xi;
        sxx += xi * xi;
    }
    // `Xᵀy` goes through `Iterator::sum`, which starts from −0.0 where the
    // loops above start from +0.0; the two differ in the sign of a zero sum.
    let sy: f64 = y.iter().sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    ([[x.len() as f64, sx], [sx, sxx]], [sy, sxy])
}

#[cfg(test)]
mod tests {
    use crate::{LinearModel1D, MlError};

    #[test]
    fn recovers_exact_line() {
        let x: Vec<f64> = (0..20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| -1.5 + 0.75 * v).collect();
        let m = LinearModel1D::fit_ols(&x, &y).unwrap();
        assert!((m.intercept() + 1.5).abs() < 1e-9);
        assert!((m.slope() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn least_squares_minimizes_residuals_on_noisy_data() {
        // OLS residuals must be orthogonal to the regressors.
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = (0..50)
            .map(|i| 3.0 + 0.5 * i as f64 + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let m = LinearModel1D::fit_ols(&x, &y).unwrap();
        let resid: Vec<f64> = x.iter().zip(&y).map(|(&v, &t)| t - m.predict(v)).collect();
        let sum: f64 = resid.iter().sum();
        let dot: f64 = resid.iter().zip(&x).map(|(r, v)| r * v).sum();
        assert!(sum.abs() < 1e-8, "residuals must sum to ~0, got {sum}");
        assert!(dot.abs() < 1e-6, "residuals ⟂ x violated, got {dot}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert_eq!(
            LinearModel1D::fit_ols(&[1.0, 2.0], &[1.0]),
            Err(MlError::ShapeMismatch {
                x_rows: 2,
                y_len: 1
            })
        );
    }

    #[test]
    fn underdetermined_rejected() {
        // Two coefficients (intercept + slope) need two rows; the row count
        // is checked before the values.
        let cases: [(&[f64], &[f64]); 3] = [(&[], &[]), (&[1.0], &[1.0]), (&[1.0], &[f64::NAN])];
        for (x, y) in cases {
            assert_eq!(
                LinearModel1D::fit_ols(x, y),
                Err(MlError::InsufficientData {
                    required: 2,
                    actual: x.len()
                })
            );
        }
    }

    #[test]
    fn collinear_features_detected() {
        // A constant x is collinear with the intercept column.
        let x = [2.0; 10];
        let y: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(LinearModel1D::fit_ols(&x, &y), Err(MlError::SingularSystem));
    }

    #[test]
    fn nan_target_rejected() {
        assert_eq!(
            LinearModel1D::fit_ols(&[1.0, 2.0, 3.0], &[1.0, f64::NAN, 3.0]),
            Err(MlError::NonFiniteInput)
        );
    }
}
