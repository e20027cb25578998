//! Goodness of fit for calibrated models.
//!
//! Phase II of the KEA methodology ends with the data scientists validating
//! calibrated models with the domain experts (Figure 3); these are the
//! numbers on that review slide.

use crate::error::MlError;

/// Coefficient of determination `R² = 1 − SS_res / SS_tot`.
///
/// Returns 1.0 when both the residuals and the total variance are zero
/// (a perfect fit of a constant target).
///
/// # Errors
/// Shapes must match and data must be finite; a constant target with
/// non-zero residuals has undefined R² and returns
/// [`MlError::InvalidParameter`].
pub fn r2_score(y_true: &[f64], y_pred: &[f64]) -> Result<f64, MlError> {
    r2_of(y_true, y_pred.len(), || y_pred.iter().copied())
}

/// The one R² computation, behind [`r2_score`] and
/// [`LinearModel1D::r2`](crate::LinearModel1D::r2): `y_pred` yields the
/// `pred_len` predictions afresh on each call, so a caller can predict on
/// the fly instead of storing them. Every sum runs in row order from the
/// same start, so a value does not depend on which caller asked.
pub(crate) fn r2_of<I: Iterator<Item = f64>>(
    y_true: &[f64],
    pred_len: usize,
    y_pred: impl Fn() -> I,
) -> Result<f64, MlError> {
    if y_true.len() != pred_len {
        return Err(MlError::ShapeMismatch {
            x_rows: pred_len,
            y_len: y_true.len(),
        });
    }
    if y_true.is_empty() {
        return Err(MlError::InsufficientData {
            required: 1,
            actual: 0,
        });
    }
    if y_true
        .iter()
        .copied()
        .chain(y_pred())
        .any(|v| !v.is_finite())
    {
        return Err(MlError::NonFiniteInput);
    }
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_tot: f64 = y_true.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred())
        .map(|(t, p)| (t - p).powi(2))
        .sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 {
            Ok(1.0)
        } else {
            Err(MlError::InvalidParameter(
                "R² undefined for constant target with non-zero residuals",
            ))
        };
    }
    Ok(1.0 - ss_res / ss_tot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fit_metrics() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(r2_score(&y, &y).unwrap(), 1.0);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let pred = [2.5; 4];
        assert!((r2_score(&y, &pred).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn r2_can_be_negative_for_bad_models() {
        let y = [1.0, 2.0, 3.0];
        let pred = [10.0, 10.0, 10.0];
        assert!(r2_score(&y, &pred).unwrap() < 0.0);
    }

    #[test]
    fn r2_constant_target_cases() {
        let y = [5.0, 5.0, 5.0];
        assert_eq!(r2_score(&y, &y).unwrap(), 1.0);
        assert!(r2_score(&y, &[5.0, 5.0, 6.0]).is_err());
    }

    #[test]
    fn shape_and_finite_checks() {
        assert!(r2_score(&[1.0], &[1.0, 2.0]).is_err());
        assert!(r2_score(&[], &[]).is_err());
        assert!(r2_score(&[f64::NAN], &[1.0]).is_err());
    }
}
