//! The 2×2 normal equations of a line fit, and their solve.
//!
//! Both fits reduce to `A·(intercept, slope) = b` for the design `[1, x]`
//! and solve it in closed form by Gaussian elimination with a partial
//! pivot on the first column.

use crate::error::MlError;

/// The 2×2 normal equations `A·(intercept, slope) = b` of a line fit.
pub(crate) type NormalEquations = ([[f64; 2]; 2], [f64; 2]);

/// Solves the normal equations by Gaussian elimination with a partial
/// pivot, returning `(intercept, slope)`.
///
/// # Errors
/// [`MlError::SingularSystem`] when a pivot falls below `1e-12`.
pub(crate) fn solve(
    ([[p00, p01], [p10, p11]], [q0, q1]): NormalEquations,
) -> Result<(f64, f64), MlError> {
    let (a00, a01, a10, a11, b0, b1) = if p10.abs() > p00.abs() {
        (p10, p11, p00, p01, q1, q0)
    } else {
        (p00, p01, p10, p11, q0, q1)
    };
    if a00.abs() < 1e-12 {
        return Err(MlError::SingularSystem);
    }
    let factor = a10 / a00;
    // A zero factor skips the update, which could otherwise turn an
    // overflowed (infinite) entry into NaN.
    let (a11, b1) = if factor == 0.0 {
        (a11, b1)
    } else {
        (a11 - factor * a01, b1 - factor * b0)
    };
    if a11.abs() < 1e-12 {
        return Err(MlError::SingularSystem);
    }
    let slope = b1 / a11;
    Ok(((b0 - a01 * slope) / a00, slope))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_2x2() {
        // x + 2y = 5; 3x + 4y = 11 → x = 1, y = 2.
        let (a, b) = solve(([[1.0, 2.0], [3.0, 4.0]], [5.0, 11.0])).unwrap();
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero on the diagonal forces a row swap.
        let (a, b) = solve(([[0.0, 1.0], [1.0, 0.0]], [3.0, 7.0])).unwrap();
        assert!((a - 7.0).abs() < 1e-12);
        assert!((b - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_detected() {
        assert_eq!(
            solve(([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])),
            Err(MlError::SingularSystem)
        );
    }
}
