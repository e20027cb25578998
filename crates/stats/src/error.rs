//! Error type shared by all statistical routines.

use std::fmt;

/// Errors returned by statistical routines in this crate.
///
/// Every fallible function in `kea-stats` returns `Result<_, StatsError>`;
/// panics are reserved for internal invariant violations.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input sample was empty but the statistic requires at least one
    /// observation.
    EmptyInput,
    /// The input sample was too small for the requested statistic (e.g. a
    /// variance over a single point). Carries the minimum required size.
    InsufficientData {
        /// Minimum number of observations required.
        required: usize,
        /// Number of observations actually provided.
        actual: usize,
    },
    /// A parameter was outside its mathematical domain (e.g. a significance
    /// level outside `(0, 1)`, a non-positive degrees-of-freedom).
    InvalidParameter(&'static str),
    /// The input contained a non-finite value (NaN or infinity).
    NonFiniteInput,
    /// Both samples had zero variance so the test statistic is undefined.
    ZeroVariance,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample is empty"),
            StatsError::InsufficientData { required, actual } => write!(
                f,
                "insufficient data: need at least {required} observations, got {actual}"
            ),
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            StatsError::ZeroVariance => {
                write!(f, "samples have zero variance; test statistic undefined")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Validates that every value in `data` is finite.
pub(crate) fn check_finite(data: &[f64]) -> Result<(), StatsError> {
    if data.iter().any(|v| !v.is_finite()) {
        Err(StatsError::NonFiniteInput)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(StatsError::EmptyInput.to_string(), "input sample is empty");
        assert!(StatsError::InsufficientData {
            required: 2,
            actual: 1
        }
        .to_string()
        .contains("at least 2"));
        assert!(StatsError::InvalidParameter("df must be positive")
            .to_string()
            .contains("df must be positive"));
    }

    #[test]
    fn check_finite_accepts_normal_data() {
        assert!(check_finite(&[1.0, -2.5, 0.0]).is_ok());
    }

    #[test]
    fn check_finite_rejects_nan_and_inf() {
        assert_eq!(
            check_finite(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput)
        );
        assert_eq!(
            check_finite(&[f64::INFINITY]),
            Err(StatsError::NonFiniteInput)
        );
    }
}
