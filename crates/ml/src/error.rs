//! Error type for model fitting.

use std::fmt;

/// Errors raised while building or fitting a model.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The regressor and the target disagree in length.
    ShapeMismatch {
        /// Entries in the regressor (or the predictions).
        x_rows: usize,
        /// Entries in the target.
        y_len: usize,
    },
    /// Not enough observations to identify the coefficients.
    InsufficientData {
        /// Observations required (two for a line).
        required: usize,
        /// Observations provided.
        actual: usize,
    },
    /// The normal-equations system was singular (a constant regressor
    /// next to the intercept).
    SingularSystem,
    /// Input contained NaN or infinity.
    NonFiniteInput,
    /// A value was out of range (message explains which).
    InvalidParameter(&'static str),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { x_rows, y_len } => {
                write!(f, "shape mismatch: X has {x_rows} rows but y has {y_len}")
            }
            MlError::InsufficientData { required, actual } => {
                write!(f, "need at least {required} observations, got {actual}")
            }
            MlError::SingularSystem => write!(f, "normal equations are singular"),
            MlError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            MlError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MlError::ShapeMismatch {
            x_rows: 3,
            y_len: 4,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("4"));
        assert!(MlError::SingularSystem.to_string().contains("singular"));
    }
}
