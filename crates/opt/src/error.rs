//! Error type for optimization routines.

use std::fmt;

/// Errors raised by the optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// A problem was constructed with inconsistent dimensions.
    DimensionMismatch {
        /// Expected number of variables.
        expected: usize,
        /// Number supplied.
        actual: usize,
    },
    /// A parameter was out of its domain (message names it).
    InvalidParameter(&'static str),
    /// Input contained NaN or infinity.
    NonFiniteInput,
    /// The search space was empty (no candidates).
    EmptySearchSpace,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            OptError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            OptError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            OptError::EmptySearchSpace => write!(f, "search space is empty"),
        }
    }
}

impl std::error::Error for OptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(OptError::DimensionMismatch {
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains("expected 3"));
    }
}
