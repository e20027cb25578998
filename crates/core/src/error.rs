//! Error type for the KEA pipeline.

use std::fmt;

/// Errors surfaced by KEA's modules.
#[derive(Debug, Clone, PartialEq)]
pub enum KeaError {
    /// The telemetry window held no usable observations for a group.
    NoObservations {
        /// Description of what was being looked for.
        what: String,
    },
    /// A model failed to fit.
    Model(kea_ml::MlError),
    /// A statistical routine failed.
    Stats(kea_stats::StatsError),
    /// The optimizer failed.
    Opt(kea_opt::OptError),
    /// An experiment design could not be realised (e.g. not enough
    /// machines in a rack for the ideal setting).
    Design(String),
}

impl fmt::Display for KeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeaError::NoObservations { what } => write!(f, "no observations: {what}"),
            KeaError::Model(e) => write!(f, "model fitting failed: {e}"),
            KeaError::Stats(e) => write!(f, "statistical analysis failed: {e}"),
            KeaError::Opt(e) => write!(f, "optimization failed: {e}"),
            KeaError::Design(msg) => write!(f, "experiment design infeasible: {msg}"),
        }
    }
}

impl std::error::Error for KeaError {}

impl From<kea_ml::MlError> for KeaError {
    fn from(e: kea_ml::MlError) -> Self {
        KeaError::Model(e)
    }
}

impl From<kea_stats::StatsError> for KeaError {
    fn from(e: kea_stats::StatsError) -> Self {
        KeaError::Stats(e)
    }
}

impl From<kea_opt::OptError> for KeaError {
    fn from(e: kea_opt::OptError) -> Self {
        KeaError::Opt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: KeaError = kea_ml::MlError::SingularSystem.into();
        assert!(e.to_string().contains("singular"));
        let e: KeaError = kea_stats::StatsError::EmptyInput.into();
        assert!(e.to_string().contains("empty"));
        let e: KeaError = kea_opt::OptError::NonFiniteInput.into();
        assert!(e.to_string().contains("NaN or infinite"));
        let e = KeaError::NoObservations {
            what: "group (0,1)".to_string(),
        };
        assert!(e.to_string().contains("group (0,1)"));
    }
}
