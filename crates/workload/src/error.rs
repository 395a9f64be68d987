//! Error type for workload construction and sampling.

use std::fmt;

/// Errors produced while building or using workload objects.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A probability vector was empty.
    EmptyDistribution,
    /// A probability or weight was negative or non-finite.
    InvalidProbability {
        /// Index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Probabilities did not sum to 1 within tolerance.
    NotNormalized {
        /// The observed sum.
        sum: f64,
    },
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::EmptyDistribution => write!(f, "distribution has no entries"),
            WorkloadError::InvalidProbability { index, value } => {
                write!(f, "invalid probability {value} at index {index}")
            }
            WorkloadError::NotNormalized { sum } => {
                write!(f, "probabilities sum to {sum}, expected 1")
            }
            WorkloadError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WorkloadError::InvalidParameter {
            name: "alpha",
            reason: "must be positive".to_owned(),
        };
        let s = e.to_string();
        assert!(s.contains("alpha"));
        assert!(s.contains("must be positive"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkloadError>();
    }

    #[test]
    fn not_normalized_reports_sum() {
        let e = WorkloadError::NotNormalized { sum: 0.5 };
        assert!(e.to_string().contains("0.5"));
    }
}
