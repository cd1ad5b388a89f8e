//! Error type for EE-FEI model construction and optimization.

use std::error::Error;
use std::fmt;

/// Errors from building or optimizing EE-FEI models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model parameter violated its domain (message names the parameter).
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The convergence constraint (13c) cannot be satisfied anywhere in the
    /// search domain — the accuracy target is unreachable for this system.
    Infeasible {
        /// Human-readable description of the violated constraint.
        detail: String,
    },
    /// A calibration fit failed (degenerate design matrix, too few points).
    CalibrationFailed {
        /// Why the fit failed.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            CoreError::Infeasible { detail } => {
                write!(f, "accuracy target infeasible: {detail}")
            }
            CoreError::CalibrationFailed { detail } => {
                write!(f, "calibration failed: {detail}")
            }
        }
    }
}

impl Error for CoreError {}

impl CoreError {
    /// Shorthand for an [`CoreError::InvalidParameter`].
    pub(crate) fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        CoreError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }
}

/// Validates that `value` is finite and strictly positive.
pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<(), CoreError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(CoreError::invalid(
            name,
            format!("must be finite and positive, got {value}"),
        ))
    }
}

/// Validates that `value` is finite and non-negative.
pub(crate) fn require_non_negative(name: &'static str, value: f64) -> Result<(), CoreError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(CoreError::invalid(
            name,
            format!("must be finite and non-negative, got {value}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::invalid("epsilon", "must be positive");
        assert!(e.to_string().contains("epsilon"));
        let e = CoreError::Infeasible {
            detail: "A1 too large".into(),
        };
        assert!(e.to_string().contains("A1 too large"));
        let e = CoreError::CalibrationFailed {
            detail: "singular".into(),
        };
        assert!(e.to_string().contains("singular"));
    }

    #[test]
    fn validators() {
        assert!(require_positive("x", 1.0).is_ok());
        assert!(require_positive("x", 0.0).is_err());
        assert!(require_positive("x", f64::NAN).is_err());
        assert!(require_non_negative("x", 0.0).is_ok());
        assert!(require_non_negative("x", -1e-9).is_err());
        assert!(require_non_negative("x", f64::INFINITY).is_err());
    }
}
