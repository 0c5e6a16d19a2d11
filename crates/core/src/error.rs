//! Error type for protocol construction and configuration.

use std::error::Error;
use std::fmt;

/// Errors produced by `fet-core` constructors and validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A sample size parameter was zero.
    ZeroSampleSize,
    /// An observation reported more ones than its sample size.
    ObservationOverflow {
        /// Reported number of ones.
        ones: u32,
        /// Sample size of the observation.
        sample_size: u32,
    },
    /// The observation's sample size does not match what the protocol
    /// requested for this round.
    SampleSizeMismatch {
        /// What the protocol expects per round.
        expected: u32,
        /// What the observation carried.
        got: u32,
    },
    /// A half-sample size exceeds what the protocol can draw exactly.
    SampleSizeTooLarge {
        /// The requested half-sample size `ℓ`.
        ell: u32,
        /// The largest accepted `ℓ`.
        max: u32,
    },
    /// A population parameter is out of range (e.g. zero agents, or more
    /// sources than agents).
    InvalidPopulation {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ZeroSampleSize => write!(f, "sample size must be at least 1"),
            CoreError::ObservationOverflow { ones, sample_size } => {
                write!(
                    f,
                    "observation reports {ones} ones in a sample of {sample_size}"
                )
            }
            CoreError::SampleSizeMismatch { expected, got } => {
                write!(
                    f,
                    "protocol expects {expected} samples per round, observation has {got}"
                )
            }
            CoreError::SampleSizeTooLarge { ell, max } => {
                write!(f, "sample size ℓ = {ell} exceeds the cap of {max}")
            }
            CoreError::InvalidPopulation { detail } => write!(f, "invalid population: {detail}"),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::ZeroSampleSize.to_string().contains("at least 1"));
        let e = CoreError::ObservationOverflow {
            ones: 9,
            sample_size: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
