#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gumbel;
pub mod iid;
pub mod pwcet;
pub mod special;

use std::fmt;

/// Errors reported by the analysis pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MbptaError {
    /// Not enough samples for the requested analysis.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Samples required.
        need: usize,
    },
    /// Samples were degenerate (zero variance, NaN, or infinite).
    DegenerateSamples(String),
    /// A fit failed to converge.
    NoConvergence(String),
    /// A parameter was outside its documented domain.
    InvalidParameter(String),
}

impl fmt::Display for MbptaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbptaError::TooFewSamples { got, need } => {
                write!(f, "too few samples: got {got}, need at least {need}")
            }
            MbptaError::DegenerateSamples(why) => write!(f, "degenerate samples: {why}"),
            MbptaError::NoConvergence(what) => write!(f, "fit did not converge: {what}"),
            MbptaError::InvalidParameter(why) => write!(f, "invalid parameter: {why}"),
        }
    }
}

impl std::error::Error for MbptaError {}
