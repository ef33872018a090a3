use std::error::Error;
use std::fmt;

/// Error raised when building a packing problem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IlpError {
    /// An item referenced a resource index out of range, or no resource
    /// at all (reported with index `usize::MAX`).
    VariableOutOfRange {
        /// The offending resource index.
        index: usize,
        /// The number of resources declared.
        num_vars: usize,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::VariableOutOfRange { index, num_vars } => {
                write!(f, "variable {index} out of range (have {num_vars})")
            }
        }
    }
}

impl Error for IlpError {}
