//! Error type shared by the simkit primitives.

use std::error::Error;
use std::fmt;

/// Errors produced by simkit primitives.
///
/// The variants carry enough context for the caller to report a useful
/// message; all variants are non-exhaustive-friendly plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimkitError {
    /// A collection that must be non-empty was empty.
    Empty {
        /// Name of the offending collection.
        what: &'static str,
    },
    /// Positionally aligned inputs disagreed where they must match (e.g.
    /// replicate curves with different slot axes).
    Mismatch {
        /// Name of the quantity that must match across inputs.
        what: &'static str,
    },
}

impl fmt::Display for SimkitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimkitError::Empty { what } => write!(f, "{what} must not be empty"),
            SimkitError::Mismatch { what } => {
                write!(f, "{what} must match across inputs")
            }
        }
    }
}

impl Error for SimkitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = SimkitError::Empty { what: "samples" };
        assert_eq!(e.to_string(), "samples must not be empty");
        let e = SimkitError::Mismatch {
            what: "curve slot axes",
        };
        assert_eq!(e.to_string(), "curve slot axes must match across inputs");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimkitError>();
    }
}
