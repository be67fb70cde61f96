//! Error type for sketch construction.

use std::fmt;

/// Errors raised when configuring a sketch.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// A structural parameter (rows, columns, AMS averages or medians) was
    /// zero.
    EmptyDimension {
        /// Which parameter was empty.
        parameter: &'static str,
    },
    /// A probability-like parameter was outside `(0, 1)`.
    InvalidProbability {
        /// Which parameter was invalid.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::EmptyDimension { parameter } => {
                write!(f, "sketch parameter `{parameter}` must be positive")
            }
            SketchError::InvalidProbability { parameter, value } => {
                write!(
                    f,
                    "sketch parameter `{parameter}` = {value} must lie in (0, 1)"
                )
            }
        }
    }
}

impl std::error::Error for SketchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameter() {
        let e = SketchError::EmptyDimension { parameter: "rows" };
        assert!(e.to_string().contains("rows"));
        let e = SketchError::InvalidProbability {
            parameter: "delta",
            value: 1.5,
        };
        assert!(e.to_string().contains("delta") && e.to_string().contains("1.5"));
    }
}
