//! Error types for queue-sizing analysis.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the queue-sizing pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QsError {
    /// Cycle enumeration blew past the configured limit; the instance is too
    /// large for the cycle-listing approach (the paper notes this failure
    /// mode explicitly in Section VIII-C).
    TooManyCycles {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The underlying marked-graph analysis failed.
    Graph(marked_graph::GraphError),
    /// The solution failed its own check: the resized system's
    /// certificate did not prove `θ(d[G]) = θ(G)`.
    Unverified,
}

impl fmt::Display for QsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsError::TooManyCycles { limit } => {
                write!(f, "cycle enumeration exceeded the limit of {limit} cycles")
            }
            QsError::Graph(e) => write!(f, "marked-graph analysis failed: {e}"),
            QsError::Unverified => f.write_str("queue-sizing solution failed verification"),
        }
    }
}

impl StdError for QsError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            QsError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<marked_graph::GraphError> for QsError {
    fn from(e: marked_graph::GraphError) -> QsError {
        match e {
            marked_graph::GraphError::TooManyCycles { limit } => QsError::TooManyCycles { limit },
            other => QsError::Graph(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: QsError = marked_graph::GraphError::TooManyCycles { limit: 5 }.into();
        assert_eq!(e, QsError::TooManyCycles { limit: 5 });
        assert!(e.to_string().contains("limit of 5"));
        let g: QsError = marked_graph::GraphError::Acyclic.into();
        assert!(matches!(g, QsError::Graph(_)));
        assert!(StdError::source(&g).is_some());
        assert_eq!(
            QsError::Unverified.to_string(),
            "queue-sizing solution failed verification"
        );
    }
}
