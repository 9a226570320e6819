//! Error type for the bill-capping algorithms.

use billcap_milp::SolveError;
use billcap_queueing::QueueingError;
use std::fmt;

/// Errors surfaced by the cost-minimization / throughput-maximization
/// formulations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The demanded workload exceeds what the data-center network can carry
    /// within its power caps and QoS targets.
    InsufficientCapacity {
        /// Demanded rate (requests/hour).
        demanded: f64,
        /// Deliverable capacity (requests/hour).
        capacity: f64,
    },
    /// The underlying MILP failed.
    Solver(SolveError),
    /// The queueing model rejected the configuration (e.g. an unreachable
    /// response-time target).
    Queueing(QueueingError),
    /// Mismatched input sizes (e.g. background-demand vector vs. sites).
    Dimension {
        /// Expected length.
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// A solve failed its certificate or a decision failed its plan
    /// audit (both always run, see [`crate::audit`]), or a decision's
    /// steps contradict each other (step 2 admitting less than the
    /// guaranteed rate that step 3 serves within the budget); the
    /// message carries the violated invariants.
    Audit(String),
    /// The lint of a freshly built model found Error-severity defects in
    /// it; the message carries them.
    Lint(String),
    /// An hour's inputs break [`crate::validate_hour_inputs`], or a site's
    /// power cap is not finite or sits below its base power; the message
    /// names the offending value.
    InvalidInput(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InsufficientCapacity { demanded, capacity } => write!(
                f,
                "workload {demanded} req/h exceeds network capacity {capacity} req/h"
            ),
            CoreError::Solver(e) => write!(f, "optimization failed: {e}"),
            CoreError::Queueing(e) => write!(f, "queueing model error: {e}"),
            CoreError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            CoreError::Audit(msg) => write!(f, "audit failed: {msg}"),
            CoreError::Lint(msg) => write!(f, "lint rejected model: {msg}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<SolveError> for CoreError {
    fn from(e: SolveError) -> Self {
        CoreError::Solver(e)
    }
}

impl From<QueueingError> for CoreError {
    fn from(e: QueueingError) -> Self {
        CoreError::Queueing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = CoreError::InsufficientCapacity {
            demanded: 10.0,
            capacity: 5.0,
        };
        assert!(e.to_string().contains("exceeds"));
        let e: CoreError = SolveError::Infeasible.into();
        assert!(matches!(e, CoreError::Solver(_)));
        let e = CoreError::Audit("dual bound lies".to_string());
        assert!(e.to_string().contains("audit failed"));
    }
}
